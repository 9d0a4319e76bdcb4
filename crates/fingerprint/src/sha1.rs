//! SHA-1 (FIPS 180-1), implemented from scratch.
//!
//! DeNova "generates a fingerprint using the SHA-1 hashing algorithm"
//! (Section IV-B2); the 20 B digest is the FP field of a FACT entry.
//!
//! The compression function runs over all whole 64-byte blocks of an
//! `update` in one call and picks its kernel by CPU:
//!
//! - on x86-64 with the SHA extensions (`sha1rnds4`, `sha1nexte`,
//!   `sha1msg1`, `sha1msg2`), four rounds per instruction;
//! - everywhere else, the portable textbook compression function.
//!
//! Both produce identical digests. Speed matters here because the stack
//! models the paper's fingerprint cost, not the host's: `FpThrottle` in the
//! `denova` crate pads each fingerprint *up to* Table IV's `T_f` (11.78 µs
//! per 4 KB), and padding can only add time. A host SHA-1 slower than
//! `T_f` would overstate the cost of every deduplicated page, so the kernel
//! must be fast enough to leave room for the pad. The SHA-NI kernel is
//! (about 3 µs per 4 KB); the portable one may not be, and the throttle's
//! `fp.overshoot_ns` gauge then shows by how much.
//!
//! SHA-1 is cryptographically broken for adversarial collision resistance,
//! but the paper (like most dedup systems of its generation) uses it purely
//! as a content fingerprint, where accidental collisions are the concern and
//! remain negligible (~2^-80 for exabyte-scale corpora).

/// One 64-byte SHA-1 message block.
type Block = [u8; 64];

/// A compression kernel: folds `blocks` into `state` in order.
type Kernel = fn(&mut [u32; 5], &[Block]);

/// FIPS 180-1 initial hash value.
const H0: [u32; 5] = [
    0x6745_2301,
    0xEFCD_AB89,
    0x98BA_DCFE,
    0x1032_5476,
    0xC3D2_E1F0,
];

/// Incremental SHA-1 hasher.
#[derive(Clone)]
pub struct Sha1 {
    state: [u32; 5],
    /// Total message length in bytes.
    len: u64,
    /// Partial block buffer.
    buf: Block,
    buf_len: usize,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    /// A fresh hasher with the FIPS initial state.
    pub fn new() -> Self {
        Sha1 {
            state: H0,
            len: 0,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }

    /// Absorb `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.update_with(data, compress_blocks);
    }

    /// Finish and return the 20-byte digest.
    pub fn finalize(self) -> [u8; 20] {
        self.finalize_with(compress_blocks)
    }

    fn update_with(&mut self, mut data: &[u8], kernel: Kernel) {
        self.len = self.len.wrapping_add(data.len() as u64);
        // Top up a partial block first.
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                return;
            }
            kernel(&mut self.state, std::slice::from_ref(&self.buf));
            self.buf_len = 0;
        }
        // Whole blocks straight from the input, in one kernel call.
        let (blocks, tail) = data.as_chunks::<64>();
        kernel(&mut self.state, blocks);
        // Stash the tail.
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    fn finalize_with(mut self, kernel: Kernel) -> [u8; 20] {
        // Padding: 0x80, zeros, then the 64-bit big-endian bit length, in
        // one final block or, when the length field does not fit, two.
        let bit_len = self.len.wrapping_mul(8);
        let mut pad = [[0u8; 64]; 2];
        pad[0][..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        pad[0][self.buf_len] = 0x80;
        let blocks = if self.buf_len < 56 { 1 } else { 2 };
        pad[blocks - 1][56..].copy_from_slice(&bit_len.to_be_bytes());
        kernel(&mut self.state, &pad[..blocks]);
        let mut out = [0u8; 20];
        for (o, word) in out.chunks_exact_mut(4).zip(self.state) {
            o.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// One-shot SHA-1 of `data`.
pub fn sha1(data: &[u8]) -> [u8; 20] {
    let mut h = Sha1::new();
    h.update(data);
    h.finalize()
}

/// Fold `blocks` into `state` with the fastest kernel this CPU supports.
fn compress_blocks(state: &mut [u32; 5], blocks: &[Block]) {
    #[cfg(target_arch = "x86_64")]
    if shani::detected() {
        // SAFETY: `detected` confirmed every feature `compress` enables.
        unsafe { shani::compress(state, blocks) };
        return;
    }
    compress_portable(state, blocks);
}

/// The portable kernel: the textbook FIPS 180-1 compression function, with
/// an 80-word message schedule and one round per step.
fn compress_portable(state: &mut [u32; 5], blocks: &[Block]) {
    for block in blocks {
        let mut w = [0u32; 80];
        for (wi, bytes) in w.iter_mut().zip(block.as_chunks::<4>().0) {
            *wi = u32::from_be_bytes(*bytes);
        }
        for i in 16..80 {
            w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
        }

        let [mut a, mut b, mut c, mut d, mut e] = *state;
        for (i, &wi) in w.iter().enumerate() {
            let (f, k) = match i {
                0..=19 => ((b & c) | (!b & d), 0x5A82_7999),
                20..=39 => (b ^ c ^ d, 0x6ED9_EBA1),
                40..=59 => ((b & c) | (b & d) | (c & d), 0x8F1B_BCDC),
                _ => (b ^ c ^ d, 0xCA62_C1D6),
            };
            let tmp = a
                .rotate_left(5)
                .wrapping_add(f)
                .wrapping_add(e)
                .wrapping_add(k)
                .wrapping_add(wi);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = tmp;
        }

        for (s, v) in state.iter_mut().zip([a, b, c, d, e]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// The x86-64 SHA extensions kernel.
#[cfg(target_arch = "x86_64")]
mod shani {
    use super::Block;
    use std::arch::x86_64::*;

    /// Whether this CPU has every feature [`compress`] enables.
    #[inline]
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// Fold `blocks` into `state` with `sha1rnds4` and friends.
    ///
    /// Register layout: `abcd` holds a..d with `a` in the top lane; the
    /// second operand of `sha1rnds4` holds `e + W[t]` in the top lane and
    /// `W[t+1..t+3]` below it. `sha1nexte` derives the next group's `e`
    /// (`rol30` of the `a` four rounds back) and adds it to the message.
    ///
    /// # Safety
    ///
    /// The CPU must support SHA, SSE2, SSSE3 and SSE4.1 ([`detected`]).
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) unsafe fn compress(state: &mut [u32; 5], blocks: &[Block]) {
        // Reverses all 16 bytes, turning four big-endian message words into
        // lanes 3..0 holding W[t], W[t+1], W[t+2], W[t+3].
        let byte_swap = _mm_set_epi64x(0x0001_0203_0405_0607, 0x0809_0A0B_0C0D_0E0F);
        let [a, b, c, d, e] = state.map(|v| v as i32);
        let mut abcd = _mm_set_epi32(a, b, c, d);
        let mut e0 = _mm_set_epi32(e, 0, 0, 0);

        for block in blocks {
            let load = |i: usize| {
                // SAFETY: `i < 4`, so the 16 bytes at `16 * i` lie inside the
                // 64-byte block, and `loadu` has no alignment requirement.
                let v = unsafe { _mm_loadu_si128(block.as_ptr().add(16 * i).cast()) };
                _mm_shuffle_epi8(v, byte_swap)
            };
            // `m[g & 3]` holds the message words of round group `g`
            // (W[4g..4g+3]); group `g >= 4` derives them in place from the
            // four groups before it.
            let mut m = [load(0), load(1), load(2), load(3)];
            let abcd_save = abcd;
            let e_save = e0;

            // Group 0 adds `e` directly; later groups get it from `sha1nexte`.
            let mut prev = abcd;
            abcd = _mm_sha1rnds4_epu32(abcd, _mm_add_epi32(e0, m[0]), 0);
            macro_rules! group {
                ($g:literal, $f:literal) => {
                    if $g >= 4 {
                        let partial = _mm_sha1msg1_epu32(m[$g & 3], m[($g + 1) & 3]);
                        m[$g & 3] = _mm_sha1msg2_epu32(
                            _mm_xor_si128(partial, m[($g + 2) & 3]),
                            m[($g + 3) & 3],
                        );
                    }
                    let e_w = _mm_sha1nexte_epu32(prev, m[$g & 3]);
                    prev = abcd;
                    abcd = _mm_sha1rnds4_epu32(abcd, e_w, $f);
                };
            }
            group!(1, 0);
            group!(2, 0);
            group!(3, 0);
            group!(4, 0);
            group!(5, 1);
            group!(6, 1);
            group!(7, 1);
            group!(8, 1);
            group!(9, 1);
            group!(10, 2);
            group!(11, 2);
            group!(12, 2);
            group!(13, 2);
            group!(14, 2);
            group!(15, 3);
            group!(16, 3);
            group!(17, 3);
            group!(18, 3);
            group!(19, 3);

            // The final `e` is rol30 of `a` four rounds back, plus the saved e.
            e0 = _mm_sha1nexte_epu32(prev, e_save);
            abcd = _mm_add_epi32(abcd, abcd_save);
        }

        *state = [
            _mm_extract_epi32(abcd, 3) as u32,
            _mm_extract_epi32(abcd, 2) as u32,
            _mm_extract_epi32(abcd, 1) as u32,
            _mm_extract_epi32(abcd, 0) as u32,
            _mm_extract_epi32(e0, 3) as u32,
        ];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, RngCore, SeedableRng};

    fn hex(digest: &[u8; 20]) -> String {
        digest.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Every kernel this CPU can run, by name.
    fn kernels() -> Vec<(&'static str, Kernel)> {
        #[allow(unused_mut)]
        let mut ks: Vec<(&'static str, Kernel)> = vec![("portable", compress_portable)];
        #[cfg(target_arch = "x86_64")]
        if shani::detected() {
            // SAFETY: only reached when `detected` confirmed the features.
            ks.push(("sha-ni", |s, b| unsafe { shani::compress(s, b) }));
        }
        ks
    }

    /// Digest `chunks` (fed as successive `update`s) with one kernel.
    fn digest_with(kernel: Kernel, chunks: &[&[u8]]) -> [u8; 20] {
        let mut h = Sha1::new();
        for c in chunks {
            h.update_with(c, kernel);
        }
        h.finalize_with(kernel)
    }

    fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut v = vec![0u8; len];
        StdRng::seed_from_u64(seed).fill_bytes(&mut v);
        v
    }

    // FIPS 180-1 / RFC 3174 test vectors.
    #[test]
    fn empty_message() {
        assert_eq!(hex(&sha1(b"")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    }

    #[test]
    fn fips_vector_abc() {
        assert_eq!(
            hex(&sha1(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
    }

    #[test]
    fn fips_vector_448_bits() {
        assert_eq!(
            hex(&sha1(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn fips_vector_million_a() {
        let m = vec![b'a'; 1_000_000];
        assert_eq!(hex(&sha1(&m)), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
    }

    #[test]
    fn rfc3174_vector_repeated() {
        // TEST4 from RFC 3174: 10 copies of a 64-byte pattern... actually
        // "01234567" repeated 80 times (640 bytes).
        let m: Vec<u8> = b"0123456701234567012345670123456701234567012345670123456701234567"
            .iter()
            .copied()
            .cycle()
            .take(640)
            .collect();
        assert_eq!(hex(&sha1(&m)), "dea356a2cddd90c7a7ecedc5ebb563934f460452");
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let one = sha1(&data);
        // Feed in awkward chunk sizes that straddle block boundaries.
        for chunk_size in [1usize, 3, 63, 64, 65, 100, 4096] {
            let mut h = Sha1::new();
            for c in data.chunks(chunk_size) {
                h.update(c);
            }
            assert_eq!(h.finalize(), one, "chunk size {chunk_size}");
        }
    }

    #[test]
    fn length_boundary_padding_cases() {
        // Messages around 55/56 and 119/120 bytes exercise every padding
        // branch: the length field either fits the final block or forces an
        // extra one.
        let expected = [
            (55usize, "c1c8bbdc22796e28c0e15163d20899b65621d65a"),
            (56, "c2db330f6083854c99d4b5bfb6e8f29f201be699"),
            (57, "f08f24908d682555111be7ff6f004e78283d989a"),
            (63, "03f09f5b158a7a8cdad920bddc29b81c18a551f5"),
            (64, "0098ba824b5c16427bd7a1122a5a442a25ec644d"),
            (65, "11655326c708d70319be2610e8a57d9a5b959d3b"),
            (119, "ee971065aaa017e0632a8ca6c77bb3bf8b1dfc56"),
            (120, "f34c1488385346a55709ba056ddd08280dd4c6d6"),
            (121, "fa6b5a6f8ac27182f838fe7841ec6d2aef3ade29"),
        ];
        for (len, want) in expected {
            let m = vec![b'a'; len];
            for (name, k) in kernels() {
                assert_eq!(hex(&digest_with(k, &[&m])), want, "{name} len {len}");
            }
        }
    }

    #[test]
    fn four_kb_chunk_digest_is_stable() {
        // Pin the digest of an all-zero 4 KB page — the most common block in
        // fresh file systems; a regression here would silently break dedup.
        let zero_page = vec![0u8; 4096];
        assert_eq!(
            hex(&sha1(&zero_page)),
            "1ceaf73df40e531df3bfb26b4fb7cd95fb7bff1d"
        );
        for (name, k) in kernels() {
            assert_eq!(
                hex(&digest_with(k, &[&zero_page])),
                "1ceaf73df40e531df3bfb26b4fb7cd95fb7bff1d",
                "{name}"
            );
        }
    }

    #[test]
    fn nonzero_four_kb_page_known_answer() {
        // Bytes `i % 251`: every message word differs, unlike the zero page.
        let page: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        assert_eq!(
            hex(&sha1(&page)),
            "92ca8f2b4163e64a1b53e0fde263ad56cbdb75fc"
        );
        for (name, k) in kernels() {
            assert_eq!(
                hex(&digest_with(k, &[&page])),
                "92ca8f2b4163e64a1b53e0fde263ad56cbdb75fc",
                "{name}"
            );
        }
    }

    // The portable kernel is the oracle: the known answers above pin it, and
    // every other kernel (and the dispatched `sha1`) must agree with it.

    #[test]
    fn kernels_agree_at_every_short_length() {
        let data = random_bytes(1, 300);
        for len in 0..=300 {
            let want = digest_with(compress_portable, &[&data[..len]]);
            assert_eq!(sha1(&data[..len]), want, "dispatched len {len}");
            for (name, k) in kernels() {
                assert_eq!(digest_with(k, &[&data[..len]]), want, "{name} len {len}");
            }
        }
    }

    #[test]
    fn kernels_agree_over_chunked_updates() {
        let data = random_bytes(2, 5000);
        let want = digest_with(compress_portable, &[&data]);
        for (name, k) in kernels() {
            for chunk in [1usize, 7, 55, 56, 63, 64, 65, 127, 128, 129, 1000, 4096] {
                let parts: Vec<&[u8]> = data.chunks(chunk).collect();
                assert_eq!(digest_with(k, &parts), want, "{name} chunk {chunk}");
            }
            // Uneven split that leaves a partial block before a long run.
            assert_eq!(
                digest_with(k, &[&data[..3], &data[3..4099], &data[4099..]]),
                want,
                "{name} uneven"
            );
        }
    }

    #[test]
    fn kernels_agree_on_random_pages() {
        for seed in 0..64 {
            let page = random_bytes(100 + seed, 4096);
            let want = digest_with(compress_portable, &[&page]);
            assert_eq!(sha1(&page), want, "dispatched, seed {seed}");
            for (name, k) in kernels() {
                assert_eq!(digest_with(k, &[&page]), want, "{name} seed {seed}");
            }
        }
    }

    #[test]
    fn kernels_agree_on_one_mebibyte() {
        let data: Vec<u8> = (0..1u32 << 20)
            .map(|i| (i.wrapping_mul(i).wrapping_mul(31).wrapping_add(7)) as u8)
            .collect();
        for (name, k) in kernels() {
            assert_eq!(
                hex(&digest_with(k, &[&data])),
                "56bbfc7e10a86ce9320f0624e57385de6d4012f7",
                "{name}"
            );
        }
        assert_eq!(
            hex(&sha1(&data)),
            "56bbfc7e10a86ce9320f0624e57385de6d4012f7"
        );
    }
}
