//! Weak fingerprints.
//!
//! NV-Dedup's workload-adaptive scheme (reproduced for the Section III model
//! and Eq. 4/5) computes a cheap *weak* fingerprint first and only falls back
//! to the strong SHA-1 fingerprint when the weak one collides; LO-Dedup
//! likewise uses "a fast hashing scheme and sampling technique". The weak
//! fingerprint must be dramatically cheaper than SHA-1 — `T_fw ≪ T_f` — so,
//! like LO-Dedup, we *sample*: eight 64-byte windows strided across the
//! chunk (512 bytes total) are mixed through CRC-32 and FNV-1a into a 64-bit
//! value. A false match (equal weak FPs for different chunks, e.g. chunks
//! differing only between sample windows) is by design resolved by the
//! strong fingerprint; a weak fingerprint is never trusted on its own.

/// A 64-bit weak fingerprint: `(crc32 << 32) | fnv1a_32` over sampled
/// windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WeakFp(pub u64);

/// Number of sampled windows.
const WINDOWS: usize = 8;
/// Bytes per window.
const WINDOW: usize = 64;

/// FNV-1a 32-bit prime.
const FNV_PRIME: u32 = 0x0100_0193;

/// Slice-by-8 CRC-32 tables (IEEE 802.3 polynomial, reflected), built at
/// compile time. `CRC_TABLES[0]` is the classic byte-at-a-time table;
/// `CRC_TABLES[k][i]` is the CRC of byte `i` followed by `k` zero bytes, so
/// eight lookups fold eight input bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

#[inline(always)]
fn crc32_byte(crc: u32, b: u8) -> u32 {
    CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8)
}

#[inline(always)]
fn fnv1a_byte(h: u32, b: u8) -> u32 {
    (h ^ b as u32).wrapping_mul(FNV_PRIME)
}

/// CRC-32 (byte at a time) of `data`, continuing from `crc`.
fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    data.iter().fold(crc, |c, &b| crc32_byte(c, b))
}

/// CRC-32 and FNV-1a of `data` in one pass, continuing from `(crc, fnv)`.
///
/// The CRC runs slice-by-8 (one table lookup per byte, all eight
/// independent) while FNV-1a's serial multiply chain steps byte by byte over
/// the same eight bytes, so the two hashes overlap instead of each walking
/// the window on its own. Equal to [`crc32_update`] and byte-wise FNV-1a.
fn crc32_fnv1a_update(mut crc: u32, mut fnv: u32, data: &[u8]) -> (u32, u32) {
    let (words, tail) = data.as_chunks::<8>();
    for w in words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
        for &b in w {
            fnv = fnv1a_byte(fnv, b);
        }
    }
    for &b in tail {
        crc = crc32_byte(crc, b);
        fnv = fnv1a_byte(fnv, b);
    }
    (crc, fnv)
}

/// Compute the weak fingerprint of a data chunk by sampling.
///
/// Short chunks (≤ 512 bytes) are hashed in full; longer chunks contribute
/// `WINDOWS` evenly-strided 64-byte windows, always including the first and
/// last window of the chunk.
pub fn weak_fingerprint(data: &[u8]) -> WeakFp {
    let mut crc = 0xFFFF_FFFFu32;
    let mut fnv = 0x811C_9DC5u32;
    if data.len() <= WINDOWS * WINDOW {
        (crc, fnv) = crc32_fnv1a_update(crc, fnv, data);
    } else {
        let stride = (data.len() - WINDOW) / (WINDOWS - 1);
        for w in 0..WINDOWS {
            let start = if w == WINDOWS - 1 {
                data.len() - WINDOW
            } else {
                w * stride
            };
            (crc, fnv) = crc32_fnv1a_update(crc, fnv, &data[start..start + WINDOW]);
        }
        // Length participates so a truncated chunk never aliases its prefix.
        crc = crc32_update(crc, &(data.len() as u64).to_le_bytes());
    }
    WeakFp((((!crc) as u64) << 32) | fnv as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, RngCore, SeedableRng};

    fn fnv1a_update(h: u32, data: &[u8]) -> u32 {
        data.iter().fold(h, |h, &b| fnv1a_byte(h, b))
    }

    /// The weak fingerprint with each hash walking each window on its own,
    /// byte at a time: the oracle for the fused pass.
    fn bytewise_weak_fingerprint(data: &[u8]) -> WeakFp {
        let windows: Vec<&[u8]> = if data.len() <= WINDOWS * WINDOW {
            vec![data]
        } else {
            let stride = (data.len() - WINDOW) / (WINDOWS - 1);
            (0..WINDOWS)
                .map(|w| {
                    let start = if w == WINDOWS - 1 {
                        data.len() - WINDOW
                    } else {
                        w * stride
                    };
                    &data[start..start + WINDOW]
                })
                .collect()
        };
        let mut crc = 0xFFFF_FFFFu32;
        let mut fnv = 0x811C_9DC5u32;
        for win in &windows {
            crc = crc32_update(crc, win);
            fnv = fnv1a_update(fnv, win);
        }
        if data.len() > WINDOWS * WINDOW {
            crc = crc32_update(crc, &(data.len() as u64).to_le_bytes());
        }
        WeakFp((((!crc) as u64) << 32) | fnv as u64)
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789" (full-hash path).
        assert_eq!(!crc32_update(0xFFFF_FFFF, b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn fnv_known_vectors() {
        assert_eq!(fnv1a_update(0x811C_9DC5, b""), 0x811C_9DC5);
        assert_eq!(fnv1a_update(0x811C_9DC5, b"a"), 0xE40C_292C);
        assert_eq!(fnv1a_update(0x811C_9DC5, b"foobar"), 0xBF9C_F968);
    }

    #[test]
    fn fused_pass_equals_bytewise_hashes() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut page = vec![0u8; 4096];
        for _ in 0..200 {
            rng.fill_bytes(&mut page);
            assert_eq!(weak_fingerprint(&page), bytewise_weak_fingerprint(&page));
        }
        // Every short length (full hash, any tail), the 512/513 switch to
        // sampling, and windows at odd offsets.
        let mut data = vec![0u8; 9000];
        rng.fill_bytes(&mut data);
        for len in (0..=600).chain([1000, 4095, 4097, 8191, 9000]) {
            assert_eq!(
                weak_fingerprint(&data[..len]),
                bytewise_weak_fingerprint(&data[..len]),
                "len {len}"
            );
        }
        // The fused update itself, against the byte-wise functions.
        for len in 0..=64 {
            assert_eq!(
                crc32_fnv1a_update(0xFFFF_FFFF, 0x811C_9DC5, &data[..len]),
                (
                    crc32_update(0xFFFF_FFFF, &data[..len]),
                    fnv1a_update(0x811C_9DC5, &data[..len])
                ),
                "len {len}"
            );
        }
    }

    #[test]
    fn equal_data_equal_weak_fp() {
        assert_eq!(
            weak_fingerprint(&[5u8; 4096]),
            weak_fingerprint(&[5u8; 4096])
        );
    }

    #[test]
    fn flips_inside_sample_windows_change_weak_fp() {
        // First and last windows are always sampled; so is the start of
        // each stride.
        let mut a = vec![0u8; 4096];
        let base = weak_fingerprint(&a);
        for pos in [0usize, 63, 4032, 4095] {
            a[pos] ^= 1;
            assert_ne!(weak_fingerprint(&a), base, "flip at {pos}");
            a[pos] ^= 1;
        }
    }

    #[test]
    fn flips_outside_sample_windows_may_pass_weakly() {
        // The documented trade-off of sampling: a change between windows is
        // invisible to the weak fingerprint (and must be caught by the
        // strong one). Window stride for 4 KB is (4096-64)/7 = 576, so byte
        // 100 lies between window 0 ([0,64)) and window 1 ([576,640)).
        let mut a = vec![0u8; 4096];
        let base = weak_fingerprint(&a);
        a[100] ^= 1;
        assert_eq!(weak_fingerprint(&a), base);
    }

    #[test]
    fn short_chunks_hash_in_full() {
        let mut a = vec![0u8; 256];
        let base = weak_fingerprint(&a);
        for pos in [0usize, 100, 255] {
            a[pos] ^= 1;
            assert_ne!(weak_fingerprint(&a), base, "flip at {pos}");
            a[pos] ^= 1;
        }
    }

    #[test]
    fn length_is_mixed_in() {
        let a = vec![7u8; 4096];
        let b = vec![7u8; 8192];
        assert_ne!(weak_fingerprint(&a), weak_fingerprint(&b));
    }

    #[test]
    fn distinct_random_blocks_rarely_collide() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for i in 0..10_000u32 {
            let mut block = vec![0u8; 4096];
            block[..4].copy_from_slice(&i.to_le_bytes());
            seen.insert(weak_fingerprint(&block));
        }
        assert_eq!(seen.len(), 10_000);
    }

    #[test]
    fn sampling_is_much_cheaper_than_full_hash() {
        // The whole point: weak fingerprinting a 4 KB chunk touches 512
        // sampled bytes, not 4096.
        let data = vec![3u8; 4096];
        let t0 = std::time::Instant::now();
        for _ in 0..2000 {
            std::hint::black_box(weak_fingerprint(std::hint::black_box(&data)));
        }
        let weak_ns = t0.elapsed().as_nanos() / 2000;
        let t0 = std::time::Instant::now();
        for _ in 0..2000 {
            std::hint::black_box(crate::sha1(std::hint::black_box(&data)));
        }
        let strong_ns = t0.elapsed().as_nanos() / 2000;
        assert!(
            weak_ns * 3 < strong_ns,
            "weak {weak_ns} ns vs strong {strong_ns} ns"
        );
    }
}
