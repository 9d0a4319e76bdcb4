//! FACT — the Failure Atomic Consistent Table (paper Section IV-C).
//!
//! FACT is a *persistent, DRAM-free* deduplication index: a static linear
//! table of 64 B entries living entirely in PM. It is split into
//!
//! * the **direct access area (DAA)** — `2^n` entries indexed directly by
//!   the n-bit prefix of a chunk's SHA-1 fingerprint (one PM read per
//!   lookup when there is no prefix collision), and
//! * the **indirect access area (IAA)** — another `2^n` entries holding
//!   prefix-collision chains as doubly-linked lists hanging off the DAA
//!   entry.
//!
//! Each entry is exactly one cache line, so any field update persists with a
//! single flush + fence. The (RFC, UC) counter pair shares the first 8 bytes
//! and is updated with one atomic 64-bit operation — the paper's count-based
//! consistency primitive ("after the transactions become persistent, an
//! atomic update decreases the UC and increases the RFC").
//!
//! The **delete pointer** gives reclaim an O(1) reverse index: the entry at
//! table index `B` stores, in its delete-pointer field, the index of the
//! FACT entry whose canonical block is `B`. Resolving a block to its FACT
//! entry therefore takes *exactly two PM reads* (asserted by tests). A slot
//! thus serves two independent roles — dedup metadata keyed by FP prefix,
//! and delete-pointer cell keyed by block number — so writers must never
//! clobber the other role's bytes.
//!
//! Entry layout (64 B, Fig. 4):
//!
//! ```text
//! 0..4    RFC  (u32)     reference count
//! 4..8    UC   (u32)     update count (in-flight dedup transactions)
//! 8..28   FP   (20 B)    SHA-1 fingerprint
//! 28..36  block (u64)    canonical data block (first block of a run)
//! 36..44  prev (i64)     IAA chain predecessor (0 = chain head sentinel)
//! 44..52  next (i64)     IAA chain successor (-1 = none)
//! 52..60  delete pointer (i64, -1 = none)
//! 60..64  run_pages (u32, 0 or 1 = per-page record)
//! ```
//!
//! **Extent runs.** A record with `run_pages = N > 1` is a *run anchor*: it
//! stands for the `N` physically consecutive canonical blocks
//! `block .. block + N`, all sharing one reference count — `RFC = R` means
//! *each* block of the run has exactly `R` owners. The delete pointers of
//! every covered block point at the anchor, so reclaim still resolves any
//! run block in two PM reads. The anchor's fingerprint is that of the
//! *first* block; the interior per-page records are removed at promotion
//! ([`Fact::merge_run`]) and recreated — re-fingerprinted from the
//! canonical bytes — when per-block granularity is needed again
//! ([`Fact::demote_run`]). `run_pages` is written with its own 4-byte
//! persist and serves as the commit point for both directions;
//! [`Fact::repair_runs`] finishes a half-done promotion after a crash by
//! absorbing leftover per-page records into the range their anchor claims.

use crate::stats::DedupStats;
use denova_fingerprint::Fingerprint;
use denova_nova::{Layout, NovaError, Result};
use denova_pmem::PmemDevice;
use denova_sync::RcuCell;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU8, Ordering};
use std::sync::Arc;

/// Number of chain-lock stripes. Counter updates are lock-free atomics;
/// stripes only serialize chain-structure mutations (insert/remove/reorder)
/// per FP prefix.
const STRIPES: usize = 256;

const OFF_COUNTERS: u64 = 0;
const OFF_PREV: u64 = 36;
const OFF_NEXT: u64 = 44;
const OFF_DELETE_PTR: u64 = 52;
const OFF_RUN_PAGES: u64 = 60;

/// Chain-terminator / empty-field sentinel for `prev`, `next`, `delete_ptr`.
pub const NIL: i64 = -1;

/// Default extent promotion threshold: 16 pages = 64 KiB of consecutive
/// duplicate data.
pub const DEFAULT_EXTENT_THRESHOLD_PAGES: u32 = 16;

/// A decoded FACT entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FactEntry {
    /// The `rfc` value.
    pub rfc: u32,
    /// The `uc` value.
    pub uc: u32,
    /// The `fp` value.
    pub fp: Fingerprint,
    /// The `block` value.
    pub block: u64,
    /// The `prev` value.
    pub prev: i64,
    /// The `next` value.
    pub next: i64,
    /// The `delete_ptr` value.
    pub delete_ptr: i64,
    /// Pages covered by this record: 1 for a per-page record, `N > 1` for a
    /// run anchor standing for blocks `block .. block + N` (a stored 0 —
    /// pre-extent images — decodes as 1).
    pub run_pages: u32,
}

impl FactEntry {
    /// Whether the slot holds live dedup metadata (the FP of real data is
    /// never all-zero).
    pub fn is_occupied(&self) -> bool {
        !self.fp.is_zero()
    }
}

/// Handle to the persistent FACT region of a formatted device.
pub struct Fact {
    dev: Arc<PmemDevice>,
    layout: Layout,
    /// DRAM cache of free IAA slots. This is *allocator* state (like NOVA's
    /// free lists), not lookup-index state — lookups never touch it — so the
    /// paper's DRAM-free-indexing property holds. Rebuilt by a single FACT
    /// scan on mount.
    iaa_free: Mutex<IaaFree>,
    /// Chain-structure locks, striped by FP prefix.
    stripes: Vec<Mutex<()>>,
    stats: Arc<DedupStats>,
    /// Prefixes whose chains deserve reordering: a lookup walked past
    /// `reorder_walk_threshold` entries to reach one with
    /// `RFC >= reorder_rfc_threshold` (Section IV-E's dual-threshold
    /// trigger). Drained by the daemon.
    reorder_candidates: Mutex<std::collections::HashSet<u64>>,
    reorder_walk_threshold: std::sync::atomic::AtomicU64,
    reorder_rfc_threshold: std::sync::atomic::AtomicU32,
    /// Calibrated fingerprint cost model shared by every dedup path.
    fp: crate::fp::FpThrottle,
    /// DRAM presence filter so absent-fingerprint lookups skip the PM probe.
    filter: PresenceFilter,
    /// RCU-published per-stripe lookup tables (see [`StripeTable`]). Like
    /// `iaa_free` and `filter` this is rebuildable *cache* state — the
    /// persistent truth stays entirely in PM — so the paper's
    /// DRAM-free-indexing property holds. Writers republish under the
    /// stripe lock; readers pin an epoch and dereference without blocking.
    stripe_tables: Vec<RcuCell<StripeTable>>,
    /// Read-side toggle for the RCU fast path (on by default; the off
    /// switch exists for benchmarks quantifying its effect).
    rcu: AtomicBool,
    /// Duplicate runs at least this many pages long are promoted into one
    /// extent-run record ([`Fact::merge_run`]). 0 disables promotion — the
    /// per-block baseline the bench harness compares against.
    extent_threshold_pages: AtomicU32,
    /// Serializes run-granularity transitions ([`Fact::merge_run`] /
    /// [`Fact::demote_run`]): two overlapping transitions on the same range
    /// would double-cover blocks. Always taken *before* any stripe lock.
    run_lock: Mutex<()>,
}

/// One cached chain position: where `fp` lives in FACT and how many PM
/// reads a chain walk would have spent reaching it (for the reorder
/// trigger).
#[derive(Debug, Clone, Copy)]
struct StripeCacheEnt {
    idx: u64,
    walk_reads: u32,
}

/// DRAM snapshot of every fingerprint chained under one lock stripe,
/// published wholesale through an [`RcuCell`] after each chain mutation.
/// Readers resolve a fingerprint to its entry index with zero locks and
/// verify the hit with a single PM entry read; a published table that lacks
/// the fingerprint is authoritative for absence (every mutation republishes
/// before releasing the stripe lock, and mount rebuilds all tables).
type StripeTable = HashMap<Fingerprint, StripeCacheEnt>;

#[derive(Debug)]
struct IaaFree {
    /// Recycled IAA slots.
    stack: Vec<u64>,
    /// Next never-used IAA slot.
    cursor: u64,
}

/// Hash functions per fingerprint in the presence filter.
const FILTER_HASHES: usize = 4;

/// Sticky saturation threshold for filter counters. Counters at or above
/// this never move again; the headroom up to `u8::MAX` absorbs racy
/// overshoot from the wait-free increment (see [`PresenceFilter`]).
const FILTER_SAT: u8 = 192;

/// Filter counters provisioned per FACT entry. At 8 counters/entry and 4
/// hashes the false-positive rate is ~2.4% at full table load; typical loads
/// sit far below that.
const FILTER_COUNTERS_PER_ENTRY: u64 = 8;

/// Per-stripe DRAM counting Bloom filter over the fingerprints present in
/// FACT. Like `iaa_free` this is *cache* state, not index state — the
/// persistent truth stays entirely in PM and the filter is rebuilt by the
/// mount-time scan — so the paper's DRAM-free-indexing property holds. A
/// negative answer is authoritative (no false negatives: a fingerprint is
/// added before its entry becomes visible and cleared only after the entry
/// is gone), so `lookup` of an absent fingerprint skips the PM probe.
///
/// Counters saturate sticky at [`FILTER_SAT`]: a saturated counter is never
/// decremented, trading a permanent (vanishingly rare) false positive for
/// never underflowing into a false negative.
///
/// Every operation is **wait-free**: one relaxed load plus at most one
/// unconditional `fetch_add`/`fetch_sub` per slot — no CAS retry loop, so
/// an update finishes in a bounded number of steps regardless of
/// contention. The check-then-add race can overshoot `FILTER_SAT` by at
/// most one per concurrently racing thread; the `255 - FILTER_SAT`
/// headroom absorbs that without wrapping. A check-then-sub race can
/// underflow a counter two removers both saw at 1 — the wrap lands at 255,
/// i.e. *above* saturation, which reads as sticky-present: the error is
/// always in the safe (false-positive) direction, never a false negative.
struct PresenceFilter {
    /// `STRIPES` banks of `bank_len` counters each, indexed by FP-prefix
    /// stripe so concurrent dedup workers touch disjoint cache lines.
    counters: Box<[AtomicU8]>,
    /// `bank_len - 1`; bank length is a power of two.
    bank_mask: u64,
    enabled: AtomicBool,
}

impl PresenceFilter {
    fn new(total_entries: u64) -> PresenceFilter {
        let bank_len = ((total_entries / STRIPES as u64 + 1) * FILTER_COUNTERS_PER_ENTRY)
            .next_power_of_two()
            .max(64);
        let counters: Box<[AtomicU8]> = (0..bank_len * STRIPES as u64)
            .map(|_| AtomicU8::new(0))
            .collect();
        PresenceFilter {
            counters,
            bank_mask: bank_len - 1,
            enabled: AtomicBool::new(true),
        }
    }

    /// The `FILTER_HASHES` counter slots of `fp` in its stripe's bank. The
    /// hashes are word-sized windows of the SHA-1 fingerprint past the
    /// prefix bytes — SHA-1 output is uniform, so no rehashing is needed.
    #[inline]
    fn slots(&self, prefix: u64, fp: &Fingerprint) -> [usize; FILTER_HASHES] {
        let b = fp.as_bytes();
        let base = (prefix % STRIPES as u64) * (self.bank_mask + 1);
        std::array::from_fn(|k| {
            let o = 4 + 4 * k;
            let h = u32::from_le_bytes(b[o..o + 4].try_into().unwrap()) as u64;
            (base + (h & self.bank_mask)) as usize
        })
    }

    fn add(&self, prefix: u64, fp: &Fingerprint) {
        for slot in self.slots(prefix, fp) {
            // Wait-free saturating increment: stick at FILTER_SAT rather
            // than wrap (racy overshoot lands in the 255 - FILTER_SAT
            // headroom and stays sticky).
            if self.counters[slot].load(Ordering::Relaxed) < FILTER_SAT {
                self.counters[slot].fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn remove(&self, prefix: u64, fp: &Fingerprint) {
        for slot in self.slots(prefix, fp) {
            // Never decrement a saturated or zero counter (sticky / no
            // underflow). A racy double-decrement at 1 wraps to 255 —
            // above saturation, i.e. sticky-present, never falsely absent.
            let c = self.counters[slot].load(Ordering::Relaxed);
            if c > 0 && c < FILTER_SAT {
                self.counters[slot].fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    /// False means *definitely absent*; true means "probably present".
    #[inline]
    fn maybe_contains(&self, prefix: u64, fp: &Fingerprint) -> bool {
        self.slots(prefix, fp)
            .iter()
            .all(|&slot| self.counters[slot].load(Ordering::Relaxed) > 0)
    }
}

impl Fact {
    /// Attach to the FACT region of a freshly-formatted device (all slots
    /// empty).
    pub fn new(dev: Arc<PmemDevice>, layout: Layout, stats: Arc<DedupStats>) -> Fact {
        Fact {
            iaa_free: Mutex::new(IaaFree {
                stack: Vec::new(),
                cursor: layout.daa_entries(),
            }),
            stripes: (0..STRIPES).map(|_| Mutex::new(())).collect(),
            reorder_candidates: Mutex::new(std::collections::HashSet::new()),
            reorder_walk_threshold: std::sync::atomic::AtomicU64::new(3),
            reorder_rfc_threshold: std::sync::atomic::AtomicU32::new(2),
            fp: crate::fp::FpThrottle::new(dev.metrics()),
            filter: PresenceFilter::new(layout.fact_entries()),
            // Publish empty tables up front so an entry missing from a
            // stripe's table authoritatively means "absent" from the start.
            stripe_tables: (0..STRIPES)
                .map(|_| RcuCell::new(StripeTable::new()))
                .collect(),
            rcu: AtomicBool::new(true),
            extent_threshold_pages: AtomicU32::new(DEFAULT_EXTENT_THRESHOLD_PAGES),
            run_lock: Mutex::new(()),
            dev,
            layout,
            stats,
        }
    }

    /// Attach to an existing FACT region, rebuilding the DRAM cache state —
    /// the IAA free-slot stack and the presence filter — in a single table
    /// scan (mount-time cost, like NOVA's log scan).
    pub fn mount(dev: Arc<PmemDevice>, layout: Layout, stats: Arc<DedupStats>) -> Fact {
        let fact = Fact::new(dev, layout, stats);
        let mut free = IaaFree {
            stack: Vec::new(),
            cursor: fact.entries(),
        };
        let mut live_prefixes = Vec::new();
        for idx in 0..fact.entries() {
            let e = fact.read_entry(idx);
            if e.is_occupied() {
                fact.filter.add(e.fp.prefix(fact.prefix_bits()), &e.fp);
                if idx < fact.layout.daa_entries() {
                    live_prefixes.push(idx);
                }
            } else if idx >= fact.layout.daa_entries() {
                free.stack.push(idx);
            }
        }
        // Serve recycled slots in ascending order for determinism.
        free.stack.reverse();
        *fact.iaa_free.lock() = free;
        // Rebuild the RCU stripe tables by walking each live chain (mount
        // is single-threaded, so each table is built whole and published
        // once).
        let mut tables: Vec<StripeTable> = (0..STRIPES).map(|_| StripeTable::new()).collect();
        for prefix in live_prefixes {
            let bank = &mut tables[(prefix as usize) % STRIPES];
            for (pos, (idx, e)) in fact.chain(prefix).into_iter().enumerate() {
                bank.insert(
                    e.fp,
                    StripeCacheEnt {
                        idx,
                        walk_reads: pos as u32 + 1,
                    },
                );
            }
        }
        for (sid, table) in tables.into_iter().enumerate() {
            fact.stripe_tables[sid].publish(table);
        }
        fact
    }

    /// Enable or disable the RCU stripe-table read path (enabled by
    /// default; the off switch exists for benchmarks quantifying its
    /// effect). Writers keep republishing either way, so re-enabling is
    /// always safe.
    pub fn set_rcu_enabled(&self, on: bool) {
        self.rcu.store(on, Ordering::Relaxed);
    }

    /// Whether lookups currently take the RCU stripe-table fast path.
    pub fn rcu_enabled(&self) -> bool {
        self.rcu.load(Ordering::Relaxed)
    }

    /// Enable or disable the DRAM presence filter (enabled by default; the
    /// off switch exists for benchmarks quantifying its effect).
    pub fn set_filter_enabled(&self, on: bool) {
        self.filter.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether the presence filter currently short-circuits absent lookups.
    pub fn filter_enabled(&self) -> bool {
        self.filter.enabled.load(Ordering::Relaxed)
    }

    /// Set the extent promotion threshold in pages (0 disables promotion).
    pub fn set_extent_threshold_pages(&self, pages: u32) {
        self.extent_threshold_pages.store(pages, Ordering::Relaxed);
    }

    /// Duplicate-run length (pages) at which the dedup daemon promotes the
    /// run's per-page records into one extent record; 0 = never.
    pub fn extent_threshold_pages(&self) -> u32 {
        self.extent_threshold_pages.load(Ordering::Relaxed)
    }

    /// Total entries (DAA + IAA).
    pub fn entries(&self) -> u64 {
        self.layout.fact_entries()
    }

    /// Entries in the DAA (== first IAA index).
    pub fn daa_entries(&self) -> u64 {
        self.layout.daa_entries()
    }

    /// FP prefix length in bits (`n`).
    pub fn prefix_bits(&self) -> u32 {
        self.layout.fact_prefix_bits
    }

    /// The device this table lives on.
    pub fn device(&self) -> &Arc<PmemDevice> {
        &self.dev
    }

    /// Shared dedup statistics.
    pub fn stats(&self) -> &Arc<DedupStats> {
        &self.stats
    }

    /// The fingerprint cost model (see [`crate::fp::FpThrottle`]).
    pub fn fp(&self) -> &crate::fp::FpThrottle {
        &self.fp
    }

    /// Fingerprint a chunk through the calibrated cost model.
    pub fn fingerprint(&self, data: &[u8]) -> Fingerprint {
        self.fp.fingerprint(data)
    }

    #[inline]
    fn off(&self, idx: u64) -> u64 {
        self.layout.fact_entry_off(idx)
    }

    fn stripe_for_prefix(&self, prefix: u64) -> &Mutex<()> {
        &self.stripes[(prefix as usize) % STRIPES]
    }

    /// The stripe lock guarding the chain of `fp`'s prefix. Exposed for the
    /// reorderer, which mutates chain links.
    pub(crate) fn lock_chain(&self, prefix: u64) -> parking_lot::MutexGuard<'_, ()> {
        self.stripe_for_prefix(prefix).lock()
    }

    // ------------------------------------------------------------------
    // Raw entry access
    // ------------------------------------------------------------------

    /// Read and decode the entry at `idx` (one 64 B PM read).
    pub fn read_entry(&self, idx: u64) -> FactEntry {
        let mut b = [0u8; 64];
        self.dev.read_into(self.off(idx), &mut b);
        FactEntry {
            rfc: u32::from_le_bytes(b[0..4].try_into().unwrap()),
            uc: u32::from_le_bytes(b[4..8].try_into().unwrap()),
            fp: Fingerprint::from_bytes(b[8..28].try_into().unwrap()),
            block: u64::from_le_bytes(b[28..36].try_into().unwrap()),
            prev: i64::from_le_bytes(b[36..44].try_into().unwrap()),
            next: i64::from_le_bytes(b[44..52].try_into().unwrap()),
            delete_ptr: i64::from_le_bytes(b[52..60].try_into().unwrap()),
            run_pages: u32::from_le_bytes(b[60..64].try_into().unwrap()).max(1),
        }
    }

    /// Write the dedup-metadata fields (counters, FP, block, prev, next,
    /// run_pages) of slot `idx`, *preserving* its delete-pointer field, and
    /// persist with a single flush (one cache line).
    fn write_metadata(&self, idx: u64, e: &FactEntry) {
        let base = self.off(idx);
        let mut head = [0u8; 52];
        head[0..4].copy_from_slice(&e.rfc.to_le_bytes());
        head[4..8].copy_from_slice(&e.uc.to_le_bytes());
        head[8..28].copy_from_slice(e.fp.as_bytes());
        head[28..36].copy_from_slice(&e.block.to_le_bytes());
        head[36..44].copy_from_slice(&e.prev.to_le_bytes());
        head[44..52].copy_from_slice(&e.next.to_le_bytes());
        self.dev.write(base, &head);
        self.dev
            .write(base + OFF_RUN_PAGES, &e.run_pages.max(1).to_le_bytes());
        self.dev.persist(base, 64);
        self.stats.bump_flushes(1);
    }

    /// Clear the dedup-metadata fields of slot `idx` (delete pointer
    /// preserved — the slot may still serve as another block's reverse
    /// index).
    fn clear_metadata(&self, idx: u64) {
        self.write_metadata(
            idx,
            &FactEntry {
                rfc: 0,
                uc: 0,
                fp: Fingerprint::zero(),
                block: 0,
                prev: NIL,
                next: NIL,
                delete_ptr: NIL, // ignored by write_metadata
                run_pages: 1,
            },
        );
    }

    pub(crate) fn write_prev(&self, idx: u64, prev: i64) {
        let off = self.off(idx) + OFF_PREV;
        self.dev.write(off, &prev.to_le_bytes());
        self.dev.persist(off, 8);
        self.stats.bump_flushes(1);
    }

    pub(crate) fn write_next(&self, idx: u64, next: i64) {
        let off = self.off(idx) + OFF_NEXT;
        self.dev.write(off, &next.to_le_bytes());
        self.dev.persist(off, 8);
        self.stats.bump_flushes(1);
    }

    pub(crate) fn read_prev(&self, idx: u64) -> i64 {
        let mut b = [0u8; 8];
        self.dev.read_into(self.off(idx) + OFF_PREV, &mut b);
        i64::from_le_bytes(b)
    }

    pub(crate) fn read_next(&self, idx: u64) -> i64 {
        let mut b = [0u8; 8];
        self.dev.read_into(self.off(idx) + OFF_NEXT, &mut b);
        i64::from_le_bytes(b)
    }

    /// Set the delete pointer stored in slot `block` to `fact_idx` ("the
    /// block address B is used as an index to set the delete pointer
    /// field").
    fn set_delete_ptr(&self, block: u64, fact_idx: i64) {
        debug_assert!(block < self.entries(), "block exceeds FACT range");
        let off = self.off(block) + OFF_DELETE_PTR;
        self.dev.write(off, &fact_idx.to_le_bytes());
        self.dev.persist(off, 8);
        self.stats.bump_flushes(1);
    }

    /// The delete pointer stored in slot `block` (the reverse index cell).
    fn read_delete_ptr(&self, block: u64) -> i64 {
        let mut b = [0u8; 8];
        self.dev.read_into(self.off(block) + OFF_DELETE_PTR, &mut b);
        i64::from_le_bytes(b)
    }

    /// Persist `run_pages` of slot `idx` with one 4-byte flush — the commit
    /// point for run promotion (`1 → N`) and demotion (`N → 1`).
    fn write_run_pages(&self, idx: u64, n: u32) {
        let off = self.off(idx) + OFF_RUN_PAGES;
        self.dev.write(off, &n.max(1).to_le_bytes());
        self.dev.persist(off, 4);
        self.stats.bump_flushes(1);
    }

    /// Pages covered by the record at `idx` (1 = per-page record).
    pub fn run_pages(&self, idx: u64) -> u32 {
        let mut b = [0u8; 4];
        self.dev.read_into(self.off(idx) + OFF_RUN_PAGES, &mut b);
        u32::from_le_bytes(b).max(1)
    }

    // ------------------------------------------------------------------
    // Counters (atomic, lock-free)
    // ------------------------------------------------------------------

    fn counters_off(&self, idx: u64) -> u64 {
        self.off(idx) + OFF_COUNTERS
    }

    fn load_counters(&self, idx: u64) -> (u32, u32) {
        let v = self.dev.atomic_load_u64(self.counters_off(idx));
        ((v & 0xFFFF_FFFF) as u32, (v >> 32) as u32)
    }

    fn cas_counters(
        &self,
        idx: u64,
        f: impl Fn(u32, u32) -> Option<(u32, u32)>,
    ) -> Option<(u32, u32)> {
        let off = self.counters_off(idx);
        let mut cur = self.dev.atomic_load_u64(off);
        loop {
            let rfc = (cur & 0xFFFF_FFFF) as u32;
            let uc = (cur >> 32) as u32;
            let (nrfc, nuc) = f(rfc, uc)?;
            let new = nrfc as u64 | ((nuc as u64) << 32);
            match self.dev.atomic_cas_u64(off, cur, new) {
                Ok(_) => {
                    self.dev.persist(off, 8);
                    self.stats.bump_flushes(1);
                    return Some((nrfc, nuc));
                }
                Err(actual) => cur = actual,
            }
        }
    }

    /// Step ③ of the dedup flow: register an in-flight transaction
    /// (`UC += 1`).
    pub fn inc_uc(&self, idx: u64) {
        self.cas_counters(idx, |rfc, uc| Some((rfc, uc + 1)));
    }

    /// Step ⑥: the transaction is persistent — atomically `UC -= 1,
    /// RFC += 1` in one 64-bit store. Returns false if `UC` was already 0
    /// (recovery discarded it; nothing to commit).
    pub fn commit_uc_to_rfc(&self, idx: u64) -> bool {
        self.cas_counters(idx, |rfc, uc| {
            if uc == 0 {
                None
            } else {
                Some((rfc + 1, uc - 1))
            }
        })
        .is_some()
    }

    /// Abandon an in-flight transaction (`UC -= 1` without the RFC credit).
    pub fn abort_uc(&self, idx: u64) -> bool {
        self.cas_counters(
            idx,
            |rfc, uc| if uc == 0 { None } else { Some((rfc, uc - 1)) },
        )
        .is_some()
    }

    /// Recovery: discard a stale update count ("these UCs are set to 0 at
    /// system reboot").
    pub fn reset_uc(&self, idx: u64) {
        self.cas_counters(idx, |rfc, uc| if uc == 0 { None } else { Some((rfc, 0)) });
    }

    /// Decrement RFC (reclaim path). Returns the counters after the
    /// decrement, or `None` if RFC was already 0 (left untouched; the
    /// scrubber reconciles such over-decrements).
    pub fn dec_rfc(&self, idx: u64) -> Option<(u32, u32)> {
        self.cas_counters(
            idx,
            |rfc, uc| if rfc == 0 { None } else { Some((rfc - 1, uc)) },
        )
    }

    /// Recovery scrubber: force RFC to an exact recomputed value.
    pub fn set_rfc(&self, idx: u64, rfc: u32) {
        self.cas_counters(idx, |_, uc| Some((rfc, uc)));
    }

    /// Current (RFC, UC) of slot `idx`.
    pub fn counters(&self, idx: u64) -> (u32, u32) {
        self.load_counters(idx)
    }

    // ------------------------------------------------------------------
    // Lookup / insert / remove
    // ------------------------------------------------------------------

    /// Look up `fp`. Lock-free: the RCU stripe table resolves the entry
    /// index with one DRAM map probe plus a single verifying PM read; a
    /// stale table entry (or disabled RCU path) falls back to reading the
    /// DAA entry at the prefix and walking the IAA chain in PM.
    pub fn lookup(&self, fp: &Fingerprint) -> Option<(u64, FactEntry)> {
        self.lookup_impl(fp, true)
    }

    /// `lookup` without the stats bumps — for locked re-checks that would
    /// otherwise double-count a lookup the fast path already recorded.
    fn lookup_quiet(&self, fp: &Fingerprint) -> Option<(u64, FactEntry)> {
        self.lookup_impl(fp, false)
    }

    fn lookup_impl(&self, fp: &Fingerprint, record: bool) -> Option<(u64, FactEntry)> {
        let prefix = fp.prefix(self.prefix_bits());
        if record {
            self.stats.bump_lookups();
        }
        let filter_armed = self.filter_enabled();
        if filter_armed && !self.filter.maybe_contains(prefix, fp) {
            // Definitely absent: answer from DRAM, zero PM reads.
            if record {
                self.stats.bump_filter_skips();
            }
            return None;
        }
        if self.rcu_enabled() {
            let guard = denova_sync::pin();
            if let Some(table) = self.stripe_tables[(prefix as usize) % STRIPES].load(&guard) {
                match table.get(fp) {
                    Some(ent) => {
                        // One PM read verifies the cached position is
                        // current; a concurrent remove/promote makes it
                        // stale, in which case the PM walk below is
                        // authoritative.
                        let e = self.read_entry(ent.idx);
                        if e.is_occupied() && e.fp == *fp {
                            if record {
                                self.stats.bump_rcu_reads();
                                self.stats
                                    .record_lookup_reads(1, ent.idx < self.daa_entries());
                                // Section IV-E trigger, fed by the cached
                                // walk depth the entry would have cost.
                                if (ent.walk_reads as u64)
                                    > self
                                        .reorder_walk_threshold
                                        .load(std::sync::atomic::Ordering::Relaxed)
                                    && e.rfc
                                        >= self
                                            .reorder_rfc_threshold
                                            .load(std::sync::atomic::Ordering::Relaxed)
                                {
                                    self.mark_reorder_candidate(prefix);
                                }
                            }
                            return Some((ent.idx, e));
                        }
                    }
                    None => {
                        // A published table is authoritative for absence
                        // in its stripe: every chain mutation republishes
                        // before releasing the stripe lock.
                        if record {
                            self.stats.bump_rcu_reads();
                            if filter_armed {
                                self.stats.bump_filter_false_positives();
                            }
                        }
                        return None;
                    }
                }
            }
        }
        let mut idx = prefix;
        let mut reads = 0u64;
        loop {
            let e = self.read_entry(idx);
            reads += 1;
            if e.is_occupied() && e.fp == *fp {
                if record {
                    self.stats
                        .record_lookup_reads(reads, idx < self.daa_entries());
                    // Section IV-E trigger: a hot entry (high RFC) that took
                    // a long chain walk to reach marks its chain for
                    // reordering.
                    if reads
                        > self
                            .reorder_walk_threshold
                            .load(std::sync::atomic::Ordering::Relaxed)
                        && e.rfc
                            >= self
                                .reorder_rfc_threshold
                                .load(std::sync::atomic::Ordering::Relaxed)
                    {
                        self.mark_reorder_candidate(prefix);
                    }
                }
                return Some((idx, e));
            }
            if !e.is_occupied() && idx == prefix {
                // Empty DAA slot: nothing with this prefix exists.
                if record {
                    self.stats.record_lookup_reads(reads, true);
                    if filter_armed {
                        self.stats.bump_filter_false_positives();
                    }
                }
                return None;
            }
            match e.next {
                NIL => {
                    if record {
                        self.stats.record_lookup_reads(reads, false);
                        if filter_armed {
                            self.stats.bump_filter_false_positives();
                        }
                    }
                    return None;
                }
                next => idx = next as u64,
            }
        }
    }

    /// Flag `prefix`'s chain for reordering without ever blocking the
    /// lookup that noticed it: if the candidate set is busy, skip — a hot
    /// chain will trip the trigger again on the next lookup.
    fn mark_reorder_candidate(&self, prefix: u64) {
        if let Some(mut set) = self.reorder_candidates.try_lock() {
            set.insert(prefix);
        }
    }

    /// Look up `fp` and reserve a transaction against it (`UC += 1`), or
    /// insert a fresh entry for `(fp, block)` with `UC = 1`. Returns the
    /// entry index and whether an existing entry was found (i.e. `block` is
    /// a duplicate of the entry's canonical block — unless it *is* the
    /// canonical block, which callers detect via the returned entry).
    ///
    /// The duplicate path (fingerprint already present) reserves without
    /// the stripe lock: resolve through the lock-free lookup, take the UC
    /// reservation, then re-read the entry to verify the slot still holds
    /// this fingerprint — a lost race (concurrent removal or slot reuse)
    /// gives the reservation back with `abort_uc` and retries under the
    /// lock. Only the insert path (and a fast-path miss) takes the chain
    /// stripe lock, so two threads cannot insert the same fingerprint
    /// twice.
    pub fn reserve_or_insert(&self, fp: &Fingerprint, block: u64) -> Result<(u64, FactEntry)> {
        let prefix = fp.prefix(self.prefix_bits());
        let fast_tried = self.rcu_enabled();
        if fast_tried {
            if let Some(hit) = self.try_reserve_existing(fp) {
                return Ok(hit);
            }
        }
        let _guard = self.lock_chain(prefix);
        // Quiet re-check when the fast path already recorded this lookup.
        let locked_hit = if fast_tried {
            self.lookup_quiet(fp)
        } else {
            self.lookup(fp)
        };
        if let Some((idx, e)) = locked_hit {
            self.inc_uc(idx);
            self.stats.bump_hits();
            self.dev
                .metrics()
                .event("fact.hit", &[("idx", idx), ("block", e.block)]);
            return Ok((idx, e));
        }
        let idx = self.insert_locked(prefix, fp, block, 0)?;
        self.inc_uc(idx);
        self.publish_prefix(prefix);
        self.stats.bump_misses();
        self.stats.bump_inserts();
        self.dev
            .metrics()
            .event("fact.miss", &[("idx", idx), ("block", block)]);
        Ok((idx, self.read_entry(idx)))
    }

    /// Lock-free duplicate reservation: lookup, `UC += 1`, verify. The
    /// verify read closes the race with a concurrent removal; the
    /// remaining ABA window (the slot cleared *and* re-occupied by a
    /// different fingerprint between the reservation and the verify, so
    /// the abort returns a unit that was not ours) only perturbs counters
    /// by one, in the direction the RFC scrubber already reconciles.
    fn try_reserve_existing(&self, fp: &Fingerprint) -> Option<(u64, FactEntry)> {
        let (idx, _) = self.lookup(fp)?;
        self.inc_uc(idx);
        let e = self.read_entry(idx);
        if e.is_occupied() && e.fp == *fp {
            self.stats.bump_hits();
            self.dev
                .metrics()
                .event("fact.hit", &[("idx", idx), ("block", e.block)]);
            return Some((idx, e));
        }
        self.abort_uc(idx);
        None
    }

    /// Rebuild and republish the RCU stripe-table entries for `prefix`
    /// from the authoritative PM chain. Must be called with `prefix`'s
    /// stripe lock held (publishes are serialized per cell).
    pub(crate) fn publish_prefix(&self, prefix: u64) {
        let cell = &self.stripe_tables[(prefix as usize) % STRIPES];
        let guard = denova_sync::pin();
        let mut table = cell.load(&guard).cloned().unwrap_or_default();
        let bits = self.prefix_bits();
        table.retain(|fp, _| fp.prefix(bits) != prefix);
        for (pos, (idx, e)) in self.chain(prefix).into_iter().enumerate() {
            table.insert(
                e.fp,
                StripeCacheEnt {
                    idx,
                    walk_reads: pos as u32 + 1,
                },
            );
        }
        cell.publish(table);
    }

    /// Insert `(fp, block)` with an initial `rfc`, assuming the chain lock
    /// for `prefix` is held and the fingerprint is absent. (The demote path
    /// passes a non-zero `rfc` — the run's count carries over; everyone else
    /// passes 0 and reserves through UC.)
    fn insert_locked(&self, prefix: u64, fp: &Fingerprint, block: u64, rfc: u32) -> Result<u64> {
        let daa = self.read_entry(prefix);
        if !daa.is_occupied() {
            // Publish in the filter BEFORE the entry becomes visible so a
            // concurrent lock-free lookup never sees a false negative. (A
            // crash in between leaks one increment — a harmless false
            // positive; the mount-time rebuild discards it.)
            self.filter.add(prefix, fp);
            // The DAA slot itself is free: one entry write, one delete-ptr
            // write.
            self.write_metadata(
                prefix,
                &FactEntry {
                    rfc,
                    uc: 0,
                    fp: *fp,
                    block,
                    prev: NIL,
                    next: NIL,
                    delete_ptr: NIL,
                    run_pages: 1,
                },
            );
            self.set_delete_ptr(block, prefix as i64);
            return Ok(prefix);
        }
        // Prefix collision: allocate an IAA slot and append at the chain
        // tail ("the new entry that generated the collision is allocated in
        // the IAA").
        let idx = self.alloc_iaa()?;
        // Find the tail.
        let mut tail = prefix;
        loop {
            match self.read_next(tail) {
                NIL => break,
                next => tail = next as u64,
            }
        }
        // prev: 0 is the "I am the IAA chain head" sentinel (the paper's
        // "prev field of a normal linked list head is always 0"); deeper
        // nodes point at their IAA predecessor.
        let prev = if tail == prefix { 0 } else { tail as i64 };
        // Filter first, entry second — same no-false-negative ordering as
        // the DAA branch above.
        self.filter.add(prefix, fp);
        // Write the new entry completely before linking it: a crash between
        // the two leaves it unreachable (and the IAA scan reclaims it).
        self.write_metadata(
            idx,
            &FactEntry {
                rfc,
                uc: 0,
                fp: *fp,
                block,
                prev,
                next: NIL,
                delete_ptr: NIL,
                run_pages: 1,
            },
        );
        self.set_delete_ptr(block, idx as i64);
        self.dev.crash_point("denova::fact::before_chain_link");
        self.write_next(tail, idx as i64);
        self.stats.bump_iaa_inserts();
        Ok(idx)
    }

    fn alloc_iaa(&self) -> Result<u64> {
        let mut free = self.iaa_free.lock();
        if let Some(idx) = free.stack.pop() {
            return Ok(idx);
        }
        if free.cursor < self.entries() {
            let idx = free.cursor;
            free.cursor += 1;
            return Ok(idx);
        }
        Err(NovaError::NoSpace)
    }

    /// Resolve a data block to its FACT entry via the delete pointer — the
    /// reclaim-path lookup that costs exactly two PM reads (Section IV-C
    /// steps 1–3). A block covered by an extent run resolves to the run's
    /// anchor record (still two reads: `run_pages` rides in the same cache
    /// line as the rest of the entry).
    pub fn resolve_block(&self, block: u64) -> Option<(u64, FactEntry)> {
        if block >= self.entries() {
            return None;
        }
        // Read 1: the delete pointer stored at index `block`.
        let ptr = self.read_delete_ptr(block);
        if ptr < 0 || ptr as u64 >= self.entries() {
            return None;
        }
        // Read 2: the entry it points at. Stale pointers (left behind by
        // removals) are detected by the block-range check.
        let e = self.read_entry(ptr as u64);
        if e.is_occupied() && block >= e.block && block - e.block < e.run_pages as u64 {
            Some((ptr as u64, e))
        } else {
            None
        }
    }

    // ------------------------------------------------------------------
    // Extent runs (promotion / demotion / crash repair)
    // ------------------------------------------------------------------

    /// Promote `members` — the per-page records of physically consecutive
    /// canonical blocks, in block order — into one extent-run record
    /// anchored at `members[0]`. Requires (and re-verifies) that every
    /// member still covers its block with the same reference count and no
    /// in-flight reservations; returns `false` without touching the table
    /// if the precondition no longer holds, `true` once the run is live.
    ///
    /// Protocol (each step one cache-line persist, repairable forward by
    /// [`Fact::repair_runs`] from the `run_pages` commit on):
    ///
    /// 1. persist `run_pages = N` on the anchor — the commit point;
    /// 2. per interior block, left to right: point its reverse index at
    ///    the anchor (resolve_block never misses: before the store it
    ///    finds the per-page record, after it the anchor), then gate with
    ///    a counter CAS `(R, 0) → (0, 0)` — a racing reservation makes the
    ///    CAS fail and rolls the promotion back — and remove the absorbed
    ///    per-page record (its fingerprint leaves the filter and the RCU
    ///    tables: interior fps answer *absent* after promotion).
    ///
    /// The reference-count meaning is unchanged throughout: before, each
    /// of the N records held `RFC = R` for its block; after, the single
    /// anchor holds `RFC = R` *for each* covered block.
    pub fn merge_run(&self, members: &[(u64, FactEntry)]) -> bool {
        // One granularity transition at a time: a demotion overlapping this
        // promotion would re-insert per-page records the absorb loop is
        // removing, double-covering blocks.
        let _run = self.run_lock.lock();
        self.merge_run_locked(members)
    }

    /// [`Fact::merge_run`] body, for callers ([`Fact::split_run`]) already
    /// holding `run_lock`.
    fn merge_run_locked(&self, members: &[(u64, FactEntry)]) -> bool {
        let n = members.len();
        if n < 2 {
            return false;
        }
        let (anchor, a) = members[0];
        let b0 = a.block;
        // Records can be *relocated* between slots while keeping their
        // identity: removing a DAA entry promotes its IAA chain head into
        // the freed slot (see `remove`). Every such move happens under the
        // stripe lock of the record's prefix, so holding every member's
        // stripe for the whole protocol pins the member indices the caller
        // captured. Acquired in sorted order and this is the only
        // multi-stripe taker, so lock order is consistent.
        let mut stripe_ids: Vec<usize> = members
            .iter()
            .map(|(_, e)| (e.fp.prefix(self.prefix_bits()) as usize) % STRIPES)
            .collect();
        stripe_ids.sort_unstable();
        stripe_ids.dedup();
        let _guards: Vec<_> = stripe_ids.iter().map(|&s| self.stripes[s].lock()).collect();
        let (rfc, _) = self.load_counters(anchor);
        if rfc == 0 {
            return false; // mid-reclaim; not worth anchoring a run on
        }
        // Precondition sweep: occupied, same fp, consecutive blocks, all
        // per-page, still named by the reverse index (a stale index from
        // before a relocation fails here), counters exactly (rfc, 0).
        for (k, &(idx, ref snap)) in members.iter().enumerate() {
            let cur = self.read_entry(idx);
            if !cur.is_occupied()
                || cur.fp != snap.fp
                || cur.block != b0 + k as u64
                || cur.run_pages != 1
                || self.read_delete_ptr(b0 + k as u64) != idx as i64
                || self.load_counters(idx) != (rfc, 0)
            {
                return false;
            }
        }
        // Commit point: the anchor now claims the whole range.
        self.write_run_pages(anchor, n as u32);
        self.dev
            .crash_point("denova::fact::merge::after_run_commit");
        for (k, _) in members.iter().enumerate().skip(1) {
            let block = b0 + k as u64;
            // Re-resolve the slot through the reverse index: removing an
            // earlier member may have promoted this one's record into a
            // freed DAA chain-head slot (the promotion re-points the cell,
            // and the held stripe locks exclude every other mover).
            let ptr = self.read_delete_ptr(block);
            let idx = ptr as u64;
            // Reverse index first: any reclaim arriving now resolves the
            // anchor (whose range already covers `block`).
            self.set_delete_ptr(block, anchor as i64);
            self.dev.crash_point("denova::fact::merge::mid_absorb");
            // Gate: zero the counters by CAS. A reservation that slipped in
            // since the sweep makes this fail — roll back rather than drop
            // the reserver's reference on the floor.
            if self
                .cas_counters(idx, |r, u| {
                    if (r, u) == (rfc, 0) {
                        Some((0, 0))
                    } else {
                        None
                    }
                })
                .is_none()
            {
                self.set_delete_ptr(block, ptr);
                self.unwind_merge(anchor, members, k, rfc);
                return false;
            }
            let _ = self.remove_locked(idx);
        }
        self.stats.record_promoted_run(n as u64);
        true
    }

    /// Roll a half-done [`Fact::merge_run`] back: re-create the per-page
    /// records already absorbed (blocks `b0+1 .. b0+upto`) and reset the
    /// anchor to per-page granularity. `members` still holds their
    /// fingerprints, so no data needs re-hashing. Runs with the caller
    /// (`merge_run`) already holding every member's stripe lock, hence the
    /// direct `insert_locked` calls.
    fn unwind_merge(&self, anchor: u64, members: &[(u64, FactEntry)], upto: usize, rfc: u32) {
        let b0 = members[0].1.block;
        for (k, (_, snap)) in members.iter().enumerate().take(upto).skip(1) {
            let prefix = snap.fp.prefix(self.prefix_bits());
            if self
                .insert_locked(prefix, &snap.fp, b0 + k as u64, rfc)
                .is_ok()
            {
                self.publish_prefix(prefix);
                self.stats.bump_inserts();
            }
        }
        self.write_run_pages(anchor, 1);
    }

    /// Split the extent run anchored at `anchor` back into per-page records
    /// — the inverse of [`Fact::merge_run`], needed before per-block
    /// reclaim or partial sharing. Each interior block is re-fingerprinted
    /// from its canonical bytes in PM and gets a fresh record carrying the
    /// run's reference count; the final `run_pages = 1` store commits the
    /// demotion (a crash before it re-merges cleanly on recovery). Returns
    /// the number of pages the run covered (1 if there was nothing to do).
    pub fn demote_run(&self, anchor: u64) -> Result<u32> {
        // Serialize against merge_run (see `run_lock`): splitting a run
        // that a concurrent promotion is still absorbing would re-create
        // per-page records under the anchor's claimed range.
        let _run = self.run_lock.lock();
        let a = self.read_entry(anchor);
        if !a.is_occupied() || a.run_pages <= 1 {
            return Ok(1);
        }
        let n = a.run_pages;
        let (rfc, _) = self.load_counters(anchor);
        for k in 1..n as u64 {
            let block = a.block + k;
            let fp = self.dev.with_slice(
                self.layout.block_off(block),
                denova_nova::BLOCK_SIZE as usize,
                |page| self.fingerprint(page),
            );
            self.insert_with_rfc(&fp, block, rfc)?;
            self.dev.crash_point("denova::fact::demote::mid_split");
        }
        // Commit point: back to per-page granularity.
        self.commit_run_pages(anchor, &a, 1);
        self.stats.record_demoted_run();
        Ok(n)
    }

    /// Persist a new `run_pages` on the record last seen as `a` at `anchor`.
    /// The record may have been relocated (DAA chain-head promotion in
    /// `remove`) since the caller read it; its reverse cell tracks the
    /// move, so resolve the current slot under the stripe lock that
    /// serializes relocation and commit there.
    fn commit_run_pages(&self, anchor: u64, a: &FactEntry, n: u32) {
        let prefix = a.fp.prefix(self.prefix_bits());
        let _guard = self.lock_chain(prefix);
        self.write_run_pages(self.current_slot(anchor, a), n);
    }

    /// The slot currently holding the record last seen as `a` at `anchor`,
    /// following its reverse cell through a possible relocation.
    fn current_slot(&self, anchor: u64, a: &FactEntry) -> u64 {
        let ptr = self.read_delete_ptr(a.block);
        if ptr >= 0 && (ptr as u64) < self.entries() && ptr as u64 != anchor {
            let cur = self.read_entry(ptr as u64);
            if cur.is_occupied() && cur.fp == a.fp && cur.block == a.block {
                return ptr as u64;
            }
        }
        anchor
    }

    /// Split the extent run anchored at `anchor` at relative page `at`
    /// (`1 ≤ at < run_pages`): the anchor keeps the first `at` pages, and
    /// the tail becomes its own record — a run again if it spans several
    /// pages — carrying the same per-block reference count. This is the
    /// partial-overwrite path of extent sharing: a writer that diverges
    /// inside a run splits it there instead of dissolving the whole run to
    /// per-page records.
    ///
    /// Built from the existing repairable protocols: the tail blocks are
    /// first re-created per-page (exactly the demote protocol — a crash
    /// rolls the half-split back into the full run), the anchor's claim
    /// then shrinks (the commit), and the tail re-merges into a run (the
    /// merge protocol, rolled forward by [`Fact::repair_runs`]).
    pub fn split_run(&self, anchor: u64, at: u32) -> Result<()> {
        let _run = self.run_lock.lock();
        let a = self.read_entry(anchor);
        if !a.is_occupied() || at == 0 || a.run_pages <= at {
            return Ok(()); // caller's view was stale; nothing to split
        }
        let n = a.run_pages;
        let (rfc, _) = self.load_counters(anchor);
        // Tail blocks become per-page records first; each insert re-points
        // the block's reverse cell, so every block stays resolvable
        // throughout.
        let mut members: Vec<(u64, FactEntry)> = Vec::new();
        for k in at as u64..n as u64 {
            let block = a.block + k;
            let fp = self.dev.with_slice(
                self.layout.block_off(block),
                denova_nova::BLOCK_SIZE as usize,
                |page| self.fingerprint(page),
            );
            let idx = match self.insert_with_rfc(&fp, block, rfc) {
                Ok(idx) => idx,
                Err(e) => {
                    // Roll the half-built tail back into the run: re-point
                    // each cell at the anchor, then drop the per-page
                    // record (the mount-time repair does the same).
                    let cur = self.current_slot(anchor, &a);
                    for &(m, ref me) in &members {
                        self.set_delete_ptr(me.block, cur as i64);
                        self.cas_counters(m, |_, _| Some((0, 0)));
                        let _ = self.remove(m);
                    }
                    return Err(e);
                }
            };
            members.push((idx, self.read_entry(idx)));
            self.dev.crash_point("denova::fact::split::mid_tail");
        }
        // Commit point: the anchor's claim shrinks to the head.
        self.commit_run_pages(anchor, &a, at);
        // Re-form the tail as its own run (a single-page tail stays
        // per-page). Best effort: if a racing reservation declines the
        // merge, the tail simply stays per-page.
        if members.len() >= 2 {
            self.merge_run_locked(&members);
        }
        Ok(())
    }

    /// Insert a per-page record for `(fp, block)` with a preset reference
    /// count — the demotion path. The fingerprint may already exist in the
    /// table (the same content stored again under a different canonical
    /// block since the run formed): the new record is appended to the chain
    /// anyway — lookups keep resolving the earlier entry, while this one is
    /// reachable through `block`'s reverse index, which is all reclaim
    /// needs.
    fn insert_with_rfc(&self, fp: &Fingerprint, block: u64, rfc: u32) -> Result<u64> {
        let prefix = fp.prefix(self.prefix_bits());
        let _guard = self.lock_chain(prefix);
        let idx = self.insert_locked(prefix, fp, block, rfc)?;
        self.publish_prefix(prefix);
        self.stats.bump_inserts();
        Ok(idx)
    }

    /// Recovery: finish half-done run promotions. For every anchor claiming
    /// `run_pages > 1`, point each covered block's reverse index at the
    /// anchor and absorb leftover per-page records inside the claimed range
    /// (their counts are already represented by the anchor). Idempotent;
    /// returns the number of repairs applied.
    pub fn repair_runs(&self) -> u64 {
        let mut runs: Vec<(u64, u64, u32)> = Vec::new();
        self.for_each_occupied(|idx, e| {
            if e.run_pages > 1 {
                runs.push((idx, e.block, e.run_pages));
            }
        });
        let mut repairs = 0u64;
        for &(anchor, b0, n) in &runs {
            for k in 1..n as u64 {
                let block = b0 + k;
                let ptr = self.read_delete_ptr(block);
                if ptr == anchor as i64 {
                    continue;
                }
                // Absorb the leftover per-page record the pointer still
                // names (reverse index first, as in merge_run).
                self.set_delete_ptr(block, anchor as i64);
                repairs += 1;
                if ptr >= 0 && (ptr as u64) < self.entries() && ptr as u64 != anchor {
                    let left = self.read_entry(ptr as u64);
                    if left.is_occupied() && left.block == block && left.run_pages == 1 {
                        self.cas_counters(ptr as u64, |_, _| Some((0, 0)));
                        let _ = self.remove(ptr as u64);
                    }
                }
            }
        }
        // Orphans: per-page records covering a run's interior block whose
        // reverse index no longer names them (crash after the delete-ptr
        // store but before the removal).
        let mut orphans = Vec::new();
        self.for_each_occupied(|idx, e| {
            if e.run_pages == 1
                && runs.iter().any(|&(anchor, b0, n)| {
                    idx != anchor && e.block > b0 && e.block - b0 < n as u64
                })
                && self.read_delete_ptr(e.block) != idx as i64
            {
                orphans.push(idx);
            }
        });
        for idx in orphans {
            self.cas_counters(idx, |_, _| Some((0, 0)));
            let _ = self.remove(idx);
            repairs += 1;
        }
        repairs
    }

    /// Remove the entry at `idx` (its RFC reached 0), unlinking it from its
    /// chain. At most three cache-line flushes (entry clear + two neighbour
    /// link updates), matching the paper's reclaiming-cost analysis
    /// (Section V-B3).
    pub fn remove(&self, idx: u64) -> Result<()> {
        let e = self.read_entry(idx);
        if !e.is_occupied() {
            return Ok(());
        }
        let prefix = e.fp.prefix(self.prefix_bits());
        let _guard = self.lock_chain(prefix);
        self.remove_locked(idx)
    }

    /// [`Fact::remove`] body, for callers (merge promotion) that already
    /// hold the stripe lock of the entry's prefix.
    fn remove_locked(&self, idx: u64) -> Result<()> {
        // Re-read under the lock.
        let e = self.read_entry(idx);
        if !e.is_occupied() {
            return Ok(());
        }
        let prefix = e.fp.prefix(self.prefix_bits());
        self.stats.bump_removes();
        if idx < self.daa_entries() {
            // DAA entry. If a chain hangs off it, promote the IAA head into
            // the DAA slot so the prefix stays resolvable.
            match e.next {
                NIL => self.clear_metadata(idx),
                head => {
                    let head = head as u64;
                    let h = self.read_entry(head);
                    // Copy head's payload into the DAA slot, preserving the
                    // chain beyond it.
                    self.write_metadata(
                        idx,
                        &FactEntry {
                            prev: NIL,
                            next: h.next,
                            delete_ptr: NIL, // preserved by write_metadata
                            ..h
                        },
                    );
                    // A promoted run anchor carries its whole range's
                    // reverse index along, not just its first block.
                    for k in 0..h.run_pages as u64 {
                        self.set_delete_ptr(h.block + k, idx as i64);
                    }
                    if h.next != NIL {
                        // The new IAA head's prev becomes the sentinel 0.
                        self.write_prev(h.next as u64, 0);
                    }
                    self.dev.crash_point("denova::fact::remove::after_promote");
                    self.clear_metadata(head);
                    self.free_iaa(head);
                }
            }
            // Un-publish AFTER the entry is gone (promote keeps the head's
            // fp alive in the DAA slot; only `e.fp` leaves the table).
            self.filter.remove(prefix, &e.fp);
            self.publish_prefix(prefix);
            return Ok(());
        }
        // IAA entry: splice prev → next.
        let pred = if e.prev == 0 {
            // Chain head: predecessor is the DAA slot.
            prefix
        } else {
            e.prev as u64
        };
        self.write_next(pred, e.next);
        if e.next != NIL {
            let succ_prev = if e.prev == 0 { 0 } else { e.prev };
            self.write_prev(e.next as u64, succ_prev);
        }
        self.dev.crash_point("denova::fact::remove::after_unlink");
        self.clear_metadata(idx);
        self.free_iaa(idx);
        self.filter.remove(prefix, &e.fp);
        self.publish_prefix(prefix);
        Ok(())
    }

    fn free_iaa(&self, idx: u64) {
        self.iaa_free.lock().stack.push(idx);
    }

    /// Configure the reordering trigger: a lookup that walks more than
    /// `walk` entries to reach one with `RFC >= rfc` flags its chain.
    pub fn set_reorder_thresholds(&self, walk: u64, rfc: u32) {
        self.reorder_walk_threshold
            .store(walk, std::sync::atomic::Ordering::Relaxed);
        self.reorder_rfc_threshold
            .store(rfc, std::sync::atomic::Ordering::Relaxed);
    }

    /// Drain the set of prefixes flagged for reordering.
    pub fn take_reorder_candidates(&self) -> Vec<u64> {
        let mut set = self.reorder_candidates.lock();
        let out: Vec<u64> = set.iter().copied().collect();
        set.clear();
        out
    }

    /// Walk the chain for `prefix`, returning `(index, entry)` pairs in
    /// lookup order (DAA entry first). Used by the reorderer and tests.
    pub fn chain(&self, prefix: u64) -> Vec<(u64, FactEntry)> {
        let mut out = Vec::new();
        let mut idx = prefix;
        loop {
            let e = self.read_entry(idx);
            if !e.is_occupied() {
                break;
            }
            let next = e.next;
            out.push((idx, e));
            match next {
                NIL => break,
                n => idx = n as u64,
            }
        }
        out
    }

    /// Visit every occupied entry (full-table scan: recovery and the
    /// scrubber use this; normal operation never does).
    pub fn for_each_occupied<F: FnMut(u64, FactEntry)>(&self, mut f: F) {
        for idx in 0..self.entries() {
            let e = self.read_entry(idx);
            if e.is_occupied() {
                f(idx, e);
            }
        }
    }

    /// Number of occupied entries (scan; tests only).
    pub fn occupied_count(&self) -> u64 {
        let mut n = 0;
        self.for_each_occupied(|_, _| n += 1);
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Arc<PmemDevice>, Fact) {
        let dev = Arc::new(PmemDevice::new(16 * 1024 * 1024));
        let layout = Layout::compute(dev.size() as u64, 64, 2);
        let stats = Arc::new(DedupStats::default());
        // Zero the FACT region as mkfs would.
        dev.memset(
            layout.fact_start * denova_nova::BLOCK_SIZE,
            (layout.fact_blocks * denova_nova::BLOCK_SIZE) as usize,
            0,
        );
        let fact = Fact::new(dev.clone(), layout, stats);
        (dev, fact)
    }

    /// A fingerprint with a chosen prefix (so collision tests are
    /// deterministic).
    fn fp_with_prefix(fact: &Fact, prefix: u64, salt: u8) -> Fingerprint {
        let bits = fact.prefix_bits();
        let mut bytes = [0u8; 20];
        let word = prefix << (64 - bits);
        bytes[..8].copy_from_slice(&word.to_be_bytes());
        bytes[19] = salt;
        bytes[18] = 1; // never all-zero
        Fingerprint::from_bytes(bytes)
    }

    #[test]
    fn empty_lookup_misses() {
        let (_dev, fact) = setup();
        assert!(fact.lookup(&Fingerprint::of(b"nothing")).is_none());
    }

    #[test]
    fn insert_then_lookup_hits_daa() {
        let (_dev, fact) = setup();
        let fp = Fingerprint::of(b"data");
        let (idx, e) = fact.reserve_or_insert(&fp, 500).unwrap();
        assert!(idx < fact.daa_entries());
        assert_eq!(e.uc, 1); // fresh insert is returned with its reservation
        let (found, fe) = fact.lookup(&fp).unwrap();
        assert_eq!(found, idx);
        assert_eq!(fe.block, 500);
        assert_eq!(fe.uc, 1);
        assert_eq!(fe.rfc, 0);
    }

    #[test]
    fn commit_moves_uc_to_rfc_atomically() {
        let (_dev, fact) = setup();
        let fp = Fingerprint::of(b"x");
        let (idx, _) = fact.reserve_or_insert(&fp, 7).unwrap();
        assert!(fact.commit_uc_to_rfc(idx));
        assert_eq!(fact.counters(idx), (1, 0));
        // Nothing left to commit.
        assert!(!fact.commit_uc_to_rfc(idx));
    }

    #[test]
    fn duplicate_reserve_bumps_uc_not_new_entry() {
        let (_dev, fact) = setup();
        let fp = Fingerprint::of(b"dup");
        let (i1, _) = fact.reserve_or_insert(&fp, 10).unwrap();
        let (i2, e2) = fact.reserve_or_insert(&fp, 99).unwrap();
        assert_eq!(i1, i2);
        assert_eq!(e2.block, 10, "canonical block unchanged");
        assert_eq!(fact.counters(i1), (0, 2));
        assert_eq!(fact.occupied_count(), 1);
    }

    #[test]
    fn prefix_collision_goes_to_iaa_chain() {
        let (_dev, fact) = setup();
        let a = fp_with_prefix(&fact, 5, 1);
        let b = fp_with_prefix(&fact, 5, 2);
        let c = fp_with_prefix(&fact, 5, 3);
        let (ia, _) = fact.reserve_or_insert(&a, 100).unwrap();
        let (ib, _) = fact.reserve_or_insert(&b, 101).unwrap();
        let (ic, _) = fact.reserve_or_insert(&c, 102).unwrap();
        assert_eq!(ia, 5);
        assert!(ib >= fact.daa_entries());
        assert!(ic >= fact.daa_entries());
        // Lookup order: DAA head then the chain.
        let chain: Vec<u64> = fact.chain(5).iter().map(|(i, _)| *i).collect();
        assert_eq!(chain, vec![ia, ib, ic]);
        // Each resolves by fingerprint.
        assert_eq!(fact.lookup(&b).unwrap().0, ib);
        assert_eq!(fact.lookup(&c).unwrap().0, ic);
        // Chain-head sentinel: first IAA node has prev == 0, second points
        // at the first.
        assert_eq!(fact.read_entry(ib).prev, 0);
        assert_eq!(fact.read_entry(ic).prev, ib as i64);
    }

    #[test]
    fn resolve_block_costs_two_reads() {
        let (dev, fact) = setup();
        let fp = Fingerprint::of(b"blk");
        let (idx, _) = fact.reserve_or_insert(&fp, 321).unwrap();
        let before = dev.stats().snapshot();
        let (ridx, e) = fact.resolve_block(321).unwrap();
        let delta = dev.stats().snapshot().delta(&before);
        assert_eq!(ridx, idx);
        assert_eq!(e.block, 321);
        assert_eq!(
            delta.reads, 2,
            "delete pointer must resolve in exactly 2 PM reads"
        );
    }

    #[test]
    fn resolve_unknown_block_misses() {
        let (_dev, fact) = setup();
        assert!(fact.resolve_block(12345).is_none());
    }

    #[test]
    fn stale_delete_pointer_rejected_by_block_check() {
        let (_dev, fact) = setup();
        let a = Fingerprint::of(b"a");
        let (ia, _) = fact.reserve_or_insert(&a, 50).unwrap();
        fact.commit_uc_to_rfc(ia);
        fact.dec_rfc(ia);
        fact.remove(ia).unwrap();
        // The delete pointer at slot 50 still exists but must not resolve.
        assert!(fact.resolve_block(50).is_none());
    }

    #[test]
    fn remove_daa_with_chain_promotes_head() {
        let (_dev, fact) = setup();
        let a = fp_with_prefix(&fact, 9, 1);
        let b = fp_with_prefix(&fact, 9, 2);
        let c = fp_with_prefix(&fact, 9, 3);
        fact.reserve_or_insert(&a, 100).unwrap();
        let (ib, _) = fact.reserve_or_insert(&b, 101).unwrap();
        fact.reserve_or_insert(&c, 102).unwrap();
        fact.remove(9).unwrap();
        // b promoted into the DAA slot; c's prev becomes the head sentinel.
        let (idx_b, eb) = fact.lookup(&b).unwrap();
        assert_eq!(idx_b, 9);
        assert_eq!(eb.block, 101);
        let (idx_c, ec) = fact.lookup(&c).unwrap();
        assert_eq!(ec.prev, 0);
        assert!(idx_c >= fact.daa_entries());
        // a is gone; b resolves via its refreshed delete pointer.
        assert!(fact.lookup(&a).is_none());
        assert_eq!(fact.resolve_block(101).unwrap().0, 9);
        assert_eq!(fact.occupied_count(), 2);
        let _ = ib;
    }

    #[test]
    fn remove_iaa_middle_splices_chain() {
        let (_dev, fact) = setup();
        let fps: Vec<Fingerprint> = (1..=4).map(|s| fp_with_prefix(&fact, 3, s)).collect();
        let idxs: Vec<u64> = fps
            .iter()
            .enumerate()
            .map(|(i, fp)| fact.reserve_or_insert(fp, 200 + i as u64).unwrap().0)
            .collect();
        // Remove the middle IAA node (third in lookup order).
        fact.remove(idxs[2]).unwrap();
        let chain: Vec<u64> = fact.chain(3).iter().map(|(i, _)| *i).collect();
        assert_eq!(chain, vec![idxs[0], idxs[1], idxs[3]]);
        assert_eq!(fact.read_entry(idxs[3]).prev, idxs[1] as i64);
        assert!(fact.lookup(&fps[2]).is_none());
        assert!(fact.lookup(&fps[3]).is_some());
    }

    #[test]
    fn remove_iaa_head_updates_sentinel() {
        let (_dev, fact) = setup();
        let fps: Vec<Fingerprint> = (1..=3).map(|s| fp_with_prefix(&fact, 4, s)).collect();
        let idxs: Vec<u64> = fps
            .iter()
            .map(|fp| fact.reserve_or_insert(fp, 300).unwrap().0)
            .collect();
        fact.remove(idxs[1]).unwrap(); // the IAA chain head
        let chain: Vec<u64> = fact.chain(4).iter().map(|(i, _)| *i).collect();
        assert_eq!(chain, vec![idxs[0], idxs[2]]);
        assert_eq!(fact.read_entry(idxs[2]).prev, 0);
    }

    #[test]
    fn iaa_slots_recycle() {
        let (_dev, fact) = setup();
        let a = fp_with_prefix(&fact, 7, 1);
        let b = fp_with_prefix(&fact, 7, 2);
        fact.reserve_or_insert(&a, 10).unwrap();
        let (ib, _) = fact.reserve_or_insert(&b, 11).unwrap();
        fact.remove(ib).unwrap();
        let c = fp_with_prefix(&fact, 7, 3);
        let (ic, _) = fact.reserve_or_insert(&c, 12).unwrap();
        assert_eq!(ic, ib, "freed IAA slot must be reused");
    }

    #[test]
    fn mount_rebuilds_iaa_free_list() {
        let (dev, fact) = setup();
        let layout = Layout::compute(dev.size() as u64, 64, 2);
        let a = fp_with_prefix(&fact, 2, 1);
        let b = fp_with_prefix(&fact, 2, 2);
        fact.reserve_or_insert(&a, 20).unwrap();
        let (ib, _) = fact.reserve_or_insert(&b, 21).unwrap();
        // Remount and verify both the entry and free-slot accounting.
        let fact2 = Fact::mount(dev, layout, Arc::new(DedupStats::default()));
        assert_eq!(fact2.lookup(&b).unwrap().0, ib);
        let c = fp_with_prefix(&fact2, 2, 3);
        let (ic, _) = fact2.reserve_or_insert(&c, 22).unwrap();
        assert!(ic >= fact2.daa_entries());
        assert_ne!(ic, ib, "occupied IAA slot must not be reallocated");
    }

    #[test]
    fn dec_rfc_stops_at_zero() {
        let (_dev, fact) = setup();
        let fp = Fingerprint::of(b"z");
        let (idx, _) = fact.reserve_or_insert(&fp, 77).unwrap();
        fact.commit_uc_to_rfc(idx);
        assert_eq!(fact.dec_rfc(idx), Some((0, 0)));
        assert_eq!(fact.dec_rfc(idx), None);
        assert_eq!(fact.counters(idx), (0, 0));
    }

    #[test]
    fn abort_and_reset_uc() {
        let (_dev, fact) = setup();
        let fp = Fingerprint::of(b"u");
        let (idx, _) = fact.reserve_or_insert(&fp, 88).unwrap();
        fact.inc_uc(idx);
        fact.inc_uc(idx);
        assert_eq!(fact.counters(idx), (0, 3));
        assert!(fact.abort_uc(idx));
        assert_eq!(fact.counters(idx), (0, 2));
        fact.reset_uc(idx);
        assert_eq!(fact.counters(idx), (0, 0));
        assert!(!fact.abort_uc(idx));
    }

    #[test]
    fn counter_update_is_failure_atomic() {
        let (dev, fact) = setup();
        let fp = Fingerprint::of(b"fa");
        let (idx, _) = fact.reserve_or_insert(&fp, 99).unwrap();
        fact.commit_uc_to_rfc(idx); // (1, 0) persisted
                                    // A torn crash right after an unpersisted counter store must revert
                                    // to the last persisted pair, never a mix.
        let off = fact.counters_off(idx);
        dev.atomic_store_u64(off, 5 | (7 << 32)); // not persisted
        let after = dev.crash_clone(denova_pmem::CrashMode::Strict);
        let v = after.read_u64(off);
        assert_eq!(v & 0xFFFF_FFFF, 1);
        assert_eq!(v >> 32, 0);
    }

    #[test]
    fn concurrent_counter_updates_are_exact() {
        let (_dev, fact) = setup();
        let fp = Fingerprint::of(b"conc");
        let (idx, _) = fact.reserve_or_insert(&fp, 40).unwrap();
        fact.commit_uc_to_rfc(idx);
        let fact = Arc::new(fact);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let f = fact.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..250 {
                    f.inc_uc(idx);
                    f.commit_uc_to_rfc(idx);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // 1 initial + 4 * 250 commits.
        assert_eq!(fact.counters(idx), (1001, 0));
    }

    #[test]
    fn crash_before_chain_link_leaves_orphan_unreachable() {
        let (dev, fact) = setup();
        let a = fp_with_prefix(&fact, 6, 1);
        let b = fp_with_prefix(&fact, 6, 2);
        fact.reserve_or_insert(&a, 60).unwrap();
        dev.crash_points().arm("denova::fact::before_chain_link", 0);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fact.reserve_or_insert(&b, 61).unwrap();
        }));
        assert!(r.is_err());
        // Post-crash: b is not reachable; a still is; remount reclaims the
        // orphan slot for reuse.
        let layout = Layout::compute(dev.size() as u64, 64, 2);
        let fact2 = Fact::mount(dev, layout, Arc::new(DedupStats::default()));
        assert!(fact2.lookup(&a).is_some());
        assert!(fact2.lookup(&b).is_none());
    }

    #[test]
    fn iaa_can_never_exhaust_before_block_space() {
        // Invariant behind "we set the IAA size equal to the DAA": the
        // device holds at most `total_blocks` unique chunks, DAA ≥
        // total_blocks, and each unique chunk occupies exactly one entry —
        // so DAA + IAA can absorb the worst case (every chunk colliding on
        // one prefix). Verify the arithmetic and the clean error past it.
        let (_dev, fact) = setup();
        assert!(
            fact.daa_entries() >= {
                // total_blocks of the 16 MB test device
                16 * 1024 * 1024 / 4096
            }
        );
        assert_eq!(fact.entries(), 2 * fact.daa_entries());
        // Force synthetic exhaustion by draining the IAA allocator
        // directly: inserting more colliding fps than IAA slots must fail
        // with NoSpace, not corrupt the chain.
        let total_iaa = fact.entries() - fact.daa_entries();
        let mut inserted = 0u64;
        let mut failed = false;
        for i in 0..total_iaa + 2 {
            let fp = fp_with_prefix(&fact, 1, 0); // same prefix...
            let mut bytes = *fp.as_bytes();
            bytes[10..18].copy_from_slice(&i.to_le_bytes()); // ...unique fp
            let fp = Fingerprint::from_bytes(bytes);
            match fact.reserve_or_insert(&fp, 100 + i) {
                Ok(_) => inserted += 1,
                Err(NovaError::NoSpace) => {
                    failed = true;
                    break;
                }
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        assert!(failed, "expected NoSpace past IAA capacity");
        // 1 DAA slot + every IAA slot.
        assert_eq!(inserted, total_iaa + 1);
        // The chain is still structurally sound and fully reachable.
        assert_eq!(fact.chain(1).len() as u64, inserted);
    }

    #[test]
    fn for_each_occupied_sees_all() {
        let (_dev, fact) = setup();
        for i in 0..10u64 {
            let fp = Fingerprint::of(&i.to_le_bytes());
            fact.reserve_or_insert(&fp, 100 + i).unwrap();
        }
        let mut blocks = Vec::new();
        fact.for_each_occupied(|_, e| blocks.push(e.block));
        blocks.sort();
        assert_eq!(blocks, (100..110).collect::<Vec<u64>>());
    }

    // -- Extent runs -------------------------------------------------------

    /// Store distinct page contents at consecutive blocks `b0..b0+n`, insert
    /// per-page records with `RFC = rfc`, and return `(idx, entry)` members
    /// in block order (as `merge_run` wants them).
    fn build_members(
        dev: &Arc<PmemDevice>,
        fact: &Fact,
        b0: u64,
        n: u64,
        rfc: u32,
    ) -> Vec<(u64, FactEntry)> {
        let layout = Layout::compute(dev.size() as u64, 64, 2);
        (0..n)
            .map(|k| {
                let block = b0 + k;
                let mut page = vec![0u8; denova_nova::BLOCK_SIZE as usize];
                page[..8].copy_from_slice(&(0xABCD_0000 + block).to_le_bytes());
                dev.write(layout.block_off(block), &page);
                let fp = Fingerprint::of(&page);
                let (idx, _) = fact.reserve_or_insert(&fp, block).unwrap();
                fact.commit_uc_to_rfc(idx);
                for _ in 1..rfc {
                    fact.inc_uc(idx);
                    fact.commit_uc_to_rfc(idx);
                }
                (idx, fact.read_entry(idx))
            })
            .collect()
    }

    #[test]
    fn merge_run_resolves_every_block_to_the_anchor() {
        let (dev, fact) = setup();
        let members = build_members(&dev, &fact, 600, 8, 3);
        let anchor = members[0].0;
        let before = fact.occupied_count();
        assert!(fact.merge_run(&members));
        // 7 interior records absorbed.
        assert_eq!(fact.occupied_count(), before - 7);
        assert_eq!(fact.run_pages(anchor), 8);
        for k in 0..8u64 {
            let (idx, e) = fact.resolve_block(600 + k).expect("run block resolves");
            assert_eq!(idx, anchor);
            assert_eq!(e.block, 600);
            assert_eq!(e.run_pages, 8);
        }
        // The run's count is unchanged: R per covered block.
        assert_eq!(fact.counters(anchor), (3, 0));
        // Outside the run: no resolution.
        assert!(fact.resolve_block(608).is_none());
        assert_eq!(fact.stats().promoted_runs(), 1);
        assert_eq!(fact.stats().promoted_run_pages(), 8);
    }

    #[test]
    fn run_block_still_resolves_in_two_pm_reads() {
        let (dev, fact) = setup();
        let members = build_members(&dev, &fact, 640, 4, 1);
        assert!(fact.merge_run(&members));
        let before = dev.stats().snapshot();
        fact.resolve_block(642).unwrap();
        let delta = dev.stats().snapshot().delta(&before);
        assert_eq!(delta.reads, 2, "run resolution must stay two PM reads");
    }

    /// Regression: a merge whose captured member indices went stale (the
    /// record moved slots — e.g. a concurrent remove promoted a chain head
    /// into the freed DAA slot) must decline instead of absorbing through
    /// the wrong slot. The precondition sweep cross-checks every member
    /// against the reverse index, which always names the current slot.
    #[test]
    fn merge_declines_stale_member_slots() {
        let (dev, fact) = setup();
        let members = build_members(&dev, &fact, 660, 4, 2);
        // Swap two members' slot indices: both records are live and match
        // every other precondition, but the reverse cells disagree.
        let mut stale = members.clone();
        let tmp = stale[1].0;
        stale[1].0 = stale[2].0;
        stale[2].0 = tmp;
        assert!(!fact.merge_run(&stale), "stale member slots must decline");
        // Nothing was absorbed or relocated: all records stay per-page and
        // resolvable through the reverse index.
        for (idx, e) in &members {
            assert_eq!(fact.run_pages(*idx), 1);
            let (ridx, re) = fact.resolve_block(e.block).unwrap();
            assert_eq!(ridx, *idx);
            assert_eq!(re.fp, e.fp);
        }
        // The genuine member list still merges cleanly afterwards.
        assert!(fact.merge_run(&members));
    }

    #[test]
    fn merge_removes_interior_fingerprints_from_lookup_and_filter() {
        let (dev, fact) = setup();
        let members = build_members(&dev, &fact, 700, 4, 2);
        let interior_fps: Vec<Fingerprint> = members[1..].iter().map(|(_, e)| e.fp).collect();
        assert!(fact.merge_run(&members));
        // Interior fps answer authoritatively absent — from DRAM when the
        // filter can prove it.
        for fp in &interior_fps {
            assert!(fact.lookup(fp).is_none(), "interior fp must be absent");
        }
        // The anchor fp still resolves.
        assert!(fact.lookup(&members[0].1.fp).is_some());
    }

    #[test]
    fn merge_refuses_unequal_rfcs_and_inflight_uc() {
        let (dev, fact) = setup();
        let members = build_members(&dev, &fact, 720, 4, 2);
        // Unequal RFC on one member.
        fact.inc_uc(members[2].0);
        assert!(!fact.merge_run(&members), "UC reservation must block merge");
        fact.abort_uc(members[2].0);
        fact.inc_uc(members[2].0);
        fact.commit_uc_to_rfc(members[2].0); // RFC now 3 ≠ 2
        assert!(!fact.merge_run(&members), "unequal RFC must block merge");
        // Table untouched: everything still per-page.
        for &(idx, _) in &members {
            assert_eq!(fact.run_pages(idx), 1);
        }
    }

    #[test]
    fn demote_run_recreates_per_page_records_with_the_runs_count() {
        let (dev, fact) = setup();
        let members = build_members(&dev, &fact, 760, 6, 4);
        let fps: Vec<Fingerprint> = members.iter().map(|(_, e)| e.fp).collect();
        let anchor = members[0].0;
        assert!(fact.merge_run(&members));
        assert_eq!(fact.demote_run(anchor).unwrap(), 6);
        assert_eq!(fact.run_pages(anchor), 1);
        // Every block resolves again to a per-page record carrying RFC 4,
        // and the re-fingerprinted interior fps are findable again.
        for (k, fp) in fps.iter().enumerate() {
            let (idx, e) = fact.resolve_block(760 + k as u64).unwrap();
            assert_eq!(e.block, 760 + k as u64);
            assert_eq!(e.run_pages, 1);
            assert_eq!(fact.counters(idx).0, 4);
            assert_eq!(fact.lookup(fp).unwrap().0, idx);
        }
        // Demoting a per-page record is a no-op.
        assert_eq!(fact.demote_run(anchor).unwrap(), 1);
        assert_eq!(fact.stats().demoted_runs(), 1);
    }

    #[test]
    fn repair_runs_completes_interrupted_merge() {
        let (dev, fact) = setup();
        let members = build_members(&dev, &fact, 800, 5, 2);
        let anchor = members[0].0;
        // Crash after the run committed but mid-absorption of the interior
        // records (second mid_absorb hit: one block already absorbed).
        dev.crash_points().arm("denova::fact::merge::mid_absorb", 1);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fact.merge_run(&members);
        }));
        assert!(r.is_err());
        let dev2 = Arc::new(dev.crash_clone(denova_pmem::CrashMode::Strict));
        let layout = Layout::compute(dev2.size() as u64, 64, 2);
        let fact2 = Fact::mount(dev2, layout, Arc::new(DedupStats::default()));
        assert!(fact2.repair_runs() > 0);
        // The run is whole: every block resolves to the anchor with RFC 2,
        // and no leftover per-page record survives inside the range.
        for k in 0..5u64 {
            let (idx, e) = fact2.resolve_block(800 + k).unwrap();
            assert_eq!(idx, anchor);
            assert_eq!(e.run_pages, 5);
        }
        assert_eq!(fact2.counters(anchor), (2, 0));
        for (_, e) in &members[1..] {
            assert!(fact2.lookup(&e.fp).is_none(), "absorbed fp resolvable");
        }
        // Idempotent.
        assert_eq!(fact2.repair_runs(), 0);
    }

    #[test]
    fn repair_runs_is_noop_on_clean_table() {
        let (dev, fact) = setup();
        let members = build_members(&dev, &fact, 840, 4, 1);
        assert!(fact.merge_run(&members));
        assert_eq!(fact.repair_runs(), 0);
    }

    #[test]
    fn runs_survive_remount() {
        let (dev, fact) = setup();
        let members = build_members(&dev, &fact, 860, 4, 2);
        let anchor = members[0].0;
        assert!(fact.merge_run(&members));
        let dev2 = Arc::new(dev.crash_clone(denova_pmem::CrashMode::Strict));
        let layout = Layout::compute(dev2.size() as u64, 64, 2);
        let fact2 = Fact::mount(dev2, layout, Arc::new(DedupStats::default()));
        for k in 0..4u64 {
            let (idx, e) = fact2.resolve_block(860 + k).unwrap();
            assert_eq!(idx, anchor);
            assert_eq!(e.run_pages, 4);
        }
        assert_eq!(fact2.lookup(&members[0].1.fp).unwrap().0, anchor);
    }

    #[test]
    fn extent_threshold_knob_defaults_and_sets() {
        let (_dev, fact) = setup();
        assert_eq!(
            fact.extent_threshold_pages(),
            DEFAULT_EXTENT_THRESHOLD_PAGES
        );
        fact.set_extent_threshold_pages(0);
        assert_eq!(fact.extent_threshold_pages(), 0);
    }

    // -- Presence filter ---------------------------------------------------

    #[test]
    fn filter_skips_absent_lookups_without_pm_reads() {
        let (dev, fact) = setup();
        fact.reserve_or_insert(&fp_with_prefix(&fact, 7, 1), 100)
            .unwrap();
        let reads0 = dev.stats().snapshot().reads;
        let skips0 = fact.stats().filter_skips();
        // 64 fingerprints that were never inserted: all answered from DRAM.
        for salt in 50..114u8 {
            assert!(fact.lookup(&fp_with_prefix(&fact, 9, salt)).is_none());
        }
        assert_eq!(fact.stats().filter_skips() - skips0, 64);
        assert_eq!(dev.stats().snapshot().reads, reads0, "no PM probe");
        // Present fingerprints still resolve.
        assert!(fact.lookup(&fp_with_prefix(&fact, 7, 1)).is_some());
    }

    #[test]
    fn filter_disabled_probes_pm() {
        let (dev, fact) = setup();
        fact.set_filter_enabled(false);
        // With the RCU stripe table also off, an absent lookup must fall
        // back to the authoritative PM probe.
        fact.set_rcu_enabled(false);
        let reads0 = dev.stats().snapshot().reads;
        assert!(fact.lookup(&fp_with_prefix(&fact, 9, 1)).is_none());
        assert!(dev.stats().snapshot().reads > reads0);
        assert_eq!(fact.stats().filter_skips(), 0);
        assert_eq!(fact.stats().filter_false_positives(), 0);
    }

    #[test]
    fn filter_tracks_removal() {
        let (_dev, fact) = setup();
        let fp = fp_with_prefix(&fact, 3, 1);
        let (idx, _) = fact.reserve_or_insert(&fp, 200).unwrap();
        fact.commit_uc_to_rfc(idx);
        assert!(fact.lookup(&fp).is_some());
        fact.dec_rfc(idx);
        fact.remove(idx).unwrap();
        let skips0 = fact.stats().filter_skips();
        assert!(fact.lookup(&fp).is_none());
        assert_eq!(fact.stats().filter_skips(), skips0 + 1, "skip after remove");
    }

    #[test]
    fn filter_remove_keeps_promoted_chain_entries_visible() {
        let (_dev, fact) = setup();
        // Two colliding fps: head in the DAA, second chained in the IAA.
        let a = fp_with_prefix(&fact, 5, 1);
        let b = fp_with_prefix(&fact, 5, 2);
        let (ia, _) = fact.reserve_or_insert(&a, 100).unwrap();
        let (ib, _) = fact.reserve_or_insert(&b, 101).unwrap();
        fact.commit_uc_to_rfc(ia);
        fact.commit_uc_to_rfc(ib);
        // Removing the DAA entry promotes b into the DAA slot; b must stay
        // findable (both in the filter and in PM).
        fact.dec_rfc(ia);
        fact.remove(ia).unwrap();
        assert!(fact.lookup(&a).is_none());
        let (idx, e) = fact.lookup(&b).expect("promoted entry still present");
        assert!(idx < fact.daa_entries(), "b was promoted into the DAA slot");
        assert_eq!(e.block, 101);
    }

    #[test]
    fn filter_rebuilt_on_mount() {
        let (dev, fact) = setup();
        let present = fp_with_prefix(&fact, 11, 1);
        let chained = fp_with_prefix(&fact, 11, 2);
        let (i1, _) = fact.reserve_or_insert(&present, 100).unwrap();
        let (i2, _) = fact.reserve_or_insert(&chained, 101).unwrap();
        fact.commit_uc_to_rfc(i1);
        fact.commit_uc_to_rfc(i2);
        let layout = fact.layout;
        // Remount from the persistent image: the fresh filter must be
        // rebuilt by the scan — present fps resolve, absent fps skip.
        let dev2 = Arc::new(dev.crash_clone(denova_pmem::CrashMode::Strict));
        let fact2 = Fact::mount(dev2, layout, Arc::new(DedupStats::default()));
        assert!(fact2.lookup(&present).is_some());
        assert!(fact2.lookup(&chained).is_some());
        let skips0 = fact2.stats().filter_skips();
        assert!(fact2.lookup(&fp_with_prefix(&fact, 13, 9)).is_none());
        assert_eq!(fact2.stats().filter_skips(), skips0 + 1);
    }

    #[test]
    fn filter_saturation_is_sticky_never_false_negative() {
        let f = PresenceFilter::new(64);
        let fp = Fingerprint::of(b"sticky");
        // Saturate the fp's counters, then remove more times than added:
        // the entry must remain "maybe present" (sticky), never flip absent
        // while a copy is still live.
        for _ in 0..300 {
            f.add(0, &fp);
        }
        for _ in 0..300 {
            f.remove(0, &fp);
        }
        assert!(f.maybe_contains(0, &fp), "saturated counters are sticky");
    }

    #[test]
    fn concurrent_inserts_never_false_negative() {
        let (_dev, fact) = setup();
        let fact = Arc::new(fact);
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let fact = fact.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..50u64 {
                    let fp = fp_with_prefix(&fact, t * 64 + i, (t * 50 + i) as u8);
                    fact.reserve_or_insert(&fp, 1000 + t * 50 + i).unwrap();
                    // Immediately visible to this (and any) thread.
                    assert!(fact.lookup(&fp).is_some());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for t in 0..4u64 {
            for i in 0..50u64 {
                let fp = fp_with_prefix(&fact, t * 64 + i, (t * 50 + i) as u8);
                assert!(fact.lookup(&fp).is_some());
            }
        }
    }
}
