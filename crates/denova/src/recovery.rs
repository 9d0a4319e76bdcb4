//! DeNova recovery: the Inconsistency Handling I/II/III procedures of
//! Section V-C plus the FACT scrubber.
//!
//! After NOVA's own log-scan recovery has rebuilt the namespace, radix
//! trees, and free lists — and, in the same walk of every log, listed the
//! write entries still flagged for dedup — the dedup layer:
//!
//! 1. **completes interrupted extent-run merges and demotes** forward;
//! 2. **resumes from step ⑥** every entry flagged `in_process`
//!    (Handling II): the tail commit made those transactions durable, so
//!    only the UC→RFC transfer, flags, and reclaim remain;
//! 3. **rebuilds the DWQ** from the entries flagged `dedupe_needed`
//!    (Handling I / III — a target entry whose transaction committed but
//!    whose flag never advanced is simply re-processed, which is safe
//!    because its already-deduplicated pages are no longer backed by it);
//! 4. **discards stale UCs** — any update count left non-zero belongs to a
//!    transaction that failed before its tail commit ("the UC is not
//!    applied to the RFC for these entries, but discarded");
//! 5. **repairs interrupted chain reorders** via the commit flag (Fig. 7);
//! 6. **scrubs FACT against the live files**: entries whose canonical block
//!    no file references are dropped, and over-incremented RFCs (the
//!    crash-during-reclaim case) are reset to the exact reference count, so
//!    no page stays unreclaimable.
//!
//! Steps 4–6 share one FACT pass: it notes the stale UCs and the chained
//! prefixes while it audits each entry, and the fixes run after it in the
//! order above. A crash-recovery mount thus scans FACT at most three times:
//! at [`Fact::mount`], for orphaned run records (only when a run exists),
//! and in that shared pass.

use crate::dedup::resume_in_process;
use crate::dwq::Dwq;
use crate::fact::Fact;
use crate::reorder::recover_reorder;
use denova_nova::{DedupeFlag, Nova, PendingDedup, Result};
use denova_telemetry::MetricsRegistry;
use std::collections::HashMap;
use std::time::Instant;

/// What recovery did, for logging and tests.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Write entries re-queued onto the DWQ (flag `Needed`).
    pub requeued: u64,
    /// Transactions resumed from step ⑥ (flag `InProcess`).
    pub resumed: u64,
    /// FACT entries whose stale UC was discarded.
    pub stale_ucs_discarded: u64,
    /// Chains whose interrupted reorder was repaired.
    pub reorders_repaired: u64,
    /// Extent-run records completed forward after an interrupted merge or
    /// demote (delete pointers re-aimed, leftover per-page records absorbed).
    pub runs_repaired: u64,
    /// FACT entries dropped or RFC-corrected by the scrubber.
    pub scrubbed: u64,
}

/// Time `f` into the histogram `label` (ns). Recording is direct, not a
/// span: a mount runs before anyone can switch spans on.
pub(crate) fn phase<R>(metrics: &MetricsRegistry, label: &str, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let r = f();
    metrics
        .histogram(label)
        .record(t0.elapsed().as_nanos() as u64);
    r
}

/// Run dedup recovery on a freshly-mounted (crashed) file system. `pending`
/// is what NOVA's mount-time log scan found still flagged for dedup
/// ([`Nova::take_pending_dedup`]).
pub fn recover(
    nova: &Nova,
    fact: &Fact,
    dwq: &Dwq,
    pending: &[PendingDedup],
) -> Result<RecoveryReport> {
    let mut report = RecoveryReport::default();
    let metrics = nova.device().metrics();

    // Complete interrupted extent-run merges/demotes forward, toward
    // whatever each anchor's committed `run_pages` says. Runs first so
    // everything below (resume, scrub) sees a consistent reverse index.
    report.runs_repaired = phase(metrics, "denova.recover.runs", || fact.repair_runs());

    phase(metrics, "denova.recover.pending", || -> Result<()> {
        // Handling II: resume interrupted transactions from step ⑥.
        for p in pending.iter().filter(|p| p.flag == DedupeFlag::InProcess) {
            resume_in_process(nova, fact, p.ino, p.entry_off)?;
            report.resumed += 1;
        }
        // Handling I/III: re-queue pending candidates in log order.
        for p in pending.iter().filter(|p| p.flag == DedupeFlag::Needed) {
            dwq.push(p.ino, p.entry_off);
            report.requeued += 1;
        }
        Ok(())
    })?;

    // One FACT pass: stale UCs and chained prefixes, and the scrub audit.
    let plan = phase(metrics, "denova.recover.census", || {
        ScrubPlan::survey(nova, fact, true)
    });
    for &idx in &plan.stale_ucs {
        fact.reset_uc(idx);
    }
    report.stale_ucs_discarded = plan.stale_ucs.len() as u64;
    phase(metrics, "denova.recover.reorder", || -> Result<()> {
        for &prefix in &plan.chained {
            if recover_reorder(fact, prefix)? {
                report.reorders_repaired += 1;
            }
        }
        Ok(())
    })?;
    report.scrubbed = phase(metrics, "denova.recover.scrub", || plan.apply(fact))?;
    Ok(report)
}

/// Reconcile every FACT entry with the exact number of write entries
/// referencing its canonical block. This is the paper's background monitor
/// ("it periodically scans all the files and generates a bitmap of which
/// FACT entry is in use"), generalized to also repair over-incremented RFCs.
/// Returns the number of entries dropped or corrected.
///
/// Must run quiescent (at mount, or with the daemon drained): it compares
/// two scans that are not mutually atomic.
pub fn scrub(nova: &Nova, fact: &Fact) -> Result<u64> {
    ScrubPlan::survey(nova, fact, false).apply(fact)
}

/// What one FACT pass found to fix.
struct ScrubPlan {
    /// Write-entry references per block, the scrubber's ground truth.
    counts: HashMap<u64, u32>,
    /// Slots whose UC a crash left behind (recovery only).
    stale_ucs: Vec<u64>,
    /// DAA slots heading an IAA chain (recovery only).
    chained: Vec<u64>,
    /// Per-page records `(slot, block)` no file references.
    doomed: Vec<(u64, u64)>,
    /// Per-page records `(slot, block, references)` with a wrong RFC.
    adjust: Vec<(u64, u64, u32)>,
    /// Run anchors `(slot, block, pages)` whose blocks' owners diverged.
    bad_runs: Vec<(u64, u64, u64)>,
}

impl ScrubPlan {
    /// Audit every entry in one pass. `recovering` treats a UC as stale
    /// (noted for discarding, the entry audited as if it were zero) and
    /// notes chained prefixes; otherwise a UC marks an in-flight
    /// transaction whose entry is left alone.
    fn survey(nova: &Nova, fact: &Fact, recovering: bool) -> ScrubPlan {
        let mut plan = ScrubPlan {
            counts: nova.block_reference_counts(),
            stale_ucs: Vec::new(),
            chained: Vec::new(),
            doomed: Vec::new(),
            adjust: Vec::new(),
            bad_runs: Vec::new(),
        };
        fact.for_each_occupied(|idx, e| {
            if recovering {
                if e.uc > 0 {
                    plan.stale_ucs.push(idx);
                }
                if idx < fact.daa_entries() && e.next >= 0 {
                    plan.chained.push(idx);
                }
            } else if e.uc > 0 {
                return;
            }
            let refs = |block: u64| plan.counts.get(&block).copied().unwrap_or(0);
            if e.run_pages > 1 {
                // A run's single RFC claims every covered block has exactly
                // that many owners; verify per block.
                let n = e.run_pages as u64;
                if !(0..n).all(|k| refs(e.block + k) == e.rfc) {
                    plan.bad_runs.push((idx, e.block, n));
                }
                return;
            }
            let actual = refs(e.block);
            if actual == 0 {
                plan.doomed.push((idx, e.block));
            } else if e.rfc != actual {
                plan.adjust.push((idx, e.block, actual));
            }
        });
        plan
    }

    /// Apply the fixes; returns how many entries were dropped or corrected.
    fn apply(&self, fact: &Fact) -> Result<u64> {
        let mut fixed = 0;
        // Run anchors whose per-block ownership diverged (a crash between a
        // run share and its count commit, or a partial release): split the
        // run and reconcile each block independently.
        for &(idx, block, n) in &self.bad_runs {
            if fact.demote_run(idx).is_err() {
                // FACT full — leave the run for a later sweep rather than
                // lose shared state.
                continue;
            }
            for k in 0..n {
                let Some((pidx, _)) = fact.resolve_block(block + k) else {
                    continue;
                };
                let actual = self.counts.get(&(block + k)).copied().unwrap_or(0);
                let (rfc, _) = fact.counters(pidx);
                if actual == 0 {
                    fact.remove(pidx)?;
                    fixed += 1;
                } else if rfc != actual {
                    fact.set_rfc(pidx, actual);
                    fixed += 1;
                }
            }
        }
        for &(idx, block) in &self.doomed {
            if let Some(idx) = relocate(fact, idx, block) {
                fact.remove(idx)?;
            }
            fixed += 1;
        }
        for &(idx, block, rfc) in &self.adjust {
            if let Some(idx) = relocate(fact, idx, block) {
                fact.set_rfc(idx, rfc);
            }
            fixed += 1;
        }
        Ok(fixed)
    }
}

/// The slot now holding the per-page record of `block` that the pass saw
/// at `idx`. A removal since may have moved it: removing a DAA entry
/// promotes its chain's head into the DAA slot and re-aims the head's
/// reverse index, so a moved record is found by its block.
fn relocate(fact: &Fact, idx: u64, block: u64) -> Option<u64> {
    let e = fact.read_entry(idx);
    if e.is_occupied() && e.block == block && e.run_pages == 1 {
        return Some(idx);
    }
    fact.resolve_block(block)
        .filter(|(_, e)| e.block == block && e.run_pages == 1)
        .map(|(at, _)| at)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dedup::dedup_entry;
    use crate::reclaim::DenovaHooks;
    use crate::stats::DedupStats;
    use denova_fingerprint::Fingerprint;
    use denova_nova::{LogEntry, LogIter, NovaOptions};
    use denova_pmem::PmemDevice;
    use std::sync::Arc;

    fn opts() -> NovaOptions {
        NovaOptions {
            num_inodes: 128,
            dedup_enabled: true,
            ..Default::default()
        }
    }

    struct Stack {
        nova: Arc<Nova>,
        fact: Arc<Fact>,
        dwq: Arc<Dwq>,
    }

    fn mkfs() -> Stack {
        let dev = Arc::new(PmemDevice::new(32 * 1024 * 1024));
        let nova = Arc::new(Nova::mkfs(dev.clone(), opts()).unwrap());
        let stats = Arc::new(DedupStats::default());
        let fact = Arc::new(Fact::new(dev, *nova.layout(), stats.clone()));
        let dwq = Arc::new(Dwq::new(stats));
        nova.set_hooks(Arc::new(DenovaHooks::new(fact.clone(), dwq.clone(), true)));
        Stack { nova, fact, dwq }
    }

    /// Crash the device and bring up a recovered stack.
    fn crash_and_recover(s: &Stack) -> (Stack, RecoveryReport) {
        let dev = Arc::new(s.nova.device().crash_clone(denova_pmem::CrashMode::Strict));
        let nova = Arc::new(Nova::mount(dev.clone(), opts()).unwrap());
        let stats = Arc::new(DedupStats::default());
        let fact = Arc::new(Fact::mount(dev, *nova.layout(), stats.clone()));
        let dwq = Arc::new(Dwq::new(stats));
        nova.set_hooks(Arc::new(DenovaHooks::new(fact.clone(), dwq.clone(), true)));
        let report = recover(&nova, &fact, &dwq, &nova.take_pending_dedup()).unwrap();
        (Stack { nova, fact, dwq }, report)
    }

    fn drain(s: &Stack) {
        while let Some(node) = s.dwq.pop_batch(1).first().copied() {
            dedup_entry(&s.nova, &s.fact, &node).unwrap();
        }
    }

    #[test]
    fn handling_i_requeues_needed_entries() {
        let s = mkfs();
        let data = vec![0x11u8; 4096];
        for name in ["a", "b"] {
            let ino = s.nova.create(name).unwrap();
            s.nova.write(ino, 0, &data).unwrap();
        }
        // Crash before the daemon ran: both entries still flagged Needed.
        let (s2, report) = crash_and_recover(&s);
        assert_eq!(report.requeued, 2);
        assert_eq!(report.resumed, 0);
        assert_eq!(s2.dwq.len(), 2);
        drain(&s2);
        let (idx, _) = s2.fact.lookup(&Fingerprint::of(&data)).unwrap();
        assert_eq!(s2.fact.counters(idx), (2, 0));
    }

    #[test]
    fn crash_matrix_over_every_dedup_crash_point() {
        // For each crash point inside the dedup transaction: crash there,
        // recover, finish, and verify the end state is byte- and
        // count-identical to a run that never crashed.
        let points = [
            "denova::dedup::after_reserve",
            "denova::dedup::before_tail_commit",
            "denova::dedup::after_tail_commit",
            "denova::dedup::after_target_in_process",
            "denova::dedup::mid_commit_counts",
            "denova::dedup::after_commit_counts",
            "denova::dedup::after_complete",
        ];
        let data = vec![0x5Au8; 2 * 4096]; // 2 identical pages per file
        for point in points {
            let s = mkfs();
            let a = s.nova.create("a").unwrap();
            let b = s.nova.create("b").unwrap();
            s.nova.write(a, 0, &data).unwrap();
            s.nova.write(b, 0, &data).unwrap();
            // Process the first node cleanly, crash inside the second.
            let nodes = s.dwq.pop_batch(2);
            dedup_entry(&s.nova, &s.fact, &nodes[0]).unwrap();
            s.nova.device().crash_points().arm(point, 0);
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                dedup_entry(&s.nova, &s.fact, &nodes[1]).unwrap();
            }));
            assert!(r.is_err(), "{point} did not fire");

            let (s2, _report) = crash_and_recover(&s);
            drain(&s2);
            crate::recovery::scrub(&s2.nova, &s2.fact).unwrap();
            // Both files intact.
            let a2 = s2.nova.open("a").unwrap();
            let b2 = s2.nova.open("b").unwrap();
            assert_eq!(s2.nova.read(a2, 0, data.len()).unwrap(), data, "{point}");
            assert_eq!(s2.nova.read(b2, 0, data.len()).unwrap(), data, "{point}");
            // FACT consistent: one entry for the content, RFC == exact
            // number of referencing write entries, no UC residue.
            let (idx, e) = s2.fact.lookup(&Fingerprint::of(&data[..4096])).unwrap();
            assert_eq!(e.uc, 0, "{point}: UC residue");
            let counts = s2.nova.block_reference_counts();
            let expected = counts.get(&e.block).copied().unwrap();
            assert_eq!(s2.fact.counters(idx).0, expected, "{point}: RFC mismatch");
            // And nothing got leaked or double-freed: a second scrub finds
            // nothing to fix.
            assert_eq!(
                crate::recovery::scrub(&s2.nova, &s2.fact).unwrap(),
                0,
                "{point}"
            );
        }
    }

    /// 8 pages of distinct, non-zero content.
    fn run_data() -> Vec<u8> {
        let mut data = vec![0u8; 8 * 4096];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i / 4096 + 1) as u8;
        }
        data
    }

    /// Verify both files read back and FACT agrees exactly with the live
    /// write entries (scrub finds nothing).
    fn assert_consistent(s: &Stack, data: &[u8], point: &str) {
        for name in ["a", "b"] {
            let ino = s.nova.open(name).unwrap();
            assert_eq!(s.nova.read(ino, 0, data.len()).unwrap(), data, "{point}");
        }
        let mut uc_residue = 0;
        s.fact.for_each_occupied(|_, e| {
            if e.uc != 0 {
                uc_residue += 1;
            }
        });
        assert_eq!(uc_residue, 0, "{point}: UC residue");
        assert_eq!(scrub(&s.nova, &s.fact).unwrap(), 0, "{point}");
    }

    #[test]
    fn crash_matrix_over_extent_merge_points() {
        // Kill a worker mid-run-rewrite: the run commit and each absorption
        // step. Recovery's repair pass must complete the merge forward and
        // leave counts exact.
        let data = run_data();
        for point in [
            "denova::fact::merge::after_run_commit",
            "denova::fact::merge::mid_absorb",
        ] {
            let s = mkfs();
            s.fact.set_extent_threshold_pages(4);
            let a = s.nova.create("a").unwrap();
            let b = s.nova.create("b").unwrap();
            s.nova.write(a, 0, &data).unwrap();
            s.nova.write(b, 0, &data).unwrap();
            let nodes = s.dwq.pop_batch(2);
            dedup_entry(&s.nova, &s.fact, &nodes[0]).unwrap();
            // The second node's transaction promotes the run; crash inside.
            s.nova.device().crash_points().arm(point, 0);
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                dedup_entry(&s.nova, &s.fact, &nodes[1]).unwrap();
            }));
            assert!(r.is_err(), "{point} did not fire");

            let (s2, report) = crash_and_recover(&s);
            drain(&s2);
            if point == "denova::fact::merge::mid_absorb" {
                assert!(report.runs_repaired > 0, "{point}: nothing repaired");
            }
            // The run is whole: every canonical block resolves through the
            // anchor, with the committed owner count.
            let (anchor, e) = s2.fact.lookup(&Fingerprint::of(&data[..4096])).unwrap();
            assert_eq!(e.run_pages, 8, "{point}");
            for k in 0..8u64 {
                let (idx, _) = s2.fact.resolve_block(e.block + k).expect(point);
                assert_eq!(idx, anchor, "{point}: block {k} off-anchor");
            }
            assert_eq!(s2.fact.counters(anchor), (2, 0), "{point}");
            assert_consistent(&s2, &data, point);
        }
    }

    #[test]
    fn crash_matrix_over_demote_point() {
        // Kill a demotion mid-split. repair_runs re-absorbs the
        // half-inserted per-page records back into the whole run, with
        // counts exact.
        let data = run_data();
        let point = "denova::fact::demote::mid_split";
        let s = mkfs();
        s.fact.set_extent_threshold_pages(4);
        let a = s.nova.create("a").unwrap();
        let b = s.nova.create("b").unwrap();
        s.nova.write(a, 0, &data).unwrap();
        s.nova.write(b, 0, &data).unwrap();
        drain(&s);
        assert_eq!(s.fact.occupied_count(), 1);
        let (anchor, _) = s.fact.lookup(&Fingerprint::of(&data[..4096])).unwrap();
        s.nova.device().crash_points().arm(point, 0);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.fact.demote_run(anchor).unwrap();
        }));
        assert!(r.is_err(), "{point} did not fire");

        let (s2, report) = crash_and_recover(&s);
        assert!(report.runs_repaired > 0, "{point}: nothing repaired");
        let (anchor2, e2) = s2.fact.lookup(&Fingerprint::of(&data[..4096])).unwrap();
        assert_eq!(e2.run_pages, 8, "{point}");
        assert_eq!(s2.fact.counters(anchor2), (2, 0), "{point}");
        assert_consistent(&s2, &data, point);
    }

    #[test]
    fn crash_matrix_over_split_point() {
        // Kill a worker mid-run-rewrite: a partial anchor match splitting
        // the run. repair_runs re-absorbs the half-built tail into the
        // whole run, and the re-queued transaction completes the split.
        let data = run_data();
        let point = "denova::fact::split::mid_tail";
        let s = mkfs();
        s.fact.set_extent_threshold_pages(4);
        let a = s.nova.create("a").unwrap();
        let b = s.nova.create("b").unwrap();
        s.nova.write(a, 0, &data).unwrap();
        s.nova.write(b, 0, &data).unwrap();
        drain(&s);
        assert_eq!(s.fact.occupied_count(), 1);
        // d overlaps only the run's head: its transaction must split.
        let d = s.nova.create("d").unwrap();
        s.nova.write(d, 0, &data[..3 * 4096]).unwrap();
        let node = s.dwq.pop_batch(1)[0];
        s.nova.device().crash_points().arm(point, 0);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dedup_entry(&s.nova, &s.fact, &node).unwrap();
        }));
        assert!(r.is_err(), "{point} did not fire");

        let (s2, report) = crash_and_recover(&s);
        assert!(report.runs_repaired > 0, "{point}: nothing repaired");
        s2.fact.set_extent_threshold_pages(4);
        drain(&s2);
        // d's re-queued transaction split the run again and shares its 3
        // pages through the head.
        let d2 = s2.nova.open("d").unwrap();
        assert_eq!(
            s2.nova.read(d2, 0, 3 * 4096).unwrap(),
            &data[..3 * 4096],
            "{point}"
        );
        let (_, he) = s2.fact.lookup(&Fingerprint::of(&data[..4096])).unwrap();
        assert_eq!(he.run_pages, 3, "{point}");
        assert_consistent(&s2, &data, point);
    }

    #[test]
    fn scrubber_splits_runs_with_diverged_ownership() {
        let s = mkfs();
        s.fact.set_extent_threshold_pages(4);
        let data = run_data();
        let a = s.nova.create("a").unwrap();
        let b = s.nova.create("b").unwrap();
        s.nova.write(a, 0, &data).unwrap();
        s.nova.write(b, 0, &data).unwrap();
        drain(&s);
        let (idx, e) = s.fact.lookup(&Fingerprint::of(&data[..4096])).unwrap();
        assert_eq!(e.run_pages, 8);
        // Simulate a crash-induced over-increment on the run's single RFC:
        // it now claims 3 owners per block while files hold 2.
        s.fact.set_rfc(idx, 3);
        let fixed = scrub(&s.nova, &s.fact).unwrap();
        assert!(fixed >= 8);
        // Split and corrected per block.
        for k in 0..8u64 {
            let (pidx, pe) = s.fact.resolve_block(e.block + k).unwrap();
            assert_eq!(pe.run_pages, 1);
            assert_eq!(s.fact.counters(pidx), (2, 0), "block {k}");
        }
        assert_eq!(scrub(&s.nova, &s.fact).unwrap(), 0);
    }

    #[test]
    fn stale_uc_discarded_at_recovery() {
        let s = mkfs();
        let a = s.nova.create("a").unwrap();
        s.nova.write(a, 0, &vec![0x77u8; 4096]).unwrap();
        // Crash after step 3 (UC++) but before the tail commit.
        let node = s.dwq.pop_batch(1)[0];
        s.nova
            .device()
            .crash_points()
            .arm("denova::dedup::after_reserve", 0);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dedup_entry(&s.nova, &s.fact, &node).unwrap();
        }));
        assert!(r.is_err());
        let (s2, report) = crash_and_recover(&s);
        // The UC either never persisted (crash reverted it) or was discarded.
        assert!(report.stale_ucs_discarded <= 1);
        let mut bad = 0;
        s2.fact.for_each_occupied(|_, e| {
            if e.uc != 0 {
                bad += 1;
            }
        });
        assert_eq!(bad, 0);
        // The entry is re-queued and a clean pass completes it.
        drain(&s2);
        let a2 = s2.nova.open("a").unwrap();
        assert_eq!(s2.nova.read(a2, 0, 4096).unwrap(), vec![0x77u8; 4096]);
    }

    #[test]
    fn scrubber_drops_orphan_fact_entries() {
        let s = mkfs();
        let data = vec![0x3Cu8; 4096];
        let a = s.nova.create("a").unwrap();
        s.nova.write(a, 0, &data).unwrap();
        drain(&s);
        assert!(s.fact.lookup(&Fingerprint::of(&data)).is_some());
        // Simulate an over-increment: bump RFC so unlink's reclaim leaves
        // the entry alive with no referencing file.
        let (idx, _) = s.fact.lookup(&Fingerprint::of(&data)).unwrap();
        s.fact.inc_uc(idx);
        s.fact.commit_uc_to_rfc(idx); // RFC = 2, actual refs = 1
        s.nova.unlink("a").unwrap(); // dec to 1, entry survives (wrongly)
        assert!(s.fact.lookup(&Fingerprint::of(&data)).is_some());
        let fixed = scrub(&s.nova, &s.fact).unwrap();
        assert_eq!(fixed, 1);
        assert!(s.fact.lookup(&Fingerprint::of(&data)).is_none());
    }

    #[test]
    fn scrubber_corrects_over_incremented_rfc() {
        let s = mkfs();
        let data = vec![0x2Bu8; 4096];
        let a = s.nova.create("a").unwrap();
        let b = s.nova.create("b").unwrap();
        s.nova.write(a, 0, &data).unwrap();
        s.nova.write(b, 0, &data).unwrap();
        drain(&s);
        let (idx, _) = s.fact.lookup(&Fingerprint::of(&data)).unwrap();
        s.fact.set_rfc(idx, 9); // simulate crash-induced over-increment
        let fixed = scrub(&s.nova, &s.fact).unwrap();
        assert_eq!(fixed, 1);
        assert_eq!(s.fact.counters(idx), (2, 0));
    }

    #[test]
    fn scrub_fixes_a_record_an_earlier_removal_promoted() {
        let s = mkfs();
        let a = s.nova.create("a").unwrap();
        // Left queued, so a's block has no FACT record of its own.
        s.nova.write(a, 0, &vec![0x42u8; 4096]).unwrap();
        let block = *s.nova.block_reference_counts().keys().next().unwrap();
        let bits = s.fact.prefix_bits();
        let mk = |salt: u8| {
            let mut bytes = [0u8; 20];
            bytes[..8].copy_from_slice(&(77u64 << (64 - bits)).to_be_bytes());
            bytes[18] = 1;
            bytes[19] = salt;
            Fingerprint::from_bytes(bytes)
        };
        // A DAA record no file references, and chained behind it an
        // over-counted record of a's block.
        let (daa, _) = s.fact.reserve_or_insert(&mk(1), 900).unwrap();
        s.fact.commit_uc_to_rfc(daa);
        let (head, _) = s.fact.reserve_or_insert(&mk(2), block).unwrap();
        s.fact.commit_uc_to_rfc(head);
        s.fact.set_rfc(head, 5);
        assert!(head >= s.fact.daa_entries());
        // Dropping the DAA record promotes the head into its slot; the RFC
        // fix must follow it there.
        assert_eq!(scrub(&s.nova, &s.fact).unwrap(), 2);
        assert_eq!(s.fact.read_entry(daa).block, block);
        assert_eq!(s.fact.counters(daa), (1, 0));
        assert_eq!(scrub(&s.nova, &s.fact).unwrap(), 0);
    }

    #[test]
    fn scrub_on_healthy_fs_is_noop() {
        let s = mkfs();
        let a = s.nova.create("a").unwrap();
        s.nova.write(a, 0, &vec![1u8; 3 * 4096]).unwrap();
        drain(&s);
        assert_eq!(scrub(&s.nova, &s.fact).unwrap(), 0);
    }

    #[test]
    fn recovery_repairs_interrupted_reorder() {
        let s = mkfs();
        // Build an IAA chain through real dedup is hard to force; use the
        // fact layer directly with colliding prefixes, then crash mid
        // reorder and run full recovery.
        let bits = s.fact.prefix_bits();
        let mk = |salt: u8| {
            let mut bytes = [0u8; 20];
            bytes[..8].copy_from_slice(&(99u64 << (64 - bits)).to_be_bytes());
            bytes[19] = salt;
            bytes[18] = 1;
            Fingerprint::from_bytes(bytes)
        };
        for salt in 1..=5 {
            let (idx, _) = s
                .fact
                .reserve_or_insert(&mk(salt), 400 + salt as u64)
                .unwrap();
            s.fact.commit_uc_to_rfc(idx);
            s.fact.set_rfc(idx, salt as u32 * 3 % 7 + 1);
        }
        s.nova
            .device()
            .crash_points()
            .arm("denova::reorder::phase2_step", 0);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            crate::reorder::reorder_chain(&s.fact, 99).unwrap();
        }));
        assert!(r.is_err());
        let (s2, report) = crash_and_recover(&s);
        assert_eq!(report.reorders_repaired, 1);
        // All five fingerprints reachable after repair... the scrubber will
        // have dropped them (no file references those blocks), so check the
        // repair happened via the report and chain soundness before scrub is
        // covered by reorder.rs tests.
        let _ = s2;
    }

    /// The old second walk of every log: inodes ascending, then the root,
    /// each log's `Needed`/`InProcess` write entries in log order.
    fn walk_pending(nova: &Nova) -> Vec<PendingDedup> {
        let mut out = Vec::new();
        let mut inos = nova.live_inodes();
        inos.push(denova_nova::ROOT_INO);
        for ino in inos {
            let pos = nova.with_inode_read(ino, |mem| Ok(mem.pos)).unwrap();
            for item in LogIter::new(nova.device(), nova.layout(), pos.head, pos.tail) {
                let (entry_off, entry) = item.unwrap();
                if let LogEntry::Write(we) = entry {
                    if matches!(we.dedupe_flag, DedupeFlag::Needed | DedupeFlag::InProcess) {
                        out.push(PendingDedup {
                            ino,
                            entry_off,
                            flag: we.dedupe_flag,
                        });
                    }
                }
            }
        }
        out
    }

    #[test]
    fn pending_list_matches_a_log_walk_and_drives_recovery() {
        let s = mkfs();
        let page = |k: u64| vec![(k % 5 + 1) as u8; 4096];
        // "a" takes 70 one-page writes, so its log spans two pages; "b" and
        // "c" a few each.
        for (name, writes) in [("a", 70u64), ("b", 3), ("c", 5)] {
            let ino = s.nova.create(name).unwrap();
            for k in 0..writes {
                s.nova.write(ino, k * 4096, &page(k)).unwrap();
            }
        }
        // Complete the first 20 candidates, crash inside the 21st after its
        // target is flagged InProcess; the rest stay Needed.
        let nodes = s.dwq.pop_batch(21);
        for node in &nodes[..20] {
            dedup_entry(&s.nova, &s.fact, node).unwrap();
        }
        s.nova
            .device()
            .crash_points()
            .arm("denova::dedup::after_target_in_process", 0);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dedup_entry(&s.nova, &s.fact, &nodes[20]).unwrap();
        }));
        assert!(r.is_err());

        let dev = Arc::new(s.nova.device().crash_clone(denova_pmem::CrashMode::Strict));
        let nova = Arc::new(Nova::mount(dev.clone(), opts()).unwrap());
        let pending = nova.take_pending_dedup();
        assert_eq!(pending, walk_pending(&nova));
        assert!(nova.take_pending_dedup().is_empty(), "taken once");
        let a = nova.open("a").unwrap();
        let a_head = nova.with_inode_read(a, |mem| Ok(mem.pos)).unwrap();
        assert!(
            pending
                .iter()
                .any(|p| p.ino == a && p.entry_off / 4096 != a_head.head),
            "no pending entry past the first log page"
        );
        let flagged = |f: DedupeFlag| pending.iter().filter(|p| p.flag == f).count() as u64;

        let stats = Arc::new(DedupStats::default());
        let fact = Arc::new(Fact::mount(dev, *nova.layout(), stats.clone()));
        let dwq = Arc::new(Dwq::new(stats));
        nova.set_hooks(Arc::new(DenovaHooks::new(fact.clone(), dwq.clone(), true)));
        let report = recover(&nova, &fact, &dwq, &pending).unwrap();
        assert_eq!(
            (report.requeued, report.resumed),
            (flagged(DedupeFlag::Needed), flagged(DedupeFlag::InProcess))
        );
        // What recovery reported when it walked the logs a second time.
        assert_eq!(
            report,
            RecoveryReport {
                requeued: 57,
                resumed: 2,
                ..RecoveryReport::default()
            }
        );
        assert_eq!(dwq.len() as u64, report.requeued);
        let s2 = Stack { nova, fact, dwq };
        drain(&s2);
        assert_eq!(scrub(&s2.nova, &s2.fact).unwrap(), 0);
    }
}
