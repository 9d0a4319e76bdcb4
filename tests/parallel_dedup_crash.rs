//! Crash consistency of the *parallel* dedup pipeline.
//!
//! The single-threaded crash matrix (`tests/crash_matrix.rs`) proves every
//! crash point recovers when dedup transactions run one at a time. These
//! tests cover what the worker pool adds: a crash while several workers are
//! in *different stages* of the two-stage transaction at once, recovered by
//! a 4-worker mount.
//!
//! Invariants after every crash + recovery (same contract as the matrix):
//! files read back page-uniform, FACT has zero UC residue and exact RFCs,
//! a scrub is a fixpoint, fsck is clean, and the recovered system still
//! dedups new writes.

use denova_repro::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

const DEV_SIZE: usize = 48 * 1024 * 1024;

fn opts(workers: usize) -> NovaOptions {
    NovaOptions {
        num_inodes: 256,
        dedup_workers: workers,
        ..Default::default()
    }
}

/// Silence simulated-crash panics from worker threads (real panics still
/// print). Process-global; both tests install the same filter.
fn quiet_simulated_crashes() {
    std::panic::set_hook(Box::new(|info| {
        if info.payload().downcast_ref::<SimulatedCrash>().is_none() {
            eprintln!("panic: {info}");
        }
    }));
}

/// Mount with a 4-worker pool, drain, and check the full invariant set.
fn verify_recovered(dev: Arc<PmemDevice>, files: &[String], context: &str) {
    let fs = Denova::mount(dev, opts(4), DedupMode::Immediate)
        .unwrap_or_else(|e| panic!("{context}: mount failed: {e}"));
    assert_eq!(fs.dedup_workers(), 4);
    fs.drain();
    fs.scrub().unwrap();

    // Page-uniformity of every surviving file.
    for name in files {
        let Ok(ino) = fs.open(name) else { continue };
        let size = fs.file_size(ino).unwrap();
        let data = fs.read(ino, 0, size as usize).unwrap();
        for (i, page) in data.chunks(4096).enumerate() {
            let first = page[0];
            assert!(
                page.iter().all(|&x| x == first),
                "{context}: {name} page {i} torn"
            );
        }
    }

    // FACT exactness: zero UC residue, RFC == live reference census.
    let counts = fs.nova().block_reference_counts();
    fs.fact().for_each_occupied(|idx, e| {
        let (rfc, uc) = fs.fact().counters(idx);
        assert_eq!(uc, 0, "{context}: UC residue at {idx}");
        let expected = counts.get(&e.block).copied().unwrap_or(0);
        assert_eq!(rfc, expected, "{context}: RFC mismatch at {idx}");
    });

    // Scrub fixpoint and a clean fsck.
    assert_eq!(fs.scrub().unwrap(), 0, "{context}: scrub not a fixpoint");
    let report = fsck(fs.nova(), true).unwrap();
    assert!(
        report.errors.is_empty(),
        "{context}: fsck errors: {:?}",
        report.errors
    );

    // The recovered pool still dedups.
    let a = fs.create("post-crash-a").unwrap();
    let b = fs.create("post-crash-b").unwrap();
    let saved_before = fs.bytes_saved();
    fs.write(a, 0, &vec![9u8; 4096]).unwrap();
    fs.write(b, 0, &vec![9u8; 4096]).unwrap();
    fs.drain();
    assert!(
        fs.bytes_saved() >= saved_before + 4096,
        "{context}: post-crash writes not deduplicated"
    );
}

/// Deterministic: stage four inodes into four *different* transaction
/// states — completed, crashed-after-reserve (UC residue, flag still
/// Needed), crashed-with-target-InProcess, and still-queued — then crash
/// the whole machine and recover with the 4-worker pool.
#[test]
fn workers_crashed_in_different_stages_recover() {
    quiet_simulated_crashes();
    let dev = Arc::new(PmemDevice::new(DEV_SIZE));
    let fs = Denova::mkfs(
        dev.clone(),
        opts(4),
        DedupMode::Delayed {
            interval_ms: 600_000, // pool never fires; stages driven by hand
            batch: 1,
        },
    )
    .unwrap();
    let files: Vec<String> = (0..8).map(|i| format!("f{i}")).collect();
    let data = vec![0x5Cu8; 4096];
    for name in &files {
        let ino = fs.create(name).unwrap();
        fs.write(ino, 0, &data).unwrap();
    }
    assert_eq!(fs.dwq().len(), 8);
    // The 8 nodes landed on all 4 shards (sequential inodes, ino % 4).
    assert_eq!(fs.dwq().num_shards(), 4);

    // Stage 1+2 complete on two nodes.
    for _ in 0..2 {
        let node = fs.dwq().pop_batch(1)[0];
        denova::dedup_entry(fs.nova(), fs.fact(), &node).unwrap();
    }
    // One transaction dies right after reserving the UC. A crash point
    // takes the device down; powering it back on after each staged death
    // lets the next stage's flags and counters become durable as well.
    dev.crash_points().arm("denova::dedup::after_reserve", 0);
    let reserved = fs.dwq().pop_batch(1)[0];
    let r = catch_unwind(AssertUnwindSafe(|| {
        denova::dedup_entry(fs.nova(), fs.fact(), &reserved)
    }));
    assert!(r.is_err(), "after_reserve crash did not fire");
    dev.power_on();
    // Another dies with its target entry flagged InProcess.
    dev.crash_points()
        .arm("denova::dedup::after_target_in_process", 0);
    let in_process = fs.dwq().pop_batch(1)[0];
    let r = catch_unwind(AssertUnwindSafe(|| {
        denova::dedup_entry(fs.nova(), fs.fact(), &in_process)
    }));
    assert!(r.is_err(), "after_target_in_process crash did not fire");
    dev.power_on();
    // Four nodes remain queued, then the machine dies.
    assert_eq!(fs.dwq().len(), 4);

    let crashed = Arc::new(dev.crash_clone(CrashMode::Strict));
    // The crash image holds both interrupted stages: two reservations of
    // the shared block still pending as UC, one target entry still Needed
    // and one InProcess.
    let flag = |off| denova_repro::nova::entry::read_dedupe_flag(&crashed, off).unwrap();
    assert_eq!(flag(reserved.entry_off), DedupeFlag::Needed);
    assert_eq!(flag(in_process.entry_off), DedupeFlag::InProcess);
    let image_fact = Fact::mount(
        crashed.clone(),
        *fs.nova().layout(),
        Arc::new(DedupStats::new(&MetricsRegistry::new())),
    );
    let mut residue = 0;
    image_fact.for_each_occupied(|idx, _| residue += image_fact.counters(idx).1);
    assert_eq!(residue, 2, "UC residue in the crash image");
    drop(fs);
    verify_recovered(crashed, &files, "staged 4-shard crash");
}

/// Chaotic: a live 4-worker pool chews through a duplicate backlog while
/// the foreground keeps writing, and the machine dies when one worker
/// reaches the armed point inside its transaction; the other workers die
/// wherever their own transactions were. One run per armed stage: once a
/// crash point fires the device persists nothing until the next mount, so
/// a second point armed in the same run would add no durable state.
#[test]
fn live_pool_with_mid_transaction_deaths_recovers() {
    quiet_simulated_crashes();
    for point in [
        "denova::dedup::after_reserve",
        "denova::dedup::after_tail_commit",
        "denova::dedup::mid_commit_counts",
        "denova::dedup::after_target_in_process",
    ] {
        let dev = Arc::new(PmemDevice::new(DEV_SIZE));
        dev.crash_points().arm(point, 0);
        let fs = Denova::mkfs(dev.clone(), opts(4), DedupMode::Immediate).unwrap();
        assert_eq!(fs.dedup_workers(), 4);
        let files: Vec<String> = (0..40).map(|i| format!("f{i}")).collect();
        for (i, name) in files.iter().enumerate() {
            let ino = fs.create(name).unwrap();
            // Three duplicate groups, uniform pages.
            fs.write(ino, 0, &vec![(i % 3) as u8 + 1; 4096]).unwrap();
        }
        // Let the workers run into the armed point mid-backlog.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while dev.crash_points().hits(point) == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert!(
            dev.crash_points().hits(point) > 0,
            "no worker reached {point}"
        );
        std::thread::sleep(std::time::Duration::from_millis(50));

        let crashed = Arc::new(dev.crash_clone(CrashMode::Strict));
        drop(fs); // joins the pool; dead workers' simulated crashes are swallowed
        verify_recovered(crashed, &files, &format!("live 4-worker crash at {point}"));
    }
}
