//! Concurrency properties of the lock-free read path.
//!
//! Two families of guarantees, exercised with real threads:
//!
//! * **Never-torn reads** — `Nova::read` snapshots the extent index
//!   through a seqlock: a reader that races a CoW writer either validates
//!   its sequence (the index did not change under it, so the bytes belong
//!   to exactly one committed write) or discards the attempt and falls
//!   back to the locked path. A whole-file read must therefore never mix
//!   bytes from two different writer rounds, no matter how the threads
//!   interleave.
//! * **Epoch reclamation without use-after-free** — every FACT chain
//!   mutation republishes that stripe's RCU lookup table and defers the
//!   old table's drop through `denova_sync`. Concurrent lookups pin the
//!   epoch while they hold a reference into the published table, so churn
//!   must retire tables (observable via `freed_objects()`) while every
//!   in-flight reader keeps dereferencing safely.

use denova_repro::prelude::*;
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

fn mkfs(dev_bytes: usize, mode: DedupMode) -> Arc<Denova> {
    let dev = Arc::new(PmemDevice::new(dev_bytes));
    Arc::new(
        Denova::mkfs(
            dev,
            NovaOptions {
                num_inodes: 64,
                ..Default::default()
            },
            mode,
        )
        .unwrap(),
    )
}

/// Check that a whole-file snapshot is from exactly one writer round:
/// non-empty, the advertised length, and byte-uniform.
fn torn(buf: &[u8], want_len: usize) -> Option<String> {
    if buf.len() != want_len {
        return Some(format!("short read: {} of {want_len} bytes", buf.len()));
    }
    let stamp = buf[0];
    buf.iter()
        .position(|&b| b != stamp)
        .map(|at| format!("torn read: byte {at} is {} but byte 0 is {stamp}", buf[at]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Readers race a writer that overwrites the whole file with a fresh
    // round stamp each iteration. Every validated optimistic snapshot and
    // every locked fallback read must return bytes from exactly one round.
    #[test]
    fn concurrent_reads_never_torn(
        pages in 1usize..6,
        rounds in 8u32..24,
        readers in 1usize..4,
    ) {
        let fs = mkfs(24 << 20, DedupMode::Baseline);
        let ino = fs.create("t").unwrap();
        let len = pages * 4096;
        fs.write(ino, 0, &vec![1u8; len]).unwrap();

        let stop = Arc::new(AtomicBool::new(false));
        let failures: Arc<std::sync::Mutex<Vec<String>>> =
            Arc::new(std::sync::Mutex::new(Vec::new()));
        let reads_done = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..readers)
            .map(|_| {
                let fs = fs.clone();
                let stop = stop.clone();
                let failures = failures.clone();
                let reads_done = reads_done.clone();
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let buf = fs.read(ino, 0, len).unwrap();
                        if let Some(why) = torn(&buf, len) {
                            failures.lock().unwrap().push(why);
                            return;
                        }
                        reads_done.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();

        // Whole-file CoW overwrites, one round stamp per iteration; each
        // commit atomically swings the extent index to the new blocks and
        // frees the old ones, which is exactly the window a torn read
        // would need. Keep stamping until every reader has raced at least
        // `rounds` reads against us (a single-core host may not schedule
        // the readers until the writer yields), with a hard cap so a stuck
        // reader cannot hang the test.
        let mut r = 0u32;
        while reads_done.load(Ordering::Relaxed) < (rounds * readers as u32) as u64 {
            let stamp = (r % 250 + 1) as u8;
            fs.write(ino, 0, &vec![stamp; len]).unwrap();
            r += 1;
            if r >= 20_000 {
                break;
            }
            if r.is_multiple_of(8) {
                std::thread::yield_now();
            }
        }
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }

        let fails = failures.lock().unwrap();
        prop_assert!(fails.is_empty(), "{}", fails.join("; "));
        prop_assert!(reads_done.load(Ordering::Relaxed) > 0, "readers never ran");
        // The readers really did exercise the optimistic path. Every case
        // mkfs's a fresh device with its own counters, so each case must
        // record at least one optimistic hit of its own.
        let stats = fs.nova().stats();
        prop_assert!(
            denova_nova::NovaStats::get(&stats.read_optimistic_hits) > 0,
            "no optimistic reads recorded"
        );
    }
}

// FACT stripe-table churn: inserts and removes republish the RCU table of
// one stripe over and over while reader threads continuously look up a
// stable resident fingerprint (pinning the epoch and dereferencing the
// published tables) and a rotating set of absent ones. The retired tables
// must actually be reclaimed — `freed_objects()` grows — and no reader may
// observe freed memory (a UAF here crashes or returns garbage entries,
// both of which the asserts catch).
#[test]
fn stripe_table_churn_reclaims_without_uaf() {
    let fs = mkfs(32 << 20, DedupMode::Immediate);
    let fact = fs.fact().clone();
    let freed0 = denova_sync::freed_objects();

    // One fingerprint that stays resident for the whole test: readers
    // verify every lookup returns exactly this entry's index.
    let anchor = fact.fingerprint(b"anchor block");
    let (anchor_idx, _) = fact.reserve_or_insert(&anchor, 7).unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let lookups = Arc::new(AtomicU64::new(0));
    let bad = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..3)
        .map(|r| {
            let fact = fact.clone();
            let stop = stop.clone();
            let lookups = lookups.clone();
            let bad = bad.clone();
            std::thread::spawn(move || {
                let mut i = r as u64;
                while !stop.load(Ordering::Relaxed) {
                    match fact.lookup(&anchor) {
                        Some((idx, ent)) if idx == anchor_idx && ent.fp == anchor => {}
                        _ => {
                            bad.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    let absent = fact.fingerprint(&i.to_le_bytes());
                    if fact.lookup(&absent).is_some() {
                        bad.fetch_add(1, Ordering::Relaxed);
                    }
                    lookups.fetch_add(2, Ordering::Relaxed);
                    i += 3;
                }
            })
        })
        .collect();

    // Churn: every insert and every remove republishes its stripe's table,
    // deferring the old HashMap into the epoch garbage lists. At least 40
    // rounds, then keep churning (bounded) until the readers have raced a
    // few thousand lookups against the republish storm — a single-core
    // host may not schedule them until the churn thread yields.
    let mut round = 0u64;
    while round < 40 || (lookups.load(Ordering::Relaxed) < 2_000 && round < 2_000) {
        let idxs: Vec<u64> = (0..16)
            .map(|k| {
                let fp = fact.fingerprint(format!("churn {round} {k}").as_bytes());
                fact.reserve_or_insert(&fp, 100 + k).unwrap().0
            })
            .collect();
        for idx in idxs {
            fact.remove(idx).unwrap();
        }
        denova_sync::try_collect();
        round += 1;
        std::thread::yield_now();
    }
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }

    // Nudge the collector past the last grace period now that no reader
    // holds a pin.
    for _ in 0..8 {
        denova_sync::try_collect();
    }
    assert_eq!(
        bad.load(Ordering::Relaxed),
        0,
        "reader observed a wrong entry through a published stripe table"
    );
    assert!(lookups.load(Ordering::Relaxed) > 0, "readers never ran");
    let freed = denova_sync::freed_objects() - freed0;
    assert!(
        freed > 0,
        "churn never reclaimed a retired stripe table (freed_objects stuck)"
    );
    // The anchor survived all the churn around it.
    assert!(fact.lookup(&anchor).is_some());
}
