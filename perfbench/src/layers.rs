//! Per-layer metrics of a traced run.
//!
//! Each number either times a layer's public function from outside or is a
//! change in the telemetry registry operators already read through
//! `stats`, taken over the run's measured phases.

use crate::stack::{delta, pct, ratio};
use crate::Outcome;
use denova::Denova;
use denova_fingerprint::{is_zero_page, Fingerprint};
use denova_pmem::PmemDevice;
use denova_telemetry::{HistogramSnapshot, TelemetrySnapshot};
use std::hint::black_box;
use std::time::Instant;

/// Histogram `name` recorded between `before` and `after`.
pub fn hist_delta(
    after: &TelemetrySnapshot,
    before: &TelemetrySnapshot,
    name: &str,
) -> HistogramSnapshot {
    let empty = HistogramSnapshot {
        counts: Vec::new(),
        count: 0,
        sum: 0,
        min: u64::MAX,
        max: 0,
    };
    let a = after.histogram(name).unwrap_or(&empty);
    let b = before.histogram(name).unwrap_or(&empty);
    let counts: Vec<u64> = a
        .counts
        .iter()
        .enumerate()
        .map(|(i, &c)| c.saturating_sub(b.counts.get(i).copied().unwrap_or(0)))
        .collect();
    HistogramSnapshot {
        count: counts.iter().sum(),
        counts,
        sum: a.sum.saturating_sub(b.sum),
        min: 0,
        max: a.max,
    }
}

/// Median ns of `rounds` calls of `f`, each timing a batch of `batch`.
fn median_ns(rounds: usize, batch: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut per = Vec::with_capacity(rounds);
    for r in 0..rounds {
        let t0 = Instant::now();
        for i in 0..batch {
            f(r * batch + i);
        }
        per.push(t0.elapsed().as_nanos() as f64 / batch as f64);
    }
    crate::stack::median_f64(&mut per)
}

/// `fingerprint.sha1_ns` and `fingerprint.zero_scan_ns`: one 4 KiB
/// SHA-1, and one full scan of an all-zero 4 KiB page.
pub fn fingerprint(out: &mut Outcome) {
    let mut page = vec![0u8; 4096];
    page[..8].copy_from_slice(&0x5EED_u64.to_le_bytes());
    let zero = vec![0u8; 4096];
    let sha = median_ns(9, 2000, |_| {
        black_box(Fingerprint::of(black_box(&page)));
    });
    let scan = median_ns(9, 20_000, |_| {
        black_box(is_zero_page(black_box(&zero)));
    });
    out.metric("fingerprint.sha1_ns", sha, "ns");
    out.metric("fingerprint.zero_scan_ns", scan, "ns");
}

/// A page that no workload writes: its fingerprint misses the FACT.
fn foreign_page(i: usize) -> Vec<u8> {
    let mut p = vec![0u8; 4096];
    p[..8].copy_from_slice(&(i as u64).to_le_bytes());
    p[8..16].copy_from_slice(&0xBE7C_4A11_0000_0000u64.to_le_bytes());
    p
}

/// `fact.lookup_hit_ns` / `fact.lookup_miss_ns`: mean `Fact::lookup` time
/// for fingerprints the FACT holds (`present`) and for foreign ones.
pub fn fact_lookups(out: &mut Outcome, fs: &Denova, present: &[Fingerprint]) {
    let fact = fs.fact();
    let misses: Vec<Fingerprint> = (0..present.len().max(1))
        .map(|i| Fingerprint::of(&foreign_page(i)))
        .collect();
    let mut found = 0usize;
    let hit = median_ns(5, present.len().max(1) / 5 + 1, |i| {
        if fact.lookup(&present[i % present.len()]).is_some() {
            found += 1;
        }
    });
    let miss = median_ns(5, misses.len() / 5 + 1, |i| {
        black_box(fact.lookup(&misses[i % misses.len()]));
    });
    if found == 0 && !present.is_empty() {
        out.problems
            .push("FACT lookup found none of the written pages".to_string());
    }
    out.metric("fact.lookup_hit_ns", hit, "ns");
    out.metric("fact.lookup_miss_ns", miss, "ns");
}

/// `fact.insert_us`: median `Fact::reserve_or_insert` of fresh
/// fingerprints. Run it last on a recovered copy that is then discarded:
/// the inserted records point at blocks no file owns.
pub fn fact_inserts(out: &mut Outcome, fs: &Denova, n: usize) {
    fs.drain();
    let fact = fs.fact();
    let top = fs.nova().layout().total_blocks - 1;
    let mut times: Vec<u64> = Vec::with_capacity(n);
    for i in 0..n {
        let fp = Fingerprint::of(&foreign_page(1 << 40 | i));
        let t0 = Instant::now();
        let r = fact.reserve_or_insert(&fp, top - i as u64);
        times.push(t0.elapsed().as_nanos() as u64);
        if let Err(e) = r {
            out.problems.push(format!("FACT insert failed: {e}"));
            break;
        }
    }
    out.metric("fact.insert_us", pct(&mut times, 0.5) as f64 / 1e3, "us");
}

/// Counters of the device under one phase: everything the pmem, nova,
/// dedup, FACT and extent layers record.
pub struct Phase {
    before: TelemetrySnapshot,
}

impl Phase {
    /// Start a phase now.
    pub fn start(dev: &PmemDevice) -> Phase {
        Phase {
            before: dev.metrics().snapshot(),
        }
    }

    /// Counters and histograms recorded since the phase began.
    pub fn since(&self, dev: &PmemDevice) -> PhaseDelta {
        let after = dev.metrics().snapshot();
        PhaseDelta {
            before: self.before.clone(),
            after,
        }
    }
}

/// A closed phase.
pub struct PhaseDelta {
    before: TelemetrySnapshot,
    after: TelemetrySnapshot,
}

impl PhaseDelta {
    /// Change of counter `name`.
    pub fn c(&self, name: &str) -> f64 {
        delta(&self.after, &self.before, name) as f64
    }

    /// Histogram `name` over the phase.
    pub fn h(&self, name: &str) -> HistogramSnapshot {
        hist_delta(&self.after, &self.before, name)
    }
}

/// pmem metrics of a write phase: fences and flushed lines per user write
/// and page, injected device time per write (all threads).
pub fn pmem_writes(out: &mut Outcome, d: &PhaseDelta, writes: u64, pages: u64) {
    let w = writes as f64;
    out.metric(
        "pmem.fences_per_write",
        ratio(d.c("pmem.fences"), w),
        "count",
    );
    out.metric(
        "pmem.flush_lines_per_page",
        ratio(d.c("pmem.flushes"), pages as f64),
        "count",
    );
    out.metric(
        "pmem.injected_us_per_write",
        ratio(d.c("pmem.injected_ns"), w) / 1e3,
        "us",
    );
}

/// Read-path metrics of a read phase.
pub fn reads(out: &mut Outcome, d: &PhaseDelta, read_calls: u64) {
    let nova_reads = d.c("nova.reads");
    out.metric(
        "pmem.reads_per_read",
        ratio(d.c("pmem.reads"), read_calls as f64),
        "count",
    );
    out.metric(
        "nova.read.optimistic_ratio",
        ratio(d.c("nova.read.optimistic_hits"), nova_reads),
        "ratio",
    );
    out.metric(
        "nova.read.seq_retries_per_read",
        ratio(d.c("nova.read.seq_retries"), nova_reads),
        "count",
    );
}

/// Dedup-pipeline metrics over the whole measured run. `d` must end after
/// the live stack was unmounted, so the daemon's span buffers are flushed.
pub fn dedup(out: &mut Outcome, d: &PhaseDelta, fs_fact_entries: u64) {
    let linger = d.h("dwq.linger_ns");
    out.metric(
        "dwq.linger_us.p50",
        linger.percentile(0.5) as f64 / 1e3,
        "us",
    );
    out.metric(
        "dwq.linger_us.p99",
        linger.percentile(0.99) as f64 / 1e3,
        "us",
    );
    let busy_s = d.h("denova.daemon.pass").sum as f64 / 1e9;
    let scanned = d.c("denova.pages_scanned");
    out.metric("daemon.busy_s", busy_s, "s");
    out.metric("dedup.pages_per_busy_s", ratio(scanned, busy_s), "1/s");
    out.metric(
        "dedup.wasted_ratio",
        ratio(
            d.c("denova.refingerprinted_pages") + d.c("denova.pages_skipped_stale"),
            scanned,
        ),
        "ratio",
    );
    out.metric("fact.entries", fs_fact_entries as f64, "count");
    out.metric(
        "fact.pm_reads_per_lookup",
        ratio(d.c("fact.lookup_pm_reads"), d.c("fact.lookups")),
        "count",
    );
    out.metric(
        "extent.run_page_share",
        ratio(
            d.c("denova.extent.run_pages"),
            d.c("denova.duplicate_pages"),
        ),
        "ratio",
    );
    out.metric(
        "extent.zero_holes",
        d.c("denova.extent.zero_holes"),
        "count",
    );
}

/// Service-layer metrics from the registry, plus the client-side p50s they
/// are subtracted from to get the wire + reactor + queue share.
pub fn svc(out: &mut Outcome, d: &PhaseDelta, client_p50_us: f64, writes: u64) {
    let req = d.h("svc.request.ns");
    let server_p50 = req.percentile(0.5) as f64 / 1e3;
    out.metric("svc.server_us.p50", server_p50, "us");
    out.metric("svc.server_us.p99", req.percentile(0.99) as f64 / 1e3, "us");
    out.metric(
        "svc.op.read_us.p50",
        d.h("svc.op.read.ns").percentile(0.5) as f64 / 1e3,
        "us",
    );
    out.metric(
        "svc.op.write_us.p50",
        d.h("svc.op.write.ns").percentile(0.5) as f64 / 1e3,
        "us",
    );
    out.metric("svc.wire_us.p50", client_p50_us - server_p50, "us");
    out.metric(
        "svc.zero_copy_ratio",
        ratio(d.c("svc.zero_copy_writes"), writes as f64),
        "ratio",
    );
    out.metric(
        "svc.backpressure_waits",
        d.c("svc.backpressure_waits"),
        "count",
    );
}

/// Zeros for the service metrics on workloads that do not use the service.
pub fn svc_unused(out: &mut Outcome) {
    for name in [
        "svc.server_us.p50",
        "svc.server_us.p99",
        "svc.op.read_us.p50",
        "svc.op.write_us.p50",
        "svc.wire_us.p50",
        "svc.zero_copy_ratio",
        "svc.backpressure_waits",
        "reactor.threads",
    ] {
        let unit = if name.ends_with("_us.p50") || name.ends_with("_us.p99") {
            "us"
        } else if name.ends_with("ratio") {
            "ratio"
        } else {
            "count"
        };
        out.metric(name, 0.0, unit);
    }
}
