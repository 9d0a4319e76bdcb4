//! The shared frame of the fixed-work workloads (`ingest_small`,
//! `image_backup`): rounds of mkfs plus measured phases, then the audit,
//! recovery from the last round's crash image, and the metrics.
//!
//! End-to-end figures pool the rounds: latency p50s are taken over every
//! op of every round, and rates divide the work of all rounds by their
//! summed phase times. A round is one pass over the whole population, so
//! its ops are not interchangeable (on `ingest_small` a create costs more
//! the more files exist); pooling weighs every population level the same
//! in every run, where a median over slices of one round would pick out
//! the few slices near the middle of the population.

use crate::layers::{self, Phase, PhaseDelta};
use crate::stack::{self, pct, Stack};
use crate::trace::{Recorder, Trace};
use crate::Outcome;
use denova::Denova;
use denova_fingerprint::Fingerprint;
use denova_pmem::PmemDevice;
use std::sync::Arc;

/// What one round (format, write every file, drain, read every file
/// back) measured.
pub struct Round {
    pub st: Stack,
    pub setup_s: f64,
    /// Strict crash image taken after the last write (last round only).
    pub image: Option<Arc<PmemDevice>>,
    /// Strict crash image taken at half the population (traced
    /// `ingest_small` only), for `nova.mount_growth`.
    pub half_image: Option<Arc<PmemDevice>>,
    /// One user write op each.
    pub op_ns: Vec<u64>,
    pub create_ns: Vec<u64>,
    /// One `Denova::write` each.
    pub write_ns: Vec<u64>,
    pub read_ns: Vec<u64>,
    /// Write and read phase lengths in seconds.
    pub write_s: f64,
    pub read_s: f64,
    pub drain_s: f64,
    pub backlog: usize,
    pub write_delta: PhaseDelta,
    pub read_delta: PhaseDelta,
    /// Registry state right after mkfs, for whole-run deltas.
    pub all: Phase,
    /// Fingerprints of written pages, for FACT lookups (traced runs).
    pub sample: Vec<Fingerprint>,
}

/// How a fixed-work workload plugs into [`run`].
pub struct Workload<R, V> {
    pub span: &'static str,
    /// Logical 4 KiB pages the workload writes.
    pub logical_pages: u64,
    /// Rounds per run (1 in a traced run).
    pub rounds: usize,
    /// Recovery mounts per run (1 in a traced run).
    pub recoveries: usize,
    /// `round(last, rec, out)`: one round; `last` takes the crash image.
    pub round: R,
    /// Check every file on the recovered stack.
    pub verify_recovered: V,
}

/// Run the rounds, then audit, unmount, recover and report.
pub fn run<R, V>(trace: &Arc<Trace>, mut out: Outcome, w: Workload<R, V>) -> Outcome
where
    R: Fn(bool, &mut Recorder, &mut Outcome) -> Round,
    V: Fn(&Denova, &mut Outcome),
{
    let traced = trace.on();
    let mut rec = trace.recorder(0);
    let whole = rec.begin(w.span);
    let mut setup = Vec::with_capacity(w.rounds);
    let (mut write_s, mut drain_s, mut read_s) = (0.0, 0.0, 0.0);
    let mut all_ops = Vec::new();
    let mut all_reads = Vec::new();
    let mut kept = None;
    for r in 0..w.rounds {
        drop(kept.take());
        let rd = (w.round)(r + 1 == w.rounds, &mut rec, &mut out);
        eprintln!(
            "round {r}: setup {:.3} s, write {:.3} s (p50 {:.1} us), drain {:.3} s, read {:.3} s",
            rd.setup_s,
            rd.write_s,
            pct(&mut rd.op_ns.clone(), 0.5) as f64 / 1e3,
            rd.drain_s,
            rd.read_s
        );
        setup.push(rd.setup_s);
        write_s += rd.write_s;
        drain_s += rd.drain_s;
        read_s += rd.read_s;
        all_ops.extend_from_slice(&rd.op_ns);
        all_reads.extend_from_slice(&rd.read_ns);
        kept = Some(rd);
    }
    let mut rd = kept.expect("at least one round");
    let rss = stack::rss_mb();
    let space = stack::space_amp(&rd.st.fs, w.logical_pages);

    let (problems, _) = rec.call("phase.audit", || stack::audit(&rd.st.fs));
    out.problems.extend(problems);
    let fact_entries = rd.st.fs.fact().occupied_count();
    if traced {
        layers::fact_lookups(&mut out, &rd.st.fs, &rd.sample);
    }
    let Stack { dev, fs, opts } = rd.st;
    rec.call("phase.unmount", || stack::unmount(fs));
    let all_delta = rd.all.since(&dev);
    drop(dev);

    // Recovery from the image taken after the last acknowledged write.
    let image = rd.image.take().expect("last round keeps its crash image");
    let nova_mount_s = if traced {
        rec.call("phase.nova_mount", || stack::nova_mount_copy(&image, &opts))
            .0
    } else {
        0.0
    };
    let mount_growth = match rd.half_image.take() {
        Some(half) => {
            let (half_s, _) = rec.call("phase.nova_mount_half", || {
                stack::nova_mount_copy(&half, &opts)
            });
            stack::ratio(nova_mount_s, half_s)
        }
        None => 0.0,
    };
    let (rfs, recover_s) = stack::recover_median(image, &opts, w.recoveries, &mut rec);
    rec.call("phase.verify_recovered", || {
        (w.verify_recovered)(&rfs, &mut out)
    });
    let (problems, _) = rec.call("phase.audit_recovered", || stack::audit(&rfs));
    out.problems
        .extend(problems.into_iter().map(|p| format!("recovered: {p}")));
    rec.end(whole);

    let rounds = w.rounds as f64;
    let mib = rounds * (w.logical_pages * 4096) as f64 / (1 << 20) as f64;
    let ops = (all_ops.len() + all_reads.len()) as f64;
    let us = |v: &mut Vec<u64>, q| pct(v, q) as f64 / 1e3;
    out.metric("setup_s", stack::median_f64(&mut setup), "s");
    out.metric("write_p50_us", us(&mut all_ops, 0.5), "us");
    out.metric("write_p99_us", us(&mut all_ops, 0.99), "us");
    out.metric("read_p50_us", us(&mut all_reads, 0.5), "us");
    out.metric("read_p99_us", us(&mut all_reads, 0.99), "us");
    out.metric("ingest_mbs", mib / (write_s + drain_s), "MiB/s");
    out.metric("ops_per_s", ops / (write_s + read_s), "1/s");
    out.metric("recover_s", recover_s, "s");
    out.metric("space_amp", space, "ratio");
    out.metric("rss_mb", rss, "MiB");

    if traced {
        // A traced run has one round: `rd` holds all of its samples.
        let (writes, reads) = (rd.op_ns.len() as u64, rd.read_ns.len() as u64);
        layers::pmem_writes(&mut out, &rd.write_delta, writes, w.logical_pages);
        layers::reads(&mut out, &rd.read_delta, reads);
        let growth = stack::growth(&rd.create_ns);
        out.metric("nova.create_us.p50", us(&mut rd.create_ns, 0.5), "us");
        out.metric("nova.create_us.p99", us(&mut rd.create_ns, 0.99), "us");
        out.metric("nova.create_growth", growth, "ratio");
        out.metric("nova.write_us.p50", us(&mut rd.write_ns, 0.5), "us");
        out.metric("nova.write_us.p99", us(&mut rd.write_ns, 0.99), "us");
        out.metric("nova.read_us.p50", us(&mut rd.read_ns, 0.5), "us");
        out.metric("nova.mount_s", nova_mount_s, "s");
        out.metric("nova.mount_growth", mount_growth, "ratio");
        out.metric("denova.recover_s", recover_s - nova_mount_s, "s");
        out.metric("dwq.backlog_at_last_write", rd.backlog as f64, "count");
        out.metric("daemon.drain_s", rd.drain_s, "s");
        layers::dedup(&mut out, &all_delta, fact_entries);
        layers::fingerprint(&mut out);
        layers::fact_inserts(&mut out, &rfs, 2000);
        layers::svc_unused(&mut out);
    }
    out
}
