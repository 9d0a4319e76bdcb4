//! `ingest_small`: the paper's Fig. 8 small-file shape at a population
//! large enough for per-file costs that grow with it to show.
//!
//! One writer creates and writes 50,000 files of 4 KiB at 50% page
//! duplication, the daemon drains, every file is read back and checked,
//! and a Strict power-failure image taken right after the last
//! acknowledged write is recovery-mounted and checked file by file. A
//! traced run also takes an image at half the population, so the growth
//! of the mount from half to full population is measured in the run.
//!
//! The population is 50,000, not more. At 100,000 files the cost of a
//! create (which clones an inode map spanning the population) follows the
//! neighbours' load on a shared host: in alternating runs on one 2-vCPU
//! host, the put p50 ranged from 45 to 67 us at 100,000 files (two rounds
//! and one mount per run) and from 37 to 42 us at 50,000, and the recovery
//! mount from 7.0 to 9.2 s against 2.6 to 2.9 s. Create still costs three
//! to six times more in the last tenth of the population than in the first
//! (`nova.create_growth`).

use crate::fixed::{self, Round};
use crate::layers::Phase;
use crate::stack;
use crate::trace::{Recorder, Trace};
use crate::{Args, Outcome};
use denova::Denova;
use denova_fingerprint::Fingerprint;
use denova_workload::DataGenerator;
use std::sync::Arc;
use std::time::Instant;

const FILES: usize = 50_000;
const FILE_BYTES: usize = 4096;
const DEVICE_BYTES: usize = 1 << 30;
/// Rounds per run; the figures pool all of them.
const ROUNDS: usize = 5;

fn name(i: usize) -> String {
    format!("f{i:06}")
}

/// Content of every file, regenerated from the seed on demand instead of
/// held in memory.
fn contents(seed: u64) -> impl Iterator<Item = Vec<u8>> {
    let mut gen = DataGenerator::new(seed, 0.5);
    (0..FILES).map(move |_| gen.next_file(FILE_BYTES))
}

/// One round: format, write every file, drain, read every file back.
fn round(seed: u64, last: bool, rec: &mut Recorder, out: &mut Outcome) -> Round {
    let t0 = Instant::now();
    let st = stack::mkfs(DEVICE_BYTES, (FILES as u64 + 64).next_power_of_two());
    let setup_s = t0.elapsed().as_secs_f64();
    st.dev.metrics().set_enabled(rec.traced());
    let all = Phase::start(&st.dev);
    let fs = st.fs.clone();

    // Write phase: one create + one 4 KiB write per file.
    let phase = rec.begin("phase.write");
    let writes = Phase::start(&st.dev);
    let mut put_ns = Vec::with_capacity(FILES);
    let mut create_ns = Vec::with_capacity(FILES);
    let mut write_ns = Vec::with_capacity(FILES);
    let mut inos = vec![0u64; FILES];
    let mut half_image = None;
    let t0 = Instant::now();
    for (i, data) in contents(seed).enumerate() {
        if last && rec.traced() && i == FILES / 2 {
            let ((image, _), _) = rec.call("phase.crash_image_half", || stack::crash_image(&st));
            half_image = Some(image);
        }
        let op = rec.begin("op.put");
        out.attempted += 1;
        let (created, ns) = rec.call("denova.create", || fs.create(&name(i)));
        create_ns.push(ns);
        match created {
            Ok(ino) => {
                inos[i] = ino;
                let (w, ns) = rec.call("denova.write", || fs.write(ino, 0, &data));
                write_ns.push(ns);
                if let Err(e) = w {
                    out.fail(format!("write {}: {e}", name(i)));
                }
            }
            Err(e) => out.fail(format!("create {}: {e}", name(i))),
        }
        put_ns.push(rec.end(op));
    }
    let write_s = t0.elapsed().as_secs_f64();
    let backlog = fs.dwq().len();
    let write_delta = writes.since(&st.dev);
    rec.end(phase);

    let (image, quiesce_s) = if last {
        let ((image, waited), _) = rec.call("phase.crash_image", || stack::crash_image(&st));
        (Some(image), waited)
    } else {
        (None, 0.0)
    };
    let (_, drain_ns) = rec.call("phase.drain", || fs.drain());

    // Read phase: every file, checked against the regenerated content.
    let phase = rec.begin("phase.read");
    let reads = Phase::start(&st.dev);
    let mut read_ns = Vec::with_capacity(FILES);
    let mut sample = Vec::new();
    let t0 = Instant::now();
    for (i, want) in contents(seed).enumerate() {
        let op = rec.begin("op.get");
        out.attempted += 1;
        let (got, _) = rec.call("denova.read", || fs.read(inos[i], 0, FILE_BYTES));
        read_ns.push(rec.end(op));
        match got {
            Ok(got) if got == want => {}
            Ok(_) => out.fail(format!("read {}: wrong bytes", name(i))),
            Err(e) => out.fail(format!("read {}: {e}", name(i))),
        }
        if rec.traced() && i % 50 == 0 {
            sample.push(Fingerprint::of(&want));
        }
    }
    let read_s = t0.elapsed().as_secs_f64();
    let read_delta = reads.since(&st.dev);
    rec.end(phase);
    Round {
        st,
        setup_s,
        image,
        half_image,
        op_ns: put_ns,
        create_ns,
        write_ns,
        read_ns,
        write_s,
        read_s,
        drain_s: quiesce_s + drain_ns as f64 / 1e9,
        backlog,
        write_delta,
        read_delta,
        all,
        sample,
    }
}

pub fn run(args: &Args, trace: &Arc<Trace>) -> Outcome {
    let mut out = Outcome::default();
    out.provenance.push(("files", FILES.to_string()));
    out.provenance.push(("writer_threads", "1".to_string()));
    let seed = args.seed;
    fixed::run(
        trace,
        out,
        fixed::Workload {
            span: "run.ingest_small",
            logical_pages: FILES as u64,
            rounds: args.reps(ROUNDS),
            recoveries: args.reps(stack::RECOVERIES),
            round: |last, rec: &mut Recorder, out: &mut Outcome| round(seed, last, rec, out),
            verify_recovered: |rfs: &Denova, out: &mut Outcome| {
                for (i, want) in contents(seed).enumerate() {
                    out.attempted += 1;
                    match rfs
                        .open(&name(i))
                        .and_then(|ino| rfs.read(ino, 0, FILE_BYTES))
                    {
                        Ok(got) if got == want => {}
                        Ok(_) => out.fail(format!("recovered {}: wrong bytes", name(i))),
                        Err(e) => out.fail(format!("recovered {}: {e}", name(i))),
                    }
                }
            },
        },
    )
}
