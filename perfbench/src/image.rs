//! `image_backup`: large sequential writes of VM-image clones and backup
//! generations, which dedup as long runs and leave zero pages as holes.
//!
//! VM-image clones (`VmImageSet`) alternate with backup generations
//! (`BackupGenerator`), 8 MiB each, written in 1 MiB calls. After the
//! daemon drains, every file is read back sequentially in 128 KiB calls and
//! checked against the regenerated content. A Strict power-failure image
//! taken after the last write is recovery-mounted and checked in full.

use crate::fixed::{self, Round};
use crate::layers::Phase;
use crate::stack;
use crate::trace::{Recorder, Trace};
use crate::{Args, Outcome};
use denova::Denova;
use denova_fingerprint::Fingerprint;
use denova_workload::{BackupGenerator, ImageSpec, VmImageSet};
use std::sync::Arc;
use std::time::Instant;

const FILES: usize = 80;
const FILE_BYTES: usize = 8 << 20;
const WRITE_CALL: usize = 1 << 20;
const READ_CALL: usize = 128 << 10;
const DEVICE_BYTES: usize = 1 << 30;
/// Rounds per run.
const ROUNDS: usize = 2;

fn name(k: usize) -> String {
    let kind = if k.is_multiple_of(2) { "vm" } else { "backup" };
    format!("{kind}{k:03}.img")
}

/// Every file's content in write order, regenerated from the seed.
fn contents(seed: u64) -> impl Iterator<Item = Vec<u8>> {
    let pages = FILE_BYTES / 4096;
    let mut vm = VmImageSet::new(ImageSpec::vm_image(pages).with_seed(seed.wrapping_mul(2) + 1));
    let mut backup =
        BackupGenerator::new(ImageSpec::backup(pages).with_seed(seed.wrapping_mul(2) + 2));
    (0..FILES).map(move |k| {
        if k.is_multiple_of(2) {
            vm.next_image()
        } else {
            backup.next_generation()
        }
    })
}

/// One round: format, write every file, drain, read every file back.
fn round(seed: u64, last: bool, rec: &mut Recorder, out: &mut Outcome) -> Round {
    let t0 = Instant::now();
    let st = stack::mkfs(DEVICE_BYTES, 256);
    let setup_s = t0.elapsed().as_secs_f64();
    st.dev.metrics().set_enabled(rec.traced());
    let all = Phase::start(&st.dev);
    let fs = st.fs.clone();

    // Write phase: create, then 1 MiB writes.
    let phase = rec.begin("phase.write");
    let writes = Phase::start(&st.dev);
    let mut create_ns = Vec::with_capacity(FILES);
    let mut write_ns = Vec::with_capacity(FILES * FILE_BYTES / WRITE_CALL);
    let mut inos = vec![0u64; FILES];
    let mut write_marks = Vec::with_capacity(stack::SLICES + 1);
    let t0 = Instant::now();
    for (k, data) in contents(seed).enumerate() {
        if k % (FILES / stack::SLICES) == 0 {
            write_marks.push(t0.elapsed().as_secs_f64());
        }
        let (created, ns) = rec.call("denova.create", || fs.create(&name(k)));
        create_ns.push(ns);
        let ino = match created {
            Ok(ino) => ino,
            Err(e) => {
                out.attempted += 1;
                out.fail(format!("create {}: {e}", name(k)));
                continue;
            }
        };
        inos[k] = ino;
        for (j, chunk) in data.chunks(WRITE_CALL).enumerate() {
            out.attempted += 1;
            let op = rec.begin("op.write_call");
            let (w, _) = rec.call("denova.write", || {
                fs.write(ino, (j * WRITE_CALL) as u64, chunk)
            });
            write_ns.push(rec.end(op));
            if let Err(e) = w {
                out.fail(format!("write {}@{}: {e}", name(k), j * WRITE_CALL));
            }
        }
    }
    write_marks.push(t0.elapsed().as_secs_f64());
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

    // Read phase: sequential 128 KiB reads of deduplicated data. The read
    // time is summed per file, so regenerating the expected content
    // between files is not part of it.
    let phase = rec.begin("phase.read");
    let reads = Phase::start(&st.dev);
    let mut read_ns = Vec::with_capacity(FILES * FILE_BYTES / READ_CALL);
    let mut sample = Vec::new();
    let mut read_s = 0.0;
    let mut read_marks = Vec::with_capacity(stack::SLICES + 1);
    for (k, want) in contents(seed).enumerate() {
        if k % (FILES / stack::SLICES) == 0 {
            read_marks.push(read_s);
        }
        let t0 = Instant::now();
        for (j, expect) in want.chunks(READ_CALL).enumerate() {
            out.attempted += 1;
            let off = j * READ_CALL;
            let op = rec.begin("op.read_call");
            let (got, _) = rec.call("denova.read", || fs.read(inos[k], off as u64, READ_CALL));
            read_ns.push(rec.end(op));
            match got {
                Ok(got) if got == expect => {}
                Ok(_) => out.fail(format!("read {}@{off}: wrong bytes", name(k))),
                Err(e) => out.fail(format!("read {}@{off}: {e}", name(k))),
            }
        }
        read_s += t0.elapsed().as_secs_f64();
        if rec.traced() && k % 4 == 0 {
            sample.extend(want.chunks(4096).step_by(16).map(Fingerprint::of));
        }
    }
    read_marks.push(read_s);
    let read_delta = reads.since(&st.dev);
    rec.end(phase);
    Round {
        st,
        setup_s,
        image,
        half_image: None,
        op_ns: write_ns.clone(),
        create_ns,
        write_ns,
        read_ns,
        write_s: stack::robust_span(&write_marks),
        read_s: stack::robust_span(&read_marks),
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
            span: "run.image_backup",
            logical_pages: (FILES * FILE_BYTES / 4096) as u64,
            rounds: args.reps(ROUNDS),
            recoveries: args.reps(stack::RECOVERIES),
            round: |last, rec: &mut Recorder, out: &mut Outcome| round(seed, last, rec, out),
            verify_recovered: |rfs: &Denova, out: &mut Outcome| {
                for (k, want) in contents(seed).enumerate() {
                    out.attempted += 1;
                    match rfs
                        .open(&name(k))
                        .and_then(|ino| rfs.read(ino, 0, FILE_BYTES))
                    {
                        Ok(got) if got == want => {}
                        Ok(_) => out.fail(format!("recovered {}: wrong bytes", name(k))),
                        Err(e) => out.fail(format!("recovered {}: {e}", name(k))),
                    }
                }
            },
        },
    )
}
