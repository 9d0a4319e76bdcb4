//! `serve_mixed`: the file service under a closed loop of reads and
//! overwrites of deduplicated data.
//!
//! Set-up preloads 2048 files of 64 KiB at 50% page duplication and drains
//! the daemon. Then two TCP clients, each owning a disjoint half of the
//! files, run a closed loop for the run's seconds: 80% 16 KiB reads, each
//! checked exactly against the client's model, and 20% aligned 4 KiB
//! overwrites with 50%-duplicate content. A Strict power-failure image
//! taken after the last acknowledged write is recovery-mounted and every
//! file checked against the final model.

use crate::layers::{self, Phase};
use crate::stack::{self, pct};
use crate::trace::Trace;
use crate::{Args, Outcome};
use denova_fingerprint::Fingerprint;
use denova_svc::{Client, Server, SvcConfig};
use denova_workload::DataGenerator;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

const FILES: usize = 2048;
const FILE_BYTES: usize = 64 << 10;
const READ_BYTES: usize = 16 << 10;
const WRITE_BYTES: usize = 4 << 10;
const READ_PERCENT: u64 = 80;
const DEVICE_BYTES: usize = 512 << 20;
/// Set-ups per run: fewer than elsewhere, each preloads 128 MiB.
const PRELOADS: usize = 3;

/// splitmix64: the clients' operation mix.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One file the workload owns: its inode and expected content.
struct File {
    name: String,
    ino: u64,
    data: Vec<u8>,
}

/// What one client thread measured: op latencies by time slice of the
/// loop.
#[derive(Default)]
struct ClientReport {
    read_ns: Vec<Vec<u64>>,
    write_ns: Vec<Vec<u64>>,
    attempted: u64,
    failures: Vec<String>,
    failed: u64,
}

fn preload(seed: u64, create_ns: &mut Vec<u64>) -> (stack::Stack, Vec<File>) {
    let st = stack::mkfs(DEVICE_BYTES, (FILES as u64 + 64).next_power_of_two());
    let mut gen = DataGenerator::new(seed, 0.5);
    create_ns.clear();
    let files = (0..FILES)
        .map(|i| {
            let name = format!("s{i:05}");
            let data = gen.next_file(FILE_BYTES);
            let t0 = Instant::now();
            let ino = st.fs.create(&name).expect("preload create");
            create_ns.push(t0.elapsed().as_nanos() as u64);
            st.fs.write(ino, 0, &data).expect("preload write");
            File { name, ino, data }
        })
        .collect();
    st.fs.drain();
    (st, files)
}

fn client_loop(
    addr: &str,
    files: &mut [File],
    seed: u64,
    (t0, slice): (Instant, Duration),
    rec: &mut crate::trace::Recorder,
) -> ClientReport {
    let mut r = ClientReport {
        read_ns: vec![Vec::new(); stack::SLICES],
        write_ns: vec![Vec::new(); stack::SLICES],
        ..ClientReport::default()
    };
    let slice_of = |t: Instant| ((t - t0).as_nanos() / slice.as_nanos()) as usize;
    let mut c = match Client::connect_tcp(addr) {
        Ok(c) => c,
        Err(e) => {
            r.attempted = 1;
            r.failed = 1;
            r.failures.push(format!("connect: {e}"));
            return r;
        }
    };
    let mut mix = Mix(seed);
    let mut gen = DataGenerator::new(seed, 0.5);
    let mut page = vec![0u8; WRITE_BYTES];
    while slice_of(Instant::now()) < stack::SLICES {
        let f = &mut files[mix.below(files.len())];
        r.attempted += 1;
        let op = rec.begin("op.mixed");
        if mix.next() % 100 < READ_PERCENT {
            let off = mix.below(FILE_BYTES / READ_BYTES) * READ_BYTES;
            let (got, _) = rec.call("svc.read_rpc", || {
                c.read_at(f.ino, off as u64, READ_BYTES as u64)
            });
            let ns = rec.end(op);
            r.read_ns[slice_of(Instant::now()).min(stack::SLICES - 1)].push(ns);
            match got {
                Ok(got) if got[..] == f.data[off..off + READ_BYTES] => {}
                Ok(_) => r.fail(format!("read {}@{off}: wrong bytes", f.name)),
                Err(e) => r.fail(format!("read {}@{off}: {e}", f.name)),
            }
        } else {
            let off = mix.below(FILE_BYTES / WRITE_BYTES) * WRITE_BYTES;
            gen.next_page(&mut page);
            let (w, _) = rec.call("svc.write_rpc", || c.write_at(f.ino, off as u64, &page));
            let ns = rec.end(op);
            r.write_ns[slice_of(Instant::now()).min(stack::SLICES - 1)].push(ns);
            match w {
                Ok(n) if n as usize == WRITE_BYTES => {
                    f.data[off..off + WRITE_BYTES].copy_from_slice(&page);
                }
                Ok(n) => r.fail(format!("write {}@{off}: short ({n})", f.name)),
                Err(e) => r.fail(format!("write {}@{off}: {e}", f.name)),
            }
        }
    }
    r
}

impl ClientReport {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 4 {
            self.failures.push(what);
        }
    }
}

/// Check every file of `files` against `fs` with local 16 KiB reads;
/// returns the read times.
fn verify_local(out: &mut Outcome, fs: &denova::Denova, files: &[File], what: &str) -> Vec<u64> {
    let mut ns = Vec::with_capacity(files.len() * FILE_BYTES / READ_BYTES);
    for f in files {
        for off in (0..FILE_BYTES).step_by(READ_BYTES) {
            out.attempted += 1;
            let t0 = Instant::now();
            let got = fs.read(f.ino, off as u64, READ_BYTES);
            ns.push(t0.elapsed().as_nanos() as u64);
            match got {
                Ok(got) if got[..] == f.data[off..off + READ_BYTES] => {}
                Ok(_) => out.fail(format!("{what} {}@{off}: wrong bytes", f.name)),
                Err(e) => out.fail(format!("{what} {}@{off}: {e}", f.name)),
            }
        }
    }
    ns
}

pub fn run(args: &Args, trace: &Arc<Trace>) -> Outcome {
    let mut out = Outcome::default();
    let clients = stack::nproc().min(2);
    let loops = stack::nproc();
    let shards = stack::nproc();
    for (k, v) in [
        ("files", FILES),
        ("client_threads", clients),
        ("svc_event_loops", loops),
        ("svc_shards", shards),
    ] {
        out.provenance.push((k, v.to_string()));
    }
    let mut create_ns = Vec::new();
    let ((st, mut files), setup_s) =
        stack::repeated_setup(args.reps(PRELOADS), || preload(args.seed, &mut create_ns));
    out.metric("setup_s", setup_s, "s");
    let traced = trace.on();
    st.dev.metrics().set_enabled(traced);
    let mut rec = trace.recorder(0);
    let whole = rec.begin("run.serve_mixed");
    let all = Phase::start(&st.dev);

    let server = Arc::new(Server::new(
        st.fs.clone(),
        SvcConfig {
            shards,
            event_loops: loops,
            ..SvcConfig::default()
        },
    ));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback listener");
    let addr = listener.local_addr().expect("listener address").to_string();
    let serving = {
        let server = server.clone();
        std::thread::spawn(move || server.serve(listener))
    };

    // The closed loop. Clients own disjoint halves of the files, chosen so
    // that each half spans every inode shard: a client pinned to one shard
    // would tie the run's speed to how the scheduler happens to pair its
    // threads.
    let phase = rec.begin("phase.closed_loop");
    let loop_phase = Phase::start(&st.dev);
    let mut owned: Vec<Vec<File>> = (0..clients).map(|_| Vec::new()).collect();
    for (i, f) in files.drain(..).enumerate() {
        owned[(i / shards) % clients].push(f);
    }
    let t0 = Instant::now();
    let slice = Duration::from_secs_f64(args.seconds / stack::SLICES as f64);
    let mut reactor_threads = 0;
    let reports: Vec<ClientReport> = std::thread::scope(|s| {
        let handles: Vec<_> = owned
            .iter_mut()
            .enumerate()
            .map(|(c, mine)| {
                let mut crec = trace.recorder(rec.current());
                let addr = addr.as_str();
                let seed = args
                    .seed
                    .wrapping_mul(0x1_0000_0001)
                    .wrapping_add(c as u64 + 1);
                s.spawn(move || client_loop(addr, mine, seed, (t0, slice), &mut crec))
            })
            .collect();
        std::thread::sleep(Duration::from_secs_f64(args.seconds / 2.0));
        reactor_threads = stack::threads();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let loop_s = t0.elapsed().as_secs_f64();
    let backlog = st.fs.dwq().len();
    let loop_delta = loop_phase.since(&st.dev);
    rec.end(phase);
    files = owned.into_iter().flatten().collect();
    files.sort_by_key(|f| f.ino);

    let mut read_slices = vec![Vec::new(); stack::SLICES];
    let mut write_slices = vec![Vec::new(); stack::SLICES];
    for r in reports {
        out.attempted += r.attempted;
        out.failed += r.failed;
        out.problems.extend(r.failures);
        for (i, (reads, writes)) in r.read_ns.into_iter().zip(r.write_ns).enumerate() {
            read_slices[i].extend(reads);
            write_slices[i].extend(writes);
        }
    }
    let mut read_ns: Vec<u64> = read_slices.concat();
    let mut write_ns: Vec<u64> = write_slices.concat();
    let mut op_ns: Vec<u64> = read_ns.iter().chain(&write_ns).copied().collect();
    // Completed ops and writes per slice: the rates are slice medians.
    let slice_s = args.seconds / stack::SLICES as f64;
    let mut slice_ops: Vec<f64> = (0..stack::SLICES)
        .map(|i| (read_slices[i].len() + write_slices[i].len()) as f64 / slice_s)
        .collect();
    let mut slice_writes: Vec<f64> = write_slices.iter().map(|w| w.len() as f64).collect();
    let ops_per_s = stack::median_f64(&mut slice_ops);
    let writes_per_run = stack::median_f64(&mut slice_writes) * stack::SLICES as f64;

    let ((image, quiesce_s), _) = rec.call("phase.crash_image", || stack::crash_image(&st));
    let (_, drain_ns) = rec.call("phase.drain", || st.fs.drain());
    let drain_s = quiesce_s + drain_ns as f64 / 1e9;
    let rss = stack::rss_mb();
    let space = stack::space_amp(&st.fs, (FILES * FILE_BYTES / 4096) as u64);

    server.request_shutdown();
    serving
        .join()
        .expect("serve thread panicked")
        .expect("serve failed");
    let server = Arc::try_unwrap(server)
        .ok()
        .expect("server still shared at shutdown");
    drop(server.shutdown());
    let (mut local_ns, _) = rec.call("phase.verify_local", || {
        verify_local(&mut out, &st.fs, &files, "local read")
    });
    let (problems, _) = rec.call("phase.audit", || stack::audit(&st.fs));
    out.problems.extend(problems);
    let fact_entries = st.fs.fact().occupied_count();
    if traced {
        let sample: Vec<Fingerprint> = files
            .iter()
            .step_by(8)
            .flat_map(|f| f.data.chunks(4096).map(Fingerprint::of))
            .collect();
        layers::fact_lookups(&mut out, &st.fs, &sample);
    }
    let stack::Stack { dev, fs, opts } = st;
    rec.call("phase.unmount", || stack::unmount(fs));
    let all_delta = all.since(&dev);
    drop(dev);

    let nova_mount_s = if traced {
        rec.call("phase.nova_mount", || stack::nova_mount_copy(&image, &opts))
            .0
    } else {
        0.0
    };
    let (rfs, recover_s) =
        stack::recover_median(image, &opts, args.reps(stack::RECOVERIES), &mut rec);
    rec.call("phase.verify_recovered", || {
        verify_local(&mut out, &rfs, &files, "recovered")
    });
    let (problems, _) = rec.call("phase.audit_recovered", || stack::audit(&rfs));
    out.problems
        .extend(problems.into_iter().map(|p| format!("recovered: {p}")));
    rec.end(whole);

    let written_mib = writes_per_run * WRITE_BYTES as f64 / (1 << 20) as f64;
    let client_p50_us = pct(&mut op_ns, 0.5) as f64 / 1e3;
    out.metric("write_p50_us", stack::median_p50(&write_slices) / 1e3, "us");
    out.metric("write_p99_us", pct(&mut write_ns, 0.99) as f64 / 1e3, "us");
    out.metric("read_p50_us", stack::median_p50(&read_slices) / 1e3, "us");
    out.metric("read_p99_us", pct(&mut read_ns, 0.99) as f64 / 1e3, "us");
    out.metric("ingest_mbs", written_mib / (loop_s + drain_s), "MiB/s");
    out.metric("ops_per_s", ops_per_s, "1/s");
    out.metric("recover_s", recover_s, "s");
    out.metric("space_amp", space, "ratio");
    out.metric("rss_mb", rss, "MiB");

    if traced {
        let writes = write_ns.len() as u64;
        layers::pmem_writes(&mut out, &loop_delta, writes, writes);
        layers::reads(&mut out, &loop_delta, read_ns.len() as u64);
        let nova_write = loop_delta.h("nova.write");
        let growth = stack::growth(&create_ns);
        out.metric(
            "nova.create_us.p50",
            pct(&mut create_ns, 0.5) as f64 / 1e3,
            "us",
        );
        out.metric(
            "nova.create_us.p99",
            pct(&mut create_ns, 0.99) as f64 / 1e3,
            "us",
        );
        out.metric("nova.create_growth", growth, "ratio");
        out.metric(
            "nova.write_us.p50",
            nova_write.percentile(0.5) as f64 / 1e3,
            "us",
        );
        out.metric(
            "nova.write_us.p99",
            nova_write.percentile(0.99) as f64 / 1e3,
            "us",
        );
        out.metric(
            "nova.read_us.p50",
            pct(&mut local_ns, 0.5) as f64 / 1e3,
            "us",
        );
        out.metric("nova.mount_s", nova_mount_s, "s");
        out.metric("nova.mount_growth", 0.0, "ratio");
        out.metric("denova.recover_s", recover_s - nova_mount_s, "s");
        out.metric("dwq.backlog_at_last_write", backlog as f64, "count");
        out.metric("daemon.drain_s", drain_s, "s");
        layers::dedup(&mut out, &all_delta, fact_entries);
        layers::fingerprint(&mut out);
        layers::fact_inserts(&mut out, &rfs, 2000);
        layers::svc(&mut out, &loop_delta, client_p50_us, writes);
        out.metric("reactor.threads", reactor_threads as f64, "count");
    }
    out
}
