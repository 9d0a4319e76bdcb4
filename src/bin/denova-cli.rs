//! `denova-cli` — operate a DeNova file system stored in a device-image
//! file.
//!
//! The emulated PM device persists across invocations as a host file
//! (`PmemDevice::save_image`/`load_image`), so the CLI behaves like a real
//! disk tool:
//!
//! ```text
//! denova-cli fs.img mkfs --size 64M
//! denova-cli fs.img put  report.pdf /tmp/report.pdf
//! denova-cli fs.img put  copy.pdf   /tmp/report.pdf     # deduplicated
//! denova-cli fs.img ls
//! denova-cli fs.img df                                  # space + dedup stats
//! denova-cli fs.img get  report.pdf /tmp/back.pdf
//! denova-cli fs.img mv   copy.pdf archive.pdf
//! denova-cli fs.img rm   archive.pdf
//! denova-cli fs.img fsck
//! denova-cli fs.img stats                               # telemetry snapshot
//! ```
//!
//! The same image can be **served** to remote clients over TCP, with every
//! other command able to run against the server instead of a local image:
//!
//! ```text
//! denova-cli fs.img serve --listen 127.0.0.1:7070 &     # prints "listening on ..."
//! denova-cli --remote 127.0.0.1:7070 put report.pdf /tmp/report.pdf
//! denova-cli --remote 127.0.0.1:7070 ls
//! denova-cli --remote 127.0.0.1:7070 stats --json       # server-side telemetry
//! denova-cli --remote 127.0.0.1:7070 shutdown           # drain + save image
//! ```
//!
//! Setting `DENOVA_TELEMETRY=1` turns span/event collection on for any
//! command and dumps a telemetry snapshot to stderr when it finishes
//! (counters are always collected; the variable only adds latency
//! histograms and the event ring).

use denova_repro::prelude::*;
use denova_repro::svc::Request;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage: denova-cli <image> <command> [args]\n\
         \x20      denova-cli --remote <host:port> <command> [args]\n\
         commands:\n\
         \x20 mkfs --size <N[K|M|G]>        format a new image (local only)\n\
         \x20 put <name> <hostfile>         copy a host file in\n\
         \x20 get <name> <hostfile>         copy a file out\n\
         \x20 cat <name>                    print a file to stdout\n\
         \x20 ls                            list files\n\
         \x20 rm <name>                     remove a file\n\
         \x20 ln <existing> <new>           hard-link under a new name\n\
         \x20 mv <from> <to>                rename (clobbers target)\n\
         \x20 stat <name>                   file metadata\n\
         \x20 df                            space + dedup statistics\n\
         \x20 fsck                          consistency check (local only)\n\
         \x20 scrub                         reconcile FACT reference counts (local only)\n\
         \x20 stats [--json]                telemetry snapshot (probe locally,\n\
         \x20                               fetch live metrics when --remote)\n\
         \x20 serve [--listen <host:port>] [--shards <n>] [--loops <n>]\n\
         \x20       [--threaded] [--repl-sync]\n\
         \x20       [--replica-of <host:port>]\n\
         \x20       [--shard <k> --cluster <a0,a1,...>] [--advertise <addr>]\n\
         \x20                               serve the image over TCP (local only).\n\
         \x20                               Connections ride the epoll event loops\n\
         \x20                               (--loops, default one per core);\n\
         \x20                               --threaded restores the legacy two-\n\
         \x20                               threads-per-connection model.\n\
         \x20                               With --replica-of, run as a read-only\n\
         \x20                               standby replicating from the primary;\n\
         \x20                               --repl-sync makes writes wait for\n\
         \x20                               standby acks once one attaches.\n\
         \x20                               With --shard/--cluster, join a sharded\n\
         \x20                               cluster as shard k of the given primary\n\
         \x20                               list (--advertise overrides the address\n\
         \x20                               this node is known by in the map)\n\
         \x20 shutdown                      drain and stop a served image (remote only)\n\
         \x20 promote                       promote a standby to primary (remote only)\n\
         \x20 cluster status                print the cluster map (remote only)\n\
         \x20 cluster rebalance <k> <addr>  repoint shard k at a caught-up node:\n\
         \x20                               bump the map epoch and push it to every\n\
         \x20                               primary (remote only; promote the\n\
         \x20                               target first if it was a standby)\n\
         options (any local command, including serve):\n\
         \x20 --dedup-workers <n>           dedup worker threads for the mount (default 1)\n\
         \x20 --slo-p99-us <n>              closed-loop QoS: back fingerprint cost off\n\
         \x20                               while the live write p99 exceeds n microseconds\n\
         \x20                               (0 = off, the default)\n\
         options (any remote command):\n\
         \x20 --tenant <name>               account + fair-schedule this client's\n\
         \x20                               requests under the named tenant\n\
         env:\n\
         \x20 DENOVA_TELEMETRY=1            collect spans/events in any command\n\
         \x20                               and dump a snapshot to stderr"
    );
    std::process::exit(2);
}

fn parse_size(s: &str) -> Option<usize> {
    let (num, mult) = match s.as_bytes().last()? {
        b'K' | b'k' => (&s[..s.len() - 1], 1024),
        b'M' | b'm' => (&s[..s.len() - 1], 1024 * 1024),
        b'G' | b'g' => (&s[..s.len() - 1], 1024 * 1024 * 1024),
        _ => (s, 1),
    };
    num.parse::<usize>().ok().map(|n| n * mult)
}

/// Whether `DENOVA_TELEMETRY` asks for span/event collection (any value but
/// empty or `0`).
fn telemetry_env_on() -> bool {
    std::env::var("DENOVA_TELEMETRY")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false)
}

fn open_fs(image: &Path, dedup_workers: usize, slo_write_p99_ns: u64) -> Result<Denova, String> {
    let dev = PmemDevice::load_image(image, LatencyProfile::none())
        .map_err(|e| format!("cannot read image {}: {e}", image.display()))?;
    let opts = NovaOptions {
        dedup_workers,
        slo_write_p99_ns,
        ..Default::default()
    };
    let fs = Denova::mount(Arc::new(dev), opts, DedupMode::Immediate)
        .map_err(|e| format!("mount failed: {e} (is {} formatted?)", image.display()))?;
    if telemetry_env_on() {
        fs.nova().device().metrics().set_enabled(true);
    }
    Ok(fs)
}

fn close_fs(fs: Denova, image: &Path) -> Result<(), String> {
    fs.drain();
    let dev = fs.nova().device().clone();
    fs.unmount();
    if telemetry_env_on() {
        // Stderr, so piped stdout (`cat`, `get`) stays clean.
        eprintln!("{}", dev.metrics().snapshot().to_text());
    }
    dev.save_image(image)
        .map_err(|e| format!("cannot write image: {e}"))
}

fn run() -> Result<(), String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--dedup-workers <n>` may appear anywhere; it configures the local
    // mount (and thus `serve`) and is stripped before command dispatch.
    let mut dedup_workers = 1usize;
    if let Some(i) = args.iter().position(|a| a == "--dedup-workers") {
        let n = args.get(i + 1).cloned().unwrap_or_default();
        dedup_workers = n
            .parse()
            .ok()
            .filter(|&w| w >= 1)
            .ok_or_else(|| format!("bad --dedup-workers '{n}'"))?;
        args.drain(i..i + 2);
    }
    // `--slo-p99-us <n>` arms the closed-loop QoS controller on the local
    // mount: fingerprint cost backs off while the live write p99 breaches
    // the target. 0 (the default) disables it.
    let mut slo_p99_ns = 0u64;
    if let Some(i) = args.iter().position(|a| a == "--slo-p99-us") {
        let n = args.get(i + 1).cloned().unwrap_or_default();
        slo_p99_ns = n
            .parse::<u64>()
            .ok()
            .map(|us| us * 1_000)
            .ok_or_else(|| format!("bad --slo-p99-us '{n}'"))?;
        args.drain(i..i + 2);
    }
    // `--tenant <name>` tags every remote connection via the wire hello,
    // so the server accounts and fair-schedules this client's requests
    // under that tenant.
    let mut tenant: Option<String> = None;
    if let Some(i) = args.iter().position(|a| a == "--tenant") {
        tenant = Some(
            args.get(i + 1)
                .cloned()
                .filter(|t| !t.is_empty())
                .ok_or("--tenant needs a name")?,
        );
        args.drain(i..i + 2);
    }
    if args.len() < 2 {
        usage();
    }
    if args[0] == "--remote" {
        if args.len() < 3 {
            usage();
        }
        return run_remote(&args[1], args[2].as_str(), &args[3..], tenant.as_deref());
    }
    let image = PathBuf::from(&args[0]);
    let cmd = args[1].as_str();
    let rest = &args[2..];

    match (cmd, rest) {
        ("mkfs", _) => {
            let size = match rest {
                [flag, sz] if flag == "--size" => {
                    parse_size(sz).ok_or_else(|| format!("bad size '{sz}'"))?
                }
                [] => 64 * 1024 * 1024,
                _ => usage(),
            };
            let dev = Arc::new(PmemDevice::new(size));
            let opts = NovaOptions {
                dedup_workers,
                slo_write_p99_ns: slo_p99_ns,
                ..Default::default()
            };
            let fs = Denova::mkfs(dev, opts, DedupMode::Immediate)
                .map_err(|e| format!("mkfs failed: {e}"))?;
            if telemetry_env_on() {
                fs.nova().device().metrics().set_enabled(true);
            }
            println!(
                "formatted {} ({} MB, FACT {} entries, n = {})",
                image.display(),
                size / (1 << 20),
                fs.fact().entries(),
                fs.fact().prefix_bits()
            );
            close_fs(fs, &image)
        }
        ("put", [name, host]) => {
            let data = std::fs::read(host).map_err(|e| format!("read {host}: {e}"))?;
            let fs = open_fs(&image, dedup_workers, slo_p99_ns)?;
            let ino = match fs.open(name) {
                Ok(ino) => ino,
                Err(_) => fs.create(name).map_err(|e| e.to_string())?,
            };
            // Overwrite in place, then commit the new size: a shorter upload
            // over a longer file must not leave stale tail bytes, and writing
            // before truncating means a crash mid-put can never expose a
            // zero-length file where the old content used to be.
            fs.write(ino, 0, &data).map_err(|e| e.to_string())?;
            fs.truncate(ino, data.len() as u64)
                .map_err(|e| e.to_string())?;
            fs.drain();
            println!(
                "{name}: {} bytes ({} saved by dedup so far)",
                data.len(),
                fs.bytes_saved()
            );
            close_fs(fs, &image)
        }
        ("get", [name, host]) => {
            let fs = open_fs(&image, dedup_workers, slo_p99_ns)?;
            let ino = fs.open(name).map_err(|e| e.to_string())?;
            let size = fs.file_size(ino).map_err(|e| e.to_string())?;
            let data = fs.read(ino, 0, size as usize).map_err(|e| e.to_string())?;
            std::fs::write(host, &data).map_err(|e| format!("write {host}: {e}"))?;
            println!("{name}: {} bytes -> {host}", data.len());
            close_fs(fs, &image)
        }
        ("cat", [name]) => {
            let fs = open_fs(&image, dedup_workers, slo_p99_ns)?;
            let ino = fs.open(name).map_err(|e| e.to_string())?;
            let size = fs.file_size(ino).map_err(|e| e.to_string())?;
            let data = fs.read(ino, 0, size as usize).map_err(|e| e.to_string())?;
            use std::io::Write;
            std::io::stdout()
                .write_all(&data)
                .map_err(|e| e.to_string())?;
            close_fs(fs, &image)
        }
        ("ls", []) => {
            let fs = open_fs(&image, dedup_workers, slo_p99_ns)?;
            let mut names = fs.nova().list();
            names.sort();
            for name in names {
                let ino = fs.open(&name).map_err(|e| e.to_string())?;
                let st = fs.nova().stat(ino).map_err(|e| e.to_string())?;
                println!("{:>12}  {}", st.size, name);
            }
            close_fs(fs, &image)
        }
        ("rm", [name]) => {
            let fs = open_fs(&image, dedup_workers, slo_p99_ns)?;
            fs.unlink(name).map_err(|e| e.to_string())?;
            println!("removed {name}");
            close_fs(fs, &image)
        }
        ("ln", [existing, new]) => {
            let fs = open_fs(&image, dedup_workers, slo_p99_ns)?;
            let ino = fs.nova().link(existing, new).map_err(|e| e.to_string())?;
            println!("{new} => ino {ino} (also {existing})");
            close_fs(fs, &image)
        }
        ("mv", [from, to]) => {
            let fs = open_fs(&image, dedup_workers, slo_p99_ns)?;
            fs.nova().rename(from, to).map_err(|e| e.to_string())?;
            println!("{from} -> {to}");
            close_fs(fs, &image)
        }
        ("stat", [name]) => {
            let fs = open_fs(&image, dedup_workers, slo_p99_ns)?;
            let ino = fs.open(name).map_err(|e| e.to_string())?;
            let st = fs.nova().stat(ino).map_err(|e| e.to_string())?;
            println!(
                "{name}: ino {} size {} B, {} data pages, {} log pages, {} live entries",
                st.ino, st.size, st.blocks, st.log_pages, st.log_entries_live
            );
            close_fs(fs, &image)
        }
        ("df", []) => {
            let fs = open_fs(&image, dedup_workers, slo_p99_ns)?;
            let layout = *fs.nova().layout();
            let free = fs.nova().free_blocks();
            let total = layout.data_blocks();
            println!(
                "device: {} MB, data area {} blocks, {} free ({:.1}% used)",
                layout.device_size / (1 << 20),
                total,
                free,
                100.0 * (total - free) as f64 / total as f64
            );
            println!(
                "dedup:  {} FACT entries, {} B saved, FACT overhead {:.2}%, dedup-index DRAM {} B, {} worker(s)",
                fs.fact().occupied_count(),
                fs.persistent_bytes_saved(),
                layout.fact_overhead() * 100.0,
                fs.dedup_index_dram_bytes(),
                fs.dedup_workers()
            );
            close_fs(fs, &image)
        }
        ("fsck", []) => {
            let fs = open_fs(&image, dedup_workers, slo_p99_ns)?;
            let report = denova_repro::nova::fsck(fs.nova(), true).map_err(|e| e.to_string())?;
            println!(
                "fsck: {} referenced blocks, {} shared, {} log pages",
                report.referenced_blocks, report.shared_blocks, report.log_pages
            );
            let fact_report = denova_repro::denova::fsck::fsck_fact(fs.nova(), fs.fact())
                .map_err(|e| e.to_string())?;
            println!(
                "fact:  {} per-page records, {} runs covering {} pages",
                fact_report.per_page_records, fact_report.run_records, fact_report.run_pages
            );
            let clean = report.is_clean() && fact_report.is_clean();
            for err in &report.errors {
                println!("  ERROR: {err:?}");
            }
            for err in &fact_report.errors {
                println!("  ERROR: {err:?}");
            }
            close_fs(fs, &image)?;
            if clean {
                println!("clean");
                Ok(())
            } else {
                Err("file system has errors".into())
            }
        }
        ("scrub", []) => {
            let fs = open_fs(&image, dedup_workers, slo_p99_ns)?;
            let fixed = fs.scrub().map_err(|e| e.to_string())?;
            println!("scrub: {fixed} FACT entries reconciled");
            close_fs(fs, &image)
        }
        ("serve", rest) => {
            let mut listen = "127.0.0.1:0".to_string();
            let mut config = SvcConfig::default();
            let mut replica_of: Option<String> = None;
            let mut repl_sync = false;
            let mut shard: Option<u32> = None;
            let mut cluster_addrs: Vec<String> = Vec::new();
            let mut advertise: Option<String> = None;
            let mut it = rest.iter();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--listen" => listen = it.next().cloned().unwrap_or_else(|| usage()),
                    "--shards" => {
                        let n = it.next().cloned().unwrap_or_else(|| usage());
                        config.shards = n.parse().map_err(|_| format!("bad --shards '{n}'"))?;
                    }
                    "--loops" => {
                        let n = it.next().cloned().unwrap_or_else(|| usage());
                        config.event_loops = n.parse().map_err(|_| format!("bad --loops '{n}'"))?;
                    }
                    "--threaded" => config.thread_per_conn = true,
                    "--replica-of" => {
                        replica_of = Some(it.next().cloned().unwrap_or_else(|| usage()));
                    }
                    "--repl-sync" => repl_sync = true,
                    "--shard" => {
                        let k = it.next().cloned().unwrap_or_else(|| usage());
                        shard = Some(k.parse().map_err(|_| format!("bad --shard '{k}'"))?);
                    }
                    "--cluster" => {
                        let list = it.next().cloned().unwrap_or_else(|| usage());
                        cluster_addrs = list.split(',').map(|s| s.trim().to_string()).collect();
                    }
                    "--advertise" => {
                        advertise = Some(it.next().cloned().unwrap_or_else(|| usage()));
                    }
                    _ => usage(),
                }
            }
            let cluster = match (shard, cluster_addrs.is_empty()) {
                (Some(k), false) => {
                    if (k as usize) >= cluster_addrs.len() {
                        return Err(format!(
                            "--shard {k} is out of range for a {}-entry --cluster list",
                            cluster_addrs.len()
                        ));
                    }
                    Some((k, cluster_addrs))
                }
                (None, true) => None,
                _ => return Err("--shard and --cluster must be given together".into()),
            };
            let listener = std::net::TcpListener::bind(&listen)
                .map_err(|e| format!("cannot listen on {listen}: {e}"))?;
            let addr = listener.local_addr().map_err(|e| e.to_string())?;
            let advertise = advertise.unwrap_or_else(|| addr.to_string());
            let repl_cfg = ReplConfig {
                sync_ack: repl_sync,
                shard: cluster.as_ref().map(|(k, _)| *k),
                ..Default::default()
            };
            if let Some(primary_addr) = replica_of {
                return serve_replica(
                    &image,
                    &primary_addr,
                    listener,
                    config,
                    repl_cfg,
                    dedup_workers,
                    cluster,
                    &advertise,
                );
            }
            let fs = open_fs(&image, dedup_workers, slo_p99_ns)?;
            // Scraped by scripts driving ephemeral ports — keep the format.
            println!("listening on {addr}");
            let server = Server::new(Arc::new(fs), config);
            // Every served image accepts standby subscriptions; writes only
            // wait for acks in --repl-sync mode, and only while a standby
            // is attached.
            let engine =
                ReplPrimary::install(server.service().fs().clone(), Some(&server), repl_cfg);
            let mut orphan_join = None;
            if let Some((k, addrs)) = &cluster {
                let (_node, join) = install_cluster_node(&server, *k, addrs, &advertise, true);
                orphan_join = join;
            }
            server.serve(listener).map_err(|e| format!("serve: {e}"))?;
            // A client sent `shutdown`: drain in-flight work and the dedup
            // pipeline, then persist the image like any other command.
            engine.stop();
            server.set_repl_sink(None);
            let fs = server.shutdown();
            drop(engine);
            if let Some(j) = orphan_join {
                let _ = j.join();
            }
            let fs = Arc::try_unwrap(fs)
                .map_err(|_| "connections still hold the file system".to_string())?;
            println!("shutting down");
            close_fs(fs, &image)
        }
        ("stats", rest) => {
            let json = match rest {
                [] => false,
                [flag] if flag == "--json" => true,
                _ => usage(),
            };
            let fs = open_fs(&image, dedup_workers, slo_p99_ns)?;
            let metrics = fs.nova().device().metrics().clone();
            metrics.set_enabled(true);
            // Quickstart-style probe: a handful of duplicate files written,
            // deduplicated, and read back, so every layer records activity.
            // The image is deliberately NOT saved afterwards — the probe
            // lives only in this process's memory and the host file is left
            // exactly as it was.
            let payload: Vec<u8> = (0..BLOCK_SIZE).map(|i| (i % 251) as u8).collect();
            let mut inos = Vec::new();
            for i in 0..8 {
                let ino = fs
                    .create(&format!(".denova-stats-probe-{i}"))
                    .map_err(|e| e.to_string())?;
                fs.write(ino, 0, &payload).map_err(|e| e.to_string())?;
                inos.push(ino);
            }
            fs.drain();
            for &ino in &inos {
                fs.read(ino, 0, payload.len()).map_err(|e| e.to_string())?;
            }
            let snap = metrics.snapshot();
            fs.unmount();
            if json {
                println!("{}", snap.to_json_string());
            } else {
                let c = |name: &str| snap.counter(name).unwrap_or(0);
                println!("telemetry after an 8-file duplicate write/read probe (image unchanged):");
                println!("  pmem flushes:       {}", c("pmem.flushes"));
                println!(
                    "  nova writes:        {} calls, {} log entries appended",
                    c("nova.writes"),
                    c("nova.log.entries_appended")
                );
                println!(
                    "  FACT hit/miss:      {}/{}",
                    c("fact.hits"),
                    c("fact.misses")
                );
                // Where this process's mount went; the denova.recover.*
                // phases appear only when the image needed crash recovery.
                let ms = |name: &str| snap.histogram(name).map(|h| h.sum as f64 / 1e6);
                let phases: Vec<String> = [
                    "nova.recover",
                    "fact.mount",
                    "denova.recover.runs",
                    "denova.recover.pending",
                    "denova.recover.census",
                    "denova.recover.reorder",
                    "denova.recover.scrub",
                ]
                .iter()
                .filter_map(|&p| ms(p).map(|v| format!("{p} {v:.1} ms")))
                .collect();
                println!(
                    "  mount:              {}; {} PM reads, {} FACT scans",
                    phases.join(", "),
                    c("nova.recover.pm_reads") + c("denova.mount.pm_reads"),
                    c("fact.scans")
                );
                println!("{}", snap.to_text());
            }
            Ok(())
        }
        _ => usage(),
    }
}

/// Join a serving node to a sharded cluster: build the epoch-1 map from the
/// `--cluster` primary list, name this node `advertise` in it, and install
/// the routing/2PC interceptor. Peers gossip newer epochs in over
/// `MapPush`, so the boot map only has to be right about the *initial*
/// placement (standbys joining mid-life are wrong about ownership on
/// purpose — they bounce every shard until an operator pushes a map naming
/// them).
///
/// With `recover_orphans`, a background pass resolves cross-shard
/// transaction records a previous incarnation left behind. Best-effort and
/// one-shot: records whose peers are unreachable stay put for the next
/// restart. Standbys must not take this pass — their state is the
/// primary's journal, and resolving locally would diverge from it.
fn install_cluster_node(
    server: &Server,
    shard: u32,
    addrs: &[String],
    advertise: &str,
    recover_orphans: bool,
) -> (Arc<ClusterNode>, Option<std::thread::JoinHandle<()>>) {
    let dial: denova_repro::cluster::Dialer = Arc::new(|addr: &str| Client::connect_tcp(addr));
    let node = ClusterNode::new(
        shard,
        advertise,
        server.service().fs().clone(),
        ClusterMap::new(addrs),
        dial,
    );
    server.service().set_interceptor(Some(node.clone()));
    let join = recover_orphans.then(|| spawn_orphan_resolution(node.clone()));
    (node, join)
}

/// One-shot, delayed, background cross-shard transaction recovery — the
/// delay lets peers of a whole-cluster restart come up first. The thread
/// holds the node (and through it the mounted stack): callers must join
/// the handle before tearing the stack down, or an early shutdown races
/// the sleep and `Arc::try_unwrap` on the file system fails.
fn spawn_orphan_resolution(node: Arc<ClusterNode>) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(500));
        let n = node.resolve_orphans();
        if n > 0 {
            eprintln!("cluster: resolved {n} orphaned cross-shard transaction(s)");
        }
    })
}

/// Run as a standby replica: bootstrap a crash-consistent snapshot from the
/// primary, serve it read-only, and apply the primary's journal stream until
/// promoted (keep serving as primary), told to re-bootstrap (fell behind),
/// or shut down. The local `image` path receives the standby's state on
/// exit, exactly like a normal serve.
///
/// With `cluster`, the standby carries the routing interceptor from the
/// start: it bounces every shard (the boot map names the primaries, not
/// us), which is exactly right — clients must not read a lagging replica.
/// After promotion it keeps bouncing until `cluster rebalance` pushes a map
/// naming `advertise` as its shard's primary, at which point it serves.
#[allow(clippy::too_many_arguments)]
fn serve_replica(
    image: &Path,
    primary_addr: &str,
    listener: std::net::TcpListener,
    config: SvcConfig,
    repl_cfg: ReplConfig,
    dedup_workers: usize,
    cluster: Option<(u32, Vec<String>)>,
    advertise: &str,
) -> Result<(), String> {
    use denova_repro::repl::{bootstrap, Standby, StandbyConfig, StandbyExit};
    use denova_repro::svc::{client::Connector, dial_tcp};
    use std::sync::atomic::{AtomicBool, Ordering};

    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    // Scraped by scripts driving ephemeral ports — keep the format.
    println!("listening on {addr} (standby of {primary_addr})");
    let primary = primary_addr.to_string();
    let connector: Connector = Arc::new(move || dial_tcp(&primary));

    loop {
        // Fetch a full snapshot; retry while the primary is unreachable so
        // start order doesn't matter.
        let boot = loop {
            match bootstrap(&connector) {
                Ok(b) => break b,
                Err(e) => {
                    eprintln!("standby: snapshot bootstrap failed ({e}); retrying");
                    std::thread::sleep(std::time::Duration::from_millis(500));
                }
            }
        };
        let dev = Arc::new(PmemDevice::from_bytes(&boot.image, LatencyProfile::none()));
        let opts = NovaOptions {
            dedup_workers,
            ..Default::default()
        };
        // The image is crash-consistent, never cleanly unmounted: mounting
        // runs the ordinary recovery path.
        let fs = Arc::new(
            Denova::mount(dev, opts, DedupMode::Immediate)
                .map_err(|e| format!("standby mount failed: {e}"))?,
        );
        if telemetry_env_on() {
            fs.nova().device().metrics().set_enabled(true);
        }
        let server = Arc::new(Server::new(fs.clone(), config));
        let promoted = Arc::new(AtomicBool::new(false));
        let flag = promoted.clone();
        server.set_role(Some(ReplRole::standby(move || {
            flag.store(true, Ordering::Release)
        })));
        let cluster_node = cluster
            .as_ref()
            .map(|(k, addrs)| install_cluster_node(&server, *k, addrs, advertise, false).0);
        eprintln!(
            "standby: snapshot mounted ({} bytes, covers seq {})",
            boot.image.len(),
            boot.upto_seq
        );

        let accept_listener = listener.try_clone().map_err(|e| e.to_string())?;
        let srv = server.clone();
        let serve_thread = std::thread::spawn(move || srv.serve(accept_listener));

        let mut standby = Standby::new(fs.clone(), boot.upto_seq, StandbyConfig::default());
        let exit = {
            let srv = server.clone();
            standby.run(
                boot.stream,
                &connector,
                || promoted.load(Ordering::Acquire),
                move || srv.stopping(),
            )
        };
        let standby_seq = standby.last_seq();
        drop(standby);
        match exit {
            StandbyExit::Promoted => {
                eprintln!(
                    "standby: promoted to primary (applied through seq {})",
                    standby_seq
                );
                // Full primary from here on: accept writes and standby
                // subscriptions of our own.
                server.set_role(None);
                let engine = ReplPrimary::install(fs.clone(), Some(&server), repl_cfg);
                // The dead primary may have died mid-cross-shard
                // transaction; its journaled records are in our image now.
                let orphan_join = cluster_node.clone().map(spawn_orphan_resolution);
                drop(fs);
                serve_thread
                    .join()
                    .map_err(|_| "serve thread panicked".to_string())?
                    .map_err(|e| format!("serve: {e}"))?;
                engine.stop();
                server.set_repl_sink(None);
                let server =
                    Arc::try_unwrap(server).map_err(|_| "server still referenced".to_string())?;
                let fs = server.shutdown();
                drop(engine);
                // The interceptor slot dropped with the server; the orphan
                // thread and this local handle are the last things pinning
                // the stack.
                if let Some(j) = orphan_join {
                    let _ = j.join();
                }
                drop(cluster_node);
                let fs = Arc::try_unwrap(fs)
                    .map_err(|_| "connections still hold the file system".to_string())?;
                println!("shutting down");
                return close_fs(fs, image);
            }
            StandbyExit::FellBehind => {
                eprintln!("standby: fell off the primary's journal; re-bootstrapping");
                server.request_shutdown();
                let _ = serve_thread.join();
                let server =
                    Arc::try_unwrap(server).map_err(|_| "server still referenced".to_string())?;
                drop(server.shutdown());
                drop(fs);
                // Loop: fresh snapshot on the same listening address.
            }
            StandbyExit::Stopped => {
                let _ = serve_thread.join();
                let server =
                    Arc::try_unwrap(server).map_err(|_| "server still referenced".to_string())?;
                let fs_arc = server.shutdown();
                drop(fs);
                drop(cluster_node);
                let fs = Arc::try_unwrap(fs_arc)
                    .map_err(|_| "connections still hold the file system".to_string())?;
                println!("shutting down");
                return close_fs(fs, image);
            }
        }
    }
}

/// Dispatch one command against a served file system over TCP. The command
/// surface mirrors the local one; `mkfs`/`fsck`/`scrub`/`serve` stay local
/// because they operate on the image itself.
fn run_remote(addr: &str, cmd: &str, rest: &[String], tenant: Option<&str>) -> Result<(), String> {
    let mut client =
        Client::connect_tcp(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let e = |e: SvcError| e.to_string();
    if let Some(t) = tenant {
        // Weight 0 = keep the tenant's current weight (1 if new).
        client.hello(t, 0).map_err(e)?;
    }
    // Against a cluster node, data commands route to the owning shard: a
    // successful `MapGet` probe means the server is cluster-enabled, and a
    // plain single-node connection would bounce `WRONG_SHARD` for every
    // name the addressed node does not own. Node-scoped commands
    // (stats/df/shutdown/promote/cluster) stay on the direct connection —
    // they are *about* the addressed node.
    if matches!(
        cmd,
        "put" | "get" | "cat" | "ls" | "rm" | "ln" | "mv" | "stat"
    ) {
        if let Ok(denova_repro::svc::Body::Bytes(_)) = client.request(&Request::MapGet) {
            drop(client);
            return run_remote_routed(addr, cmd, rest, tenant);
        }
    }
    match (cmd, rest) {
        ("put", [name, host]) => {
            let data = std::fs::read(host).map_err(|err| format!("read {host}: {err}"))?;
            client.put(name, &data).map_err(e)?;
            let stats = client.dedup_stats().map_err(e)?;
            println!(
                "{name}: {} bytes ({} saved by dedup so far)",
                data.len(),
                stats.bytes_saved
            );
            Ok(())
        }
        ("get", [name, host]) => {
            let data = client.get(name).map_err(e)?;
            std::fs::write(host, &data).map_err(|err| format!("write {host}: {err}"))?;
            println!("{name}: {} bytes -> {host}", data.len());
            Ok(())
        }
        ("cat", [name]) => {
            let data = client.get(name).map_err(e)?;
            use std::io::Write;
            std::io::stdout()
                .write_all(&data)
                .map_err(|err| err.to_string())
        }
        ("ls", []) => {
            let mut names = client.list().map_err(e)?;
            names.sort();
            for name in names {
                let ino = client.open(&name).map_err(e)?;
                let st = client.stat(ino).map_err(e)?;
                println!("{:>12}  {}", st.size, name);
            }
            Ok(())
        }
        ("rm", [name]) => {
            client.unlink(name).map_err(e)?;
            println!("removed {name}");
            Ok(())
        }
        ("ln", [existing, new]) => {
            let ino = client.link(existing, new).map_err(e)?;
            println!("{new} => ino {ino} (also {existing})");
            Ok(())
        }
        ("mv", [from, to]) => {
            client.rename(from, to).map_err(e)?;
            println!("{from} -> {to}");
            Ok(())
        }
        ("stat", [name]) => {
            let ino = client.open(name).map_err(e)?;
            let st = client.stat(ino).map_err(e)?;
            println!(
                "{name}: ino {} size {} B, {} data pages, {} log pages, {} live entries",
                st.ino, st.size, st.blocks, st.log_pages, st.log_entries_live
            );
            Ok(())
        }
        ("df", []) => {
            let s = client.dedup_stats().map_err(e)?;
            println!(
                "device: {} MB, data area {} blocks, {} free ({:.1}% used)",
                s.device_bytes / (1 << 20),
                s.data_blocks,
                s.free_blocks,
                100.0 * (s.data_blocks - s.free_blocks) as f64 / s.data_blocks.max(1) as f64
            );
            println!(
                "dedup:  {} FACT entries, {} B saved, dedup-index DRAM {} B, {} worker(s)",
                s.fact_occupied,
                s.persistent_bytes_saved,
                s.dedup_index_dram_bytes,
                s.dedup_workers
            );
            if s.sync_degraded != 0 {
                println!(
                    "repl:   WARNING: sync-ack degraded — a standby missed the \
                     sync window and writes proceeded without standby durability"
                );
            }
            Ok(())
        }
        ("stats", rest) => {
            let json = match rest {
                [] => false,
                [flag] if flag == "--json" => true,
                _ => usage(),
            };
            // Unlike the local probe, this fetches the server's *live*
            // registry: real request counts and per-op latencies, rendered
            // server-side.
            let text = client.telemetry(json).map_err(e)?;
            println!("{text}");
            Ok(())
        }
        ("shutdown", []) => {
            client.shutdown_server().map_err(e)?;
            println!("server at {addr} is shutting down");
            Ok(())
        }
        ("promote", []) => {
            client.promote().map_err(e)?;
            println!("standby at {addr} promoted to primary");
            Ok(())
        }
        ("cluster", rest) => match rest {
            [sub] if sub == "status" => {
                let map = fetch_cluster_map(&mut client)?;
                println!("cluster map, epoch {}", map.epoch);
                for (k, s) in map.shards.iter().enumerate() {
                    // Probe each primary for a latched sync-ack downgrade;
                    // unreachable nodes just print without the marker.
                    let degraded = Client::connect_tcp(&s.primary)
                        .and_then(|mut c| c.dedup_stats())
                        .map(|d| d.sync_degraded != 0)
                        .unwrap_or(false);
                    let mark = if degraded { "  [SYNC-DEGRADED]" } else { "" };
                    if s.standbys.is_empty() {
                        println!("  shard {k}: {}{mark}", s.primary);
                    } else {
                        println!(
                            "  shard {k}: {} (standbys: {}){mark}",
                            s.primary,
                            s.standbys.join(", ")
                        );
                    }
                }
                for (prefix, k) in &map.overrides {
                    println!("  override: {prefix}* -> shard {k}");
                }
                Ok(())
            }
            [sub, k, new_addr] if sub == "rebalance" => {
                let k: u32 = k.parse().map_err(|_| format!("bad shard '{k}'"))?;
                let mut map = fetch_cluster_map(&mut client)?;
                if (k as usize) >= map.shards.len() {
                    return Err(format!(
                        "shard {k} is out of range for a {}-shard map",
                        map.shards.len()
                    ));
                }
                let old = std::mem::replace(&mut map.shards[k as usize].primary, new_addr.clone());
                map.epoch += 1;
                // Push the new epoch to every primary it names, plus the
                // node being demoted — that one must start bouncing its
                // old shard immediately, and only the map tells it to.
                let push = Request::MapPush { map: map.encode() };
                let mut targets: Vec<String> =
                    map.shards.iter().map(|s| s.primary.clone()).collect();
                if !targets.contains(&old) {
                    targets.push(old.clone());
                }
                let mut seen = std::collections::HashSet::new();
                targets.retain(|t| seen.insert(t.clone()));
                let mut failed = 0usize;
                for t in &targets {
                    let pushed = Client::connect_tcp(t).and_then(|mut c| c.request(&push));
                    match pushed {
                        Ok(_) => println!("  {t}: adopted epoch {}", map.epoch),
                        Err(err) => {
                            failed += 1;
                            eprintln!("  {t}: push failed ({err}); it will catch up by gossip");
                        }
                    }
                }
                println!("shard {k}: {old} -> {new_addr} (map epoch {})", map.epoch);
                if failed == targets.len() {
                    return Err("no node adopted the new map".into());
                }
                Ok(())
            }
            _ => usage(),
        },
        _ => usage(),
    }
}

/// Data commands against a sharded cluster, dispatched through the routing
/// [`ClusterClient`]: each name goes straight to its owner, `WRONG_SHARD`
/// bounces self-heal, and `ls` merges every shard's namespace.
fn run_remote_routed(
    addr: &str,
    cmd: &str,
    rest: &[String],
    tenant: Option<&str>,
) -> Result<(), String> {
    let tenant = tenant.map(|t| t.to_string());
    let dial: denova_repro::cluster::Dialer = Arc::new(move |a: &str| {
        let mut c = Client::connect_tcp(a)?;
        if let Some(t) = &tenant {
            c.hello(t, 0)?;
        }
        Ok(c)
    });
    let mut client = ClusterClient::connect(addr, dial)
        .map_err(|e| format!("cannot reach the cluster via {addr}: {e}"))?;
    let e = |e: SvcError| e.to_string();
    match (cmd, rest) {
        ("put", [name, host]) => {
            let data = std::fs::read(host).map_err(|err| format!("read {host}: {err}"))?;
            // Open-or-create like the local path: overwrite in place, then
            // commit the new size.
            let gino = match client.open(name) {
                Ok(gino) => gino,
                Err(_) => client.create(name).map_err(e)?,
            };
            client.write_at(gino, 0, &data).map_err(e)?;
            client.truncate(gino, data.len() as u64).map_err(e)?;
            println!(
                "{name}: {} bytes -> shard {}",
                data.len(),
                client.map().shard_of_name(name)
            );
            Ok(())
        }
        ("get", [name, host]) => {
            let data = client.get(name).map_err(e)?;
            std::fs::write(host, &data).map_err(|err| format!("write {host}: {err}"))?;
            println!("{name}: {} bytes -> {host}", data.len());
            Ok(())
        }
        ("cat", [name]) => {
            let data = client.get(name).map_err(e)?;
            use std::io::Write;
            std::io::stdout()
                .write_all(&data)
                .map_err(|err| err.to_string())
        }
        ("ls", []) => {
            let mut names = client.list().map_err(e)?;
            names.sort();
            for name in names {
                let gino = client.open(&name).map_err(e)?;
                let st = client.stat(gino).map_err(e)?;
                println!("{:>12}  {}", st.size, name);
            }
            Ok(())
        }
        ("rm", [name]) => {
            client.unlink(name).map_err(e)?;
            println!("removed {name}");
            Ok(())
        }
        ("ln", [existing, new]) => {
            let gino = client.link(existing, new).map_err(e)?;
            println!("{new} => gino {gino} (also {existing})");
            Ok(())
        }
        ("mv", [from, to]) => {
            client.rename(from, to).map_err(e)?;
            println!("{from} -> {to}");
            Ok(())
        }
        ("stat", [name]) => {
            let gino = client.open(name).map_err(e)?;
            let st = client.stat(gino).map_err(e)?;
            println!(
                "{name}: gino {gino} shard {} size {} B, {} data pages, {} log pages, {} live entries",
                client.map().shard_of_name(name),
                st.size,
                st.blocks,
                st.log_pages,
                st.log_entries_live
            );
            Ok(())
        }
        _ => usage(),
    }
}

/// `MapGet` against an already-connected node, decoded.
fn fetch_cluster_map(client: &mut Client) -> Result<ClusterMap, String> {
    use denova_repro::svc::Body;
    match client
        .request(&Request::MapGet)
        .map_err(|e| e.to_string())?
    {
        Body::Bytes(bytes) => {
            ClusterMap::decode(&bytes).map_err(|e| format!("bad cluster map: {e}"))
        }
        other => Err(format!(
            "unexpected MapGet reply: {other:?} (is the server cluster-enabled?)"
        )),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("denova-cli: {e}");
            ExitCode::FAILURE
        }
    }
}
