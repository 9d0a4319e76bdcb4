//! DeNova — offline deduplication for a log-structured persistent-memory
//! file system (reproduction of "DENOVA: Deduplication Extended NOVA File
//! System", IPDPS/IPPS 2022).
//!
//! The crate layers onto [`denova_nova`]:
//!
//! * [`fact`] — the Failure Atomic Consistent Table, a DRAM-free persistent
//!   dedup index (DAA + IAA, cache-line entries, count-based consistency,
//!   delete pointers);
//! * [`dwq`] — the Deduplication Work Queue feeding the daemon;
//! * [`daemon`] — the background Deduplication Daemon with the paper's
//!   `(n, m)` tunables (Immediate / Delayed modes);
//! * [`dedup`] — Algorithm 1, the crash-consistent dedup transaction;
//! * [`reorder`] — IAA chain reordering with the Fig. 7 commit-flag
//!   protocol;
//! * [`reclaim`] — RFC-checked page reclamation hooked into NOVA;
//! * [`recovery`] — Inconsistency Handling I/II/III and the FACT scrubber;
//! * [`inline`] — the DeNova-Inline baseline (NV-Dedup-style inline dedup).
//!
//! [`Denova`] bundles the stack behind one handle with the four evaluation
//! modes of Section V-A: `Baseline`, `Inline`, `Immediate`, and
//! `Delayed(n, m)`.

#![warn(missing_docs)]

pub mod adaptive;
pub mod daemon;
pub mod dedup;
pub mod dwq;
pub mod fact;
pub mod fp;
pub mod fsck;
pub mod inline;
pub mod nvdedup;
pub mod qos;
pub mod reclaim;
pub mod recovery;
pub mod reorder;
pub mod stats;

pub use adaptive::{write_inline_adaptive, NvDedupHooks};
pub use daemon::{Daemon, DaemonConfig, DaemonMode};
pub use dedup::{dedup_entry, DedupOutcome};
pub use dwq::{Dwq, DwqNode};
pub use fact::{Fact, FactEntry, DEFAULT_EXTENT_THRESHOLD_PAGES, NIL};
pub use fp::{FpThrottle, PAPER_FP_NS_PER_4K};
pub use nvdedup::{NvDedupTable, NvOutcome};
pub use qos::{QosMode, SloConfig, SloController, SloDriver};
pub use reclaim::DenovaHooks;
pub use recovery::{recover, scrub, RecoveryReport};
pub use reorder::{recover_reorder, reorder_chain};
pub use stats::DedupStats;

use denova_nova::{superblock, Nova, NovaOptions, Result};
use denova_pmem::PmemDevice;
use std::sync::Arc;

/// The four system variants evaluated in the paper (Section V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DedupMode {
    /// Plain NOVA, no deduplication.
    Baseline,
    /// DeNova-Inline: dedup in the critical write path with SHA-1 on every
    /// chunk (the paper's inline comparison point).
    Inline,
    /// NV-Dedup-style workload-adaptive inline dedup: weak fingerprint
    /// first, strong only on weak hits, DRAM-indexed metadata — the Eq. 4/5
    /// scheme the paper proves cannot win on Optane-class latency.
    InlineAdaptive,
    /// DeNova-Immediate: offline dedup, daemon polls the DWQ aggressively.
    Immediate,
    /// DeNova-Delayed(n, m): daemon triggers every `interval_ms`, consuming
    /// at most `batch` DWQ nodes.
    Delayed {
        /// Trigger interval `n` in milliseconds.
        interval_ms: u64,
        /// Max DWQ nodes `m` consumed per trigger.
        batch: usize,
    },
}

impl DedupMode {
    /// Whether foreground write entries are tagged as dedup candidates.
    fn tags_writes(&self) -> bool {
        matches!(self, DedupMode::Immediate | DedupMode::Delayed { .. })
    }

    fn daemon_config(&self) -> Option<DaemonConfig> {
        match *self {
            DedupMode::Immediate => Some(DaemonConfig::immediate()),
            DedupMode::Delayed { interval_ms, batch } => {
                Some(DaemonConfig::delayed(interval_ms, batch))
            }
            _ => None,
        }
    }
}

impl std::fmt::Display for DedupMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DedupMode::Baseline => write!(f, "Baseline NOVA"),
            DedupMode::Inline => write!(f, "DeNova-Inline"),
            DedupMode::InlineAdaptive => write!(f, "NV-Dedup-Adaptive"),
            DedupMode::Immediate => write!(f, "DeNova-Immediate"),
            DedupMode::Delayed { interval_ms, batch } => {
                write!(f, "DeNova-Delayed({interval_ms},{batch})")
            }
        }
    }
}

/// The assembled DeNova stack: NOVA + FACT + DWQ + daemon, in one of the
/// four evaluation modes.
pub struct Denova {
    nova: Arc<Nova>,
    fact: Arc<Fact>,
    /// Present only in `InlineAdaptive` mode (shares the FACT region).
    nvd: Option<Arc<NvDedupTable>>,
    dwq: Arc<Dwq>,
    stats: Arc<DedupStats>,
    mode: DedupMode,
    daemon: Option<Daemon>,
    /// Dedup worker threads (and DWQ shards) this mount was assembled with.
    dedup_workers: usize,
    /// Closed-loop SLO controller thread, when `slo_write_p99_ns` is set.
    slo: Option<qos::SloDriver>,
}

impl Denova {
    /// Format `dev` and mount in `mode`.
    pub fn mkfs(dev: Arc<PmemDevice>, mut opts: NovaOptions, mode: DedupMode) -> Result<Denova> {
        opts.dedup_enabled = mode.tags_writes();
        let workers = opts.dedup_workers.max(1);
        let slo_target = opts.slo_write_p99_ns;
        let extent_threshold = opts.extent_threshold_pages;
        let nova = Arc::new(Nova::mkfs(dev.clone(), opts)?);
        let stats = Arc::new(DedupStats::new(dev.metrics()));
        let fact = Arc::new(Fact::new(dev, *nova.layout(), stats.clone()));
        fact.set_extent_threshold_pages(extent_threshold);
        let dwq = Arc::new(Dwq::with_shards(
            stats.clone(),
            nova.device().metrics().clone(),
            workers,
        ));
        Ok(Self::assemble_with_dwq(
            nova, fact, dwq, stats, mode, workers, slo_target,
        ))
    }

    /// Mount an existing file system in `mode`, running NOVA recovery and —
    /// unless the last unmount was clean — the dedup recovery procedure.
    pub fn mount(dev: Arc<PmemDevice>, mut opts: NovaOptions, mode: DedupMode) -> Result<Denova> {
        // Read the clean flag before NOVA mount clears it.
        let was_clean =
            superblock::read_superblock(&dev).is_ok() && superblock::was_clean_unmount(&dev);
        opts.dedup_enabled = mode.tags_writes();
        let workers = opts.dedup_workers.max(1);
        let slo_target = opts.slo_write_p99_ns;
        let extent_threshold = opts.extent_threshold_pages;
        let nova = Arc::new(Nova::mount(dev.clone(), opts)?);
        let pending = nova.take_pending_dedup();
        let stats = Arc::new(DedupStats::new(dev.metrics()));
        // Device reads from here on are the dedup layer's share of the mount.
        let reads0 = dev.stats().snapshot().reads;
        let fact = Arc::new(recovery::phase(dev.metrics(), "fact.mount", || {
            Fact::mount(dev.clone(), *nova.layout(), stats.clone())
        }));
        fact.set_extent_threshold_pages(extent_threshold);
        let dwq = Arc::new(Dwq::with_shards(
            stats.clone(),
            dev.metrics().clone(),
            workers,
        ));
        if mode != DedupMode::Baseline {
            if was_clean {
                dwq.restore(&dev, nova.layout());
            } else {
                recovery::recover(&nova, &fact, &dwq, &pending)?;
            }
        }
        dev.metrics()
            .counter("denova.mount.pm_reads")
            .add(dev.stats().snapshot().reads - reads0);
        Ok(Self::assemble_with_dwq(
            nova, fact, dwq, stats, mode, workers, slo_target,
        ))
    }

    fn assemble_with_dwq(
        nova: Arc<Nova>,
        fact: Arc<Fact>,
        dwq: Arc<Dwq>,
        stats: Arc<DedupStats>,
        mode: DedupMode,
        workers: usize,
        slo_target: u64,
    ) -> Denova {
        let mut nvd = None;
        match mode {
            DedupMode::Baseline => {}
            DedupMode::InlineAdaptive => {
                // The adaptive baseline repurposes the FACT region as an
                // NV-Dedup-style metadata table with DRAM indexes.
                let table = Arc::new(NvDedupTable::new(
                    nova.device().clone(),
                    *nova.layout(),
                    stats.clone(),
                ));
                nova.set_hooks(Arc::new(adaptive::NvDedupHooks::new(table.clone())));
                nvd = Some(table);
            }
            _ => {
                nova.set_hooks(Arc::new(DenovaHooks::new(
                    fact.clone(),
                    dwq.clone(),
                    mode.tags_writes(),
                )));
            }
        }
        let daemon = mode.daemon_config().map(|cfg| {
            Daemon::spawn(
                nova.clone(),
                fact.clone(),
                dwq.clone(),
                cfg.with_workers(workers),
            )
        });
        let slo = (slo_target > 0).then(|| {
            qos::SloDriver::spawn(
                qos::SloConfig::new(slo_target),
                nova.device().metrics(),
                fact.clone(),
                std::time::Duration::from_millis(100),
                8,
            )
        });
        Denova {
            nova,
            fact,
            nvd,
            dwq,
            stats,
            mode,
            daemon,
            dedup_workers: workers,
            slo,
        }
    }

    // ------------------------------------------------------------------
    // File operations (delegated; write dispatches on mode)
    // ------------------------------------------------------------------

    /// Create an empty file.
    pub fn create(&self, name: &str) -> Result<u64> {
        self.nova.create(name)
    }

    /// Look up a file.
    pub fn open(&self, name: &str) -> Result<u64> {
        self.nova.open(name)
    }

    /// Write `data` at `offset`; in `Inline` mode this runs the inline dedup
    /// write path, otherwise the plain NOVA write (whose committed entries
    /// the hooks enqueue for the daemon).
    pub fn write(&self, ino: u64, offset: u64, data: &[u8]) -> Result<()> {
        match self.mode {
            DedupMode::Inline => inline::write_inline(&self.nova, &self.fact, ino, offset, data),
            DedupMode::InlineAdaptive => adaptive::write_inline_adaptive(
                &self.nova,
                self.nvd.as_ref().expect("adaptive table present"),
                ino,
                offset,
                data,
            ),
            _ => self.nova.write(ino, offset, data),
        }
    }

    /// Read up to `len` bytes at `offset`.
    pub fn read(&self, ino: u64, offset: u64, len: usize) -> Result<Vec<u8>> {
        self.nova.read(ino, offset, len)
    }

    /// Remove a file.
    pub fn unlink(&self, name: &str) -> Result<()> {
        self.nova.unlink(name)
    }

    /// Truncate a file.
    pub fn truncate(&self, ino: u64, new_size: u64) -> Result<()> {
        self.nova.truncate(ino, new_size)
    }

    /// File size in bytes.
    pub fn file_size(&self, ino: u64) -> Result<u64> {
        self.nova.file_size(ino)
    }

    // ------------------------------------------------------------------
    // Dedup control and introspection
    // ------------------------------------------------------------------

    /// The mounted mode.
    pub fn mode(&self) -> DedupMode {
        self.mode
    }

    /// The underlying file system.
    pub fn nova(&self) -> &Arc<Nova> {
        &self.nova
    }

    /// The FACT handle.
    pub fn fact(&self) -> &Arc<Fact> {
        &self.fact
    }

    /// The work queue.
    pub fn dwq(&self) -> &Arc<Dwq> {
        &self.dwq
    }

    /// Dedup worker threads (and DWQ shards) this mount runs with.
    pub fn dedup_workers(&self) -> usize {
        self.dedup_workers
    }

    /// Dedup statistics.
    pub fn stats(&self) -> &Arc<DedupStats> {
        &self.stats
    }

    /// The closed-loop SLO controller, when this mount runs with
    /// `NovaOptions::slo_write_p99_ns` set.
    pub fn slo_controller(&self) -> Option<&Arc<SloController>> {
        self.slo.as_ref().map(|d| d.controller())
    }

    /// Block until the daemon has processed every queued node (no-op in
    /// Baseline/Inline modes).
    pub fn drain(&self) {
        if let Some(d) = &self.daemon {
            d.drain();
        }
    }

    /// Enable the daemon's periodic FACT scrub (Section V-C2's background
    /// monitor). No-op in modes without a daemon.
    pub fn set_periodic_scrub(&self, interval: std::time::Duration) {
        if let Some(d) = &self.daemon {
            d.set_scrub_interval(interval);
        }
    }

    /// Run the FACT scrubber (quiesces the daemon first by draining).
    pub fn scrub(&self) -> Result<u64> {
        self.drain();
        recovery::scrub(&self.nova, &self.fact)
    }

    /// Run `f` with the dedup worker pool quiesced: no dedup batch or scrub
    /// is in flight anywhere in the pool while `f` runs. The replication
    /// layer captures crash-consistent device snapshots under this. No-op
    /// wrapper in modes without a daemon.
    pub fn quiesce<R>(&self, f: impl FnOnce() -> R) -> R {
        match &self.daemon {
            Some(d) => d.with_quiesced(f),
            None => f(),
        }
    }

    /// Bytes of storage the dedup layer has saved so far.
    pub fn bytes_saved(&self) -> u64 {
        self.stats.bytes_saved()
    }

    /// Bytes currently saved by sharing, derived from persistent FACT state
    /// (sum of `(RFC − 1) · 4 KB` over occupied entries). Unlike
    /// [`Denova::bytes_saved`] — a session counter — this survives remounts.
    pub fn persistent_bytes_saved(&self) -> u64 {
        let mut extra_refs = 0u64;
        self.fact.for_each_occupied(|_, e| {
            extra_refs += e.rfc.saturating_sub(1) as u64;
        });
        extra_refs * denova_pmem::PAGE_SIZE as u64
    }

    /// DRAM consumed by dedup *index* structures: always 0 for FACT-based
    /// modes (the paper's headline property); nonzero for the NV-Dedup-style
    /// adaptive baseline.
    pub fn dedup_index_dram_bytes(&self) -> u64 {
        self.nvd.as_ref().map_or(0, |t| t.dram_index_bytes())
    }

    /// Cleanly unmount: stop the daemon, save the DWQ to PM, persist the
    /// clean flag. Consumes the handle.
    pub fn unmount(mut self) {
        if let Some(mut s) = self.slo.take() {
            s.stop();
        }
        if let Some(d) = self.daemon.take() {
            d.stop();
        }
        if self.mode != DedupMode::Baseline {
            self.dwq.save(self.nova.device(), self.nova.layout());
        }
        self.nova.unmount();
    }
}

impl std::fmt::Debug for Denova {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Denova")
            .field("mode", &self.mode.to_string())
            .field("files", &self.nova.file_count())
            .field("dwq_len", &self.dwq.len())
            .field("bytes_saved", &self.bytes_saved())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> NovaOptions {
        NovaOptions {
            num_inodes: 128,
            ..Default::default()
        }
    }

    fn dev() -> Arc<PmemDevice> {
        Arc::new(PmemDevice::new(32 * 1024 * 1024))
    }

    #[test]
    fn crash_recovery_mount_scans_fact_at_most_three_times() {
        // Without runs: the mount scan and the census/scrub pass. With a
        // run: the orphan-run sweep as well.
        let data: Vec<u8> = (0..8 * 4096).map(|i| (i / 4096 + 1) as u8).collect();
        for (threshold, scans) in [(0u32, 2u64), (4, 3)] {
            let o = NovaOptions {
                extent_threshold_pages: threshold,
                ..opts()
            };
            let fs = Denova::mkfs(dev(), o.clone(), DedupMode::Immediate).unwrap();
            for name in ["a", "b"] {
                let ino = fs.create(name).unwrap();
                fs.write(ino, 0, &data).unwrap();
            }
            fs.drain();
            let image = Arc::new(fs.quiesce(|| {
                fs.nova()
                    .device()
                    .crash_clone(denova_pmem::CrashMode::Strict)
            }));
            let rfs = Denova::mount(image.clone(), o, DedupMode::Immediate).unwrap();
            let fp = denova_fingerprint::Fingerprint::of(&data[..4096]);
            let run = rfs.fact().lookup(&fp).unwrap().1.run_pages;
            assert_eq!(run > 1, threshold > 0);
            let snap = image.metrics().snapshot();
            assert_eq!(
                snap.counter("fact.scans"),
                Some(scans),
                "threshold {threshold}"
            );
            for phase in ["nova.recover", "fact.mount", "denova.recover.census"] {
                assert_eq!(snap.histogram(phase).map(|h| h.count), Some(1), "{phase}");
            }
            assert!(snap.counter("denova.mount.pm_reads").unwrap() > 0);
        }
    }

    #[test]
    fn immediate_mode_end_to_end() {
        let fs = Denova::mkfs(dev(), opts(), DedupMode::Immediate).unwrap();
        let data = vec![0xF0u8; 8192];
        let a = fs.create("a").unwrap();
        let b = fs.create("b").unwrap();
        fs.write(a, 0, &data).unwrap();
        fs.write(b, 0, &data).unwrap();
        fs.drain();
        assert_eq!(fs.read(a, 0, 8192).unwrap(), data);
        assert_eq!(fs.read(b, 0, 8192).unwrap(), data);
        // 2 identical pages per file; 3 of 4 pages saved.
        assert_eq!(fs.bytes_saved(), 3 * 4096);
    }

    #[test]
    fn inline_mode_end_to_end() {
        let fs = Denova::mkfs(dev(), opts(), DedupMode::Inline).unwrap();
        let data = vec![0x0Fu8; 4096];
        let a = fs.create("a").unwrap();
        let b = fs.create("b").unwrap();
        fs.write(a, 0, &data).unwrap();
        fs.write(b, 0, &data).unwrap();
        assert_eq!(fs.bytes_saved(), 4096);
        assert_eq!(fs.read(b, 0, 4096).unwrap(), data);
    }

    #[test]
    fn baseline_mode_never_dedups() {
        let fs = Denova::mkfs(dev(), opts(), DedupMode::Baseline).unwrap();
        let data = vec![0xAAu8; 4096];
        let a = fs.create("a").unwrap();
        let b = fs.create("b").unwrap();
        fs.write(a, 0, &data).unwrap();
        fs.write(b, 0, &data).unwrap();
        fs.drain();
        assert_eq!(fs.bytes_saved(), 0);
        assert!(fs.dwq().is_empty());
        assert_eq!(fs.fact().occupied_count(), 0);
    }

    #[test]
    fn delayed_mode_dedups_eventually() {
        let fs = Denova::mkfs(
            dev(),
            opts(),
            DedupMode::Delayed {
                interval_ms: 10,
                batch: 100,
            },
        )
        .unwrap();
        let data = vec![0xBBu8; 4096];
        for i in 0..4 {
            let ino = fs.create(&format!("f{i}")).unwrap();
            fs.write(ino, 0, &data).unwrap();
        }
        fs.drain();
        assert_eq!(fs.bytes_saved(), 3 * 4096);
    }

    #[test]
    fn clean_unmount_and_remount_restores_dwq() {
        let device = dev();
        let fs = Denova::mkfs(
            device.clone(),
            opts(),
            DedupMode::Delayed {
                interval_ms: 60_000, // never fires
                batch: 1,
            },
        )
        .unwrap();
        let a = fs.create("a").unwrap();
        fs.write(a, 0, &vec![1u8; 4096]).unwrap();
        assert_eq!(fs.dwq().len(), 1);
        fs.unmount();

        let fs2 = Denova::mount(device, opts(), DedupMode::Immediate).unwrap();
        fs2.drain();
        // The restored node was processed by the immediate daemon.
        assert_eq!(fs2.stats().dequeued(), 1);
        let a2 = fs2.open("a").unwrap();
        assert_eq!(fs2.read(a2, 0, 4096).unwrap(), vec![1u8; 4096]);
    }

    #[test]
    fn crash_remount_requeues_and_completes() {
        let device = dev();
        let fs = Denova::mkfs(
            device.clone(),
            opts(),
            DedupMode::Delayed {
                interval_ms: 60_000,
                batch: 1,
            },
        )
        .unwrap();
        let data = vec![7u8; 4096];
        for name in ["a", "b", "c"] {
            let ino = fs.create(name).unwrap();
            fs.write(ino, 0, &data).unwrap();
        }
        // Crash without unmount.
        let crashed = Arc::new(device.crash_clone(denova_pmem::CrashMode::Strict));
        drop(fs);
        let fs2 = Denova::mount(crashed, opts(), DedupMode::Immediate).unwrap();
        fs2.drain();
        assert_eq!(fs2.bytes_saved(), 2 * 4096);
        for name in ["a", "b", "c"] {
            let ino = fs2.open(name).unwrap();
            assert_eq!(fs2.read(ino, 0, 4096).unwrap(), data);
        }
    }

    #[test]
    fn adaptive_mode_end_to_end() {
        let fs = Denova::mkfs(dev(), opts(), DedupMode::InlineAdaptive).unwrap();
        let data = vec![0x5Du8; 8192];
        let a = fs.create("a").unwrap();
        let b = fs.create("b").unwrap();
        fs.write(a, 0, &data).unwrap();
        fs.write(b, 0, &data).unwrap();
        assert_eq!(fs.read(b, 0, 8192).unwrap(), data);
        // 3 of 4 pages deduplicated, and — unlike FACT modes — the DRAM
        // index is nonzero.
        assert_eq!(fs.bytes_saved(), 3 * 4096);
        assert!(fs.dedup_index_dram_bytes() > 0);
        // FACT modes report zero dedup-index DRAM.
        let fs2 = Denova::mkfs(dev(), opts(), DedupMode::Immediate).unwrap();
        assert_eq!(fs2.dedup_index_dram_bytes(), 0);
    }

    #[test]
    fn multi_worker_mount_dedups_and_reports_workers() {
        let fs = Denova::mkfs(
            dev(),
            NovaOptions {
                num_inodes: 128,
                dedup_workers: 4,
                ..Default::default()
            },
            DedupMode::Immediate,
        )
        .unwrap();
        assert_eq!(fs.dedup_workers(), 4);
        assert_eq!(fs.dwq().num_shards(), 4);
        let data = vec![0xE1u8; 4096];
        for i in 0..12 {
            let ino = fs.create(&format!("f{i}")).unwrap();
            fs.write(ino, 0, &data).unwrap();
        }
        fs.drain();
        assert_eq!(fs.bytes_saved(), 11 * 4096);
    }

    #[test]
    fn worker_count_survives_unmount_remount_changes() {
        let device = dev();
        let fs = Denova::mkfs(
            device.clone(),
            NovaOptions {
                num_inodes: 128,
                dedup_workers: 4,
                ..Default::default()
            },
            DedupMode::Delayed {
                interval_ms: 60_000, // never fires
                batch: 1,
            },
        )
        .unwrap();
        let data = vec![0x31u8; 4096];
        for i in 0..6 {
            let ino = fs.create(&format!("f{i}")).unwrap();
            fs.write(ino, 0, &data).unwrap();
        }
        assert_eq!(fs.dwq().len(), 6);
        fs.unmount();
        // Remount with a different worker count: the saved DWQ re-routes.
        let fs2 = Denova::mount(
            device,
            NovaOptions {
                num_inodes: 128,
                dedup_workers: 2,
                ..Default::default()
            },
            DedupMode::Immediate,
        )
        .unwrap();
        assert_eq!(fs2.dedup_workers(), 2);
        fs2.drain();
        assert_eq!(fs2.bytes_saved(), 5 * 4096);
    }

    #[test]
    fn mode_display_names_match_paper() {
        assert_eq!(DedupMode::Baseline.to_string(), "Baseline NOVA");
        assert_eq!(DedupMode::Inline.to_string(), "DeNova-Inline");
        assert_eq!(DedupMode::Immediate.to_string(), "DeNova-Immediate");
        assert_eq!(
            DedupMode::Delayed {
                interval_ms: 750,
                batch: 20000
            }
            .to_string(),
            "DeNova-Delayed(750,20000)"
        );
    }

    #[test]
    fn slo_driver_relaxes_and_restores_throttle() {
        use std::time::{Duration, Instant};
        let device = dev();
        let fs = Denova::mkfs(
            device.clone(),
            NovaOptions {
                num_inodes: 128,
                slo_write_p99_ns: 1_000_000,
                ..Default::default()
            },
            DedupMode::Immediate,
        )
        .unwrap();
        fs.fact().fp().set_extra_ns_per_4k(10_000); // late calibration
        let hist = device.metrics().histogram("nova.write");
        // Feed a breaching p99 until the closed loop sheds all padding.
        let deadline = Instant::now() + Duration::from_secs(30);
        while fs.fact().fp().extra_ns_per_4k() != 0 {
            for _ in 0..16 {
                hist.record(5_000_000);
            }
            assert!(Instant::now() < deadline, "controller never reached Bypass");
            std::thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(fs.slo_controller().unwrap().mode(), QosMode::Bypass);
        // Feed a healthy p99; the calibrated padding must come back.
        let deadline = Instant::now() + Duration::from_secs(30);
        while fs.fact().fp().extra_ns_per_4k() != 10_000 {
            for _ in 0..16 {
                hist.record(100_000);
            }
            assert!(Instant::now() < deadline, "controller never recovered");
            std::thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(fs.slo_controller().unwrap().mode(), QosMode::Full);
        fs.unmount();
    }

    #[test]
    fn scrub_runs_via_handle() {
        let fs = Denova::mkfs(dev(), opts(), DedupMode::Immediate).unwrap();
        let a = fs.create("a").unwrap();
        fs.write(a, 0, &vec![1u8; 4096]).unwrap();
        fs.drain();
        assert_eq!(fs.scrub().unwrap(), 0);
    }
}
