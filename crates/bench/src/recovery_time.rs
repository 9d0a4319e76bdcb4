//! Recovery-time experiment.
//!
//! The paper leans on fast recovery twice: NOVA's per-inode logs allow "high
//! concurrency in … recovery processes" (Section II-A), and after a crash
//! "the DWQ is rebuilt by doing a fast scan on write entries" (Section
//! IV-B1). This experiment measures post-crash mount time — NOVA log-scan
//! recovery plus DeNova's Inconsistency Handling I–III and FACT scrub — as
//! the file count grows, for a baseline mount and a dedup mount.

use crate::report;
use denova::{DedupMode, Denova};
use denova_nova::NovaOptions;
use denova_pmem::{calibrate_spin, CrashMode, LatencyProfile, PmemBuilder};
use denova_workload::{run_write_job, JobSpec};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One measurement row.
#[derive(Debug, Clone)]
pub struct RecoveryRow {
    /// Files on the file system at crash time.
    pub files: usize,
    /// Write entries pending dedup (DWQ rebuild work) at crash time.
    pub pending_dedup: usize,
    /// Post-crash mount time, baseline NOVA.
    pub baseline_ms: f64,
    /// Post-crash mount time, DeNova (incl. DWQ rebuild + UC discard +
    /// FACT scrub).
    pub denova_ms: f64,
}
denova_telemetry::impl_to_json!(RecoveryRow {
    files,
    pending_dedup,
    baseline_ms,
    denova_ms,
});

fn opts(files: usize) -> NovaOptions {
    NovaOptions {
        num_inodes: (files + 64).next_power_of_two() as u64,
        ..Default::default()
    }
}

fn time_mount(dev: &Arc<denova_pmem::PmemDevice>, o: NovaOptions, mode: DedupMode) -> Duration {
    let crashed = Arc::new(dev.crash_clone(CrashMode::Strict));
    crashed.set_latency(LatencyProfile::optane());
    let t0 = Instant::now();
    let fs = Denova::mount(crashed, o, mode).expect("recovery mount");
    let took = t0.elapsed();
    drop(fs);
    took
}

/// Measure recovery time for several file counts. Every file's write entry
/// is still pending dedup at the crash (the Delayed daemon never fires), so
/// the DeNova column includes real DWQ-rebuild work.
pub fn run(file_counts: &[usize]) -> Vec<RecoveryRow> {
    // Calibrate the latency spin now, not inside the first timed mount.
    calibrate_spin();
    file_counts
        .iter()
        .map(|&files| {
            let bytes = crate::device_bytes_for(files * 4096 * 2);
            // Built without injected latency so the set-up is quick;
            // `time_mount` recovers the crash image under the Optane
            // profile. The Delayed daemon's interval never elapses.
            let dev = Arc::new(PmemBuilder::new(bytes).build());
            let fs = Denova::mkfs(
                dev.clone(),
                opts(files),
                DedupMode::Delayed {
                    interval_ms: 600_000,
                    batch: 1,
                },
            )
            .unwrap();
            let spec = JobSpec::small_files(files, 0.5);
            run_write_job(&Arc::new(fs), &spec).unwrap();
            // (Denova dropped; the daemon never ran: all entries pending.)
            let pending = files;

            let baseline = time_mount(&dev, opts(files), DedupMode::Baseline);
            let denova = time_mount(&dev, opts(files), DedupMode::Immediate);
            RecoveryRow {
                files,
                pending_dedup: pending,
                baseline_ms: baseline.as_secs_f64() * 1e3,
                denova_ms: denova.as_secs_f64() * 1e3,
            }
        })
        .collect()
}

/// Render the rows.
pub fn render(rows: &[RecoveryRow]) -> String {
    report::table(
        "Recovery time after crash — NOVA log scan vs DeNova (incl. DWQ rebuild + FACT scrub)",
        &[
            "Files",
            "Pending dedup",
            "Baseline mount (ms)",
            "DeNova mount (ms)",
            "DeNova / baseline",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.files.to_string(),
                    r.pending_dedup.to_string(),
                    format!("{:.1}", r.baseline_ms),
                    format!("{:.1}", r.denova_ms),
                    format!("{:.2}x", r.denova_ms / r.baseline_ms.max(1e-9)),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_scales_roughly_linearly_and_rebuilds_the_queue() {
        let _serial = crate::timing_test_lock();
        crate::retry_timing(3, || {
            let rows = run(&[100, 400]);
            // More files → more scan work (allow generous slack: tiny
            // absolute times are noisy).
            assert!(
                rows[1].denova_ms > rows[0].denova_ms,
                "400 files ({:.2} ms) should out-scan 100 ({:.2} ms)",
                rows[1].denova_ms,
                rows[0].denova_ms
            );
            // The dedup recovery includes the DWQ rebuild + FACT scan, so it
            // costs more than a baseline mount but stays the same order of
            // magnitude ("fast scan").
            for r in &rows {
                assert!(
                    r.denova_ms >= r.baseline_ms * 0.8,
                    "{} files: denova {:.2} vs baseline {:.2}",
                    r.files,
                    r.denova_ms,
                    r.baseline_ms
                );
                assert!(
                    r.denova_ms < r.baseline_ms * 50.0 + 200.0,
                    "{} files: dedup recovery blew up: {:.2} ms vs {:.2} ms",
                    r.files,
                    r.denova_ms,
                    r.baseline_ms
                );
            }
        });
    }

    #[test]
    fn recovered_mount_processes_the_rebuilt_queue() {
        let _serial = crate::timing_test_lock();
        // End-to-end: crash with a full queue, remount Immediate, drain —
        // every pending entry gets deduplicated.
        let dev = Arc::new(PmemBuilder::new(64 * 1024 * 1024).build());
        let fs = Denova::mkfs(
            dev.clone(),
            opts(64),
            DedupMode::Delayed {
                interval_ms: 600_000,
                batch: 1,
            },
        )
        .unwrap();
        let data = vec![0x2Eu8; 4096];
        for i in 0..20 {
            let ino = fs.create(&format!("f{i}")).unwrap();
            fs.write(ino, 0, &data).unwrap();
        }
        assert_eq!(fs.dwq().len(), 20);
        let crashed = Arc::new(dev.crash_clone(CrashMode::Strict));
        drop(fs);
        let fs2 = Denova::mount(crashed, opts(64), DedupMode::Immediate).unwrap();
        fs2.drain();
        assert_eq!(fs2.bytes_saved(), 19 * 4096);
    }
}
