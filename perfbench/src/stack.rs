//! The stack under test, built from the layers' public constructors, and
//! the measurements shared by every workload.
//!
//! The configuration is fixed and reported with every result:
//! `DedupMode::Immediate` with one dedup worker, the Optane latency profile
//! with spin injection, and the fingerprint throttle at the paper's
//! Table IV cost (11.78 µs per 4 KiB).

use crate::trace::Recorder;
use denova::{DedupMode, Denova, PAPER_FP_NS_PER_4K};
use denova_nova::NovaOptions;
use denova_pmem::{CrashMode, LatencyProfile, PmemBuilder, PmemDevice};
use denova_telemetry::TelemetrySnapshot;
use std::sync::Arc;
use std::time::Instant;

/// Dedup mode of every mount.
pub const MODE: DedupMode = DedupMode::Immediate;
/// Dedup worker threads (and DWQ shards).
pub const DEDUP_WORKERS: usize = 1;
/// Recovery mounts per run; `recover_s` is their median.
pub const RECOVERIES: usize = 3;
/// Slices a measured phase of exchangeable operations is cut into; its
/// latency p50s and rates are the median over slices, so a burst of host
/// noise moves one slice, not the result.
pub const SLICES: usize = 10;

/// A formatted, mounted stack and the device under it.
pub struct Stack {
    pub dev: Arc<PmemDevice>,
    pub fs: Arc<Denova>,
    pub opts: NovaOptions,
}

/// Mount options shared by mkfs and every recovery mount.
pub fn options(num_inodes: u64) -> NovaOptions {
    NovaOptions {
        num_inodes,
        dedup_workers: DEDUP_WORKERS,
        ..NovaOptions::default()
    }
}

/// Calibrate the spin loop, build an Optane device, format it, and
/// calibrate the fingerprint throttle. mkfs runs with injection off: it is
/// set-up, not a modelled user operation.
pub fn mkfs(device_bytes: usize, num_inodes: u64) -> Stack {
    denova_pmem::calibrate_spin();
    let dev = Arc::new(
        PmemBuilder::new(device_bytes)
            .latency(LatencyProfile::optane())
            .build(),
    );
    dev.set_latency(LatencyProfile::none());
    let opts = options(num_inodes);
    let fs = Denova::mkfs(dev.clone(), opts.clone(), MODE).expect("mkfs");
    dev.set_latency(LatencyProfile::optane());
    fs.fact().fp().set_paper_target();
    Stack {
        dev,
        fs: Arc::new(fs),
        opts,
    }
}

/// Run `setup` `times` times, keeping the last stack; returns it with the
/// median set-up time in seconds. Earlier stacks are dropped before the
/// next one is built, so only one device is resident at a time.
pub fn repeated_setup<T>(times: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::with_capacity(times);
    let mut kept = None;
    for _ in 0..times {
        drop(kept.take());
        let t0 = Instant::now();
        kept = Some(setup());
        secs.push(t0.elapsed().as_secs_f64());
    }
    (kept.expect("at least one set-up"), median_f64(&mut secs))
}

/// A Strict power-failure image of `stack`, taken with the dedup pool
/// quiesced so no pass is half-copied. Also returns how long the quiesce
/// waited for the pass in flight, in seconds: dedup work done in that
/// wait belongs to the ingest window, the copy itself does not.
pub fn crash_image(stack: &Stack) -> (Arc<PmemDevice>, f64) {
    let t0 = Instant::now();
    stack.fs.quiesce(|| {
        let waited = t0.elapsed().as_secs_f64();
        (Arc::new(stack.dev.crash_clone(CrashMode::Strict)), waited)
    })
}

/// A fresh device holding `image`'s bytes, so `image` survives a mount.
pub fn copy_of(image: &PmemDevice) -> Arc<PmemDevice> {
    Arc::new(image.crash_clone(CrashMode::Strict))
}

/// Recovery-mount `dev` in DeNova mode; returns the stack and the mount
/// time in seconds.
pub fn recover(dev: Arc<PmemDevice>, opts: &NovaOptions) -> (Denova, f64) {
    let t0 = Instant::now();
    let fs = Denova::mount(dev, opts.clone(), MODE).expect("recovery mount");
    (fs, t0.elapsed().as_secs_f64())
}

/// Recovery-mount `image` `times` times, copies first and `image` itself
/// last; returns the last stack with the median mount time.
pub fn recover_median(
    image: Arc<PmemDevice>,
    opts: &NovaOptions,
    times: usize,
    rec: &mut Recorder,
) -> (Denova, f64) {
    let mut secs = Vec::with_capacity(times);
    for _ in 1..times {
        let copy = copy_of(&image);
        let ((fs, s), _) = rec.call("phase.recover", || recover(copy, opts));
        secs.push(s);
        drop(fs);
    }
    let ((fs, s), _) = rec.call("phase.recover", || recover(image, opts));
    secs.push(s);
    eprintln!("recovery mounts: {secs:.3?} s");
    (fs, median_f64(&mut secs))
}

/// `Nova::mount` alone (log scan, no dedup recovery) of a copy of `image`,
/// in seconds.
pub fn nova_mount_copy(image: &PmemDevice, opts: &NovaOptions) -> f64 {
    let copy = copy_of(image);
    let mut o = opts.clone();
    o.dedup_enabled = true;
    let t0 = Instant::now();
    let nova = denova_nova::Nova::mount(copy, o).expect("nova mount");
    let secs = t0.elapsed().as_secs_f64();
    drop(nova);
    secs
}

/// The end-of-run audit: NOVA fsck, FACT fsck, and a scrub that must fix
/// nothing. Returns the problems found (empty when clean).
pub fn audit(fs: &Denova) -> Vec<String> {
    fs.drain();
    let mut problems = Vec::new();
    match denova_nova::fsck(fs.nova(), true) {
        Ok(r) if r.is_clean() => {}
        Ok(r) => problems.push(format!("fsck: {:?}", r.errors)),
        Err(e) => problems.push(format!("fsck failed: {e}")),
    }
    match denova::fsck::fsck_fact(fs.nova(), fs.fact()) {
        Ok(r) if r.is_clean() => {}
        Ok(r) => problems.push(format!("fsck_fact: {:?}", r.errors)),
        Err(e) => problems.push(format!("fsck_fact failed: {e}")),
    }
    match fs.scrub() {
        Ok(0) => {}
        Ok(n) => problems.push(format!("scrub fixed {n} FACT entries")),
        Err(e) => problems.push(format!("scrub failed: {e}")),
    }
    problems
}

/// Data and log blocks in use per logical 4 KiB page.
pub fn space_amp(fs: &Denova, logical_pages: u64) -> f64 {
    let used = fs.nova().layout().data_blocks() - fs.nova().free_blocks();
    used as f64 / logical_pages as f64
}

/// A `key: value` field of `/proc/self/status`, first number only.
fn proc_status(key: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|n| n.parse().ok())
        })
        .unwrap_or(0)
}

/// Resident set size in MiB.
pub fn rss_mb() -> f64 {
    proc_status("VmRSS:") as f64 / 1024.0
}

/// Threads of this process.
pub fn threads() -> u64 {
    proc_status("Threads:")
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Counter `name` in `after` minus the same in `before`.
pub fn delta(after: &TelemetrySnapshot, before: &TelemetrySnapshot, name: &str) -> u64 {
    after
        .counter(name)
        .unwrap_or(0)
        .saturating_sub(before.counter(name).unwrap_or(0))
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Nearest-rank percentile `q` of `v` (sorts in place); 0 when empty.
pub fn pct(v: &mut [u64], q: f64) -> u64 {
    if v.is_empty() {
        return 0;
    }
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of `v` (sorts in place).
pub fn median_f64(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The fixed configuration, reported with every result.
pub fn provenance_fields() -> Vec<(&'static str, String)> {
    vec![
        ("nproc", nproc().to_string()),
        ("latency_profile", LatencyProfile::optane().name.to_string()),
        ("injection", "spin".to_string()),
        ("fp_target_ns_per_4k", PAPER_FP_NS_PER_4K.to_string()),
        ("dedup_mode", MODE.to_string()),
        ("dedup_workers", DEDUP_WORKERS.to_string()),
    ]
}

/// Cleanly unmount a stack nobody else holds (stops the dedup pool, which
/// also flushes its threads' span buffers into the registry).
pub fn unmount(fs: Arc<Denova>) {
    Arc::try_unwrap(fs)
        .expect("stack still shared at unmount")
        .unmount();
}

/// Burst-robust p50: the median over `groups` of each group's p50.
pub fn median_p50(groups: &[Vec<u64>]) -> f64 {
    let mut p50s: Vec<f64> = groups
        .iter()
        .filter(|g| !g.is_empty())
        .map(|g| pct(&mut g.clone(), 0.5) as f64)
        .collect();
    if p50s.is_empty() {
        0.0
    } else {
        median_f64(&mut p50s)
    }
}

/// Burst-robust length of a phase timed in `n` equal slices: `n` times
/// the median slice, from the slice boundaries `marks` (seconds since the
/// phase began, `n + 1` values starting at 0).
pub fn robust_span(marks: &[f64]) -> f64 {
    let mut slices: Vec<f64> = marks.windows(2).map(|w| w[1] - w[0]).collect();
    slices.len() as f64 * median_f64(&mut slices)
}

/// Late-to-early cost ratio of a series in recorded order: the p50 of its
/// last tenth over the p50 of its first tenth.
pub fn growth(series: &[u64]) -> f64 {
    let n = series.len() / 10;
    if n == 0 {
        return 0.0;
    }
    let first = pct(&mut series[..n].to_vec(), 0.5);
    let last = pct(&mut series[series.len() - n..].to_vec(), 0.5);
    ratio(last as f64, first as f64)
}
