//! DeNova end-to-end benchmark.
//!
//! ```text
//! denova-perfbench --workload <ingest_small|serve_mixed|image_backup>
//!                  --seed <n> --seconds <s> [--once] [--trace-out <file.tsv>]
//! ```
//!
//! Builds the stack from the layers' public constructors, runs one
//! workload, checks every output, and prints one JSON object as its last
//! line: `correct`, `attempted`, `failed`, `problems`, `provenance` and
//! `metrics` (name → value and unit). With `--trace-out` the run is traced:
//! the registry's spans are on, the benchmark's own spans are written to
//! the given file, and the per-layer metrics are added to `metrics`. A
//! traced run, or one given `--once`, does one set-up, one round and one
//! recovery mount instead of the repetitions the end-to-end figures use.
//! `perfbench/run.py` drives it; see `perfbench/README.md`.

mod fixed;
mod image;
mod ingest;
mod layers;
mod serve;
mod stack;
mod trace;

use std::path::PathBuf;

/// What one run of a workload hands back.
#[derive(Default)]
pub struct Outcome {
    /// User operations attempted (writes, reads and post-recovery checks).
    pub attempted: u64,
    /// Of those, error returns, wrong bytes and lost acknowledged writes.
    pub failed: u64,
    /// Audit findings and the first few failures, for the log.
    pub problems: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
    /// Workload-specific configuration, reported with the result.
    pub provenance: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Record a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Count one failed operation, keeping the first few descriptions.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(what);
        }
    }
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace_out: Option<PathBuf>,
    /// One set-up, one round and one recovery mount, the shape of a traced
    /// run (`--once`, or implied by `--trace-out`).
    pub once: bool,
}

impl Args {
    /// `n` repetitions of a set-up, round or mount, or 1 in a `once` run.
    pub fn reps(&self, n: usize) -> usize {
        if self.once {
            1
        } else {
            n
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0;
    let mut trace_out = None;
    let mut once = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
            "--once" => once = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} outside (0, 600]"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        once: once || trace_out.is_some(),
        trace_out,
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("denova-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let traced = args.trace_out.is_some();
    let trace = trace::Trace::new(traced);
    let mut out = match args.workload.as_str() {
        "ingest_small" => ingest::run(&args, &trace),
        "serve_mixed" => serve::run(&args, &trace),
        "image_backup" => image::run(&args, &trace),
        other => {
            eprintln!("denova-perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    if let Some(path) = &args.trace_out {
        match trace.write_tsv(path) {
            Ok(n) => eprintln!("wrote {n} spans to {}", path.display()),
            Err(e) => out.problems.push(format!("writing trace: {e}")),
        }
    }
    out.metric(
        "error_rate",
        stack::ratio(out.failed as f64, out.attempted as f64),
        "ratio",
    );

    let mut provenance = stack::provenance_fields();
    provenance.append(&mut out.provenance);
    provenance.push(("seed", args.seed.to_string()));
    provenance.push(("traced", traced.to_string()));
    let correct = out.failed == 0 && out.problems.is_empty() && out.attempted > 0;
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(n),
                json_num(*v),
                json_str(u)
            )
        })
        .collect();
    let prov: Vec<String> = provenance
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect();
    let problems: Vec<String> = out.problems.iter().map(|p| json_str(p)).collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"problems\":[{}],\"provenance\":{{{}}},\"metrics\":{{{}}}}}",
        out.attempted,
        out.failed,
        problems.join(","),
        prov.join(","),
        metrics.join(",")
    );
}
