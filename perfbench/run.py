#!/usr/bin/env python3
"""Run one workload of the DeNova benchmark and print its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --write-manifest

Run from the repository root. The first call builds the benchmark
(`perfbench/Cargo.toml`, a package of its own) into `$CARGO_TARGET_DIR`,
default `.bench_build`. The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`:

* `--trace 0`: every end-to-end metric of `perfbench/metrics.json`;
* `--trace 1`: every per-layer metric. The workload runs twice on the same
  seed, untraced and then traced, each with one set-up, one round and one
  recovery mount; `trace.overhead` is the traced minus the untraced
  `write_p50_us`, and the traced run's spans are written to
  `<target dir>/traces/<workload>-seed<n>.tsv`.

`--write-manifest` regenerates `BENCHMARK.json` from `perfbench/metrics.json`,
which also records, for every per-layer metric, its layer, how it is
measured, and which end-to-end metric it should move on which workload.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = BENCH / "metrics.json"
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def write_manifest(spec):
    manifest = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": spec["run_seconds"],
        "workloads": [{"name": w["name"], "why": w["why"]} for w in spec["workloads"]],
        "end_to_end": [
            {k: m[k] for k in ("name", "unit", "better", "bound")} for m in spec["end_to_end"]
        ],
        "per_layer": [{k: m[k] for k in ("name", "unit", "better")} for m in spec["per_layer"]],
    }
    path = ROOT / "BENCHMARK.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n")
    log(f"wrote {path}")


def target_dir():
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return target if target.is_absolute() else ROOT / target


def build():
    """Build the benchmark binary; exit non-zero if the sources are missing."""
    target = target_dir()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(BENCH / "Cargo.toml")]
    r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if r.returncode != 0:
        log("perfbench: build failed")
        sys.exit(1)
    return target / "release" / "denova-perfbench"


def source_digest():
    """SHA-256 over the sources the binary is built from (the checkout may
    not be a git repository, so this stands in for the commit)."""
    h = hashlib.sha256()
    roots = [ROOT / "crates", BENCH]
    files = sorted(p for r in roots for p in r.rglob("*")
                   if p.is_file() and p.suffix in (".rs", ".toml", ".lock", ".json", ".py"))
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def commit():
    try:
        r = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def run_binary(binary, args, trace_out=None):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.trace:
        cmd.append("--once")
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                       timeout=RUN_TIMEOUT_S)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        log(f"perfbench: {' '.join(cmd)} exited with {r.returncode}")
        sys.exit(1)
    return json.loads(lines[-1])


def select(result, names):
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        log(f"perfbench: the run did not report {missing}")
        sys.exit(1)
    return {n: result["metrics"][n] for n in names}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-manifest", action="store_true")
    args = p.parse_args()
    spec = load_spec()
    if args.write_manifest:
        write_manifest(spec)
        return
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        p.error(f"--workload must be one of {workloads}")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    binary = build()
    untraced = run_binary(binary, args)
    runs = [untraced]
    if args.trace:
        trace_out = target_dir() / "traces" / f"{args.workload}-seed{args.seed}.tsv"
        traced = run_binary(binary, args, trace_out)
        runs.append(traced)
        metrics = select(traced, [m["name"] for m in spec["per_layer"] if m["name"] != "trace.overhead"])
        metrics["trace.overhead"] = {
            "value": traced["metrics"]["write_p50_us"]["value"]
            - untraced["metrics"]["write_p50_us"]["value"],
            "unit": "us",
        }
    else:
        metrics = select(untraced, [m["name"] for m in spec["end_to_end"]])

    provenance = dict(untraced["provenance"], commit=commit(), source_digest=source_digest(),
                      seconds=str(args.seconds))
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for r in runs:
        for problem in r["problems"]:
            print(f"problem ({'traced' if r is not untraced else 'untraced'}): {problem}")
    for name, m in metrics.items():
        print(f"{args.workload:>13} {name:<34} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
