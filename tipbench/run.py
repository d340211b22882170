#!/usr/bin/env python3
"""Builds and runs the TIP benchmark (see README.md in this directory).

    python3 tipbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 tipbench/run.py --selftest

A run builds the `tipbench` binary from this checkout's sources into
.bench_build/, runs one workload, prints a readable report and, as the
last line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics; with
--trace 1 they are its per_layer metrics, and the report also shows the
tracing overhead against the last untraced run of the same workload.
Every run's full result (seed, nproc, build type, git revision, every
metric) is kept in .bench_build/results/.

--selftest runs every workload briefly, traced and untraced, and checks
that each named metric is printed with its unit and that the workload's
correctness checks pass.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
RESULTS_DIR = BUILD_DIR / "results"
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def load_definition():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} not found")
    return json.loads(path.read_text())


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("engine sources (src/) not found next to tipbench/")
    tree = BUILD_DIR / "tipbench"
    tree.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (tree / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(tree),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(tree), "--target", "tipbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log_path.read_text().splitlines()[-30:]
                raise BenchError("build failed:\n" + "\n".join(tail))
    return tree / "tipbench"


def git_revision():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_binary(binary, workload, seed, seconds, trace):
    """Runs one workload; returns the binary's full result object."""
    work_dir = BUILD_DIR / "work" / f"{workload}-{seed}-{trace}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", str(work_dir), "--rev", git_revision()]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} did not finish in {RUN_TIMEOUT_S} s")
    try:
        if proc.returncode != 0:
            raise BenchError(f"{workload} failed:\n{proc.stderr.strip()}")
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise BenchError(f"{workload} printed no result")
        result = json.loads(lines[-1])
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        stem = f"{workload}-seed{seed}-trace{trace}"
        if trace:
            spans = RESULTS_DIR / f"{stem}.spans.jsonl"
            shutil.move(result["span_file"], spans)
            result["span_file"] = str(spans.relative_to(ROOT))
        (RESULTS_DIR / f"{stem}.json").write_text(json.dumps(result, indent=1))
        return result
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def select_metrics(result, wanted):
    """The BENCHMARK.json metrics `wanted`, taken from the full result."""
    metrics = {}
    for spec in wanted:
        got = result["metrics"].get(spec["name"])
        if got is None:
            raise BenchError(f"metric {spec['name']} was not measured")
        if got["unit"] != spec["unit"]:
            raise BenchError(f"metric {spec['name']} is in {got['unit']}, "
                             f"BENCHMARK.json says {spec['unit']}")
        if not math.isfinite(got["value"]):
            raise BenchError(f"metric {spec['name']} is not finite")
        metrics[spec["name"]] = {"value": got["value"], "unit": got["unit"]}
    return metrics


def summary(result, definition, trace):
    wanted = definition["per_layer" if trace else "end_to_end"]
    return {
        "correct": not result["check_failures"] and result["checks_run"] > 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": select_metrics(result, wanted),
    }


def untraced_reference(workload, seed):
    """The untraced result to compare a traced run with: the same seed if
    it was run, else the most recent untraced run of the workload."""
    same = RESULTS_DIR / f"{workload}-seed{seed}-trace0.json"
    if same.is_file():
        return same
    runs = sorted(RESULTS_DIR.glob(f"{workload}-seed*-trace0.json"),
                  key=lambda p: p.stat().st_mtime)
    return runs[-1] if runs else None


def report(result, definition, trace):
    print(f"tipbench {result['workload']}: seed={result['seed']} "
          f"trace={result['trace']} nproc={result['nproc']} "
          f"sessions={result['sessions']} build={result['build_type']} "
          f"rev={result['rev']}")
    print(f"  window {result['window_s']:.3f} s, {result['attempted']} ops "
          f"attempted, {result['failed']} failed, samples {result['samples']}")
    print(f"  correctness: {result['checks_run']} checks, "
          f"{len(result['check_failures'])} failed")
    for failure in result["check_failures"][:10]:
        print(f"    FAILED: {failure}")
    print(f"  set-up samples (s): {result['setup_samples_s']}")
    layer = {m["name"] for m in definition["per_layer"]}
    for name, m in result["metrics"].items():
        kind = "layer" if name in layer else "e2e"
        print(f"  {kind:5} {name:40} {m['value']:>16.6g} {m['unit']}")
    if not trace:
        return
    ref_path = untraced_reference(result["workload"], result["seed"])
    if ref_path is None:
        print("  tracing overhead: no untraced run of this workload yet")
        return
    ref = json.loads(ref_path.read_text())
    print(f"  tracing overhead (traced - untraced, seed {ref['seed']}):")
    for name, m in result["metrics"].items():
        base = ref["metrics"].get(name)
        if name in layer or base is None:
            continue
        delta = m["value"] - base["value"]
        share = delta / base["value"] * 100 if base["value"] else 0.0
        print(f"    {name:40} {delta:>+14.6g} {m['unit']} ({share:+.1f}%)")


def selftest(binary, definition):
    problems = []
    for workload in [w["name"] for w in definition["workloads"]]:
        for trace in (0, 1):
            started = time.monotonic()
            result = run_binary(binary, workload, 7, 1, trace)
            out = summary(result, definition, trace)
            wanted = definition["per_layer" if trace else "end_to_end"]
            label = f"{workload} trace={trace}"
            if not out["correct"]:
                problems.append(f"{label}: correctness checks failed: "
                                f"{result['check_failures'][:3]}")
            if out["failed"] != 0 or out["attempted"] < 1:
                problems.append(f"{label}: {out['failed']} of "
                                f"{out['attempted']} operations failed")
            if set(out["metrics"]) != {m["name"] for m in wanted}:
                problems.append(f"{label}: metric set differs")
            print(f"selftest {label}: {len(out['metrics'])} metrics, "
                  f"{result['checks_run']} checks, "
                  f"{time.monotonic() - started:.1f} s")
    for problem in problems:
        print(f"selftest FAILED: {problem}")
    print("selftest " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    try:
        definition = load_definition()
        binary = build()
        if args.selftest:
            return selftest(binary, definition)
        names = [w["name"] for w in definition["workloads"]]
        if args.workload not in names:
            raise BenchError(f"--workload must be one of {names}")
        result = run_binary(binary, args.workload, args.seed, args.seconds,
                            args.trace)
        out = summary(result, definition, args.trace)
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    report(result, definition, args.trace)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
