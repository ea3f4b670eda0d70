#!/usr/bin/env python3
"""Repository benchmark: one workload of perfbench/workloads.json, on two clocks.

Builds perfbench/kddbench from the checkout's own sources (into .bench_build at
the repository root), runs it, prints every metric with its unit, a provenance
record, and as the last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, with
--trace 1 its per-layer metrics (spans go to .bench_build/spans/<workload>.csv).
The exit code is 0 only when every check passed.

Usage:
    python3 perfbench/run.py --workload fin1_write --seed 1 --seconds 30 --trace 0

--scale-factor F shrinks every workload (used by perfbench/selftest.py).
"""
import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "kddbench"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def nproc():
    return len(os.sched_getaffinity(0))


def run_logged(cmd, timeout, env=None):
    """Runs a build step; its output goes to stderr so stdout stays parseable."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail(f"failed: {' '.join(cmd)}")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no repository sources at {ROOT / 'src'}; nothing to build")
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not (BUILD / "CMakeCache.txt").is_file():
        run_logged(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                    "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S, env)
    run_logged(["cmake", "--build", str(BUILD), "--target", "kddbench",
                "-j", str(min(4, nproc()))],
               max(1.0, deadline - time.monotonic()), env)


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def revision():
    """The git commit when the checkout is a git work tree, else a digest of
    the sources the benchmark builds (src/ and perfbench/)."""
    if (ROOT / ".git").exists():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                 capture_output=True, text=True, timeout=30)
            if out.returncode == 0:
                return "git:" + out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sources:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale-factor", type=float, default=1.0)
    args = parser.parse_args()

    benchmark_json = ROOT / "BENCHMARK.json"
    if not benchmark_json.is_file():
        fail("BENCHMARK.json not found at the repository root")
    spec = json.loads(benchmark_json.read_text())
    table = json.loads((BENCH / "workloads.json").read_text())["workloads"]
    if args.workload not in table:
        fail(f"unknown workload {args.workload!r}; known: {', '.join(table)}")
    if args.seed < 0 or args.seconds <= 0 or not 0 < args.scale_factor <= 1:
        fail("--seed must be >= 0, --seconds > 0 and --scale-factor in (0, 1]")
    w = table[args.workload]

    build()
    spans = BUILD / "spans" / f"{args.workload}.csv"
    spans.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--name", args.workload, "--preset", w["preset"],
           "--scale", repr(w["scale"] * args.scale_factor),
           "--cache-ratio", repr(w["cache_ratio"]),
           "--submitters", str(min(w["submitters"], nproc())),
           "--warmup", "1" if w["warmup"] else "0",
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--spans", str(spans)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"kddbench did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"kddbench exited with {done.returncode} and printed no result")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"kddbench exited with {done.returncode}; last line is not a result")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    produced = result["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in produced]
    if missing:
        fail(f"kddbench did not report {', '.join(missing)}")
    for m in wanted:
        if produced[m["name"]]["unit"] != m["unit"]:
            fail(f"{m['name']} is in {produced[m['name']]['unit']}, "
                 f"BENCHMARK.json says {m['unit']}")

    record = result["record"]
    record.update(nproc=nproc(), cpu_model=cpu_model(), revision=revision(),
                  trace=args.trace, seconds=args.seconds,
                  scale_factor=args.scale_factor)
    width = max(len(name) for name in produced)
    print(f"== {args.workload} seed={args.seed} trace={args.trace}")
    for name, m in produced.items():
        print(f"{name:<{width}}  {m['value']:>14.6g}  {m['unit']}")
    print("record " + json.dumps(record, sort_keys=True))
    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"metrics": produced, "record": record,
                    "correct": result["correct"], "attempted": result["attempted"],
                    "failed": result["failed"]}, indent=1, sort_keys=True) + "\n")

    correct = bool(result["correct"]) and done.returncode == 0
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {m["name"]: produced[m["name"]] for m in wanted},
    }))
    return 0 if correct and int(result["failed"]) == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
