#!/usr/bin/env python3
"""Self-test of the repository benchmark, at a tenth of each workload's scale.

For every workload of perfbench/workloads.json it checks that:
  * both modes (--trace 0 and --trace 1) print every metric BENCHMARK.json
    names, with its unit, and nothing else;
  * the run reports correct, with no failed request (fail_ratio 0);
  * on single-submitter workloads the sim metrics and the counts repeat
    exactly across two runs of one seed.
It also checks that the benchmark refuses to run, without printing a result,
from a directory that holds only BENCHMARK.json and the benchmark's files.

Usage: python3 perfbench/selftest.py      (exit code 0 when every check passes)
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCALE_FACTOR = 0.1
SEED = 3
SECONDS = 1

# Metrics that depend only on the seed when one submitter replays the trace.
EXACT_END_TO_END = ("sim_mean_ms", "sim_p99_ms", "ssd_writes_per_write")
EXACT_PER_LAYER_PREFIXES = ("cache.", "raid.", "sim.", "blockdev.")
EXACT_PER_LAYER = ("kdd.cleanings", "kdd.groups_per_cleaning", "kdd.inline_destage_calls",
                   "kdd.delta_fallbacks_per_kwrite", "compress.delta_bytes")

failures = []


def check(ok, message):
    if not ok:
        failures.append(message)
        print(f"FAIL {message}")


def run(workload, trace, cwd=ROOT, script=BENCH / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", str(trace),
           "--scale-factor", str(SCALE_FACTOR)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


def result_of(done, label):
    lines = done.stdout.strip().splitlines()
    check(done.returncode == 0, f"{label}: exit code {done.returncode}\n{done.stderr[-2000:]}")
    if not lines:
        check(False, f"{label}: no output")
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        check(False, f"{label}: last line is not JSON: {lines[-1][:200]}")
        return None


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = json.loads((BENCH / "workloads.json").read_text())["workloads"]
    for w in spec["workloads"]:
        check(w["name"] in table, f"{w['name']}: not in perfbench/workloads.json")
    for name in table:
        before = len(failures)
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            label = f"{name} --trace {trace}"
            first = result_of(run(name, trace), label)
            if first is None:
                continue
            units = {m["name"]: m["unit"] for m in wanted}
            got = {k: v["unit"] for k, v in first["metrics"].items()}
            check(got == units, f"{label}: metrics/units differ from BENCHMARK.json: "
                                 f"missing {sorted(set(units) - set(got))}, "
                                 f"extra {sorted(set(got) - set(units))}")
            check(first["correct"] is True, f"{label}: not correct")
            check(first["failed"] == 0 and first["attempted"] > 0,
                  f"{label}: failed {first['failed']} of {first['attempted']}")
            if table[name]["submitters"] != 1:
                continue
            second = result_of(run(name, trace), label + " (repeat)")
            if second is None:
                continue
            exact = [n for n in units
                     if n in EXACT_END_TO_END or n in EXACT_PER_LAYER
                     or n.startswith(EXACT_PER_LAYER_PREFIXES)]
            for n in exact:
                a, b = first["metrics"][n]["value"], second["metrics"][n]["value"]
                check(a == b, f"{label}: {n} differs across two runs of seed {SEED}: {a} vs {b}")
        print(f"{'ok  ' if len(failures) == before else 'FAIL'} {name}")

    # A directory with only BENCHMARK.json and the benchmark's files has no
    # sources to build: the benchmark must fail without printing a result.
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(BENCH, bare / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run(spec["workloads"][0]["name"], 0, cwd=bare, script=bare / BENCH.name / "run.py")
    check(done.returncode != 0, "bare directory: exit code 0")
    check(not done.stdout.strip().splitlines()
          or not done.stdout.strip().splitlines()[-1].startswith("{"),
          "bare directory: printed a result")
    shutil.rmtree(bare, ignore_errors=True)
    print("ok   bare directory refused")

    print(f"{len(failures)} failure(s)" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
