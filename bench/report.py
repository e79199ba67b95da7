"""Run every workload and print every metric of BENCHMARK.json with its unit.

    python3 bench/report.py                     # seed 1, every workload, end-to-end
    python3 bench/report.py --seeds 10          # ten seeds: median and quartile spread
    python3 bench/report.py --seeds 10 --first-seed 11   # a second set of ten seeds
    python3 bench/report.py --trace             # per-layer metrics as well
    python3 bench/report.py --self-test         # perturbed tables must fail the gates

Each run measures for the ``run_seconds`` of BENCHMARK.json.
The spread of a metric is (Q3 - Q1) / median over the seeds, with the
quartiles of ``statistics.quantiles(values, n=4)``; a spread above a third
of the metric's bound is flagged.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

SELF_TESTED = ("qc_deep", "eo_cross", "poly_rec")


def run(workload, seed, trace):
    seconds = SPEC["run_seconds"]
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=300)
    lines = proc.stdout.strip().splitlines()
    print("\n".join(lines[:-1]), flush=True)
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
    return json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def self_test():
    """Seed <tau_1>_1 = 1/23 into every table; each gated workload must fail."""
    ok = True
    for workload in SELF_TESTED:
        tmp = ROOT / ".bench_build" / "bench" / f"self-test-{workload}"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", "1", "--seconds", "0", "--tmp", str(tmp), "--perturb"]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=300)
        shutil.rmtree(tmp, ignore_errors=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ratio = result["failed"] / result["attempted"]
        verdict = "gates fire" if ratio > 0 else "GATES SILENT"
        ok &= ratio > 0
        print(f"self-test {workload}: tau1 = 1/23 gives fail_ratio {ratio:.4g} ({result['failed']}/{result['attempted']}): {verdict}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        return 0 if self_test() else 1

    seeds = range(args.first_seed, args.first_seed + args.seeds)
    results = {}
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (False, True) if args.trace else (False,):
            results[(workload, trace)] = [run(workload, seed, trace) for seed in seeds]

    all_correct = True
    print(f"\n{'workload':<10} {'metric':<27} {'median':>12} {'unit':<5} {'spread':>7}  bound")
    for (workload, trace), runs in results.items():
        all_correct &= all(r["correct"] for r in runs)
        for m in SPEC["per_layer"] if trace else SPEC["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs if m["name"] in r["metrics"]]
            if not values:
                continue
            median = statistics.median(values)
            s = spread(values) if len(values) > 1 and median else float("nan")
            bound = m.get("bound")
            flag = " <-- above bound/3" if bound and s > bound / 3 and m["name"] != "setup_s" else ""
            bound_text = f"{bound:g}" if bound else ""
            print(f"{workload:<10} {m['name']:<27} {median:>12.6g} {m['unit']:<5} {s:>7.2%}  {bound_text}{flag}")
    print(f"all correct: {all_correct}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
