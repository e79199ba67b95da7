"""airyqc benchmark: one workload, end-to-end metrics or per-layer trace.

    python3 bench/run.py --workload qc_deep --seed 1 --seconds 10 --trace 0

Run from the root of a checkout with the sources under ``src/``.  Prints a
human-readable summary, then as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the ``end_to_end`` ones of BENCHMARK.json; with
``--trace 1`` they are its ``per_layer`` ones, from a traced run next to an
untraced one.  Exits 1 when a check failed, 2 when there is nothing to
measure and 3, without a result line, when the benchmark itself is out of
date with the program.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from worker import BENCH_ERROR, child_env, monotonic, speed_factor  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END, PER_LAYER = SPEC["end_to_end"], SPEC["per_layer"]

SETUP_RUNS = 5  # set-up-only processes before and again after the measured one
IMPORT_RUNS = 7  # import-only processes for cli.import_s
CHILD_TIMEOUT = 150


def run_worker(args, tmp, *flags):
    """Run worker.py once; return (setup seconds at reference speed, result dict)."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--tmp", str(tmp),
        *flags,
    ]
    before = speed_factor()
    spawned = monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT)
    factor = (before + speed_factor()) / 2
    sys.stderr.write(proc.stderr)
    if proc.returncode == BENCH_ERROR:
        sys.exit(BENCH_ERROR)
    if proc.returncode != 0 or not proc.stdout.strip():
        return None, {"attempted": 1, "failed": 1, "errors": [f"worker exited {proc.returncode}"]}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return (result["ready"] - spawned) * factor, result


def import_seconds():
    """Time of ``import airyqc.cli`` inside a process that does nothing else."""
    code = "import time; t = time.perf_counter(); import airyqc.cli; print(time.perf_counter() - t)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=60)
    proc.check_returncode()
    return float(proc.stdout)


def tail(samples):
    """(percentile, value) of the highest percentile with at least ten of
    the (at least eleven) samples beyond it."""
    n = len(samples)
    return 100 * (n - 10) / n, sorted(samples)[n - 11]


def end_to_end(args, tmp):
    setups, results = [], []

    def setup_only(i):
        setup, result = run_worker(args, tmp / f"setup-{i}", "--setup-only")
        setups.append(setup)
        results.append(result)

    for i in range(SETUP_RUNS):
        setup_only(i)
    setup, main = run_worker(args, tmp / "run")
    setups.append(setup)
    results.append(main)
    for i in range(SETUP_RUNS, 2 * SETUP_RUNS):
        setup_only(i)
    if None in setups or "walls" not in main:
        return results, None, []

    cli = main["cli_ms"]
    percentile, cli_tail = tail(cli)
    values = {
        "wall_s": statistics.median(main["scaled_walls"]),
        "cpu_s": statistics.median(main["scaled_cpus"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": main["peak_rss_kb"] / 1024,
        "cli_p50_ms": statistics.median(cli),
        "cli_tail_ms": cli_tail,
    }
    notes = {
        "wall_s": f"median of {len(main['walls'])} reps at reference speed (unscaled {statistics.median(main['walls']):.4g})",
        "cpu_s": "same reps, CPU of this process and its children",
        "setup_s": f"median of {len(setups)} fresh interpreters",
        "peak_rss_mb": "max over CLI children" if args.workload == "cli_cache" else "workload process",
        "cli_p50_ms": f"median of {len(cli)} CLI processes (unscaled {statistics.median(main['cli_raw_ms']):.4g})",
        "cli_tail_ms": f"p{percentile:.1f} of {len(cli)} CLI processes (10 beyond it)",
    }
    lines = [f"  {m['name']:<12} {values[m['name']]:>12.6g} {m['unit']:<3} {notes[m['name']]}" for m in END_TO_END]
    return results, values, lines


def per_layer(args, tmp):
    imports = [import_seconds() for _ in range(IMPORT_RUNS)]
    _, plain = run_worker(args, tmp / "plain")
    _, traced = run_worker(args, tmp / "traced", "--trace")
    results = [plain, traced]
    if "walls" not in plain or not traced.get("layers"):
        return results, None, []

    reps = traced["layers"]
    values = {name: statistics.median(rep.get(name, 0) for rep in reps) for name in reps[0]}
    calls = values["correlators.hits"] + values["correlators.misses"]
    values["correlators.hit_ratio"] = values["correlators.hits"] / calls if calls else 0.0
    values["cli.import_s"] = statistics.median(imports)
    values.setdefault("cli.invocations", 0)
    values.setdefault("cli.nonzero_exits", 0)
    traced_wall = statistics.median(traced["walls"])
    # at reference speed, so that a change of machine load between the two runs cancels
    values["trace.overhead_s"] = statistics.median(traced["scaled_walls"]) - statistics.median(plain["scaled_walls"])
    values = {m["name"]: values[m["name"]] for m in PER_LAYER}

    lines = [f"  {m['name']:<27} {values[m['name']]:>14.6g} {m['unit']}" for m in PER_LAYER]
    # share of the traced wall time spent in each layer's own code
    shares = {layer: values[f"{layer}.self_s"] for layer in ("correlators", "residues", "polynomials", "wkb", "suites", "cli")}
    shares["cache"] = values["cache.load_s"] + values["cache.save_s"]
    if args.workload == "cli_cache":
        # the CLI as a whole process: everything in the round no other layer took
        shares["cli"] = traced_wall - sum(v for k, v in shares.items() if k != "cli")
    top = max(shares, key=shares.get)
    lines.append("  self-time share of traced wall: " + ", ".join(f"{k} {v / traced_wall:.1%}" for k, v in shares.items()))
    lines.append(f"  dominant layer: {top}  (traced reps {len(reps)}, tracing overhead {values['trace.overhead_s']:.3f} s)")
    return results, values, lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "airyqc" / "__init__.py").is_file():
        print(f"bench: no airyqc sources under {ROOT / 'src'}; nothing to measure", file=sys.stderr)
        return 2

    tmp = ROOT / ".bench_build" / "bench" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        import_seconds()  # writes the bytecode before anything is timed
        measure = per_layer if args.trace else end_to_end
        results, values, lines = measure(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    for r in results:
        for error in r.get("errors", []):
            print(error, file=sys.stderr)
    correct = values is not None and failed == 0
    ratio = failed / attempted if attempted else 1.0
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  fail_ratio {ratio:.6g} ({failed}/{attempted})")
    print("\n".join(lines))
    units = {m["name"]: m["unit"] for m in END_TO_END + PER_LAYER}
    metrics = {name: {"value": value, "unit": units[name]} for name, value in (values or {}).items()}
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
