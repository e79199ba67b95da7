"""One benchmark process: set up a workload, time it, check every result.

Run by ``run.py`` in a fresh interpreter, one process, no extra threads::

    python3 bench/worker.py --workload qc_deep --seed 1 --seconds 20 --tmp DIR [--trace] [--setup-only] [--perturb]

It prints one JSON object on stdout.  ``ready`` is the CLOCK_MONOTONIC
reading just before the first timed operation, so the parent can measure
set-up time from interpreter start.  The timed section repeats the
workload's fixed work (a rep) until ``--seconds`` have passed, at least
``MIN_REPS`` times, and includes the correctness gates.  Every timing is
also given scaled to a reference speed of the machine (``speed_factor``);
see README.md for why.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import signal
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_REPS = 3
BENCH_ERROR = 3  # exit code when the benchmark itself, not the program, is at fault
PROBES_PER_REP = 10  # CLI invocations timed after each rep of an in-process workload

QC_ORDER = 15
EO_MAX_CHI = 6
POLY_MAX_CHI = 7
CACHE_MAX_CHI = 10


def monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env():
    """Environment of every child: the package from ``src/``, no default cache."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("AIRYQC_CACHE", None)
    return env


def cpu_times():
    """CPU seconds of this process plus its waited-for children."""
    own, children = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


# ---------------------------------------------------------------------------
# machine speed: every timed sample is scaled to a fixed speed of this machine

REFERENCE_SECONDS = 0.001  # reference_loop() on an unloaded core of the 2-core box
LAP_SECONDS = 0.1  # a timer closes a lap this often inside an in-process rep


def reference_loop():
    """A fixed pure-Python loop of the kind of work airyqc does: Fraction
    arithmetic and small-dict updates.  It never calls the package, so no
    change to the program moves its time."""
    acc = {}
    x = Fraction(0)
    for i in range(1, 200):
        x += Fraction(i, 2 * i + 1) * Fraction(3, i + 2)
        key = (i % 7, i % 5)
        acc[key] = acc.get(key, 0) + 1
    return x


def speed_factor():
    """REFERENCE_SECONDS over the least of five timings of reference_loop():
    below 1 while the shared machine runs slow."""
    best = math.inf
    for _ in range(5):
        start = time.perf_counter()
        reference_loop()
        best = min(best, time.perf_counter() - start)
    return REFERENCE_SECONDS / best


class LapClock:
    """Lap boundaries, each with the speed factor measured there.

    A boundary is marked at the start and end of every rep, around every
    CLI process, and, when ``start`` is given ``every``, by a SIGALRM timer
    every ``every`` seconds: laps follow the clock, not the program's calls,
    and nothing in the package is patched.  The speed check's own time is
    left out of every lap.
    """

    def __init__(self):
        self.paused_wall = self.paused_cpu = 0.0
        self.marks = []

    def start(self, every=0.0):
        self.marks = []
        self.mark()
        if every:
            signal.signal(signal.SIGALRM, lambda signum, frame: self.mark())
            signal.setitimer(signal.ITIMER_REAL, every, every)

    def stop(self):
        """Stop the timer and close the last lap."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.mark()

    def mark(self):
        """Close the current lap and open the next."""
        now = time.perf_counter()
        cpu = cpu_times()
        factor = speed_factor()
        self.paused_wall += time.perf_counter() - now
        self.paused_cpu += cpu_times() - cpu
        self.marks.append((time.perf_counter() - self.paused_wall, cpu_times() - self.paused_cpu, factor))

    def rep_seconds(self):
        """(wall, scaled wall, scaled cpu) from the first mark to the last;
        each lap is scaled by the mean of the factors at its two ends."""
        wall = self.marks[-1][0] - self.marks[0][0]
        scaled_wall = scaled_cpu = 0.0
        for a, b in zip(self.marks, self.marks[1:]):
            factor = (a[2] + b[2]) / 2
            scaled_wall += (b[0] - a[0]) * factor
            scaled_cpu += (b[1] - a[1]) * factor
        return wall, scaled_wall, scaled_cpu


# ---------------------------------------------------------------------------
# third route to S_n (DLMF 9.7.2), independent of DVV and of EO


def airy_s_minus(N: int) -> dict:
    """S_n on the minus branch for 2 <= n <= N, from the Airy asymptotic
    series: S_n = 3^(n-1) [h^(n-1)] log sum_k (-1)^k u_k h^k with
    u_k = (2k+1)(2k+3)...(6k-1) / (216^k k!)."""
    a = [Fraction(1)]
    for k in range(1, N):
        num = 1
        for f in range(2 * k + 1, 6 * k, 2):
            num *= f
        fact = 1
        for f in range(2, k + 1):
            fact *= f
        a.append(Fraction((-1) ** k * num, 216**k * fact))
    # L = log A with A_0 = 1:  m L_m = m a_m - sum_{j=1}^{m-1} j L_j a_{m-j}
    L = [Fraction(0)] * N
    for m in range(1, N):
        L[m] = a[m] - sum((j * L[j] * a[m - j] for j in range(1, m)), Fraction(0)) / m
    return {n: 3 ** (n - 1) * L[n - 1] for n in range(2, N + 1)}


# ---------------------------------------------------------------------------
# workloads: setup() makes inputs and fixtures, rep() runs the timed work
# with its gates and returns (checks attempted, checks failed)


class Workload:
    def __init__(self, args, airyqc):
        self.args = args
        self.q = airyqc
        self.tmp = Path(args.tmp)
        self.tau1 = Fraction(1, 23) if args.perturb else Fraction(1, 24)
        self.cli_ms = []  # scaled to the reference speed
        self.cli_raw_ms = []
        self.cli_laps = []  # (raw ms, index of the mark before it) not yet scaled
        self.clock = LapClock()
        self.round_layers = {}  # per-layer counts gathered outside this process

    def table(self):
        return self.q.CorrelatorTable(tau1=self.tau1)

    def setup(self):
        """Make the inputs and fixtures; in-process workloads also set
        ``self.probes``, the [(argv, expected stdout)] of their CLI probes."""

    def probe(self):
        return self.probes[len(self.cli_raw_ms) % len(self.probes)]

    def run_cli(self, argv, trace=None):
        """Run one CLI process, record its latency; return the completed process."""
        env = child_env()
        if trace is None:
            cmd = [sys.executable, "-m", "airyqc", *argv]
        else:
            cmd = [sys.executable, str(ROOT / "bench" / "traced_cli.py"), *argv]
            env["AIRYQC_BENCH_TRACE_OUT"] = str(trace)
        self.clock.mark()
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=self.tmp, timeout=120)
        raw = (time.perf_counter() - start) * 1000
        self.cli_raw_ms.append(raw)
        self.cli_laps.append((raw, len(self.clock.marks) - 1))
        self.add_layers({"cli.invocations": 1, "cli.nonzero_exits": int(proc.returncode != 0)})
        return proc

    def scale_cli(self):
        """After the closing mark: scale each CLI latency since the last call
        by the mean of the factors of its own mark and the next one."""
        factors = [mark[2] for mark in self.clock.marks]
        self.cli_ms += [raw * (factors[i] + factors[i + 1]) / 2 for raw, i in self.cli_laps]
        self.cli_laps = []

    def add_layers(self, summary):
        for name, value in summary.items():
            self.round_layers[name] = self.round_layers.get(name, 0) + value


def _ok_lines(checks):
    return "".join(c.line() + "\n" for c in checks)


class QcDeep(Workload):
    """quantum_curve_report(N, +-1) from one fresh table, plus the Airy oracle."""

    def setup(self):
        self.oracle = airy_s_minus(QC_ORDER)
        self.probes = [(["verify", "quantum-curve", "--order", "8"], _ok_lines(self.q.suites.suite_quantum_curve(8, self.table())))]

    def rep(self):
        table = self.table()
        attempted = failed = 0
        for branch in (1, -1):
            report = self.q.quantum_curve_report(QC_ORDER, branch, table)
            for _, residual in report.residuals:
                attempted += 1
                failed += residual != "0"
        for n, expected in self.oracle.items():
            term = self.q.s_term(n, -1, table)
            attempted += 1
            failed += not (term.kind == "monomial" and term.halfsteps == 3 * n - 3 and term.coeff == expected)
        return attempted, failed


class EoCross(Workload):
    """suite_dvv_eo over every cell with 2g - 2 + n <= EO_MAX_CHI."""

    def setup(self):
        self.probes = [(["verify", "dvv-eo", "--max-chi", "3"], _ok_lines(self.q.suites.suite_dvv_eo(3, self.table())))]

    def rep(self):
        checks = self.q.suites.suite_dvv_eo(EO_MAX_CHI, self.table())
        return len(checks), sum(not c.ok for c in checks)


class PolyRec(Workload):
    """suite_omega_rec and suite_Omega_rec at 2g - 2 + n <= POLY_MAX_CHI."""

    def setup(self):
        self.probes = [
            (["verify", suite, "--max-chi", "4"], _ok_lines(self.q.suites.SUITES[suite](4, self.table())))
            for suite in ("omega-rec", "Omega-rec")
        ]

    def rep(self):
        table = self.table()
        checks = self.q.suites.suite_omega_rec(POLY_MAX_CHI, table) + self.q.suites.suite_Omega_rec(POLY_MAX_CHI, table)
        return len(checks), sum(not c.ok for c in checks)


class CliCache(Workload):
    """A seeded mix of CLI processes against a cache file saved in setup."""

    def setup(self):
        q = self.q
        rng = random.Random(self.args.seed)
        table = q.CorrelatorTable()
        table.fill_shell(CACHE_MAX_CHI)
        self.cache = self.tmp / "cache.json"
        q.save_table(table, self.cache)
        cache = ["--cache", str(self.cache)]

        keys = list(q.shell_keys(CACHE_MAX_CHI))
        low = [k for k in keys if k[1].count(0) + k[1].count(1) >= 2]
        core = [k for k in keys if min(k[1]) >= 2]
        small = [k for k in keys if 2 * k[0] - 2 + len(k[1]) <= 6]
        cells = [(g, n) for g, n in q.shell_cells(1, CACHE_MAX_CHI) if 2 * g - 2 + n <= 6]
        mix = []

        def corr(key, extra):
            g, a = key
            out = q.rat_str(table.correlator(g, a)) + "\n"
            mix.append((["correlator", str(g), ",".join(map(str, a)), *extra], out, None))

        # read path: the library value must come back through the cache file
        for key in rng.sample(low, 6) + rng.sample(core, 6):
            corr(key, cache)
        builders = {"W": q.tW_from_correlators, "omega": q.omega_from_correlators, "Omega": q.Omega_from_correlators}
        for kind in ("W", "omega", "Omega", "W", "omega"):
            g, n = rng.choice(cells)
            out = q.poly_text(builders[kind](g, n, table), kind) + "\n"
            mix.append((["table", kind, str(g), str(n), *cache], out, None))
        for _ in range(4):
            n, branch = rng.randint(4, CACHE_MAX_CHI + 1), rng.choice("+-")
            term = q.s_term(n, 1 if branch == "+" else -1, table)
            mix.append((["sn", str(n), "--branch", branch, *cache], f"S_{n}[{branch}] = {term.text()}\n", None))
        for _ in range(3):
            order = rng.randint(6, CACHE_MAX_CHI + 1)
            out = _ok_lines(q.suites.suite_quantum_curve(order, table))
            mix.append((["verify", "quantum-curve", "--order", str(order), *cache], out, None))
        # write path: stdout and the saved bytes must match the library
        for i in range(6):
            chi = rng.randint(4, 8)
            fresh = q.CorrelatorTable()
            fresh.fill_shell(chi)
            path = self.tmp / f"saved-{i}.json"
            mix.append((["cache", "save", str(path), "--max-chi", str(chi)], f"saved {len(fresh)} records\n", (path, q.dumps_table(fresh))))
        # cache-less compute
        for key in rng.sample(small, 6):
            corr(key, ())
        for _ in range(4):
            n = rng.randint(2, 7)
            term = q.s_term(n, 1, table)
            mix.append((["sn", str(n)], f"S_{n}[+] = {term.text()}\n", None))
        rng.shuffle(mix)
        self.mix = mix

    def rep(self):
        attempted = failed = 0
        for i, (argv, expected, saved) in enumerate(self.mix):
            trace = self.tmp / f"trace-{i}.json" if self.args.trace else None
            proc = self.run_cli(argv, trace)
            ok = proc.returncode == 0 and proc.stdout == expected
            if ok and saved is not None:
                path, text = saved
                ok = path.read_text(encoding="ascii") == text
                path.unlink()
            if trace is not None and trace.exists():
                self.add_layers(json.loads(trace.read_text()))
                trace.unlink()
            attempted += 1
            failed += not ok
        return attempted, failed


WORKLOADS = {"qc_deep": QcDeep, "eo_cross": EoCross, "poly_rec": PolyRec, "cli_cache": CliCache}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--perturb", action="store_true", help="seed the tables with <tau_1>_1 = 1/23 (gate self-test)")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import airyqc
    import airyqc.suites  # noqa: F401

    Path(args.tmp).mkdir(parents=True, exist_ok=True)
    work = WORKLOADS[args.workload](args, airyqc)
    work.setup()
    trace = None
    if args.trace:
        sys.path.insert(0, str(ROOT / "bench"))
        from layertrace import LayerTrace

        trace = LayerTrace()
        try:
            trace.install()
        except (AttributeError, KeyError) as exc:
            # an entry point was renamed or removed: the tracer is out of date
            print(f"bench error: layer entry point not found ({exc!r}); update bench/layertrace.py", file=sys.stderr)
            sys.exit(BENCH_ERROR)
    ready = monotonic()
    result = {"ready": ready, "attempted": 0, "failed": 0, "errors": []}
    if args.setup_only:
        print(json.dumps(result))
        return

    probing = args.workload != "cli_cache" and not (args.trace or args.perturb)
    # each CLI process is a lap of its own; a traced run reports plain times
    timed_laps = args.workload != "cli_cache" and trace is None
    walls, scaled_walls, scaled_cpus, layers = [], [], [], []
    while len(walls) < MIN_REPS or monotonic() - ready < args.seconds:
        if trace is not None:
            trace.reset()
        work.round_layers = {}
        work.clock.start(LAP_SECONDS if timed_laps else 0)
        try:
            attempted, failed = work.rep()
        except Exception:
            result["errors"].append(traceback.format_exc())
            attempted, failed = 1, 1
        work.clock.stop()
        wall, scaled_wall, scaled_cpu = work.clock.rep_seconds()
        work.scale_cli()
        walls.append(wall)
        scaled_walls.append(scaled_wall)
        scaled_cpus.append(scaled_cpu)
        result["attempted"] += attempted
        result["failed"] += failed
        if trace is not None:
            summary = trace.summary()
            for name, value in work.round_layers.items():
                summary[name] = summary.get(name, 0) + value
            layers.append(summary)
        if probing:
            work.clock.start()
            for _ in range(PROBES_PER_REP):
                argv, expected = work.probe()
                proc = work.run_cli(argv)
                result["attempted"] += 1
                result["failed"] += not (proc.returncode == 0 and proc.stdout == expected)
            work.clock.stop()
            work.scale_cli()

    who = resource.RUSAGE_CHILDREN if args.workload == "cli_cache" else resource.RUSAGE_SELF
    peak_kb = resource.getrusage(who).ru_maxrss
    if trace is not None:
        trace.uninstall()
        spans = ROOT / ".bench_build" / "bench" / f"spans-{args.workload}.jsonl"
        with open(spans, "w") as fh:
            for span in trace.spans:
                fh.write(json.dumps(span) + "\n")

    result.update(
        walls=walls,
        scaled_walls=scaled_walls,
        scaled_cpus=scaled_cpus,
        peak_rss_kb=peak_kb,
        cli_ms=work.cli_ms,
        cli_raw_ms=work.cli_raw_ms,
        layers=layers,
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
