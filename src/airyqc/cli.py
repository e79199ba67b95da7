"""Command-line surface.

Exit codes: 0 success / everything verified, 1 verification counterexample,
2 domain error (also argparse usage errors), 3 cache I/O or format error.
All output is deterministic: identical invocations print identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .cache import CacheFormatError, load_table, save_table
from .core import rat_str
from .correlators import CorrelatorTable
from .polynomials import Omega_from_correlators, omega_from_correlators, poly_orbit_records, poly_text, tW_from_correlators
from .suites import SUITES
from .wkb import s_term

ENV_CACHE = "AIRYQC_CACHE"


def _parse_exponents(text: str):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse exponent list {text!r}; expected e.g. 1,0,0") from None


def _make_table(args) -> CorrelatorTable:
    table = CorrelatorTable()
    path = getattr(args, "cache", None) or os.environ.get(ENV_CACHE)
    if path and os.path.exists(path):
        load_table(path, table)
    return table


def _print_stats(args, table):
    if getattr(args, "stats", False):
        print(f"cache hits={table.hits} misses={table.misses}", file=sys.stderr)


def _cmd_correlator(args) -> int:
    table = _make_table(args)
    value = table.correlator(args.g, _parse_exponents(args.exponents))
    print(rat_str(value))
    _print_stats(args, table)
    return 0


_TABLE_BUILDERS = {
    "W": tW_from_correlators,
    "omega": omega_from_correlators,
    "Omega": Omega_from_correlators,
}


def _cmd_table(args) -> int:
    table = _make_table(args)
    poly = _TABLE_BUILDERS[args.kind](args.g, args.n, table)
    if args.format == "json":
        doc = {
            "kind": args.kind,
            "g": args.g,
            "n": args.n,
            "terms": poly_orbit_records(poly, args.kind),
        }
        print(json.dumps(doc, separators=(", ", ": ")))
    else:
        print(poly_text(poly, args.kind))
    _print_stats(args, table)
    return 0


def _cmd_sn(args) -> int:
    branch = 1 if args.branch == "+" else -1
    table = _make_table(args) if args.n >= 2 else None
    term = s_term(args.n, branch, table)
    if args.format == "json":
        doc = {"n": term.n, "branch": args.branch, "kind": term.kind, "term": term.text()}
        print(json.dumps(doc, separators=(", ", ": ")))
    else:
        print(f"S_{args.n}[{args.branch}] = {term.text()}")
    return 0


def _cmd_verify(args) -> int:
    table = _make_table(args)
    suite = SUITES[args.suite]
    if args.suite in ("dvv-eo", "omega-rec", "Omega-rec"):
        checks = suite(args.max_chi, table)
    elif args.suite == "d-lemma":
        checks = suite(args.max_m, min(args.max_chi, 4), table)
    else:
        checks = suite(args.order, table)
    for check in checks:
        print(check.line())
        if not check.ok:
            return 1
    return 0


def _cmd_cache(args) -> int:
    if args.action == "save":
        table = CorrelatorTable()
        table.fill_shell(args.max_chi)
        count = save_table(table, args.path)
        print(f"saved {count} records")
    else:
        table = load_table(args.path)
        print(f"loaded {len(table)} records")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="airyqc",
        description="Exact intersection numbers, Airy-curve recursion, and quantum-curve checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_cache_opt(p):
        p.add_argument("--cache", help=f"correlator cache file (default: ${ENV_CACHE})")
        p.add_argument("--stats", action="store_true", help="print hit/miss counters to stderr")

    p = sub.add_parser("correlator", help="print <tau_{a_1} ... tau_{a_n}>_g")
    p.add_argument("g", type=int)
    p.add_argument("exponents", help="comma-separated exponents, e.g. 1,0,0")
    add_cache_opt(p)
    p.set_defaults(func=_cmd_correlator)

    p = sub.add_parser("table", help="print W, omega, or Omega for a cell")
    p.add_argument("kind", choices=sorted(_TABLE_BUILDERS))
    p.add_argument("g", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--format", choices=("text", "json"), default="text")
    add_cache_opt(p)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("sn", help="print the WKB term S_n")
    p.add_argument("n", type=int)
    p.add_argument("--branch", choices=("+", "-"), default="+")
    p.add_argument("--format", choices=("text", "json"), default="text")
    add_cache_opt(p)
    p.set_defaults(func=_cmd_sn)

    p = sub.add_parser("verify", help="run an identity suite; exit 1 on the first counterexample")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--max-chi", type=int, default=6, help="largest 2g-2+n (cell suites)")
    p.add_argument("--order", type=int, default=10, help="largest hbar order (quantum-curve, t-rec)")
    p.add_argument("--max-m", type=int, default=50, help="largest monomial degree (d-lemma)")
    add_cache_opt(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("cache", help="save or load a correlator cache file")
    p.add_argument("action", choices=("save", "load"))
    p.add_argument("path")
    p.add_argument("--max-chi", type=int, default=4, help="shells to precompute on save")
    p.set_defaults(func=_cmd_cache)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CacheFormatError as exc:
        print(f"cache error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
