"""Command-line surface.

``main`` makes one correlator table for every command but ``cache``: from
``--cache``, else ``$AIRYQC_CACHE``, else empty.  It hands the table to the
command, and after the command returns prints the one line
``cache hits=H misses=M`` on stderr when ``--stats`` is given.

Exit codes: 0 success / everything verified, 1 verification counterexample,
2 domain error (also argparse usage errors, and an input too deep for
Python's recursion limit), 3 cache I/O or format error.
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


def _require(option: str, value, least: int):
    if value is not None and value < least:
        raise ValueError(f"{option} must be >= {least}, got {value}")


def _cmd_correlator(args, table) -> int:
    value = table.correlator(args.g, _parse_exponents(args.exponents))
    print(rat_str(value))
    return 0


_TABLE_BUILDERS = {
    "W": tW_from_correlators,
    "omega": omega_from_correlators,
    "Omega": Omega_from_correlators,
}


def _cmd_table(args, table) -> int:
    poly = _TABLE_BUILDERS[args.kind](args.g, args.n, table)
    if args.format == "json":
        doc = {
            "kind": args.kind,
            "g": args.g,
            "n": args.n,
            "terms": poly_orbit_records(poly, args.kind),
        }
        print(json.dumps(doc))
    else:
        print(poly_text(poly, args.kind))
    return 0


def _cmd_sn(args, table) -> int:
    branch = 1 if args.branch == "+" else -1
    term = s_term(args.n, branch, table)
    if args.format == "json":
        doc = {"n": term.n, "branch": args.branch, "kind": term.kind, "term": term.text()}
        print(json.dumps(doc))
    else:
        print(f"S_{args.n}[{args.branch}] = {term.text()}")
    return 0


def _cmd_verify(args, table) -> int:
    for option, bound in (("--max-chi", args.max_chi), ("--max-m", args.max_m), ("--order", args.order)):
        _require(option, bound, 0)
    suite = SUITES[args.suite]
    if args.suite == "d-lemma":
        checks = suite(args.max_m, 4 if args.max_chi is None else args.max_chi, table)
    elif args.suite in ("quantum-curve", "t-rec"):
        # t-rec checks the orders n >= 3, so a smaller --order would check nothing
        _require("--order", args.order, 3 if args.suite == "t-rec" else 0)
        checks = suite(args.order, table)
    else:
        # a cell suite at --max-chi 0 would check nothing
        _require("--max-chi", args.max_chi, 1)
        checks = suite(6 if args.max_chi is None else args.max_chi, table)
    for check in checks:
        print(check.line())
        if not check.ok:
            return 1
    return 0


def _cmd_cache(args) -> int:
    if args.action == "save":
        _require("--max-chi", args.max_chi, 1)
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
    p.add_argument("--max-chi", type=int, help="largest 2g-2+n (cell suites, default 6; d-lemma bridge, default 4)")
    p.add_argument("--order", type=int, default=10, help="largest hbar order (quantum-curve, t-rec)")
    p.add_argument("--max-m", type=int, default=50, help="largest monomial degree (d-lemma)")
    add_cache_opt(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("cache", help="save or load a correlator cache file")
    p.add_argument("action", choices=("save", "load"))
    p.add_argument("path")
    p.add_argument("--max-chi", type=int, default=4, help="shells to precompute on save")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "cache":
            return _cmd_cache(args)
        path = os.environ.get(ENV_CACHE) if args.cache is None else args.cache
        table = load_table(path) if path else CorrelatorTable()
        status = args.func(args, table)
        if args.stats:
            print(f"cache hits={table.hits} misses={table.misses}", file=sys.stderr)
        return status
    except CacheFormatError as exc:
        print(f"cache error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input too deep for the recursion limit", file=sys.stderr)
        return 2
