"""Command-line driver: prime sweeps, identity checks, table dumps.

Exit codes: 0 all checks passed (or nothing to do), 1 at least one check
failed, 2 usage error or a report file that cannot be opened or written.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys
from time import perf_counter

from .congruences import SPECS, Target, sieve_primes, sweep
from .domb import domb_numbers
from .identities import check_all_identities
from .padic import is_prime
from .quadform import NotRepresentable, decompose_known_prime

# The group labels of --targets, in catalog order, plus "all".
_LABELS = {
    group: tuple(t for t in Target if SPECS[t].group == group)
    for group in dict.fromkeys(SPECS[t].group for t in Target)
}
_LABELS["all"] = tuple(Target)


def _parse_targets(spec: str) -> list[Target]:
    chosen: list[Target] = []
    for piece in spec.split(","):
        name = piece.strip().lower()
        if not name:
            continue
        if name in _LABELS:
            group = _LABELS[name]
        else:
            try:
                group = (Target(name.upper()),)
            except ValueError:
                raise argparse.ArgumentTypeError(f"unknown target {piece!r}")
        for t in group:
            if t not in chosen:
                chosen.append(t)
    if not chosen:
        raise argparse.ArgumentTypeError("no targets selected")
    return chosen


def _parse_primes(spec: str) -> tuple[int, int]:
    try:
        lo_s, hi_s = spec.split(":")
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise argparse.ArgumentTypeError("expected LO:HI")
    if lo < 1 or hi < lo:
        raise argparse.ArgumentTypeError("expected 1 <= LO <= HI")
    return lo, hi


_FIELDS = ("prime", "target", "modulus_exponent", "lhs", "rhs", "pass", "millis")
_FORMATS = ("table", "csv", "jsonl")


def _rows_as_records(rows, timings: bool):
    for r in rows:
        yield {
            "prime": r.prime,
            "target": r.target.value,
            "modulus_exponent": r.modulus_exponent,
            "lhs": r.lhs,
            "rhs": r.rhs,
            "pass": r.passed,
            "millis": round(r.millis, 3) if timings else 0,
        }


def render_rows(rows, fmt: str, timings: bool) -> str:
    """Rows in the chosen format; stable byte-for-byte unless timings are
    explicitly requested."""
    if fmt not in _FORMATS:
        raise ValueError(f"unknown report format {fmt!r}; expected one of {_FORMATS}")
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(_FIELDS)
        w.writerows(
            (r.prime, r.target.value, r.modulus_exponent, r.lhs, r.rhs, str(r.passed).lower(),
             round(r.millis, 3) if timings else 0)
            for r in rows
        )
        return buf.getvalue()
    records = list(_rows_as_records(rows, timings))
    if fmt == "jsonl":
        return "".join(json.dumps(rec) + "\n" for rec in records)
    widths = {f: len(f) for f in _FIELDS}
    cells = []
    for rec in records:
        row = {f: str(rec[f]).lower() if f == "pass" else str(rec[f]) for f in _FIELDS}
        cells.append(row)
        for f in _FIELDS:
            widths[f] = max(widths[f], len(row[f]))
    lines = ["  ".join(f.ljust(widths[f]) for f in _FIELDS).rstrip()]
    for row in cells:
        lines.append("  ".join(row[f].ljust(widths[f]) for f in _FIELDS).rstrip())
    return "\n".join(lines) + "\n"


def _cmd_verify(args) -> int:
    lo, hi = args.primes
    # The report file is opened before the sweep, so a bad path fails at
    # once; a failed open, write or close exits 2, never 1 ("a check failed").
    try:
        out = open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout)
        with out as fh:
            t0 = perf_counter()
            if not sieve_primes(max(lo, 5), hi):
                print("warning: no primes in range", file=sys.stderr)
            rows = sweep(lo, hi, args.targets, workers=args.workers)
            elapsed = perf_counter() - t0
            fh.write(render_rows(rows, args.format, args.timings))
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    failed = sum(1 for r in rows if not r.passed)
    primes = len({r.prime for r in rows})
    # stderr, so a report on stdout stays byte-identical from run to run
    print(
        f"checks={len(rows)} primes={primes} passed={len(rows) - failed} "
        f"failed={failed} elapsed={elapsed:.2f}s",
        file=sys.stderr,
    )
    return 1 if failed else 0


def _cmd_identities(args) -> int:
    reports = check_all_identities(args.max_n)
    width = max(len(r.identity) for r in reports)
    failed = 0
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.identity.ljust(width)}  cases={r.cases:<5d} {status}")
        if not r.passed:
            failed += 1
            params, lhs, rhs = r.first_failure
            print(f"  first failure at {params}: {lhs} != {rhs}")
    print(f"identities={len(reports)} failed={failed}")
    return 1 if failed else 0


def _cmd_domb(args) -> int:
    # D_n has about 1.2 n decimal digits, past the 4300 that CPython 3.11+
    # converts by default from n = 3600 on; the limit guards parsing input,
    # not printing these numbers, so it is lifted here and put back after
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        for k, d in enumerate(domb_numbers(args.n + 1)):
            print(f"{k}\t{d}")
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return 0


def _cmd_decompose(args) -> int:
    p = args.prime  # main has proved it prime
    if p == 3:  # the one prime with x = 0, which the descent excludes
        print("3 = 0^2 + 3*1^2")
        return 0
    try:
        d = decompose_known_prime(p)
    except NotRepresentable:
        print(f"{p} is not representable as x^2 + 3*y^2")
        return 0
    print(f"{p} = {d.x}^2 + 3*{d.y}^2")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dombcheck",
        description="verify supercongruences for Domb numbers in exact arithmetic",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="sweep primes against congruence targets")
    v.add_argument("--primes", type=_parse_primes, required=True, metavar="LO:HI")
    v.add_argument(
        "--targets",
        type=_parse_targets,
        default=list(Target),
        help=f"comma list: {', '.join(_LABELS)}, or explicit target ids (default all)",
    )
    v.add_argument(
        "--workers",
        type=int,
        default=min(8, os.cpu_count() or 1),
        help=(
            "processes that verify primes, this one included, taking them largest first "
            "off a shared counter; at most one per prime and per CPU run"
        ),
    )
    v.add_argument("--out", help="write the report to this path instead of stdout")
    v.add_argument("--format", choices=_FORMATS, default="table")
    v.add_argument(
        "--timings",
        action="store_true",
        help="record wall times in the report (breaks byte-for-byte reproducibility)",
    )
    v.set_defaults(fn=_cmd_verify)

    i = sub.add_parser("identities", help="check the exact identity catalog")
    i.add_argument("--max-n", type=int, default=40, dest="max_n")
    i.set_defaults(fn=_cmd_identities)

    d = sub.add_parser("domb", help="print D_0 .. D_n exactly")
    d.add_argument("--n", type=int, required=True)
    d.set_defaults(fn=_cmd_domb)

    q = sub.add_parser("decompose", help="write a prime as x^2 + 3*y^2")
    q.add_argument("prime", type=int)
    q.set_defaults(fn=_cmd_decompose)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    if args.command == "verify":
        if args.workers < 1:
            print("error: --workers must be at least 1", file=sys.stderr)
            return 2
    if args.command == "identities" and args.max_n < 1:
        print("error: --max-n must be at least 1", file=sys.stderr)
        return 2
    if args.command == "domb" and args.n < 0:
        print("error: --n must be nonnegative", file=sys.stderr)
        return 2
    if args.command == "decompose" and not is_prime(args.prime):
        print(f"error: {args.prime} is not prime", file=sys.stderr)
        return 2
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
