"""Run sweeps of every target through the command line and check each
report against a recorded digest:

    python3 tools/frontier.py [LO:HI ...]

Each sweep is `dombcheck verify --primes LO:HI --workers 2 --format csv`,
run through cli.main on the dombcheck in this tree's src/.  One line is
printed per span: the range, the checks in the report and how many failed,
the wall seconds of the run, the csv's size and its sha256, and how that
digest compares with the one tools/frontier.json records for LO:HI
("match", "MISMATCH" or "none").  The exit status is 2 when the command
line rejects a span, 1 when a check failed or a digest differs from the
recorded one, else 0.  The csv holds no timings, so it is byte-identical
wherever the rows are.

With no span, the five of SPANS run, about a second in all, and pin both
paths of a prime.  A sweep over 5:700 walks the Domb numbers once for all
its primes, so it pins the walked path.  One prime of 997, 1999 and 10007,
or the two of 4001:4003, are too few to pay for a walk, so each is
verified on its own, the single-prime path.  The other recorded spans are
5:10000 (about 8 s on two workers), 99000:100000, the frontier of the
10^5 sweep (87 primes, about 20 s), and 5:100000 (9590 primes, about
15 minutes).
"""

from __future__ import annotations

import csv
import hashlib
import json
import sys
import tempfile
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dombcheck import cli  # noqa: E402

RECORDS = Path(__file__).with_name("frontier.json")
SPANS = ("5:700", "997:997", "1999:1999", "4001:4003", "10007:10007")


def frontier(span: str) -> dict:
    """The report of the sweep over span ("LO:HI") as checks, failed,
    wall_s, bytes and sha256.  A span that the command line rejects
    raises ValueError."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.csv"
        argv = ["verify", "--primes", span, "--workers", "2", "--format", "csv", "--out", str(out)]
        t0 = perf_counter()
        code = cli.main(argv)
        wall = perf_counter() - t0
        if code not in (0, 1):
            raise ValueError(f"dombcheck {' '.join(argv[:-2])} exited with {code}")
        data = out.read_bytes()
    rows = list(csv.DictReader(data.decode().splitlines()))
    return {
        "checks": len(rows),
        "failed": sum(r["pass"] != "true" for r in rows),
        "wall_s": wall,
        "bytes": len(data),
        "sha256": hashlib.sha256(data).hexdigest(),
    }


def main(argv=None) -> int:
    spans = (sys.argv[1:] if argv is None else argv) or SPANS
    records = json.loads(RECORDS.read_text())
    status = 0
    for span in spans:
        try:
            got = frontier(span)
        except ValueError as e:
            print(f"usage: frontier.py [LO:HI ...]: {e}", file=sys.stderr)
            return 2
        recorded = records.get(span, {}).get("sha256")
        verdict = "none" if recorded is None else "match" if recorded == got["sha256"] else "MISMATCH"
        print(
            f"{span} checks={got['checks']} failed={got['failed']} wall_s={got['wall_s']:.2f} "
            f"bytes={got['bytes']} sha256={got['sha256']} recorded={verdict}"
        )
        if got["failed"] or verdict == "MISMATCH":
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
