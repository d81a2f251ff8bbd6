"""Run one sweep of every target through the command line and check its
report against a recorded digest:

    python3 tools/frontier.py LO:HI

The sweep is `dombcheck verify --primes LO:HI --workers 2 --format csv`,
run through cli.main on the dombcheck in this tree's src/.  One line is
printed: the range, the checks in the report and how many failed, the wall
seconds of the run, the csv's size and its sha256, and how that digest
compares with the one tools/frontier.json records for LO:HI ("match",
"MISMATCH" or "none").  The exit status is 1 when a check failed or the
digest differs from the recorded one, else 0.  The csv holds no timings,
so it is byte-identical wherever the rows are.

The recorded ranges are 5:300, which the tests run, 5:10000 (about 8 s on
two workers) and 99000:100000, the frontier of the 10^5 sweep (87 primes,
about 20 s).
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
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: frontier.py LO:HI", file=sys.stderr)
        return 2
    span = args[0]
    got = frontier(span)
    recorded = json.loads(RECORDS.read_text()).get(span)
    if recorded is None:
        verdict = "none"
    else:
        verdict = "match" if recorded["sha256"] == got["sha256"] else "MISMATCH"
    print(
        f"{span} checks={got['checks']} failed={got['failed']} wall_s={got['wall_s']:.2f} "
        f"bytes={got['bytes']} sha256={got['sha256']} recorded={verdict}"
    )
    return 1 if got["failed"] or verdict == "MISMATCH" else 0


if __name__ == "__main__":
    sys.exit(main())
