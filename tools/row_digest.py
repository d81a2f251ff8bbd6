"""Print the row count and one sha256 over every verifier row at a fixed
set of primes, so that two trees can be shown to give the same residues.

    python3 tools/row_digest.py

The first line: every target runs at every prime in 5..700 and at 997,
1999, 4001, 4003 and 10007, one verify_prime call per prime, on the
dombcheck in this tree's src/.  The second line: the rows of sweep(5, 700),
which hands each prime the triples of one walk over the Domb numbers; it
holds the digest of verify_prime over 5..700 alone when the walk leaves
every row as verify_prime gives it.  Each row (p, target, m, lhs, rhs,
passed) feeds the hash as one line "p,target,m,lhs,rhs,passed\\n", in
(prime, catalog) order; timings are left out.  Rows are identical exactly
when the printed lines are.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dombcheck.congruences import sieve_primes, sweep, verify_prime  # noqa: E402

PRIMES = sieve_primes(5, 700) + [997, 1999, 4001, 4003, 10007]
SWEEP = (5, 700)


def _digest(rows) -> tuple[int, str]:
    h = hashlib.sha256()
    n = 0
    for r in rows:
        h.update(f"{r.prime},{r.target.value},{r.modulus_exponent},{r.lhs},{r.rhs},{r.passed}\n".encode())
        n += 1
    return n, h.hexdigest()


def row_digest(primes=PRIMES) -> tuple[int, str]:
    """(row count, sha256 hex digest) over every target at each prime."""
    return _digest(r for p in primes for r in verify_prime(p))


def sweep_digest(lo: int = SWEEP[0], hi: int = SWEEP[1]) -> tuple[int, str]:
    """(row count, sha256 hex digest) over the rows of sweep(lo, hi), one
    worker, every target."""
    return _digest(sweep(lo, hi))


if __name__ == "__main__":
    rows, digest = row_digest()
    print(f"rows={rows} sha256={digest}")
    rows, digest = sweep_digest()
    print(f"sweep{SWEEP} rows={rows} sha256={digest}")
