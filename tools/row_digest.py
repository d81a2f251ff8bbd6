"""Print the row count and one sha256 over every verifier row at a fixed
set of primes, so that two trees can be shown to give the same residues.

    python3 tools/row_digest.py

Every target runs at every prime in 5..700 and at 997, 1999, 4001, 4003 and
10007, one verify_prime call per prime, on the dombcheck in this tree's
src/.  Each row (p, target, m, lhs, rhs, passed) feeds the hash as one
line "p,target,m,lhs,rhs,passed\\n", in (prime, catalog) order; timings are
left out.  Rows are identical exactly when the two printed lines are.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dombcheck.congruences import sieve_primes, verify_prime  # noqa: E402

PRIMES = sieve_primes(5, 700) + [997, 1999, 4001, 4003, 10007]


def row_digest(primes=PRIMES) -> tuple[int, str]:
    """(row count, sha256 hex digest) over every target at each prime."""
    h = hashlib.sha256()
    n = 0
    for p in primes:
        for r in verify_prime(p):
            h.update(f"{r.prime},{r.target.value},{r.modulus_exponent},{r.lhs},{r.rhs},{r.passed}\n".encode())
            n += 1
    return n, h.hexdigest()


if __name__ == "__main__":
    rows, digest = row_digest()
    print(f"rows={rows} sha256={digest}")
