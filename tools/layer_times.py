"""Print one JSON line of wall times, in ms, for each layer of a prime's
work at the fixed primes 997, 1999 and 7919, every target requested:

    python3 tools/layer_times.py [N]

Each figure is the minimum over N runs (default 3), each run on a fresh
PrimeVerifier, so no table built in one run is read in the next.  Within a
run the layers are timed in an order that builds what each one reads
first: the Domb table, its moment sums at bases 4 and 16 (one pass for
both), the factorial tables as the lemmas read them (units to 3p, inverses
to 2p - 2), sigma, the three bernoulli_poly passes, the harmonic cache
(both orders), the inverses of 3j+1 behind p/(3j+1) (differences of the
harmonic cache, so timed after it), then each lemma alone on the built
tables.  "total" is a separate fresh verify_prime.
LEMMA22 and LEMMA_MPT are not stated at 7919 (2 mod 3), so their entry
there is null.

The Domb recurrence's integer coefficients are memoized for the process
and grown on a table's first build at each prime; with N > 1 the minimum
leaves that growth out, as a sweep pays it about once.  Run the script in
a fresh process; it imports the dombcheck in this tree's src/.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dombcheck.congruences import PrimeVerifier, verify_prime  # noqa: E402
from dombcheck.special import _sinh_inverse, bernoulli_poly, harmonic_scaled  # noqa: E402

PRIMES = (997, 1999, 7919)


def _layers(pv: PrimeVerifier) -> dict:
    """The layers of one run, in build order, as name -> callable."""
    p = pv.p
    ctx = pv.ctx
    layers = {
        "domb_table": lambda: pv.domb_table,
        "moment_sums": lambda: (pv.weighted_sum(4, "1"), pv.weighted_sum(16, "1")),
        "factorial_tables": lambda: ctx.factorial_tables(2 * p - 2),
        "sigma": lambda: _sinh_inverse(ctx),
        "bernoulli_poly": lambda: [
            bernoulli_poly(n, x, ctx) for n, x in [(p - 3, 0), (p - 2, Fraction(1, 3)), (p - 2, Fraction(1, 4))]
        ],
        "harmonic_cache": lambda: (harmonic_scaled(2 * p - 2, ctx), harmonic_scaled(p - 1, ctx, order=2)),
        "inv_3j1": lambda: pv._inv_3j1,
        "lemma22_mpt": lambda: (pv.lemma22_check(), pv.lemma_mpt_check()),
        "lemma_p2j": pv.lemma_p2j_check,
        "lemma_sh55": pv.lemma_sh55_check,
        "lemma_sunh": pv.lemma_sunh_check,
    }
    if p % 3 != 1:
        layers["lemma22_mpt"] = None
    return layers


def _ms(fn) -> float:
    t0 = perf_counter()
    fn()
    return (perf_counter() - t0) * 1000.0


def layer_times(p: int, runs: int) -> dict:
    """name -> the minimum over ``runs`` of that layer's ms at p."""
    best: dict = {}
    for _ in range(runs):
        timed = {name: None if fn is None else _ms(fn) for name, fn in _layers(PrimeVerifier(p)).items()}
        timed["total"] = _ms(lambda: verify_prime(p))
        for name, ms in timed.items():
            best[name] = ms if ms is None else min(best.get(name, ms), ms)
    return {name: None if ms is None else round(ms, 3) for name, ms in best.items()}


if __name__ == "__main__":
    runs = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    if runs < 1 or len(sys.argv) > 2:
        sys.exit("usage: python3 tools/layer_times.py [N], N >= 1")
    print(json.dumps({"runs": runs, "ms": {str(p): layer_times(p, runs) for p in PRIMES}}))
