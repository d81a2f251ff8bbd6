"""Print one JSON line of wall times, in ms, for each layer of a prime's
work at the fixed primes 997, 1999 and 7919, every target requested:

    python3 tools/layer_times.py [N]

Each figure is the minimum over N runs (default 3), each run on a fresh
PrimeVerifier, so no table built in one run is read in the next.  Within a
run the layers are timed in an order that builds what each one reads
first: the Domb table's recurrence pass with its top entry D_(p-1), its
walk back to the other residues (deferred to their first read, which a
swept prime never makes), its moment sums at bases 4 and 16 (one pass
for both), the factorial tables as the verifier builds them (units to
3p - 2, which LEMMA_P2J reads, then inverses to 2p - 2), the three Bernoulli
values by Voronoi's congruence (which read none of those), the harmonic
cache as a verifier builds it (its one pass of inverses and the order-1
sums below p; no verifier reads the sums from p on or the order-2 list,
each built on its first read), the inverses of 3j+1 behind
p/(3j+1) (a slice of the cache's inverses, so timed after it), then each
lemma alone on the built tables.  "total" is a separate fresh
verify_prime, the single-prime path, with its own pass over the Domb
table for the moment sums.  A swept prime takes those sums from the
sweep's walk instead, and so never walks its table back: "walk" is
domb.horner_walk to p alone, the whole walk of a sweep whose largest
prime is p, which a sweep shares among its primes, and "swept_total" a
fresh verify_prime handed that walk's triples, what a swept prime costs.
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
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dombcheck.congruences import PrimeVerifier, verify_prime  # noqa: E402
from dombcheck.domb import horner_walk  # noqa: E402
from dombcheck.special import harmonic_scaled  # noqa: E402

PRIMES = (997, 1999, 7919)


def _layers(pv: PrimeVerifier) -> dict:
    """The layers of one run, in build order, as name -> callable."""
    p = pv.p
    ctx = pv.ctx
    layers = {
        "domb_table": lambda: pv.domb_table,
        "domb_residues": lambda: pv.domb_table.residues,
        "moment_sums": lambda: (pv.weighted_sum(4, "1"), pv.weighted_sum(16, "1")),
        "factorial_tables": lambda: (ctx.factorial_decomposed(3 * p - 2), ctx.factorial_tables(2 * p - 2)),
        "bernoulli_values": lambda: pv._bernoulli_values,
        "harmonic_cache": lambda: harmonic_scaled(p - 1, ctx),
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
        walked, need = {}, {p: PrimeVerifier(p).precision}
        timed["walk"] = _ms(lambda: walked.update(horner_walk(need)))
        timed["swept_total"] = _ms(lambda: verify_prime(p, triples=walked[p]))
        for name, ms in timed.items():
            best[name] = ms if ms is None else min(best.get(name, ms), ms)
    return {name: None if ms is None else round(ms, 3) for name, ms in best.items()}


if __name__ == "__main__":
    runs = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    if runs < 1 or len(sys.argv) > 2:
        sys.exit("usage: python3 tools/layer_times.py [N], N >= 1")
    print(json.dumps({"runs": runs, "ms": {str(p): layer_times(p, runs) for p in PRIMES}}))
