"""The scripts under tools/ run against the package as it is: each is
loaded by its path and run at small primes, so a renamed name that a
script reads fails here and not in the script."""

import importlib.util
from pathlib import Path

import pytest

from dombcheck.congruences import verify_prime

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"tools_{name}", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = [
    "domb_table", "moment_sums", "factorial_tables", "sigma", "bernoulli_poly",
    "harmonic_cache", "inv_3j1", "lemma22_mpt", "lemma_p2j", "lemma_sh55", "lemma_sunh", "total",
]


@pytest.mark.parametrize("p", [97, 101])
def test_layer_times_times_every_layer(p):
    # LEMMA22 and LEMMA_MPT are stated at 97 (1 mod 3) only
    times = _load("layer_times").layer_times(p, 1)
    assert list(times) == LAYERS
    for name, ms in times.items():
        if name == "lemma22_mpt" and p % 3 == 2:
            assert ms is None
        else:
            assert isinstance(ms, float) and ms >= 0, name


def test_row_digest_counts_every_row():
    primes = [5, 7, 11, 13]
    rows, digest = _load("row_digest").row_digest(primes)
    assert rows == sum(len(verify_prime(p)) for p in primes)
    assert len(digest) == 64 and int(digest, 16) >= 0
