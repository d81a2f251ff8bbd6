"""Seeded inputs for the four benchmark workloads, one timed pass of each,
and the output check the benchmark holds every pass to.

A pass turns a workload's inputs into a finished csv report.  The check
compares that report with facts that do not come from the code under test:
which (prime, target) pairs must appear (the residue-class conditions of the
README table), the modulus of each, and a recorded SHA-256 digest of every
prime's csv lines (``digests.json``, written by ``record_digests.py``).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if not (SRC / "dombcheck" / "__init__.py").is_file():
    raise ImportError(f"no dombcheck sources under {SRC}")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import dombcheck.cli as cli  # noqa: E402
import dombcheck.congruences as congruences  # noqa: E402
from dombcheck.domb import DombTable, domb_exact  # noqa: E402
from dombcheck.padic import PrimeContext  # noqa: E402

DIGESTS = Path(__file__).resolve().parent / "digests.json"

# The README's target table, in catalog order: id -> (applies(p), mod_exp(p)).
# Written out here rather than taken from congruences.applicable() and
# modulus_exponent(), so that the check does not trust the code it checks.
CATALOG = {
    "THM11_4K": (lambda p: True, lambda p: 3),
    "THM11_16K": (lambda p: True, lambda p: 3),
    "THM12_4K": (lambda p: p % 3 == 1, lambda p: 3),
    "THM12_16K": (lambda p: p % 3 == 1, lambda p: 3),
    "THM13_K2_4K": (lambda p: True, lambda p: 3 if p % 3 == 1 else 2),
    "THM13_K2_16K": (lambda p: True, lambda p: 3 if p % 3 == 1 else 2),
    "THM13_K_4K": (lambda p: p % 3 == 2, lambda p: 2),
    "THM13_K_16K": (lambda p: p % 3 == 2, lambda p: 2),
    "CONJ1_DP1": (lambda p: True, lambda p: 4),
    "CONJ2_MODP2": (lambda p: True, lambda p: 2),
    "MUSUN_P5": (lambda p: True, lambda p: 5),
    "LEMMA22": (lambda p: p % 3 == 1, lambda p: 3),
    "LEMMA_MPT": (lambda p: p % 3 == 1, lambda p: 2),
    "LEMMA_P2J": (lambda p: True, lambda p: 3),
    "LEMMA_SUNH": (lambda p: p > 5, lambda p: 2),
    "LEMMA_SH55": (lambda p: True, lambda p: 3),
}
ALL = tuple(CATALOG)
LEMMAS = ("LEMMA22", "LEMMA_MPT", "LEMMA_P2J")
HEADER = "prime,target,modulus_exponent,lhs,rhs,pass,millis"

# Precision of a verify_prime call over every target: largest mod_exp + guard.
DOMB_K = 6
DOMB_SAMPLES = 3
DOMB_MAX_N = 1000  # domb_exact(1000) takes about 0.2 s

SWEEP_HI = 500  # below DEFAULT_CAPS (1000), so the caps cut nothing
LARGE_WINDOW = (4000, 4060)
LEMMA_WINDOW = (1500, 4000)
LEMMA_PRIMES = 30
CLI_WORKERS = 2


@dataclass(frozen=True)
class Inputs:
    workload: str
    primes: tuple[int, ...]
    targets: tuple[str, ...]  # the order handed to the program
    digest_key: str  # "all" or "lemmas": which digest table the rows match
    domb_samples: tuple[tuple[int, int], ...]  # (p, n) pairs checked after timing


def sieve(lo: int, hi: int) -> list[int]:
    flags = bytearray([1]) * hi
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(hi**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return [i for i in range(lo, hi) if flags[i]]


def _pick(rng: random.Random, lo: int, hi: int, cls: int) -> int:
    return rng.choice([p for p in sieve(lo, hi) if p % 3 == cls])


def _domb_samples(rng: random.Random, primes) -> tuple[tuple[int, int], ...]:
    out = []
    for _ in range(DOMB_SAMPLES):
        p = rng.choice(primes)
        out.append((p, rng.randrange(min(p, DOMB_MAX_N + 1))))
    return tuple(out)


def build_inputs(workload: str, seed: int) -> Inputs:
    """The workload's inputs for this seed.  The same seed gives the same
    inputs; seeds only pick among inputs of nearly equal cost."""
    rng = random.Random(f"{workload}/{seed}")
    if workload in ("sweep_serial", "cli_parallel"):
        # Every prime 5..SWEEP_HI with every target; the seed permutes the
        # target list, which must not change a byte of the report.
        primes = tuple(sieve(5, SWEEP_HI + 1))
        targets = list(ALL)
        rng.shuffle(targets)
        return Inputs(workload, primes, tuple(targets), "all", _domb_samples(rng, primes))
    if workload == "large_primes":
        # One prime of each residue class from a window narrow enough that
        # the choice moves the O(p^2) work by about 1%.
        primes = tuple(sorted(_pick(rng, *LARGE_WINDOW, cls) for cls in (1, 2)))
        return Inputs(workload, primes, ALL, "all", _domb_samples(rng, primes))
    if workload == "lemma_kernel":
        # One prime per stratum, classes alternating, so every seed runs the
        # same mix of p = 1 (three lemmas) and p = 2 (LEMMA_P2J only) mod 3.
        lo, hi = LEMMA_WINDOW
        width = (hi - lo) / LEMMA_PRIMES
        primes = tuple(
            _pick(rng, lo + int(i * width), lo + int((i + 1) * width), 1 + i % 2)
            for i in range(LEMMA_PRIMES)
        )
        return Inputs(workload, primes, LEMMAS, "lemmas", ())
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("sweep_serial", "large_primes", "lemma_kernel", "cli_parallel")


def run_pass(inputs: Inputs, tmpdir: Path, loop=None) -> str:
    """One timed pass: the program turns the inputs into a csv report.

    The sampled-prime workloads run ``loop(primes, targets)``, by default
    the benchmark's own serial loop over ``verify_prime``.
    """
    targets = [congruences.Target(t) for t in inputs.targets]
    hi = inputs.primes[-1]
    if inputs.workload == "sweep_serial":
        rows = congruences.sweep(5, hi, targets, workers=1)
        return cli.render_rows(rows, "csv", False)
    if inputs.workload == "cli_parallel":
        out = tmpdir / "report.csv"
        argv = ["verify", "--primes", f"5:{hi}", "--workers", str(CLI_WORKERS),
                "--targets", ",".join(inputs.targets), "--format", "csv", "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        text = out.read_text()
        out.unlink()
        if rc != 0:
            raise RuntimeError(f"dombcheck verify exited with {rc}")
        return text
    rows = (loop or serial_loop)(inputs.primes, targets)
    return cli.render_rows(rows, "csv", False)


def serial_loop(primes, targets):
    rows = []
    for p in primes:
        rows.extend(congruences.verify_prime(p, targets))
    return rows


def expected_pairs(inputs: Inputs) -> list[tuple[int, str]]:
    want = set(inputs.targets)
    return [(p, t) for p in inputs.primes for t in ALL if t in want and CATALOG[t][0](p)]


def prime_digest(lines: list[str]) -> str:
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text())


def check_report(text: str, inputs: Inputs, digests: dict) -> tuple[int, list[str]]:
    """(checks failed, problems) for one csv report.

    A check is one expected (prime, target) row.  It fails when its row is
    missing, malformed or not passing, or when the csv lines of its prime
    differ from the recorded digest.
    """
    problems: list[str] = []
    expected = expected_pairs(inputs)
    lines = text.split("\n")
    if lines[0] != HEADER or lines[-1] != "":
        return len(expected), ["bad header or missing final newline"]
    by_prime: dict[int, list[str]] = {}
    bad: set = set()
    got = []
    for i, line in enumerate(lines[1:-1]):
        try:
            prime, target, m, lhs, rhs, passed, millis = next(csv.reader([line]))
            p, m, lhs, rhs = int(prime), int(m), int(lhs), int(rhs)
        except ValueError:
            problems.append(f"malformed row {line!r}")
            bad.add(("malformed", i))
            continue
        got.append((p, target))
        by_prime.setdefault(p, []).append(line)
        spec = CATALOG.get(target)
        if not (
            spec is not None
            and m == spec[1](p)
            and passed == "true"
            and lhs == rhs
            and 0 <= lhs < p**m
            and millis == "0"
        ):
            bad.add((p, target))
            problems.append(f"row fails: {line}")
    if got != expected:
        missing = set(expected) - set(got)
        extra = set(got) - set(expected)
        bad |= missing | extra
        problems.append(f"rows differ from the expected pairs: {len(missing)} missing, "
                        f"{len(extra)} extra, {len(got)} rows for {len(expected)} pairs")
        if not missing and not extra:
            bad.add("order")
    table = digests[inputs.digest_key]
    for p in inputs.primes:
        if table.get(str(p)) != prime_digest(by_prime.get(p, [])):
            problems.append(f"p={p}: csv lines differ from the recorded digest")
            bad.update(pair for pair in expected if pair[0] == p)
    return len(bad), problems


def check_domb_samples(inputs: Inputs) -> int:
    """Domb residues from DombTable that differ from domb_exact(n) % p^K."""
    misses = 0
    for p, n in inputs.domb_samples:
        table = DombTable(PrimeContext(p, DOMB_K), size=n + 1)
        if table[n] != domb_exact(n) % p**DOMB_K:
            misses += 1
    return misses
