"""The scripts under tools/ run against the package as it is: each is
loaded by its path and run at small primes, so a renamed name that a
script reads fails here and not in the script."""

import importlib.util
import json
import runpy
from pathlib import Path

import pytest

from dombcheck.congruences import sieve_primes, verify_prime

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"tools_{name}", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = [
    "domb_table", "domb_residues", "moment_sums", "factorial_tables", "bernoulli_values",
    "harmonic_cache", "inv_3j1", "lemma22_mpt", "lemma_p2j", "lemma_sh55", "lemma_sunh", "total",
    "walk", "swept_total",
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
    module = _load("row_digest")
    rows, digest = module.row_digest(primes)
    assert rows == sum(len(verify_prime(p)) for p in primes)
    assert len(digest) == 64 and int(digest, 16) >= 0
    # the sweep line holds the rows of a sweep, which walks, and they are
    # verify_prime's own
    assert module.sweep_digest(5, 13) == (rows, digest)
    assert module.SWEEP == (5, 700) and module.PRIMES[: len(sieve_primes(5, 700))] == sieve_primes(5, 700)


def test_code_lines_sum_to_the_total(capsys, monkeypatch):
    module = _load("code_lines")
    counts = module.code_lines()
    assert sorted(counts) == sorted(p.name for p in module.SRC.glob("*.py"))
    assert all(n > 0 for n in counts.values())
    # a docstring, a comment and a blank line count nothing; a string that
    # spans lines counts each line
    assert module.count_code_lines('"""doc\n\nstring"""\n\n# note\nx = """a\nb"""\n') == 2
    monkeypatch.setattr("sys.argv", ["code_lines.py"])
    runpy.run_path(str(TOOLS / "code_lines.py"), run_name="__main__")
    *modules, total, size = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in modules] == list(counts)
    assert sum(int(line.split()[1]) for line in modules) == int(total.split()[1])
    assert total == f"total {sum(counts.values())}"
    assert size == f"bytes {sum(len(p.read_bytes()) for p in module.SRC.glob('*.py'))}"


def test_frontier_checks_its_recorded_digest(capsys, monkeypatch, tmp_path):
    module = _load("frontier")
    recorded = json.loads(module.RECORDS.read_text())
    assert {"5:300", "5:10000", "99000:100000"} <= set(recorded)
    got = module.frontier("5:300")
    assert (got["checks"], got["failed"]) == (recorded["5:300"]["checks"], 0)
    assert (got["bytes"], got["sha256"]) == (recorded["5:300"]["bytes"], recorded["5:300"]["sha256"])
    # the printed line, and a digest that differs from the record fails
    assert module.main(["5:30"]) == 0
    assert capsys.readouterr().out.endswith("recorded=none\n")
    moved = tmp_path / "frontier.json"
    moved.write_text(json.dumps({"5:30": {"sha256": "0" * 64}}))
    monkeypatch.setattr(module, "RECORDS", moved)
    assert module.main(["5:30"]) == 1
    assert capsys.readouterr().out.endswith("recorded=MISMATCH\n")
    with pytest.raises(ValueError):
        module.frontier("30:5")
