"""The scripts under tools/ run against the package as it is: each is
loaded by its path and run at small primes, so a renamed name that a
script reads fails here and not in the script."""

import importlib.util
import json
import runpy
from pathlib import Path

import pytest

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


def test_layer_times_rejects_a_bad_count(monkeypatch):
    # a count that is no integer exits with the usage line, as N < 1 does,
    # before any layer is timed
    for argv in (["x"], ["0"], ["-1"], ["1.5"], ["2", "3"]):
        monkeypatch.setattr("sys.argv", ["layer_times.py", *argv])
        with pytest.raises(SystemExit, match="^usage: "):
            runpy.run_path(str(TOOLS / "layer_times.py"), run_name="__main__")


def test_frontier_checks_its_recorded_digest(capsys):
    # with no span, the five recorded spans run, all match and every check
    # passes; 5:700 is the walked path, the other four the single-prime path
    module = _load("frontier")
    recorded = json.loads(module.RECORDS.read_text())
    assert set(module.SPANS) | {"5:10000", "99000:100000", "5:100000"} == set(recorded)
    assert module.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == list(module.SPANS)
    assert all(" failed=0 " in line and line.endswith(" recorded=match") for line in lines)
    checks = {line.split()[0]: int(line.split()[1].removeprefix("checks=")) for line in lines}
    assert checks == {span: recorded[span]["checks"] for span in module.SPANS}
    assert checks["5:700"] == 1593 and sum(checks.values()) == 1659


def test_frontier_exit_status(capsys, monkeypatch, tmp_path):
    module = _load("frontier")
    real = module.frontier("5:13")["sha256"]
    # an unrecorded span passes; one moved record among several fails
    assert module.main(["5:30"]) == 0
    assert capsys.readouterr().out.endswith("recorded=none\n")
    moved = tmp_path / "frontier.json"
    moved.write_text(json.dumps({"5:13": {"sha256": real}, "5:30": {"sha256": "0" * 64}}))
    monkeypatch.setattr(module, "RECORDS", moved)
    assert module.main(["5:13", "5:30", "31:60"]) == 1
    verdicts = [line.rsplit("=", 1)[1] for line in capsys.readouterr().out.splitlines()]
    assert verdicts == ["match", "MISMATCH", "none"]
    # a span that the command line rejects is a usage error, not a traceback
    with pytest.raises(ValueError):
        module.frontier("30:5")
    assert module.main(["30:5"]) == 2
    assert module.main(["5:13", "30:5"]) == 2
