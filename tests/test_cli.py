"""Driver behavior: parsing, formats, exit codes, reproducible reports."""

import csv
import io
import json
import os
import sys

import pytest

from dombcheck import cli
from dombcheck.cli import _FIELDS, _LABELS, _parse_targets, _rows_as_records, main, render_rows
from dombcheck.congruences import Target, sieve_primes, verify_prime
from dombcheck.domb import domb_exact

T = Target

# The --targets group labels, written out target by target.
GROUPS = {
    "thm1.1": (T.THM11_4K, T.THM11_16K),
    "thm1.2": (T.THM12_4K, T.THM12_16K),
    "thm1.3": (T.THM13_K2_4K, T.THM13_K2_16K, T.THM13_K_4K, T.THM13_K_16K),
    "conj1": (T.CONJ1_DP1,),
    "conj2": (T.CONJ2_MODP2,),
    "musun": (T.MUSUN_P5,),
    "lemmas": (T.LEMMA22, T.LEMMA_MPT, T.LEMMA_P2J, T.LEMMA_SUNH, T.LEMMA_SH55),
    "all": tuple(Target),
}


def test_group_labels():
    assert list(_LABELS) == list(GROUPS)
    for label, targets in GROUPS.items():
        assert tuple(_parse_targets(label.upper())) == targets, label


def test_domb_subcommand(capsys):
    assert main(["domb", "--n", "4"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["0\t1", "1\t4", "2\t28", "3\t256", "4\t2716"]


def test_domb_subcommand_prints_the_defining_sums(capsys):
    assert main(["domb", "--n", "60"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [f"{k}\t{domb_exact(k)}" for k in range(61)]


def test_domb_subcommand_prints_numbers_past_the_str_digit_limit(capsys):
    # D_3600 has 4330 digits, over CPython's default conversion limit
    assert main(["domb", "--n", "3600"]) == 0
    k, digits = capsys.readouterr().out.splitlines()[-1].split("\t")
    assert k == "3600" and len(digits) == 4330 and digits.isdigit()
    if hasattr(sys, "get_int_max_str_digits"):
        assert sys.get_int_max_str_digits() == 4300  # put back


def test_domb_rejects_negative(capsys):
    assert main(["domb", "--n", "-1"]) == 2


def test_decompose_representable(capsys):
    assert main(["decompose", "7"]) == 0
    assert capsys.readouterr().out.strip() == "7 = 2^2 + 3*1^2"


def test_decompose_other_class(capsys):
    assert main(["decompose", "5"]) == 0
    assert capsys.readouterr().out.strip() == "5 is not representable as x^2 + 3*y^2"


def test_decompose_three(capsys):
    # 3 = 0^2 + 3*1^2, the one prime whose representation has x = 0
    assert main(["decompose", "3"]) == 0
    assert capsys.readouterr().out.strip() == "3 = 0^2 + 3*1^2"


def test_decompose_two(capsys):
    assert main(["decompose", "2"]) == 0
    assert capsys.readouterr().out.strip() == "2 is not representable as x^2 + 3*y^2"


def test_decompose_mersenne_61(capsys):
    assert main(["decompose", "2305843009213693951"]) == 0
    assert capsys.readouterr().out.strip() == "2305843009213693951 = 1505304098^2 + 3*115329357^2"


def test_decompose_non_prime(capsys):
    assert main(["decompose", "49"]) == 2
    assert "not prime" in capsys.readouterr().err


def test_decompose_strong_pseudoprime(capsys):
    # 399165290221 * 798330580441, a strong pseudoprime to every base to 37
    assert main(["decompose", "318665857834031151167461"]) == 2
    captured = capsys.readouterr()
    assert "not prime" in captured.err and captured.out == ""


def test_usage_errors_are_exit_2():
    assert main([]) == 2
    assert main(["verify"]) == 2
    assert main(["verify", "--primes", "100:5"]) == 2
    assert main(["verify", "--primes", "abc"]) == 2
    assert main(["verify", "--primes", "5:50", "--targets", "bogus"]) == 2
    assert main(["verify", "--primes", "5:50", "--workers", "0"]) == 2
    assert main(["verify", "--primes", "5:50", "--guard", "0"]) == 2  # unknown option
    assert main(["verify", "--primes", "5:10", "--cap", "conj1_dp1=7"]) == 2
    assert main(["identities", "--max-n", "0"]) == 2
    assert main(["nosuchcommand"]) == 2


def test_help_is_exit_0(capsys):
    assert main(["--help"]) == 0
    assert main(["verify", "--help"]) == 0
    # the working precision follows from the targets; no option sets it
    assert "--guard" not in capsys.readouterr().out


def test_verify_basic_sweep(capsys):
    rc = main(["verify", "--primes", "5:100", "--targets", "thm1.1"])
    assert rc == 0
    captured = capsys.readouterr()
    assert "checks=46 primes=23 passed=46 failed=0" in captured.err
    # table header plus first row
    lines = captured.out.splitlines()
    assert lines[0].split() == [
        "prime",
        "target",
        "modulus_exponent",
        "lhs",
        "rhs",
        "pass",
        "millis",
    ]
    assert lines[1].split()[:6] == ["5", "THM11_4K", "3", "75", "75", "true"]


def test_verify_empty_range(capsys):
    rc = main(["verify", "--primes", "4:4"])
    assert rc == 0
    captured = capsys.readouterr()
    assert "no primes in range" in captured.err
    assert "checks=0" in captured.err
    assert "checks=" not in captured.out


def test_verify_csv_output(tmp_path, capsys):
    out = tmp_path / "report.csv"
    rc = main(
        [
            "verify",
            "--primes",
            "5:30",
            "--targets",
            "thm1.1,conj2",
            "--format",
            "csv",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "prime,target,modulus_exponent,lhs,rhs,pass,millis"
    assert lines[1] == "5,THM11_4K,3,75,75,true,0"
    assert lines[2] == "5,THM11_16K,3,25,25,true,0"
    assert lines[3] == "5,CONJ2_MODP2,2,0,0,true,0"
    # one row per target per prime in [5, 30]
    assert len(lines) == 1 + 3 * 8


def test_verify_out_under_missing_directory_fails_before_sweeping(tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("swept before the report file was opened")

    monkeypatch.setattr(cli, "sweep", refuse)
    out = tmp_path / "missing" / "report.csv"
    assert main(["verify", "--primes", "5:7", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_verify_stdout_is_the_report_alone(tmp_path, capsys):
    args = ["verify", "--primes", "5:7", "--format", "csv", "--workers", "1"]
    reports = []
    for _ in range(2):
        assert main(args) == 0
        reports.append(capsys.readouterr().out)
    out = tmp_path / "r.csv"
    assert main(args + ["--out", str(out)]) == 0
    assert reports[0] == reports[1] == out.read_text()


def test_verify_report_file_same_for_any_worker_count(tmp_path, monkeypatch):
    # the report file is open while the children run; they must leave it alone
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    reports = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}.csv"
        args = ["verify", "--primes", "5:300", "--format", "csv", "--workers", workers]
        assert main(args + ["--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    primes = {int(line.split(b",")[0]) for line in reports[0].splitlines()[1:]}
    assert primes == set(sieve_primes(5, 300))


# /dev/full takes the buffered write and fails the flush at close; the
# stand-in file fails the write itself.
def _full_device(tmp_path, monkeypatch):
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    return "/dev/full"


def _failing_write(tmp_path, monkeypatch):
    class Refusing(io.StringIO):
        def write(self, text):
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "open", lambda *a, **k: Refusing(), raising=False)
    return str(tmp_path / "r.csv")


@pytest.mark.parametrize("target", [_full_device, _failing_write])
def test_verify_failed_report_write_exits_2(target, tmp_path, monkeypatch, capsys):
    path = target(tmp_path, monkeypatch)
    assert main(["verify", "--primes", "5:7", "--workers", "1", "--out", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "No space left on device" in err


def test_verify_jsonl_output(tmp_path):
    out = tmp_path / "report.jsonl"
    rc = main(
        [
            "verify",
            "--primes",
            "5:20",
            "--targets",
            "musun",
            "--format",
            "jsonl",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["prime"] for r in records] == [5, 7, 11, 13, 17, 19]
    assert records[0]["lhs"] == 1875
    assert all(r["pass"] is True for r in records)
    assert all(r["millis"] == 0 for r in records)


def test_verify_deterministic_output(tmp_path):
    args = [
        "verify",
        "--primes",
        "5:60",
        "--targets",
        "thm1.1,thm1.3,lemmas",
        "--format",
        "csv",
        "--workers",
    ]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(args + ["1", "--out", str(a)]) == 0
    assert main(args + ["2", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_timings_opt_in(tmp_path):
    out = tmp_path / "t.csv"
    rc = main(
        [
            "verify",
            "--primes",
            "5:10",
            "--targets",
            "conj2",
            "--format",
            "csv",
            "--timings",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    rows = out.read_text().splitlines()[1:]
    assert all(len(r.split(",")) == 7 for r in rows)


def test_identities_command(capsys):
    rc = main(["identities", "--max-n", "8"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "identities=17 failed=0" in out
    assert out.count("pass") == 17
    # every line at --max-n 12: names, case counts and verdicts
    assert main(["identities", "--max-n", "12"]) == 0
    assert capsys.readouterr().out.splitlines() == IDENTITIES_AT_12


IDENTITIES_AT_12 = [
    "I1             cases=48    pass",
    "I2             cases=12    pass",
    "I3             cases=12    pass",
    "I4             cases=12    pass",
    "I5             cases=12    pass",
    "I6             cases=48    pass",
    "I7             cases=12    pass",
    "I8             cases=12    pass",
    "I9             cases=12    pass",
    "I10            cases=90    pass",
    "I11            cases=48    pass",
    "I12            cases=90    pass",
    "I13            cases=48    pass",
    "I14            cases=90    pass",
    "CYID           cases=169   pass",
    "CZ_TRANSFORM   cases=13    pass",
    "SUN_TRANSFORM  cases=13    pass",
    "identities=17 failed=0",
]


def test_render_rows_roundtrip():
    rows = verify_prime(5, [Target.THM11_4K, Target.CONJ2_MODP2])
    csv_text = render_rows(rows, "csv", timings=False)
    assert csv_text.endswith("\n")
    jsonl_text = render_rows(rows, "jsonl", timings=False)
    assert len(jsonl_text.splitlines()) == 2
    table = render_rows(rows, "table", timings=False)
    assert table.splitlines()[0].startswith("prime")


@pytest.mark.parametrize("timings", [False, True])
def test_csv_matches_a_writer_over_the_records(timings):
    # the csv is written straight from the rows' fields; a csv.writer over
    # the records that jsonl and table output read gives the same bytes
    rows = verify_prime(1009) + verify_prime(1013)
    for r, ms in zip(rows, (0.0, 1.23456, 7.0, 1e-4)):
        r.millis = ms
    rows[1].passed = False  # a failing row reads "false"
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(_FIELDS)
    for rec in _rows_as_records(rows, timings):
        w.writerow([str(rec[f]).lower() if f == "pass" else rec[f] for f in _FIELDS])
    assert render_rows(rows, "csv", timings) == buf.getvalue()


@pytest.mark.parametrize("fmt", ["xml", "CSV"])
def test_render_rows_rejects_unknown_format(fmt):
    rows = verify_prime(5, [Target.THM11_4K])
    with pytest.raises(ValueError, match="unknown report format"):
        render_rows(rows, fmt, timings=False)
