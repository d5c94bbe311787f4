"""CLI surface: exit codes, JSON payloads, determinism, u-token parsing."""

import json
from unittest import mock

import pytest

from nhsbox import verifier
from nhsbox.cli import main, parse_u_token, UsageError
from nhsbox.gf import Field, cached_field


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_constants_thm2(capsys):
    code, out, _ = run_cli(capsys, "constants", "--which", "thm2")
    assert code == 0
    assert out.strip() == "m1=-98312 m2=-325643353"


def test_spectrum_q11(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--q", "11", "--family", "nh", "--r", "2", "--u", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["delta"] == 3
    assert payload["spectrum"] == {"0": 40, "1": 40, "2": 20, "3": 10}
    assert payload["locally_apn"] is True


def test_spectrum_roundtrip_and_reduced(capsys):
    code, full_out, _ = run_cli(capsys, "spectrum", "--q", "19", "--u", "1")
    code2, red_out, _ = run_cli(capsys, "spectrum", "--q", "19", "--u", "1", "--reduced")
    assert code == code2 == 0
    assert json.loads(full_out) == json.loads(red_out)
    # in-memory spectrum reproduced exactly from the JSON
    from nhsbox.nh_family import NHParams
    from nhsbox.spectra import FunctionTable, differential_spectrum

    spec = differential_spectrum(FunctionTable.from_nh(cached_field(19), NHParams(2, 1)))
    parsed = {int(k): v for k, v in json.loads(full_out)["spectrum"].items()}
    assert parsed == spec.omega


def test_boomerang_subcommand(capsys):
    code, out, _ = run_cli(capsys, "boomerang", "--q", "311", "--u", "1", "--reduced")
    assert code == 0
    payload = json.loads(out)
    assert payload["beta"] == 2
    total = sum(payload["spectrum"].values())
    assert total == 310 * 310


def test_identical_argv_identical_stdout(capsys):
    argv = ("spectrum", "--q", "43", "--u", "2")
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


def test_field_info(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "field", "--p", "3", "--n", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["q"] == 27 and payload["modulus"] == [1, 0, 2, 1]
    assert payload["cij_counts"] == {"00": 6, "01": 7, "10": 6, "11": 6}
    # above TABLE_LIMIT the counts are left out: they would scan all of F_q,
    # and the patch keeps a missing check from allocating 16 GiB at q = 2^31 - 1
    monkeypatch.setattr(Field, "cij_partition", mock.Mock(side_effect=AssertionError("scanned")))
    code, out, err = run_cli(capsys, "field", "--q", "2147483647")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["q"] == 2147483647 and "cij_counts" not in payload


def test_u_tokens():
    f7 = cached_field(7)
    assert parse_u_token(f7, "1/3") == f7.inv(3) == 5
    assert parse_u_token(f7, "-1/3") == f7.neg(f7.inv(3))
    assert parse_u_token(f7, "-1") == 6
    assert parse_u_token(f7, "+1") == 1
    assert parse_u_token(f7, "4") == 4
    with pytest.raises(UsageError):
        parse_u_token(f7, "9")  # out of range as a raw code
    with pytest.raises(UsageError):
        parse_u_token(cached_field(3, 3), "1/3")
    with pytest.raises(UsageError):
        parse_u_token(f7, "x")


def test_usage_errors_exit_2(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--q", "27", "--u", "1/3")
    assert code == 2 and "characteristic 3" in err
    code, _, err = run_cli(capsys, "spectrum", "--q", "12", "--u", "1")
    assert code == 2 and "prime power" in err
    code, _, err = run_cli(capsys, "sweep", "--min", "8", "--max", "20", "--claims", "NOPE")
    assert code == 2 and "unknown claim" in err
    code, _, err = run_cli(capsys, "field", "--p", "4")
    assert code == 2
    code, out, err = run_cli(capsys, "field", "--p", "3", "--n", "15")
    assert code == 2 and out == "" and err.startswith("error: ") and "table limit" in err


def test_spectrum_rejects_r_below_1_exit_2(capsys):
    code, out, err = run_cli(capsys, "spectrum", "--q", "11", "--u", "1", "--r", "0")
    assert code == 2 and out == "" and err.startswith("error: ") and "positive" in err


def test_reduced_spectra_at_q_1_mod_4_match_the_full_path(capsys):
    # the row reduction holds at every odd q: rows 1 and g stand for the
    # two orbits of the squares when eta(-1) = 1
    for command in ("spectrum", "boomerang"):
        for q in ("13", "25"):
            code, full_out, _ = run_cli(capsys, command, "--q", q, "--u", "2")
            code2, red_out, err = run_cli(capsys, command, "--q", q, "--u", "2", "--reduced")
            assert code == code2 == 0 and err == "" and red_out == full_out


def test_sweep_and_verify_input_errors_exit_2(capsys, monkeypatch):
    code, out, err = run_cli(capsys, "sweep", "--min", "5000", "--max", "4000", "--claims", "BOOM_F21")
    assert code == 2 and out == "" and "below min_q" in err
    # a range past every field is rejected before the sieve, which would
    # take max_q bytes; the patch keeps a missing check from allocating 3 GB
    monkeypatch.setattr(verifier, "_sieve", mock.Mock(side_effect=AssertionError("sieve ran")))
    code, out, err = run_cli(capsys, "sweep", "--min", "8", "--max", "3000000000", "--claims",
                             "BOOM_F21")
    assert code == 2 and out == "" and "element-code limit" in err
    code, _, err = run_cli(capsys, "sweep", "--min", "8", "--max", "20", "--claims", "BOOM_F21",
                           "--jobs", "0")
    assert code == 2 and "jobs" in err
    code, out, err = run_cli(capsys, "verify", "--q", "12", "--claims", "BOOM_F21")
    assert code == 2 and out == "" and "not a prime power" in err


def test_verify_rejects_a_q_that_is_no_field_exit_2(capsys):
    # q = 0 and -1 pass the prime-power parse only for the field build to
    # reject them; q = 2 is even.  None of them may print a skipped row.
    for q, what in (("0", "not prime"), ("-1", "not prime"), ("2", "characteristic 2")):
        code, out, err = run_cli(capsys, "verify", "--q", q, "--claims", "BOOM_F21")
        assert code == 2 and out == "" and err.startswith("error: ") and what in err, q


def test_verify_checks_every_claim_before_any_row(capsys):
    code, out, err = run_cli(capsys, "verify", "--q", "23", "--claims", "THM5_DELTA3", "NOPE")
    assert code == 2 and out == "" and "unknown claim 'NOPE'" in err


def test_sweep_rejects_malformed_u_mode_exit_2(capsys):
    for mode in ("bogus", "sample:x:1", "sample:5", "sample:0:1"):
        code, out, err = run_cli(capsys, "sweep", "--min", "900", "--max", "912",
                                 "--claims", "THM3_DELTA4", "--u-mode", mode)
        assert code == 2 and out == "" and "bad u mode" in err, mode


def test_verify_rejects_malformed_u_mode_exit_2(capsys):
    for mode in ("bogus", "sample:x:1", "sample:5", "sample:0:1"):
        code, out, err = run_cli(capsys, "verify", "--q", "907", "--claims", "THM3_DELTA4",
                                 "--u-mode", mode)
        assert code == 2 and out == "" and "bad u mode" in err, mode


def test_sweep_and_verify_reject_a_negative_seed_exit_2(capsys):
    # checked where the seed enters, not inside each (claim, q) task
    for command in (("sweep", "--min", "2003", "--max", "2004"), ("verify", "--q", "2003")):
        code, out, err = run_cli(capsys, *command, "--claims", "THM2_DELTA5",
                                 "--u-mode", "sample:4:0", "--seed", "-1")
        assert code == 2 and out == "" and err.startswith("error: ") and "seed" in err, command


def test_sweep_csv_and_exit(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "sweep", "--min", "8", "--max", "200", "--claims", "THM5_DELTA3",
        "--jobs", "2", "--format", "csv",
    )
    assert code == 0
    header = out.splitlines()[0]
    assert header == "q,p,n,u_code,claim_id,computed,expected,status,elapsed_ms"
    assert "exception=0" in err
    out_file = tmp_path / "report.csv"
    code, _, err = run_cli(
        capsys, "sweep", "--min", "8", "--max", "200", "--claims", "THM5_DELTA3",
        "--out", str(out_file), "--timing",
    )
    assert code == 0 and out_file.exists()
    assert out_file.read_text().splitlines()[0] == header


def test_sweep_progress_only_on_a_terminal(capsys, monkeypatch):
    import re
    import sys

    argv = ("sweep", "--min", "8", "--max", "200", "--claims", "THM5_DELTA3", "BOOM_F21",
            "--format", "csv")
    code, plain_out, plain_err = run_cli(capsys, *argv)
    assert code == 0 and "tasks" not in plain_err
    tasks = {(line.split(",")[4], line.split(",")[0]) for line in plain_out.splitlines()[1:]}
    monkeypatch.setattr(sys.stderr, "isatty", lambda: True)
    for jobs in ("1", "2"):
        code, out, err = run_cli(capsys, *argv, "--jobs", jobs)
        assert code == 0 and out == plain_out  # the report is unchanged
        progress, summary = err.split("\n", 1)  # one redrawn line, then the summary
        assert summary == plain_err
        line = r"\r(\d+)/(\d+) tasks, q=(\d+), \d+\.\ds elapsed"
        assert re.fullmatch(f"({line})+", progress)
        seen = re.findall(line, progress)
        assert [int(d) for d, _, _ in seen] == list(range(1, len(tasks) + 1))
        assert {int(t) for _, t, _ in seen} == {len(tasks)}
        assert sorted(q for _, _, q in seen) == sorted(q for _, q in tasks)


def test_sweep_text_format(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--min", "8", "--max", "100", "--claims", "REMARK_11_19_43",
        "--format", "text",
    )
    assert code == 0
    assert "pass=3" in out
    assert "Exception:" not in out


def test_verify_subcommand(capsys):
    code, out, _ = run_cli(capsys, "verify", "--q", "23", "--claims", "THM5_DELTA3", "BOOM_F21")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert {r["claim_id"] for r in rows} == {"THM5_DELTA3", "BOOM_F21"}
    statuses = {r["claim_id"]: r["status"] for r in rows}
    assert statuses["THM5_DELTA3"] == "pass"
    assert statuses["BOOM_F21"] in ("pass", "skipped")  # q = 23 is below 307


def test_charsum_selftest(capsys):
    code, out, _ = run_cli(capsys, "charsum", "selftest", "--qmax", "31")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["q", "result"]
    assert all(line.split()[1] == "pass" for line in lines[1:])


def test_charsum_selftest_range_errors_exit_2(capsys, monkeypatch):
    # a range past every field is rejected before the sieve (see the sweep test)
    monkeypatch.setattr(verifier, "_sieve", mock.Mock(side_effect=AssertionError("sieve ran")))
    code, out, err = run_cli(capsys, "charsum", "selftest", "--qmax", "3000000000")
    assert code == 2 and out == "" and err.startswith("error: ") and "element-code limit" in err
    monkeypatch.undo()
    code, out, err = run_cli(capsys, "charsum", "selftest", "--qmax", "2")
    assert code == 2 and out == "" and err.startswith("error: ") and "no odd prime power" in err


def _off_by_one(fn):
    return lambda *args: fn(*args) + 1


@pytest.mark.parametrize("name, fails", [
    ("weil_sum_quadratic_closed", lambda p, n, q: True),
    ("conic_count_closed", lambda p, n, q: True),
    ("_JACOBSTHAL_H2", lambda p, n, q: n == 1 and q % 4 == 3),
    ("_X4_MINUS_1_SUM", lambda p, n, q: q % 4 == 3),
])
def test_charsum_selftest_detects_a_wrong_closed_side(capsys, monkeypatch, name, fails):
    from nhsbox import cli
    from nhsbox.verifier import enumerate_prime_powers

    old = getattr(cli, name)
    monkeypatch.setattr(cli, name, old + 1 if isinstance(old, int) else _off_by_one(old))
    code, out, _ = run_cli(capsys, "charsum", "selftest", "--qmax", "50")
    assert code == 1
    got = {int(q): res for q, res in (line.split() for line in out.strip().splitlines()[1:])}
    want = {q: "FAIL" if fails(p, n, q) else "pass"
            for p, n, q in enumerate_prime_powers(3, 51, p_ne=(2,))}
    assert got == want
