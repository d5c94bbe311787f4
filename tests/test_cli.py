"""CLI surface: exit codes, JSON payloads, determinism, u-token parsing."""

import json

import pytest

from nhsbox.cli import main, parse_u_token, UsageError
from nhsbox.gf import cached_field


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


def test_field_info(capsys):
    code, out, _ = run_cli(capsys, "field", "--p", "3", "--n", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["q"] == 27 and payload["modulus"] == [1, 0, 2, 1]
    assert payload["cij_counts"] == {"00": 6, "01": 7, "10": 6, "11": 6}


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


def test_sweep_and_verify_input_errors_exit_2(capsys):
    code, out, err = run_cli(capsys, "sweep", "--min", "5000", "--max", "4000", "--claims", "BOOM_F21")
    assert code == 2 and out == "" and "below min_q" in err
    code, _, err = run_cli(capsys, "sweep", "--min", "8", "--max", "20", "--claims", "BOOM_F21",
                           "--jobs", "0")
    assert code == 2 and "jobs" in err
    code, out, err = run_cli(capsys, "verify", "--q", "12", "--claims", "BOOM_F21")
    assert code == 2 and out == "" and "not a prime power" in err


def test_verify_checks_every_claim_before_any_row(capsys):
    code, out, err = run_cli(capsys, "verify", "--q", "23", "--claims", "THM5_DELTA3", "NOPE")
    assert code == 2 and out == "" and "unknown claim 'NOPE'" in err


def test_sweep_rejects_malformed_u_mode_exit_2(capsys):
    for mode in ("bogus", "sample:x:1", "sample:5"):
        code, out, err = run_cli(capsys, "sweep", "--min", "900", "--max", "912",
                                 "--claims", "THM3_DELTA4", "--u-mode", mode)
        assert code == 2 and out == "" and "bad u mode" in err, mode


def test_verify_rejects_malformed_u_mode_exit_2(capsys):
    for mode in ("bogus", "sample:x:1", "sample:5"):
        code, out, err = run_cli(capsys, "verify", "--q", "907", "--claims", "THM3_DELTA4",
                                 "--u-mode", mode)
        assert code == 2 and out == "" and "bad u mode" in err, mode


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
