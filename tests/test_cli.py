"""CLI surface: exit codes, JSON payloads, determinism, u-token parsing."""

import json
from unittest import mock

import pytest

from nhsbox import verifier
from nhsbox.cli import main, parse_u_token, UsageError
from nhsbox.gf import CODE_LIMIT, Field, cached_field


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("which, want", [
    ("thm2", "m1=-98312 m2=-325643353"),
    ("thm6", "m1=-3644 m2=-5173713"),
    ("boomerang", "m1=-7756 m2=-17843871"),
])
def test_constants(capsys, which, want):
    code, out, _ = run_cli(capsys, "constants", "--which", which)
    assert (code, out) == (0, want + "\n")


def test_spectrum_q11(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--q", "11", "--r", "2", "--u", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["delta"] == 3
    assert payload["spectrum"] == {"0": 40, "1": 40, "2": 20, "3": 10}
    assert payload["locally_apn"] is True


def full_payload(command, p, n, u, r=2):
    """The JSON the CLI prints, built from the library's full (unreduced)
    spectrum of the same table."""
    from nhsbox.nh_family import NHParams
    from nhsbox.spectra import FunctionTable, boomerang_spectrum, differential_spectrum

    table = FunctionTable.from_nh(cached_field(p, n), NHParams(r, u))
    if command == "boomerang":
        spec = boomerang_spectrum(table)
        extra = {"beta": spec.uniformity}
    else:
        spec = differential_spectrum(table)
        extra = {"delta": spec.uniformity, "locally_apn": spec.locally_apn}
    return {"q": p**n, "u": u, "r": r, "spectrum": spec.to_json_dict(), **extra}


def test_spectrum_roundtrip_and_reduced(capsys):
    # the CLI reads the row reduction; its JSON is the full spectrum's
    code, out, _ = run_cli(capsys, "spectrum", "--q", "19", "--u", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload == full_payload("spectrum", 19, 1, 1)
    # in-memory spectrum reproduced exactly from the JSON
    from nhsbox.nh_family import NHParams
    from nhsbox.spectra import FunctionTable, differential_spectrum

    spec = differential_spectrum(FunctionTable.from_nh(cached_field(19), NHParams(2, 1)))
    assert {int(i): int(w) for i, w in payload["spectrum"].items()} == spec.omega


def test_boomerang_subcommand(capsys):
    code, out, _ = run_cli(capsys, "boomerang", "--q", "311", "--u", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload == full_payload("boomerang", 311, 1, 1)
    assert payload["beta"] == 2
    total = sum(payload["spectrum"].values())
    assert total == 310 * 310


def test_identical_argv_identical_stdout(capsys):
    argv = ("spectrum", "--q", "43", "--u", "2")
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


def test_field_info(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "field", "--q", "27")
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
    with pytest.raises(UsageError, match="bad u token '1/x'"):
        parse_u_token(f7, "1/x")


def test_usage_errors_exit_2(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--q", "27", "--u", "1/3")
    assert code == 2 and "characteristic 3" in err
    code, _, err = run_cli(capsys, "spectrum", "--q", "12", "--u", "1")
    assert code == 2 and "prime power" in err
    code, _, err = run_cli(capsys, "sweep", "--min", "8", "--max", "20", "--claims", "NOPE")
    assert code == 2 and "unknown claim" in err
    code, _, err = run_cli(capsys, "field", "--q", "4")
    assert code == 2
    code, out, err = run_cli(capsys, "field", "--q", str(3**15))
    assert code == 2 and out == "" and err.startswith("error: ") and "table limit" in err


def test_u_with_a_zero_denominator_exit_2(capsys):
    code, out, err = run_cli(capsys, "spectrum", "--q", "11", "--u", "1/0")
    assert code == 2 and out == "" and err.startswith("error: ") and "divides by zero" in err
    assert "characteristic" not in err


@pytest.mark.parametrize("argv", [
    ("field", "--q", "27", "--p", "3"),
    ("field", "--q", "27", "--n", "3"),
    ("spectrum", "--q", "11", "--u", "1", "--p", "11"),
    ("spectrum", "--q", "11", "--u", "1", "--n", "1"),
    ("spectrum", "--q", "11", "--u", "1", "--family", "nh"),
    ("boomerang", "--q", "11", "--u", "1", "--p", "11"),
    ("boomerang", "--q", "11", "--u", "1", "--n", "1"),
    ("boomerang", "--q", "11", "--u", "1", "--family", "nh"),
    ("spectrum", "--q", "11", "--u", "1", "--reduced"),
    ("boomerang", "--q", "11", "--u", "1", "--reduced"),
])
def test_removed_options_are_unrecognised_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == "" and "unrecognized arguments" in err


def test_field_spectrum_and_boomerang_need_q_exit_2(capsys):
    for argv in (("field",), ("spectrum", "--u", "1"), ("boomerang", "--u", "1")):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2 and "--q" in capsys.readouterr().err, argv


def test_spectrum_rejects_r_below_1_exit_2(capsys):
    code, out, err = run_cli(capsys, "spectrum", "--q", "11", "--u", "1", "--r", "0")
    assert code == 2 and out == "" and err.startswith("error: ") and "positive" in err


def test_reduced_spectra_at_q_1_mod_4_match_the_full_path(capsys):
    # the row reduction holds at every odd q: rows 1 and g stand for the
    # two orbits of the squares when eta(-1) = 1
    for command in ("spectrum", "boomerang"):
        for p, n in ((13, 1), (5, 2)):
            code, out, err = run_cli(capsys, command, "--q", str(p**n), "--u", "2")
            assert code == 0 and err == ""
            assert json.loads(out) == full_payload(command, p, n, 2), (command, p**n)


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
    # one q past the element-code limit is a usage error, before any field is built
    for argv in (("field",), ("verify", "--claims", "BOOM_F21")):
        code, out, err = run_cli(capsys, *argv, "--q", "3000000000")
        assert code == 2 and out == ""
        assert err == f"error: q = 3000000000 exceeds the element-code limit {CODE_LIMIT}\n"
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


def test_sweep_and_verify_take_their_seed_from_the_u_mode_only(capsys):
    # sample:K:SEED carries the only seed: there is no --seed option, and a
    # negative SEED is a bad u mode, rejected before any (claim, q) task
    for command in (("sweep", "--min", "2003", "--max", "2004"), ("verify", "--q", "2003")):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--claims", "THM2_DELTA5", "--seed", "1"])
        _, err = capsys.readouterr()
        assert exc.value.code == 2 and "unrecognized arguments: --seed" in err, command
        code, out, err = run_cli(capsys, *command, "--claims", "THM2_DELTA5",
                                 "--u-mode", "sample:4:-1")
        assert code == 2 and out == "" and "bad u mode" in err, command


def test_repeated_claim_ids_run_once(capsys):
    once = run_cli(capsys, "sweep", "--min", "8", "--max", "40", "--claims", "THM5_DELTA3")
    twice = run_cli(capsys, "sweep", "--min", "8", "--max", "40", "--claims", "THM5_DELTA3",
                    "THM5_DELTA3")
    assert once == twice and once[0] == 0 and "pass=2 " in once[2]
    once = run_cli(capsys, "verify", "--q", "23", "--claims", "BOOM_F21")
    twice = run_cli(capsys, "verify", "--q", "23", "--claims", "BOOM_F21", "BOOM_F21")
    assert once == twice and len(once[1].splitlines()) == 1


def test_verify_reports_a_raising_claim_and_goes_on(capsys, monkeypatch):
    # a claim that runs out of memory is an error line, not a traceback;
    # the patched evaluator keeps the test from allocating anything large
    import dataclasses

    def out_of_memory(field, claim, u_mode):
        raise MemoryError("no room for F_q")

    spec = dataclasses.replace(verifier.CLAIMS["BOOM_F21"], evaluate=out_of_memory)
    monkeypatch.setitem(verifier.CLAIMS, "BOOM_F21", spec)
    code, out, err = run_cli(capsys, "verify", "--q", "23", "--claims", "BOOM_F21", "THM5_DELTA3")
    assert code == 1
    assert err == "Error: q=23, claim=BOOM_F21: MemoryError: no room for F_q\n"
    (row,) = [json.loads(line) for line in out.splitlines()]
    assert row["claim_id"] == "THM5_DELTA3" and row["status"] == "pass"

    # a ValueError raised during a claim's work is that claim's error row,
    # exit 1, in verify and in sweep: main maps only input checks to exit 2
    def bad_value(field, claim, u_mode):
        raise ValueError("raised during work")

    spec = dataclasses.replace(verifier.CLAIMS["BOOM_F21"], evaluate=bad_value)
    monkeypatch.setitem(verifier.CLAIMS, "BOOM_F21", spec)
    error_line = "Error: q=23, claim=BOOM_F21: ValueError: raised during work\n"
    code, out, err = run_cli(capsys, "verify", "--q", "23", "--claims", "BOOM_F21", "THM5_DELTA3")
    assert code == 1 and err == error_line
    (row,) = [json.loads(line) for line in out.splitlines()]
    assert row["claim_id"] == "THM5_DELTA3" and row["status"] == "pass"
    code, out, err = run_cli(capsys, "sweep", "--min", "23", "--max", "24", "--claims",
                             "BOOM_F21", "THM5_DELTA3", "--format", "text")
    assert code == 1 and out.endswith(error_line) and "pass=1 " in out
    assert err == "pass=1 exception=0 skipped=0\n"


@pytest.mark.parametrize("argv, where", [
    (("sweep", "--format", "csv"), "stderr"),
    (("sweep", "--format", "csv", "--out", "report.csv"), "stderr"),
    (("sweep", "--format", "json"), "json"),
    (("sweep", "--format", "json", "--out", "report.json"), "json"),
    (("sweep", "--format", "text"), "stdout"),
    (("sweep", "--format", "text", "--out", "report.txt"), "file"),
    (("verify",), "stderr"),
    (("charsum",), "stderr"),
])
def test_a_task_error_is_reported_once_by_every_claim_command(capsys, monkeypatch, tmp_path,
                                                              argv, where):
    # one evaluator that raises at q = 23: every claim command and format
    # shows its error exactly once, the csv sweep on stderr
    import dataclasses

    def raises_at_23(real):
        def evaluate(field, claim, u_mode):
            if field.q == 23:
                raise RuntimeError("evaluator broke")
            return real(field, claim, u_mode)
        return evaluate

    for claim_id in ("BOOM_F21", "CHARSUM"):
        spec = verifier.CLAIMS[claim_id]
        monkeypatch.setitem(verifier.CLAIMS, claim_id,
                            dataclasses.replace(spec, evaluate=raises_at_23(spec.evaluate)))
    monkeypatch.chdir(tmp_path)
    command, *options = argv
    claim_id = "CHARSUM" if command == "charsum" else "BOOM_F21"
    code, out, err = run_cli(capsys, *{
        "sweep": ("sweep", "--min", "23", "--max", "24", "--claims", "BOOM_F21", "THM5_DELTA3"),
        "verify": ("verify", "--q", "23", "--claims", "BOOM_F21", "THM5_DELTA3"),
        "charsum": ("charsum", "selftest", "--qmax", "23"),
    }[command], *options)
    written = (tmp_path / options[-1]).read_text() if "--out" in options else ""
    msg = "RuntimeError: evaluator broke"
    line = f"Error: q=23, claim={claim_id}: {msg}"
    assert code == 1
    if where == "json":
        assert json.loads(written or out)["errors"] == [[23, claim_id, msg]]
        assert "Error: q=" not in out + err + written
    else:
        assert (out + err + written).count(line) == 1
        assert line in {"stdout": out, "stderr": err, "file": written}[where]
    if command == "sweep":
        assert err.endswith("pass=1 exception=0 skipped=0\n")


def test_a_non_value_error_of_a_one_field_command_propagates(capsys, monkeypatch):
    # only a ValueError is a rejected input: anything else raised during the
    # work leaves main as it is, with no "error: ..." line and no exit code
    from nhsbox import cli

    def broken(*args, **kwargs):
        raise ArithmeticError("inexact")

    monkeypatch.setattr(cli, "differential_spectrum", broken)
    with pytest.raises(ArithmeticError, match="inexact"):
        main(["spectrum", "--q", "11", "--u", "1"])
    assert capsys.readouterr() == ("", "")


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
    from nhsbox.verifier import enumerate_prime_powers

    old = getattr(verifier, name)
    monkeypatch.setattr(verifier, name, old + 1 if isinstance(old, int) else _off_by_one(old))
    code, out, _ = run_cli(capsys, "charsum", "selftest", "--qmax", "50")
    assert code == 1
    got = {int(q): res for q, res in (line.split() for line in out.strip().splitlines()[1:])}
    want = {q: "FAIL" if fails(p, n, q) else "pass"
            for p, n, q in enumerate_prime_powers(3, 51)}
    assert got == want


def test_charsum_selftest_reports_a_raising_check_as_fail(capsys, monkeypatch):
    real = verifier.conic_count_closed

    def conic_raises_at_11(field, *args):
        if field.q == 11:
            raise RuntimeError("conic broke")
        return real(field, *args)

    monkeypatch.setattr(verifier, "conic_count_closed", conic_raises_at_11)
    code, out, err = run_cli(capsys, "charsum", "selftest", "--qmax", "13")
    assert code == 1
    assert out == (
        " q  result\n 3  pass\n 5  pass\n 7  pass\n 9  pass\n11  FAIL\n13  pass\n"
    )
    assert err == "Error: q=11, claim=CHARSUM: RuntimeError: conic broke\n"


def test_charsum_sweep_is_the_same_at_any_job_count(capsys):
    outs = []
    for jobs in ("1", "2"):
        code, out, err = run_cli(
            capsys, "sweep", "--claims", "CHARSUM", "--min", "3", "--max", "200", "--jobs", jobs
        )
        assert code == 0 and err.startswith("pass=")
        outs.append(out)
    assert outs[0] == outs[1]
    rows = outs[0].splitlines()[1:]
    assert len(rows) == len(verifier.enumerate_prime_powers(3, 200))
    assert all(row.endswith(",-1,CHARSUM,ok,ok,pass,0") for row in rows)


def test_verify_charsum_at_27(capsys):
    code, out, _ = run_cli(capsys, "verify", "--q", "27", "--claims", "CHARSUM")
    (row,) = [json.loads(line) for line in out.splitlines()]
    assert code == 0
    assert (row["q"], row["u_code"], row["status"]) == (27, -1, "pass")


def test_readme_lists_every_sweep_claim():
    # every claim a sweep can run is documented, in sorted order
    import re
    from pathlib import Path

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = readme.split("`sweep` claims: ", 1)[1].split(".", 1)[0]
    assert re.findall(r"`(\w+)`", listed) == sorted(verifier.CLAIMS)


def _documented_commands():
    """Every nhsbox command in a fenced block of README.md and
    reports/README.md, continuation lines joined and comments dropped, as
    the argv after `nhsbox` or `python -m nhsbox.cli`."""
    import shlex
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    commands = []
    for doc in ("README.md", "reports/README.md"):
        blocks = (root / doc).read_text().split("```")[1::2]
        for line in "\n".join(blocks).replace("\\\n", " ").splitlines():
            if line.startswith("nhsbox "):
                argv = line.removeprefix("nhsbox ")
            elif "python -m nhsbox.cli " in line:
                argv = line.split("python -m nhsbox.cli ", 1)[1]
            else:
                continue
            commands.append((doc, shlex.split(argv, comments=True)))
    return commands


def test_documented_commands_parse():
    # parsing only: a removed or renamed flag fails here, nothing runs
    from nhsbox.cli import build_parser

    commands = _documented_commands()
    assert len(commands) == 14
    for doc, argv in commands:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"{doc}: nhsbox {' '.join(argv)} does not parse")


def test_documented_one_field_commands_run(capsys):
    # README's examples other than its two sweeps (seconds to minutes, one at
    # 4 jobs), run as written: each exits 0 with nothing on stderr, and the
    # outputs README states are the outputs printed
    from pathlib import Path

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    outs = {}
    for doc, argv in _documented_commands():
        if doc == "README.md" and argv[0] != "sweep":
            code, out, err = run_cli(capsys, *argv)
            assert (code, err) == (0, ""), argv
            outs[" ".join(argv)] = out
    assert list(outs) == [
        "field --q 27", "spectrum --q 11 --r 2 --u 1", "spectrum --q 343 --u 1/3",
        "boomerang --q 311 --u 1", "charsum selftest --qmax 81", "constants --which thm2",
        "verify --q 23 --claims THM5_DELTA3 BOOM_F21",
    ]
    stated = {
        "constants --which thm2": ["m1=-98312 m2=-325643353"],
        "spectrum --q 11 --r 2 --u 1": ['"delta": 3', '"locally_apn": true', '"0": 40'],
    }
    for command, fragments in stated.items():
        for fragment in fragments:
            assert fragment in readme and fragment in outs[command], (command, fragment)


def test_readme_quick_start_runs(capsys):
    # the one python block of README.md, run as written: its asserts hold and
    # it prints the line its last comment documents
    from pathlib import Path

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = [b.removeprefix("python\n") for b in readme.split("```")[1::2]
                if b.startswith("python\n")]
    assert block.rstrip().endswith("# 15 True")
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out == "15 True\n"
