"""The committed reports under reports/ regenerate.

Each CSV's documented command (reports/README.md) is run on a small q
window, with --out sent to a temporary file, and must give the committed
rows of that window byte for byte.  Each "What it shows" summary of
reports/README.md must match the rows of the full CSV.
"""

import re
import shlex
from pathlib import Path

import pytest

from nhsbox.cli import main

REPORTS = Path(__file__).resolve().parents[1] / "reports"

# The q window [lo, hi) regenerated for each committed CSV, about 4 s in all
# at one job.  The command is the one reports/README.md documents for the
# CSV, so a new report adds its README section and one row here.
WINDOWS = {
    "witness_census_7_20000.csv": (7, 3000),
    "f21_spec_boom_7_100000.csv": (7, 3000),
    # the four THM2_DELTA5 exceptions, at q = 4211 and 4219
    "thm2_thm3_all_u_839_20000.csv": (4200, 4232),
    # three THM6_WITNESS fields where its bound is proven
    "witness_census_proven.csv": (2825761, 2825900),
}


def _sections():
    """{CSV name: (commands, summaries)} from reports/README.md: each sweep
    command of the CSV's section as its argv after `python -m nhsbox.cli`, and
    each `pass=N exception=N skipped=N` of its "What it shows (...)" line."""
    sections = {}
    for section in (REPORTS / "README.md").read_text().split("\n## `")[1:]:
        blocks = "\n".join(section.split("```")[1::2]).replace("\\\n", " ")
        commands = [shlex.split(line.split("python -m nhsbox.cli ", 1)[1])
                    for line in blocks.splitlines() if "python -m nhsbox.cli " in line]
        shows = re.search(r"What it shows \((.*?)\):", section, re.S).group(1)
        summaries = [
            {"pass": int(p), "exception": int(e), "skipped": int(s)}
            for p, e, s in re.findall(r"pass=(\d+) exception=(\d+) skipped=(\d+)", shows)
        ]
        sections[section.split("`", 1)[0]] = commands, summaries
    return sections


def _option(argv, flag):
    return argv[argv.index(flag) + 1]


def _rows(name):
    """The committed CSV's header and rows, line endings kept."""
    header, *rows = (REPORTS / name).read_bytes().decode().splitlines(keepends=True)
    return header, rows


def _q(row):
    return int(row.split(",", 1)[0])


def test_every_report_has_a_window_and_a_section():
    assert set(WINDOWS) == set(_sections()) == {p.name for p in REPORTS.glob("*.csv")}


@pytest.mark.parametrize("name", list(WINDOWS))
def test_report_window_regenerates(name, tmp_path, capsys):
    lo, hi = WINDOWS[name]
    commands, _ = _sections()[name]
    # the documented sweep whose range holds the window
    (argv,) = [list(a) for a in commands
               if int(_option(a, "--min")) <= lo and hi <= int(_option(a, "--max"))]
    for flag, value in (("--min", lo), ("--max", hi), ("--jobs", 1), ("--out", tmp_path / name)):
        argv[argv.index(flag) + 1] = str(value)
    header, rows = _rows(name)
    want = [row for row in rows if lo <= _q(row) < hi]
    assert want, f"no committed row of {name} in [{lo}, {hi})"
    code = main(argv)
    capsys.readouterr()
    assert (tmp_path / name).read_bytes().decode() == header + "".join(want)
    assert code == int(any(row.split(",")[7] == "exception" for row in want))


@pytest.mark.parametrize("name", list(WINDOWS))
def test_report_summaries_match_the_csv(name):
    # one summary per documented sweep, counted over that sweep's q range;
    # together the sweeps cover every row
    commands, summaries = _sections()[name]
    assert summaries and len(summaries) == len(commands)
    _, rows = _rows(name)
    covered = 0
    for argv, summary in zip(commands, summaries):
        lo, hi = int(_option(argv, "--min")), int(_option(argv, "--max"))
        statuses = [row.split(",")[7] for row in rows if lo <= _q(row) < hi]
        assert {s: statuses.count(s) for s in summary} == summary, (name, lo, hi)
        covered += len(statuses)
    assert covered == len(rows) == sum(sum(s.values()) for s in summaries)
