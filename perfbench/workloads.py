"""The benchmark workloads: seeded inputs, the timed calls into nhsbox's
public entry points, and the checks that run after timing.

Each workload is a list of parts.  A part's ``run`` is timed; its
``check`` runs afterwards and returns one (item, ok) pair per operation,
where an operation is one (claim, q) sweep task or one oracle item.
Parts marked ``reference`` have no random input; their results are
compared with the committed report in ``ref/<workload>.json``.

Workload code calls nhsbox through module attributes (``gf.build_field``,
``verifier.sweep``) so that the traced pass sees the wrapped functions.
Set-up never touches ``gf.cached_field``: every timed run starts cold.
"""

from __future__ import annotations

import contextlib
import csv
import io
from dataclasses import dataclass

import numpy as np

from nhsbox import characters, cli, gf, nh_family, spectra, verifier

# exhaustive-u: every u of THM2_DELTA5 over 56 prime fields; the window
# holds the four known counterexamples (the documented red of the claim).
EXHAUSTIVE_WINDOW = (4027, 5000)
THM2_COUNTEREXAMPLES = {(4211, 999), (4211, 3212), (4219, 2002), (4219, 2217)}

# spectra-f21: three windows of the SPEC_F21 + BOOM_F21 sweep that hold
# 7^3, 11^3 and 3^7 (the BOOM_F21 exception at 2187 stays in the
# reference), then full-DDT and reduced-BCT spectra of generic-u tables.
SPECTRA_WINDOWS = ((307, 400), (1320, 1340), (2180, 2200))
GENERIC_U_FIELDS = ((1999, 1), (2003, 1), (11, 3), (3, 7))

# crosscheck-small: many small fields through closed-form-vs-oracle checks.
LEMMA_WINDOW = (7, 400)
CHARSUM_QMAX = 500
CENSUS_QMAX = 100_000
QUARTIC_FIELDS = ((3, 3), (31, 1), (43, 1), (7, 2), (127, 1))
QUARTIC_PAIRS_PER_CLASS = 2


@dataclass(frozen=True)
class Part:
    name: str
    run: object  # (inputs, jobs) -> JSON-able result
    check: object  # (result, reference or None, inputs) -> [(item, ok)]
    reference: bool = False  # result is compared with the committed report
    sweep: bool = False  # a claim sweep; feeds verifier.worker_busy_frac


@dataclass(frozen=True)
class Workload:
    jobs: int
    setup: object  # seed -> JSON-able inputs
    parts: tuple


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def _tasks(csv_text):
    """CSV report rows grouped by (claim, q): one group per sweep task."""
    groups = {}
    for row in list(csv.reader(io.StringIO(csv_text)))[1:]:
        groups.setdefault(f"{row[4]}@{row[0]}", []).append(row)
    return groups


def _check_tasks(csv_text, ref_csv):
    got, want = _tasks(csv_text), _tasks(ref_csv)
    return [(key, got.get(key) == want.get(key)) for key in sorted(set(got) | set(want))]


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return {"rc": rc, "stdout": out.getvalue()}


def run_exhaustive(inputs, jobs):
    lo, hi = EXHAUSTIVE_WINDOW
    return _run_cli(
        ["sweep", "--min", str(lo), "--max", str(hi), "--claims", "THM2_DELTA5",
         "--u-mode", "all", "--jobs", str(jobs), "--format", "csv"]
    )


def check_exhaustive(result, ref, inputs):
    items = _check_tasks(result["stdout"], ref["stdout"])
    items.append(("exit code", result["rc"] == ref["rc"]))
    found = {
        (int(row[0]), int(row[3]))
        for rows in _tasks(result["stdout"]).values()
        for row in rows
        if row[7] == "exception"
    }
    items.append(("the four THM2_DELTA5 counterexamples", found == THM2_COUNTEREXAMPLES))
    return items


def _sweep_part(claims, window):
    lo, hi = window

    def run(inputs, jobs):
        report = verifier.sweep(verifier.SweepConfig(claims=claims, min_q=lo, max_q=hi, jobs=jobs))
        return {"csv": report.to_csv(), "errors": [list(e) for e in report.errors]}

    def check(result, ref, inputs):
        items = _check_tasks(result["csv"], ref["csv"])
        return items + [(f"error {e}", False) for e in result["errors"]]

    return Part(f"sweep_{'_'.join(claims)}_{lo}_{hi}", run, check, reference=True, sweep=True)


# ---------------------------------------------------------------------------
# generic-u spectra
# ---------------------------------------------------------------------------


def setup_spectra(seed):
    """One u outside excluded_u_set from each eta sign class, per field."""
    tables = []
    for p, n in GENERIC_U_FIELDS:
        field = gf.build_field(p, n)
        codes = np.arange(1, field.q, dtype=np.int64)
        keep = np.ones(len(codes), dtype=bool)
        keep[[u - 1 for u in nh_family.excluded_u_set(field) if u]] = False
        eta = field.eta_vec(codes)
        rng = np.random.default_rng([seed, field.q])
        for sign in (1, -1):
            u = int(rng.choice(codes[keep & (eta == sign)]))
            tables.append({"p": p, "n": n, "u": u, "eta_u": sign})
    return {"tables": tables}


def run_generic_tables(inputs, jobs):
    out, fields = [], {}
    for t in inputs["tables"]:
        key = (t["p"], t["n"])
        if key not in fields:
            fields[key] = gf.build_field(*key)
        params = nh_family.NHParams(2, t["u"])
        table = spectra.FunctionTable.from_nh(fields[key], params)
        ddt = spectra.differential_spectrum(table)
        bct = spectra.boomerang_spectrum(table, reduction=params)
        out.append(
            {
                **t,
                "omega": ddt.to_json_dict(),
                "delta": ddt.uniformity,
                "locally_apn": ddt.locally_apn,
                "nu": bct.to_json_dict(),
                "beta": bct.uniformity,
            }
        )
    return out


def check_generic_tables(result, ref, inputs):
    items = []
    for t in result:
        field = gf.build_field(t["p"], t["n"])
        params = nh_family.NHParams(2, t["u"])
        table = spectra.FunctionTable.from_nh(field, params)
        red = spectra.differential_spectrum(table, reduction=params)
        label = f"q={field.q} u={t['u']}"
        items.append(
            (
                f"{label} full DDT spectrum == reduced",
                (red.to_json_dict(), red.uniformity, red.locally_apn)
                == (t["omega"], t["delta"], t["locally_apn"]),
            )
        )
        nu = {int(k): v for k, v in t["nu"].items()}
        items.append(
            (
                f"{label} boomerang spectrum sums to (q-1)^2",
                sum(nu.values()) == (field.q - 1) ** 2 and max(nu) == t["beta"],
            )
        )
    items.append(("one table per field and sign", len(result) == 2 * len(GENERIC_U_FIELDS)))
    return items


# ---------------------------------------------------------------------------
# crosscheck-small
# ---------------------------------------------------------------------------


def run_charsum(inputs, jobs):
    return _run_cli(["charsum", "selftest", "--qmax", str(CHARSUM_QMAX)])


def check_charsum(result, ref, inputs):
    got = result["stdout"].splitlines()[1:]
    want = ref["stdout"].splitlines()[1:]
    items = [
        (f"charsum {i}", i < len(got) and got[i] == line and line.endswith("pass"))
        for i, line in enumerate(want)
    ]
    items.append(("charsum rows", len(got) == len(want)))
    items.append(("charsum exit code", result["rc"] == ref["rc"] == 0))
    return items


def run_census(inputs, jobs):
    counts = {}
    for p, n, q in verifier.enumerate_prime_powers(3, CENSUS_QMAX, congruences=((4, 3),)):
        if n > 1:
            counts[str(q)] = gf.build_field(p, n).cij_partition().counts
    return counts


def check_census(result, ref, inputs):
    items = []
    for q_text, counts in ref.items():
        q = int(q_text)
        closed = {"00": (q - 3) // 4, "01": (q + 1) // 4, "10": (q - 3) // 4, "11": (q - 3) // 4}
        items.append((f"C_ij q={q}", result.get(q_text) == counts == closed))
    items.append(("census fields", sorted(result) == sorted(ref)))
    return items


def setup_crosscheck(seed):
    """Quartic pairs drawn equally from the predicted-irreducible class and
    the other class, so a run's cost does not swing with the seed."""
    quartics = []
    for p, n in QUARTIC_FIELDS:
        field = gf.build_field(p, n)
        q = field.q
        A, B = np.divmod(np.arange(q * q, dtype=np.int64), q)
        disc = field.sub_vec(field.mul_vec(A, A), field.mul_vec(np.int64(field.embed(4)), B))
        predicted = (field.eta_vec(disc) == -1) & (field.eta_vec(B) == -1)
        rng = np.random.default_rng([seed, q])
        for cls in (True, False):
            pool = np.nonzero(predicted == cls)[0]
            for k in rng.choice(pool, size=QUARTIC_PAIRS_PER_CLASS, replace=False):
                quartics.append({"p": p, "n": n, "A": int(A[k]), "B": int(B[k]), "predicted": cls})
    return {"quartics": quartics}


def run_quartics(inputs, jobs):
    out, fields = [], {}
    for t in inputs["quartics"]:
        key = (t["p"], t["n"])
        if key not in fields:
            fields[key] = gf.build_field(*key)
        field = fields[key]
        predicted, _ = characters.quartic_criteria(field, t["A"], t["B"])
        has_factor = characters.quartic_has_factor(field, t["A"], t["B"])
        out.append({**t, "criterion": bool(predicted), "has_factor": bool(has_factor)})
    return out


def _quartic_factor_oracle(field, A, B):
    """Independent factor test for x^4 + A x^2 + B: a root, or a monic
    quadratic x^2 + a x + b leaving remainder
    (2ab - a^3 - Aa) x + (b^2 - a^2 b - Ab + B), checked on the whole grid."""
    f, xs = field, field.elements()
    x2 = f.mul_vec(xs, xs)
    values = f.add_vec(f.add_vec(f.mul_vec(x2, x2), f.mul_vec(np.int64(A), x2)), np.int64(B))
    if np.any(values == 0):
        return True
    a, b = xs[:, None], xs[None, :]
    a2 = f.mul_vec(a, a)
    ab = f.mul_vec(a, b)
    c1 = f.sub_vec(f.sub_vec(f.add_vec(ab, ab), f.mul_vec(a2, a)), f.mul_vec(np.int64(A), a))
    c0 = f.sub_vec(f.sub_vec(f.mul_vec(b, b), f.mul_vec(a2, b)), f.mul_vec(np.int64(A), b))
    c0 = f.add_vec(c0, np.int64(B))
    return bool(np.any((c1 == 0) & (c0 == 0)))


def check_quartics(result, ref, inputs):
    items, fields = [], {}
    for t in result:
        key = (t["p"], t["n"])
        if key not in fields:
            fields[key] = gf.build_field(*key)
        field = fields[key]
        label = f"quartic q={field.q} A={t['A']} B={t['B']}"
        ok = t["criterion"] == t["predicted"]
        ok &= t["has_factor"] == _quartic_factor_oracle(field, t["A"], t["B"])
        if t["criterion"]:
            ok &= not t["has_factor"]  # predicted irreducible: no factor
        items.append((label, ok))
    want = 2 * QUARTIC_PAIRS_PER_CLASS * len(QUARTIC_FIELDS)
    items.append(("quartic pairs", len(result) == want))
    return items


# ---------------------------------------------------------------------------


WORKLOADS = {
    "exhaustive-u": Workload(
        jobs=2,
        setup=lambda seed: {},  # no random input: the sweep is exhaustive
        parts=(
            Part(
                "sweep_THM2_DELTA5", run_exhaustive, check_exhaustive, reference=True, sweep=True
            ),
        ),
    ),
    "spectra-f21": Workload(
        jobs=1,
        setup=setup_spectra,
        parts=tuple(_sweep_part(("SPEC_F21", "BOOM_F21"), w) for w in SPECTRA_WINDOWS)
        + (Part("generic_u_tables", run_generic_tables, check_generic_tables),),
    ),
    "crosscheck-small": Workload(
        jobs=2,
        setup=setup_crosscheck,
        parts=(
            _sweep_part(("LEMMA_SUITE",), LEMMA_WINDOW),
            Part("charsum_selftest", run_charsum, check_charsum, reference=True),
            Part("cij_census", run_census, check_census, reference=True),
            Part("quartics", run_quartics, check_quartics),
        ),
    ),
}
