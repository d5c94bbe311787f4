"""Prime-power enumeration, claims, sweeps, reports, witness censuses."""

import dataclasses
import functools
import math
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from nhsbox import verifier
from nhsbox.characters import boomerang_constants, theorem6_constants
from nhsbox.gf import CODE_LIMIT, UnsupportedFieldError, cached_field, factorize
from nhsbox.nh_family import UnsupportedParameterError, aij_counts_brute, u_third
from nhsbox.verifier import (
    AGGREGATE_U,
    CLAIMS,
    SweepConfig,
    SweepReport,
    SweepRow,
    conclusion_expected_delta,
    enumerate_prime_powers,
    sweep,
    verify_claim,
    _sweep_worker,
)


def qs(rows):
    return [q for _, _, q in rows]


def test_enumerate_prime_powers_examples(monkeypatch):
    assert qs(enumerate_prime_powers(7, 50, congruences=((4, 3),))) == [
        7, 11, 19, 23, 27, 31, 43, 47,
    ]
    assert qs(enumerate_prime_powers(7, 50, congruences=((8, 7),))) == [7, 23, 31, 47]
    assert qs(enumerate_prime_powers(7, 8, congruences=((4, 3),))) == [7]
    assert enumerate_prime_powers(7, 6) == []
    with pytest.raises(ValueError):
        enumerate_prime_powers(2, 50)
    # no q above CODE_LIMIT is a field: such a range is rejected before the
    # sieve (patched to fail, so a missing check allocates nothing)
    monkeypatch.setattr(verifier, "_sieve", mock.Mock(side_effect=AssertionError("sieve ran")))
    with pytest.raises(ValueError, match="element-code limit"):
        enumerate_prime_powers(3, CODE_LIMIT + 2)


def test_enumerate_includes_higher_powers():
    got = qs(enumerate_prime_powers(3, 2500, congruences=((4, 3),)))
    for q in (27, 243, 343, 1331, 2187):
        assert q in got
    assert got == sorted(got)


@functools.lru_cache
def _prime_powers_by_factorisation(lo, hi):
    """(p, k, q) for every prime power q in [lo, hi), read off factorize(q)."""
    out = []
    for q in range(lo, hi):
        (p, k), *rest = factorize(q).items()
        if not rest:
            out.append((p, k, q))
    return out


@pytest.mark.parametrize("lo, hi, congruences", [
    (3, 100000, ()),
    (3, 100000, ((4, 3),)),
    (3, 501, ()),
    (839, 20000, ()),
    (4027, 5000, ()),
    (3, 3, ()),
    (1000, 1000, ()),
    (24, 25, ()),
    (5000, 4000, ()),
])
def test_enumerate_prime_powers_matches_factorisation(lo, hi, congruences):
    # odd q only: build_field makes no field of characteristic 2
    want = [
        (p, k, q) for p, k, q in _prime_powers_by_factorisation(lo, hi)
        if p != 2 and all(q % m == r for m, r in congruences)
    ]
    assert enumerate_prime_powers(lo, hi, congruences=congruences) == want


def test_enumerate_prime_powers_sieves_only_the_window():
    # the primes up to sqrt(max_q) and a window-sized sieve: sieving every
    # prime below 10^8 took about 20 s and 360 MiB here
    tracemalloc.start()
    try:
        start = time.perf_counter()
        got = enumerate_prime_powers(10**8 - 1000, 10**8)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == _prime_powers_by_factorisation(10**8 - 1000, 10**8) and len(got) == 52
    assert elapsed < 1.0 and peak < 10 * 2**20, (elapsed, peak / 2**20)


def test_verify_claim_examples():
    (row,) = verify_claim("THM5_DELTA3", 23, 1)
    assert row.status == "pass" and row.computed == "3"
    (row,) = verify_claim("APN_Q7", 7, 1)
    assert row.status == "pass" and row.computed == "2"
    (row,) = verify_claim("REMARK_11_19_43", 19, 1)
    assert row.status == "pass" and row.computed == "3"
    (row,) = verify_claim("THM6_DELTA4", 59, 1)
    assert row.status == "pass" and row.computed == "4"


def test_verify_claim_q_mismatch_yields_skipped_row():
    (row,) = verify_claim("THM5_DELTA3", 11, 1)  # 11 = 3 (mod 8)
    assert row.status == "skipped"
    (row,) = verify_claim("APN_Q7", 11, 1)
    assert row.status == "skipped"


def test_verify_claim_derives_q_and_takes_u_mode_by_keyword():
    assert verify_claim("BOOM_F21", 3, 7)[0].q == 2187
    # u_mode is keyword-only: a stray fourth positional must not pass as one
    with pytest.raises(TypeError):
        verify_claim("THM5_DELTA3", 23, 1, 23)


def test_condition_claims_aggregate_and_threshold():
    rows = verify_claim("THM2_DELTA5", 11, 1, u_mode="all")
    assert all(r.status in ("pass", "skipped") for r in rows)  # below 4027
    rows = verify_claim("THM3_DELTA4", 907, 1, u_mode="all")
    assert [r.status for r in rows] == ["pass"]
    assert rows[0].u_code == AGGREGATE_U
    sampled = verify_claim("THM3_DELTA4", 907, 1, u_mode="sample:5:1")
    assert 0 < len(sampled) <= 10
    assert all(r.status == "pass" and r.u_code >= 0 for r in sampled)
    again = verify_claim("THM3_DELTA4", 907, 1, u_mode="sample:5:1")
    assert [(r.u_code, r.computed) for r in sampled] == [(r.u_code, r.computed) for r in again]


def test_conclusion_expected_delta():
    f = cached_field(907)  # 907 = 3 (mod 8)
    assert conclusion_expected_delta(f, 1) == ((907 + 1) // 4, None)
    assert conclusion_expected_delta(f, f.neg(1)) == ((907 + 1) // 4, None)
    third = f.inv(3)
    assert conclusion_expected_delta(f, third) == (4, None)
    f23 = cached_field(23)
    assert conclusion_expected_delta(f23, f23.inv(3)) == (3, None)
    f7 = cached_field(7)
    assert conclusion_expected_delta(f7, f7.inv(3)) == (2, None)
    for u in range(2, 905):
        if u in (1, 906, third, f.neg(third)):
            continue
        expected, threshold = conclusion_expected_delta(f, u)
        assert (expected, threshold) in ((5, 4027), (4, 839))


def test_one_third_claims_partition_the_fields():
    # each q = 3 (mod 4) with p != 3 has exactly one u = 1/3 claim, and the
    # five-case table reads its value at u = +-1/3 from that claim
    third_claims = ("THM5_DELTA3", "THM6_DELTA4", "APN_Q7", "REMARK_11_19_43")
    for p, n, q in enumerate_prime_powers(7, 2000, congruences=((4, 3),)):
        if p == 3:
            continue
        (claim_id,) = [c for c in third_claims if CLAIMS[c].admits(p, q)]
        f = cached_field(p, n)
        third = f.inv(f.embed(3))
        for u in (third, f.neg(third)):
            assert conclusion_expected_delta(f, u) == (CLAIMS[claim_id].expected, None), q


def test_conclusion_expected_delta_needs_q_3_mod_4():
    for args in ((13, 1), (5, 2)):
        f = cached_field(*args)
        with pytest.raises(UnsupportedFieldError):
            conclusion_expected_delta(f, 2)


def test_conclusion_expected_delta_rejects_u_zero():
    for args in ((907, 1), (3, 7)):
        with pytest.raises(UnsupportedParameterError):
            conclusion_expected_delta(cached_field(*args), 0)


def test_conclusion_expected_delta_rejects_codes_out_of_range():
    f = cached_field(907)
    for u in (-1, 907, 5000):
        with pytest.raises(ValueError, match="out of range"):
            conclusion_expected_delta(f, u)


def test_verify_claim_rejects_unknown_claim():
    with pytest.raises(ValueError, match="unknown claim 'NOPE'; known: "):
        verify_claim("NOPE", 7, 1)


def test_sweep_rejects_malformed_u_mode():
    for mode in ("bogus", "sample:x:1", "sample:5", "sample:5:1:2", "sample:-1:0", "sample:0:1",
                 "fixed:", "fixed:2,-2"):
        with pytest.raises(ValueError, match="bad u mode"):
            sweep(SweepConfig(claims=("THM3_DELTA4",), min_q=900, max_q=912, u_mode=mode))


def test_default_u_mode_samples_above_2000():
    rows = verify_claim("THM3_DELTA4", 2003, 1, u_mode="default")
    assert 0 < len(rows) <= 128  # 64 per eta(u) sign class
    assert all(r.status == "pass" and r.u_code >= 0 for r in rows)
    rows_small = verify_claim("THM3_DELTA4", 1907, 1, u_mode="default")
    assert [r.u_code for r in rows_small] == [AGGREGATE_U]  # exhaustive, aggregated


def test_conclusion_table_consistency():
    # every computed delta matches its five-case table row exactly, except
    # inside a numerically-suggested threshold where deviations are
    # informational (the delta = 5 row below 4027 here)
    from nhsbox.nh_family import uniformity_batch

    for args in ((863, 1), (1051, 1), (331, 1), (3, 7)):
        field = cached_field(*args)
        q = field.q
        us = np.arange(1, q, dtype=np.int64)
        deltas = uniformity_batch(field, 2, us)
        checked = informational = 0
        for u, d in zip(us.tolist(), deltas.tolist()):
            expected, threshold = conclusion_expected_delta(field, u)
            if threshold is None or q >= threshold:
                assert d == expected, (q, u, d, expected)
                checked += 1
            else:
                informational += 1
        assert checked > 0
        if q < 4027:
            assert informational > 0  # the delta = 5 row is sub-threshold here


def test_spec_f21_and_boom_claims():
    (row,) = verify_claim("SPEC_F21", 43, 1)
    assert row.status == "pass"
    (row,) = verify_claim("BOOM_F21", 311, 1)
    assert row.status == "pass" and row.computed == "2"
    rows = verify_claim("BOOM_F21", 7, 1)
    assert all(r.status in ("pass", "skipped") for r in rows)


@pytest.mark.parametrize("name, change, problem", [
    ("closed_form_spectrum_F21", {"omega": {0: 1}}, "spectrum {brute} != {{0: 1}}"),
    ("identities_hold", None, "sum identities failed"),
    ("differential_spectrum", {"uniformity": 12}, "delta 12 != (q+1)/4"),
    ("differential_spectrum", {"locally_apn": False}, "not locally-APN"),
])
def test_spec_f21_names_each_broken_input(monkeypatch, name, change, problem):
    # one input broken at a time gives exactly its own problem; q = 43 has
    # uniformity (q + 1)/4 = 11
    from nhsbox.spectra import DifferentialSpectrum, FunctionTable, differential_spectrum

    brute = differential_spectrum(FunctionTable.from_nh(cached_field(43), verifier.NHParams(2, 1)))
    if change is None:
        monkeypatch.setattr(DifferentialSpectrum, name, lambda self, q: False)
    else:
        real = getattr(verifier, name)
        monkeypatch.setattr(
            verifier, name, lambda *args, **kw: dataclasses.replace(real(*args, **kw), **change)
        )
    (row,) = verify_claim("SPEC_F21", 43, 1)
    want = problem.format(brute=brute.omega)
    assert (row.computed, row.expected, row.status) == (want, "ok", "exception")


@pytest.mark.parametrize("q", [19, 311])  # below and above the threshold 307
def test_boom_f21_cap_breach_is_an_exception_at_every_q(monkeypatch, q):
    real = verifier.boomerang_row

    def beta_3(table, a):
        row = real(table, a).copy()
        row[1] = 3
        return row

    monkeypatch.setattr(verifier, "boomerang_row", beta_3)
    (row,) = verify_claim("BOOM_F21", q, 1)
    assert (row.computed, row.expected, row.status) == ("3", "<=2", "exception")


def test_lemma_suite_names_each_failed_check(monkeypatch):
    from nhsbox.gf import Field

    q = 19
    real_cij = Field.cij_partition
    counts = dict(real_cij(cached_field(q)).counts)
    wrong = {**counts, "00": counts["00"] + 1}
    want = {"00": (q - 3) // 4, "01": (q + 1) // 4, "10": (q - 3) // 4, "11": (q - 3) // 4}
    assert counts == want
    real_parts = verifier.derivative_row_parts

    def shifted_parts(field, r):  # c off by one at x = 2 only
        c, d = real_parts(field, r)
        c = c.copy()
        c[2] = field.add(int(c[2]), 1)
        return c, d

    for target, name, fake, problem in (
        (Field, "cij_partition", lambda self: dataclasses.replace(real_cij(self), counts=wrong),
         f"C_ij counts {wrong} != {want}"),
        (verifier, "_sqrt_pair_lemma_holds", lambda field: False,
         "sqrt-pair character lemma failed"),
        (verifier, "derivative_row_parts", shifted_parts, "u/-u derivative symmetry failed"),
    ):
        with monkeypatch.context() as m:
            m.setattr(target, name, fake)
            (row,) = verify_claim("LEMMA_SUITE", q, 1)
        assert (row.computed, row.expected, row.status) == (problem, "ok", "exception")


def _off_by_one(old):
    return old + 1 if isinstance(old, int) else lambda *args: old(*args) + 1


@pytest.mark.parametrize("name, problem", [
    ("weil_sum_quadratic_closed", "quadratic Weil sum closed != brute"),
    ("conic_count_closed", "conic count closed != brute"),
    ("_X4_MINUS_1_SUM", "sum of eta(x^4 - 1) != 0"),
    ("_JACOBSTHAL_H2", "Jacobsthal H_2(a) != 1"),
])
def test_charsum_names_each_failed_check(monkeypatch, name, problem):
    monkeypatch.setattr(verifier, name, _off_by_one(getattr(verifier, name)))
    (row,) = verify_claim("CHARSUM", 19, 1)
    assert (row.u_code, row.computed, row.expected, row.status) == (
        AGGREGATE_U, problem, "ok", "exception"
    )


def test_charsum_names_every_failed_check_in_one_row(monkeypatch):
    for name in ("weil_sum_quadratic_closed", "_JACOBSTHAL_H2"):
        monkeypatch.setattr(verifier, name, _off_by_one(getattr(verifier, name)))
    (row,) = verify_claim("CHARSUM", 19, 1)
    assert row.computed == "quadratic Weil sum closed != brute; Jacobsthal H_2(a) != 1"
    (row,) = verify_claim("CHARSUM", 3, 3)  # no Jacobsthal check off a prime field
    assert row.computed == "quadratic Weil sum closed != brute"


def test_sqrt_pair_lemma_fails_on_a_wrong_root(monkeypatch):
    field = cached_field(19)
    assert verifier._sqrt_pair_lemma_holds(field)
    monkeypatch.setattr(field, "sqrt_vec", lambda x: field.add_vec(x, 1))  # no root at all
    assert not verifier._sqrt_pair_lemma_holds(field)


def test_suggested_delta5_threshold_counterexamples():
    # Pinned finding: just above the suggested threshold 4027 there are
    # exactly two +-u counterexample pairs where the sign condition holds
    # yet delta = 4 (every other (q, u) in [4027, 8000] gives 5, and a
    # wider exhaustive scan finds none up to q = 20000).  Also confirmed
    # here by an in-test oracle that bypasses the library entirely.
    from nhsbox.nh_family import NHParams, derivative_row_counts

    for q, u in ((4211, 999), (4219, 2002)):
        field = cached_field(q)
        assert field.eta(field.add(1, u)) == field.eta(field.sub(u, 1))
        assert int(derivative_row_counts(field, NHParams(2, u)).max()) == 4
        assert int(derivative_row_counts(field, NHParams(2, q - u)).max()) == 4

        x = np.arange(q, dtype=np.int64)
        squares = np.zeros(q, dtype=bool)
        squares[(x[1:] * x[1:]) % q] = True
        eta = np.where(x == 0, 0, np.where(squares, 1, -1))
        table = (x * x % q) * (1 + u * eta) % q
        best = 0
        for a in range(1, q):
            row = (np.roll(table, -a) - table) % q
            best = max(best, int(np.bincount(row, minlength=q).max()))
        assert best == 4


def test_thm2_exhaustive_rows_above_the_threshold():
    # one exception row per missed u, then the aggregate of the agreeing u
    for q, missed in ((4211, (999, 3212)), (4219, (2002, 2217))):
        rows = verify_claim("THM2_DELTA5", q, 1, u_mode="all")
        assert [(r.u_code, r.computed, r.expected, r.status) for r in rows] == [
            (u, "4", "5", "exception") for u in missed
        ] + [(AGGREGATE_U, "5", "5", "pass")]


def test_fixed_u_mode():
    rows = verify_claim("THM3_DELTA4", 907, 1, u_mode="fixed:2,3,5,905")
    assert all(r.status in ("pass", "skipped") for r in rows)
    kept = {r.u_code for r in rows}
    assert kept <= {2, 3, 5, 905}  # codes outside the sign class are dropped
    assert all(r.computed == "4" for r in rows if r.status == "pass")


def test_fixed_u_mode_counts_each_code_once():
    # a repeated fixed code is one u: one row, counted once in the summary
    rows = verify_claim("THM3_DELTA4", 43, 1, u_mode="fixed:3,3,3")
    assert [(r.u_code, r.computed, r.status) for r in rows] == [(3, "3", "skipped")]
    rows = verify_claim("THM3_DELTA4", 43, 1, u_mode="fixed:9,3,9,3")
    assert [(r.u_code, r.status) for r in rows] == [(3, "skipped"), (9, "pass")]
    rep = sweep(SweepConfig(claims=("THM3_DELTA4",), min_q=43, max_q=44, u_mode="fixed:3,3,3"))
    assert rep.summary == {"pass": 0, "exception": 0, "skipped": 1}


def test_one_fixed_u_sizes_the_batch_buffers_by_the_request():
    # one u needs one row of keys, sums and quotients (16 MiB at q ~ 10^6),
    # not 16 rows of each (about 260 MiB); the rest of the peak (34.3 MiB
    # in all) is the q-long derivative row parts
    cached_field(1000003)
    tracemalloc.start()
    try:
        (row,) = verify_claim("THM3_DELTA4", 1000003, 1, u_mode="fixed:7")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (row.u_code, row.computed, row.status) == (7, "4", "pass")
    assert peak < 40 * 2**20, peak / 2**20


def test_fixed_u_mode_drops_codes_beyond_q():
    rows = verify_claim("THM3_DELTA4", 907, 1, u_mode="fixed:5000")
    assert [(r.u_code, r.computed, r.status) for r in rows] == [(AGGREGATE_U, "no-u", "skipped")]
    rows = verify_claim("THM3_DELTA4", 907, 1, u_mode="fixed:5000,2,907")
    assert [(r.u_code, r.computed, r.status) for r in rows] == [(2, "4", "pass")]
    rep = sweep(SweepConfig(claims=("THM3_DELTA4",), min_q=900, max_q=1000, u_mode="fixed:5000"))
    assert rep.errors == [] and {r.computed for r in rep.rows} == {"no-u"}


def test_fixed_u_mode_reads_only_the_listed_codes():
    # the sign condition and the excluded set are evaluated on the fixed
    # codes alone: one u at q = 1000003 allocates no q-sized array (a q-sized
    # int64 array alone is 7.6 MiB)
    import tracemalloc

    field = cached_field(1000003)  # built before tracing: its eta table is not counted
    tracemalloc.start()
    try:
        us, exhaustive = verifier._select_condition_us(field, CLAIMS["THM3_DELTA4"], "fixed:5")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    assert us.tolist() == ([5] if field.eta(6) == field.eta(field.sub(1, 5)) else [])
    assert not exhaustive


def test_boomerang_cap_below_threshold():
    # beta(1, b) <= 2 is unconditional; below q = 307 only the "beta equals
    # exactly 2" half may fail, and it downgrades to a skipped row
    rep = sweep(SweepConfig(claims=("BOOM_F21",), min_q=7, max_q=307, jobs=2))
    assert rep.summary["exception"] == 0
    assert not any(r.expected == "<=2" for r in rep.rows)


def test_lemma_suite_claim():
    for p, n in ((19, 1), (3, 3)):
        (row,) = verify_claim("LEMMA_SUITE", p, n)
        assert row.status == "pass", row


def test_lemma_suite_builds_one_case_per_chunk(monkeypatch):
    from nhsbox.nh_family import CaseAnalysis

    built = []
    real = CaseAnalysis.__init__

    def counting(self, field, u):
        built.append(np.atleast_1d(u).tolist())
        real(self, field, u)

    monkeypatch.setattr(CaseAnalysis, "__init__", counting)
    # one chunk of all 40 u at q = 43; chunks of 131 u at q = 499, the last
    # one partial
    for q in (43, 499):
        built.clear()
        (row,) = verify_claim("LEMMA_SUITE", q, 1)
        assert row.status == "pass"
        # every u outside {0, +1, -1} once, ascending, one CaseAnalysis per
        # chunk of max(1, _CASE_CELLS // q) u
        step = max(1, verifier._CASE_CELLS // q)
        assert [u for chunk in built for u in chunk] == list(range(2, q - 1))
        assert [len(chunk) for chunk in built] == [
            min(step, q - 3 - lo) for lo in range(0, q - 3, step)
        ]
    assert len(built) > 1 and len(built[-1]) < len(built[0])


def _closed_counts_wrong_at(monkeypatch, bad_u):
    """CaseAnalysis.a_counts_all with #A_00(0) off by one at u = bad_u only,
    for one u or a batch of u."""
    from nhsbox.nh_family import CaseAnalysis

    real = CaseAnalysis.a_counts_all

    def wrong(self):
        counts = real(self).copy()
        us = np.atleast_1d(self.u)
        counts.reshape(len(us), self.field.q, 4)[us == bad_u, 0, 0] += 1
        return counts

    monkeypatch.setattr(CaseAnalysis, "a_counts_all", wrong)


def _lemma_fails_at(monkeypatch, bad_u):
    """The delta <= 5 cap of the lemma battery reads false at u = bad_u only."""
    from nhsbox import nh_family

    real = nh_family._lemma_battery

    def failing(case, bs, counts):
        battery = real(case, bs, counts)
        name, applicable, ok = battery[-1]
        us = np.atleast_1d(case.u)
        ok = np.array(ok)
        ok.reshape(len(us), -1)[us == bad_u] = False
        battery[-1] = (name, applicable, ok)
        return battery

    monkeypatch.setattr(nh_family, "_lemma_battery", failing)


def test_lemma_suite_names_the_u_whose_closed_counts_differ(monkeypatch):
    _closed_counts_wrong_at(monkeypatch, 17)
    (row,) = verify_claim("LEMMA_SUITE", 43, 1)
    assert row.status == "exception" and row.computed == "A_ij closed != brute at u=17"


@pytest.mark.parametrize("bad_u", [10, 40])  # 40 = q - 3 is the last u at q = 43
def test_lemma_suite_names_the_u_whose_lemma_fails(monkeypatch, bad_u):
    _lemma_fails_at(monkeypatch, bad_u)
    (row,) = verify_claim("LEMMA_SUITE", 43, 1)
    assert row.status == "exception"
    assert row.computed == f"exclusion/cap lemma failed at u={bad_u}"


def test_lemma_suite_reports_the_smallest_failing_u(monkeypatch):
    # the first failure in ascending u wins, whichever check it is; q = 499
    # walks the u in chunks of 131 (2..132, 133..263, 264..394, 395..497),
    # so a failure in a later chunk is reported only when no earlier u fails
    for q, closed_u, lemma_u, want in (
        (43, 17, 10, "exclusion/cap lemma failed at u=10"),
        (43, 17, 30, "A_ij closed != brute at u=17"),
        (499, 400, 300, "exclusion/cap lemma failed at u=300"),
        (499, 400, 450, "A_ij closed != brute at u=400"),
    ):
        with monkeypatch.context() as m:
            _closed_counts_wrong_at(m, closed_u)
            _lemma_fails_at(m, lemma_u)
            (row,) = verify_claim("LEMMA_SUITE", q, 1)
        assert row.status == "exception" and row.computed == want


def test_thm6_witness_memory_bound():
    # the closed counts of one u at q ~ 10^6 are one (4, 1, q) int8 array,
    # 4 MiB; the rest of the peak (about 58 MiB in all) is the q-long int64
    # temporaries of one class plane at a time.  The field's tables are
    # built before tracing.
    verify_claim("THM6_WITNESS", 1000003, 1)
    tracemalloc.start()
    try:
        (row,) = verify_claim("THM6_WITNESS", 1000003, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert row.status == "pass"
    assert peak < 72 * 2**20, peak / 2**20


def test_sweep_determinism_across_jobs():
    import json

    censuses = ("F21_LAMBDA", "THM5_WITNESS", "THM6_WITNESS", "BOOM_WITNESS")
    for cfg in (
        dict(claims=("THM5_DELTA3", "REMARK_11_19_43"), min_q=8, max_q=400),
        dict(claims=censuses, min_q=7, max_q=400),
    ):
        rep1 = sweep(SweepConfig(jobs=1, **cfg))
        rep3 = sweep(SweepConfig(jobs=3, **cfg))
        assert rep1.to_csv() == rep3.to_csv()
        assert rep1.to_text() == rep3.to_text()
        j1, j3 = json.loads(rep1.to_json()), json.loads(rep3.to_json())
        assert j1["rows"] == j3["rows"] and j1["summary"] == j3["summary"]
        assert rep1.ok and rep3.ok
        assert {r.claim_id for r in rep1.rows} == set(cfg["claims"])
    # timing columns may differ, but the deterministic render must not
    assert rep1.to_csv().splitlines()[0] == (
        "q,p,n,u_code,claim_id,computed,expected,status,elapsed_ms"
    )


def test_sweep_rejects_inverted_range_and_unknown_claims():
    with pytest.raises(ValueError, match="below min_q"):
        sweep(SweepConfig(claims=("THM5_DELTA3",), min_q=5000, max_q=4000))
    with pytest.raises(ValueError, match="unknown claim 'NOPE'"):
        sweep(SweepConfig(claims=("THM5_DELTA3", "NOPE"), min_q=8, max_q=20))
    # jobs = 1.5 raised a TypeError from the pool, and jobs = True ran as one job
    for jobs, match in ((0, "jobs = 0 must be a positive"), (1.5, "jobs = 1.5 is not"),
                        (True, "jobs = True is not")):
        with pytest.raises(ValueError, match=match):
            sweep(SweepConfig(claims=("THM5_DELTA3",), min_q=8, max_q=20, jobs=jobs))
    # an empty but not inverted range is a valid, empty sweep
    assert sweep(SweepConfig(claims=("THM5_DELTA3",), min_q=100, max_q=100)).rows == []


def test_sweep_worker_records_failures():
    # 15 = 7 (mod 8) passes the filter, then field construction fails
    rows, errors = _sweep_worker(("THM5_DELTA3", 15, 1), "default")
    assert rows == []
    assert len(errors) == 1 and errors[0][0] == 15 and "NotPrime" in errors[0][2]


def test_sweep_records_a_dead_worker_as_errors(monkeypatch):
    import os
    import signal

    from nhsbox import verifier

    real = verifier.verify_claim

    def dies_at_23(claim_id, p, n, **kwargs):
        if p**n == 23:
            os._exit(1)  # the worker process ends as if the OS had killed it
        return real(claim_id, p, n, **kwargs)

    def hung(signum, frame):
        raise TimeoutError("sweep hung after a worker died")

    monkeypatch.setattr(verifier, "verify_claim", dies_at_23)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        rep = sweep(SweepConfig(claims=("THM5_DELTA3",), min_q=8, max_q=400, jobs=2))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert not rep.ok
    assert (23, "THM5_DELTA3") in [(q, claim) for q, claim, _ in rep.errors]
    assert all(msg.startswith("BrokenProcessPool: ") for _, _, msg in rep.errors)


def test_report_rendering():
    rows = [
        SweepRow(23, 23, 1, 8, "THM5_DELTA3", "4", "3", "exception", 1.25),
        SweepRow(31, 31, 1, 21, "THM5_DELTA3", "3", "3", "pass", 0.5),
    ]
    rep = SweepReport(rows=rows, errors=[(47, "THM5_DELTA3", "boom")], config={})
    text = rep.to_text()
    assert "Exception: q=23, differential uniformity=4" in text
    assert "Error: q=47" in text
    assert rep.summary == {"pass": 1, "exception": 1, "skipped": 0}
    assert not rep.ok
    csv_timed = rep.to_csv(with_timing=True)
    assert "1.250" in csv_timed and "0" != csv_timed.splitlines()[1].split(",")[-1]


def test_elapsed_ms_is_the_whole_task_time(monkeypatch):
    # a clock that advances 0.25 s per reading: the task spans one step
    ticks = iter(np.arange(1000) * 0.25)
    monkeypatch.setattr("nhsbox.verifier.time.perf_counter", lambda: float(next(ticks)))
    rows = verify_claim("THM3_DELTA4", 907, 1, u_mode="sample:3:1")
    assert len(rows) > 1
    assert [r.elapsed_ms for r in rows] == [250.0] * len(rows)
    rep = SweepReport(rows=rows, errors=[], config={})
    timed = [line.split(",")[-1] for line in rep.to_csv(with_timing=True).splitlines()[1:]]
    assert timed == ["250.000"] * len(rows)
    plain = [line.split(",")[-1] for line in rep.to_csv().splitlines()[1:]]
    assert plain == ["0"] * len(rows)


def test_lambda_census_f21():
    from nhsbox.nh_family import NHParams, derivative_row_counts

    for q in (11, 19, 31, 43, 59):
        (row,) = verify_claim("F21_LAMBDA", q, 1)
        assert row.status == "pass" and row.computed == row.expected, row
        # the two witness sets are disjoint and exactly cover delta(1,b) = 2
        row_counts = derivative_row_counts(cached_field(q), NHParams(2, 1))
        n1, n2 = map(int, row.computed.split(";"))
        assert n1 + n2 == int(np.count_nonzero(row_counts == 2))


def test_f21_lambda_claim_fails_on_a_wrong_formula(monkeypatch):
    # a formula off by one per side is an exception at every q (it has no
    # threshold), and so is a side that 16 does not divide
    real = verifier.cubic_character_sum
    for shift, expected in ((8, "0;0"), (1, "14/16;14/16")):
        monkeypatch.setattr(verifier, "cubic_character_sum", lambda f, s=shift: real(f) + s)
        (row,) = verify_claim("F21_LAMBDA", 19, 1)
        assert (row.computed, row.expected, row.status) == ("1;1", expected, "exception")


def test_lambda_census_thm5_bound():
    assert CLAIMS["THM5_WITNESS"].threshold == 58**2 < 3607
    (row,) = verify_claim("THM5_WITNESS", 3607, 1)
    assert row.status == "pass" and row.expected.startswith(">=")
    assert int(row.computed) >= int(row.expected[2:]) > 0


def test_witness_thresholds_are_where_the_bounds_turn_positive():
    # each witness claim's threshold is s^2, s the least integer from which
    # its bound's numerator is positive at sqrt(q) = s: at most 0 at s - 1,
    # positive at s, and s - 1 already past the vertex, so it stays positive
    m1_6, m2_6 = theorem6_constants()
    m1_b, m2_b = boomerang_constants()
    numerators = {  # (coefficient of q, of sqrt(q), constant) -> (N(s - 1), N(s))
        "THM5_WITNESS": ((1, -58, 3), (-54, 3)),
        "THM6_WITNESS": ((4, m1_6, m2_6 - 328), (-6361, 3439)),
        "BOOM_WITNESS": ((1, m1_b, m2_b + 1 - 1280), (-5278, 6191)),
    }
    for claim_id, ((a, b, c), values) in numerators.items():
        threshold = CLAIMS[claim_id].threshold
        s = math.isqrt(threshold)
        assert s * s == threshold, claim_id
        assert tuple(a * x * x + b * x + c for x in (s - 1, s)) == values, claim_id
        assert values[0] <= 0 < values[1] and 2 * a * (s - 1) + b >= 0, claim_id


def test_witness_bound_miss_is_skipped_below_the_threshold_only():
    # a miss of a proven bound is skipped below its threshold (58^2 for
    # THM5_WITNESS) and an exception from it on
    claim = CLAIMS["THM5_WITNESS"]
    for q, size, status in ((23, 0, "skipped"), (3607, 0, "exception"), (23, 1, "pass")):
        row = verifier._bound_row(cached_field(q), claim, 5, size, 0.5)
        assert (row.computed, row.expected, row.status) == (str(size), ">=1", status)


def test_lambda_census_at_u_third_needs_p_other_than_3():
    # 1/3 does not exist in characteristic 3, and the filters of the u = 1/3
    # witness claims leave F_27 out
    for claim_id in ("THM5_WITNESS", "THM6_WITNESS"):
        (row,) = verify_claim(claim_id, 3, 3)
        assert (row.u_code, row.computed, row.status) == (AGGREGATE_U, "-", "skipped")
    with pytest.raises(UnsupportedParameterError, match="undefined in characteristic 3"):
        u_third(cached_field(3, 3))


def test_witness_sizes_match_the_brute_force_class_counts():
    # the u = 1/3 witness masks applied to the brute-force A_ij scan, at every
    # admitted q < 500
    checked = 0
    for p, n, q in enumerate_prime_powers(8, 500):
        for claim_id in ("THM5_WITNESS", "THM6_WITNESS"):
            if not CLAIMS[claim_id].admits(p, q):
                continue
            field = cached_field(p, n)
            counts = aij_counts_brute(field, u_third(field))
            if claim_id == "THM5_WITNESS":
                mask = (counts[:, 2] == 2) & (counts[:, 3] == 1)
            else:
                mask = (counts[:, 1] == 2) & (counts[:, 2] == 1) & (counts[:, 3] == 1)
            (row,) = verify_claim(claim_id, p, n)
            assert row.u_code == u_third(field) and row.status == "pass"
            assert int(row.computed) == int(np.count_nonzero(mask)), (claim_id, q)
            checked += 1
    assert checked > 20


def test_lambda_census_boomerang_negation():
    # Lambda_2 = -Lambda_1: counts via the mirrored class pair agree
    from nhsbox.spectra import boomerang_case_counts_F21

    f = cached_field(103)
    (row,) = verify_claim("BOOM_WITNESS", 103, 1)
    cc = boomerang_case_counts_F21(f, f.elements()[1:])
    assert int(row.computed) == int(np.count_nonzero((cc["01,00"] == 1) & (cc["10,00"] == 1)))
    assert row.u_code == 1 and row.status == "pass"
