"""Acceptance suite: one test per criterion, each at its stated range and
tolerance.  Every test prints a single pass/fail line (visible with -s or
-rP); all expected values are exact integers, so "tolerance" everywhere
means equality.
"""

import os

import time

import numpy as np
import pytest

from nhsbox.characters import (
    conic_count_brute,
    conic_count_closed,
    jacobsthal_sum,
    theorem2_constants,
    weil_sum_brute,
    weil_sum_quadratic_closed,
)
from nhsbox.gf import build_field, cached_field, is_irreducible_zp
from nhsbox.nh_family import NHParams, derivative_row_counts
from nhsbox.spectra import (
    FunctionTable,
    boomerang_case_counts_F21,
    boomerang_row,
    boomerang_spectrum,
    closed_form_spectrum_F21,
    differential_spectrum,
)
from nhsbox.verifier import (
    SweepConfig,
    enumerate_prime_powers,
    sweep,
)

JOBS = min(8, os.cpu_count() or 1)


def report(capfd, num, name, started):
    with capfd.disabled():  # the per-criterion line must survive capture
        print(f"ACCEPTANCE {num} ({name}): PASS [{time.time() - started:.1f}s]", flush=True)


def q3mod4(lo, hi):
    return enumerate_prime_powers(lo, hi, congruences=((4, 3),))


# -- 1 ----------------------------------------------------------------------


def test_acceptance_1_closed_form_spectrum(capfd):
    started = time.time()
    checked = 0
    for p, n, q in q3mod4(11, 2001):
        field = build_field(p, n)
        table = FunctionTable.from_nh(field, NHParams(2, 1))
        brute = differential_spectrum(table)
        closed = closed_form_spectrum_F21(field)
        assert brute.omega == closed.omega, q
        assert brute.uniformity == closed.uniformity == (q + 1) // 4
        assert brute.identities_hold(q) and closed.identities_hold(q)
        checked += 1
    assert checked >= 150
    report(capfd, 1, f"closed-form spectrum, {checked} fields", started)


# -- 2 ----------------------------------------------------------------------


def test_acceptance_2_bound_constants(capfd):
    started = time.time()
    assert theorem2_constants() == (-98312, -325643353)
    report(capfd, 2, "bound constants m1/m2", started)


# -- 3 ----------------------------------------------------------------------


def test_acceptance_3_delta3_range(capfd):
    started = time.time()
    rep = sweep(SweepConfig(claims=("THM5_DELTA3",), min_q=8, max_q=3364, jobs=JOBS))
    assert rep.ok, rep.to_text()
    n_pass = rep.summary["pass"]
    assert n_pass == len(enumerate_prime_powers(8, 3364, congruences=((8, 7),)))
    rep7 = sweep(SweepConfig(claims=("APN_Q7",), min_q=3, max_q=8, jobs=1))
    assert rep7.ok and rep7.summary["pass"] == 1
    report(capfd, 3, f"delta=3 for q=7(8), 7<q<3364 ({n_pass} fields) and delta=2 at q=7", started)


# -- 4 ----------------------------------------------------------------------


def test_acceptance_4_delta4_range(capfd):
    started = time.time()
    rep = sweep(SweepConfig(claims=("THM6_DELTA4",), min_q=44, max_q=5001, jobs=JOBS))
    assert rep.ok, rep.to_text()
    n_pass = rep.summary["pass"]
    expect = [
        (p, n, q)
        for p, n, q in enumerate_prime_powers(44, 5001, congruences=((8, 3),))
        if p != 3
    ]
    assert n_pass == len(expect)
    small = sweep(SweepConfig(claims=("REMARK_11_19_43",), min_q=3, max_q=44, jobs=1))
    assert small.ok and small.summary["pass"] == 3
    report(capfd, 4, f"delta=4 for q=3(8), 43<q<=5000 ({n_pass} fields); delta=3 at 11,19,43", started)


# -- 5 ----------------------------------------------------------------------


def test_acceptance_5_delta5_delta4_spot_checks(capfd):
    """delta = 5 over [4027, 8000] and delta = 4 over [839, 4000], u exhaustive.

    KNOWN RED: the delta = 5 clause fails at exactly (q, u) in
    {(4211, +-999), (4219, +-2002)}, where the sign condition holds but
    delta = 4.  Confirmed by three independent paths (row-1 reduction,
    vectorized full DDT, pure-Python full DDT with Euler-criterion eta),
    so the suggested threshold 4027 itself is too low.  The check is kept
    as stated rather than patched around the counterexamples.
    """
    started = time.time()
    rep5 = sweep(
        SweepConfig(claims=("THM2_DELTA5",), min_q=4027, max_q=8001, jobs=JOBS, u_mode="all")
    )
    exceptions = [
        (r.q, r.u_code, r.computed) for r in rep5.rows if r.status == "exception"
    ]

    rep4 = sweep(
        SweepConfig(claims=("THM3_DELTA4",), min_q=839, max_q=4001, jobs=JOBS, u_mode="all")
    )
    assert rep4.ok, rep4.to_text()
    assert rep4.summary["skipped"] == 0
    n4 = rep4.summary["pass"]
    assert n4 == len(q3mod4(839, 4001))
    # the delta <= 5 cap is enforced inside both claims for every tested u;
    # any cap violation would have surfaced as an exception row with "<=5"
    assert not any(r.expected == "<=5" for r in rep5.rows + rep4.rows)

    n5 = rep5.summary["pass"]
    clause_ok = bool(rep5.ok and rep5.summary["skipped"] == 0 and n5 == len(q3mod4(4027, 8001)))
    assert clause_ok, (
        "delta = 5 fails above the suggested threshold at "
        f"{exceptions}; delta = 4 clause and the <= 5 cap both hold"
    )
    report(capfd, 5, f"delta=5 over {n5} fields (exhaustive u), delta=4 over {n4} fields", started)


# -- 6 ----------------------------------------------------------------------


def test_acceptance_6_boomerang(capfd):
    started = time.time()
    rep = sweep(SweepConfig(claims=("BOOM_F21",), min_q=307, max_q=2001, jobs=JOBS))
    assert rep.ok, rep.to_text()
    assert rep.summary["skipped"] == 0
    n_pass = rep.summary["pass"]
    assert n_pass == len(q3mod4(307, 2001))

    for q in (311, 331):
        field = cached_field(q)
        table = FunctionTable.from_nh(field, NHParams(2, 1))
        row = boomerang_row(table, 1)
        assert int(row[1:].max()) == 2
        counts = boomerang_case_counts_F21(field, field.elements()[1:])
        np.testing.assert_array_equal(sum(counts.values()), row[1:], err_msg=str(q))
    report(capfd, 6, f"beta=2 for 307<=q<=2000 ({n_pass} fields); case counts at 311/331", started)


# -- 7 ----------------------------------------------------------------------


def _check_all_quadratics(field):
    """Closed form vs brute for every (a2, a1, a0), vectorized over (a1, a0)
    for each a2.

    With base(a1, x) = a2 x^2 + a1 x, the sum for (a1, a0) is
    sum_v #{x : base(a1, x) = v} eta(v + a0): a histogram of base per a1
    times the matrix eta(v + a0).
    """
    f = field
    q = f.q
    xs = f.elements()
    sq = f.mul_vec(xs, xs)
    a1x = f.mul_vec(xs[:, None], xs)  # a1 x, shape (a1, x)
    row_offset = xs[:, None] * q  # histogram bins (a1, v) -> a1 q + v
    eta_shift = f.eta_vec(f.add_vec(xs[:, None], xs)).astype(np.int64)  # eta(v + a0)
    for a2 in range(1, q):
        base = f.add_vec(f.mul_vec(np.int64(a2), sq), a1x)  # shape (a1, x)
        hist = np.bincount((base + row_offset).ravel(), minlength=q * q).reshape(q, q)
        sums = hist @ eta_shift  # shape (a1, a0)
        eta_a2 = f.eta(a2)
        disc = f.sub_vec(sq[:, None], f.mul_vec(f.mul(f.embed(4), a2), xs))  # a1^2 - 4 a2 a0
        closed = np.where(disc == 0, (q - 1) * eta_a2, -eta_a2)
        assert np.array_equal(sums, closed), (q, a2)


def _check_weil_bound_cubics(field):
    f = field
    q = f.q
    xs = f.elements()
    sq = f.mul_vec(xs, xs)
    cu = f.mul_vec(sq, xs)
    three, two = f.embed(3), f.embed(2)
    cs = f.elements()[:, None]
    bound_sq = 4 * q  # (deg-1)^2 q with deg = 3
    for a in range(q):
        ax2 = f.mul_vec(np.int64(a), sq)
        dfa = f.add_vec(f.mul_vec(three, sq), f.mul_vec(f.mul(two, a), xs))
        for b in range(q):
            base = f.add_vec(f.add_vec(cu, ax2), f.mul_vec(np.int64(b), xs))
            dprime = f.add_vec(dfa, b)  # f' = 3x^2 + 2ax + b
            crit = xs[dprime == 0]
            vals = f.add_vec(base[None, :], cs)
            sums = f.eta_vec(vals).astype(np.int64).sum(axis=1)
            # non-squarefree cubics are exactly those sharing a root with f'
            bad_c = np.unique(f.neg_vec(base[crit])) if len(crit) else np.empty(0, np.int64)
            mask = np.ones(q, dtype=bool)
            mask[bad_c] = False
            assert np.all(sums[mask] ** 2 <= bound_sq), (q, a, b)


def _check_weil_bound_quartics(field):
    """|sum eta(x^4 + a x^3 + b x^2 + c x + d)| <= 3 sqrt(q) for every
    squarefree quartic, vectorized over (c, d) for each (a, b).

    With base(c, x) = x^4 + a x^3 + b x^2 + c x, the sum for (c, d) is
    sum_v #{x : base(c, x) = v} eta(v + d): a histogram of base per c
    times the matrix eta(v + d).
    """
    f = field
    q = f.q
    xs = f.elements()
    sq = f.mul_vec(xs, xs)
    cu = f.mul_vec(sq, xs)
    qu = f.mul_vec(cu, xs)
    two, three, four = f.embed(2), f.embed(3), f.embed(4)
    inv2 = f.inv(two)
    cx = f.mul_vec(xs[:, None], xs)  # c x, shape (c, x)
    row_offset = xs[:, None] * q  # histogram bins (c, v) -> c q + v
    eta_shift = f.eta_vec(f.add_vec(xs[:, None], xs)).astype(np.int64)  # eta(v + d)
    bound_sq = 9 * q  # (deg-1)^2 q with deg = 4
    for a in range(q):
        ax3 = f.mul_vec(np.int64(a), cu)
        d3 = f.add_vec(f.mul_vec(four, cu), f.mul_vec(f.mul(three, a), sq))
        a1 = f.mul(a, inv2)  # if x^4+ax^3+bx^2+cx+d = (x^2+a1*x+b1)^2
        a1_sq = f.mul(a1, a1)
        for b in range(q):
            bx2 = f.mul_vec(np.int64(b), sq)
            d2 = f.add_vec(d3, f.mul_vec(f.mul(two, b), xs))
            b1 = f.mul(f.sub(b, a1_sq), inv2)
            square_c = f.mul(f.mul(two, a1), b1)
            square_d = f.mul(b1, b1)
            base = f.add_vec(f.add_vec(qu, ax3), f.add_vec(bx2, cx))  # shape (c, x)
            hist = np.bincount((base + row_offset).ravel(), minlength=q * q).reshape(q, q)
            sums = hist @ eta_shift  # shape (c, d)
            if a == b == 1:  # the regrouped sums against direct enumeration
                direct = weil_sum_brute(f, [xs[None, :], xs[:, None], b, a, 1])
                assert np.array_equal(sums, direct), q
            # f' = d2 + c vanishes at x exactly when c = -d2(x); that root
            # makes the quartic with d = -base(c, x) non-squarefree
            crit_c = f.neg_vec(d2)
            mask = np.ones((q, q), dtype=bool)
            mask[crit_c, f.neg_vec(base[crit_c, xs])] = False
            mask[square_c, square_d] = False  # the perfect-square quartic
            assert np.all(sums[mask] ** 2 <= bound_sq), (q, a, b)


def test_acceptance_7_character_sum_suite(capfd):
    started = time.time()
    odd_pp = enumerate_prime_powers(3, 200, p_ne=(2,))

    for p, n, q in odd_pp:
        if q <= 81:
            _check_all_quadratics(build_field(p, n))

    for p, n, q in odd_pp:
        if q <= 31:
            f = build_field(p, n)
            s = f.elements()[1:]
            closed = conic_count_closed(f, s[:, None, None], s[None, :, None], f.elements())
            for s1 in s:
                for s2 in s:
                    direct = conic_count_brute(f, s1, s2)
                    assert np.array_equal(direct, closed[s1 - 1, s2 - 1]), (q, s1, s2)

    for p, n, q in odd_pp:
        if n == 1 and q % 4 == 3:
            f = build_field(p, n)
            for n_exp in (2, 4, 6, 8):
                sums = jacobsthal_sum(f, n_exp, f.elements()[1:])
                assert not np.any(sums), (q, n_exp)

    from nhsbox.characters import cubic_reciprocal_check

    rng = np.random.default_rng(13)
    for args in ((7, 1), (11, 1), (19, 1), (23, 1), (3, 3)):
        f = cached_field(*args)
        done = 0
        while done < 1000:
            a, b, c, d = (int(v) for v in rng.integers(0, f.q, size=4))
            if a == 0 or d == 0:
                continue
            lhs, rhs = cubic_reciprocal_check(f, a, b, c, d)
            assert lhs == rhs
            done += 1

    for p, n, q in odd_pp:
        if q <= 49:
            f = build_field(p, n)
            _check_weil_bound_cubics(f)
            _check_weil_bound_quartics(f)

    for p, n, q in enumerate_prime_powers(3, 10001, congruences=((4, 3),)):
        f = build_field(p, n)
        assert weil_sum_brute(f, [f.neg(1), 0, 0, 0, 1]) == -1, q

    from nhsbox.characters import quartic_criteria, quartic_has_factor

    for p, n, q in odd_pp:
        if q <= 31:
            f = build_field(p, n)
            for A in range(q):
                for B in range(q):
                    predicted, _ = quartic_criteria(f, A, B)
                    if predicted:
                        assert not quartic_has_factor(f, A, B), (q, A, B)

    report(capfd, 7, "character-sum oracle suite", started)


# -- 8 ----------------------------------------------------------------------


def test_acceptance_8_structural_properties(capfd):
    started = time.time()

    # reduced vs full spectra, all u, r in {2, q-2}
    for p, n, q in q3mod4(7, 200):
        field = build_field(p, n)
        for u in range(q):
            for r in (2, q - 2):
                params = NHParams(r, u)
                table = FunctionTable.from_nh(field, params)
                full = differential_spectrum(table)
                red = differential_spectrum(table, reduction=params)
                assert (full.omega, full.uniformity, full.locally_apn) == (
                    red.omega,
                    red.uniformity,
                    red.locally_apn,
                ), (q, u, r)

    # boomerang reduced vs full, all u, small q
    for p, n, q in q3mod4(7, 32):
        field = build_field(p, n)
        for u in range(q):
            params = NHParams(2, u)
            table = FunctionTable.from_nh(field, params)
            assert boomerang_spectrum(table).nu == boomerang_spectrum(table, reduction=params).nu

    # representation invariance at q = 27 under a different modulus
    base = build_field(3, 3)
    other = None
    for code in range(26, 0, -1):
        cs = tuple((code // 3**k) % 3 for k in range(3)) + (1,)
        if cs != base.modulus and cs[0] != 0 and is_irreducible_zp(cs, 3):
            other = build_field(3, 3, modulus=cs)
            break
    assert other is not None
    assert base.cij_partition().counts == other.cij_partition().counts
    for u in (1, 2):  # prime-subfield u, fixed by any isomorphism
        sa = differential_spectrum(FunctionTable.from_nh(base, NHParams(2, u)))
        sb = differential_spectrum(FunctionTable.from_nh(other, NHParams(2, u)))
        assert sa.omega == sb.omega and sa.locally_apn == sb.locally_apn
        ba = boomerang_spectrum(FunctionTable.from_nh(base, NHParams(2, u)))
        bb = boomerang_spectrum(FunctionTable.from_nh(other, NHParams(2, u)))
        assert ba.nu == bb.nu and ba.uniformity == bb.uniformity
    multiset_a = sorted(
        tuple(sorted(differential_spectrum(FunctionTable.from_nh(base, NHParams(2, u))).omega.items()))
        for u in range(27)
    )
    multiset_b = sorted(
        tuple(sorted(differential_spectrum(FunctionTable.from_nh(other, NHParams(2, u))).omega.items()))
        for u in range(27)
    )
    assert multiset_a == multiset_b

    # Lemma-1 C_ij counts up to 10^5
    n_fields = 0
    for p, n, q in q3mod4(7, 100001):
        field = build_field(p, n)
        counts = field.cij_partition().counts
        assert counts["00"] == counts["10"] == counts["11"] == (q - 3) // 4, q
        assert counts["01"] == (q + 1) // 4, q
        n_fields += 1
    assert n_fields > 2000

    # the lemma bundle as a claim sweep up to q = 499: C_ij counts,
    # closed-vs-brute A_ij counts and the exclusion/cap lemmas for every u
    # outside {0, +1, -1} (q < 500), the sqrt-pair lemma and the u/-u
    # derivative-row symmetry for every u and r in {2, q-2} (q < 200)
    lemma_rep = sweep(SweepConfig(claims=("LEMMA_SUITE",), min_q=7, max_q=500, jobs=JOBS))
    assert lemma_rep.ok, lemma_rep.to_text()

    # sweep determinism across worker counts
    cfg = dict(claims=("THM5_DELTA3", "SPEC_F21"), min_q=8, max_q=300)
    assert (
        sweep(SweepConfig(jobs=1, **cfg)).to_csv() == sweep(SweepConfig(jobs=8, **cfg)).to_csv()
    )

    report(capfd, 8, f"structural properties ({n_fields} fields for C_ij)", started)


# -- 9 ----------------------------------------------------------------------


def test_acceptance_9_lambda_census_formulas(capfd):
    started = time.time()
    rep = sweep(SweepConfig(claims=("F21_LAMBDA",), min_q=11, max_q=2001, jobs=JOBS))
    assert rep.ok, rep.to_text()
    assert [r.q for r in rep.rows] == [q for _, _, q in q3mod4(11, 2001)]
    for r in rep.rows:
        assert r.status == "pass" and r.computed == r.expected, r
        # the two witness sets exactly cover delta(1, b) = 2
        n1, n2 = (int(v) for v in r.computed.split(";"))
        row = derivative_row_counts(build_field(r.p, r.n), NHParams(2, 1))
        assert n1 + n2 == int(np.count_nonzero(row == 2)), r.q
    checked = len(rep.rows)
    assert checked >= 150
    report(capfd, 9, f"F21_LAMBDA witness-set formulas over {checked} fields", started)
