"""Character sums: closed forms vs brute oracles, bounds, criteria, constants."""

import math

import numpy as np
import pytest

from nhsbox.characters import (
    boomerang_constants,
    conic_count_brute,
    conic_count_closed,
    cubic_reciprocal_check,
    curve_count_bound,
    curve_point_count,
    jacobsthal_sum,
    poly_divmod,
    poly_eval_vec,
    poly_gcd,
    poly_is_squarefree,
    quartic_criteria,
    quartic_has_factor,
    theorem2_constants,
    theorem6_constants,
    weil_bound_check,
    weil_sum_brute,
    weil_sum_quadratic_closed,
)
from nhsbox.gf import UnsupportedFieldError, build_field, cached_field


def test_quadratic_closed_examples():
    f7 = cached_field(7)
    assert weil_sum_quadratic_closed(f7, 1, 0, 0) == 6  # x^2: zero discriminant
    assert weil_sum_quadratic_closed(f7, 1, 0, 1) == -1
    assert weil_sum_brute(f7, [1, 0, 1]) == -1
    f11 = cached_field(11)
    assert weil_sum_quadratic_closed(f11, 2, 1, 3) == -f11.eta(2) == 1
    assert weil_sum_brute(f11, [3, 1, 2]) == 1
    with pytest.raises(ValueError):
        weil_sum_quadratic_closed(f7, 0, 1, 1)


def test_quadratic_closed_vs_brute_exhaustive_small():
    for args in ((3, 1), (5, 1), (7, 1), (9, None), (11, 1), (13, 1)):
        f = cached_field(3, 2) if args[0] == 9 else cached_field(args[0])
        for a2 in range(1, f.q):
            for a1 in range(f.q):
                for a0 in range(f.q):
                    assert weil_sum_quadratic_closed(f, a2, a1, a0) == weil_sum_brute(
                        f, [a0, a1, a2]
                    )


def test_weil_brute_examples():
    f7 = cached_field(7)
    assert weil_sum_brute(f7, [f7.neg(1), 0, 0, 0, 1]) == -1  # x^4 - 1
    assert weil_sum_brute(f7, [0, 1, 0, 1]) == 0  # x^3 + x
    for c in (1, 2, 3):
        assert weil_sum_brute(f7, [c]) == 7 * f7.eta(c)


def test_quartic_minus_one_sum_over_many_fields():
    # sum of eta(x^4 - 1) = -1 for q = 3 (mod 4), checked well past the
    # desk-suite range
    from nhsbox.verifier import enumerate_prime_powers

    for p, n, q in enumerate_prime_powers(3, 10**4, congruences=((4, 3),)):
        f = build_field(p, n)
        assert weil_sum_brute(f, [f.neg(1), 0, 0, 0, 1]) == -1, q


def test_conic_counts():
    f7 = cached_field(7)
    assert conic_count_closed(f7, 1, 1, 0) == 1
    assert conic_count_closed(f7, 1, 1, 1) == 8
    f11 = cached_field(11)
    assert conic_count_closed(f11, 1, 1, 4) == 12
    with pytest.raises(ValueError):
        conic_count_closed(f7, 0, 1, 1)


def test_conic_closed_vs_brute_counts():
    for args in ((7, 1), (11, 1), (3, 2), (13, 1)):
        f = cached_field(*args)
        for a1 in range(1, f.q):
            for a2 in range(1, f.q):
                direct = conic_count_brute(f, a1, a2)
                for b in range(f.q):
                    assert direct[b] == conic_count_closed(f, a1, a2, b)


def _conic_count_grid(field, a1, a2):
    """Reference: counts of a1 x1^2 + a2 x2^2 = b over the full q x q grid."""
    codes = field.elements()
    sq = field.mul_vec(codes, codes)
    vals = field.add_vec(field.mul_vec(a1, sq)[:, None], field.mul_vec(a2, sq)[None, :])
    return np.bincount(vals.ravel(), minlength=field.q)


@pytest.mark.parametrize("p, n", [(7, 1), (3, 2), (11, 1), (5, 2), (3, 3), (7, 2)])
def test_conic_brute_matches_full_grid(p, n):
    f = cached_field(p, n)
    for a1 in range(f.q):
        for a2 in range(f.q):
            got = conic_count_brute(f, a1, a2)
            assert got.dtype == np.int64
            assert np.array_equal(got, _conic_count_grid(f, a1, a2)), (f.q, a1, a2)


def test_jacobsthal():
    f7 = cached_field(7)
    assert jacobsthal_sum(f7, 2, 1) == 0
    assert jacobsthal_sum(f7, 1, 1) == -1  # sum eta(x^2 + x)
    f11 = cached_field(11)
    assert jacobsthal_sum(f11, 4, 3) == 0
    with pytest.raises(ValueError):
        jacobsthal_sum(f7, 2, 0)
    with pytest.raises(UnsupportedFieldError):
        jacobsthal_sum(cached_field(3, 3), 2, 1)


def test_jacobsthal_even_vanishing():
    for p in (7, 11, 19, 23, 31, 43):
        f = cached_field(p)
        for n_exp in (2, 4, 6):
            for a in range(1, p):
                assert jacobsthal_sum(f, n_exp, a) == 0


def test_jacobsthal_batch_errors():
    f7 = cached_field(7)
    with pytest.raises(ValueError):
        jacobsthal_sum(f7, 2, np.array([1, 0, 3]))
    with pytest.raises(UnsupportedFieldError):
        jacobsthal_sum(cached_field(3, 3), 2, np.arange(1, 27))


@pytest.mark.parametrize("p, n", [(3, 3), (7, 2)])
def test_weil_brute_batch_matches_scalar_calls(p, n):
    f = cached_field(p, n)
    rng = np.random.default_rng(f.q)
    coeffs = [rng.integers(0, f.q, size=(6, 1, 1)), rng.integers(0, f.q, size=(1, 5, 1)),
              rng.integers(0, f.q, size=(1, 1, 4)), 1]
    batch = weil_sum_brute(f, coeffs)
    assert batch.shape == (6, 5, 4) and batch.dtype == np.int64
    for i, j, k in np.ndindex(batch.shape):
        one = weil_sum_brute(f, [int(coeffs[0][i, 0, 0]), int(coeffs[1][0, j, 0]),
                                 int(coeffs[2][0, 0, k]), 1])
        assert type(one) is int and batch[i, j, k] == one
    # a leading coefficient array may hold zeros: those entries are quadratics
    lead = np.arange(f.q)
    batch = weil_sum_brute(f, [3, 1, 1, lead])
    assert list(batch) == [weil_sum_brute(f, [3, 1, 1, int(c)]) for c in lead]


@pytest.mark.parametrize("p, n", [(7, 1), (3, 2), (3, 3), (11, 1)])
def test_closed_forms_batch_match_scalar_calls(p, n):
    f = cached_field(p, n)
    codes = f.elements()
    a2, a1, a0 = codes[1:, None, None], codes[:, None], codes
    batch = weil_sum_quadratic_closed(f, a2, a1, a0)
    assert batch.shape == (f.q - 1, f.q, f.q)
    assert np.array_equal(batch, weil_sum_brute(f, [a0, a1, a2]))
    for c2, c1, c0 in [(1, 0, 0), (2, 1, 1), (f.q - 1, 2, 0)]:
        one = weil_sum_quadratic_closed(f, c2, c1, c0)
        assert type(one) is int and batch[c2 - 1, c1, c0] == one
    for s1 in range(1, f.q):
        for s2 in range(1, f.q):
            batch = conic_count_closed(f, s1, s2, codes)
            scalar = [conic_count_closed(f, s1, s2, b) for b in range(f.q)]
            assert all(type(c) is int for c in scalar)
            assert batch.tolist() == scalar
    with pytest.raises(ValueError):
        weil_sum_quadratic_closed(f, codes, 1, 1)
    with pytest.raises(ValueError):
        conic_count_closed(f, codes, 1, 1)


def test_jacobsthal_batch_matches_scalar_calls():
    for p in (7, 11, 13, 17):
        f = cached_field(p)
        a = np.arange(1, p)
        for n_exp in (1, 2, 3, 4):
            batch = jacobsthal_sum(f, n_exp, a)
            scalar = [jacobsthal_sum(f, n_exp, int(x)) for x in a]
            assert all(type(h) is int for h in scalar)
            assert batch.tolist() == scalar
            assert np.array_equal(jacobsthal_sum(f, n_exp, a.reshape(-1, 2)), batch.reshape(-1, 2))


def test_cubic_reciprocal_identity():
    cases = [(7, (1, 0, 0, 1)), (11, (1, 2, 3, 4)), (19, (5, 0, 7, 1))]
    for p, (a, b, c, d) in cases:
        lhs, rhs = cubic_reciprocal_check(cached_field(p), a, b, c, d)
        assert lhs == rhs
    with pytest.raises(ValueError):
        cubic_reciprocal_check(cached_field(7), 0, 1, 1, 1)
    with pytest.raises(ValueError):
        cubic_reciprocal_check(cached_field(7), 1, 1, 1, 0)


def test_cubic_reciprocal_seeded_random():
    rng = np.random.default_rng(20240907)
    for args in ((7, 1), (11, 1), (19, 1), (23, 1), (3, 3)):
        f = cached_field(*args)
        for _ in range(1000):
            a, b, c, d = (int(v) for v in rng.integers(0, f.q, size=4))
            if a == 0 or d == 0:
                continue
            lhs, rhs = cubic_reciprocal_check(f, a, b, c, d)
            assert lhs == rhs


def test_weil_bound_check():
    f7 = cached_field(7)
    res = weil_bound_check(f7, [1, 1, 0, 1])  # x^3 + x + 1
    assert res.ok and abs(res.sum) <= res.bound == 2 * math.sqrt(7)
    res = weil_bound_check(f7, [3, 1])  # x - (-3): linear
    assert res.sum == 0 and res.bound == 0 and res.ok
    f11 = cached_field(11)
    res = weil_bound_check(f11, [1, 1, 1, 1])  # (x+1)(x^2+1)
    assert res.sum == -2 and res.bound == 2 * math.sqrt(11)
    with pytest.raises(ValueError):
        weil_bound_check(f7, [0, 0, 1])  # x^2: not squarefree
    with pytest.raises(ValueError):
        weil_bound_check(f7, [1, 1, 0, 2])  # not monic


def test_poly_squarefree_char3_cube():
    f = cached_field(3, 3)
    assert not poly_is_squarefree(f, [1, 0, 0, 1])  # x^3 + 1 = (x+1)^3
    assert poly_is_squarefree(f, [1, 1, 0, 1])
    assert poly_gcd(f, [1, 0, 0, 1], [1, 2, 1]) == [1, 2, 1]  # (x+1)^2 divides (x+1)^3
    g = poly_gcd(f, [1, 0, 0, 1], [1, 0, 1])  # x^2 + 1 does not vanish at -1
    assert len(g) == 1 and g[0] != 0


def test_curve_point_count():
    f7 = cached_field(7)
    count = curve_point_count(f7, {(2, 0): 1, (0, 2): 1, (0, 0): f7.neg(2)})
    assert count == conic_count_closed(f7, 1, 1, 2) == 8
    assert curve_point_count(f7, {(1, 0): 1}) == 7  # the line t = 0
    with pytest.raises(ValueError):
        curve_point_count(f7, {(1, 1): 0})


def test_curve_count_quartic_instance_within_bound():
    # Omega(t, y) = t^4 - 2 phi rho t^2 + phi^2 (rho^2 + y^2 - 2 tau1 tau2)
    # with phi = -2(y + tau1), rho = tau1, for u = 2 over F_11
    f = cached_field(11)
    u = 2
    inv_u = f.inv(u)
    tau1 = f.mul(f.add(1, u), inv_u)
    tau2 = f.mul(f.sub(1, u), inv_u)
    c = f.mul(2 % 11, f.mul(tau1, tau2))

    def poly_mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] = f.add(out[i + j], f.mul(ai, bj))
        return out

    phi = [f.mul(f.neg(2), tau1), f.neg(2)]  # -2(y + tau1)
    phi2 = poly_mul(phi, phi)
    inner = [f.sub(f.mul(tau1, tau1), c), 0, 1]  # rho^2 + y^2 - 2 tau1 tau2
    const_term = poly_mul(phi2, inner)
    mid = [f.neg(f.mul(2 % 11, f.mul(co, tau1))) for co in phi]  # -2 phi rho

    monos = {(4, 0): 1}
    for j, co in enumerate(mid):
        if co:
            monos[(2, j)] = co
    for j, co in enumerate(const_term):
        if co:
            monos[(0, j)] = co
    count = curve_point_count(f, monos)
    degree = max(i + j for i, j in monos)
    assert abs(count - 11) <= curve_count_bound(degree, 11)


def test_quartic_criteria_examples():
    f7 = cached_field(7)
    predicted, sq0 = quartic_criteria(f7, 0, 3)
    assert not predicted and not sq0  # eta(-12 = 2) = +1: inconclusive
    predicted, sq0 = quartic_criteria(f7, 1, 3)
    assert predicted and not sq0
    assert not quartic_has_factor(f7, 1, 3)
    for c in (1, 2, 3):
        predicted, sq0 = quartic_criteria(f7, f7.mul(2, c), f7.mul(c, c))
        assert sq0 and not predicted  # (x^2 + c)^2


def test_quartic_criterion_exhaustive_small():
    for args in ((7, 1), (11, 1), (3, 2), (13, 1)):
        f = cached_field(*args)
        for A in range(f.q):
            for B in range(f.q):
                predicted, _ = quartic_criteria(f, A, B)
                if predicted:
                    assert not quartic_has_factor(f, A, B), (f.q, A, B)


def _has_factor_by_division(field, A, B):
    """Oracle: divide x^4 + A x^2 + B by every monic x + c and x^2 + a x + b."""
    f, q = [B, 0, A, 0, 1], field.q
    divisors = [[c, 1] for c in range(q)] + [[b, a, 1] for b in range(q) for a in range(q)]
    return any(not poly_divmod(field, f, d)[1] for d in divisors)


def test_quartic_has_factor_matches_division_oracle():
    rng = np.random.default_rng(4242)
    cases = [(cached_field(7), A, B) for A in range(7) for B in range(7)]
    for args in ((3, 2), (11, 1)):
        f = cached_field(*args)
        cases += [(f, int(A), int(B)) for A, B in rng.integers(0, f.q, size=(40, 2))]
    for f, A, B in cases:
        assert quartic_has_factor(f, A, B) == _has_factor_by_division(f, A, B), (f.q, A, B)
    # (x^2 + 4)(x^2 + 2) at F_7: no root, and its only quadratic factors have a = 0
    assert quartic_has_factor(cached_field(7), 6, 1)


def test_quartic_has_factor_reads_codes_as_quartic_criteria_does():
    # a prime field reduces A and B mod p: (0, 8) is x^4 + 1, as (0, 1) is
    f7 = cached_field(7)
    for A, B in ((0, 8), (7, 1), (-1, 0), (13, -6)):
        assert quartic_has_factor(f7, A, B) == quartic_has_factor(f7, A % 7, B % 7), (A, B)
    assert quartic_has_factor(f7, 0, 8)
    # an extension field takes only codes in [0, q), like quartic_criteria
    f27 = cached_field(3, 3)
    for A, B in ((27, 1), (-1, 1), (1, 27), (1, -1)):
        with pytest.raises(ValueError):
            quartic_criteria(f27, A, B)
        with pytest.raises(ValueError):
            quartic_has_factor(f27, A, B)


def test_theorem2_constants_exact():
    assert theorem2_constants() == (-98312, -325643353)


def test_floor_m2_matches_mpmath_and_keeps_its_guard():
    import mpmath

    from nhsbox.characters import _BoundAccumulator

    rng = np.random.default_rng(6060)
    for _ in range(50):
        acc = _BoundAccumulator()
        for deg_phi, deg_rho in rng.integers(0, 6, size=(int(rng.integers(1, 12)), 2)).tolist():
            acc.add_curve_case(deg_phi, deg_rho)
        with mpmath.workdps(60):
            total = mpmath.mpf(acc.m2_int) + sum(
                -5 * c * mpmath.power(om, mpmath.mpf(13) / 3) for om, c in acc.m2_pow.items()
            )
            assert acc.floor_m2() == int(mpmath.floor(total))
    exact = _BoundAccumulator()  # no fractional power: the sum is an integer
    exact.m2_int = -7
    with pytest.raises(ArithmeticError, match="ambiguous"):
        exact.floor_m2()


def test_companion_engine_constants():
    # same engine, adapted case splits; sqrt-coefficients match the quoted
    # aggregates exactly, and for the delta = 4 engine the constant term
    # does too (frozen here; see the census bounds for how they are used)
    assert theorem6_constants() == (-3644, -5173713)
    assert boomerang_constants() == (-7756, -17843871)


# Each entry point that indexes tables with code inputs, the argument it
# names, and a call with one code replaced by x.  Unchecked, a negative
# code read table slot q + x: conic_count_brute(F_27, -2, 1)[0] was 53,
# where the element -2 (code 1) gives 1; weil_sum_brute(F_7, [-1, 0, 1])
# raised an IndexError.
_CODE_INPUTS = {
    "weil_sum_brute": ("coeffs", lambda f, x: weil_sum_brute(f, [1, x, 1])),
    "poly_eval_vec": ("xs", lambda f, x: poly_eval_vec(f, [1, 1], [0, x])),
    "weil_sum_quadratic_closed": ("a1", lambda f, x: weil_sum_quadratic_closed(f, 1, x, 1)),
    "conic_count_closed": ("b", lambda f, x: conic_count_closed(f, 1, 1, [0, x])),
    "conic_count_brute": ("a1", lambda f, x: conic_count_brute(f, x, 1)),
    "jacobsthal_sum": ("a", lambda f, x: jacobsthal_sum(f, 2, x)),
    "cubic_reciprocal_check": ("c", lambda f, x: cubic_reciprocal_check(f, 1, 1, x, 1)),
}


@pytest.mark.parametrize("bad", ["-1", "q"])
@pytest.mark.parametrize("args", [(7, 1), (3, 3)], ids=["F7", "F27"])
@pytest.mark.parametrize("entry", sorted(_CODE_INPUTS))
def test_code_inputs_outside_the_field_raise_naming_the_argument(entry, args, bad):
    f = cached_field(*args)
    name, call = _CODE_INPUTS[entry]
    x = -1 if bad == "-1" else f.q
    with pytest.raises(ValueError, match=rf"^{name} = {x} is out of range"):
        call(f, x)
