"""Character sums, point counts, and polynomial criteria over F_q.

Closed forms are paired with brute-force evaluators so every identity can
be cross-checked by direct enumeration; the brute paths are the oracles
and stay independent of the closed-form code.

Polynomials over F_q are plain sequences of element codes, low degree
first.  Bivariate polynomials are {(i, j): code} maps for monomials
t^i * y^j.

Batches: the Weil sums, the closed conic count and the Jacobsthal sums
take their parameters (coefficients, a2/a1/a0, b, a) as code arrays that
broadcast against each other, so one call checks a whole family; the
conic oracle conic_count_brute takes one (a1, a2) pair.  The parameter
axes lead and x, the summation variable, is the last axis: a batched
``poly_eval_vec`` returns shape params + xs.shape and the sums reduce
that axis away.  Scalar parameters give a Python int, arrays give
an int64 array; the scalar call is the batched one on 0-d arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .gf import Field, UnsupportedFieldError

# ---------------------------------------------------------------------------
# polynomial helpers on element codes
# ---------------------------------------------------------------------------


def poly_trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def poly_degree(coeffs):
    coeffs = poly_trim(coeffs)
    return len(coeffs) - 1 if coeffs else -1


def poly_eval_vec(field: Field, coeffs, xs):
    """Horner evaluation of a code-coefficient polynomial on an array.

    A coefficient may be a code array (a batch of polynomials); the result
    then has shape broadcast(coefficients) + xs.shape.
    """
    xs = np.asarray(field.check_code(xs, "xs"), dtype=np.int64)
    coeffs = [np.asarray(field.check_code(c, "coeffs"), dtype=np.int64) for c in coeffs]
    coeffs = [c.reshape(c.shape + (1,) * xs.ndim) for c in coeffs]  # xs axes last
    shape = np.broadcast_shapes(*(c.shape for c in coeffs), xs.shape)
    acc = np.full(shape, coeffs[-1] if coeffs else 0, dtype=np.int64)
    for c in reversed(coeffs[:-1]):
        acc = field.add_vec(field.mul_vec(acc, xs), c)
    return acc


def poly_derivative(field: Field, coeffs):
    return poly_trim(
        field.mul(field.embed(k), c) for k, c in enumerate(coeffs) if k >= 1
    )


def poly_divmod(field: Field, a, b):
    a, b = poly_trim(a), poly_trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = field.inv(b[-1])
    rem = list(a)
    quo = [0] * max(0, len(a) - len(b) + 1)
    for i in range(len(rem) - 1, len(b) - 2, -1):
        c = rem[i]
        if c:
            f = field.mul(c, inv_lead)
            quo[i - len(b) + 1] = f
            for j, bj in enumerate(b):
                rem[i - len(b) + 1 + j] = field.sub(rem[i - len(b) + 1 + j], field.mul(f, bj))
    return poly_trim(quo), poly_trim(rem[: len(b) - 1])


def poly_gcd(field: Field, a, b):
    a, b = poly_trim(a), poly_trim(b)
    while b:
        _, r = poly_divmod(field, a, b)
        a, b = b, r
    return a


def poly_is_squarefree(field: Field, coeffs):
    d = poly_derivative(field, coeffs)
    if not d:  # derivative vanished: a p-th power (or a constant)
        return poly_degree(coeffs) < 1
    return len(poly_gcd(field, coeffs, d)) == 1


# ---------------------------------------------------------------------------
# Weil sums of the quadratic character
# ---------------------------------------------------------------------------


def _codes(field: Field, **named):
    """The named code parameters as int64 arrays, each checked (Field.check_code) first."""
    return [np.asarray(field.check_code(v, k), dtype=np.int64) for k, v in named.items()]


def _result(sums):
    """A Python int for a 0-d result (scalar parameters), else the int64 array."""
    sums = np.asarray(sums, dtype=np.int64)
    return int(sums) if sums.ndim == 0 else sums


def weil_sum_brute(field: Field, coeffs):
    """Exact sum of eta(f(x)) over F_q by direct enumeration (the oracle)."""
    values = poly_eval_vec(field, coeffs, field.elements())
    return _result(field.eta_vec(values).sum(axis=-1, dtype=np.int64))


def weil_sum_quadratic_closed(field: Field, a2, a1, a0):
    """Closed form for sum of eta(a2 x^2 + a1 x + a0) over F_q."""
    a2, a1, a0 = _codes(field, a2=a2, a1=a1, a0=a0)
    if np.any(a2 == 0):
        raise ValueError("a2 = 0: not a quadratic")
    four_a0a2 = field.mul_vec(field.embed(4), field.mul_vec(a0, a2))
    d = field.sub_vec(field.mul_vec(a1, a1), four_a0a2)
    eta_a2 = field.eta_vec(a2).astype(np.int64)
    return _result(np.where(d == 0, (field.q - 1) * eta_a2, -eta_a2))


def conic_count_closed(field: Field, a1, a2, b):
    """Number of (x1, x2) with a1 x1^2 + a2 x2^2 = b, in closed form."""
    a1, a2, b = _codes(field, a1=a1, a2=a2, b=b)
    if np.any(a1 == 0) or np.any(a2 == 0):
        raise ValueError("a1, a2 must be nonzero")
    nu = np.where(b == 0, field.q - 1, -1)
    return _result(field.q + nu * field.eta_vec(field.neg_vec(field.mul_vec(a1, a2))))


def conic_count_brute(field: Field, a1, a2):
    """Counts of a1 x1^2 + a2 x2^2 = b for every b, by direct enumeration.

    The values v of a x^2 come with their multiplicities m(v) (a bincount
    over x); every pair of such values adds m1(v1) m2(v2) to the count of
    v1 + v2, a grid of ((q+1)/2)^2 sums instead of q^2.  One (a1, a2) pair.
    """
    a1, a2 = _codes(field, a1=a1, a2=a2)
    if a1.ndim or a2.ndim:
        raise ValueError("conic_count_brute takes one (a1, a2) pair of codes, not arrays")
    codes = field.elements()
    sq = field.mul_vec(codes, codes)
    m1 = np.bincount(field.mul_vec(a1, sq), minlength=field.q)
    m2 = np.bincount(field.mul_vec(a2, sq), minlength=field.q)
    v1, v2 = np.flatnonzero(m1), np.flatnonzero(m2)
    sums = field.add_vec(v1[:, None], v2[None, :])
    weights = m1[v1][:, None] * m2[v2][None, :]
    # float weights are exact: every count is at most q^2 < 2^53
    return np.bincount(sums.ravel(), weights.ravel(), minlength=field.q).astype(np.int64)


_BLOCK = 1 << 18  # elements per block of the Jacobsthal a-axis


def jacobsthal_sum(field: Field, n_exp, a):
    """H_n(a) = sum of eta(x^(n+1) + a x); prime fields only."""
    (a,) = _codes(field, a=a)
    if np.any(a == 0):
        raise ValueError("a must be nonzero")
    if not field.is_prime_field:
        raise UnsupportedFieldError("Jacobsthal sums are defined over prime fields")
    if n_exp < 1:
        raise ValueError("n must be a positive integer")
    xs = field.elements()
    lead = field.pow_vec(xs, n_exp + 1)
    flat = a.reshape(-1, 1)
    sums = np.empty(len(flat), dtype=np.int64)
    rows = max(1, _BLOCK // field.q)
    for i in range(0, len(flat), rows):
        vals = field.add_vec(lead, field.mul_vec(flat[i : i + rows], xs))
        sums[i : i + rows] = field.eta_vec(vals).sum(axis=-1, dtype=np.int64)
    return _result(sums.reshape(a.shape))


def cubic_reciprocal_check(field: Field, a, b, c, d):
    """Both sides of the reciprocal-cubic identity; they must be equal.

    lhs = sum eta(a x^3 + b x^2 + c x + d) eta(x)
    rhs = -eta(a) + sum eta(d x^3 + c x^2 + b x + a)
    """
    a, b, c, d = (int(x) for x in _codes(field, a=a, b=b, c=c, d=d))
    if a == 0 or d == 0:
        raise ValueError("a and d must be nonzero")
    xs = field.elements()
    fwd = field.eta_vec(poly_eval_vec(field, [d, c, b, a], xs)).astype(np.int64)
    lhs = int((fwd * field.eta_vec(xs).astype(np.int64)).sum())
    rhs = -field.eta(a) + weil_sum_brute(field, [a, b, c, d])
    return lhs, rhs


@dataclass(frozen=True)
class WeilBoundResult:
    sum: int
    bound: float
    ok: bool


def weil_bound_check(field: Field, coeffs):
    """Exact character sum of a monic squarefree f versus (deg f - 1) sqrt(q)."""
    coeffs = poly_trim(coeffs)
    deg = poly_degree(coeffs)
    if deg < 1:
        raise ValueError("positive degree required")
    if coeffs[-1] != 1:
        raise ValueError("monic polynomial required")
    if not poly_is_squarefree(field, coeffs):
        raise ValueError("non-squarefree input: the root count would need a splitting field")
    s = weil_sum_brute(field, coeffs)
    bound = (deg - 1) * math.sqrt(field.q)
    # compare exactly: |s| <= (deg-1) sqrt(q)  <=>  s^2 <= (deg-1)^2 q
    ok = s * s <= (deg - 1) * (deg - 1) * field.q
    return WeilBoundResult(sum=s, bound=bound, ok=ok)


def curve_point_count(field: Field, monomials):
    """#{(t, y) in F_q^2 : F(t, y) = 0} by double enumeration (O(q^2))."""
    monomials = {k: v for k, v in monomials.items() if v != 0}
    if not monomials:
        raise ValueError("zero polynomial has q^2 zeros; pass a nonzero F")
    codes = field.elements()
    t_pows = {i: field.pow_vec(codes, i) for i in {i for i, _ in monomials}}
    y_pows = {j: field.pow_vec(codes, j) for j in {j for _, j in monomials}}
    acc = np.zeros((field.q, field.q), dtype=np.int64)
    for (i, j), c in sorted(monomials.items()):
        term = field.mul_vec(t_pows[i][:, None], y_pows[j][None, :])
        acc = field.add_vec(acc, field.mul_vec(term, np.int64(c)))
    return int(np.count_nonzero(acc == 0))


def curve_count_bound(degree, q):
    """Deviation bound (d-1)(d-2) sqrt(q) + 5 d^(13/3) for a plane curve."""
    return (degree - 1) * (degree - 2) * math.sqrt(q) + 5.0 * degree ** (13.0 / 3.0)


# ---------------------------------------------------------------------------
# quartic x^4 + A x^2 + B criteria
# ---------------------------------------------------------------------------


def quartic_criteria(field: Field, A, B):
    """(irreducible_predicted, square_discriminant_zero) for x^4 + A x^2 + B.

    The prediction direction is one-way: eta(A^2 - 4B) = eta(B) = -1 forces
    irreducibility; nothing is claimed otherwise.  A polynomial square
    requires A^2 - 4B = 0.
    """
    disc = field.sub(field.mul(A, A), field.mul(field.embed(4), B))
    predicted = field.eta(disc) == -1 and field.eta(B) == -1
    return predicted, disc == 0


def quartic_has_factor(field: Field, A, B):
    """Exhaustive search for a linear or quadratic factor of x^4 + A x^2 + B.

    x^2 + a x + b divides it iff the remainder (2ab - a^3 - Aa) x +
    (b^2 - a^2 b - Ab + B) vanishes; each a is checked against every b at once.
    A and B are read as the scalar Field ops read them: reduced mod p in a
    prime field, ValueError outside [0, q) in an extension field.
    """
    A, B = field._scalar(A, "A"), field._scalar(B, "B")
    codes = field.elements()
    if np.any(poly_eval_vec(field, [B, 0, A, 0, 1], codes) == 0):
        return True
    two_b = field.add_vec(codes, codes)
    for a, s in enumerate(field.add_vec(field.mul_vec(codes, codes), A).tolist()):
        # s = a^2 + A: the remainder is a (2b - s) x + b (b - s) + B
        r1 = field.mul_vec(a, field.sub_vec(two_b, s))
        r0 = field.add_vec(field.mul_vec(codes, field.sub_vec(codes, s)), B)
        if np.any((r1 == 0) & (r0 == 0)):
            return True
    return False


# ---------------------------------------------------------------------------
# subset-sum lower-bound engines for the delta/beta witness counts
# ---------------------------------------------------------------------------
#
# Each engine accumulates a bound of the form  (leading q-terms) + m1*sqrt(q) + m2
# over all subsets I of a fixed family of character-argument polynomials
# restricted to a conic.  Products that stay univariate contribute
# -2*d(gamma)*sqrt(q); products of the shape phi(y)*(z + rho(y)) go through
# the plane-curve estimate with
#     deg(Omega) = max(4, 2 + 2 deg(phi))   when deg(rho) = 0,
#     deg(Omega) = 4 + 2 deg(phi)           when deg(rho) = 2,
# contributing -(deg(Omega)-1)(deg(Omega)-2)*sqrt(q) - 5*deg(Omega)^(13/3)
# - deg(phi) - 1.  The fractional powers are accumulated exactly and
# floored once at the very end.


def _omega_degree(deg_phi, deg_rho):
    if deg_rho == 0:
        return max(4, 2 + 2 * deg_phi)
    return 4 + 2 * deg_phi


class _BoundAccumulator:
    def __init__(self):
        self.m1 = 0
        self.m2_int = 0
        self.m2_pow = {}  # omega degree -> multiplicity of -5*omega^(13/3)

    def add_poly_case(self, d_gamma):
        self.m1 += -2 * d_gamma

    def add_curve_case(self, deg_phi, deg_rho):
        om = _omega_degree(deg_phi, deg_rho)
        self.m1 += -(om - 1) * (om - 2)
        self.m2_int += -(deg_phi + 1)
        self.m2_pow[om] = self.m2_pow.get(om, 0) + 1

    def floor_m2(self):
        import decimal  # its only user here; kept off the import path

        D = decimal.Decimal
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            total = D(self.m2_int)
            for om, count in sorted(self.m2_pow.items()):
                total += -5 * count * D(om) ** (D(13) / 3)
            floored = total.to_integral_value(rounding=decimal.ROUND_FLOOR)
            if abs(total - floored) < D("1e-30") or abs(total - floored - 1) < D("1e-30"):
                raise ArithmeticError("floor is numerically ambiguous; raise precision")
        return int(floored)


def _subset_degrees(degrees):
    """(I1, the degree sum over I1) for every subset I1 of the factor
    indices 1..len(degrees), smallest subsets first."""
    indices = range(1, len(degrees) + 1)
    return [
        (frozenset(I1), sum(degrees[i - 1] for i in I1))
        for k in range(len(degrees) + 1)
        for I1 in combinations(indices, k)
    ]


def theorem2_constants():
    """Constants (m1, m2) of the delta = 5 witness-count lower bound.

    Ten polynomials on the conic y^2 + z^2 = 2*tau1*tau2: indices 1..6 are
    the y-side factors with degrees (1, 1, 1, 1, 2, 2), indices 7..10 the
    four z-linear factors z +/- tau1, z +/- tau2.  On the conic,
    p7*p8 ~ p5 and p9*p10 ~ p6, which creates the perfect-square subsets
    {5,7,8}, {6,9,10}, {5,..,10} handled by the leading q-terms instead.
    """
    acc = _BoundAccumulator()
    subsets = _subset_degrees((1, 1, 1, 1, 2, 2))

    # no z-factor: gamma(y), both branch sums bounded by -2 d(gamma) sqrt(q)
    for I1, deg in subsets:
        if I1:
            acc.add_poly_case(deg)

    # one z-factor: phi(y) * (z + a) with constant rho, four choices of a
    for _, deg in subsets:
        for _ in range(4):
            acc.add_curve_case(deg, 0)

    # three z-factors: the paired product folds into phi(y), degree + 2
    for _, deg in subsets:
        for _ in range(4):
            acc.add_curve_case(deg + 2, 0)

    # all four z-factors: fully univariate, p5/p6 may appear squared
    for I1, deg in subsets:
        if I1 != frozenset({5, 6}):
            acc.add_poly_case(deg + 4 - 2 * (5 in I1) - 2 * (6 in I1))

    # paired z-factors {7,8} (fold onto p5) and {9,10} (fold onto p6)
    for fold, skip in ((5, frozenset({5})), (6, frozenset({6}))):
        for I1, deg in subsets:
            if I1 != skip:
                acc.add_poly_case(deg + 2 - 2 * (fold in I1))

    # mixed z-pairs {7,9}, {7,10}, {8,9}, {8,10}: rho of degree 2
    for _, deg in subsets:
        for _ in range(4):
            acc.add_curve_case(deg, 2)

    return acc.m1, acc.floor_m2()


def theorem6_constants():
    """Constants (m1, m2) of the delta = 4 (u = 1/3, q = 3 mod 8) bound.

    Seven polynomials on y^2 + z^2 = 4: indices 1..5 are y-side factors
    with degrees (1, 1, 1, 1, 2); indices 6, 7 are 1 +/- z.  On the conic,
    p6*p7 = p5 and p1*p2 = z^2, giving the square subsets {1,2}, {5,6,7},
    {1,2,5,6,7} that feed the leading 4q - 8 term.
    """
    acc = _BoundAccumulator()
    subsets = _subset_degrees((1, 1, 1, 1, 2))

    for I1, deg in subsets:
        if I1 and I1 != frozenset({1, 2}):
            acc.add_poly_case(deg)

    for _, deg in subsets:
        for _ in range(2):  # z + 1 and z - 1
            acc.add_curve_case(deg, 0)

    for I1, deg in subsets:  # both z-factors fold onto p5
        if I1 not in (frozenset({5}), frozenset({1, 2, 5})):
            acc.add_poly_case(deg + 2 - 2 * (5 in I1))

    return acc.m1, acc.floor_m2()


def boomerang_constants():
    """Constants (m1, m2) of the boomerang-uniformity witness bound.

    Seven polynomials on y^2 + z^2 = 2: five z-side factors with degrees
    (1, 1, 1, 2, 2) and the two y-linear factors y, -(y + 1).  The paired
    y-product turns into z^2 - y - 2, i.e. a rho of degree 2; no subset
    collapses to a perfect square, so the only leading term is q + 1.
    """
    acc = _BoundAccumulator()
    subsets = _subset_degrees((1, 1, 1, 2, 2))

    for I1, deg in subsets:
        if I1:
            acc.add_poly_case(deg)

    for _, deg in subsets:
        for _ in range(2):
            acc.add_curve_case(deg, 0)

    for _, deg in subsets:  # both y-factors together: rho(z) of degree 2
        acc.add_curve_case(deg, 2)

    return acc.m1, acc.floor_m2()
