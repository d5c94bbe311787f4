"""The binomial family F_{r,u}(x) = x^r (1 + u*eta(x)) and its closed
derivative-count analysis at r = 2.

For u outside {0, +1, -1} the equation D_1 F_{2,u}(x) = b splits over the
four C_ij classes: two linear cases (C_00, C_11) and two quadratic cases
(C_01, C_10) with discriminants

    Delta01(b) = tau1*tau2 - 2b/u,     Delta10(b) = tau1*tau2 + 2b/u,

where tau1 = (1+u)/u and tau2 = (1-u)/u.  Solutions are counted by
explicit membership of the (distinct) roots in the respective class,
which is exactly what a brute-force scan over x counts.

Exhaustive u-sweeps (uniformity_batch) rest on two facts.  The row
D_1 F_{r,u} = c + u*d is affine in u, so a chunk of u costs one broadcast
and one offset bincount.  When q = 3 (mod 4), eta(-1) = -1 gives
F_{r,-u}(x) = (-1)^r F_{r,u}(-x), so u and -u share one delta and each
pair is evaluated once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf import Field, UnsupportedFieldError


class UnsupportedParameterError(ValueError):
    """u in {0, +1, -1}: the closed case split does not apply."""


class ConsistencyError(ValueError):
    """A table handed in as F_{r,u} does not match the family definition."""


@dataclass(frozen=True)
class NHParams:
    """Family parameters: the exponent r and the coefficient u (a code)."""

    r: int
    u: int

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("r must be a positive integer")
        if self.u < 0:
            raise ValueError("u must be an element code")


def u_third(field: Field):
    """The code of u = 1/3 (p != 3)."""
    return field.inv(field.embed(3))


def excluded_u_set(field: Field):
    """The parameter set excluded by the uniformity claims:
    {0, +1, -1} in characteristic 3, plus {1/3, -1/3} otherwise."""
    bad = {0, 1, field.neg(1)}
    if field.p != 3:
        third = u_third(field)
        bad |= {third, field.neg(third)}
    return bad


def eval_F(field: Field, params: NHParams, x):
    """F_{r,u}(x) = x^r (1 + u*eta(x)), with eta(0) = 0 so F(0) = 0."""
    field.check_code(params.u, "u")
    field.check_code(x)
    factor = field.add(1, field.mul(params.u, field.embed(field.eta(x))))
    return field.mul(field.pow(x, params.r), factor)


def nh_table(field: Field, params: NHParams):
    """Dense value table of F_{r,u} over all of F_q."""
    field.check_code(params.u, "u")
    codes = field.elements()
    xr = field.pow_vec(codes, params.r)
    eta = field.eta_vec(codes)
    c_plus = field.add(1, params.u)
    c_minus = field.sub(1, params.u)
    factor = np.where(eta == 0, np.int64(1), np.where(eta > 0, np.int64(c_plus), np.int64(c_minus)))
    return field.mul_vec(xr, factor)


def derivative_value(field: Field, params: NHParams, a, x):
    """D_a F(x) = F(x+a) - F(x)."""
    field.check_code(a, "a")
    field.check_code(x)
    if a == 0:
        raise ValueError("a must be nonzero")
    return field.sub(eval_F(field, params, field.add(x, a)), eval_F(field, params, x))


def derivative_row_parts(field: Field, r):
    """Vectors (c, d) with D_1 F_{r,u}(x) = c(x) + u*d(x) for every u.

    c(x) = (x+1)^r - x^r and d(x) = (x+1)^r eta(x+1) - x^r eta(x); the
    u-dependence of the whole derivative row is affine, which is what
    makes exhaustive u-sweeps cheap.
    """
    codes = field.elements()
    shifted = field.add_vec(codes, 1)
    xr = field.pow_vec(codes, r)
    xr1 = field.pow_vec(shifted, r)
    e0 = field.eta_vec(codes).astype(np.int64)
    e1 = field.eta_vec(shifted).astype(np.int64)

    def times_eta(v, e):
        return np.where(e == 0, 0, np.where(e > 0, v, field.neg_vec(v)))

    c = field.sub_vec(xr1, xr)
    d = field.sub_vec(times_eta(xr1, e1), times_eta(xr, e0))
    return c, d


def derivative_row_counts(field: Field, params: NHParams):
    """delta(1, b) for every b, as a length-q array."""
    c, d = derivative_row_parts(field, params.r)
    row = field.add_vec(c, field.mul_vec(np.int64(params.u), d))
    return np.bincount(row, minlength=field.q)


# u values per chunk of uniformity_batch (compare spectra._A_BATCH): a chunk
# of rows stays cache-sized, which beats fewer, larger numpy calls.
_U_CHUNK = 16


def uniformity_batch(field: Field, r, u_codes):
    """delta_{F_{r,u}} for every u in u_codes (via the a = 1 row reduction),
    in input order.

    The a = 1 row is c + u*d (derivative_row_parts), _U_CHUNK values of u
    at a time; prime fields compute it in int32 while q^2 < 2^31.  When
    q = 3 (mod 4), F_{r,-u}(x) = (-1)^r F_{r,u}(-x) is affine-equivalent
    to F_{r,u}, so only min(u, -u) is evaluated and its delta copied to
    both; when q = 1 (mod 4) no u is paired.
    """
    q = field.q
    u_codes = np.asarray(u_codes, dtype=np.int64)
    reps = np.minimum(u_codes, field.neg_vec(u_codes)) if q % 4 == 3 else u_codes
    reps, back = np.unique(reps, return_inverse=True)
    dtype = np.int32 if q * q < 1 << 31 else np.int64
    c, d = (v.astype(dtype) for v in derivative_row_parts(field, r))
    offsets = np.arange(_U_CHUNK, dtype=dtype)[:, None] * q
    deltas = np.empty(len(reps), dtype=np.int64)
    for lo in range(0, len(reps), _U_CHUNK):
        us = reps[lo : lo + _U_CHUNK, None].astype(dtype)
        if field.is_prime_field:
            rows = (c + us * d) % q
        else:
            rows = field.add_vec(c, field.mul_vec(us, d))
        rows += offsets[: len(us)]
        counts = np.bincount(rows.ravel(), minlength=len(us) * q)
        deltas[lo : lo + len(us)] = counts.reshape(len(us), q).max(axis=1)
    return deltas[back]


CLASS_00, CLASS_01, CLASS_10, CLASS_11 = 0, 1, 2, 3


class CaseAnalysis:
    """Closed-form per-b solution counts of D_1 F_{2,u}(x) = b on each C_ij."""

    def __init__(self, field: Field, u):
        if field.q % 4 != 3:
            raise UnsupportedFieldError("the case analysis needs q = 3 (mod 4)")
        if u in (0, 1, field.neg(1)):
            raise UnsupportedParameterError(
                "u in {0, +1, -1}: use the generic DDT instead of the case split"
            )
        self.field = field
        self.u = u
        inv_u = field.inv(u)
        self.one_plus = field.add(1, u)  # D_1F(0)
        self.one_minus = field.sub(1, u)  # -D_1F(-1) sign-wise: D_1F(-1) = u - 1
        self.tau1 = field.mul(self.one_plus, inv_u)
        self.tau2 = field.mul(self.one_minus, inv_u)
        self._inv_u = inv_u
        self._inv2 = field.inv(field.embed(2))
        self._t1t2 = field.mul(self.tau1, self.tau2)
        self._inv_2p = field.inv(field.mul(field.embed(2), self.one_plus))
        self._inv_2m = field.inv(field.mul(field.embed(2), self.one_minus))
        self._classes = field.cij_partition().classes

    @property
    def boundary_values(self):
        """D_1F at the two excluded points: (D_1F(0), D_1F(-1)) = (u+1, u-1)."""
        return self.one_plus, self.field.sub(self.u, 1)

    def a_counts(self, b):
        """(#A_00(b), #A_01(b), #A_10(b), #A_11(b)): row b of a_counts_all."""
        return tuple(int(c) for c in self.a_counts_all()[b])

    def a_counts_all(self):
        """(q, 4) array of (#A_00, #A_01, #A_10, #A_11) for every b."""
        f = self.field
        bs = f.elements()
        classes = self._classes
        out = np.zeros((f.q, 4), dtype=np.int64)

        x00 = f.mul_vec(f.sub_vec(bs, self.one_plus), np.int64(self._inv_2p))
        out[:, 0] = classes[x00] == CLASS_00
        x11 = f.mul_vec(f.sub_vec(bs, self.one_minus), np.int64(self._inv_2m))
        out[:, 3] = classes[x11] == CLASS_11

        two_b_over_u = f.mul_vec(f.embed(2), f.mul_vec(bs, np.int64(self._inv_u)))
        for col, disc, base in (
            (1, f.sub_vec(self._t1t2, two_b_over_u), self.tau2),
            (2, f.add_vec(self._t1t2, two_b_over_u), f.neg(self.tau1)),
        ):
            square = f.eta_vec(disc) >= 0
            s = np.where(square, f.sqrt_table[disc], 0)
            target = CLASS_01 if col == 1 else CLASS_10
            r1 = f.mul_vec(f.add_vec(np.int64(base), s), np.int64(self._inv2))
            r2 = f.mul_vec(f.sub_vec(np.int64(base), s), np.int64(self._inv2))
            cnt = (classes[r1] == target).astype(np.int64)
            cnt += ((s != 0) & (classes[r2] == target)).astype(np.int64)
            out[:, col] = np.where(square, cnt, 0)
        return out

    def delta_row(self):
        """delta(1, b) for every b, assembled from the closed counts."""
        return self._delta_from(self.a_counts_all())

    def _delta_from(self, counts):
        """delta(1, b) from the (q, 4) class counts plus the two boundary points."""
        row = counts.sum(axis=1)
        d0, dm1 = self.boundary_values
        row[d0] += 1
        row[dm1] += 1
        return row


def aij_counts_closed(field: Field, u, b):
    """Closed-form (#A_00(b), #A_01(b), #A_10(b), #A_11(b)) for F_{2,u}."""
    return CaseAnalysis(field, u).a_counts(b)


def aij_counts_brute(field: Field, u):
    """(q, 4) per-b counts by scanning every x outside {0, -1} (the oracle)."""
    params = NHParams(2, u)
    codes = field.elements()
    table = nh_table(field, params)
    row = field.sub_vec(table[field.add_vec(codes, 1)], table)
    classes = field.cij_partition().classes
    out = np.zeros((field.q, 4), dtype=np.int64)
    for cls, col in ((CLASS_00, 0), (CLASS_01, 1), (CLASS_10, 2), (CLASS_11, 3)):
        mask = classes == cls
        out[:, col] = np.bincount(row[mask], minlength=field.q)
    return out


DELTA_CAP = 5  # delta_{F_{2,u}} <= 5 for every u outside {0, +1, -1}

# The four exclusion implications, as (name, boundary point, sign, full
# class, blocked class): when eta(1 + u) (point 0) or eta(1 - u) (point 1)
# equals sign * eta(u), two solutions in the full class leave none in the
# blocked class.
_EXCLUSIONS = (
    ("A10_full_blocks_A00", 0, 1, CLASS_10, CLASS_00),
    ("A01_full_blocks_A00", 0, -1, CLASS_01, CLASS_00),
    ("A01_full_blocks_A11", 1, 1, CLASS_01, CLASS_11),
    ("A10_full_blocks_A11", 1, -1, CLASS_10, CLASS_11),
)


def _lemma_battery(case: CaseAnalysis, counts):
    """(name, applicable, ok) per lemma as per-b boolean arrays, where ok
    means the lemma holds at b or does not apply there: the four exclusion
    implications, the boundary bound delta(1, u +/- 1) <= 4 and the cap
    delta(1, b) <= DELTA_CAP, all from counts = case.a_counts_all()."""
    field = case.field
    delta = case._delta_from(counts)
    eu = field.eta(case.u)
    eta_boundary = (field.eta(case.one_plus), field.eta(case.one_minus))
    battery = []
    for name, point, sign, full, blocked in _EXCLUSIONS:
        applicable = np.full(field.q, eta_boundary[point] == sign * eu)
        clash = (counts[:, full] == 2) & (counts[:, blocked] != 0)
        battery.append((name, applicable, ~(applicable & clash)))
    boundary = np.zeros(field.q, dtype=bool)
    boundary[list(case.boundary_values)] = True
    battery.append(("boundary_delta_le_4", boundary, ~boundary | (delta <= 4)))
    battery.append(("delta_le_5", np.ones(field.q, dtype=bool), delta <= DELTA_CAP))
    return battery


def structural_lemmas_hold(field: Field, u, counts=None):
    """Every lemma of the battery holds at every b where it applies; counts,
    if given, is CaseAnalysis(field, u).a_counts_all() from the caller."""
    case = CaseAnalysis(field, u)
    counts = case.a_counts_all() if counts is None else counts
    return all(ok.all() for _, _, ok in _lemma_battery(case, counts))


@dataclass(frozen=True)
class LemmaVerdict:
    name: str
    applicable: bool
    ok: bool


def structural_lemma_checks(field: Field, u, b):
    """Per-b verdicts for the four exclusion implications, the boundary
    bound delta(1, u +/- 1) <= 4, and the overall cap delta(1, b) <= 5.
    A lemma that does not apply at b is reported as ok."""
    case = CaseAnalysis(field, u)
    return [
        LemmaVerdict(name, bool(applicable[b]), bool(ok[b]))
        for name, applicable, ok in _lemma_battery(case, case.a_counts_all())
    ]
