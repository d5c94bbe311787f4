"""The binomial family F_{r,u}(x) = x^r (1 + u*eta(x)) and its closed
derivative-count analysis at r = 2.

F_{r,u} = s + u*t with s = x^r and t = x^r eta(x) (_value_parts): nh_table
and derivative_row_parts both read that one split.

For u outside {0, +1, -1} the equation D_1 F_{2,u}(x) = b splits over the
four C_ij classes: two linear cases (C_00, C_11) and two quadratic cases
(C_01, C_10) with discriminants

    Delta01(b) = tau1*tau2 - 2b/u,     Delta10(b) = tau1*tau2 + 2b/u,

where tau1 = (1+u)/u and tau2 = (1-u)/u.  Solutions are counted by
explicit membership of the (distinct) roots in the respective class,
which is exactly what a brute-force scan over x counts.

Batch convention (as for the character-sum oracles): CaseAnalysis and
aij_counts_brute take one u code or a 1-D array of U codes.  The u axis
leads, so a batch gives (U, q, 4) counts and a (U,) lemmas_hold verdict,
and a scalar u the (q, 4) counts and the bool of the batch of one.
CaseAnalysis.counts_at(bs) gives the class-major (4, U, B) int8 counts
(each 0, 1 or 2) at any b cells bs: one code, every code, or a (U, K)
array of per-u codes.  The full grid is counts_at(every b), kept read-only
once per case, handed out as (U, q, 4) views and read by the lemma
battery; one-b views such as a_counts(b) evaluate only their own cell.

Exhaustive u-sweeps (uniformity_batch) rest on two facts.  The row
D_1 F_{r,u} = c + u*d (the a = 1 differences of s and t) is affine in u,
so each row costs one multiply-add and one reduction mod q, and about
_U_CELLS (u, b) cells at a time go through one offset bincount.  And row a
of the DDT of F_{r,u} is row 1 of F_{r,eta(a)u} relabelled (:mod:`nhsbox.spectra`),
so delta(u) is the larger row-1 maximum of u and -u, one at q = 3 (mod 4).
The case analysis alone needs q = 3 (mod 4) (Field.require_3_mod_4).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gf import Field


class UnsupportedParameterError(ValueError):
    """u outside a closed form's domain: {0, +1, -1} for the case split, 1/3 at p = 3."""


class ConsistencyError(ValueError):
    """A table handed in as F_{r,u} does not match the family definition."""


def _check_r(r):
    if r < 1:
        raise ValueError("r must be a positive integer")


@dataclass(frozen=True)
class NHParams:
    """Family parameters: the exponent r and the coefficient u (a code)."""

    r: int
    u: int

    def __post_init__(self):
        _check_r(self.r)


def u_third(field: Field):
    """The code of u = 1/3; UnsupportedParameterError when p = 3."""
    if field.p == 3:
        raise UnsupportedParameterError("u = 1/3 is undefined in characteristic 3")
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


def _value_parts(field: Field, r):
    """Vectors (s, t) = (x^r, x^r eta(x)) over all of F_q, so that
    F_{r,u} = s + u*t for every u."""
    codes = field.elements()
    s = field.pow_vec(codes, r)
    return s, np.where(field.eta_vec(codes) < 0, field.neg_vec(s), s)


def nh_table(field: Field, params: NHParams):
    """Dense value table of F_{r,u} over all of F_q."""
    field.check_code(params.u, "u")
    s, t = _value_parts(field, params.r)
    return field.add_vec(s, field.mul_vec(np.int64(params.u), t))


def derivative_row_parts(field: Field, r):
    """Vectors (c, d) with D_1 F_{r,u}(x) = c(x) + u*d(x) for every u.

    c and d are s(x+1) - s(x) and t(x+1) - t(x) for F_{r,u} = s + u*t
    (_value_parts): the whole derivative row is affine in u, which is
    what makes exhaustive u-sweeps cheap.
    """
    return tuple(next(field.difference_rows(v, [1]))[0] for v in _value_parts(field, r))


def derivative_row_counts(field: Field, params: NHParams):
    """delta(1, b) for every b, as a length-q array."""
    field.check_code(params.u, "u")
    c, d = derivative_row_parts(field, params.r)
    row = field.add_vec(c, field.mul_vec(np.int64(params.u), d))
    return np.bincount(row, minlength=field.q)


# (u, b) cells per chunk of uniformity_batch, max(1, _U_CELLS // q) u at a
# time: a chunk's buffers stay cache-sized at every q, and a sweep's memory
# follows its request rather than q times a fixed row count.
_U_CELLS = 1 << 15


def uniformity_batch(field: Field, r, u_codes):
    """delta_{F_{r,u}} for every u in u_codes, at any odd q, in input
    order; ValueError for r < 1 or a u that is not an element code.

    delta(u) = max(m(u), m(-u)), m the maximum of the a = 1 row c + u*d
    (derivative_row_parts); when eta(-1) = -1, m(-u) = m(u), so only
    min(u, -u) is evaluated.  The sorted representatives go
    max(1, _U_CELLS // q) at a time through one bincount, row i keyed by
    (c + u*d mod q) + i*q.  Extension fields use add_vec/mul_vec; a prime
    field computes s = c + u*d < (u + 1)q in place and writes each key in
    one pass as s - (s // q - i)*q.

    dtypes: s, its quotients and the row indices i are int32 while
    max(u + 1, rows per chunk)*q < 2^31, which bounds (s // q - i)*q too
    (at q = 3 (mod 4), u <= (q - 1)/2, so up to q = 65519), else int64;
    the keys are int64, as bincount wants them.  The buffers of about
    _U_CELLS cells (one row once q > _U_CELLS) live for the whole call: an
    array allocated afresh per chunk is page-faulted anew, which costs
    about as much as the arithmetic.
    """
    _check_r(r)
    us = _code_axis(field, u_codes, "u")[0].ravel()
    q = field.q
    rows = np.stack([us, field.neg_vec(us)])
    if field.eta(field.neg(1)) < 0:
        rows = rows.min(axis=0, keepdims=True)
    reps, back = np.unique(rows, return_inverse=True)
    c, d = derivative_row_parts(field, r)
    step = max(1, _U_CELLS // q)
    chunk = min(step, len(reps))
    wide = np.int32 if max(reps.max(initial=0) + 1, chunk) * q < 1 << 31 else np.int64
    lanes = np.arange(chunk, dtype=wide)[:, None]
    keys = np.empty((chunk, q), dtype=np.int64)
    if field.is_prime_field:
        c, d = c.astype(wide), d.astype(wide)
        sums, quotients = np.empty((2, chunk, q), dtype=wide)
    deltas = np.empty(len(reps), dtype=np.int64)
    for lo in range(0, len(reps), step):
        hi = min(lo + step, len(reps))
        if field.is_prime_field:
            row, quot = sums[: hi - lo], quotients[: hi - lo]
            np.add(np.multiply(reps[lo:hi, None].astype(wide), d, out=row), c, out=row)
            np.subtract(np.floor_divide(row, q, out=quot), lanes[: hi - lo], out=quot)
            key = np.subtract(row, np.multiply(quot, q, out=quot), out=keys[: hi - lo])
        else:
            row = field.add_vec(c, field.mul_vec(reps[lo:hi, None], d))
            key = np.add(row, lanes[: hi - lo] * q, out=keys[: hi - lo])
        counts = np.bincount(key.ravel(), minlength=key.size)
        deltas[lo:hi] = counts.reshape(-1, q).max(axis=1)
    return deltas[back].reshape(rows.shape).max(axis=0)


CLASS_00, CLASS_01, CLASS_10, CLASS_11 = 0, 1, 2, 3


def _code_axis(field: Field, codes, name):
    """codes (one code or a 1-D array of codes) as an (N, 1) int64 column,
    and whether they were a scalar."""
    xs = np.asarray(field.check_code(codes, name), dtype=np.int64)
    if xs.ndim > 1:
        raise ValueError(f"{name} must be one element code or a 1-D array of them")
    return xs.reshape(-1, 1), xs.ndim == 0


class CaseAnalysis:
    """Closed-form per-b solution counts of D_1 F_{2,u}(x) = b on each C_ij,
    for one u code or a 1-D array of them (the batch convention above).

    The per-u constants are (U, 1) columns, so every formula broadcasts
    against the b axis; the public attributes are views of them.
    """

    def __init__(self, field: Field, u):
        field.require_3_mod_4("the case analysis")
        us, self._scalar = _code_axis(field, u, "u")
        if np.any((us == 0) | (us == 1) | (us == field.embed(-1))):
            raise UnsupportedParameterError(
                "u in {0, +1, -1}: use the generic DDT instead of the case split"
            )
        f = field
        self.field = field
        self.u = u
        self._us = us
        self._one_plus = f.add_vec(1, us)  # D_1F(0)
        self._one_minus = f.sub_vec(1, us)  # -D_1F(-1) sign-wise: D_1F(-1) = u - 1
        twice = f.mul_vec(f.embed(2), np.stack([self._one_plus, self._one_minus]))
        # 1/u, 1/(2(1+u)), 1/(2(1-u)) as x^(q-2), in one call
        inverses = f.pow_vec(np.concatenate([us[None], twice]), f.q - 2)
        self._inv_u, self._inv_2p, self._inv_2m = inverses
        self._tau1 = f.mul_vec(self._one_plus, self._inv_u)
        self._tau2 = f.mul_vec(self._one_minus, self._inv_u)
        self._t1t2 = f.mul_vec(self._tau1, self._tau2)
        self._classes = f.cij_partition().classes
        self.tau1, self.tau2 = self._column(self._tau1), self._column(self._tau2)

    def _view(self, a):
        """A (U, ...) result as the caller's shape: row 0 for a scalar u."""
        return a[0] if self._scalar else a

    def _column(self, col):
        """A (U, 1) constant as the caller's value: an int for a scalar u."""
        return int(col[0, 0]) if self._scalar else col[:, 0]

    def counts_at(self, bs):
        """The (4, U, B) int8 closed counts, class-major, at the b cells bs: one
        code, a 1-D array of codes for every u, or a (U, K) array of per-u codes,
        anything that broadcasts against the (U, 1) constants.  Plane c holds
        the class C_c (CLASS_00..CLASS_11 are 0..3), and each plane's
        temporaries are freed before the next plane starts."""
        f = self.field
        bs = np.asarray(f.check_code(bs, "b"), dtype=np.int64)
        classes = self._classes
        out = np.empty((4, *np.broadcast_shapes(self._us.shape, bs.shape)), dtype=np.int8)
        # linear: x = (b - (1 + u)) / (2(1 + u)) on C_00, (b - (1 - u)) / (2(1 - u)) on C_11
        for c, shift, scale in ((CLASS_00, self._one_plus, self._inv_2p),
                                (CLASS_11, self._one_minus, self._inv_2m)):
            np.equal(classes[f.mul_vec(f.sub_vec(bs, shift), scale)], c, out=out[c])
        # quadratic: roots (base +- s)/2, s the canonical root of the discriminant
        two_b_over_u = f.mul_vec(f.embed(2), f.mul_vec(bs, self._inv_u))
        half = f.inv(2)
        for c, op, base in ((CLASS_01, f.sub_vec, self._tau2),
                            (CLASS_10, f.add_vec, f.neg_vec(self._tau1))):
            disc = op(self._t1t2, two_b_over_u)
            s = f.sqrt_vec(disc)
            hits = np.equal(classes[f.mul_vec(f.add_vec(base, s), half)], c, out=out[c])
            hits += (s != 0) & (classes[f.mul_vec(f.sub_vec(base, s), half)] == c)
            hits *= f.eta_vec(disc) >= 0
        return out

    def _boundary_delta(self, bs, counts):
        """(boundary, delta) at the b cells bs with their counts_at(bs): whether
        b is D_1F(0) = u + 1 or D_1F(-1) = u - 1 (two points, as 2 != 0), and
        delta(1, b), the class counts plus that point."""
        boundary = (bs == self._one_plus) | (bs == self.field.sub_vec(self._us, 1))
        return boundary, counts.sum(axis=0, dtype=np.int64) + boundary

    def a_counts(self, b):
        """(#A_00(b), #A_01(b), #A_10(b), #A_11(b)) at one code b: counts_at(b),
        one cell per u (a tuple for a scalar u, a (U, 4) array for a batch)."""
        if np.ndim(b):
            raise ValueError("a_counts takes one b code; counts_at takes arrays of them")
        counts = self.counts_at(b)[:, :, 0].T
        return tuple(int(c) for c in counts[0]) if self._scalar else counts

    def a_counts_all(self):
        """(q, 4) int8 array of (#A_00, #A_01, #A_10, #A_11) for every b;
        (U, q, 4) for a batch of u.  A read-only view of the class-major
        counts; every call views the same array."""
        return self._view(np.moveaxis(self._counts, 0, -1))

    @cached_property
    def _counts(self):
        """counts_at(every b), (4, U, q), computed once per case and read-only."""
        out = self.counts_at(self.field.elements())
        out.flags.writeable = False  # every caller shares this array
        return out

    def delta_row(self):
        """delta(1, b) for every b, assembled from the closed counts."""
        return self._view(self._boundary_delta(self.field.elements(), self._counts)[1])

    def lemmas_hold(self):
        """Every lemma of the battery (_lemma_battery) holds at every b where it
        applies, read off the cached grid: a bool for one u, a (U,) boolean
        array for a batch."""
        battery = _lemma_battery(self, self.field.elements(), self._counts)
        held = np.logical_and.reduce([ok.all(axis=1) for _, _, ok in battery])
        return bool(held[0]) if self._scalar else held


def aij_counts_brute(field: Field, u):
    """(q, 4) per-b counts by scanning every x outside {0, -1} (the oracle);
    (U, q, 4) for a 1-D array of u.

    Builds each table x^2 (1 + u*eta(x)) directly, takes its a = 1 row
    F(x+1) - F(x) and counts it with one bincount keyed by (class, u,
    value); nothing here comes from CaseAnalysis.
    """
    us, scalar = _code_axis(field, u, "u")
    q = field.q
    codes = field.elements()
    eta = field.eta_vec(codes)
    factor = np.where(eta == 0, 1, np.where(eta > 0, field.add_vec(1, us), field.sub_vec(1, us)))
    table = field.mul_vec(field.pow_vec(codes, 2), factor)
    row = field.sub_vec(table[:, field.add_vec(codes, 1)], table)
    classes = field.cij_partition().classes
    inside = classes >= 0
    cls = classes[inside].astype(np.int64)
    key = (cls * len(us) + np.arange(len(us))[:, None]) * q + row[:, inside]
    out = np.bincount(key.ravel(), minlength=4 * len(us) * q).reshape(4, len(us), q)
    out = np.moveaxis(out, 0, -1)
    return out[0] if scalar else out


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


def _lemma_battery(case: CaseAnalysis, bs, counts):
    """(name, applicable, ok) per lemma as (U, B) boolean arrays at the b cells
    bs with their counts_at(bs), where ok means the lemma holds at (u, b) or
    does not apply there: the four exclusion implications, the boundary bound
    delta(1, u +/- 1) <= 4 and the cap delta(1, b) <= DELTA_CAP."""
    field = case.field
    boundary, delta = case._boundary_delta(bs, counts)
    shape = delta.shape
    eu = field.eta_vec(case._us)
    eta_boundary = (field.eta_vec(case._one_plus), field.eta_vec(case._one_minus))
    battery = []
    for name, point, sign, full, blocked in _EXCLUSIONS:
        applicable = np.broadcast_to(eta_boundary[point] == sign * eu, shape)
        clash = (counts[full] == 2) & (counts[blocked] != 0)
        battery.append((name, applicable, ~(applicable & clash)))
    battery.append(("boundary_delta_le_4", boundary, ~boundary | (delta <= 4)))
    battery.append(("delta_le_5", np.ones(shape, dtype=bool), delta <= DELTA_CAP))
    return battery


# One-call forms of CaseAnalysis.  They stay while perfbench/tracer.py wraps
# these names and test_tracer_targets_exist pins them (ROADMAP items 6-7).


def aij_counts_closed(field: Field, u, b):
    """Closed-form (#A_00(b), #A_01(b), #A_10(b), #A_11(b)) for F_{2,u}."""
    return CaseAnalysis(field, u).a_counts(b)


def structural_lemmas_hold(field: Field, u):
    """CaseAnalysis(field, u).lemmas_hold()."""
    return CaseAnalysis(field, u).lemmas_hold()


def structural_lemma_checks(field: Field, u, b):
    """(name, applicable, ok) bools at one b for the four exclusion implications,
    the boundary bound delta(1, u +/- 1) <= 4 and the cap delta(1, b) <= 5.
    A lemma that does not apply at b is reported as ok.  u is one code."""
    case = CaseAnalysis(field, u)
    if not case._scalar or np.ndim(b):
        raise ValueError("structural_lemma_checks takes one u code and one b code")
    return [
        (name, bool(applicable[0, 0]), bool(ok[0, 0]))
        for name, applicable, ok in _lemma_battery(case, b, case.counts_at(b))
    ]
