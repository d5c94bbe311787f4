"""Differential and boomerang analysis of function tables over F_q.

D_a F of a table is computed in one place, Field.difference_rows, and
DDT rows, BCT rows and the locally-APN check all read it: the fiber sizes
of D_a F are the DDT row, and the BCT row tallies F(x) - F(y) over the
pairs inside each fiber, in O(q + sum k^2) work.  Whole-table spectra
(_spectrum_rows) of any table over any odd q read one row per pair {a, -a}:
delta(-a, b) = delta(a, -b), as D_{-a} F(x) = -D_a F(x - a), and
beta(-a, b) = beta(a, b), by (x, y) -> (x - a, y - a).  The reduced paths
read one row per orbit of <squares, -1> on F_q* for F_{r,u}, weighted by
the orbit size: F_{r,u}(c*y) = c^r F_{r,u}(y) for a square c, so
delta(c*a, b) = delta(a, b*c^-r), and likewise for beta.  That is row 1
alone when eta(-1) = -1, else rows 1 and the generator, a non-square.
boomerang_case_counts_F21 takes b as CaseAnalysis takes u: a batch or one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .characters import weil_sum_brute
from .gf import Field, UnsupportedFieldError
from .nh_family import ConsistencyError, NHParams, _code_axis, nh_table

# ---------------------------------------------------------------------------
# tables and spectrum containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FunctionTable:
    """Dense value table of a function F_q -> F_q, indexed by element code."""

    field: Field
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.ndim != 1 or values.dtype.kind not in "iu" or len(values) != self.field.q:
            raise ValueError("table values must be a 1-D integer array of length q")
        self.field.check_code(values, "table values")
        object.__setattr__(self, "values", values.astype(np.int64, copy=False))

    @classmethod
    def from_nh(cls, field, params: NHParams):
        return cls(field, nh_table(field, params))


@dataclass(frozen=True)
class DifferentialSpectrum:
    """Sparse multiset {omega_i}; omega_0 is always materialised."""

    omega: dict
    uniformity: int
    locally_apn: bool

    def identities_hold(self, q):
        total = sum(self.omega.values())
        weighted = sum(i * w for i, w in self.omega.items())
        return total == q * (q - 1) and weighted == q * (q - 1)

    def to_json_dict(self):
        return {str(i): int(w) for i, w in sorted(self.omega.items())}


@dataclass(frozen=True)
class BoomerangSpectrum:
    """Sparse multiset {nu_i} over (a, b) in F_q* x F_q*."""

    nu: dict
    uniformity: int

    def identities_hold(self, q):
        return sum(self.nu.values()) == (q - 1) ** 2

    def to_json_dict(self):
        return {str(i): int(w) for i, w in sorted(self.nu.items())}


def _tally_to_sparse(tally):
    return {0: int(tally[0]), **{i: int(w) for i, w in enumerate(tally) if i and w}}


def _tally_add(tally, counts):
    """tally + bincount(counts), grown to the longer of the two."""
    more = np.bincount(np.ravel(counts))
    if len(more) < len(tally):
        tally, more = more, tally
    more[: len(tally)] += tally
    return more


# ---------------------------------------------------------------------------
# derivative rows and the DDT
# ---------------------------------------------------------------------------

# a values per batch of the full-DDT loop; pairs per block of a BCT row.
_A_BATCH = 16
_PAIR_BLOCK = 1 << 16


def _ddt_rows(table: FunctionTable, a):
    """delta(a, b) for every b, one row per a in the 1-D array a: the fiber
    sizes of D_a F, from one bincount with row i offset by i*q."""
    q = table.field.q
    d = table.field.difference_rows(table.values, a)
    keys = np.add(d, q * np.arange(len(a))[:, None], dtype=np.int64)
    return np.bincount(keys.ravel(), minlength=len(a) * q).reshape(len(a), q)


def derivative_row(table: FunctionTable, a):
    """D_a F(x) for every x, as a length-q int64 array."""
    table.field.check_code(a, "a")
    if a == 0:
        raise ValueError("a must be nonzero")
    return table.field.difference_rows(table.values, np.array([a]))[0].astype(np.int64)


def _outside_prime_subfield(field: Field):
    # For extension fields the prime subfield is codes 0..p-1.  For a prime
    # field that set is everything, so the exclusion degenerates to {0}
    # (the value where the large delta of the x^r(1 + u eta) family lives).
    return slice(field.p if field.n > 1 else 1, None)


def _row1_outside(field: Field, r):
    """The positions of a reduced row that the locally-APN maximum reads.

    delta(c*a, b) = delta(a, b*c^-r) for c a square, so b outside the prime
    subfield reads the positions outside the line c^-r * F_p (-F_p = F_p).
    These lines all equal F_p when (q-1) | 2r(p-1), that is when every c^-r
    lies in F_p*; otherwise two of them differ and meet only in 0, so the
    union of their complements is every position but 0.
    """
    if 2 * r * (field.p - 1) % (field.q - 1) == 0:
        return _outside_prime_subfield(field)
    return slice(1, None)


def _spectrum_rows(table: FunctionTable, reduction: NHParams | None):
    """(rows a, weight of each, the b of the locally-APN maximum) for a
    spectrum: a < -a with weight 2, or for a table checked to be F_{r,u},
    one row per orbit of <squares, -1>, weighted by its size."""
    f = table.field
    if reduction is None:
        codes = f.elements()
        return codes[codes < f.neg_vec(codes)], 2, _outside_prime_subfield(f)
    if not np.array_equal(nh_table(f, reduction), table.values):
        raise ConsistencyError("table does not match F_{r,u} for the given (r, u)")
    a = np.array([1] if f.eta(f.neg(1)) < 0 else [1, f.generator], dtype=np.int64)
    return a, (f.q - 1) // len(a), _row1_outside(f, reduction.r)


def differential_spectrum(table: FunctionTable, reduction: NHParams | None = None):
    """Full DDT aggregation, or the reduced rows of F_{r,u} by orbit size
    (module docstring).  The full path reads the rows a < -a twice over:
    row -a is row a with b -> -b, which keeps the tally and the maximum
    outside the prime subfield.  Both paths take any odd q.
    """
    a, weight, outside = _spectrum_rows(table, reduction)
    tally = np.zeros(1, dtype=np.int64)
    best_outside = 0
    for lo in range(0, len(a), _A_BATCH):
        rows = _ddt_rows(table, a[lo : lo + _A_BATCH])
        tally = _tally_add(tally, rows)
        best_outside = max(best_outside, int(rows[:, outside].max()))
    # every row has a nonzero count, so the tally ends on the uniformity
    return DifferentialSpectrum(_tally_to_sparse(tally * weight), len(tally) - 1, best_outside == 2)


# ---------------------------------------------------------------------------
# BCT
# ---------------------------------------------------------------------------


def bct_entry(table: FunctionTable, a, b):
    """beta_F(a, b), read off the row boomerang_row(table, a)."""
    table.field.check_code(b, "b")
    return int(boomerang_row(table, a)[b])


def bct_entry_bruteforce(table: FunctionTable, a, b):
    """beta_F(a, b) by direct O(q^2) pair enumeration (the oracle)."""
    f = table.field
    f.check_code(a, "a")
    f.check_code(b, "b")
    if a == 0:
        raise ValueError("a must be nonzero")
    fa = table.values[f.add_vec(f.elements(), a)]
    d1 = f.sub_vec(table.values[:, None], table.values[None, :])
    d2 = f.sub_vec(fa[:, None], fa[None, :])
    return int(np.count_nonzero((d1 == b) & (d2 == b)))


def boomerang_row(table: FunctionTable, a):
    """beta(a, b) for every b (b = 0 included), from the pairs inside the
    fibers of D_a F: O(q + sum k^2) work over the fiber sizes k.

    beta(a, b) counts the pairs (x, y) inside one fiber of D_a F with
    F(x) - F(y) = b, as F(x) - F(y) = F(x+a) - F(y+a) exactly when
    D_a F(x) = D_a F(y).  Pairs go in blocks of about _PAIR_BLOCK, a large
    fiber split by rows, so the memory stays O(q + _PAIR_BLOCK).
    """
    f = table.field
    q = f.q
    d = derivative_row(table, a)
    sizes = np.bincount(d, minlength=q)
    by_fiber = table.values[np.argsort(d, kind="stable")]  # F(x), grouped by D_a F(x)
    starts = np.cumsum(sizes) - sizes
    row = np.zeros(q, dtype=np.int64)
    for k in (np.flatnonzero(np.bincount(sizes)[1:]) + 1).tolist():  # the fiber sizes seen
        fibers = by_fiber[starts[sizes == k][:, None] + np.arange(k)]  # m fibers of size k
        fx = fibers.ravel()
        owner = np.arange(len(fx)) // k  # the fiber of each x
        step = max(1, _PAIR_BLOCK // k)
        for lo in range(0, len(fx), step):
            fy = fibers[owner[lo : lo + step]]
            row += np.bincount(f.sub_vec(fx[lo : lo + step, None], fy).ravel(), minlength=q)
    return row


def boomerang_spectrum(table: FunctionTable, reduction: NHParams | None = None):
    """nu_i over (a, b) in F_q* x F_q*: the rows a < -a twice over, as
    beta(-a, b) = beta(a, b) at any odd q, or the reduced rows by orbit size."""
    a_values, weight, _ = _spectrum_rows(table, reduction)
    tally = np.zeros(1, dtype=np.int64)
    for a in a_values.tolist():
        tally = _tally_add(tally, boomerang_row(table, a)[1:])
    nu = {i: int(w) * weight for i, w in enumerate(tally) if w}
    return BoomerangSpectrum(nu=nu, uniformity=max(nu))


# ---------------------------------------------------------------------------
# closed forms for F_{2,1}
# ---------------------------------------------------------------------------


def cubic_character_sum(field: Field):
    """T = sum of eta((y+1)(y^2+1)) = eta(y^3 + y^2 + y + 1) over F_q."""
    return weil_sum_brute(field, [1, 1, 1, 1])


def closed_form_spectrum_F21(field: Field):
    """The differential spectrum of F_{2,1} from the character sum T.

    All four class sizes are exact integer expressions in q, eta(2) and T;
    any non-exact division signals a computation bug upstream.
    """
    q = field.q
    field.require_3_mod_4("closed_form_spectrum_F21")
    if q <= 7:
        raise UnsupportedFieldError("q <= 7: the (q+1)/4 class collides with 2")
    T = cubic_character_sum(field)
    eta2 = field.eta(field.embed(2))

    def exact(num, den):
        if num % den:
            raise ArithmeticError("non-exact division in the closed-form spectrum")
        return num // den

    omega0 = exact((q - 1) * (3 * q - 5 + (eta2 - 1) * T), 8)
    omega1 = exact((q - 1) * (2 * q - 2 + (1 - eta2) * T), 4)
    omega2 = exact((q - 1) * (q + 1 + (eta2 - 1) * T), 8)
    omega = {0: omega0}
    if omega1:
        omega[1] = omega1
    if omega2:
        omega[2] = omega2
    omega[(q + 1) // 4] = q - 1
    return DifferentialSpectrum(omega=omega, uniformity=(q + 1) // 4, locally_apn=True)


# the four classes F_{2,1} can hit: (label, sign of h = +-b/2, shift e = +-1)
_F21_CHAINS = (("00,01", 1, -1), ("00,10", 1, 1), ("01,00", -1, -1), ("10,00", -1, 1))


def boomerang_case_counts_F21(field: Field, b):
    """Boomerang pair counts #A_{ij,kl}(b) of F_{2,1}, b != 0, in the four
    classes of _F21_CHAINS, the only ones it can hit: ints for one code b,
    (B,) int64 arrays for a 1-D array of b.

    Each count is 0/1: with canonical roots s = h^((q+1)/4) and
    t = (1 + 2e*s)^((q+1)/4) (Field.sqrt_vec), a class is hit where
    eta(h) = eta(s + e) = eta(1 + 2e*s) = 1 and eta(t - e) = -1.
    """
    f = field
    bs, scalar = _code_axis(f, b, "b")
    if np.any(bs == 0):
        raise ValueError("b = 0 is outside the boomerang case analysis")
    f.require_3_mod_4("boomerang_case_counts_F21")
    labels, signs, shifts = zip(*_F21_CHAINS)
    e = f.embed(np.array(shifts)[:, None])
    h = f.mul_vec(f.embed(np.array(signs) * f.inv(2))[:, None], bs.T)  # (4, B) rows +-b/2
    s = f.sqrt_vec(h)
    inner = f.add_vec(1, f.mul_vec(f.add_vec(e, e), s))
    hit = (f.eta_vec(h) == 1) & (f.eta_vec(f.add_vec(s, e)) == 1) & (f.eta_vec(inner) == 1)
    hit &= f.eta_vec(f.sub_vec(f.sqrt_vec(inner), e)) == -1
    hit = hit.astype(np.int64)
    return dict(zip(labels, hit[:, 0].tolist() if scalar else hit))
