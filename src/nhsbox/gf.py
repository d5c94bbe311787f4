"""Construction of and arithmetic in F_{p^n} for odd p.

Elements are integer codes in [0, q): the polynomial sum(c_i * x^i) is
encoded as sum(c_i * p^i).  Prime fields reduce without %, as numpy
vectorises // by a scalar but not % (see :func:`_reduce`).
Extension fields do their Z_p polynomial work (the irreducibility test,
the generator search, the log tables) with n x n multiplication matrices
over Z_p in numpy (see :func:`_mul_matrix`), and each one carries dense
tables, so that every path stays table-driven: log/antilog tables filled
by matrix doubling (see :func:`_powers`), the eta table,
and carry-free packed digit codes with two normalise tables for addition
and subtraction (see :func:`_addition_tables`).  Hence TABLE_LIMIT bounds
extension fields; prime fields go up to CODE_LIMIT.  Field.difference_rows
translates a value table by x -> x + a with no field addition per element,
_WALK_ROWS rows at a time in buffers kept for the walk.

One code is the batch of one: Field.codes checks codes and gives them as
int64, a 0-d array for one code, batched APIs broadcast their per-code
constants against that shape, and unwrap turns a 0-d result into a Python
int or bool.  integer checks the other integer parameters (exponents, jobs).

All tables are immutable after construction; a Field is safe to share
across worker processes.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import product

import numpy as np

TABLE_LIMIT = 1 << 22  # largest extension field; largest prime field with an eta table
CODE_LIMIT = 1 << 31  # keeps products inside int64 on the numpy paths


def _reduce(s, p, sign=0, spare=None):
    """s mod p, in place in the fresh integer array s, which it returns.  A sum
    (sign +1) or difference (-1) of two codes takes min(s, s -/+ p) on the
    unsigned view, where s -/+ p wraps around for the elements that stay;
    any other s takes s - s // p * p.  spare, if given, is an array shaped
    and typed as s that takes s -/+ p or the quotient."""
    s = np.asarray(s)
    if sign:
        u = s.view(f"u{s.itemsize}")
        shifted = None if spare is None else spare.view(u.dtype)
        np.minimum(u, (np.subtract if sign > 0 else np.add)(u, p, out=shifted), out=u)
    else:
        quot = np.floor_divide(s, p, out=np.empty_like(s) if spare is None else spare)
        s -= np.multiply(quot, p, out=quot)
    return s if s.ndim else s[()]  # two scalar operands give a numpy scalar


class FieldConstructionError(ValueError):
    """Invalid (p, n, modulus) for field construction."""


class NotPrimeError(FieldConstructionError):
    pass


class EvenCharacteristicError(FieldConstructionError):
    pass


class DegreeError(FieldConstructionError):
    pass


class FieldSizeError(FieldConstructionError):
    pass


class UnsupportedFieldError(ValueError):
    """A paper-only path needs q = 3 (mod 4) (or another unmet field shape)."""


def _index(value):
    """value as a Python int, numpy integers included; None for a bool
    (operator.index(True) is 1) or any other non-integer."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        return None
    return operator.index(value)


def integer(value, name, positive=False):
    """_index(value); a ValueError naming it for a non-integer, and for
    value < 1 when positive."""
    index = _index(value)
    if index is None:
        raise ValueError(f"{name} = {value!r} is not an integer")
    if positive and index < 1:
        raise ValueError(f"{name} = {index} must be a positive integer")
    return index


def unwrap(result):
    """A result of one code (0-d) as its Python int or bool; a batch as it is."""
    return result.item() if np.ndim(result) == 0 else result


def factorize(m):
    """{prime: exponent} of an integer m >= 1, by trial division: meant for
    m <= CODE_LIMIT, where it takes at most about 46k divisions."""
    m = integer(m, "m", positive=True)
    out = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


# ---------------------------------------------------------------------------
# moduli: irreducible polynomials over Z_p (coefficient tuples, low degree first)
# ---------------------------------------------------------------------------


def _companion(p, modulus):
    """Multiplication by x modulo the monic modulus f (coefficients low
    degree first), as an n x n matrix over Z_p: row i holds the digits of
    x^(i+1).  Int64 while every dot product, at most n (p-1)^2, fits;
    Python ints (object dtype) beyond that."""
    n = len(modulus) - 1
    times_x = np.eye(n, k=1, dtype=np.int64 if n * (p - 1) ** 2 < 1 << 62 else object)
    times_x[-1] = [-c % p for c in modulus[:n]]  # x^n = -sum(f_i x^i)
    return times_x


def _orbit(row, matrix, p):
    """The rows row @ matrix^i over Z_p for i < len(matrix), stacked."""
    rows = [row]
    for _ in range(1, len(matrix)):
        rows.append(rows[-1] @ matrix % p)
    return np.stack(rows)


def _mul_matrix(p, modulus, h):
    """Multiplication by h (its n digits) modulo f: row i holds the digits
    of h * x^i, so a digit row times the matrix is its product with h."""
    times_x = _companion(p, modulus)
    return _orbit(np.array(h, dtype=times_x.dtype) % p, times_x, p)


def _pow_rows(rows, matrix, e, p):
    """rows @ matrix^e over Z_p, by square-and-multiply."""
    while e:
        if e & 1:
            rows = rows @ matrix % p
        e >>= 1
        if e:
            matrix = matrix @ matrix % p
    return rows


def _rank_zp(m, p):
    """Rank over Z_p of an integer matrix, by Gaussian elimination."""
    m, rank = m % p, 0
    for col in range(m.shape[1]):
        nonzero = rank + np.nonzero(m[rank:, col])[0]
        if len(nonzero):
            m[[rank, nonzero[0]]] = m[[nonzero[0], rank]]
            m[rank] = m[rank] * pow(int(m[rank, col]), -1, p) % p
            m[rank + 1 :] = (m[rank + 1 :] - m[rank + 1 :, col, None] * m[rank]) % p
            rank += 1
    return rank


def is_irreducible_zp(coeffs, p):
    """Irreducibility of a monic polynomial over Z_p (coeffs low degree first).

    The Frobenius test: row i of F holds the digits of x^(ip) mod f.  F is
    the matrix of v -> v^p on Z_p[x]/(f), so F^n = I exactly when f divides
    x^(p^n) - x (f squarefree, every factor of degree dividing n), and then
    ker(F - I) has one dimension per irreducible factor (Berlekamp).  Hence
    f is irreducible iff F^n = I and rank(F - I) = n - 1.
    """
    coeffs = [c % p for c in coeffs]
    if len(coeffs) < 2 or coeffs[-1] != 1:
        raise ValueError("monic polynomial of positive degree expected")
    times_x = _companion(p, coeffs)
    n, eye = len(times_x), np.eye(len(times_x), dtype=times_x.dtype)
    x_to_p = _pow_rows(eye[0], times_x, p, p)
    frobenius = _orbit(eye[0], _mul_matrix(p, coeffs, x_to_p), p)
    if not np.array_equal(_pow_rows(eye, frobenius, n, p), eye):
        return False
    return _rank_zp(frobenius - eye, p) == n - 1


def lex_min_irreducible(p, n):
    """Smallest monic irreducible of degree n over Z_p, coefficients
    compared low-degree-first."""
    for cs in product(range(p), repeat=n):
        f = cs + (1,)
        if cs[0] != 0 and is_irreducible_zp(f, p):
            return f
    raise FieldConstructionError(f"no irreducible of degree {n} over Z_{p}")  # unreachable


# ---------------------------------------------------------------------------
# the field itself
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CijPartition:
    """Classification of every x not in {0, -1} by the signs (eta(x), eta(x+1)).

    Class index is 2*i + j where eta(x) = (-1)^i and eta(x+1) = (-1)^j;
    the two excluded codes carry index -1.
    """

    counts: dict
    classes: np.ndarray

    CLASS_LABELS = ("00", "01", "10", "11")


# rows per block of Field.difference_rows: the full DDT counts each block
# before it draws the next, and a one-row walk holds one row.  Do not retry 4,
# 8 or 32: none beat 16 in cold full-DDT runs.
_WALK_ROWS = 16


class Field:
    """F_{p^n} for odd p, with eta / sqrt / C_ij machinery.

    Use :func:`build_field`; the constructor only wires precomputed parts,
    and an extension field's arithmetic runs on the tables it wires.
    Vector ops take int32/int64 code arrays or scalars, broadcast together;
    prime-field add_vec/sub_vec/neg_vec need codes in [0, p) (one wrap).
    Each scalar op (add, sub, neg, mul, pow, inv, eta, sqrt) is its vector op
    on one code and returns a Python int: a prime field reduces any integer
    first, an extension field checks that the code lies in [0, q), and a
    non-integer is a ValueError.
    """

    def __init__(self, p, n, modulus, generator, eta_table, log_table, alog_table, add_tables):
        self.p = p
        self.n = n
        self.q = p**n
        self.modulus = modulus  # None for prime fields, else monic coeff tuple
        self.generator = generator
        self.eta_table = eta_table
        self._log = log_table
        self._alog = alog_table  # doubled: alog[k] = g^(k mod q-1) for k < 2(q-1)
        self._add_tables = add_tables  # (pk, pk_neg, lo, hi, shift) from _addition_tables
        self._sqrt_table = None
        self._cij = None

    # -- basics ------------------------------------------------------------

    def __repr__(self):
        if self.n == 1:
            return f"Field(p={self.p})"
        return f"Field(p={self.p}, n={self.n}, modulus={self.modulus})"

    @property
    def is_prime_field(self):
        return self.n == 1

    def elements(self):
        return np.arange(self.q, dtype=np.int64)

    def embed(self, k):
        """Image of the rational integer k in the prime subfield."""
        return k % self.p

    def check_code(self, x, name="x"):
        """x itself if it is one element code in [0, q) or an array of them, else
        a ValueError naming x.  The package's one range and type check: the
        vector ops index tables with codes and would read a negative code as
        q + x, and a cast to int64 would drop a fraction, so codes casts after it."""
        if type(x) is int and 0 <= x < self.q:  # the scalar ops' fast path; not a bool
            return x
        xs = np.asarray(x)
        if xs.dtype.kind not in "iu":  # Python ints past int64 come as object or float64
            ints = np.asarray(x, dtype=object)
            if not all(type(v) is int for v in ints.flat):
                raise ValueError(f"{name} has dtype {xs.dtype}: element codes are integers")
            xs = ints
        if xs.min(initial=0) < 0 or xs.max(initial=0) >= self.q:
            bad = xs[(xs < 0) | (xs >= self.q)].flat[0]
            raise ValueError(f"{name} = {bad} is out of range: not an element code of F_{self.q}")
        return x

    def codes(self, x, name="x", ndim=None):
        """x checked (check_code) as int64 codes: a 0-d array for one code.  More
        axes than ndim, if given, are a ValueError naming x."""
        self.check_code(x, name)
        xs = np.asarray(x, dtype=np.int64)
        if ndim is not None and xs.ndim > ndim:
            raise ValueError(f"{name} must be one element code or a {ndim}-D array of them")
        return xs

    def require_3_mod_4(self, what):
        """Raise UnsupportedFieldError unless q = 3 (mod 4).  There eta(-1) = -1,
        which the canonical sqrt, the C_ij split and the paper's case analysis
        rest on; the row reductions of the DDT/BCT take any odd q."""
        if self.q % 4 != 3:
            raise UnsupportedFieldError(f"{what} needs q = 3 (mod 4), and q = {self.q}")

    # -- scalar arithmetic: the vector ops on one code -----------------------

    def _scalar(self, x, name):
        """x as one code: an integer (see integer), reduced mod p in a prime
        field and checked in an extension field."""
        x = integer(x, name)
        return x % self.p if self.n == 1 else self.check_code(x, name)

    def add(self, a, b):
        return int(self.add_vec(self._scalar(a, "a"), self._scalar(b, "b")))

    def sub(self, a, b):
        return int(self.sub_vec(self._scalar(a, "a"), self._scalar(b, "b")))

    def neg(self, a):
        return int(self.neg_vec(self._scalar(a, "a")))

    def mul(self, a, b):
        return int(self.mul_vec(self._scalar(a, "a"), self._scalar(b, "b")))

    def inv(self, a):
        return self.pow(a, -1)

    def pow(self, a, e):
        a, e = self._scalar(a, "a"), integer(e, "e")
        if e < 0:
            if a == 0:
                raise ZeroDivisionError("negative power of 0")
            e %= self.q - 1
        return int(self.pow_vec(a, e))

    # -- vector arithmetic (code arrays, see the class docstring) ------------

    def add_vec(self, x, y):
        if self.n == 1:
            return _reduce(np.add(x, y), self.p, +1)
        pk = self._add_tables[0]
        return self._unpack(pk[x] + pk[y])

    def sub_vec(self, x, y):
        if self.n == 1:
            return _reduce(np.subtract(x, y), self.p, -1)
        pk, pk_neg = self._add_tables[:2]
        return self._unpack(pk[x] + pk_neg[y])

    def neg_vec(self, x):
        return self.sub_vec(0, x)

    def difference_rows(self, values, a):
        """Iterate over values[x + a] - values[x] for every code x (values: q codes),
        one row per code in a (a 1-D integer array-like), in (B, q) blocks of
        _WALK_ROWS rows, the last one shorter.  The inputs are checked here, and
        the walk writes every block into buffers allocated once, so a block is
        valid until the next one is drawn.  A prime field's row a is the slice
        a .. a + q - 1 of the doubled values minus the values (int32); an
        extension field's x + a acts on the two digit blocks of _addition_tables
        apart, so two small add_vec tables index the packed values (int64).
        Each gather is a take with mode="clip", as the default mode buffers its
        out; every index is in range by construction."""
        v, a = self.codes(values, "values"), self.codes(a, "a")
        if v.shape != (self.q,) or a.ndim != 1:
            raise ValueError("difference_rows takes q value codes and a 1-D array of a")
        return self._difference_walk(v, a)

    def _difference_walk(self, v, a):
        q, block, width = self.q, _WALK_ROWS, min(_WALK_ROWS, len(a))
        if self.n == 1:
            v = v.astype(np.int32)
            twice = np.concatenate([v, v])
            rows, spare = (np.empty((width, q), dtype=np.int32) for _ in range(2))
            for lo in range(0, len(a), block):
                ks = a[lo : lo + block].tolist()
                for row, k in zip(rows, ks):
                    np.subtract(twice[k : k + q], v, out=row)
                yield _reduce(rows[: len(ks)], self.p, -1, spare[: len(ks)])
            return
        m = self.p ** ((self.n + 1) // 2)  # codes below m: the low block
        pk, pk_neg = self._add_tables[:2]
        packed, packed_neg = pk[v], pk_neg[v]
        # three arrays, not one (3, width, q) array: the first full DDT at 3^7
        # raised the peak RSS by 0.5 MB with three, by 0.75 MB with one
        index, sums, rows = (np.empty((width, q), dtype=np.int64) for _ in range(3))
        for lo in range(0, len(a), block):
            ks = a[lo : lo + block, None]
            n = len(ks)
            low = self.add_vec(np.arange(m), ks % m)[:, None, :]
            high = self.add_vec(np.arange(0, q, m), ks - ks % m)[:, :, None]
            np.add(high, low, out=index[:n].reshape(n, q // m, m))
            s = packed.take(index[:n], out=sums[:n], mode="clip")
            s += packed_neg
            yield self._unpack(s, rows[:n], index[:n])

    def _unpack(self, s, out=None, spare=None):
        """Codes of the packed digit sums s (see :func:`_addition_tables`), which
        it overwrites: into out, with spare for the half sums, when given (arrays
        shaped as s), else into fresh arrays by plain indexing, which costs the
        least per call on one code or a small array."""
        _, _, lo, hi, shift = self._add_tables
        mask = (1 << shift) - 1
        if out is None:
            out = lo[s & mask]
            s >>= shift
            out += hi[s]
            return out
        lo.take(np.bitwise_and(s, mask, out=spare), out=out, mode="clip")
        s >>= shift
        out += hi.take(s, out=spare, mode="clip")
        return out

    def mul_vec(self, x, y):
        if self.n == 1:
            return _reduce(np.multiply(x, y, dtype=np.int64), self.p)
        x = np.asarray(x, dtype=np.int64)
        y = np.asarray(y, dtype=np.int64)
        out = self._alog[self._log[x] + self._log[y]]
        return np.where((x != 0) & (y != 0), out, 0)

    def pow_vec(self, x, e):
        x, e = np.asarray(x, dtype=np.int64), integer(e, "e")
        if e == 0:
            return np.ones_like(x)
        if e < 0:
            raise ValueError("negative exponents are scalar-only")
        if self.n == 1:  # square-and-multiply in place; k >= 1 keeps 0^e = 0
            result, base, spare = np.ones_like(x), x.copy(), np.empty_like(x)
            k = (e - 1) % (self.p - 1) + 1
            while k:
                if k & 1:
                    _reduce(np.multiply(result, base, out=result), self.p, spare=spare)
                _reduce(np.multiply(base, base, out=base), self.p, spare=spare)
                k >>= 1
            return result
        out = self._alog[(self._log[x] * (e % (self.q - 1))) % (self.q - 1)]
        return np.where(x != 0, out, 0)

    # -- quadratic character, square roots, C_ij ------------------------------

    def eta(self, x):
        return int(self.eta_vec(self._scalar(x, "x")))

    def eta_vec(self, x):
        if self.eta_table is not None:
            return self.eta_table[x]
        r = self.pow_vec(np.asarray(x, dtype=np.int64), (self.q - 1) // 2)
        return np.where(r == 0, 0, np.where(r == 1, 1, -1)).astype(np.int8)

    def sqrt(self, x):
        """The canonical root of one code, sqrt_vec(x), by one pow and no
        sqrt_table; None when x is a non-square."""
        self.require_3_mod_4("the canonical sqrt")
        return self.pow(x, (self.q + 1) // 4) if self.eta(x) >= 0 else None

    def sqrt_vec(self, x):
        """s = x^((q+1)/4) for every code x, so that s^2 = eta(x)*x: the root of
        x itself exactly when x is a square, of -x otherwise.  Read from
        sqrt_table where eta has a table, computed by pow_vec beyond it."""
        self.require_3_mod_4("the canonical sqrt")
        if self.eta_table is None:
            return self.pow_vec(x, (self.q + 1) // 4)
        return self.sqrt_table[x]

    @property
    def sqrt_table(self):
        """x^((q+1)/4) for every code x (see sqrt_vec), built on first use."""
        self.require_3_mod_4("the canonical sqrt")
        if self._sqrt_table is None:
            self._sqrt_table = self.pow_vec(self.elements(), (self.q + 1) // 4)
        return self._sqrt_table

    def cij_partition(self):
        """The C_ij partition (see CijPartition), built on first use.

        eta(x + 1) is read off the eta values by rotation, with no field
        addition: x + 1 changes only the lowest base-p digit d of the code x,
        to d + 1 mod p.  So each block of p consecutive codes p*k .. p*k + p - 1
        maps onto itself, shifted by one place (the whole field when n = 1).
        """
        self.require_3_mod_4("the C_ij partition")
        if self._cij is None:
            e0 = self.eta_vec(self.elements())
            e1 = np.roll(e0.reshape(-1, self.p), -1, axis=1).ravel()
            idx = 2 * (e0 < 0).astype(np.int8) + (e1 < 0)
            idx[e0 == 0] = -1
            idx[e1 == 0] = -1  # x = -1
            counts = {
                label: int(np.count_nonzero(idx == k))
                for k, label in enumerate(CijPartition.CLASS_LABELS)
            }
            self._cij = CijPartition(counts=counts, classes=idx)
        return self._cij


def _addition_tables(p, n):
    """Carry-free packed digit codes and normalise tables for F_{p^n}.

    A code's base-p digits are rewritten in radix B = 2p - 1: the low
    h = ceil(n/2) digits in the low ``shift`` bits, the other n - h digits
    above them.  Two digits sum to at most 2p - 2 < B, so ``pk[x] + pk[y]``
    and ``pk[x] + pk_neg[y]`` never carry between digits or halves, and
    ``lo`` / ``hi`` (B^h and B^(n-h) entries) map the radix-B digit sums of
    each half back to the code sum((s_i mod p) * p^i).  The tables depend
    on (p, n) only; temporaries stay O(q + B^h).
    """
    B, h = 2 * p - 1, (n + 1) // 2
    shift = (B**h - 1).bit_length()
    rest = np.arange(p**n, dtype=np.int64)
    pk = np.zeros_like(rest)
    pk_neg = np.zeros_like(rest)
    for i in range(n):
        d = rest % p
        rest //= p
        w = B**i if i < h else B ** (i - h) << shift
        pk += d * w
        pk_neg += np.remainder(-d, p, out=d) * w  # d is not read again, so it holds -d % p

    def normalise(m, offset):
        s = np.arange(B**m, dtype=np.int64)
        out = np.zeros_like(s)
        for i in range(m):
            out += (s // B**i % B % p) * p ** (i + offset)
        return out

    return pk, pk_neg, normalise(h, 0), normalise(n - h, h), shift


def _smallest_generator(p, n, modulus):
    """Smallest code g >= 2 with g^((q-1)/r) != 1 for every prime r | q - 1.
    In an extension field g^c is the first digit row of the multiplication
    matrix of g raised to c - 1, by square-and-multiply."""
    q = p**n
    cofactors = [(q - 1) // f for f in factorize(q - 1)]
    one = [1] + [0] * (n - 1)
    for g in range(2, q):
        if n == 1:
            found = all(pow(g, c, p) != 1 for c in cofactors)
        else:
            times_g = _mul_matrix(p, modulus, [g // p**i % p for i in range(n)])
            found = all(_pow_rows(times_g[0], times_g, c - 1, p).tolist() != one
                        for c in cofactors)
        if found:
            return g
    raise FieldConstructionError("no generator found")  # unreachable for a true field


_ROWS = 1 << 16  # digit rows widened to int32 at a time in _powers


def _powers(p, n, modulus, generator):
    """The doubled antilog table: codes of g^0 .. g^(q-2), g the generator,
    by matrix doubling, then the same q - 1 codes again.

    Multiplication by h is the n x n matrix over Z_p whose row i holds the
    digits of h * x^i (see :func:`_mul_matrix`).  When rows 0..m-1 of
    ``digits`` hold g^0 .. g^(m-1), those rows times the matrix of g^m are
    g^m .. g^(2m-1), so about log2(q) matmuls give every power.  Digits
    are stored as int8 when p < 128 (else int32) and widened to int32
    _ROWS rows at a time for each product: as q <= TABLE_LIMIT, every dot product, at most n (p-1)^2, and every code
    stay below 2^24.  Checks that g^(q-1) = 1.
    """
    q = p**n
    step = _mul_matrix(p, modulus, [generator // p**i % p for i in range(n)]).astype(np.int32)
    digits = np.zeros((q, n), dtype=np.int8 if p < 128 else np.int32)
    digits[0, 0] = 1

    def times(rows, matrix):
        return rows.astype(np.int32, copy=False) @ matrix

    m = 1
    while m < q:
        k = min(m, q - m)
        for i in range(0, k, _ROWS):
            j = min(i + _ROWS, k)
            digits[m + i : m + j] = times(digits[i:j], step) % p
        step = step @ step % p  # the matrix of g^m, for the next m
        m += k
    if digits[q - 1].tolist() != digits[0].tolist():
        raise FieldConstructionError("generator order check failed")
    pw = np.array([p**i for i in range(n)], dtype=np.int32)
    codes = np.empty(2 * (q - 1), dtype=np.int64)
    for i in range(0, q - 1, _ROWS):
        j = min(i + _ROWS, q - 1)
        codes[i:j] = times(digits[i:j], pw)
    del digits  # freed before the second half's pages are touched
    codes[q - 1 :] = codes[: q - 1]
    return codes


def build_field(p, n=1, *, modulus=None):
    """Construct F_{p^n} with a deterministic modulus and generator.

    The modulus (for n > 1) defaults to the lexicographically smallest
    monic irreducible of degree n over Z_p, coefficients compared
    low-degree-first; pass ``modulus`` (a monic coefficient tuple, low
    degree first) to override the representation.  Every extension field
    comes with its tables; above TABLE_LIMIT it raises FieldSizeError
    before any search starts, as does a prime field above CODE_LIMIT.
    """
    # p and n are read as gf.integer reads them (numpy integers pass, a bool
    # does not); a p above CODE_LIMIT is left to the size check below
    p_int, n_int = _index(p), _index(n)
    if p_int is None or p_int < 2 or (p_int <= CODE_LIMIT and factorize(p_int) != {p_int: 1}):
        raise NotPrimeError(f"p = {p} is not prime")
    if p_int == 2:
        raise EvenCharacteristicError("characteristic 2 is out of scope")
    if n_int is None or n_int < 1:
        raise DegreeError(f"extension degree n = {n} must be a positive integer")
    p, n = p_int, n_int
    q = p**n
    if q > CODE_LIMIT:
        raise FieldSizeError(f"q = {q} exceeds the element-code limit {CODE_LIMIT}")
    if n > 1 and q > TABLE_LIMIT:
        raise FieldSizeError(f"extension field q = {q} exceeds the table limit {TABLE_LIMIT}")

    if n == 1:
        if modulus is not None:
            raise FieldConstructionError("prime fields take no modulus")
    else:
        if modulus is None:
            modulus = lex_min_irreducible(p, n)
        else:
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != n + 1 or modulus[-1] != 1:
                raise FieldConstructionError("modulus must be monic of degree n")
            if not is_irreducible_zp(modulus, p):
                raise FieldConstructionError("modulus is reducible over Z_p")
    generator = _smallest_generator(p, n, modulus)

    add_tables = log = alog = eta = None
    if n > 1:
        add_tables = _addition_tables(p, n)
        alog = _powers(p, n, modulus, generator)
        log = np.zeros(q, dtype=np.int64)
        for i in range(0, q - 1, _ROWS):  # no (q-1)-long temporary
            j = min(i + _ROWS, q - 1)
            log[alog[i:j]] = np.arange(i, j, dtype=np.int64)

    if q <= TABLE_LIMIT:  # the squares are the even powers of g
        squares = alog[: q - 1 : 2] if n > 1 else _reduce(np.arange(1, q, dtype=np.int64) ** 2, p)
        eta = np.full(q, -1, dtype=np.int8)
        eta[0] = 0
        eta[squares] = 1

    return Field(p, n, modulus, generator, eta, log, alog, add_tables)


_cached = {}  # {(p, n): Field}, one entry: a sweep reuses only the field of its q


def cached_field(p, n=1):
    """build_field(p, n), held until another (p, n) is asked (n defaults to 1)."""
    key = _index(p), _index(n)  # a bool misses (True == 1) and build_field rejects it
    if key not in _cached:
        _cached.clear()  # dropped before the next build, not after
        _cached[key] = build_field(p, n)
    return _cached[key]
