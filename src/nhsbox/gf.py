"""Construction of and arithmetic in F_{p^n} for odd p.

Elements are integer codes in [0, q): the polynomial sum(c_i * x^i) is
encoded as sum(c_i * p^i).  Prime fields use plain modular arithmetic.
Extension fields take their Z_p polynomial arithmetic (irreducibility,
the generator search) from sympy's galoistools, imported on first use so
that prime fields never load sympy, and each one carries dense tables, so
that the bulk (numpy) paths stay table-driven: log/antilog tables filled
by matrix doubling (see :func:`_powers`), the eta table,
and carry-free packed digit codes with two normalise tables for addition
and subtraction (see :func:`_addition_tables`).  Hence TABLE_LIMIT bounds
extension fields; prime fields go up to CODE_LIMIT.

All tables are immutable after construction; a Field is safe to share
across worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

TABLE_LIMIT = 1 << 22  # largest extension field; largest prime field with an eta table
CODE_LIMIT = 1 << 31  # keeps products inside int64 on the numpy paths


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
    """Operation requires q = 3 (mod 4) (or another unmet field shape)."""


def factorize(m):
    """{prime: exponent} of an integer m >= 1, by trial division: meant for
    m <= CODE_LIMIT, where it takes at most about 46k divisions."""
    if m < 1:
        raise ValueError(f"m = {m} must be a positive integer")
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


def is_irreducible_zp(coeffs, p):
    """Irreducibility of a monic polynomial over Z_p (coeffs low degree first)."""
    from sympy import ZZ
    from sympy.polys.galoistools import gf_irreducible_p

    coeffs = [c % p for c in coeffs]
    if len(coeffs) < 2 or coeffs[-1] != 1:
        raise ValueError("monic polynomial of positive degree expected")
    return gf_irreducible_p(coeffs[::-1], p, ZZ)


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

    def class_of(self, x):
        idx = int(self.classes[x])
        return None if idx < 0 else self.CLASS_LABELS[idx]

    def members(self, label):
        idx = self.CLASS_LABELS.index(label)
        return np.nonzero(self.classes == idx)[0]


class Field:
    """F_{p^n} for odd p, with eta / sqrt / C_ij machinery.

    Use :func:`build_field`; the constructor only wires precomputed parts.
    Wired without tables, an extension field has only the scalar digit-loop
    and polynomial arithmetic: the generator search's bootstrap and the
    tables' test reference.
    """

    def __init__(self, p, n, modulus, generator, eta_table, log_table, alog_table):
        self.p = p
        self.n = n
        self.q = p**n
        self.modulus = modulus  # None for prime fields, else monic coeff tuple
        self.generator = generator
        self.eta_table = eta_table
        self._log = log_table
        self._alog = alog_table  # doubled: alog[k] = g^(k mod q-1) for k < 2(q-1)
        self._pw = tuple(p**k for k in range(n))
        self._add_tables = None  # (pk, pk_neg, lo, hi, shift) from _addition_tables
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
        """Raise ValueError unless x is an element code in [0, q).

        For scalar entry points only: the vector paths index tables with
        codes and would alias a negative code to q + x silently.
        """
        if not 0 <= x < self.q:
            raise ValueError(f"{name} = {x} is not an element code of F_{self.q}")

    def digits(self, x):
        return tuple((x // w) % self.p for w in self._pw)

    def from_digits(self, ds):
        return sum((d % self.p) * w for d, w in zip(ds, self._pw))

    # -- scalar arithmetic ---------------------------------------------------

    def add(self, a, b):
        if self.n == 1:
            return (a + b) % self.p
        if self._add_tables is not None:
            pk = self._add_tables[0]
            return self._unpack_int(pk.item(a) + pk.item(b))
        return self.from_digits(x + y for x, y in zip(self.digits(a), self.digits(b)))

    def sub(self, a, b):
        if self.n == 1:
            return (a - b) % self.p
        if self._add_tables is not None:
            pk, pk_neg = self._add_tables[:2]
            return self._unpack_int(pk.item(a) + pk_neg.item(b))
        return self.from_digits(x - y for x, y in zip(self.digits(a), self.digits(b)))

    def neg(self, a):
        if self.n == 1:
            return (-a) % self.p
        if self._add_tables is not None:
            return self._unpack_int(self._add_tables[1].item(a))
        return self.from_digits(-x for x in self.digits(a))

    def _unpack_int(self, s):
        """Code of the packed digit sum s, a Python int (see :func:`_addition_tables`)."""
        _, _, lo, hi, shift = self._add_tables
        return lo.item(s & ((1 << shift) - 1)) + hi.item(s >> shift)

    def mul(self, a, b):
        if self.n == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        if self._log is not None:
            return int(self._alog[self._log[a] + self._log[b]])
        return self._mul_poly(a, b)

    def _mul_poly(self, a, b):
        """a * b by sympy's Z_p polynomial arithmetic (high degree first there)."""
        from sympy import ZZ
        from sympy.polys.galoistools import gf_mul, gf_rem

        p = self.p
        prod = gf_mul(self.digits(a)[::-1], self.digits(b)[::-1], p, ZZ)
        return int(self.from_digits(gf_rem(prod, self.modulus[::-1], p, ZZ)[::-1]))

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in a finite field")
        return self.pow(a, -1)

    def pow(self, a, e):
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("negative power of 0")
            return 0
        e %= self.q - 1
        if self.n == 1:
            return pow(a, e, self.p)
        if self._log is not None:
            return int(self._alog[(self._log[a] * e) % (self.q - 1)])
        result, base = 1, a
        while e:
            if e & 1:
                result = self._mul_poly(result, base)
            base = self._mul_poly(base, base)
            e >>= 1
        return result

    # -- vector arithmetic (numpy int64 code arrays, broadcasting allowed) ---

    def add_vec(self, x, y):
        if self.n == 1:
            return (x + y) % self.p
        if self._add_tables is not None:
            pk = self._add_tables[0]
            return self._unpack(pk[x] + pk[y])
        out = 0
        for w in self._pw:
            out = out + ((x // w + y // w) % self.p) * w
        return out

    def sub_vec(self, x, y):
        if self.n == 1:
            return (x - y) % self.p
        if self._add_tables is not None:
            pk, pk_neg = self._add_tables[:2]
            return self._unpack(pk[x] + pk_neg[y])
        out = 0
        for w in self._pw:
            out = out + ((x // w - y // w) % self.p) * w
        return out

    def neg_vec(self, x):
        return self.sub_vec(0, x) if self.n > 1 else (-x) % self.p

    def _unpack(self, s):
        """Codes of the packed digit sums s, a numpy array (see :func:`_addition_tables`)."""
        _, _, lo, hi, shift = self._add_tables
        out = lo[s & ((1 << shift) - 1)]
        s >>= shift  # s is a fresh sum, so it is safe to overwrite
        out += hi[s]
        return out

    def mul_vec(self, x, y):
        if self.n == 1:
            return (x * y) % self.p
        x = np.asarray(x, dtype=np.int64)
        y = np.asarray(y, dtype=np.int64)
        out = self._alog[self._log[x] + self._log[y]]
        return np.where((x != 0) & (y != 0), out, 0)

    def pow_vec(self, x, e):
        x = np.asarray(x, dtype=np.int64)
        if e == 0:
            return np.ones_like(x)
        if e < 0:
            raise ValueError("negative exponents are scalar-only")
        if self.n == 1:
            result = np.ones_like(x)
            base = x % self.p
            k = e % (self.p - 1)
            while k:
                if k & 1:
                    result = (result * base) % self.p
                base = (base * base) % self.p
                k >>= 1
            return np.where(x % self.p == 0, 0, result)
        out = self._alog[(self._log[x] * (e % (self.q - 1))) % (self.q - 1)]
        return np.where(x != 0, out, 0)

    # -- quadratic character, square roots, C_ij ------------------------------

    def eta(self, x):
        if self.eta_table is not None:
            return int(self.eta_table[x])
        if x == 0:
            return 0
        r = self.pow(x, (self.q - 1) // 2)
        return 1 if r == 1 else -1

    def eta_vec(self, x):
        if self.eta_table is not None:
            return self.eta_table[x]
        r = self.pow_vec(np.asarray(x, dtype=np.int64), (self.q - 1) // 2)
        return np.where(r == 0, 0, np.where(r == 1, 1, -1)).astype(np.int8)

    def sqrt(self, x):
        """Canonical root x^((q+1)/4); None when x is a non-square."""
        if self.q % 4 != 3:
            raise UnsupportedFieldError("canonical sqrt needs q = 3 (mod 4)")
        if x == 0:
            return 0
        if self.eta(x) == -1:
            return None
        return self.pow(x, (self.q + 1) // 4)

    @property
    def sqrt_table(self):
        """Dense canonical-root table; -1 marks non-squares."""
        if self.q % 4 != 3:
            raise UnsupportedFieldError("canonical sqrt needs q = 3 (mod 4)")
        if self._sqrt_table is None:
            codes = self.elements()
            roots = self.pow_vec(codes, (self.q + 1) // 4)
            table = np.where(self.eta_vec(codes) >= 0, roots, -1)
            table[0] = 0
            self._sqrt_table = table
        return self._sqrt_table

    def cij_partition(self):
        if self.q % 4 != 3:
            raise UnsupportedFieldError("C_ij partition needs q = 3 (mod 4)")
        if self._cij is None:
            codes = self.elements()
            e0 = self.eta_vec(codes)
            e1 = self.eta_vec(self.add_vec(codes, 1))
            idx = (2 * (e0 < 0) + (e1 < 0)).astype(np.int8)
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
        pk_neg += (-d % p) * w

    def normalise(m, offset):
        s = np.arange(B**m, dtype=np.int64)
        out = np.zeros_like(s)
        for i in range(m):
            out += (s // B**i % B % p) * p ** (i + offset)
        return out

    return pk, pk_neg, normalise(h, 0), normalise(n - h, h), shift


def _smallest_generator(field):
    q = field.q
    cofactors = [(q - 1) // f for f in factorize(q - 1)]
    for g in range(2, q):
        if all(field.pow(g, c) != 1 for c in cofactors):
            return g
    raise FieldConstructionError("no generator found")  # unreachable for a true field


_ROWS = 1 << 16  # digit rows widened to int32 at a time in _powers


def _powers(field):
    """Codes of g^0 .. g^(q-2), g the generator, by matrix doubling.

    Multiplication by h is the n x n matrix over Z_p whose row i holds the
    digits of h * x^i; the rows follow from the companion matrix of the
    modulus.  When rows 0..m-1 of ``digits`` hold g^0 .. g^(m-1), those rows
    times the matrix of g^m are g^m .. g^(2m-1), so about log2(q) matmuls
    give every power.  Digits are stored as int8 when p < 128 (else int32)
    and widened to int32 _ROWS rows at a time for each product: as
    q <= TABLE_LIMIT, every dot product, at most n (p-1)^2, and every code
    stay below 2^24.  Checks that g^(q-1) = 1.
    """
    p, n, q = field.p, field.n, field.q
    companion = np.eye(n, k=1, dtype=np.int32)  # x * x^i = x^(i+1)
    companion[-1] = [-c % p for c in field.modulus[:n]]  # x^n = -sum(f_i x^i)
    step = np.empty((n, n), dtype=np.int32)  # the matrix of g^m, m = 1 first
    step[0] = field.digits(field.generator)
    for i in range(1, n):
        step[i] = step[i - 1] @ companion % p
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
        step = step @ step % p
        m += k
    if digits[q - 1].tolist() != digits[0].tolist():
        raise FieldConstructionError("generator order check failed")
    pw = np.array(field._pw, dtype=np.int32)
    codes = np.empty(q - 1, dtype=np.int64)
    for i in range(0, q - 1, _ROWS):
        codes[i : i + _ROWS] = times(digits[i : min(i + _ROWS, q - 1)], pw)
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
    # a p above CODE_LIMIT is left to the size check below
    if not isinstance(p, int) or p < 2 or (p <= CODE_LIMIT and factorize(p) != {p: 1}):
        raise NotPrimeError(f"p = {p} is not prime")
    if p == 2:
        raise EvenCharacteristicError("characteristic 2 is out of scope")
    if not isinstance(n, int) or n < 1:
        raise DegreeError(f"extension degree n = {n} must be a positive integer")
    q = p**n
    if q > CODE_LIMIT:
        raise FieldSizeError(f"q = {q} exceeds the element-code limit {CODE_LIMIT}")
    if n > 1 and q > TABLE_LIMIT:
        raise FieldSizeError(f"extension field q = {q} exceeds the table limit {TABLE_LIMIT}")

    if n == 1:
        if modulus is not None:
            raise FieldConstructionError("prime fields take no modulus")
        field = Field(p, 1, None, 0, None, None, None)
    else:
        if modulus is None:
            modulus = lex_min_irreducible(p, n)
        else:
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != n + 1 or modulus[-1] != 1:
                raise FieldConstructionError("modulus must be monic of degree n")
            if not is_irreducible_zp(modulus, p):
                raise FieldConstructionError("modulus is reducible over Z_p")
        field = Field(p, n, modulus, 0, None, None, None)

    field.generator = _smallest_generator(field)

    if n > 1:
        field._add_tables = _addition_tables(p, n)
        powers = _powers(field)
        field._alog = np.concatenate([powers, powers])
        field._log = np.zeros(q, dtype=np.int64)
        field._log[powers] = np.arange(q - 1, dtype=np.int64)

    if q <= TABLE_LIMIT:  # the squares are the even powers of g
        squares = field._alog[: q - 1 : 2] if n > 1 else np.arange(1, q, dtype=np.int64) ** 2 % p
        eta = np.full(q, -1, dtype=np.int8)
        eta[0] = 0
        eta[squares] = 1
        field.eta_table = eta

    return field


@lru_cache(maxsize=128)
def cached_field(p, n=1):
    """Memoised build_field for the default representation."""
    return build_field(p, n)
