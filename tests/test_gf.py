"""Field construction, arithmetic, quadratic character, C_ij machinery."""

import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhsbox import gf
from nhsbox.characters import poly_eval_vec, weil_sum_quadratic_closed
from nhsbox.gf import (
    TABLE_LIMIT,
    DegreeError,
    EvenCharacteristicError,
    Field,
    FieldConstructionError,
    FieldSizeError,
    NotPrimeError,
    UnsupportedFieldError,
    build_field,
    cached_field,
    factorize,
    is_irreducible_zp,
    lex_min_irreducible,
)
from nhsbox.nh_family import CaseAnalysis, NHParams, nh_table, uniformity_batch
from nhsbox.spectra import boomerang_case_counts_F21


def test_construction_errors_are_distinct():
    with pytest.raises(NotPrimeError):
        build_field(4, 2)
    with pytest.raises(NotPrimeError):
        build_field(15)
    with pytest.raises(EvenCharacteristicError):
        build_field(2, 3)
    with pytest.raises(DegreeError):
        build_field(7, 0)
    with pytest.raises(FieldSizeError):
        build_field(3, 64)


def test_build_field_reads_numpy_integers():
    # p and n are read as operator.index reads them, so a numpy integer builds
    # the field its Python int does; a float is still no prime and no degree
    for args in ((7,), (3, 3), (7, 1)):
        want, got = build_field(*args), build_field(*(np.int64(a) for a in args))
        assert (got.p, got.n, got.q) == (want.p, want.n, want.q)
        assert all(type(v) is int for v in (got.p, got.n, got.q))
        assert (got.modulus, got.generator) == (want.modulus, want.generator)
        assert np.array_equal(got.eta_table, want.eta_table)
    with pytest.raises(NotPrimeError, match=r"^p = 7\.0 is not prime$"):
        build_field(7.0)
    with pytest.raises(DegreeError, match=r"^extension degree n = 3\.0 must be"):
        build_field(3, 3.0)


def test_build_field_rejects_a_bad_modulus():
    with pytest.raises(FieldConstructionError, match="prime fields take no modulus"):
        build_field(7, modulus=(0, 1))
    for modulus in ((1, 2, 1), (1, 2, 0, 1, 1), (1, 2, 0, 2)):  # degree 2, degree 4, lead 2
        with pytest.raises(FieldConstructionError, match="monic of degree n"):
            build_field(3, 3, modulus=modulus)
    with pytest.raises(FieldConstructionError, match="reducible"):  # x^3 + 1 = (x + 1)^3
        build_field(3, 3, modulus=(1, 0, 0, 1))
    assert build_field(3, 3, modulus=(1, 2, 0, 4)).modulus == (1, 2, 0, 1)  # read mod p


def test_prime_field_has_no_modulus():
    f = build_field(7)
    assert (f.p, f.n, f.q) == (7, 1, 7)
    assert f.modulus is None


def test_f7_arithmetic_examples():
    f = build_field(7)
    assert f.mul(3, 5) == 1
    assert f.inv(3) == 5
    assert f.add(5, 4) == 2
    assert f.pow(3, 100) == f.pow(3, 100 % 6)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_f27_modulus_is_lex_min_cubic():
    f = build_field(3, 3)
    assert f.q == 27
    # independent oracle: first cubic (constant-coefficient-first order)
    # without a root in Z_3; for degree 3 rootlessness == irreducibility
    expected = None
    for c0 in range(3):
        for c1 in range(3):
            for c2 in range(3):
                if c0 == 0:
                    continue
                if all((x**3 + c2 * x**2 + c1 * x + c0) % 3 for x in range(3)):
                    expected = (c0, c1, c2, 1)
                    break
            if expected:
                break
        if expected:
            break
    assert f.modulus == expected
    assert f.pow(f.generator, 26) == 1
    assert f.pow(f.generator, 13) != 1


def test_irreducibility_test_against_root_search():
    # degrees 2 and 3 where rootlessness is the whole story
    for p in (3, 5, 7):
        for deg in (2, 3):
            for code in range(p**deg):
                cs = tuple((code // p**k) % p for k in range(deg)) + (1,)
                has_root = any(
                    sum(c * x**i for i, c in enumerate(cs)) % p == 0 for x in range(p)
                )
                assert is_irreducible_zp(cs, p) == (not has_root)


def test_irreducibility_matches_sympy_on_every_small_monic():
    from itertools import product

    from sympy import ZZ
    from sympy.polys.galoistools import gf_irreducible_p

    checked = 0
    for p, degrees in ((3, range(2, 7)), (5, range(2, 5)), (7, range(2, 5)), (11, range(2, 4))):
        for n in degrees:
            for cs in product(range(p), repeat=n):
                f = cs + (1,)
                assert is_irreducible_zp(f, p) == gf_irreducible_p(list(f[::-1]), p, ZZ), (p, f)
                checked += 1
    assert checked == 6109


def test_lex_min_is_first_in_low_degree_first_order():
    from itertools import product

    for p, n in ((5, 2), (3, 3), (7, 2)):
        mod = lex_min_irreducible(p, n)
        for cs in product(range(p), repeat=n):
            if cs + (1,) == mod:
                break
            # everything strictly earlier in (c0, c1, ...) order is reducible
            assert cs[0] == 0 or not is_irreducible_zp(cs + (1,), p)
        else:
            pytest.fail("modulus not found in enumeration")


def test_eta_examples():
    f = build_field(7)
    assert f.eta(2) == 1  # 2^3 = 8 = 1 (mod 7)
    assert f.eta(3) == -1  # 3^3 = 27 = -1 (mod 7)
    assert f.eta(0) == 0
    for q_args in ((7, 1), (11, 1), (19, 1), (3, 3), (23, 1)):
        f = build_field(*q_args)
        assert f.eta(f.neg(1)) == -1  # q = 3 (mod 4)


def test_eta_multiplicative_and_sums_to_zero():
    for args in ((7, 1), (11, 1), (3, 3), (5, 2), (13, 1)):
        f = build_field(*args)
        eta = f.eta_vec(f.elements()).astype(int)
        assert eta.sum() == 0
        for x in range(f.q):
            for y in range(0, f.q, 3):
                assert f.eta(f.mul(x, y)) == f.eta(x) * f.eta(y)


def test_sqrt_examples_and_properties():
    f = build_field(7)
    assert f.sqrt(2) == 4 and f.mul(4, 4) == 2
    assert f.sqrt(0) == 0
    assert f.sqrt(3) is None
    for args in ((7, 1), (11, 1), (3, 3), (19, 1)):
        f = build_field(*args)
        for x in range(1, f.q):
            r = f.sqrt(x)
            if f.eta(x) == 1:
                assert r is not None and f.mul(r, r) == x
                assert f.eta(r) * f.eta(f.neg(r)) == -1
                assert f.eta(r) == 1  # the canonical root is the square one
            else:
                assert r is None


def test_sqrt_rejects_q_1_mod_4():
    f = build_field(13)
    with pytest.raises(UnsupportedFieldError):
        f.sqrt(3)
    with pytest.raises(UnsupportedFieldError):
        f.cij_partition()


def _root_oracle(f):
    """(x^((q+1)/4), eta(x)) of one code by arithmetic outside Field's tables
    and vector ops: Python pow and Euler's criterion mod p in a prime field,
    the schoolbook _TableFree in an extension field, with (mul, neg) for s^2."""
    q, k = f.q, (f.q + 1) // 4
    if f.n == 1:
        euler = {0: 0, 1: 1, q - 1: -1}
        return (lambda x: (pow(x, k, q), euler[pow(x, (q - 1) // 2, q)]),
                lambda a, b: a * b % q, lambda a: -a % q)
    ref = _reference(f)
    return lambda x: (ref.pow(x, k), ref.eta(x)), ref.mul, ref.neg


@pytest.mark.parametrize(
    "args", [(7, 1), (19, 1), (3, 3), (7, 3), (3, 5), (4194319, 1), (2147483647, 1)],
    ids=["F7", "F19", "F27", "F343", "F243", "F4194319", "F2147483647"],
)
def test_sqrt_vec_squares_to_eta_times_x(args):
    # s = x^((q+1)/4) has s^2 = eta(x) x for every code: the root of x on the
    # squares, of -x on the non-squares; fields past TABLE_LIMIT (no eta
    # table) take pow_vec, on sampled codes
    f = build_field(*args) if args[0] < TABLE_LIMIT else cached_field(*args)
    q = f.q
    if q < TABLE_LIMIT:
        xs = f.elements()
    else:
        xs = np.unique(np.r_[0, 1, 2, q - 1, np.random.default_rng(q).integers(0, q, 300)])
    root_eta, mul, neg = _root_oracle(f)
    got = f.sqrt_vec(xs)
    for x, s in zip(xs.tolist(), got.tolist()):
        want, eta = root_eta(x)
        assert s == want and mul(s, s) == (neg(x) if eta < 0 else x), (q, x)
        assert f.sqrt(x) == (None if eta < 0 else s), (q, x)
    if args in ((19, 1), (7, 3)):  # the table path against the pow path
        with mock.patch.object(f, "eta_table", None):
            assert np.array_equal(f.sqrt_vec(xs), got)
        assert f._sqrt_table is not None


def test_scalar_sqrt_builds_no_table_at_a_large_prime():
    # one root is one pow: Field.sqrt leaves the q-sized sqrt_table unbuilt
    # even where eta has a table
    f = cached_field(4194247)
    q = f.q
    no_table = property(lambda self: pytest.fail("the q-sized sqrt table was built"))
    with mock.patch.object(type(f), "sqrt_table", no_table):
        roots = {x: f.sqrt(x) for x in (0, 1, 2, 3, 12345, q - 2, q - 1)}
    assert f.eta_table is not None
    for x, root in roots.items():
        if pow(x, (q - 1) // 2, q) == q - 1:
            assert root is None, x
        else:
            assert root == pow(x, (q + 1) // 4, q) and root * root % q == x, x
    assert roots[q - 1] is None  # -1 is a non-square at q = 3 (mod 4)


def test_cij_f7_exact_sets():
    f = build_field(7)
    part = f.cij_partition()
    assert part.counts == {"00": 1, "01": 2, "10": 1, "11": 1}
    members = [np.nonzero(part.classes == k)[0].tolist() for k in range(4)]
    assert members == [[1], [2, 4], [3], [5]]  # C_00, C_01, C_10, C_11
    assert part.classes[0] == part.classes[6] == -1


def test_cij_counts_match_closed_forms():
    for args in ((11, 1), (19, 1), (3, 3), (23, 1), (31, 1), (7, 3)):
        f = build_field(*args)
        q = f.q
        part = f.cij_partition()
        assert part.counts["00"] == part.counts["10"] == part.counts["11"] == (q - 3) // 4
        assert part.counts["01"] == (q + 1) // 4
        assert sum(part.counts.values()) == q - 2


def _cij_by_add_vec(f):
    """Reference classes: (eta(x), eta(x + 1)), with x + 1 through add_vec."""
    codes = f.elements()
    e0, e1 = f.eta_vec(codes), f.eta_vec(f.add_vec(codes, 1))
    want = 2 * (e0 < 0) + (e1 < 0)
    want[(e0 == 0) | (e1 == 0)] = -1
    return want


@pytest.mark.parametrize(
    "p, n, table",
    [(7, 1, True), (19, 1, True), (499, 1, True), (3, 3, True), (7, 3, True),
     (3, 5, True), (43, 3, True), (499, 1, False)],
)
def test_cij_rotation_matches_add_vec(p, n, table):
    f = build_field(p, n)
    want = _cij_by_add_vec(f)
    with mock.patch.object(f, "eta_table", f.eta_table if table else None):
        part = f.cij_partition()
    assert part.classes.dtype == np.int8
    assert np.array_equal(part.classes, want)
    assert part.counts == {
        label: int(np.count_nonzero(want == k)) for k, label in enumerate(part.CLASS_LABELS)
    }


def test_cij_partition_memory_bound():
    # the rotation holds q-long int8 arrays next to the q codes; x + 1
    # through add_vec over every code peaked at 2.50 MiB
    f = build_field(43, 3)
    tracemalloc.start()
    try:
        f.cij_partition()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20, peak / 2**20


def test_sqrt_pair_lemma_small_fields():
    # eta(a + sqrt(u)) = eta(a - sqrt(u)) = eta(2) * eta(a + sqrt(u'))
    # whenever u, u' are nonzero squares with u + u' = a^2
    for args in ((7, 1), (11, 1), (19, 1), (3, 3), (43, 1)):
        f = build_field(*args)
        eta2 = f.eta(2 % f.p)
        for a in range(f.q):
            a2 = f.mul(a, a)
            for u in range(1, f.q):
                if f.eta(u) != 1:
                    continue
                up = f.sub(a2, u)
                if up == 0 or f.eta(up) != 1:
                    continue
                r, rp = f.sqrt(u), f.sqrt(up)
                e = f.eta(f.add(a, r))
                assert e == f.eta(f.sub(a, r))
                assert e == eta2 * f.eta(f.add(a, rp))


def test_vector_ops_match_scalar():
    # 4194319 is the first prime above TABLE_LIMIT: eta without a table
    for args in ((11, 1), (13, 1), (3, 3), (5, 2), (7, 2), (4194319, 1)):
        f = build_field(*args)
        xs = np.unique(np.array([0, 1, 2, f.q // 2, f.q - 2, f.q - 1], dtype=np.int64))
        ys = (xs * 7 + 3) % f.q
        inv = f.pow_vec(xs, f.q - 2)  # x^(q-2) = 1/x for x != 0
        vec = {
            "add": f.add_vec(xs, ys), "sub": f.sub_vec(xs, ys), "neg": f.neg_vec(xs),
            "mul": f.mul_vec(xs, ys), "pow5": f.pow_vec(xs, 5), "inv": inv,
            "pow_neg2": f.mul_vec(inv, inv), "eta": f.eta_vec(xs),
        }
        for i, (x, y) in enumerate(zip(xs.tolist(), ys.tolist())):
            scalar = {
                "add": f.add(x, y), "sub": f.sub(x, y), "neg": f.neg(x), "mul": f.mul(x, y),
                "pow5": f.pow(x, 5), "eta": f.eta(x),
            }
            if x:
                scalar.update(inv=f.inv(x), pow_neg2=f.pow(x, -2))
            for name, got in scalar.items():
                assert type(got) is int and got == vec[name][i], (args, name, x, y)
        assert f.eta(f.q - 1) == (-1 if f.q % 4 == 3 else 1)


@pytest.mark.parametrize("p", [3, 7, 4099, 2147483647])  # 2^31 - 1 = CODE_LIMIT - 1
@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_prime_field_vector_ops_match_python_mod(p, dtype):
    f = build_field(p)
    rng = np.random.default_rng([p, np.dtype(dtype).itemsize])
    edge = [0, p - 1, 0, p - 1]  # with 0, 0, p - 1, p - 1 below: every edge pair
    xs = np.array(edge + rng.integers(0, p, size=500).tolist(), dtype=dtype)
    ys = np.array([0, 0, p - 1, p - 1] + rng.integers(0, p, size=500).tolist(), dtype=dtype)
    x, y = xs.tolist(), ys.tolist()
    ops = {
        "add_vec": lambda a, b: (a + b) % p,
        "sub_vec": lambda a, b: (a - b) % p,
        "mul_vec": lambda a, b: a * b % p,
    }
    for name, want in ops.items():
        op = getattr(f, name)
        assert op(xs, ys).tolist() == [want(a, b) for a, b in zip(x, y)], name
        for k in (0, 1, p - 1, int(rng.integers(0, p))):  # scalar-with-array broadcasting
            for scalar in (k, np.int64(k), dtype(k)):
                assert op(xs, scalar).tolist() == [want(a, k) for a in x], (name, k)
                assert op(scalar, xs).tolist() == [want(k, a) for a in x], (name, k)
        assert {op(p - 1, p - 1)} == {want(p - 1, p - 1)}, name  # two scalars: a hashable scalar
        grid = op(xs[:20, None], ys[None, :30])
        assert grid.shape == (20, 30)
        assert grid.tolist() == [[want(a, b) for b in y[:30]] for a in x[:20]], name
    assert f.neg_vec(xs).tolist() == [-a % p for a in x]
    for e in (0, 1, 2, 3, (p - 1) // 2, p - 1, p, int(rng.integers(p, 1 << 40))):
        assert f.pow_vec(xs, e).tolist() == [pow(a, e, p) for a in x], e


class _TableFree(Field):
    """An extension field without tables: digit-loop addition and schoolbook
    polynomial products reduced modulo f.modulus, sharing no code with
    _powers, _mul_matrix or _addition_tables."""

    @property
    def _pw(self):
        return tuple(self.p**k for k in range(self.n))

    def digits(self, x):
        return tuple((x // w) % self.p for w in self._pw)

    def _code(self, ds):
        return sum((d % self.p) * w for d, w in zip(ds, self._pw))

    def add(self, a, b):
        return self._code(x + y for x, y in zip(self.digits(a), self.digits(b)))

    def sub(self, a, b):
        return self._code(x - y for x, y in zip(self.digits(a), self.digits(b)))

    def neg(self, a):
        return self._code(-x for x in self.digits(a))

    def add_vec(self, x, y):
        return sum(((x // w + y // w) % self.p) * w for w in self._pw)

    def sub_vec(self, x, y):
        return sum(((x // w - y // w) % self.p) * w for w in self._pw)

    def mul(self, a, b):
        n, f = self.n, self.modulus
        prod = [0] * (2 * n - 1)
        for i, x in enumerate(self.digits(a)):
            for j, y in enumerate(self.digits(b)):
                prod[i + j] += x * y
        for k in range(2 * n - 2, n - 1, -1):  # x^k = -x^(k-n) * sum(f_i x^i), i < n
            c, prod[k] = prod[k], 0
            for i in range(n):
                prod[k - n + i] -= c * f[i]
        return self._code(prod[:n])

    def pow(self, a, e):
        result, e = 1, e % (self.q - 1)
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result

    def eta(self, x):  # Euler's criterion on the schoolbook pow
        return 0 if x == 0 else 1 if self.pow(x, (self.q - 1) // 2) == 1 else -1


def _reference(f):
    """f without tables (see _TableFree)."""
    return _TableFree(f.p, f.n, f.modulus, f.generator, None, None, None, None)


def _assert_addition_matches_digit_loop(f, xs, ys, scalar_pairs):
    ref = _reference(f)
    assert f._add_tables is not None and ref._add_tables is None
    for op in ("add_vec", "sub_vec"):
        got, want = getattr(f, op)(xs, ys), getattr(ref, op)(xs, ys)
        assert got.shape == want.shape and np.array_equal(got, want), op
    assert np.array_equal(f.neg_vec(xs), ref.neg_vec(xs))
    for a, b in scalar_pairs:
        for op in ("add", "sub"):
            got = getattr(f, op)(a, b)
            assert type(got) is int and got == getattr(ref, op)(a, b), (op, a, b)
        assert f.neg(a) == ref.neg(a)


def test_packed_addition_matches_digit_loop_full_grid():
    for p, n in ((3, 2), (5, 2), (3, 3), (7, 2), (7, 3)):
        f = build_field(p, n)
        codes = f.elements()
        pairs = [(a, b) for a in range(f.q) for b in range(f.q)] if f.q < 50 else (
            [(a, b) for a in range(0, f.q, 7) for b in range(0, f.q, 11)]
        )
        # column x row broadcasting gives the whole q x q grid
        _assert_addition_matches_digit_loop(f, codes[:, None], codes[None, :], pairs)


def test_packed_addition_matches_digit_loop_random_pairs():
    rng = np.random.default_rng(20240)
    for p, n in ((3, 7), (11, 3)):
        f = build_field(p, n)
        xs = rng.integers(0, f.q, size=50_000)
        ys = rng.integers(0, f.q, size=50_000)
        pairs = list(zip(xs[:500].tolist(), ys[:500].tolist()))
        _assert_addition_matches_digit_loop(f, xs, ys, pairs)


def test_packed_addition_scalar_operands_and_modulus():
    f = build_field(3, 3, modulus=(2, 2, 0, 1))  # not the lex-min (1, 0, 2, 1)
    assert f.modulus != build_field(3, 3).modulus
    xs = f.elements()
    for k in (0, 1, 13, f.q - 1):
        for y in (k, np.int64(k)):
            _assert_addition_matches_digit_loop(f, xs, y, [(int(x), y) for x in xs])
            _assert_addition_matches_digit_loop(f, y, xs, [(y, int(x)) for x in xs])
    ref = _reference(f)
    assert f.add_vec(5, np.int64(22)) == ref.add_vec(5, 22)
    assert f.sub_vec(np.int64(5), 22) == ref.sub_vec(5, 22)


@pytest.mark.parametrize(
    "args",
    [(7, 1), (31, 1), (1999, 1), (1000003, 1),
     (3, 2), (7, 2), (3, 3), (5, 3), (3, 4), (3, 5), (3, 7)],
)
def test_difference_rows_match_scalar_oracle(args, monkeypatch):
    # values[x + a] - values[x] against the scalar ops, x by x.  The values
    # hold 0 and q - 1, so differences wrap both ways; an extension field's
    # a also hold a multiple of p^h (zero low digit block) and a code below
    # p^h (zero high block), h = ceil(n/2), the split of _addition_tables
    f = cached_field(*args)
    q, m = f.q, f.p ** ((f.n + 1) // 2)
    rng = np.random.default_rng(q)
    values = rng.integers(0, q, size=q)
    planted = rng.choice(q, size=2, replace=False)
    values[planted] = [0, q - 1]
    a = [1, q - 1, *rng.integers(2, q - 1, size=2).tolist()]
    if f.n > 1:
        a += [m * int(rng.integers(1, q // m)), int(rng.integers(2, m))]
    v = values.tolist()
    # blocks of 3 rows leave a shorter last block; each block is checked
    # before the walk writes the next one over it
    monkeypatch.setattr(gf, "_WALK_ROWS", 3)
    blocks = f.difference_rows(values, np.array(a))
    for lo, rows in zip(range(0, len(a), 3), blocks):
        assert rows.shape == (min(3, len(a) - lo), q)
        for k, row in zip(a[lo:], rows.tolist()):
            if q < 10**4:
                xs = range(q)
            else:  # the planted codes on either side of the difference, and the wrap
                xs = {0, q - 1, q - k, *planted.tolist(), *((planted - k) % q).tolist(),
                      *rng.integers(0, q, size=500).tolist()}
            for x in xs:
                assert row[x] == f.sub(v[f.add(x, k)], v[x]), (k, x)
    assert next(blocks, None) is None


def _oracle_tables(f):
    """A random table with 0 and q - 1 planted, and two F_{2,u} tables."""
    q = f.q
    rng = np.random.default_rng(q)
    values = rng.integers(0, q, size=q)
    values[rng.choice(q, size=2, replace=False)] = [0, q - 1]
    return [values, nh_table(f, NHParams(2, 5)), nh_table(f, NHParams(2, f.neg(1)))]


@pytest.mark.parametrize("args", [(3, 3), (3, 5), (7, 3), (11, 3), (3, 7), (31, 1), (1999, 1)])
def test_difference_rows_blocked_walk_matches_vector_oracle(args, monkeypatch):
    # every a, in blocks of 1, of 16 and of 10 (which leaves a shorter last
    # block at each of these q), against rows built from add_vec/sub_vec alone;
    # each block is checked before the next is drawn, as the walk writes every
    # block into the buffers of the first
    f = cached_field(*args)
    q, xs = f.q, f.elements()
    every_a = np.arange(q)
    for values in _oracle_tables(f):
        for block in (1, 16, 10):
            monkeypatch.setattr(gf, "_WALK_ROWS", block)
            walk = f.difference_rows(values, every_a)
            first = None
            for lo in range(0, q, block):
                rows = next(walk)
                ks = every_a[lo : lo + block, None]
                assert rows.shape == ks.shape[:1] + (q,)
                assert np.array_equal(rows, f.sub_vec(values[f.add_vec(xs, ks)], values)), (
                    block, lo)
                first = rows if first is None else first
                assert np.shares_memory(rows, first)
            assert next(walk, None) is None


def test_difference_rows_checks_its_inputs():
    f7, f27 = cached_field(7), cached_field(3, 3)
    for f, a in ((f7, 7), (f7, -1), (f27, -1), (f27, 27)):
        with pytest.raises(ValueError, match="a = "):
            f.difference_rows(f.elements(), [a])  # raised before the walk starts
    with pytest.raises(ValueError, match="values = 8"):
        f7.difference_rows(np.array([0, 1, 2, 3, 4, 5, 8]), [1])
    for bad in (dict(values=np.arange(6)), dict(a=[[1]])):
        args = dict(values=f7.elements(), a=[1]) | bad
        with pytest.raises(ValueError):
            f7.difference_rows(**args)
    # any 1-D integer array-like for a, in either kind of field
    for f in (f7, f27):
        values = np.roll(f.elements(), 3)
        listed = next(f.difference_rows(values, [1, 2]))
        assert np.array_equal(listed, next(f.difference_rows(values, np.array([1, 2]))))
        assert np.array_equal(listed[0], f.sub_vec(values[f.add_vec(f.elements(), 1)], values))


def test_packed_addition_rejects_codes_out_of_range():
    f = build_field(3, 7)
    q = f.q
    ok = np.array([0])
    for bad in (np.array([0, q]), np.array([q + 7])):
        for call in (lambda: f.add_vec(ok, bad), lambda: f.add_vec(bad, 1),
                     lambda: f.sub_vec(bad, ok), lambda: f.sub_vec(1, bad),
                     lambda: f.neg_vec(bad)):
            with pytest.raises(IndexError):
                call()


def test_scalar_addition_rejects_codes_outside_the_field():
    # a negative code must not alias to q + x, nor q escape as an IndexError
    for args in ((3, 7), (11, 3)):
        f = build_field(*args)
        for bad in (-1, f.q, -f.q):
            for call in (lambda: f.add(bad, 0), lambda: f.add(0, bad), lambda: f.sub(bad, 1),
                         lambda: f.sub(1, bad), lambda: f.neg(bad), lambda: f.mul(bad, 2),
                         lambda: f.mul(2, bad), lambda: f.mul(bad, 0), lambda: f.pow(bad, 2),
                         lambda: f.inv(bad), lambda: f.eta(bad)):
                with pytest.raises(ValueError, match="not an element code"):
                    call()
        assert f.add(f.q - 1, 1) == f.sub(f.q - 1, f.neg(1)) and f.neg(0) == 0
        assert f.mul(f.inv(f.q - 1), f.q - 1) == 1 and f.pow(f.q - 1, f.q - 1) == 1
    # prime-field scalars still reduce any integer
    f = build_field(13)
    assert f.mul(-1, 2) == f.mul(12, 2) and f.inv(-1) == 12 and f.pow(-1, 3) == 12
    for call in (lambda: f.inv(13), lambda: f.inv(26), lambda: f.pow(13, -1)):
        with pytest.raises(ZeroDivisionError):  # 13 and 26 are 0 in F_13
            call()
    assert f.eta(13) == 0 and f.eta(-1) == f.eta(12)


_NON_INTEGER_CALLS = {
    "check_code": (lambda f: f.check_code(np.array([1.0, 2.0]), "xs"), "xs"),
    "check_code bool": (lambda f: f.check_code(True), "x"),
    "add": (lambda f: f.add(2.5, 1), "a"),
    "add bool": (lambda f: f.add(True, 1), "a"),
    "mul": (lambda f: f.mul(1, np.float64(2)), "b"),
    "pow": (lambda f: f.pow(1.5, 2), "a"),
    "eta": (lambda f: f.eta(3.9), "x"),
    "sqrt": (lambda f: f.sqrt(2.5), "x"),
    "uniformity_batch": (lambda f: uniformity_batch(f, 2, [2.5]), "u"),
    "nh_table": (lambda f: nh_table(f, NHParams(2, 2.5)), "u"),
    "CaseAnalysis": (lambda f: CaseAnalysis(f, np.array([3.9])), "u"),
    "CaseAnalysis.counts_at": (lambda f: CaseAnalysis(f, 5).counts_at(np.array([[1.0]])), "b"),
    "boomerang_case_counts_F21": (lambda f: boomerang_case_counts_F21(f, [1, 2.5]), "b"),
    "poly_eval_vec xs": (lambda f: poly_eval_vec(f, [1, 1], np.array([0.5])), "xs"),
    "poly_eval_vec coeffs": (lambda f: poly_eval_vec(f, [1, 2.5], f.elements()), "coeffs"),
    "weil_sum_quadratic_closed": (lambda f: weil_sum_quadratic_closed(f, 1, 2.5, 0), "a1"),
    # exponents: pow(2, 1.5) raised TypeError at F_11 and IndexError at F_27,
    # pow(2, True) and r = True were read as 1, r = 1.5 failed inside pow_vec
    "pow e": (lambda f: f.pow(2, 1.5), "e"),
    "pow e bool": (lambda f: f.pow(2, True), "e"),
    "pow_vec e": (lambda f: f.pow_vec(f.elements(), 2.0), "e"),
    "NHParams r": (lambda f: NHParams(1.5, 5), "r"),
    "NHParams r bool": (lambda f: NHParams(True, 5), "r"),
    "uniformity_batch r": (lambda f: uniformity_batch(f, 2.0, [3]), "r"),
    "uniformity_batch r bool": (lambda f: uniformity_batch(f, True, [3]), "r"),
}


@pytest.mark.parametrize("args", [(11, 1), (3, 3)], ids=["F11", "F27"])
@pytest.mark.parametrize("entry", list(_NON_INTEGER_CALLS))
def test_non_integer_codes_are_rejected(args, entry):
    # a cast to int64 would drop the fraction (2.5 read as u = 2), and a prime
    # field's reduction would read a float's bits: every entry point refuses
    # it and names the argument
    call, name = _NON_INTEGER_CALLS[entry]
    with pytest.raises(ValueError, match=rf"^{name} .*integer"):
        call(cached_field(*args))


@pytest.mark.parametrize("args", [(23, 1), (3, 3)], ids=["F23", "F27"])
@pytest.mark.parametrize("big", [2**70, -(2**70), 2**63])
def test_python_ints_past_int64_are_out_of_range(args, big):
    # numpy holds such an int only as dtype object; it is still an integer,
    # so the error is the range one, not a dtype one
    f = cached_field(*args)
    calls = (
        ("x", lambda: f.check_code(big)),
        ("xs", lambda: f.check_code([1, big], "xs")),
        ("u", lambda: uniformity_batch(f, 2, [big])),
        ("u", lambda: CaseAnalysis(f, big)),
    )
    for name, call in calls:
        with pytest.raises(ValueError, match=rf"^{name} = {big} is out of range"):
            call()


def test_representation_independence_cij():
    base = build_field(3, 3)
    other = None
    for code in range(27, 0, -1):
        cs = tuple((code // 3**k) % 3 for k in range(3)) + (1,)
        if cs != base.modulus and cs[0] != 0 and is_irreducible_zp(cs, 3):
            other = build_field(3, 3, modulus=cs)
            break
    assert other is not None and other.modulus != base.modulus
    assert other.cij_partition().counts == base.cij_partition().counts


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6))
def test_field_axioms_f343(a, b, c):
    f = cached_field(7, 3)
    a, b, c = a % f.q, b % f.q, c % f.q
    assert f.add(a, b) == f.add(b, a)
    assert f.mul(a, b) == f.mul(b, a)
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.mul(f.add(a, f.neg(a)), b) == 0
    if a:
        assert f.mul(a, f.inv(a)) == 1
        assert f.pow(a, f.q - 1) == 1


def test_negative_exponents():
    f7 = build_field(7)
    assert f7.pow(3, -1) == f7.inv(3)
    assert f7.pow(3, -2) == f7.inv(f7.mul(3, 3))
    f27 = build_field(3, 3)
    x = 5
    assert f27.mul(f27.pow(x, -2), f27.pow(x, 2)) == 1
    with pytest.raises(ZeroDivisionError):
        f7.pow(0, -1)
    for f in (f7, f27):  # the vector op takes no negative exponent
        with pytest.raises(ValueError, match="scalar-only"):
            f.pow_vec(np.arange(1, 5), -1)


def test_field_repr():
    assert repr(build_field(7)) == "Field(p=7)"
    assert repr(build_field(3, 3)) == "Field(p=3, n=3, modulus=(1, 0, 2, 1))"


def test_generator_has_full_order():
    for args in ((7, 1), (11, 1), (3, 3), (5, 2)):
        f = build_field(*args)
        seen = set()
        x = 1
        for _ in range(f.q - 1):
            seen.add(x)
            x = f.mul(x, f.generator)
        assert len(seen) == f.q - 1


def test_tables_match_scalar_fallback():
    """The matrix-doubling log/antilog and eta tables and the generator search
    against the table-free reference, whose powers and products come from
    schoolbook polynomial products."""
    for p, n in ((3, 3), (7, 2), (7, 3), (3, 7), (11, 3)):
        f = build_field(p, n)
        ref = _reference(f)
        assert ref._log is None and f._log is not None
        q, g = f.q, f.generator
        cofactors = [(q - 1) // r for r in factorize(q - 1)]
        assert g == next(h for h in range(2, q) if all(ref.pow(h, c) != 1 for c in cofactors))
        squares = {ref.mul(x, x) for x in range(1, q)}
        assert f.eta_table.tolist() == [0] + [1 if x in squares else -1 for x in range(1, q)]
        assert f._alog.shape == (2 * (q - 1),)
        powers = [1]
        for _ in range(q - 2):
            powers.append(ref.mul(powers[-1], g))
        assert [int(v) for v in f._alog[: q - 1]] == powers
        assert np.array_equal(f._alog[q - 1 :], f._alog[: q - 1])
        assert np.array_equal(f._log[f._alog[: q - 1]], np.arange(q - 1))
        assert f._log[0] == 0
        if q < 60:
            grid = [(a, b) for a in range(q) for b in range(q)]
            want = [ref.mul(a, b) for a, b in grid]
            codes = f.elements()
            assert [f.mul(a, b) for a, b in grid] == want
            assert f.mul_vec(codes[:, None], codes[None, :]).ravel().tolist() == want


def test_lex_min_moduli_are_frozen():
    # every table, report and C_ij class is stated in these representations
    assert lex_min_irreducible(3, 7) == (1, 0, 0, 0, 0, 1, 2, 1)
    assert lex_min_irreducible(11, 3) == (1, 0, 4, 1)
    assert lex_min_irreducible(43, 3) == (1, 0, 9, 1)
    assert lex_min_irreducible(19, 4) == (1, 0, 0, 6, 1)
    assert lex_min_irreducible(7, 5) == (1, 0, 0, 0, 3, 1)


def test_irreducibility_input_checks():
    for bad in ((1,), (2,), (1, 2, 2), (0, 1, 0)):
        with pytest.raises(ValueError):
            is_irreducible_zp(bad, 3)
    assert is_irreducible_zp((2, 1), 3)
    assert is_irreducible_zp((4, 0, 1), 3)  # x^2 + 1, coefficients reduced mod p
    assert not is_irreducible_zp((0, 1, 1), 3)


def _table_digest(f):
    """sha256 over the modulus, the generator and every table of f."""
    h = hashlib.sha256(repr((f.modulus, f.generator)).encode())
    arrays = [f._log, f._alog, f.eta_table]
    if f._add_tables is not None:
        *arrays_add, shift = f._add_tables
        arrays += arrays_add
        h.update(repr(shift).encode())
    for a in arrays:
        h.update(b"none" if a is None else np.ascontiguousarray(a, dtype="<i8").tobytes())
    return h.hexdigest()


def test_tables_are_frozen():
    # digests of the tables as first frozen; any change to the modulus,
    # generator, log/antilog, eta or packed-addition tables shows here
    frozen = {
        (3, 7): "be71c2534e6dbae0b2e1ba7b621a7623cb386e1d4572f54d2f052ee6abfb293d",
        (11, 3): "d4d5ddd06cdcb0308a40b100dc9fd63b640cd1cb61bed7a0b4fc1d361fc9e2d3",
        (43, 3): "25ec35e87f9b2401fc805f870bd6b211941f44e1cd549f4fe701a362a4a566ab",
        (19, 4): "6a372458925e89dc7415d8f669ffe8d42d73f8a4665873412242d35b26666f80",
        (7, 5): "7670392ffad7559a6d38d1b25d3c866faafd884e589f413bbcf48459379b1555",
        (104729, 1): "d85de66cab9e616675701c6bdd5e1d565409a047644569396f9dc8e6feded61d",
    }
    assert {args: _table_digest(build_field(*args)) for args in frozen} == frozen


def test_largest_extension_fields_are_table_backed():
    f = build_field(3, 13)  # 1 594 323 <= TABLE_LIMIT < 3^14
    q = f.q
    assert q <= TABLE_LIMIT < 3 * q
    assert all(t is not None for t in (f._log, f._alog, f._add_tables, f.eta_table))
    assert f.cij_partition().counts == {
        "00": (q - 3) // 4, "01": (q + 1) // 4, "10": (q - 3) // 4, "11": (q - 3) // 4
    }
    ref = _reference(f)
    for x in np.random.default_rng(313).integers(0, q, size=200).tolist():
        assert f.eta_table[x] == ref.eta(x), x
    with pytest.raises(FieldSizeError, match="table limit"):
        build_field(3, 15)
    big = build_field(4194319)  # the first prime above the limit: no tables, scalar eta
    assert big.eta_table is None and big._log is None and big.eta(big.q - 1) == -1


def test_powers_memory_bound_at_3_13():
    # int8 digit rows, widened to int32 in row blocks; a whole int32 digit
    # matrix with full-height matmul temporaries peaks at about 158 MB
    tracemalloc.start()
    try:
        f = build_field(3, 13)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f.pow(f.generator, f.q - 1) == 1
    assert peak <= 110 * 2**20, peak / 2**20


def test_build_field_constructs_each_field_once(monkeypatch):
    # every table is computed before the one Field(...) call; only the lazy
    # sqrt table and C_ij partition are filled in afterwards
    from nhsbox import gf

    made = []

    class Sealed(gf.Field):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

        def __setattr__(self, name, value):
            if any(f is self for f in made) and name not in ("_sqrt_table", "_cij"):
                raise AssertionError(f"{name} assigned after construction")
            super().__setattr__(name, value)

    monkeypatch.setattr(gf, "Field", Sealed)
    for args in ((7, 1), (3, 3), (11, 2), (104729, 1)):
        f = gf.build_field(*args)
        if f.q % 4 == 3:
            f.sqrt_table, f.cij_partition()
    assert len(made) == 4


def test_cached_field_keeps_one_field_per_normalised_p_n(monkeypatch):
    from nhsbox import gf

    cached_field(3)  # a known state: one cached field, F_3
    built = []
    real = gf.build_field
    monkeypatch.setattr(gf, "build_field", lambda *args: built.append(args) or real(*args))
    f = cached_field(13)
    assert cached_field(13) is f and cached_field(13, 1) is f and cached_field(p=13, n=1) is f
    g = cached_field(3, 3)
    assert cached_field(3, 3) is g
    assert cached_field(13) is not f  # F_27 took the one slot
    # the module-level build_field is called, so a tracer that wraps it sees every build
    assert built == [(13, 1), (3, 3), (13, 1)]


def test_factorize_matches_sympy():
    from sympy import factorint

    for m in list(range(1, 10**4 + 1)) + [2**31 - 1, 2**31 - 2, 2**22 - 1]:
        assert factorize(m) == factorint(m), m
    with pytest.raises(ValueError):
        factorize(0)


def test_runtime_does_not_load_sympy_or_mpmath():
    # numpy is the only runtime dependency: prime and extension fields, a
    # prime-field claim check and the bound constants load neither module
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "import nhsbox\n"
        "from nhsbox import build_field, verify_claim\n"
        "build_field(4211)\n"
        "verify_claim('THM2_DELTA5', 4211, 1, u_mode='fixed:999')\n"
        "build_field(3, 7)\n"
        "build_field(11, 3)\n"
        "from nhsbox.characters import theorem2_constants\n"
        "assert theorem2_constants() == (-98312, -325643353)\n"
        "print(sorted(m for m in ('sympy', 'mpmath') if m in sys.modules))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
