"""DDT/BCT machinery, spectra, closed forms for u = 1."""

import json
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhsbox import spectra
from nhsbox.gf import UnsupportedFieldError, build_field, cached_field
from nhsbox.nh_family import (
    CaseAnalysis,
    ConsistencyError,
    NHParams,
    derivative_row_counts,
    nh_table,
    uniformity_batch,
)
from nhsbox.spectra import (
    FunctionTable,
    bct_entry,
    bct_entry_bruteforce,
    boomerang_case_counts_F21,
    boomerang_row,
    boomerang_spectrum,
    closed_form_spectrum_F21,
    cubic_character_sum,
    derivative_row,
    differential_spectrum,
)
from nhsbox.verifier import conclusion_expected_delta


def f21(field):
    return FunctionTable.from_nh(field, NHParams(2, 1))


def ddt_entry(table, a, b):
    """delta_F(a, b): the preimage count of b on the derivative row D_a F."""
    return int(np.count_nonzero(derivative_row(table, a) == b))


def test_ddt_entry_examples():
    f = cached_field(11)
    square = FunctionTable.from_nh(f, NHParams(2, 0))
    for a in range(1, 11):
        for b in range(11):
            assert ddt_entry(square, a, b) == 1  # D_a(x^2) is a bijection
    t = f21(f)
    assert ddt_entry(t, 1, 0) == (11 + 1) // 4
    assert ddt_entry(t, 1, 2) == 1
    f19 = cached_field(19)
    assert ddt_entry(f21(f19), 1, 0) == 5
    with pytest.raises(ValueError):
        derivative_row(t, 0)


def test_scalar_entry_points_reject_codes_outside_the_field():
    t = f21(cached_field(3, 3))
    for code in (-1, 27):
        for call in (
            lambda: derivative_row(t, code),
            lambda: bct_entry(t, 1, code),
            lambda: bct_entry_bruteforce(t, code, 1),
            lambda: bct_entry_bruteforce(t, 1, code),
        ):
            with pytest.raises(ValueError, match="element code"):
                call()
    assert bct_entry(t, 1, 26) == bct_entry_bruteforce(t, 1, 26)
    with pytest.raises(ValueError, match="a must be nonzero"):
        bct_entry_bruteforce(t, 0, 1)
    # a b outside [0, q) would be answered for b mod q at F_23 (32 as 9)
    for field in (cached_field(23), cached_field(3, 3)):
        for b in (-1, field.q, 32, 40):
            with pytest.raises(ValueError, match="element code"):
                boomerang_case_counts_F21(field, b)


@pytest.mark.parametrize("k", [3, 5, 7, 9])
def test_f21_boomerang_uniformity_is_1_in_characteristic_3(k):
    # beta(F_{2,1}) = 1 at 3^k, not 2: see README.md, "Characteristic 3"
    assert boomerang_row(f21(cached_field(3, k)), 1)[1:].max() == 1


def test_f21_boomerang_chains_exclude_each_other_in_characteristic_3():
    # 2 = -1 gives eta(1 + 2s) = eta(1 - s) = -eta(s - 1), so the two chains
    # of one sign never meet; eta(-1) = -1 parts the + and - sides
    for k in range(3, 12, 2):
        field = cached_field(3, k)
        cc = boomerang_case_counts_F21(field, field.elements()[1:])
        assert not np.any((cc["00,01"] == 1) & (cc["00,10"] == 1)), k
        assert not np.any((cc["01,00"] == 1) & (cc["10,00"] == 1)), k
        assert sum(cc.values()).max() == 1, k


def test_derivative_row_matches_entries():
    f = cached_field(19)
    t = f21(f)
    row = derivative_row(t, 3)
    for x in range(19):  # F(x + 3) - F(x) by scalar ops
        assert row[x] == f.sub(int(t.values[f.add(x, 3)]), int(t.values[x]))


def test_spectrum_identities_and_reduction_agreement():
    for args in ((11, 1), (19, 1), (3, 3), (31, 1)):
        f = cached_field(*args)
        for u in range(f.q):
            # (q-1)/(p-1) takes the prime-subfield branch of _row1_outside
            for r in (2, f.q - 2, (f.q - 1) // (f.p - 1)):
                params = NHParams(r, u)
                table = FunctionTable.from_nh(f, params)
                full = differential_spectrum(table)
                red = differential_spectrum(table, reduction=params)
                assert full.omega == red.omega, (f.q, u, r)
                assert full.uniformity == red.uniformity
                assert full.locally_apn == red.locally_apn
                assert full.identities_hold(f.q)


@pytest.mark.parametrize("args", [(13, 1), (5, 2), (5, 3)], ids=["F13", "F25", "F125"])
def test_paper_paths_need_q_3_mod_4(args):
    # every path of the paper that rests on eta(-1) = -1 refuses a field
    # q = 1 (mod 4) with the one guard's message
    f = cached_field(*args)
    for call in (
        lambda: f.sqrt(2),
        lambda: f.sqrt_vec(2),
        lambda: f.sqrt_table,
        lambda: f.cij_partition(),
        lambda: CaseAnalysis(f, 2),
        lambda: closed_form_spectrum_F21(f),
        lambda: boomerang_case_counts_F21(f, 1),
        lambda: conclusion_expected_delta(f, 2),
    ):
        with pytest.raises(UnsupportedFieldError, match=rf"needs q = 3 \(mod 4\), and q = {f.q}$"):
            call()


# the q = 1 (mod 4) fields of the reduced-path oracle tests
Q_1_MOD_4 = [(5, 1), (13, 1), (17, 1), (29, 1), (3, 2), (5, 2), (7, 2), (3, 4), (5, 3)]


@pytest.mark.parametrize("args", Q_1_MOD_4, ids=lambda a: f"F{a[0]}^{a[1]}")
def test_reduced_paths_match_the_full_path_at_q_1_mod_4(args):
    # rows 1 and g (a non-square) stand for the two orbits of the squares:
    # at F_13, u = 2, row 1 alone peaks at 3 where the full DDT gives 5
    f = cached_field(*args)
    if f.q == 13:
        assert derivative_row_counts(f, NHParams(2, 2)).max() == 3
        assert differential_spectrum(FunctionTable.from_nh(f, NHParams(2, 2))).uniformity == 5
    m = (f.q - 1) // (f.p - 1)
    for r in sorted({2, 3, f.q - 2, (f.q - 1) // 2, m, 2 * m}):
        deltas = []
        for u in range(f.q):
            params = NHParams(r, u)
            table = FunctionTable.from_nh(f, params)
            full = differential_spectrum(table)
            red = differential_spectrum(table, reduction=params)
            assert (red.omega, red.uniformity, red.locally_apn) == (
                full.omega, full.uniformity, full.locally_apn), (f.q, r, u)
            deltas.append(full.uniformity)
            if f.q <= 49 and r in (2, 3):
                assert boomerang_spectrum(table, reduction=params) == boomerang_spectrum(table)
        assert uniformity_batch(f, r, f.elements()).tolist() == deltas, (f.q, r)
        us = np.random.default_rng(f.q).choice(f.q, size=f.q + 5)  # shuffled, with repeats
        assert uniformity_batch(f, r, us).tolist() == [deltas[u] for u in us], (f.q, r)


@pytest.mark.parametrize("args", [(7, 1), (3, 3), (3, 5), (7, 3)] + Q_1_MOD_4)
def test_row1_outside_is_the_union_of_line_complements(args):
    # delta(c*a, b) = delta(a, b*c^-r) for c a square: b outside F_p reads
    # the positions outside the line c^-r * F_p.  Their union over the
    # squares, by brute force; at q = 3 (mod 4) that is the union over
    # every a, as -1 is a non-square and -F_p = F_p.  A prime field
    # excludes b = 0 alone, as locally-APN does there.
    f = cached_field(*args)
    q, p = f.q, f.p
    excluded = [f.embed(k) for k in range(p)] if f.n > 1 else [0]
    m = (q - 1) // (p - 1)
    for r in (2, q - 2, m, q - 1) + ((m // 2,) if m % 2 == 0 else ()):
        lines = {a: {f.mul(f.inv(f.pow(a, r)), b) for b in excluded} for a in range(1, q)}
        union = set().union(*(set(range(q)) - lines[c] for c in lines if f.eta(c) == 1))
        if q % 4 == 3:
            assert union == set().union(*(set(range(q)) - line for line in lines.values()))
        assert set(range(q)[spectra._row1_outside(f, r)]) == union, (q, r)


def test_reduction_consistency_error():
    f = cached_field(11)
    table = f21(f)
    with pytest.raises(ConsistencyError):
        differential_spectrum(table, reduction=NHParams(2, 3))


def test_closed_form_spectrum_f21():
    f11 = cached_field(11)
    spec = closed_form_spectrum_F21(f11)
    assert spec.omega == {0: 40, 1: 40, 2: 20, 3: 10}
    assert spec.uniformity == 3
    assert cubic_character_sum(f11) == -2
    # q = 7 (mod 8): eta(2) = 1 kills the character-sum term
    for q in (23, 31, 47):
        f = cached_field(q)
        spec = closed_form_spectrum_F21(f)
        assert spec.omega[0] == (q - 1) * (3 * q - 5) // 8
        assert spec.identities_hold(q)
    with pytest.raises(UnsupportedFieldError):
        closed_form_spectrum_F21(cached_field(7))


def test_closed_form_matches_brute_small():
    for args in ((11, 1), (19, 1), (3, 3), (43, 1), (7, 3)):
        f = cached_field(*args)
        assert closed_form_spectrum_F21(f).omega == differential_spectrum(f21(f)).omega


def test_locally_apn():
    assert differential_spectrum(f21(cached_field(11))).locally_apn
    assert differential_spectrum(f21(cached_field(31))).locally_apn
    assert differential_spectrum(f21(cached_field(3, 3))).locally_apn
    table = FunctionTable.from_nh(cached_field(11), NHParams(2, 0))
    assert not differential_spectrum(table).locally_apn


def test_bct_linear_function():
    f = cached_field(11)
    c = 4
    table = FunctionTable(f, f.mul_vec(np.int64(c), f.elements()))
    for a in (1, 5):
        for b in (0, 1, 7):
            assert bct_entry(table, a, b) == 11
    spec = boomerang_spectrum(table)
    assert spec.nu == {11: 100}
    assert spec.identities_hold(11)


def test_boomerang_spectrum_past_q():
    # a table with only the values 5 and 3 is far from a permutation:
    # beta(a, b) reaches 20 > q, so the full path's tally must grow past q + 1
    f = cached_field(11)
    table = FunctionTable(f, np.where(f.elements() < 5, 5, 3))
    brute = [bct_entry_bruteforce(table, a, b) for a in range(1, 11) for b in range(1, 11)]
    spec = boomerang_spectrum(table)
    assert spec.nu == {i: int(w) for i, w in enumerate(np.bincount(brute)) if w}
    assert spec.uniformity == max(brute) == 20


def test_bct_bucketing_equals_bruteforce():
    rng = np.random.default_rng(7)
    for args in ((23, 1), (3, 3), (103, 1)):
        f = cached_field(*args)
        for u in (1, 2):
            table = FunctionTable.from_nh(f, NHParams(2, u))
            row1 = boomerang_row(table, 1)
            for _ in range(8):
                a = int(rng.integers(1, f.q))
                b = int(rng.integers(0, f.q))
                fast = bct_entry(table, a, b)
                assert fast == bct_entry_bruteforce(table, a, b)
                if a == 1:
                    assert fast == row1[b]


def test_boomerang_row_reads_every_fiber_size():
    # x^2 (u = 0) has D_a F a permutation, so every fiber has size 1 and the
    # row is q at b = 0; a generic u mixes fiber sizes 0, 1 and 2 or more
    for args, u in (((23, 1), 0), ((3, 3), 0), ((23, 1), 5), ((3, 3), 5)):
        f = cached_field(*args)
        table = FunctionTable.from_nh(f, NHParams(2, u))
        for a in (1, f.q - 1):
            row = boomerang_row(table, a)
            assert row.tolist() == [bct_entry_bruteforce(table, a, b) for b in range(f.q)]
            if u == 0:
                assert row[0] == f.q and not row[1:].any()


def test_boomerang_row_leaves_numpy_ma_unimported():
    # np.unique without return_inverse calls np.ma.is_masked, and the first
    # call imports numpy.ma (about 10 ms); the BCT rows and spectrum of a
    # generic-u table do not load it
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "from nhsbox.gf import cached_field\n"
        "from nhsbox.nh_family import NHParams\n"
        "from nhsbox.spectra import FunctionTable, boomerang_row, boomerang_spectrum\n"
        "table = FunctionTable.from_nh(cached_field(43), NHParams(2, 5))\n"
        "boomerang_row(table, 1)\n"
        "boomerang_spectrum(table)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_f21_bct_row_capped_at_two():
    for args in ((31, 1), (43, 1), (3, 3), (103, 1)):
        f = cached_field(*args)
        row = boomerang_row(f21(f), 1)
        assert int(row[1:].max()) <= 2


def test_boomerang_spectrum_reduction_and_negation():
    for args in ((19, 1), (31, 1), (3, 3)):
        f = cached_field(*args)
        for u in (1, 2, f.neg(1)):
            params = NHParams(2, u)
            table = FunctionTable.from_nh(f, params)
            full = boomerang_spectrum(table)
            red = boomerang_spectrum(table, reduction=params)
            assert full.nu == red.nu and full.uniformity == red.uniformity
            assert full.identities_hold(f.q)
        plus = boomerang_spectrum(FunctionTable.from_nh(f, NHParams(2, 1)))
        minus = boomerang_spectrum(FunctionTable.from_nh(f, NHParams(2, f.neg(1))))
        assert plus.nu == minus.nu


def test_boomerang_case_counts():
    # one batched call over every b != 0 against the BCT row, and a few b
    # against the O(q^2) pair enumeration
    for args in ((19, 1), (31, 1), (43, 1), (3, 3), (3, 5), (7, 3)):
        f = cached_field(*args)
        table = f21(f)
        row = boomerang_row(table, 1)
        bs = f.elements()[1:]
        counts = boomerang_case_counts_F21(f, bs)
        # the four classes C_ij x C_kl that F_{2,1} can hit; their sum is the
        # whole BCT row, so no other class holds a pair
        assert list(counts) == ["00,01", "00,10", "01,00", "10,00"]
        assert all(c.shape == bs.shape and c.dtype == np.int64 for c in counts.values())
        assert all(set(np.unique(c).tolist()) <= {0, 1} for c in counts.values())
        np.testing.assert_array_equal(sum(counts.values()), row[1:], err_msg=str(f.q))
        if f.q <= 43:
            for b in (1, 2, f.q // 2, f.q - 1):
                assert sum(c[b - 1] for c in counts.values()) == bct_entry_bruteforce(table, 1, b)


def test_boomerang_case_counts_scalar_is_the_batch_of_one():
    for args in ((31, 1), (3, 3), (7, 3)):
        f = cached_field(*args)
        counts = boomerang_case_counts_F21(f, f.elements()[1:])
        for b in (1, 2, f.q // 2, f.q - 2, f.q - 1):
            one = boomerang_case_counts_F21(f, b)
            assert all(type(v) is int for v in one.values())
            assert one == {label: int(c[b - 1]) for label, c in counts.items()}, (f.q, b)
    f = cached_field(31)
    with pytest.raises(ValueError, match="1-D"):
        boomerang_case_counts_F21(f, np.ones((2, 2), dtype=np.int64))
    with pytest.raises(ValueError, match="b = 0"):
        boomerang_case_counts_F21(f, 0)
    with pytest.raises(ValueError, match="b = 0"):
        boomerang_case_counts_F21(f, np.array([1, 0, 2]))
    for bad in (-1, f.q):
        with pytest.raises(ValueError, match="element code"):
            boomerang_case_counts_F21(f, np.array([1, bad, 2]))


def _f21_chain_reference(q, b, sign, e):
    """One class of the F_{2,1} case analysis at a prime q, on Python ints."""
    def eta(x):
        return pow(x % q, (q - 1) // 2, q) == 1

    h = sign * b * ((q + 1) // 2) % q  # sign * b/2
    s = pow(h, (q + 1) // 4, q)
    inner = (1 + 2 * e * s) % q
    t = pow(inner, (q + 1) // 4, q)
    return int(eta(h) and eta(s + e) and eta(inner) and not eta(t - e) and (t - e) % q != 0)


def test_boomerang_case_counts_builds_no_table_at_a_large_prime():
    f = cached_field(2147483647)
    bs = np.array([1, 2, 12345, f.q - 1])
    no_table = property(lambda self: pytest.fail("the q-sized sqrt table was built"))
    with mock.patch.object(type(f), "sqrt_table", no_table):
        counts = boomerang_case_counts_F21(f, bs)
        one = boomerang_case_counts_F21(f, 12345)
    assert f.eta_table is None and one["10,00"] == 1
    for label, sign, e in spectra._F21_CHAINS:
        expected = [_f21_chain_reference(f.q, b, sign, e) for b in bs.tolist()]
        assert counts[label].tolist() == expected, label


def test_spectrum_json_roundtrip():
    f = cached_field(19)
    spec = differential_spectrum(f21(f))
    blob = json.dumps(spec.to_json_dict())
    assert {int(i): int(w) for i, w in json.loads(blob).items()} == spec.omega


# -- generic properties on arbitrary function tables --------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**62), st.sampled_from([(7, 1), (11, 1), (3, 3), (19, 1)]))
def test_random_table_row_and_pair_identities(seed, field_args):
    field = cached_field(*field_args)
    q = field.q
    rng = np.random.default_rng(seed)
    table = FunctionTable(field, rng.integers(0, q, size=q).astype(np.int64))

    a = int(rng.integers(1, q))
    b = int(rng.integers(0, q))
    # every derivative row partitions F_q: counts sum to q
    counts = np.bincount(derivative_row(table, a), minlength=q)
    assert counts.sum() == q
    shifted = table.values[field.add_vec(field.elements(), a)]
    assert np.count_nonzero(field.sub_vec(shifted, table.values) == b) == counts[b]
    # the O(q) bucketing BCT equals O(q^2) pair enumeration
    assert bct_entry(table, a, b) == bct_entry_bruteforce(table, a, b)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**62))
def test_random_table_spectrum_identities(seed):
    field = cached_field(11)
    rng = np.random.default_rng(seed)
    table = FunctionTable(field, rng.integers(0, 11, size=11).astype(np.int64))
    spec = differential_spectrum(table)
    assert spec.identities_hold(11)
    boom = boomerang_spectrum(table)
    assert boom.identities_hold(11)


def _spectra_over_every_a(table):
    """omega, delta, the locally-APN verdict and (q <= 27) nu, beta from every
    row a in F_q*: the DDT by scalar field arithmetic x by x, the BCT by pair
    enumeration.  Neither aggregator is called."""
    f, v, q = table.field, table.values.tolist(), table.field.q
    ddt = [np.bincount([f.sub(v[f.add(x, a)], v[x]) for x in range(q)], minlength=q)
           for a in range(1, q)]
    omega = Counter(int(c) for row in ddt for c in row)
    outside = range(f.p if f.n > 1 else 1, q)  # b outside the prime subfield (b != 0 if n = 1)
    locally_apn = max(int(row[b]) for row in ddt for b in outside) == 2
    boomerang = None
    if q <= 27:
        nu = Counter(bct_entry_bruteforce(table, a, b) for a in range(1, q) for b in range(1, q))
        boomerang = dict(nu), max(nu)
    return dict(omega), max(omega), locally_apn, boomerang


@pytest.mark.parametrize("field_args", [(5, 1), (7, 1), (13, 1), (5, 2), (3, 3), (7, 2)])
def test_full_spectra_match_every_a_tally(field_args):
    # the full paths read one row per pair {a, -a}; the oracle reads every a
    f = cached_field(*field_args)
    rng = np.random.default_rng(list(field_args))
    c = [int(k) for k in rng.integers(1, f.q, size=4)]
    # a cubic has D_a F quadratic, so delta <= 2 and locally-APN can hold (p != 3)
    cubic = [f.add(f.mul(f.add(f.mul(f.add(f.mul(c[3], x), c[2]), x), c[1]), x), c[0])
             for x in range(f.q)]
    tables = [rng.integers(0, f.q, size=f.q), rng.integers(0, 3, size=f.q), np.array(cubic)]
    for values in tables:
        table = FunctionTable(f, values)
        omega, delta, locally_apn, boomerang = _spectra_over_every_a(table)
        spec = differential_spectrum(table)
        assert {i: w for i, w in spec.omega.items() if w} == omega
        assert (spec.uniformity, spec.locally_apn) == (delta, locally_apn)
        if boomerang is not None:
            boom = boomerang_spectrum(table)
            assert (boom.nu, boom.uniformity) == boomerang
    assert locally_apn == (f.p != 3)  # the cubic's verdict: the check is not vacuous


# -- derivative rows, DDT rows and BCT rows against the independent oracles ----


def _kernel_table(field, kind, rng):
    q = field.q
    if kind == "uniform":
        return FunctionTable(field, rng.integers(0, q, size=q))
    if kind == "mostly-constant":  # D_a F has one fiber of size >= q - 6
        values = np.full(q, rng.integers(0, q))
        values[rng.choice(q, size=3, replace=False)] = rng.integers(0, q, size=3)
        return FunctionTable(field, values)
    u = 1 if kind == "F_{2,1}" else field.neg(1)  # a fiber of size (q+1)/4 if q = 3 mod 4
    return FunctionTable(field, nh_table(field, NHParams(2, u)))


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**62),
    st.sampled_from([(7, 1), (11, 1), (3, 3), (7, 2), (3, 5)]),
    st.sampled_from(["uniform", "mostly-constant", "F_{2,1}", "F_{2,-1}"]),
    st.sampled_from([1, 7, 64, spectra._PAIR_BLOCK]),
)
def test_fiber_kernel_matches_oracles(seed, field_args, kind, pair_block):
    field = cached_field(*field_args)
    q = field.q
    rng = np.random.default_rng(seed)
    table = _kernel_table(field, kind, rng)
    a_values = [int(a) for a in rng.choice(np.arange(1, q), size=5, replace=False)]
    # small pair blocks split the large fibers into row blocks
    with mock.patch.object(spectra, "_PAIR_BLOCK", pair_block):
        ddt = spectra._ddt_rows(table, np.array(a_values))
        bct = boomerang_row(table, a_values[0])
    v = table.values.tolist()
    for a, counts in zip(a_values, ddt):
        # D_a F from scalar field arithmetic, x by x
        row = [field.sub(v[field.add(x, a)], v[x]) for x in range(q)]
        assert derivative_row(table, a).tolist() == row
        assert np.array_equal(counts, np.bincount(row, minlength=q))
    assert bct.tolist() == [bct_entry_bruteforce(table, a_values[0], b) for b in range(q)]


def test_function_table_rejects_non_codes():
    f = cached_field(3, 3)
    for bad in (
        np.arange(27) + 5,  # codes alias through the digit-wise arithmetic
        np.arange(27) - 1,
        np.arange(26),
        np.arange(27.0),
        np.zeros((27, 1), dtype=np.int64),
        np.ones(27, dtype=bool),
    ):
        with pytest.raises(ValueError):
            FunctionTable(f, bad)
    assert FunctionTable(f, np.arange(27, dtype=np.uint8)).values.dtype == np.int64


def test_differential_spectrum_memory_bound():
    # the full DDT of a generic u goes _A_BATCH rows at a time: nothing of
    # size q^2 (one int64 q x q array is 38 MB at q = 3^7)
    for args in ((3, 7), (1999, 1)):
        f = cached_field(*args)
        table = FunctionTable.from_nh(f, NHParams(2, 5))
        tracemalloc.start()
        try:
            spec = differential_spectrum(table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert spec.identities_hold(f.q)
        assert peak < 4 * 2**20, (args, peak)


def test_boomerang_row_memory_bound():
    # D_1 F_{2,1} has a fiber of size (q+1)/4 = 547 at q = 3^7; the row
    # must not allocate anything of size q^2 (one int64 q x q array is 38 MB)
    table = f21(cached_field(3, 7))
    tracemalloc.start()
    try:
        row = boomerang_row(table, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak
    assert int(row[1:].max()) == 1  # the characteristic-3 exception to beta = 2
