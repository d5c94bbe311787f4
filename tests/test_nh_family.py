"""The x^r (1 + u*eta(x)) family: evaluation, derivative case analysis."""

from unittest import mock

import numpy as np
import pytest

from nhsbox import nh_family
from nhsbox.gf import build_field, cached_field
from nhsbox.nh_family import (
    CLASS_11,
    CaseAnalysis,
    NHParams,
    UnsupportedParameterError,
    aij_counts_brute,
    aij_counts_closed,
    derivative_row_counts,
    derivative_row_parts,
    eval_F,
    excluded_u_set,
    nh_table,
    structural_lemma_checks,
    structural_lemmas_hold,
    uniformity_batch,
)
from nhsbox.spectra import FunctionTable
from nhsbox.verifier import _CASE_CELLS


def test_eval_examples():
    f7 = cached_field(7)
    for u in range(7):
        for r in (1, 2, 3):
            assert eval_F(f7, NHParams(r, u), 0) == 0
    p = NHParams(2, 1)
    assert eval_F(f7, p, 3) == 0  # 3 is a non-square: factor 1 - 1
    assert eval_F(f7, p, 2) == 1  # 4 * 2 = 8 = 1


def test_u_must_be_an_element_code():
    f27 = cached_field(3, 3)
    for u in (27, 32, -1):  # checked against the field, where u is used
        with pytest.raises(ValueError):
            nh_table(f27, NHParams(2, u))
        with pytest.raises(ValueError):
            eval_F(f27, NHParams(2, u), 3)
    assert nh_table(f27, NHParams(2, 26))[3] == eval_F(f27, NHParams(2, 26), 3)


def test_nh_table_matches_pointwise():
    for args in ((11, 1), (3, 3), (19, 1)):
        f = cached_field(*args)
        for u in (1, 2, f.neg(1)):
            for r in (2, 3, f.q - 2):
                params = NHParams(r, u)
                table = nh_table(f, params)
                for x in range(f.q):
                    assert table[x] == eval_F(f, params, x)


def _d1(f, params, x):
    """D_1 F(x) = F(x + 1) - F(x), from two scalar evaluations."""
    return f.sub(eval_F(f, params, f.add(x, 1)), eval_F(f, params, x))


def test_derivative_boundary_values():
    for args in ((7, 1), (11, 1), (3, 3), (23, 1)):
        f = cached_field(*args)
        for u in range(f.q):
            params = NHParams(2, u)
            assert _d1(f, params, 0) == f.add(u, 1)
            assert _d1(f, params, f.neg(1)) == f.sub(u, 1)


def test_derivative_vanishes_on_c11_for_u1():
    for args in ((11, 1), (19, 1), (3, 3)):
        f = cached_field(*args)
        params = NHParams(2, 1)
        for x in np.nonzero(f.cij_partition().classes == CLASS_11)[0]:
            assert _d1(f, params, int(x)) == 0


def test_excluded_u_set():
    f27 = cached_field(3, 3)
    assert excluded_u_set(f27) == {0, 1, f27.neg(1)}
    f7 = cached_field(7)
    third = f7.inv(3)
    assert excluded_u_set(f7) == {0, 1, 6, third, f7.neg(third)}


def test_case_analysis_tau_values():
    # u = 1/3 gives tau1 = 4, tau2 = 2 independently of the field
    for args in ((7, 1), (11, 1), (19, 1), (23, 1), (7, 3)):
        f = cached_field(*args)
        case = CaseAnalysis(f, f.inv(f.embed(3)))
        assert case.tau1 == 4 % f.p or case.tau1 == f.embed(4)
        assert case.tau1 == f.embed(4) and case.tau2 == f.embed(2)
    # structural identities for arbitrary u
    f = cached_field(31)
    for u in range(2, 30):
        case = CaseAnalysis(f, u)
        assert f.sub(case.tau1, case.tau2) == 2
        assert f.add(case.tau1, case.tau2) == f.mul(2, f.inv(u))


def test_case_analysis_rejects_excluded_u():
    f = cached_field(11)
    for u in (0, 1, 10):
        with pytest.raises(UnsupportedParameterError):
            CaseAnalysis(f, u)
    with pytest.raises(UnsupportedParameterError):
        aij_counts_closed(f, 0, 3)


def test_aij_closed_equals_brute_small():
    for args in ((7, 1), (11, 1), (19, 1), (3, 3), (31, 1), (43, 1)):
        f = cached_field(*args)
        for u in range(2, f.q):
            if u == f.neg(1):
                continue
            assert np.array_equal(
                CaseAnalysis(f, u).a_counts_all(), aij_counts_brute(f, u)
            ), (f.q, u)


def _aij_reference(field, u):
    """The per-u brute scan: nh_table, its a = 1 row, one bincount per class."""
    codes = field.elements()
    table = nh_table(field, NHParams(2, u))
    row = field.sub_vec(table[field.add_vec(codes, 1)], table)
    classes = field.cij_partition().classes
    return np.stack(
        [np.bincount(row[classes == cls], minlength=field.q) for cls in range(4)], axis=1
    )


def _generic_u(field):
    """Every u outside {0, +1, -1}, ascending."""
    us = field.elements()[2:]
    return us[us != field.neg(1)]


@pytest.mark.parametrize(
    "args", [(7, 1), (11, 1), (19, 1), (3, 3), (31, 1), (43, 1), (7, 3), (3, 5), (23, 1)]
)
def test_batched_counts_match_per_u_reference(args):
    # the batch over every u at once: an int8 read-only (U, q, 4) view of the
    # class-major counts, whose rows are the scalar-u counts and whose
    # (U, 4) slices are a_counts(b)
    f = cached_field(*args)
    us = _generic_u(f)
    want = np.stack([_aij_reference(f, u) for u in us.tolist()])
    assert np.array_equal(aij_counts_brute(f, us), want)
    case = CaseAnalysis(f, us)
    counts = case.a_counts_all()
    assert np.array_equal(counts, want) and counts.dtype == np.int8
    assert not counts.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        counts[0, 0, 0] = 1
    for b in range(f.q):
        assert np.array_equal(case.a_counts(b), counts[..., b, :])
    for i, u in enumerate(us.tolist()):
        one = CaseAnalysis(f, u).a_counts_all()
        assert np.array_equal(one, counts[i]) and not one.flags.writeable
    # then in chunks of _CASE_CELLS cells as the LEMMA_SUITE sweep walks it
    # (F_343 ends on a partial chunk)
    step = max(1, _CASE_CELLS // f.q)
    for lo in range(0, len(us), step):
        chunk = us[lo : lo + step]
        assert np.array_equal(aij_counts_brute(f, chunk), want[lo : lo + step])
        assert np.array_equal(CaseAnalysis(f, chunk).a_counts_all(), want[lo : lo + step])
    if args == (7, 3):
        assert len(us) > step and len(us) % step  # a partial last chunk


def test_scalar_u_is_the_batch_of_one():
    f = cached_field(43)
    us = _generic_u(f)
    case = CaseAnalysis(f, us)
    held = structural_lemmas_hold(f, us)
    assert held.shape == (len(us),) and held.all()
    assert np.array_equal(case.delta_row(), [derivative_row_counts(f, NHParams(2, u)) for u in us])
    for i, u in enumerate(us.tolist()):
        one = CaseAnalysis(f, u)
        assert one.a_counts_all().shape == aij_counts_brute(f, u).shape == (f.q, 4)
        assert np.array_equal(one.a_counts_all(), case.a_counts_all()[i])
        assert (one.tau1, one.tau2) == (case.tau1[i], case.tau2[i])
        assert type(one.tau1) is int and np.array_equal(one.a_counts(5), case.a_counts(5)[i])
        assert structural_lemmas_hold(f, u) is True


def test_batched_u_input_checks():
    f = cached_field(43)
    with pytest.raises(UnsupportedParameterError):
        CaseAnalysis(f, np.array([5, 1, 7]))
    for bad in (np.array([5, 43]), np.array([-1, 5]), np.array([[5, 7]])):
        with pytest.raises(ValueError):
            CaseAnalysis(f, bad)
        with pytest.raises(ValueError):
            aij_counts_brute(f, bad)
    with pytest.raises(ValueError, match="one u"):
        structural_lemma_checks(f, np.array([5, 7]), 3)
    # the one-cell views take one b; an array of b is a set of cells for counts_at
    for call in (
        lambda: CaseAnalysis(f, 5).a_counts(np.array([3, 4])),
        lambda: aij_counts_closed(f, 5, [3]),
        lambda: structural_lemma_checks(f, 5, np.array([3, 4])),
    ):
        with pytest.raises(ValueError, match="one b"):
            call()


@pytest.mark.parametrize(
    "args", [(7, 1), (11, 1), (19, 1), (23, 1), (43, 1), (3, 3), (7, 3), (3, 5)]
)
def test_counts_at_per_u_cells_match_the_oracles(args):
    # a seeded (U, K) array of per-u b, each row holding b = 0 and the
    # boundary points b = u +/- 1: the counts are the brute-force counts and
    # delta the derivative row, both gathered at those cells
    f = cached_field(*args)
    us = _generic_u(f)
    rng = np.random.default_rng(32)
    bs = np.concatenate(
        [
            np.zeros((len(us), 1), dtype=np.int64),
            f.add_vec(us, 1)[:, None],
            f.sub_vec(us, 1)[:, None],
            rng.integers(0, f.q, size=(len(us), 6)),
        ],
        axis=1,
    )
    case = CaseAnalysis(f, us)
    counts = case.counts_at(bs)
    assert counts.shape == (4, *bs.shape) and counts.dtype == np.int8
    rows = np.arange(len(us))[:, None]
    assert np.array_equal(np.moveaxis(counts, 0, -1), aij_counts_brute(f, us)[rows, bs])
    delta = np.stack([derivative_row_counts(f, NHParams(2, u)) for u in us.tolist()])
    assert np.array_equal(case._boundary_delta(bs, counts)[1], delta[rows, bs])
    # one code, and every code as a 1-D array, are cells of the same kernel
    assert np.array_equal(case.counts_at(f.elements()), case._counts)
    assert np.array_equal(case.counts_at(0)[..., 0], case._counts[..., 0])


def test_one_cell_views_stay_small_at_large_q():
    # aij_counts_closed and structural_lemma_checks read their one cell, not
    # the (4, 1, q) grid (58.18 MiB at q = 1000003 when they built it); the
    # field's tables are built before tracing
    import tracemalloc

    f = cached_field(1000003)
    u = 12345
    brute = aij_counts_brute(f, u)
    for b in (777, f.add(u, 1), f.sub(u, 1)):
        aij_counts_closed(f, u, b), structural_lemma_checks(f, u, b)
        tracemalloc.start()
        try:
            counts, verdicts = aij_counts_closed(f, u, b), structural_lemma_checks(f, u, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, (b, peak)
        assert counts == tuple(brute[b])
        assert all(ok for _, _, ok in verdicts)
        boundary = {name: applicable for name, applicable, _ in verdicts}["boundary_delta_le_4"]
        assert boundary == (b != 777)


def test_aij_scalar_equals_vectorized():
    f = cached_field(19)
    for u in (2, 5, f.inv(3)):
        case = CaseAnalysis(f, u)
        grid = case.a_counts_all()
        for b in range(19):
            assert tuple(grid[b]) == case.a_counts(b) == aij_counts_closed(f, u, b)


def test_delta_row_contract():
    # closed counts plus the two boundary contributions equal delta(1, b)
    for args in ((11, 1), (19, 1), (3, 3)):
        f = cached_field(*args)
        for u in range(2, f.q):
            if u == f.neg(1):
                continue
            case = CaseAnalysis(f, u)
            assert np.array_equal(case.delta_row(), derivative_row_counts(f, NHParams(2, u)))


def test_f11_u_one_third_at_b_four_thirds():
    f = cached_field(11)
    u = f.inv(3)
    assert u == 4
    b = f.mul(4, f.inv(3))
    assert b == 5
    case = CaseAnalysis(f, u)
    # hand enumeration: D_1F hits 4/3 at x in {0, 1, 6}
    assert case.delta_row()[b] == 3
    assert tuple(case.a_counts(b)) == tuple(aij_counts_brute(f, u)[b])


def test_one_third_boundary_deltas_mod_24():
    # delta(1, 4/3) and delta(1, -2/3) are 2 for q = 7 (mod 24) and 1 for
    # q = 23 (mod 24); the split is by eta(3), via quadratic reciprocity
    for q, expected in ((31, 2), (103, 2), (7, 2), (23, 1), (47, 1), (71, 1)):
        f = cached_field(q)
        assert q % 8 == 7
        u = f.inv(f.embed(3))
        row = derivative_row_counts(f, NHParams(2, u))
        b1 = f.mul(f.embed(4), f.inv(f.embed(3)))
        b2 = f.neg(f.mul(f.embed(2), f.inv(f.embed(3))))
        assert row[b1] == expected, q
        assert row[b2] == expected, q


def test_structural_lemma_checks_scalar():
    f = cached_field(23)
    for u in range(2, 22):
        for b in (0, 1, f.add(u, 1), f.sub(u, 1), 7):
            for verdict in structural_lemma_checks(f, u, b):
                assert verdict[2], (u, b, verdict)


def test_structural_lemmas_vectorized():
    for args in ((7, 1), (11, 1), (19, 1), (3, 3), (31, 1)):
        f = cached_field(*args)
        for u in range(2, f.q):
            if u == f.neg(1):
                continue
            assert structural_lemmas_hold(f, u), (f.q, u)


def test_lemma_checks_agree_with_lemmas_hold():
    # structural_lemma_checks over every b and structural_lemmas_hold are
    # two views of one battery; both are checked against applicability and
    # implications re-derived here from the brute-force class counts
    for args in ((7, 1), (11, 1), (19, 1), (3, 3), (31, 1)):
        f = cached_field(*args)
        for u in range(2, f.q):
            if u == f.neg(1):
                continue
            eu, ep, em = f.eta(u), f.eta(f.add(1, u)), f.eta(f.sub(1, u))
            counts = aij_counts_brute(f, u)
            delta = derivative_row_counts(f, NHParams(2, u))
            all_ok = True
            for b in range(f.q):
                c00, c01, c10, c11 = counts[b]
                boundary = b in (f.add(u, 1), f.sub(u, 1))
                want = {
                    "A10_full_blocks_A00": (ep == eu, not (c10 == 2 and c00)),
                    "A01_full_blocks_A00": (ep == -eu, not (c01 == 2 and c00)),
                    "A01_full_blocks_A11": (em == eu, not (c01 == 2 and c11)),
                    "A10_full_blocks_A11": (em == -eu, not (c10 == 2 and c11)),
                    "boundary_delta_le_4": (boundary, delta[b] <= 4),
                    "delta_le_5": (True, delta[b] <= 5),
                }
                verdicts = structural_lemma_checks(f, u, b)
                assert [name for name, _, _ in verdicts] == list(want)
                for name, applicable, ok in verdicts:
                    want_applicable, holds = want[name]
                    assert (applicable, ok) == (want_applicable, holds or not want_applicable), (
                        f.q, u, b, name,
                    )
                    all_ok &= ok
            assert all_ok and structural_lemmas_hold(f, u), (f.q, u)


def test_negation_symmetry_delta():
    # delta_{F_{r,-u}}(1, b) = delta_{F_{r,u}}(1, b/(-1)^(r+1))
    for args in ((11, 1), (19, 1), (3, 3)):
        f = cached_field(*args)
        neg = f.neg_vec(f.elements())
        for u in range(1, f.q):
            for r in (2, 3, f.q - 2):
                row_u = derivative_row_counts(f, NHParams(r, u))
                row_nu = derivative_row_counts(f, NHParams(r, f.neg(u)))
                expected = row_u[neg] if r % 2 == 0 else row_u
                assert np.array_equal(row_nu, expected)


def _delta_oracle(field, u, r=2):
    """delta_{F_{r,u}} from its own a = 1 row: no batching, no pairing."""
    return int(derivative_row_counts(field, NHParams(r, u)).max())


def test_derivative_row_parts_match_the_table_rows():
    # c + u*d against D_1 F read off the value table, for every u and for
    # exponents other than 2 (uniformity_batch and _delta_oracle read it)
    for args in ((23, 1), (3, 3), (7, 3)):
        f = cached_field(*args)
        for r in (2, 3, f.q - 2):
            c, d = derivative_row_parts(f, r)
            for u in range(f.q):
                table = FunctionTable.from_nh(f, NHParams(r, u))
                row = f.add_vec(c, f.mul_vec(np.int64(u), d))
                assert np.array_equal(row, next(f.difference_rows(table.values, [1]))[0])


# rows per chunk of uniformity_batch in the chunk-boundary tests below, set
# through _U_CELLS = _ROWS * q
_ROWS = 16


@pytest.mark.parametrize(
    "args, r, sample",
    [
        ((167, 1), 2, None),
        ((167, 1), 3, None),
        ((7, 3), 2, None),
        ((3, 5), 2, None),
        # 2^17 - 1: int64 rows, 40 random u
        ((131071, 1), 2, 40),
    ],
    ids=["F167-r2", "F167-r3", "F343", "F243", "F131071"],
)
def test_uniformity_batch_matches_rows(args, r, sample):
    # every nonzero u (or a random sample), so the distinct u (one per u/-u
    # pair) fill several chunks of _ROWS plus a partial one; F_343 and F_3^5
    # are also the every-u mirror checks for extension fields of odd degree,
    # and r = 3 checks the pairing for odd r
    f = cached_field(*args)
    us = np.arange(1, f.q)
    if sample is not None:
        us = np.random.default_rng(7).choice(us, size=sample, replace=False)
    distinct = len(np.unique(np.minimum(us, f.neg_vec(us))))
    assert distinct > 2 * _ROWS and distinct % _ROWS
    with mock.patch.object(nh_family, "_U_CELLS", _ROWS * f.q):
        batch = uniformity_batch(f, r, us)
    assert batch.tolist() == [_delta_oracle(f, u, r) for u in us.tolist()]


@pytest.mark.parametrize(
    "args, sample",
    [
        ((23, 1), None),
        ((3, 3), None),
        ((3, 7), 200),
        # the largest prime q = 3 (mod 4) with q^2 < 2^31
        ((46327, 1), 40),
        # the first prime q = 3 (mod 4) above 46341, where q^2 passes 2^31:
        # 40 u spread over 23175 pairs, far apart
        ((46351, 1), 40),
        # 2^17 - 1, where c + u*d (u <= (q - 1) / 2) passes 2^31 for most u
        # (int64 rows)
        ((131071, 1), 40),
        # the largest prime q = 3 (mod 4) below 2^16, the last field whose
        # rows are int32: u = (q - 1)/2 and its negative (q + 1)/2 reach the
        # largest row value, (q^2 - 1)/2 < 2^31
        ((65519, 1), (1, 2, 3, 32758, 32759, 32760, 32761, 65517, 65518)),
    ],
)
def test_uniformity_batch_mirror_matches_oracle(args, sample):
    # sample: None for every u, an int for that many random u, or the u codes
    f = cached_field(*args)
    us = f.elements()
    if isinstance(sample, int):
        us = np.random.default_rng(7).choice(f.q, size=sample, replace=False)
    elif sample is not None:
        us = np.array(sample)
    batch = uniformity_batch(f, 2, us)
    assert batch.tolist() == [_delta_oracle(f, u) for u in us.tolist()]


@pytest.mark.parametrize("q", [46337, 46349])
def test_uniformity_batch_reads_u_and_minus_u_at_q_1_mod_4(q):
    # delta(u) = max(m(u), m(-u)) for the row-1 maximum m; u = q - 1 makes a
    # representative of q - 1 and a row value c + u*d near q^2, which stays
    # below 2^31 at q = 46337 (int32 rows) and passes it at q = 46349 (int64)
    f = cached_field(q)
    us = [1, 2, (q - 1) // 2, (q + 1) // 2, q - 2, q - 1]
    batch = uniformity_batch(f, 2, us)
    assert batch.tolist() == [max(_delta_oracle(f, u), _delta_oracle(f, f.neg(u))) for u in us]


def test_uniformity_batch_on_the_thm2_selection():
    # the u an exhaustive THM2_DELTA5 sweep hands over at q = 839: about
    # half of the pairs, so the sorted representatives have gaps, some of
    # them shorter than a chunk of _ROWS
    from nhsbox.verifier import CLAIMS, _select_condition_us

    f = cached_field(839)
    us, exhaustive = _select_condition_us(f, CLAIMS["THM2_DELTA5"], "all")
    assert exhaustive
    reps = np.unique(np.minimum(us, f.neg_vec(us)))
    gaps = np.diff(reps)
    assert gaps.max() > 1 and np.any(gaps[gaps > 1] < _ROWS)
    assert len(reps) > 2 * _ROWS and len(reps) % _ROWS
    with mock.patch.object(nh_family, "_U_CELLS", _ROWS * f.q):
        batch = uniformity_batch(f, 2, us)
    assert batch.tolist() == [_delta_oracle(f, u) for u in us.tolist()]


def test_uniformity_batch_memory_follows_the_cell_budget():
    # at q = 1000003 a chunk is one row: the keys, sums and quotients take
    # 16 MiB (at 16 rows a chunk the call peaked at 496 MiB); the rest of
    # the peak is the q-long derivative row parts and the bincount
    import tracemalloc

    f = cached_field(1000003)  # built before tracing: its eta table is not counted
    us = np.arange(2, 66)
    tracemalloc.start()
    try:
        batch = uniformity_batch(f, 2, us)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, peak / 2**20
    for i in (0, 1, 31, 63):
        assert batch[i] == _delta_oracle(f, int(us[i])), int(us[i])


def test_uniformity_batch_keeps_input_order():
    for args in ((23, 1), (3, 3)):
        f = cached_field(*args)
        us = [5, f.neg(5), 2, 5, 0, f.neg(2), 1, 2, f.neg(1), f.q - 1, 5]
        batch = uniformity_batch(f, 2, us)
        assert batch.tolist() == [_delta_oracle(f, u) for u in us]
    assert uniformity_batch(cached_field(23), 2, []).tolist() == []


def test_uniformity_batch_rejects_bad_inputs():
    # a code outside [0, q) would alias in a prime field (28 and -3 read
    # as 5 and 20 at F_23) and index past a table in an extension field
    for args, bad in (((23, 1), [28, -3]), ((3, 3), [40, -1])):
        f = cached_field(*args)
        for u in bad:
            with pytest.raises(ValueError, match="element code"):
                uniformity_batch(f, 2, [2, u])
        with pytest.raises(ValueError, match="positive integer"):
            uniformity_batch(f, 0, [2])
    # r = True was read as r = 1 (the F_{1,5} table); r = 1.5 and 2.0 failed
    # with a TypeError inside pow_vec; numpy integers stay integers
    f7 = cached_field(7)
    for r in (True, 1.5, 2.0):
        for call in (lambda: nh_table(f7, NHParams(r, 5)), lambda: uniformity_batch(f7, r, [3])):
            with pytest.raises(ValueError, match=rf"^r = {r} is not an integer"):
                call()
    assert uniformity_batch(f7, np.int64(2), [3]).tolist() == [3]
    assert np.array_equal(nh_table(f7, NHParams(np.int64(2), 5)), nh_table(f7, NHParams(2, 5)))


def test_uniformity_batch_counterexamples():
    # the known delta = 4 exceptions to THM2_DELTA5, one -u pair per q
    for q, us in ((4211, [3212, 999]), (4219, [2002, 2217])):
        f = cached_field(q)
        assert uniformity_batch(f, 2, us).tolist() == [4, 4]
        assert [_delta_oracle(f, u) for u in us] == [4, 4]


def test_scalar_entry_points_reject_codes_outside_the_field():
    # -1 would alias to q - 1 = 26 in the tables, not to f.neg(1) = 2
    f = cached_field(3, 3)
    params = NHParams(2, 5)
    assert eval_F(f, params, f.neg(1)) != eval_F(f, params, 26)
    for x in (-1, 27):
        with pytest.raises(ValueError, match="element code"):
            eval_F(f, params, x)
    # a u past q would alias to u mod q in a prime field (28 reads as 5 at
    # F_23) and index past the tables in an extension field
    for field, u in ((cached_field(23), 28), (f, 40)):
        with pytest.raises(ValueError, match="element code"):
            derivative_row_counts(field, NHParams(2, u))
    # a b outside [0, q) would read the counts of b mod q at F_23 (-1 as 22)
    # and index past them (40) or read a wrong row (-1) at F_27
    for field in (cached_field(23), f):
        for b in (-1, field.q, 40):
            for call in (
                lambda: aij_counts_closed(field, 5, b),
                lambda: CaseAnalysis(field, 5).a_counts(b),
                lambda: CaseAnalysis(field, np.array([5, 7])).counts_at([[0, b], [1, 2]]),
                lambda: structural_lemma_checks(field, 5, b),
            ):
                with pytest.raises(ValueError, match="element code"):
                    call()
    # True would read as the code 1: eval_F(F_7, NHParams(2, True), 3) gave 0
    f7 = cached_field(7)
    for call in (
        lambda: eval_F(f7, NHParams(2, True), 3),
        lambda: eval_F(f, params, True),
        lambda: derivative_row_counts(f7, NHParams(2, True)),
        lambda: CaseAnalysis(f, True),
        lambda: aij_counts_closed(f, 5, True),
        lambda: CaseAnalysis(f, 5).a_counts(True),
        lambda: structural_lemma_checks(f, 5, True),
    ):
        with pytest.raises(ValueError, match="element code"):
            call()
