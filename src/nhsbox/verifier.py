"""Claim verification engine: enumerate prime powers, evaluate each claim
(a uniformity, spectrum or witness-set census) at desk scale, hand the
(claim, p, n) tasks to a process pool one at a time, and emit reports.

A request is claim ids, the fields (a q range or one q = p^n) and a u
mode; a claim named twice runs once, and sample:K:SEED holds the only seed.

Each claim is one ClaimSpec in CLAIMS, the only place that states its
claimed value, the sign condition on u, its threshold and its evaluator;
verify_claim, conclusion_expected_delta and the sweep read them there.

Claim thresholds come in two kinds.  A hypothesis on the field (the u = 1/3
uniformities, the caps, the F_{2,1} witness-set formulas) is the claim's
admits(p, q), as the paper states it: a miss at any admitted q fails hard.
ClaimSpec.threshold is the q from which a claim must hold, numerically
suggested (4027 / 839 / 307) or proven (the witness-set lower bounds, 58^2 /
1681^2 / 9613^2).  Below it a miss is a skipped row, from it on an exception.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass
from functools import partial
from multiprocessing import get_context

import numpy as np

from .characters import (
    boomerang_constants,
    conic_count_brute,
    conic_count_closed,
    jacobsthal_sum,
    theorem6_constants,
    weil_sum_brute,
    weil_sum_quadratic_closed,
)
from .gf import CODE_LIMIT, Field, cached_field, integer
from .nh_family import (
    CLASS_01,
    CLASS_10,
    CLASS_11,
    DELTA_CAP,
    CaseAnalysis,
    NHParams,
    UnsupportedParameterError,
    aij_counts_brute,
    derivative_row_parts,
    excluded_u_set,
    u_third,
    uniformity_batch,
)
from .spectra import (
    FunctionTable,
    boomerang_case_counts_F21,
    boomerang_row,
    closed_form_spectrum_F21,
    cubic_character_sum,
    differential_spectrum,
)

# ---------------------------------------------------------------------------
# prime-power enumeration
# ---------------------------------------------------------------------------


def _sieve(limit):
    flags = np.ones(max(limit, 2), dtype=bool)
    flags[:2] = False
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = False
    return np.flatnonzero(flags).tolist()


def enumerate_prime_powers(min_q, max_q, congruences=()):
    """All odd prime powers q = p^k (the fields build_field makes) with
    min_q <= q < max_q matching every congruence (modulus, residue) filter,
    ascending by q.
    Only the window is sieved, by the primes up to sqrt(max_q), so the cost
    goes as (max_q - min_q) + sqrt(max_q).  A bound that is no integer, or a
    max_q past CODE_LIMIT + 1 (no field is larger), is rejected first."""
    min_q, max_q = integer(min_q, "min_q"), integer(max_q, "max_q")
    if min_q < 3:
        raise ValueError("min_q must be at least 3")
    if max_q > CODE_LIMIT + 1:
        raise ValueError(f"max_q = {max_q} exceeds the element-code limit {CODE_LIMIT} + 1")
    is_prime = np.ones(max(max_q - min_q, 0), dtype=bool)
    found = []
    for p in _sieve(math.isqrt(max(max_q - 1, 0)) + 1):  # every p with p^2 < max_q
        is_prime[max(p * p, -(-min_q // p) * p) - min_q :: p] = False
        found += [(p, k, p**k) for k in range(2, max_q.bit_length()) if min_q <= p**k < max_q]
    found += [(q, 1, q) for q in (np.flatnonzero(is_prime) + min_q).tolist()]
    found = [t for t in found if t[0] != 2 and all(t[2] % m == r for m, r in congruences)]
    return sorted(found, key=lambda t: t[2])


# ---------------------------------------------------------------------------
# claims
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClaimSpec:
    id: str
    admits: Callable  # (p, q) -> bool: the paper's hypothesis on the field
    metric: str
    description: str
    evaluate: Callable  # (field, claim, u_mode) -> [SweepRow]
    expected: int | None = None  # the claimed value (delta or beta), if one
    sign: int | None = None  # u ranges over eta(1+u) = sign * eta(1-u), if set
    threshold: int | None = None  # the q from which a miss is an exception, if any

    def below_threshold(self, q):
        return self.threshold is not None and q < self.threshold


AGGREGATE_U = -1  # u_code sentinel for one-row-per-q summaries


@dataclass
class SweepRow:
    q: int
    p: int
    n: int
    u_code: int
    claim_id: str
    computed: str
    expected: str
    status: str  # pass | exception | skipped
    elapsed_ms: float = 0.0

    def sort_key(self):
        return (self.q, self.u_code, self.claim_id, self.computed)


def conclusion_expected_delta(field: Field, u):
    """(expected delta, suggested threshold or None) per the five-case table.

    u = +/-1 gives (q+1)/4; u = +/-1/3 (p != 3) the value of the one u = 1/3
    claim that admits q; any other u the value and threshold of the
    condition claim whose sign is eta(1+u) * eta(1-u).  u = 0 is in no case.
    """
    q = field.q
    field.check_code(u, "u")
    field.require_3_mod_4("the five-case table")
    if u == 0:
        raise UnsupportedParameterError("u = 0: F_{2,0} = x^2 is in none of the five cases")
    if u in (1, field.neg(1)):
        return (q + 1) // 4, None
    if field.p != 3 and u in (u_third(field), field.neg(u_third(field))):
        thirds = [c for c in CLAIMS.values() if c.evaluate is _rows_delta_third]
        (claim,) = [c for c in thirds if c.admits(field.p, q)]
    else:
        sign = field.eta(field.add(1, u)) * field.eta(field.sub(1, u))
        (claim,) = [c for c in CLAIMS.values() if c.sign == sign]
    return claim.expected, claim.threshold


U_MODES = "default | all | sample:K:SEED | fixed:U1,U2,..."


def _parse_u_mode(u_mode, q):
    """-> ('all', None) | ('sample', (k, seed)) | ('fixed', codes); a ValueError
    for any other mode, one that is no str included."""
    if u_mode == "default":
        return ("all", None) if q <= 2000 else ("sample", (64, 0))
    if u_mode == "all":
        return "all", None
    kind, _, rest = u_mode.partition(":") if isinstance(u_mode, str) else ("", "", "")
    try:
        numbers = tuple(int(t) for t in rest.split("," if kind == "fixed" else ":"))
    except ValueError:
        numbers = ()
    if min(numbers, default=-1) >= 0:  # counts, seeds and element codes
        if kind == "sample" and len(numbers) == 2 and numbers[0] > 0:
            return "sample", numbers
        if kind == "fixed":
            return "fixed", numbers
    raise ValueError(f"bad u mode {u_mode!r}; expected {U_MODES}")


def _select_condition_us(field: Field, claim, u_mode):
    """(us, exhaustive): the u codes outside the excluded set with
    eta(1+u) = claim.sign * eta(1-u), chosen per u mode, and whether that
    mode takes every one of them.  Samples are grouped by eta(u), and fixed
    codes are taken once each, in order, codes >= q dropped like codes
    outside the set."""
    q = field.q
    kind, arg = _parse_u_mode(u_mode, q)
    if kind == "fixed":  # only the listed codes, so no q-sized array
        codes = np.array(sorted({u for u in arg if u < q}), dtype=np.int64)
    else:
        codes = field.elements()
    e_plus = field.eta_vec(field.add_vec(codes, 1))
    want = e_plus == claim.sign * field.eta_vec(field.sub_vec(1, codes))
    for u in excluded_u_set(field):
        want &= codes != u
    selected = codes[want]
    if kind == "sample" and len(selected) > 0:
        k, seed = arg
        # the 0 is the old default --seed 0, kept so that every sampled u
        # stays as drawn when that option still existed
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0, q]))
        eta_u = field.eta_vec(selected)
        picks = []
        for sign in (1, -1):
            group = selected[eta_u == sign]
            if len(group) > k:
                group = rng.choice(group, size=k, replace=False)
            picks.append(np.sort(group))
        return np.concatenate(picks), False
    return selected, kind == "all"


# -- per-claim evaluators ----------------------------------------------------


def _row(field, claim, u, computed, expected, status):
    return SweepRow(field.q, field.p, field.n, u, claim.id, str(computed), str(expected), status)


def _verdict_row(field, claim, u, problems):
    """'ok', or the problems found, with the _status of finding none."""
    status = _status(field, claim, not problems)
    return _row(field, claim, u, "; ".join(problems) or "ok", "ok", status)


def _status(field, claim, holds):
    """pass; a miss is skipped below claim.threshold, an exception from it on."""
    if holds:
        return "pass"
    return "skipped" if claim.below_threshold(field.q) else "exception"


def _rows_delta_third(field, claim, u_mode):
    u = u_third(field)
    delta = int(uniformity_batch(field, 2, [u])[0])
    status = _status(field, claim, delta == claim.expected)
    return [_row(field, claim, u, delta, claim.expected, status)]


def _rows_condition_claim(field, claim, u_mode):
    expected = claim.expected
    us, exhaustive = _select_condition_us(field, claim, u_mode)
    if len(us) == 0:
        return [_row(field, claim, AGGREGATE_U, "no-u", expected, "skipped")]
    deltas = list(zip(us.tolist(), uniformity_batch(field, 2, us).tolist()))

    # unconditional cap over every u outside {0, +1, -1}
    rows = [
        _row(field, claim, u, delta, f"<={DELTA_CAP}", "exception")
        for u, delta in deltas
        if delta > DELTA_CAP
    ]
    misses = [(u, delta) for u, delta in deltas if delta != expected]
    n_pass = len(deltas) - len(misses)
    if not exhaustive:
        for u, delta in deltas:
            status = _status(field, claim, delta == expected)
            rows.append(_row(field, claim, u, delta, expected, status))
        return rows
    # exhaustive runs aggregate agreeing u into one row per q
    if misses and claim.below_threshold(field.q):
        computed = f"{expected}:{n_pass}/{len(deltas)}"
        return rows + [_row(field, claim, AGGREGATE_U, computed, expected, "skipped")]
    rows += [_row(field, claim, u, delta, expected, "exception") for u, delta in misses]
    if n_pass:
        rows.append(_row(field, claim, AGGREGATE_U, expected, expected, "pass"))
    return rows


def _rows_spec_f21(field, claim, u_mode):
    q = field.q
    params = NHParams(2, 1)
    # row 1 by bincount, weighted by q - 1 (the orbit identity in spectra)
    brute = differential_spectrum(FunctionTable.from_nh(field, params), reduction=params)
    closed = closed_form_spectrum_F21(field)
    problems = []
    if brute.omega != closed.omega:
        problems.append(f"spectrum {brute.omega} != {closed.omega}")
    if not brute.identities_hold(q):
        problems.append("sum identities failed")
    if brute.uniformity != (q + 1) // 4:
        problems.append(f"delta {brute.uniformity} != (q+1)/4")
    if not brute.locally_apn:
        problems.append("not locally-APN")
    return [_verdict_row(field, claim, 1, problems)]


def _rows_boom_f21(field, claim, u_mode):
    """beta(1, b) <= claim.expected is unconditional; equality is claimed
    from the threshold on."""
    table = FunctionTable.from_nh(field, NHParams(2, 1))
    beta = int(boomerang_row(table, 1)[1:].max())
    if beta > claim.expected:
        return [_row(field, claim, 1, beta, f"<={claim.expected}", "exception")]
    status = _status(field, claim, beta == claim.expected)
    return [_row(field, claim, 1, beta, claim.expected, status)]


def _rows_f21_lambda(field, claim, u_mode):
    """n1;n2, direct b-scans of the two delta(1, b) = 2 sets of F_{2,1},
    against 16 n1 = q + 1 + 2 eta(2) T and 16 n2 = q + 1 - 2T, T the cubic
    character sum.  A side that 16 does not divide shows as num/16 and
    cannot pass."""
    f = field
    bs = f.elements()
    eta = f.eta_vec
    half = f.mul_vec(bs, f.inv(2))
    both_sides = (eta(f.add_vec(bs, 2)) == 1) & (eta(f.sub_vec(bs, 2)) == 1)
    neg_half = f.neg_vec(half)
    m1 = both_sides & (eta(neg_half) == 1) & (eta(f.add_vec(f.sqrt_vec(neg_half), 1)) == -1)
    m2 = both_sides & (eta(half) == 1) & (eta(f.sub_vec(f.sqrt_vec(half), 1)) == -1)

    q, T = f.q, cubic_character_sum(f)
    nums = (q + 1 + 2 * f.eta(f.embed(2)) * T, q + 1 - 2 * T)
    expected = ";".join(str(v // 16) if v % 16 == 0 else f"{v}/16" for v in nums)
    computed = f"{np.count_nonzero(m1)};{np.count_nonzero(m2)}"
    return [_row(f, claim, 1, computed, expected, _status(f, claim, computed == expected))]


def _bound_row(field, claim, u, size, bound):
    """The witness count's row; expected is the least integer >= bound."""
    status = _status(field, claim, size >= bound)
    return _row(field, claim, u, size, f">={math.ceil(bound)}", status)


def _rows_third_witness(field, claim, u_mode, *, pattern, bound):
    """#{b : A_c(b) = k for every (c, k) in pattern} at u = 1/3, against
    bound(q)."""
    u = u_third(field)
    counts = CaseAnalysis(field, u).a_counts_all()
    hits = np.logical_and.reduce([counts[:, c] == k for c, k in pattern.items()])
    return [_bound_row(field, claim, u, int(np.count_nonzero(hits)), bound(field.q))]


def _thm6_bound(q):
    m1, m2 = theorem6_constants()
    return (4 * q + m1 * math.sqrt(q) + m2 - 328) / 256


def _rows_boom_witness(field, claim, u_mode):
    """#{b : classes (00,01) and (00,10) each hit once}, each b with
    beta(1, b) = 2 for F_{2,1}, against (q + m1 sqrt(q) + m2 + 1 - 1280) / 128."""
    q = field.q
    cc = boomerang_case_counts_F21(field, field.elements()[1:])
    size = int(np.count_nonzero((cc["00,01"] == 1) & (cc["00,10"] == 1)))
    m1, m2 = boomerang_constants()
    # at most 10 excluded circle points, each worth 2^7, plus the +1 from
    # the empty subset: a conservative excluded-point allowance
    return [_bound_row(field, claim, 1, size, (q + m1 * math.sqrt(q) + (m2 + 1 - 1280)) / 128)]


# (u, b) cells per CaseAnalysis of LEMMA_SUITE, max(1, _CASE_CELLS // q) u at a
# time: smaller chunks leave the case analysis bound by per-call overhead.
_CASE_CELLS = 1 << 16


def _rows_lemma_suite(field, claim, u_mode):
    q = field.q
    problems = []

    cij = field.cij_partition().counts
    want = {"00": (q - 3) // 4, "01": (q + 1) // 4, "10": (q - 3) // 4, "11": (q - 3) // 4}
    if cij != want:
        problems.append(f"C_ij counts {cij} != {want}")

    if q <= 499:  # every u outside {0, +1, -1}, about _CASE_CELLS cells a chunk, ascending
        us = field.elements()[2:]
        us = us[us != field.neg(1)]
        step = max(1, _CASE_CELLS // q)
        for lo in range(0, len(us), step):
            chunk = us[lo : lo + step]
            case = CaseAnalysis(field, chunk)
            wrong = (case.a_counts_all() != aij_counts_brute(field, chunk)).any(axis=(1, 2))
            failed = wrong | ~case.lemmas_hold()
            if failed.any():
                i = int(np.argmax(failed))
                what = "A_ij closed != brute" if wrong[i] else "exclusion/cap lemma failed"
                problems.append(f"{what} at u={chunk[i]}")
                break

    if q <= 199:
        if not _sqrt_pair_lemma_holds(field):
            problems.append("sqrt-pair character lemma failed")
        if not _negation_symmetry_holds(field):
            problems.append("u/-u derivative symmetry failed")

    return [_verdict_row(field, claim, AGGREGATE_U, problems)]


# the closed sides of the two CHARSUM checks that have no closed-form
# function: sum of eta(x^4 - 1) and the Jacobsthal sum H_2(a), q = 3 (mod 4)
_X4_MINUS_1_SUM = -1
_JACOBSTHAL_H2 = 0


def _rows_charsum(field, claim, u_mode):
    """The character-sum identities under the delta and beta arguments, each
    closed side against its brute-force oracle, on a few small arguments."""
    q, codes = field.q, field.elements()
    problems = []
    c2, c1, c0 = codes[1:6, None, None], codes[:5, None], codes[:5]  # (a2, a1, a0) axes
    if not np.array_equal(
        weil_sum_quadratic_closed(field, c2, c1, c0), weil_sum_brute(field, [c0, c1, c2])
    ):
        problems.append("quadratic Weil sum closed != brute")
    s = codes[1:4]
    if not np.array_equal(
        [[conic_count_brute(field, s1, s2) for s2 in s] for s1 in s],
        conic_count_closed(field, s[:, None, None], s[None, :, None], codes),
    ):
        problems.append("conic count closed != brute")
    if q % 4 == 3 and weil_sum_brute(field, [field.neg(1), 0, 0, 0, 1]) != _X4_MINUS_1_SUM:
        problems.append(f"sum of eta(x^4 - 1) != {_X4_MINUS_1_SUM}")
    if q % 4 == 3 and field.is_prime_field:
        if np.any(jacobsthal_sum(field, 2, codes[1:]) != _JACOBSTHAL_H2):
            problems.append(f"Jacobsthal H_2(a) != {_JACOBSTHAL_H2}")
    return [_verdict_row(field, claim, AGGREGATE_U, problems)]


def _sqrt_pair_lemma_holds(field: Field):
    """For u, u' nonzero squares with u + u' = a^2: eta(a + sqrt(u)) equals
    eta(a - sqrt(u)) and equals eta(2) * eta(a + sqrt(u')), over the whole
    (a, u) grid at once."""
    codes = field.elements()
    eta = field.eta_vec(codes).astype(np.int64)
    a, u = np.meshgrid(codes, codes, indexing="ij")
    up = field.sub_vec(field.mul_vec(a, a), u)
    pairs = (eta[u] == 1) & (eta[up] == 1)
    a, r, rp = a[pairs], field.sqrt_vec(u[pairs]), field.sqrt_vec(up[pairs])
    plus, eta2 = eta[field.add_vec(a, r)], field.eta(field.embed(2))
    minus, plus_p = eta[field.sub_vec(a, r)], eta[field.add_vec(a, rp)]
    return bool(np.all(plus == minus) and np.all(plus == eta2 * plus_p))


def _negation_symmetry_holds(field: Field):
    """delta_{F_{r,-u}}(1, b) = delta_{F_{r,u}}(1, b/(-1)^(r+1)) for
    r in {2, q-2}, every u != 0; one (c, d) and one bincount of all q rows
    per r."""
    q, codes = field.q, field.elements()
    neg = field.neg_vec(codes)
    for r in (2, q - 2):
        c, d = derivative_row_parts(field, r)
        keys = field.add_vec(c, field.mul_vec(codes[:, None], d)) + q * codes[:, None]
        rows = np.bincount(keys.ravel(), minlength=q * q).reshape(q, q)  # row u: delta(1, .)
        relabeled = rows[:, neg] if r % 2 == 0 else rows
        if not np.array_equal(rows[neg][1:], relabeled[1:]):
            return False
    return True


# ---------------------------------------------------------------------------
# the claims table: each claim's value, sign condition, threshold and
# evaluator are written here and nowhere else
# ---------------------------------------------------------------------------

CLAIMS = {
    c.id: c
    for c in (
        ClaimSpec(
            "THM2_DELTA5", lambda p, q: q % 4 == 3, "differential uniformity",
            "delta = 5 for u outside the excluded set with eta(1+u) = eta(u-1)",
            _rows_condition_claim, expected=5, sign=-1, threshold=4027,
        ),
        ClaimSpec(
            "THM3_DELTA4", lambda p, q: q % 4 == 3, "differential uniformity",
            "delta = 4 for u outside the excluded set with eta(1+u) = eta(1-u)",
            _rows_condition_claim, expected=4, sign=1, threshold=839,
        ),
        ClaimSpec(
            "THM5_DELTA3", lambda p, q: q % 8 == 7 and q > 7, "differential uniformity",
            "delta = 3 for u = 1/3 when q = 7 (mod 8), q > 7",
            _rows_delta_third, expected=3,
        ),
        ClaimSpec(
            "THM6_DELTA4", lambda p, q: q % 8 == 3 and p != 3 and q > 43,
            "differential uniformity", "delta = 4 for u = 1/3 when q = 3 (mod 8), p != 3, q > 43",
            _rows_delta_third, expected=4,
        ),
        ClaimSpec(
            "SPEC_F21", lambda p, q: q % 4 == 3 and q > 7, "differential spectrum",
            "closed-form spectrum of F_{2,1} equals brute force; locally-APN",
            _rows_spec_f21,
        ),
        ClaimSpec(
            "BOOM_F21", lambda p, q: q % 4 == 3 and q > 3, "boomerang uniformity",
            "beta(1, b) <= 2 always; beta = 2",
            _rows_boom_f21, expected=2, threshold=307,
        ),
        ClaimSpec(
            "APN_Q7", lambda p, q: q == 7, "differential uniformity",
            "delta = 2 for u = 1/3 at q = 7",
            _rows_delta_third, expected=2,
        ),
        ClaimSpec(
            "REMARK_11_19_43", lambda p, q: q in (11, 19, 43), "differential uniformity",
            "delta = 3 for u = 1/3 at q in {11, 19, 43}",
            _rows_delta_third, expected=3,
        ),
        ClaimSpec(
            "LEMMA_SUITE", lambda p, q: q % 4 == 3, "lemma checks",
            "C_ij counts, closed-vs-brute class counts, sqrt-pair lemma, u/-u symmetry",
            _rows_lemma_suite,
        ),
        ClaimSpec(
            "CHARSUM", lambda p, q: True, "character sums",
            "quadratic Weil sums and conic counts closed = brute; at q = 3 (mod 4), "
            "sum eta(x^4 - 1) = -1 and (prime q) H_2(a) = 0",
            _rows_charsum,
        ),
        ClaimSpec(
            "F21_LAMBDA", lambda p, q: q % 4 == 3, "witness set sizes",
            "the two delta(1, b) = 2 sets of F_{2,1} have sizes (q + 1 + 2 eta(2) T)/16 "
            "and (q + 1 - 2T)/16",
            _rows_f21_lambda,
        ),
        ClaimSpec(
            "THM5_WITNESS", lambda p, q: q % 8 == 7 and q > 7, "witness set size",
            "delta(1, b) = 3 for at least (q - 58 sqrt(q) + 3)/64 b at u = 1/3",
            # each b with (A_10, A_11) = (2, 1) has delta(1, b) = 3
            partial(_rows_third_witness, pattern={CLASS_10: 2, CLASS_11: 1},
                    bound=lambda q: (q - 58 * math.sqrt(q) + 3) / 64),
            threshold=58**2,
        ),
        ClaimSpec(
            "THM6_WITNESS", lambda p, q: q % 8 == 3 and p != 3 and q > 43, "witness set size",
            "delta(1, b) = 4 for at least (4q + m1 sqrt(q) + m2 - 328)/256 b at u = 1/3",
            # each b with (A_01, A_10, A_11) = (2, 1, 1) has delta(1, b) = 4
            partial(_rows_third_witness, pattern={CLASS_01: 2, CLASS_10: 1, CLASS_11: 1},
                    bound=_thm6_bound),
            threshold=1681**2,
        ),
        ClaimSpec(
            "BOOM_WITNESS", lambda p, q: q % 4 == 3, "witness set size",
            "beta(1, b) = 2 for at least (q + m1 sqrt(q) + m2 - 1279)/128 b of F_{2,1}",
            _rows_boom_witness, threshold=9613**2,
        ),
    )
}


def _claim_spec(claim_id):
    """The ClaimSpec of claim_id; ValueError naming the known ids otherwise."""
    if claim_id not in CLAIMS:
        raise ValueError(f"unknown claim {claim_id!r}; known: {', '.join(sorted(CLAIMS))}")
    return CLAIMS[claim_id]


def check_request(claim_ids, u_mode):
    """Raise ValueError for claims given as one str, an unknown claim id or a bad u mode."""
    if isinstance(claim_ids, str):  # else read letter by letter
        raise ValueError(f"claims = {claim_ids!r} is one string, not a sequence of claim ids")
    for claim_id in claim_ids:
        _claim_spec(claim_id)
    _parse_u_mode(u_mode, 0)


def verify_claim(claim_id, p, n, *, u_mode="default"):
    """Evaluate one claim at q = p^n; returns report rows, each carrying the
    wall time of the whole (claim, q) task as elapsed_ms.  A (p, n) that is
    no field raises from cached_field, before admits could skip it."""
    claim = _claim_spec(claim_id)
    start = time.perf_counter()
    field = cached_field(p, n)
    if not claim.admits(field.p, field.q):
        return [SweepRow(field.q, field.p, field.n, AGGREGATE_U, claim_id, "-", "-", "skipped")]
    rows = claim.evaluate(field, claim, u_mode)
    elapsed = (time.perf_counter() - start) * 1000.0
    for r in rows:
        r.elapsed_ms = elapsed
    return rows


# ---------------------------------------------------------------------------
# sweeping
# ---------------------------------------------------------------------------


@dataclass
class SweepConfig:
    claims: tuple
    min_q: int
    max_q: int
    jobs: int = 1
    u_mode: str = "default"


@dataclass
class SweepReport:
    """The rows and (q, claim_id, msg) errors of one claim run, and the one writer of
    its error and summary lines; to_csv alone carries no error, so the CLI prints them."""

    rows: list
    errors: list
    config: dict

    @property
    def summary(self):
        counts = {"pass": 0, "exception": 0, "skipped": 0}
        for r in self.rows:
            counts[r.status] = counts.get(r.status, 0) + 1
        return counts

    @property
    def summary_line(self):
        s = self.summary
        return f"pass={s['pass']} exception={s['exception']} skipped={s['skipped']}"

    def error_lines(self):
        return [f"Error: q={q}, claim={claim_id}: {msg}" for q, claim_id, msg in self.errors]

    @property
    def ok(self):
        return not self.errors and self.summary["exception"] == 0

    CSV_FIELDS = ("q", "p", "n", "u_code", "claim_id", "computed", "expected", "status", "elapsed_ms")

    def to_csv(self, with_timing=False):
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(self.CSV_FIELDS)
        for r in self.rows:
            ms = f"{r.elapsed_ms:.3f}" if with_timing else "0"
            w.writerow([r.q, r.p, r.n, r.u_code, r.claim_id, r.computed, r.expected, r.status, ms])
        return buf.getvalue()

    def to_json(self, with_timing=False):
        rows = [asdict(r) if with_timing else {**asdict(r), "elapsed_ms": 0} for r in self.rows]
        payload = dict(config=self.config, summary=self.summary, rows=rows, errors=self.errors)
        return json.dumps(payload, indent=2, sort_keys=True)

    def to_text(self):
        lines = []
        for r in self.rows:
            if r.status == "exception":
                metric = CLAIMS[r.claim_id].metric
                lines.append(f"Exception: q={r.q}, {metric}={r.computed}")
        claims = ",".join(sorted(set(r.claim_id for r in self.rows)))
        lines.append(f"claims={claims} {self.summary_line}")
        return "\n".join(lines + self.error_lines()) + "\n"


def _sweep_worker(task, u_mode):
    """(rows, errors) of one (claim_id, p, n) task; a raise is an error, so the run goes on."""
    claim_id, p, n = task
    try:
        return verify_claim(claim_id, p, n, u_mode=u_mode), []
    except Exception as exc:  # noqa: BLE001 - a failed task is an error row
        return [], [(p**n, claim_id, f"{type(exc).__name__}: {exc}")]


def run_tasks(tasks, u_mode="default", jobs=1, progress=None):
    """(rows, errors) of (claim_id, p, n) tasks in the order they finish,
    the order given at one job; more jobs share a fork pool, and a worker
    that dies (killed by the OS, say) leaves each unfinished task an error,
    not a hang.  progress(done, total, q), if given, follows each task."""
    rows, errors = [], []

    def merge(done, task, result):
        rows.extend(result[0])
        errors.extend(result[1])
        if progress is not None:
            _, p, n = task
            progress(done, len(tasks), p**n)

    if jobs == 1 or len(tasks) <= 1:
        for done, task in enumerate(tasks, 1):
            merge(done, task, _sweep_worker(task, u_mode))
    else:  # imported here so that in-process runs do not load the pool machinery
        from concurrent.futures import ProcessPoolExecutor, as_completed
        from concurrent.futures.process import BrokenProcessPool

        with ProcessPoolExecutor(min(jobs, len(tasks)), mp_context=get_context("fork")) as pool:
            futures = {pool.submit(_sweep_worker, t, u_mode): t for t in tasks}
            for done, future in enumerate(as_completed(futures), 1):
                claim_id, p, n = task = futures[future]
                try:
                    result = future.result()
                except BrokenProcessPool as exc:
                    result = [], [(p**n, claim_id, f"BrokenProcessPool: {exc}")]
                merge(done, task, result)
    return rows, errors


def sweep(config: SweepConfig, progress=None) -> SweepReport:
    """Run claims over every admissible prime power in [min_q, max_q).

    Each (claim, q) is one run_tasks task; the report, rows and errors
    sorted and config holding the integers read, is independent of jobs.
    A claim id named twice runs once.  Raises ValueError before any work
    for each request field it rejects: jobs not a positive integer; min_q
    or max_q no integer, max_q < min_q or max_q past CODE_LIMIT + 1; claims
    one str or with an unknown id; a u_mode that is no str of the form U_MODES.
    """
    jobs = integer(config.jobs, "jobs", positive=True)
    min_q, max_q = integer(config.min_q, "min_q"), integer(config.max_q, "max_q")
    if max_q < min_q:
        raise ValueError(f"max_q = {max_q} is below min_q = {min_q}")
    check_request(config.claims, config.u_mode)
    tasks = [
        (claim_id, p, n)
        for p, n, q in enumerate_prime_powers(max(min_q, 3), max_q)
        for claim_id in sorted(set(config.claims))
        if CLAIMS[claim_id].admits(p, q)
    ]
    rows, errors = run_tasks(tasks, config.u_mode, jobs, progress)
    rows.sort(key=SweepRow.sort_key)
    errors.sort()
    read = {"claims": list(config.claims), "min_q": min_q, "max_q": max_q, "jobs": jobs}
    return SweepReport(rows, errors, {**asdict(config), **read})
