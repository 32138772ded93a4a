"""Digit expansions, FNS decisions, and N_lambda enumeration."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from oracles import (automaton_value, box_fns_oracle, digit_slice, divide_exact_by_q, int64_tables,
                     row_values, rudin_shapiro, scalar_values, sum_of_digits, trial_strip)

from radixion import algebra, bulk, numeration
from radixion.algebra import MinimalPolynomial
from radixion.errors import CapExceeded, CycleDetected, DomainError, UsageError
from radixion.numeration import Expansion, NumberSystem


# -------------------------------------------------------------- validation


def test_validation_rejects_wrong_digit_arity():
    with pytest.raises(UsageError):
        NumberSystem.parse("2,2,1", "0;1")


def test_validation_rejects_non_expanding_base():
    with pytest.raises(DomainError):
        NumberSystem.parse("2,-4,1", "0,0;1,0")


def test_validation_rejects_wrong_digit_count():
    with pytest.raises(DomainError):
        NumberSystem.parse("2,2,1", "0,0;1,0;2,0")


def test_validation_rejects_duplicate_residue():
    with pytest.raises(DomainError) as err:
        NumberSystem.parse("2,2,1", "0,0;2,0")
    assert "0,0" in str(err.value) and "2,0" in str(err.value)


def test_validation_rejects_missing_zero():
    with pytest.raises(DomainError) as err:
        NumberSystem.parse("2,2,1", "1,0;2,0")
    assert "zero" in str(err.value)


def test_encode_round_trip(knuth):
    assert knuth.encode() == "2,2,1|0,0;1,0"
    assert knuth.Q == 2 and knuth.degree == 2


# -------------------------------------------------------------- expansion


def test_divide_exact_by_q_examples(knuth_poly):
    assert divide_exact_by_q(knuth_poly, (2, 0)) == (-2, -1)
    assert divide_exact_by_q(knuth_poly, (-2, -2)) == (0, 1)
    assert divide_exact_by_q(knuth_poly, (1, 0)) is None


def test_divide_inverts_multiplication_by_q(knuth_poly):
    q = algebra.q_power(knuth_poly, 1)
    for x in itertools.product(range(-3, 4), repeat=2):
        assert divide_exact_by_q(knuth_poly, algebra.mul(knuth_poly, q, x)) == x


def test_divide_exact_with_negative_constant_term():
    # base q = 2 from x - 2: halving is division by q
    m = MinimalPolynomial((-2, 1))
    assert divide_exact_by_q(m, (6,)) == (3,)
    assert divide_exact_by_q(m, (7,)) is None


# c0 < 0 in degree 1; a degree-3 base; a digit off the first axis whose
# residue needs no offset
EXTRA_STRIP_SYSTEMS = (("-3,1", "0;4;8"), ("2,2,2,1", "0,0,0;1,0,0"), ("2,2,1", "0,0;1,1"))


def box_columns(ns, depth, pad):
    """int64 columns of the box coordinate_ranges(ns, depth) widened by pad."""
    lo, hi = bulk.coordinate_ranges(ns, depth)
    axes = [np.arange(a - pad, b + pad + 1) for a, b in zip(lo, hi)]
    return [g.ravel() for g in np.meshgrid(*axes, indexing="ij")]


def rows_of(cols):
    return list(zip(*(c.tolist() for c in cols)))


def test_strip_matches_trial_division(knuth, negabinary, five_a, five_b, random_systems):
    # an element in Python integers, also past int64, and the same rows as
    # int64 columns; the digit is the one of the element's residue class
    rng = np.random.default_rng(43)
    extra = [NumberSystem.parse(*spec) for spec in EXTRA_STRIP_SYSTEMS]
    for ns in (knuth, negabinary, five_a, five_b, *random_systems, *extra):
        near = rng.integers(-10**6, 10**6, size=(500, ns.degree)).tolist()
        huge = [[sign * 10**30 + v for sign, v in zip(rng.choice((-1, 1), ns.degree).tolist(), row)]
                for row in near[:50]]
        for row in near + huge:
            x = tuple(row)
            assert (ns.residue_digit[x[0] % ns.Q], numeration.strip(ns, x)) == trial_strip(ns, x)
        far = rng.integers(-10**12, 10**12, size=(ns.degree, 500))
        for cols in (box_columns(ns, 3, 2), list(np.array(near).T), list(far)):
            stripped = numeration.strip(ns, cols, tables=int64_tables(ns))
            assert all(col.dtype == np.int64 for col in stripped)
            assert rows_of(stripped) == [trial_strip(ns, n)[1] for n in rows_of(cols)]


def test_strips_to_zero_is_membership(knuth, negabinary, five_a, five_b, one_plus_i,
                                      random_systems):
    # n is in N_depth exactly when depth strips take it to 0, in single
    # strips or in one call of depth strips
    extra = [NumberSystem.parse(*spec) for spec in EXTRA_STRIP_SYSTEMS]
    for ns in (knuth, negabinary, five_a, five_b, one_plus_i, *random_systems, *extra):
        depth = max(lam for lam in range(12) if ns.Q**lam <= 600)
        box, tables = box_columns(ns, depth, 2), int64_tables(ns)
        cols = box
        for _ in range(depth):
            cols = numeration.strip(ns, cols, tables=tables)
        for times in (0, depth):  # the repeated strip is the loop of single strips
            repeated = numeration.strip(ns, box, times, tables)
            assert all(np.array_equal(a, b) for a, b in zip(repeated, box if times == 0 else cols))
        reached = ~np.any(cols, axis=0)
        members = {n for n, hit in zip(rows_of(box), reached) if hit}
        assert members == set(numeration.enumerate_N(ns, depth))


def test_expand_knuth_golden(knuth):
    assert numeration.expand(knuth, (-1, 0)).digit_indices == (1, 0, 1, 1, 1)


def test_expand_zero_is_empty(knuth):
    assert numeration.expand(knuth, (0, 0)).digit_indices == ()


def test_expand_cycle_witness(one_plus_i):
    with pytest.raises(CycleDetected) as err:
        numeration.expand(one_plus_i, (-1, 0))
    assert err.value.element == (-1, 0)
    assert err.value.cycle == ((-1, 1),)  # the fixed point i = -1 + q


def test_evaluate_example(negabinary):
    assert numeration.evaluate(negabinary, Expansion((1, 1))) == (-1,)


def test_round_trip_box(knuth, five_a):
    for ns in (knuth, five_a):
        for a in range(-5, 6):
            for b in range(-5, 6):
                x = (a, b)
                assert numeration.evaluate(ns, numeration.expand(ns, x)) == x


# ------------------------------------------------------------- digit slice


def test_digit_slice_golden(knuth):
    assert digit_slice(knuth, (-1, 0), 1, 3) == (0, 1)


def test_digit_slice_validation(knuth):
    with pytest.raises(UsageError):
        digit_slice(knuth, (1, 0), -1, 2)
    with pytest.raises(UsageError):
        digit_slice(knuth, (1, 0), 3, 2)


def test_digit_slice_recomposition(knuth):
    rng = np.random.default_rng(23)
    for _ in range(200):
        x = tuple(int(v) for v in rng.integers(-6, 7, 2))
        nu = int(rng.integers(0, 5))
        low = digit_slice(knuth, x, 0, nu)
        high = digit_slice(knuth, x, nu, math.inf)
        shift = high
        for _ in range(nu):
            shift = algebra.mul_by_q(knuth.poly, shift)
        assert algebra.add(knuth.poly, low, shift) == x


# ------------------------------------------------------------ FNS decision


def test_is_fns_verdicts(knuth, one_plus_i, negabinary, five_a, five_b):
    assert numeration.is_fns(knuth).is_fns
    assert numeration.is_fns(negabinary).is_fns
    assert numeration.is_fns(five_a).is_fns
    verdict = numeration.is_fns(one_plus_i)
    assert not verdict.is_fns
    assert (-1, 1) in verdict.witness_cycle
    assert not numeration.is_fns(five_b).is_fns


def test_negabinary_search_box(negabinary):
    # the seeds 1 and -1, then every state of the carry closure {0, 1, -1}
    states, _ = numeration._carry_closure(negabinary)
    assert len(states) == 3
    assert numeration.is_fns(negabinary).candidates_examined == 2 + len(states)


def assert_witness_is_cycle(ns, cycle):
    assert cycle and ns.zero not in cycle
    assert cycle[0] == min(cycle)
    for n, successor in zip(cycle, cycle[1:] + cycle[:1]):
        assert numeration.strip(ns, n) == successor


def test_is_fns_matches_box_oracle(knuth, negabinary, one_plus_i, five_a, five_b,
                                   random_systems, cns_systems):
    # 1 and -1 expand finitely in the last extra system; its carry state
    # -1 + q is a fixed point
    specs = EXTRA_STRIP_SYSTEMS[:2] + (("4,-2,1", "-2,1;3,0;0,0;1,0"),)
    extra = [NumberSystem.parse(*spec) for spec in specs]
    quadratic_cns = [ns for ns, _ in cns_systems if ns.degree == 2]
    assert len(quadratic_cns) >= 20
    systems = (knuth, negabinary, one_plus_i, five_a, five_b, *random_systems, *extra,
               *quadratic_cns)
    verdicts = set()
    for ns in systems:
        verdict = numeration.is_fns(ns)
        assert verdict.is_fns == box_fns_oracle(ns).is_fns, ns.encode()
        if not verdict.is_fns:
            assert_witness_is_cycle(ns, verdict.witness_cycle)
        verdicts.add(verdict.is_fns)
    assert verdicts == {True, False}
    assert numeration.is_fns(extra[-1]).candidates_examined > 2


def test_is_fns_matches_known_cns_answer(cns_systems):
    assert {ns.degree for ns, _ in cns_systems} == {2, 3, 4}
    assert {answer for _, answer in cns_systems} == {True, False}
    for ns, answer in cns_systems:
        verdict = numeration.is_fns(ns)
        assert verdict.is_fns == answer, ns.encode()
        if not answer:
            assert_witness_is_cycle(ns, verdict.witness_cycle)


@pytest.mark.filterwarnings("ignore:irreducibility")
def test_higher_degree_cns_decided_at_default_cap(monkeypatch):
    monkeypatch.delenv("RADIXION_CAP", raising=False)
    for coeffs in ((7, 7, 7, 1), (3, 3, 3, 3, 1)):
        digits = tuple((r,) + (0,) * (len(coeffs) - 2) for r in range(coeffs[0]))
        assert numeration.is_fns(NumberSystem(MinimalPolynomial(coeffs), digits)).is_fns


def test_fns_verdict_stable_under_digit_reordering():
    flipped = NumberSystem.parse("2,-2,1", "1,0;0,0")
    verdict = numeration.is_fns(flipped)
    assert not verdict.is_fns
    assert (-1, 1) in verdict.witness_cycle
    assert numeration.is_fns(NumberSystem.parse("2,2,1", "1,0;0,0")).is_fns


def test_is_fns_respects_cap(knuth, monkeypatch):
    monkeypatch.setenv("RADIXION_CAP", "2")
    with pytest.raises(CapExceeded):
        numeration.is_fns(knuth)


# -------------------------------------------------------------- N_lambda


def test_enumerate_small(knuth):
    assert list(numeration.enumerate_N(knuth, 2)) == [(0, 0), (1, 0), (0, 1), (1, 1)]


def test_enumerate_counts_distinct(knuth, five_a):
    for lam in (8, 12):
        elems = list(numeration.enumerate_N(knuth, lam))
        assert len(elems) == 2**lam
        assert len(set(elems)) == 2**lam
    elems = list(numeration.enumerate_N(five_a, 6))
    assert len(set(elems)) == 5**6


def test_enumerate_cap_is_eager(knuth):
    with pytest.raises(CapExceeded):
        numeration.enumerate_N(knuth, 30)


def test_prefix_partition(knuth):
    # fixing the top digit splits N_lambda into contiguous blocks
    lam = 6
    elems = list(numeration.enumerate_N(knuth, lam))
    half = len(elems) // 2
    top_zero = set(numeration.enumerate_N(knuth, lam - 1))
    assert set(elems[:half]) == top_zero
    assert not top_zero & set(elems[half:])


# ------------------------------------------------------------ digit stats


def test_sum_of_digits_golden(knuth):
    assert sum_of_digits(knuth, (-1, 0)) == (4, 0)


def test_sum_of_digits_additive_on_shifted_blocks(knuth):
    for kappa in (3, 5):
        us = list(numeration.enumerate_N(knuth, kappa))
        vs = list(numeration.enumerate_N(knuth, 3))
        qk = algebra.q_power(knuth.poly, kappa)
        for u in us[::3]:
            for v in vs:
                shifted = algebra.add(knuth.poly, u, algebra.mul(knuth.poly, qk, v))
                expected = algebra.add(
                    knuth.poly,
                    sum_of_digits(knuth, u),
                    sum_of_digits(knuth, v),
                )
                assert sum_of_digits(knuth, shifted) == expected


def test_rudin_shapiro_goldens(knuth):
    assert numeration.expand(knuth, (3, 0)).digit_indices == (1, 0, 1, 1)
    assert rudin_shapiro(knuth, (-1, 0)) == 2
    assert rudin_shapiro(knuth, (3, 0)) == 1


def test_digit_statistics_step_over_each_expansion(request):
    """Each statistic's step table, run over every row's own expansion by
    automaton_value and by DigitStatistic.read, gives the oracles
    sum_of_digits and rudin_shapiro, on the golden, random and CNS systems
    at the largest lambda with Q^lambda <= 4096 (1024 for the CNS systems);
    so does the vectorized definition that the table oracles read
    (row_values)."""
    golden = [request.getfixturevalue(n) for n in ("knuth", "negabinary", "five_a", "five_b")]
    cns = [ns for ns, _ in request.getfixturevalue("cns_systems")]
    for ns in golden + list(request.getfixturevalue("random_systems")) + cns:
        lam = 0
        while ns.Q ** (lam + 1) <= (1024 if any(ns is c for c in cns) else 4096):
            lam += 1
        rows = list(numeration.enumerate_N(ns, lam))
        strings = [numeration.expand(ns, n).digit_indices for n in rows]
        for fn, stat in (("sod", numeration.digit_sum(ns)), ("rs", numeration.pair_count(ns))):
            expected = scalar_values(ns, fn, rows)
            assert [automaton_value(stat, t)[1] for t in strings] == expected, (ns, fn)
            assert [stat.read(t) for t in strings] == [automaton_value(stat, t) for t in strings]
            assert list(map(tuple, row_values(ns, fn, lam).tolist())) == expected, (ns, fn)

