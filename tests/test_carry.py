"""Carry automata, spectral carry constants, and digit-window censuses."""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from radixion import algebra, carry, numeration
from radixion.algebra import MinimalPolynomial
from radixion.errors import CapExceeded, UsageError
from radixion.numeration import NumberSystem

CNS_DEMO = MinimalPolynomial((101, 20, 1))


# -------------------------------------------------------------- carry sets


def carry_states(ns):
    return carry.build_automaton(ns).carry_set.states


def test_carry_set_negabinary_order(negabinary):
    assert carry_states(negabinary) == ((0,), (-1,), (1,))


def test_carry_set_sizes(knuth, five_a, five_b, negabinary):
    assert len(carry_states(knuth)) == 15
    assert len(carry_states(five_a)) == 14
    assert len(carry_states(five_b)) == 44
    assert len(carry_states(negabinary)) == 3


def test_carry_set_contains_minus_one_minus_i(knuth):
    assert (-2, -1) in carry_states(knuth)


def test_carry_set_respects_cap(knuth, monkeypatch):
    monkeypatch.setenv("RADIXION_CAP", "4")
    with pytest.raises(CapExceeded):
        carry_states(knuth)


# --------------------------------------------------------------- automaton


def test_automaton_rows_sum_to_digit_count(knuth, five_b):
    for ns in (knuth, five_b):
        aut = carry.build_automaton(ns)
        assert aut.adjacency.sum(axis=1).tolist() == [ns.Q] * len(aut.carry_set.states)


def test_automaton_zero_state_is_absorbing(knuth):
    aut = carry.build_automaton(knuth)
    assert aut.carry_set.states[0] == knuth.zero
    assert aut.adjacency[0, 0] == knuth.Q


def test_automaton_steps_are_strips(knuth, five_b, random_systems):
    for ns in (knuth, five_b, *random_systems[:3]):
        aut = carry.build_automaton(ns)
        states = aut.carry_set.states
        for i, s in enumerate(states):
            for a, b in enumerate(ns.digits):
                succ = numeration.digit_slice(ns, algebra.add(ns.poly, s, b), 1, math.inf)
                assert states[aut.next[i][a]] == succ
        assert aut.adjacency.sum(axis=1).tolist() == [ns.Q] * len(states)


def test_negabinary_transitions(negabinary):
    aut = carry.build_automaton(negabinary)
    states = aut.carry_set.states
    i_neg, i_pos = states.index((-1,)), states.index((1,))
    assert aut.next[i_neg] == (i_pos, 0)
    assert aut.next[i_pos] == (0, i_neg)
    sub = aut.adjacency[1:, 1:]
    assert sub.tolist() == [[0, 1], [1, 0]]


# ---------------------------------------------------------- carry constant


def test_carry_constant_goldens(knuth, five_a, five_b, negabinary):
    assert abs(carry.carry_constant(knuth).eta2 - 0.238186) < 5e-5
    assert abs(carry.carry_constant(five_a).eta2 - 0.195636) < 5e-5
    assert abs(carry.carry_constant(five_b).eta2 - 0.053205) < 5e-5
    assert abs(carry.carry_constant(negabinary).eta2 - 1.0) < 1e-9


def test_carry_constant_invariant_under_digit_relabeling():
    base = carry.carry_constant(NumberSystem.parse("2,2,1", "0,0;1,0"))
    flipped = carry.carry_constant(NumberSystem.parse("2,2,1", "1,0;0,0"))
    assert abs(base.eta2 - flipped.eta2) < 1e-10
    assert base.automaton_size == flipped.automaton_size


def test_dominant_eigenvalue_known_matrices():
    rho, _ = carry.dominant_eigenvalue(np.array([[3]], dtype=float))
    assert abs(rho - 3.0) < 1e-9
    rho, _ = carry.dominant_eigenvalue(np.array([[0, 1], [1, 0]], dtype=float))
    assert abs(rho - 1.0) < 1e-9
    rho, _ = carry.dominant_eigenvalue(np.array([[0, 1], [0, 0]], dtype=float))
    assert rho == 0.0
    rho, _ = carry.dominant_eigenvalue(np.zeros((0, 0)))
    assert rho == 0.0


def test_dominant_eigenvalue_matches_numpy():
    rng = np.random.default_rng(41)
    for _ in range(20):
        a = rng.integers(0, 5, size=(6, 6)).astype(float)
        rho, _ = carry.dominant_eigenvalue(a)
        expected = max(abs(np.linalg.eigvals(a)))
        assert abs(rho - expected) < 1e-6 * (1 + expected)


# ------------------------------------------------------------------ census


def census_scalar_oracle(ns, mu, nu, rho):
    """Literal digit_slice double loop; independent of the vector route."""
    changed = 0
    shifts = [n for n in numeration.enumerate_N(ns, nu - rho) if n != ns.zero]
    for m in numeration.enumerate_N(ns, mu):
        base = numeration.digit_slice(ns, m, nu, math.inf)
        for n in shifts:
            moved = algebra.add(ns.poly, m, n)
            if numeration.digit_slice(ns, moved, nu, math.inf) != base:
                changed += 1
                break
    return changed


def test_census_negabinary_golden(negabinary):
    assert carry.carry_census(negabinary, 2, 2, 0) == 3
    assert carry.carry_census(negabinary, 2, 2, 2) == 0


def test_census_matches_scalar_oracle(knuth, negabinary):
    for rho in range(4):
        assert carry.carry_census(knuth, 5, 4, rho) == census_scalar_oracle(knuth, 5, 4, rho)
    for rho in range(3):
        assert carry.carry_census(negabinary, 4, 3, rho) == census_scalar_oracle(
            negabinary, 4, 3, rho
        )


def test_census_matches_scalar_oracle_five(five_a, five_b):
    for ns in (five_a, five_b):
        for mu, nu, rho in ((4, 4, 1), (4, 3, 0), (5, 4, 2), (4, 4, 3)):
            assert carry.carry_census(ns, mu, nu, rho) == census_scalar_oracle(ns, mu, nu, rho)


def test_census_matches_scalar_oracle_random(random_systems):
    for ns in random_systems:
        for mu, nu, rho in ((3, 3, 1), (3, 2, 1), (4, 4, 3)):
            assert carry.carry_census(ns, mu, nu, rho) == census_scalar_oracle(ns, mu, nu, rho)


def test_census_knuth_frozen_golden(knuth):
    assert carry.carry_census(knuth, 14, 12, 4) == 15604


def test_census_deep_window_is_exact_and_fast(knuth, monkeypatch):
    monkeypatch.setenv("RADIXION_CAP", str(2**350))  # pairs are 2^200 * 2^150
    start = time.perf_counter()
    count = carry.carry_census(knuth, 200, 190, 40)
    assert time.perf_counter() - start < 1.0
    assert type(count) is int
    assert 0 < count < 2**200 and count % 2**10 == 0  # top 10 digits are free


def test_census_validation(knuth, monkeypatch):
    with pytest.raises(UsageError):
        carry.carry_census(knuth, 4, 5, 0)
    with pytest.raises(UsageError):
        carry.carry_census(knuth, 4, 3, -1)
    with pytest.raises(UsageError):
        carry.carry_census(knuth, 4, 3, 4)
    monkeypatch.setenv("RADIXION_CAP", "100")
    with pytest.raises(CapExceeded):
        carry.carry_census(knuth, 5, 4, 0)


# ---------------------------------------------------------- subset graph


def test_subset_graph_hand_computed_table():
    graph = carry.cns_subset_graph(CNS_DEMO)
    label = {frozenset(s): i for i, s in enumerate(graph.states)}
    assert sorted(label, key=lambda s: sorted(s)) is not None
    assert len(graph.states) == 6
    expected_edges = {
        (frozenset({2}), frozenset({0, 1})): 1,
        (frozenset({0, 2}), frozenset({1})): 1,
        (frozenset({1}), frozenset({2})): 81,
        (frozenset({1}), frozenset({0, 1, 2})): 20,
        (frozenset({0, 1}), frozenset({1, 2})): 20,
        (frozenset({0, 1}), frozenset({0, 2})): 81,
        (frozenset({1, 2}), frozenset({2})): 82,
        (frozenset({1, 2}), frozenset({0, 1, 2})): 19,
        (frozenset({0, 1, 2}), frozenset({1, 2})): 19,
        (frozenset({0, 1, 2}), frozenset({0, 2})): 82,
    }
    actual = {}
    for i, src in enumerate(graph.states):
        for j, dst in enumerate(graph.states):
            w = int(graph.weights[i, j])
            if w:
                actual[(frozenset(src), frozenset(dst))] = w
    assert actual == expected_edges


def test_subset_graph_warns_on_unordered_coefficients():
    with pytest.warns(UserWarning):
        carry.cns_subset_graph(MinimalPolynomial((2, 2, 1)))


# ------------------------------------------------------- collapsed graph


def test_collapsed_demo_values():
    col = carry.cns_collapsed(CNS_DEMO)
    assert col.alphas == (326, 200)
    assert col.betas == (78, 2)
    assert abs(col.lam - (78 + math.sqrt(8692)) / 2) < 1e-9
    assert abs(col.lam - 85.6155) < 1e-3
    assert abs(col.eta_bound - (1 - math.log(col.lam) / math.log(101))) < 1e-12


def test_collapsed_characteristic_root():
    col = carry.cns_collapsed(CNS_DEMO)
    # P(x) = x^2 - beta1 x - alpha1 beta2
    value = col.lam**2 - 78 * col.lam - 326 * 2
    assert abs(value) < 1e-9 * max(1.0, col.lam**2)


def test_collapsed_degree_one():
    col = carry.cns_collapsed(MinimalPolynomial((10, 1)))
    assert col.alphas == (18,)
    assert col.betas == (2,)
    assert abs(col.lam - 2.0) < 1e-12
    assert abs(col.eta_bound - (1 - math.log(2) / math.log(10))) < 1e-12


def test_subset_dominant_below_collapsed_root():
    for m in (5, 10, 20):
        poly = carry.gaussian_family(m)
        assert carry.cns_subset_graph(poly).dominant_eigenvalue() <= (
            carry.cns_collapsed(poly).lam + 1e-6
        )


# ------------------------------------------------------------ CNS family


def test_gaussian_family_polynomials():
    assert carry.gaussian_family(1) == MinimalPolynomial((2, 2, 1))
    assert carry.gaussian_family(10) == MinimalPolynomial((101, 20, 1))
    with pytest.raises(UsageError):
        carry.gaussian_family(0)


def test_family_eta_bound_grows():
    bounds = [carry.cns_collapsed(carry.gaussian_family(m)).eta_bound for m in (10, 100, 1000)]
    assert bounds == sorted(bounds)
    assert bounds[0] > 0
