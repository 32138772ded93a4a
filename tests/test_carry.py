"""Carry automata, spectral carry constants, and digit-window censuses."""

from __future__ import annotations

import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from oracles import census_scalar_oracle, charpoly, digit_slice, sturm_chain

from radixion import algebra, carry
from radixion.algebra import MinimalPolynomial
from radixion.errors import CapExceeded, ConvergenceError, DomainError, UsageError
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


def adjacency(aut):
    """A[s][s'] = #{digits a : s ->a s'}, counted from the transition table."""
    n = len(aut.next)
    a = np.zeros((n, n), dtype=np.int64)
    for i, row in enumerate(aut.next):
        for j in row:
            a[i, j] += 1
    return a


def test_automaton_rows_sum_to_digit_count(knuth, five_b):
    for ns in (knuth, five_b):
        aut = carry.build_automaton(ns)
        assert adjacency(aut).sum(axis=1).tolist() == [ns.Q] * len(aut.carry_set.states)


def test_automaton_zero_state_is_absorbing(knuth):
    aut = carry.build_automaton(knuth)
    assert aut.carry_set.states[0] == knuth.zero
    assert adjacency(aut)[0, 0] == knuth.Q


def test_automaton_steps_are_strips(knuth, five_b, random_systems):
    for ns in (knuth, five_b, *random_systems[:3]):
        aut = carry.build_automaton(ns)
        states = aut.carry_set.states
        for i, s in enumerate(states):
            for a, b in enumerate(ns.digits):
                succ = digit_slice(ns, algebra.add(ns.poly, s, b), 1, math.inf)
                assert states[aut.next[i][a]] == succ
        assert adjacency(aut).sum(axis=1).tolist() == [ns.Q] * len(states)


def test_negabinary_transitions(negabinary):
    aut = carry.build_automaton(negabinary)
    states = aut.carry_set.states
    i_neg, i_pos = states.index((-1,)), states.index((1,))
    assert aut.next[i_neg] == (i_pos, 0)
    assert aut.next[i_pos] == (0, i_neg)
    sub = adjacency(aut)[1:, 1:]
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


def successor_lists(a):
    """Weighted successor lists of a nonnegative integer matrix."""
    return [[(j, int(w)) for j, w in enumerate(row) if w] for row in a]


def test_perron_radius_known_graphs():
    assert carry.perron_radius([[(0, 3)]]) == (3.0, 1)
    rho, _ = carry.perron_radius([[(1, 1)], [(0, 1)]])  # a 2-cycle: periodic
    assert rho == 1.0
    assert carry.perron_radius([[(1, 1)], []]) == (0.0, 0)  # nilpotent
    assert carry.perron_radius([]) == (0.0, 0)
    # reducible: on the whole graph the bracket would stay at [1, 2]
    rho, _ = carry.perron_radius([[(0, 2), (1, 1)], [(1, 1)]])
    assert rho == 2.0


def test_perron_radius_names_an_open_bracket(monkeypatch):
    monkeypatch.setattr(carry, "POWER_MAX_ITER", 1)
    with pytest.raises(ConvergenceError, match=r"\[.*, .*\] still open"):
        carry.perron_radius(successor_lists([[1, 2], [3, 1]]))


def test_perron_radius_closes_a_bracket_stalled_at_float_resolution(monkeypatch):
    # at BRACKET_WIDTH 0 no bracket closes by its width; each stops narrowing
    # a few ulp wide, within STALL_WIDTH, and is closed once 6 iterations
    # (the states) pass without narrowing; at STALL_WIDTH 0 it raises at once
    monkeypatch.setattr(carry, "BRACKET_WIDTH", 0.0)
    rng = np.random.default_rng(41)
    graphs = [rng.integers(0, 5, size=(6, 6)) for _ in range(5)]
    for a in graphs:
        rho, iterations = carry.perron_radius(successor_lists(a))
        expected = max(abs(np.linalg.eigvals(a.astype(float))))
        assert abs(rho - expected) < 1e-12 * (1 + expected) and iterations < 50
    monkeypatch.setattr(carry, "STALL_WIDTH", 0.0)
    with pytest.raises(ConvergenceError, match=r"\[.*, .*\] stopped narrowing after [1-4]\d "):
        carry.perron_radius(successor_lists(graphs[0]))


def test_perron_radius_matches_numpy():
    rng = np.random.default_rng(41)
    for _ in range(20):
        a = rng.integers(0, 5, size=(6, 6))
        rho, _ = carry.perron_radius(successor_lists(a))
        expected = max(abs(np.linalg.eigvals(a.astype(float))))
        assert abs(rho - expected) < 1e-12 * (1 + expected)


# ------------------------------------------------------------------ census


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
        for j, w in graph.successors[i]:
            actual[(frozenset(src), frozenset(graph.states[j]))] = w
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


# ------------------------------------------------------------ exact oracle


def sign_at(p, x: Fraction) -> int:
    """Sign of p(x): the integer d^deg p(n/d) has it, as d > 0."""
    acc, scale = 0, 1
    for c in p:
        acc = acc * x.numerator + c * scale
        scale *= x.denominator
    return (acc > 0) - (acc < 0)


def largest_real_root(p, rel=Fraction(1, 10**15)) -> Fraction:
    """Bisection on the Sturm count of the roots above a point, in Fractions;
    p is monic with a real root in [0, 1 + max |c|] (a Perron root)."""
    chain = sturm_chain(p)

    def changes(x):
        signs = [s for s in (sign_at(q, x) for q in chain) if s]
        return sum(u != v for u, v in zip(signs, signs[1:]))

    lo, hi = Fraction(0), Fraction(1 + max(abs(c) for c in p[1:]))
    above_hi = changes(hi)  # every root lies at or below hi
    while hi - lo > rel * hi:
        mid = (lo + hi) / 2
        if sign_at(p, mid) == 0 or changes(mid) > above_hi:
            lo = mid  # a root at or above mid
        else:
            hi = mid
    return (lo + hi) / 2


def automaton_successors(ns) -> list:
    """The automaton without its zero state, as weighted successor lists."""
    aut = carry.build_automaton(ns)
    return [sorted(Counter(j - 1 for j in row if j).items()) for row in aut.next[1:]]


def test_oracle_on_knuth(knuth):
    # det(xI - A) = x^8 (x^3 - x^2 - 2)(x^3 + x^2 - 2)
    assert charpoly(automaton_successors(knuth)) == [1, 0, -1, -4, 0, 0, 4] + [0] * 8
    root = largest_real_root([1, -1, 0, -2])
    assert abs(root - Fraction("1.695620769559862")) < 1e-15


def test_carry_constant_matches_exact_oracle(knuth, five_a, five_b, one_plus_i):
    for ns in (knuth, five_a, five_b, one_plus_i):
        exact = float(largest_real_root(charpoly(automaton_successors(ns))))
        report = carry.carry_constant(ns)
        assert abs(report.spectral_radius - exact) <= 1e-12 * exact
        assert abs(report.eta2 - (1 - math.log(exact) / math.log(ns.Q))) <= 1e-12


def test_cns_roots_match_exact_oracle():
    for m in (5, 10, 20):
        graph = carry.cns_subset_graph(carry.gaussian_family(m))
        exact = float(largest_real_root(charpoly(graph.successors)))
        assert abs(graph.dominant_eigenvalue() - exact) <= 1e-12 * exact
    for m in (5, 10, 20, 100, 1000, 10000):
        col = carry.cns_collapsed(carry.gaussian_family(m))
        weights = (col.betas[0], col.alphas[0] * col.betas[1])
        exact = float(largest_real_root([1, -weights[0], -weights[1]]))
        assert abs(col.lam - exact) <= 1e-12 * exact


def test_carry_constant_matches_numpy(random_systems, cns_systems):
    for ns in [*random_systems, *(ns for ns, _ in cns_systems)]:
        a = adjacency(carry.build_automaton(ns))[1:, 1:].astype(float)
        expected = max(abs(np.linalg.eigvals(a)), default=0.0)
        assert abs(carry.carry_constant(ns).spectral_radius - expected) <= 1e-12 * expected


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
