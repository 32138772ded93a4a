"""Vectorized digit tables against the scalar operations they replace."""

from __future__ import annotations

import numpy as np
import pytest

from radixion import algebra, bulk, numeration
from radixion.errors import CapExceeded
from radixion.numeration import Expansion


def scalar_row(ns, index, lam):
    """Independent scalar route for one digit string of length lam."""
    Q = ns.Q
    indices = [(index // Q**j) % Q for j in range(lam)]
    value = numeration.evaluate(ns, Expansion(tuple(indices)))
    s = ns.zero
    for t in indices:
        s = algebra.add(ns.poly, s, ns.digits[t])
    r = sum(
        1
        for a, b in zip(indices, indices[1:])
        if ns.digit_is_nonzero[a] and ns.digit_is_nonzero[b]
    )
    low_nz = lam > 0 and ns.digit_is_nonzero[indices[0]]
    top_nz = lam > 0 and ns.digit_is_nonzero[indices[-1]]
    return value, s, r, low_nz, top_nz


@pytest.mark.parametrize("lam", [0, 1, 2, 5])
def test_digit_table_matches_scalar_route(knuth, lam):
    table = bulk.digit_table(knuth, lam)
    assert len(table.coords) == 2**lam
    for i in range(2**lam):
        value, s, r, low_nz, top_nz = scalar_row(knuth, i, lam)
        assert tuple(table.coords[i]) == value
        assert tuple(table.s_coords[i]) == s
        assert table.r[i] == r
        assert bool(table.low_nz[i]) == low_nz
        assert bool(table.top_nz[i]) == top_nz


def test_digit_table_matches_scalar_route_nonbinary(five_b):
    lam = 3
    table = bulk.digit_table(five_b, lam)
    for i in range(5**lam):
        value, s, r, low_nz, top_nz = scalar_row(five_b, i, lam)
        assert tuple(table.coords[i]) == value
        assert tuple(table.s_coords[i]) == s
        assert table.r[i] == r


def test_digit_table_agrees_with_enumerate(knuth):
    table = bulk.digit_table(knuth, 8)
    stream = list(numeration.enumerate_N(knuth, 8))
    assert [tuple(row) for row in table.coords] == stream


def test_q_power_matrix_is_multiplication(knuth_poly):
    rng = np.random.default_rng(37)
    for k in range(6):
        mat = bulk.q_power_matrix(knuth_poly, k)
        qk = algebra.q_power(knuth_poly, k)
        for _ in range(50):
            x = tuple(int(v) for v in rng.integers(-9, 10, 2))
            assert tuple(np.array(x) @ mat.T) == algebra.mul(knuth_poly, qk, x)


def test_q_power_matrix_overflow_guard(knuth_poly):
    with pytest.raises(CapExceeded):
        bulk.q_power_matrix(knuth_poly, 130)


def test_u_matrix_is_multiplication(knuth_poly):
    mat = bulk.u_matrix(knuth_poly)
    u = algebra.u_element(knuth_poly)
    for x in ((1, 0), (0, 1), (3, -2)):
        assert tuple(np.array(x) @ mat.T) == algebra.mul(knuth_poly, u, x)

