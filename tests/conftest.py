"""Shared golden number systems used across the test modules."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from radixion import algebra
from radixion.algebra import MinimalPolynomial
from radixion.errors import RadixionError
from radixion.numeration import NumberSystem

# base -1+i, digits {0, 1}
KNUTH = ("2,2,1", "0,0;1,0")
# base -2, digits {0, 1}
NEGABINARY = ("2,1", "0;1")
# base 1+i, digits {0, 1}: not finitely representable
ONE_PLUS_I = ("2,-2,1", "0,0;1,0")
# base -2+i, digits {0,...,4}
FIVE_A = ("5,4,1", "0,0;1,0;2,0;3,0;4,0")
# base -2+i, digits {0, -2i, 2, 3, 4}; -2i = -4 - 2q
FIVE_B = ("5,4,1", "0,0;-4,-2;2,0;3,0;4,0")


def make_system(spec) -> NumberSystem:
    return NumberSystem.parse(*spec)


def random_system(rng) -> NumberSystem:
    """Seeded random quadratic system: an expanding monic base q and the
    digits r + q*e for r = 0..Q-1, e small and random, 0 kept for r = 0,
    in shuffled order.  Most such digit sets lack the finiteness property.
    """
    while True:
        c0 = int(rng.integers(2, 8)) * int(rng.choice((-1, 1)))
        try:
            poly = MinimalPolynomial((c0, int(rng.integers(-4, 5)), 1))
        except RadixionError:
            continue  # reducible or not expanding
        break
    digits = [(0, 0)]
    for r in range(1, poly.Q):
        e = tuple(int(v) for v in rng.integers(-1, 2, size=2))
        digits.append(algebra.add(poly, (r, 0), algebra.mul_by_q(poly, e)))
    rng.shuffle(digits)
    return NumberSystem(poly, tuple(digits))


def cns_system(rng) -> tuple:
    """Seeded random base with digits 0..c0-1, and its known finiteness answer.

    Two draws in three are quadratics x^2 + Bx + C, finite exactly when
    -1 <= B <= C and C >= 2 (Katai & Kovacs 1980); the rest are cubics and
    quartics with c0 >= c1 >= ... >= 1, finite by Kovacs (1981).  Returns
    (system, answer).
    """
    while True:
        if rng.random() < 2 / 3:
            c0 = int(rng.integers(2, 13))
            coeffs = (c0, int(rng.integers(-3, c0 + 3)), 1)
            answer = -1 <= coeffs[1] <= c0
        else:
            degree = int(rng.integers(3, 5))
            top = 7 if degree == 3 else 3  # keeps the carry closure small
            coeffs = tuple(sorted((int(c) for c in rng.integers(1, top + 1, degree)),
                                  reverse=True)) + (1,)
            answer = True  # c0 = 1 would be a unit, which is not expanding
        try:
            poly = MinimalPolynomial(coeffs)
        except RadixionError:
            continue  # reducible or not expanding
        digits = tuple((r,) + (0,) * (poly.degree - 1) for r in range(coeffs[0]))
        return NumberSystem(poly, digits), answer


@pytest.fixture(scope="session")
def random_systems() -> list:
    rng = np.random.default_rng(2024)
    return [random_system(rng) for _ in range(8)]


@pytest.fixture(scope="session")
def cns_systems() -> list:
    rng = np.random.default_rng(1980)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # quartic irreducibility is not checked
        return [cns_system(rng) for _ in range(40)]


@pytest.fixture(scope="session")
def knuth() -> NumberSystem:
    return make_system(KNUTH)


@pytest.fixture(scope="session")
def negabinary() -> NumberSystem:
    return make_system(NEGABINARY)


@pytest.fixture(scope="session")
def one_plus_i() -> NumberSystem:
    return make_system(ONE_PLUS_I)


@pytest.fixture(scope="session")
def five_a() -> NumberSystem:
    return make_system(FIVE_A)


@pytest.fixture(scope="session")
def five_b() -> NumberSystem:
    return make_system(FIVE_B)


@pytest.fixture(scope="session")
def knuth_poly() -> MinimalPolynomial:
    return MinimalPolynomial.parse("2,2,1")
