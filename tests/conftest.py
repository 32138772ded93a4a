"""Shared golden number systems used across the test modules."""

from __future__ import annotations

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


@pytest.fixture(scope="session")
def random_systems() -> list:
    rng = np.random.default_rng(2024)
    return [random_system(rng) for _ in range(8)]


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
