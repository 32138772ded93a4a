"""Vectorized tables over the length-bounded element sets N_lambda.

Rows follow the canonical enumeration order of numeration.enumerate_N:
row i holds the element whose digit index in position j is
(i // Q^j) % Q, so a fixed block of top digits is one contiguous row
range.  Tables are assembled by a meet-in-the-middle merge of two
half-length tables, which also carries the digit statistics (digit sum,
adjacent nonzero pairs) without re-expanding any element.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algebra
from .caps import ENUM_CAP, effective_cap
from .errors import CapExceeded
from .numeration import NumberSystem

INT64_GUARD = 1 << 60


def _int_matmul(a, b):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def q_power_matrix(m: algebra.MinimalPolynomial, k: int) -> np.ndarray:
    """Exact int64 matrix of multiplication by q^k over the power basis."""
    d = m.degree
    acc = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    base = [list(row) for row in algebra.mult_matrix(m, algebra.q_element(m))]
    for _ in range(k):
        acc = _int_matmul(acc, base)
    if any(abs(v) >= INT64_GUARD for row in acc for v in row):
        raise CapExceeded("power matrix q^%d overflows the int64 budget" % k)
    return np.array(acc, dtype=np.int64)


def u_matrix(m: algebra.MinimalPolynomial) -> np.ndarray:
    """int64 matrix of multiplication by the cofactor u (q*u = c_0)."""
    return np.array(algebra.mult_matrix(m, algebra.u_element(m)), dtype=np.int64)


@dataclass(frozen=True)
class DigitTable:
    """Digit-string statistics for every element of N_lam, row-aligned."""

    lam: int
    coords: np.ndarray  # (Q^lam, d) element values
    s_coords: np.ndarray  # (Q^lam, d) digit-sum elements
    r: np.ndarray  # (Q^lam,) adjacent nonzero-digit pair counts
    low_nz: np.ndarray  # (Q^lam,) digit in position 0 is nonzero
    top_nz: np.ndarray  # (Q^lam,) digit in position lam-1 is nonzero


def digit_table(ns: NumberSystem, lam: int) -> DigitTable:
    total = ns.Q**lam
    if total > effective_cap(ENUM_CAP):
        raise CapExceeded(
            "table of %d elements exceeds cap %d" % (total, effective_cap(ENUM_CAP))
        )
    return _build_table(ns, lam)


def _base_table(ns: NumberSystem, lam: int) -> DigitTable:
    d = ns.degree
    if lam == 0:
        zero = np.zeros((1, d), dtype=np.int64)
        off = np.zeros(1, dtype=bool)
        return DigitTable(0, zero, zero.copy(), np.zeros(1, np.int64), off, off.copy())
    digits = np.array(ns.digits, dtype=np.int64)
    nz = digits.astype(bool).any(axis=1)
    return DigitTable(
        1, digits, digits.copy(), np.zeros(len(digits), np.int64), nz, nz.copy()
    )


def _build_table(ns: NumberSystem, lam: int) -> DigitTable:
    if lam <= 1:
        return _base_table(ns, lam)
    low = _build_table(ns, lam // 2)
    high = _build_table(ns, lam - lam // 2)
    return _combine(ns, low, high)


def _combine(ns: NumberSystem, low: DigitTable, high: DigitTable) -> DigitTable:
    shift = q_power_matrix(ns.poly, low.lam)
    n_low = len(low.r)
    n_high = len(high.r)
    coords = np.repeat(high.coords @ shift.T, n_low, axis=0)
    coords += np.tile(low.coords, (n_high, 1))
    s_coords = np.repeat(high.s_coords, n_low, axis=0)
    s_coords += np.tile(low.s_coords, (n_high, 1))
    # the only new adjacent pair straddles the seam between the halves
    seam = np.repeat(high.low_nz, n_low) & np.tile(low.top_nz, n_high)
    r = np.repeat(high.r, n_low) + np.tile(low.r, n_high) + seam
    return DigitTable(
        low.lam + high.lam,
        coords,
        s_coords,
        r,
        np.tile(low.low_nz, n_high),
        np.repeat(high.top_nz, n_low),
    )

