"""Vectorized tables over the length-bounded element sets N_lambda.

Row i of N_lambda holds the element whose digit index in position j is
(i // Q^j) % Q, so a fixed block of top digits is one contiguous row
range.  row_blocks is the one enumeration: it yields the rows in blocks
of ROW_BLOCK from one low table of the bottom positions (at most
ROW_BLOCK rows) plus q^low times the rows of the top positions.  That is
exact integer arithmetic, so every split gives the same rows; the tile
cloud walks the same split (split_tables, row_segments).  ROW_BLOCK is the
one block size of every streamed stage, and no artifact depends on it.
The two tables are built by a meet-in-the-middle merge of shorter tables,
which also carries the digit statistics (digit sum, adjacent nonzero
pairs) without re-expanding any element.  strip_columns is backward
division on whole int64 coordinate columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import algebra
from .caps import ENUM_CAP, effective_cap
from .errors import CapExceeded, UsageError

if TYPE_CHECKING:
    from .numeration import NumberSystem

INT64_GUARD = 1 << 60
ROW_BLOCK = 1 << 16  # rows per streamed block, and most rows in the low table


def q_power_matrix(m: algebra.MinimalPolynomial, k: int) -> np.ndarray:
    """Exact int64 matrix of multiplication by q^k over the power basis."""
    acc = algebra.mult_matrix(m, algebra.q_power(m, k))
    if any(abs(v) >= INT64_GUARD for row in acc for v in row):
        raise CapExceeded("power matrix q^%d overflows the int64 budget" % k)
    return np.array(acc, dtype=np.int64)


def u_matrix(m: algebra.MinimalPolynomial) -> np.ndarray:
    """int64 matrix of multiplication by the cofactor u (q*u = c_0)."""
    return np.array(algebra.mult_matrix(m, algebra.u_element(m)), dtype=np.int64)


def strip_columns(ns: NumberSystem, cols) -> list:
    """Array form of numeration._strip_one: the d int64 columns of (n - b)/q
    from those of n.  With n_0 = Q s + r and b the digit of class r, y_0 / c_0
    is sign(c_0) (s + (r - b_0)/Q); digits (r, 0, ..., 0) need no residue."""
    c, sign = ns.poly.coeffs, (1 if ns.poly.coeffs[0] > 0 else -1)
    digits = np.array([ns.digits[t] for t in ns.residue_digit], dtype=np.int64)
    offset = (np.arange(ns.Q) - digits[:, 0]) // ns.Q
    s = cols[0] // ns.Q
    if offset.any() or digits[:, 1:].any():
        r = cols[0] - ns.Q * s  # np.divmod is many times slower than the two steps
        s += offset[r]  # y_0 / Q
    out = []
    for i in range(1, ns.degree):
        col = cols[i] - sign * c[i] * s if c[i] else cols[i]
        out.append(col - digits[r, i] if digits[:, i].any() else col)
    out.append(s if sign < 0 else -s)
    return out


def coordinate_ranges(ns: NumberSystem, lam: int) -> tuple:
    """Exact (lo, hi) lists per coordinate over N_lam: each position takes
    every digit, so coordinate i spans the sum over positions j of
    [min_b, max_b] of coordinate i of q^j b, both ends attained."""
    lo, hi = [0] * ns.degree, [0] * ns.degree
    layer = ns.digits
    for _ in range(lam):
        lo = [v + min(b[i] for b in layer) for i, v in enumerate(lo)]
        hi = [v + max(b[i] for b in layer) for i, v in enumerate(hi)]
        layer = [algebra.mul_by_q(ns.poly, b) for b in layer]
    return lo, hi


def block_ranges(total: int, size: int) -> list:
    """[start, stop) ranges of at most `size` rows covering range(total)."""
    return [(start, min(start + size, total)) for start in range(0, total, size)]


@dataclass(frozen=True)
class DigitTable:
    """Digit-string statistics for rows of N_lam, row-aligned."""

    lam: int
    coords: np.ndarray  # (rows, d) element values
    s_coords: np.ndarray  # (rows, d) digit-sum elements
    r: np.ndarray  # (rows,) adjacent nonzero-digit pair counts
    low_nz: np.ndarray  # (rows,) digit in position 0 is nonzero
    top_nz: np.ndarray  # (rows,) digit in position lam-1 is nonzero


def row_blocks(ns: NumberSystem, lam: int):
    """The rows of N_lam in order, in blocks of ROW_BLOCK rows (the last may
    be shorter), as a generator of DigitTables.  The cap (in elements) and
    the int64 range of the coordinates are checked first."""
    low, high, offsets = split_tables(ns, lam)
    return (_combine(low, high, offsets, start, stop)
            for start, stop in block_ranges(ns.Q**lam, ROW_BLOCK))


def split_tables(ns: NumberSystem, lam: int) -> tuple:
    """(low, high, offsets) behind row_blocks: row h * |low| + l of N_lam is
    low row l plus offsets[h], the value of high row h shifted up by low.lam
    positions (see row_segments).  The cap (in elements) and the int64 range
    of the coordinates are checked before either table is built."""
    if lam < 0:
        raise UsageError("expansion length must be nonnegative")
    total = ns.Q**lam
    if total > effective_cap(ENUM_CAP):
        raise CapExceeded(
            "table of %d elements exceeds cap %d" % (total, effective_cap(ENUM_CAP))
        )
    widest = max(max(-a, b) for a, b in zip(*coordinate_ranges(ns, lam)))
    if widest >= INT64_GUARD:
        raise CapExceeded("coordinates of N_%d reach %d, beyond the int64 budget" % (lam, widest))
    positions = 0  # in the low table: the most, up to lam, within ROW_BLOCK rows
    while positions < lam and ns.Q ** (positions + 1) <= ROW_BLOCK:
        positions += 1
    low = _build_table(ns, positions)
    high = _build_table(ns, lam - low.lam)
    return low, high, high.coords @ q_power_matrix(ns.poly, low.lam).T


def row_segments(n_low: int, start: int, stop: int):
    """(h, src, dst) per high row h met by the rows [start, stop) of a split
    with n_low low rows: the rows h * n_low + l, l in the slice src, go to
    the slice dst of a [start, stop) block."""
    pos = 0
    for h in range(start // n_low, -(-stop // n_low)):
        a, b = max(start - h * n_low, 0), min(stop - h * n_low, n_low)
        yield h, slice(a, b), slice(pos, pos + b - a)
        pos += b - a


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
    low, high = _build_table(ns, lam - lam // 2), _build_table(ns, lam // 2)
    offsets = high.coords @ q_power_matrix(ns.poly, low.lam).T
    return _combine(low, high, offsets, 0, len(low.r) * len(high.r))


def _combine(low: DigitTable, high: DigitTable, offsets, start: int, stop: int) -> DigitTable:
    """Rows [start, stop) of high over low (row_segments)."""
    n = max(stop - start, 0)
    coords = np.empty((n, low.coords.shape[1]), np.int64)
    s_coords = np.empty_like(coords)
    r = np.empty(n, np.int64)
    low_nz, top_nz = np.empty(n, bool), np.empty(n, bool)
    for h, src, out in row_segments(len(low.r), start, stop):
        for k in range(coords.shape[1]):  # column by column: a short row broadcasts slowly
            np.add(low.coords[src, k], offsets[h, k], out=coords[out, k])
            np.add(low.s_coords[src, k], high.s_coords[h, k], out=s_coords[out, k])
        np.add(low.r[src], high.r[h], out=r[out])
        if high.low_nz[h]:  # the only new adjacent pair straddles the seam
            r[out] += low.top_nz[src]
        low_nz[out] = low.low_nz[src] if low.lam else high.low_nz[h]
        top_nz[out] = high.top_nz[h] if high.lam else low.top_nz[src]
    return DigitTable(low.lam + high.lam, coords, s_coords, r, low_nz, top_nz)


def count_rows(ns: NumberSystem, lam: int) -> tuple:
    """(rows, distinct elements) of N_lam: each row is encoded as one int64
    key over the box of its exact coordinate ranges, and the keys sorted."""
    lo, hi = coordinate_ranges(ns, lam)
    place = [1]
    for a, b in zip(lo[:0:-1], hi[:0:-1]):
        place.insert(0, place[0] * (b - a + 1))
    span = place[0] * (hi[0] - lo[0] + 1)
    if span >= INT64_GUARD:
        raise CapExceeded("row keys of N_%d span %d values, beyond the int64 budget" % (lam, span))
    keys = np.concatenate([(b.coords - lo) @ place for b in row_blocks(ns, lam)])
    keys.sort()
    return len(keys), int(np.count_nonzero(np.diff(keys))) + 1
