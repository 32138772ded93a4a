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
which also carries the digit statistics a caller asks for (digit sum,
adjacent nonzero pairs) without re-expanding any element.  The prime
pass (prime_blocks) streams the same blocks through buffers allocated
once and classifies each row by one lookup of its norm in norm_table, or,
when that table would outweigh the rows, by its own primality test.
strip_columns is backward division on whole int64 coordinate columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import algebra
from .caps import ENUM_CAP, effective_cap
from .errors import CapExceeded, DomainError, UsageError

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


STATS = ("sod", "rs")  # the digit statistics a table can carry


@dataclass(frozen=True)
class DigitTable:
    """Digit-string statistics for rows of N_lam, row-aligned.  Only the
    columns of the statistics asked for are built; the others are None."""

    lam: int
    coords: np.ndarray  # (rows, d) element values
    s_coords: np.ndarray | None  # (rows, d) digit-sum elements ('sod')
    r: np.ndarray | None  # (rows,) adjacent nonzero-digit pair counts ('rs')
    low_nz: np.ndarray | None  # (rows,) digit in position 0 is nonzero ('rs')
    top_nz: np.ndarray | None  # (rows,) digit in position lam-1 is nonzero ('rs')


def row_blocks(ns: NumberSystem, lam: int, stats=STATS):
    """The rows of N_lam in order, in blocks of ROW_BLOCK rows (the last may
    be shorter), as a generator of DigitTables carrying `stats`.  The cap (in
    elements) and the int64 range of the coordinates are checked first."""
    low, high, offsets = split_tables(ns, lam, stats)
    return (_combine(low, high, offsets, start, stop)
            for start, stop in block_ranges(ns.Q**lam, ROW_BLOCK))


def split_tables(ns: NumberSystem, lam: int, stats=STATS) -> tuple:
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
    low = _build_table(ns, positions, stats)
    high = _build_table(ns, lam - low.lam, stats)
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


def _empty_table(lam: int, rows: int, d: int, stats, order: str = "C") -> DigitTable:
    sod, rs = "sod" in stats, "rs" in stats
    return DigitTable(lam, np.empty((rows, d), np.int64, order=order),
                      np.empty((rows, d), np.int64, order=order) if sod else None,
                      np.empty(rows, np.int64) if rs else None,
                      np.empty(rows, bool) if rs else None,
                      np.empty(rows, bool) if rs else None)


def _base_table(ns: NumberSystem, lam: int, stats) -> DigitTable:
    table = _empty_table(lam, ns.Q**lam, ns.degree, stats)
    table.coords[:] = ns.digits if lam else 0
    if table.s_coords is not None:
        table.s_coords[:] = table.coords
    if table.r is not None:
        table.r[:] = 0
        table.low_nz[:] = table.top_nz[:] = table.coords.any(axis=1)
    return table


def _build_table(ns: NumberSystem, lam: int, stats) -> DigitTable:
    if lam <= 1:
        return _base_table(ns, lam, stats)
    low, high = _build_table(ns, lam - lam // 2, stats), _build_table(ns, lam // 2, stats)
    offsets = high.coords @ q_power_matrix(ns.poly, low.lam).T
    return _combine(low, high, offsets, 0, len(low.coords) * len(high.coords))


def _combine(low: DigitTable, high: DigitTable, offsets, start: int, stop: int,
             out: DigitTable | None = None) -> DigitTable:
    """Rows [start, stop) of high over low (row_segments), with the columns
    low carries: new arrays, or views of the first rows of `out`."""
    n = max(stop - start, 0)
    if out is None:
        stats = [k for k, col in (("sod", low.s_coords), ("rs", low.r)) if col is not None]
        out = _empty_table(0, n, low.coords.shape[1], stats)
    coords, s_coords, r, low_nz, top_nz = (
        None if col is None else col[:n]
        for col in (out.coords, out.s_coords, out.r, out.low_nz, out.top_nz))
    for h, src, dst in row_segments(len(low.coords), start, stop):
        for k in range(coords.shape[1]):  # column by column: a short row broadcasts slowly
            np.add(low.coords[src, k], offsets[h, k], out=coords[dst, k])
            if s_coords is not None:
                np.add(low.s_coords[src, k], high.s_coords[h, k], out=s_coords[dst, k])
        if r is not None:
            np.add(low.r[src], high.r[h], out=r[dst])
            if high.low_nz[h]:  # the only new adjacent pair straddles the seam
                r[dst] += low.top_nz[src]
            low_nz[dst] = low.low_nz[src] if low.lam else high.low_nz[h]
            top_nz[dst] = high.top_nz[h] if high.lam else low.top_nz[src]
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
    keys = np.concatenate([(b.coords - lo) @ place for b in row_blocks(ns, lam, ())])
    keys.sort()
    return len(keys), int(np.count_nonzero(np.diff(keys))) + 1


# ------------------------------------------------------------ the prime pass

NORM_DIRECTIONS = 64  # support directions behind the norm table's bound
PRIME, INERT = 1, 2  # marks of norm_table


def _norm_bound(ns: NumberSystem, lam: int) -> int:
    """An upper bound on |N(n)| over N_lam, within 0.5% of the maximum for
    a complex quadratic base.  |N(n)| is the product over the embeddings
    sigma of |sigma(n)|; the largest |sigma(n)| is the support of
    sigma(N_lam) in its best direction, the sum over positions j of the
    best term sigma(q^j b).  K directions miss it by at most pi / K."""
    directions = np.exp(-2j * math.pi * np.arange(NORM_DIRECTIONS) / NORM_DIRECTIONS)
    bound = 1.0
    for z in ns.poly.embeddings().roots:
        terms = np.array([[algebra._poly_eval(b, z) * z**j for b in ns.digits]
                          for j in range(lam)])
        support = (terms.reshape(lam, ns.Q, 1) * directions).real.max(axis=1).sum(axis=0)
        bound *= max(float(support.max()), 0.0) / math.cos(math.pi / NORM_DIRECTIONS)
    return int(bound * (1 + 1e-9)) + 1


def _prime_sieve(n: int) -> np.ndarray:
    """uint8 table over 0..n: PRIME at the primes, 0 elsewhere."""
    sieve = np.ones(n + 1, dtype=np.uint8)
    sieve[: min(2, n + 1)] = 0
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = 0
    return sieve


def _is_inert(c0: int, c1: int, ell: int) -> bool:
    """Whether x^2 + c1 x + c0 has no root mod the prime ell: for odd ell, by
    Euler's criterion on the discriminant (a root exists exactly when it is
    a square mod ell, zero included); for ell = 2, when c0 and c1 are odd."""
    if ell == 2:
        return c0 % 2 == 1 and c1 % 2 == 1
    return pow(c1 * c1 - 4 * c0, (ell - 1) // 2, ell) == ell - 1


def _norm_top(ns: NumberSystem, lam: int) -> int:
    """The top of norm_table, a bound on |N(n)| over N_lam, once the degree
    is supported and the int64 norm a^2 - c1 ab + c0 b^2 cannot wrap over
    the coordinate ranges of N_lam."""
    if ns.degree > 2:
        raise UsageError("prime enumeration supports degree <= 2 only")
    lo, hi = coordinate_ranges(ns, lam)
    widest = a = max(-lo[0], hi[0])
    if ns.degree == 2:
        c, b = ns.poly.coeffs, max(-lo[1], hi[1])
        widest = a * a + abs(c[1]) * a * b + abs(c[0]) * b * b
    if widest >= INT64_GUARD:
        raise DomainError("norms over lambda %d can reach %d, beyond the int64 budget"
                          % (lam, widest))
    return _norm_bound(ns, lam)


def norm_table(ns: NumberSystem, lam: int) -> np.ndarray:
    """One uint8 table over 0.._norm_top that classifies every row of N_lam:
    PRIME at a prime norm (a prime element), INERT at ell^2 for each prime ell
    inert in a quadratic ring (an element of norm ell^2 is then ell times a
    unit, so prime), 0 elsewhere.  Checked before allocation: the int64 norm
    (_norm_top), and the table's bytes, against the cap at the 8 * d bytes of
    a table row's coordinates."""
    top = _norm_top(ns, lam)
    if top + 1 > effective_cap(ENUM_CAP) * 8 * ns.degree:
        raise CapExceeded("prime sieve of %d bytes for lambda %d exceeds the memory of a %d-element"
                          " table" % (top + 1, lam, effective_cap(ENUM_CAP)))
    table = _prime_sieve(top)
    if ns.degree == 2:
        _mark_inert(table, *ns.poly.coeffs[:2])
    return table


def _mark_inert(table: np.ndarray, c0: int, c1: int) -> None:
    """Set INERT at ell^2 in a _prime_sieve table, for each prime ell with
    ell^2 in range at which x^2 + c1 x + c0 has no root."""
    for ell in np.flatnonzero(table[: math.isqrt(len(table) - 1) + 1]).tolist():
        if _is_inert(c0, c1, ell):
            table[ell * ell] = INERT


def prime_mask(ns: NumberSystem, coords, table: np.ndarray | None, work=None) -> np.ndarray:
    """Prime verdicts (split or inert) for rows of int64 coordinates: one
    lookup of |N(n)| in `table` (norm_table), which must reach every norm of
    these rows, or with table None the scalar analysis.is_prime_element of
    each row.  `work` is an optional (int64, int64, uint8, bool) tuple of
    buffers of len(coords) rows; the mask is the last of them."""
    if ns.degree > 2:
        raise UsageError("prime enumeration supports degree <= 2 only")
    coords = np.asarray(coords, dtype=np.int64)
    n = len(coords)
    norm, tmp, marks, mask = work or (np.empty(n, np.int64), np.empty(n, np.int64),
                                      np.empty(n, np.uint8), np.empty(n, bool))
    if table is None:
        from .analysis import PRIME_KINDS, is_prime_element
        mask[:] = [is_prime_element(ns, row).kind in PRIME_KINDS for row in coords.tolist()]
        return mask
    a = coords[:, 0]
    if ns.degree == 1:
        np.abs(a, out=norm)
    else:
        b, (c0, c1) = coords[:, 1], ns.poly.coeffs[:2]
        np.multiply(a, a, out=norm)  # |a^2 - c1 ab + c0 b^2|
        if c1:
            np.multiply(a, b, out=tmp)
            tmp *= c1
            norm -= tmp
        np.multiply(b, b, out=tmp)
        tmp *= c0
        norm += tmp
        np.abs(norm, out=norm)
    np.take(table, norm, out=marks)
    return np.not_equal(marks, 0, out=mask)


def prime_blocks(ns: NumberSystem, lam: int, stats=()):
    """(block, mask) per row block of N_lam, in order: the DigitTable of the
    block, carrying `stats`, and its prime rows.  Both are views of buffers
    allocated once for the pass, overwritten by the next block.  The element
    cap, the coordinate range and the norm bound are checked when called.
    A norm table that would take more bytes than the 8 * d of each row's
    coordinates is not built: each row is then classified by its own
    primality test (prime_mask with table None)."""
    low, high, offsets = split_tables(ns, lam, stats)
    table = norm_table(ns, lam) if _norm_top(ns, lam) + 1 <= 8 * ns.degree * ns.Q**lam else None
    return _prime_pass(ns, lam, stats, low, high, offsets, table)


def _prime_pass(ns, lam, stats, low, high, offsets, table):
    total = ns.Q**lam
    rows = min(ROW_BLOCK, total)
    buf = _empty_table(lam, rows, ns.degree, stats, order="F")  # contiguous columns
    work = (np.empty(rows, np.int64), np.empty(rows, np.int64), np.empty(rows, np.uint8),
            np.empty(rows, bool))
    for start, stop in block_ranges(total, ROW_BLOCK):
        block = _combine(low, high, offsets, start, stop, out=buf)
        n = stop - start
        yield block, prime_mask(ns, block.coords, table, tuple(w[:n] for w in work))


def prime_rows(ns: NumberSystem, lam: int) -> list:
    """The prime elements of N_lam in enumeration order, one array per row block."""
    return [block.coords[mask] for block, mask in prime_blocks(ns, lam)]


def prime_histogram(ns: NumberSystem, fn: str, lam: int, lo: tuple, dims: tuple) -> dict:
    """Exact counts of the prime rows of N_lam per value of the statistic of
    fn, {value: count} in ascending order: s(n) as a tuple ('sod') or r(n)
    ('rs').  The values lie in the box of `dims` values from `lo`; when it
    holds more values than N_lam has rows, the rows are keyed by their
    sorted distinct values (np.unique per block, merged), else counted in a
    dense histogram over the box."""
    sparse = math.prod(dims) > ns.Q**lam
    place = np.array([math.prod(dims[i + 1:]) for i in range(len(dims))], dtype=np.int64)
    hist, found = np.zeros(0 if sparse else math.prod(dims), np.int64), []
    for block, mask in prime_blocks(ns, lam, (fn,)):
        stat = block.s_coords[mask] if fn == "sod" else block.r[mask]
        if sparse:
            found.append(np.unique(stat, axis=0, return_counts=True))
        elif fn == "sod":
            hist += np.bincount((stat - lo) @ place, minlength=len(hist))
        else:
            hist += np.bincount(stat, minlength=len(hist))
    if sparse:
        values, inverse = np.unique(np.concatenate([v for v, _ in found]), axis=0,
                                    return_inverse=True)
        counts = np.zeros(len(values), np.int64)
        np.add.at(counts, inverse.ravel(), np.concatenate([c for _, c in found]))
        return dict(zip(map(tuple, values.tolist()), counts.tolist()))
    occupied = np.flatnonzero(hist)
    keys = occupied.tolist()
    if fn == "sod":
        keys = map(tuple, (np.stack(np.unravel_index(occupied, dims), axis=1) + lo).tolist())
    return dict(zip(keys, hist[occupied].tolist()))
