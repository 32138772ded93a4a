"""Vectorized tables over the length-bounded element sets N_lambda.

Row i of N_lambda holds the element whose digit index in position j is
(i // Q^j) % Q, so a fixed block of top digits is one contiguous row
range.  split_tables is the one enumeration: row h * |low| + l is low row
l, an element of the bottom positions (at most ROW_BLOCK rows), plus
offsets[h], q^low times high row h.  Every exact table of N_lambda is a
sum of digit layers, the terms q^j b in Python integers (digit_layers)
added one position at a time into int64 rows (layer_table), so every
split gives the same rows.  Every streamed stage walks it one high row
at a time: the prime pass, numeration.enumerate_N and the tile cloud.  Its temporaries
scale with the low table, so ROW_BLOCK is 2^14 rows: the traced peak of
the lambda-22 prime histogram is 1.0-1.1 MB, against 2.9-3.4 MB at 2^16.  When
Q^lam fits in ROW_BLOCK the low table is all of N_lam, the table that
tile.lattice_area looks stripped centres up in, keyed by box_places.
The two tables hold coordinates only.  A digit statistic (the digit sum
or the adjacent-nonzero-pair count, numeration.DigitStatistic) is read
apart, off the digit indices that a row's index spells (statistic_rows),
without expanding any element.  The prime pass (prime_blocks) builds no
row: per high row, the norms of its rows are a binary quadratic form over
vectors derived once from the low table, and each odd norm's verdict is
one bit of a packed sieve (_norm_bits; or, when that table would outweigh
the rows, the norm's own primality test).  The statistic adds over the
split: a row's value is its low row's plus its high row's read from the
state the low row leaves.  One pass counts the prime histograms of every
lambda of a request (prime_histogram), since N_lambda is a block of the
rows of N_top for lambda <= top.
strip_columns is backward division on whole int64 coordinate columns.
Coordinates and counts are int64.  The statistic's values, the norms of
the split pass and the ranks of distinct rows take the width _int_type
gives the bound already computed for them (int32 when it is below 2^31),
so a narrow width never wraps.
"""

from __future__ import annotations

import cmath
import math
import operator
from typing import TYPE_CHECKING

import numpy as np

from . import algebra
from .caps import ENUM_CAP, check_power, effective_cap
from .errors import CapExceeded, DomainError, UsageError

if TYPE_CHECKING:
    from .numeration import NumberSystem

INT64_GUARD = 1 << 60
# Most rows in the low table, so in the streamed chunk of one high row, and
# about the most lattice centres per step.  A chunk's arrays are temporaries
# of its stage: at 2^14 rows (1 MB for eight int64 columns) they stay small
# beside the long-lived tables while each numpy call still covers thousands
# of rows; 2^16 rows ran the prime pass and the tile rasters no faster, at
# more than twice their traced peak.
ROW_BLOCK = 1 << 14


def _int_type(bound: int) -> type:
    """The integer dtype of an array whose entries are at most `bound` in
    absolute value: int32 when the bound is below 2^31, else int64."""
    return np.int32 if bound < 1 << 31 else np.int64


def strip_columns(ns: NumberSystem, cols, times: int = 1) -> list:
    """Array form of numeration._strip_one, applied `times` times: the d
    int64 columns of (n - b)/q from those of n.  With n_0 = Q s + r and b
    the digit of class r, y_0 / c_0 is sign(c_0) (s + (r - b_0)/Q); digits
    (r, 0, ..., 0) need no residue.  The digit tables are built once for
    all the strips."""
    c, sign = ns.poly.coeffs, (1 if ns.poly.coeffs[0] > 0 else -1)
    digits = np.array([ns.digits[t] for t in ns.residue_digit], dtype=np.int64)
    offset = (np.arange(ns.Q) - digits[:, 0]) // ns.Q
    residue = bool(offset.any() or digits[:, 1:].any())
    shifted = [bool(digits[:, i].any()) for i in range(ns.degree)]
    for _ in range(times):
        s = cols[0] // ns.Q
        if residue:
            r = cols[0] - ns.Q * s  # np.divmod is many times slower than the two steps
            s += offset[r]  # y_0 / Q
        out = []
        for i in range(1, ns.degree):
            col = cols[i] - sign * c[i] * s if c[i] else cols[i]
            out.append(col - digits[r, i] if shifted[i] else col)
        out.append(s if sign < 0 else -s)
        cols = out
    return list(cols)


def digit_layers(ns: NumberSystem, start: int, count: int, rows=None) -> list:
    """The digit terms of positions start .. start + count - 1, exact in
    Python integers: layer j lists q^(start + j) b for each digit b, in
    digit order, or, given integer row vectors `rows`, the products of
    those rows with q^(start + j) b."""
    layer, layers = list(ns.digits), []
    for j in range(start + count):
        if j >= start:
            layers.append(layer if rows is None else [
                tuple(sum(u * x for u, x in zip(row, b)) for row in rows) for b in layer])
        layer = [algebra.mul_by_q(ns.poly, b) for b in layer]
    return layers


def layer_table(layers: list, width: int) -> np.ndarray:
    """The (Q^len(layers), width) int64 table whose row i is the sum over
    positions j of layers[j][(i // Q^j) % Q] (digit_layers), one position
    at a time, the lowest first: the rows of j + 1 positions are Q blocks,
    one per digit index t, each the rows of j positions plus term t of
    layer j, the order statistic_rows reads.  Unchecked: 0 is a digit, so
    every partial sum is a row of a shorter table, within the caller's
    bound on the rows."""
    table = np.zeros((1, width), np.int64)
    for layer in layers:
        table = (np.array(layer, np.int64)[:, None, :] + table).reshape(-1, width)
    return table


def coordinate_ranges(ns: NumberSystem, lam: int) -> tuple:
    """Exact (lo, hi) lists per coordinate over N_lam: each position takes
    every digit, so coordinate i spans the sum over positions j of
    [min_b, max_b] of coordinate i of q^j b (digit_layers), both ends
    attained."""
    layers = digit_layers(ns, 0, lam)
    return ([sum(min(b[i] for b in layer) for layer in layers) for i in range(ns.degree)],
            [sum(max(b[i] for b in layer) for layer in layers) for i in range(ns.degree)])


def split_tables(ns: NumberSystem, lam: int) -> tuple:
    """(low, offsets): row h * |low| + l of N_lam is low row l plus
    offsets[h], the value of high row h shifted up by the low table's
    positions, the most bottom positions whose rows fit in ROW_BLOCK
    (_low_positions).  Both are (rows, d) int64 coordinates.  The cap (in
    elements) and the int64 range of the coordinates are checked before
    either table is built."""
    _check_rows(ns, lam)
    positions = _low_positions(ns.Q, lam)
    return (layer_table(digit_layers(ns, 0, positions), ns.degree),
            layer_table(digit_layers(ns, positions, lam - positions), ns.degree))


def _low_positions(Q: int, lam: int) -> int:
    """The positions of the low table of N_lam's split: the most, up to lam,
    whose Q^positions rows fit in ROW_BLOCK."""
    positions = 0
    while positions < lam and Q ** (positions + 1) <= ROW_BLOCK:
        positions += 1
    return positions


def _check_rows(ns: NumberSystem, lam: int) -> None:
    """The element cap on the Q^lam rows of N_lam and the int64 range of
    their coordinates, checked before any table of them is built."""
    check_power(ns.Q, lam, "table of %s elements", effective_cap(ENUM_CAP))
    widest = max(max(-a, b) for a, b in zip(*coordinate_ranges(ns, lam)))
    if widest >= INT64_GUARD:
        raise CapExceeded("coordinates of N_%d reach %d, beyond the int64 budget" % (lam, widest))


def statistic_rows(stat, Q: int, lam: int, top: int, entry: int) -> tuple:
    """(exits, values) of the digit statistic `stat` over the rows of N_lam
    read from the entry state `entry`, by its definition: row i reads digit
    index (i // Q^j) % Q at position j, lowest first, and the automaton
    steps once per position.  So the rows of N_j+1 are Q blocks, one per
    digit index t at position j, each the rows of N_j stepped on by t.
    exits is (Q^lam,) int8, the state each row leaves; values is (Q^lam,
    width) in the width of the statistic's value box over N_top (top >=
    lam), top * max |increment|, which holds every value of a row of N_top,
    so also the sum of a low and a high row's."""
    width = _int_type(top * max(abs(x) for row in stat.step for _, inc in row for x in inc))
    nxt = np.array([[row[t][0] for row in stat.step] for t in range(Q)], np.int8)
    inc = np.array([[row[t][1] for row in stat.step] for t in range(Q)], width)
    exits, values = np.array([entry], np.int8), np.zeros((1, stat.width), inc.dtype)
    for _ in range(lam):  # [t, i]: digit index t read after the row i of N_j
        values = (inc[:, exits] + values).reshape(-1, stat.width)
        exits = nxt[:, exits].ravel()
    return exits, values


def box_places(lo: list, hi: list) -> tuple:
    """(place, span) of the box lo..hi (inclusive, per coordinate): the key
    (n - lo) @ place of an integer point n of the box is its C-order cell
    index, a mixed-radix number below span, the box's count of points."""
    place = [1]
    for a, b in zip(lo[:0:-1], hi[:0:-1]):
        place.insert(0, place[0] * (b - a + 1))
    return place, place[0] * (hi[0] - lo[0] + 1)


# ------------------------------------------------------------ the prime pass

NORM_DIRECTIONS = 64  # support directions behind the norm table's bound
SIEVE_SEGMENT = 1 << 18  # odd integers per segment of the norm table's sieve (a multiple of 8)


def _norm_bound(ns: NumberSystem, lam: int) -> int:
    """An upper bound on |N(n)| over N_lam, within 0.5% of the maximum for
    a complex quadratic base.  |N(n)| is the product over the embeddings
    sigma of |sigma(n)|; the largest |sigma(n)| is the support of
    sigma(N_lam) in its best direction, the sum over positions j of the
    best term sigma(q^j b).  K directions miss it by at most pi / K.  The
    lam * Q * K products are formed in Python complex arithmetic, the K
    directions and each digit term computed once: a fixed-size loop of
    about 2 ms at lambda 22, where numpy's complex exp and multiply would
    page about 0.25 MB of their code into the prime child.  numpy may fuse
    a product's real part (an FMA), so its supports can differ from these in
    the last bits, far below the 1e-9 margin."""
    directions = [cmath.exp(-2j * math.pi * k / NORM_DIRECTIONS) for k in range(NORM_DIRECTIONS)]
    bound = 1.0
    for z in ns.poly.embeddings().roots:
        support = [0.0] * NORM_DIRECTIONS
        for j in range(lam):  # support += the best real part over the digits, per direction
            reals = [[w.real for w in map((algebra._poly_eval(b, z) * z**j).__mul__, directions)]
                     for b in ns.digits]
            support = list(map(operator.add, support, map(max, *reals)))
        bound *= max(max(support), 0.0) / math.cos(math.pi / NORM_DIRECTIONS)
    return int(bound * (1 + 1e-9)) + 1


def _split_bound(ns: NumberSystem, lam: int) -> int:
    """A bound on every integer of the split pass over N_lam (_split_norms),
    once the degree is supported and no int64 norm of that pass can wrap:
    with A and B the widest |a| and |b| over N_lam (which holds every low
    row and every offset), each term of N(l) + alpha a_l + beta b_l + N(o)
    is at most twice the widest form A^2 + |c1| A B + |c0| B^2, so every
    partial sum is at most six times it, and so is each of alpha, beta and
    N(o): the guard keeps the form below 2^60 and every sum below 2^63.  In
    degree 1 the widest form is A, and the norm |a + a_o| is at most A."""
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
    return 6 * widest


def _norm_bits(top: int, quadratic=None) -> np.ndarray:
    """Bits over the odd integers 1..top, packed little-endian (n = 2k + 1 is
    bit k & 7 of byte k >> 3, so n >> 4 names its byte and (n >> 1) & 7 its
    bit): set at the odd primes and, for the ring of x^2 + c1 x + c0 with
    `quadratic` = (c0, c1), at ell^2 for each odd prime ell inert in it (an
    element of norm ell^2 is then prime, analysis.norm_verdict), clear
    elsewhere and past top.  The even prime norms, 2 and 4, have no bit.  A
    sieve of Eratosthenes over segments of at most SIEVE_SEGMENT odd
    integers, each packed straight into its bytes, by the odd primes up to
    sqrt(top), which the same sieve finds first; odd multiples of p are p
    apart in k, and each prime carries its next one from segment to
    segment, starting at p^2."""
    from .analysis import _is_inert
    table = np.zeros(top // 16 + 1, dtype=np.uint8)
    root = math.isqrt(top)
    roots = np.zeros(0, np.int64) if root < 3 else 2 * np.flatnonzero(
        np.unpackbits(_norm_bits(root), bitorder="little")) + 1
    first = roots * roots // 2  # k of p^2, ascending
    following = first.copy()  # k of each prime's next odd multiple to strike
    odd = np.empty(min(SIEVE_SEGMENT, 8 * len(table)), dtype=bool)
    for start in range(0, 8 * len(table), len(odd)):
        stop = min(start + len(odd), 8 * len(table))
        segment = odd[: stop - start]
        segment[:] = True
        segment[max((top + 1) // 2 - start, 0) :] = False  # past top
        active = int(np.searchsorted(first, stop))  # the primes whose square is below stop
        primes, next_k = roots[:active], following[:active]
        for p, k in zip(primes.tolist(), next_k.tolist()):
            segment[k - start :: p] = False
        next_k -= np.minimum(next_k - stop, 0) // primes * primes  # on to the first at or past stop
        if start == 0:
            segment[0] = False  # 1
        table[start // 8 : stop // 8] = np.packbits(segment, bitorder="little")
    for ell in roots.tolist() if quadratic is not None else ():
        if _is_inert(*quadratic, ell):
            table[ell * ell >> 4] |= 1 << (ell * ell >> 1 & 7)
    return table


def prime_mask(ns: NumberSystem, norms: np.ndarray, table: np.ndarray | None,
               four: bool) -> np.ndarray:
    """Prime verdicts for elements of absolute norms `norms` (an integer
    array of any width, shifted and masked in it), or with table None the
    scalar analysis.norm_verdict of each.  An odd norm takes its bit of
    `table` (_norm_bits), which must reach every norm; the low byte of each
    norm, read once, gives the bit's place and the parity that clears every
    even norm.  The even prime norms have no bit and are compared for: 2,
    and 4 when `four` says 2 is inert in a quadratic ring."""
    if table is None:
        from .analysis import PRIME_KINDS, norm_verdict
        return np.array([norm_verdict(ns.poly, v).kind in PRIME_KINDS for v in norms.tolist()],
                        dtype=bool)
    low = norms.astype(np.uint8)  # bit 0 the parity, bits 1-3 the place in the byte
    bits = np.take(table, np.right_shift(norms, 4, dtype=np.intp))  # take's own index type
    shift = low >> 1
    shift &= 7
    bits >>= shift
    bits &= low
    bits &= 1
    mask = bits.view(bool)
    mask |= norms == 2
    if four:
        mask |= norms == 4
    return mask


def _split_norms(ns: NumberSystem, columns: np.ndarray, offsets: np.ndarray):
    """(h, |N(l + offsets[h])| over the low rows l) per high row h, in order,
    the norms a buffer overwritten by the next row.  `columns` holds the
    low table's coordinate columns, contiguous, in a width that holds every
    partial sum (_split_bound); every buffer takes that width.  With l = a +
    b q and o = a_o + b_o q, the norm a^2 - c1 ab + c0 b^2 is a binary
    quadratic form, so N(l + o) = N(l) + alpha a + beta b + N(o) with alpha
    = 2 a_o - c1 b_o and beta = 2 c0 b_o - c1 a_o: five vector operations
    over vectors derived once from the low table.  In degree 1 the norm is
    |a + a_o|."""
    a = columns[0]
    norm = np.empty_like(a)
    if ns.degree == 1:
        for h, (a_o,) in enumerate(offsets.tolist()):
            np.add(a, a_o, out=norm)
            yield h, np.abs(norm, out=norm)
        return
    c0, c1 = ns.poly.coeffs[:2]
    b = columns[1]
    n_low = a * a - c1 * a * b + c0 * b * b
    term = np.empty_like(a)
    definite = c1 * c1 < 4 * c0  # a complex quadratic ring: no norm is negative
    for h, (a_o, b_o) in enumerate(offsets.tolist()):
        np.multiply(a, 2 * a_o - c1 * b_o, out=norm)
        norm += n_low
        np.multiply(b, 2 * c0 * b_o - c1 * a_o, out=term)
        norm += term
        norm += a_o * a_o - c1 * a_o * b_o + c0 * b_o * b_o
        yield h, norm if definite else np.abs(norm, out=norm)


def pass_bounds(ns: NumberSystem, lam: int) -> tuple:
    """(bound, top, table) of the prime pass over N_lam: _split_bound,
    _norm_bound, and whether the pass builds the norm table (_norm_bits),
    whose top // 16 + 1 bytes must stay within the 8 * d bytes of
    coordinates of its Q^lam rows.  _check_rows holds Q^lam to the element
    cap, so a table that is built takes at most 8 * d bytes per element of
    the cap.  Every check of the pass is made here, in its order, before
    anything is built: _check_rows, then _split_bound."""
    _check_rows(ns, lam)
    bound, top = _split_bound(ns, lam), _norm_bound(ns, lam)
    return bound, top, top // 16 + 1 <= 8 * ns.degree * ns.Q**lam


def prime_blocks(ns: NumberSystem, lam: int) -> tuple:
    """(low, offsets, masks): the split of N_lam (split_tables) and a
    generator of (h, mask) per high row h, in order, mask marking the low
    rows l at which the row l + offsets[h] is prime.  Every check
    (pass_bounds) is made when called, before anything is built.  Each norm
    comes from _split_norms and its verdict from prime_mask, told once
    whether 4 is a prime norm; without the norm table each norm is tested
    alone."""
    from .analysis import _is_inert
    bound, top, table = pass_bounds(ns, lam)
    low, offsets = split_tables(ns, lam)
    quadratic = ns.poly.coeffs[:2] if ns.degree == 2 else None
    table = _norm_bits(top, quadratic) if table else None
    columns = low.T.astype(_int_type(bound), order="C")
    four = quadratic is not None and _is_inert(*quadratic, 2)
    masks = ((h, prime_mask(ns, norm, table, four))
             for h, norm in _split_norms(ns, columns, offsets))
    return low, offsets, masks


def prime_rows(ns: NumberSystem, lam: int) -> list:
    """The prime elements of N_lam in enumeration order, one array per high row."""
    low, offsets, masks = prime_blocks(ns, lam)
    return [low[mask] + offsets[h] for h, mask in masks]


def _distinct_rows(columns: list) -> tuple:
    """(distinct, inverse) as numpy's unique by rows gives them for the rows
    whose entries are `columns`, integer arrays of one length and any widths:
    the distinct rows' columns in ascending order, the first column leading,
    and each row's index among them, by one lexsort and no common dtype."""
    order = np.lexsort(columns[::-1])
    columns = [c[order] for c in columns]
    new = np.zeros(len(order), dtype=bool)  # sorted row i differs from row i - 1
    for c in columns:
        new[1:] |= c[1:] != c[:-1]
    inverse = np.empty(len(order), _int_type(len(order)))
    inverse[order] = np.cumsum(new, dtype=inverse.dtype)  # ranks from 0
    new[:1] = True  # the first sorted row is distinct too
    return [c[new] for c in columns], inverse


def _zero_block(Q: int, zero: int, lam: int, top: int) -> tuple:
    """(start, size) of the rows of N_lam among those of N_top (lam <= top):
    the Q^lam rows whose digit indices from position lam up are all `zero`,
    the index of the zero digit, a contiguous block."""
    return zero * (Q ** (top - lam) - 1) // (Q - 1) * Q**lam, Q**lam


def prime_histogram(ns: NumberSystem, stat, lams: list) -> list:
    """Exact counts of the prime rows of N_lam per value of the digit
    statistic `stat`, {value tuple: count} in ascending order, one per lam
    of the ascending list `lams`, all from one pass over N_top, top the
    largest (prime_blocks).  The value adds over the split (split_tables):
    v(l + o_h) is v(l) plus high row h's value from the state e(l) that low
    row l leaves.  So statistic_rows reads the low rows from the start state
    only and the high rows from every state; the low rows are keyed by their
    distinct pairs (e(l), v(l)) and the high rows by their distinct vectors
    of values from each state (_distinct_rows); each high row's prime low
    rows are counted by pair in one bincount, added into its vector's line
    of a count matrix, and each occupied cell's value, v(l) plus the
    vector's value from e(l), is merged by the same sort.

    N_lam is the block of rows of N_top whose digits from position lam up
    are all the zero digit (_zero_block), a prefix when that digit is listed
    first, and the statistic must add nothing when it reads the zero digit,
    from any state, so those rows keep their values.  For lam at or past the
    low table's positions the block is one of high rows, each counted into
    the matrix of every lam whose block holds it; below, it is one of low
    rows of the high row of zero digits, counted apart."""
    top = lams[-1]
    zero = ns.digits.index(ns.zero)
    if top != lams[0] and any(any(row[zero][1]) for row in stat.step):
        raise UsageError("the zero digit adds to the statistic, so N_lambda is not counted"
                         " within N_%d" % top)
    low, offsets, masks = prime_blocks(ns, top)
    del low  # its coordinates, a quarter of the pass's memory, are not read here
    positions, states = _low_positions(ns.Q, top), len(stat.states)
    exits, values = statistic_rows(stat, ns.Q, positions, top, stat.start)
    (exits, *values), keys = _distinct_rows([exits, *values.T])
    vectors, lines = _distinct_rows([column for state in range(states) for column in
                                     statistic_rows(stat, ns.Q, top - positions, top, state)[1].T])
    counts = np.zeros((len(lams), len(vectors[0]), len(exits)), np.int64)
    below = [_zero_block(ns.Q, zero, lam, positions) for lam in lams if lam < positions]
    first = np.empty(len(offsets), np.intp)  # per high row, the first lam whose block holds it
    for i in reversed(range(len(below), len(lams))):
        start, size = _zero_block(ns.Q, zero, lams[i] - positions, top - positions)
        first[start : start + size] = i
    home = _zero_block(ns.Q, zero, 0, top - positions)[0]  # the high row of zero digits
    for h, mask in masks:
        counts[first[h]:, lines[h]] += np.bincount(keys[mask], minlength=len(exits))
        for i, (start, size) in enumerate(below if h == home else ()):
            part = slice(start, start + size)
            counts[i, lines[h]] += np.bincount(keys[part][mask[part]], minlength=len(exits))
    vectors = np.stack(vectors, axis=1).reshape(-1, states, stat.width)
    values = np.stack(values, axis=1)
    hists = []
    for count in counts:
        line, pair = np.nonzero(count)
        found = vectors[line, exits[pair]]
        found += values[pair]
        distinct, inverse = _distinct_rows(list(found.T))
        # float sums of counts, exact: N_lam has fewer than 2^53 rows
        totals = np.bincount(inverse, count[line, pair])
        hists.append(dict(zip(zip(*(v.tolist() for v in distinct)), map(int, totals.tolist()))))
    return hists
