"""Fundamental-tile geometry: point clouds, rasters, radii, dimensions.

The tile is the attractor {sum_{j>=1} b_j q^{-j}} of the contractive
system x -> q^{-1}(x + b); depth-k point clouds carry one point per
digit string.  All measure statements live in coordinate space (the
power-basis chart).  There the integer translates of the tile cover the
space; when they tile it, as they do for every system with the
finiteness property, the tile has Lebesgue measure exactly 1.  Other
accepted digit sets give tiles of larger integer measure: base 3 with
digits {0, 4, 8} gives the interval [0, 4].

The depth-k point of the digit string b_1 ... b_k is q^{-k} n, n the
element of N_k with top digit b_1.  Over the split of N_k into low rows
and offsets (bulk.split_tables) that is (low_num[l] + off_num[h]) / c_0^k,
from two numerator tables built once from the digit layers of the rows
of U^k (q u = c_0) and checked below 2^53: the add is exact and the
division the one rounding (cloud_chunks).  The cloud streams one chunk
per high row, its len(low_num) points (at most bulk.ROW_BLOCK),
and the chart adds its terms in a fixed order (_charted), so no point
depends on the split or its chunk.  tile_rasters bins each grid in a
streamed pass of its own, over a bounding box of its space taken from the
digits, through buffers allocated once per pass.  A space's grids whose
resolutions differ by powers of two form a chain: only the finest grid of
each chain is binned, and the coarser grids are OR-pooled from it, exactly.

In coordinate space the pass streams the Q^(k-m) corners of a coarse
cloud, not the Q^k points (T_k = T_{k-m} + q^{-(k-m)} T_m).  A point's
cell on an axis is a monotone step function of its integer numerator N,
so the grid has integer cell edges (breakpoints) B[c], found by the
binning's own float arithmetic.  m is the largest depth at which each
axis of the fine cloud F spans fewer integers than the narrowest interior
cell, so each translate of F crosses at most one edge per axis.  A corner
(the coarse point plus the least numerator of F) is binned, the distance
to its next edge ranked among F's sorted numerators, and the crossing
patterns that F realises at those ranks, precomputed once, give the cells
of its Q^m points: the same bits as binning each point.  A pass in
embedding space, or with fewer points than its grid has cells, has m = 0
and bins each point, by its flat cell index.

The lattice area decides membership in N_k by backward division
(numeration.strip on int64 columns, its tables made int64 arrays once per
call): n lies in N_k exactly when one strip takes it into N_(k-1), since
its last digit can only be the digit of its residue class, and N_0 = {0}.
So n is in N_k exactly when k - m strips take it into N_m.  With Q^m <=
bulk.ROW_BLOCK, N_m is the low table of the split, and one boolean table
over its exact coordinate box answers the last step: a centre is
stripped k - m times and looked up, not stripped k times to 0.

The stages after the pass never copy a whole grid: the boundary count and
the inner radius read the grid one slab of about bulk.ROW_BLOCK cells at a
time, and the cover's samples stream into one float64 array.  No stage
calls BLAS or LAPACK, whose code a child would otherwise page in for
fixed-size d x d products: the numerator tables are exact int64 sums of
digit layers (bulk.layer_table) converted to float64 once, the window
adds its terms in the fixed order of _charted, the lattice area's
rounding guard is an elementwise sum, the inverse Vandermonde matrix of
the outer radius comes from the Lagrange basis polynomials, and the box
dimension is the closed-form least-squares line.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import algebra, bulk, numeration
from .algebra import SPACE_TAGS
from .caps import ENUM_CAP, check_power, check_samples, effective_cap
from .errors import CapExceeded, DomainError, UsageError
from .numeration import NumberSystem, embedding_radii

FLOAT_EXACT = 1 << 53  # integers below this are exact in float64
PATTERN_CAP = 1 << 16  # entries of a fine cloud's pattern tables, over all 2^d deltas


@dataclass(frozen=True)
class Raster:
    resolution: int  # cells per axis over the tight bounding box
    bbox: tuple  # ((lo, hi), ...) per axis
    occupancy: np.ndarray  # boolean, shape (resolution,) * d
    depth: int
    space_tag: str


@dataclass(frozen=True)
class RadiiReport:
    r_plus_bound: float
    r_minus_estimate: float
    per_embedding: tuple


@dataclass(frozen=True)
class AreaReport:
    area: float
    method: str  # "lattice" or "occupancy"; see measure_area


@dataclass(frozen=True)
class BoxDimReport:
    dimension: float
    residual: float
    resolutions: tuple
    counts: tuple


def _embedding_matrix(ns: NumberSystem) -> np.ndarray:
    """Linear map from power-basis coordinates to embedding coordinates.

    Real embeddings contribute one row; each conjugate pair contributes
    (re, im) of its lower member, the one with imag < 0, which
    algebra._embedding_roots lists first, and whose real roots have imag
    exactly 0.0.
    """
    rows = []
    for z in ns.poly.embeddings().roots:
        if z.imag <= 0.0:
            powers = [z**k for k in range(ns.degree)]
            rows.append([w.real for w in powers])
            if z.imag:
                rows.append([w.imag for w in powers])
    return np.array(rows)


def _chart(ns: NumberSystem, space_tag: str):
    """Right factor taking coordinate rows to space_tag rows (None: identity)."""
    if space_tag not in SPACE_TAGS:
        raise UsageError("space must be one of %s" % (SPACE_TAGS,))
    return None if space_tag == "coordinate" else _embedding_matrix(ns).T


def _cloud_power(ns: NumberSystem, depth: int) -> tuple:
    """(power, c_0^depth): power the integer rows of U^depth, the point of n
    in N_depth being (n @ power^T) / c_0^depth.  The cap (in points) and the
    float exactness are checked here, before any table is built.

    The point of b_1 ... b_k is sum_j q^{-j} b_j = q^{-k} n, n the row of
    N_k with top digit b_1; with u = c_0 / q that is (n @ (U^k)^T) / c_0^k.
    Every numerator of N_k, and every partial sum of one, is within
    `widest`: below 2^53 all are exact.
    """
    check_power(ns.Q, depth, "cloud of %s points", effective_cap(ENUM_CAP))
    uk = algebra.q_power(ns.poly, 0)
    for _ in range(depth):
        uk = algebra.mul(ns.poly, uk, algebra.u_element(ns.poly))
    power = algebra.mult_matrix(ns.poly, uk)
    lo, hi = bulk.coordinate_ranges(ns, depth)
    widest = max(sum(abs(u) * max(-a, b) for u, a, b in zip(row, lo, hi)) for row in power)
    denom = ns.poly.coeffs[0] ** depth
    if widest >= FLOAT_EXACT or float(denom) != denom:
        raise DomainError("at depth %d the cloud numerators reach %d and c0^%d is %d; not exact"
                          " in float64" % (depth, widest, depth, denom))
    return power, denom


def _cloud_numerators(ns: NumberSystem, depth: int, scale: int) -> tuple:
    """(low_num, off_num, c_0^depth), the point of row h * |low| + l of
    N_depth (bulk.split_tables) being (low_num[l] + off_num[h]) / c_0^depth,
    each numerator times `scale`: the layer tables of the rows of scale *
    U^depth.  _cloud_power at the points' depth (the caller's, for a scale
    other than 1) bounds every numerator by 2^53, and each partial sum is
    one of a shorter row (0 is a digit): all exact in int64 and in float64."""
    power, denom = _cloud_power(ns, depth)
    rows = [[scale * u for u in row] for row in power]
    positions = bulk._low_positions(ns.Q, depth)
    low = bulk.layer_table(bulk.digit_layers(ns, 0, positions, rows), ns.degree)
    offsets = bulk.layer_table(bulk.digit_layers(ns, positions, depth - positions, rows), ns.degree)
    return np.array(low, dtype=np.float64, order="F"), offsets.astype(np.float64), denom


def _sums(low_num: np.ndarray, off_num: np.ndarray):
    """low_num[l] + off_num[h] over the rows h * len(low_num) + l in order,
    one chunk of len(low_num) rows (at most bulk.ROW_BLOCK) per high row h,
    each written over the last in one buffer."""
    buf = np.empty(low_num.shape, order="F")
    for offset in off_num:
        yield np.add(low_num, offset, out=buf)


def _charted(points: np.ndarray, chart: np.ndarray, out: np.ndarray) -> np.ndarray:
    """points @ chart into out, each entry's terms added in the row order of chart."""
    for j in range(chart.shape[1]):
        np.multiply(points[:, 0], chart[0, j], out=out[:, j])
        for k in range(1, len(chart)):
            out[:, j] += points[:, k] * chart[k, j]
    return out


def cloud_chunks(ns: NumberSystem, depth: int, space_tag: str = "coordinate"):
    """All Q^depth truncated tile points in first-digit-major order, streamed
    as independent arrays; the cap and the float exactness are checked first.
    A chunk is one exact add per column of the two numerator tables, one
    correctly rounded division by c_0^k and the chart (_sums, _charted)."""
    chart = _chart(ns, space_tag)
    low_num, off_num, denom = _cloud_numerators(ns, depth, 1)
    for chunk in _sums(low_num, off_num):
        chunk /= denom
        yield chunk.copy() if chart is None else _charted(chunk, chart, np.empty_like(chunk))


def _window(lo: np.ndarray, hi: np.ndarray) -> tuple:
    """Raster bbox ((lo, hi), ...); a degenerate axis is padded by half a unit."""
    return tuple(
        (a - 0.5, b + 0.5) if b - a <= 0.0 else (a, b) for a, b in zip(lo.tolist(), hi.tolist())
    )


def _cloud_window(ns: NumberSystem, depth: int, chart) -> tuple:
    """Raster bbox of the depth-`depth` cloud from the digits alone: a point
    is sum_j M^{-j} b_j with each b_j free, so an axis spans the sum over j
    of [min_b, max_b] of that axis of (the charted) M^{-j} b.  Exact for
    dyadic coordinates (c_0 = +-2), else within a few ulps of the cloud's
    min and max; _cells clips a point beyond it into the edge cell.
    """
    u = algebra.mult_matrix(ns.poly, algebra.u_element(ns.poly))
    minv_t = np.array(u).T / float(ns.poly.coeffs[0])  # q^-1 = u / c_0
    terms = np.array(ns.digits, dtype=np.float64)
    lo = hi = np.zeros(ns.degree)
    for _ in range(depth):
        terms = _charted(terms, minv_t, np.empty_like(terms))
        axes = terms if chart is None else _charted(terms, chart, np.empty_like(terms))
        lo, hi = lo + axes.min(axis=0), hi + axes.max(axis=0)
    return _window(lo, hi)


def _to_window(ys: np.ndarray, bbox: tuple, v: np.ndarray) -> np.ndarray:
    """v = (y - lo) / (hi - lo) per axis of bbox, column by column (as in _sums)."""
    for k, (lo, hi) in enumerate(bbox):
        np.subtract(ys[:, k], lo, out=v[:, k])
        v[:, k] /= hi - lo
    return v


def _cells(v: np.ndarray, res: int, cells: np.ndarray) -> np.ndarray:
    """The cell clip(floor(v * res), 0, res - 1) of every entry, in intp;
    v is scaled in place.  Clipping before the truncation picks the same
    cell and is cheaper."""
    np.multiply(v, res, out=v)
    np.clip(v, 0, res - 1, out=v)
    np.copyto(cells, v, casting="unsafe")  # truncation toward zero
    return cells


@dataclass(frozen=True)
class _Fine:
    """The fine cloud F of a pass: the depth-k points are the translates of
    F, the depth-m cloud shrunk by q^{-(k-m)}, by the Q^{k-m} coarse points
    (T_k = T_{k-m} + q^{-(k-m)} T_m).  On each coordinate axis a point is
    N / |c_0^k|, N its numerator with the sign of c_0^k taken in (exact).
    A corner is a coarse numerator plus `lo`, the least numerator of F per
    axis.  Over one interior cell each axis of F spans fewer integers than
    the cell holds, so a translate crosses at most one cell edge per axis:
    the points of the translate of corner N lie in cell(N) + delta for the
    deltas of patterns[key], key the ranks of the distances to the next
    cell edges among `values` (len(values[a]) + 1 ranks on axis a, in C
    order).  _Fine() is the pass without a fine cloud (m = 0): each corner
    is a point."""

    depth: int = 0  # m
    lo: tuple = ()  # per axis: least numerator of F
    values: tuple = ()  # per axis: sorted distinct numerators of F less lo, float64
    patterns: tuple = ()  # (delta, table): table[key] when a point of F crosses on the axes of delta
    edges: tuple = ()  # per axis: B[c + 1] at cell c, inf at the last


def _edges(denom: int, window: tuple, res: int) -> np.ndarray:
    """B[c] for c = 1 .. res - 1: the least integer numerator N whose point
    N / denom lands in cell c or above of the axis window (lo, hi) at res
    cells, by the arithmetic of _mark itself.  Each step of it is monotone,
    so the cell is a step function of N: a guess from the window, within a
    few units of B, is walked to B one unit at a time."""
    lo, hi = window
    c = np.arange(1, res)

    def cell(n):  # _mark's chain on one axis
        v = _to_window((n / denom)[:, None], (window,), np.empty((len(n), 1)))
        return _cells(v, res, np.empty(v.shape, np.intp))[:, 0]

    up = np.ceil(denom * (lo + c * ((hi - lo) / res)))
    while (short := cell(up) < c).any():
        up[short] += 1
    while (far := cell(up - 1) >= c).any():
        up[far] -= 1
    return up


def _fine_cloud(ns: NumberSystem, depth: int, power: list, bbox: tuple, res: int) -> _Fine:
    """The fine cloud of a coordinate-space pass binning the grid of res
    cells per axis over bbox: the largest depth m at which each axis of F
    spans fewer integers than every interior cell, and whose pattern tables
    stay within PATTERN_CAP.  m = 0 (no fine cloud) when the cloud has
    fewer points than the grid has cells, or when an edge near the window
    may not be an exact float64 integer."""
    d, denom = ns.degree, abs(ns.poly.coeffs[0] ** depth)
    if (ns.Q**depth < res**d
            or any(denom * (max(-lo, hi) + 1) >= FLOAT_EXACT / 2 for lo, hi in bbox)):
        return _Fine()
    edges = [_edges(denom, window, res) for window in bbox]
    gaps = [float(np.diff(e).min()) if res > 2 else math.inf for e in edges]
    sign = 1 if ns.poly.coeffs[0] ** depth > 0 else -1
    # the terms of the numerators over |c_0^depth|, per position, digit and axis
    layers = bulk.digit_layers(ns, 0, depth, [[sign * u for u in row] for row in power])
    m, spans = 0, [0] * d
    while m < depth and 2**d * (ns.Q ** (m + 1) + 1) ** d <= PATTERN_CAP:
        spans = [w + max(t) - min(t) for w, t in zip(spans, zip(*layers[m]))]
        if any(w >= g for w, g in zip(spans, gaps)):
            break
        m += 1
    if m == 0:
        return _Fine()
    # N_m's numerators, within N_depth's checked range: exact, converted once
    cloud = bulk.layer_table(layers[:m], d).astype(np.float64)
    lo = cloud.min(axis=0)
    cloud -= lo  # exact: F spans less than a cell
    values = tuple(np.array(sorted(set(col.tolist()))) for col in cloud.T)  # np.unique loads numpy.ma
    index = np.stack([np.searchsorted(v, col) for v, col in zip(values, cloud.T)], axis=1)
    shape = tuple(len(v) + 1 for v in values)
    patterns = []
    for delta in itertools.product((0, 1), repeat=d):
        # f crosses on the axes of delta alone when rank_a <= index_a(f) on
        # them and rank_a > index_a(f) on the others: an orthant of keys
        # from the corner marked here, filled by a running OR on each axis
        table = np.zeros(shape, dtype=bool)
        table[tuple((index + 1 - np.array(delta)).T)] = True
        for a, up in enumerate(delta):
            table = (np.flip(np.logical_or.accumulate(np.flip(table, a), axis=a), a) if up
                     else np.logical_or.accumulate(table, axis=a))
        if table.any():
            patterns.append((delta, table.ravel()))
    nexts = tuple(np.append(e, math.inf) for e in edges)
    return _Fine(m, tuple(lo.tolist()), values, tuple(patterns), nexts)


def _bin_buffers(rows: int, d: int) -> tuple:
    """_mark's buffers for up to `rows` corners: v, charted, index (d intp
    columns, at least 2) and select."""
    return (np.empty((rows, d), order="F"), np.empty((rows, d), order="F"),
            np.empty((rows, max(d, 2)), np.intp, order="F"), np.empty(rows, bool))


def _mark(corners: np.ndarray, denom: int, chart, bbox: tuple, occupancy: np.ndarray,
          fine: _Fine, buffers: tuple) -> None:
    """Mark in occupancy the cells of the points that the corner numerators
    stand for.  With fine.depth 0 each corner is one point, N / denom
    through the chart, marked at its cell (_cells) over bbox by its flat
    (C-order) index.  Else the translate of the fine cloud at each corner is
    marked at the corner's cell plus each crossing pattern of its key
    (_Fine).  The temporaries live in reused _bin_buffers arrays: fresh
    chunk-sized ones are page-faulted in anew each time."""
    v, charted, index, select = (buf[: len(corners)] for buf in buffers)
    res, d = occupancy.shape[0], corners.shape[1]
    cells, flat, key = index[:, :d], index[:, 0], index[:, 1]  # views
    points = np.divide(corners, denom, out=v)
    _to_window(points if chart is None else _charted(points, chart, charted), bbox, v)
    _cells(v, res, cells)
    for axis, nexts in enumerate(fine.edges):
        gap = np.take(nexts, cells[:, axis], out=v[:, axis])
        gap -= corners[:, axis]  # integers from the corner to the next cell edge
    for axis in range(1, d):  # the cells become the flat index in column 0
        flat *= res
        flat += cells[:, axis]
    if not fine.depth:
        occupancy.reshape(-1)[flat] = True
        return
    key[:] = np.searchsorted(fine.values[0], v[:, 0])  # column 1 is free now
    for axis in range(1, d):
        key *= len(fine.values[axis]) + 1
        key += np.searchsorted(fine.values[axis], v[:, axis])
    for delta, table in fine.patterns:
        marked = flat[np.take(table, key, out=select)]
        marked += sum(s * res**a for a, s in enumerate(delta[::-1]))
        occupancy.reshape(-1)[marked] = True


def _pool(fine: np.ndarray, res: int) -> np.ndarray:
    """The res grid over fine's window, fine's resolution a power-of-two
    multiple k of res: a coarse cell is occupied when one of its k^d fine
    cells is.  Exact: v * res * k is v * (res * k) without rounding, the
    floor of floor(x) / k is floor(x / k), and the clip at res * k - 1
    lands in res - 1.  Each halving ORs the 2^d strided views of the cells of
    one parity per axis into the grid of half the resolution."""
    while fine.shape[0] > res:
        views = [fine[tuple(slice(p, None, 2) for p in parity)]
                 for parity in itertools.product((0, 1), repeat=fine.ndim)]
        coarse = views[0].copy()
        for view in views[1:]:
            coarse |= view
        fine = coarse
    return fine


def _pool_source(res: int, resolutions) -> int:
    """Finest of `resolutions` that is res times a power of two (res itself
    if no finer one is); that grid is binned and res is pooled from it."""
    return max(r for r in resolutions if r % res == 0 and (r // res) & (r // res - 1) == 0)


def tile_rasters(ns: NumberSystem, depth: int, requests) -> dict:
    """Rasters of the depth-`depth` cloud for each (space_tag, resolution) in
    `requests`, keyed by that pair, bboxes from _cloud_window.

    Every space and resolution is checked before any work, the cloud's
    points (_cloud_power) and then each grid's res^d cells against the
    element cap.  A space's grids share its bbox, so a grid whose
    resolution is a power-of-two fraction of another's is pooled from the
    finer one (_pool, exact); each of the rest is binned by a streamed pass
    of its own (_binned)."""
    requests = list(dict.fromkeys(requests))
    charts = {space: _chart(ns, space) for space, _ in requests}
    if any(res < 1 for _, res in requests):
        raise UsageError("resolution must be positive")
    power, denom = _cloud_power(ns, depth)
    for _, res in requests:
        check_power(res, ns.degree, "raster of %s cells", effective_cap(ENUM_CAP))
    sources = {(space, res): (space, _pool_source(res, [r for s, r in requests if s == space]))
               for space, res in requests}
    binned = {source: _binned(ns, depth, power, denom, charts[source[0]], source[1])
              for source in dict.fromkeys(sources.values())}
    return {key: Raster(key[1], binned[source][0], _pool(binned[source][1], key[1]), depth, key[0])
            for key, source in sources.items()}


def _binned(ns: NumberSystem, depth: int, power, denom: int, chart, res: int) -> tuple:
    """(bbox, grid): the grid of res cells per axis over the bbox of the
    chart's space, binned by one streamed pass.  The points are those of
    cloud_chunks, bit for bit, but go through buffers allocated once, after
    the cap and exactness checks of _cloud_power, whose (power, denom) it
    takes.  In coordinate space (chart None) the pass streams the corners
    of its fine cloud (_fine_cloud), in embedding space every point.  The
    buffers are freed on return, before any grid is pooled, so no
    long-lived pooled grid is allocated above them on the heap."""
    bbox = _cloud_window(ns, depth, chart)
    grid = np.zeros((res,) * ns.degree, dtype=bool)
    fine = _fine_cloud(ns, depth, power, bbox, res) if chart is None else _Fine()
    # the coarse numerators over c_0^k are c_0^m times those over c_0^(k-m),
    # signed to leave the denominator |c_0^k|: N / c_0^k is (-N) / |c_0^k| exactly
    scale = ns.poly.coeffs[0] ** fine.depth * (1 if denom > 0 else -1)
    low_num, off_num, _ = _cloud_numerators(ns, depth - fine.depth, scale)
    if fine.depth:
        low_num += fine.lo  # a numerator of a depth-k point on each axis: exact
    buffers = _bin_buffers(len(low_num), ns.degree)
    for corners in _sums(low_num, off_num):
        _mark(corners, abs(denom), chart, bbox, grid, fine, buffers)
    return bbox, grid


def _lagrange_columns(roots) -> list:
    """The columns of V^-1, V[p][k] = z_p^k, in Python complex arithmetic:
    column p holds the coefficients (lowest first) of the Lagrange basis
    polynomial prod_{j != p} (x - z_j) / (z_p - z_j), which is 1 at z_p and
    0 at every other root."""
    columns = []
    for p, zp in enumerate(roots):
        coeffs, scale = [1 + 0j], 1 + 0j
        for j, zj in enumerate(roots):
            if j != p:
                coeffs = [a - zj * b for a, b in zip([0j] + coeffs, coeffs + [0j])]  # times (x - z_j)
                scale *= zp - zj
        columns.append([c / scale for c in coeffs])
    return columns


def coordinate_bound(ns: NumberSystem) -> list:
    """Per-coordinate bound sum_p |V^-1[k, p]| r_p on the attractor.

    V is the Vandermonde matrix of the embeddings and r the embedding
    radii, so every coordinate k of an attractor point is at most this.
    V^-1 comes from the Lagrange basis (_lagrange_columns), not LAPACK.
    """
    radii = embedding_radii(ns)
    rows = zip(*_lagrange_columns(ns.poly.embeddings().roots))
    return [sum(abs(v) * r for v, r in zip(row, radii)) for row in rows]


def tile_radii(ns: NumberSystem, raster: Raster) -> RadiiReport:
    """Outer radius from the digit geometry, inner radius from the raster."""
    if raster.resolution < 256:
        raise UsageError("radius estimation needs resolution >= 256")
    if raster.space_tag != "coordinate":
        raise UsageError("radius estimation needs a coordinate-space raster")
    r_plus = math.hypot(*coordinate_bound(ns))
    return RadiiReport(r_plus, _inner_radius(raster), embedding_radii(ns))


def _slab_rows(grid: np.ndarray) -> int:
    """Rows along the first axis of grid in one slab: about bulk.ROW_BLOCK
    cells, at least one row."""
    return max(1, bulk.ROW_BLOCK // max(1, grid[0].size))


def _inner_radius(raster: Raster) -> float:
    """Radius of the largest origin ball fully covered by occupied cells.

    The squared distance of a cell is h + b, h the sum of the per-axis
    squares over all axes but the last and b the last axis's square.  Float
    addition is monotone, so over the empty cells of a row its least value
    is h plus the least b of an empty cell: taking the last axis in order
    of b, that is the row's first empty cell, and no per-cell distance grid
    is built.  The rows are permuted into that order one slab
    (_slab_rows) at a time."""
    occ = raster.occupancy
    d = occ.ndim
    res = raster.resolution
    lo = np.array([b[0] for b in raster.bbox])
    hi = np.array([b[1] for b in raster.bbox])
    edge = min(min(-lo[k], hi[k]) for k in range(d))
    if edge <= 0.0:
        return 0.0  # origin not interior to the raster window
    cell = (hi - lo) / res
    squares = []
    for k in range(d):
        starts = lo[k] + np.arange(res) * cell[k]
        dk = np.maximum(np.maximum(starts, -(starts + cell[k])), 0.0)
        squares.append(dk * dk)
    head = np.zeros((1,) * (d - 1))
    for k, square in enumerate(squares[:-1]):
        shape = [1] * (d - 1)
        shape[k] = res
        head = head + square.reshape(shape)
    head = np.broadcast_to(head, occ.shape[:-1]).reshape(-1)  # per row, C order
    order = np.argsort(squares[-1], kind="stable")
    last = squares[-1][order]
    rows = occ.reshape(-1, res)
    step = _slab_rows(rows)
    nearest2 = math.inf
    for start in range(0, len(rows), step):
        permuted = rows[start : start + step][:, order]  # one byte per cell of the slab
        first = permuted.argmin(axis=1)  # a row's empty cell of least b, if it has one
        dist2 = np.where(permuted.all(axis=1), math.inf, head[start : start + step] + last[first])
        nearest2 = min(nearest2, float(dist2.min()))
    return float(min(math.sqrt(nearest2), edge))


def cell_area(raster: Raster) -> float:
    spans = [b[1] - b[0] for b in raster.bbox]
    return float(np.prod([s / raster.resolution for s in spans]))


def area_of(raster: Raster) -> float:
    return float(raster.occupancy.sum()) * cell_area(raster)


def lattice_area(ns: NumberSystem, raster: Raster) -> float:
    """Area of the cells whose centre c has rint(q^k c) in N_k, k = depth.

    Centres outside the exact coordinate box of N_k are dropped.  The rest
    are in N_k exactly when k - m strips take them into N_m (_lattice_depth
    picks m), looked up in one boolean table over N_m's exact coordinate
    box, keyed by bulk.box_places; at m = 0 the table holds 0 alone.  The
    work is done in blocks of about bulk.ROW_BLOCK centres, so memory does
    not grow with N_k.
    The cells sample the union of the footprints q^{-k}(z + [-1/2,1/2)^d)
    over z in N_k: disjoint sets of total measure |N_k| / Q^k = 1.  When
    the integer translates of the tile tile the space, the union
    converges to the tile as k grows.
    """
    if raster.space_tag != "coordinate":
        raise UsageError("the lattice area needs a coordinate-space raster")
    res, k = raster.resolution, raster.depth
    d = raster.occupancy.ndim
    power = np.array(algebra.mult_matrix(ns.poly, algebra.q_power(ns.poly, k)), dtype=np.float64)
    lo = np.array([b[0] for b in raster.bbox])
    hi = np.array([b[1] for b in raster.bbox])
    # Each coordinate of q^k c passes through at most d + 8 roundings of
    # relative size 2^-53, each bounded by |q^k| |c| over the window.
    error = (d + 8) * 2.0**-53 * float((np.abs(power) * np.maximum(-lo, hi)).sum(axis=1).max())
    if error >= 0.5:
        raise DomainError(
            "rounding q^%d c can err by %.3g, not below 1/2; depth %d is too deep"
            % (k, error, k)
        )
    box_lo, box_hi = bulk.coordinate_ranges(ns, k)
    m = _lattice_depth(ns, k)
    low_lo, low_hi = bulk.coordinate_ranges(ns, m)
    place, span = bulk.box_places(low_lo, low_hi)
    table = np.zeros(span, dtype=bool)  # N_m over its box
    low, _ = bulk.split_tables(ns, m)  # Q^m <= ROW_BLOCK: the low table is all of N_m
    table[(low - low_lo) @ place] = True
    tables = [t if t is None else np.array(t, np.int64) for t in ns.strip_tables]
    cell = (hi - lo) / res
    # the term of q^k c from axis a is the centre coordinate times column a
    terms = [np.outer(lo[a] + (np.arange(res) + 0.5) * cell[a], power[:, a]) for a in range(d)]
    tail = np.zeros((1, d))
    for t in terms[1:]:
        tail = (tail[:, None, :] + t[None, :, :]).reshape(-1, d)
    rows = max(1, bulk.ROW_BLOCK // len(tail))
    hits = 0
    for start in range(0, res, rows):
        cols = [np.rint(terms[0][start : start + rows, i, None] + tail[:, i]).astype(np.int64).ravel()
                for i in range(d)]
        inside = np.logical_and.reduce([(c >= a) & (c <= b) for c, a, b in zip(cols, box_lo, box_hi)])
        cols = [col[inside] for col in cols]
        # A rounded centre lies in N_k exactly when k - m strips take it
        # into N_m.  They cannot wrap int64: the guard above keeps its
        # coordinates below 2^52, and a strip never moves an embedding away
        # from the attractor, so the coordinates stay within a
        # system-dependent multiple of the larger of their start and the
        # attractor's bound.
        cols = numeration.strip(ns, cols, k - m, tables)
        inside = np.logical_and.reduce([(c >= a) & (c <= b) for c, a, b in zip(cols, low_lo, low_hi)])
        key = sum((c[inside] - a) * p for c, a, p in zip(cols, low_lo, place))
        hits += int(np.count_nonzero(table[key]))
    return hits * cell_area(raster)


def _lattice_depth(ns: NumberSystem, k: int) -> int:
    """m of lattice_area: the largest m <= k with Q^m <= bulk.ROW_BLOCK whose
    exact coordinate box of N_m holds at most 16 * bulk.ROW_BLOCK points, so
    the table of N_m stays within a small multiple of a block.  The box
    grows with m (0 is a digit), so the first m past either bound ends the
    search; a wide digit set or a cubic box can leave m = 0."""
    m = 0
    while (m < k and ns.Q ** (m + 1) <= bulk.ROW_BLOCK
           and bulk.box_places(*bulk.coordinate_ranges(ns, m + 1))[1] <= 16 * bulk.ROW_BLOCK):
        m += 1
    return m


def measure_area(ns: NumberSystem, raster: Raster) -> AreaReport:
    """Tile area from the raster window, by the estimator that is sound here.

    "lattice" (lattice_area) when the raster is in coordinate space and
    the system has the finiteness property: then the integer translates
    of the tile tile the space, and the estimate converges to the tile's
    measure 1.  "occupancy" (area_of) otherwise, including when the
    finiteness decision exceeds its cap.
    """
    if raster.space_tag == "coordinate":
        try:
            fns = numeration.is_fns(ns).is_fns
        except CapExceeded:
            fns = False
        if fns:
            return AreaReport(lattice_area(ns, raster), "lattice")
    return AreaReport(area_of(raster), "occupancy")


def cover_fraction(raster: Raster, samples: int = 10**4, seed: int = 0) -> float:
    """Fraction of random unit-cell points claimed by exactly one translate.

    Full tiling means almost every point of [0,1)^d belongs to exactly
    one integer translate of the tile; the raster stands in for the tile.
    The samples' integers, and the samples times the translates that can
    claim them, are held to the element cap before any sample is drawn.
    Every translate reuses one float64 and one intp buffer of samples x d
    and one mask, and runs the float operations of floor((p - a - lo) /
    cell) in that order.
    """
    occ = raster.occupancy
    d = occ.ndim
    check_samples(samples, d, "cover samples")
    res = raster.resolution
    lo = np.array([b[0] for b in raster.bbox])
    hi = np.array([b[1] for b in raster.bbox])
    cell = (hi - lo) / res
    ranges = [range(math.ceil(-hi[k]), math.floor(1.0 - lo[k]) + 1) for k in range(d)]
    translates = math.prod(map(len, ranges))
    if samples * translates > effective_cap(ENUM_CAP):
        raise CapExceeded("cover of %d samples over %d translates exceeds cap %d"
                          % (samples, translates, effective_cap(ENUM_CAP)))
    draws = algebra.dyadic_samples(seed, samples * d)  # a sample is m / 2^53, exact
    pts = np.fromiter(draws, np.float64, samples * d).reshape(samples, d)
    pts /= 2.0**algebra.SAMPLE_BITS
    claims = np.zeros(samples, dtype=np.int64)
    shifted = np.empty_like(pts)
    idx = np.empty((samples, d), dtype=np.intp)
    inside = np.empty(samples, dtype=bool)
    for a in itertools.product(*ranges):
        np.subtract(pts, a, out=shifted)
        np.subtract(shifted, lo, out=shifted)
        np.divide(shifted, cell, out=shifted)
        np.floor(shifted, out=shifted)
        np.copyto(idx, shifted, casting="unsafe")
        # a cell index lies in [0, res) exactly when it is below res as unsigned
        np.less(idx[:, 0].view(np.uintp), res, out=inside)
        for k in range(1, d):
            inside &= idx[:, k].view(np.uintp) < res
        np.clip(idx, 0, res - 1, out=idx)
        hit = occ[tuple(idx.T)]
        hit &= inside
        claims += hit
    return float((claims == 1).mean())


def boundary_cell_count(raster: Raster) -> int:
    """Occupied cells with an unoccupied 2d-neighbor (outside counts as empty):
    the occupied cells less the interior ones, whose 2d neighbours are all
    occupied.  The interior is found one slab of rows (_slab_rows) at a
    time: a cell on the grid's border is never interior, and every other
    cell ANDs in its in-grid neighbours on each axis."""
    occ = raster.occupancy
    n = occ.shape[0]
    step = _slab_rows(occ)
    interior = 0
    for start in range(0, n, step):
        stop = min(start + step, n)
        rows = occ[start:stop]
        slab = rows.copy()
        if start == 0:
            slab[0] = False
        if stop == n:
            slab[-1] = False
        before = occ[max(start - 1, 0) : stop - 1]
        slab[len(slab) - len(before):] &= before
        after = occ[start + 1 : stop + 1]
        slab[: len(after)] &= after
        for k in range(1, occ.ndim):
            head = (slice(None),) * k
            slab[head + (0,)] = False
            slab[head + (-1,)] = False
            slab[head + (slice(1, None),)] &= rows[head + (slice(None, -1),)]
            slab[head + (slice(None, -1),)] &= rows[head + (slice(1, None),)]
        interior += int(np.count_nonzero(slab))
    return int(np.count_nonzero(occ)) - interior


def check_boxdim(resolutions) -> None:
    """The box-counting fit needs at least 3 distinct resolutions."""
    if len(set(resolutions)) < 3:
        raise UsageError("box dimension needs at least 3 distinct resolutions")


def boundary_boxdim(rasters) -> BoxDimReport:
    """Box-counting slope of the tile boundary across rasters of one cloud."""
    rasters = sorted(rasters, key=lambda r: r.resolution)
    resolutions = [r.resolution for r in rasters]
    check_boxdim(resolutions)
    counts = [boundary_cell_count(r) for r in rasters]
    xs = np.log(np.array(resolutions, dtype=np.float64)).tolist()
    ys = np.log(np.array(counts, dtype=np.float64)).tolist()
    slope, residual = _line_fit(xs, ys)
    return BoxDimReport(slope, residual, tuple(resolutions), tuple(counts))


def _line_fit(xs: list, ys: list) -> tuple:
    """(slope, residual sum of squares) of the least-squares line through
    (xs, ys), xs holding two distinct values at least: the closed form over
    the centred points, each sum by math.fsum.  The residual of a centred
    point is (y - my) - slope (x - mx), the intercept never formed."""
    mx, my = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
    dx = [x - mx for x in xs]
    dy = [y - my for y in ys]
    slope = math.fsum(a * b for a, b in zip(dx, dy)) / math.fsum(a * a for a in dx)
    return slope, math.fsum((b - slope * a) ** 2 for a, b in zip(dx, dy))
