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
from two numerator tables built once and checked below 2^53: the add is
exact and the division the one rounding (cloud_chunks); the chart adds its
terms in a fixed order (_charted), so no point depends on its chunk of
bulk.ROW_BLOCK points.  tile_rasters bins the points in one pass, over a
bounding box per space taken from the digits, through buffers allocated
once per pass.  A space's grids whose resolutions differ by powers of two
form a chain: each point is marked, by its flat cell index, only in the
finest grid of each chain, and the coarser grids are OR-pooled from it
after the pass, exactly.  The lattice area decides membership in N_k by
backward division (bulk.strip_columns): n lies in N_k exactly when k
strips take it to 0, since 0 is the digit of its own residue class.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import algebra, bulk, numeration
from .algebra import SPACE_TAGS
from .caps import ENUM_CAP, effective_cap
from .errors import CapExceeded, DomainError, UsageError
from .numeration import NumberSystem, embedding_radii

FLOAT_EXACT = 1 << 53  # integers below this are exact in float64


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


def _inverse_base_matrix(ns: NumberSystem) -> np.ndarray:
    """Float matrix of multiplication by q^{-1} (exact entries over c_0)."""
    return bulk.u_matrix(ns.poly) / float(ns.poly.coeffs[0])


def _embedding_matrix(ns: NumberSystem) -> np.ndarray:
    """Linear map from power-basis coordinates to embedding coordinates.

    Real embeddings contribute one row; each conjugate pair contributes
    (re, im) of the member encountered first in root order.
    """
    roots = ns.poly.embeddings().roots
    d = ns.degree
    used = [False] * d
    rows = []
    for i, z in enumerate(roots):
        if used[i]:
            continue
        used[i] = True
        powers = [z**k for k in range(d)]
        rows.append([w.real for w in powers])
        if abs(z.imag) > 1e-12:
            for j in range(i + 1, d):
                if not used[j] and abs(roots[j] - z.conjugate()) <= 1e-9 * (1 + abs(z)):
                    used[j] = True
                    break
            rows.append([w.imag for w in powers])
    return np.array(rows)


def _chart(ns: NumberSystem, space_tag: str):
    """Right factor taking coordinate rows to space_tag rows (None: identity)."""
    if space_tag not in SPACE_TAGS:
        raise UsageError("space must be one of %s" % (SPACE_TAGS,))
    return None if space_tag == "coordinate" else _embedding_matrix(ns).T


def _cloud_numerators(ns: NumberSystem, depth: int) -> tuple:
    """(low_num, off_num, c_0^depth), the point of row h * |low| + l of
    N_depth (bulk.split_tables) being (low_num[l] + off_num[h]) / c_0^depth.
    The cap and the float exactness are checked before any table is built.

    The point of b_1 ... b_k is sum_j q^{-j} b_j = q^{-k} n, n the row of
    N_k with top digit b_1; with u = c_0 / q that is (n @ (U^k)^T) / c_0^k.
    Low rows and offsets lie in N_k too (0 is a digit), so every numerator,
    and the sum of two, is within `widest`: below 2^53 all are exact.
    """
    if depth < 0:
        raise UsageError("depth must be nonnegative")
    if ns.Q**depth > effective_cap(ENUM_CAP):
        raise CapExceeded("cloud of %d points exceeds cap %d"
                          % (ns.Q**depth, effective_cap(ENUM_CAP)))
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
    low, _, offsets = bulk.split_tables(ns, depth, ())
    scale_t = np.array(power, dtype=np.float64).T
    return np.asfortranarray(low.coords @ scale_t), offsets @ scale_t, denom


def _chunks(ns: NumberSystem, depth: int, numerators: tuple):
    """The cloud in order, in chunks of bulk.ROW_BLOCK points (the last may
    be shorter), each written over the last in one buffer."""
    low_num, off_num, denom = numerators
    buf = np.empty((bulk.ROW_BLOCK, ns.degree), order="F")
    for start, stop in bulk.block_ranges(ns.Q**depth, len(buf)):
        out = buf[: stop - start]
        for h, src, dst in bulk.row_segments(len(low_num), start, stop):
            for k in range(ns.degree):  # column by column: a short row broadcasts slowly
                np.add(low_num[src, k], off_num[h, k], out=out[dst, k])
        out /= denom
        yield out


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
    correctly rounded division by c_0^k and the chart (_chunks, _charted)."""
    chart = _chart(ns, space_tag)
    for chunk in _chunks(ns, depth, _cloud_numerators(ns, depth)):
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
    min and max; _bin clips a point beyond it into the edge cell.
    """
    minv_t = _inverse_base_matrix(ns).T
    terms = np.array(ns.digits, dtype=np.float64)
    lo = hi = np.zeros(ns.degree)
    for _ in range(depth):
        terms = terms @ minv_t
        axes = terms if chart is None else terms @ chart
        lo, hi = lo + axes.min(axis=0), hi + axes.max(axis=0)
    return _window(lo, hi)


def _bin_buffers(rows: int, d: int) -> tuple:
    """_bin's buffers for up to `rows` points: v, scaled, cells."""
    return (np.empty((rows, d), order="F"), np.empty((rows, d), order="F"),
            np.empty((rows, d), np.intp, order="F"))


def _bin(points: np.ndarray, bbox: tuple, grids, buffers: tuple) -> None:
    """Mark the cell clip(floor(v * res), 0, res - 1) of every point in each
    grid, v = (y - lo) / (hi - lo), by its flat (C-order) index in intp.
    Clipping before the truncation picks the same cell and is cheaper; so
    is Fortran order for v.  The temporaries live in reused _bin_buffers
    arrays: fresh chunk-sized ones are page-faulted in anew each time."""
    v, scaled, cells = (buf[: len(points)] for buf in buffers)
    for k, (lo, hi) in enumerate(bbox):  # column by column, as in _chunks
        np.subtract(points[:, k], lo, out=v[:, k])
        v[:, k] /= hi - lo
    for occupancy in grids:
        res = occupancy.shape[0]
        np.multiply(v, res, out=scaled)
        np.clip(scaled, 0, res - 1, out=scaled)
        np.copyto(cells, scaled, casting="unsafe")  # truncation toward zero
        flat = cells[:, 0]  # a view: the axis-0 column becomes the flat index
        for axis in range(1, cells.shape[1]):
            flat *= res
            flat += cells[:, axis]
        occupancy.reshape(-1)[flat] = True


def _pool(fine: np.ndarray, res: int) -> np.ndarray:
    """The res grid over fine's window, fine's resolution a power-of-two
    multiple k of res: a coarse cell is occupied when one of its k^d fine
    cells is.  Exact: v * res * k is v * (res * k) without rounding, the
    floor of floor(x) / k is floor(x / k), and the clip at res * k - 1
    lands in res - 1."""
    k = fine.shape[0] // res
    return fine.reshape((res, k) * fine.ndim).any(axis=tuple(range(1, 2 * fine.ndim, 2)))


def _pool_source(res: int, resolutions) -> int:
    """Finest of `resolutions` that is res times a power of two (res itself
    if no finer one is); that grid is binned and res is pooled from it."""
    return max(r for r in resolutions if r % res == 0 and (r // res) & (r // res - 1) == 0)


def tile_rasters(ns: NumberSystem, depth: int, requests) -> dict:
    """Rasters of the depth-`depth` cloud for each (space_tag, resolution) in
    `requests`, keyed by that pair: one streamed pass, bboxes from _cloud_window.

    The points are those of cloud_chunks, bit for bit, but go through
    buffers allocated once, after the cap and exactness checks.  A space's
    grids share its bbox, so a grid whose resolution is a power-of-two
    fraction of another's is pooled from the finer one after the pass
    (_pool, exact); only the rest are binned, each point once per binned
    grid."""
    requests = list(dict.fromkeys(requests))
    charts = {space: _chart(ns, space) for space, _ in requests}
    if any(res < 1 for _, res in requests):
        raise UsageError("resolution must be positive")
    sources = {(space, res): (space, _pool_source(res, [r for s, r in requests if s == space]))
               for space, res in requests}
    bboxes, grids = _binned(ns, depth, charts, dict.fromkeys(sources.values()))
    for key, source in sources.items():
        if key != source:
            grids[key] = _pool(grids[source], key[1])
    return {key: Raster(key[1], bboxes[key[0]], grids[key], depth, key[0]) for key in requests}


def _binned(ns: NumberSystem, depth: int, charts: dict, keys) -> tuple:
    """(bboxes, grids): tile_rasters' streamed pass into one grid per (space,
    resolution) key.  Its buffers are freed on return, before any grid is
    pooled, so no long-lived pooled grid is allocated above them on the heap."""
    numerators = _cloud_numerators(ns, depth)
    bboxes = {space: _cloud_window(ns, depth, chart) for space, chart in charts.items()}
    grids = {key: np.zeros((key[1],) * ns.degree, dtype=bool) for key in keys}
    buffers = _bin_buffers(bulk.ROW_BLOCK, ns.degree)
    charted = np.empty((bulk.ROW_BLOCK, ns.degree), order="F")
    for points in _chunks(ns, depth, numerators):
        for space, chart in charts.items():
            ys = points if chart is None else _charted(points, chart, charted[: len(points)])
            _bin(ys, bboxes[space], [grid for key, grid in grids.items() if key[0] == space], buffers)
    return bboxes, grids


def coordinate_bound(ns: NumberSystem) -> list:
    """Per-coordinate bound sum_p |V^-1[k, p]| r_p on the attractor.

    V is the Vandermonde matrix of the embeddings and r the embedding
    radii, so every coordinate k of an attractor point is at most this.
    """
    radii = embedding_radii(ns)
    roots = ns.poly.embeddings().roots
    d = ns.degree
    vandermonde = np.array([[z**k for k in range(d)] for z in roots])
    vinv = np.linalg.inv(vandermonde)
    return [sum(abs(vinv[k, p]) * radii[p] for p in range(d)) for k in range(d)]


def tile_radii(ns: NumberSystem, raster: Raster) -> RadiiReport:
    """Outer radius from the digit geometry, inner radius from the raster."""
    if raster.resolution < 256:
        raise UsageError("radius estimation needs resolution >= 256")
    if raster.space_tag != "coordinate":
        raise UsageError("radius estimation needs a coordinate-space raster")
    r_plus = float(np.linalg.norm(coordinate_bound(ns)))
    return RadiiReport(r_plus, _inner_radius(raster), embedding_radii(ns))


def _inner_radius(raster: Raster) -> float:
    """Radius of the largest origin ball fully covered by occupied cells.

    The squared distance of a cell is h + b, h the sum of the per-axis
    squares over all axes but the last and b the last axis's square.  Float
    addition is monotone, so over the empty cells of a row its least value
    is h plus the least b of an empty cell: taking the last axis in order
    of b, that is the row's first empty cell, and no per-cell distance grid
    is built."""
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
    order = np.argsort(squares[-1], kind="stable")
    permuted = occ[..., order]  # one byte per cell
    first = permuted.argmin(axis=-1)  # a row's empty cell of least b, if it has one
    dist2 = np.where(permuted.all(axis=-1), math.inf, head + squares[-1][order][first])
    nearest = math.sqrt(float(dist2.min()))
    return float(min(nearest, edge))


def cell_area(raster: Raster) -> float:
    spans = [b[1] - b[0] for b in raster.bbox]
    return float(np.prod([s / raster.resolution for s in spans]))


def area_of(raster: Raster) -> float:
    return float(raster.occupancy.sum()) * cell_area(raster)


def lattice_area(ns: NumberSystem, raster: Raster) -> float:
    """Area of the cells whose centre c has rint(q^k c) in N_k, k = depth.

    Centres outside the exact coordinate box of N_k are dropped; the rest
    are in N_k when k strips take them to 0.  The work is done in blocks
    of about bulk.ROW_BLOCK centres, so memory does not grow with N_k.
    The cells sample the union of the footprints q^{-k}(z + [-1/2,1/2)^d)
    over z in N_k: disjoint sets of total measure |N_k| / Q^k = 1.  When
    the integer translates of the tile tile the space, the union
    converges to the tile as k grows.
    """
    if raster.space_tag != "coordinate":
        raise UsageError("the lattice area needs a coordinate-space raster")
    res, k = raster.resolution, raster.depth
    d = raster.occupancy.ndim
    power = bulk.q_power_matrix(ns.poly, k).astype(np.float64)
    lo = np.array([b[0] for b in raster.bbox])
    hi = np.array([b[1] for b in raster.bbox])
    # Each coordinate of q^k c passes through at most d + 8 roundings of
    # relative size 2^-53, each bounded by |q^k| |c| over the window.
    error = (d + 8) * 2.0**-53 * float((np.abs(power) @ np.maximum(-lo, hi)).max())
    if error >= 0.5:
        raise DomainError(
            "rounding q^%d c can err by %.3g, not below 1/2; depth %d is too deep"
            % (k, error, k)
        )
    box_lo, box_hi = bulk.coordinate_ranges(ns, k)
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
        # A rounded centre lies in N_k exactly when k strips take it to 0.
        # They cannot wrap int64: the guard above keeps its coordinates
        # below 2^52, and a strip never moves an embedding away from the
        # attractor, so the coordinates stay within a system-dependent
        # multiple of the larger of their start and the attractor's bound.
        for _ in range(k):
            cols = bulk.strip_columns(ns, cols)
        hits += int(np.count_nonzero(~np.any(cols, axis=0)))
    return hits * cell_area(raster)


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
    """
    occ = raster.occupancy
    d = occ.ndim
    res = raster.resolution
    lo = np.array([b[0] for b in raster.bbox])
    hi = np.array([b[1] for b in raster.bbox])
    cell = (hi - lo) / res
    draws = algebra.dyadic_samples(seed, samples * d)  # a sample is m / 2^53
    pts = np.array(draws, dtype=np.float64).reshape(samples, d) / 2.0**algebra.SAMPLE_BITS
    claims = np.zeros(samples, dtype=np.int64)
    ranges = [
        range(math.ceil(-hi[k]), math.floor(1.0 - lo[k]) + 1) for k in range(d)
    ]
    for a in itertools.product(*ranges):
        idx = np.floor((pts - np.array(a) - lo) / cell).astype(np.int64)
        inside = ((idx >= 0) & (idx < res)).all(axis=1)
        hit = np.zeros(samples, dtype=bool)
        sel = tuple(idx[inside].T)
        hit[inside] = occ[sel]
        claims += hit
    return float((claims == 1).mean())


def boundary_cell_count(raster: Raster) -> int:
    """Occupied cells with an unoccupied 2d-neighbor (outside counts as empty):
    the occupied cells less the interior ones, whose 2d neighbours are all
    occupied, found by one in-place AND over the shifted grids."""
    occ = raster.occupancy
    d = occ.ndim
    padded = np.pad(occ, 1, constant_values=False)
    core = tuple(slice(1, -1) for _ in range(d))
    interior = occ.copy()
    for k in range(d):
        for step in (1, -1):
            sl = list(core)
            sl[k] = slice(1 + step, padded.shape[k] - 1 + step)
            interior &= padded[tuple(sl)]
    return int(np.count_nonzero(occ)) - int(np.count_nonzero(interior))


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
    logs_r = np.log(np.array(resolutions, dtype=np.float64))
    logs_c = np.log(np.array(counts, dtype=np.float64))
    coeffs, residuals, *_ = np.polyfit(logs_r, logs_c, 1, full=True)
    residual = float(residuals[0]) if len(residuals) else 0.0
    return BoxDimReport(float(coeffs[0]), residual, tuple(resolutions), tuple(counts))
