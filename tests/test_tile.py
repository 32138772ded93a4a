"""Tile point clouds, rasters, radii, areas, covers, box dimension."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from radixion import tile
from radixion.errors import CapExceeded, DomainError, UsageError
from radixion.numeration import NumberSystem
from radixion.tile import Raster, TileCloud


def exact_cloud(ns, depth):
    """Exact-Fraction IFS orbit, independent of the vectorized route.

    Multiplication by q is the companion matrix M; each level applies
    M^{-1}(x + b) with the same block order the library uses.
    """
    d = ns.degree
    coeffs = ns.poly.coeffs
    m = [[Fraction(0)] * d for _ in range(d)]
    for k in range(d - 1):
        m[k + 1][k] = Fraction(1)
    for k in range(d):
        m[k][d - 1] = Fraction(-coeffs[k])

    def solve(rhs):
        # Gaussian elimination over Fractions on a copy of M.
        a = [row[:] + [rhs[i]] for i, row in enumerate(m)]
        for col in range(d):
            piv = next(r for r in range(col, d) if a[r][col] != 0)
            a[col], a[piv] = a[piv], a[col]
            inv = 1 / a[col][col]
            a[col] = [v * inv for v in a[col]]
            for r in range(d):
                if r != col and a[r][col] != 0:
                    f = a[r][col]
                    a[r] = [v - f * w for v, w in zip(a[r], a[col])]
        return [a[r][d] for r in range(d)]

    pts = [[Fraction(0)] * d]
    for _ in range(depth):
        out = []
        for b in ns.digits:
            for x in pts:
                out.append(solve([xi + bi for xi, bi in zip(x, b)]))
        pts = out
    return pts


@pytest.mark.parametrize("name,depth", [("negabinary", 8), ("knuth", 6), ("five_a", 3)])
def test_points_match_exact_fraction_ifs(request, name, depth):
    ns = request.getfixturevalue(name)
    cloud = tile.tile_points(ns, depth)
    exact = exact_cloud(ns, depth)
    assert cloud.points.shape == (ns.Q**depth, ns.degree)
    for row, ref in zip(cloud.points, exact):
        for v, r in zip(row, ref):
            assert abs(v - float(r)) < 1e-9


def test_cloud_validation(knuth):
    assert tile.tile_points(knuth, 0).points.tolist() == [[0.0, 0.0]]
    with pytest.raises(UsageError):
        tile.tile_points(knuth, 3, space_tag="polar")
    with pytest.raises(UsageError):
        tile.tile_points(knuth, -1)
    with pytest.raises(CapExceeded):
        tile.tile_points(knuth, 30)


def test_embedding_space_is_linear_image(knuth, negabinary):
    coord = tile.tile_points(knuth, 6)
    emb = tile.tile_points(knuth, 6, space_tag="embedding")
    e = tile._embedding_matrix(knuth)
    assert np.allclose(coord.points @ e.T, emb.points, atol=1e-12)
    # degree one: the embedding chart is the coordinate chart
    assert np.allclose(
        tile.tile_points(negabinary, 5, space_tag="embedding").points,
        tile.tile_points(negabinary, 5).points,
    )


# ------------------------------------------------------------- negabinary


def test_negabinary_tile_goldens(negabinary):
    cloud = tile.tile_points(negabinary, 18)
    raster = tile.rasterize(cloud, 1024)
    (lo, hi) = raster.bbox[0]
    cell = (hi - lo) / 1024
    assert abs(lo - (-2.0 / 3.0)) <= cell + 1e-12
    assert abs(hi - (1.0 / 3.0)) <= cell + 1e-12
    assert int(raster.occupancy.sum()) == 1024
    assert abs(tile.area_of(raster) - 1.0) < 0.03
    assert tile.boundary_cell_count(raster) == 2
    radii = tile.tile_radii(negabinary, raster)
    assert radii.r_plus_bound == 1.0
    assert abs(radii.r_minus_estimate - 1.0 / 3.0) < 1e-3
    assert radii.r_minus_estimate <= radii.r_plus_bound
    report = tile.boundary_boxdim([tile.rasterize(cloud, r) for r in (256, 512, 1024)])
    assert report.counts == (2, 2, 2)
    assert abs(report.dimension) < 0.05


def test_negabinary_cover_is_full(negabinary):
    assert tile.unique_cover_fraction(negabinary, 18, 1024) >= 0.98


# ------------------------------------------------------------------ knuth


def test_knuth_radii(knuth):
    raster = tile.rasterize(tile.tile_points(knuth, 10), 256)
    radii = tile.tile_radii(knuth, raster)
    assert abs(radii.r_plus_bound - 4.181540550352) < 1e-9
    silver = 1.0 + math.sqrt(2.0)
    assert all(abs(r - silver) < 1e-9 for r in radii.per_embedding)
    assert 0.0 <= radii.r_minus_estimate <= radii.r_plus_bound


def test_radii_preconditions(knuth):
    with pytest.raises(UsageError):
        tile.tile_radii(knuth, tile.rasterize(tile.tile_points(knuth, 6), 128))
    emb = tile.rasterize(tile.tile_points(knuth, 6, space_tag="embedding"), 256)
    with pytest.raises(UsageError):
        tile.tile_radii(knuth, emb)


def test_knuth_area_error_shrinks_with_depth(knuth):
    errors = [abs(tile.area_estimate(knuth, depth, 512) - 1.0) for depth in (10, 12, 14, 16, 18)]
    assert errors == sorted(errors, reverse=True)
    assert errors[-1] < 0.2


@pytest.mark.xfail(
    strict=True,
    reason="a depth-18 cloud leaves pinholes at resolution 1024; the unique-cover"
    " target needs more points per cell",
)
def test_knuth_cover_saturates(knuth):
    assert tile.unique_cover_fraction(knuth, 18, 1024) >= 0.98


def test_knuth_lattice_area_is_one(knuth):
    raster = tile.rasterize(tile.tile_points(knuth, 18), 1024)
    report = tile.measure_area(knuth, raster)
    assert report.method == "lattice"
    assert abs(report.area - 1.0) < 0.03
    assert tile.area_of(raster) < 0.85  # occupancy cannot saturate at 2^18 points


def test_knuth_boundary_dimension_band(knuth):
    cloud = tile.tile_points(knuth, 18)
    report = tile.boundary_boxdim([tile.rasterize(cloud, r) for r in (256, 64, 128)])
    assert report.resolutions == (64, 128, 256)
    assert all(b > a for a, b in zip(report.counts, report.counts[1:]))
    assert 1.2 <= report.dimension <= 1.9


# ------------------------------------------------------------ lattice area


def test_negabinary_lattice_area(negabinary):
    raster = tile.rasterize(tile.tile_points(negabinary, 18), 1024)
    report = tile.measure_area(negabinary, raster)
    assert report.method == "lattice"
    assert abs(report.area - 1.0) < 1e-5


def test_non_tiling_system_keeps_occupancy_area():
    # base 3 with digits {0, 4, 8}: the tile is [0, 4], covered four times
    ns = NumberSystem.parse("-3,1", "0;4;8")
    raster = tile.rasterize(tile.tile_points(ns, 10), 1024)
    report = tile.measure_area(ns, raster)
    assert report == tile.AreaReport(tile.area_of(raster), "occupancy")
    assert abs(report.area - 4.0) < 0.01


def test_area_falls_back_when_fns_decision_is_capped(knuth, monkeypatch):
    raster = tile.rasterize(tile.tile_points(knuth, 6), 64)
    monkeypatch.setenv("RADIXION_CAP", "8")  # Knuth's carry closure holds 15 states
    assert tile.measure_area(knuth, raster).method == "occupancy"


def test_embedding_raster_keeps_occupancy_area(knuth):
    raster = tile.rasterize(tile.tile_points(knuth, 8, space_tag="embedding"), 64)
    assert tile.measure_area(knuth, raster).method == "occupancy"
    with pytest.raises(UsageError):
        tile.lattice_area(knuth, raster)


def test_lattice_area_guards(knuth):
    window = ((-1.0, 1.0), (-1.0, 1.0))
    deep = Raster(4, window, np.ones((4, 4), dtype=bool), 100, "coordinate")
    with pytest.raises(DomainError, match="depth 100"):
        tile.lattice_area(knuth, deep)


# ------------------------------------------------------------- raster edges


def test_rasterize_single_point(knuth):
    raster = tile.rasterize(tile.tile_points(knuth, 0), 8)
    assert int(raster.occupancy.sum()) == 1
    for lo, hi in raster.bbox:
        assert hi - lo == 1.0


def test_rasterize_blocks_match_one_pass(knuth, monkeypatch):
    cloud = tile.tile_points(knuth, 10)
    whole = tile.rasterize(cloud, 64)
    monkeypatch.setattr(tile, "RASTER_BLOCK", 100)  # 1024 points, ragged last block
    blocked = tile.rasterize(cloud, 64)
    assert blocked.bbox == whole.bbox
    assert np.array_equal(blocked.occupancy, whole.occupancy)


def test_rasterize_rejects_empty_cloud():
    empty = TileCloud(0, np.zeros((0, 2)), "coordinate")
    with pytest.raises(DomainError):
        tile.rasterize(empty, 16)
    with pytest.raises(UsageError):
        tile.rasterize(TileCloud(0, np.zeros((1, 2)), "coordinate"), 0)


def test_boxdim_needs_three_resolutions(knuth):
    cloud = tile.tile_points(knuth, 10)
    with pytest.raises(UsageError):
        tile.boundary_boxdim([tile.rasterize(cloud, r) for r in (256, 512)])
    with pytest.raises(UsageError, match="distinct"):  # a repeated grid is not a third point
        tile.boundary_boxdim([tile.rasterize(cloud, r) for r in (256, 256, 512)])


# -------------------------------------------------------- streamed clouds


def doubling_cloud(ns, depth, space_tag="coordinate"):
    """The whole cloud in one array, level by level: the one-pass route."""
    minv_t = tile._inverse_base_matrix(ns).T
    digits = np.array(ns.digits, dtype=np.float64)
    pts = np.zeros((1, ns.degree))
    for _ in range(depth):
        pts = np.concatenate([(pts + b) @ minv_t for b in digits])
    if space_tag == "embedding":
        pts = pts @ tile._embedding_matrix(ns).T
    return pts


def cells_of(pts, lo, hi, resolution):
    """Cell of every point, by the arithmetic rasterize has always used."""
    idx = (pts - lo) / (hi - lo) * resolution
    return np.clip(idx.astype(np.int64), 0, resolution - 1)


def golden_and_random(request, names):
    systems = [request.getfixturevalue(n) for n in names]
    return systems + list(request.getfixturevalue("random_systems"))


def stream_depth(ns):
    """Smallest depth with 10^4 points or more."""
    depth = 0
    while ns.Q**depth < 10**4:
        depth += 1
    return depth


@pytest.mark.parametrize("name,depth", [("knuth", 10), ("negabinary", 12)])
@pytest.mark.parametrize("space", tile.SPACE_TAGS)
def test_chunks_are_bit_identical_to_doubling(request, monkeypatch, name, depth, space):
    # c0 = +-2: the doubling loop is exact, so the integer-row route must match it
    ns = request.getfixturevalue(name)
    whole = doubling_cloud(ns, depth, space)
    monkeypatch.setattr(tile, "RASTER_BLOCK", 7)
    chunks = list(tile.cloud_chunks(ns, depth, space))
    assert len(chunks) > 1 and max(len(c) for c in chunks) <= 7
    assert np.array_equal(np.concatenate(chunks), whole)
    assert np.array_equal(tile.tile_points(ns, depth, space).points, whole)


def assert_correctly_rounded(ns, depth, monkeypatch, block):
    """Every coordinate of the streamed cloud is the float nearest to the
    exact Fraction IFS point, i.e. within half an ulp of q^-k n."""
    monkeypatch.setattr(tile, "RASTER_BLOCK", block)
    chunks = list(tile.cloud_chunks(ns, depth))
    assert len(chunks) > 1 and max(len(c) for c in chunks) <= block
    got = np.concatenate(chunks)
    exact = exact_cloud(ns, depth)
    assert got.shape == (len(exact), ns.degree)
    assert got.tolist() == [[float(v) for v in row] for row in exact]
    return got


@pytest.mark.parametrize("name,depth", [("five_a", 5), ("five_b", 5)])
@pytest.mark.parametrize("space", tile.SPACE_TAGS)
def test_chunks_are_correctly_rounded(request, monkeypatch, name, depth, space):
    ns = request.getfixturevalue(name)
    coords = assert_correctly_rounded(ns, depth, monkeypatch, 7)  # 447 chunks of up to 7 points
    if space == "embedding":
        chunks = list(tile.cloud_chunks(ns, depth, space))
        assert np.array_equal(np.concatenate(chunks), coords @ tile._chart(ns, space))


def test_random_system_chunks_are_correctly_rounded(random_systems, monkeypatch):
    for ns in random_systems:
        depth = 1
        while ns.Q ** (depth + 1) <= 2000:
            depth += 1
        assert_correctly_rounded(ns, depth, monkeypatch, 100)


def test_cloud_numerator_guard(knuth, five_a, monkeypatch):
    def no_rows(*args):
        raise AssertionError("a row block was built")

    monkeypatch.setattr(tile.bulk, "row_blocks", no_rows)
    monkeypatch.setenv("RADIXION_CAP", str(1 << 62))
    # u^60 n reaches about 2^60 on Knuth; 5^23 is not a float64 integer
    with pytest.raises(DomainError, match="at depth 60"):
        next(tile.cloud_chunks(knuth, 60))
    with pytest.raises(DomainError, match="at depth 23"):
        next(tile.cloud_chunks(five_a, 23))


@pytest.mark.parametrize("name", ["knuth", "negabinary"])
@pytest.mark.parametrize("space", tile.SPACE_TAGS)
def test_cloud_window_is_exact_on_dyadic_systems(request, name, space):
    # c0 = +-2: every coordinate is dyadic, so the digit-wise sums are exact
    ns = request.getfixturevalue(name)
    chart = tile._chart(ns, space)
    for depth in range(0, 13):
        pts = tile.tile_points(ns, depth, space).points
        bbox = tile._cloud_window(ns, depth, chart)
        assert bbox == tile._window(pts.min(axis=0), pts.max(axis=0))


def test_cloud_window_overshoot_lands_in_edge_cells(request):
    overshoots = 0
    for ns in golden_and_random(request, ["five_a", "five_b"]):
        for space in tile.SPACE_TAGS:
            chart = tile._chart(ns, space)
            for depth in range(1, stream_depth(ns) + 1):
                pts = tile.tile_points(ns, depth, space).points
                lo, hi = np.array(tile._cloud_window(ns, depth, chart)).T
                assert np.abs(lo - pts.min(axis=0)).max() <= 1e-12
                assert np.abs(hi - pts.max(axis=0)).max() <= 1e-12
                raster = tile.tile_rasters(ns, depth, [(space, 257)])[space, 257]
                cells = cells_of(pts, lo, hi, 257)
                low, high = pts < lo, pts > hi
                assert (cells[low] == 0).all() and (cells[high] == 256).all()
                assert raster.occupancy[tuple(cells[(low | high).any(axis=1)].T)].all()
                overshoots += int(low.sum() + high.sum())
    assert overshoots > 0  # the clause above is exercised


# 1, 64 and 128 are pooled from 512, 100 from 200; 257 shares no power of
# two with another grid.  On the cubic system the grids are 3-D: 4 and 16
# are pooled from 32, 12 is binned.
STREAM_CASES = {
    "quadratic": (("knuth", "negabinary", "five_a", "five_b"), (1, 64, 100, 128, 200, 257, 512)),
    "cubic": (("cubic",), (4, 12, 16, 32)),
}


@pytest.fixture(scope="session")
def cubic():
    return NumberSystem.parse("2,2,2,1", "0,0,0;1,0,0")


@pytest.mark.parametrize("case,block", [  # the quadratic cases keep their plain block ids
    pytest.param(case, block, id=str(block) if case == "quadratic" else "%s-%d" % (case, block))
    for case in STREAM_CASES for block in (tile.RASTER_BLOCK, 1000)
])
def test_streamed_rasters_match_cloud_rasters(request, monkeypatch, block, case):
    monkeypatch.setattr(tile, "RASTER_BLOCK", block)
    names, resolutions = STREAM_CASES[case]
    systems = [request.getfixturevalue(n) for n in names]
    if case == "quadratic":
        systems += list(request.getfixturevalue("random_systems"))
    for ns in systems:
        depth = stream_depth(ns)
        requests = [(s, r) for s in tile.SPACE_TAGS for r in resolutions]
        streamed = tile.tile_rasters(ns, depth, requests)
        assert set(streamed) == set(requests)
        for space in tile.SPACE_TAGS:
            # c0 = +-2 and an integer chart: every point is dyadic, the window exact
            chart = tile._chart(ns, space)
            exact = abs(ns.poly.coeffs[0]) == 2 and (chart is None or np.array_equal(chart, np.rint(chart)))
            pts = tile.tile_points(ns, depth, space).points
            for r in resolutions:
                got, ref = streamed[space, r], tile.rasterize(TileCloud(depth, pts, space), r)
                assert (got.resolution, got.depth, got.space_tag) == (r, depth, space)
                # every point lands where the old arithmetic puts it in got's window
                cells = np.zeros_like(got.occupancy)
                cells[tuple(cells_of(pts, *np.array(got.bbox).T, r).T)] = True
                assert np.array_equal(got.occupancy, cells)
                if exact:
                    assert got.bbox == ref.bbox
                    assert np.array_equal(got.occupancy, ref.occupancy)
                else:
                    # a point on a cell edge, common with rational coordinates,
                    # may change cell when the window moves by an ulp
                    assert np.allclose(got.bbox, ref.bbox, rtol=0, atol=1e-12)
                    n_got, n_ref = int(got.occupancy.sum()), int(ref.occupancy.sum())
                    assert abs(n_got - n_ref) <= 1e-3 * n_ref


def test_power_of_two_grids_are_pooled_not_binned(knuth, monkeypatch):
    monkeypatch.setattr(tile, "RASTER_BLOCK", 1000)
    real_bin = tile._bin
    marked = []

    def recording_bin(points, bbox, grids):
        marked.append(sorted(grid.shape[0] for grid in grids))
        real_bin(points, bbox, grids)

    monkeypatch.setattr(tile, "_bin", recording_bin)
    chunks = len(list(tile.cloud_chunks(knuth, 12)))
    # the criterion-5 request: the raster at 1024 and the box-counting grids
    tile.tile_rasters(knuth, 12, [("coordinate", 1024)] + [("coordinate", r) for r in (256, 512, 1024)])
    assert marked == [[1024]] * chunks
    marked.clear()
    tile.tile_rasters(knuth, 12, [("coordinate", r) for r in (100, 300)])
    assert marked == [[100, 300]] * chunks


def test_streamed_raster_of_depth_zero(knuth, negabinary):
    for ns in (knuth, negabinary):
        for space in tile.SPACE_TAGS:
            got = tile.tile_rasters(ns, 0, [(space, 8)])[space, 8]
            ref = tile.rasterize(tile.tile_points(ns, 0, space), 8)
            assert got.bbox == ref.bbox == ((-0.5, 0.5),) * ns.degree
            assert np.array_equal(got.occupancy, ref.occupancy)
            assert int(got.occupancy.sum()) == 1


def test_streamed_rasters_validate_before_streaming(knuth, monkeypatch):
    def no_chunks(*args):
        raise AssertionError("a chunk was generated")

    monkeypatch.setattr(tile, "cloud_chunks", no_chunks)
    with pytest.raises(UsageError):
        tile.tile_rasters(knuth, 4, [("polar", 8)])
    with pytest.raises(UsageError):
        tile.tile_rasters(knuth, 4, [("coordinate", 0)])
    with pytest.raises(UsageError):
        tile.tile_rasters(knuth, -1, [("coordinate", 8)])
    with pytest.raises(CapExceeded, match="cloud of 1073741824 points"):
        tile.tile_rasters(knuth, 30, [("coordinate", 8)])
