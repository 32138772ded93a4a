"""Vectorized digit tables against the scalar operations they replace."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from radixion import algebra, bulk, numeration
from radixion.errors import CapExceeded, UsageError
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


def whole_table(ns, lam):
    """All rows of N_lam in one DigitTable: the row blocks, concatenated."""
    blocks = list(bulk.row_blocks(ns, lam))
    return bulk.DigitTable(lam, *(np.concatenate([getattr(b, f.name) for b in blocks])
                                  for f in dataclasses.fields(bulk.DigitTable)[1:]))


@pytest.mark.parametrize("lam", [0, 1, 2, 5])
def test_digit_table_matches_scalar_route(knuth, lam):
    table = whole_table(knuth, lam)
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
    table = whole_table(five_b, lam)
    for i in range(5**lam):
        value, s, r, low_nz, top_nz = scalar_row(five_b, i, lam)
        assert tuple(table.coords[i]) == value
        assert tuple(table.s_coords[i]) == s
        assert table.r[i] == r


def test_digit_table_agrees_with_enumerate(knuth):
    table = whole_table(knuth, 8)
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



# ------------------------------------------------------------- row blocks


def golden_and_random(request):
    names = ("knuth", "negabinary", "five_a", "five_b")
    return [request.getfixturevalue(n) for n in names] + list(
        request.getfixturevalue("random_systems")
    )


def oracle_depth(ns, rows=600):
    """Largest lambda with at most `rows` rows."""
    lam = 0
    while ns.Q ** (lam + 1) <= rows:
        lam += 1
    return lam


def test_row_blocks_are_slices_of_the_enumeration(request, each_row_block):
    for ns in golden_and_random(request):
        Q = ns.Q
        for lam in (0, 1, oracle_depth(ns)):
            total = Q**lam
            stream = list(numeration.enumerate_N(ns, lam))
            rows = [scalar_row(ns, i, lam) for i in range(total)]
            # low tables of 1, Q and Q^2 rows under blocks of 1, Q, Q + 1,
            # Q^2 + 1, 7, 37 and 100 rows: blocks ragged and across seams
            for size in each_row_block(1, Q, Q + 1, Q * Q + 1, 7, 37, 100, bulk.ROW_BLOCK):
                n_low = len(bulk.split_tables(ns, lam)[0].r)  # the most Q^j rows within size
                assert n_low <= size and (n_low == total or n_low * Q > size)
                starts = range(0, total, size)
                blocks = list(bulk.row_blocks(ns, lam))
                assert [len(b.r) for b in blocks] == [min(size, total - a) for a in starts]
                for a, block in zip(starts, blocks):
                    ref = rows[a : a + size]
                    assert block.lam == lam
                    assert [tuple(v) for v in block.coords.tolist()] == stream[a : a + size]
                    assert [tuple(v) for v in block.coords.tolist()] == [w[0] for w in ref]
                    assert [tuple(v) for v in block.s_coords.tolist()] == [w[1] for w in ref]
                    assert block.r.tolist() == [w[2] for w in ref]
                    assert block.low_nz.tolist() == [w[3] for w in ref]
                    assert block.top_nz.tolist() == [w[4] for w in ref]


def test_blocks_carry_only_the_asked_columns(request, each_row_block):
    columns = ("coords", "s_coords", "r", "low_nz", "top_nz")
    carried = {(): ("coords",), ("sod",): ("coords", "s_coords"),
               ("rs",): ("coords", "r", "low_nz", "top_nz")}
    for ns in golden_and_random(request):
        lam = oracle_depth(ns)
        for _ in each_row_block(7, bulk.ROW_BLOCK):
            full = list(bulk.row_blocks(ns, lam))
            for stats, kept in carried.items():
                blocks = list(bulk.row_blocks(ns, lam, stats))
                assert len(blocks) == len(full)
                for block, ref in zip(blocks, full):
                    for name in columns:
                        if name in kept:
                            assert np.array_equal(getattr(block, name), getattr(ref, name))
                        else:
                            assert getattr(block, name) is None
            # the prime pass: views of buffers reused from block to block
            table = bulk.norm_table(ns, lam)
            seen = 0
            for (block, mask), ref in zip(bulk.prime_blocks(ns, lam, ("sod",)), full):
                assert np.array_equal(block.coords, ref.coords)
                assert np.array_equal(block.s_coords, ref.s_coords) and block.r is None
                assert np.array_equal(mask, bulk.prime_mask(ns, ref.coords, table))
                seen += 1
            assert seen == len(full)


def test_coordinate_ranges_are_exact(request):
    for ns in golden_and_random(request):
        for lam in (0, 1, oracle_depth(ns)):
            pts = np.array(list(numeration.enumerate_N(ns, lam)))
            lo, hi = bulk.coordinate_ranges(ns, lam)
            assert lo == pts.min(axis=0).tolist() and hi == pts.max(axis=0).tolist()


def test_count_rows_matches_enumeration(request, monkeypatch):
    monkeypatch.setattr(bulk, "ROW_BLOCK", 100)
    for ns in golden_and_random(request):
        lam = oracle_depth(ns, 2000)
        stream = list(numeration.enumerate_N(ns, lam))
        assert bulk.count_rows(ns, lam) == (len(stream), len(set(stream)))
    assert bulk.count_rows(request.getfixturevalue("knuth"), 0) == (1, 1)


def refuse(*args, **kwargs):
    raise AssertionError("built before the guard")


def test_row_blocks_guard_before_building(knuth, monkeypatch):
    monkeypatch.setattr(bulk, "_build_table", refuse)
    with pytest.raises(CapExceeded, match="table of 1073741824 elements"):
        bulk.row_blocks(knuth, 30)
    with pytest.raises(UsageError):
        bulk.row_blocks(knuth, -1)
    # a digit near 2^61: rows of N_1 would pass the int64 budget
    wide = numeration.NumberSystem(knuth.poly, ((0, 0), (2**61 + 1, 0)))
    with pytest.raises(CapExceeded, match="coordinates of N_1 reach"):
        bulk.row_blocks(wide, 1)


def test_count_rows_key_guard(knuth, monkeypatch):
    # both coordinates of N_2 span 2^40 + 2 values: a key over their box
    # needs about 2^80 values and would wrap int64
    wide = numeration.NumberSystem(knuth.poly, ((0, 0), (2**40 + 1, 0)))
    monkeypatch.setattr(bulk, "row_blocks", refuse)
    with pytest.raises(CapExceeded, match="row keys of N_2 span"):
        bulk.count_rows(wide, 2)
