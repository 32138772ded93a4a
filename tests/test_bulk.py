"""Vectorized digit tables against the scalar operations they replace."""

from __future__ import annotations

import collections
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from oracles import (STATISTICS, automaton_table, count_rows, per_row_oracle, uint8_norm_sieve,
                     whole_table)

from radixion import algebra, bulk, cli, numeration
from radixion.errors import CapExceeded, DomainError, UsageError
from radixion.numeration import Expansion, digit_sum, pair_count


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


def assert_row_statistics(sums, pairs, i, lam, row):
    """Row i of the digit sum's reads `sums` and of the pair count's reads
    `pairs`, (exits, values) from each entry state, against the scalar
    route's row (scalar_row): the digit sum from its one state; the pair
    count from the state after a zero digit and after a nonzero one, which
    gains the pair of a nonzero lowest digit, leaving the state of the top
    digit (the entry state when lam is 0)."""
    value, s, r, low_nz, top_nz = row
    [(exits, values)] = sums
    assert tuple(values[i]) == s and exits[i] == 0
    for entry, (exits, values) in enumerate(pairs):
        assert tuple(values[i]) == (r + (entry and low_nz),)
        assert exits[i] == (top_nz if lam else entry)


def entry_reads(stat, Q, lam):
    """bulk.statistic_rows over N_lam from each entry state of `stat`."""
    return [bulk.statistic_rows(stat, Q, lam, lam, entry) for entry in range(len(stat.states))]


@pytest.mark.parametrize("lam", [0, 1, 2, 5])
def test_digit_table_matches_scalar_route(knuth, lam):
    coords = whole_table(knuth, lam)
    sums, pairs = entry_reads(digit_sum(knuth), 2, lam), entry_reads(pair_count(knuth), 2, lam)
    assert len(coords) == 2**lam
    for i in range(2**lam):
        row = scalar_row(knuth, i, lam)
        assert tuple(coords[i]) == row[0]
        assert_row_statistics(sums, pairs, i, lam, row)


def test_digit_table_matches_scalar_route_nonbinary(five_b):
    lam = 3
    coords = whole_table(five_b, lam)
    sums, pairs = entry_reads(digit_sum(five_b), 5, lam), entry_reads(pair_count(five_b), 5, lam)
    for i in range(5**lam):
        row = scalar_row(five_b, i, lam)
        assert tuple(coords[i]) == row[0]
        assert_row_statistics(sums, pairs, i, lam, row)


def test_digit_table_agrees_with_enumerate(knuth):
    stream = list(numeration.enumerate_N(knuth, 8))
    assert [tuple(row) for row in whole_table(knuth, 8).tolist()] == stream


def test_q_power_matrix_is_multiplication(knuth_poly):
    """The digit layers are multiplication by powers of q: on random digit
    sets {0, x} of Knuth's base (x = a + b q with a odd, the other residue
    class), layer j of digit_layers(ns, k, 2) holds q^(k + j) times each
    digit, and the matrix of q^k that tile.lattice_area takes from
    algebra.mult_matrix maps x to q^k x."""
    rng = np.random.default_rng(37)
    for k in range(6):
        qk = algebra.q_power(knuth_poly, k)
        mat = np.array(algebra.mult_matrix(knuth_poly, qk), dtype=np.int64)
        for _ in range(50):
            x = (2 * int(rng.integers(-5, 5)) + 1, int(rng.integers(-9, 10)))
            ns = numeration.NumberSystem(knuth_poly, ((0, 0), x))
            assert bulk.digit_layers(ns, k, 2) == [
                [(0, 0), algebra.mul(knuth_poly, algebra.q_power(knuth_poly, k + j), x)]
                for j in range(2)]
            assert tuple(np.array(x) @ mat.T) == algebra.mul(knuth_poly, qk, x)


def test_q_power_matrix_overflow_guard(knuth, monkeypatch):
    """The int64 guard of the layer tables is _check_rows's on the
    coordinates: with Knuth's digit 2^57 + 1 the coordinates of N_lam first
    pass 2^60 at lam 7.  split_tables builds N_6 exactly, against the
    oracle's merge, under low tables of 1, 8 and 64 rows, and refuses N_7
    before any layer table is summed."""
    wide = numeration.NumberSystem(knuth.poly, ((0, 0), (2**57 + 1, 0)))
    widest = [max(max(-a, b) for a, b in zip(*bulk.coordinate_ranges(wide, lam)))
              for lam in range(8)]
    assert max(widest[:7]) < bulk.INT64_GUARD <= widest[7]
    for size in (1, 8, bulk.ROW_BLOCK):
        monkeypatch.setattr(bulk, "ROW_BLOCK", size)
        low, offsets = bulk.split_tables(wide, 6)
        assert np.array_equal((offsets[:, None] + low).reshape(-1, 2), whole_table(wide, 6))
    monkeypatch.setattr(bulk, "layer_table", refuse)
    with pytest.raises(CapExceeded, match="coordinates of N_7 reach"):
        bulk.split_tables(wide, 7)


def test_u_matrix_is_multiplication(knuth_poly):
    """The rows form of digit_layers applies integer rows to each digit
    term: with the rows of the matrix of u (q u = c_0), from which tile's
    cloud numerators are built, layer j holds u q^j b for each digit b; at
    j = 1 the digit (1, 0) gives u times (0, 1)."""
    u = algebra.u_element(knuth_poly)
    rows = algebra.mult_matrix(knuth_poly, u)
    for x in ((1, 0), (3, -2), (-5, 7)):
        ns = numeration.NumberSystem(knuth_poly, ((0, 0), x))
        for j, layer in enumerate(bulk.digit_layers(ns, 0, 3, rows)):
            qj = algebra.q_power(knuth_poly, j)
            assert layer == [algebra.mul(knuth_poly, u, algebra.mul(knuth_poly, qj, b))
                             for b in ns.digits], (x, j)


def test_layer_table_is_the_enumeration(request):
    """layer_table over digit_layers against the oracle's meet-in-the-middle
    merge (whole_table) and, row by row, against numeration.evaluate of the
    digit indices the row's index spells; the rows form against whole_table
    times the rows; and layer j of digit_layers(ns, s, c) against q^(s + j)
    times each digit.  On the golden and random systems and the first 10
    CNS systems, at the largest lambda with Q^lambda <= 4096."""
    rng = np.random.default_rng(34)
    cns = [ns for ns, _ in request.getfixturevalue("cns_systems")[:10]]
    for ns in golden_and_random(request) + cns:
        lam = oracle_depth(ns, 4096)
        table = bulk.layer_table(bulk.digit_layers(ns, 0, lam), ns.degree)
        assert table.dtype == np.int64 and np.array_equal(table, whole_table(ns, lam)), ns
        for i, row in enumerate(table.tolist()):
            indices = tuple(i // ns.Q**j % ns.Q for j in range(lam))
            assert tuple(row) == numeration.evaluate(ns, Expansion(indices)), (ns, i)
        rows = rng.integers(-9, 10, (3, ns.degree)).tolist()
        got = bulk.layer_table(bulk.digit_layers(ns, 0, lam, rows), 3)
        assert np.array_equal(got, whole_table(ns, lam) @ np.array(rows, np.int64).T), ns
        for start, count in ((0, lam), (2, 3), (lam, 1)):
            for j, layer in enumerate(bulk.digit_layers(ns, start, count)):
                qj = algebra.q_power(ns.poly, start + j)
                assert layer == [algebra.mul(ns.poly, qj, b) for b in ns.digits], (ns, start, j)



# -------------------------------------------------------------- the split


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


def split_statistic(stat, Q, lam):
    """(exits, values) from each entry state over the rows of N_lam, in row
    order, by the split of bulk.split_tables: bulk.statistic_rows over its
    low positions (bulk._low_positions) and over its high ones; row h * |low|
    + l takes low row l's value plus high row h's from the state low row l
    leaves, and high row h's exit from that state."""
    positions = bulk._low_positions(Q, lam)
    states = range(len(stat.states))
    high = [bulk.statistic_rows(stat, Q, lam - positions, lam, entry) for entry in states]
    high_exits, high_values = np.stack([e for e, _ in high]), np.stack([v for _, v in high])
    reads = []
    for exits, values in (bulk.statistic_rows(stat, Q, positions, lam, entry) for entry in states):
        into, rows = exits[None, :], np.arange(Q ** (lam - positions))[:, None]  # [h, l]
        reads.append((high_exits[into, rows].ravel(),
                      (high_values[into, rows] + values).reshape(-1, stat.width)))
    return reads


def test_split_rows_are_the_enumeration(request, each_row_block):
    for ns in golden_and_random(request):
        Q = ns.Q
        for lam in (0, 1, oracle_depth(ns)):
            total = Q**lam
            stream = list(numeration.enumerate_N(ns, lam))
            rows = [scalar_row(ns, i, lam) for i in range(total)]
            # low tables of 1, Q and Q^2 rows, and of the most within 7, 37 and 100
            for size in each_row_block(1, Q, Q + 1, Q * Q + 1, 7, 37, 100, bulk.ROW_BLOCK):
                low, offsets = bulk.split_tables(ns, lam)
                n_low = len(low)  # the most Q^j rows within size
                assert n_low <= size and (n_low == total or n_low * Q > size)
                assert (Q ** bulk._low_positions(Q, lam), len(offsets) * n_low) == (n_low, total)
                assert list(numeration.enumerate_N(ns, lam)) == stream
                for h in range(len(offsets)):
                    ref = rows[h * n_low : (h + 1) * n_low]
                    got = [tuple(v) for v in (low + offsets[h]).tolist()]
                    assert got == stream[h * n_low : (h + 1) * n_low] == [w[0] for w in ref]
                sums = split_statistic(digit_sum(ns), Q, lam)
                pairs = split_statistic(pair_count(ns), Q, lam)
                for i, row in enumerate(rows):
                    assert_row_statistics(sums, pairs, i, lam, row)


def test_blocks_carry_only_the_asked_columns(request, each_row_block):
    """The split's tables hold coordinates only, int64: the low table is the
    whole table of its positions, and offset h is q^positions times high row
    h.  A statistic is read apart (bulk.statistic_rows), int8 exits and int32
    values of its width.  prime_blocks gives the same split, and the mask of
    the low rows per high row, in order."""
    for ns in golden_and_random(request):
        lam = oracle_depth(ns)
        for stat in (digit_sum(ns), pair_count(ns)):
            for exits, values in entry_reads(stat, ns.Q, lam):
                assert exits.shape == (ns.Q**lam,) and exits.dtype == np.int8
                assert values.shape == (ns.Q**lam, stat.width) and values.dtype == np.int32
        for _ in each_row_block(7, bulk.ROW_BLOCK):
            low, offsets = bulk.split_tables(ns, lam)
            positions = bulk._low_positions(ns.Q, lam)
            shift = algebra.q_power(ns.poly, positions)
            assert low.dtype == offsets.dtype == np.int64
            assert np.array_equal(low, whole_table(ns, positions))
            assert [algebra.mul(ns.poly, shift, tuple(row)) for row in
                    whole_table(ns, lam - positions).tolist()] == list(map(tuple, offsets.tolist()))
            # the prime pass: the split, and the mask of the low rows per high row, in order
            quadratic = ns.poly.coeffs[:2] if ns.degree == 2 else None
            table = bulk._norm_bits(bulk._norm_bound(ns, lam), quadratic)
            four = bool(uint8_norm_sieve(4, ns.poly.coeffs if ns.degree == 2 else None)[4])
            got_low, got_offsets, masks = bulk.prime_blocks(ns, lam)
            assert np.array_equal(got_low, low) and np.array_equal(got_offsets, offsets)
            seen = []
            for h, mask in masks:
                rows = (low + offsets[h]).tolist()
                norms = np.array([abs(algebra.norm(ns.poly, tuple(v))) for v in rows])
                assert np.array_equal(mask, bulk.prime_mask(ns, norms, table, four))
                seen.append(h)
            assert seen == list(range(len(offsets)))


def test_digit_table_width_follows_the_value_box(knuth, each_row_block):
    """The statistic's values take int32 while the digit sum's box
    lambda * [0, 2^30 + 1] stays below 2^31, and int64 from lambda 2 on,
    where the sum 2^31 + 2 of two top digits would wrap int32; the reads of
    both halves of the split share the width, their values are the
    automaton's, and the top row's halves add up exactly."""
    wide = numeration.NumberSystem(knuth.poly, ((0, 0), (2**30 + 1, 0)))
    stat = digit_sum(wide)
    for _ in each_row_block(1, 2, bulk.ROW_BLOCK):
        for lam, width in ((1, np.int32), (2, np.int64), (3, np.int64)):
            positions = bulk._low_positions(2, lam)
            lengths = (positions, lam - positions)
            halves = [bulk.statistic_rows(stat, 2, n, lam, 0)[1] for n in lengths]
            for n, values in zip(lengths, halves):
                assert values.dtype == width, (lam, n)
                assert list(map(tuple, values.tolist())) == automaton_table(stat, 2, n, 0)[1]
            assert int(halves[0][-1, 0] + halves[1][-1, 0]) == lam * (2**30 + 1)


def test_statistic_rows_match_the_automaton(request, each_row_block):
    """bulk.statistic_rows against the automaton run on every row's digit
    indices (automaton_table), from each entry state, at lambda 0, 1 and the
    largest with Q^lambda <= 4096; and so is each row's value and exit over
    the split (split_statistic), under low tables of 1, 7, 100 and ROW_BLOCK
    rows.  On the golden and random systems and the first 10 CNS systems,
    for the digit sum and the pair count."""
    cns = [ns for ns, _ in request.getfixturevalue("cns_systems")[:10]]
    for ns in golden_and_random(request) + cns:
        for lam in sorted({0, 1, oracle_depth(ns, 4096)}):
            for stat in (digit_sum(ns), pair_count(ns)):
                entries = range(len(stat.states))
                oracle = [automaton_table(stat, ns.Q, lam, entry) for entry in entries]
                for (exits, values), (want_exits, want_values) in zip(
                        entry_reads(stat, ns.Q, lam), oracle):
                    assert exits.tolist() == want_exits, (ns, lam, stat.states)
                    assert list(map(tuple, values.tolist())) == want_values, (ns, lam, stat.states)
                for _ in each_row_block(1, 7, 100, bulk.ROW_BLOCK):
                    for (exits, values), (want_exits, want_values) in zip(
                            split_statistic(stat, ns.Q, lam), oracle):
                        assert exits.tolist() == want_exits
                        assert list(map(tuple, values.tolist())) == want_values


def test_zero_digit_statistic_refuses_several_lambda(knuth, monkeypatch):
    """A statistic whose zero digit adds gives the rows of N_lam other
    values within N_top, so prime_histogram refuses a request of several
    lambda with UsageError, before any table is built, and counts one lambda
    alone: on Knuth's system, one state counting the zero digits, whose
    prime rows of N_3 are two with one zero digit and one with two."""
    zeros = numeration.DigitStatistic(
        ("any",), 0, (tuple((0, (int(b == knuth.zero),)) for b in knuth.digits),), False)
    monkeypatch.setattr(bulk, "split_tables", refuse)
    monkeypatch.setattr(bulk, "_norm_bits", refuse)
    with pytest.raises(UsageError, match="the zero digit adds to the statistic"):
        bulk.prime_histogram(knuth, zeros, [3, 5])
    monkeypatch.undo()
    assert bulk.prime_histogram(knuth, zeros, [3]) == [{(1,): 2, (2,): 1}]
    assert bulk.prime_histogram(knuth, digit_sum(knuth), [3, 5])[0] \
        == bulk.prime_histogram(knuth, digit_sum(knuth), [3])[0]


def test_coordinate_ranges_are_exact(request):
    for ns in golden_and_random(request):
        for lam in (0, 1, oracle_depth(ns)):
            pts = np.array(list(numeration.enumerate_N(ns, lam)))
            lo, hi = bulk.coordinate_ranges(ns, lam)
            assert lo == pts.min(axis=0).tolist() and hi == pts.max(axis=0).tolist()


def enumerate_count(capsysbinary, ns, lam):
    """(count, distinct) as printed by `expand --enumerate lam`."""
    poly, digits = ns.encode().split("|")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # quartic irreducibility is not checked
        assert cli.main(["expand", "--poly", poly, "--digits", digits, "--enumerate", str(lam)]) == 0
    enum = json.loads(capsysbinary.readouterr().out)["enumeration"]
    return enum["count"], enum["distinct"]


def test_count_rows_matches_enumeration(request, each_row_block, capsysbinary):
    # expand --enumerate prints Q^lam twice, from the residue theorem; the
    # oracle counts the distinct keys of the split; enumerate_N streams rows
    cns = [ns for ns, _ in request.getfixturevalue("cns_systems")]
    for ns in golden_and_random(request) + cns:
        lam = oracle_depth(ns, 2000)
        stream = list(numeration.enumerate_N(ns, lam))
        counted = (len(stream), len(set(stream)))
        assert enumerate_count(capsysbinary, ns, lam) == counted == (ns.Q**lam,) * 2, ns.encode()
        for _ in each_row_block(7, 100, bulk.ROW_BLOCK):
            assert count_rows(ns, lam) == counted
    knuth = request.getfixturevalue("knuth")
    assert enumerate_count(capsysbinary, knuth, 0) == count_rows(knuth, 0) == (1, 1)


# ----------------------------------------------------------- the prime pass


def prime_systems(request):
    """The golden and random systems, the CNS systems of degree <= 2, and
    two more bases in Z: -3 with digits {0, 1, 2}, 3 with digits {0, 1, -1}."""
    cns = [ns for ns, _ in request.getfixturevalue("cns_systems") if ns.degree <= 2]
    return golden_and_random(request) + cns + [numeration.NumberSystem.parse("3,1", "0;1;2"),
                                               numeration.NumberSystem.parse("-3,1", "0;1;-1")]


def test_prime_pass_matches_per_row_oracle(request, monkeypatch):
    """prime_rows and the prime histograms of both statistics against the
    per-row oracle at lambda 0, 1 and the largest with Q^lambda <= 4096 (1024
    for the CNS systems), under low tables of Q^2 rows and of the most rows
    within 100 and within ROW_BLOCK; and prime_rows without the norm table,
    each norm tested alone."""
    cns = request.getfixturevalue("cns_systems")
    for ns in prime_systems(request):
        top = oracle_depth(ns, 1024 if any(ns is c for c, _ in cns) else 4096)
        for lam in sorted({0, 1, top}):
            rows, prime, s, r = per_row_oracle(ns, lam)
            primes = [n for n, p in zip(rows, prime) if p]
            expected = {"sod": collections.Counter(v for v, p in zip(s, prime) if p),
                        "rs": collections.Counter(v for v, p in zip(r, prime) if p)}
            for size in (ns.Q**2, 100, bulk.ROW_BLOCK):
                monkeypatch.setattr(bulk, "ROW_BLOCK", size)
                got = np.concatenate(bulk.prime_rows(ns, lam)).tolist()
                assert list(map(tuple, got)) == primes, (ns, lam, size)
                for fn in ("sod", "rs"):
                    [hist] = bulk.prime_histogram(ns, STATISTICS[fn](ns), [lam])
                    assert list(hist) == sorted(hist)
                    assert hist == dict(expected[fn]), (ns, lam, fn, size)
            # a table past any budget: none is built, and each norm is tested alone
            monkeypatch.setattr(bulk, "_norm_bound", lambda ns, lam: 1 << 62)
            monkeypatch.setattr(bulk, "_norm_bits", refuse)
            got = np.concatenate(bulk.prime_rows(ns, lam)).tolist()
            assert list(map(tuple, got)) == primes, (ns, lam)
            monkeypatch.undo()



def test_prime_pass_in_both_widths(knuth, monkeypatch):
    """prime_rows and the prime histograms of both statistics against the
    per-row oracle in each width of the split pass: int32 norms on Knuth's
    system, int64 on two wide digit sets, 16777217 = 97 * 257 * 673 (every
    element composite) and a five-digit set whose digit 20004 puts six times
    the widest norm form past 2^31 from lambda 1 on, with primes."""
    wide = [numeration.NumberSystem(knuth.poly, ((0, 0), (16777217, 0))),
            numeration.NumberSystem.parse("5,4,1", "0,0;1,0;2,0;3,0;20004,0")]
    seen = []

    def spy(ns, norms, *args):
        seen.append(norms.dtype)
        return mask(ns, norms, *args)

    mask = bulk.prime_mask
    monkeypatch.setattr(bulk, "prime_mask", spy)
    for ns, lam, width in ((knuth, 10, np.int32), (wide[0], 8, np.int64), (wide[1], 4, np.int64)):
        assert bulk._int_type(bulk._split_bound(ns, lam)) == width
        rows, prime, s, r = per_row_oracle(ns, lam)
        assert any(prime) != (ns is wide[0])  # only 16777217's multiples are all composite
        seen.clear()
        got = np.concatenate(bulk.prime_rows(ns, lam)).tolist()
        assert list(map(tuple, got)) == [n for n, p in zip(rows, prime) if p], ns
        assert set(seen) == {np.dtype(width)}
        for fn, values in (("sod", s), ("rs", r)):
            expected = collections.Counter(v for v, p in zip(values, prime) if p)
            assert bulk.prime_histogram(ns, STATISTICS[fn](ns), [lam]) == [dict(expected)], (ns, fn)


def test_one_pass_counts_every_lambda(request, monkeypatch):
    """prime_histogram over several lambda in one request: each histogram of
    the one pass at the largest against a separate pass at that lambda and
    against the per-row oracle, both statistics.  On the golden, random and
    CNS systems of degree <= 2, Knuth's base with the zero digit listed
    second (N_lam is then no prefix of N_top) and 3,1,1 (2 inert, so norm 4
    is prime), at the largest lambda with Q^lambda <= 1024, under low tables
    of Q^2 rows (lambda 0 and 1 below their positions, the rest above) and
    of ROW_BLOCK rows (every lambda below or at them)."""
    cns = [ns for ns, _ in request.getfixturevalue("cns_systems") if ns.degree <= 2]
    systems = golden_and_random(request) + cns + [
        numeration.NumberSystem.parse("2,2,1", "1,0;0,0"),
        numeration.NumberSystem.parse("3,1,1", "0,0;1,0;2,0")]
    for ns in systems:
        top = oracle_depth(ns, 1024)
        lams = sorted({0, 1, 2, top - 1, top})
        expected = {}
        for lam in lams:
            rows, prime, s, r = per_row_oracle(ns, lam)
            expected["sod", lam] = dict(collections.Counter(v for v, p in zip(s, prime) if p))
            expected["rs", lam] = dict(collections.Counter(v for v, p in zip(r, prime) if p))
        for size in (ns.Q**2, bulk.ROW_BLOCK):
            monkeypatch.setattr(bulk, "ROW_BLOCK", size)
            for fn in ("sod", "rs"):
                hists = bulk.prime_histogram(ns, STATISTICS[fn](ns), lams)
                assert len(hists) == len(lams)
                for lam, hist in zip(lams, hists):
                    assert list(hist) == sorted(hist)
                    assert hist == expected[fn, lam], (ns, fn, lam, size)
                    assert bulk.prime_histogram(ns, STATISTICS[fn](ns), [lam]) == [hist]
    knuth = request.getfixturevalue("knuth")  # the criterion-7 request: N_14 is high row 0 of N_22
    monkeypatch.undo()
    assert [sum(h.values()) for h in bulk.prime_histogram(knuth, pair_count(knuth), [14, 22])] \
        == [2717, 399222]


def test_distinct_rows_match_numpy_unique():
    """_distinct_rows gives numpy's distinct rows (ascending, the first
    column leading) and inverse, on random integer columns: no row, one row,
    int8 beside int32 columns, negative values, few and many repeats."""
    rng = np.random.default_rng(11)
    cases = [[np.zeros(0, np.int8), np.zeros(0, np.int32)], [np.array([-3], np.int32)]]
    for rows in (1, 2, 50, 3000):
        for spread in (1, 3, 1 << 20):
            exits = rng.integers(-2, 3, rows).astype(np.int8)
            values = rng.integers(-spread, spread + 1, (2, rows)).astype(np.int32)
            cases += [[exits, *values], [values[0]], [values[1], exits, values[0].astype(np.int64)]]
    for columns in cases:
        expected, inverse = np.unique(np.column_stack(columns), axis=0, return_inverse=True)
        distinct, index = bulk._distinct_rows(columns)
        assert [c.dtype for c in distinct] == [c.dtype for c in columns]
        assert np.array_equal(np.column_stack(distinct).reshape(-1, len(columns)), expected)
        assert np.array_equal(index, inverse.ravel())


def test_prime_histogram_memory_fence(knuth):
    """Criterion 7's largest run, the lambda-22 rs prime histogram of Knuth's
    system, peaks at most 4.5 MB of traced allocations: the low table's
    values, the norms and the keys in int32, and the low coordinates freed
    once the norm vectors are taken from them."""
    stat = pair_count(knuth)
    bulk.prime_histogram(knuth, stat, [4])  # lazy imports, outside the trace
    tracemalloc.start()
    try:
        [hist] = bulk.prime_histogram(knuth, stat, [22])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(hist.values()) == 399222
    assert peak <= 4.5e6, peak


def test_prime_histogram_streams_small_chunks(knuth):
    """The lambda-22 rs prime histogram of Knuth's system peaks at most
    2.0 MB of traced allocations: its per-high-row norms, masks and counts
    span one low table of at most ROW_BLOCK (2^14) rows."""
    stat = pair_count(knuth)
    bulk.prime_histogram(knuth, stat, [4])  # lazy imports, outside the trace
    tracemalloc.start()
    try:
        [hist] = bulk.prime_histogram(knuth, stat, [22])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(hist.values()) == 399222
    assert peak <= 2.0e6, peak


def test_split_norms_are_exact_at_the_guard_edge(knuth, five_a, each_row_block):
    """At the widest digit the int64 guard admits, every norm of the split
    pass is exact, and every partial sum of N(l) + alpha a + beta b + N(o)
    stays within six times the widest form, below 2^63, the bound whose
    width (int64 here, int32 for the unwidened system) the pass takes; one
    step wider, the guard raises."""
    real = [numeration.NumberSystem.parse(poly, ";".join("%d,0" % r for r in range(q)))
            for poly, q in (("5,-5,1", 5), ("-6,4,1", 6))]  # indefinite norm forms
    for base in (knuth, five_a, *real):
        c0, c1 = base.poly.coeffs[:2]
        lam = 3

        def widened(k):  # the digit 1 moved to 1 + k Q, the same residue class
            digits = tuple((1 + k * base.Q, 0) if b == (1, 0) else b for b in base.digits)
            return numeration.NumberSystem(base.poly, digits)

        def widest(ns):
            lo, hi = bulk.coordinate_ranges(ns, lam)
            a, b = max(-lo[0], hi[0]), max(-lo[1], hi[1])
            return a * a + abs(c1) * a * b + abs(c0) * b * b

        k, step = 0, 1 << 40  # the largest k the guard admits, by bisection
        while step:
            if widest(widened(k + step)) < bulk.INT64_GUARD:
                k += step
            step //= 2
        ns, bound = widened(k), widest(widened(k))
        assert bound < bulk.INT64_GUARD <= widest(widened(k + 1))
        with pytest.raises(DomainError, match="norms over lambda 3 can reach"):
            bulk._split_bound(widened(k + 1), lam)
        assert bulk._split_bound(ns, lam) == 6 * bound
        width = bulk._int_type(6 * bound)
        assert width == np.int64 and bulk._int_type(bulk._split_bound(base, lam)) == np.int32
        for _ in each_row_block(1, ns.Q, bulk.ROW_BLOCK):
            low, offsets = bulk.split_tables(ns, lam)
            columns = low.T.astype(width, order="C")
            got = [norm.copy() for _, norm in bulk._split_norms(ns, columns, offsets)]
            for (a_o, b_o), norms in zip(offsets.tolist(), got):
                alpha, beta = 2 * a_o - c1 * b_o, 2 * c0 * b_o - c1 * a_o
                for (a, b), norm in zip(low.tolist(), norms.tolist()):
                    terms = (a * a - c1 * a * b + c0 * b * b, alpha * a, beta * b,
                             a_o * a_o - c1 * a_o * b_o + c0 * b_o * b_o)
                    partial = [sum(terms[:i + 1]) for i in range(4)]
                    assert max(map(abs, partial)) <= 6 * bound < 2**63
                    assert norm == abs(algebra.norm(ns.poly, (a + a_o, b + b_o)))


def refuse(*args, **kwargs):
    raise AssertionError("built before the guard")


def test_split_guard_before_building(knuth, monkeypatch):
    # split_tables checks, and enumerate_N through it when called, not when iterated
    monkeypatch.setattr(bulk, "layer_table", refuse)
    wide = numeration.NumberSystem(knuth.poly, ((0, 0), (2**61 + 1, 0)))
    for route in (bulk.split_tables, numeration.enumerate_N):
        with pytest.raises(CapExceeded, match="table of 1073741824 elements"):
            route(knuth, 30)
        with pytest.raises(UsageError):
            route(knuth, -1)
        # a digit near 2^61: rows of N_1 would pass the int64 budget
        with pytest.raises(CapExceeded, match="coordinates of N_1 reach"):
            route(wide, 1)


def test_count_rows_key_guard(knuth, monkeypatch, capsysbinary):
    # both coordinates of N_2 span 2^40 + 2 values: a key of the oracle
    # over their box needs about 2^80 values and would wrap int64; the count
    # of expand --enumerate builds no key and no table
    wide = numeration.NumberSystem(knuth.poly, ((0, 0), (2**40 + 1, 0)))
    monkeypatch.setattr(bulk, "split_tables", refuse)
    with pytest.raises(CapExceeded, match="row keys of N_2 span"):
        count_rows(wide, 2)
    assert enumerate_count(capsysbinary, wide, 2) == (4, 4)
