"""Prime classification, linear forms, Weyl sums, Fourier decay."""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from oracles import (INERT, PRIME, STATISTICS, enumerated_histogram, fourier_table_oracle,
                     is_prime_element, numpy_norm_bound, oracle_mask, poly_has_root_mod,
                     rudin_shapiro, scalar_histogram, strong_probable_prime, sum_of_digits,
                     trial_division_is_prime, uint8_norm_sieve, weyl_table_oracle, whole_table)

from radixion import algebra, analysis, bulk, numeration
from radixion.analysis import LinearForm
from radixion.errors import CapExceeded, DomainError, UsageError
from radixion.numeration import NumberSystem, digit_sum, pair_count

GOLDEN_RATIO = 0.6180339887


@pytest.fixture(scope="module")
def cubic():
    return NumberSystem.parse("2,0,0,1", "0,0,0;1,0,0")


# ---------------------------------------------------------------- primes


def test_prime_verdict_examples(knuth):
    cases = {
        (0, 0): "zero",
        (1, 1): "unit",
        (2, 1): "prime_split",
        (3, 0): "prime_inert",
        (2, 0): "composite",
    }
    for coords, kind in cases.items():
        assert is_prime_element(knuth, coords).kind == kind


def test_prime_verdict_degree_one(negabinary):
    assert is_prime_element(negabinary, (3,)).kind == "prime_split"
    assert is_prime_element(negabinary, (4,)).kind == "composite"
    assert is_prime_element(negabinary, (-1,)).kind == "unit"


def test_prime_verdict_degree_cap(knuth):
    # (2^33 + 1)^2 ~ 7.4e19 is decided (2^33 + 1 = 3 * 2863311531); (2^40 + 1)^2
    # ~ 1.2e24 has no factor up to 37 and lies past the twelve-base bound
    assert is_prime_element(knuth, (2**33 + 1, 0)).kind == "composite"
    with pytest.raises(CapExceeded, match="primality of the norm %d" % (2**40 + 1) ** 2):
        is_prime_element(knuth, (2**40 + 1, 0))


# ----------------------------------------------------- the prime pass


def pass_mask(ns, lam):
    """The prime pass's masks, concatenated in row order."""
    _, _, masks = bulk.prime_blocks(ns, lam)
    return np.concatenate([mask.copy() for _, mask in masks])


def test_prime_enumeration_small(knuth):
    assert np.concatenate(bulk.prime_rows(knuth, 1)).tolist() == []
    assert np.concatenate(bulk.prime_rows(knuth, 3)).tolist() == [[0, 1], [-1, -2], [-2, -1]]


def test_prime_counts_frozen(knuth):
    for lam, count in ((14, 2717), (18, 31060)):
        assert int(pass_mask(knuth, lam).sum()) == count
        assert int(oracle_mask(knuth, whole_table(knuth, lam)).sum()) == count


def test_prime_mask_matches_scalar(knuth, five_a, each_row_block):
    for ns, lam in ((knuth, 8), (five_a, 4)):
        coords = whole_table(ns, lam)
        expected = [is_prime_element(ns, tuple(int(v) for v in row)).kind
                    in analysis.PRIME_KINDS for row in coords]
        for _ in each_row_block(1, 7, bulk.ROW_BLOCK):
            assert pass_mask(ns, lam).tolist() == expected


def test_prime_counts_at_lambda_22_and_24(knuth):
    assert sum(map(len, bulk.prime_rows(knuth, 22))) == 399222
    assert sum(map(len, bulk.prime_rows(knuth, 24))) == 1449036


def test_prime_rows_match_one_mask(request, monkeypatch):
    monkeypatch.setattr(bulk, "ROW_BLOCK", 100)
    for ns in [request.getfixturevalue(n) for n in ("knuth", "negabinary", "five_a", "five_b")]:
        lam = 1
        while ns.Q ** (lam + 1) <= 3000:
            lam += 1
        coords = whole_table(ns, lam)
        mask = oracle_mask(ns, coords)
        low = len(bulk.split_tables(ns, lam)[0])  # the rows of one high row
        blocks = bulk.prime_rows(ns, lam)
        per_high_row = np.split(mask, range(low, len(mask), low))
        assert [len(b) for b in blocks] == [int(m.sum()) for m in per_high_row]
        assert np.array_equal(np.concatenate(blocks), coords[mask])


def max_abs_norm(ns, lam):
    coords = whole_table(ns, lam).astype(object)
    return max(abs(algebra.norm(ns.poly, tuple(row))) for row in coords.tolist())


def test_norm_bound_covers_the_maximum(request, random_systems):
    golden = [request.getfixturevalue(n) for n in ("knuth", "negabinary", "five_a", "five_b")]
    for ns in golden + list(random_systems):
        for lam in (0, 1, 2, 5):
            true = max_abs_norm(ns, lam)
            bound = bulk._norm_bound(ns, lam)
            assert true <= bound
            if ns.degree == 2 and ns.poly.coeffs[1] ** 2 < 4 * ns.poly.coeffs[0]:
                assert bound <= 1.01 * true + 1  # complex base: near the true maximum


def test_norm_bound_matches_the_numpy_oracle(request, random_systems, cns_systems):
    golden = [request.getfixturevalue(n) for n in ("knuth", "negabinary", "five_a", "five_b")]
    for ns in golden + list(random_systems) + [ns for ns, _ in cns_systems]:
        for lam in (0, 1, 2, 5, 14, 22):
            fast, slow = bulk._norm_bound(ns, lam), numpy_norm_bound(ns, lam)
            # numpy's complex multiply may fuse the real part's multiply-add
            # (an FMA on AVX2 hosts), so a support may differ in its last
            # bits: the same integer below 2^40, which holds every bound that
            # sizes a norm table, and a few ulps apart past it
            if slow < 1 << 40:
                assert fast == slow, (ns.poly, lam)
            else:
                assert abs(fast - slow) <= slow * 2.0**-48, (ns.poly, lam)


def test_sieve_size_at_lambda_22(knuth):
    # the naive box bound is 16.7M; the largest norm on N_22 is 4.84M, and the
    # table holds one bit per odd integer up to the bound: 0.30 MB
    coords = whole_table(knuth, 22)
    true = int((coords[:, 0] ** 2 - 2 * coords[:, 0] * coords[:, 1] + 2 * coords[:, 1] ** 2).max())
    assert true <= bulk._norm_bound(knuth, 22) <= 1.01 * true
    table = bulk._norm_bits(bulk._norm_bound(knuth, 22), knuth.poly.coeffs[:2])
    assert table.dtype == np.uint8 and len(table) == bulk._norm_bound(knuth, 22) // 16 + 1
    assert 0.30e6 < table.nbytes < 0.31e6


def test_prime_sieve_guards(knuth, monkeypatch):
    def refuse(*args):
        raise AssertionError("a sieve was allocated")

    monkeypatch.setattr(bulk, "_norm_bits", refuse)
    # coordinates near 2^31: a^2 - c1 ab + c0 b^2 passes 2^62 and wraps int64
    wide = NumberSystem(knuth.poly, ((0, 0), (2**31 + 1, 0)))
    with pytest.raises(DomainError, match="norms over lambda 2 can reach"):
        bulk.prime_blocks(wide, 2)
    # the element cap fires before the sieve, whose packed bytes a pass
    # builds only within the 8 * d bytes of each of its Q^lam rows, so
    # within 8 * d bytes per element of the cap: 64 * 16 here
    monkeypatch.setenv("RADIXION_CAP", "64")
    with pytest.raises(CapExceeded, match="table of 16384 elements exceeds cap 64"):
        bulk.prime_blocks(knuth, 14)
    _, top, table = bulk.pass_bounds(knuth, 6)
    assert table and top // 16 + 1 <= 64 * 16


def test_wide_digits_classify_rows_without_a_table(knuth, negabinary, five_a, monkeypatch):
    # digit 104 = 4 mod 5 widens the norms: a table over them would take
    # 1.1 MB for the 50 KB of coordinates of N_5, so each norm is tested alone
    wide = NumberSystem(five_a.poly, ((0, 0), (1, 0), (2, 0), (3, 0), (104, 0)))
    coords = whole_table(wide, 5)
    expected = coords[oracle_mask(wide, coords)]

    def refuse(*args):
        raise AssertionError("a sieve was allocated")

    monkeypatch.setattr(bulk, "_norm_bits", refuse)
    got = np.concatenate(bulk.prime_rows(wide, 5))
    assert got.tolist() == expected.tolist() and len(got) == 440
    monkeypatch.undo()
    # criterion 7's systems keep the table: no norm is tested alone
    monkeypatch.setattr(analysis, "norm_verdict", refuse)
    assert len(np.concatenate(bulk.prime_rows(knuth, 12))) == 798
    for ns in (knuth, negabinary):
        bulk.prime_rows(ns, 14)


def small_primes(limit):
    return [p for p in range(2, limit) if trial_division_is_prime(p)]


def test_norm_table_inert_marks_match_root_scan(request, random_systems):
    # every prime below 5000, including 2 and the primes dividing the
    # discriminant: Euler's criterion against the O(ell) root scan
    primes = small_primes(5000)
    golden = [request.getfixturevalue(n) for n in ("knuth", "five_a", "five_b")]
    polys = {ns.poly.coeffs for ns in golden + list(random_systems)}
    ramified = set()
    for coeffs in sorted(polys):
        c0, c1 = coeffs[:2]
        for ell in primes:
            assert analysis._is_inert(c0, c1, ell) == (not poly_has_root_mod(coeffs, ell)), \
                (coeffs, ell)
            if (c1 * c1 - 4 * c0) % ell == 0:
                ramified.add(ell)
    assert 2 in ramified and len(ramified) > 1


def assert_table_matches_sieve(ns, table, top):
    """The odd bits of a norm table over 1..top against the uint8 sieve, the
    bits past top clear, and prime_mask at every norm 0..top against the
    sieve: the even norms have no bit, 2 is prime, and 4 is prime when the
    caller says 2 is inert (as the sieve has it), and not when it says
    otherwise."""
    coeffs = ns.poly.coeffs if ns.degree == 2 else None
    expected = uint8_norm_sieve(top, coeffs) != 0
    four = bool(uint8_norm_sieve(4, coeffs)[4])
    assert len(table) == top // 16 + 1
    bits = np.unpackbits(table, bitorder="little")  # bit k: the odd integer 2k + 1
    assert np.array_equal(bits[: (top + 1) // 2], expected[1::2]), (ns, top)
    assert not bits[(top + 1) // 2 :].any()
    norms = np.arange(top + 1)
    assert np.array_equal(bulk.prime_mask(ns, norms, table, four), expected), (ns, top)
    expected[4:5] = False
    assert np.array_equal(bulk.prime_mask(ns, norms, table, False), expected), (ns, top)


def test_norm_table_marks_at_lambda(request, random_systems, monkeypatch):
    # the packed table against the uint8 sieve at every table of lambda <= 14
    # under 3000 rows, with segments of 16 and 48 odd integers, whose sieving
    # primes carry their multiples across many segments, and the default
    golden = [request.getfixturevalue(n) for n in ("knuth", "negabinary", "five_a", "five_b")]
    inert_two = NumberSystem.parse("3,1,1", "0,0;1,0;2,0")  # 4 is a prime norm
    for segment in (16, 48, bulk.SIEVE_SEGMENT):
        monkeypatch.setattr(bulk, "SIEVE_SEGMENT", segment)
        for ns in golden + list(random_systems) + [inert_two]:
            lam = min(14, largest_lam(ns, 3000))
            top = bulk._norm_bound(ns, lam)
            table = bulk._norm_bits(top, ns.poly.coeffs[:2] if ns.degree == 2 else None)
            assert_table_matches_sieve(ns, table, top)


def test_packed_sieve_at_small_tops(request, random_systems, monkeypatch):
    # the ring of each golden and random quadratic and inert-2 3,1,1, and
    # negabinary for the sieve with no inert marks
    names = ("negabinary", "knuth", "five_a", "five_b")
    systems = [request.getfixturevalue(n) for n in names] + list(random_systems)
    systems.append(NumberSystem.parse("3,1,1", "0,0;1,0;2,0"))
    for segment in (16, 48, bulk.SIEVE_SEGMENT):
        monkeypatch.setattr(bulk, "SIEVE_SEGMENT", segment)
        for top in [*range(18), 63, 64, 65, 1000, 4099]:
            for ns in systems:
                table = bulk._norm_bits(top, ns.poly.coeffs[:2] if ns.degree == 2 else None)
                assert_table_matches_sieve(ns, table, top)


def test_bounded_primality_matches_trial_division():
    sieve = uint8_norm_sieve(200_000)
    assert [analysis._is_prime(n) for n in range(200_001)] == (sieve == PRIME).tolist()
    rng = np.random.default_rng(5)
    for n in rng.integers(2**40, 2**41, 200).tolist():
        assert analysis._is_prime(n) == trial_division_is_prime(n), n
    # 3825123056546413051 = 149491 * 747451 * 34233211 passes every base but
    # 37; 3215031751 passes 2..7; 561 * 1105 is a product of Carmichael numbers
    pseudoprime = 3825123056546413051
    assert [strong_probable_prime(pseudoprime, a) for a in analysis.SPRP_BASES] == [True] * 11 + [False]
    for n in (pseudoprime, 3215031751, 561 * 1105, (2**31 - 1) * 1000003, 41 * 41):
        assert not analysis._is_prime(n), n
    for p in (2**61 - 1, 2**31 - 1, 10**18 + 9, 1000003, 41):
        assert analysis._is_prime(p), p
    # the limit is the least composite that passes all twelve bases
    limit = analysis.SPRP_LIMIT
    assert limit == 399165290221 * 798330580441
    assert all(strong_probable_prime(limit, a) for a in analysis.SPRP_BASES)
    with pytest.raises(CapExceeded, match="primality of the norm %d" % limit):
        analysis._is_prime(limit)


def test_norm_verdict_matches_the_oracles(request, random_systems):
    # every norm up to 3000, signs included, in each golden and random ring
    golden = [request.getfixturevalue(n) for n in ("knuth", "negabinary", "five_a", "five_b")]
    for ns in golden + list(random_systems):
        sieve = uint8_norm_sieve(3000, ns.poly.coeffs if ns.degree == 2 else None)
        for nm in range(-3000, 3001):
            kind = analysis.norm_verdict(ns.poly, nm).kind
            assert (kind in analysis.PRIME_KINDS) == (sieve[abs(nm)] != 0), (ns, nm)
            assert (kind == "prime_inert") == (sieve[abs(nm)] == INERT)


def test_prime_degree_limit(cubic):
    assert is_prime_element(cubic, (3, 0, 0)).kind == "unsupported_degree"
    with pytest.raises(UsageError):
        bulk.prime_rows(cubic, 2)
    with pytest.raises(UsageError):
        bulk._split_bound(cubic, 2)
    with pytest.raises(UsageError):
        bulk.prime_blocks(cubic, 2)


# ------------------------------------------------------------ linear forms


def test_linear_form_parse_tags():
    form = LinearForm.parse("1/3, 0.25")
    assert form.rationals == (Fraction(1, 3), None)
    assert abs(form.values[0] - 1.0 / 3.0) < 1e-15
    assert form.values[1] == 0.25
    assert LinearForm.parse("2").rationals == (Fraction(2),)
    assert LinearForm.parse("1e-3").rationals == (None,)
    with pytest.raises(UsageError):
        LinearForm.parse("x,1")
    with pytest.raises(UsageError):
        LinearForm.parse("1/0")


def test_phase_weights_reproduce_trace_form(knuth_poly):
    import radixion.algebra as algebra

    shifted = algebra.MinimalPolynomial((7, -6, 1))
    rng = np.random.default_rng(5)
    for m in (knuth_poly, shifted):
        form = LinearForm.parse("1/3,0.25")
        w = analysis.phase_weights(form, m)
        for _ in range(50):
            x = tuple(int(v) for v in rng.integers(-9, 10, size=2))
            assert abs(analysis.phi_float(form, m, x) - float(np.dot(w, x))) < 1e-9
    with pytest.raises(UsageError):
        analysis.phase_weights(LinearForm.parse("1"), knuth_poly)


def test_phi_exact_and_tag_rule(knuth_poly):
    form = LinearForm.parse("1/4,0")
    assert analysis.phi_exact(form, knuth_poly, (1, 0)) == Fraction(1, 2)
    assert not analysis.phi_is_irrational(form, knuth_poly, (1, 0))
    tagged = LinearForm.parse("0.5,0")
    assert analysis.phi_is_irrational(tagged, knuth_poly, (1, 0))
    assert analysis.phi_exact(tagged, knuth_poly, (1, 0)) is None
    # zero trace silences the irrational coefficient
    assert not analysis.phi_is_irrational(tagged, knuth_poly, (0, 0))


def test_equidist_condition(knuth):
    assert analysis.equidist_condition(knuth, LinearForm.parse("0.6180339887,0"))
    assert not analysis.equidist_condition(knuth, LinearForm.parse("1/2,1/3"))


# ------------------------------------------------- sum-of-digits constants


def test_sumdigit_constants(knuth, negabinary):
    # ||phi(mu_q b)||^2 is 0 at b = 0 and 1/4 at b = 1 in both systems
    for ns, form, mu_q, big_m_q in ((knuth, "1/4,0", 5, 9), (negabinary, "1/2", 3, 5)):
        phase = LinearForm.parse(form)
        assert analysis.digit_norm_sum(ns, phase) == 0.25
        report = analysis.fourier_decay(ns, digit_sum(ns), phase, 1, 0, seed=0)
        assert (report.mu_q, report.big_m_q) == (mu_q, big_m_q)


# -------------------------------------------------------------- Weyl sums


def test_weyl_matches_factorization(negabinary):
    for lam in (1, 5, 10):
        [row] = analysis.weyl_sum(negabinary, digit_sum(negabinary), [GOLDEN_RATIO], 1, [lam])
        ref = analysis.sod_factorization_reference(negabinary, GOLDEN_RATIO, 1, lam)
        assert abs(complex(row.re_sum, row.im_sum) - ref) <= 1e-9 * 2**lam
        assert row.count == 2**lam


def test_weyl_exact_cancellation_and_trivial_phase(knuth):
    half, zero = analysis.weyl_sum(knuth, digit_sum(knuth), [0.5, 0.0], 1, [6])
    assert abs(complex(half.re_sum, half.im_sum)) < 1e-9
    assert zero.re_sum == 64.0 and zero.im_sum == 0.0
    assert zero.normalized == 1.0


def test_weyl_prime_filter_matches_scalar_loop(knuth):
    lam, alpha = 8, GOLDEN_RATIO
    [row] = analysis.weyl_sum(knuth, digit_sum(knuth), [alpha], 1, [lam], filter="primes")
    total, count = 0j, 0
    for n in numeration.enumerate_N(knuth, lam):
        if is_prime_element(knuth, n).kind in analysis.PRIME_KINDS:
            s = sum_of_digits(knuth, n)[0]
            total += cmath.exp(2j * math.pi * alpha * s)
            count += 1
    assert row.count == count
    assert abs(complex(row.re_sum, row.im_sum) - total) < 1e-9


def test_weyl_rs_matches_scalar_loop(knuth):
    lam = 8
    [row] = analysis.weyl_sum(knuth, pair_count(knuth), [0.5], 1, [lam])
    total = sum(
        cmath.exp(1j * math.pi * rudin_shapiro(knuth, n))
        for n in numeration.enumerate_N(knuth, lam)
    )
    assert abs(complex(row.re_sum, row.im_sum) - total) < 1e-9


def test_weyl_validation(knuth, five_b):
    with pytest.raises(UsageError):
        analysis.weyl_sum(five_b, digit_sum(five_b), [0.5], 1, [4])  # digits not in Z
    with pytest.raises(UsageError):
        analysis.weyl_sum(knuth, pair_count(knuth), [LinearForm.parse("1/2,0")], 1, [4])
    with pytest.raises(UsageError):
        analysis.weyl_sum(knuth, digit_sum(knuth), [0.5], 1, [4], filter="composite")
    for filter in ("all", "primes"):  # no lambda: a usage error, not an IndexError
        with pytest.raises(UsageError, match="no expansion length given"):
            analysis._digit_histogram(knuth, digit_sum(knuth), [], filter)
        with pytest.raises(UsageError, match="no expansion length given"):
            analysis.weyl_sum(knuth, digit_sum(knuth), [0.5], 1, [], filter)


def test_weyl_thread_and_table_invariance(knuth):
    phases = [GOLDEN_RATIO, 0.5, 0.0, GOLDEN_RATIO]
    rows = analysis.weyl_sum(knuth, pair_count(knuth), phases, 1, [10])
    assert rows == [analysis.weyl_sum(knuth, pair_count(knuth), [p], 1, [10])[0] for p in phases]
    assert rows[0] == rows[3]
    assert analysis.weyl_sum(knuth, pair_count(knuth), [], 1, [10]) == []


def weyl_cases(request):
    """(system, fn, phase, lambda) with Q^lambda <= 1500."""
    cases = [(request.getfixturevalue(n), fn, GOLDEN_RATIO)
             for n in ("knuth", "negabinary", "five_a") for fn in ("sod", "rs")]
    cases += [(ns, "rs", 0.3) for ns in request.getfixturevalue("random_systems")]
    return [(ns, fn, phase, largest_lam(ns, 1500)) for ns, fn, phase in cases]


def largest_lam(ns, rows):
    lam = 1
    while ns.Q ** (lam + 1) <= rows:
        lam += 1
    return lam


def test_weyl_rows_do_not_depend_on_blocks(request, each_row_block):
    for ns, fn, phase, lam in weyl_cases(request):
        for filter in ("all", "primes"):
            first = analysis.weyl_sum(ns, STATISTICS[fn](ns), [phase], 3, [lam], filter)
            for _ in each_row_block():
                assert analysis.weyl_sum(ns, STATISTICS[fn](ns), [phase], 3, [lam], filter) == first
    knuth = request.getfixturevalue("knuth")
    with pytest.raises(UsageError, match="nonnegative"):
        analysis.weyl_sum(knuth, pair_count(knuth), [0.5], 1, [-1], "primes")


def test_weyl_sum_is_fsum_of_row_summands(request):
    # scalar sod and rs phases: the summand of a value is bit-identical to
    # that of each of its rows, so the sum counted per value is the exact
    # sum of the row summands, rounded once like math.fsum
    for ns, fn, phase, lam in weyl_cases(request):
        for filter in ("all", "primes"):
            [row] = analysis.weyl_sum(ns, STATISTICS[fn](ns), [phase], 3, [lam], filter)
            z = weyl_table_oracle(ns, fn, phase, 3, lam, filter)
            assert row.count == len(z)
            assert (row.re_sum, row.im_sum) == (math.fsum(z.real), math.fsum(z.imag)), (ns, fn)


def test_exact_sum_rounds_once():
    rng = np.random.default_rng(3)
    x = np.concatenate([rng.standard_normal(50), [1e-17, -1e-17, 0.0, 0.1]])
    counts = rng.integers(0, 2**40, size=len(x)).tolist()
    exact = sum((Fraction(v) * n for v, n in zip(x.tolist(), counts)), Fraction(0))
    assert analysis._exact_sum(counts, x) == float(exact)
    assert analysis._exact_sum([1] * len(x), x) == math.fsum(x)
    assert analysis._exact_sum([], np.zeros(0)) == 0.0


def test_digit_histogram_matches_scalar_counter(request):
    systems = [request.getfixturevalue(n) for n in ("knuth", "negabinary", "five_a", "five_b")]
    for ns in systems + list(request.getfixturevalue("random_systems")):
        lam = largest_lam(ns, 1500)
        for fn in ("sod", "rs"):
            for filter in ("all", "primes"):
                [hist] = analysis._digit_histogram(ns, STATISTICS[fn](ns), [lam], filter)
                assert list(hist) == sorted(hist)  # ascending keys
                assert hist == dict(scalar_histogram(ns, fn, lam, filter))


def test_closed_histogram_matches_enumeration(request):
    golden = [request.getfixturevalue(n) for n in ("knuth", "negabinary", "five_a", "five_b")]
    systems = golden + list(request.getfixturevalue("random_systems"))
    systems += [ns for ns, _ in request.getfixturevalue("cns_systems")]
    systems.append(NumberSystem.parse("2,2,1", "0,0;16777217,0"))  # a box of s(n) past its rows
    for ns in systems:
        lams = sorted({0, 1, 2, largest_lam(ns, 2**16)})  # one DP, read at each
        for fn in ("sod", "rs"):
            hists = analysis._closed_histogram(STATISTICS[fn](ns), lams)
            assert len(hists) == len(lams)
            for lam, hist in zip(lams, hists):
                assert list(hist) == sorted(hist), (ns, fn, lam)
                assert hist == dict(enumerated_histogram(ns, fn, lam)), (ns, fn, lam)


def test_digit_histogram_does_not_depend_on_blocks(request, each_row_block):
    systems = [request.getfixturevalue(n) for n in ("knuth", "negabinary", "five_a", "five_b")]
    cases = [(ns, fn, largest_lam(ns, 300), ("all", "primes"))
             for ns in systems + list(request.getfixturevalue("random_systems"))
             for fn in ("sod", "rs")]
    # wide boxes: the box of s(n) holds more values than N_lambda has rows
    cases += [(systems[3], "sod", 3, ("all", "primes")),
              (NumberSystem.parse("2,2,1", "0,0;16777217,0"), "sod", 9, ("all",))]
    for ns, fn, lam, filters in cases:
        for filter in filters:
            [first] = analysis._digit_histogram(ns, STATISTICS[fn](ns), [lam], filter)
            for _ in each_row_block():
                [again] = analysis._digit_histogram(ns, STATISTICS[fn](ns), [lam], filter)
                assert list(again.items()) == list(first.items()), (ns, fn, filter)


def test_sparse_histogram_matches_scalar_counter(request, five_b, monkeypatch, each_row_block):
    # boxes of s(n) wider than N_lam: the counts are keyed by the values met, not by the box
    wide = NumberSystem.parse("2,2,1", "0,0;16777217,0")  # a box of 16777218 values at lam 1
    cases = [(wide, lam, "all") for lam in (1, 2, 6)]
    cases += [(five_b, lam, f) for lam in (1, 2, 3) for f in ("all", "primes")]
    cases += [(ns, 1, f) for ns in request.getfixturevalue("random_systems") for f in ("all", "primes")]
    for ns, lam, filter in cases:
        assert math.prod(lam * np.ptp(np.array(ns.digits), axis=0) + 1) > ns.Q**lam  # a wide box
        expected = dict(scalar_histogram(ns, "sod", lam, filter))
        for _ in each_row_block():
            [hist] = analysis._digit_histogram(ns, digit_sum(ns), [lam], filter)
            keys = list(hist)
            assert keys == sorted(keys)  # ascending, as every histogram's keys are
            assert hist == expected
    monkeypatch.setenv("RADIXION_CAP", "5")  # 27 values of s(n) over the 5 rows of N_1 fit
    [hist] = analysis._digit_histogram(five_b, digit_sum(five_b), [1])
    assert len(hist) == 5 and list(hist.values()) == [1] * 5


def mixed_phases(ns, fn):
    """Scalar and linear-form phases for fn on ns; scalar digit sums need digits in Z."""
    if fn == "rs":
        return [GOLDEN_RATIO, 0.5, 0.3]
    forms = [LinearForm.parse(",".join(t[: ns.degree])) for t in (("1/3", "0.25"), ("0.7", "2"))]
    if any(any(b[1:]) for b in ns.digits):
        return forms
    return [GOLDEN_RATIO, forms[0], 0.5, forms[1]]


def test_multi_phase_rows_equal_one_phase_rows(request, each_row_block):
    systems = [request.getfixturevalue(n) for n in ("knuth", "negabinary", "five_a", "five_b")]
    for ns in systems + list(request.getfixturevalue("random_systems")):
        lam = largest_lam(ns, 300)
        for fn in ("sod", "rs"):
            phases = mixed_phases(ns, fn)
            for filter in ("all", "primes"):
                for _ in each_row_block():
                    rows = analysis.weyl_sum(ns, STATISTICS[fn](ns), phases, 2, [lam], filter)
                    assert rows == [analysis.weyl_sum(ns, STATISTICS[fn](ns), [p], 2, [lam], filter)[0]
                                    for p in phases]


def test_lambda_list_rows_equal_one_lambda_rows(request):
    # one DP or one prime pass for a request in no order, with repeats, gives
    # the rows of one call per lambda, lambda by lambda, phases in order
    systems = [request.getfixturevalue(n) for n in ("knuth", "negabinary", "five_a", "five_b")]
    systems += list(request.getfixturevalue("random_systems"))
    systems.append(NumberSystem.parse("2,2,1", "1,0;0,0"))  # the zero digit second
    for ns in systems:
        top = largest_lam(ns, 300)
        lams = [top, 0, top - 1, 1, top]
        for fn in ("sod", "rs"):
            stat, phases = STATISTICS[fn](ns), mixed_phases(ns, fn)
            for filter in ("all", "primes"):
                rows = analysis.weyl_sum(ns, stat, phases, 2, lams, filter)
                assert [row.lam for row in rows] == [lam for lam in lams for _ in phases]
                assert rows == [row for lam in lams
                                for row in analysis.weyl_sum(ns, stat, phases, 2, [lam], filter)]


def test_bad_phase_fails_before_any_block(knuth, five_b, monkeypatch):
    def refuse(*args):
        raise AssertionError("work started before every phase was checked")

    monkeypatch.setattr(analysis, "_closed_histogram", refuse)
    monkeypatch.setattr(bulk, "split_tables", refuse)
    monkeypatch.setattr(bulk, "_norm_bits", refuse)
    form = LinearForm.parse("1/3,0.25")
    cases = (
        (knuth, "rs", [0.5, 0.3, form]),  # pair counts take scalars only
        (knuth, "sod", [form, 0.5, LinearForm.parse("1")]),  # wrong arity
        (five_b, "sod", [form, form, 0.5]),  # scalar digit sums need digits in Z
    )
    for ns, fn, phases in cases:
        for filter in ("all", "primes"):
            with pytest.raises(UsageError):
                analysis.weyl_sum(ns, STATISTICS[fn](ns), phases, 1, [6], filter)


def test_histogram_cap_fails_before_any_block(five_b, monkeypatch):
    def refuse(*args):
        raise AssertionError("work started before the histogram was sized")

    monkeypatch.setattr(analysis, "_closed_histogram", refuse)
    monkeypatch.setattr(bulk, "split_tables", refuse)
    monkeypatch.setattr(bulk, "_norm_bits", refuse)
    form = LinearForm.parse("1/3,0.25")
    cases = (
        (200, 4, 297),  # the box: s(n) spans (32 + 1) * (8 + 1) = 297 values over 625 rows
        (4, 1, 5),  # the rows: s(n) spans (8 + 1) * (2 + 1) = 27 values over the 5 rows of N_1
    )
    for cap, lam, bins in cases:
        monkeypatch.setenv("RADIXION_CAP", str(cap))
        for filter in ("all", "primes"):
            with pytest.raises(CapExceeded, match="histogram of %d bins for lambda %d" % (bins, lam)):
                analysis.weyl_sum(five_b, digit_sum(five_b), [form], 1, [lam], filter)


def test_weyl_normalized_bounded(knuth):
    for lam in (2, 5, 9):
        [row] = analysis.weyl_sum(knuth, digit_sum(knuth), [GOLDEN_RATIO], 1, [lam])
        assert 0.0 <= row.normalized <= 1.0 + 1e-9


# ----------------------------------------------------------- Fourier decay


def test_fourier_decay_degenerate_character(knuth):
    form = LinearForm.parse("1,0")
    report = analysis.fourier_decay(knuth, digit_sum(knuth), form, 4, 50, seed=3)
    assert analysis.digit_norm_sum(knuth, form) == 0.0
    for row in report.rows:
        assert row.samples == 51
        assert abs(row.gamma_emp) < 1e-9
        assert abs(row.gamma_emp - (row.lam - row.max_logq)) < 1e-12


def test_fourier_decay_seed_reproducible(knuth):
    a = analysis.fourier_decay(knuth, pair_count(knuth), GOLDEN_RATIO, 5, 40, seed=7)
    b = analysis.fourier_decay(knuth, pair_count(knuth), GOLDEN_RATIO, 5, 40, seed=7)
    assert a.rows == b.rows
    assert a == b


def test_fourier_decay_validation(knuth):
    with pytest.raises(UsageError):
        analysis.fourier_decay(knuth, pair_count(knuth), 0.5, 0, 10, seed=0)
    with pytest.raises(UsageError):
        analysis.fourier_decay(knuth, pair_count(knuth), 0.5, 3, -1, seed=0)


def assert_matches_table_route(ns, fn, phase, lam_max):
    report = analysis.fourier_decay(ns, STATISTICS[fn](ns), phase, lam_max, 16, seed=11)
    oracle = fourier_table_oracle(ns, fn, phase, lam_max, 16, seed=11)
    assert len(report.rows) == lam_max
    for row, ref in zip(report.rows, oracle):
        assert abs(float(ns.Q) ** row.max_logq - ref) <= 1e-9 * ref, (ns, fn, row.lam)


def table_lam_max(ns):
    """Largest lambda <= 10 whose table has at most 4096 rows."""
    return min(10, int(math.log(4096) / math.log(ns.Q) + 1e-9))


def test_fourier_decay_matches_table_route_golden(knuth, negabinary, five_a, five_b):
    for ns in (knuth, negabinary, five_a, five_b):
        form = LinearForm.parse(",".join(["1/3", "0.25"][: ns.degree]))
        assert_matches_table_route(ns, "rs", GOLDEN_RATIO, table_lam_max(ns))
        assert_matches_table_route(ns, "sod", form, table_lam_max(ns))
        if ns is not five_b:  # scalar digit sums need digits in Z
            assert_matches_table_route(ns, "sod", GOLDEN_RATIO, table_lam_max(ns))


def test_fourier_decay_matches_table_route_random(random_systems, cns_systems):
    # the CNS digits 0..c0-1 lie in Z, so scalar digit sums apply to them too
    for ns in random_systems:
        assert_matches_table_route(ns, "rs", 0.5, table_lam_max(ns))
        assert_matches_table_route(ns, "sod", LinearForm.parse("0.3,1/7"), table_lam_max(ns))
    for ns, _ in cns_systems:
        form = LinearForm.parse(",".join(["0.3", "1/7", "2", "-0.45"][: ns.degree]))
        assert_matches_table_route(ns, "rs", 0.3, table_lam_max(ns))
        assert_matches_table_route(ns, "sod", form, table_lam_max(ns))
        assert_matches_table_route(ns, "sod", GOLDEN_RATIO, table_lam_max(ns))


def test_fourier_decay_guards(knuth):
    with pytest.raises(CapExceeded, match="lam_max 25"):
        analysis.fourier_decay(knuth, pair_count(knuth), 0.5, 25, 4, seed=0)


def test_rs_bound_slope_values(knuth, five_a):
    assert analysis.rs_bound_slope(knuth, 0.5) == 0.5
    assert analysis.rs_bound_slope(knuth, 0.0) == 0.0
    assert 0.0 < analysis.rs_bound_slope(knuth, 0.25) < 0.5
    assert analysis.rs_bound_slope(five_a, 0.3) is None  # Q = 5: the binary bound says nothing
