"""Exact ring arithmetic, norms, traces, and embeddings."""

from __future__ import annotations

import itertools
import math
import re
import warnings

import numpy as np
import pytest
from oracles import lapack_roots, rational_gcd, trace_matrix

from radixion import algebra
from radixion.algebra import MinimalPolynomial
from radixion.errors import DomainError, UsageError

GAUSS_TWO = MinimalPolynomial((2, 2, 1))  # base -1+i
SHIFTED = MinimalPolynomial((7, -6, 1))  # roots 3 +- sqrt(2)
CUBIC = MinimalPolynomial((2, 0, 0, 1))  # base -2^(1/3)


# ------------------------------------------------------------ construction


def test_construction_rejects_short_and_nonmonic():
    with pytest.raises(DomainError):
        MinimalPolynomial((5,))
    with pytest.raises(DomainError):
        MinimalPolynomial((2, 2, 3))


def test_construction_rejects_small_constant_term():
    with pytest.raises(DomainError):
        MinimalPolynomial((1, 3, 1))


def test_construction_rejects_reducible():
    # x^2 - 3x + 2 = (x - 1)(x - 2)
    with pytest.raises(DomainError):
        MinimalPolynomial((2, -3, 1))


def test_construction_rejects_non_expanding():
    # x^2 - 4x + 2 is irreducible but has the root 2 - sqrt(2) < 1
    with pytest.raises(DomainError):
        MinimalPolynomial((2, -4, 1))


def has_integer_root(coeffs) -> bool:
    """Any integer root divides c_0 (c_0 != 0)."""
    c0 = abs(coeffs[0])
    return any(sum(c * r**k for k, c in enumerate(coeffs)) == 0
               for r in range(-c0, c0 + 1) if r and c0 % r == 0)


def test_integer_root_search_matches_the_divisor_scan():
    def value(coeffs, x):
        return sum(c * x**k for k, c in enumerate(coeffs))

    # every monic quadratic and cubic with |c_i| <= 6 and c_0 != 0
    for d in (2, 3):
        for head in itertools.product(range(-6, 7), repeat=d):
            coeffs = (*head, 1)
            if coeffs[0]:
                root = algebra._integer_root(coeffs)
                assert (root is not None) == has_integer_root(coeffs), coeffs
                assert root is None or value(coeffs, root) == 0, coeffs
    # (x - r) g with |r| >= 10^10, past any scan of the divisors of c_0
    rng = np.random.default_rng(31)
    for _ in range(100):
        r = int(rng.choice([-1, 1])) * int(rng.integers(10**10, 10**13))
        a, b = (int(v) or 1 for v in rng.integers(-10**6, 10**6, 2))
        for g in ((b, 1), (b, a, 1)):
            coeffs = tuple(lo - r * hi for lo, hi in zip((0, *g), (*g, 0)))
            root = algebra._integer_root(coeffs)
            assert root is not None and value(coeffs, root) == 0, coeffs
            with pytest.raises(DomainError, match="x = %d is a root" % root):
                MinimalPolynomial(coeffs)


def test_exact_expanding_test_agrees_with_root_moduli(random_systems, cns_systems):
    # every irreducible monic polynomial of degree 1-3 with |c_i| <= 6,
    # |c_0| >= 2 and no root within 1e-9 of the unit circle
    polys = [(c0, *rest, 1) for d in (1, 2, 3) for c0 in range(-6, 7) if abs(c0) >= 2
             for rest in itertools.product(range(-6, 7), repeat=d - 1)]
    checked = 0
    for coeffs in polys:
        if len(coeffs) > 2 and has_integer_root(coeffs):
            continue  # reducible
        if any(abs(abs(z) - 1.0) <= 1e-9 for z in np.roots(coeffs[::-1])):
            continue
        try:
            expanding = min(abs(z) for z in algebra._embedding_roots(coeffs)) > 1.0
        except DomainError:
            expanding = False
        assert algebra._is_expanding(coeffs) == expanding, coeffs
        try:
            MinimalPolynomial(coeffs)
        except DomainError:
            assert not expanding, coeffs
        else:
            assert expanding, coeffs
        checked += 1
    assert checked > 1500
    golden = ("2,2,1", "2,1", "2,-2,1", "5,4,1", "7,-6,1", "2,0,0,1")
    systems = [MinimalPolynomial.parse(text) for text in golden]
    systems += [ns.poly for ns in random_systems] + [ns.poly for ns, _ in cns_systems]
    for m in systems:
        assert algebra._is_expanding(m.coeffs)
        assert min(m.embeddings().moduli) > 1.0


def test_embedding_roots_match_the_lapack_oracle(random_systems, cns_systems):
    golden = ("2,2,1", "2,1", "2,-2,1", "5,4,1", "7,-6,1", "2,0,0,1", "3,3,3,1", "5,4,3,2,1",
              "10,9,8,7,6,5,4,3,2,1")
    bases = [tuple(int(c) for c in text.split(",")) for text in golden]
    bases += [ns.poly.coeffs for ns in random_systems] + [ns.poly.coeffs for ns, _ in cns_systems]
    for coeffs in bases:
        roots = algebra._embedding_roots(coeffs)
        expected = list(lapack_roots(coeffs))
        for z in roots:  # the same multiset, root by root
            w = min(expected, key=lambda w: abs(w - z))
            assert abs(w - z) <= 1e-12 * abs(w), coeffs
            expected.remove(w)
        for k, z in enumerate(roots):  # exact conjugate pairs, lower member first
            if z.imag < 0:
                assert roots[k + 1] == z.conjugate(), coeffs
            elif z.imag > 0:
                assert roots[k - 1] == z.conjugate(), coeffs
    # the same error class over the irreducible polynomials of degrees 1-3
    # with |c_i| <= 6 and no root within 1e-9 of the unit circle, where the
    # two could round apart
    checked = refused = 0
    for coeffs in ((c0, *rest, 1) for d in (1, 2, 3) for c0 in range(-6, 7) if abs(c0) >= 2
                   for rest in itertools.product(range(-6, 7), repeat=d - 1)):
        if len(coeffs) > 2 and has_integer_root(coeffs):
            continue
        if any(abs(abs(z) - 1.0) <= 1e-9 for z in np.roots(coeffs[::-1])):
            continue
        outcomes = []
        for route in (algebra._embedding_roots, lapack_roots):
            try:
                outcomes.append(len(route(coeffs)))
            except DomainError:
                outcomes.append(DomainError)
        assert outcomes[0] == outcomes[1], coeffs
        checked += 1
        refused += outcomes[0] is DomainError
    assert checked > 1500 and refused > 900


@pytest.mark.parametrize("text", ["2,0,3,0,1", "2,2,3,1,1"])
def test_roots_on_the_unit_circle_are_not_expanding(text):
    # (x^2 + 1)(x^2 + 2) and (x^2 + x + 1)(x^2 + 2): roots of modulus exactly 1
    coeffs = tuple(int(c) for c in text.split(","))
    assert not algebra._is_expanding(coeffs)
    with pytest.warns(UserWarning), pytest.raises(DomainError, match="not expanding"):
        MinimalPolynomial.parse(text)


def test_degree_four_warns_and_is_accepted():
    with pytest.warns(UserWarning):
        m = MinimalPolynomial((2, 0, 0, 0, 1))
    assert m.degree == 4 and m.Q == 2


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def test_derivative_gcd_matches_the_rational_oracle():
    # every monic quartic with |c_i| <= 3 and c_0 != 0, and products f^2 g
    # and f^3 of small monic factors, of degrees 4 to 7
    polys = [(*rest, 1) for rest in itertools.product(range(-3, 4), repeat=4) if rest[0]]
    factors = [(c0, *rest, 1) for d in (1, 2) for c0 in (-3, -2, 2, 3)
               for rest in itertools.product(range(-2, 3), repeat=d - 1)]
    polys += [poly_mul(poly_mul(f, f), g) for f in factors for g in factors + [(1,)]]
    polys += [poly_mul(poly_mul(f, f), f) for f in factors]
    for coeffs in polys:
        derivative = [k * c for k, c in enumerate(coeffs)][1:]
        assert algebra._derivative_gcd(coeffs) == rational_gcd(coeffs, derivative), coeffs


@pytest.mark.parametrize("text, factor", [("4,4,5,2,1", "x^2 + x + 2"),
                                          ("9,6,7,2,1", "x^2 + x + 3"),
                                          ("4,0,4,0,1", "x^2 + 2"),
                                          ("8,12,18,13,9,3,1", "x^4 + 2x^3 + 5x^2 + 4x + 4")])
def test_construction_rejects_a_repeated_factor(text, factor):
    # (x^2 + x + 2)^2, (x^2 + x + 3)^2, (x^2 + 2)^2 and (x^2 + x + 2)^3: every
    # root lies outside the unit circle, so only the exact test refuses them
    assert algebra._is_expanding(tuple(int(c) for c in text.split(",")))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before the degree-4 warning
        with pytest.raises(DomainError, match=r"repeated factor: %s divides" % re.escape(factor)):
            MinimalPolynomial.parse(text)


def test_parse_and_str_round_trip():
    m = MinimalPolynomial.parse("2,2,1")
    assert m == GAUSS_TWO
    assert str(m) == "2,2,1"
    with pytest.raises(UsageError):
        MinimalPolynomial.parse("2,x,1")


def test_parse_element_arity_and_format():
    assert algebra.parse_element("-1,0", 2) == (-1, 0)
    assert algebra.parse_element("3", 1) == (3,)
    with pytest.raises(UsageError):
        algebra.parse_element("1,2,3", 2)
    assert algebra.format_element((-1, 0)) == "-1,0"


# -------------------------------------------------------------- arithmetic


def test_mul_reduces_modulo_base_polynomial():
    # q * q = -2 - 2q when q^2 + 2q + 2 = 0
    assert algebra.mul(GAUSS_TWO, (0, 1), (0, 1)) == (-2, -2)


def test_arity_mismatch_is_a_usage_error():
    with pytest.raises(UsageError):
        algebra.add(GAUSS_TWO, (1,), (1, 2))
    with pytest.raises(UsageError):
        algebra.mul(GAUSS_TWO, (1, 2, 3), (1, 0))


def test_ring_axioms_on_random_triples():
    rng = np.random.default_rng(7)
    for _ in range(2000):
        x, y, z = (tuple(int(v) for v in rng.integers(-10, 11, 2)) for _ in range(3))
        assert algebra.add(GAUSS_TWO, x, y) == algebra.add(GAUSS_TWO, y, x)
        assert algebra.add(GAUSS_TWO, algebra.add(GAUSS_TWO, x, y), z) == algebra.add(
            GAUSS_TWO, x, algebra.add(GAUSS_TWO, y, z)
        )
        assert algebra.mul(GAUSS_TWO, x, y) == algebra.mul(GAUSS_TWO, y, x)
        assert algebra.mul(GAUSS_TWO, algebra.mul(GAUSS_TWO, x, y), z) == algebra.mul(
            GAUSS_TWO, x, algebra.mul(GAUSS_TWO, y, z)
        )
        assert algebra.mul(GAUSS_TWO, x, algebra.add(GAUSS_TWO, y, z)) == algebra.add(
            GAUSS_TWO,
            algebra.mul(GAUSS_TWO, x, y),
            algebra.mul(GAUSS_TWO, x, z),
        )
        assert algebra.sub(GAUSS_TWO, x, x) == (0, 0)


def test_mul_matches_complex_embedding_numerically():
    # independent oracle: multiply the complex images instead
    root = complex(-1, 1)
    rng = np.random.default_rng(3)
    for _ in range(200):
        x, y = (tuple(int(v) for v in rng.integers(-8, 9, 2)) for _ in range(2))
        p = algebra.mul(GAUSS_TWO, x, y)
        zx = x[0] + x[1] * root
        zy = y[0] + y[1] * root
        zp = p[0] + p[1] * root
        assert abs(zx * zy - zp) < 1e-9


# ------------------------------------------------------------ norm / trace


def test_norm_examples():
    assert algebra.norm(GAUSS_TWO, (0, 1)) == 2
    assert algebra.norm(GAUSS_TWO, (1, 1)) == 1
    assert algebra.norm(GAUSS_TWO, (2, 1)) == 2


def test_norm_is_multiplicative():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        x, y = (tuple(int(v) for v in rng.integers(-10, 11, 2)) for _ in range(2))
        assert algebra.norm(GAUSS_TWO, algebra.mul(GAUSS_TWO, x, y)) == algebra.norm(
            GAUSS_TWO, x
        ) * algebra.norm(GAUSS_TWO, y)


def test_norm_matches_numpy_determinant():
    rng = np.random.default_rng(5)
    for m in (GAUSS_TWO, CUBIC):
        d = m.degree
        for _ in range(300):
            x = tuple(int(v) for v in rng.integers(-9, 10, d))
            exact = algebra.norm(m, x)
            approx = np.linalg.det(np.array(algebra.mult_matrix(m, x), dtype=float))
            assert abs(exact - approx) < 1e-6 * (1 + abs(approx))


def test_power_sums_knuth_prefix():
    assert algebra.power_sums(GAUSS_TWO, 3) == [2, -2, 0, 4]


def test_power_sums_match_embedding_sums():
    for m in (GAUSS_TWO, SHIFTED, CUBIC):
        roots = m.embeddings().roots
        newton = algebra.power_sums(m, 8)
        for k in range(9):
            direct = sum(z**k for z in roots)
            assert abs(newton[k] - direct.real) < 1e-6 * (1 + abs(direct))
            assert abs(direct.imag) < 1e-6 * (1 + abs(direct))


def test_trace_matrix_knuth():
    assert trace_matrix(GAUSS_TWO) == ((2, -2), (-2, 0))


def test_trace_is_linear():
    rng = np.random.default_rng(13)
    for _ in range(300):
        x, y = (tuple(int(v) for v in rng.integers(-10, 11, 2)) for _ in range(2))
        for k in range(4):
            assert algebra.trace_pow(GAUSS_TWO, algebra.add(GAUSS_TWO, x, y), k) == (
                algebra.trace_pow(GAUSS_TWO, x, k) + algebra.trace_pow(GAUSS_TWO, y, k)
            )
    with pytest.raises(UsageError):
        algebra.trace_pow(GAUSS_TWO, (1, 0), -1)


# -------------------------------------------------------------- embeddings


def test_embeddings_of_shifted_base():
    roots = SHIFTED.embeddings().roots
    expected = sorted([3 - math.sqrt(2), 3 + math.sqrt(2)])
    assert len(roots) == 2
    for z, w in zip(roots, expected):
        assert abs(z - w) < 1e-9


def test_embeddings_sorted_and_consistent():
    roots = GAUSS_TWO.embeddings().roots
    assert roots == tuple(sorted(roots, key=lambda z: (z.real, z.imag)))
    for z in roots:
        assert abs(z * z + 2 * z + 2) < 1e-9
    prod = 1.0
    for mod in GAUSS_TWO.embeddings().moduli:
        prod *= mod
    assert abs(prod - GAUSS_TWO.Q) < 1e-9


def test_distortion_quadratic_split():
    report = algebra.distortion(SHIFTED)
    assert abs(report.theta_max - 2 * math.log(3 + math.sqrt(2)) / math.log(7)) < 1e-9
    assert abs(report.theta_max + report.theta_min - 2.0) < 1e-12
    assert abs(report.theta_max - 1.526103) < 5e-7


def test_distortion_balanced_base():
    report = algebra.distortion(GAUSS_TWO)
    assert abs(report.theta_max - 1.0) < 1e-12
    assert abs(report.theta_min - 1.0) < 1e-12
