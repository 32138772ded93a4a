"""Exact arithmetic in the order Z[q] of an algebraic integer q.

Elements are integer coordinate vectors over the power basis
1, q, ..., q^{d-1}, where q is a root of a monic integer polynomial
P(x) = c_0 + c_1 x + ... + c_{d-1} x^{d-1} + x^d.  All ring operations
are exact; floating point only enters through the complex embeddings,
which are found in Python complex arithmetic, without numpy.
"""

from __future__ import annotations

import functools
import math
import warnings
from typing import NamedTuple

from .errors import ConvergenceError, DomainError, UsageError

# d integer coordinates over the power basis 1, q, ..., q^{d-1}
FieldElement = tuple

RESIDUAL_TOL = 1e-10
PRODUCT_TOL = 1e-9
ABERTH_SWEEPS = 100  # sweeps of the root iteration; no tested base has taken more than 36

# charts of the tile: power-basis coordinates, or the embeddings (re, im)
SPACE_TAGS = ("coordinate", "embedding")

SAMPLE_BITS = 53  # a seeded sample is m / 2^53 (dyadic_samples)


def _poly_eval(coeffs, z: complex) -> complex:
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _poly_eval_deriv(coeffs, z: complex) -> complex:
    acc = 0j
    for k in range(len(coeffs) - 1, 0, -1):
        acc = acc * z + k * coeffs[k]
    return acc


def _is_expanding(coeffs) -> bool:
    """Whether every root of c_0 + ... + c_d x^d lies outside the unit circle, by
    the exact Schur-Cohn recursion (A. Cohn, Math. Z. 14, 1922) on the reversal
    a, whose roots are the inverses: a has all its roots inside the circle iff
    |a_0| < |a_n| and (a_n a(x) - a_0 x^n a(1/x)) / x has (Rouche on |x| = 1)."""
    a = list(coeffs[::-1])  # a_k = c_{d-k}
    while len(a) > 1:
        if abs(a[0]) >= abs(a[-1]):
            return False
        a = [a[-1] * a[k] - a[0] * a[-1 - k] for k in range(1, len(a))]
    return True


def _newton(coeffs, z: complex) -> complex:
    """Newton's iteration on the base polynomial from z, to rounding level."""
    for _ in range(50):
        dp = _poly_eval_deriv(coeffs, z)
        if dp == 0:
            break
        step = _poly_eval(coeffs, z) / dp
        z -= step
        if abs(step) <= 1e-16 * (1.0 + abs(z)):
            break
    return z


def _aberth(coeffs) -> list:
    """All d roots of c_0 + ... + x^d, approximately, by the simultaneous
    iteration of Aberth (Math. Comp. 27, 1973): in each sweep every z_k in
    turn moves by p/(p' - p sum_{j != k} 1/(z_k - z_j)), at the others'
    latest values.  The start is closed under conjugation: d points at the
    angles (2k + 1)pi/d on a circle of Fujiwara's radius r = 2 max_k
    |c_{d-k}|^(1/k), which holds every root.  Its centre, -c_{d-1}/d + r/4,
    lies off the roots' centroid, about which a quadratic's roots are
    symmetric: a start on that axis of symmetry would never leave it.  A
    root is left alone once |p(z)| is at the rounding level of Horner's
    rule, 4 d eps sum_i |c_i| |z|^i."""
    d = len(coeffs) - 1
    r = 2.0 * max(abs(coeffs[d - k]) ** (1.0 / k) for k in range(1, d + 1))
    centre = -coeffs[d - 1] / d + r / 4
    angles = [math.pi * (2 * k + 1) / d for k in range(d // 2)]
    upper = [r * complex(math.cos(t), math.sin(t)) for t in angles]
    zs = [centre + w for w in upper + [w.conjugate() for w in upper] + [-r] * (d % 2)]
    left = set(range(d))
    for _ in range(ABERTH_SWEEPS):
        for k in sorted(left):
            z = zs[k]
            p, scale = _poly_eval(coeffs, z), 0.0
            for c in reversed(coeffs):
                scale = scale * abs(z) + abs(c)
            if abs(p) <= 4 * d * 2.0**-53 * scale:
                left.discard(k)
                continue
            s = sum(1.0 / (z - w) for j, w in enumerate(zs) if j != k)
            zs[k] = z - p / (_poly_eval_deriv(coeffs, z) - p * s)
        if not left:
            break
    return zs


@functools.lru_cache(maxsize=None)
def _embedding_roots(coeffs: tuple) -> tuple:
    """Polished and validated roots of the base polynomial, in Python complex
    arithmetic.  The Aberth approximations are matched to their conjugates,
    nearest pairs first (a real root is its own).  A real root is polished
    by Newton from its real part, so it stays real; a pair is polished from
    its upper member, and its lower member is the exact conjugate of the
    result, as LAPACK's eigenvalue routine emits a pair.  The roots are
    sorted by (re, |im|, im), which is (re, im) order except that a pair
    stays together where two pairs share their real part."""
    d = len(coeffs) - 1
    try:
        zs = _aberth(coeffs)
    except ZeroDivisionError:
        raise ConvergenceError(
            "root iterates of %s collided" % ",".join(map(str, coeffs))) from None
    gaps = sorted([(2.0 * abs(z.imag), k, k) for k, z in enumerate(zs)]
                  + [(abs(zs[k].conjugate() - zs[j]), k, j)
                     for k in range(d) for j in range(k + 1, d)])
    unmatched = set(range(d))
    polished = []
    for _, k, j in gaps:
        if k not in unmatched or j not in unmatched:
            continue
        unmatched -= {k, j}
        if k == j:
            polished.append(_newton(coeffs, complex(zs[k].real, 0.0)))
        else:
            z = _newton(coeffs, max(zs[k], zs[j], key=lambda w: w.imag))
            polished += [z, z.conjugate()]
    for z in polished:
        if abs(_poly_eval(coeffs, z)) > RESIDUAL_TOL * (1.0 + abs(z)) ** d:
            raise ConvergenceError(
                "root refinement stalled for %s at %s" % (",".join(map(str, coeffs)), z)
            )
    big_q = abs(coeffs[0])
    product = 1.0
    for z in polished:
        product *= abs(z)
    if abs(product - big_q) > PRODUCT_TOL * big_q:
        raise ConvergenceError(
            "root moduli multiply to %.12g, expected %d" % (product, big_q)
        )
    if any(abs(z) <= 1.0 for z in polished):
        raise DomainError(
            "base is not expanding: some conjugate has modulus <= 1"
        )
    return tuple(sorted(polished, key=lambda z: (z.real, abs(z.imag), z.imag)))


def _integer_root(coeffs):
    """An integer root of the monic quadratic or cubic c_0 + ... + x^d, or
    None: the polynomial is reducible over Q exactly when it has one.  In
    O(log |c_0|) exact steps.  Degree 2: the roots (-c_1 +- s)/2 are
    integers exactly when the discriminant is a square s^2, as s and c_1
    then share their parity.  Degree 3: an integer root divides c_0, and f
    is monotone between the real roots (-c_2 +- sqrt(D))/3 of f', D = c_2^2
    - 3 c_1; so [-|c_0|, |c_0|] is cut at an integer bracket of each, the
    few integers of a bracket are tried and each piece between is bisected."""
    def f(x):
        acc = 0
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    c0, c1 = coeffs[:2]
    if len(coeffs) == 3:
        disc = c1 * c1 - 4 * c0
        s = math.isqrt(max(disc, 0))
        return (s - c1) // 2 if s * s == disc else None
    c2, top = coeffs[2], abs(c0)
    disc = c2 * c2 - 3 * c1
    s = math.isqrt(max(disc, 0))  # sqrt(D) lies in [s, s + 1)
    brackets = [((-c2 - s - 1) // 3, -((c2 + s) // 3)),
                ((s - c2) // 3, -((c2 - s - 1) // 3))] if disc > 0 else []
    cuts = [-top, *(x for bracket in brackets for x in bracket), top]
    for lo, hi in zip(cuts[::2], cuts[1::2]):
        sign = 1 if f(hi) >= f(lo) else -1
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (mid + 1, hi) if sign * f(mid) < 0 else (lo, mid)
        if lo == hi and f(lo) == 0:
            return lo
    return next((x for a, b in brackets for x in range(a, b + 1) if f(x) == 0), None)


def _primitive(a: list) -> list:
    """a (integer coefficients, lowest first) over the gcd of its entries,
    its leading coefficient made positive; [] for zero."""
    content = functools.reduce(math.gcd, a, 0)
    return [x // content if a[-1] > 0 else -x // content for x in a]


def _derivative_gcd(coeffs) -> list:
    """gcd(p, p') of p = c_0 + ... + x^d over the integers, monic, lowest
    coefficient first: [1] exactly when p has no repeated factor.  Euclid's
    algorithm on primitive pseudo-remainders, each dividend scaled by the
    divisor's leading coefficient before each step, so every step is exact
    in the integers.  A monic factor of a monic integer polynomial has
    integer coefficients (Gauss's lemma), so the primitive gcd with a
    positive leading coefficient is the monic one."""
    a, b = list(coeffs), _primitive([k * c for k, c in enumerate(coeffs)][1:])
    while b:
        while len(a) >= len(b):
            lead, shift = a[-1], len(a) - len(b)
            a = [b[-1] * x for x in a]
            for i, y in enumerate(b):
                a[i + shift] -= lead * y
            while a and a[-1] == 0:
                a.pop()
        a, b = b, _primitive(a)
    return a


def _poly_text(coeffs) -> str:
    """c_0 + ... + c_d x^d as text, highest power first: "x^2 - x + 2"."""
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        if coeffs[k]:
            power = "" if k == 0 else "x" if k == 1 else "x^%d" % k
            size = str(abs(coeffs[k])) if abs(coeffs[k]) != 1 or k == 0 else ""
            terms.append(("- " if coeffs[k] < 0 else "+ ") + size + power)
    text = " ".join(terms)
    return text[2:] if text[0] == "+" else "-" + text[2:]


class EmbeddingSet(NamedTuple):
    """Complex embeddings q -> C, sorted by real part, then by |imaginary
    part|, lower member of a conjugate pair first."""

    roots: tuple

    @property
    def moduli(self) -> tuple:
        return tuple(abs(z) for z in self.roots)


class Distortion(NamedTuple):
    """Extremal logarithmic weights d*ln|q^pi| / ln Q over the embeddings."""

    theta_max: float
    theta_min: float


class MinimalPolynomial:
    """Monic integer polynomial defining the base q, coefficients c_0..c_d."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        try:
            coeffs = tuple(int(c) for c in coeffs)
        except (TypeError, ValueError):
            raise UsageError("polynomial coefficients must be integers") from None
        self.coeffs = coeffs
        if len(coeffs) < 2:
            raise DomainError("polynomial must have degree at least 1")
        if coeffs[-1] != 1:
            raise DomainError("polynomial must be monic")
        if abs(coeffs[0]) < 2:
            raise DomainError("constant term must have absolute value >= 2")
        self._check_irreducible()
        if not _is_expanding(coeffs):
            raise DomainError("base is not expanding: some conjugate has modulus <= 1")

    def _check_irreducible(self):
        d = self.degree
        if d == 1:
            return
        if d > 3:
            shared = _derivative_gcd(self.coeffs)
            if len(shared) > 1:
                raise DomainError("polynomial has a repeated factor: %s divides it and its"
                                  " derivative" % _poly_text(shared))
            warnings.warn(
                "irreducibility is only verified up to degree 3; "
                "degree %d polynomial is accepted unchecked" % d,
                stacklevel=3,
            )
            return
        root = _integer_root(self.coeffs)
        if root is not None:
            raise DomainError("polynomial is reducible: x = %d is a root" % root)

    @classmethod
    def parse(cls, text: str) -> "MinimalPolynomial":
        """Parse the comma-separated encoding "c0,c1,...,cd"."""
        try:
            coeffs = tuple(int(tok) for tok in text.split(","))
        except ValueError:
            raise UsageError("cannot parse polynomial %r" % text) from None
        return cls(coeffs)

    def __str__(self):
        return ",".join(str(c) for c in self.coeffs)

    def __repr__(self):
        return "MinimalPolynomial(coeffs=%r)" % (self.coeffs,)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def Q(self) -> int:
        """Absolute norm of the base; the number of residue classes mod q."""
        return abs(self.coeffs[0])

    def embeddings(self) -> EmbeddingSet:
        return EmbeddingSet(_embedding_roots(self.coeffs))


def dyadic_samples(seed: int, count: int):
    """A lazy stream of `count` integers m in [0, 2^53) from
    random.Random(seed), the one generator behind every seeded draw: m / 2^53
    is a uniform sample in [0, 1), an exact float and a dyadic rational.  No
    integer is drawn before the stream is read, and none is held once read.
    For an integer seed the stream is the same in every Python version."""
    import itertools
    import random
    rng = random.Random(seed)
    return map(rng.getrandbits, itertools.repeat(SAMPLE_BITS, count))


def parse_element(text: str, degree: int) -> FieldElement:
    """Parse the comma-separated encoding "a0,a1,...,a{d-1}"."""
    try:
        coords = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise UsageError("cannot parse element %r" % text) from None
    if len(coords) != degree:
        raise UsageError(
            "element %r has %d coordinates, base has degree %d"
            % (text, len(coords), degree)
        )
    return coords


def format_element(x: FieldElement) -> str:
    return ",".join(str(c) for c in x)


def _check_arity(m: MinimalPolynomial, *elements):
    for x in elements:
        if len(x) != m.degree:
            raise UsageError(
                "element has %d coordinates, base has degree %d"
                % (len(x), m.degree)
            )


def add(m: MinimalPolynomial, x: FieldElement, y: FieldElement) -> FieldElement:
    _check_arity(m, x, y)
    return tuple(a + b for a, b in zip(x, y))


def sub(m: MinimalPolynomial, x: FieldElement, y: FieldElement) -> FieldElement:
    _check_arity(m, x, y)
    return tuple(a - b for a, b in zip(x, y))


def mul(m: MinimalPolynomial, x: FieldElement, y: FieldElement) -> FieldElement:
    """Product in Z[q], reduced with x^d = -(c_0 + c_1 x + ... + c_{d-1} x^{d-1})."""
    _check_arity(m, x, y)
    d = m.degree
    prod = [0] * (2 * d - 1)
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                prod[i + j] += a * b
    for k in range(2 * d - 2, d - 1, -1):
        c = prod[k]
        if c:
            prod[k] = 0
            for j in range(d):
                prod[k - d + j] -= c * m.coeffs[j]
    return tuple(prod[:d])


def mul_by_q(m: MinimalPolynomial, x: FieldElement) -> FieldElement:
    """Shift by one basis power, folding q^d back into the basis."""
    _check_arity(m, x)
    d = m.degree
    top = x[d - 1]
    return tuple((x[k - 1] if k else 0) - m.coeffs[k] * top for k in range(d))


def q_power(m: MinimalPolynomial, k: int) -> FieldElement:
    """Coordinates of q^k, k >= 0."""
    x = (1,) + (0,) * (m.degree - 1)
    for _ in range(k):
        x = mul_by_q(m, x)
    return x


def u_element(m: MinimalPolynomial) -> FieldElement:
    """The cofactor u with q*u = c_0, namely -(c_1 + c_2 q + ... + c_d q^{d-1})."""
    return tuple(-c for c in m.coeffs[1:])


def mult_matrix(m: MinimalPolynomial, x: FieldElement) -> tuple:
    """Matrix of multiplication by x over the power basis; column j is x*q^j."""
    _check_arity(m, x)
    d = m.degree
    cols = [tuple(x)]
    for _ in range(1, d):
        cols.append(mul_by_q(m, cols[-1]))
    return tuple(tuple(cols[j][i] for j in range(d)) for i in range(d))


def _det_bareiss(rows) -> int:
    """Exact determinant of an integer matrix (fraction-free elimination)."""
    a = [list(r) for r in rows]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k]:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def norm(m: MinimalPolynomial, x: FieldElement) -> int:
    """Field norm of x, the determinant of multiplication by x."""
    _check_arity(m, x)
    return _det_bareiss(mult_matrix(m, x))


def power_sums(m: MinimalPolynomial, upto: int) -> list:
    """Traces p_k = Tr(q^k) for k = 0..upto, by Newton's identities."""
    d = m.degree
    a = [m.coeffs[d - i] for i in range(d + 1)]  # a_i = c_{d-i}, a_0 = 1
    p = [d]
    for k in range(1, upto + 1):
        s = -sum(a[i] * p[k - i] for i in range(1, min(k - 1, d) + 1))
        if k <= d:
            s -= k * a[k]
        p.append(s)
    return p


def trace_pow(m: MinimalPolynomial, x: FieldElement, k: int) -> int:
    """Trace of q^k * x."""
    _check_arity(m, x)
    if k < 0:
        raise UsageError("trace power must be nonnegative")
    p = power_sums(m, k + m.degree - 1)
    return sum(x[j] * p[k + j] for j in range(m.degree))


def distortion(m: MinimalPolynomial) -> Distortion:
    """Spread of the embedding moduli on a logarithmic scale.

    Each embedding pi gets weight d*ln|q^pi| / ln Q; the weights average
    to 1 and collapse to 1 exactly when all conjugates share one modulus.
    """
    d = m.degree
    log_q = math.log(m.Q)
    weights = [d * math.log(abs(z)) / log_q for z in _embedding_roots(m.coeffs)]
    return Distortion(theta_max=max(weights), theta_min=min(weights))
