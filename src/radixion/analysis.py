"""Prime elements, Weyl sums, and empirical Fourier decay over N_lambda.

Exponential sums S = sum e(h * value(n)) are taken over the full
length-bounded set N_lambda or its prime elements; value(n) is either a
linear form in the traces of the digit-sum element or a scalar multiple
of the adjacent-nonzero-pair count.  Decay of |S|/count as lambda grows
is the finite-scale signature of equidistribution modulo 1.

Both statistics take few values: s(n) lies in a box of prod_i
(lambda * w_i + 1) points (w_i the digit spread in coordinate i), and r(n)
in 0..lambda-1.  So weyl_sum counts the enumerated rows per value in an
exact integer histogram and takes one exponential per occupied value; the
counted sum is added exactly and rounded once, so it equals the math.fsum
of the per-row summands and does not depend on how the rows are blocked.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import algebra, bulk
from .algebra import MinimalPolynomial, _poly_eval
from .caps import ENUM_CAP, effective_cap
from .errors import CapExceeded, DomainError, UsageError
from .numeration import NumberSystem

TWO_PI = 2.0 * math.pi
PRIME_DIVISOR_CAP = 1 << 32
NORM_DIRECTIONS = 64  # support directions behind the sieve's norm bound
LOG_FLOOR = 1e-300
# Largest rounding bound, in turns, on one position phase of fourier_decay.
# Under the default cap no golden system exceeds 2^-29 (negabinary at
# lambda 24), so only a raised cap meets the guard; at 2^-20 the lambda
# factors move S by at most 2 pi lambda 2^-20 Q^lambda, under 1e-3 of the
# trivial bound Q^lambda for lambda below 160.
PHASE_ERROR_LIMIT = 2.0**-20

PRIME_KINDS = ("prime_split", "prime_inert")


# ---------------------------------------------------------------- primes


@dataclass(frozen=True)
class PrimeVerdict:
    kind: str  # zero | unit | prime_split | prime_inert | composite | unsupported_degree
    norm: int


def _is_prime_u64(n: int) -> bool:
    """Deterministic trial division; divisors are capped at 2^32."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    limit = math.isqrt(n)
    if limit > PRIME_DIVISOR_CAP:
        raise CapExceeded("primality test for %d needs divisors beyond 2^32" % n)
    f = 3
    while f <= limit:
        if n % f == 0:
            return False
        f += 2
    return True


@functools.lru_cache(maxsize=None)  # prime_mask asks again for every row block
def _poly_has_root_mod(coeffs, ell: int) -> bool:
    for r in range(ell):
        acc = 0
        for cf in reversed(coeffs):
            acc = (acc * r + cf) % ell
        if acc == 0:
            return True
    return False


def is_prime_element(ns: NumberSystem, n) -> PrimeVerdict:
    """Classify n as zero, unit, prime, or composite via its norm.

    A prime rational norm always means a prime element; in quadratic
    rings, norm ell^2 with n an associate of the inert rational prime
    ell (both coordinates divisible, no root of the base polynomial
    mod ell) is the remaining prime case.
    """
    m = ns.poly
    nm = algebra.norm(m, tuple(n))
    size = abs(nm)
    if size == 0:
        return PrimeVerdict("zero", nm)
    if size == 1:
        return PrimeVerdict("unit", nm)
    if _is_prime_u64(size):
        return PrimeVerdict("prime_split", nm)
    if m.degree == 2:
        ell = math.isqrt(size)
        if (
            ell * ell == size
            and _is_prime_u64(ell)
            and all(c % ell == 0 for c in n)
            and not _poly_has_root_mod(m.coeffs, ell)
        ):
            return PrimeVerdict("prime_inert", nm)
        return PrimeVerdict("composite", nm)
    if m.degree == 1:
        return PrimeVerdict("composite", nm)
    return PrimeVerdict("unsupported_degree", nm)


def _prime_sieve(n: int) -> np.ndarray:
    sieve = np.ones(n + 1, dtype=bool)
    sieve[: min(2, n + 1)] = False
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return sieve


def _norm_bound(ns: NumberSystem, lam: int) -> int:
    """An upper bound on |N(n)| over N_lam, within 0.5% of the maximum for
    a complex quadratic base.  |N(n)| is the product over the embeddings
    sigma of |sigma(n)|; the largest |sigma(n)| is the support of
    sigma(N_lam) in its best direction, the sum over positions j of the
    best term sigma(q^j b).  K directions miss it by at most pi / K."""
    directions = np.exp(-2j * math.pi * np.arange(NORM_DIRECTIONS) / NORM_DIRECTIONS)
    bound = 1.0
    for z in ns.poly.embeddings().roots:
        terms = np.array([[_poly_eval(b, z) * z**j for b in ns.digits] for j in range(lam)])
        support = (terms.reshape(lam, ns.Q, 1) * directions).real.max(axis=1).sum(axis=0)
        bound *= max(float(support.max()), 0.0) / math.cos(math.pi / NORM_DIRECTIONS)
    return int(bound * (1 + 1e-9)) + 1


def prime_sieve(ns: NumberSystem, lam: int) -> np.ndarray:
    """One sieve that serves prime_mask on every row of N_lam.  Checked
    before allocation: that the int64 norm a^2 - c1 ab + c0 b^2 cannot wrap
    over the coordinate ranges of N_lam, and the sieve's bytes, against the
    cap at the 8 * d bytes of a table row's coordinates."""
    if ns.degree > 2:
        raise UsageError("prime enumeration supports degree <= 2 only")
    lo, hi = bulk.coordinate_ranges(ns, lam)
    widest = a = max(-lo[0], hi[0])
    if ns.degree == 2:
        c, b = ns.poly.coeffs, max(-lo[1], hi[1])
        widest = a * a + abs(c[1]) * a * b + abs(c[0]) * b * b
    if widest >= bulk.INT64_GUARD:
        raise DomainError("norms over lambda %d can reach %d, beyond the int64 budget"
                          % (lam, widest))
    top = _norm_bound(ns, lam)
    if top + 1 > effective_cap(ENUM_CAP) * 8 * ns.degree:
        raise CapExceeded("prime sieve of %d bytes for lambda %d exceeds the memory of a %d-element"
                          " table" % (top + 1, lam, effective_cap(ENUM_CAP)))
    return _prime_sieve(top)


def prime_mask(ns: NumberSystem, coords, sieve: np.ndarray) -> np.ndarray:
    """Vectorized prime verdicts (split or inert) for rows of coordinates;
    `sieve` (prime_sieve) must reach every |norm| of these rows."""
    m = ns.poly
    if m.degree > 2:
        raise UsageError("prime enumeration supports degree <= 2 only")
    c = m.coeffs
    coords = np.asarray(coords, dtype=np.int64)
    a = coords[:, 0]
    absnorm = np.abs(a)
    if m.degree == 1:
        return sieve[absnorm]
    b = coords[:, 1]
    absnorm *= absnorm  # |a^2 - c1 ab + c0 b^2|, in place
    absnorm -= c[1] * a * b
    absnorm += c[0] * b * b
    np.abs(absnorm, out=absnorm)
    mask = sieve[absnorm]
    root = np.sqrt(absnorm)
    root = np.rint(root, out=root).astype(np.int64)
    idx = np.flatnonzero((root * root == absnorm) & (root >= 2))  # the few inert candidates
    ell = root[idx]
    keep = sieve[ell] & (a[idx] % ell == 0) & (b[idx] % ell == 0)
    idx, ell = idx[keep], ell[keep]
    inert = np.array([not _poly_has_root_mod(c, e) for e in ell.tolist()], dtype=bool)
    mask[idx[inert]] = True
    return mask


def prime_rows(ns: NumberSystem, lam: int) -> list:
    """The prime elements of N_lam in enumeration order, one array per row block."""
    blocks = bulk.row_blocks(ns, lam)
    sieve = prime_sieve(ns, lam)
    return [b.coords[prime_mask(ns, b.coords, sieve=sieve)] for b in blocks]


# ------------------------------------------------------------ linear forms


@dataclass(frozen=True)
class LinearForm:
    """Coefficients t_0..t_{d-1} of phi(x) = sum_k t_k Tr(q^k x).

    Rational-tagged coefficients are kept exactly; floating inputs can
    never witness irrationality, so the tag is part of the input.
    """

    values: tuple  # float value per coefficient
    rationals: tuple  # Fraction for rational-tagged, None for irrational

    @classmethod
    def parse(cls, text: str) -> "LinearForm":
        """Comma-separated coefficients: "p/q" and bare integers are
        rational-tagged; decimal or exponent literals are irrational."""
        values, rationals = [], []
        for tok in text.split(","):
            tok = tok.strip()
            try:
                if "." in tok or "e" in tok.lower():
                    values.append(float(tok))
                    rationals.append(None)
                else:
                    frac = Fraction(tok)
                    values.append(float(frac))
                    rationals.append(frac)
            except (ValueError, ZeroDivisionError):
                raise UsageError("cannot parse linear form coefficient %r" % tok) from None
        return cls(tuple(values), tuple(rationals))


def phase_weights(form: LinearForm, m: MinimalPolynomial) -> np.ndarray:
    """Coordinate weights w with phi(x) = <w, x>, via w_j = sum_k t_k Tr(q^{k+j})."""
    d = m.degree
    if len(form.values) != d:
        raise UsageError("linear form needs %d coefficients, got %d" % (d, len(form.values)))
    p = algebra.power_sums(m, 2 * d - 2)
    return np.array(
        [sum(form.values[k] * p[k + j] for k in range(d)) for j in range(d)]
    )


def phi_is_irrational(form: LinearForm, m: MinimalPolynomial, x) -> bool:
    """Symbolic tag rule: an irrational coefficient meets a nonzero trace."""
    return any(
        form.rationals[k] is None and algebra.trace_pow(m, x, k) != 0
        for k in range(len(form.values))
    )


def phi_exact(form: LinearForm, m: MinimalPolynomial, x):
    """Exact Fraction value of phi(x), or None when an irrational term contributes."""
    if phi_is_irrational(form, m, x):
        return None
    return sum(
        (form.rationals[k] * algebra.trace_pow(m, x, k) for k in range(len(form.values)) if form.rationals[k] is not None),
        Fraction(0),
    )


def phi_float(form: LinearForm, m: MinimalPolynomial, x) -> float:
    return float(
        sum(form.values[k] * algebra.trace_pow(m, x, k) for k in range(len(form.values)))
    )


def equidist_condition(ns: NumberSystem, form: LinearForm) -> bool:
    """True iff some digit b makes phi(b) irrational (by the tag rule)."""
    return any(phi_is_irrational(form, ns.poly, b) for b in ns.digits)


# ------------------------------------------------- sum-of-digits constants


@dataclass(frozen=True)
class SumDigitConstants:
    mu_q: int
    big_m_q: int
    digit_trace_norms: tuple  # per digit: ||phi(mu_q b)||^2 mod 1
    digit_norm_sum: float
    decay_factor: float  # digit_norm_sum / (M_q (d+1)); true constant is this times delta_Q
    scale_note: str


def sumdigit_fourier_constants(ns: NumberSystem, form: LinearForm) -> SumDigitConstants:
    m = ns.poly
    mu_q = sum(m.coeffs)
    big_m_q = sum(cf * cf for cf in m.coeffs)
    norms = []
    for b in ns.digits:
        scaled = tuple(mu_q * t for t in b)
        exact = phi_exact(form, m, scaled)
        if exact is not None:
            fracpart = exact - math.floor(exact)
            dist = float(min(fracpart, 1 - fracpart))
        else:
            v = phi_float(form, m, scaled)
            dist = abs(v - round(v))
        norms.append(dist * dist)
    total = float(sum(norms))
    return SumDigitConstants(
        mu_q,
        big_m_q,
        tuple(norms),
        total,
        total / (big_m_q * (m.degree + 1)),
        "up to delta_Q",
    )


# -------------------------------------------------------------- Weyl sums


@dataclass(frozen=True)
class WeylRow:
    lam: int
    h: int
    filter: str
    count: int
    re_sum: float
    im_sum: float
    normalized: float


def _integer_digit_values(ns: NumberSystem):
    if any(any(b[1:]) for b in ns.digits):
        raise UsageError(
            "a scalar coefficient on digit sums needs digits in Z; pass a linear form"
        )
    return [b[0] for b in ns.digits]


def _digit_twist(ns: NumberSystem, fn: str, phase):
    """(c, pair) with value(n) = <c, s(n)> + pair * r(n); s(n) is the
    digit-sum element, r(n) the count of adjacent nonzero digit pairs."""
    if fn == "rs":
        if isinstance(phase, LinearForm):
            raise UsageError("pair counting takes a scalar coefficient, not a form")
        return np.zeros(ns.degree), float(phase)
    if fn == "sod":
        if isinstance(phase, LinearForm):
            return phase_weights(phase, ns.poly), 0.0
        _integer_digit_values(ns)
        return float(phase) * np.eye(ns.degree)[0], 0.0
    raise UsageError("fn must be 'sod' or 'rs'")


def _digit_histogram(ns: NumberSystem, fn: str, lam: int, filter: str = "all") -> tuple:
    """Exact row counts of the statistic an fn-twist reads over N_lam or its
    primes: (stats, r, counts) over the occupied values in ascending key
    order, with stats the digit-sum elements s(n) (r zero) for 'sod' and r
    the adjacent nonzero-pair counts (stats zero) for 'rs'.

    The rows come block by block from bulk.row_blocks.  The key
    of a row is s(n) offset-encoded over its box, coordinate i spanning
    lam * [min_b b_i, max_b b_i], or r in 0..lam-1, counted in a dense
    histogram.  When the box of s(n) holds more values than N_lam has rows,
    the rows are keyed by their sorted distinct values instead (np.unique
    per block, merged), in the same ascending order.  Either way the bins,
    at most min(box, Q^lam), are checked against the element cap before the
    sieve or any block is built.
    """
    if filter not in ("all", "primes"):
        raise UsageError("filter must be 'all' or 'primes'")
    span = max(lam, 0)  # row_blocks rejects lam < 0
    digits = np.array(ns.digits, dtype=np.int64)
    if fn == "sod":
        lo = span * digits.min(axis=0)
        dims = tuple(int(v) for v in span * (digits.max(axis=0) - digits.min(axis=0)) + 1)
    elif fn == "rs":
        dims = (max(span, 1),)
    else:
        raise UsageError("fn must be 'sod' or 'rs'")
    total_rows, box = ns.Q**span, math.prod(dims)
    sparse = box > total_rows  # only for 'sod': r takes at most lam <= Q^lam values
    bins = min(box, total_rows)
    if bins > effective_cap(ENUM_CAP):
        raise CapExceeded("histogram of %d bins for lambda %d exceeds cap %d"
                          % (bins, lam, effective_cap(ENUM_CAP)))
    blocks = bulk.row_blocks(ns, lam)
    sieve = prime_sieve(ns, lam) if filter == "primes" else None
    hist, found = np.zeros(0 if sparse else bins, np.int64), []
    place = None if sparse else np.array([math.prod(dims[i + 1:]) for i in range(len(dims))],
                                         dtype=np.int64)
    for block in blocks:
        stat = block.s_coords if fn == "sod" else block.r
        if sieve is not None:
            stat = stat[prime_mask(ns, block.coords, sieve=sieve)]
        if sparse:
            found.append(np.unique(stat, axis=0, return_counts=True))
            continue
        keys = np.einsum("ij,j->i", stat - lo, place) if fn == "sod" else stat
        hist += np.bincount(keys, minlength=bins)
    if sparse:
        stats, inverse = np.unique(np.concatenate([v for v, _ in found]), axis=0,
                                   return_inverse=True)
        counts = np.zeros(len(stats), np.int64)
        np.add.at(counts, inverse.ravel(), np.concatenate([c for _, c in found]))
        return stats, np.zeros(len(stats), np.int64), counts
    occupied = np.flatnonzero(hist)
    if fn == "sod":
        stats = np.stack(np.unravel_index(occupied, dims), axis=1) + lo
        return stats, np.zeros(len(occupied), np.int64), hist[occupied]
    return np.zeros((len(occupied), ns.degree), np.int64), occupied, hist[occupied]


def weyl_sum(
    ns: NumberSystem,
    fn: str,
    phases,
    h: int,
    lam: int,
    filter: str = "all",
) -> list:
    """S = sum of e(h * value) over N_lambda or its primes, one WeylRow per
    phase, in order.

    One streamed pass counts the rows per value of the digit statistic
    exactly (_digit_histogram); each phase then takes one exponential per
    occupied value, from the float expression a row would use, and adds
    count * e(h * value) exactly, rounding once.  So re_sum and im_sum are
    the math.fsum of the per-row summands, they do not depend on how
    bulk.row_blocks blocks the rows or splits its tables, and a row does
    not depend on the other phases.
    """
    twists = [_digit_twist(ns, fn, phase) for phase in phases]
    stats, r, counts = _digit_histogram(ns, fn, lam, filter)
    s_float, counts = stats.astype(np.float64), counts.tolist()
    count = sum(counts)
    rows = []
    for c, pair in twists:
        z = np.exp((TWO_PI * h) * 1j * (s_float @ c + pair * r))
        total = complex(_exact_sum(counts, z.real), _exact_sum(counts, z.imag))
        rows.append(WeylRow(lam, h, filter, count, total.real, total.imag,
                            float(abs(total) / count if count else 0.0)))
    return rows


def _exact_sum(counts: list, x: np.ndarray) -> float:
    """sum(counts[i] * x[i]) rounded once: each float is num / 2^k, so the
    sum is one integer over the largest 2^k, and int / int rounds correctly."""
    if not np.isfinite(x).all():  # a phase value past the float range
        return math.nan
    ratios = [v.as_integer_ratio() for v in x.tolist()]
    scale = max((den for _, den in ratios), default=1)
    return sum(n * num * (scale // den) for n, (num, den) in zip(counts, ratios)) / scale


def sod_factorization_reference(ns: NumberSystem, alpha: float, h: int, lam: int) -> complex:
    """(sum_b e(h alpha b))^lam, the exact value of the full digit-sum Weyl sum."""
    base = sum(cmath.exp((TWO_PI * h * alpha * v) * 1j) for v in _integer_digit_values(ns))
    return base**lam


# ----------------------------------------------------------- Fourier decay


@dataclass(frozen=True)
class FourierDecayRow:
    lam: int
    samples: int
    max_logq: float
    gamma_emp: float


@dataclass(frozen=True)
class FourierDecayReport:
    fn: str
    lam_max: int
    t_samples: int
    seed: int
    kappa: int
    mu_q: int
    big_m_q: int
    digit_norm_sum: float | None
    rs_bound_slope: float | None
    rows: tuple


def rs_bound_slope(alpha: float) -> float:
    """Per-lambda decay slope (lambda/2) log2(2/(1+|cos pi alpha|)) / lambda."""
    return 0.5 * math.log2(2.0 / (1.0 + abs(math.cos(math.pi * alpha))))


def fourier_decay(
    ns: NumberSystem,
    fn: str,
    phase,
    lam_max: int,
    t_samples: int,
    seed: int,
) -> FourierDecayReport:
    """Empirical decay of sup_t |S(t)| with S(t) = sum f(v) e(<t, v>).

    t is sampled uniformly in [0,1)^d (t = 0 is always forced in) and
    paired with v through the trace form; f twists by the chosen digit
    function.  Reported gamma_emp = lambda - max_t log_Q|S(t)| is a
    lower bound for the true decay exponent, so only bounds of the form
    "every sample stays below ..." are sound to check against it.

    S is a product of per-position 2x2 transfer matrices (Gelfond; Mauduit-
    Rivat for the pair count): per t, one pass over the positions carries the
    sums over digit prefixes ending in a zero and in a nonzero digit.
    """
    if lam_max < 1:
        raise UsageError("lam_max must be at least 1")
    if t_samples < 0:
        raise UsageError("t_samples must be nonnegative")
    c, pair = _digit_twist(ns, fn, phase)
    if ns.Q**lam_max > effective_cap(ENUM_CAP):
        raise CapExceeded("lam_max %d spans %d elements, above cap %d"
                          % (lam_max, ns.Q**lam_max, effective_cap(ENUM_CAP)))
    d = ns.degree
    rng = np.random.default_rng(seed)
    t_rows = np.concatenate([np.zeros((1, d)), rng.random((t_samples, d))], axis=0)
    trace = np.array(algebra.trace_matrix(ns.poly), dtype=np.float64)
    weights = t_rows @ trace  # row-wise coordinate weights <t, v> = <w, coords(v)>
    w_norm = float(np.abs(weights).sum(axis=1).max())
    step = bulk.q_power_matrix(ns.poly, 1)
    shifted = np.array(ns.digits, dtype=np.int64)  # q^j b per digit b
    twist = shifted @ c
    nonzero = np.array(ns.digit_is_nonzero)
    pair_factor = cmath.exp(TWO_PI * 1j * pair)
    ends_zero, ends_nonzero = np.ones(len(t_rows), complex), np.zeros(len(t_rows), complex)
    log_q = math.log(ns.Q)
    rows = []
    for lam in range(1, lam_max + 1):
        size = int(np.abs(shifted).sum(axis=1).max())
        error = (d + 1) * 2.0**-53 * size * w_norm
        # the second clause keeps the next q^j b inside int64
        if error >= PHASE_ERROR_LIMIT or size * int(np.abs(step).max()) >= bulk.INT64_GUARD:
            raise DomainError("at lambda %d, |q^%d b|_1 reaches %d and a position phase can"
                              " err by %.3g turns" % (lam, lam - 1, size, error))
        factors = np.exp(TWO_PI * 1j * (shifted @ weights.T + twist[:, None]))
        into_zero, into_nonzero = factors[~nonzero].sum(axis=0), factors[nonzero].sum(axis=0)
        ends_zero, ends_nonzero = ((ends_zero + ends_nonzero) * into_zero,
                                   (ends_zero + pair_factor * ends_nonzero) * into_nonzero)
        best = float(np.abs(ends_zero + ends_nonzero).max())
        max_logq = math.log(max(best, LOG_FLOOR)) / log_q
        rows.append(FourierDecayRow(lam, len(t_rows), max_logq, lam - max_logq))
        shifted = shifted @ step.T
    mu_q = sum(ns.poly.coeffs)
    big_m_q = sum(cf * cf for cf in ns.poly.coeffs)
    digit_norm_sum = None
    slope = None
    if fn == "sod":
        if isinstance(phase, LinearForm):
            digit_norm_sum = sumdigit_fourier_constants(ns, phase).digit_norm_sum
        else:
            ints = _integer_digit_values(ns)
            digit_norm_sum = 0.0
            for v in ints:
                x = float(phase) * mu_q * v
                digit_norm_sum += (x - round(x)) ** 2
    elif fn == "rs" and not isinstance(phase, LinearForm):
        slope = rs_bound_slope(float(phase))
    return FourierDecayReport(
        fn,
        lam_max,
        t_samples,
        seed,
        0,
        mu_q,
        big_m_q,
        digit_norm_sum,
        slope,
        tuple(rows),
    )
