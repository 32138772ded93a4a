"""Prime elements, Weyl sums, and empirical Fourier decay over N_lambda.

Exponential sums S = sum e(h * value(n)) are taken over the full
length-bounded set N_lambda or its prime elements; value(n) is either a
linear form in the traces of the digit-sum element or a scalar multiple
of the adjacent-nonzero-pair count.  Decay of |S|/count as lambda grows
is the finite-scale signature of equidistribution modulo 1.

Both statistics take few values: s(n) lies in a box of prod_i
(lambda * w_i + 1) points (w_i the digit spread in coordinate i), and r(n)
in 0..lambda-1.  So weyl_sum counts the rows per value in an exact integer
histogram and takes one exponential per occupied value; the counted sum is
added exactly and rounded once, so it equals the math.fsum of the per-row
summands.  Over all of N_lambda the histogram has a closed form (the
lambda-fold convolution of the digit multiset for s(n), Gelfond; a
two-state recursion on the last digit for r(n)); over the primes it is
counted from the one streamed pass of bulk.prime_blocks.  This module
imports no numpy: only that prime pass builds arrays.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from . import algebra
from .algebra import MinimalPolynomial
from .caps import ENUM_CAP, effective_cap
from .errors import CapExceeded, UsageError
from .numeration import NumberSystem

TWO_PI = 2.0 * math.pi
LOG_FLOOR = 1e-300

PRIME_KINDS = ("prime_split", "prime_inert")
SPRP_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
SPRP_LIMIT = 318665857834031151167461  # the least strong pseudoprime to all of SPRP_BASES


# ---------------------------------------------------------------- primes


class PrimeVerdict(NamedTuple):
    kind: str  # zero | unit | prime_split | prime_inert | composite | unsupported_degree
    norm: int


def _is_prime(n: int) -> bool:
    """Primality of n: trial division by the primes 2..37, then strong
    probable-prime tests to those twelve bases, which no composite below
    SPRP_LIMIT passes (Sorenson & Webster, Math. Comp. 86, 2017)."""
    for p in SPRP_BASES:
        if n % p == 0:
            return n == p
    if n < 41 * 41:  # no factor up to 37, so none up to its square root
        return n > 1
    if n >= SPRP_LIMIT:
        raise CapExceeded("primality of the norm %d is undecided by the twelve-base test, "
                          "exact below %d" % (n, SPRP_LIMIT))
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s * d, d odd
    d = (n - 1) >> s
    for a in SPRP_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _is_inert(c0: int, c1: int, ell: int) -> bool:
    """Whether x^2 + c1 x + c0 has no root mod the prime ell: for odd ell, by
    Euler's criterion on the discriminant (a root exists exactly when it is
    a square mod ell, zero included); for ell = 2, when c0 and c1 are odd."""
    if ell == 2:
        return c0 % 2 == 1 and c1 % 2 == 1
    return pow(c1 * c1 - 4 * c0, (ell - 1) // 2, ell) == ell - 1


def norm_verdict(m: MinimalPolynomial, nm: int) -> PrimeVerdict:
    """The verdict of is_prime_element for every element of norm nm.

    A prime rational norm always means a prime element.  In a quadratic
    ring the other prime case is norm ell^2 with ell inert (the base
    polynomial has no root mod ell): then ell divides no discriminant, so
    ell is inert in the maximal order too, the element generates the ideal
    of norm ell^2, ell times a unit, and is prime.
    """
    size = abs(nm)
    if size == 0:
        return PrimeVerdict("zero", nm)
    if size == 1:
        return PrimeVerdict("unit", nm)
    if _is_prime(size):
        return PrimeVerdict("prime_split", nm)
    if m.degree == 2:
        ell = math.isqrt(size)
        if ell * ell == size and _is_prime(ell) and _is_inert(*m.coeffs[:2], ell):
            return PrimeVerdict("prime_inert", nm)
        return PrimeVerdict("composite", nm)
    if m.degree == 1:
        return PrimeVerdict("composite", nm)
    return PrimeVerdict("unsupported_degree", nm)


def is_prime_element(ns: NumberSystem, n) -> PrimeVerdict:
    """Classify n as zero, unit, prime, or composite via its norm (norm_verdict)."""
    return norm_verdict(ns.poly, algebra.norm(ns.poly, tuple(n)))


# ------------------------------------------------------------ linear forms


class LinearForm(NamedTuple):
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
        from fractions import Fraction
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


def phase_weights(form: LinearForm, m: MinimalPolynomial) -> tuple:
    """Coordinate weights w with phi(x) = <w, x>, via w_j = sum_k t_k Tr(q^{k+j})."""
    d = m.degree
    if len(form.values) != d:
        raise UsageError("linear form needs %d coefficients, got %d" % (d, len(form.values)))
    p = algebra.power_sums(m, 2 * d - 2)
    return tuple(sum(form.values[k] * p[k + j] for k in range(d)) for j in range(d))


def phi_is_irrational(form: LinearForm, m: MinimalPolynomial, x) -> bool:
    """Symbolic tag rule: an irrational coefficient meets a nonzero trace."""
    return any(
        form.rationals[k] is None and algebra.trace_pow(m, x, k) != 0
        for k in range(len(form.values))
    )


def phi_exact(form: LinearForm, m: MinimalPolynomial, x):
    """Exact rational value of phi(x), or None when an irrational term contributes."""
    if phi_is_irrational(form, m, x):
        return None
    return sum(
        form.rationals[k] * algebra.trace_pow(m, x, k)
        for k in range(len(form.values)) if form.rationals[k] is not None
    )


def phi_float(form: LinearForm, m: MinimalPolynomial, x) -> float:
    return float(
        sum(form.values[k] * algebra.trace_pow(m, x, k) for k in range(len(form.values)))
    )


def equidist_condition(ns: NumberSystem, form: LinearForm) -> bool:
    """True iff some digit b makes phi(b) irrational (by the tag rule)."""
    return any(phi_is_irrational(form, ns.poly, b) for b in ns.digits)


# ------------------------------------------------- sum-of-digits constants


class SumDigitConstants(NamedTuple):
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


class WeylRow(NamedTuple):
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
        return (0.0,) * ns.degree, float(phase)
    if fn == "sod":
        if isinstance(phase, LinearForm):
            return phase_weights(phase, ns.poly), 0.0
        _integer_digit_values(ns)
        return (float(phase),) + (0.0,) * (ns.degree - 1), 0.0
    raise UsageError("fn must be 'sod' or 'rs'")


def _digit_histogram(ns: NumberSystem, fn: str, lam: int, filter: str = "all") -> dict:
    """Exact row counts of the statistic an fn-twist reads over N_lam or its
    primes, {value: count} over the occupied values in ascending order: the
    digit-sum element s(n), a tuple, for 'sod'; the adjacent nonzero-pair
    count r(n) for 'rs'.

    s(n) lies in a box, coordinate i spanning lam * [min_b b_i, max_b b_i],
    and r(n) in 0..lam-1; the bins, at most min(box, Q^lam), are checked
    against the element cap before any work.  Over all of N_lam the counts
    come in closed form (_closed_histogram), and the Q^lam rows they count
    are still held to the element cap; over the primes they are counted
    from the streamed pass (bulk.prime_histogram).
    """
    if filter not in ("all", "primes"):
        raise UsageError("filter must be 'all' or 'primes'")
    span = max(lam, 0)  # the enumeration rejects lam < 0
    if fn == "sod":
        lo = tuple(span * min(b[i] for b in ns.digits) for i in range(ns.degree))
        dims = tuple(span * (max(b[i] for b in ns.digits) - min(b[i] for b in ns.digits)) + 1
                     for i in range(ns.degree))
    elif fn == "rs":
        lo, dims = (0,), (max(span, 1),)
    else:
        raise UsageError("fn must be 'sod' or 'rs'")
    bins = min(math.prod(dims), ns.Q**span)
    if bins > effective_cap(ENUM_CAP):
        raise CapExceeded("histogram of %d bins for lambda %d exceeds cap %d"
                          % (bins, lam, effective_cap(ENUM_CAP)))
    if filter == "primes":
        from . import bulk
        return bulk.prime_histogram(ns, fn, lam, lo, dims)
    if lam < 0:
        raise UsageError("expansion length must be nonnegative")
    if ns.Q**lam > effective_cap(ENUM_CAP):
        raise CapExceeded("table of %d elements exceeds cap %d"
                          % (ns.Q**lam, effective_cap(ENUM_CAP)))
    return _closed_histogram(ns, fn, lam)


def _closed_histogram(ns: NumberSystem, fn: str, lam: int) -> dict:
    """The row counts of _digit_histogram over all of N_lam, in O(lam * Q *
    bins).  A row is a digit string of length lam.  Its digit sum is a sum
    of lam independent digits, so the counts of s(n) are the lam-fold
    convolution of the digit multiset (Gelfond's factorization).  Its pair
    count grows by one exactly when a nonzero digit follows a nonzero one,
    so the counts of r(n) follow from the counts of the strings ending in a
    zero and in a nonzero digit, by r (Mauduit-Rivat's transfer product)."""
    if fn == "sod":
        counts = {ns.zero: 1}
        for _ in range(lam):
            step = {}
            for s, n in counts.items():
                for b in ns.digits:
                    key = tuple(x + y for x, y in zip(s, b))
                    step[key] = step.get(key, 0) + n
            counts = step
        return dict(sorted(counts.items()))
    nonzero = sum(ns.digit_is_nonzero)
    zero = ns.Q - nonzero
    ends_zero, ends_nonzero = [1], [0]  # the empty string, by pair count
    for _ in range(lam):
        ends_zero, ends_nonzero = (
            [zero * (a + b) for a, b in zip(ends_zero + [0], ends_nonzero + [0])],
            [nonzero * (a + b) for a, b in zip(ends_zero + [0], [0] + ends_nonzero)])
    return {r: a + b for r, (a, b) in enumerate(zip(ends_zero, ends_nonzero)) if a + b}


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

    The rows are counted per value of the digit statistic exactly
    (_digit_histogram); each phase then takes one exponential per occupied
    value, from the float expression a row would use, and adds
    count * e(h * value) exactly, rounding once.  So re_sum and im_sum are
    the math.fsum of the per-row summands, they do not depend on how the
    prime pass blocks the rows, and a row does not depend on the other
    phases.
    """
    twists = [_digit_twist(ns, fn, phase) for phase in phases]
    hist = _digit_histogram(ns, fn, lam, filter)
    counts = list(hist.values())
    count = sum(counts)
    scale = TWO_PI * h
    rows = []
    for c, pair in twists:
        if fn == "sod":
            values = [sum(x * w for x, w in zip(s, c)) for s in hist]
        else:
            values = [pair * r for r in hist]
        z = [cmath.exp(complex(0.0, scale * v)) for v in values]
        total = complex(_exact_sum(counts, [w.real for w in z]),
                        _exact_sum(counts, [w.imag for w in z]))
        rows.append(WeylRow(lam, h, filter, count, total.real, total.imag,
                            float(abs(total) / count if count else 0.0)))
    return rows


def _exact_sum(counts: list, x) -> float:
    """sum(counts[i] * x[i]) rounded once: each float is num / 2^k, so the
    sum is one integer over the largest 2^k, and int / int rounds correctly."""
    x = [float(v) for v in x]
    if not all(map(math.isfinite, x)):  # a phase value past the float range
        return math.nan
    ratios = [v.as_integer_ratio() for v in x]
    scale = max((den for _, den in ratios), default=1)
    return sum(n * num * (scale // den) for n, (num, den) in zip(counts, ratios)) / scale


def sod_factorization_reference(ns: NumberSystem, alpha: float, h: int, lam: int) -> complex:
    """(sum_b e(h alpha b))^lam, the exact value of the full digit-sum Weyl sum."""
    base = sum(cmath.exp((TWO_PI * h * alpha * v) * 1j) for v in _integer_digit_values(ns))
    return base**lam


# ----------------------------------------------------------- Fourier decay


class FourierDecayRow(NamedTuple):
    lam: int
    samples: int
    max_logq: float
    gamma_emp: float


class FourierDecayReport(NamedTuple):
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
    sums over digit prefixes ending in a zero and in a nonzero digit.  Every
    t_k is m_k / 2^53 and the digit twist <c, b> of a float c is a dyadic
    rational, so the phase of digit b at position j, sum_k t_k Tr(q^(k+j) b)
    + <c, b> mod 1, is one integer mod 2^E, exact at every lambda and
    rounded once to a float.
    """
    if lam_max < 1:
        raise UsageError("lam_max must be at least 1")
    if t_samples < 0:
        raise UsageError("t_samples must be nonnegative")
    c, pair = _digit_twist(ns, fn, phase)
    if ns.Q**lam_max > effective_cap(ENUM_CAP):
        raise CapExceeded("lam_max %d spans %d elements, above cap %d"
                          % (lam_max, ns.Q**lam_max, effective_cap(ENUM_CAP)))
    d, m = ns.degree, ns.poly
    draws = algebra.dyadic_samples(seed, t_samples * d)  # t_k = m_k / 2^53, row by row
    samples = [(0,) * d] + [tuple(draws[i : i + d]) for i in range(0, len(draws), d)]
    # <c, b> = twist[b] / 2^bits exactly, with bits >= 53, the bits of each t_k
    ratios = [w.as_integer_ratio() for w in c]
    bits = max([algebra.SAMPLE_BITS] + [den.bit_length() - 1 for _, den in ratios])
    modulus = 1 << bits
    twist = [sum(num * (modulus // den) * x for (num, den), x in zip(ratios, b))
             for b in ns.digits]
    lift = 1 << (bits - algebra.SAMPLE_BITS)  # t_k = m_k * lift / 2^bits
    power = algebra.power_sums(m, 2 * d - 2)
    zero_digits = [i for i, nz in enumerate(ns.digit_is_nonzero) if not nz]
    nonzero_digits = [i for i, nz in enumerate(ns.digit_is_nonzero) if nz]
    pair_factor = cmath.exp(TWO_PI * 1j * pair)
    columns = list(zip(*samples))  # m_k over the samples, per k
    ends_zero, ends_nonzero = [1.0 + 0j] * len(samples), [0j] * len(samples)
    log_q = math.log(ns.Q)
    shifted = list(ns.digits)  # q^j b per digit b, exact
    rows = []
    for lam in range(1, lam_max + 1):
        factors = []
        for x, tw in zip(shifted, twist):
            # Tr(q^k x) = sum_i x_i Tr(q^(k+i)); the phase of x at t, times 2^bits
            acc = [tw] * len(samples)
            for k in range(d):
                tr = sum(x[i] * power[k + i] for i in range(d)) * lift % modulus
                acc = [a + mk * tr for a, mk in zip(acc, columns[k])]
            factors.append([cmath.rect(1.0, a % modulus / modulus * TWO_PI) for a in acc])
        into_zero = [sum(f) for f in zip(*(factors[k] for k in zero_digits))]
        into_nonzero = [sum(f) for f in zip(*(factors[k] for k in nonzero_digits))]
        ends_zero, ends_nonzero = (
            [(a + b) * f for a, b, f in zip(ends_zero, ends_nonzero, into_zero)],
            [(a + pair_factor * b) * f for a, b, f in zip(ends_zero, ends_nonzero, into_nonzero)])
        best = max(abs(a + b) for a, b in zip(ends_zero, ends_nonzero))
        max_logq = math.log(max(best, LOG_FLOOR)) / log_q
        rows.append(FourierDecayRow(lam, len(samples), max_logq, lam - max_logq))
        shifted = [algebra.mul_by_q(m, x) for x in shifted]
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
