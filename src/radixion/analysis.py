"""Prime elements, Weyl sums, and empirical Fourier decay over N_lambda.

Exponential sums S = sum e(h * value(n)) are taken over the full
length-bounded set N_lambda or its prime elements, value(n) = <w, v(n)>
pairing the weights w of a phase with the value vector v(n) of a digit
statistic (numeration.DigitStatistic), an automaton over the digits: the
digit sum s(n) of Thue-Morse, one state, twisted by a linear form in its
traces or, for digits in Z, by a scalar; the adjacent-nonzero-pair count
r(n) of Rudin-Shapiro, two states, twisted by a scalar.  Decay of
|S|/count as lambda grows is the finite-scale signature of
equidistribution modulo 1.

A statistic takes few values: v(n) lies in the box lambda * [min, max] of
its increments, coordinate by coordinate.  So weyl_sum counts the rows per
value in an exact integer histogram and takes one exponential per occupied
value; the counted sum is added exactly and rounded once, so it equals the
math.fsum of the per-row summands.  Over all of N_lambda the histogram has
a closed form, one DP over (state, value): the lambda-fold convolution of
the digit multiset for s(n) (Gelfond), the recursion on the last digit for
r(n); over the primes it is counted from the one streamed pass of
bulk.prime_blocks.  Either route counts every lambda of a request on its
way to the largest.  fourier_decay is a transfer product over the same
states.  This module imports no numpy: only that prime pass builds arrays.
"""

from __future__ import annotations

import cmath
import collections
import functools
import math
from typing import NamedTuple

from . import algebra
from .algebra import MinimalPolynomial
from .caps import ENUM_CAP, check_power, check_samples, effective_cap
from .errors import CapExceeded, DomainError, UsageError
from .numeration import DigitStatistic, NumberSystem

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
    """Classify every element of norm nm as zero, unit, prime or composite.

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
        raise UsageError("a scalar coefficient on digit sums needs digits in Z; pass a linear form")
    return [b[0] for b in ns.digits]


def _digit_twist(stat: DigitStatistic, m: MinimalPolynomial, phase) -> tuple:
    """Weights w with value(n) = <w, v(n)>, v(n) the value vector of the
    digit statistic: a trace linear form needs a statistic valued in Z[q]
    (phase_weights), a scalar coefficient one whose increments all lie on
    the first coordinate.  Every weight must be finite."""
    if isinstance(phase, LinearForm):
        if not stat.element:
            raise UsageError("a statistic counted in Z takes a scalar coefficient, not a form")
        weights = phase_weights(phase, m)
    elif any(any(inc[1:]) for row in stat.step for _, inc in row):
        raise UsageError("a scalar coefficient needs a statistic in Z; pass a linear form")
    else:
        weights = (float(phase),) + (0.0,) * (stat.width - 1)
    if not all(map(math.isfinite, weights)):
        raise UsageError("phase weights must be finite, got %s" % (weights,))
    return weights


def _finite(phase: float, name: str, *args) -> float:
    """phase, or DomainError naming it (name % args) when it left the float
    range, so no exponential or rounding is taken of it."""
    if not math.isfinite(phase):
        raise DomainError(("phase " + name + " leaves the float range") % args)
    return phase


def _digit_histogram(ns: NumberSystem, stat: DigitStatistic, lams: list,
                     filter: str = "all") -> list:
    """Exact row counts of the digit statistic's value v(n) over N_lam or
    its primes, {value tuple: count} over the occupied values in ascending
    order, one per lam of the nonempty list `lams`, in its order, repeats
    included.

    v(n) lies in the value box lam * [min, max] of the increments,
    coordinate by coordinate; the bins, at most min(box, Q^lam), are
    checked against the element cap, and nothing else reads the box.  Over
    all of N_lam the Q^lam rows are held to the element cap too, and over
    the primes every check of the prime pass is made (bulk.pass_bounds).
    Every lam is checked, in order, before any work.  Then one closed-form
    DP (_closed_histogram) or one streamed prime pass at the largest lam
    (bulk.prime_histogram, keyed by the distinct values it meets) yields
    every lam on its way.
    """
    if filter not in ("all", "primes"):
        raise UsageError("filter must be 'all' or 'primes'")
    if not lams:
        raise UsageError("no expansion length given")
    if filter == "primes":
        from . import bulk
    columns = list(zip(*(inc for row in stat.step for _, inc in row)))
    for lam in lams:
        if lam < 0:
            raise UsageError("expansion length must be nonnegative")
        bins = math.prod(lam * (max(c) - min(c)) + 1 for c in columns)
        if lam < bins.bit_length():  # else Q^lam >= 2^lam > bins
            bins = min(bins, ns.Q**lam)
        if bins > effective_cap(ENUM_CAP):
            raise CapExceeded("histogram of %d bins for lambda %d exceeds cap %d"
                              % (bins, lam, effective_cap(ENUM_CAP)))
        if filter == "primes":
            bulk.pass_bounds(ns, lam)
        else:
            check_power(ns.Q, lam, "table of %s elements", effective_cap(ENUM_CAP))
    ascending = sorted(set(lams))
    if filter == "primes":
        hists = bulk.prime_histogram(ns, stat, ascending)
    else:
        hists = _closed_histogram(stat, ascending)
    found = dict(zip(ascending, hists))
    return [found[lam] for lam in lams]


def _closed_histogram(stat: DigitStatistic, lams: list) -> list:
    """The row counts of _digit_histogram over all of N_lam, one per lam of
    the ascending list `lams`: one DP over (state, value) counts the digit
    strings of each length by the state they leave and their value, a
    state's digits that move alike counted as one move, and is read at each
    lam on its way to the largest.  With the one state of the digit sum it
    is the lam-fold convolution of the digit multiset (Gelfond's
    factorization); with the two of the pair count, the recursion on
    whether the last digit is zero (Mauduit-Rivat's transfer product)."""
    moves = [collections.Counter(row).items() for row in stat.step]
    counts = [{} for _ in stat.states]
    counts[stat.start] = {(0,) * stat.width: 1}
    hists = []
    for lam in range(lams[-1] + 1):
        if lam:
            step = [{} for _ in stat.states]
            for state, table in enumerate(counts):
                for value, n in table.items():
                    for (nxt, inc), k in moves[state]:
                        key = tuple(x + y for x, y in zip(value, inc))
                        step[nxt][key] = step[nxt].get(key, 0) + n * k
            counts = step
        if lam in lams:
            hists.append(dict(sorted(sum(map(collections.Counter, counts),
                                         collections.Counter()).items())))
    return hists


def weyl_sum(ns: NumberSystem, stat: DigitStatistic, phases, h: int, lams: list,
             filter: str = "all") -> list:
    """S = sum of e(h * value) over N_lambda or its primes, one WeylRow per
    lambda of `lams` and phase, lambda by lambda in the order of `lams`
    (repeats included) and each lambda's phases in order; value(n) = <w,
    v(n)> with the weights w of the phase (_digit_twist) and the value
    vector v(n) of the digit statistic.

    The rows are counted per value of the digit statistic exactly, every
    lambda from one DP or one prime pass (_digit_histogram); each phase then
    takes one exponential per occupied value, from the float expression a
    row would use, and adds count * e(h * value) exactly, rounding once.  So
    re_sum and im_sum are the math.fsum of the per-row summands, they do not
    depend on how the prime pass blocks the rows, and a row does not depend
    on the other phases or the other lambdas.
    """
    weights = [_digit_twist(stat, ns.poly, phase) for phase in phases]
    scale = TWO_PI * h
    rows = []
    for lam, hist in zip(lams, _digit_histogram(ns, stat, lams, filter)):
        counts = list(hist.values())
        count = sum(counts)
        for weight in weights:
            angles = [_finite(scale * sum(x * c for x, c in zip(v, weight)),
                              "2 pi h <w, v> at h = %d, w = %s, v = %s", h, weight, v)
                      for v in hist]
            z = [cmath.exp(complex(0.0, a)) for a in angles]
            total = complex(_exact_sum(counts, [w.real for w in z]),
                            _exact_sum(counts, [w.imag for w in z]))
            rows.append(WeylRow(lam, h, filter, count, total.real, total.imag,
                                float(abs(total) / count if count else 0.0)))
    return rows


def _exact_sum(counts: list, x) -> float:
    """sum(counts[i] * x[i]) rounded once: each float is num / 2^k, so the
    sum is one integer over the largest 2^k, and int / int rounds correctly."""
    ratios = [float(v).as_integer_ratio() for v in x]
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
    lam_max: int
    t_samples: int
    seed: int
    kappa: int
    mu_q: int
    big_m_q: int
    rows: tuple


def digit_norm_sum(ns: NumberSystem, phase) -> float:
    """sum over the digits b of ||phi(mu_q b)||^2, mu_q = P(1), with phi the
    linear form, exact where its tags allow (phi_exact), or a scalar times
    the digit in Z."""
    m = ns.poly
    mu_q = sum(m.coeffs)
    total = 0.0
    if isinstance(phase, LinearForm):
        for b in ns.digits:
            scaled = tuple(mu_q * t for t in b)
            exact = phi_exact(phase, m, scaled)
            if exact is not None:
                fracpart = exact - math.floor(exact)
                dist = float(min(fracpart, 1 - fracpart))
            else:
                v = _finite(phi_float(phase, m, scaled), "phi(mu_q b) at b = %s", b)
                dist = abs(v - round(v))
            total += dist * dist
        return total
    for v in _integer_digit_values(ns):
        x = _finite(float(phase) * mu_q * v, "alpha mu_q b at alpha = %r, b = %d", phase, v)
        total += (x - round(x)) ** 2
    return total


def rs_bound_slope(ns: NumberSystem, alpha: float) -> float | None:
    """Per-lambda decay slope (lambda/2) log2(2/(1+|cos pi alpha|)) / lambda
    of the binary pair-count twist by alpha, or None when ns is not binary
    (Q != 2), whose sums the binary bound does not bound."""
    if ns.Q != 2:
        return None
    return 0.5 * math.log2(2.0 / (1.0 + abs(math.cos(math.pi * alpha))))


def _vector_sum(vectors: list) -> list:
    """The elementwise sum of lists, left to right; one list is itself."""
    return functools.reduce(lambda x, y: [a + b for a, b in zip(x, y)], vectors)


def fourier_decay(ns: NumberSystem, stat: DigitStatistic, phase, lam_max: int, t_samples: int,
                  seed: int) -> FourierDecayReport:
    """Empirical decay of sup_t |S(t)| with S(t) = sum f(v) e(<t, v>).

    t is sampled uniformly in [0,1)^d (t = 0 is always forced in) and
    paired with v through the trace form; f twists by the digit statistic,
    f(n) = e(<w, v(n)>) with the weights of _digit_twist.  Reported
    gamma_emp = lambda - max_t log_Q|S(t)| is a lower bound for the true
    decay exponent, so only bounds of the form "every sample stays below
    ..." are sound to check against it.

    S is a product of per-position transfer matrices over the statistic's
    states (Gelfond; Mauduit-Rivat for the pair count): per t, one pass over
    the positions carries the sums over digit prefixes by the state they
    leave.  Every t_k is m_k / 2^53 and a twist <w, inc> is a dyadic
    rational, so the phase of digit b at position j, sum_k t_k Tr(q^(k+j) b)
    plus b's twist when it is the same from every state, is one integer mod
    2^E, exact at every lambda and rounded once.  A twist that depends on
    the state multiplies that state's sum over the digits that move alike.
    """
    if lam_max < 1:
        raise UsageError("lam_max must be at least 1")
    if t_samples < 0:
        raise UsageError("t_samples must be nonnegative")
    weights = _digit_twist(stat, ns.poly, phase)
    check_power(ns.Q, lam_max, "lam_max %d: a set of %%s elements" % lam_max, effective_cap(ENUM_CAP))
    d, m = ns.degree, ns.poly
    check_samples(t_samples, d, "t samples")
    draws = algebra.dyadic_samples(seed, t_samples * d)  # t_k = m_k / 2^53, row by row
    samples = [(0,) * d] + list(zip(*[draws] * d))  # d draws per sample, in stream order
    # <w, inc> = exact(inc) / 2^bits exactly, with bits >= 53, the bits of each t_k
    ratios = [w.as_integer_ratio() for w in weights]
    bits = max([algebra.SAMPLE_BITS] + [den.bit_length() - 1 for _, den in ratios])
    modulus = 1 << bits

    def exact(inc):
        return sum(num * (modulus // den) * x for (num, den), x in zip(ratios, inc))

    def factor(inc):  # e(<w, inc>)
        angle = TWO_PI * sum(x * c for x, c in zip(inc, weights))
        return cmath.exp(complex(0.0, _finite(angle, "2 pi <w, inc> at w = %s, inc = %s", weights, inc)))

    twist, classes = [], {}  # digits alike from every state: (next state, factor) per state
    for t in range(ns.Q):
        moves = [row[t] for row in stat.step]
        shared = {exact(inc) for _, inc in moves}
        twist.append(shared.pop() if len(shared) == 1 else 0)
        key = tuple((nxt, None if twist[t] or not exact(inc) else factor(inc)) for nxt, inc in moves)
        classes.setdefault(key, []).append(t)
    lift = 1 << (bits - algebra.SAMPLE_BITS)  # t_k = m_k * lift / 2^bits
    power = algebra.power_sums(m, 2 * d - 2)
    columns = list(zip(*samples))  # m_k over the samples, per k
    # the sums over the digit prefixes, by the state they leave
    ends = [[1.0 + 0j if s == stat.start else 0j] * len(samples) for s in range(len(stat.states))]
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
        into = [[] for _ in stat.states]  # the terms of the sum of each next state
        for key, digits in classes.items():
            total = [sum(f) for f in zip(*(factors[t] for t in digits))]
            for nxt in {n for n, _ in key}:
                terms = _vector_sum([ends[s] if f is None else [f * v for v in ends[s]]
                                     for s, (n, f) in enumerate(key) if n == nxt])
                into[nxt].append([a * f for a, f in zip(terms, total)])
        ends = [_vector_sum(terms) if terms else [0j] * len(samples) for terms in into]
        best = max(map(abs, _vector_sum(ends)))
        max_logq = math.log(max(best, LOG_FLOOR)) / log_q
        rows.append(FourierDecayRow(lam, len(samples), max_logq, lam - max_logq))
        shifted = [algebra.mul_by_q(m, x) for x in shifted]
    return FourierDecayReport(lam_max, t_samples, seed, 0, sum(m.coeffs),
                              sum(cf * cf for cf in m.coeffs), tuple(rows))
