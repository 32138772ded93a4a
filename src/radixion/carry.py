"""Carry propagation: automaton, carry constant, census, CNS bounds.

Adding a bounded perturbation to an element changes its high digits
only along paths of the carry automaton on B_st, the least set with
B_st + D + D inside D + q*B_st.  The decay exponent eta2 of that
influence is read off the spectral radius of the automaton's adjacency
matrix with the absorbing zero state removed.  The closure itself,
shared with the finiteness decision, lives in `numeration`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .algebra import MinimalPolynomial
from .caps import PAIR_CAP, effective_cap
from .errors import CapExceeded, ConvergenceError, UsageError
from .numeration import NumberSystem, _carry_closure

POWER_TOL = 1e-10
POWER_MAX_ITER = 10**5
ROOT_TOL = 1e-10


@dataclass(frozen=True)
class CarrySet:
    """States of the carry automaton, zero first, in BFS insertion order."""

    states: tuple


@dataclass(frozen=True)
class CarryAutomaton:
    carry_set: CarrySet
    next: tuple  # next[state][digit] = successor state index
    adjacency: np.ndarray  # A[s][s'] = #{digits a : s ->a s'}


@dataclass(frozen=True)
class CarryConstantReport:
    eta2: float
    spectral_radius: float
    automaton_size: int
    iterations: int


@dataclass(frozen=True)
class CnsSubsetGraph:
    """Digit-counting transducer on subsets of {0..d}, absorbing states removed."""

    states: tuple  # frozensets in ascending bitmask order
    weights: np.ndarray  # (n, n) int64 edge multiplicities

    def dominant_eigenvalue(self) -> float:
        rho, _ = dominant_eigenvalue(self.weights)
        return rho


@dataclass(frozen=True)
class CnsCollapsedGraph:
    alphas: tuple
    betas: tuple
    lam: float  # dominant root of the collapsed characteristic polynomial
    eta_bound: float


def build_carry_set(ns: NumberSystem) -> CarrySet:
    """Least fixed point of s -> (s + d1 + d2 - b)/q from {0}."""
    return CarrySet(_carry_closure(ns)[0])


def build_automaton(ns: NumberSystem) -> CarryAutomaton:
    """Transitions s -> strip(s + a), the zero-digit column of the closure."""
    states, pairs = _carry_closure(ns)
    zero = ns.digits.index(ns.zero)
    n = len(states)
    adjacency = np.zeros((n, n), dtype=np.int64)
    table = tuple(tuple(row[zero] for row in rows) for rows in pairs)
    for i, row in enumerate(table):
        for j in row:
            adjacency[i, j] += 1
    return CarryAutomaton(CarrySet(states), table, adjacency)


def transition(aut: CarryAutomaton, state: int, digit: int) -> int:
    return aut.next[state][digit]


def dominant_eigenvalue(matrix) -> tuple:
    """Spectral radius of a nonnegative matrix by L1 power iteration.

    Periodic graphs make the raw quotients oscillate around the radius,
    so convergence is declared on the geometric mean of two consecutive
    quotients (exact for a pure two-cycle).  Returns (radius, iterations).
    """
    a = np.asarray(matrix, dtype=np.float64)
    n = a.shape[0]
    if n == 0:
        return 0.0, 0
    v = np.full(n, 1.0 / n)
    prev_quotient = None
    prev_avg = None
    for it in range(1, POWER_MAX_ITER + 1):
        w = a @ v
        total = w.sum()
        if total == 0.0:
            return 0.0, it  # iterate fell into the kernel: nilpotent part only
        quotient = total  # v is L1-normalized
        v = w / total
        if prev_quotient is not None:
            avg = math.sqrt(prev_quotient * quotient)
            if prev_avg is not None and abs(avg - prev_avg) <= POWER_TOL * avg:
                return avg, it
            prev_avg = avg
        prev_quotient = quotient
    raise ConvergenceError(
        "power iteration did not converge in %d iterations" % POWER_MAX_ITER
    )


def carry_constant(ns: NumberSystem) -> CarryConstantReport:
    """eta2 = 1 - ln(rho)/ln(Q) from the automaton without its zero state."""
    aut = build_automaton(ns)
    restricted = aut.adjacency[1:, 1:]
    rho, iterations = dominant_eigenvalue(restricted)
    if rho == 0.0:
        eta2 = math.inf  # nilpotent: carries die out after finitely many steps
    else:
        eta2 = 1.0 - math.log(rho) / math.log(ns.Q)
    return CarryConstantReport(eta2, rho, len(aut.carry_set.states), iterations)


def carry_census(ns: NumberSystem, mu: int, nu: int, rho: int) -> int:
    """#{m in N_mu : some n in N_{nu-rho} changes the digits of m+n past nu}.

    Write m and n digit by digit, n padded with zeros.  After nu backward
    division steps m+n leaves res(m) + c, where c is the carry reached
    from 0 by s -> strip(s + a_j + b_j) over positions j < nu; so the
    digits past nu change exactly when c != 0.  A dynamic program over
    positions counts the prefixes a in D^nu for each set S of carries
    that the choices of b reach (b free below nu - rho, zero above).
    Every S holds 0 (from n = 0); the count is Q^(mu-nu) times the number
    of prefixes whose S holds another carry, the top digits being free.
    """
    if not 0 <= rho <= nu <= mu:
        raise UsageError("census needs 0 <= rho <= nu <= mu")
    pairs = ns.Q**mu * ns.Q ** (nu - rho)
    cap = effective_cap(PAIR_CAP)
    if pairs > cap:
        raise CapExceeded("census over %d pairs exceeds cap %d" % (pairs, cap))
    _, table = _carry_closure(ns)
    zero = ns.digits.index(ns.zero)
    # successor masks per state and digit a: over every b, or b = 0 only
    free = [[sum({1 << j for j in row}) for row in rows] for rows in table]
    pinned = [[1 << row[zero] for row in rows] for rows in table]
    counts = {1: 1}  # bitmask of carry states -> number of prefixes
    for j in range(nu):
        step = free if j < nu - rho else pinned
        nxt = {}
        for mask, count in counts.items():
            for a in range(ns.Q):
                succ = 0
                rest = mask
                while rest:
                    low = rest & -rest
                    succ |= step[low.bit_length() - 1][a]
                    rest ^= low
                nxt[succ] = nxt.get(succ, 0) + count
        counts = nxt
    changed = sum(count for mask, count in counts.items() if mask != 1)
    return ns.Q ** (mu - nu) * changed


def _eta(c: tuple, subset_mask: int, d: int) -> int:
    """Alternating sum of coefficients over the subset, ascending indices."""
    total = 0
    sign = 1
    for i in range(d + 1):
        if subset_mask >> i & 1:
            total += sign * c[i]
            sign = -sign
    return total


def cns_subset_graph(m: MinimalPolynomial) -> CnsSubsetGraph:
    """Digit-counting transducer over subsets I of {0..d}.

    From state I, clamp(c_0 - eta(I), 0, Q) of the Q digits move to the
    shifted subset I+1 and the rest to (I+1) xor {0,1}; the absorbing
    states (empty set and {0}) are removed together with edges into them.
    """
    c = m.coeffs
    d = m.degree
    big_q = m.Q
    if any(c[j + 1] >= c[j] for j in range(d)):
        warnings.warn(
            "coefficient condition c_d < ... < c_0 violated; "
            "transducer weights may be negative",
            stacklevel=2,
        )
    full = (1 << (d + 1)) - 1
    masks = [mask for mask in range(2, full + 1)]
    position = {mask: i for i, mask in enumerate(masks)}
    n = len(masks)
    weights = np.zeros((n, n), dtype=np.int64)
    for mask in masks:
        k1 = min(max(c[0] - _eta(c, mask, d), 0), big_q)
        j1 = (mask << 1) & full
        j2 = j1 ^ 0b11
        for target, weight in ((j1, k1), (j2, big_q - k1)):
            if weight and target not in (0, 1):  # skip absorbing states
                weights[position[mask], position[target]] += weight
    states = tuple(
        frozenset(i for i in range(d + 1) if mask >> i & 1) for mask in masks
    )
    return CnsSubsetGraph(states, weights)


def cns_collapsed(m: MinimalPolynomial) -> CnsCollapsedGraph:
    """Two-arc collapse of the subset transducer with its closed-form weights.

    alpha_j = 2^{d-j+1}(c_0 - c_j) + 2^{d-j} c_{j+1} and
    beta_j = 2^{d-j+1} c_j - 2^{d-j} c_{j+1} (with c_{d+1} = 0); the
    dominant root of x^d - sum_k alpha_1..alpha_{k-1} beta_k x^{d-k}
    bounds the digit counts and yields eta_bound = 1 - ln(lambda)/ln(c_0).
    """
    c = list(m.coeffs) + [0]  # c_{d+1} = 0
    d = m.degree
    alphas = tuple(
        (1 << (d - j + 1)) * (c[0] - c[j]) + (1 << (d - j)) * c[j + 1]
        for j in range(1, d + 1)
    )
    betas = tuple(
        (1 << (d - j + 1)) * c[j] - (1 << (d - j)) * c[j + 1]
        for j in range(1, d + 1)
    )
    weights = []
    prefix = 1
    for k in range(1, d + 1):
        weights.append(prefix * betas[k - 1])
        prefix *= alphas[k - 1]
    lam = _perron_root(weights)
    if lam == 0.0:
        eta_bound = math.inf
    else:
        eta_bound = 1.0 - math.log(lam) / math.log(m.Q)
    return CnsCollapsedGraph(alphas, betas, lam, eta_bound)


def _perron_root(weights) -> float:
    """Positive dominant root of x^d - sum_k w_k x^{d-k}, w_k >= 0."""
    d = len(weights)
    if all(w == 0 for w in weights):
        return 0.0

    def value_and_slope(x: float):
        p, dp = 1.0, 0.0
        for w in weights:
            dp = dp * x + p
            p = p * x - float(w)
        return p, dp

    lo, hi = 0.0, max(1.0, float(sum(weights)))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if value_and_slope(mid)[0] < 0.0:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    for _ in range(100):
        p, dp = value_and_slope(x)
        if dp == 0.0:
            break
        step = p / dp
        x -= step
        if abs(step) <= ROOT_TOL * abs(x):
            break
    return x


def gaussian_family(m_value: int) -> MinimalPolynomial:
    """Minimal polynomial x^2 + 2mx + (m^2+1) of the base -m + i."""
    if m_value < 1:
        raise UsageError("family parameter must be a positive integer")
    return MinimalPolynomial((m_value**2 + 1, 2 * m_value, 1))
