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
from collections import Counter
from typing import NamedTuple

from .algebra import MinimalPolynomial
from .caps import CARRY_SET_CAP, PAIR_CAP, check_power, effective_cap
from .errors import CapExceeded, ConvergenceError, DomainError, UsageError
from .numeration import NumberSystem, _carry_closure

POWER_MAX_ITER = 10**5
BRACKET_WIDTH = 4e-16  # relative width at which a Collatz-Wielandt bracket is closed
STALL_WIDTH = 2.0**-48  # relative width within which a stalled bracket is at float resolution


class CarrySet(NamedTuple):
    """States of the carry automaton, zero first, in BFS insertion order."""

    states: tuple


class CarryAutomaton(NamedTuple):
    carry_set: CarrySet
    next: tuple  # next[state][digit] = successor state index


class CarryConstantReport(NamedTuple):
    eta2: float
    spectral_radius: float
    automaton_size: int
    iterations: int


class CnsSubsetGraph(NamedTuple):
    """Digit-counting transducer on subsets of {0..d}, absorbing states removed."""

    states: tuple  # frozensets in ascending bitmask order
    successors: tuple  # successors[i] = ((j, edge multiplicity), ...)

    def dominant_eigenvalue(self) -> float:
        return perron_radius(self.successors)[0]


class CnsCollapsedGraph(NamedTuple):
    alphas: tuple
    betas: tuple
    lam: float  # dominant root of the collapsed characteristic polynomial
    eta_bound: float


def build_automaton(ns: NumberSystem) -> CarryAutomaton:
    """Transitions s -> strip(s + a), the zero-digit column of the closure."""
    states, pairs = _carry_closure(ns)
    zero = ns.digits.index(ns.zero)
    table = tuple(tuple(row[zero] for row in rows) for rows in pairs)
    return CarryAutomaton(CarrySet(states), table)


def _components(successors) -> list:
    """Strongly connected components of the graph, by Tarjan's search
    with an explicit stack; each component is a list of states."""
    n = len(successors)
    index = [-1] * n  # order of first visit; n once the state's component is out
    low = [0] * n
    stack, components = [], []
    visited = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        work = [(root, iter(successors[root]))]
        while work:
            v, edges = work[-1]
            if index[v] < 0:  # first visit
                index[v] = low[v] = visited
                visited += 1
                stack.append(v)
            for j, _ in edges:
                if index[j] < 0:
                    work.append((j, iter(successors[j])))
                    break
                low[v] = min(low[v], index[j])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    component = stack[stack.index(v):]
                    del stack[-len(component):]
                    for w in component:
                        index[w] = n
                    components.append(component)
    return components


def perron_radius(successors) -> tuple:
    """Spectral radius of a nonnegative matrix given by weighted successor
    lists, successors[i] = ((j, A[i][j]), ...) with each A[i][j] > 0.

    The radius is the largest over the strongly connected components.  On
    each component with an edge, M = A + I is primitive, so iterating it
    on a positive v closes the Collatz-Wielandt bracket
    min (Mv)_i/v_i <= rho(M) <= max (Mv)_i/v_i, and rho(A) = rho(M) - 1.
    Each (Mv)_i is summed exactly rounded (fsum), so that rounding does
    not hold the bracket open.  A component closes when the bracket's
    relative width is at most BRACKET_WIDTH; its radius is the midpoint
    minus 1.  In exact arithmetic the bracket narrows at least once in
    every n - 1 iterations on a component of n states, as M^(n-1) > 0.  So
    a bracket that has not narrowed in n iterations has stopped at the
    rounding of its ratios: it is closed all the same if its relative width
    is at most STALL_WIDTH (the ratios carry a few roundings each, at 2^-53
    apiece), and otherwise ConvergenceError is raised at once.  Returns
    (radius, iterations of the component with the largest radius); a graph
    without cycles has radius 0 after 0 iterations.
    """
    best = (0.0, 0)
    for component in _components(successors):
        local = {v: k for k, v in enumerate(component)}
        rows = [[(local[j], a) for j, a in successors[v] if j in local] for v in component]
        if not rows[0]:
            continue  # a lone state without a loop
        v = [1.0] * len(rows)
        narrowest, narrowed = math.inf, 0
        for iterations in range(1, POWER_MAX_ITER + 1):
            w = [math.fsum([x, *(a * v[j] for j, a in row)]) for x, row in zip(v, rows)]
            ratios = [y / x for x, y in zip(v, w)]
            lo, hi = min(ratios), max(ratios)
            if hi - lo <= BRACKET_WIDTH * hi:
                break
            if hi - lo < narrowest:
                narrowest, narrowed = hi - lo, iterations
            elif iterations - narrowed >= len(rows):
                if hi - lo <= STALL_WIDTH * hi:
                    break
                raise ConvergenceError(
                    "Collatz-Wielandt bracket [%r, %r] stopped narrowing after %d iterations"
                    % (lo - 1.0, hi - 1.0, iterations)
                )
            top = max(w)
            v = [y / top for y in w]
        else:
            raise ConvergenceError(
                "Collatz-Wielandt bracket [%r, %r] still open after %d iterations"
                % (lo - 1.0, hi - 1.0, POWER_MAX_ITER)
            )
        radius = 0.5 * (lo + hi) - 1.0
        if radius > best[0]:
            best = (radius, iterations)
    return best


def carry_constant(ns: NumberSystem) -> CarryConstantReport:
    """eta2 = 1 - ln(rho)/ln(Q) from the automaton without its zero state."""
    aut = build_automaton(ns)
    successors = [Counter(j - 1 for j in row if j).items() for row in aut.next[1:]]
    rho, iterations = perron_radius(successors)
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
    check_power(ns.Q, mu + nu - rho, "census over %s pairs", effective_cap(PAIR_CAP))
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
    if full - 1 > effective_cap(CARRY_SET_CAP):
        raise CapExceeded("subset graph of %d states exceeds cap %d"
                          % (full - 1, effective_cap(CARRY_SET_CAP)))
    masks = [mask for mask in range(2, full + 1)]
    position = {mask: i for i, mask in enumerate(masks)}
    successors = []
    for mask in masks:
        k1 = min(max(c[0] - _eta(c, mask, d), 0), big_q)
        j1 = (mask << 1) & full
        j2 = j1 ^ 0b11
        successors.append(tuple(
            (position[target], weight)
            for target, weight in ((j1, k1), (j2, big_q - k1))
            if weight and target not in (0, 1)  # skip absorbing states
        ))
    states = tuple(
        frozenset(i for i in range(d + 1) if mask >> i & 1) for mask in masks
    )
    return CnsSubsetGraph(states, tuple(successors))


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
    for k, w in enumerate(weights, 1):
        if w < 0:
            raise DomainError(
                "collapsed weight w_%d = %d of %s is negative; its Perron root "
                "needs every weight >= 0" % (k, w, m)
            )
    # companion matrix of x^d - sum_k w_k x^{d-k}: w in the first row,
    # ones below the diagonal
    companion = [[(k, w) for k, w in enumerate(weights) if w]]
    companion += [[(i - 1, 1)] for i in range(1, d)]
    lam = perron_radius(companion)[0]
    if lam == 0.0:
        eta_bound = math.inf
    else:
        eta_bound = 1.0 - math.log(lam) / math.log(m.Q)
    return CnsCollapsedGraph(alphas, betas, lam, eta_bound)


def gaussian_family(m_value: int) -> MinimalPolynomial:
    """Minimal polynomial x^2 + 2mx + (m^2+1) of the base -m + i."""
    if m_value < 1:
        raise UsageError("family parameter must be a positive integer")
    return MinimalPolynomial((m_value**2 + 1, 2 * m_value, 1))
