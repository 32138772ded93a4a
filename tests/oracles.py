"""Reference routes that the streamed fast paths are checked against."""

from __future__ import annotations

import collections
import itertools
import math
from fractions import Fraction

import numpy as np

from radixion import algebra, analysis, bulk, numeration, tile
from radixion.caps import FNS_BOX_CAP, effective_cap
from radixion.errors import CapExceeded, ConvergenceError, DomainError, UsageError

# the digit statistic of each --fn name
STATISTICS = {"sod": numeration.digit_sum, "rs": numeration.pair_count}


def q_power_matrix(m, k):
    """Exact int64 matrix of multiplication by q^k over the power basis,
    refused with CapExceeded when an entry reaches 2^60."""
    acc = algebra.mult_matrix(m, algebra.q_power(m, k))
    if any(abs(v) >= bulk.INT64_GUARD for row in acc for v in row):
        raise CapExceeded("power matrix q^%d overflows the int64 budget" % k)
    return np.array(acc, dtype=np.int64)


def whole_table(ns, lam):
    """All rows of N_lam as one (Q^lam, d) int64 coordinate array, in
    enumeration order, by a meet-in-the-middle merge: row h * |low| + l is
    row l of the table of the bottom lam - lam // 2 positions plus row h of
    the table of the top lam // 2 times the int64 power matrix of q^(lam -
    lam // 2), one outer sum per coordinate.  No digit layer, no split and
    no streaming; it checks no cap and no int64 range.  The reference for
    bulk.layer_table and the split of bulk.split_tables; a digit statistic
    over the same rows is automaton_table's."""
    if lam <= 1:  # N_0, the empty string, or N_1, the digits
        return np.array(ns.digits if lam else [(0,) * ns.degree], dtype=np.int64)
    low = whole_table(ns, lam - lam // 2)
    offsets = whole_table(ns, lam // 2) @ q_power_matrix(ns.poly, lam - lam // 2).T
    coords = np.empty((len(offsets), len(low), ns.degree), np.int64)
    for k in range(ns.degree):  # row h * len(low) + l is offsets[h] + low[l]
        np.add.outer(offsets[:, k], low[:, k], out=coords[:, :, k])
    return coords.reshape(-1, ns.degree)


def count_rows(ns, lam):
    """(rows, distinct elements) of N_lam, counted: each row of the split
    (bulk.split_tables) is encoded as one key over the box of its exact
    coordinate ranges (bulk.box_places), and the keys sorted.  The key is
    linear, so the key of l + offsets[h] is that of the low row l plus that
    of the offset, the key of the row offsets[h] minus that of the zero
    row; every key and addend is below the box's span.  The reference for
    the count of `expand --enumerate`, Q^lam rows all distinct, which it
    takes from the theorem that N_lam is a complete residue system mod
    q^lam (Katai & Szabo 1975; Kovacs 1981)."""
    lo, hi = bulk.coordinate_ranges(ns, lam)
    place, span = bulk.box_places(lo, hi)
    if span >= bulk.INT64_GUARD:
        raise CapExceeded("row keys of N_%d span %d values, beyond the int64 budget" % (lam, span))
    low, offsets = bulk.split_tables(ns, lam)
    shifts = [sum(v * p for v, p in zip(row, place)) for row in offsets.tolist()]  # exact
    dtype = bulk._int_type(span)
    low_keys = ((low - lo) @ place).astype(dtype)
    keys = np.add.outer(np.array(shifts, dtype), low_keys).ravel()
    keys.sort()
    return len(keys), int(np.count_nonzero(keys[1:] != keys[:-1])) + 1


def automaton_value(stat, indices, state=None):
    """(exit state, value) of a digit string (indices, lowest first) under
    the digit statistic `stat`, one step per digit from `state` (default its
    start state).  The reference for the statistic's own step table."""
    state, value = stat.start if state is None else state, (0,) * stat.width
    for t in indices:
        state, inc = stat.step[state][t]
        value = tuple(a + b for a, b in zip(value, inc))
    return state, value


def automaton_table(stat, Q, lam, state):
    """(exits, values), lists over the rows of N_lam of automaton_value from
    `state` on row i's digit indices (i // Q^j) % Q, lowest first, one row at
    a time in Python integers: the reference for bulk.statistic_rows, and,
    over the split, for the rule by which bulk.prime_histogram adds a low
    row's value to its high row's."""
    runs = [automaton_value(stat, [i // Q**j % Q for j in range(lam)], state)
            for i in range(Q**lam)]
    return [e for e, _ in runs], [v for _, v in runs]


def sum_of_digits(ns, x):
    """s(x), the sum of the digit values of x as an element of Z[q], added
    up over its own expansion: the reference for numeration.digit_sum, the
    statistic whose value the sum_of_digits field of `expand --element`
    reads (DigitStatistic.read) and the Thue-Morse sums count."""
    acc = ns.zero
    for t in numeration.expand(ns, x).digit_indices:
        acc = algebra.add(ns.poly, acc, ns.digits[t])
    return acc


def rudin_shapiro(ns, x):
    """r(x), the number of adjacent digit pairs of x with both digits
    nonzero, counted over its own expansion: the reference for
    numeration.pair_count, the statistic whose value the adjacent_pairs
    field of `expand --element` reads and the Rudin-Shapiro sums count."""
    idx = numeration.expand(ns, x).digit_indices
    nonzero = ns.digit_is_nonzero
    return sum(1 for a, b in zip(idx, idx[1:]) if nonzero[a] and nonzero[b])


def digit_slice(ns, x, nu, mu):
    """The value of the digit window [nu, mu) of x, shifted down by q^nu,
    by mu backward divisions of x, nu to drop and mu - nu to keep; with mu =
    math.inf, the element left after the nu.  The reference for the slice
    field of `expand --element`, which evaluates a window of its one
    expansion, and for the strips of carry.build_automaton."""
    if nu < 0 or mu < nu:
        raise UsageError("digit window needs 0 <= nu <= mu")
    algebra._check_arity(ns.poly, x)
    n = tuple(x)
    n = numeration.strip(ns, n, nu)
    if mu == math.inf:
        return n
    indices = []
    for _ in range(int(mu) - nu):
        indices.append(ns.residue_digit[n[0] % ns.Q])
        n = numeration.strip(ns, n)
    return numeration.evaluate(ns, numeration.Expansion(tuple(indices)))


def is_prime_element(ns, n):
    """The PrimeVerdict of one element from its own norm, analysis.norm_verdict
    of algebra.norm: the reference for the prime masks of bulk.prime_blocks,
    which read the norms of a whole table."""
    return analysis.norm_verdict(ns.poly, algebra.norm(ns.poly, tuple(n)))


def trace_matrix(m, size=None):
    """The symmetric table T[k][j] = Tr(q^(k+j)), size d by default: the
    reference for analysis.phase_weights, whose weights are the trace form
    times this table, and for the phases of analysis.fourier_decay."""
    n = m.degree if size is None else size
    p = algebra.power_sums(m, 2 * n - 2)
    return tuple(tuple(p[k + j] for j in range(n)) for k in range(n))


def scalar_values(ns, fn, rows):
    """The value vector of fn at each element of `rows`, from its own
    expansion: s(n) by sum_of_digits for 'sod', (r(n),) by rudin_shapiro
    for 'rs'."""
    if fn == "sod":
        return [sum_of_digits(ns, n) for n in rows]
    return [(rudin_shapiro(ns, n),) for n in rows]


def per_row_oracle(ns, lam):
    """(rows, primes, s, r) over enumerate_N(ns, lam), scalar per row:
    is_prime_element, and the value vectors of 'sod' and 'rs'
    (scalar_values), each on the row's own expansion.  The reference for
    the prime pass of bulk: prime_rows and prime_histogram of both
    statistics."""
    rows = list(numeration.enumerate_N(ns, lam))
    prime = [is_prime_element(ns, n).kind in analysis.PRIME_KINDS for n in rows]
    return rows, prime, scalar_values(ns, "sod", rows), scalar_values(ns, "rs", rows)


def trial_division_is_prime(n):
    """Primality of n by trial division, unbounded: the reference for
    analysis._is_prime, trial division by the primes to 37 and then strong
    probable-prime tests to twelve bases."""
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


def strong_probable_prime(n, a):
    """Whether odd n > 2 passes the strong probable-prime test to base a,
    one square at a time: the reference for the test that analysis._is_prime
    runs per base, and the witness that its SPRP_LIMIT passes all twelve."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2**i, n) == n - 1 for i in range(1, s))


def poly_has_root_mod(coeffs, ell):
    """Whether the polynomial of `coeffs` (c_0 first) has a root mod ell, by
    scanning all residues: the reference for analysis._is_inert, Euler's
    criterion on the discriminant."""
    for r in range(ell):
        acc = 0
        for cf in reversed(coeffs):
            acc = (acc * r + cf) % ell
        if acc == 0:
            return True
    return False


PRIME, INERT = 1, 2


def numpy_norm_bound(ns, lam):
    """bulk._norm_bound by numpy's complex exp and multiply: the lam x Q
    digit terms sigma(q^j b) of each embedding sigma, times the
    NORM_DIRECTIONS unit directions, the best real part per position summed
    into the support per direction.  The reference for the fast path, which
    sums the same supports in Python complex arithmetic."""
    k = bulk.NORM_DIRECTIONS
    directions = np.exp(-2j * math.pi * np.arange(k) / k)
    bound = 1.0
    for z in ns.poly.embeddings().roots:
        terms = np.array([[algebra._poly_eval(b, z) * z**j for b in ns.digits]
                          for j in range(lam)])
        support = (terms.reshape(lam, ns.Q, 1) * directions).real.max(axis=1).sum(axis=0)
        bound *= max(float(support.max()), 0.0) / math.cos(math.pi / k)
    return int(bound * (1 + 1e-9)) + 1


def uint8_norm_sieve(top, coeffs=None):
    """One byte per integer 0..top: PRIME at the primes, INERT at ell^2 for
    each prime ell at which the quadratic of `coeffs` has no root
    (poly_has_root_mod), else 0.  An unsegmented sieve over every integer:
    the reference for the odd bits of bulk._norm_bits and for the even
    norms 2 and 4, which bulk.prime_mask decides with no bit."""
    sieve = np.ones(top + 1, dtype=np.uint8)
    sieve[: min(2, top + 1)] = 0
    for p in range(2, math.isqrt(top) + 1):
        if sieve[p]:
            sieve[p * p :: p] = 0
    if coeffs is not None:
        for ell in np.flatnonzero(sieve[: math.isqrt(top) + 1]).tolist():
            if not poly_has_root_mod(coeffs, ell):
                sieve[ell * ell] = INERT
    return sieve


def abs_norms(ns, coords):
    """|N(n)| per row of int64 coordinates in Python integers, a^2 - c1 ab
    + c0 b^2 in degree 2: the norms of oracle_mask, with no split and no
    fixed width, against those of bulk._split_norms."""
    a = coords[:, 0].astype(object)
    if ns.degree == 1:
        return np.abs(a)
    b, (c0, c1) = coords[:, 1].astype(object), ns.poly.coeffs[:2]
    return np.abs(a * a - c1 * a * b + c0 * b * b)


def oracle_mask(ns, coords):
    """Prime rows by one lookup of |N| per row (abs_norms) in the uint8
    sieve: the reference for the masks of bulk.prime_blocks, the bits of
    its norm table read by bulk.prime_mask."""
    norms = abs_norms(ns, coords).astype(np.int64)
    sieve = uint8_norm_sieve(int(norms.max(initial=0)), ns.poly.coeffs if ns.degree == 2 else None)
    return sieve[norms] != 0


def row_values(ns, fn, lam):
    """(Q^lam, width) int64: the value vector of fn on each row of N_lam, by
    its definition on the row's digit string, row i holding digit index
    (i // Q^j) % Q in position j: the sum of its digits for 'sod', its count
    of adjacent nonzero digits for 'rs'.  Vectorized over the rows, so it
    reaches tables too large for scalar_values; the automaton test checks
    the two against each other."""
    index = np.arange(ns.Q**lam, dtype=np.int64)[:, None]
    strings = index // ns.Q ** np.arange(lam, dtype=np.int64) % ns.Q
    if fn == "sod":
        return np.array(ns.digits, dtype=np.int64)[strings].sum(axis=1)
    nonzero = np.array(ns.digit_is_nonzero)[strings]
    return (nonzero[:, 1:] & nonzero[:, :-1]).sum(axis=1, dtype=np.int64)[:, None]


def enumerated_histogram(ns, fn, lam):
    """Counter of the value vector of fn over every row of N_lam (row_values),
    the reference for analysis._closed_histogram."""
    return collections.Counter(map(tuple, row_values(ns, fn, lam).tolist()))


def scalar_histogram(ns, fn, lam, filter):
    """Counter of the value vector of fn over N_lam or its primes, one
    expansion per element (scalar_values) and is_prime_element:
    the reference for analysis._digit_histogram, both filters."""
    rows = list(numeration.enumerate_N(ns, lam))
    if filter == "primes":
        rows = [n for n in rows if is_prime_element(ns, n).kind in analysis.PRIME_KINDS]
    return collections.Counter(scalar_values(ns, fn, rows))


def _phase_values(ns, fn, phase, lam):
    """Real phase value per row of N_lam, <w, v(n)> with the weights of
    analysis._digit_twist and the row's value vector (row_values), summed
    in Python floats as one row of analysis.weyl_sum would be; e(h * value)
    is the summand."""
    weights = analysis._digit_twist(STATISTICS[fn](ns), ns.poly, phase)
    return np.array([sum(x * c for x, c in zip(v, weights))
                     for v in row_values(ns, fn, lam).tolist()], dtype=np.float64)


def weyl_table_oracle(ns, fn, phase, h, lam, filter):
    """The summands of analysis.weyl_sum, one per row of N_lam or of its
    primes by is_prime_element: the reference for its exact sums."""
    z = np.exp((analysis.TWO_PI * h) * 1j * _phase_values(ns, fn, phase, lam))
    if filter == "primes":
        rows = whole_table(ns, lam).tolist()
        z = z[[is_prime_element(ns, n).kind in analysis.PRIME_KINDS for n in rows]]
    return z


def fourier_table_oracle(ns, fn, phase, lam_max, t_samples, seed):
    """max_t |S_lam(t)| for lam = 1..lam_max, summed over every row of N_lam,
    at t = 0 and the t_samples draws t = m / 2^53 of algebra.dyadic_samples:
    the reference for the transfer product of analysis.fourier_decay."""
    d = ns.degree
    draws = np.array(list(algebra.dyadic_samples(seed, t_samples * d)), dtype=np.float64)
    t_rows = np.concatenate([np.zeros((1, d)), draws.reshape(t_samples, d) / 2.0**53], axis=0)
    weights = t_rows @ np.array(trace_matrix(ns.poly), dtype=np.float64)
    best = []
    for lam in range(1, lam_max + 1):
        coords = whole_table(ns, lam)
        angles = coords.astype(np.float64) @ weights.T + _phase_values(ns, fn, phase, lam)[:, None]
        best.append(float(np.abs(np.exp(2j * math.pi * angles).sum(axis=0)).max()))
    return best


def int64_tables(ns):
    """ns.strip_tables in the form int64 columns index."""
    return [t if t is None else np.array(t, np.int64) for t in ns.strip_tables]


def stripped_to_zero(ns, raster):
    """The count of the raster's cells whose centre c has rint(q^k c) in
    N_k, k the raster's depth, by membership as k strips to 0: every
    rounded centre within the exact coordinate box of N_k is stripped k
    times by numeration.strip, one strip per call, and counted when it
    reaches 0.  One pass over all the centres, no blocks and no table of
    N_m, with the float sums of tile.lattice_area term for term: the
    reference for tile.lattice_area, whose area is this count times the
    cell area."""
    res, k, d = raster.resolution, raster.depth, raster.occupancy.ndim
    power = q_power_matrix(ns.poly, k).astype(np.float64)
    lo = np.array([b[0] for b in raster.bbox])
    cell = (np.array([b[1] for b in raster.bbox]) - lo) / res
    terms = [np.outer(lo[a] + (np.arange(res) + 0.5) * cell[a], power[:, a]) for a in range(d)]
    tail = np.zeros((1, d))
    for t in terms[1:]:
        tail = (tail[:, None, :] + t[None, :, :]).reshape(-1, d)
    cols = [np.rint(terms[0][:, i, None] + tail[:, i]).astype(np.int64).ravel() for i in range(d)]
    box_lo, box_hi = bulk.coordinate_ranges(ns, k)
    inside = np.logical_and.reduce([(c >= a) & (c <= b) for c, a, b in zip(cols, box_lo, box_hi)])
    cols = [col[inside] for col in cols]
    tables = int64_tables(ns)
    for _ in range(k):
        cols = numeration.strip(ns, cols, tables=tables)
    return int(np.count_nonzero(~np.any(cols, axis=0)))


def divide_exact_by_q(m, x):
    """x/q when q divides x in Z[q], else None, through the cofactor u with
    q*u = c_0: x/q = (x*u)/c_0, which lies in Z[q] exactly when every
    coordinate of x*u is divisible by c_0.  The division behind trial_strip;
    its own tests check it against multiplication by q."""
    w = algebra.mul(m, x, algebra.u_element(m))
    c0 = m.coeffs[0]
    if any(c % c0 for c in w):
        return None
    return tuple(c // c0 for c in w)


def trial_strip(ns, n):
    """(t, (n - b_t)/q), backward division by trying every digit b_t with
    divide_exact_by_q: the reference for numeration.strip, which finds the
    digit from the residue of n mod q instead."""
    for t, b in enumerate(ns.digits):
        quotient = divide_exact_by_q(ns.poly, algebra.sub(ns.poly, n, b))
        if quotient is not None:
            return t, quotient
    raise AssertionError("no digit divides")


FNS_BOX_SLACK = 1.5  # coordinate box inflation over the attractor ball


def box_fns_oracle(ns):
    """Decide whether every element of Z[q] has a finite expansion, by
    brute force: finiteness only needs checking on the attractor ball of
    the backward division map, so a covering coordinate box is enumerated
    and each orbit followed until it reaches zero, a state already known
    to be finite, or repeats (yielding a witness cycle).  The reference for
    numeration.is_fns, which follows only 1, -1 and the carry closure's
    states (Brunotte's criterion)."""
    bounds = [int(math.floor(FNS_BOX_SLACK * b)) for b in tile.coordinate_bound(ns)]
    total = 1
    for b in bounds:
        total *= 2 * b + 1
    if total > effective_cap(FNS_BOX_CAP):
        raise CapExceeded(
            "finiteness search box holds %d candidates, cap is %d"
            % (total, effective_cap(FNS_BOX_CAP))
        )
    known_finite = {ns.zero}
    examined = 0
    for cand in itertools.product(*[range(-b, b + 1) for b in bounds]):
        examined += 1
        position = {}
        order = []
        n = cand
        while n not in known_finite:
            if n in position:
                cycle = tuple(order[position[n]:])
                return numeration.FnsVerdict(False, cycle, examined)
            position[n] = len(order)
            order.append(n)
            n = numeration.strip(ns, n)
        known_finite.update(order)
    return numeration.FnsVerdict(True, None, examined)


def full_grid_inner_radius(raster):
    """The inner radius from a float grid of every cell's squared distance:
    the reference for tile._inner_radius, which takes each row's empty cell
    nearest the origin, one slab of rows at a time."""
    occ = raster.occupancy
    d, res = occ.ndim, raster.resolution
    lo, hi = np.array(raster.bbox).T
    edge = min(min(-lo[k], hi[k]) for k in range(d))
    if edge <= 0.0:
        return 0.0
    cell = (hi - lo) / res
    dist2 = np.zeros((1,) * d)
    for k in range(d):
        starts = lo[k] + np.arange(res) * cell[k]
        dk = np.maximum(np.maximum(starts, -(starts + cell[k])), 0.0)
        shape = [1] * d
        shape[k] = res
        dist2 = dist2 + (dk * dk).reshape(shape)
    dist2[occ] = math.inf
    return float(min(math.sqrt(float(dist2.min())), edge))


def padded_boundary_count(raster):
    """Occupied cells with an unoccupied 2d-neighbour, from the whole grid
    padded by one empty cell per side and ANDed with its 2d shifts: the
    reference for tile.boundary_cell_count, which works in slabs of rows."""
    occ = raster.occupancy
    padded = np.pad(occ, 1, constant_values=False)
    core = tuple(slice(1, -1) for _ in range(occ.ndim))
    interior = occ.copy()
    for k in range(occ.ndim):
        for step in (1, -1):
            shifted = list(core)
            shifted[k] = slice(1 + step, padded.shape[k] - 1 + step)
            interior &= padded[tuple(shifted)]
    return int(np.count_nonzero(occ)) - int(np.count_nonzero(interior))


def lapack_roots(coeffs):
    """The roots of the base polynomial c_0 + ... + x^d from LAPACK: the
    eigenvalues of its companion matrix (np.roots), each polished by
    Newton's iteration, then checked and sorted as algebra._embedding_roots
    checks and sorts its own.  The reference for that route's Aberth
    iteration in Python complex arithmetic."""
    d = len(coeffs) - 1
    polished = [algebra._newton(coeffs, complex(z)) for z in np.roots(coeffs[::-1])]
    for z in polished:
        if abs(algebra._poly_eval(coeffs, z)) > algebra.RESIDUAL_TOL * (1.0 + abs(z)) ** d:
            raise ConvergenceError("root refinement stalled at %s" % z)
    product = math.prod(abs(z) for z in polished)
    if abs(product - abs(coeffs[0])) > algebra.PRODUCT_TOL * abs(coeffs[0]):
        raise ConvergenceError("root moduli multiply to %.12g" % product)
    if any(abs(z) <= 1.0 for z in polished):
        raise DomainError("base is not expanding: some conjugate has modulus <= 1")
    return tuple(sorted(polished, key=lambda z: (z.real, abs(z.imag), z.imag)))


def rational_gcd(p, q):
    """The monic gcd of two nonzero polynomials with integer coefficients,
    lowest first, by Euclid's algorithm over Fraction coefficients: the
    reference for algebra._derivative_gcd, which stays in the integers by
    primitive pseudo-remainders."""
    a, b = [Fraction(c) for c in p], [Fraction(c) for c in q]
    while any(b):
        while b[-1] == 0:
            b.pop()
        while len(a) >= len(b) and any(a):
            factor, shift = a[-1] / b[-1], len(a) - len(b)
            for i, y in enumerate(b):
                a[i + shift] -= factor * y
            a.pop()
        a, b = b, a or [Fraction(0)]
    return [int(c / a[-1]) for c in a]


def lapack_coordinate_bound(ns):
    """sum_p |V^-1[k, p]| r_p with V^-1 from np.linalg.inv of the
    Vandermonde matrix of the embeddings: the reference for
    tile.coordinate_bound, which takes V^-1 from the Lagrange basis."""
    radii = numeration.embedding_radii(ns)
    roots = ns.poly.embeddings().roots
    d = ns.degree
    vinv = np.linalg.inv(np.array([[z**k for k in range(d)] for z in roots]))
    return [sum(abs(vinv[k, p]) * radii[p] for p in range(d)) for k in range(d)]


def polyfit_boxdim(resolutions, counts):
    """(slope, residual) of the least-squares line through the points
    (log r, log count) by np.polyfit: the reference for the closed-form fit
    of tile.boundary_boxdim."""
    logs_r = np.log(np.array(resolutions, dtype=np.float64))
    logs_c = np.log(np.array(counts, dtype=np.float64))
    coeffs, residuals, *_ = np.polyfit(logs_r, logs_c, 1, full=True)
    return float(coeffs[0]), float(residuals[0]) if len(residuals) else 0.0


def census_scalar_oracle(ns, mu, nu, rho):
    """The count of the m in N_mu whose digits from position nu up change
    when some nonzero n of N_nu-rho is added, by a literal double loop of
    digit_slice on each sum's own expansion: the reference for
    carry.carry_census, which counts through the carry automaton."""
    changed = 0
    shifts = [n for n in numeration.enumerate_N(ns, nu - rho) if n != ns.zero]
    for m in numeration.enumerate_N(ns, mu):
        base = digit_slice(ns, m, nu, math.inf)
        for n in shifts:
            moved = algebra.add(ns.poly, m, n)
            if digit_slice(ns, moved, nu, math.inf) != base:
                changed += 1
                break
    return changed


def charpoly(successors) -> list:
    """det(xI - A) of the graph of weighted successor lists, with integer
    coefficients, leading first, by Faddeev-LeVerrier: M_1 = I, c_{n-k} =
    -tr(A M_k)/k, M_{k+1} = A M_k + c_{n-k} I.  Its largest real root, found
    on sturm_chain, is the exact reference for the Perron roots of
    carry.carry_constant and carry.cns_subset_graph."""
    n = len(successors)
    coeffs = [1]
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        m = [[sum(a * m[j][col] for j, a in row) for col in range(n)] for row in successors]
        trace = sum(m[i][i] for i in range(n))
        assert trace % k == 0
        coeffs.append(-trace // k)
        for i in range(n):
            m[i][i] += coeffs[-1]
    return coeffs


def sturm_chain(p) -> list:
    """p, p', then -rem(p_{k-1}, p_k) up to positive factors, each primitive:
    the Sturm sequence whose sign changes count the real roots above a
    point, exactly, for the bisection that checks the Perron roots of
    carry.carry_constant, carry.cns_subset_graph and carry.cns_collapsed."""
    chain = [p, [c * (len(p) - 1 - i) for i, c in enumerate(p[:-1])]]
    while len(chain[-1]) > 1:
        a, b = chain[-2], chain[-1]
        r, steps = list(a), 0
        while len(r) >= len(b):  # pseudo-division: r <- lc(b) r - r_0 x^k b
            r = [b[0] * x - r[0] * y for x, y in zip(r, b + [0] * (len(r) - len(b)))][1:]
            steps += 1
        while r and r[0] == 0:
            r.pop(0)
        if not r:
            break
        sign = -1 if b[0] > 0 or steps % 2 == 0 else 1  # -rem, times lc(b)^-steps
        content = math.gcd(*r)
        chain.append([sign * c // content for c in r])
    return chain


def embedding_matrix(ns):
    """Rows of the map from power-basis coordinates to embedding coordinates,
    the conjugate pairs matched by distance: a real root gives one row, and
    a complex root gives (re, im) of its powers and uses up the nearest
    unused conjugate after it, within 1e-9.  The reference for
    tile._embedding_matrix, which reads the pairs off the root order."""
    roots = ns.poly.embeddings().roots
    d = ns.degree
    used = [False] * d
    rows = []
    for i, z in enumerate(roots):
        if used[i]:
            continue
        used[i] = True
        powers = [z**k for k in range(d)]
        rows.append([w.real for w in powers])
        if abs(z.imag) > 1e-12:
            for j in range(i + 1, d):
                if not used[j] and abs(roots[j] - z.conjugate()) <= 1e-9 * (1 + abs(z)):
                    used[j] = True
                    break
            rows.append([w.imag for w in powers])
    return np.array(rows)


def fixed_order_chart(pts, chart):
    """pts @ chart, each entry the sum of its terms in row order of chart:
    the charting of tile._chart, term for term, for the cloud oracles."""
    columns = [sum((pts[:, k] * chart[k, j] for k in range(1, len(chart))), pts[:, 0] * chart[0, j])
               for j in range(chart.shape[1])]
    return np.stack(columns, axis=1)


def doubling_cloud(ns, depth, space_tag="coordinate"):
    """The whole cloud in one array, level by level, (x + b) q^-1 per digit:
    the one-pass route, exact when c_0 = +-2, and so the bit-for-bit
    reference for the streamed chunks of tile.cloud_chunks and the rasters
    of tile.tile_rasters on those systems."""
    u = np.array(algebra.mult_matrix(ns.poly, algebra.u_element(ns.poly)), dtype=np.int64)
    minv_t = (u / float(ns.poly.coeffs[0])).T  # q^-1 = u / c_0, exact over c_0
    digits = np.array(ns.digits, dtype=np.float64)
    pts = np.zeros((1, ns.degree))
    for _ in range(depth):
        pts = np.concatenate([(pts + b) @ minv_t for b in digits])
    if space_tag == "embedding":
        pts = fixed_order_chart(pts, embedding_matrix(ns).T)
    return pts


def rounded_cloud(ns, depth, space_tag="coordinate"):
    """The float nearest each exact point q^-k n, n a row of N_k (whole_table),
    from exact integers: u^k n / c_0^k with q u = c_0; charted as
    doubling_cloud.  The reference for the points of tile.cloud_chunks when
    c_0 is not +-2, whose levels do not double exactly."""
    uk = (1,) + (0,) * (ns.degree - 1)
    for _ in range(depth):
        uk = algebra.mul(ns.poly, uk, algebra.u_element(ns.poly))
    denom = ns.poly.coeffs[0] ** depth
    pts = np.array([[float(Fraction(v, denom)) for v in algebra.mul(ns.poly, uk, tuple(n))]
                    for n in whole_table(ns, depth).tolist()])
    if space_tag == "embedding":
        pts = fixed_order_chart(pts, embedding_matrix(ns).T)
    return pts


def cells_of(pts, lo, hi, resolution):
    """Cell of every point over the window [lo, hi], in plain arithmetic:
    the reference for the binning of tile's rasters."""
    idx = (pts - lo) / (hi - lo) * resolution
    return np.clip(idx.astype(np.int64), 0, resolution - 1)


def occupancy_of(pts, bbox, resolution):
    """The grid marked at cells_of every point over the window bbox, in one
    array: the reference for the occupancy of tile.tile_rasters, which bins
    or pools the streamed cloud chunk by chunk."""
    grid = np.zeros((resolution,) * pts.shape[1], dtype=bool)
    grid[tuple(cells_of(pts, *np.array(bbox).T, resolution).T)] = True
    return grid
