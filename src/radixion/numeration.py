"""Digit expansions in number systems (q, D).

A number system pairs an expanding base q (given by its minimal
polynomial) with a digit set D of Q = |N(q)| elements forming a
complete residue system modulo q and containing zero.  Every element
of Z[q] then has at most one expansion n = sum_j b_{i_j} q^j with
digits read least significant first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import algebra, bulk
from .algebra import FieldElement, MinimalPolynomial, _poly_eval
from .caps import CARRY_SET_CAP, effective_cap
from .errors import CapExceeded, CycleDetected, DomainError, UsageError

INF = math.inf


def parse_digits(text: str, degree: int) -> tuple:
    """Parse the semicolon-separated digit-set encoding "b;b;...";"""
    return tuple(algebra.parse_element(tok, degree) for tok in text.split(";"))


def format_digits(digits) -> str:
    return ";".join(algebra.format_element(b) for b in digits)


@dataclass(frozen=True)
class NumberSystem:
    """An expanding base with a digit set; validated on construction."""

    poly: MinimalPolynomial
    digits: tuple

    def __post_init__(self):
        try:
            digits = tuple(tuple(int(c) for c in b) for b in self.digits)
        except (TypeError, ValueError):
            raise UsageError("digits must be integer coordinate vectors") from None
        object.__setattr__(self, "digits", digits)
        validate_system(self)

    @classmethod
    def parse(cls, poly_text: str, digits_text: str) -> "NumberSystem":
        poly = MinimalPolynomial.parse(poly_text)
        return cls(poly, parse_digits(digits_text, poly.degree))

    def encode(self) -> str:
        return "%s|%s" % (self.poly, format_digits(self.digits))

    @property
    def degree(self) -> int:
        return self.poly.degree

    @property
    def Q(self) -> int:
        return self.poly.Q

    @property
    def is_binary(self) -> bool:
        return self.Q == 2

    @cached_property
    def zero(self) -> FieldElement:
        return (0,) * self.degree

    @cached_property
    def digit_is_nonzero(self) -> tuple:
        return tuple(any(b) for b in self.digits)

    @cached_property
    def residue_digit(self) -> tuple:
        """Digit index of each residue class r = x[0] mod Q.

        Z[q]/(q) is Z/Q, with x mapped to its coordinate x[0]; so the
        digits form a complete residue system exactly when their first
        coordinates are distinct mod Q.
        """
        lookup = [None] * self.Q
        for t, b in enumerate(self.digits):
            r = b[0] % self.Q
            if lookup[r] is not None:
                raise DomainError(
                    "digits %s and %s lie in the same residue class mod q"
                    % (
                        algebra.format_element(self.digits[lookup[r]]),
                        algebra.format_element(b),
                    )
                )
            lookup[r] = t
        return tuple(lookup)


def validate_system(ns: NumberSystem):
    """Reject digit sets that cannot define a number system."""
    m = ns.poly
    d = m.degree
    for b in ns.digits:
        if len(b) != d:
            raise UsageError(
                "digit %s has %d coordinates, base has degree %d"
                % (algebra.format_element(b), len(b), d)
            )
    m.embeddings()  # re-raises for non-expanding bases
    if len(ns.digits) != m.Q:
        raise DomainError(
            "digit set has %d elements, a complete residue system needs %d"
            % (len(ns.digits), m.Q)
        )
    ns.residue_digit  # rejects two digits in one residue class
    if (0,) * d not in ns.digits:
        raise DomainError("digit set must contain zero")


@dataclass(frozen=True)
class Expansion:
    """Digit indices of a finite expansion, least significant first."""

    digit_indices: tuple

    def __len__(self):
        return len(self.digit_indices)


@dataclass(frozen=True)
class FnsVerdict:
    is_fns: bool
    witness_cycle: tuple | None
    candidates_examined: int


def _strip_one(ns: NumberSystem, n: FieldElement):
    """One backward division step: the unique digit index t and (n - b_t)/q.

    With y = n - b_t, y/q = (y0/c0)*u + (y1, ..., y_{d-1}, 0), where
    u = c0/q = -(c1, ..., c_{d-1}, 1) is the cofactor of q.
    """
    t = ns.residue_digit[n[0] % ns.Q]
    y = [a - b for a, b in zip(n, ns.digits[t])]
    c = ns.poly.coeffs
    k = y[0] // c[0]
    y.append(0)
    return t, tuple(y[i + 1] - k * c[i + 1] for i in range(ns.degree))


def _carry_closure(ns: NumberSystem):
    """Least set of carries from {0} closed under s -> strip(s + a + b).

    One BFS over states, digits a, then digits b.  Returns the states in
    insertion order and the pair table nxt[i][a][b], the index of
    strip(states[i] + a + b).
    """
    cap = effective_cap(CARRY_SET_CAP)
    m = ns.poly
    states = [ns.zero]
    index = {ns.zero: 0}
    table = []
    while len(table) < len(states):
        s = states[len(table)]
        rows = []
        for d1 in ns.digits:
            partial = algebra.add(m, s, d1)
            row = []
            for d2 in ns.digits:
                _, nxt = _strip_one(ns, algebra.add(m, partial, d2))
                if nxt not in index:
                    if len(states) >= cap:
                        raise CapExceeded("carry set exceeded the cap of %d states" % cap)
                    index[nxt] = len(states)
                    states.append(nxt)
                row.append(index[nxt])
            rows.append(tuple(row))
        table.append(tuple(rows))
    return tuple(states), tuple(table)


def strip_columns(ns: NumberSystem, cols) -> list:
    """Array form of _strip_one: the d int64 columns of (n - b)/q from those
    of n.  With n_0 = Q s + r and b the digit of class r, y_0 / c_0 is
    sign(c_0) (s + (r - b_0)/Q); digits (r, 0, ..., 0) need no residue."""
    c, sign = ns.poly.coeffs, (1 if ns.poly.coeffs[0] > 0 else -1)
    digits = np.array([ns.digits[t] for t in ns.residue_digit], dtype=np.int64)
    offset = (np.arange(ns.Q) - digits[:, 0]) // ns.Q
    s = cols[0] // ns.Q
    if offset.any() or digits[:, 1:].any():
        r = cols[0] - ns.Q * s  # np.divmod is many times slower than the two steps
        s += offset[r]  # y_0 / Q
    out = []
    for i in range(1, ns.degree):
        col = cols[i] - sign * c[i] * s if c[i] else cols[i]
        out.append(col - digits[r, i] if digits[:, i].any() else col)
    out.append(s if sign < 0 else -s)
    return out


def expand(ns: NumberSystem, x: FieldElement) -> Expansion:
    """Digit expansion of x, or CycleDetected when none terminates."""
    algebra._check_arity(ns.poly, x)
    n = tuple(x)
    seen = {}
    trajectory = []
    indices = []
    while n != ns.zero:
        if n in seen:
            raise CycleDetected(tuple(x), trajectory[seen[n]:])
        seen[n] = len(trajectory)
        trajectory.append(n)
        t, n = _strip_one(ns, n)
        indices.append(t)
    return Expansion(tuple(indices))


def evaluate(ns: NumberSystem, expansion: Expansion) -> FieldElement:
    """Value sum_j b_{i_j} q^j of a digit string, Horner from the top."""
    m = ns.poly
    acc = ns.zero
    for t in reversed(expansion.digit_indices):
        acc = algebra.add(m, algebra.mul_by_q(m, acc), ns.digits[t])
    return acc


def digit_slice(ns: NumberSystem, x: FieldElement, nu: int, mu) -> FieldElement:
    """Value of the digit window [nu, mu) of x, shifted down by q^nu.

    mu may be math.inf, in which case the slice is the whole residual
    element left after stripping nu digits.
    """
    if nu < 0 or mu < nu:
        raise UsageError("digit window needs 0 <= nu <= mu")
    algebra._check_arity(ns.poly, x)
    n = tuple(x)
    for _ in range(nu):
        _, n = _strip_one(ns, n)
    if mu == INF:
        return n
    indices = []
    for _ in range(int(mu) - nu):
        t, n = _strip_one(ns, n)
        indices.append(t)
    return evaluate(ns, Expansion(tuple(indices)))


def embedding_radii(ns: NumberSystem) -> tuple:
    """Per-embedding attractor radii max_b |b^pi| / (|q^pi| - 1)."""
    return tuple(
        max(abs(_poly_eval(b, z)) for b in ns.digits) / (abs(z) - 1.0)
        for z in ns.poly.embeddings().roots
    )


def coordinate_bound(ns: NumberSystem) -> list:
    """Per-coordinate bound sum_p |V^-1[k, p]| r_p on the attractor.

    V is the Vandermonde matrix of the embeddings and r the embedding
    radii, so every coordinate k of an attractor point is at most this.
    """
    radii = embedding_radii(ns)
    roots = ns.poly.embeddings().roots
    d = ns.degree
    vandermonde = np.array([[z**k for k in range(d)] for z in roots])
    vinv = np.linalg.inv(vandermonde)
    return [sum(abs(vinv[k, p]) * radii[p] for p in range(d)) for k in range(d)]


def is_fns(ns: NumberSystem) -> FnsVerdict:
    """Decide whether every element of Z[q] has a finite expansion.

    Every element is a sum of terms +-q^k, and adding two finite
    expansions digit by digit leaves a carry of the carry closure; so
    (q, D) is finite exactly when 1, -1 and every closure state expand
    finitely (Brunotte's witness set).  As 0 is a digit, strip(s) is
    strip(s + 0 + 0), so each state's orbit stays in the closure and is
    read from its pair table without a further strip.  The witness is a
    failing orbit's cycle, rotated to start at its least element.
    """
    examined = 0
    try:
        for sign in (1, -1):
            examined += 1
            expand(ns, (sign,) + ns.zero[1:])
        states, table = _carry_closure(ns)
        zero = ns.digits.index(ns.zero)
        finite = {0}
        for s in range(len(states)):
            examined += 1
            path = []
            while s not in finite:
                if s in path:
                    cycle = tuple(states[k] for k in path[path.index(s):])
                    raise CycleDetected(states[path[0]], cycle)
                path.append(s)
                s = table[s][zero][zero]
            finite.update(path)
    except CycleDetected as err:
        cycle = err.cycle
        return FnsVerdict(False, min(cycle[i:] + cycle[:i] for i in range(len(cycle))), examined)
    return FnsVerdict(True, None, examined)


def enumerate_N(ns: NumberSystem, lam: int):
    """Stream the Q^lam values with expansions of length <= lam, read from
    bulk.row_blocks: element i carries digit index (i // Q^j) % Q in
    position j, so a fixed top digit is one contiguous block of indices.
    The length and the cap are checked when called."""
    blocks = bulk.row_blocks(ns, lam)
    return (tuple(row) for block in blocks for row in block.coords.tolist())


def sum_of_digits(ns: NumberSystem, x: FieldElement) -> FieldElement:
    """Sum of the digit values of x as an element of Z[q]."""
    acc = ns.zero
    for t in expand(ns, x).digit_indices:
        acc = algebra.add(ns.poly, acc, ns.digits[t])
    return acc


def rudin_shapiro(ns: NumberSystem, x: FieldElement) -> int:
    """Number of adjacent digit pairs with both digits nonzero."""
    if not ns.is_binary:
        import warnings

        warnings.warn(
            "pair counting is tuned for binary systems; Q = %d" % ns.Q,
            stacklevel=2,
        )
    idx = expand(ns, x).digit_indices
    nonzero = ns.digit_is_nonzero
    return sum(
        1 for a, b in zip(idx, idx[1:]) if nonzero[a] and nonzero[b]
    )
