"""Digit expansions in number systems (q, D).

A number system pairs an expanding base q (given by its minimal
polynomial) with a digit set D of Q = |N(q)| elements forming a
complete residue system modulo q and containing zero.  Every element
of Z[q] then has at most one expansion n = sum_j b_{i_j} q^j with
digits read least significant first.

Backward division (strip), n -> (n - b)/q with b the digit of n's residue
class, is the one map behind expansions, the carry closure and the tile's
lattice area: numpy-free, on one element or on int64 columns alike.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from . import algebra
from .algebra import FieldElement, MinimalPolynomial, _poly_eval
from .caps import CARRY_SET_CAP, effective_cap
from .errors import CapExceeded, CycleDetected, DomainError, UsageError


def parse_digits(text: str, degree: int) -> tuple:
    """Parse the semicolon-separated digit-set encoding "b;b;...";"""
    return tuple(algebra.parse_element(tok, degree) for tok in text.split(";"))


def format_digits(digits) -> str:
    return ";".join(algebra.format_element(b) for b in digits)


class NumberSystem:
    """An expanding base with a digit set; validated on construction."""

    def __init__(self, poly: MinimalPolynomial, digits):
        try:
            digits = tuple(tuple(int(c) for c in b) for b in digits)
        except (TypeError, ValueError):
            raise UsageError("digits must be integer coordinate vectors") from None
        self.poly = poly
        self.digits = digits
        validate_system(self)

    def __repr__(self):
        return "NumberSystem(poly=%r, digits=%r)" % (self.poly, self.digits)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.poly, self.digits) == (other.poly, other.digits)

    def __hash__(self):
        return hash((self.poly, self.digits))

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

    @cached_property
    def strip_tables(self) -> tuple:
        """The tables of strip, by residue class r = x[0] mod Q, in Python
        integers: the offset (r - b_0) // Q, then b_1, ..., b_{d-1}, of the
        digit b of class r; a table that is all zero is None."""
        digits = [self.digits[t] for t in self.residue_digit]
        tables = [tuple((r - b[0]) // self.Q for r, b in enumerate(digits))]
        tables += [tuple(b[i] for b in digits) for i in range(1, self.degree)]
        return tuple(t if any(t) else None for t in tables)


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
    if len(ns.digits) != m.Q:
        raise DomainError(
            "digit set has %d elements, a complete residue system needs %d"
            % (len(ns.digits), m.Q)
        )
    ns.residue_digit  # rejects two digits in one residue class
    if (0,) * d not in ns.digits:
        raise DomainError("digit set must contain zero")


class Expansion(NamedTuple):
    """Digit indices of a finite expansion, least significant first."""

    digit_indices: tuple

    def __len__(self):  # the number of digits, not of fields
        return len(self.digit_indices)


class FnsVerdict(NamedTuple):
    is_fns: bool
    witness_cycle: tuple | None
    candidates_examined: int


def strip(ns: NumberSystem, cols, times: int = 1, tables=None) -> tuple:
    """Backward division n -> (n - b)/q, b the digit of n's residue class,
    `times` times, on the d coordinates of n: Python integers (one element)
    or int64 arrays of one length (one element per entry).  With n_0 =
    Q s + r, y = n - b has y_0 / c_0 = sign(c_0) (s + offset[r]), and y/q =
    (y_0/c_0) u + (y_1, ..., y_{d-1}, 0), u = c_0/q = -(c_1, ..., c_{d-1}, 1)
    the cofactor of q.  `tables` is ns.strip_tables (the default) in a form
    the columns can index; a table that is None is zero and is skipped."""
    tables = ns.strip_tables if tables is None else tables
    c, Q = ns.poly.coeffs, ns.Q
    sign = 1 if c[0] > 0 else -1
    residue = any(t is not None for t in tables)
    for _ in range(times):
        s = cols[0] // Q
        if residue:
            r = cols[0] - Q * s  # np.divmod is many times slower than the two steps
            if tables[0] is not None:
                s += tables[0][r]  # y_0 / Q
        out = []
        for i in range(1, ns.degree):
            col = cols[i] - sign * c[i] * s if c[i] else cols[i]
            out.append(col if tables[i] is None else col - tables[i][r])
        out.append(s if sign < 0 else -s)
        cols = out
    return tuple(cols)


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
                nxt = strip(ns, algebra.add(m, partial, d2))
                if nxt not in index:
                    if len(states) >= cap:
                        raise CapExceeded("carry set exceeded the cap of %d states" % cap)
                    index[nxt] = len(states)
                    states.append(nxt)
                row.append(index[nxt])
            rows.append(tuple(row))
        table.append(tuple(rows))
    return tuple(states), tuple(table)


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
        indices.append(ns.residue_digit[n[0] % ns.Q])
        n = strip(ns, n)
    return Expansion(tuple(indices))


def evaluate(ns: NumberSystem, expansion: Expansion) -> FieldElement:
    """Value sum_j b_{i_j} q^j of a digit string, Horner from the top."""
    m = ns.poly
    acc = ns.zero
    for t in reversed(expansion.digit_indices):
        acc = algebra.add(m, algebra.mul_by_q(m, acc), ns.digits[t])
    return acc


def embedding_radii(ns: NumberSystem) -> tuple:
    """Per-embedding attractor radii max_b |b^pi| / (|q^pi| - 1)."""
    return tuple(
        max(abs(_poly_eval(b, z)) for b in ns.digits) / (abs(z) - 1.0)
        for z in ns.poly.embeddings().roots
    )


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
    """Stream the Q^lam values with expansions of length <= lam: element i
    carries digit index (i // Q^j) % Q in position j, so a fixed top digit
    is one contiguous block of indices.  Read from bulk.split_tables, whose
    tables hold coordinates only: the low table plus one offset at a time.
    The length and the cap are checked when called."""
    from . import bulk
    low, offsets = bulk.split_tables(ns, lam)
    return (tuple(row) for offset in offsets for row in (low + offset).tolist())


class DigitStatistic(NamedTuple):
    """A digit automaton read from the lowest position up: from `start`,
    digit index t in state s moves to step[s][t][0] and adds the integer
    vector step[s][t][1] to the value of the string.  `element`: the value
    is an element of Z[q], so a trace linear form applies to it."""

    states: tuple  # a label per state
    start: int
    step: tuple  # step[state][digit index] = (next state, increment tuple)
    element: bool

    @property
    def width(self) -> int:
        """The coordinates of a value."""
        return len(self.step[0][0][1])

    def read(self, indices) -> tuple:
        """(exit state, value) of one digit string, its indices lowest
        first: one step per digit from the start state."""
        state, value = self.start, (0,) * self.width
        for t in indices:
            state, inc = self.step[state][t]
            value = tuple(a + b for a, b in zip(value, inc))
        return state, value


def digit_sum(ns: NumberSystem) -> DigitStatistic:
    """s(n), the Thue-Morse statistic: one state, each digit adds itself."""
    return DigitStatistic(("any",), 0, (tuple((0, b) for b in ns.digits),), True)


def pair_count(ns: NumberSystem) -> DigitStatistic:
    """r(n), the Rudin-Shapiro statistic: the state is whether the last
    digit read is nonzero, and a nonzero digit read after one adds 1."""
    step = tuple(tuple((int(nz), (int(nz and after),)) for nz in ns.digit_is_nonzero)
                 for after in (False, True))
    return DigitStatistic(("last zero", "last nonzero"), 0, step, False)
