"""Exception hierarchy shared by all radixion modules.

Every error carries an ``exit_code`` so the command-line driver can map
failures onto process statuses without inspecting types one by one:
1 = domain error, 2 = usage error, 3 = resource cap exceeded.
"""

from __future__ import annotations


class RadixionError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class UsageError(RadixionError):
    """Malformed encodings, wrong arities, or bad flag combinations."""

    exit_code = 2


class DomainError(RadixionError):
    """Mathematically invalid input (bad base, bad digit set, ...)."""

    exit_code = 1


class CapExceeded(RadixionError):
    """The requested computation would exceed a configured resource cap."""

    exit_code = 3


class ConvergenceError(RadixionError):
    """An iterative numeric routine failed to reach its tolerance."""

    exit_code = 1


class CycleDetected(DomainError):
    """Digit expansion revisited a state and can therefore never terminate.

    ``element`` is the element whose expansion was requested (the start of
    the orbit); it need not lie on the cycle.  ``cycle`` is the orbit
    segment that starts at the first revisited state and runs up to its
    return, i.e. a genuine cycle of the one-step expansion map.  A nonzero
    cycle certifies that the number system lacks the finiteness property.
    """

    def __init__(self, element, cycle):
        self.element = tuple(element)
        self.cycle = tuple(tuple(x) for x in cycle)
        super().__init__(
            "expansion cycles at %s (cycle length %d)" % (element, len(self.cycle))
        )
