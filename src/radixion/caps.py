"""Resource caps for unbounded enumerations.

Each cap bounds the number of *elements* a routine may visit before it
raises :class:`~radixion.errors.CapExceeded`; seeded sample counts are
held to the element cap in drawn integers.  The environment variable
``RADIXION_CAP`` overrides every default with one global element count,
which is the escape hatch for deliberately expensive runs.
"""

from __future__ import annotations

import os

from .errors import CapExceeded, UsageError

ENV_VAR = "RADIXION_CAP"

ENUM_CAP = 1 << 24  # elements in a bulk enumeration or tile cloud, cells in a tile raster
PAIR_CAP = 1 << 30  # (m, n) pairs in a carry census
FNS_BOX_CAP = 10**7  # elements round-tripped by expand --box; bounds nothing else
CARRY_SET_CAP = 10**6  # states in a carry-set closure or a CNS subset graph, 2^(d+1) - 2


def effective_cap(default: int) -> int:
    """Return ``default`` unless ``RADIXION_CAP`` is set in the environment."""
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise UsageError("%s must be an integer, got %r" % (ENV_VAR, raw)) from None
    if value <= 0:
        raise UsageError("%s must be positive, got %d" % (ENV_VAR, value))
    return value


def check_samples(count: int, width: int, what: str) -> None:
    """Refuse `count` seeded samples of `width` integers each when they pass
    the element cap, before any is drawn."""
    if count * width > effective_cap(ENUM_CAP):
        raise CapExceeded("%d %s of %d integers each exceed cap %d"
                          % (count, what, width, effective_cap(ENUM_CAP)))


def check_power(base: int, exp: int, what: str, cap: int) -> int:
    """Return base^exp, the size of a set a caller names as `what` % size,
    when it is at most `cap`; refuse a negative exp as a usage error and a
    larger size with CapExceeded, naming it as base^exp from 2^64 on.  With
    base >= 2, base^exp >= 2^exp passes the cap once exp >= cap.bit_length(),
    so that is refused without building the power, which takes seconds past
    exp = 10^7."""
    if exp < 0:
        raise UsageError("%s has a negative exponent" % (what % ("%d^%d" % (base, exp))))
    size = base**exp if exp < max(cap.bit_length(), 64) else None
    if size is not None and size <= cap:
        return size
    name = "%d" % size if size is not None and size < 1 << 64 else "%d^%d" % (base, exp)
    raise CapExceeded("%s exceeds cap %d" % (what % name, cap))
