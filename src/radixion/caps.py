"""Resource caps for unbounded enumerations.

Each cap bounds the number of *elements* a routine may visit before it
raises :class:`~radixion.errors.CapExceeded`.  The environment variable
``RADIXION_CAP`` overrides every default with one global element count,
which is the escape hatch for deliberately expensive runs.
"""

from __future__ import annotations

import os

from .errors import UsageError

ENV_VAR = "RADIXION_CAP"

ENUM_CAP = 1 << 24  # elements in a bulk enumeration or tile cloud
PAIR_CAP = 1 << 30  # (m, n) pairs in a carry census
FNS_BOX_CAP = 10**7  # elements round-tripped by expand --box; bounds nothing else
CARRY_SET_CAP = 10**6  # states in a carry-set closure


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
