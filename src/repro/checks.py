"""Range checks that NaN cannot slip through.

A check written ``x < 0`` or ``x <= 0`` lets NaN pass, because every
comparison with NaN is false; a NaN event time or interval then never
matches the event loop's clock, and the loop spins.  These helpers ask the
question the other way round (is the value finite and in range?), so NaN
and ±inf fail it.  Comparing an ``int`` with ``inf`` is exact, so a huge
count passes where ``math.isfinite`` would overflow.
"""

from __future__ import annotations

import math

__all__ = ["finite", "finite_nonnegative", "finite_positive"]


def finite(value, name: str):
    """``value`` when it is finite; otherwise ``ValueError``.

    Check a float with it before ``int()``, which raises ``OverflowError``
    on ±inf (an exception the CLI does not turn into one line).
    """
    if not -math.inf < value < math.inf:
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def finite_nonnegative(value, name: str):
    """``value`` when it is finite and >= 0; otherwise ``ValueError``."""
    if not 0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {value}")
    return value


def finite_positive(value, name: str):
    """``value`` when it is finite and > 0; otherwise ``ValueError``."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be finite and > 0, got {value}")
    return value
