"""Input checks shared by the specs, the parsers and the CLI.

A check written ``x < 0`` or ``x <= 0`` lets NaN pass, because every
comparison with NaN is false; a NaN event time or interval then never
matches the event loop's clock, and the loop spins.  These helpers ask the
question the other way round (is the value finite and in range?), so NaN
and ±inf fail it.  Comparing an ``int`` with ``inf`` is exact, so a huge
count passes where ``math.isfinite`` would overflow.  Spec text becomes a
number through :func:`number`, whose message names the slot.
"""

from __future__ import annotations

import math

__all__ = ["finite_nonnegative", "finite_positive", "integral", "number", "reject_repeats"]


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


def integral(value, name: str) -> int:
    """``value`` as an ``int`` when it is finite and integral; otherwise ``ValueError``.

    Use it in place of ``int()`` on a parsed number: ``int()`` truncates 2.5
    to 2 without a word, names no slot on NaN and raises ``OverflowError``
    (an exception the CLI does not turn into one line) on ±inf.
    """
    if not -math.inf < value < math.inf:
        raise ValueError(f"{name} must be finite, got {value}")
    if value != int(value):
        raise ValueError(f"{name} must be an integer, got {value}")
    return int(value)


def number(text: str, name: str) -> float:
    """``float(text)``, or a ``ValueError`` that names the slot and quotes ``text``.

    Use it in place of ``float()`` on spec text: ``float()`` says only
    "could not convert string to float", naming neither the slot nor the
    option.  ``nan`` and ``inf`` parse; the range checks reject them.
    """
    try:
        return float(text)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a number, got {text!r}") from None


def reject_repeats(what: str, values) -> None:
    """``ValueError`` when ``values`` holds one value twice.

    A grid that repeats a value would sweep its points twice.
    """
    repeated = [value for index, value in enumerate(values) if value in values[:index]]
    if repeated:
        raise ValueError(f"{what} repeats {repeated[0]!r}: {list(values)}")
