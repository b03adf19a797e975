"""Tests for the input checks shared by the specs, the parsers and the CLI
(:mod:`repro.checks`).

Every spec string and grid goes through these four helpers, so their
contracts are pinned here once: NaN and ±inf fail each of them, a huge
``int`` is compared exactly, an integer slot never truncates, and a
repeated grid value is named in the message.
"""

import math

import numpy as np
import pytest

from repro.checks import finite_nonnegative, finite_positive, integral, reject_repeats

NON_FINITE = [math.nan, math.inf, -math.inf]


class TestIntegral:
    @pytest.mark.parametrize(
        "value, expected",
        [
            (3, 3),
            (3.0, 3),
            (-2.0, -2),
            (-0.0, 0),
            (2.0**53, 2**53),
            (10**30, 10**30),
            (np.float64(4.0), 4),
            (np.int64(7), 7),
        ],
        ids=["int", "float", "negative", "negative-zero", "2**53", "huge-int", "np-float", "np-int"],
    )
    def test_integral_values_come_back_as_int(self, value, expected):
        result = integral(value, "slot")
        assert result == expected and type(result) is int

    @pytest.mark.parametrize("value", [2.5, -0.5, 1e-300, 2.0**51 + 0.5])
    def test_fractions_are_rejected_not_truncated(self, value):
        with pytest.raises(ValueError) as raised:
            integral(value, "min_replicas")
        assert str(raised.value) == f"min_replicas must be an integer, got {value}"

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_non_finite_values_are_rejected_naming_the_slot(self, value):
        # int() would raise OverflowError on ±inf and a nameless ValueError on NaN.
        with pytest.raises(ValueError) as raised:
            integral(value, "seed")
        assert str(raised.value) == f"seed must be finite, got {value}"


class TestFiniteRanges:
    @pytest.mark.parametrize("value", [0, 0.0, 2.5, 10**400])
    def test_nonnegative_returns_the_value(self, value):
        # 10**400 overflows math.isfinite; the comparison with inf is exact.
        assert finite_nonnegative(value, "timeout") is value

    @pytest.mark.parametrize("value", [-1, -5e-324, *NON_FINITE])
    def test_nonnegative_rejects_negatives_and_non_finite(self, value):
        with pytest.raises(ValueError) as raised:
            finite_nonnegative(value, "timeout")
        assert str(raised.value) == f"timeout must be finite and >= 0, got {value}"

    @pytest.mark.parametrize("value", [5e-324, 1, 10**400])
    def test_positive_returns_the_value(self, value):
        assert finite_positive(value, "power cap") is value

    @pytest.mark.parametrize("value", [0, -0.0, -1.0, *NON_FINITE])
    def test_positive_rejects_zero_negatives_and_non_finite(self, value):
        with pytest.raises(ValueError) as raised:
            finite_positive(value, "power cap")
        assert str(raised.value) == f"power cap must be finite and > 0, got {value}"


class TestRejectRepeats:
    @pytest.mark.parametrize(
        "values",
        [(), (1,), (1, 2, 3), ["edf", "round_robin"], (None, 16), (0, 0.5)],
        ids=["empty", "one", "ints", "list", "none", "near"],
    )
    def test_distinct_values_pass(self, values):
        assert reject_repeats("grid 'x'", values) is None

    @pytest.mark.parametrize(
        "values, repeated",
        [
            ((1, 2, 2, 1), "2"),
            ((0, 0.0), "0.0"),
            ((True, 1), "1"),
            ((None, 16, None), "None"),
            (["edf", "edf"], "'edf'"),
        ],
        ids=["first-repeat-named", "int-float", "bool-int", "none", "list"],
    )
    def test_the_first_value_seen_again_is_named(self, values, repeated):
        # Equal values sweep the same points, whatever their type.
        with pytest.raises(ValueError) as raised:
            reject_repeats("grid 'x'", values)
        assert str(raised.value) == f"grid 'x' repeats {repeated}: {list(values)}"
