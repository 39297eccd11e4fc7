"""Unit tests for repro.numerics.exact_sum: every branch against ``math.fsum``."""

import math
from itertools import chain

import numpy as np
import pytest

from repro.numerics import exact_sum


def _fsum(parts):
    return math.fsum(chain.from_iterable(parts))


def _assert_same_bits(parts):
    assert exact_sum(parts).hex() == _fsum(parts).hex()


class TestVectorisedPath:
    def test_magnitudes_spanning_the_exponent_range(self):
        # residuals survive every extraction pass and reach the final fsum
        rng = np.random.default_rng(0)
        values = rng.standard_normal(5000) * 10.0 ** rng.uniform(-300, 300, 5000)
        _assert_same_bits(np.array_split(values, 7))

    def test_squares_of_a_smooth_field(self):
        rng = np.random.default_rng(1)
        _assert_same_bits([rng.standard_normal(512) ** 2 for _ in range(256)])

    def test_exact_cancellation_gives_positive_zero(self):
        rng = np.random.default_rng(2)
        values = rng.standard_normal(1000) * 10.0 ** rng.integers(-20, 20, 1000)
        mixed = np.concatenate([values, -values[::-1]])
        result = exact_sum([mixed])
        assert result == 0.0 and math.copysign(1.0, result) == 1.0
        _assert_same_bits([mixed])

    def test_half_way_ties_round_to_even(self):
        # 1 + 2^-53 sits exactly between two floats; more tiny terms break the tie
        tiny = np.full(100, 2.0 ** -60)
        _assert_same_bits([np.array([1.0]), tiny[:64], np.array([-(2.0 ** -60) * 64])])
        _assert_same_bits([np.array([1.0]), tiny])

    def test_subnormal_values(self):
        values = np.arange(1, 300, dtype=np.float64) * 5e-324
        _assert_same_bits([values, -values[::3]])

    def test_does_not_write_a_lone_read_only_part(self):
        values = np.linspace(-1.0, 3.0, 1000)
        values.setflags(write=False)
        before = values.copy()
        _assert_same_bits([values])
        assert np.array_equal(values, before)


class TestFallbacks:
    def test_empty_input(self):
        assert exact_sum([]) == 0.0
        assert exact_sum([np.empty(0), np.empty(0)]) == 0.0

    def test_short_input(self):
        _assert_same_bits([np.array([0.1, 0.2, 0.3]), np.array([1e16, -1e16])])

    def test_all_zero_input_keeps_fsum_sign_of_zero(self):
        parts = [np.full(100, -0.0), np.full(50, -0.0)]
        assert exact_sum(parts).hex() == _fsum(parts).hex()

    @pytest.mark.parametrize("special", [math.nan, math.inf, -math.inf])
    def test_non_finite_values(self, special):
        values = np.linspace(0.0, 1.0, 200)
        values[17] = special
        result, expected = exact_sum([values]), _fsum([values])
        assert (math.isnan(result) and math.isnan(expected)) or result == expected

    def test_opposite_infinities_raise_like_fsum(self):
        values = np.zeros(200)
        values[3], values[150] = math.inf, -math.inf
        with pytest.raises(ValueError):
            _fsum([values])
        with pytest.raises(ValueError):
            exact_sum([values])

    def test_intermediate_overflow_raises_like_fsum(self):
        values = np.full(200, 1e308)
        values[100:] = -1e308
        with pytest.raises(OverflowError):
            _fsum([values])
        with pytest.raises(OverflowError):
            exact_sum([values])

    def test_near_overflow_magnitudes(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(-1.0, 1.0, 300) * 1e306
        _assert_same_bits([values])
