"""Property tests: the vectorised exact finalize equals ``math.fsum`` bit for bit.

:func:`repro.core.ops.folds.total` sums a fold's per-block vectors with
:func:`repro.numerics.exact_sum` (error-free vector extraction) instead of
feeding every float through :func:`math.fsum`.  Both return the correctly
rounded sum, so they must agree on every bit — including the sign of zero, and
including the result or exception ``math.fsum`` gives for non-finite inputs and
intermediate overflow.

:func:`repro.numerics.exact_parts` is the short list that extraction leaves; a
sharded store persists one per shard, so ``math.fsum`` over the shards' lists
must give what :func:`~repro.numerics.exact_sum` gives over the whole vector.
"""

import math
from itertools import chain

import numpy as np
from hypothesis import given, settings as hyp_settings, strategies as st

from repro.core.ops import folds
from repro.numerics import exact_parts, exact_sum

#: Finite values spanning the whole exponent range the vectorised path takes:
#: tiny and huge magnitudes, subnormals, signed zeros and small integers.
_SCALED = st.builds(
    lambda mantissa, exponent: mantissa * 10.0 ** exponent,
    st.floats(min_value=-1.0, max_value=1.0),
    st.integers(min_value=-300, max_value=300),
)
_SPECIAL = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.225073858507201e-308,
    1e-300, -1e-300, 1e300, -1e300,
])
_FINITE = st.one_of(
    _SCALED,
    _SPECIAL,
    st.integers(min_value=-1000, max_value=1000).map(float),
    st.floats(min_value=-1e300, max_value=1e300),
)
#: Values where ``math.fsum`` raises or returns a non-finite result.
_EXTREME = st.sampled_from([
    math.inf, -math.inf, math.nan, 1.7976931348623157e308, -1.7976931348623157e308,
    1e308, -1e308,
])


@st.composite
def _parts(draw, elements, max_parts=8):
    """1–``max_parts`` read-only float64 parts, sometimes with exact cancellation built in.

    Values are drawn from a small pool so that lists reach the thousands of
    elements the vectorised path (64 values and up) is built for.
    """
    pool = np.array(draw(st.lists(elements, min_size=1, max_size=60)), dtype=np.float64)
    size = draw(st.integers(min_value=0, max_value=3000))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    values = pool[rng.integers(0, pool.size, size)]
    if size and draw(st.booleans()):
        # append every value's negation in a shuffled order: the exact sum is 0
        values = np.concatenate([values, -rng.permutation(values)])
    n_parts = draw(st.integers(min_value=1, max_value=max_parts))
    cuts = sorted(draw(st.lists(st.integers(min_value=0, max_value=values.size),
                                min_size=n_parts - 1, max_size=n_parts - 1)))
    bounds = [0] + cuts + [values.size]
    parts = []
    for start, stop in zip(bounds, bounds[1:]):
        part = values[start:stop].copy()
        part.setflags(write=False)
        parts.append(part)
    return parts


def _state(parts: list) -> folds.FoldState:
    n_blocks = sum(part.size for part in parts)
    return folds.FoldState(sums={"square": parts}, n_blocks=n_blocks,
                           n_elements=n_blocks, n_padded_elements=n_blocks)


def _outcome(function, *args):
    """``('value', bits)`` or ``('raises', type)`` — what one call produced."""
    try:
        value = function(*args)
    except Exception as exc:  # noqa: BLE001 - the exception type is the outcome
        return ("raises", type(exc))
    if math.isnan(value):
        return ("value", "nan")
    return ("value", value.hex() if isinstance(value, float) else value)


@hyp_settings(max_examples=300, deadline=None)
@given(parts=_parts(_FINITE))
def test_total_equals_fsum_bit_for_bit(parts):
    expected = math.fsum(chain.from_iterable(parts))
    snapshot = [part.copy() for part in parts]
    result = folds.total(_state(parts), "square")
    assert isinstance(result, float)
    assert result.hex() == expected.hex()  # equal bits, sign of zero included
    for part, before in zip(parts, snapshot):
        assert np.array_equal(part, before)  # the parts were read, not written


@hyp_settings(max_examples=200, deadline=None)
@given(parts=_parts(st.one_of(_FINITE, _EXTREME)))
def test_total_matches_fsum_on_nonfinite_and_overflowing_input(parts):
    expected = _outcome(math.fsum, chain.from_iterable(parts))
    assert _outcome(folds.total, _state(parts), "square") == expected


@hyp_settings(max_examples=100, deadline=None)
@given(parts=_parts(_FINITE), data=st.data())
def test_total_is_independent_of_how_values_are_split(parts, data):
    values = np.concatenate(parts)
    regrouped = np.array_split(values, data.draw(st.integers(min_value=1, max_value=8)))
    whole = folds.total(_state([values]), "square")
    assert folds.total(_state(regrouped), "square").hex() == whole.hex()


@hyp_settings(max_examples=300, deadline=None)
@given(shards=_parts(st.one_of(_FINITE, _EXTREME), max_parts=5))
def test_exact_parts_of_shards_sum_to_the_whole(shards):
    """Split-invariance: per-shard parts, concatenated, sum like the vector."""
    snapshot = [shard.copy() for shard in shards]
    persisted = [exact_parts(shard) for shard in shards]
    whole = np.concatenate(shards)
    expected = _outcome(exact_sum, [whole])
    assert _outcome(math.fsum, chain.from_iterable(persisted)) == expected
    # the engine sums the persisted lists with exact_sum, which must agree too
    assert _outcome(exact_sum, [np.array(parts) for parts in persisted]) == expected
    for shard, before in zip(shards, snapshot):
        assert np.array_equal(shard, before, equal_nan=True)  # read, not written


@hyp_settings(max_examples=200, deadline=None)
@given(values=_parts(_FINITE, max_parts=1))
def test_exact_parts_are_short_once_extracted(values):
    """Below 64 values the parts are the values; from 64 finite values up, a
    vector whose nonzero magnitudes span less than 2^80 (a per-block fold
    vector, say) leaves at most one total per extraction pass."""
    (vector,) = values
    parts = exact_parts(vector)
    assert all(isinstance(part, float) for part in parts)
    magnitudes = np.abs(vector[vector != 0.0])
    if vector.size < 64 or magnitudes.size == 0:
        assert parts == vector.tolist()
    elif math.frexp(magnitudes.max())[1] - math.frexp(magnitudes.min())[1] < 80:
        assert len(parts) <= 4
