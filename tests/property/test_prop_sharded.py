"""Property: sharded stores are indistinguishable from one store, bit for bit.

The sharded layer's load-bearing invariants, swept by Hypothesis over 1–3
dimensions, ragged shard/chunk splits (every append draws its own row count;
only the final one may break block alignment) and arbitrary non-empty subsets
of the reductions:

* **bit-identity** — a fused plan over a :class:`ShardedStore` produces
  exactly (``==``) the scalars of the same plan over a single
  :class:`CompressedStore` holding the identical chunk records, whether the
  sharded run serves folds from persisted partials or sweeps every chunk;
* **incremental == cold** — after K appends, the partial-served answers equal
  a cold full sweep bit for bit, decode zero chunks for servable subsets
  (the centered statistics always sweep once: no AC sums are persisted), and
  ``last_execution["incremental_groups"]`` records the served group; appends
  written with ``update_partials=False`` disable serving (clean fallback, same
  scalars) until :func:`refresh_partials` restores it.

The single-store reference is built by copying the sharded store's chunk
records verbatim through :class:`CompressedStoreWriter` — the two layouts then
hold byte-identical records in the same global order, so any divergence is the
sharded layer's fault, not compression noise.
"""

import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np
from hypothesis import given, settings as hyp_settings, strategies as st

from repro import engine
from repro.core import CompressionSettings
from repro.engine import expr
from repro.streaming import (
    CompressedStore,
    CompressedStoreWriter,
    ShardedStore,
    append_shard,
    init_sharded_store,
    refresh_partials,
)

#: Reductions over one logical array (binary ops take the same source twice,
#: which keeps dot/cosine on the incremental path).
OPERATIONS = ("mean", "l2_norm", "variance", "standard_deviation", "dot",
              "cosine_similarity", "euclidean_distance")

#: Reductions whose folds have no persisted partial form: euclidean_distance
#: folds through ``diff_square``, variance and standard deviation through
#: ``centered_square`` (shard sidecars keep no AC square sums) — a plan
#: containing any of them sweeps the store once (its other terms are served).
_NON_SERVABLE = frozenset({"euclidean_distance", "variance", "standard_deviation"})


def _servable(names) -> bool:
    """True when every term of the plan can be served from shard partials."""
    return not _NON_SERVABLE.intersection(names)


@st.composite
def sharded_case(draw):
    """Arrays for shard 0 + K appends, settings, ragged splits, op subset."""
    ndim = draw(st.integers(1, 3))
    extents = {1: (2,), 2: (2, 4), 3: (2, 2, 4)}[ndim]
    block = draw(st.sampled_from([extents, tuple(reversed(extents))]))
    block_rows = block[0]
    tail = tuple(draw(st.integers(1, 9)) for _ in range(ndim - 1))
    slab_rows = draw(st.integers(1, 3)) * block_rows
    float_format = draw(st.sampled_from(["bfloat16", "float32", "float64"]))
    settings = CompressionSettings(
        block_shape=block, float_format=float_format, index_dtype="int16"
    )
    # every shard but the last must stay block-aligned for appends to be
    # legal; the final append may be ragged (it owns the global tail chunk)
    n_appends = draw(st.integers(0, 3))
    row_counts = [draw(st.integers(1, 4)) * block_rows for _ in range(n_appends)]
    row_counts.append(draw(st.integers(1, 3 * block_rows)))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    arrays = [
        np.cumsum(rng.standard_normal((rows,) + tail), axis=0) * 0.05
        for rows in row_counts
    ]
    subset = draw(st.sets(st.sampled_from(OPERATIONS), min_size=1))
    return arrays, settings, slab_rows, sorted(subset)


@contextmanager
def _sharded(arrays, settings, slab_rows, partials=None):
    """Build a sharded store from ``arrays`` (one shard each) in a temp dir.

    ``partials`` optionally gives a per-shard ``update_partials`` flag list.
    """
    flags = partials or [True] * len(arrays)
    with tempfile.TemporaryDirectory(prefix="sharded_prop_") as tmp:
        path = Path(tmp) / "grown.shards"
        init_sharded_store(
            path, arrays[0], settings, slab_rows=slab_rows,
            update_partials=flags[0],
        ).close()
        for array, flag in zip(arrays[1:], flags[1:]):
            append_shard(path, array, slab_rows=slab_rows,
                         update_partials=flag).close()
        yield path


@contextmanager
def _single_copy(sharded: ShardedStore, settings):
    """A single store holding the sharded store's chunk records verbatim."""
    with tempfile.TemporaryDirectory(prefix="sharded_ref_") as tmp:
        target = Path(tmp) / "single.pblzc"
        with CompressedStoreWriter(target, settings) as writer:
            for chunk in sharded.iter_chunks():
                writer.append(chunk)
        with CompressedStore(target) as store:
            yield store


def _expressions(names, store) -> dict:
    """Expression per requested op, binary ops taking the source twice."""
    x = expr.source(store)
    builders = {
        "mean": lambda: expr.mean(x),
        "l2_norm": lambda: expr.l2_norm(x),
        "variance": lambda: expr.variance(x),
        "standard_deviation": lambda: expr.standard_deviation(x),
        "dot": lambda: expr.dot(x, x),
        "cosine_similarity": lambda: expr.cosine_similarity(x, x),
        "euclidean_distance": lambda: expr.euclidean_distance(x, x),
    }
    return {name: builders[name]() for name in names}


def _drop_zero_norm_cosine(store, names):
    """cosine(x, x) is undefined on an all-zero field; swap in mean."""
    from repro.streaming import ops as stream_ops

    if "cosine_similarity" in names and stream_ops.l2_norm(store) == 0.0:
        return [n for n in names if n != "cosine_similarity"] or ["mean"]
    return names


class TestShardedMatchesSingleStore:
    @given(case=sharded_case())
    @hyp_settings(max_examples=30, deadline=None)
    def test_any_subset_bit_identical_served_and_swept(self, case):
        arrays, settings, slab_rows, names = case
        with _sharded(arrays, settings, slab_rows) as path:
            with ShardedStore(path) as sharded:
                names = _drop_zero_norm_cosine(sharded, names)
                with _single_copy(sharded, settings) as single:
                    reference = engine.plan(_expressions(names, single)).execute()

                # cold full sweep: partials disabled, every chunk decodes
                with ShardedStore(path, use_partials=False) as swept:
                    plan = engine.plan(_expressions(names, swept))
                    assert plan.execute() == reference
                    assert plan.last_execution["incremental_groups"] == 0
                    assert swept.chunks_read > 0

                # partial-served run: same scalars; a servable group decodes
                # nothing, a non-servable one sweeps every chunk exactly once
                served = engine.plan(_expressions(names, sharded))
                before = sharded.chunks_read
                assert served.execute() == reference
                if _servable(names):
                    assert served.last_execution["incremental_groups"] == 1
                    assert sharded.chunks_read - before == 0
                else:
                    assert served.last_execution["incremental_groups"] == 0
                    assert sharded.chunks_read - before == sharded.n_chunks

    def test_three_shard_region_reads_match_single_store_copy(self):
        """Region reads across three shards assemble the single-store bytes."""
        rng = np.random.default_rng(7)
        arrays = [
            np.cumsum(rng.standard_normal((rows, 12)), axis=0) * 0.05
            for rows in (24, 16, 10)
        ]
        settings = CompressionSettings(
            block_shape=(4, 4), float_format="float32", index_dtype="int16"
        )
        with _sharded(arrays, settings, 8) as path:
            with ShardedStore(path) as sharded:
                with _single_copy(sharded, settings) as single:
                    for region in (slice(0, 24), slice(20, 44), slice(3, 50, 2), 37):
                        assert np.array_equal(
                            sharded.load_region(region), single.load_region(region)
                        )
                    assert np.array_equal(sharded.load(), single.load())


class TestIncrementalEqualsColdSweep:
    @given(case=sharded_case())
    @hyp_settings(max_examples=20, deadline=None)
    def test_partials_after_appends_equal_cold_sweep(self, case):
        arrays, settings, slab_rows, names = case
        with _sharded(arrays, settings, slab_rows) as path:
            with ShardedStore(path, use_partials=False) as swept:
                names = _drop_zero_norm_cosine(swept, names)
                cold = engine.plan(_expressions(names, swept)).execute()
            with ShardedStore(path) as sharded:
                assert sharded.partials_fresh()
                plan = engine.plan(_expressions(names, sharded))
                assert plan.execute() == cold
                assert plan.last_execution["incremental_groups"] == (
                    1 if _servable(names) else 0
                )

    @given(case=sharded_case(), stale_last=st.booleans())
    @hyp_settings(max_examples=15, deadline=None)
    def test_stale_appends_fall_back_until_refreshed(self, case, stale_last):
        arrays, settings, slab_rows, names = case
        flags = [True] * len(arrays)
        flags[-1 if stale_last else 0] = False
        with _sharded(arrays, settings, slab_rows, partials=flags) as path:
            with ShardedStore(path, use_partials=False) as swept:
                names = _drop_zero_norm_cosine(swept, names)
                # keep the subset servable so fresh-vs-stale is observable
                names = [n for n in names if n not in _NON_SERVABLE] or ["mean"]
                cold = engine.plan(_expressions(names, swept)).execute()

            with ShardedStore(path) as stale:
                assert not stale.partials_fresh()
                assert stale.fold_state("square") is None
                plan = engine.plan(_expressions(names, stale))
                assert plan.execute() == cold  # clean fallback, same scalars
                assert plan.last_execution["incremental_groups"] == 0
                revision_before = stale.revision

            assert refresh_partials(path) == 1
            with ShardedStore(path) as fresh:
                assert fresh.partials_fresh()
                assert fresh.revision == revision_before  # content unchanged
                plan = engine.plan(_expressions(names, fresh))
                assert plan.execute() == cold
                assert plan.last_execution["incremental_groups"] == 1
