"""Property: batched fold steps keep every answer's bits at any step budget.

The engine stacks consecutive aligned chunks into fold steps of at most
:data:`repro.streaming.steps.STEP_COEFFICIENTS` kept coefficients per source
and runs each term's partial once per step.  Swept here by Hypothesis over
1–3 dimensions, three budgets and three source kinds:

* budgets — one block (every chunk is its own uncopied step: the
  chunk-at-a-time sweep), a few chunks' worth, and the default;
* sources — a single store whose last slab is ragged, a sharded store whose
  shards end in short slabs (the last one ragged), and in-memory chunk lists
  cut at any rows (ragged chunks mid-list) whose index dtype changes every
  two chunks (a settings change closes a step).

Every :data:`~repro.core.ops.folds.REDUCTION_SPECS` row plus
``mean(subtract(a, b))`` must be bit-identical across the budgets, and a plan
must call each term's partial exactly once per step.
"""

import dataclasses
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from repro import engine
from repro.core import CompressionSettings, Compressor
from repro.core.ops import folds
from repro.engine import expr
from repro.streaming import (ChunkedCompressor, ShardedStore, append_shard,
                             init_sharded_store, steps)


@st.composite
def step_case(draw):
    """Two arrays with a ragged last block row, settings and chunkings."""
    ndim = draw(st.integers(1, 3))
    extents = {1: (2,), 2: (2, 4), 3: (2, 2, 4)}[ndim]
    block = draw(st.sampled_from([extents, tuple(reversed(extents))]))
    settings = CompressionSettings(
        block_shape=block, float_format="float32",
        index_dtype=draw(st.sampled_from(["int8", "int16", "int32"])),
    )
    grid_rows = draw(st.integers(2, 12))
    rows = grid_rows * block[0] - 1  # the last slab of every kind is ragged
    tail = tuple(draw(st.integers(1, 9)) for _ in range(ndim - 1))
    slab_grid_rows = draw(st.integers(1, 4))
    # shard boundaries sit on block rows; in-memory chunk edges anywhere
    shard_cuts = sorted(draw(st.sets(st.integers(1, grid_rows - 1), max_size=3)))
    chunk_cuts = sorted(draw(st.sets(st.integers(1, rows - 1), max_size=6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    shape = (rows,) + tail
    a = np.cumsum(rng.standard_normal(shape), axis=0) * 0.05
    b = np.cumsum(rng.standard_normal(shape), axis=0) * 0.05
    cuts = {"sharded": [cut * block[0] for cut in shard_cuts], "chunks": chunk_cuts}
    return a, b, settings, slab_grid_rows * block[0], cuts


def _pieces(array, cuts):
    """``array`` split along axis 0 at the given rows."""
    return np.split(array, cuts, axis=0)


def _sources(kind, a, b, settings, slab_rows, cuts, workdir):
    """One source pair of the given kind (stores opened; caller closes)."""
    if kind == "single":
        chunked = ChunkedCompressor(settings, slab_rows=slab_rows)
        return tuple(chunked.compress_to_store(array, workdir / f"{name}.pblzc")
                     for name, array in (("a", a), ("b", b)))
    if kind == "sharded":
        # shards cut at uneven block rows: a shard ends in a short slab
        # wherever its cut is off the slab grid, and the last one is ragged
        opened = []
        for name, array in (("a", a), ("b", b)):
            path = workdir / f"{name}.shards"
            first, *rest = _pieces(array, cuts["sharded"])
            init_sharded_store(path, first, settings,
                               slab_rows=slab_rows).close()
            for piece in rest:
                append_shard(path, piece, slab_rows=slab_rows).close()
            opened.append(ShardedStore(path, use_partials=False))
        return tuple(opened)
    other = settings.with_(
        index_dtype="int16" if settings.index_dtype == np.int8 else "int8")
    compressors = (Compressor(settings), Compressor(other))
    return tuple([compressors[index // 2 % 2].compress(piece)
                  for index, piece in enumerate(_pieces(array, cuts["chunks"]))]
                 for array in (a, b))


def _rows(x, y) -> dict:
    """Every reduction row, over leaf sources only."""
    return {name: getattr(expr, name)(*(x, y)[:spec.arity])
            for name, spec in folds.REDUCTION_SPECS.items()}


def _request(x, y) -> dict:
    """Every reduction row plus one fed by a structural node."""
    return {**_rows(x, y), "mean_a_minus_b": expr.mean(expr.subtract(x, y))}


def _chunks(source) -> list:
    return source if isinstance(source, list) else list(source.iter_chunks())


def _expected_steps(chunks, capacity) -> int:
    """The step count the closing rules give for one source's chunks."""
    count = filled = 0
    settings = None
    for chunk in chunks:
        size = chunk.indices.size
        if filled and (filled + size > capacity or chunk.settings != settings):
            count, filled = count + 1, 0
        if size > capacity:
            count += 1
            continue
        filled, settings = filled + size, chunk.settings
        if chunk.shape[0] % settings.block_shape[0]:
            count, filled = count + 1, 0
    return count + (filled > 0)


def _counting_partials(monkeypatch, calls: list) -> None:
    for name, spec in list(folds.FOLD_SPECS.items()):
        def counted(*chunks, _name=name, _partial=spec.partial):
            calls.append(_name)
            return _partial(*chunks)
        monkeypatch.setitem(folds.FOLD_SPECS, name,
                            dataclasses.replace(spec, partial=counted))


class TestStepBudgetInvariance:
    @pytest.mark.parametrize("kind", ["single", "sharded", "chunks"])
    @given(case=step_case())
    @hyp_settings(max_examples=25, deadline=None)
    def test_every_reduction_keeps_its_bits_at_every_budget(self, kind, case):
        a, b, settings, slab_rows, cuts = case
        one_block = settings.kept_per_block
        chunk = -(-slab_rows // settings.block_shape[0]) * one_block * math.prod(
            -(-extent // block) for extent, block
            in zip(a.shape[1:], settings.block_shape[1:]))
        budgets = (one_block, 3 * chunk, steps.STEP_COEFFICIENTS)
        with tempfile.TemporaryDirectory(prefix="fold_steps_") as tmp:
            x, y = _sources(kind, a, b, settings, slab_rows, cuts, Path(tmp))
            try:
                if kind != "chunks":
                    assert _chunks(x)[-1].shape[0] % settings.block_shape[0] != 0
                answers = {}
                for budget in budgets:
                    with pytest.MonkeyPatch.context() as patch:
                        patch.setattr(steps, "STEP_COEFFICIENTS", budget)
                        answers[budget] = (engine.plan(_rows(x, y)).execute(),
                                           engine.evaluate(_request(x, y)))
                        calls: list = []
                        _counting_partials(patch, calls)
                        plan = engine.plan(_request(x, y))
                        assert plan.execute() == answers[budget][1]
                        expected = _expected_steps(_chunks(x), budget)
                        n_terms = sum(len(group.terms) for group in plan.groups)
                        assert len(calls) == n_terms * expected
                for budget in budgets[1:]:
                    assert answers[budget] == answers[one_block]
            finally:
                for source in (x, y):
                    if not isinstance(source, list):
                        source.close()


class TestPartialCallsPerPlan:
    def test_scan_shaped_plan_calls_each_partial_once_per_step(
        self, tmp_path, monkeypatch
    ):
        """16 chunks of 4 blocks, four chunks a step: 4 steps, not 16."""
        settings = CompressionSettings(block_shape=(4, 4), float_format="float32",
                                       index_dtype="int16")
        rng = np.random.default_rng(17)
        chunked = ChunkedCompressor(settings, slab_rows=4)
        x, y = (chunked.compress_to_store(
            np.cumsum(rng.standard_normal((64, 16)), axis=0), tmp_path / name)
            for name in ("a.pblzc", "b.pblzc"))
        with x, y:
            assert x.n_chunks == 16
            per_chunk = 4 * settings.kept_per_block
            monkeypatch.setattr(steps, "STEP_COEFFICIENTS", 4 * per_chunk)
            calls: list = []
            _counting_partials(monkeypatch, calls)
            plan = engine.plan(_request(x, y))
            plan.execute()
            (group,) = plan.groups
            assert len(group.terms) == 8
            assert len(calls) == 8 * 4
            assert x.chunks_read == y.chunks_read == 16

