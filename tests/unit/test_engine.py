"""Unit tests for the lazy expression/plan engine (fusion, passes, errors)."""

import dataclasses

import numpy as np
import pytest

from repro import engine
from repro.core import CompressionSettings, Compressor, ops
from repro.core.ops import folds
from repro.engine import expr
from repro.streaming import ChunkedCompressor
from repro.streaming import ops as stream_ops
from tests.conftest import smooth_field


@pytest.fixture
def settings() -> CompressionSettings:
    return CompressionSettings(block_shape=(4, 4), float_format="float32",
                               index_dtype="int16")


@pytest.fixture
def fields() -> tuple[np.ndarray, np.ndarray]:
    return smooth_field((37, 20), seed=7), smooth_field((37, 20), seed=11)


@pytest.fixture
def stores(tmp_path, settings, fields):
    chunked = ChunkedCompressor(settings, slab_rows=8)
    with chunked.compress_to_store(fields[0], tmp_path / "a.pblzc") as store_a:
        with chunked.compress_to_store(fields[1], tmp_path / "b.pblzc") as store_b:
            yield store_a, store_b


class TestFoldSpecs:
    def test_centered_partials_carry_dc_and_ac_sums(self, settings, fields):
        a, b = (Compressor(settings).compress(field) for field in fields)
        square = folds.centered_square_partial(a)
        product = folds.centered_product_partial(a, b)
        assert set(square.sums) == {"dc", "ac_square"}
        assert set(product.sums) == {"dc_a", "dc_b", "ac_product"}
        dc_a = a.first_coefficients().ravel()
        assert np.array_equal(square.sums["dc"][0], dc_a)
        assert np.array_equal(product.sums["dc_a"][0], dc_a)
        assert np.array_equal(product.sums["dc_b"][0], b.first_coefficients().ravel())
        # the AC sums leave the DC slot out: adding dc² back gives the square sum
        full = folds.square_partial(a).sums["square"][0]
        np.testing.assert_allclose(square.sums["ac_square"][0] + dc_a ** 2, full,
                                   rtol=1e-12)

    def test_evaluate_runs_reduction_end_to_end(self, settings, fields):
        compressed = Compressor(settings).compress(fields[0])
        assert folds.evaluate("l2_norm", compressed) == ops.l2_norm(compressed)
        assert folds.evaluate("mean", compressed, padded=False) == (
            ops.mean(compressed, padded=False)
        )

    def test_evaluate_validates_arity_and_name(self, settings, fields):
        compressed = Compressor(settings).compress(fields[0])
        with pytest.raises(ValueError, match="operand"):
            folds.evaluate("dot", compressed)
        with pytest.raises(ValueError, match="valid reductions"):
            folds.evaluate("nope", compressed)

    def test_evaluate_takes_only_the_rows_options(self, settings, fields):
        compressed = Compressor(settings).compress(fields[0])
        # centered folds need no precomputed DC mean any more
        assert folds.evaluate("variance", compressed) == ops.variance(compressed)
        with pytest.raises(ValueError, match="no option 'extra'"):
            folds.evaluate("l2_norm", compressed, extra=(1.0,))
        with pytest.raises(ValueError, match="must be a bool"):
            folds.evaluate("mean", compressed, padded="no")

    def test_evaluate_shares_one_term_between_equal_operands(
        self, settings, fields, monkeypatch
    ):
        compressed = Compressor(settings).compress(fields[0])
        calls = []
        spec = folds.FOLD_SPECS["square"]

        def counted(chunk):
            calls.append(chunk)
            return spec.partial(chunk)

        monkeypatch.setitem(folds.FOLD_SPECS, "square",
                            dataclasses.replace(spec, partial=counted))
        value = folds.evaluate("cosine_similarity", compressed, compressed)
        monkeypatch.undo()
        assert len(calls) == 1
        assert value == ops.cosine_similarity(compressed, compressed)


class TestPlanStructure:
    def test_single_pass_for_one_pass_subset(self, stores):
        store_a, store_b = stores
        plan = engine.plan({
            "mean": expr.mean(store_a),
            "l2": expr.l2_norm(store_a),
            "dot": expr.dot(store_a, store_b),
            "cos": expr.cosine_similarity(store_a, store_b),
        })
        assert len(plan.groups) == 1
        before = (store_a.chunks_read, store_b.chunks_read)
        plan.execute()
        assert store_a.chunks_read - before[0] == store_a.n_chunks
        assert store_b.chunks_read - before[1] == store_b.n_chunks

    def test_one_pass_when_a_centered_op_is_present(self, stores):
        store_a, _ = stores
        plan = engine.plan({"mean": expr.mean(store_a),
                            "var": expr.variance(store_a)})
        assert len(plan.groups) == 1
        before = store_a.chunks_read
        plan.execute()
        assert store_a.chunks_read - before == store_a.n_chunks

    def test_shared_partials_deduplicate(self, stores):
        """dot+cosine share the product term; l2+cosine share the square term;
        variance+standard deviation share the centered-square term."""
        store_a, store_b = stores
        plan = engine.plan({
            "dot": expr.dot(store_a, store_b),
            "cos": expr.cosine_similarity(store_a, store_b),
            "l2": expr.l2_norm(store_a),
            "mean": expr.mean(store_a),
            "var": expr.variance(store_a),
            "std": expr.standard_deviation(store_a),
            "cov": expr.covariance(store_a, store_b),
        })
        (sweep,) = plan.groups
        # product once (dot+cos), square twice (a for l2+cos, b for cos),
        # centered_square once (var+std), dc once (mean), centered_product once
        assert sorted(name for name, _ in sweep.terms) == [
            "centered_product", "centered_square", "dc", "product", "square",
            "square",
        ]

    def test_every_source_is_decoded_once_with_centered_ops(self, stores):
        """Centered statistics no longer add a second sweep of their store."""
        store_a, store_b = stores
        plan = engine.plan({"var": expr.variance(store_a),
                            "cov": expr.covariance(store_a, store_b),
                            "l2b": expr.l2_norm(store_b)})
        assert len(plan.groups) == 1
        before = (store_a.chunks_read, store_b.chunks_read)
        plan.execute()
        assert store_a.chunks_read - before[0] == store_a.n_chunks
        assert store_b.chunks_read - before[1] == store_b.n_chunks

    def test_unrelated_sources_fuse_across_shapes_and_chunkings(
        self, tmp_path, settings
    ):
        """Independent reductions group into separate sweeps, so sources with
        different shapes or chunkings fuse fine (matching the sequential calls
        bit for bit); only reductions *sharing* a source require alignment."""
        chunked_8 = ChunkedCompressor(settings, slab_rows=8)
        chunked_4 = ChunkedCompressor(settings, slab_rows=4)
        a = smooth_field((40, 24), seed=1)
        b = smooth_field((24, 16), seed=2)   # different shape AND chunking
        with chunked_8.compress_to_store(a, tmp_path / "a.pblzc") as store_a:
            with chunked_4.compress_to_store(b, tmp_path / "b.pblzc") as store_b:
                plan = engine.plan({
                    "mean_a": expr.mean(store_a),
                    "var_b": expr.variance(store_b),
                })
                assert len(plan.groups) == 2
                results = plan.execute()
                assert results["mean_a"] == stream_ops.mean(store_a)
                assert results["var_b"] == stream_ops.variance(store_b)
                # sharing a source still demands matching geometry
                with pytest.raises(ValueError, match="shapes"):
                    engine.evaluate(expr.dot(store_a, store_b))

    def test_pruned_dc_store_fails_fast_for_mean(self, tmp_path, fields):
        mask = np.ones((4, 4), dtype=bool)
        mask[0, 0] = False  # prune the DC coefficient
        pruned = CompressionSettings(block_shape=(4, 4), float_format="float32",
                                     index_dtype="int16", pruning_mask=mask)
        with ChunkedCompressor(pruned, slab_rows=8).compress_to_store(
            fields[0], tmp_path / "p.pblzc"
        ) as store:
            with pytest.raises(ValueError, match="first coefficient"):
                engine.evaluate(expr.mean(store))
            # DC-free reductions still work on the same store
            assert engine.evaluate(expr.l2_norm(store)) > 0.0

    def test_describe_names_groups_terms_and_outputs(self, stores):
        store_a, store_b = stores
        plan = engine.plan({"dot": expr.dot(store_a, store_b)})
        text = plan.describe()
        assert "1 sweep group(s)" in text and "decode [s0, s1] once per chunk" in text
        assert "product" in text and "'dot'" in text
        assert "CompressedStore" in text

    def test_request_shapes(self, stores):
        store_a, _ = stores
        scalar = engine.evaluate(expr.l2_norm(store_a))
        assert isinstance(scalar, float)
        listed = engine.evaluate([expr.l2_norm(store_a), expr.mean(store_a)])
        assert listed == [scalar, engine.evaluate(expr.mean(store_a))]
        mapped = engine.evaluate({"n": expr.l2_norm(store_a)})
        assert mapped == {"n": scalar}


class TestPlanErrors:
    def test_array_valued_expressions_are_rejected(self, stores):
        store_a, store_b = stores
        with pytest.raises(TypeError, match="streaming.ops"):
            engine.plan(expr.add(store_a, store_b))

    def test_reduction_operands_must_be_array_valued(self, stores):
        store_a, _ = stores
        with pytest.raises(TypeError, match="scalar-valued"):
            expr.l2_norm(expr.mean(store_a))

    def test_empty_request_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            engine.plan({})
        with pytest.raises(TypeError, match="expression"):
            engine.plan(42)

    def test_single_shot_generators_equal_store_results(self, stores):
        """One sweep per plan: a one-shot chunk generator is a full source."""
        store_a, store_b = stores
        for build in (expr.variance, expr.standard_deviation):
            expected = engine.evaluate(build(store_a))
            assert engine.evaluate(build(store_a.iter_chunks())) == expected
        expected = engine.evaluate(expr.covariance(store_a, store_b))
        value = engine.evaluate(expr.covariance(store_a.iter_chunks(),
                                                store_b.iter_chunks()))
        assert value == expected


class TestStructuralNodesFeedReductions:
    """Structural expr nodes feed folds without materializing stores, matching
    the in-memory composition bit for bit (no serialization rounding)."""

    def test_mean_of_virtual_add(self, stores):
        store_a, store_b = stores
        ca, cb = store_a.load_compressed(), store_b.load_compressed()
        value = engine.evaluate(expr.mean(expr.add(store_a, store_b)))
        assert value == ops.mean(ops.add(ca, cb))

    def test_variance_of_virtual_scale(self, stores):
        store_a, _ = stores
        ca = store_a.load_compressed()
        value = engine.evaluate(expr.variance(expr.scale(store_a, -1.5)))
        assert value == ops.variance(ops.multiply_scalar(ca, -1.5))

    def test_dot_of_virtual_negate_and_subtract(self, stores):
        store_a, store_b = stores
        ca, cb = store_a.load_compressed(), store_b.load_compressed()
        value = engine.evaluate(
            expr.dot(expr.negate(store_a), expr.subtract(store_a, store_b))
        )
        assert value == ops.dot(ops.negate(ca), ops.subtract(ca, cb))

    def test_shared_structural_subexpression_evaluates_once(self, stores):
        """Equal add(a, b) nodes built twice plan as one slot (structural keys)."""
        store_a, store_b = stores
        plan = engine.plan({
            "m": expr.mean(expr.add(store_a, store_b)),
            "n": expr.l2_norm(expr.add(store_a, store_b)),
        })
        assert len(plan.groups) == 1
        before = (store_a.chunks_read, store_b.chunks_read)
        plan.execute()
        assert store_a.chunks_read - before[0] == store_a.n_chunks
        assert store_b.chunks_read - before[1] == store_b.n_chunks
        # one add node in the program despite two separately built expressions
        program = plan._program
        assert sum(1 for entry in program if entry[0] == "add") == 1

    def test_no_intermediate_store_is_written(self, tmp_path, stores):
        store_a, store_b = stores
        on_disk_before = sorted(tmp_path.iterdir())
        engine.evaluate(expr.l2_norm(expr.subtract(store_a, store_b)))
        assert sorted(tmp_path.iterdir()) == on_disk_before


class TestDotOfSourceWithItself:
    def test_self_dot_matches_l2_norm_squared_fold(self, stores):
        store_a, _ = stores
        ca = store_a.load_compressed()
        assert engine.evaluate(expr.dot(store_a, store_a)) == ops.dot(ca, ca)


class TestNoStepMaterialisesBlockedCoefficients:
    def test_folds_and_subtract_work_on_the_kept_matrices(
        self, stores, monkeypatch
    ):
        """A step feeding folds and a structural ``subtract`` never builds the
        blocked, padded coefficient array, and the results keep their bits."""
        import importlib

        from repro.core.compressed import CompressedArray
        from repro.streaming import steps as steps_module

        plan_module = importlib.import_module("repro.engine.plan")

        store_a, store_b = stores
        chunks_a, chunks_b = list(store_a.iter_chunks()), list(store_b.iter_chunks())
        ca, cb = store_a.load_compressed(), store_b.load_compressed()
        materialised = []
        original = CompressedArray.specified_coefficients

        def counting(chunk):
            materialised.append(chunk)
            return original(chunk)

        swept = []

        def recording(chunk_tuples, capacity=None):
            for step in steps_module.fold_steps(chunk_tuples, capacity):
                swept.append(step)
                yield step

        # chunks of 8, 8, 8, 8 and 5 rows (10 blocks each); two chunks a step
        per_chunk = chunks_a[0].indices.size
        monkeypatch.setattr(steps_module, "STEP_COEFFICIENTS", 2 * per_chunk)
        monkeypatch.setattr(plan_module, "fold_steps", recording)
        monkeypatch.setattr(CompressedArray, "specified_coefficients", counting)
        fused = engine.evaluate({
            "dot": expr.dot(chunks_a, chunks_b),
            "variance": expr.variance(chunks_a),
            "distance": expr.euclidean_distance(chunks_a, chunks_b),
            "drift": expr.mean(expr.subtract(chunks_a, chunks_b)),
        })
        monkeypatch.undo()
        assert [step[0].shape[0] for step in swept] == [16, 16, 5]
        assert materialised == []
        assert fused["dot"] == ops.dot(ca, cb)
        assert fused["variance"] == ops.variance(ca)
        assert fused["distance"] == ops.euclidean_distance(ca, cb)
        assert fused["drift"] == ops.mean(ops.subtract(ca, cb))


class TestStepSumsAreStepScoped:
    def test_caller_owned_chunks_never_serve_stale_sums(self, stores):
        """Row sums shared within a fold step must not outlive it: sequence
        sources are caller-owned, so a retained sum would return stale values
        after a later mutation."""
        store_a, _ = stores
        chunks = list(store_a.iter_chunks())
        fused = engine.evaluate({"l2": expr.l2_norm(chunks),
                                 "dot": expr.dot(chunks, chunks),
                                 "variance": expr.variance(chunks)})
        assert fused["l2"] > 0.0
        from repro.core.ops import coefficients

        assert coefficients._STEP_SHARED.get() is None
        # mutating a chunk afterwards must be visible to later operations
        chunks[0].indices[...] = 0
        mutated = stream_ops.l2_norm(chunks)
        assert mutated != fused["l2"]
        assert ops.l2_norm(chunks[0]) == 0.0


class TestStructuralOpsValidation:
    """Structural store ops validate their arguments before writing."""

    def test_scale_still_validates_factor_upfront(self, tmp_path, stores):
        store_a, _ = stores
        with pytest.raises(ValueError, match="finite"):
            stream_ops.scale(store_a, float("inf"), tmp_path / "x.pblzc")
        assert not (tmp_path / "x.pblzc").exists()


class TestStepMemo:
    """Block scales and DC vectors are taken once per fold step."""

    @staticmethod
    def scan_request(a, b) -> dict:
        """The nine reductions of the benchmark's scan plan over ``a`` and ``b``."""
        a, b = expr.source(a), expr.source(b)
        return {
            "mean_a": expr.mean(a), "variance_a": expr.variance(a),
            "std_b": expr.standard_deviation(b), "covariance_ab": expr.covariance(a, b),
            "dot_ab": expr.dot(a, b), "l2_b": expr.l2_norm(b),
            "distance_ab": expr.euclidean_distance(a, b),
            "cosine_ab": expr.cosine_similarity(a, b),
            "mean_a_minus_b": expr.mean(expr.subtract(a, b)),
        }

    def test_scales_and_dc_once_per_step_with_the_same_bits(self, stores, monkeypatch):
        from collections import Counter

        from repro.core.ops import coefficients

        request = self.scan_request(*stores)
        # the reference shares nothing within a step: every helper recomputes
        monkeypatch.setattr(coefficients, "step_memo", lambda key, compute: compute())
        monkeypatch.setattr(folds, "step_memo", lambda key, compute: compute())
        unshared = engine.plan(request).execute()
        monkeypatch.undo()

        computed: Counter = Counter()
        shared_memo = coefficients.step_memo

        def counting(key, compute):
            def counted():
                computed[key[0]] += 1
                return compute()
            return shared_memo(key, counted)

        steps = []
        run_terms = folds.run_terms

        def counted_step(values, terms):
            steps.append(len(terms))
            return run_terms(values, terms)

        monkeypatch.setattr(coefficients, "step_memo", counting)
        monkeypatch.setattr(folds, "step_memo", counting)
        monkeypatch.setattr(folds, "run_terms", counted_step)
        shared = engine.plan(request).execute()
        assert {key: value.hex() for key, value in shared.items()} == {
            key: value.hex() for key, value in unshared.items()}
        assert steps
        # the sources a and b; the DC-only a − b node carries no scaled columns
        assert computed["scales"] == 2 * len(steps)
        # a (mean, variance, covariance), b (covariance) and the a − b node
        assert computed["dc"] == 3 * len(steps)

    def test_outside_a_step_every_call_is_fresh(self, settings, fields):
        from repro.core.ops import coefficients

        compressed = Compressor(settings).compress(fields[0])
        first = coefficients.block_scales(compressed)
        assert coefficients.block_scales(compressed) is not first
        assert np.array_equal(coefficients.block_scales(compressed), first)
        dc = folds.dc_partial(compressed).sums["dc"][0]
        assert folds.dc_partial(compressed).sums["dc"][0] is not dc


class TestOneStoreSweep:
    """Every plan pass reads its stores through the one prefetching reader."""

    def test_fused_centered_plan_is_served_from_the_callers_cache(self, stores):
        from repro.serving import ChunkCache

        store_a, store_b = stores
        store_a.chunk_cache = cache_a = ChunkCache()
        store_b.chunk_cache = cache_b = ChunkCache()
        request = {"mean": expr.mean(store_a), "cov": expr.covariance(store_a, store_b)}
        first = engine.evaluate(request)
        misses = (cache_a.misses, cache_b.misses)
        hits = (cache_a.hits, cache_b.hits)
        assert engine.evaluate(request) == first
        assert (cache_a.misses, cache_b.misses) == misses
        assert cache_a.hits - hits[0] >= store_a.n_chunks
        assert cache_b.hits - hits[1] >= store_b.n_chunks

    @pytest.mark.parametrize("entry", ["evaluate", "execute"])
    def test_executor_keyword_is_gone(self, stores, entry):
        store_a, _ = stores
        run = (engine.evaluate if entry == "evaluate"
               else lambda request, **kw: engine.plan(request).execute(**kw))
        with pytest.raises(TypeError, match="executor"):
            run(expr.mean(store_a), executor=object())
