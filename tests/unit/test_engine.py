"""Unit tests for the lazy expression/plan engine (fusion, passes, errors)."""

import numpy as np
import pytest

from repro import engine
from repro.core import CompressionSettings, Compressor, ops
from repro.core.exceptions import CodecError
from repro.core.ops import folds
from repro.engine import expr
from repro.streaming import ChunkedCompressor, stream_compress
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
    def test_registry_is_declarative_and_complete(self):
        assert set(folds.FOLD_SPECS) == {
            "dc", "square", "product", "diff_square", "similarity",
            "centered_square", "centered_product",
        }
        assert folds.FOLD_SPECS["dc"].requires_dc
        assert not folds.FOLD_SPECS["dc"].touches_coefficients
        assert folds.FOLD_SPECS["centered_product"].centered
        assert folds.FOLD_SPECS["centered_product"].n_extra == 2
        assert folds.FOLD_SPECS["product"].n_extra == 0

    def test_evaluate_runs_spec_end_to_end(self, settings, fields):
        compressed = Compressor(settings).compress(fields[0])
        assert folds.evaluate("square", compressed) == ops.l2_norm(compressed)
        assert folds.evaluate("dc", compressed, padded=False) == (
            ops.mean(compressed, padded=False)
        )

    def test_evaluate_validates_arity_and_name(self, settings, fields):
        compressed = Compressor(settings).compress(fields[0])
        with pytest.raises(ValueError, match="operand"):
            folds.evaluate("product", compressed)
        with pytest.raises(KeyError, match="registered folds"):
            folds.get_fold_spec("nope")

    def test_evaluate_validates_extra_count(self, settings, fields):
        compressed = Compressor(settings).compress(fields[0])
        with pytest.raises(ValueError, match="extra argument"):
            folds.evaluate("centered_square", compressed)  # missing the DC mean
        with pytest.raises(ValueError, match="extra argument"):
            folds.evaluate("square", compressed, extra=(1.0,))


class TestPlanStructure:
    def test_single_pass_for_one_pass_subset(self, stores):
        store_a, store_b = stores
        plan = engine.plan({
            "mean": expr.mean(store_a),
            "l2": expr.l2_norm(store_a),
            "dot": expr.dot(store_a, store_b),
            "cos": expr.cosine_similarity(store_a, store_b),
        })
        assert plan.n_passes == 1
        assert plan.decode_passes == (1, 1)

    def test_two_passes_when_a_centered_op_is_present(self, stores):
        store_a, _ = stores
        plan = engine.plan({"mean": expr.mean(store_a),
                            "var": expr.variance(store_a)})
        assert plan.n_passes == 2
        assert plan.decode_passes == (2,)

    def test_shared_partials_deduplicate(self, stores):
        """dot+cosine share the product term; l2+cosine share the square term;
        mean+variance+covariance share the dc term."""
        store_a, store_b = stores
        plan = engine.plan({
            "dot": expr.dot(store_a, store_b),
            "cos": expr.cosine_similarity(store_a, store_b),
            "l2": expr.l2_norm(store_a),
            "mean": expr.mean(store_a),
            "var": expr.variance(store_a),
            "cov": expr.covariance(store_a, store_b),
        })
        pass1, pass2 = plan.passes
        names1 = sorted(name for name, _ in pass1.terms)
        # product once (dot+cos), square twice (a for l2+cos, b for cos),
        # dc twice (a for mean+var+cov, b for cov)
        assert names1 == ["dc", "dc", "product", "square", "square"]
        assert sorted(name for name, _ in pass2.terms) == [
            "centered_product", "centered_square",
        ]

    def test_unrelated_source_not_decoded_in_pass_two(self, stores):
        """A store only one-pass ops need is swept once even in a 2-pass plan."""
        store_a, store_b = stores
        plan = engine.plan({"var": expr.variance(store_a),
                            "l2b": expr.l2_norm(store_b)})
        assert plan.n_passes == 2
        assert plan.decode_passes == (2, 1)
        before = (store_a.chunks_read, store_b.chunks_read)
        plan.execute()
        assert store_a.chunks_read - before[0] == 2 * store_a.n_chunks
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
                assert len(plan.passes[0].groups) == 2
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

    def test_describe_names_passes_terms_and_outputs(self, stores):
        store_a, store_b = stores
        plan = engine.plan({"dot": expr.dot(store_a, store_b)})
        text = plan.describe()
        assert "pass 1" in text and "product" in text and "'dot'" in text
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

    def test_non_pyblaz_store_rejected(self, tmp_path, fields):
        with stream_compress(fields[0], tmp_path / "h.store", "huffman",
                             slab_rows=8) as store:
            with pytest.raises(CodecError, match="huffman"):
                engine.evaluate(expr.mean(store))

    def test_two_pass_plan_rejects_single_shot_generators(self, stores):
        store_a, _ = stores
        chunks = store_a.iter_chunks()
        with pytest.raises(ValueError, match="twice"):
            engine.evaluate(expr.variance(chunks))


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
        assert plan.n_passes == 1
        assert plan.decode_passes == (1, 1)
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


class TestCoefficientCacheIsStepScoped:
    def test_caller_owned_chunks_keep_no_cache_and_never_serve_stale_bits(
        self, stores
    ):
        """The shared coefficient cache must not outlive the fused chunk step:
        sequence sources are caller-owned, so a retained cache would both leak
        dense coefficients and return stale values after a later mutation."""
        store_a, _ = stores
        chunks = list(store_a.iter_chunks())
        fused = engine.evaluate({"l2": expr.l2_norm(chunks),
                                 "dot": expr.dot(chunks, chunks)})
        assert fused["l2"] > 0.0
        for chunk in chunks:
            assert not hasattr(chunk, "coefficients_cache")
        # mutating a chunk afterwards must be visible to later operations
        chunks[0].indices[...] = 0
        mutated = stream_ops.l2_norm(chunks)
        assert mutated != fused["l2"]


class TestStructuralOpsValidation:
    """Structural store ops validate their arguments before writing."""

    def test_scale_still_validates_factor_upfront(self, tmp_path, stores):
        store_a, _ = stores
        with pytest.raises(ValueError, match="finite"):
            stream_ops.scale(store_a, float("inf"), tmp_path / "x.pblzc")
        assert not (tmp_path / "x.pblzc").exists()


class TestOneStoreSweep:
    """Every plan pass reads its stores through the one prefetching reader."""

    def test_fused_two_pass_plan_is_served_from_the_callers_cache(self, stores):
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
        from repro.parallel import ThreadedExecutor

        store_a, _ = stores
        run = (engine.evaluate if entry == "evaluate"
               else lambda request, **kw: engine.plan(request).execute(**kw))
        with pytest.raises(TypeError, match="executor"):
            run(expr.mean(store_a), executor=ThreadedExecutor(2))
