"""Unit tests for the compiled fused-pass layer (:mod:`repro.engine.compile`).

Covers the lowering gate (what may become one kernel, what must stay
interpreted), the signature-keyed kernel cache, backend resolution and
fallback recording, numerical parity of the ``gemm`` compiled path against
the bit-exact reference sweep, the numba backend's generated loop run as
plain Python, the executing-backend surface in ``Plan.describe()`` /
``Plan.last_execution``, and the ``stream-ops evaluate --backend … --json``
CLI contract.
"""

import json

import numpy as np
import pytest

from repro import engine
from repro.cli import main as cli_main
from repro.core.exceptions import CodecError
from repro.core import CompressionSettings, Compressor
from repro.core.ops import folds
from repro.engine import compile as plan_compile
from repro.engine import expr
from repro.kernels import backend_is_available
from repro.kernels.gemm import GemmKernel, fused_fold_tolerance
from repro.kernels.numba_backend import _fused_pass_source
from repro.streaming import ChunkedCompressor

SIX_OPS = ("mean", "variance", "l2_norm", "dot", "covariance",
           "cosine_similarity")


def _store_pair(tmp_path, shape=(48, 20), slab_rows=8, settings=None):
    if settings is None:
        settings = CompressionSettings(
            block_shape=(4, 4), float_format="float32", index_dtype="int16"
        )
    rng = np.random.default_rng(11)
    a = np.cumsum(rng.standard_normal(shape), axis=0) * 0.05
    b = np.cumsum(rng.standard_normal(shape), axis=0) * 0.05
    chunked = ChunkedCompressor(settings, slab_rows=slab_rows)
    return (chunked.compress_to_store(a, tmp_path / "a.pblzc"),
            chunked.compress_to_store(b, tmp_path / "b.pblzc"))


def _six_op_plan(store_a, store_b, backend=None):
    x, y = expr.source(store_a), expr.source(store_b)
    return engine.plan({
        "mean": expr.mean(x),
        "variance": expr.variance(x),
        "l2_norm": expr.l2_norm(x),
        "dot": expr.dot(x, y),
        "covariance": expr.covariance(x, y),
        "cosine_similarity": expr.cosine_similarity(x, y),
    }, backend=backend)


class TestLoweringGate:
    def test_leaf_source_terms_lower(self):
        program = (("source", 0), ("source", 1))
        terms = (("square", (0,)), ("product", (0, 1)), ("dc", (1,)))
        lowering = plan_compile.lower_terms(program, terms, (0, 1))
        assert lowering is not None
        assert lowering.terms == (("square", (0,)), ("product", (0, 1)),
                                  ("dc", (1,)))
        assert lowering.n_sources == 2

    def test_centered_terms_lower_without_a_flag(self):
        program = (("source", 0), ("source", 1))
        terms = (("centered_product", (0, 1)),)
        lowering = plan_compile.lower_terms(program, terms, (0, 1))
        assert lowering is not None
        assert lowering.terms == terms
        assert not hasattr(lowering, "centered")

    def test_structural_operand_stays_interpreted(self):
        program = (("source", 0), ("source", 1), ("add", 0, 1))
        terms = (("dc", (2,)),)
        assert plan_compile.lower_terms(program, terms, (0, 1)) is None

    def test_every_fold_lowers_over_leaf_sources(self):
        program = (("source", 0), ("source", 1))
        terms = tuple((name, (0, 1)[:spec.arity])
                      for name, spec in folds.FOLD_SPECS.items())
        lowering = plan_compile.lower_terms(program, terms, (0, 1))
        assert lowering is not None and lowering.terms == terms

    def test_mixed_centered_and_uncentered_lower_together(self):
        program = (("source", 0),)
        terms = (("centered_square", (0,)), ("square", (0,)))
        lowering = plan_compile.lower_terms(program, terms, (0,))
        assert lowering is not None and lowering.terms == terms

    def test_pruned_dc_refuses_signature(self):
        mask = np.ones((4, 4), dtype=bool)
        mask[0, 0] = False  # drop the DC coefficient
        pruned = CompressionSettings(
            block_shape=(4, 4), float_format="float32", index_dtype="int16",
            pruning_mask=mask,
        )
        kept = CompressionSettings(
            block_shape=(4, 4), float_format="float32", index_dtype="int16"
        )
        lowering = plan_compile.lower_terms(
            (("source", 0),), (("dc", (0,)),), (0,)
        )
        assert plan_compile.signature_for(lowering, pruned) is None
        assert plan_compile.signature_for(lowering, kept) is not None

    def test_square_without_dc_lowers_even_when_pruned(self):
        mask = np.ones((4, 4), dtype=bool)
        mask[0, 0] = False
        pruned = CompressionSettings(
            block_shape=(4, 4), float_format="float32", index_dtype="int16",
            pruning_mask=mask,
        )
        lowering = plan_compile.lower_terms(
            (("source", 0),), (("square", (0,)),), (0,)
        )
        assert plan_compile.signature_for(lowering, pruned) is not None


class TestKernelCache:
    def test_cache_hit_reports_zero_compile_seconds(self, tmp_path):
        plan_compile.clear_kernel_cache()
        store_a, store_b = _store_pair(tmp_path)
        with store_a, store_b:
            plan = _six_op_plan(store_a, store_b)
            plan.execute(backend="gemm")
            first = dict(plan.last_execution)
            size_after_first = plan_compile.kernel_cache_info()["size"]
            plan.execute(backend="gemm")
            second = dict(plan.last_execution)
        assert first["compiled_groups"] > 0
        assert second["compile_seconds"] == 0.0
        # re-execution reuses every kernel: the cache did not grow
        assert plan_compile.kernel_cache_info()["size"] == size_after_first
        assert size_after_first == 1  # one kernel for the plan's one sweep

    def test_signature_captures_dtype(self):
        lowering = plan_compile.lower_terms(
            (("source", 0),), (("square", (0,)),), (0,)
        )
        signatures = {
            plan_compile.signature_for(lowering, CompressionSettings(
                block_shape=(4, 4), float_format="float32", index_dtype=dtype
            ))
            for dtype in ("int8", "int16")
        }
        assert len(signatures) == 2


class TestBackendResolution:
    def test_unknown_backend_raises(self, tmp_path):
        store_a, store_b = _store_pair(tmp_path)
        with store_a, store_b:
            plan = _six_op_plan(store_a, store_b)
            with pytest.raises(CodecError):
                plan.execute(backend="no-such-backend")
            with pytest.raises(CodecError):
                engine.plan({"m": expr.mean(store_a)}, backend="no-such-backend")

    def test_default_is_reference_and_recorded(self, tmp_path):
        store_a, store_b = _store_pair(tmp_path)
        with store_a, store_b:
            plan = _six_op_plan(store_a, store_b)
            plan.execute()
            stats = plan.last_execution
        assert stats["backend"] == "reference"
        assert stats["fallback_reason"] is None
        assert stats["compiled_groups"] == 0

    def test_unavailable_backend_falls_back_bit_identical(self, tmp_path):
        if backend_is_available("numba"):
            pytest.skip("numba installed: no fallback to exercise")
        store_a, store_b = _store_pair(tmp_path)
        with store_a, store_b:
            plan = _six_op_plan(store_a, store_b)
            reference = plan.execute()
            via_numba = plan.execute(backend="numba")
            stats = plan.last_execution
        assert via_numba == reference  # fell back to the bit-exact sweep
        assert stats["backend"] == "reference"
        assert stats["requested_backend"] == "numba"
        assert "numba unavailable" in stats["fallback_reason"]

    def test_plan_default_backend_used_when_execute_unspecified(self, tmp_path):
        store_a, store_b = _store_pair(tmp_path)
        with store_a, store_b:
            plan = _six_op_plan(store_a, store_b, backend="gemm")
            plan.execute()
            assert plan.last_execution["backend"] == "gemm"
            plan.execute(backend="reference")
            assert plan.last_execution["backend"] == "reference"


class TestCompiledParity:
    def test_gemm_six_ops_within_tolerance_mean_bitwise(self, tmp_path):
        store_a, store_b = _store_pair(tmp_path)
        with store_a, store_b:
            plan = _six_op_plan(store_a, store_b)
            reference = plan.execute()
            compiled = plan.execute(backend="gemm")
            stats = plan.last_execution
        assert stats["backend"] == "gemm"
        assert stats["compiled_groups"] == 1
        assert stats["interpreted_groups"] == 0
        assert compiled["mean"] == reference["mean"]  # dc path: bit-identical
        for name in SIX_OPS:
            assert compiled[name] == pytest.approx(reference[name],
                                                   rel=1e-12), name

    def test_structural_group_interprets_but_matches(self, tmp_path):
        store_a, store_b = _store_pair(tmp_path)
        with store_a, store_b:
            x, y = expr.source(store_a), expr.source(store_b)
            # disjoint source sets -> two groups: the scale() group must
            # interpret (structural rebinning), the pure-source group compiles
            plan = engine.plan({"m": expr.mean(expr.scale(x, 2.0)),
                                "n": expr.l2_norm(y)})
            reference = plan.execute()
            compiled = plan.execute(backend="gemm")
            stats = plan.last_execution
        assert stats["interpreted_groups"] > 0
        assert stats["compiled_groups"] > 0
        assert compiled["m"] == reference["m"]
        assert compiled["n"] == pytest.approx(reference["n"], rel=1e-12)


class TestDescribe:
    def test_describe_names_backend_and_term_counts(self, tmp_path):
        store_a, store_b = _store_pair(tmp_path)
        with store_a, store_b:
            plan = _six_op_plan(store_a, store_b)
            text = plan.describe()
            assert "backend=reference" in text
            plan.execute(backend="gemm")
            text = plan.describe()
            assert "backend=gemm" in text
            # one-pass six-op plan: dc, square x2, product and the two
            # centered terms, all deduplicated into one sweep group
            assert "plan: 1 pass(es)" in text
            assert "pass 1: 6 term(s) in 1 group(s)" in text
            assert "pass 2" not in text

    def test_describe_reflects_plan_default_backend(self, tmp_path):
        store_a, store_b = _store_pair(tmp_path)
        with store_a, store_b:
            plan = _six_op_plan(store_a, store_b, backend="gemm")
            assert "backend=gemm" in plan.describe()


class TestCliEvaluateBackend:
    def test_json_reports_backend_and_describe(self, tmp_path, capsys):
        settings = CompressionSettings(
            block_shape=(4, 4), float_format="float32", index_dtype="int16"
        )
        rng = np.random.default_rng(5)
        probe = np.cumsum(rng.standard_normal((32, 12)), axis=0) * 0.05
        chunked = ChunkedCompressor(settings, slab_rows=8)
        chunked.compress_to_store(probe, tmp_path / "a.pblzc").close()
        chunked.compress_to_store(probe * 0.5, tmp_path / "b.pblzc").close()
        code = cli_main([
            "stream-ops", "evaluate", str(tmp_path / "a.pblzc"),
            str(tmp_path / "b.pblzc"), "--op", "mean", "--op", "variance",
            "--op", "dot", "--backend", "gemm", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["backend"] == "gemm"
        assert payload["backend_fallback"] is None
        assert payload["compiled_groups"] == 1
        assert payload["interpreted_groups"] == 0
        assert payload["compile_seconds"] >= 0.0
        assert "backend=gemm" in payload["describe"]
        assert "pass 1:" in payload["describe"]
        assert set(payload["operations"]) == {"mean", "variance", "dot"}

    def test_backend_rejected_for_array_ops(self, tmp_path, capsys):
        settings = CompressionSettings(
            block_shape=(4, 4), float_format="float32", index_dtype="int16"
        )
        probe = np.linspace(0.0, 1.0, 32 * 12).reshape(32, 12)
        chunked = ChunkedCompressor(settings, slab_rows=8)
        chunked.compress_to_store(probe, tmp_path / "a.pblzc").close()
        code = cli_main([
            "stream-ops", "negate", str(tmp_path / "a.pblzc"),
            "--out", str(tmp_path / "neg.pblzc"), "--backend", "gemm",
        ])
        assert code == 2


class TestFusedPassCodegenWithoutNumba:
    """The numba backend's generated loop, run as plain Python (``prange`` =
    ``range``), matches the gemm kernel and the interpreted partials — the
    codegen is checked even where numba is not installed."""

    TERM_SETS = [
        (("dc", (0,)), ("centered_square", (0,)), ("square", (0,)),
         ("product", (0, 1)), ("centered_product", (0, 1)), ("square", (1,))),
        (("diff_square", (0, 1)), ("centered_product", (1, 0)), ("dc", (1,))),
        (("centered_square", (1,)),),
    ]

    @staticmethod
    def _generated(signature, chunks):
        namespace = {"prange": range}
        exec(compile(_fused_pass_source(signature), "<fused-pass>", "exec"),
             namespace)
        radius = float(signature.index_radius)
        args = []
        for chunk in chunks:
            args += [np.ascontiguousarray(chunk.indices),
                     chunk.maxima.reshape(-1) / radius]
        n_outputs = sum(len(folds.FOLD_SPECS[name].outputs)
                        for name, _ in signature.terms)
        out = np.empty((n_outputs, chunks[0].n_blocks))
        namespace["fused_pass"](*args, out)
        return list(out)

    @pytest.mark.parametrize("terms", TERM_SETS)
    @pytest.mark.parametrize("shape, block", [((20, 13), (4, 4)),
                                              ((9, 6, 7), (2, 2, 4))])
    def test_generated_loop_matches_gemm_and_interpreted(self, terms, shape, block):
        settings = CompressionSettings(block_shape=block, float_format="float64",
                                       index_dtype="int16")
        rng = np.random.default_rng(17)
        chunks = tuple(
            Compressor(settings).compress(
                np.cumsum(rng.standard_normal(shape), axis=0) * 0.05 + offset)
            for offset in (0.4, -1.3)
        )
        lowering = plan_compile.lower_terms((("source", 0), ("source", 1)),
                                            terms, (0, 1))
        signature = plan_compile.signature_for(lowering, settings)
        generated = self._generated(signature, chunks)
        compiled = GemmKernel().compile_fused_pass(signature)(chunks)
        interpreted = []
        keys = []
        for name, positions in terms:
            state = folds.FOLD_SPECS[name].partial(*(chunks[p] for p in positions))
            for key in folds.FOLD_SPECS[name].outputs:
                interpreted.append(state.sums[key][0])
                keys.append(key)
        assert len(generated) == len(compiled) == len(interpreted)

        # Σ|x_j| of every summing term is at most 2·(Σa² + Σb²) per block
        radius = float(settings.index_radius)
        magnitude = sum(
            np.einsum("ij,ij->i", scaled, scaled)
            for scaled in (chunk.indices * (chunk.maxima.reshape(-1, 1) / radius)
                           for chunk in chunks)
        )
        bound = 2.0 * fused_fold_tolerance(settings) * magnitude
        for key, mine, gemm, reference in zip(keys, generated, compiled,
                                              interpreted):
            if key.startswith("dc"):  # DC columns: no summation, same bits
                assert mine.tobytes() == gemm.tobytes() == reference.tobytes(), key
            else:
                assert np.all(np.abs(mine - gemm) <= bound), key
                assert np.all(np.abs(mine - reference) <= bound), key
