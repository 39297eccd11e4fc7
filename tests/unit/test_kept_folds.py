"""The kept-index-matrix folds and the kept-matrix re-binning operations.

* ``add``/``subtract``/``add_scalar`` re-bin the kept ``(n_blocks, kept)``
  coefficient matrix; each must give the maxima and indices of re-binning
  the blocked, padded coefficient array (the test-local oracle) bit for bit.
* For ``int8``/``int16`` indices every summing fold's per-block value is the
  exact integer ``Σ i·j`` scaled once, so each is within 2 ulp of the exact
  rational value, and ``l2_norm`` within 2 ulp of the exact square root.
* ``product(x, x)`` gives the same bits as ``square(x)`` on every index type
  (persisted ``square`` vectors serve ``dot(x, x)``).
* Within one fold step a shared row sum is computed once, and so is a
  pair's kept difference (structural ``subtract`` and ``diff_square``).
* A structural node only ``dc`` folds read is re-binned to its DC column,
  to the bits of the materialised node's mean; a plan sums each state once.
* Fold steps are coefficient-major views of the step buffer, and no
  per-block value or re-binning depends on the layout its kept matrix came
  in: C order, Fortran order, a partial step's strided view, single
  ``(1, kept)`` blocks, or a chunk over the step budget.
"""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from repro import engine
from repro.core import CompressedArray, CompressionSettings, Compressor, binning, ops
from repro.core.ops import coefficients, folds, linear, specified_coefficients
from repro.engine import expr
from repro.streaming import ChunkedCompressor, steps
from repro.core.pruning import corner_pruning_mask, flatten_kept, low_frequency_mask

INDEX_DTYPES = ("int8", "int16", "int32", "int64")
BLOCKS = {1: (8,), 2: (4, 4), 3: (4, 2, 4)}
#: ragged in every axis: no extent is a multiple of its block extent
SHAPES = {1: (29,), 2: (13, 10), 3: (9, 5, 7)}


def _mask(ndim: int, kind: str):
    block = BLOCKS[ndim]
    if kind == "unpruned":
        return None
    if kind == "corner":
        return corner_pruning_mask(block, tuple(max(1, extent // 2) for extent in block))
    return low_frequency_mask(block, 0.5)


def _pair(ndim: int, dtype: str, mask_kind: str, seed: int = 0):
    settings = CompressionSettings(block_shape=BLOCKS[ndim], index_dtype=dtype,
                                   pruning_mask=_mask(ndim, mask_kind))
    rng = np.random.default_rng(seed)
    compressor = Compressor(settings)
    shape = SHAPES[ndim]
    return (compressor.compress(np.cumsum(rng.standard_normal(shape), axis=0)),
            compressor.compress(rng.standard_normal(shape) * 3.0))


def rebin_coefficients(values: np.ndarray, settings: CompressionSettings,
                       shape: tuple) -> CompressedArray:
    """The blocked oracle: re-bin a ``(grid..., block...)`` coefficient array.

    Bins every block of the padded array, pruned positions included (they
    hold zeros for every operation tested here), and keeps the mask's
    positions — the definition the kept-matrix re-binning must match.
    """
    values = np.asarray(values, dtype=np.float64)
    assert values.shape == settings.block_grid_shape(shape) + settings.block_shape
    maxima, indices = binning.bin_coefficients(values, settings.ndim,
                                               settings.index_dtype)
    return CompressedArray(settings=settings, shape=shape, maxima=maxima,
                           indices=flatten_kept(indices, settings.mask))


def _assert_same(result: CompressedArray, oracle: CompressedArray) -> None:
    assert result.shape == oracle.shape
    assert result.maxima.tobytes() == oracle.maxima.tobytes()
    assert result.indices.dtype == oracle.indices.dtype
    assert np.array_equal(result.indices, oracle.indices)


CASES = [(ndim, dtype, mask) for ndim in (1, 2, 3) for dtype in INDEX_DTYPES
         for mask in ("unpruned", "corner", "low_frequency")]


class TestKeptMatrixRebinning:
    """Kept-matrix re-binning equals the blocked oracle bit for bit."""

    @pytest.mark.parametrize("ndim,dtype,mask", CASES)
    def test_add_and_subtract_match_the_blocked_oracle(self, ndim, dtype, mask):
        a, b = _pair(ndim, dtype, mask)
        for operation, combine in ((ops.add, np.add), (ops.subtract, np.subtract)):
            blocked = combine(specified_coefficients(a), specified_coefficients(b))
            _assert_same(operation(a, b), rebin_coefficients(blocked, a.settings, a.shape))

    @pytest.mark.parametrize("dtype", INDEX_DTYPES)
    def test_add_scalar_matches_the_blocked_oracle(self, dtype):
        a, _ = _pair(2, dtype, "corner")
        blocked = specified_coefficients(a)
        blocked[..., 0, 0] += 1.75 * a.settings.dc_scale
        _assert_same(ops.add_scalar(a, 1.75),
                     rebin_coefficients(blocked, a.settings, a.shape))

    def test_self_subtraction_rebins_to_zero_blocks(self):
        a, _ = _pair(3, "int16", "unpruned")
        zero = ops.subtract(a, a)
        assert not zero.maxima.any() and not zero.indices.any()


def _exact_scales(chunk: CompressedArray) -> list[Fraction]:
    """The float ``s = N / r`` per block, as exact rationals."""
    scales = chunk.maxima.reshape(-1) / float(chunk.settings.index_radius)
    return [Fraction(float(scale)) for scale in scales]


def _within_ulps(value: float, exact, ulps: int) -> bool:
    return abs(Fraction(value) - Fraction(exact)) <= ulps * Fraction(math.ulp(value))


class TestIntegerDomainSums:
    @pytest.mark.parametrize("dtype", ["int8", "int16"])
    def test_per_block_sum_is_the_integer_dot(self, dtype):
        """With ``s = 1`` (``N = r``) a block's value is its raw ``Σ i·j``."""
        a, b = _pair(2, dtype, "corner", seed=3)
        radius = float(a.settings.index_radius)
        unit = [CompressedArray(settings=x.settings, shape=x.shape,
                                maxima=np.full(x.maxima.shape, radius),
                                indices=x.indices) for x in (a, b)]
        values = folds.product_partial(*unit).sums["product"][0]
        exact = [sum(int(i) * int(j) for i, j in zip(row_a, row_b))
                 for row_a, row_b in zip(a.indices, b.indices)]
        assert values.tolist() == [float(value) for value in exact]

    @pytest.mark.parametrize("dtype", ["int8", "int16"])
    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_every_block_is_within_two_ulp_of_exact(self, ndim, dtype):
        a, b = _pair(ndim, dtype, "low_frequency", seed=ndim)
        scales_a, scales_b = _exact_scales(a), _exact_scales(b)
        product = folds.product_partial(a, b).sums["product"][0]
        centered = folds.centered_product_partial(a, b).sums["ac_product"][0]
        for k, (row_a, row_b) in enumerate(zip(a.indices.tolist(), b.indices.tolist())):
            dot = sum(i * j for i, j in zip(row_a, row_b))
            scale = scales_a[k] * scales_b[k]
            assert _within_ulps(float(product[k]), dot * scale, 2)
            assert _within_ulps(float(centered[k]),
                                (dot - row_a[0] * row_b[0]) * scale, 2)

    @pytest.mark.parametrize("dtype", ["int8", "int16"])
    def test_l2_norm_is_within_two_ulp_of_the_exact_root(self, dtype):
        a, _ = _pair(3, dtype, "unpruned", seed=11)
        squared = sum(sum(i * i for i in row) * scale * scale
                      for row, scale in zip(a.indices.tolist(), _exact_scales(a)))
        with localcontext() as context:
            context.prec = 60
            root = (Decimal(squared.numerator) / Decimal(squared.denominator)).sqrt()
        norm = ops.l2_norm(a)
        assert abs(Decimal(norm) - root) <= 2 * Decimal(math.ulp(norm))


class TestProductOfItselfIsSquare:
    @pytest.mark.parametrize("dtype", INDEX_DTYPES)
    @pytest.mark.parametrize("mask", ["unpruned", "corner"])
    def test_product_x_x_has_the_square_bits(self, dtype, mask):
        a, _ = _pair(2, dtype, mask, seed=5)
        square = folds.square_partial(a).sums["square"][0]
        for other in (a, a.copy()):  # shared and separate operands
            product = folds.product_partial(a, other).sums["product"][0]
            assert product.tobytes() == square.tobytes()
        assert ops.dot(a, a) == folds.finalize_dot(folds.FoldState(
            sums={"product": [square]}, n_blocks=a.n_blocks,
            n_elements=a.n_elements, n_padded_elements=a.n_padded_elements))


class TestStepSharedRowSums:
    TERMS = (("square", (0,)), ("centered_square", (0,)), ("product", (0, 0)))

    def _count_einsum(self, monkeypatch) -> list:
        calls = []
        original = np.einsum

        def counting(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(folds.np, "einsum", counting)
        return calls

    def test_one_integer_row_sum_per_step(self, monkeypatch):
        a, _ = _pair(2, "int16", "unpruned")
        expected = [state.sums for state in
                    (folds.FOLD_SPECS[name].partial(*([a] * len(slots)))
                     for name, slots in self.TERMS)]
        calls = self._count_einsum(monkeypatch)
        states = folds.run_terms({0: a}, self.TERMS)
        assert len(calls) == 1
        for state, sums in zip(states, expected):
            assert {key: value[0].tobytes() for key, value in state.sums.items()} == \
                {key: value[0].tobytes() for key, value in sums.items()}
        assert coefficients._STEP_SHARED.get() is None

    def test_partials_outside_a_step_share_nothing(self, monkeypatch):
        a, _ = _pair(2, "int16", "unpruned")
        calls = self._count_einsum(monkeypatch)
        for name, slots in self.TERMS:
            folds.FOLD_SPECS[name].partial(*([a] * len(slots)))
        assert len(calls) == len(self.TERMS)

    def _count_scaling(self, monkeypatch) -> list:
        scaled = []
        original = coefficients.kept_coefficients
        monkeypatch.setattr(coefficients, "kept_coefficients",
                            lambda chunk: scaled.append(chunk) or original(chunk))
        return scaled

    def test_wide_indices_scale_the_kept_matrix_once_per_step(self, monkeypatch):
        a, b = _pair(2, "int32", "unpruned")
        scaled = self._count_scaling(monkeypatch)
        folds.run_terms({0: a, 1: b}, (("square", (0,)), ("diff_square", (0, 1)),
                                       ("centered_product", (0, 1))))
        assert len(scaled) == 2

    def test_subtract_and_diff_square_share_a_step_s_kept_matrices(self, monkeypatch):
        a, b = _pair(2, "int16", "corner")
        expected = ops.mean(ops.subtract(a, b)), ops.euclidean_distance(a, b)
        scaled = self._count_scaling(monkeypatch)
        with coefficients.fold_step():
            difference = ops.subtract(a, b)
            states = folds.run_terms({0: a, 1: b, 2: difference},
                                     (("diff_square", (0, 1)), ("dc", (2,))))
        assert len(scaled) == 2
        assert (folds.finalize_mean(states[1]),
                folds.finalize_euclidean_distance(states[0])) == expected


def _count_binned_shapes(monkeypatch) -> list:
    """Record the shape of every matrix :func:`binning.scale_to_indices` bins."""
    shapes = []
    original = binning.scale_to_indices

    def counting(coefficients_, *args, **kwargs):
        shapes.append(np.shape(coefficients_))
        return original(coefficients_, *args, **kwargs)

    monkeypatch.setattr(binning, "scale_to_indices", counting)
    return shapes


STRUCTURAL = ((expr.subtract, ops.subtract, "subtract"), (expr.add, ops.add, "add"))


class TestDcOnlyRebinning:
    """A node only ``dc`` folds read is re-binned to its maxima and DC column."""

    @pytest.mark.parametrize("ndim,dtype,mask", CASES)
    def test_mean_equals_the_mean_of_the_materialised_node(self, ndim, dtype, mask):
        a, b = _pair(ndim, dtype, mask, seed=ndim)
        assert a.settings.first_coefficient_kept
        for node, operation, _ in STRUCTURAL:
            materialised = operation(a, b)
            for padded in (True, False):
                fused = engine.evaluate(expr.mean(node([a], [b]), padded=padded))
                assert fused == ops.mean(materialised, padded=padded)

    @pytest.mark.parametrize("dtype", INDEX_DTYPES)
    @pytest.mark.parametrize("mask", ["unpruned", "low_frequency"])
    def test_dc_partial_has_the_full_rebinning_bits(self, dtype, mask):
        a, b = _pair(3, dtype, mask, seed=7)
        for _, operation, kind in STRUCTURAL:
            pruned, full = linear.rebinned_dc(kind, a, b), operation(a, b)
            assert pruned.indices.shape == (a.n_blocks, 1)
            assert pruned.maxima.tobytes() == full.maxima.tobytes()
            assert np.array_equal(pruned.indices[:, 0], full.indices[:, 0])
            got, want = folds.dc_partial(pruned), folds.dc_partial(full)
            assert got.sums["dc"][0].tobytes() == want.sums["dc"][0].tobytes()
            assert (got.n_blocks, got.n_elements, got.n_padded_elements,
                    got.dc_scale) == (want.n_blocks, want.n_elements,
                                      want.n_padded_elements, want.dc_scale)

    @pytest.mark.parametrize("slab_rows", [4, 8])
    def test_chunked_stores_with_a_ragged_tail(self, tmp_path, slab_rows):
        settings = CompressionSettings(block_shape=(4, 4), index_dtype="int16")
        rng = np.random.default_rng(slab_rows)
        fields = (np.cumsum(rng.standard_normal((37, 10)), axis=0),
                  rng.standard_normal((37, 10)))
        compressor = ChunkedCompressor(settings, slab_rows=slab_rows)
        stores = [compressor.compress_to_store(field, tmp_path / f"{name}.pblzc")
                  for name, field in zip("ab", fields)]
        whole = [Compressor(settings).compress(field) for field in fields]
        with stores[0], stores[1]:
            assert stores[0].n_chunks > 1
            for node, operation, _ in STRUCTURAL:
                assert engine.evaluate(expr.mean(node(*stores))) == \
                    ops.mean(operation(*whole))

    def test_dc_only_node_never_bins_its_other_columns(self, monkeypatch):
        a, b = _pair(2, "int16", "unpruned")
        shapes = _count_binned_shapes(monkeypatch)
        for node, _, _ in STRUCTURAL:
            request = expr.mean(node([a], [b]))
            engine.evaluate(request)
            assert "to its DC column" in engine.plan(request).describe()
        assert shapes == [(a.n_blocks, 1)] * 2

    @pytest.mark.parametrize("other", ["square", "structural"])
    def test_a_node_with_other_readers_is_rebinned_in_full(self, monkeypatch, other):
        a, b = _pair(2, "int16", "corner")
        difference = expr.subtract([a], [b])
        if other == "square":
            request = {"mean": expr.mean(difference), "l2": expr.l2_norm(difference)}
            expected = {"mean": ops.mean(ops.subtract(a, b)),
                        "l2": ops.l2_norm(ops.subtract(a, b))}
        else:
            request = {"mean": expr.mean(expr.negate(difference))}
            expected = {"mean": ops.mean(ops.negate(ops.subtract(a, b)))}
        shapes = _count_binned_shapes(monkeypatch)
        assert engine.evaluate(request) == expected
        assert shapes == [a.indices.shape]
        assert "DC column" not in engine.plan(request).describe()

    def test_a_pruned_dc_still_raises(self):
        mask = np.ones((4, 4), dtype=bool)
        mask[0, 0] = False
        settings = CompressionSettings(block_shape=(4, 4), pruning_mask=mask)
        rng = np.random.default_rng(0)
        a, b = (Compressor(settings).compress(rng.standard_normal((8, 8)))
                for _ in range(2))
        with pytest.raises(ValueError, match="first coefficient"):
            engine.evaluate(expr.mean(expr.subtract([a], [b])))


class TestOneKeptDifferencePerStep:
    def test_subtract_and_euclidean_distance_share_the_difference(self, tmp_path,
                                                                  monkeypatch):
        settings = CompressionSettings(block_shape=(4, 4), index_dtype="int16")
        rng = np.random.default_rng(4)
        compressor = ChunkedCompressor(settings, slab_rows=8)
        chunks = []
        for name in "ab":
            with compressor.compress_to_store(rng.standard_normal((40, 12)),
                                              tmp_path / f"{name}.pblzc") as store:
                chunks.append([store.read_chunk(i) for i in range(store.n_chunks)])
        x, y = chunks
        request = {"mean": expr.mean(expr.subtract(x, y)),
                   "distance": expr.euclidean_distance(x, y),
                   "l2": expr.l2_norm(expr.subtract(x, y))}
        expected = engine.evaluate(request)
        monkeypatch.setattr(steps, "STEP_COEFFICIENTS", 1)  # one chunk per step
        differences, step_count = [], []
        original_difference = np.subtract
        original_run_terms = folds.run_terms

        def subtract(left, right, *args, **kwargs):
            if np.ndim(left) == 2 and np.ndim(right) == 2:
                differences.append(np.shape(left))
            return original_difference(left, right, *args, **kwargs)

        monkeypatch.setattr(coefficients.np, "subtract", subtract)
        monkeypatch.setattr(folds, "run_terms",
                            lambda *args: step_count.append(1) or original_run_terms(*args))
        assert engine.evaluate(request) == expected
        assert len(step_count) == len(x) == 5
        assert len(differences) == len(step_count)


class TestTotalsOncePerExecution:
    def test_each_state_is_summed_once(self, monkeypatch):
        a, b = _pair(2, "int16", "unpruned")
        x, y = [a], [b]
        plan = engine.plan({"dot": expr.dot(x, y), "l2_b": expr.l2_norm(y),
                            "cosine": expr.cosine_similarity(x, y),
                            "again": expr.cosine_similarity(x, y)})
        expected = plan.execute()
        sums = []
        original = folds.exact_sum
        monkeypatch.setattr(folds, "exact_sum",
                            lambda parts: sums.append(1) or original(parts))
        for execution in (1, 2):
            assert plan.execute() == expected
            # product, square(a) and square(b): once each per execution
            assert len(sums) == 3 * execution
        assert expected["cosine"] == ops.cosine_similarity(a, b)
        assert expected["dot"] == ops.dot(a, b)


class TestPlanTakesNoBackend:
    @pytest.mark.parametrize("entry", ["plan", "execute", "evaluate"])
    def test_backend_keyword_is_gone(self, entry):
        a, _ = _pair(2, "int16", "unpruned")
        request = {"l2": engine.expr.l2_norm([a])}
        run = {"plan": lambda: engine.plan(request, backend="gemm"),
               "execute": lambda: engine.plan(request).execute(backend="gemm"),
               "evaluate": lambda: engine.evaluate(request, backend="gemm")}[entry]
        with pytest.raises(TypeError, match="backend"):
            run()


def _column_pair(ndim: int, dtype: str, mask_kind: str):
    """Two arrays one block wide and six high: block ``j`` is kept row ``j``."""
    block = BLOCKS[ndim]
    settings = CompressionSettings(block_shape=block, index_dtype=dtype,
                                   pruning_mask=_mask(ndim, mask_kind))
    rng = np.random.default_rng(ndim)
    shape = (block[0] * 6,) + block[1:]
    compressor = Compressor(settings)
    return (compressor.compress(np.cumsum(rng.standard_normal(shape), axis=0)),
            compressor.compress(rng.standard_normal(shape) * 3.0))


def _relaid(x: CompressedArray, layout: str) -> CompressedArray:
    """``x`` with the same indices in another memory order.

    ``"step"`` is a partial fold step's view: the transpose of the first
    columns of a wider coefficient-major buffer.
    """
    if layout == "C":
        indices = np.ascontiguousarray(x.indices)
    elif layout == "F":
        indices = np.asfortranarray(x.indices)
    else:
        buffer = np.zeros((x.indices.shape[1], x.n_blocks + 5), x.indices.dtype)
        buffer[:, :x.n_blocks] = x.indices.T
        indices = buffer[:, :x.n_blocks].T
    return CompressedArray(settings=x.settings, shape=x.shape,
                           maxima=x.maxima.copy(), indices=indices)


def _single_blocks(x: CompressedArray) -> list[CompressedArray]:
    """Every block of a one-block-wide array as its own ``(1, kept)`` array."""
    return [CompressedArray(settings=x.settings, shape=x.settings.block_shape,
                            maxima=x.maxima.reshape(-1)[k:k + 1].reshape(
                                (1,) * x.ndim),
                            indices=x.indices[k:k + 1])
            for k in range(x.n_blocks)]


def _per_block_bits(a: CompressedArray, b: CompressedArray) -> dict:
    """The per-block values and re-binnings whose bits must not see the layout."""
    with coefficients.fold_step():
        out = {"product": folds._row_products(a, b, ac=False),
               "ac_product": folds._row_products(a, b, ac=True),
               "square": folds._row_products(a, a, ac=False),
               "diff_square": folds.difference_square_partial(a, b).sums["diff_square"][0]}
    for kind in ("add", "subtract"):
        full = (linear.add if kind == "add" else linear.subtract)(a, b)
        dc = linear.rebinned_dc(kind, a, b)
        out[kind] = np.concatenate([full.maxima.ravel(), full.indices.ravel()])
        out[kind + "_dc"] = np.concatenate([dc.maxima.ravel(), dc.indices.ravel()])
    return {key: value.astype(np.float64).tobytes() for key, value in out.items()}


class TestCoefficientMajorLayout:
    """Fold steps are coefficient-major; no per-block bit depends on the layout."""

    @staticmethod
    def _chunks(dtype: str, slab_rows: int) -> tuple[list, list]:
        settings = CompressionSettings(block_shape=(4, 4), index_dtype=dtype)
        rng = np.random.default_rng(9)
        chunked = ChunkedCompressor(settings, slab_rows=slab_rows)
        fields = (np.cumsum(rng.standard_normal((38, 12)), axis=0),
                  rng.standard_normal((38, 12)))
        return tuple([chunked.compress(field[start:start + slab_rows])
                      for start in range(0, 38, slab_rows)] for field in fields)

    def test_take_is_a_coefficient_major_view_of_the_buffer(self):
        x, _ = self._chunks("int16", 8)
        kept = x[0].indices.shape[1]
        for n_chunks, full in ((3, True), (2, False)):
            stack = steps.SlabStack(sum(c.indices.size for c in x[:3]))
            for chunk in x[:n_chunks]:
                stack.push(chunk)
            step = stack.take()
            assert np.shares_memory(step.indices, stack._indices)
            assert stack._indices.shape[0] == kept
            assert step.indices.strides[0] == step.indices.itemsize
            assert step.indices.flags.f_contiguous == full
            assert np.array_equal(step.indices,
                                  np.concatenate([c.indices for c in x[:n_chunks]]))

    @pytest.mark.parametrize("ndim", [1, 2, 3])
    @pytest.mark.parametrize("dtype", INDEX_DTYPES)
    @pytest.mark.parametrize("mask", ["unpruned", "low_frequency"])
    def test_every_layout_gives_the_same_bits(self, ndim, dtype, mask):
        a, b = _column_pair(ndim, dtype, mask)
        expected = _per_block_bits(a, b)
        for layout in ("C", "F", "step"):
            assert _per_block_bits(_relaid(a, layout), _relaid(b, layout)) == expected
        singles = [_per_block_bits(x, y)
                   for x, y in zip(_single_blocks(a), _single_blocks(b))]
        for key in ("product", "ac_product", "square", "diff_square"):
            assert b"".join(single[key] for single in singles) == expected[key]

    @pytest.mark.parametrize("dtype", INDEX_DTYPES)
    def test_an_over_budget_chunk_folds_to_the_stacked_bits(self, dtype):
        x, y = self._chunks(dtype, 16)
        terms = tuple((name, (0,) if spec.arity == 1 else (0, 1))
                      for name, spec in folds.FOLD_SPECS.items())
        folded = {}
        for capacity in (x[0].indices.size - 1, steps.STEP_COEFFICIENTS):
            parts: dict = {}
            block_major = 0
            for step_x, step_y in steps.fold_steps(zip(x, y), capacity):
                block_major += step_x.indices.strides[0] != step_x.indices.itemsize
                for (name, _), state in zip(terms, folds.run_terms(
                        {0: step_x, 1: step_y}, terms)):
                    for key, value in state.sums.items():
                        parts.setdefault((name, key), []).extend(value)
            assert bool(block_major) == (capacity < steps.STEP_COEFFICIENTS)
            folded[capacity] = {key: np.concatenate(value).tobytes()
                                for key, value in parts.items()}
        small, large = folded.values()
        assert small == large


class TestLayoutRegressions:
    """Cases where a layout-dependent ``einsum`` order moved a float-path sum.

    ``data`` is ``np.random.default_rng(1)``'s cumulated normals × 0.05, as the
    property suites draw them.
    """

    @staticmethod
    def _fields(shape):
        rng = np.random.default_rng(1)
        return tuple(np.cumsum(rng.standard_normal(shape), axis=0) * 0.05
                     for _ in range(2))

    @pytest.mark.parametrize("shape,block", [((3, 1), (2, 4)), ((1, 3, 1), (2, 2, 4))])
    def test_int32_centered_statistics_store_equals_in_memory(self, tmp_path,
                                                              shape, block):
        settings = CompressionSettings(block_shape=block, float_format="bfloat16",
                                       index_dtype="int32")
        a, b = self._fields(shape)
        chunked = ChunkedCompressor(settings, slab_rows=1)
        ca, cb = (Compressor(settings).compress(field) for field in (a, b))
        with chunked.compress_to_store(a, tmp_path / "a.pblzc") as x, \
                chunked.compress_to_store(b, tmp_path / "b.pblzc") as y:
            assert ops.variance(x) == ops.variance(ca)
            assert ops.covariance(x, y) == ops.covariance(ca, cb)

    def test_int8_euclidean_distance_at_the_one_block_budget(self, tmp_path,
                                                             monkeypatch):
        settings = CompressionSettings(block_shape=(2, 4), float_format="float32",
                                       index_dtype="int8")
        a, b = self._fields((3, 1))
        chunked = ChunkedCompressor(settings, slab_rows=2)
        with chunked.compress_to_store(a, tmp_path / "a.pblzc") as x, \
                chunked.compress_to_store(b, tmp_path / "b.pblzc") as y:
            request = expr.euclidean_distance(x, y)
            default = engine.evaluate(request)
            monkeypatch.setattr(steps, "STEP_COEFFICIENTS", settings.kept_per_block)
            assert engine.evaluate(request) == default
