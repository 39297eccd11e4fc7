"""Round-trip tests for the engine's JSON wire form (``repro.engine.wire``).

Every node kind — sources, the four virtual structural ops, all 8 reductions,
including the centered statistics — must survive ``to_wire`` → JSON →
``from_wire`` with structural identity (equal ``Expr.key``), and an expression
evaluated through the wire form must be bit-identical to evaluating the
original expression locally.
"""

import json

import numpy as np
import pytest

from repro import engine
from repro.core import CompressionSettings
from repro.engine import expr
from repro.engine.wire import (
    WireError,
    from_wire,
    request_from_wire,
    request_to_wire,
    to_wire,
)
from repro.streaming import ChunkedCompressor
from tests.conftest import smooth_field


def roundtrip(expression):
    """to_wire → real JSON text → from_wire (no resolve: names stay strings)."""
    return from_wire(json.loads(json.dumps(to_wire(expression))))


X = expr.source("x")
Y = expr.source("y")

#: One representative expression per node kind, all over named sources.
ALL_NODE_KINDS = {
    "mean": expr.mean(X),
    "mean_unpadded": expr.mean(X, padded=False),
    "variance": expr.variance(X),
    "standard_deviation": expr.standard_deviation(X),
    "l2_norm": expr.l2_norm(X),
    "dot": expr.dot(X, Y),
    "covariance": expr.covariance(X, Y),
    "euclidean_distance": expr.euclidean_distance(X, Y),
    "cosine_similarity": expr.cosine_similarity(X, Y),
    "add": expr.l2_norm(expr.add(X, Y)),
    "subtract": expr.mean(expr.subtract(X, Y)),
    "scale": expr.l2_norm(expr.scale(X, 2.5)),
    "negate": expr.mean(expr.negate(X)),
    "nested": expr.dot(expr.scale(expr.subtract(X, Y), -0.5), expr.negate(X)),
}


class TestRoundTrip:
    @pytest.mark.parametrize("label", sorted(ALL_NODE_KINDS))
    def test_every_node_kind_round_trips_structurally(self, label):
        original = ALL_NODE_KINDS[label]
        restored = roundtrip(original)
        assert restored.key == original.key

    @pytest.mark.parametrize("label", sorted(ALL_NODE_KINDS))
    def test_wire_form_is_stable_under_a_second_trip(self, label):
        first = to_wire(ALL_NODE_KINDS[label])
        assert to_wire(from_wire(first)) == first

    def test_request_round_trip_interns_shared_sources(self):
        wired = request_to_wire({"m": expr.mean(X), "v": expr.variance(X),
                                 "d": expr.dot(X, Y)})
        outputs = request_from_wire(json.loads(json.dumps(wired)))
        # one catalog name -> one Source object across the whole request,
        # which is what lets the planner dedup partials across outputs
        sources = {key: output.operands[0] for key, output in outputs.items()
                   if key in ("m", "v")}
        assert sources["m"] is sources["v"]
        assert outputs["d"].operands[0] is sources["m"]

    def test_resolve_maps_names_to_concrete_sources(self):
        stores = {"x": object(), "y": object()}
        restored = from_wire(to_wire(expr.dot(X, Y)), resolve=stores.__getitem__)
        assert restored.operands[0].wrapped is stores["x"]
        assert restored.operands[1].wrapped is stores["y"]

    def test_mean_default_padding_round_trips_to_the_expr_default(self):
        assert roundtrip(expr.mean(X)).key == expr.mean(X).key
        assert roundtrip(expr.mean(X, padded=False)).key == expr.mean(X, padded=False).key
        assert roundtrip(expr.mean(X)).key != expr.mean(X, padded=False).key

    def test_scale_factor_survives_exactly(self):
        node = to_wire(expr.l2_norm(expr.scale(X, 0.1)))
        assert node["operands"][0]["factor"] == 0.1


class TestMalformedWire:
    def test_non_object_node_rejected(self):
        with pytest.raises(WireError, match="must be an object"):
            from_wire(["mean"])

    def test_missing_kind_rejected(self):
        with pytest.raises(WireError, match="missing a string 'kind'"):
            from_wire({"operands": []})

    def test_unknown_kind_lists_valid_kinds(self):
        with pytest.raises(WireError, match="valid kinds"):
            from_wire({"kind": "median", "operands": [to_wire(X)]})

    def test_wrong_arity_rejected(self):
        with pytest.raises(WireError, match="takes 2 operand"):
            from_wire({"kind": "dot", "operands": [to_wire(X)]})

    def test_scale_without_factor_rejected(self):
        with pytest.raises(WireError, match="factor"):
            from_wire({"kind": "scale", "operands": [to_wire(X)]})

    @pytest.mark.parametrize("factor", [float("nan"), float("inf"), -float("inf"),
                                        10 ** 400, "2", True])
    def test_scale_with_a_non_finite_or_non_numeric_factor_rejected(self, factor):
        # json.loads parses NaN and Infinity, so a client can send them
        node = json.loads(json.dumps({"kind": "scale", "operands": [to_wire(X)],
                                      "factor": factor}))
        with pytest.raises(WireError, match="finite numeric 'factor'"):
            from_wire(node)

    @pytest.mark.parametrize("factor", [float("nan"), float("inf"), -float("inf")])
    def test_expr_scale_rejects_a_non_finite_factor(self, factor):
        with pytest.raises(ValueError, match="must be finite"):
            expr.scale(X, factor)

    def test_source_without_name_rejected(self):
        with pytest.raises(WireError, match="name"):
            from_wire({"kind": "source"})

    def test_reduction_as_operand_rejected(self):
        with pytest.raises(WireError, match="array-valued"):
            from_wire({"kind": "mean", "operands": [to_wire(expr.mean(X))]})

    def test_object_source_without_name_of_rejected(self):
        with pytest.raises(WireError, match="catalog name"):
            to_wire(expr.mean(expr.source(object())))

    def test_name_of_maps_objects_back_to_names(self):
        store = object()
        node = to_wire(expr.mean(expr.source(store)),
                       name_of=lambda wrapped: "named")
        assert node["operands"][0] == {"kind": "source", "name": "named"}

    def test_empty_request_rejected(self):
        with pytest.raises(WireError, match="at least one"):
            request_to_wire({})
        with pytest.raises(WireError, match="non-empty object"):
            request_from_wire({})


class TestWireEvaluation:
    """Evaluating through the wire form is bit-identical to local evaluation."""

    @pytest.fixture
    def store_pair(self, tmp_path):
        settings = CompressionSettings(block_shape=(4, 4), float_format="float32",
                                       index_dtype="int16")
        chunked = ChunkedCompressor(settings, slab_rows=8)
        with chunked.compress_to_store(smooth_field((40, 12), seed=21),
                                       tmp_path / "x.st") as store_x, \
                chunked.compress_to_store(smooth_field((40, 12), seed=22),
                                          tmp_path / "y.st") as store_y:
            yield {"x": store_x, "y": store_y}

    def test_wire_evaluation_bit_identical_to_local(self, store_pair):
        request = {label: node for label, node in ALL_NODE_KINDS.items()}
        wired = json.loads(json.dumps(request_to_wire(request)))
        resolved = request_from_wire(wired, resolve=store_pair.__getitem__)

        local = {
            label: engine.evaluate(
                from_wire(to_wire(node), resolve=store_pair.__getitem__)
            )
            for label, node in request.items()
        }
        fused = engine.plan(resolved).execute()
        assert fused == local  # scalar-for-scalar, bitwise

    def test_wire_request_fuses_like_a_local_plan(self, store_pair):
        request = {"m": expr.mean(X), "v": expr.variance(X), "d": expr.dot(X, Y)}
        resolved = request_from_wire(request_to_wire(request),
                                     resolve=store_pair.__getitem__)
        fused = engine.plan(resolved)
        assert len(fused.groups) == 1
        assert len(fused.sources) == 2
        before = [store.chunks_read for store in fused.sources]
        fused.execute()
        assert [store.chunks_read - count for store, count
                in zip(fused.sources, before)] == [store.n_chunks
                                                   for store in fused.sources]
