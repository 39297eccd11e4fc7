"""Conformance of every surface to the one reduction table.

Each :data:`repro.core.ops.folds.REDUCTION_SPECS` row must be buildable as an
expression, survive the wire form, be accepted by the CLI under its dashed
name with its arity, and evaluate over a ragged chunked store to the bits the
in-memory operation gives on the assembled array.  Its public function is
generated from the row: one object in ``repro.core.ops`` and
``repro.streaming.ops``, with the row's name, docstring and options, giving
the same bits on an in-memory array, a store, a sharded store and a list of
chunks.  The remaining cases pin the operand checks of the binary reductions
and the planner's validation of arity and options against the row.
"""

import inspect
import json

import pytest

from repro import engine
from repro.cli import _parse_op_spec, main
from repro.core import CompressionSettings, Compressor, ops
from repro.core.ops import folds
from repro.engine import expr
from repro.engine.wire import from_wire, request_from_wire, to_wire
from repro.streaming import ChunkedCompressor, append_shard, init_sharded_store
from repro.streaming import ops as stream_ops
from tests.conftest import smooth_field

SETTINGS = CompressionSettings(block_shape=(4, 4), float_format="float32",
                               index_dtype="int16")
FIELDS = (smooth_field((20, 13), seed=3), smooth_field((20, 13), seed=4))


@pytest.fixture(scope="module")
def ragged_stores(tmp_path_factory):
    """Two aligned stores of three chunks each, the last one short."""
    root = tmp_path_factory.mktemp("table")
    chunked = ChunkedCompressor(SETTINGS, slab_rows=8)
    stores = [chunked.compress_to_store(field, root / f"{index}.pblzc")
              for index, field in enumerate(FIELDS)]
    assert [store.n_chunks for store in stores] == [3, 3]
    yield stores
    for store in stores:
        store.close()


@pytest.fixture(scope="module")
def sharded_stores(tmp_path_factory):
    """The same two fields as two-shard stores, chunked like ``ragged_stores``."""
    root = tmp_path_factory.mktemp("sharded")
    stores = []
    for index, field in enumerate(FIELDS):
        path = root / f"{index}.shards"
        init_sharded_store(path, field[:8], SETTINGS, slab_rows=8).close()
        stores.append(append_shard(path, field[8:], slab_rows=8))
    yield stores
    for store in stores:
        store.close()


@pytest.mark.parametrize("name", sorted(folds.REDUCTION_SPECS))
class TestEveryRow:
    def test_expr_constructor_and_wire_round_trip(self, name):
        spec = folds.REDUCTION_SPECS[name]
        operands = [expr.source(label) for label in ("a", "b")[:spec.arity]]
        node = getattr(expr, name)(*operands)
        assert isinstance(node, expr.Reduction)
        assert node.op == name and len(node.operands) == spec.arity
        assert inspect.signature(getattr(expr, name)) == spec.signature
        assert from_wire(to_wire(node)).key == node.key

    def test_terms_pick_within_the_arity(self, name):
        spec = folds.REDUCTION_SPECS[name]
        picked = {index for _, pick in spec.terms for index in pick}
        assert picked == set(range(spec.arity))
        for fold, pick in spec.terms:
            assert folds.FOLD_SPECS[fold].arity == len(pick)
        assert callable(getattr(folds, spec.finalizer))

    def test_cli_accepts_the_dashed_name_with_its_arity(self, name, ragged_stores,
                                                        capsys):
        spec = folds.REDUCTION_SPECS[name]
        cli_name = name.replace("_", "-")
        names = ["a", "b"][:spec.arity]
        assert _parse_op_spec(f"{cli_name}:{','.join(names)}") == (
            (cli_name, names), None)
        parsed, message = _parse_op_spec(f"{cli_name}:a,b,c")
        assert parsed is None and f"takes {spec.arity}" in message

        paths = [str(store.path) for store in ragged_stores[:spec.arity]]
        capsys.readouterr()
        assert main(["stream-ops", "evaluate", *paths, "--op", cli_name,
                     "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert set(record["operations"]) == {cli_name}
        assert record["passes"] == 1

    def test_engine_over_ragged_store_equals_core_ops(self, name, ragged_stores):
        spec = folds.REDUCTION_SPECS[name]
        sources = ragged_stores[:spec.arity]
        value = engine.evaluate(getattr(expr, name)(*sources))
        assembled = [Compressor(SETTINGS).compress(field)
                     for field in FIELDS[:spec.arity]]
        assert value == getattr(ops, name)(*assembled)  # bitwise, not approx


@pytest.mark.parametrize("name", sorted(folds.REDUCTION_SPECS))
class TestOneFunctionPerRow:
    def test_core_and_streaming_export_the_same_object(self, name):
        assert getattr(ops, name) is getattr(stream_ops, name)

    def test_same_bits_on_every_kind_of_operand(self, name, ragged_stores,
                                                sharded_stores):
        spec = folds.REDUCTION_SPECS[name]
        function = getattr(ops, name)
        assembled = [Compressor(SETTINGS).compress(field)
                     for field in FIELDS[:spec.arity]]
        chunk_lists = [list(store.iter_chunks())
                       for store in ragged_stores[:spec.arity]]
        expected = function(*assembled)
        assert function(*ragged_stores[:spec.arity]) == expected  # bitwise
        assert function(*sharded_stores[:spec.arity]) == expected
        assert function(*chunk_lists) == expected

    def test_name_doc_and_signature_come_from_the_row(self, name):
        spec = folds.REDUCTION_SPECS[name]
        function = getattr(ops, name)
        assert function.__name__ == function.__qualname__ == name
        assert function.__module__ == "repro.core.ops"
        assert spec.doc and function.__doc__ == spec.doc
        parameters = list(inspect.signature(function).parameters.values())
        operands = parameters[:spec.arity]
        assert all(p.kind is p.POSITIONAL_ONLY for p in operands)
        options = parameters[spec.arity:]
        assert [(p.name, p.default) for p in options] == list(spec.options)
        assert all(p.kind is p.KEYWORD_ONLY for p in options)

    def test_backend_keyword_is_gone(self, name, ragged_stores):
        # the engine has one (interpreted) executor: no function takes backend=
        spec = folds.REDUCTION_SPECS[name]
        with pytest.raises(TypeError, match="backend"):
            getattr(stream_ops, name)(*ragged_stores[:spec.arity], backend="gemm")


BINARY = sorted(name for name, spec in folds.REDUCTION_SPECS.items()
                if spec.arity == 2)


@pytest.mark.parametrize("name", BINARY)
def test_in_memory_operands_are_checked_under_the_reduction_name(name,
                                                                 ragged_stores):
    a = Compressor(SETTINGS).compress(FIELDS[0])
    b = Compressor(SETTINGS).compress(FIELDS[1][:16])
    label = name.replace("_", " ")
    with pytest.raises(ValueError, match=f"{label} requires equal shapes"):
        getattr(ops, name)(a, b)
    # a CompressedArray beside a raw array or a store: never a silent sweep
    for operands in ((a, FIELDS[1]), (a, ragged_stores[1]), (ragged_stores[0], a)):
        with pytest.raises(TypeError, match=f"{label} requires CompressedArray"):
            getattr(ops, name)(*operands)


class TestPlanValidatesAgainstTheRow:
    def test_misspelled_option_fails_at_plan_time(self):
        node = expr.Reduction("mean", (expr.source([]),),
                              options=(("paded", False),))
        with pytest.raises(ValueError, match="no option 'paded'"):
            engine.plan(node)

    def test_option_of_the_wrong_type_fails_at_plan_time(self):
        node = expr.Reduction("mean", (expr.source([]),),
                              options=(("padded", "no"),))
        with pytest.raises(ValueError, match="must be a bool"):
            engine.plan(node)

    def test_option_on_a_row_without_options_fails(self):
        x = expr.source([])
        node = expr.Reduction("dot", (x, x), options=(("foo", 1),))
        with pytest.raises(ValueError, match="dot takes no option 'foo'"):
            engine.plan(node)

    def test_wrong_arity_fails_at_plan_time(self):
        node = expr.Reduction("dot", (expr.source([]),))
        with pytest.raises(ValueError, match="dot takes 2 operand"):
            engine.plan(node)

    def test_unknown_reduction_names_the_valid_set(self):
        node = expr.Reduction("median", (expr.source([]),))
        with pytest.raises(ValueError, match="valid reductions"):
            engine.plan(node)

    @pytest.mark.parametrize("kind, options, message", [
        ("mean", {"paded": False}, "no option 'paded'"),
        ("mean", {"padded": "no"}, "must be a bool"),
        ("l2_norm", {"foo": 1}, "no option 'foo'"),
    ])
    def test_wire_options_decode_but_do_not_plan(self, kind, options, message):
        outputs = request_from_wire({"m": {
            "kind": kind, "operands": [{"kind": "source", "name": "a"}],
            "options": options,
        }})
        with pytest.raises(ValueError, match=message):
            engine.plan(outputs)

    def test_wire_fills_in_the_rows_defaults(self):
        outputs = request_from_wire({"m": {
            "kind": "mean", "operands": [{"kind": "source", "name": "a"}],
        }})
        assert outputs["m"].options == (("padded", True),)
