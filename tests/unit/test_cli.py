"""Unit tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from tests.conftest import smooth_field


class TestParser:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["compress", "in.npy", "out.pblz", "--block", "4,4"])
        assert args.command == "compress"
        assert args.block == (4, 4)
        args = parser.parse_args(["experiment", "table1"])
        assert args.name == "table1"

    def test_invalid_block_spec(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["compress", "a", "b", "--block", "four"])

    def test_unknown_experiment_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["experiment", "fig99"])

    @pytest.mark.parametrize("argv", [
        ["serve", "a=a.pblzc", "--workers", "2"],
        ["stream-ops", "mean", "a.pblzc", "--workers", "2"],
    ])
    def test_workers_only_on_stream_compress(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
        args = build_parser().parse_args(
            ["stream-compress", "in.npy", "out.pblzc", "--workers", "2"]
        )
        assert args.workers == 2

    @pytest.mark.parametrize("argv", [
        ["stream-compress", "in.npy", "out.pblzc", "--workers", "0"],
        ["stream-compress", "in.npy", "out.pblzc", "--workers", "-2"],
        ["stream-compress", "in.npy", "out.pblzc", "--slab-rows", "0"],
        ["shard-init", "in.npy", "out.shards", "--slab-rows", "0"],
        ["shard-append", "out.shards", "in.npy", "--slab-rows", "-1"],
        ["stream-compress", "in.npy", "out.pblzc", "--slab-rows", "many"],
    ])
    def test_counts_must_be_positive(self, argv, capsys):
        # a usage error (exit 2) before any file is touched, not a
        # ValueError traceback or a codec error from deep in the writer
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "must be a positive integer" in err or "invalid int value" in err


class TestCompressDecompressCommands:
    def test_full_cycle(self, tmp_path, capsys):
        array = smooth_field((20, 28), seed=3)
        npy_in = tmp_path / "in.npy"
        stream = tmp_path / "out.pblz"
        npy_out = tmp_path / "back.npy"
        np.save(npy_in, array)

        assert main(["compress", str(npy_in), str(stream), "--block", "4,4",
                     "--float", "float32", "--index", "int16"]) == 0
        assert stream.exists()
        out = capsys.readouterr().out
        assert "settings:" in out and "ratio" in out

        assert main(["info", str(stream)]) == 0
        info_out = capsys.readouterr().out
        assert "blocks:" in info_out and "compression ratio" in info_out

        assert main(["decompress", str(stream), str(npy_out)]) == 0
        restored = np.load(npy_out)
        assert restored.shape == array.shape
        assert np.abs(restored - array).max() < 1e-2

    def test_block_dimensionality_mismatch_fails(self, tmp_path, capsys):
        array = smooth_field((8, 8), seed=1)
        npy_in = tmp_path / "in.npy"
        np.save(npy_in, array)
        code = main(["compress", str(npy_in), str(tmp_path / "o.pblz"), "--block", "4,4,4"])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestExperimentCommand:
    def test_table1_experiment_runs(self, capsys):
        assert main(["experiment", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "negation" in out

    def test_ratio_experiment_runs(self, capsys):
        assert main(["experiment", "ratio"]) == 0
        out = capsys.readouterr().out
        assert "2.9" in out  # the paper's worked example appears in the metadata


class TestBackendOptions:
    def test_backends_listing(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "reference" in out and "gemm" in out and "numba" in out
        assert "bit-exact" in out

    def test_compress_decompress_with_gemm_backend(self, tmp_path, capsys):
        array = smooth_field((20, 28), seed=3)
        npy_in, stream, npy_out = tmp_path / "in.npy", tmp_path / "o.pblz", tmp_path / "b.npy"
        np.save(npy_in, array)
        assert main(["compress", str(npy_in), str(stream), "--block", "4,4",
                     "--backend", "gemm"]) == 0
        assert "backend=gemm" in capsys.readouterr().out
        assert main(["decompress", str(stream), str(npy_out), "--backend", "gemm"]) == 0
        assert np.abs(np.load(npy_out) - array).max() < 1e-2

    def test_stream_roundtrip_with_gemm_backend(self, tmp_path, capsys):
        array = smooth_field((24, 12), seed=4)
        npy_in, store, npy_out = tmp_path / "in.npy", tmp_path / "s.pblzc", tmp_path / "b.npy"
        np.save(npy_in, array)
        assert main(["stream-compress", str(npy_in), str(store), "--block", "4,4",
                     "--backend", "gemm", "--slab-rows", "8"]) == 0
        capsys.readouterr()
        assert main(["stream-decompress", str(store), str(npy_out), "--backend", "gemm"]) == 0
        assert np.abs(np.load(npy_out) - array).max() < 1e-2

    def test_backend_on_non_pyblaz_stream_is_usage_error(self, tmp_path, capsys):
        array = smooth_field((16, 16), seed=5)
        npy_in, stream = tmp_path / "in.npy", tmp_path / "o.zfp"
        np.save(npy_in, array)
        assert main(["compress", str(npy_in), str(stream), "--codec", "zfp"]) == 0
        capsys.readouterr()
        code = main(["decompress", str(stream), str(tmp_path / "b.npy"), "--backend", "gemm"])
        assert code == 2
        assert "--backend applies to the pyblaz codec" in capsys.readouterr().err
        # ... and symmetrically on the compress side
        code = main(["compress", str(npy_in), str(tmp_path / "o2.zfp"), "--codec", "zfp",
                     "--backend", "gemm"])
        assert code == 2
        assert "--backend applies to the pyblaz codec" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["stream-compress", "shard-init"])
    @pytest.mark.parametrize("flags", [["--codec", "zfp"], ["--bits", "16"],
                                       ["--error-bound", "1e-6"], ["--levels", "4"]])
    def test_stores_take_no_codec_options(self, tmp_path, capsys, command, flags):
        """Stores hold pyblaz chunks only: the codec selector and the other
        codecs' knobs belong to the one-shot `compress`."""
        npy_in, target = tmp_path / "in.npy", tmp_path / "o.store"
        np.save(npy_in, smooth_field((16, 16), seed=5))
        with pytest.raises(SystemExit) as info:
            main([command, str(npy_in), str(target), *flags])
        assert info.value.code == 2
        assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
        assert not target.exists()

    def test_unavailable_backend_exits_with_codec_error(self, tmp_path, capsys):
        from repro.kernels import backend_is_available

        if backend_is_available("numba"):
            pytest.skip("numba installed: the unavailable path is not reachable")
        array = smooth_field((8, 8), seed=6)
        npy_in = tmp_path / "in.npy"
        np.save(npy_in, array)
        code = main(["compress", str(npy_in), str(tmp_path / "o.pblz"), "--block", "4,4",
                     "--backend", "numba"])
        assert code == 3
        assert "numba" in capsys.readouterr().err


class TestStreamOpsCommand:
    @pytest.fixture
    def store_pair(self, tmp_path):
        """Two identically chunked stores (plus their .npy sources) for stream-ops."""
        a = smooth_field((40, 24), seed=3)
        b = smooth_field((40, 24), seed=5)
        paths = {}
        for name, array in (("a", a), ("b", b)):
            npy = tmp_path / f"{name}.npy"
            np.save(npy, array)
            store = tmp_path / f"{name}.pblzc"
            assert main(["stream-compress", str(npy), str(store), "--block", "4,4",
                         "--slab-rows", "8"]) == 0
            paths[name] = store
        return paths["a"], paths["b"], a, b

    def test_scalar_reductions_print_in_memory_values(self, store_pair, capsys):
        from repro.core import CompressionSettings, Compressor, ops

        store_a, store_b, a, b = store_pair
        capsys.readouterr()
        settings = CompressionSettings(block_shape=(4, 4), float_format="float32",
                                       index_dtype="int16")
        compressor = Compressor(settings)
        ca, cb = compressor.compress(a), compressor.compress(b)

        assert main(["stream-ops", "dot", str(store_a), str(store_b)]) == 0
        assert capsys.readouterr().out.strip() == f"dot = {ops.dot(ca, cb)!r}"
        assert main(["stream-ops", "mean", str(store_a)]) == 0
        assert capsys.readouterr().out.strip() == f"mean = {ops.mean(ca)!r}"
        assert main(["stream-ops", "variance", str(store_a)]) == 0
        assert capsys.readouterr().out.strip() == f"variance = {ops.variance(ca)!r}"
        assert main(["stream-ops", "cosine-similarity", str(store_a), str(store_b)]) == 0
        assert capsys.readouterr().out.strip() == (
            f"cosine-similarity = {ops.cosine_similarity(ca, cb)!r}"
        )

    def test_array_ops_write_a_readable_store(self, store_pair, tmp_path, capsys):
        store_a, store_b, a, b = store_pair
        out = tmp_path / "sum.pblzc"
        assert main(["stream-ops", "add", str(store_a), str(store_b),
                     "--out", str(out)]) == 0
        assert "wrote" in capsys.readouterr().out
        back = tmp_path / "sum.npy"
        assert main(["stream-decompress", str(out), str(back)]) == 0
        assert np.allclose(np.load(back), a + b, atol=5e-3)

        scaled = tmp_path / "scaled.pblzc"
        assert main(["stream-ops", "scale", str(store_a), "--scalar", "2.0",
                     "--out", str(scaled)]) == 0
        back2 = tmp_path / "scaled.npy"
        assert main(["stream-decompress", str(scaled), str(back2)]) == 0
        assert np.allclose(np.load(back2), 2.0 * a, atol=5e-3)

    def test_usage_errors_exit_2(self, store_pair, tmp_path, capsys):
        store_a, store_b, *_ = store_pair
        assert main(["stream-ops", "dot", str(store_a)]) == 2
        assert "two stores" in capsys.readouterr().err
        assert main(["stream-ops", "mean", str(store_a), str(store_b)]) == 2
        assert "single store" in capsys.readouterr().err
        assert main(["stream-ops", "add", str(store_a), str(store_b)]) == 2
        assert "--out" in capsys.readouterr().err
        assert main(["stream-ops", "scale", str(store_a),
                     "--out", str(tmp_path / "x.pblzc")]) == 2
        assert "--scalar" in capsys.readouterr().err

    def test_mismatched_chunking_is_usage_error(self, store_pair, tmp_path, capsys):
        store_a, _, a, _ = store_pair
        npy = tmp_path / "wide.npy"
        np.save(npy, a)
        other = tmp_path / "wide.pblzc"
        assert main(["stream-compress", str(npy), str(other), "--block", "4,4",
                     "--slab-rows", "16"]) == 0
        capsys.readouterr()
        assert main(["stream-ops", "dot", str(store_a), str(other)]) == 2
        assert "chunked differently" in capsys.readouterr().err


class TestStreamOpsEvaluateAndJson:
    @pytest.fixture
    def store_pair(self, tmp_path):
        """Two identically chunked stores (plus their arrays) for fused ops."""
        a = smooth_field((40, 24), seed=3)
        b = smooth_field((40, 24), seed=5)
        paths = {}
        for name, array in (("a", a), ("b", b)):
            npy = tmp_path / f"{name}.npy"
            np.save(npy, array)
            store = tmp_path / f"{name}.pblzc"
            assert main(["stream-compress", str(npy), str(store), "--block", "4,4",
                         "--slab-rows", "8"]) == 0
            paths[name] = store
        return paths["a"], paths["b"], a, b

    def test_evaluate_fuses_and_matches_in_memory(self, store_pair, capsys):
        from repro.core import CompressionSettings, Compressor, ops

        store_a, store_b, a, b = store_pair
        capsys.readouterr()
        settings = CompressionSettings(block_shape=(4, 4), float_format="float32",
                                       index_dtype="int16")
        compressor = Compressor(settings)
        ca, cb = compressor.compress(a), compressor.compress(b)
        assert main(["stream-ops", "evaluate", str(store_a), str(store_b),
                     "--op", "mean", "--op", "variance", "--op", "l2-norm",
                     "--op", "dot", "--op", "covariance",
                     "--op", "cosine-similarity"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == [
            f"mean = {ops.mean(ca)!r}",
            f"variance = {ops.variance(ca)!r}",
            f"l2-norm = {ops.l2_norm(ca)!r}",
            f"dot = {ops.dot(ca, cb)!r}",
            f"covariance = {ops.covariance(ca, cb)!r}",
            f"cosine-similarity = {ops.cosine_similarity(ca, cb)!r}",
        ]

    def test_evaluate_json_reports_groups_and_timing(self, store_pair, capsys):
        import json

        store_a, store_b, *_ = store_pair
        capsys.readouterr()
        assert main(["stream-ops", "evaluate", str(store_a), str(store_b),
                     "--op", "mean", "--op", "dot", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["operations"]) == {"mean", "dot"}
        assert payload["interpreted_groups"] == 1   # a and b share one sweep
        assert payload["incremental_groups"] == 0
        assert "passes" not in payload              # every plan is one sweep
        assert payload["seconds"] >= 0.0
        assert payload["stores"] == [str(store_a), str(store_b)]
        # pipelined-I/O contract field: time blocked fetching chunks
        assert payload["io_seconds"] >= 0.0
        assert payload["io_seconds"] <= payload["seconds"]
        assert "prefetch_depth" not in payload      # the window is a constant
        # each 5-chunk store is one span: nothing is left to read ahead
        assert payload["readahead_sweeps"] == 0

    def test_prefetch_option_is_gone(self, store_pair, capsys):
        """Readahead takes no setting: ``--prefetch`` is an unknown option."""
        store_a, *_ = store_pair
        capsys.readouterr()
        with pytest.raises(SystemExit) as exited:
            main(["stream-ops", "evaluate", str(store_a), "--op", "mean",
                  "--json", "--prefetch", "0"])
        assert exited.value.code == 2
        assert "--prefetch" in capsys.readouterr().err

    def test_evaluate_json_reports_readahead_sweeps(self, tmp_path, capsys):
        import json

        from repro.reliability import FaultRule, inject

        npy = tmp_path / "long.npy"
        np.save(npy, smooth_field((256, 24), seed=3))
        store = tmp_path / "long.pblzc"
        assert main(["stream-compress", str(npy), str(store), "--block", "4,4",
                     "--slab-rows", "8"]) == 0
        capsys.readouterr()
        # 32 chunks, every read slowed: the first span's read hands off
        with inject(FaultRule("latency", delay_seconds=0.005, times=10**6)):
            assert main(["stream-ops", "evaluate", str(store), "--op", "mean",
                         "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["readahead_sweeps"] == 1

    def test_centered_subset_reports_one_group(self, store_pair, capsys):
        import json

        store_a, *_ = store_pair
        capsys.readouterr()
        assert main(["stream-ops", "evaluate", str(store_a),
                     "--op", "mean", "--op", "variance", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["interpreted_groups"] == 1
        assert "decode [s0] once per chunk" in payload["describe"]

    def test_single_op_json_mode(self, store_pair, capsys):
        import json

        from repro.core import CompressionSettings, Compressor, ops

        store_a, _, a, _ = store_pair
        capsys.readouterr()
        assert main(["stream-ops", "l2-norm", str(store_a), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        settings = CompressionSettings(block_shape=(4, 4), float_format="float32",
                                       index_dtype="int16")
        expected = ops.l2_norm(Compressor(settings).compress(a))
        assert payload["operations"]["l2-norm"] == expected

    def test_array_op_json_mode(self, store_pair, tmp_path, capsys):
        import json

        store_a, store_b, *_ = store_pair
        out = tmp_path / "sum.pblzc"
        capsys.readouterr()
        assert main(["stream-ops", "add", str(store_a), str(store_b),
                     "--out", str(out), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["operation"] == "add"
        assert payload["out"] == str(out)
        assert payload["shape"] == [40, 24]
        assert payload["chunks"] == 5

    def test_unknown_operation_lists_valid_set(self, store_pair, capsys):
        store_a, *_ = store_pair
        assert main(["stream-ops", "frobnicate", str(store_a)]) == 2
        err = capsys.readouterr().err
        assert "unknown operation 'frobnicate'" in err
        for name in ("mean", "variance", "dot", "evaluate", "add"):
            assert name in err

    def test_unknown_op_flag_lists_scalar_set(self, store_pair, capsys):
        store_a, *_ = store_pair
        assert main(["stream-ops", "evaluate", str(store_a), "--op", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown operation 'nope'" in err
        assert "cosine-similarity" in err and "add" not in err

    def test_evaluate_usage_errors(self, store_pair, capsys):
        store_a, store_b, *_ = store_pair
        assert main(["stream-ops", "evaluate", str(store_a)]) == 2
        assert "--op" in capsys.readouterr().err
        assert main(["stream-ops", "evaluate", str(store_a), "--op", "dot"]) == 2
        assert "two stores" in capsys.readouterr().err
        assert main(["stream-ops", "evaluate", str(store_a), str(store_b),
                     "--op", "mean"]) == 2
        assert "single store" in capsys.readouterr().err
        assert main(["stream-ops", "mean", str(store_a), "--op", "dot"]) == 2
        assert "evaluate" in capsys.readouterr().err


class TestServeQueryCommands:
    @pytest.fixture
    def served(self, tmp_path):
        """A threaded query service over one small two-store catalog."""
        from repro.serving import StoreCatalog, ThreadedQueryService

        for name, seed in (("a", 3), ("b", 5)):
            npy = tmp_path / f"{name}.npy"
            np.save(npy, smooth_field((40, 24), seed=seed))
            assert main(["stream-compress", str(npy), str(tmp_path / f"{name}.pblzc"),
                         "--block", "4,4", "--slab-rows", "8"]) == 0
        with StoreCatalog({"a": tmp_path / "a.pblzc",
                           "b": tmp_path / "b.pblzc"}) as catalog:
            with ThreadedQueryService(catalog) as service:
                yield service

    def test_query_round_trip(self, served, capsys):
        code = main(["query", "--host", served.host, "--port", str(served.port),
                     "--op", "mean:a", "--op", "dot:a,b"])
        assert code == 0
        out = capsys.readouterr().out
        assert "mean:a = " in out and "dot:a,b = " in out
        assert "1 plan(s)" in out

    def test_query_json_reports_batch(self, served, capsys):
        import json

        code = main(["query", "--host", served.host, "--port", str(served.port),
                     "--op", "variance:a", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert "variance:a" in payload["results"]
        assert payload["batch"]["plans"] == 1

    def test_query_stats_and_catalog_probes(self, served, capsys):
        import json

        assert main(["query", "--host", served.host, "--port", str(served.port),
                     "--stats"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert "requests" in stats and "plans" in stats
        assert main(["query", "--host", served.host, "--port", str(served.port),
                     "--catalog"]) == 0
        listing = json.loads(capsys.readouterr().out)
        assert set(listing) == {"a", "b"}

    def test_query_usage_errors(self, served, capsys):
        port = str(served.port)
        assert main(["query", "--port", port]) == 2
        assert "--op" in capsys.readouterr().err
        assert main(["query", "--port", port, "--op", "nonsense"]) == 2
        assert "OPERATION:STORES" in capsys.readouterr().err
        assert main(["query", "--port", port, "--op", "bogus:a"]) == 2
        assert "valid operations" in capsys.readouterr().err
        assert main(["query", "--port", port, "--op", "dot:a"]) == 2
        assert "takes 2 store name(s)" in capsys.readouterr().err
        assert main(["query", "--port", port, "--stats", "--op", "mean:a"]) == 2
        assert "probes" in capsys.readouterr().err

    def test_query_server_side_error_exits_2(self, served, capsys):
        code = main(["query", "--host", served.host, "--port", str(served.port),
                     "--op", "mean:missing"])
        assert code == 2
        assert "unknown store" in capsys.readouterr().err

    def test_query_unreachable_server_exits_2(self, capsys):
        # a port from the ephemeral range with nothing bound to it
        code = main(["query", "--host", "127.0.0.1", "--port", "1",
                     "--op", "mean:a", "--timeout", "2"])
        assert code == 2
        assert "cannot reach" in capsys.readouterr().err

    @pytest.mark.parametrize("option, value", [
        ("--prefetch", "0"),         # the service has no warm path
        ("--tick", "-1"), ("--tick", "inf"), ("--tick", "nan"),
        ("--deadline", "0"), ("--deadline", "nan"), ("--deadline", "inf"),
        ("--cache-bytes", "-1"), ("--max-in-flight", "0"),
    ])
    def test_serve_rejects_bad_settings_with_exit_2(self, tmp_path, capsys,
                                                    monkeypatch, option, value):
        import asyncio

        npy = tmp_path / "a.npy"
        np.save(npy, smooth_field((16, 8), seed=1))
        store = tmp_path / "a.pblzc"
        assert main(["stream-compress", str(npy), str(store), "--block", "4,4",
                     "--slab-rows", "8"]) == 0
        capsys.readouterr()
        # never serve: an accepted setting returns 0 here instead of blocking
        monkeypatch.setattr(asyncio, "run", lambda coroutine: coroutine.close())
        assert main(["serve", f"a={store}", "--port", "0"]) == 0
        with pytest.raises(SystemExit) as exited:
            main(["serve", f"a={store}", "--port", "0", option, value])
        assert exited.value.code == 2
        assert option in capsys.readouterr().err

    @pytest.mark.parametrize("option, value", [
        ("--deadline", "nan"), ("--deadline", "0"),
        ("--timeout", "-1"), ("--timeout", "inf"),
    ])
    def test_query_rejects_bad_timing_with_exit_2(self, capsys, option, value):
        # parsed before any connection: nothing listens on port 1
        with pytest.raises(SystemExit) as exited:
            main(["query", "--port", "1", "--op", "mean:a", option, value])
        assert exited.value.code == 2
        assert option in capsys.readouterr().err

    def test_serve_tick_defaults_to_the_service_default(self):
        from repro.serving import DEFAULT_TICK_SECONDS

        args = build_parser().parse_args(["serve", "a=a.pblzc"])
        assert args.tick == DEFAULT_TICK_SECONDS

    def test_serve_bad_catalog_entries_exit_2(self, tmp_path, capsys):
        assert main(["serve", "noequals"]) == 2
        assert "NAME=PATH" in capsys.readouterr().err
        assert main(["serve", f"x={tmp_path / 'missing.pblzc'}"]) == 2
        assert "cannot read store" in capsys.readouterr().err
        plain = tmp_path / "plain.bin"
        plain.write_bytes(b"not a store at all")
        assert main(["serve", f"x={plain}"]) == 2
        assert "not a chunked store" in capsys.readouterr().err
