"""Golden-file format-compatibility tests for the chunked store (format v3).

``tests/data/golden_store_{a,b}.pblzc`` and ``golden_store.json`` were
written by the store writer and reader at a fixed point in time (see
``tests/data/make_store_golden.py``).  These tests pin both directions of the
format: the committed stores must read back to the recorded arrays and
reduction results bit for bit, and writing the same inputs again — as a
single store or as a grown sharded store — must reproduce the recorded files
byte for byte (shard files, fold-partial sidecars and the manifest).
"""

import hashlib
import json

import pytest

from repro.streaming import CompressedStore, ShardedStore
from tests.data.make_store_golden import (EXPECTED, STORES, file_digests,
                                          plan_results, write_sharded, write_store)


@pytest.fixture(scope="module")
def expected() -> dict:
    return json.loads(EXPECTED.read_text())


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestCommittedStoresRead:
    def test_arrays_read_bit_identically(self, expected):
        for name, path in STORES.items():
            with CompressedStore(path) as store:
                assert store.version == 3 and store.n_chunks == 3
                assert _digest(store.load().tobytes()) == expected["arrays"][name]

    def test_every_reduction_plan_reads_bit_identically(self, expected):
        stores = {name: CompressedStore(path) for name, path in STORES.items()}
        try:
            assert plan_results(stores) == expected["plans"]
        finally:
            for store in stores.values():
                store.close()


class TestWritersReproduceTheCommittedBytes:
    def test_single_store_rewrite_is_byte_identical(self, tmp_path, expected):
        for name, path in STORES.items():
            rewritten = tmp_path / path.name
            write_store(name, rewritten)
            assert rewritten.read_bytes() == path.read_bytes()
            assert _digest(rewritten.read_bytes()) == expected["store_files"][name]

    def test_sharded_init_and_appends_are_byte_identical(self, tmp_path, expected):
        path = tmp_path / "serve.shards"
        write_sharded(path)
        assert file_digests(path) == expected["sharded_files"]
        with ShardedStore(path) as store:
            assert store.n_shards == 5 and store.partials_fresh()
