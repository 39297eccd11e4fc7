"""Fault-tolerant serving over real sockets: client leak-free failure and
retry, deadlines, backpressure, and batch isolation from misbehaving
clients."""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.core import CompressionSettings
from repro.engine import expr
from repro.reliability import DeadlineError, FaultRule, RetryPolicy, inject
from repro.serving import (
    QueryClient,
    QueryService,
    ServerError,
    StoreCatalog,
    ThreadedQueryService,
)
from repro.streaming import ChunkedCompressor
from tests.conftest import smooth_field

MEAN_A = {"m": expr.mean(expr.source("a"))}


@pytest.fixture
def catalog(tmp_path):
    settings = CompressionSettings(block_shape=(4, 4), float_format="float32",
                                   index_dtype="int16")
    store = ChunkedCompressor(settings, slab_rows=16).compress_to_store(
        smooth_field((48, 12), seed=5), tmp_path / "a.pblzc"
    )
    store.close()
    with StoreCatalog({"a": tmp_path / "a.pblzc"}) as opened:
        yield opened


class TestClientReliability:
    def test_unreachable_server_leaves_no_socket_behind(self):
        opened: list = []
        real_create = socket.create_connection

        def tracking_create(*args, **kwargs):
            sock = real_create(*args, **kwargs)
            opened.append(sock)
            return sock

        # port 1 refuses; any socket created along the way must end up closed
        socket.create_connection = tracking_create
        try:
            with pytest.raises(OSError):
                QueryClient("127.0.0.1", 1, timeout=1.0)
        finally:
            socket.create_connection = real_create
        assert all(sock.fileno() == -1 for sock in opened)

    def test_malformed_response_closes_the_socket(self, catalog):
        with ThreadedQueryService(catalog) as served:
            with socket.socket() as listener:
                listener.bind(("127.0.0.1", 0))
                listener.listen(1)
                garbage_port = listener.getsockname()[1]

                def speak_garbage():
                    conn, _ = listener.accept()
                    with conn, conn.makefile("rwb") as stream:
                        stream.readline()
                        stream.write(b"not json at all\n")
                        stream.flush()

                thread = threading.Thread(target=speak_garbage, daemon=True)
                thread.start()
                client = QueryClient("127.0.0.1", garbage_port, timeout=5.0)
                with pytest.raises(ConnectionError, match="malformed response"):
                    client._call({"kind": "stats"})
                assert client._socket is None  # closed, not leaked
                thread.join(timeout=5)

    def test_retrying_client_reconnects_after_connection_loss(self, catalog):
        with ThreadedQueryService(catalog) as served:
            retry = RetryPolicy(attempts=3, base_delay=0.0, max_delay=0.01,
                                seed=0)
            with QueryClient(served.host, served.port, retry=retry) as client:
                baseline = client.evaluate(MEAN_A)
                # kill the transport under the client: the retry reconnects
                client._socket.close()
                assert client.evaluate(MEAN_A) == baseline

    def test_client_deadline_bounds_a_dead_connect(self):
        start = time.monotonic()
        with pytest.raises((DeadlineError, OSError)):
            QueryClient("127.0.0.1", 1, timeout=0.2,
                        retry=RetryPolicy(attempts=100, base_delay=0.01,
                                          max_delay=0.05, seed=0),
                        deadline=0.5)
        assert time.monotonic() - start < 5.0


class TestThreadedServiceLifecycle:
    def test_startup_failure_is_a_typed_server_error(self, catalog):
        with socket.socket() as holder:
            holder.bind(("127.0.0.1", 0))
            taken = holder.getsockname()[1]
            with pytest.raises(ServerError, match="failed to start"):
                with ThreadedQueryService(catalog, port=taken):
                    pass  # pragma: no cover - never entered

    def test_timeouts_are_configurable(self, catalog):
        served = ThreadedQueryService(catalog, startup_timeout=5.0,
                                      shutdown_timeout=5.0)
        assert served.startup_timeout == 5.0
        assert served.shutdown_timeout == 5.0
        with served:
            with QueryClient(served.host, served.port) as client:
                assert client.evaluate(MEAN_A)


class TestServerReliability:
    def test_mid_request_disconnect_does_not_poison_the_batch(self, catalog):
        """A client that sends a request and vanishes must not crash the
        server or corrupt concurrent requests sharing its batch."""
        with ThreadedQueryService(catalog, tick=0.05) as served:
            with QueryClient(served.host, served.port) as client:
                baseline = client.evaluate(MEAN_A)
                for _ in range(3):
                    raw = socket.create_connection((served.host, served.port),
                                                   timeout=5)
                    wire = {"id": 1, "kind": "evaluate",
                            "outputs": {"m": {"kind": "mean",
                                              "operands": [{"kind": "source",
                                                            "name": "a"}],
                                              "options": {"padded": True}}}}
                    raw.sendall(json.dumps(wire).encode() + b"\n")
                    raw.close()  # vanish mid-request
                # the server still answers, with correct values
                assert client.evaluate(MEAN_A) == baseline
                stats = client.stats()
        assert stats["requests"]["served"] >= 2

    def test_deadline_exceeded_is_an_explicit_response(self, catalog):
        latency = FaultRule("latency", times=50, delay_seconds=0.2)
        with ThreadedQueryService(catalog, deadline=0.05) as served:
            with inject(latency, seed=0) as plan:
                with QueryClient(served.host, served.port) as client:
                    with pytest.raises(ServerError) as info:
                        client.evaluate(MEAN_A)
                    assert info.value.deadline_exceeded
                    assert not info.value.overloaded
                    stats = client.stats()
            assert plan.fired["latency"] >= 1
        assert stats["reliability"]["deadline_exceeded"] == 1

    def test_overload_is_an_explicit_response(self, catalog):
        latency = FaultRule("latency", times=50, delay_seconds=0.3)
        with ThreadedQueryService(catalog, max_in_flight=1) as served:
            with inject(latency, seed=0):
                slow_result: dict = {}

                def slow_request():
                    with QueryClient(served.host, served.port) as slow:
                        slow_result["values"] = slow.evaluate(MEAN_A)

                thread = threading.Thread(target=slow_request)
                thread.start()
                time.sleep(0.1)  # let the slow request claim the slot
                with QueryClient(served.host, served.port) as client:
                    with pytest.raises(ServerError) as info:
                        client.evaluate(MEAN_A)
                    assert info.value.overloaded
                thread.join(timeout=30)
                with QueryClient(served.host, served.port) as client:
                    stats = client.stats()
        assert "values" in slow_result  # the admitted request completed
        assert stats["reliability"]["overloaded"] == 1

    def test_store_read_faults_do_not_change_served_values(self, catalog):
        with ThreadedQueryService(catalog) as served:
            with QueryClient(served.host, served.port) as client:
                baseline = client.evaluate(MEAN_A)
                with inject(FaultRule("os_error"), seed=0) as plan:
                    assert client.evaluate(MEAN_A) == baseline
                stats = client.stats()
        assert plan.fired["os_error"] == 1
        assert stats["reliability"]["store_read_retries"] == 1

