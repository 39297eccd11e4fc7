"""The asyncio query service: newline-delimited JSON, coalesced fused plans.

Protocol (one JSON object per line, over TCP)::

    -> {"id": 7, "kind": "evaluate", "outputs": {"m": <wire>, "v": <wire>}}
    <- {"id": 7, "ok": true, "results": {"m": ..., "v": ...},
        "batch": {"requests": 3, "plans": 1, "coalesced": true},
        "seconds": 0.0123}

    -> {"id": 8, "kind": "stats"}      <- {"id": 8, "ok": true, "stats": {...}}
    -> {"id": 9, "kind": "catalog"}    <- {"id": 9, "ok": true, "catalog": {...}}

Failures answer ``{"id": ..., "ok": false, "error": "..."}`` per request —
malformed JSON, malformed wire nodes, unknown catalog names and invalid
expressions never take the server down.

**Coalescing.**  Evaluate requests land on a queue.  The scheduler takes the
first waiting request, sleeps one *tick* so concurrent requests can pile up,
drains the queue, and compiles every collected request's reductions into **one
fused plan** (outputs namespaced per request).  The planner's partial dedup
then does the heavy lifting: N users asking for overlapping statistics over
the same catalog stores share fold partials and decode sweeps, so a batch
costs barely more than one request.  Results fan back per request and are
bit-identical to evaluating each request alone (same partials, same correctly
rounded sum :func:`repro.core.ops.folds.total`, bit-identical to
``math.fsum`` — the engine's bit-identity guarantee is per fold term, and fold
terms are independent of which outputs reference them).

Plans execute on a **single worker thread**, one batch at a time — plan
execution is CPU/IO-bound numpy work that would fight the GIL anyway.  Shared
cached chunks stay safe because a sweep only reads them: fold steps copy
chunks into their own buffers (:mod:`repro.serving.cache`).
"""

from __future__ import annotations

import asyncio
import json
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from .. import engine
from ..core.exceptions import CodecError
from ..engine.wire import WIRE_VERSION, WireError, request_from_wire
from .catalog import StoreCatalog
from .client import ServerError
from .metrics import ServiceMetrics

__all__ = ["QueryService", "ThreadedQueryService", "DEFAULT_TICK_SECONDS"]

#: Default coalescing window: long enough for concurrent requests to pile up,
#: short enough to be invisible next to a store sweep.
DEFAULT_TICK_SECONDS = 0.002


@dataclass
class _Pending:
    """One validated evaluate request waiting for a scheduler tick."""

    outputs: dict
    future: "asyncio.Future" = field(repr=False)


class QueryService:
    """Serve fused-plan evaluations of wire-form expression requests.

    Parameters
    ----------
    catalog:
        The :class:`StoreCatalog` whose names requests may reference.
    tick:
        Coalescing window in seconds: after the first queued request, the
        scheduler waits this long before draining the queue into one batch.
        ``0`` still drains whatever is already queued (opportunistic
        coalescing with no added latency).
    coalesce:
        When False, every request in a batch executes as its own plan — the
        "naive" mode the serving benchmark compares against.
    deadline:
        Optional per-request budget in seconds: a request still waiting for
        its batch past this answers ``{"ok": false, "deadline_exceeded":
        true}`` instead of hanging the client (the batch keeps running for
        its other requests).
    max_in_flight:
        Optional backpressure bound: evaluate requests beyond this many
        concurrently in flight are rejected immediately with ``{"ok": false,
        "overloaded": true}`` — an explicit signal the client can back off
        on, never a hang.

    The service builds its own :class:`ServiceMetrics` (``metrics``), wired
    to the catalog and its chunk cache.  Plan sweeps are the only code that
    fills that cache: each decodes its misses and inserts them.
    """

    def __init__(self, catalog: StoreCatalog, *, tick: float = DEFAULT_TICK_SECONDS,
                 coalesce: bool = True, deadline: float | None = None,
                 max_in_flight: int | None = None):
        if not (math.isfinite(tick) and tick >= 0):
            raise ValueError(f"tick must be finite and non-negative, got {tick!r}")
        if deadline is not None and not (math.isfinite(deadline) and deadline > 0):
            raise ValueError(f"deadline must be finite and positive (or None), "
                             f"got {deadline!r}")
        if max_in_flight is not None and max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1 (or None)")
        self.catalog = catalog
        self.tick = float(tick)
        self.coalesce = bool(coalesce)
        self.deadline = deadline
        self.max_in_flight = max_in_flight
        self.metrics = ServiceMetrics(catalog=catalog)
        self._queue: "asyncio.Queue[_Pending | None]" = asyncio.Queue()
        self._pool = ThreadPoolExecutor(max_workers=1,
                                        thread_name_prefix="repro-serving-plan")
        self._server: asyncio.AbstractServer | None = None
        self._scheduler_task: asyncio.Task | None = None
        self._in_flight = 0  # event-loop-only state, no lock needed
        self._stopping = False

    # ------------------------------------------------------------------ lifecycle
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Bind the listener, start the scheduler; returns ``(host, port)``.

        ``port=0`` binds an ephemeral port (read it back from the return value
        or :attr:`port`) — what the tests and the benchmark use.
        """
        if self._server is not None:
            raise RuntimeError("service already started")
        self._server = await asyncio.start_server(self._handle_connection, host, port)
        self._scheduler_task = asyncio.ensure_future(self._scheduler())
        return self.address

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)``; only valid after :meth:`start`."""
        if self._server is None:
            raise RuntimeError("service is not started")
        return self._server.sockets[0].getsockname()[:2]

    @property
    def port(self) -> int:
        """The bound TCP port (ephemeral binds resolve here)."""
        return self.address[1]

    async def serve_forever(self) -> None:
        """Block serving connections until cancelled (the CLI's main loop)."""
        if self._server is None:
            raise RuntimeError("call start() first")
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop listening, drain in-flight batches, shut the worker pool down.

        Graceful: requests already queued before the stop keep their place —
        the scheduler executes them as its final batch and answers them —
        while requests arriving after the stop began are rejected with a
        clean ``server is shutting down`` error instead of being dropped.
        """
        self._stopping = True  # new evaluates answer "shutting down" from here
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._scheduler_task is not None:
            await self._queue.put(None)  # wake the scheduler into its exit path
            await self._scheduler_task
            self._scheduler_task = None
        # fail anything that raced into the queue behind the sentinel, so no
        # awaiting handler hangs forever on an orphaned future
        while True:
            try:
                item = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if item is not None and not item.future.done():
                item.future.set_exception(
                    ValueError("server shut down before this request ran")
                )
        self._pool.shutdown(wait=True)

    # ------------------------------------------------------------------ connections
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        """One client connection: requests answered in order, one per line."""
        try:
            while True:
                line = await reader.readline()
                if not line:
                    return
                if not line.strip():
                    continue
                response = await self._dispatch(line)
                writer.write(json.dumps(response).encode("utf-8") + b"\n")
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):  # client went away
            return
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _dispatch(self, raw: bytes) -> dict:
        """Parse one request line and route it; always returns a response dict."""
        try:
            message = json.loads(raw)
        except json.JSONDecodeError as exc:
            return {"id": None, "ok": False, "error": f"malformed JSON request: {exc}"}
        if not isinstance(message, dict):
            return {"id": None, "ok": False,
                    "error": f"request must be a JSON object, got {message!r}"}
        base = {"id": message.get("id")}
        kind = message.get("kind", "evaluate")
        if kind == "stats":
            return {**base, "ok": True, "stats": self.metrics.snapshot()}
        if kind == "catalog":
            return {**base, "ok": True, "catalog": self.catalog.describe(),
                    "wire_version": WIRE_VERSION}
        if kind != "evaluate":
            return {**base, "ok": False,
                    "error": f"unknown request kind {kind!r}; valid kinds: "
                             "evaluate, stats, catalog"}
        return {**base, **(await self._evaluate(message))}

    async def _evaluate(self, message: dict) -> dict:
        """Validate one evaluate request, enqueue it, await its batch's results.

        The reliability gates run in order: a stopping server rejects cleanly,
        a full server answers ``overloaded`` immediately (backpressure, never
        a hang), and a request whose batch outlives the per-request
        ``deadline`` answers ``deadline_exceeded`` while the batch finishes
        for everyone else.
        """
        self.metrics.record_received()
        received = time.perf_counter()
        if self._stopping:
            self.metrics.record_failed()
            return {"ok": False, "error": "server is shutting down"}
        if self.max_in_flight is not None and self._in_flight >= self.max_in_flight:
            self.metrics.record_overloaded()
            return {"ok": False, "overloaded": True,
                    "error": f"overloaded: {self._in_flight} request(s) already "
                             f"in flight (limit {self.max_in_flight}); "
                             "back off and retry"}
        try:
            outputs = request_from_wire(message.get("outputs"),
                                        resolve=self.catalog.get)
            # solo compile+validate up front, so one bad request errors alone
            # instead of poisoning the whole coalesced batch
            engine.plan(outputs)._validate_sources()
        except KeyError as exc:
            self.metrics.record_failed()
            return {"ok": False, "error": str(exc).strip("'\"")}
        except (WireError, CodecError, TypeError, ValueError) as exc:
            self.metrics.record_failed()
            return {"ok": False, "error": str(exc)}
        self._in_flight += 1
        try:
            future = asyncio.get_running_loop().create_future()
            await self._queue.put(_Pending(outputs, future))
            try:
                if self.deadline is not None:
                    values, batch_info = await asyncio.wait_for(
                        future, timeout=self.deadline
                    )
                else:
                    values, batch_info = await future
            except asyncio.TimeoutError:
                # wait_for cancelled the future; the scheduler skips done or
                # cancelled futures, so the batch completes for everyone else
                self.metrics.record_deadline_exceeded()
                return {"ok": False, "deadline_exceeded": True,
                        "error": f"request exceeded the {self.deadline:g}s "
                                 "deadline; the server may be overloaded"}
            except Exception as exc:
                # every batch failure becomes a clean error response — an
                # unexpected exception type must not kill the connection
                self.metrics.record_failed()
                return {"ok": False, "error": f"batch execution failed: {exc}"}
        finally:
            self._in_flight -= 1
        latency = time.perf_counter() - received
        self.metrics.record_served(latency)
        return {"ok": True, "results": values, "batch": batch_info,
                "seconds": latency}

    # ------------------------------------------------------------------ scheduling
    async def _scheduler(self) -> None:
        """Collect queued requests per tick and execute them as one batch."""
        loop = asyncio.get_running_loop()
        while True:
            pending = await self._queue.get()
            if pending is None:
                return
            batch = [pending]
            if self.tick > 0:
                await asyncio.sleep(self.tick)
            stopping = False
            while True:
                try:
                    extra = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if extra is None:
                    stopping = True
                    break
                batch.append(extra)
            start = time.perf_counter()
            try:
                per_request, n_plans = await loop.run_in_executor(
                    self._pool, self._execute_batch, batch
                )
            except Exception as exc:
                for item in batch:
                    if not item.future.done():
                        item.future.set_exception(exc)
            else:
                seconds = time.perf_counter() - start
                self.metrics.record_batch(len(batch), n_plans, seconds)
                info = {"requests": len(batch), "plans": n_plans,
                        "coalesced": self.coalesce, "seconds": seconds}
                for item, values in zip(batch, per_request):
                    if not item.future.done():
                        item.future.set_result((values, info))
            if stopping:
                return

    def _execute_batch(
        self, batch: list[_Pending]
    ) -> tuple[list[dict], int]:
        """Run one batch on the worker thread; per-request value dicts, plan count.

        Coalesced: every request's outputs compile into **one** plan under
        ``(request index, output name)`` keys — the planner dedups shared fold
        partials across requests, so overlapping statistics share sweeps.
        Naive: one plan per request, sequentially (the benchmark baseline).
        """
        if self.coalesce:
            joint = {
                (index, name): expression
                for index, item in enumerate(batch)
                for name, expression in item.outputs.items()
            }
            fused = engine.plan(joint)
            values = fused.execute()
            per_request = [
                {name: values[(index, name)] for name in item.outputs}
                for index, item in enumerate(batch)
            ]
            return per_request, 1
        per_request = [engine.plan(item.outputs).execute() for item in batch]
        return per_request, len(batch)


class ThreadedQueryService:
    """Run a :class:`QueryService` on a private event loop in a daemon thread.

    The embedding shape used by the tests, the serving benchmark and the docs:
    enter the context manager, talk to ``host``/``port`` with a
    :class:`repro.serving.QueryClient`, and leave the block to shut the server
    down cleanly.

    ::

        with ThreadedQueryService(catalog, tick=0.005) as served:
            with QueryClient(served.host, served.port) as client:
                client.evaluate({"m": expr.mean(expr.source("temps"))})

    A server thread that fails to start (port in use) or fails
    to join at exit raises a typed :class:`repro.serving.ServerError` instead
    of silently proceeding; both waits are configurable via
    ``startup_timeout`` / ``shutdown_timeout`` (seconds).
    """

    def __init__(self, catalog: StoreCatalog, host: str = "127.0.0.1",
                 port: int = 0, *, startup_timeout: float = 30.0,
                 shutdown_timeout: float = 30.0, **service_kwargs):
        self.service = QueryService(catalog, **service_kwargs)
        self.host = host
        self.port = port  # resolved to the bound port once started
        self.startup_timeout = float(startup_timeout)
        self.shutdown_timeout = float(shutdown_timeout)
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    def _run(self) -> None:
        """Thread body: own loop, start the service, spin until stopped."""
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        try:
            self.host, self.port = self._loop.run_until_complete(
                self.service.start(self.host, self.port)
            )
        except BaseException as exc:  # surfaced to __enter__
            self._startup_error = exc
            self._ready.set()
            self._loop.close()
            return
        self._ready.set()
        try:
            self._loop.run_forever()
        finally:
            self._loop.run_until_complete(self.service.stop())
            # cancel lingering connection handlers so no coroutine dies
            # un-awaited when the loop closes
            leftovers = asyncio.all_tasks(self._loop)
            for task in leftovers:
                task.cancel()
            if leftovers:
                self._loop.run_until_complete(
                    asyncio.gather(*leftovers, return_exceptions=True)
                )
            self._loop.close()

    def __enter__(self) -> "ThreadedQueryService":
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-serving")
        self._thread.start()
        if not self._ready.wait(timeout=self.startup_timeout):
            raise ServerError(
                f"query service failed to start within {self.startup_timeout:g}s"
            )
        if self._startup_error is not None:
            raise ServerError(
                f"query service failed to start: {self._startup_error}"
            ) from self._startup_error
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=self.shutdown_timeout)
            if self._thread.is_alive():
                raise ServerError(
                    f"query service thread failed to shut down within "
                    f"{self.shutdown_timeout:g}s; its daemon thread may still "
                    "hold the port"
                )
