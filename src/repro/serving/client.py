"""Small synchronous client for the query service's line protocol.

:class:`QueryClient` speaks the newline-delimited JSON protocol of
:class:`repro.serving.QueryService` over one TCP connection.  It accepts
either ready-made wire dicts or live :class:`repro.engine.expr` nodes (which
it serializes with :func:`repro.engine.wire.request_to_wire` — sources must
wrap catalog *names*, since the stores live server-side).

One connection answers requests in order, so a single client is a sequential
caller; run several clients (threads or processes) to exercise the server's
request coalescing, as ``benchmarks/bench_serving.py`` does.

**Reliability.**  The client never leaks its socket: a failed connect, a
malformed response or a mid-call transport error closes the connection before
the error propagates.  With a ``retry`` policy, connects and calls are retried
with decorrelated-jitter backoff (reconnecting between attempts — calls are
read-only, so a retried evaluate is safe); with a per-call ``deadline``, the
whole call (including retries) is bounded and overruns raise
:class:`repro.reliability.DeadlineError`.
"""

from __future__ import annotations

import json
import socket
import time
from typing import Any, Mapping

from ..engine.expr import Expr
from ..engine.wire import request_to_wire
from ..reliability.errors import DeadlineError
from ..reliability.retry import Deadline, RetryPolicy, retry_call

__all__ = ["QueryClient", "ServerError"]


class ServerError(RuntimeError):
    """The server answered ``ok: false``; the message is the server's error.

    Also raised by :class:`repro.serving.ThreadedQueryService` when the server
    thread fails to start or join within its timeout.  Inspect
    :attr:`response` (when set) for the structured error — ``overloaded`` and
    ``deadline_exceeded`` rejections are flagged there.
    """

    def __init__(self, message: str, *, response: dict | None = None):
        super().__init__(message)
        self.response = response

    @property
    def overloaded(self) -> bool:
        """True when the server rejected the call with backpressure."""
        return bool(self.response and self.response.get("overloaded"))

    @property
    def deadline_exceeded(self) -> bool:
        """True when the server gave up on the call at its own deadline."""
        return bool(self.response and self.response.get("deadline_exceeded"))


class QueryClient:
    """One TCP connection to a :class:`repro.serving.QueryService`.

    ::

        with QueryClient(host, port) as client:
            values = client.evaluate({"m": expr.mean(expr.source("temps"))})

    Usable as a context manager; :meth:`close` is idempotent.

    Parameters
    ----------
    host, port:
        Server address.
    timeout:
        Socket timeout per blocking operation, in seconds (``None`` blocks
        forever).
    retry:
        Optional :class:`repro.reliability.RetryPolicy`; when set, failed
        connects and transport errors mid-call (connection reset, malformed
        response, timeout without a deadline) are retried on a fresh
        connection.  ``None`` (default) fails on the first error, like the
        pre-reliability client.
    deadline:
        Optional per-call wall-clock budget in seconds, spanning every retry;
        an overrun raises :class:`repro.reliability.DeadlineError`.
    """

    def __init__(self, host: str, port: int, timeout: float | None = 30.0, *,
                 retry: RetryPolicy | None = None,
                 deadline: float | None = None):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry = retry
        self.deadline = deadline
        self._socket: socket.socket | None = None
        self._stream = None
        self._next_id = 0
        self._connect(Deadline.after(deadline))

    # ------------------------------------------------------------------ transport
    def _connect_once(self) -> None:
        """One connect attempt; on failure nothing is left open."""
        sock = socket.create_connection((self.host, self.port),
                                        timeout=self.timeout)
        try:
            self._stream = sock.makefile("rwb")
        except Exception:
            sock.close()
            raise
        self._socket = sock

    def _connect(self, deadline: Deadline | None) -> None:
        """Connect, retrying per the client's policy under ``deadline``."""
        if self.retry is None:
            self._connect_once()
            return
        retry_call(self._connect_once, policy=self.retry,
                   retry_on=(OSError,), deadline=deadline)

    def _call(self, request: dict) -> dict:
        """Send one request line, read one response line, check ``ok``.

        Transport failures close the socket (never leaking it) and, with a
        ``retry`` policy, reconnect and retry; :class:`ServerError` (the
        server answered, unhappily) and :class:`DeadlineError` are never
        retried.
        """
        deadline = Deadline.after(self.deadline)
        attempts = self.retry.attempts if self.retry is not None else 1
        delays = self.retry.delays() if self.retry is not None else None
        last_exc: BaseException | None = None
        for attempt in range(1, attempts + 1):
            try:
                if self._socket is None:
                    self._connect(deadline)
                return self._exchange(request, deadline)
            except DeadlineError:
                self.close()
                raise
            except (ConnectionError, OSError) as exc:
                self.close()
                last_exc = exc
                if attempt >= attempts:
                    break
                pause = next(delays)
                if deadline is not None:
                    left = deadline.remaining()
                    if left <= 0:
                        break
                    pause = min(pause, left)
                time.sleep(pause)
        assert last_exc is not None
        raise last_exc

    def _exchange(self, request: dict, deadline: Deadline | None) -> dict:
        """One request/response round trip on the current connection."""
        self._next_id += 1
        request = {"id": self._next_id, **request}
        if deadline is not None:
            left = deadline.remaining()
            if left <= 0:
                raise DeadlineError(
                    f"call exceeded its {deadline.budget:g}s deadline before sending"
                )
            self._socket.settimeout(
                left if self.timeout is None else min(self.timeout, left)
            )
        try:
            self._stream.write(json.dumps(request).encode("utf-8") + b"\n")
            self._stream.flush()
            line = self._stream.readline()
        except socket.timeout as exc:
            if deadline is not None and deadline.expired():
                raise DeadlineError(
                    f"call exceeded its {deadline.budget:g}s deadline waiting "
                    "for the server"
                ) from exc
            raise  # a plain socket timeout stays an OSError (retryable)
        if not line:
            raise ConnectionError("server closed the connection")
        try:
            response = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ConnectionError(f"malformed response from server: {exc}") from exc
        if not isinstance(response, dict) or response.get("id") != self._next_id:
            got = response.get("id") if isinstance(response, dict) else response
            raise ConnectionError(
                f"response id {got!r} does not match request id {self._next_id}"
            )
        if not response.get("ok"):
            raise ServerError(response.get("error", "unknown server error"),
                              response=response)
        return response

    # ------------------------------------------------------------------ requests
    def evaluate(self, outputs: Mapping[str, "Expr | dict"]) -> dict[str, Any]:
        """Evaluate named reductions server-side; returns ``{name: value}``.

        ``outputs`` maps names to reduction expressions over catalog-name
        sources, or to already serialized wire dicts (passed through).
        """
        response = self.evaluate_full(outputs)
        return response["results"]

    def evaluate_full(self, outputs: Mapping[str, "Expr | dict"]) -> dict:
        """Like :meth:`evaluate` but returns the whole response — results plus
        the batch the request rode in (``batch.requests``/``plans``/``coalesced``)
        and the server-side latency in seconds."""
        live = {name: node for name, node in outputs.items()
                if isinstance(node, Expr)}
        wired = dict(request_to_wire(live)) if live else {}
        for name, node in outputs.items():
            if name not in wired:
                wired[name] = node  # already a wire dict
        return self._call({"kind": "evaluate", "outputs": wired})

    def stats(self) -> dict:
        """The server's metrics snapshot (requests, plans, latency, cache)."""
        return self._call({"kind": "stats"})["stats"]

    def catalog(self) -> dict:
        """The server's catalog listing (name → path and geometry if open)."""
        return self._call({"kind": "catalog"})["catalog"]

    # ------------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Close the stream and socket; safe to call more than once."""
        stream, sock = self._stream, self._socket
        self._stream = None
        self._socket = None
        try:
            if stream is not None:
                stream.close()
        except OSError:  # pragma: no cover - best-effort teardown
            pass
        finally:
            if sock is not None:
                sock.close()

    def __enter__(self) -> "QueryClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
