"""Thin stdlib client for the sweep service (see :mod:`repro.service.server`).

Speaks the service's JSON API over :mod:`http.client` — no dependency
beyond the standard library, so any consumer (CI, a notebook, another
service) can submit sweeps without importing the emulation stack::

    from repro.service.client import ServiceClient

    client = ServiceClient("http://127.0.0.1:8731", token="s3cret")
    result = client.run("examples/specs/fig3_quick.json")  # submit + wait
    print(result["rendered"])            # byte-identical to `runner --spec`
    print(client.stats()["coalesced"])   # service-side observability

Requests reuse HTTP/1.1 keep-alive connections: each client holds a small
lock-guarded pool of idle connections to its endpoint, shared by every
thread that calls it, so a warm submit + long-poll costs two round trips
and no TCP handshakes. A connection is dropped when the response says
``Connection: close`` or the request fails; :meth:`ServiceClient.close`
closes the idle ones. A reused connection the server closed while it sat
idle (its idle timeout, a restart) fails before any response byte
arrives; the request never ran, so it is resent once on a fresh one.

A 429 (queue full) from :meth:`~ServiceClient.submit` is retried
automatically, honoring the server's ``Retry-After`` hint, until
``busy_timeout`` runs out — backpressure slows a client down instead of
failing it.

Transport failures are *classified*, not treated uniformly: connection
reset/refused/aborted, timeouts, and HTTP 429/503 mark the resulting
:class:`ServiceError` ``retryable`` (and retryable non-429 errors are
retried in-client under a bounded :class:`repro.chaos.RetryPolicy`,
honoring ``Retry-After``); everything else — bad requests, auth failures,
DNS errors, job errors — is fatal and surfaces immediately.
When a :mod:`repro.obs` tracer is armed, every request carries the current
span as an ``X-Repro-Trace`` header, so a server-side job is parented into
the caller's trace and its spans come back on the result payload.
(:mod:`repro.chaos` and :mod:`repro.obs` are stdlib-only, so this module
still works without the emulation stack installed.)
"""

from __future__ import annotations

import http.client
import json
import os
import threading
import time
from pathlib import Path
from urllib.parse import urlsplit

from repro.chaos.engine import chaos_hook
from repro.chaos.errors import InjectedFault, is_retryable
from repro.chaos.retry import RetryPolicy
from repro.obs.trace import TRACE_HEADER, format_trace_header, trace_wire

__all__ = ["ServiceClient", "ServiceError"]

# Client-side transport retries: small and bounded — the coordinator and
# submit()'s busy_timeout loop layer their own policies on top.
DEFAULT_CLIENT_RETRY = RetryPolicy(attempts=3, backoff=0.1, max_backoff=2.0)

# How a reused connection fails when the server closed it while idle
# (RemoteDisconnected is a ConnectionResetError).
_STALE_ERRORS = (ConnectionResetError, BrokenPipeError)

_CONNECTION_TYPES = {"http": http.client.HTTPConnection,
                     "https": http.client.HTTPSConnection}


class ServiceError(RuntimeError):
    """An HTTP-level or job-level failure, carrying the server's payload.

    ``retry_after`` is set (seconds) when the server sent a ``Retry-After``
    hint, i.e. on 429 queue-full responses. ``retryable`` classifies the
    failure: transient transport faults (connection reset/refused, timeouts)
    and backpressure statuses (429, 503) are retryable; everything else —
    bad requests, auth failures, job errors — is fatal.
    """

    def __init__(self, message: str, status: int | None = None, payload=None,
                 retry_after: float | None = None, retryable: bool = False):
        super().__init__(message)
        self.status = status
        self.payload = payload
        self.retry_after = retry_after
        self.retryable = retryable


# HTTP statuses that signal a transient server condition.
_RETRYABLE_STATUSES = (429, 503)


def _as_spec_dict(spec) -> dict:
    """A request body from a spec object, dict, JSON string, or file path."""
    if hasattr(spec, "to_dict"):
        return spec.to_dict()
    if isinstance(spec, dict):
        return spec
    if isinstance(spec, (str, Path)):
        text = str(spec)
        if text.lstrip()[:1] != "{":
            text = Path(spec).read_text()
        return json.loads(text)
    raise TypeError(f"cannot build a spec body from {type(spec).__name__}")


def spec_kind(spec_dict: dict) -> str:
    """``"search"`` for search documents, ``"design-sweep"`` for design
    grids, ``"sweep"`` for precision grids (the spec schemas are disjoint:
    only search specs carry ``space``/``strategy``, only design specs carry
    ``designs``)."""
    if "space" in spec_dict or "strategy" in spec_dict:
        return "search"
    return "design-sweep" if "designs" in spec_dict else "sweep"


class ServiceClient:
    """See module docstring.

    ``timeout`` bounds each HTTP round trip (long-poll requests add their
    wait on top); job-completion timeouts are per call (:meth:`result`).
    ``token`` (default: the ``REPRO_SERVICE_TOKEN`` environment variable)
    is sent as ``Authorization: Bearer <token>`` on every request.
    """

    def __init__(self, url: str, timeout: float = 30.0,
                 token: str | None = None, retry: RetryPolicy | None = None):
        self.url = url.rstrip("/")
        self.timeout = timeout
        if token is None:
            token = os.environ.get("REPRO_SERVICE_TOKEN") or None
        self.token = token
        self.retry = DEFAULT_CLIENT_RETRY if retry is None else retry
        parts = urlsplit(self.url)
        self._connection_type = _CONNECTION_TYPES.get(parts.scheme)
        self._netloc, self._base_path = parts.netloc, parts.path
        self._idle: list[http.client.HTTPConnection] = []
        self._idle_lock = threading.Lock()

    # -- transport ---------------------------------------------------------

    def _take_idle(self) -> http.client.HTTPConnection | None:
        with self._idle_lock:
            return self._idle.pop() if self._idle else None

    def _exchange(self, method: str, target: str, body: bytes | None,
                  headers: dict, timeout: float):
        """Send one request on a pooled (or new) connection and read the
        whole response; returns ``(response, body bytes)``. The connection
        goes back to the pool unless the server asked to close it."""
        conn = self._take_idle()
        reused = conn is not None
        if reused:
            conn.sock.settimeout(timeout)
        else:
            conn = self._connection_type(self._netloc, timeout=timeout)
        try:
            try:
                conn.request(method, target, body=body, headers=headers)
                response = conn.getresponse()
            except _STALE_ERRORS:
                if not reused:
                    raise
                # closed by the server while idle, before it read this
                # request: the request never ran, so resend it once
                conn.close()
                conn = self._connection_type(self._netloc, timeout=timeout)
                conn.request(method, target, body=body, headers=headers)
                response = conn.getresponse()
            data = response.read()
        except BaseException:
            conn.close()
            raise
        if response.will_close:
            conn.close()
        else:
            with self._idle_lock:
                self._idle.append(conn)
        return response, data

    def _request_once(self, method: str, path: str, payload=None,
                      timeout: float | None = None) -> dict:
        """One HTTP round trip, with the failure classified (see
        :class:`ServiceError`). The ``client.request`` chaos hook fires
        before the wire so injected resets exercise the real retry path;
        a reset also drops the idle connection the request would have
        used, so the retry really reconnects."""
        try:
            chaos_hook("client.request", method=method, path=path)
        except InjectedFault as exc:
            conn = self._take_idle()
            if conn is not None:
                conn.close()
            raise ServiceError(f"{method} {path} to {self.url} failed: {exc}",
                               retryable=True) from exc
        if self._connection_type is None:
            raise ServiceError(f"cannot reach service at {self.url}: "
                               "unsupported URL scheme")
        body = None if payload is None else (json.dumps(payload) + "\n").encode()
        headers = {"Content-Type": "application/json"} if body else {}
        if self.token is not None:
            headers["Authorization"] = f"Bearer {self.token}"
        wire = trace_wire()  # None unless a tracer is armed with an open span
        if wire is not None:
            # re-read per attempt, so a retried request still carries the
            # caller's current span as the remote parent
            headers[TRACE_HEADER] = format_trace_header(wire)
        try:
            response, data = self._exchange(
                method, self._base_path + path, body, headers,
                timeout or self.timeout)
        except (OSError, http.client.HTTPException) as exc:
            # refused/reset/timed out is transient; a DNS failure or a
            # malformed URL is fatal
            raise ServiceError(f"cannot reach service at {self.url}: "
                               f"{exc!r}", retryable=is_retryable(exc)) from exc
        if 200 <= response.status < 300:
            return json.loads(data.decode())
        try:
            detail = json.loads(data.decode())
        except Exception:
            detail = None
        message = (detail or {}).get(
            "error", f"HTTP Error {response.status}: {response.reason}")
        try:
            retry_after = float(response.headers.get("Retry-After"))
        except (TypeError, ValueError):
            retry_after = None
        raise ServiceError(message, status=response.status, payload=detail,
                           retry_after=retry_after,
                           retryable=response.status in _RETRYABLE_STATUSES)

    def close(self) -> None:
        """Close the idle pooled connections. The client stays usable: the
        next request opens a new connection."""
        with self._idle_lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def _request(self, method: str, path: str, payload=None,
                 timeout: float | None = None, retry: bool = True) -> dict:
        """:meth:`_request_once` under the client's :class:`RetryPolicy`.

        Only *retryable* failures are retried (a ``Retry-After`` hint
        stretches the backoff delay). 429 is deliberately excluded — queue
        backpressure belongs to :meth:`submit`'s ``busy_timeout`` loop, so
        retrying it here would double-count the wait.
        """
        delays = self.retry.delays() if retry else iter(())
        while True:
            try:
                return self._request_once(method, path, payload, timeout)
            except ServiceError as exc:
                if not exc.retryable or exc.status == 429:
                    raise
                delay = next(delays, None)
                if delay is None:
                    raise
                if exc.retry_after is not None:
                    delay = max(delay, exc.retry_after)
                time.sleep(delay)

    # -- the API -----------------------------------------------------------

    def submit(self, spec, kind: str | None = None,
               busy_timeout: float = 60.0) -> dict:
        """POST a spec; returns the job ticket (``job``/``status``/
        ``coalesced``/``fingerprint``). ``kind`` is auto-detected from the
        spec body unless given.

        A 429 (queue full) is retried after the server's ``Retry-After``
        hint until ``busy_timeout`` elapses, then re-raised.
        """
        spec_dict = _as_spec_dict(spec)
        kind = kind or spec_kind(spec_dict)
        deadline = time.monotonic() + busy_timeout
        while True:
            try:
                return self._request("POST", f"/v1/{kind}", spec_dict)
            except ServiceError as exc:
                if exc.status != 429:
                    raise
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise
                time.sleep(min(max(exc.retry_after or 1.0, 0.05), remaining))

    def job(self, job_id: str, wait: float = 0.0) -> dict:
        """GET one job's status (``wait`` long-polls server-side)."""
        suffix = f"?wait={wait:g}" if wait > 0 else ""
        return self._request("GET", f"/v1/jobs/{job_id}{suffix}",
                             timeout=self.timeout + wait)

    def result(self, job_id: str, timeout: float = 600.0) -> dict:
        """Long-poll a job to completion and return its ``result`` payload
        (raises :class:`ServiceError` on job failure or timeout)."""
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServiceError(f"job {job_id!r} did not finish in {timeout}s")
            job = self.job(job_id, wait=min(remaining, 10.0))
            if job["status"] == "done":
                return job["result"]
            if job["status"] == "error":
                raise ServiceError(f"job {job_id!r} failed: {job.get('error')}",
                                   payload=job)

    def run(self, spec, kind: str | None = None, timeout: float = 600.0) -> dict:
        """Submit + wait: the one-call client path (``runner --submit``)."""
        ticket = self.submit(spec, kind=kind)
        return self.result(ticket["job"], timeout=timeout)

    def health(self) -> dict:
        """GET /v1/healthz — liveness without auth (the one open endpoint).

        Single attempt, no retries: health probes want an honest answer
        *now* (the fleet's circuit breaker owns the when-to-retry logic).
        """
        return self._request("GET", "/v1/healthz", retry=False)

    def stats(self) -> dict:
        return self._request("GET", "/v1/stats")

    def shutdown(self) -> dict:
        """Ask the service to stop; returns its final stats snapshot.

        Single attempt: re-POSTing a shutdown whose response was lost would
        just hammer an already-dying server.
        """
        return self._request("POST", "/v1/shutdown", retry=False)
