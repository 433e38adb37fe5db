"""Sweep service: a stdlib HTTP front door over one shared session pair.

The service turns the library's sessions into something network clients can
share: one :class:`~repro.api.EmulationSession` + one
:class:`~repro.api.DesignSession` (weight plans, value-keyed memos, and an
optional persistent :class:`~repro.store.ResultStore`) behind a JSON API::

    POST /v1/sweep          body: RunSpec JSON         -> {"job": ..., ...}
    POST /v1/design-sweep   body: DesignSweepSpec JSON -> {"job": ..., ...}
    POST /v1/search         body: SearchSpec JSON      -> {"job": ..., ...}
    GET  /v1/jobs/<id>[?wait=SECONDS]                  -> job status/result
    GET  /v1/healthz                                   -> cheap liveness probe
    GET  /v1/stats                                     -> service + store stats
    GET  /v1/metrics                                   -> Prometheus exposition
    POST /v1/shutdown                                  -> drain and stop

Jobs run on a sized worker pool (``queue_workers``; HTTP handler threads
only enqueue and wait). Identical in-flight requests **coalesce**: two
clients posting specs with the same result fingerprint share one queued job
— the second POST returns the first's job id with ``"coalesced": true`` —
and a per-``(kind, fingerprint)`` compute lock guarantees two workers never
run one fingerprint concurrently even on paths that bypass the coalescer.
A ``queue_cap`` bounds the number of *queued* (not yet running) jobs: a
submit against a full queue is refused with :class:`ServiceBusy` (HTTP 429
plus a ``Retry-After`` hint) instead of blocking the accept loop; accepted
jobs are never dropped. Completed results stay addressable by job id until
the process exits; with a store they also persist on disk, so a rebooted
service answers warm.

Binding a non-loopback interface requires a bearer token
(``ServiceServer(token=...)`` or ``REPRO_SERVICE_TOKEN``); with a token
set, every endpoint except ``GET /v1/healthz`` requires
``Authorization: Bearer <token>`` (constant-time compare).

The pure-stdlib choice (``http.server.ThreadingHTTPServer``) is deliberate:
no dependency beyond NumPy enters the repo, and the paper's workload —
thousands of repeated accuracy x efficiency queries over the same grids —
is compute-bound on the sessions, not on HTTP parsing.
"""

from __future__ import annotations

import copy
import hmac
import ipaddress
import itertools
import json
import math
import os
import queue
import socket
import threading
import time
from dataclasses import asdict, dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro import __version__
from repro.api import (
    DesignSession,
    DesignSweepSpec,
    EmulationSession,
    RunSpec,
    render_design_reports,
    render_sweep,
)
from repro.api.session import sweep_points_to_dicts
from repro.api.spec import spec_from_kind
from repro.chaos.engine import chaos_hook, current_engine
from repro.obs.metrics import CONTENT_TYPE as METRICS_CONTENT_TYPE
from repro.obs.metrics import REGISTRY, Family, Histogram, counter
from repro.obs.trace import (
    TRACE_HEADER,
    ensure_armed,
    parse_trace_header,
    trace_span,
)
from repro.store import ResultStore

__all__ = ["SweepService", "ServiceServer", "ServiceBusy", "Job"]

# Cap one long-poll's server-side wait; clients loop for longer timeouts.
MAX_WAIT_SECONDS = 60.0

# Finished jobs retained for GET /v1/jobs/<id>; beyond this the oldest
# finished jobs (and their result payloads) are dropped, so a long-lived
# service holds bounded memory no matter how many specs it has served.
MAX_FINISHED_JOBS = 1024

# Retry-After hints are clamped to this window: short enough that a backed
# -off client re-probes a drained queue promptly, long enough to shed load.
MIN_RETRY_AFTER = 1.0
MAX_RETRY_AFTER = 60.0

# Largest request body a POST may declare. The largest committed spec
# (examples/specs/fig3_quick.json) posts as ~1.5 KB and its fleet shards as
# less, so 1 MiB leaves ~700x headroom for hand-built grids while a hostile
# Content-Length is refused before a byte of it is read.
MAX_BODY_BYTES = 1 << 20

# A keep-alive connection that sends no request for this long is closed, so
# an idle client cannot hold a handler thread forever (the client resends
# on a fresh connection). Long-polls are not idle: the wait is server-side.
IDLE_TIMEOUT_SECONDS = 30.0


class ServiceBusy(RuntimeError):
    """Submit refused because the job queue is at its cap.

    ``retry_after`` is the service's own estimate (seconds) of when queue
    space should free up — the HTTP layer forwards it as a ``Retry-After``
    header and :class:`repro.service.client.ServiceClient` honors it.
    """

    def __init__(self, message: str, retry_after: float):
        super().__init__(message)
        self.retry_after = retry_after


@dataclass
class Job:
    """One queued/running/finished computation (see module docstring)."""

    id: str
    kind: str  # "sweep" | "design-sweep" | "search"
    fingerprint: str
    spec: RunSpec | DesignSweepSpec
    status: str = "queued"  # -> "running" -> "done" | "error"
    result: dict | None = None
    error: str | None = None
    created: float = 0.0
    started: float | None = None
    finished: float | None = None
    # wire trace context adopted while the job computes (None = untraced);
    # telemetry only — never part of the fingerprint or the result points
    trace: dict | None = None
    done: threading.Event = field(default_factory=threading.Event)

    def as_dict(self, include_result: bool = True) -> dict:
        d = {
            "job": self.id, "kind": self.kind, "fingerprint": self.fingerprint,
            "name": self.spec.name, "status": self.status,
            "created": self.created, "started": self.started,
            "finished": self.finished,
        }
        if self.error is not None:
            d["error"] = self.error
        if include_result and self.result is not None:
            d["result"] = self.result
        return d


# Fixed buckets for the per-job wall-time histogram (seconds): sweep jobs
# span ~10ms quick specs to multi-minute fleet rungs.
_JOB_SECONDS_BUCKETS = (0.01, 0.05, 0.25, 1.0, 5.0, 30.0, 120.0, 600.0)


@dataclass
class ServiceStats:
    """The service's own counters (``/v1/stats`` and ``/v1/metrics`` read
    these; its sessions and store count into theirs)."""

    coalesced: int = counter("Submissions coalesced onto an in-flight twin.")
    rejected_busy: int = counter("Submissions refused with HTTP 429.")
    jobs_completed: int = counter("Jobs finished (done or error).")


class SweepService:
    """Job queue + coalescer over one shared session pair and store.

    The HTTP layer delegates everything here, so the service is fully
    usable in-process too (the test suite, the fleet coordinator's
    :class:`repro.fleet.LocalEndpoint`, and the benchmark harness drive
    it both ways).

    ``queue_workers`` sizes the worker pool draining the job queue (the
    sessions are concurrency-safe; distinct jobs run in parallel while a
    per-``(kind, fingerprint)`` lock keeps identical work serialized).
    ``queue_cap`` bounds *queued* jobs — a submit beyond it raises
    :class:`ServiceBusy` with a ``retry_after`` hint instead of blocking;
    ``None`` leaves the queue unbounded (the PR-5 behavior).
    """

    def __init__(self, store=None, backend=None, workers: int | None = None,
                 max_finished_jobs: int = MAX_FINISHED_JOBS,
                 queue_workers: int = 1, queue_cap: int | None = None):
        if queue_workers < 1:
            raise ValueError(f"queue_workers must be >= 1, got {queue_workers}")
        if queue_cap is not None and queue_cap < 1:
            raise ValueError(f"queue_cap must be >= 1 (or None), got {queue_cap}")
        self.max_finished_jobs = max_finished_jobs
        self.queue_workers = queue_workers
        self.queue_cap = queue_cap
        self.store = ResultStore.coerce(store)
        self.emulation = EmulationSession(workers=workers, backend=backend,
                                          store=self.store)
        self.design = DesignSession(workers=workers, backend=backend,
                                    emulation=self.emulation, store=self.store)
        self.started_at = time.time()
        self._counts = ServiceStats()
        self._jobs: dict[str, Job] = {}
        self._inflight: dict[tuple[str, str], Job] = {}
        self._fp_locks: dict[tuple[str, str], list] = {}  # key -> [lock, refs]
        self._queue: queue.Queue[Job | None] = queue.Queue()
        self._queued = 0  # jobs enqueued but not yet picked up by a worker
        self._avg_job_seconds: float | None = None
        # per-job wall-time telemetry (finished jobs get pruned, so it
        # lives here rather than being derived from _jobs)
        self._last_job_seconds: float | None = None
        self._job_seconds = Histogram(_JOB_SECONDS_BUCKETS)
        self._lock = threading.Lock()
        REGISTRY.register_object(
            self, prefix="repro_service",
            labels={"instance": REGISTRY.next_instance("service")})
        self._ids = itertools.count(1)
        self._closed = False
        self._workers = [
            threading.Thread(target=self._run_jobs,
                             name=f"sweep-service-worker-{i}", daemon=True)
            for i in range(queue_workers)
        ]
        for worker in self._workers:
            worker.start()

    # -- submission --------------------------------------------------------

    @staticmethod
    def parse_spec(kind: str, spec_dict: dict) -> RunSpec | DesignSweepSpec:
        """Validate a request body into a spec (raises on malformed input)."""
        return spec_from_kind(kind, spec_dict)

    def _retry_after_hint(self) -> float:
        """Seconds until queue space plausibly frees up (held lock).

        The average job duration times the queue depth per worker — crude,
        but it scales the hint with actual load instead of a constant."""
        avg = self._avg_job_seconds if self._avg_job_seconds else MIN_RETRY_AFTER
        hint = avg * max(1, self._queued) / self.queue_workers
        return min(MAX_RETRY_AFTER, max(MIN_RETRY_AFTER, hint))

    def submit(self, kind: str, spec_dict: dict,
               trace: dict | None = None) -> tuple[Job, bool]:
        """Queue a spec (validated eagerly) or coalesce onto an in-flight
        twin; returns ``(job, coalesced)``.

        ``trace`` is an adopted wire context (from an ``X-Repro-Trace``
        header or an in-process caller): the job's spans are parented under
        it and shipped back on the result payload as ``"trace_spans"``. A
        submission that coalesces onto an in-flight twin keeps the *first*
        submitter's context — one job, one trace.

        Raises ``RuntimeError`` once :meth:`close` has begun (checked under
        the lock, and the enqueue happens under the same lock, so a submit
        racing ``close()`` either lands before the drain — and runs — or is
        refused; it can never enqueue onto a drained queue) and
        :class:`ServiceBusy` when ``queue_cap`` queued jobs already wait.
        """
        spec = self.parse_spec(kind, spec_dict)  # CPU-bound: outside the lock
        fingerprint = spec.fingerprint()
        with self._lock:
            if self._closed:
                raise RuntimeError("service is closed")
            twin = self._inflight.get((kind, fingerprint))
            if twin is not None:  # coalesced joins never count against the cap
                self._counts.coalesced += 1
                return twin, True
            if self.queue_cap is not None and self._queued >= self.queue_cap:
                self._counts.rejected_busy += 1
                raise ServiceBusy(
                    f"job queue is full ({self._queued} queued, cap "
                    f"{self.queue_cap})", retry_after=self._retry_after_hint())
            job = Job(id=f"job-{next(self._ids)}-{fingerprint[:8]}", kind=kind,
                      fingerprint=fingerprint, spec=spec, created=time.time(),
                      trace=trace)
            self._jobs[job.id] = job
            self._inflight[(kind, fingerprint)] = job
            self._queued += 1
            self._queue.put(job)  # unbounded queue: the put never blocks
        return job, False

    def job(self, job_id: str, wait: float = 0.0) -> Job | None:
        """Look a job up, optionally long-polling until it finishes."""
        with self._lock:
            job = self._jobs.get(job_id)
        if job is not None and wait > 0:
            job.done.wait(min(wait, MAX_WAIT_SECONDS))
        return job

    # -- the workers -------------------------------------------------------

    def _checkout_fp_lock(self, key: tuple[str, str]) -> threading.Lock:
        """Refcounted per-(kind, fingerprint) compute lock.

        Coalescing already funnels identical submissions into one job, so
        contention here is the exception, not the rule — the lock is the
        guarantee (identical work never runs twice concurrently on the
        shared sessions), not the scheduler. Distinct fingerprints never
        wait on each other: the queue itself is not serialized.
        """
        with self._lock:
            entry = self._fp_locks.get(key)
            if entry is None:
                entry = [threading.Lock(), 0]
                self._fp_locks[key] = entry
            entry[1] += 1
        return entry[0]

    def _checkin_fp_lock(self, key: tuple[str, str]) -> None:
        with self._lock:
            entry = self._fp_locks[key]
            entry[1] -= 1
            if entry[1] == 0:  # bounded: entries live only while checked out
                del self._fp_locks[key]

    def _run_jobs(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            with self._lock:
                self._queued -= 1
            key = (job.kind, job.fingerprint)
            fp_lock = self._checkout_fp_lock(key)
            job.status = "running"
            job.started = time.time()
            try:
                # slow-response faults land here: the latency is injected
                # server-side, before compute, so results stay bit-identical
                chaos_hook("service.job", kind=job.kind)
                if job.trace is None:
                    with fp_lock:
                        job.result = self._compute(job)
                else:
                    # adopt the submitter's trace: the job's spans (and its
                    # sessions'/store's, recursively) are collected and
                    # handed back on the payload — rendered output and
                    # result points are untouched, so byte-identity holds
                    collected: list = []
                    with ensure_armed().adopt(job.trace, collector=collected):
                        with trace_span("service.job", kind=job.kind,
                                        job=job.id):
                            with fp_lock:
                                result = self._compute(job)
                    job.result = {**result, "trace_spans": collected}
                job.status = "done"
            except Exception as exc:  # job errors must not kill the worker
                job.error = f"{type(exc).__name__}: {exc}"
                job.status = "error"
            finally:
                self._checkin_fp_lock(key)
                job.finished = time.time()
                duration = job.finished - job.started
                self._job_seconds.observe(duration)
                with self._lock:
                    self._avg_job_seconds = (
                        duration if self._avg_job_seconds is None
                        else 0.7 * self._avg_job_seconds + 0.3 * duration)
                    self._counts.jobs_completed += 1
                    self._last_job_seconds = duration
                    self._inflight.pop(key, None)
                    self._prune_finished()
                job.done.set()

    def _prune_finished(self) -> None:
        """Drop the oldest finished jobs beyond the retention cap (held lock).

        ``_jobs`` is insertion-ordered, so the first finished entries are
        the oldest; queued/running jobs are never dropped.
        """
        finished = [j for j in self._jobs.values() if j.status in ("done", "error")]
        for job in finished[:max(0, len(finished) - self.max_finished_jobs)]:
            del self._jobs[job.id]

    def _compute(self, job: Job) -> dict:
        base = {"kind": job.kind, "name": job.spec.name,
                "fingerprint": job.fingerprint}
        if job.kind == "sweep":
            sweep = self.emulation.sweep(job.spec)
            return {**base,
                    "points": sweep_points_to_dicts(sweep.points),
                    "rendered": render_sweep(sweep, title=job.spec.name)}
        if job.kind == "search":
            from repro.search import SearchSession, render_search

            # share the service's design session (and store: rung records
            # persist, so a rebooted service resumes a killed search)
            session = SearchSession(design=self.design, store=self.store)
            result = session.run(job.spec)
            return {**base,
                    "result": result.to_dict(),
                    "rendered": render_search(result)}
        reports = self.design.sweep(job.spec)
        return {**base,
                "reports": [r.to_dict() for r in reports],
                "rendered": render_design_reports(reports, title=job.spec.name)}

    # -- observability -----------------------------------------------------

    def healthz(self) -> dict:
        """Cheap liveness probe: no session stats, no job iteration, and no
        ``_lock`` acquisition — safe to poll at any rate (the fleet
        coordinator does) even while every worker is mid-compute."""
        return {
            "ok": not self._closed,
            "version": __version__,
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "queue_depth": self._queued,
            "queue_cap": self.queue_cap,
            "workers": self.queue_workers,
        }

    def snapshot(self) -> ServiceStats:
        """A copy of the service counters, taken under the service lock."""
        with self._lock:
            return copy.deepcopy(self._counts)

    def _job_counts(self) -> dict:
        with self._lock:
            statuses = [j.status for j in self._jobs.values()]
        return {"total": len(statuses),
                **{s: statuses.count(s)
                   for s in ("queued", "running", "done", "error")}}

    def live_families(self, labels: dict) -> list:
        """The metrics that are not stored counters: job-status counts,
        queue depth and uptime, plus the per-job wall-time histogram."""
        jobs = Family("repro_service_jobs", "gauge",
                      "Currently retained jobs by status.")
        for status, n in self._job_counts().items():
            if status != "total":
                jobs.add(n, {**labels, "status": status})
        depth = Family("repro_service_queue_depth", "gauge",
                       "Jobs enqueued but not yet picked up by a worker.")
        depth.add(self._queued, labels)
        uptime = Family("repro_service_uptime_seconds", "gauge",
                        "Seconds since the service started.")
        uptime.add(round(time.time() - self.started_at, 3), labels)
        return [jobs, depth, uptime, self._job_seconds.family(
            "repro_service_job_seconds", labels, "Per-job wall time (seconds).")]

    def stats(self) -> dict:
        counts = self.snapshot()
        return {
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "jobs": self._job_counts(),
            "coalesced": counts.coalesced,
            "queue": {"workers": self.queue_workers, "cap": self.queue_cap,
                      "depth": self._queued,
                      "rejected_busy": counts.rejected_busy},
            # per-job wall time, for operators and dashboards (the 429
            # Retry-After hint reads the same running average)
            "timing": {
                "jobs_completed": counts.jobs_completed,
                "avg_job_seconds": (
                    None if self._avg_job_seconds is None
                    else round(self._avg_job_seconds, 6)),
                "last_job_seconds": (
                    None if self._last_job_seconds is None
                    else round(self._last_job_seconds, 6)),
                "wall_seconds_total": round(self._job_seconds.sum, 6),
            },
            "store": None if self.store is None else asdict(self.store.snapshot()),
            "emulation": asdict(self.emulation.snapshot()),
            "design": asdict(self.design.snapshot()),
            "chaos": (None if current_engine() is None
                      else current_engine().stats()),
        }

    def close(self) -> None:
        """Drain the queue, stop the workers, close the sessions.

        Genuinely drains: already-accepted jobs (running *and* queued)
        finish before the sessions close, however long they take — a
        shutdown must not turn an accepted job into a mid-compute error.
        New submissions are refused as soon as close begins (the flag is
        set under the same lock :meth:`submit` enqueues under).
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for _ in self._workers:  # FIFO: sentinels land after real jobs
                self._queue.put(None)
        for worker in self._workers:
            worker.join()
        self.design.close()  # does not own the shared emulation session
        self.emulation.close()


def _is_loopback_host(host: str) -> bool:
    """True for binds that only loopback traffic can reach."""
    if host == "localhost":
        return True
    try:
        return ipaddress.ip_address(host).is_loopback
    except ValueError:
        return False  # "", "0.0.0.0", "::", hostnames: assume reachable


class _BodyRejected(Exception):
    """A request body refused before it is read: ``code`` is the status."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-sweep-service/1.0"
    protocol_version = "HTTP/1.1"
    timeout = IDLE_TIMEOUT_SECONDS
    # headers and body go out as two sends: without TCP_NODELAY, Nagle's
    # algorithm holds the body back until the client's delayed ACK of the
    # headers, which stalls every response on a reused connection ~40 ms
    disable_nagle_algorithm = True

    def setup(self) -> None:
        super().setup()
        self.server.track(self.connection)  # type: ignore[attr-defined]

    def finish(self) -> None:
        self.server.untrack(self.connection)  # type: ignore[attr-defined]
        super().finish()

    def log_message(self, fmt, *args):  # keep CI logs quiet
        pass

    @property
    def service(self) -> SweepService:
        return self.server.service  # type: ignore[attr-defined]

    def _send(self, code: int, payload: dict, headers: dict | None = None) -> None:
        body = (json.dumps(payload) + "\n").encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, code: int, text: str, content_type: str) -> None:
        body = text.encode()
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _authorized(self) -> bool:
        """Bearer-token check (constant-time); open when no token is set."""
        token = self.server.token  # type: ignore[attr-defined]
        if token is None:
            return True
        supplied = self.headers.get("Authorization") or ""
        return hmac.compare_digest(supplied.encode(), f"Bearer {token}".encode())

    def _reject_unauthorized(self, headers: dict | None = None) -> None:
        self._send(401, {"error": "missing or invalid bearer token"},
                   headers={"WWW-Authenticate": "Bearer", **(headers or {})})

    def _read_body(self) -> dict:
        raw = self.headers.get("Content-Length") or "0"
        try:
            length = int(raw)
        except ValueError:
            length = -1
        if length < 0:
            # rfile.read(-1) would block until the client hangs up
            raise _BodyRejected(400, f"invalid Content-Length {raw!r}")
        if length > MAX_BODY_BYTES:
            raise _BodyRejected(
                413, f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit")
        return json.loads(self.rfile.read(length).decode() or "null")

    def do_GET(self) -> None:  # noqa: N802 (http.server convention)
        url = urlsplit(self.path)
        if url.path == "/v1/healthz":
            # deliberately unauthenticated: liveness probes (load balancers,
            # the fleet coordinator) must work without credential plumbing,
            # and the payload carries no results
            self._send(200, self.service.healthz())
            return
        if not self._authorized():
            self._reject_unauthorized()
            return
        if url.path == "/v1/stats":
            self._send(200, self.service.stats())
            return
        if url.path == "/v1/metrics":
            # Prometheus text exposition over the process-global registry:
            # covers the service, its sessions, the store, and (when armed)
            # the chaos engine — authenticated like /v1/stats
            self._send_text(200, REGISTRY.render(), METRICS_CONTENT_TYPE)
            return
        if url.path.startswith("/v1/jobs/"):
            job_id = url.path[len("/v1/jobs/"):]
            try:
                wait = float((parse_qs(url.query).get("wait") or ["0"])[0])
            except ValueError:
                self._send(400, {"error": "wait must be a number of seconds"})
                return
            job = self.service.job(job_id, wait=wait)
            if job is None:
                self._send(404, {"error": f"unknown job {job_id!r}"})
            else:
                self._send(200, job.as_dict())
            return
        self._send(404, {"error": f"unknown path {url.path!r}"})

    def do_POST(self) -> None:  # noqa: N802
        url = urlsplit(self.path)
        # a response sent before _read_body leaves the body unread, and the
        # keep-alive loop would parse it as the next request: hang up
        hang_up = {"Connection": "close"}
        if not self._authorized():
            self._reject_unauthorized(headers=hang_up)
            return
        if url.path == "/v1/shutdown":
            self._send(200, {"ok": True, "stats": self.service.stats()},
                       headers=hang_up)
            # shutdown() joins the serve loop; must not run on a handler
            # thread's critical path before the response is flushed
            threading.Thread(target=self.server.shutdown, daemon=True).start()
            return
        kinds = {"/v1/sweep": "sweep", "/v1/design-sweep": "design-sweep",
                 "/v1/search": "search"}
        kind = kinds.get(url.path)
        if kind is None:
            self._send(404, {"error": f"unknown path {url.path!r}"},
                       headers=hang_up)
            return
        try:
            spec_dict = self._read_body()
        except _BodyRejected as exc:
            self._send(exc.code, {"error": str(exc)}, headers=hang_up)
            return
        except (ValueError, UnicodeDecodeError) as exc:
            self._send(400, {"error": f"request body is not JSON: {exc}"})
            return
        trace = parse_trace_header(self.headers.get(TRACE_HEADER))
        try:
            job, coalesced = self.service.submit(kind, spec_dict, trace=trace)
        except ServiceBusy as exc:
            self._send(429, {"error": str(exc),
                             "retry_after": exc.retry_after},
                       headers={"Retry-After": str(math.ceil(exc.retry_after))})
            return
        except RuntimeError as exc:  # closing: refuse cleanly, never enqueue
            self._send(503, {"error": str(exc)})
            return
        except (ValueError, KeyError, TypeError) as exc:
            self._send(400, {"error": f"invalid {kind} spec: {exc}"})
            return
        self._send(202, {**job.as_dict(include_result=False),
                         "coalesced": coalesced})


class _KeepAliveHTTPServer(ThreadingHTTPServer):
    """A threaded HTTP server that tracks its open keep-alive connections,
    so closing it also ends the connections its clients hold."""

    daemon_threads = True

    def __init__(self, address, service: SweepService, token: str | None):
        super().__init__(address, _Handler)
        self.service = service
        self.token = token
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        self._closed = False

    @staticmethod
    def _end_reads(conn: socket.socket) -> None:
        """Shut a connection's read side: an idle handler sees end-of-stream
        and hangs up, while a handler mid-request (a long-poll) still
        writes its response."""
        try:
            conn.shutdown(socket.SHUT_RD)
        except OSError:
            pass  # the peer already hung up

    def track(self, conn: socket.socket) -> None:
        with self._connections_lock:
            self._connections.add(conn)
            if self._closed:  # accepted just before server_close
                self._end_reads(conn)

    def untrack(self, conn: socket.socket) -> None:
        with self._connections_lock:
            self._connections.discard(conn)

    def server_close(self) -> None:
        """Stop accepting, then end every open keep-alive connection."""
        super().server_close()
        with self._connections_lock:
            self._closed = True
            for conn in self._connections:
                self._end_reads(conn)


class ServiceServer:
    """The HTTP server owning a :class:`SweepService`.

    ``port=0`` binds an ephemeral port (tests); :attr:`url` reports the
    bound address either way. Use :meth:`serve_forever` to block (the
    runner's ``--serve``) or :meth:`start` for a background thread
    (examples, tests, benchmarks); both end via the ``/v1/shutdown``
    endpoint or :meth:`shutdown`.

    ``token`` (default: the ``REPRO_SERVICE_TOKEN`` environment variable)
    gates every endpoint except ``/v1/healthz`` behind
    ``Authorization: Bearer <token>``. A non-loopback ``host`` without a
    token is refused at construction — an open compute endpoint on a
    reachable interface is always a configuration error.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 store=None, backend=None, workers: int | None = None,
                 queue_workers: int = 1, queue_cap: int | None = None,
                 token: str | None = None,
                 max_finished_jobs: int = MAX_FINISHED_JOBS):
        if token is None:
            token = os.environ.get("REPRO_SERVICE_TOKEN") or None
        if token is not None and not token.strip():
            raise ValueError("service token must be non-empty")
        if not _is_loopback_host(host) and token is None:
            raise ValueError(
                f"refusing to bind non-loopback host {host!r} without a "
                "bearer token: pass token=/--token or set REPRO_SERVICE_TOKEN")
        self.token = token
        self.service = SweepService(store=store, backend=backend,
                                    workers=workers,
                                    queue_workers=queue_workers,
                                    queue_cap=queue_cap,
                                    max_finished_jobs=max_finished_jobs)
        self.httpd = _KeepAliveHTTPServer((host, port), self.service, token)
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    @property
    def url(self) -> str:
        host = self.httpd.server_address[0]
        return f"http://{host}:{self.port}"

    def serve_forever(self) -> None:
        """Block until :meth:`shutdown` or a ``POST /v1/shutdown``."""
        try:
            self.httpd.serve_forever(poll_interval=0.1)
        finally:
            self.close()

    def start(self) -> "ServiceServer":
        """Serve on a background thread (returns immediately)."""
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, kwargs={"poll_interval": 0.1},
            name="sweep-service-http", daemon=True)
        self._thread.start()
        return self

    def shutdown(self) -> None:
        """Stop the serve loop (idempotent), then release all resources."""
        self.httpd.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=60)
            self._thread = None
        self.close()

    def close(self) -> None:
        self.httpd.server_close()
        self.service.close()

    def __enter__(self) -> "ServiceServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()
