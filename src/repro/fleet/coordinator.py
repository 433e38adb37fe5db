"""Fan a :class:`~repro.fleet.ShardPlan` out to N endpoints, merge the results.

The coordinator is the horizontal layer over the sweep service: build a
plan, dispatch each shard to an endpoint (round-robin by shard index),
long-poll results, and :meth:`~repro.fleet.ShardPlan.merge_payloads` them
back into the exact payload one unsharded service run would have produced.

Endpoints are anything speaking the client protocol — ``http://...`` URLs
(wrapped in :class:`~repro.service.ServiceClient`), in-process
:class:`~repro.service.SweepService` instances (wrapped in
:class:`LocalEndpoint`), or any object with ``submit``/``result``/
``health``. Mixing kinds is fine; a laptop session can join a fleet of
remote services.

Failure policy: a *transport* failure (connection refused, job timeout, an
injected chaos fault) triggers bounded retry under a shared
:class:`~repro.chaos.RetryPolicy` and — when a health probe says the
endpoint is gone — opens that endpoint's :class:`~repro.chaos.CircuitBreaker`
and re-dispatches its shards to survivors, so a killed fleet member slows
the sweep down instead of failing it. An open breaker is not forever: after
its cooldown the next sweep health-probes the endpoint (``/v1/healthz``)
and, on success, closes the breaker — recovered endpoints *rejoin* the
rotation (``stats()["rejoins"]``). When every endpoint is down the
coordinator degrades gracefully: remaining shards run on a lazily built
in-process :class:`~repro.service.SweepService`
(``stats()["shards_local"]``), and the merge stays byte-identical because
the fallback runs the exact service compute path. A *job* failure (the
service computed and said "error") or a 4xx rejection is deterministic:
every endpoint would fail the same way, so it fails the sweep fast with
:class:`FleetError` instead of burning retries.
"""

from __future__ import annotations

import copy
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

from repro.api.spec import spec_from_kind, spec_kind_of
from repro.chaos.breaker import CLOSED, CircuitBreaker
from repro.chaos.engine import chaos_hook
from repro.chaos.errors import InjectedFault
from repro.chaos.retry import RetryPolicy
from repro.fleet.shard import ShardPlan
from repro.obs.metrics import REGISTRY, Family, counter
from repro.obs.trace import (trace_attach, trace_capture, trace_ingest,
                             trace_span, trace_wire)
from repro.service.client import ServiceClient, ServiceError, _as_spec_dict
from repro.store import ResultStore
from repro.store.fingerprint import fingerprint as _fingerprint

__all__ = ["FleetCoordinator", "FleetError", "LocalEndpoint"]

# stats()["stragglers"] keeps only this many of the most recent records
MAX_STRAGGLERS = 64


class FleetError(RuntimeError):
    """The fleet could not complete a sweep (all endpoints dead, retries
    exhausted, or a shard job failed deterministically)."""


class LocalEndpoint:
    """The endpoint protocol over an in-process
    :class:`~repro.service.SweepService` — lets the coordinator mix local
    sessions into a fleet (or run entirely in-process, as the tests and
    the benchmark harness do) with no HTTP in the loop."""

    def __init__(self, service, name: str = "local"):
        self.service = service
        self.url = f"local:{name}"

    def submit(self, spec, kind: str | None = None, busy_timeout: float = 60.0) -> dict:
        spec_dict = _as_spec_dict(spec)
        kind = kind or spec_kind_of(spec_dict)
        deadline = time.monotonic() + busy_timeout
        while True:
            try:
                # mirror the HTTP client's X-Repro-Trace header: hand the
                # current span over so the in-process job joins the trace
                job, coalesced = self.service.submit(kind, spec_dict,
                                                     trace=trace_wire())
            except (ValueError, KeyError, TypeError) as exc:
                # mirror the HTTP 400: a malformed spec is deterministic
                raise ServiceError(f"invalid {kind} spec: {exc}",
                                   status=400) from exc
            except RuntimeError as exc:
                busy_after = getattr(exc, "retry_after", None)
                if busy_after is None:  # closed, not busy: a dead endpoint
                    raise ServiceError(str(exc)) from exc
                if time.monotonic() + busy_after > deadline:
                    raise ServiceError(str(exc), status=429,
                                       retry_after=busy_after) from exc
                time.sleep(busy_after)
                continue
            return {"job": job.id, "coalesced": coalesced,
                    "fingerprint": job.fingerprint, "status": job.status}

    def result(self, job_id: str, timeout: float = 600.0) -> dict:
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServiceError(f"job {job_id!r} did not finish in {timeout}s")
            job = self.service.job(job_id, wait=min(remaining, 10.0))
            if job is None:
                raise ServiceError(f"unknown job {job_id!r}", status=404)
            if job.status == "done":
                return job.result
            if job.status == "error":
                raise ServiceError(f"job {job_id!r} failed: {job.error}",
                                   payload=job.as_dict(include_result=False))

    def health(self) -> dict:
        return self.service.healthz()

    def stats(self) -> dict:
        return self.service.stats()


def _as_endpoint(endpoint, token: str | None):
    if isinstance(endpoint, str):
        return ServiceClient(endpoint, token=token)
    if hasattr(endpoint, "submit") and hasattr(endpoint, "result"):
        return endpoint
    # a bare SweepService (has submit but no result long-poll)
    if hasattr(endpoint, "job") and hasattr(endpoint, "healthz"):
        return LocalEndpoint(endpoint)
    raise TypeError(f"cannot use {type(endpoint).__name__} as a fleet endpoint")


@dataclass
class FleetStats:
    """The coordinator's counters (``stats()`` and ``/v1/metrics`` read
    these)."""

    shards_completed: int = counter("Shards completed, on endpoints or locally.")
    shards_skipped_warm: int = counter("Shards served from the coordinator store.")
    shards_local: int = counter("Shards run on the local fallback service.")
    retries: int = counter("Transport failures retried.")
    redispatches: int = counter("Shards completed off their preferred endpoint.")
    rejoins: int = counter("Open breakers closed by a health probe.")
    endpoint_jobs: dict = counter("Jobs completed per endpoint.", label="endpoint")


# breaker state -> the repro_fleet_breaker_state gauge value
_BREAKER_LEVEL = {"closed": 0, "half-open": 1, "open": 2}


def _is_deterministic(exc: ServiceError) -> bool:
    """True when retrying elsewhere cannot help: the job itself failed
    (the spec computes to an error on any endpoint) or the request was
    rejected as invalid/unauthorized. 429 never reaches here — the
    endpoint's ``submit`` retries it internally via ``Retry-After``."""
    if exc.payload is not None and exc.payload.get("status") == "error":
        return True
    return exc.status is not None and 400 <= exc.status < 500 and exc.status != 429


class FleetCoordinator:
    """See module docstring.

    ``shards=None`` defaults to one shard per endpoint. ``timeout`` is per
    shard attempt (submit + long-poll). ``retry`` bounds the attempts per
    shard and the backoff between them; the default makes 4 attempts,
    sleeping ~0.25 s, 0.5 s and 1 s (jittered) between rounds.

    ``store`` (a :class:`~repro.store.ResultStore` or directory path) adds
    coordinator-side result caching: each shard's finished service payload
    is persisted keyed by ``(kind, sub-spec fingerprint)``, and before
    dispatching a shard the coordinator consults the store — a store-warm
    shard is served from disk without touching any endpoint (counted in
    ``stats()["shards_skipped_warm"]``). Payloads are merged the same way
    either path, so a warm run's output is byte-identical to a cold one.
    The endpoints' own stores are unrelated (and may not be shared
    filesystems); this cache lives with the coordinator.

    ``breaker_cooldown`` (seconds) is how long a failed endpoint sits out
    before the next health-probed rejoin attempt.

    One dispatch thread pool (built on the first sweep) and each HTTP
    endpoint's keep-alive connections serve every sweep of the
    coordinator's lifetime; :meth:`close` releases them.
    """

    def __init__(self, endpoints, shards: int | None = None,
                 timeout: float = 600.0, token: str | None = None,
                 store=None,
                 retry: RetryPolicy = RetryPolicy(attempts=4, backoff=0.25,
                                                  max_backoff=4.0),
                 breaker_cooldown: float = 2.0):
        self.endpoints = [_as_endpoint(e, token) for e in endpoints]
        if not self.endpoints:
            raise ValueError("a fleet needs at least one endpoint")
        if shards is not None and shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.shards = shards
        self.timeout = timeout
        self.retry = retry
        self.store = ResultStore.coerce(store)
        self._lock = threading.Lock()
        self._breakers = [CircuitBreaker(cooldown=breaker_cooldown)
                          for _ in self.endpoints]
        self._local: LocalEndpoint | None = None
        self._pool: ThreadPoolExecutor | None = None
        self._stragglers: deque[dict] = deque(maxlen=MAX_STRAGGLERS)
        # per-endpoint counter keys, metric labels and stats rows must be
        # unique, and two default LocalEndpoints share one url: suffix
        # "#<index>" there
        urls = [ep.url for ep in self.endpoints]
        self._endpoint_keys = [u if urls.count(u) == 1 else f"{u}#{i}"
                               for i, u in enumerate(urls)]
        self._counts = FleetStats(
            endpoint_jobs=dict.fromkeys(self._endpoint_keys, 0))
        REGISTRY.register_object(
            self, prefix="repro_fleet",
            labels={"instance": REGISTRY.next_instance("fleet")})

    # -- dispatch ----------------------------------------------------------

    def _shard_pool(self) -> ThreadPoolExecutor:
        """The dispatch pool, built on first use and kept until
        :meth:`close`: its threads (and the endpoints' pooled connections)
        serve every later sweep instead of being rebuilt per call."""
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=4 * len(self.endpoints),
                    thread_name_prefix="fleet-shard")
            return self._pool

    def run(self, spec, kind: str | None = None) -> dict:
        """Shard ``spec`` (object / dict / JSON string / path) as ``kind``
        (inferred when omitted), fan the shards out, and return the merged
        service-shape payload — byte-identical to an unsharded run of the
        parent."""
        spec_dict = _as_spec_dict(spec)
        parsed = spec_from_kind(kind or spec_kind_of(spec_dict), spec_dict)
        plan = ShardPlan.build(parsed, self.shards or len(self.endpoints))
        payloads = self._fan_out(plan.kind, [s.spec for s in plan.shards])
        return plan.merge_payloads(payloads)

    def run_specs(self, specs, kind: str | None = None,
                  timeout: float | None = None) -> list[dict]:
        """Dispatch one whole spec per job (no sharding) and return the
        service payloads in spec order.

        This is the fan-out primitive :class:`repro.search.SearchSession`
        uses for rung evaluation — a rung is an arbitrary candidate
        subset, not a cross product, so it ships as N independent
        single-point specs rather than a :class:`~repro.fleet.ShardPlan`.
        Each spec gets the full failure policy (retry, redispatch, warm
        store skip) of a plan shard. ``timeout`` overrides the
        coordinator's per-attempt timeout for this call — search rung
        deadlines pass their remaining budget here so a hung rung fails
        fast instead of waiting out the fleet default.
        """
        spec_dicts = [_as_spec_dict(s) for s in specs]
        if not spec_dicts:
            return []
        kind = kind or spec_kind_of(spec_dicts[0])
        parsed = [spec_from_kind(kind, d) for d in spec_dicts]
        return self._fan_out(kind, parsed, timeout=timeout)

    def _fan_out(self, kind: str, specs: list,
                 timeout: float | None = None) -> list[dict]:
        """Run each spec as one unit of fleet work on the dispatch pool
        (spec ``i`` prefers endpoint ``i % len(endpoints)``), record
        stragglers, and return the payloads in spec order."""
        started = time.monotonic()
        durations = [0.0] * len(specs)
        with trace_span("fleet.sweep", kind=kind, shards=len(specs),
                        endpoints=len(self.endpoints)):
            state = trace_capture()

            def run_one(i):
                t0 = time.monotonic()
                with trace_attach(state):
                    payload = self._cached_dispatch(kind, i, specs[i], timeout)
                durations[i] = time.monotonic() - t0
                return payload

            payloads = list(self._shard_pool().map(run_one, range(len(specs))))
        self._note_stragglers(durations, time.monotonic() - started)
        return payloads

    # -- store cache -------------------------------------------------------

    @staticmethod
    def _payload_key(kind: str, spec) -> str:
        return _fingerprint({"fleet_payload": {"kind": kind,
                                               "spec": spec.fingerprint()}})

    def _cached_dispatch(self, kind: str, index: int, spec,
                         timeout: float | None) -> dict:
        """One unit of fleet work: serve it store-warm, or dispatch it and
        persist the payload. Spec fingerprints exclude presentation fields
        (``name``/``executor``), and the merge layers never read a
        payload's embedded name — so a renamed parent still hits."""
        if self.store is not None:
            payload = self.store.get_json("fleet-payload",
                                          self._payload_key(kind, spec))
            if payload is not None:
                with self._lock:
                    self._counts.shards_skipped_warm += 1
                return payload
        payload = self._run_shard(kind, index, spec, timeout=timeout)
        spans = payload.pop("trace_spans", None)
        if spans:
            # merge the shard service's spans into this trace *before* the
            # payload is persisted or merged — telemetry never reaches the
            # store or the result, so warm/cold stay byte-identical
            trace_ingest(spans)
        if self.store is not None:
            self.store.put_json("fleet-payload",
                                self._payload_key(kind, spec), payload)
        return payload

    def _endpoint_ready(self, ep_idx: int) -> bool:
        """Closed breaker → ready. Open breaker → ready only once the
        cooldown has elapsed *and* a ``/v1/healthz`` probe succeeds, which
        closes the breaker again (a rejoin). Failed probes re-open it."""
        breaker = self._breakers[ep_idx]
        if breaker.state == CLOSED:
            return True
        if not breaker.allow():  # cooling down, or another thread probes
            return False
        try:
            self.endpoints[ep_idx].health()
        except Exception:
            breaker.record_failure()
            return False
        breaker.record_success()
        with self._lock:
            self._counts.rejoins += 1
        return True

    def _live_rotation(self, start: int):
        """Endpoint indices to try, preferred first, skipping open breakers
        (probing half-open ones back in when they recover)."""
        n = len(self.endpoints)
        return [(start + i) % n for i in range(n)
                if self._endpoint_ready((start + i) % n)]

    def _run_shard(self, kind: str, index: int, spec,
                   timeout: float | None) -> dict:
        """Dispatch one spec: each retry round walks the live endpoints,
        preferred first; when none is live, the in-process fallback
        service takes the last attempt."""
        preferred = index % len(self.endpoints)
        timeout = self.timeout if timeout is None else timeout
        delays = self.retry.delays()
        last_error: Exception | None = None
        for attempt in range(self.retry.attempts):
            for ep_idx in self._live_rotation(preferred) or [None]:
                local = ep_idx is None
                if local:
                    endpoint = self._local_endpoint()
                    attrs = {"attempt": -1, "fallback": True}
                else:
                    endpoint = self.endpoints[ep_idx]
                    attrs = {"attempt": attempt}
                try:
                    with trace_span("fleet.shard", shard=index,
                                    endpoint=endpoint.url, **attrs):
                        if not local:
                            chaos_hook("fleet.shard", shard=index,
                                       endpoint=ep_idx)
                        ticket = endpoint.submit(spec, kind=kind)
                        payload = endpoint.result(ticket["job"],
                                                  timeout=timeout)
                except (ServiceError, InjectedFault) as exc:
                    # the fallback is the last attempt, so it fails fast too
                    if local or (isinstance(exc, ServiceError)
                                 and _is_deterministic(exc)):
                        raise FleetError(
                            f"shard {index} ({spec.name}) failed "
                            f"on {endpoint.url}: {exc}") from exc
                    last_error = exc
                    self._note_failure(ep_idx)
                    continue  # try the next live endpoint, no backoff
                with self._lock:
                    self._counts.shards_completed += 1
                    if local:
                        self._counts.shards_local += 1
                    else:
                        self._counts.endpoint_jobs[
                            self._endpoint_keys[ep_idx]] += 1
                        if ep_idx != preferred:  # landed on a survivor
                            self._counts.redispatches += 1
                return payload
            delay = next(delays, None)
            if delay is None:
                break
            time.sleep(delay)
        raise FleetError(
            f"shard {index} ({spec.name}) exhausted "
            f"{self.retry.attempts} attempts; last error: {last_error}")

    def _note_failure(self, ep_idx: int) -> None:
        """Book-keep a transport failure and health-probe the endpoint —
        unreachable opens its circuit breaker (its other shards re-route
        immediately, and it sits out ``breaker_cooldown`` before a rejoin
        probe); reachable means the *job* was slow/lost, leave it in
        rotation."""
        try:
            self.endpoints[ep_idx].health()
        except Exception:
            self._breakers[ep_idx].record_failure()
        with self._lock:
            self._counts.retries += 1

    def _local_endpoint(self) -> LocalEndpoint:
        """The all-endpoints-down fallback: an in-process
        :class:`~repro.service.SweepService` sharing the coordinator's
        store. It runs the exact service compute path, so payloads (and
        therefore merges) stay byte-identical to the fleet path."""
        with self._lock:
            if self._local is None:
                from repro.service.server import SweepService

                self._local = LocalEndpoint(SweepService(store=self.store),
                                            name="fallback")
            return self._local

    def close(self) -> None:
        """Stop the dispatch pool's threads, close the HTTP endpoints' idle
        connections and release the local-fallback service. The
        coordinator stays usable: the next sweep rebuilds what it needs."""
        with self._lock:
            pool, self._pool = self._pool, None
            local, self._local = self._local, None
        if pool is not None:
            pool.shutdown(wait=True)
        for endpoint in self.endpoints:
            if isinstance(endpoint, ServiceClient):
                endpoint.close()
        if local is not None:
            local.service.close()

    def _note_stragglers(self, durations: list[float], total: float) -> None:
        """Record every unit of work that took over twice the lower median
        (in a 2-item fan-out, over twice the faster item)."""
        if len(durations) < 2:
            return
        median = sorted(durations)[(len(durations) - 1) // 2]
        if median <= 0:
            return
        with self._lock:
            self._stragglers.extend(
                {"shard": i, "seconds": round(d, 3),
                 "median_seconds": round(median, 3),
                 "sweep_seconds": round(total, 3)}
                for i, d in enumerate(durations) if d > 2.0 * median)

    # -- observability -----------------------------------------------------

    def snapshot(self) -> FleetStats:
        """A copy of the fleet counters, taken under the coordinator lock."""
        with self._lock:
            return copy.deepcopy(self._counts)

    def live_families(self, labels: dict) -> list:
        """One breaker-state gauge per endpoint, so a scrape sees breaker
        flips without parsing :meth:`stats`."""
        state = Family("repro_fleet_breaker_state", "gauge",
                       "Endpoint breaker state (0 closed, 1 half-open, 2 open).")
        for key, breaker in zip(self._endpoint_keys, self._breakers):
            state.add(_BREAKER_LEVEL.get(breaker.state, 2),
                      {**labels, "endpoint": key})
        return [state]

    def stats(self) -> dict:
        with self._lock:
            counts = asdict(self._counts)
            jobs = counts.pop("endpoint_jobs")
            return {
                "endpoints": [
                    {"url": key, "jobs": jobs[key], "state": breaker.state,
                     "dead": breaker.state != CLOSED}
                    for key, breaker in zip(self._endpoint_keys, self._breakers)],
                **counts,
                "stragglers": list(self._stragglers),
            }
