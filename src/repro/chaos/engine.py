"""Deterministic fault-injection engine and the layer-boundary hooks.

One global engine can be *armed* for the process (``arm()`` / ``install()``);
instrumented code calls :func:`chaos_hook` at each layer boundary. Disarmed,
the hook is a single global load and ``None`` check — cheap enough to leave
compiled into every hot path (the ``chaos_overhead`` benchmark row keeps this
honest).

Hook sites and what they return / raise when a fault matches:

==================  ==========================================================
``store.put``       returns ``{"action": "corrupt"}`` — the store corrupts the
                    just-committed bytes on disk (checksum sidecar kept stale)
``fleet.shard``     raises :class:`InjectedFault` for the matching shard
``client.request``  raises :class:`InjectedFault` (conn-reset) or sleeps
                    (slow-response)
``service.job``     sleeps (slow-response) before computing a queued job
==================  ==========================================================

Counter faults (``at``/``times``) match the per-site call counter, which is
atomic under a lock; ``endpoint-timeout`` matches on the shard index carried
in the hook context, so it is deterministic even with concurrent dispatch.
Probabilistic faults draw from a ``random.Random(plan.seed)`` stream —
deterministic for single-threaded call sites, and timing-only (never
byte-affecting) everywhere.
"""

from __future__ import annotations

import contextlib
import copy
import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Iterator

from repro.obs.metrics import REGISTRY, counter

from .errors import InjectedFault
from .plan import Fault, FaultPlan

__all__ = ["ChaosEngine", "ChaosStats", "arm", "disarm", "current_engine",
           "install", "chaos_hook"]


@dataclass
class ChaosStats:
    """An engine's counters (``stats()`` and ``/v1/metrics`` read these)."""

    hook_calls: dict = counter("Chaos hook evaluations by site.", label="site")
    injected: dict = counter("Faults injected by kind.", label="kind")


class ChaosEngine:
    """Evaluates a :class:`FaultPlan` against hook calls, tracking per-site
    call counters and per-fault fire counts. Thread-safe."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._lock = threading.Lock()
        self._rng = random.Random(plan.seed)
        self._counts = ChaosStats()
        self._fired: dict[int, int] = {}  # fault index -> times fired

    # -- matching --------------------------------------------------------------

    def _matches(self, index: int, fault: Fault, site: str, counter: int, ctx: dict) -> bool:
        if site not in fault.sites:
            return False
        fired = self._fired.get(index, 0)
        if fault.kind == "slow-response":
            return self._rng.random() < (fault.p or 0.0)
        if fired >= fault.times:
            return False
        if fault.kind == "endpoint-timeout":
            return ctx.get("shard") == fault.shard
        assert fault.at is not None
        return fault.at <= counter < fault.at + fault.times

    def hook(self, site: str, **ctx: Any) -> dict | None:
        """Evaluate the plan at one hook site. Returns a directive dict for
        directive-style faults, raises for fault-style ones, sleeps for
        delay-style ones, and returns None when nothing matches."""
        sleep_for = 0.0
        directive: dict | None = None
        raise_fault: Fault | None = None
        with self._lock:
            calls = self._counts.hook_calls
            counter = calls.get(site, 0)
            calls[site] = counter + 1
            for index, fault in enumerate(self.plan.faults):
                if not self._matches(index, fault, site, counter, ctx):
                    continue
                self._fired[index] = self._fired.get(index, 0) + 1
                injected = self._counts.injected
                injected[fault.kind] = injected.get(fault.kind, 0) + 1
                if fault.kind == "slow-response":
                    sleep_for = max(sleep_for, fault.delay)
                elif fault.kind == "store-corrupt":
                    directive = {"action": "corrupt"}
                else:  # conn-reset / endpoint-timeout
                    raise_fault = fault
        if sleep_for > 0.0:
            time.sleep(sleep_for)
        if raise_fault is not None:
            detail = f"shard={ctx.get('shard')}" if raise_fault.kind == "endpoint-timeout" else f"call={counter}"
            raise InjectedFault(raise_fault.kind, site, detail)
        return directive

    def snapshot(self) -> ChaosStats:
        """A copy of the engine's counters, taken under its lock."""
        with self._lock:
            return copy.deepcopy(self._counts)

    def stats(self) -> dict[str, Any]:
        counts = self.snapshot()
        return {
            "seed": self.plan.seed,
            "faults": [str(f) for f in self.plan.faults],
            "calls": dict(sorted(counts.hook_calls.items())),
            "injected": dict(sorted(counts.injected.items())),
        }


# -- global arming -------------------------------------------------------------

_ARMED: ChaosEngine | None = None
_ARM_LOCK = threading.Lock()


def arm(engine: ChaosEngine) -> ChaosEngine:
    """Arm ``engine`` process-wide. Only one engine may be armed at a time;
    while armed it is scraped by ``/v1/metrics`` (once per process)."""
    global _ARMED
    with _ARM_LOCK:
        if _ARMED is not None:
            raise RuntimeError("a chaos engine is already armed; disarm() it first")
        _ARMED = engine
    REGISTRY.register_object(
        engine, prefix="repro_chaos",
        labels={"instance": REGISTRY.next_instance("chaos")})
    return engine


def disarm() -> None:
    global _ARMED
    with _ARM_LOCK:
        engine, _ARMED = _ARMED, None
    if engine is not None:
        REGISTRY.unregister(engine)


def current_engine() -> ChaosEngine | None:
    return _ARMED


@contextlib.contextmanager
def install(plan: FaultPlan) -> Iterator[ChaosEngine]:
    """Arm a fresh engine for ``plan`` for the duration of the block."""
    engine = arm(ChaosEngine(plan))
    try:
        yield engine
    finally:
        disarm()


def chaos_hook(site: str, **ctx: Any) -> dict | None:
    """The boundary hook instrumented code calls. Near-free when disarmed."""
    engine = _ARMED
    if engine is None:
        return None
    return engine.hook(site, **ctx)
