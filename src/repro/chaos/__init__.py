"""Deterministic chaos engineering: seeded fault injection + the shared
resilience primitives it exercises.

:class:`FaultPlan` is a JSON-round-trippable schedule of faults
(``store-corrupt@put:N``, ``endpoint-timeout@shard:J``,
``conn-reset@request:M``, ``slow-response@p``) that an armed
:class:`ChaosEngine` injects through explicit hooks at each layer boundary
(store, client, fleet, service). The recovery machinery —
:class:`RetryPolicy`, :class:`CircuitBreaker`, the retryable-vs-fatal error
taxonomy — lives here too so every layer hardens against the same faults the
engine can inject. Arm a plan from the CLI with ``runner ... --chaos plan.json``;
see ``docs/robustness.md``.
"""

from repro.chaos.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.chaos.engine import (
    ChaosEngine,
    arm,
    chaos_hook,
    current_engine,
    disarm,
    install,
)
from repro.chaos.errors import (
    ChaosError,
    DeadlineExceeded,
    FatalError,
    InjectedFault,
    RetriesExhausted,
    RetryableError,
    is_retryable,
)
from repro.chaos.plan import FAULT_KINDS, Fault, FaultPlan
from repro.chaos.retry import RetryPolicy

__all__ = [
    "CLOSED", "HALF_OPEN", "OPEN", "CircuitBreaker",
    "ChaosEngine", "arm", "chaos_hook", "current_engine", "disarm", "install",
    "ChaosError", "DeadlineExceeded", "FatalError", "InjectedFault",
    "RetriesExhausted", "RetryableError", "is_retryable",
    "FAULT_KINDS", "Fault", "FaultPlan",
    "RetryPolicy",
]
