"""Seeded, JSON-round-trippable fault schedules.

A :class:`FaultPlan` is a list of :class:`Fault` entries plus a seed for the
probabilistic faults. Faults are written in a compact grammar (also accepted
as structured dicts)::

    store-corrupt@put:N       corrupt the bytes of the N-th store put on disk
                              after it commits (0-based, counted per process)
    endpoint-timeout@shard:J  fail the fleet dispatch of shard J with a
                              retryable injected fault
    conn-reset@request:M      reset the M-th service-client HTTP request
    slow-response@P           delay each client request / service job with
                              probability P (seeded; timing-only, never
                              affects bytes)

Every fault takes an optional ``xT`` repeat suffix (``conn-reset@request:0x3``
fires on requests 0, 1 and 2). Plans serialise losslessly:
``FaultPlan.from_dict(plan.to_dict()) == plan``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping

__all__ = ["Fault", "FaultPlan", "FAULT_KINDS", "SITE_BY_KIND"]

# kind -> injection site(s). Sites name the layer-boundary hooks; see
# repro.chaos.engine for where each hook is called from.
SITE_BY_KIND = {
    "store-corrupt": ("store.put",),
    "endpoint-timeout": ("fleet.shard",),
    "conn-reset": ("client.request",),
    "slow-response": ("client.request", "service.job"),
}

FAULT_KINDS = tuple(SITE_BY_KIND)

# kind -> the counter label used in the grammar (store-corrupt@put:N).
_LABEL_BY_KIND = {
    "store-corrupt": "put",
    "endpoint-timeout": "shard",
    "conn-reset": "request",
}


def _non_negative_int(value: Any, what: str) -> int:
    try:
        out = int(value)
    except (TypeError, ValueError):
        raise ValueError(f"{what} must be an integer, got {value!r}") from None
    if out < 0:
        raise ValueError(f"{what} must be >= 0, got {out}")
    return out


@dataclass(frozen=True)
class Fault:
    """One scheduled fault. ``at`` is the 0-based site-call index for counter
    kinds; ``shard`` the target shard for endpoint-timeout; ``p`` the per-call
    probability for slow-response. ``times`` repeats counter faults on the
    following calls; ``delay`` is the slow-response sleep in seconds."""

    kind: str
    at: int | None = None
    shard: int | None = None
    p: float | None = None
    times: int = 1
    delay: float = 0.05

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {sorted(FAULT_KINDS)}"
            )
        if self.times < 1:
            raise ValueError(f"times must be >= 1, got {self.times}")
        if self.kind == "slow-response":
            if self.p is None or not (0.0 <= self.p <= 1.0):
                raise ValueError(f"slow-response needs a probability in [0, 1], got {self.p!r}")
            if self.delay < 0:
                raise ValueError(f"delay must be >= 0, got {self.delay}")
        elif self.kind == "endpoint-timeout":
            if self.shard is None:
                raise ValueError("endpoint-timeout needs a target shard (endpoint-timeout@shard:J)")
        else:
            if self.at is None:
                label = _LABEL_BY_KIND[self.kind]
                raise ValueError(f"{self.kind} needs a call index ({self.kind}@{label}:K)")

    @property
    def sites(self) -> tuple[str, ...]:
        return SITE_BY_KIND[self.kind]

    # -- grammar ---------------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "Fault":
        """Parse the compact grammar, e.g. ``store-corrupt@put:2`` or
        ``conn-reset@request:0x3`` or ``slow-response@0.1``."""
        text = text.strip()
        if "@" not in text:
            raise ValueError(f"malformed fault {text!r}: expected kind@target")
        kind, _, target = text.partition("@")
        kind = kind.strip()
        target = target.strip()
        if kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {kind!r} in {text!r}; "
                             f"expected one of {sorted(FAULT_KINDS)}")
        if kind == "slow-response":
            try:
                return cls(kind=kind, p=float(target))
            except ValueError:
                raise ValueError(f"malformed slow-response probability in {text!r}") from None
        label, _, index = target.partition(":")
        expected = _LABEL_BY_KIND[kind]
        if label != expected or not index:
            raise ValueError(f"malformed fault {text!r}: expected {kind}@{expected}:K")
        times = 1
        if "x" in index:
            index, _, reps = index.partition("x")
            times = _non_negative_int(reps, f"repeat count in {text!r}")
        value = _non_negative_int(index, f"index in {text!r}")
        if kind == "endpoint-timeout":
            return cls(kind=kind, shard=value, times=times)
        return cls(kind=kind, at=value, times=times)

    def __str__(self) -> str:
        if self.kind == "slow-response":
            return f"slow-response@{self.p:g}"
        label = _LABEL_BY_KIND[self.kind]
        value = self.shard if self.kind == "endpoint-timeout" else self.at
        suffix = f"x{self.times}" if self.times != 1 else ""
        return f"{self.kind}@{label}:{value}{suffix}"

    # -- dict round trip -------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"kind": self.kind}
        if self.at is not None:
            out["at"] = self.at
        if self.shard is not None:
            out["shard"] = self.shard
        if self.p is not None:
            out["p"] = self.p
        if self.times != 1:
            out["times"] = self.times
        if self.kind == "slow-response" and self.delay != 0.05:
            out["delay"] = self.delay
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any] | str) -> "Fault":
        if isinstance(data, str):
            return cls.parse(data)
        extra = set(data) - {"kind", "at", "shard", "p", "times", "delay"}
        if extra:
            raise ValueError(f"unknown fault fields: {sorted(extra)}")
        if "kind" not in data:
            raise ValueError(f"fault dict missing 'kind': {dict(data)!r}")
        return cls(
            kind=data["kind"],
            at=None if data.get("at") is None else _non_negative_int(data["at"], "at"),
            shard=None if data.get("shard") is None else _non_negative_int(data["shard"], "shard"),
            p=None if data.get("p") is None else float(data["p"]),
            times=int(data.get("times", 1)),
            delay=float(data.get("delay", 0.05)),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A seeded schedule of faults. ``seed`` drives the probabilistic faults
    (slow-response) so a plan replays the same decisions run over run."""

    seed: int = 0
    faults: tuple[Fault, ...] = ()

    @classmethod
    def of(cls, *faults: Fault | str, seed: int = 0) -> "FaultPlan":
        return cls(seed=seed, faults=tuple(Fault.from_dict(f) for f in faults))

    def to_dict(self) -> dict[str, Any]:
        return {"seed": self.seed, "faults": [f.to_dict() for f in self.faults]}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        extra = set(data) - {"seed", "faults"}
        if extra:
            raise ValueError(f"unknown fault-plan fields: {sorted(extra)}")
        faults: Iterable[Any] = data.get("faults", ())
        if isinstance(faults, (str, Mapping)):
            faults = [faults]
        return cls(
            seed=int(data.get("seed", 0)),
            faults=tuple(Fault.from_dict(f) for f in faults),
        )

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        data = json.loads(text)
        if not isinstance(data, Mapping):
            raise ValueError(f"fault plan must be a JSON object, got {type(data).__name__}")
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: str | Path) -> "FaultPlan":
        return cls.from_json(Path(path).read_text())

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n")

    def describe(self) -> str:
        if not self.faults:
            return f"seed={self.seed} (no faults)"
        return f"seed={self.seed} " + " ".join(str(f) for f in self.faults)
