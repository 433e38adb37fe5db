"""Unified pull-based metrics registry with Prometheus text exposition.

Every layer declares its counters once, as fields of its stats dataclass
(:func:`counter` marks the monotonic ones). The registry is *pull-based*:
nothing on a hot path ever touches it. Each owner (sessions, store,
service, fleet, the armed chaos engine) registers itself via a weakref, and
the registry reads the live owners only when scraped (``GET /v1/metrics``
or ``REGISTRY.render()``). Dead weakrefs are pruned on collect, so the many
short-lived sessions created by tests never leak.

At scrape the registry calls ``owner.snapshot()`` — a copy of the owner's
stats dataclass, taken under the lock the owner counts under, if any — and
renders each field by its declaration:

* ``counter()`` field             -> a ``counter`` family, suffixed ``_total``
* ``counter(label=...)`` field    -> the same, one sample per dict key under
  that label (e.g. per-site chaos calls)
* other numeric field             -> a ``gauge`` family
* string field                    -> folded into a ``<prefix>_info`` gauge
  as a label (Prometheus "info" idiom)

The few live gauges that are not stored counters (job-status counts, queue
depth, uptime, breaker state) come from the owner's optional
``live_families(labels)`` hook as ready-made :class:`Family` rows, as does
the one direct instrument: the fixed-bucket :class:`Histogram` of the sweep
service's per-job wall time.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from dataclasses import dataclass, field, fields
from typing import Any, Optional, Sequence

__all__ = [
    "counter",
    "Histogram",
    "Family",
    "MetricsRegistry",
    "REGISTRY",
]

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _format_labels(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{k}="{_escape_label(str(v))}"' for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


def counter(help: str = "", *, label: Optional[str] = None):
    """A stats-dataclass field declaring a monotonic counter (default 0).

    With ``label`` the counter is per key: its value is a ``dict`` and the
    registry renders one sample per key under that label name.
    """
    metadata = {"counter": True, "help": help}
    if label is None:
        return field(default=0, metadata=metadata)
    return field(default_factory=dict, metadata={**metadata, "label": label})


@dataclass
class Family:
    """One metric family: a name, a type, and its labeled samples.

    For histograms the samples carry the ``_bucket``/``_sum``/``_count``
    suffixes in ``suffix`` so the family name stays the declared one.
    """

    name: str
    kind: str = "gauge"  # counter | gauge | histogram
    help: str = ""
    samples: list = field(default_factory=list)  # (suffix, labels, value)

    def add(self, value: float, labels: Optional[dict] = None, suffix: str = "") -> None:
        self.samples.append((suffix, dict(labels or {}), value))


DEFAULT_BUCKETS = (0.005, 0.025, 0.1, 0.5, 1.0, 2.5, 10.0, 60.0)


class Histogram:
    """Fixed-bucket cumulative histogram (thread-safe)."""

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS):
        uppers = tuple(sorted(float(b) for b in buckets))
        if not uppers:
            raise ValueError("histogram needs at least one bucket")
        self.uppers = uppers
        self.counts = [0] * len(uppers)
        self.sum = 0.0
        self.count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.sum += value
            self.count += 1
            for i, upper in enumerate(self.uppers):
                if value <= upper:
                    self.counts[i] += 1

    def family(self, name: str, labels: Optional[dict] = None, help: str = "") -> Family:
        fam = Family(name=name, kind="histogram", help=help)
        labels = dict(labels or {})
        with self._lock:
            # observe() increments every bucket with upper >= value, so the
            # per-bucket counts are already cumulative as Prometheus expects.
            for upper, count in zip(self.uppers, self.counts):
                fam.add(count, {**labels, "le": _format_value(upper)}, "_bucket")
            fam.add(self.count, {**labels, "le": "+Inf"}, "_bucket")
            fam.add(self.sum, labels, "_sum")
            fam.add(self.count, labels, "_count")
        return fam


class MetricsRegistry:
    """Holds weakrefs to registered owners; builds families only when
    scraped."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._adapters: list = []
        self._instance_counters: dict = {}

    def next_instance(self, prefix: str) -> str:
        """A stable ``instance`` label value like ``store-3``."""
        with self._lock:
            seq = self._instance_counters.setdefault(prefix, itertools.count(1))
            return f"{prefix}-{next(seq)}"

    def register_object(self, owner: Any, *, prefix: str,
                        labels: Optional[dict] = None) -> None:
        """Register ``owner`` via a weakref; it is read only when scraped.

        The owner provides ``snapshot()``, returning its stats dataclass,
        and optionally ``live_families(labels)`` (see the module docstring).
        """
        with self._lock:
            # drop adapters of collected objects, so short-lived owners
            # (per-call sessions) do not pile up between scrapes
            self._adapters = [e for e in self._adapters if e[0]() is not None]
            self._adapters.append((weakref.ref(owner), prefix, dict(labels or {})))

    def unregister(self, owner: Any) -> None:
        """Stop scraping ``owner`` (e.g. a chaos engine once disarmed)."""
        with self._lock:
            self._adapters = [e for e in self._adapters if e[0]() is not owner]

    @staticmethod
    def _families_for(owner: Any, prefix: str, labels: dict) -> list:
        stats = owner.snapshot()
        families = []
        info_labels: dict = {}
        for f in fields(stats):
            value = getattr(stats, f.name)
            if isinstance(value, str):
                info_labels[f.name] = value
                continue
            is_counter = f.metadata.get("counter", False)
            name = f"{prefix}_{f.name}"
            if is_counter and not name.endswith("_total"):
                name += "_total"
            fam = Family(name=name, kind="counter" if is_counter else "gauge",
                         help=f.metadata.get("help", ""))
            if isinstance(value, dict):
                key = f.metadata["label"]
                for sub, subval in value.items():
                    fam.add(subval, {**labels, key: str(sub)})
            else:
                fam.add(value, labels)
            families.append(fam)
        if info_labels:
            fam = Family(name=f"{prefix}_info", kind="gauge")
            fam.add(1, {**labels, **info_labels})
            families.append(fam)
        live = getattr(owner, "live_families", None)
        if live is not None:
            families.extend(live(labels))
        return families

    def collect(self) -> list:
        """All families from live owners, merged by family name."""
        with self._lock:
            adapters = list(self._adapters)
        merged: dict = {}
        dead = []
        for entry in adapters:
            ref, prefix, labels = entry
            owner = ref()
            if owner is None:
                dead.append(entry)
                continue
            try:
                families = self._families_for(owner, prefix, labels)
            except Exception:  # a broken owner must not poison the scrape
                continue
            for fam in families:
                existing = merged.get(fam.name)
                if existing is None:
                    merged[fam.name] = fam
                elif existing.kind == fam.kind:
                    existing.samples.extend(fam.samples)
                    if not existing.help and fam.help:
                        existing.help = fam.help
        if dead:
            with self._lock:
                self._adapters = [e for e in self._adapters if e not in dead]
        return [merged[name] for name in sorted(merged)]

    def render(self) -> str:
        """Prometheus text exposition format 0.0.4."""
        lines = []
        for fam in self.collect():
            if fam.help:
                lines.append(f"# HELP {fam.name} {fam.help}")
            lines.append(f"# TYPE {fam.name} {fam.kind}")
            for suffix, labels, value in fam.samples:
                lines.append(
                    f"{fam.name}{suffix}{_format_labels(labels)} {_format_value(value)}"
                )
        return "\n".join(lines) + "\n"


REGISTRY = MetricsRegistry()
