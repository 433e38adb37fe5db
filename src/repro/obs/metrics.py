"""Unified pull-based metrics registry with Prometheus text exposition.

The registry is *pull-based*: nothing on a hot path ever touches it.  The
existing stats objects (``SessionStats``, ``StoreStats``, service stats,
fleet stats, chaos stats, ...) keep their public APIs; each owner registers
a weakref **adapter** — ``collect_fn(obj) -> dict`` — and the registry walks
the live adapters only when scraped (``GET /v1/metrics`` or
``REGISTRY.render()``).  Dead weakrefs are pruned on collect, so the many
short-lived sessions created by tests never leak.

Adapter value conventions:

* numeric value                      -> one sample
* ``dict[str, number]`` value        -> one sample per entry, keyed by a
  ``key=...`` label (e.g. per-source hit counts, per-site chaos calls)
* string value                       -> folded into a ``<prefix>_info`` gauge
  as a label (Prometheus "info" idiom)
* names listed in ``counters=``      -> typed ``counter`` and suffixed
  ``_total``; everything else is a ``gauge``

Direct instruments (:class:`Counter`, :class:`Gauge`, :class:`Histogram`
with fixed buckets) exist for coarse events with no stats object — e.g. the
sweep service's per-job wall-time histogram — and are returned from adapters
as ready-made :class:`Family` rows.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional, Sequence

__all__ = [
    "Counter",
    "Gauge",
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


class Counter:
    """Monotonic counter (thread-safe)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount


class Gauge:
    """Last-write-wins gauge (thread-safe)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value -= amount


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
    """Holds weakref adapters; builds families only when scraped."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._adapters: list = []
        self._instance_counters: dict = {}

    def next_instance(self, prefix: str) -> str:
        """A stable ``instance`` label value like ``store-3``."""
        with self._lock:
            counter = self._instance_counters.setdefault(prefix, itertools.count(1))
            return f"{prefix}-{next(counter)}"

    def register_object(
        self,
        obj: Any,
        collect_fn: Callable[[Any], Any],
        *,
        prefix: str,
        labels: Optional[dict] = None,
        counters: Iterable[str] = (),
        help_text: Optional[dict] = None,
    ) -> None:
        """Register ``obj`` via a weakref; ``collect_fn(obj)`` runs at scrape.

        ``collect_fn`` may return a flat dict (converted per the module
        conventions) or a list of ready-made :class:`Family` rows.
        """
        entry = {
            "ref": weakref.ref(obj),
            "fn": collect_fn,
            "prefix": prefix,
            "labels": dict(labels or {}),
            "counters": frozenset(counters),
            "help": dict(help_text or {}),
        }
        with self._lock:
            # drop adapters of collected objects, so short-lived owners
            # (per-call sessions) do not pile up between scrapes
            self._adapters = [e for e in self._adapters if e["ref"]() is not None]
            self._adapters.append(entry)

    def _families_for(self, entry: dict, obj: Any) -> list:
        raw = entry["fn"](obj)
        if isinstance(raw, list):  # pre-built families
            return raw
        prefix, labels = entry["prefix"], entry["labels"]
        counters, helps = entry["counters"], entry["help"]
        families = []
        info_labels: dict = {}
        for key, value in raw.items():
            if isinstance(value, str):
                info_labels[key] = value
                continue
            if isinstance(value, bool):
                value = int(value)
            is_counter = key in counters
            name = f"{prefix}_{key}"
            if is_counter and not name.endswith("_total"):
                name += "_total"
            fam = Family(
                name=name,
                kind="counter" if is_counter else "gauge",
                help=helps.get(key, ""),
            )
            if isinstance(value, dict):
                for sub, subval in value.items():
                    if isinstance(subval, (int, float)):
                        fam.add(subval, {**labels, "key": str(sub)})
            elif isinstance(value, (int, float)):
                fam.add(value, labels)
            else:
                continue
            families.append(fam)
        if info_labels:
            fam = Family(name=f"{prefix}_info", kind="gauge")
            fam.add(1, {**labels, **info_labels})
            families.append(fam)
        return families

    def collect(self) -> list:
        """All families from live adapters, merged by family name."""
        with self._lock:
            adapters = list(self._adapters)
        merged: dict = {}
        dead = []
        for entry in adapters:
            obj = entry["ref"]()
            if obj is None:
                dead.append(entry)
                continue
            try:
                families = self._families_for(entry, obj)
            except Exception:  # a broken adapter must not poison the scrape
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

    def clear(self) -> None:
        with self._lock:
            self._adapters.clear()


REGISTRY = MetricsRegistry()
