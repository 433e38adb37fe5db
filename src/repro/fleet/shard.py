"""Deterministic sharding of sweep specs, and bit-identical merges.

A :class:`ShardPlan` splits one spec into K disjoint sub-specs that cover
the parent's cross-product exactly once, then reassembles shard results
into output **byte-identical** to the unsharded path. Both halves are pure
functions of the parent spec and K — no wall clock, no arrival order — so
a plan can be rebuilt anywhere (coordinator, CI, a retry after a crash)
and always names the same shards with the same sub-specs.

Which axis may be sharded is a correctness question, not a tuning knob:

* ``DesignSweepSpec``: every :class:`~repro.api.DesignPoint` in the cross
  product is evaluated independently (its own samples/rng), so *any* axis
  (designs / tiles / precisions) splits cleanly. The plan picks the
  longest axis (most parallelism), preferring designs, then tiles, on
  ties.
* ``RunSpec``: only the ``points`` (precision) axis. The sources axis is
  **not** shardable: a run samples every source's operands from one
  shared RNG stream consumed sequentially, so dropping a source from a
  sub-spec would shift every later source's operands and change the
  numbers. Precision points, by contrast, all score the same operands.

Merged output equals unsharded output byte-for-byte because (a) each
result point depends only on its own sub-spec slice, (b) the plan records
every shard's parent point indices so the merge restores parent order
exactly, and (c) the result dicts round-trip JSON bit-exactly (asserted
by the store/service test suites this builds on).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.api import (
    DesignReport,
    DesignSweepSpec,
    RunSpec,
    render_design_reports,
    render_sweep,
)
from repro.analysis.sweeps import PrecisionSweep
from repro.api.session import sweep_points_from_dicts, sweep_points_to_dicts
from repro.api.spec import spec_from_kind, spec_kind_of
from repro.chaos.errors import FatalError

__all__ = ["Shard", "ShardMergeError", "ShardPlan"]


class ShardMergeError(FatalError, ValueError):
    """A shard returned results that don't match its slice of the plan.

    Deterministic — the same shard would return the same wrong shape again —
    so it is :class:`~repro.chaos.errors.FatalError` (retry loops must not
    re-dispatch on it) while staying a ``ValueError`` for older callers.
    """


def _balanced_spans(n: int, k: int) -> list[tuple[int, int]]:
    """K contiguous [start, stop) spans covering range(n), sizes within 1."""
    base, extra = divmod(n, k)
    spans, start = [], 0
    for i in range(k):
        stop = start + base + (1 if i < extra else 0)
        spans.append((start, stop))
        start = stop
    return spans


@dataclass(frozen=True)
class Shard:
    """One sub-spec of a plan.

    The sub-spec's own ``spec.fingerprint()`` keys results and coalescing
    on the service side, so a shard shares cache entries with any direct
    run of the same sub-grid. ``point_indices`` are the parent-axis
    positions this shard covers (``RunSpec.points`` indices for sweeps,
    flat ``DesignSweepSpec.points()`` indices for design sweeps), in the
    shard's local result order.
    """

    index: int
    spec: RunSpec | DesignSweepSpec
    point_indices: tuple[int, ...]


_AXIS_NONE = "none"


@dataclass(frozen=True)
class ShardPlan:
    """See module docstring. Build with :meth:`build`, merge with
    :meth:`merge_payloads` (or :meth:`merge_reports` for report objects)."""

    kind: str  # "sweep" | "design-sweep" (service wire names)
    parent: RunSpec | DesignSweepSpec
    axis: str  # "points" | "designs" | "tiles" | "precisions" | "none"
    shards: tuple[Shard, ...]

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, spec, shards: int) -> "ShardPlan":
        """Split ``spec`` (object or dict, either kind) into at most
        ``shards`` sub-specs. K is clamped to the sharded axis length, so
        every shard is non-empty and a 1-long grid yields a 1-shard plan.
        """
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        kind = spec_kind_of(spec)
        if kind == "search":
            # a search is sequential across rungs and its rungs are
            # arbitrary candidate subsets, not a cross product — the
            # coordinator fans rungs out via run_specs instead
            raise ValueError(
                "search specs do not shard; run them through "
                "repro.search.SearchSession(fleet=...) (runner: "
                "--search spec.json --fleet URLS)")
        spec = spec_from_kind(kind, spec)
        if kind == "sweep":
            axis, subsets = cls._split_run_spec(spec, shards)
        else:
            axis, subsets = cls._split_design_spec(spec, shards)
        built = tuple(Shard(index=i, spec=sub, point_indices=tuple(indices))
                      for i, (sub, indices) in enumerate(subsets))
        return cls(kind=kind, parent=spec, axis=axis, shards=built)

    @staticmethod
    def _split_run_spec(spec: RunSpec, shards: int):
        n = len(spec.points)
        if n == 0:
            raise ValueError("cannot shard a RunSpec with no points")
        spans = _balanced_spans(n, min(shards, n))
        if len(spans) == 1:
            return _AXIS_NONE, [(spec, range(n))]
        subsets = []
        for i, (start, stop) in enumerate(spans):
            sub = replace(spec, name=f"{spec.name}#s{i}of{len(spans)}",
                          points=spec.points[start:stop])
            subsets.append((sub, range(start, stop)))
        return "points", subsets

    @staticmethod
    def _split_design_spec(spec: DesignSweepSpec, shards: int):
        nd, nt = len(spec.designs), len(spec.tiles)
        np_ = len(spec.precisions) or 1  # precisions=() runs as one None point
        if nd == 0:
            raise ValueError("cannot shard a DesignSweepSpec with no designs")
        # longest axis wins (ties: designs, then tiles — cheaper sub-specs)
        axis, length = max((("designs", nd), ("tiles", nt),
                            ("precisions", len(spec.precisions))),
                           key=lambda kv: kv[1])
        if length <= 1:
            return _AXIS_NONE, [(spec, range(nd * nt * np_))]
        spans = _balanced_spans(length, min(shards, length))
        if len(spans) == 1:
            return _AXIS_NONE, [(spec, range(nd * nt * np_))]
        subsets = []
        for i, (start, stop) in enumerate(spans):
            name = f"{spec.name}#s{i}of{len(spans)}"
            # parent points() order is designs-outer / tiles / precisions-inner
            if axis == "designs":
                sub = replace(spec, name=name, designs=spec.designs[start:stop])
                indices = [d * nt * np_ + t * np_ + p
                           for d in range(start, stop)
                           for t in range(nt) for p in range(np_)]
            elif axis == "tiles":
                sub = replace(spec, name=name, tiles=spec.tiles[start:stop])
                indices = [d * nt * np_ + t * np_ + p
                           for d in range(nd)
                           for t in range(start, stop) for p in range(np_)]
            else:
                sub = replace(spec, name=name,
                              precisions=spec.precisions[start:stop])
                indices = [d * nt * np_ + t * np_ + p
                           for d in range(nd) for t in range(nt)
                           for p in range(start, stop)]
            subsets.append((sub, indices))
        return axis, subsets

    # -- merges (plan order, never arrival order) --------------------------

    def _owners(self) -> dict[int, tuple[int, int]]:
        """parent point index -> (shard index, local position on the axis)."""
        owners: dict[int, tuple[int, int]] = {}
        for shard in self.shards:
            for local, pi in enumerate(shard.point_indices):
                owners[pi] = (shard.index, local)
        return owners

    def _merge_sweep_rows(self, rows: list[list]) -> list:
        """Interleave shard result rows back into parent order.

        Shard results are sources-outer / shard-points-inner (the session's
        order over the *sub*-spec); the parent wants sources-outer /
        parent-points-inner, so each source block pulls its points from the
        owning shard's matching source block.
        """
        n_sources = len(self.parent.sources)
        n_points = len(self.parent.points)
        for shard in self.shards:
            expect = n_sources * len(shard.point_indices)
            got = len(rows[shard.index])
            if got != expect:
                raise ShardMergeError(
                    f"shard {shard.index} returned {got} sweep points, "
                    f"expected {expect}")
        owners = self._owners()
        merged = []
        for si in range(n_sources):
            for pi in range(n_points):
                shard_idx, local = owners[pi]
                width = len(self.shards[shard_idx].point_indices)
                merged.append(rows[shard_idx][si * width + local])
        return merged

    def merge_reports(self, shard_reports: list) -> list:
        """Reassemble per-shard ``DesignReport`` lists (indexed by shard)
        into the parent's ``points()`` order."""
        if self.kind != "design-sweep":
            raise ValueError(f"merge_reports on a {self.kind!r} plan")
        total = sum(len(s.point_indices) for s in self.shards)
        merged: list = [None] * total
        for shard in self.shards:
            reports = list(shard_reports[shard.index])
            if len(reports) != len(shard.point_indices):
                raise ShardMergeError(
                    f"shard {shard.index} returned {len(reports)} reports, "
                    f"expected {len(shard.point_indices)}")
            for local, pi in enumerate(shard.point_indices):
                merged[pi] = reports[local]
        return merged

    def merge_payloads(self, payloads: list[dict]) -> dict:
        """Merge service result payloads (one per shard, shard order) into
        the payload an unsharded service run of the parent would return:
        ``{"kind", "name", "fingerprint", "points"|"reports", "rendered"}``
        with the parent's name/fingerprint and a freshly rendered table —
        byte-identical to the single-service path."""
        base = {"kind": self.kind, "name": self.parent.name,
                "fingerprint": self.parent.fingerprint()}
        if self.kind == "sweep":
            rows = [sweep_points_from_dicts(p["points"]) for p in payloads]
            merged = self._merge_sweep_rows(rows)
            sweep = PrecisionSweep(points=merged)
            return {**base, "points": sweep_points_to_dicts(merged),
                    "rendered": render_sweep(sweep, title=self.parent.name)}
        reports = self.merge_reports(
            [[DesignReport.from_dict(r) for r in p["reports"]]
             for p in payloads])
        return {**base, "reports": [r.to_dict() for r in reports],
                "rendered": render_design_reports(reports,
                                                  title=self.parent.name)}
