"""Trace export surfaces: Chrome trace-event JSON and a wall-time tree.

``to_chrome_trace`` emits the Trace Event Format (``ph: "X"`` complete
events, microsecond timestamps) that Perfetto / ``chrome://tracing`` load
directly.  ``profile_tree``/``render_profile`` aggregate the same span dicts
into a per-phase wall-time tree for ``runner --profile``.
"""

from __future__ import annotations

from typing import Iterable, Optional

__all__ = [
    "to_chrome_trace",
    "profile_tree",
    "render_profile",
    "trace_roots",
    "span_children",
]


def to_chrome_trace(spans: Iterable[dict]) -> dict:
    """Span dicts -> a Chrome trace-event JSON document (Perfetto-loadable).

    Wall-clock start times index the timeline (they are comparable across
    processes and hosts, unlike ``perf_counter``); durations come from the
    monotonic clock.  Span/parent/trace ids ride in ``args`` so tools and
    tests can rebuild the hierarchy from the file alone.
    """
    events = []
    for s in spans:
        attrs = s.get("attrs") or {}
        events.append(
            {
                "name": s["name"],
                "cat": s["name"].split(".", 1)[0],
                "ph": "X",
                "ts": round(s["start_wall"] * 1e6, 3),
                "dur": round(s["duration"] * 1e6, 3),
                "pid": s.get("pid", 0),
                "tid": s.get("tid", 0),
                "args": {
                    **attrs,
                    "trace_id": s["trace_id"],
                    "span_id": s["span_id"],
                    "parent_id": s.get("parent_id"),
                },
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def trace_roots(spans: Iterable[dict]) -> list:
    """Spans whose parent is absent from the set (usually the one root)."""
    spans = list(spans)
    ids = {s["span_id"] for s in spans}
    return [s for s in spans if s.get("parent_id") not in ids]


def span_children(spans: Iterable[dict]) -> dict:
    """``parent span_id -> [child span dicts]`` (insertion order)."""
    children: dict = {}
    for s in spans:
        children.setdefault(s.get("parent_id"), []).append(s)
    return children


def _union_seconds(intervals: list) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def profile_tree(spans: Iterable[dict]) -> dict:
    """Aggregate spans into a nested name-path tree.

    Nodes merge all spans sharing the same *name path* from a root (so 400
    ``executor.chunk`` spans under ``engine.kernels`` become one row with
    ``calls: 400``).  Each node: ``{"name", "calls", "seconds", "children"}``.
    ``seconds`` is the wall-clock union of the node's spans (from
    ``start_wall`` and ``duration``), so spans that ran concurrently on a
    pool count once and a node never shows more time than its parent.
    """
    spans = list(spans)
    by_id = {s["span_id"]: s for s in spans}

    def path_of(s: dict) -> tuple:
        path = [s["name"]]
        seen = {s["span_id"]}
        parent = s.get("parent_id")
        while parent in by_id and parent not in seen:
            seen.add(parent)
            node = by_id[parent]
            path.append(node["name"])
            parent = node.get("parent_id")
        return tuple(reversed(path))

    root = {"name": "", "calls": 0, "seconds": 0.0, "children": {}}
    intervals: dict = {}  # id(node) -> (node, [(start, end), ...])
    for s in spans:
        node = root
        for name in path_of(s):
            node = node["children"].setdefault(
                name, {"name": name, "calls": 0, "seconds": 0.0, "children": {}}
            )
        node["calls"] += 1
        start = s["start_wall"]
        intervals.setdefault(id(node), (node, []))[1].append((start, start + s["duration"]))
    for node, spans_at in intervals.values():
        node["seconds"] = _union_seconds(spans_at)
    return root


def render_profile(spans: Iterable[dict], total: Optional[float] = None) -> str:
    """The ``--profile`` wall-time tree, one aggregated row per span path."""
    tree = profile_tree(spans)
    top_level = tree["children"].values()
    if total is None:
        total = sum(n["seconds"] for n in top_level) or 1.0

    lines = [f"{'phase':<44} {'calls':>7} {'seconds':>10} {'% total':>8}"]

    def walk(node: dict, depth: int) -> None:
        label = ("  " * depth) + node["name"]
        pct = 100.0 * node["seconds"] / total if total else 0.0
        lines.append(
            f"{label:<44} {node['calls']:>7} {node['seconds']:>10.4f} {pct:>7.1f}%"
        )
        for child in sorted(
            node["children"].values(), key=lambda n: n["seconds"], reverse=True
        ):
            walk(child, depth + 1)

    for node in sorted(top_level, key=lambda n: n["seconds"], reverse=True):
        walk(node, 0)
    return "\n".join(lines)
