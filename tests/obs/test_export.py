"""repro.obs.export: Chrome trace events and the --profile tree."""

import json

from repro.obs.export import (
    profile_tree,
    render_profile,
    span_children,
    to_chrome_trace,
    trace_roots,
)
from repro.obs.trace import install, trace_span


def _sample_spans():
    with install() as tracer:
        with trace_span("runner", mode="spec"):
            with trace_span("session.sweep"):
                with trace_span("engine.kernels"):
                    pass
                with trace_span("engine.kernels"):
                    pass
    return tracer.export()


class TestChromeTrace:
    def test_document_shape(self):
        doc = to_chrome_trace(_sample_spans())
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        assert doc["displayTimeUnit"] == "ms"
        assert len(doc["traceEvents"]) == 4
        for ev in doc["traceEvents"]:
            assert ev["ph"] == "X"
            assert set(ev) >= {"name", "cat", "ts", "dur", "pid", "tid", "args"}
            assert ev["cat"] == ev["name"].split(".")[0]
            assert ev["ts"] > 0 and ev["dur"] >= 0
            assert "span_id" in ev["args"] and "trace_id" in ev["args"]

    def test_hierarchy_reconstructable_from_args(self):
        doc = to_chrome_trace(_sample_spans())
        by_id = {e["args"]["span_id"]: e for e in doc["traceEvents"]}
        kernels = [e for e in doc["traceEvents"] if e["name"] == "engine.kernels"]
        assert len(kernels) == 2
        for ev in kernels:
            assert by_id[ev["args"]["parent_id"]]["name"] == "session.sweep"

    def test_json_serializable(self):
        doc = to_chrome_trace(_sample_spans())
        assert json.loads(json.dumps(doc)) == doc

    def test_attrs_ride_in_args(self):
        doc = to_chrome_trace(_sample_spans())
        runner = next(e for e in doc["traceEvents"] if e["name"] == "runner")
        assert runner["args"]["mode"] == "spec"


class TestHierarchyHelpers:
    def test_trace_roots_finds_the_single_root(self):
        spans = _sample_spans()
        (root,) = trace_roots(spans)
        assert root["name"] == "runner"

    def test_orphans_count_as_roots(self):
        spans = _sample_spans()
        orphan = dict(spans[0], span_id="zz", parent_id="not-present")
        roots = trace_roots(spans + [orphan])
        assert {r["name"] for r in roots} == {"runner", spans[0]["name"]}

    def test_span_children_groups_by_parent(self):
        spans = _sample_spans()
        root = trace_roots(spans)[0]
        children = span_children(spans)
        assert [c["name"] for c in children[root["span_id"]]] == ["session.sweep"]


class TestProfile:
    def test_tree_merges_same_name_paths(self):
        tree = profile_tree(_sample_spans())
        runner = tree["children"]["runner"]
        sweep = runner["children"]["session.sweep"]
        kernels = sweep["children"]["engine.kernels"]
        assert runner["calls"] == 1
        assert kernels["calls"] == 2
        assert kernels["seconds"] >= 0.0

    def test_render_has_header_and_indented_rows(self):
        text = render_profile(_sample_spans())
        lines = text.splitlines()
        assert lines[0].split() == ["phase", "calls", "seconds", "%", "total"]
        assert lines[1].startswith("runner")
        assert any(line.startswith("  session.sweep") for line in lines)
        assert any(line.startswith("    engine.kernels") for line in lines)
        assert all(line.rstrip().endswith("%") for line in lines[1:])

    def test_concurrent_children_count_once(self):
        """Two overlapping pool chunks show their wall-clock union, not the
        sum of their durations, so they never exceed their parent."""
        def span(name, sid, parent, start, duration):
            return {"name": name, "span_id": sid, "parent_id": parent,
                    "trace_id": "t", "start_wall": start, "duration": duration,
                    "attrs": {}}

        spans = [span("engine.kernels", "k", None, 10.0, 1.0),
                 span("executor.chunk", "c1", "k", 10.0, 0.75),
                 span("executor.chunk", "c2", "k", 10.25, 0.75)]
        kernels = profile_tree(spans)["children"]["engine.kernels"]
        chunks = kernels["children"]["executor.chunk"]
        assert chunks["calls"] == 2
        assert chunks["seconds"] == 1.0  # [10, 10.75] u [10.25, 11]
        assert chunks["seconds"] <= kernels["seconds"]

    def test_cycle_guard_terminates(self):
        a = {"name": "a", "span_id": "1", "parent_id": "2", "trace_id": "t",
             "start_wall": 0.0, "duration": 0.1, "attrs": {}}
        b = {"name": "b", "span_id": "2", "parent_id": "1", "trace_id": "t",
             "start_wall": 0.0, "duration": 0.1, "attrs": {}}
        tree = profile_tree([a, b])  # must not loop forever
        assert tree["children"]

    def test_empty_spans_render(self):
        assert render_profile([]).splitlines()[0].startswith("phase")
