"""repro.obs.trace: span lifecycle, arming, context propagation primitives."""

import pickle
import threading

import pytest

from repro.obs.trace import (
    TRACE_HEADER,
    Tracer,
    _NOOP_CM,
    arm,
    current_tracer,
    disarm,
    ensure_armed,
    format_trace_header,
    install,
    parse_trace_header,
    trace_attach,
    trace_capture,
    trace_ingest,
    trace_span,
    trace_wire,
)


class TestDisarmed:
    def test_disarmed_span_is_the_shared_noop(self):
        disarm()
        cm = trace_span("anything", a=1)
        assert cm is _NOOP_CM
        with cm as span:
            assert span.set(x=2) is span  # absorbs attrs silently

    def test_disarmed_helpers_return_none_or_zero(self):
        disarm()
        assert trace_wire() is None
        assert trace_capture() is None
        assert trace_attach(None) is _NOOP_CM
        assert trace_ingest([{"span_id": "x"}]) == 0
        assert current_tracer() is None


class TestSpanLifecycle:
    def test_nesting_parents_and_single_trace(self):
        with install() as tracer:
            with trace_span("outer", kind="test"):
                with trace_span("inner"):
                    pass
                with trace_span("inner"):
                    pass
        spans = tracer.export()
        assert [s["name"] for s in spans] == ["inner", "inner", "outer"]
        outer = spans[-1]
        assert outer["parent_id"] is None
        assert outer["attrs"] == {"kind": "test"}
        assert all(s["parent_id"] == outer["span_id"] for s in spans[:2])
        assert len({s["trace_id"] for s in spans}) == 1

    def test_sibling_roots_get_distinct_traces(self):
        with install() as tracer:
            with trace_span("a"):
                pass
            with trace_span("b"):
                pass
        a, b = tracer.export()
        assert a["trace_id"] != b["trace_id"]

    def test_set_attrs_and_duration(self):
        with install() as tracer:
            with trace_span("op") as span:
                span.set(rows=128).set(hit=True)
        (d,) = tracer.export()
        assert d["attrs"] == {"rows": 128, "hit": True}
        assert d["duration"] >= 0.0
        assert d["pid"] > 0 and d["tid"] == threading.get_ident()

    def test_exception_records_error_attr_and_propagates(self):
        with install() as tracer:
            with pytest.raises(ValueError):
                with trace_span("boom"):
                    raise ValueError("nope")
        (d,) = tracer.export()
        assert d["attrs"]["error"] == "ValueError"

    def test_span_dicts_are_json_and_pickle_safe(self):
        with install() as tracer:
            with trace_span("op", n=1):
                pass
        (d,) = tracer.export()
        assert pickle.loads(pickle.dumps(d)) == d

    def test_max_spans_caps_and_counts_drops(self):
        with install(Tracer(max_spans=3)) as tracer:
            for _ in range(5):
                with trace_span("op"):
                    pass
        assert len(tracer.export()) == 3
        assert tracer.dropped == 2

    def test_clear_resets_everything(self):
        with install() as tracer:
            with trace_span("op"):
                pass
            tracer.clear()
            assert tracer.export() == []
            with trace_span("op2"):
                pass
            assert [s["name"] for s in tracer.export()] == ["op2"]


class TestArming:
    def test_install_restores_previous_tracer(self):
        disarm()
        with install() as outer:
            assert current_tracer() is outer
            with install() as inner:
                assert current_tracer() is inner
            assert current_tracer() is outer
        assert current_tracer() is None

    def test_arm_disarm_round_trip(self):
        t = arm()
        try:
            assert current_tracer() is t
            assert ensure_armed() is t
        finally:
            disarm()
        assert current_tracer() is None

    def test_ensure_armed_creates_one_on_cold_process(self):
        disarm()
        t = ensure_armed()
        try:
            assert current_tracer() is t
            assert ensure_armed() is t  # idempotent
        finally:
            disarm()


class TestPropagationPrimitives:
    def test_capture_attach_parents_across_threads(self):
        with install() as tracer:
            with trace_span("parent"):
                state = trace_capture()

                def work():
                    with trace_attach(state):
                        with trace_span("child"):
                            pass

                thread = threading.Thread(target=work)
                thread.start()
                thread.join()
        child, parent = tracer.export()
        assert child["parent_id"] == parent["span_id"]
        assert child["trace_id"] == parent["trace_id"]

    def test_wire_context_round_trips_through_header(self):
        with install():
            with trace_span("parent"):
                wire = trace_wire()
                assert wire is not None
                header = format_trace_header(wire)
                assert parse_trace_header(header) == wire

    def test_wire_is_none_without_open_span(self):
        with install():
            assert trace_wire() is None

    def test_adopt_parents_under_remote_span(self):
        with install() as tracer:
            wire = {"trace": "cafe", "span": "beef"}
            collected = []
            with tracer.adopt(wire, collector=collected):
                with trace_span("remote.work"):
                    pass
        (d,) = tracer.export()
        assert d["trace_id"] == "cafe"
        assert d["parent_id"] == "beef"
        assert collected == [d]

    def test_ingest_dedups_already_recorded_spans(self):
        with install() as tracer:
            with trace_span("op"):
                pass
            spans = tracer.export()
            assert trace_ingest(spans) == 0  # same ids: all duplicates
            fresh = dict(spans[0], span_id="other-1")
            assert trace_ingest([fresh]) == 1
        assert len(tracer.export()) == 2


class TestHeaderCodec:
    def test_header_name(self):
        assert TRACE_HEADER == "X-Repro-Trace"

    @pytest.mark.parametrize("bad", [None, "", "no-colon", ":x", "x:", "a:b:c"])
    def test_malformed_headers_parse_to_none(self, bad):
        assert parse_trace_header(bad) is None

    def test_whitespace_tolerated(self):
        assert parse_trace_header(" t:s \n") == {"trace": "t", "span": "s"}
