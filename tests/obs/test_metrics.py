"""repro.obs.metrics: registry conventions, exposition grammar, weakrefs."""

import gc
import re

import pytest

from repro.obs.metrics import (
    CONTENT_TYPE,
    Counter,
    Family,
    Gauge,
    Histogram,
    MetricsRegistry,
    REGISTRY,
)

# Prometheus text format 0.0.4 sample-line grammar (simplified but strict
# enough to catch label/value formatting bugs).
_SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})?'
    r" [^ ]+$"
)


def assert_valid_exposition(text: str) -> None:
    assert text.endswith("\n")
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        assert _SAMPLE.match(line), f"bad sample line: {line!r}"


class _Holder:
    """A stats-bearing object the registry can weakref."""

    def __init__(self, payload):
        self.payload = payload


class TestInstruments:
    def test_counter_and_gauge(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        g = Gauge()
        g.set(7)
        g.inc()
        g.dec(3)
        assert g.value == 5.0

    def test_histogram_buckets_are_cumulative(self):
        h = Histogram((0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 5.0, 50.0):
            h.observe(v)
        fam = h.family("t_seconds")
        by_le = {labels["le"]: value for suffix, labels, value in fam.samples
                 if suffix == "_bucket"}
        assert by_le == {"0.1": 1, "1.0": 3, "10.0": 4, "+Inf": 5}
        sums = {suffix: value for suffix, labels, value in fam.samples
                if suffix in ("_sum", "_count")}
        assert sums["_count"] == 5
        assert sums["_sum"] == pytest.approx(56.05)

    def test_histogram_rejects_empty_buckets(self):
        with pytest.raises(ValueError):
            Histogram(())


class TestRegistryConventions:
    def test_counters_get_total_suffix_and_type(self):
        reg = MetricsRegistry()
        holder = _Holder({"hits": 3, "depth": 7})
        reg.register_object(holder, lambda h: h.payload, prefix="t",
                            labels={"instance": "t-1"}, counters={"hits"})
        text = reg.render()
        assert '# TYPE t_hits_total counter' in text
        assert 't_hits_total{instance="t-1"} 3' in text
        assert '# TYPE t_depth gauge' in text
        assert 't_depth{instance="t-1"} 7' in text
        assert_valid_exposition(text)

    def test_dict_values_expand_to_key_labels(self):
        reg = MetricsRegistry()
        holder = _Holder({"calls": {"store.put": 4, "fleet.shard": 1}})
        reg.register_object(holder, lambda h: h.payload, prefix="t",
                            counters={"calls"})
        text = reg.render()
        assert 't_calls_total{key="store.put"} 4' in text
        assert 't_calls_total{key="fleet.shard"} 1' in text

    def test_strings_fold_into_info_gauge(self):
        reg = MetricsRegistry()
        holder = _Holder({"backend": "thread", "workers": 2})
        reg.register_object(holder, lambda h: h.payload, prefix="t",
                            labels={"instance": "t-1"})
        text = reg.render()
        assert 't_info{backend="thread",instance="t-1"} 1' in text
        assert 't_workers{instance="t-1"} 2' in text

    def test_prebuilt_family_lists_pass_through(self):
        reg = MetricsRegistry()
        holder = _Holder(None)

        def collect(h):
            fam = Family("t_custom", "counter", "help text")
            fam.add(9, {"a": "b"}, suffix="_total")
            return [fam]

        reg.register_object(holder, collect, prefix="t")
        text = reg.render()
        assert "# HELP t_custom help text" in text
        assert 't_custom_total{a="b"} 9' in text

    def test_same_family_from_two_objects_merges(self):
        reg = MetricsRegistry()
        h1 = _Holder({"hits": 1})
        h2 = _Holder({"hits": 2})
        reg.register_object(h1, lambda h: h.payload, prefix="t",
                            labels={"instance": "a"}, counters={"hits"})
        reg.register_object(h2, lambda h: h.payload, prefix="t",
                            labels={"instance": "b"}, counters={"hits"})
        text = reg.render()
        assert text.count("# TYPE t_hits_total counter") == 1
        assert 't_hits_total{instance="a"} 1' in text
        assert 't_hits_total{instance="b"} 2' in text

    def test_dead_objects_are_pruned_not_scraped(self):
        reg = MetricsRegistry()
        holder = _Holder({"hits": 1})
        reg.register_object(holder, lambda h: h.payload, prefix="t")
        assert "t_hits" in reg.render()
        del holder
        gc.collect()
        assert "t_hits" not in reg.render()
        assert reg._adapters == []  # pruned, not just skipped

    def test_short_lived_owners_do_not_pile_up_between_scrapes(self):
        reg = MetricsRegistry()
        for i in range(100):  # e.g. one transient session per call
            reg.register_object(_Holder({"hits": i}), lambda h: h.payload, prefix="t")
        assert len(reg._adapters) == 1

    def test_broken_adapter_does_not_poison_the_scrape(self):
        reg = MetricsRegistry()
        bad = _Holder(None)
        good = _Holder({"ok": 1})

        def explode(h):
            raise RuntimeError("adapter bug")

        reg.register_object(bad, explode, prefix="bad")
        reg.register_object(good, lambda h: h.payload, prefix="good")
        text = reg.render()
        assert "good_ok 1" in text

    def test_label_escaping(self):
        reg = MetricsRegistry()
        holder = _Holder({"v": 1})
        reg.register_object(holder, lambda h: h.payload, prefix="t",
                            labels={"path": 'a"b\\c\nd'})
        text = reg.render()
        assert 't_v{path="a\\"b\\\\c\\nd"} 1' in text
        assert_valid_exposition(text)

    def test_next_instance_is_monotonic_per_prefix(self):
        reg = MetricsRegistry()
        assert reg.next_instance("x") == "x-1"
        assert reg.next_instance("x") == "x-2"
        assert reg.next_instance("y") == "y-1"

    def test_bool_values_render_as_ints(self):
        reg = MetricsRegistry()
        holder = _Holder({"armed": True})
        reg.register_object(holder, lambda h: h.payload, prefix="t")
        assert "t_armed 1" in reg.render()


class TestGlobalRegistryIntegration:
    def test_sessions_register_and_render_valid_exposition(self):
        from repro.api import EmulationSession, RunSpec

        spec = RunSpec.grid(name="metrics-smoke", precisions=(8,),
                            accumulators=("fp32",), sources=("laplace",),
                            batch=64, n=4, seed=0)
        with EmulationSession() as session:
            session.sweep(spec)
            text = REGISTRY.render()
        assert_valid_exposition(text)
        assert CONTENT_TYPE.startswith("text/plain")
        rows = [l for l in text.splitlines()
                if l.startswith("repro_session_kernel_rows_total")]
        assert rows, text[:500]
        # this session's sample reports the rows it actually computed
        # (one kernel x batch=64 result rows)
        assert any(l.endswith(" 64") for l in rows)

    def test_store_counters_appear_after_use(self, tmp_path):
        from repro.store import ResultStore

        store = ResultStore(tmp_path / "store")
        store.put_json("t", "ab12" * 8, {"v": 1})
        assert store.get_json("t", "ab12" * 8) == {"v": 1}
        text = REGISTRY.render()
        assert "repro_store_hits_total" in text
        assert "repro_store_puts_total" in text
