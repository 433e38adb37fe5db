"""repro.obs.metrics: registry conventions, exposition grammar, weakrefs."""

import copy
import gc
import re
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.obs.metrics import (
    CONTENT_TYPE,
    Family,
    Histogram,
    MetricsRegistry,
    REGISTRY,
    counter,
)

# Prometheus text format 0.0.4 sample-line grammar (simplified but strict
# enough to catch label/value formatting bugs).
_SAMPLE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})?'
    r" [^ ]+$"
)

_HISTOGRAM_SUFFIXES = ("_bucket", "_sum", "_count")


def assert_valid_exposition(text: str) -> None:
    """Every sample parses, and is named after its ``# TYPE`` family (a
    histogram's samples may add ``_bucket``/``_sum``/``_count``): a
    sample named otherwise reads as untyped to a 0.0.4 parser."""
    assert text.endswith("\n")
    family = kind = None
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            family, kind = line.split()[2:4]
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        assert match, f"bad sample line: {line!r}"
        allowed = {family} | ({family + s for s in _HISTOGRAM_SUFFIXES}
                              if kind == "histogram" else set())
        assert match.group(1) in allowed, f"{line!r} outside family {family!r}"


@dataclass
class _Stats:
    hits: int = counter("Cache hits.")
    depth: int = 0


class _Holder:
    """A stats-bearing owner the registry can weakref."""

    def __init__(self, stats):
        self.stats = stats

    def snapshot(self):
        return copy.deepcopy(self.stats)


class TestInstruments:
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
        holder = _Holder(_Stats(hits=3, depth=7))
        reg.register_object(holder, prefix="t", labels={"instance": "t-1"})
        text = reg.render()
        assert "# HELP t_hits_total Cache hits." in text
        assert "# TYPE t_hits_total counter" in text
        assert 't_hits_total{instance="t-1"} 3' in text
        assert "# TYPE t_depth gauge" in text
        assert 't_depth{instance="t-1"} 7' in text
        assert_valid_exposition(text)

    def test_dict_values_expand_to_key_labels(self):
        @dataclass
        class Calls:
            calls: dict = counter(label="site")

        reg = MetricsRegistry()
        holder = _Holder(Calls({"store.put": 4, "fleet.shard": 1}))
        reg.register_object(holder, prefix="t")
        text = reg.render()
        assert 't_calls_total{site="store.put"} 4' in text
        assert 't_calls_total{site="fleet.shard"} 1' in text

    def test_strings_fold_into_info_gauge(self):
        @dataclass
        class Backend:
            backend: str = "thread"
            workers: int = 2

        reg = MetricsRegistry()
        holder = _Holder(Backend())
        reg.register_object(holder, prefix="t", labels={"instance": "t-1"})
        text = reg.render()
        assert 't_info{backend="thread",instance="t-1"} 1' in text
        assert 't_workers{instance="t-1"} 2' in text

    def test_prebuilt_family_lists_pass_through(self):
        class Live(_Holder):
            def live_families(self, labels):
                fam = Family("t_custom", "gauge", "help text")
                fam.add(9, {**labels, "a": "b"})
                return [fam]

        reg = MetricsRegistry()
        holder = Live(_Stats())
        reg.register_object(holder, prefix="t", labels={"instance": "t-1"})
        text = reg.render()
        assert "# HELP t_custom help text" in text
        assert 't_custom{a="b",instance="t-1"} 9' in text
        assert 't_hits_total{instance="t-1"} 0' in text  # beside the fields

    def test_same_family_from_two_objects_merges(self):
        reg = MetricsRegistry()
        h1 = _Holder(_Stats(hits=1))
        h2 = _Holder(_Stats(hits=2))
        reg.register_object(h1, prefix="t", labels={"instance": "a"})
        reg.register_object(h2, prefix="t", labels={"instance": "b"})
        text = reg.render()
        assert text.count("# TYPE t_hits_total counter") == 1
        assert 't_hits_total{instance="a"} 1' in text
        assert 't_hits_total{instance="b"} 2' in text

    def test_dead_objects_are_pruned_not_scraped(self):
        reg = MetricsRegistry()
        holder = _Holder(_Stats(hits=1))
        reg.register_object(holder, prefix="t")
        assert "t_hits" in reg.render()
        del holder
        gc.collect()
        assert "t_hits" not in reg.render()
        assert reg._adapters == []  # pruned, not just skipped

    def test_unregistered_objects_are_not_scraped(self):
        reg = MetricsRegistry()
        holder = _Holder(_Stats(hits=1))
        reg.register_object(holder, prefix="t")
        reg.unregister(holder)
        assert reg.render() == "\n"

    def test_short_lived_owners_do_not_pile_up_between_scrapes(self):
        reg = MetricsRegistry()
        for i in range(100):  # e.g. one transient session per call
            reg.register_object(_Holder(_Stats(hits=i)), prefix="t")
        assert len(reg._adapters) == 1

    def test_broken_adapter_does_not_poison_the_scrape(self):
        class Broken(_Holder):
            def snapshot(self):
                raise RuntimeError("snapshot bug")

        reg = MetricsRegistry()
        bad = Broken(_Stats())
        good = _Holder(_Stats(hits=1))
        reg.register_object(bad, prefix="bad")
        reg.register_object(good, prefix="good")
        text = reg.render()
        assert "good_hits_total 1" in text
        assert "bad_" not in text

    def test_label_escaping(self):
        reg = MetricsRegistry()
        holder = _Holder(_Stats(depth=1))
        reg.register_object(holder, prefix="t", labels={"path": 'a"b\\c\nd'})
        text = reg.render()
        assert 't_depth{path="a\\"b\\\\c\\nd"} 1' in text
        assert_valid_exposition(text)

    def test_next_instance_is_monotonic_per_prefix(self):
        reg = MetricsRegistry()
        assert reg.next_instance("x") == "x-1"
        assert reg.next_instance("x") == "x-2"
        assert reg.next_instance("y") == "y-1"

    def test_bool_values_render_as_ints(self):
        @dataclass
        class Armed:
            armed: bool = True

        reg = MetricsRegistry()
        holder = _Holder(Armed())
        reg.register_object(holder, prefix="t")
        assert "t_armed 1" in reg.render()

    def test_sample_named_outside_its_family_is_rejected(self):
        bad = "# TYPE t counter\nt_total{counter=\"x\"} 1\n"
        with pytest.raises(AssertionError, match="outside family"):
            assert_valid_exposition(bad)


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


EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "specs"


def exposition_schema(text: str) -> set:
    """``(family name, TYPE, sorted label keys)`` for every sample line."""
    schema, family = set(), None
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            family = tuple(line.split()[2:4])
        elif line and not line.startswith("#"):
            body = line.partition("{")[2].rpartition("}")[0]
            keys = tuple(sorted(re.findall(
                r'(?:^|,)([a-zA-Z_][a-zA-Z0-9_]*)="(?:[^"\\]|\\.)*"', body)))
            schema.add((*family, keys))
    return schema


def scrape_every_layer(tmp_path) -> str:
    """One in-process run crossing every registered layer: a stored
    service, a fleet over it replaying fig3_quick, a search on the
    service's design session, all under the chaos_quick fault plan.
    Returns the registry's render, scraped while everything is alive."""
    from repro.chaos import FaultPlan, install
    from repro.fleet import FleetCoordinator
    from repro.search import SearchSession, SearchSpec
    from repro.service import SweepService

    service = SweepService(store=tmp_path / "store")
    try:
        with install(FaultPlan.load(EXAMPLES / "chaos_quick.json")) as engine:
            fleet = FleetCoordinator([service])
            fleet.run(EXAMPLES / "fig3_quick.json")
            search = SearchSession(design=service.design, store=service.store)
            search.run(SearchSpec.from_json(EXAMPLES / "search_quick.json"))
            assert engine.stats()["injected"] == {"store-corrupt": 1}
            return REGISTRY.render()
    finally:
        service.close()


EXPOSITION_SCHEMA = {
    ("repro_chaos_hook_calls_total", "counter", ("instance", "site")),
    ("repro_chaos_injected_total", "counter", ("instance", "kind")),
    ("repro_design_hits_total", "counter", ("instance", "key")),
    ("repro_design_info", "gauge", ("backend", "instance")),
    ("repro_design_misses_total", "counter", ("instance", "key")),
    ("repro_design_tasks_dispatched_total", "counter", ("instance",)),
    ("repro_design_workers", "gauge", ("instance",)),
    ("repro_fleet_breaker_state", "gauge", ("endpoint", "instance")),
    ("repro_fleet_endpoint_jobs_total", "counter", ("endpoint", "instance")),
    ("repro_fleet_redispatches_total", "counter", ("instance",)),
    ("repro_fleet_rejoins_total", "counter", ("instance",)),
    ("repro_fleet_retries_total", "counter", ("instance",)),
    ("repro_fleet_shards_completed_total", "counter", ("instance",)),
    ("repro_fleet_shards_local_total", "counter", ("instance",)),
    ("repro_fleet_shards_skipped_warm_total", "counter", ("instance",)),
    ("repro_search_cached_total", "counter", ("instance",)),
    ("repro_search_computed_total", "counter", ("instance",)),
    ("repro_search_evaluated_total", "counter", ("instance",)),
    ("repro_search_rungs_resumed_total", "counter", ("instance",)),
    ("repro_search_rungs_total", "counter", ("instance",)),
    ("repro_service_coalesced_total", "counter", ("instance",)),
    ("repro_service_job_seconds", "histogram", ("instance",)),
    ("repro_service_job_seconds", "histogram", ("instance", "le")),
    ("repro_service_jobs", "gauge", ("instance", "status")),
    ("repro_service_jobs_completed_total", "counter", ("instance",)),
    ("repro_service_queue_depth", "gauge", ("instance",)),
    ("repro_service_rejected_busy_total", "counter", ("instance",)),
    ("repro_service_uptime_seconds", "gauge", ("instance",)),
    ("repro_session_info", "gauge", ("backend", "instance")),
    ("repro_session_kernel_rows_total", "counter", ("instance",)),
    ("repro_session_parallel_batches_total", "counter", ("instance",)),
    ("repro_session_plan_hits_total", "counter", ("instance",)),
    ("repro_session_plan_misses_total", "counter", ("instance",)),
    ("repro_session_tasks_dispatched_total", "counter", ("instance",)),
    ("repro_session_workers", "gauge", ("instance",)),
    ("repro_store_bytes", "gauge", ("instance",)),
    ("repro_store_evictions_total", "counter", ("instance",)),
    ("repro_store_hits_total", "counter", ("instance",)),
    ("repro_store_index_rebuilds_total", "counter", ("instance",)),
    ("repro_store_misses_total", "counter", ("instance",)),
    ("repro_store_puts_total", "counter", ("instance",)),
    ("repro_store_quarantined_total", "counter", ("instance",)),
}


class TestExpositionSchema:
    def test_family_names_types_and_label_keys_are_pinned(self, tmp_path):
        text = scrape_every_layer(tmp_path)
        assert_valid_exposition(text)
        assert exposition_schema(text) == EXPOSITION_SCHEMA


def _samples(text: str, name: str) -> list:
    return [float(line.rsplit(" ", 1)[1]) for line in text.splitlines()
            if line.startswith(name + "{")]


class TestChaosCountedOncePerProcess:
    def test_two_services_report_one_injected_fault_once(self, tmp_path):
        from repro.api import RunSpec
        from repro.chaos import FaultPlan, install
        from repro.service import SweepService

        spec = RunSpec.grid(name="chaos-once", precisions=(8,),
                            accumulators=("fp32",), sources=("laplace",),
                            batch=64, n=4, seed=0)
        first = SweepService(store=tmp_path / "a")
        second = SweepService(store=tmp_path / "b")
        try:
            with install(FaultPlan.from_dict(
                    {"seed": 0, "faults": ["store-corrupt@put:0"]})) as engine:
                job, _ = first.submit("sweep", spec.to_dict())
                first.job(job.id, wait=60.0)
                assert engine.stats()["injected"] == {"store-corrupt": 1}
                text = REGISTRY.render()
            assert sum(_samples(text, "repro_chaos_injected_total")) == 1
            # disarmed, the engine is no longer scraped
            assert "repro_chaos_" not in REGISTRY.render()
        finally:
            first.close()
            second.close()
