"""End-to-end tracing across HTTP and fleet boundaries + /v1/metrics.

The acceptance shape: one ``--fleet`` sweep against two endpoints produces a
*single* trace spanning caller -> coordinator -> both shard services ->
executor chunks -> store writes, asserted structurally here.
"""

import json
import re
import urllib.error
import urllib.request

import pytest

from repro.api import RunSpec
from repro.chaos import FaultPlan
from repro.chaos import install as chaos_install
from repro.fleet import FleetCoordinator, LocalEndpoint
from repro.obs.export import trace_roots
from repro.obs.trace import install, trace_span
from repro.service import ServiceClient, ServiceServer, SweepService
from repro.store import ResultStore

# Engages the services' thread executors after sharding (points split
# across shards; batch — the row count — is untouched).
FLEET_SPEC = RunSpec.grid(name="obs-fleet", precisions=(8, 16),
                          accumulators=("fp32",), sources=("laplace",),
                          batch=8192, n=16, seed=3)

SMALL_SPEC = RunSpec.grid(name="obs-http", precisions=(8, 12),
                          accumulators=("fp32",), sources=("laplace",),
                          batch=400, n=8, seed=5)


def _by_id(spans):
    return {s["span_id"]: s for s in spans}


class TestHttpBoundary:
    def test_trace_header_adopted_and_spans_returned(self):
        with ServiceServer(port=0, token="obs-tok") as server:
            client = ServiceClient(server.url, token="obs-tok")
            with install() as tracer:
                with trace_span("runner", mode="submit"):
                    result = client.run(SMALL_SPEC.to_dict())
            spans = tracer.export()
        assert "rendered" in result
        names = {s["name"] for s in spans}
        assert {"runner", "service.job", "session.sweep"} <= names
        (root,) = trace_roots(spans)
        assert root["name"] == "runner"
        assert len({s["trace_id"] for s in spans}) == 1
        by_id = _by_id(spans)
        job = next(s for s in spans if s["name"] == "service.job")
        assert by_id[job["parent_id"]]["name"] == "runner"
        sweep = next(s for s in spans if s["name"] == "session.sweep")
        assert by_id[sweep["parent_id"]]["name"] == "service.job"

    def test_untraced_requests_carry_no_header_and_no_spans(self):
        with ServiceServer(port=0, token="obs-tok") as server:
            client = ServiceClient(server.url, token="obs-tok")
            result = client.run(SMALL_SPEC.to_dict())
        assert "trace_spans" not in result

    def test_header_survives_client_retry(self):
        """An injected connection reset consumes one attempt; the retried
        request must still carry the caller's span (re-read per attempt)."""
        plan = FaultPlan.from_dict(
            {"seed": 1, "faults": ["conn-reset@request:0"]})
        with ServiceServer(port=0, token="obs-tok") as server:
            client = ServiceClient(server.url, token="obs-tok")
            with install() as tracer:
                with chaos_install(plan) as engine:
                    with trace_span("runner", mode="submit"):
                        result = client.run(SMALL_SPEC.to_dict())
                assert engine.stats()["injected"].get("conn-reset", 0) >= 1
            spans = tracer.export()
        assert "rendered" in result
        (root,) = trace_roots(spans)
        assert root["name"] == "runner"
        assert any(s["name"] == "service.job" for s in spans)

    def test_coalesced_submit_keeps_first_trace(self):
        """Two traced submits of the same fingerprint coalesce into one job
        owned by the first submitter's trace — one job, one trace."""
        from repro.obs.trace import trace_wire

        service = SweepService(queue_workers=1)
        try:
            with install() as tracer:
                blocker, _ = service.submit("sweep", FLEET_SPEC.to_dict())
                with trace_span("first"):
                    first, c1 = service.submit("sweep", SMALL_SPEC.to_dict(),
                                               trace=trace_wire())
                with trace_span("second"):
                    second, c2 = service.submit("sweep", SMALL_SPEC.to_dict(),
                                                trace=trace_wire())
                assert (c1, c2) == (False, True)
                assert second is first
                assert blocker.done.wait(180) and first.done.wait(180)
                spans = tracer.export()
            first_span = next(s for s in spans if s["name"] == "first")
            job = next(s for s in spans if s["name"] == "service.job")
            assert job["trace_id"] == first_span["trace_id"]
        finally:
            service.close()


class TestFleetAcceptance:
    def test_single_trace_spans_the_whole_fleet(self, tmp_path):
        """CLI -> coordinator -> both shard services -> session -> executor
        chunks -> store writes, all under one trace id."""
        store = ResultStore(tmp_path / "fleet-store")
        s1 = SweepService(backend="thread", workers=2)
        s2 = SweepService(backend="thread", workers=2)
        fleet = FleetCoordinator([LocalEndpoint(s1, "a"), LocalEndpoint(s2, "b")],
                                 store=store)
        try:
            with install() as tracer:
                with trace_span("runner", mode="fleet"):
                    merged = fleet.run(FLEET_SPEC.to_dict(), kind="sweep")
                spans = tracer.export()
        finally:
            fleet.close()
            s1.close()
            s2.close()
        assert "rendered" in merged and "trace_spans" not in merged

        (root,) = trace_roots(spans)
        assert root["name"] == "runner"
        assert len({s["trace_id"] for s in spans}) == 1

        by_id = _by_id(spans)
        shards = [s for s in spans if s["name"] == "fleet.shard"]
        assert len(shards) == 2
        for s in shards:
            assert by_id[s["parent_id"]]["name"] == "fleet.sweep"
        # both shard services' jobs are parented under their shard span
        jobs = [s for s in spans if s["name"] == "service.job"]
        assert len(jobs) == 2
        assert {by_id[j["parent_id"]]["span_id"] for j in jobs} == \
            {s["span_id"] for s in shards}
        for name, parent in (("session.sweep", "service.job"),
                             ("engine.kernels", "session.sweep"),
                             ("executor.chunk", "engine.kernels")):
            children = [s for s in spans if s["name"] == name]
            assert children, f"no {name} spans"
            for c in children:
                assert by_id[c["parent_id"]]["name"] == parent, c
        # the coordinator's payload-cache writes are in the same trace
        puts = [s for s in spans if s["name"] == "store.put"]
        assert any(s["attrs"].get("kind") == "fleet-payload" for s in puts)

    def test_fleet_byte_identity_and_store_stays_clean(self, tmp_path):
        """Armed vs disarmed fleet runs return identical payloads, and the
        traced run's persisted shard payloads contain no telemetry."""
        def run_fleet(store_dir):
            s1 = SweepService(backend="thread", workers=2)
            s2 = SweepService(backend="thread", workers=2)
            fleet = FleetCoordinator(
                [LocalEndpoint(s1, "a"), LocalEndpoint(s2, "b")],
                store=ResultStore(store_dir))
            try:
                return fleet.run(FLEET_SPEC.to_dict(), kind="sweep")
            finally:
                fleet.close()
                s1.close()
                s2.close()

        plain = run_fleet(tmp_path / "plain")
        with install():
            traced = run_fleet(tmp_path / "traced")
        assert json.dumps(plain, sort_keys=True) == \
            json.dumps(traced, sort_keys=True)
        # nothing telemetry-shaped reached the payload store
        for blob in (tmp_path / "traced").rglob("*"):
            if blob.is_file():
                assert b"trace_spans" not in blob.read_bytes()


class TestMetricsEndpoint:
    _SAMPLE = re.compile(
        r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
        r'(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
        r'(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})?'
        r" [^ ]+$")

    def assert_valid_exposition(self, text):
        assert text.endswith("\n")
        for line in text.splitlines():
            if line and not line.startswith("#"):
                assert self._SAMPLE.match(line), f"bad sample line: {line!r}"

    def test_scrape_is_valid_and_covers_four_layers(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with ServiceServer(port=0, token="obs-tok", store=store,
                           backend="thread", workers=2) as server:
            client = ServiceClient(server.url, token="obs-tok")
            client.run(SMALL_SPEC.to_dict())

            req = urllib.request.Request(
                server.url + "/v1/metrics",
                headers={"Authorization": "Bearer obs-tok"})
            with urllib.request.urlopen(req) as resp:
                assert resp.headers.get("Content-Type").startswith("text/plain")
                text = resp.read().decode()
        self.assert_valid_exposition(text)
        samples = [l for l in text.splitlines()
                   if l and not l.startswith("#")]
        prefixes = {p for p in ("repro_session", "repro_store",
                                "repro_service", "repro_design")
                    if any(l.startswith(p) for l in samples)}
        assert len(prefixes) >= 4, samples[:20]
        # core counters moved during the job
        assert "repro_service_jobs_completed_total" in text
        for line in text.splitlines():
            if line.startswith("repro_service_jobs_completed_total"):
                assert float(line.rsplit(" ", 1)[1]) >= 1

    def test_scrape_requires_auth(self):
        with ServiceServer(port=0, token="obs-tok") as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(server.url + "/v1/metrics")
            assert err.value.code == 401

    def test_stats_carries_queue_and_timing_block(self):
        with ServiceServer(port=0, token="obs-tok") as server:
            client = ServiceClient(server.url, token="obs-tok")
            client.run(SMALL_SPEC.to_dict())
            stats = client.stats()
        assert stats["queue"]["depth"] == 0
        timing = stats["timing"]
        assert timing["jobs_completed"] >= 1
        assert timing["last_job_seconds"] >= 0
        assert timing["avg_job_seconds"] >= 0
        assert timing["wall_seconds_total"] >= 0
