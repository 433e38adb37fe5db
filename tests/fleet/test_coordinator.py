"""repro.fleet.FleetCoordinator: fan-out, redispatch, byte-identity, CLI."""

import json
import threading
import time

import pytest

from repro.api import DesignSweepSpec, PrecisionPoint, RunSpec
from repro.chaos import RetryPolicy
from repro.fleet import FleetCoordinator, FleetError, LocalEndpoint
from repro.fleet.coordinator import MAX_STRAGGLERS
from repro.service import ServiceError, ServiceServer, SweepService
from repro.store import ResultStore

SPEC = RunSpec.grid(name="fleet-spec", precisions=(10, 12, 14, 16),
                    accumulators=("fp32",), sources=("laplace", "normal"),
                    batch=400, n=8, seed=5)
DESIGN_SPEC = DesignSweepSpec.grid(name="fleet-designs",
                                   designs=("MC-IPU4", "INT8", "FP16"),
                                   tiles=("small",), samples=24, rng=41)


@pytest.fixture(scope="module")
def fleet_servers():
    with ServiceServer(port=0, queue_workers=2) as a, \
         ServiceServer(port=0, queue_workers=2) as b:
        yield a, b


@pytest.fixture(scope="module")
def reference_service():
    service = SweepService()
    yield service
    service.close()


def _direct_payload(service, spec, kind):
    job, _ = service.submit(kind, spec.to_dict())
    assert job.done.wait(120) and job.status == "done", job.error
    # the HTTP hop the fleet path takes: result dicts must survive it
    return json.loads(json.dumps(job.result))


class _KilledAfterAccept:
    """An endpoint that accepts the job, then drops off the network —
    models a fleet member killed mid-sweep (the CI smoke does it with
    a real kill -9; this makes the redispatch path deterministic)."""

    url = "stub://killed"

    def __init__(self, service):
        self._inner = LocalEndpoint(service, name="doomed")
        self.submits = 0

    def submit(self, spec, kind=None, busy_timeout=60.0):
        self.submits += 1
        return self._inner.submit(spec, kind=kind, busy_timeout=busy_timeout)

    def result(self, job_id, timeout=600.0):
        raise ServiceError("connection reset by peer")

    def health(self):
        raise ServiceError("connection refused")


class _NeverReachable:
    """Dead before the first submit: connection refused on everything."""

    url = "stub://dead"

    def submit(self, spec, kind=None, busy_timeout=60.0):
        raise ServiceError("connection refused")

    def result(self, job_id, timeout=600.0):
        raise ServiceError("connection refused")

    def health(self):
        raise ServiceError("connection refused")


class TestFanOut:
    def test_local_endpoints_and_spec_dicts_work_too(self, reference_service):
        a, b = SweepService(), SweepService()
        try:
            coordinator = FleetCoordinator([a, b])
            merged = coordinator.run(SPEC.to_dict(), kind="sweep")
            direct = _direct_payload(reference_service, SPEC, "sweep")
            assert json.dumps(merged, sort_keys=True) == \
                   json.dumps(direct, sort_keys=True)
            urls = [row["url"] for row in coordinator.stats()["endpoints"]]
            assert len(set(urls)) == 2, urls
        finally:
            a.close()
            b.close()

    def test_killed_endpoint_redispatches_to_the_survivor(
            self, reference_service):
        survivor = SweepService(queue_workers=2)
        doomed_backend = SweepService()
        doomed = _KilledAfterAccept(doomed_backend)
        try:
            coordinator = FleetCoordinator(
                [doomed, survivor], shards=4,
                retry=RetryPolicy(attempts=3, backoff=0.01))
            merged = coordinator.run(SPEC)
            direct = _direct_payload(reference_service, SPEC, "sweep")
            assert json.dumps(merged, sort_keys=True) == \
                   json.dumps(direct, sort_keys=True)
            stats = coordinator.stats()
            assert doomed.submits >= 1  # it really was handed work first
            assert stats["endpoints"][0]["dead"] is True
            assert stats["endpoints"][1]["jobs"] == 4  # survivor took it all
            assert stats["redispatches"] >= 1
        finally:
            survivor.close()
            doomed_backend.close()

    def test_all_endpoints_dead_degrades_to_local_execution(
            self, reference_service):
        """The graceful-degradation path: every endpoint down → remaining
        shards run on an in-process service, merge still byte-identical."""
        coordinator = FleetCoordinator(
            [_NeverReachable(), _NeverReachable()], shards=3,
            retry=RetryPolicy(attempts=2, backoff=0.01))
        try:
            merged = coordinator.run(SPEC)
            direct = _direct_payload(reference_service, SPEC, "sweep")
            assert json.dumps(merged, sort_keys=True) == \
                   json.dumps(direct, sort_keys=True)
            stats = coordinator.stats()
            assert stats["shards_local"] == 3
            assert stats["shards_completed"] == 3
            assert all(e["dead"] for e in stats["endpoints"])
        finally:
            coordinator.close()

    def test_recovered_endpoint_rejoins_after_cooldown(self, reference_service):
        """An endpoint that dies and comes back is probed closed again
        (circuit breaker half-open → healthz → rejoin), not dropped forever."""

        class _Flaky:
            """Down for the first sweep, healthy afterwards."""

            url = "stub://flaky"

            def __init__(self, service):
                self._inner = LocalEndpoint(service, name="flaky")
                self.down = True

            def submit(self, spec, kind=None, busy_timeout=60.0):
                if self.down:
                    raise ServiceError("connection refused", retryable=True)
                return self._inner.submit(spec, kind=kind,
                                          busy_timeout=busy_timeout)

            def result(self, job_id, timeout=600.0):
                return self._inner.result(job_id, timeout=timeout)

            def health(self):
                if self.down:
                    raise ServiceError("connection refused", retryable=True)
                return self._inner.health()

        backend, steady = SweepService(), SweepService(queue_workers=2)
        flaky = _Flaky(backend)
        try:
            coordinator = FleetCoordinator(
                [flaky, steady], shards=2,
                retry=RetryPolicy(attempts=3, backoff=0.01),
                breaker_cooldown=0.05)
            coordinator.run(SPEC)
            assert coordinator.stats()["endpoints"][0]["dead"] is True
            flaky.down = False
            time.sleep(0.1)  # past the breaker cooldown
            merged = coordinator.run(SPEC)
            direct = _direct_payload(reference_service, SPEC, "sweep")
            assert json.dumps(merged, sort_keys=True) == \
                   json.dumps(direct, sort_keys=True)
            stats = coordinator.stats()
            assert stats["rejoins"] >= 1
            assert stats["endpoints"][0]["dead"] is False
            assert stats["endpoints"][0]["jobs"] >= 1
        finally:
            backend.close()
            steady.close()

    def test_killed_endpoint_plus_corrupt_store_entry_recovers(
            self, tmp_path, reference_service):
        """The satellite scenario: an endpoint dies mid-sweep (its shards
        re-dispatch) AND one cached shard payload is corrupted on disk —
        the corrupt entry must be quarantined (counted, never merged) and
        the re-run's merged output must stay byte-identical."""
        direct = _direct_payload(reference_service, SPEC, "sweep")
        store = ResultStore(tmp_path / "fleet-store")
        survivor = SweepService(queue_workers=2)
        doomed_backend = SweepService()
        doomed = _KilledAfterAccept(doomed_backend)
        try:
            coordinator = FleetCoordinator(
                [doomed, survivor], shards=4,
                retry=RetryPolicy(attempts=3, backoff=0.01), store=store)
            merged = coordinator.run(SPEC)
            assert json.dumps(merged, sort_keys=True) == \
                   json.dumps(direct, sort_keys=True)
            assert coordinator.stats()["redispatches"] >= 1
        finally:
            doomed_backend.close()

        # corrupt one committed shard payload (the partial work the killed
        # endpoint left behind) without touching its checksum sidecar
        victim = sorted((tmp_path / "fleet-store").rglob("*.json"))[0]
        victim.write_bytes(victim.read_bytes()[:-2] + b"zz")
        rerun_store = ResultStore(tmp_path / "fleet-store")
        try:
            coordinator = FleetCoordinator(
                [survivor], shards=4,
                retry=RetryPolicy(attempts=3, backoff=0.01), store=rerun_store)
            merged = coordinator.run(SPEC)
            assert json.dumps(merged, sort_keys=True) == \
                   json.dumps(direct, sort_keys=True)
            stats = coordinator.stats()
            assert rerun_store.stats.quarantined >= 1  # caught, counted
            assert stats["shards_skipped_warm"] == 3   # the intact cache
            assert stats["shards_completed"] == 1      # only the bad one
        finally:
            survivor.close()

    def test_deterministic_job_failure_fails_fast(self):
        a, b = SweepService(), SweepService()
        try:
            coordinator = FleetCoordinator(
                [a, b], retry=RetryPolicy(attempts=4, backoff=0.01))
            # parses fine, fails in every worker: unknown operand source
            bad = RunSpec(name="bad", sources=("laplace", "no-such-source"),
                          points=(PrecisionPoint(12), PrecisionPoint(16)),
                          batch=100, n=8)
            with pytest.raises(FleetError, match="failed"):
                coordinator.run(bad)
            assert coordinator.stats()["retries"] == 0  # no pointless retries
        finally:
            a.close()
            b.close()

    def test_kind_says_how_the_spec_is_read(self, reference_service):
        coordinator = FleetCoordinator([reference_service])
        try:
            with pytest.raises(TypeError, match="designs"):
                coordinator.run(DESIGN_SPEC.to_dict(), kind="sweep")
            merged = coordinator.run(DESIGN_SPEC.to_dict(), kind="design-sweep")
            assert merged["kind"] == "design-sweep"
        finally:
            coordinator.close()

    def test_endpoint_rejects_unknown_objects(self):
        with pytest.raises(TypeError):
            FleetCoordinator([42])
        with pytest.raises(ValueError):
            FleetCoordinator([])


class _HoldsBack(LocalEndpoint):
    """A local endpoint that delays the result of each job whose spec has
    one of the ``slow`` names."""

    def __init__(self, service, slow, delay=1.0):
        super().__init__(service, name="holds-back")
        self.slow, self.delay = set(slow), delay
        self._slow_jobs = set()

    def submit(self, spec, kind=None, busy_timeout=60.0):
        ticket = super().submit(spec, kind=kind, busy_timeout=busy_timeout)
        if spec.name in self.slow:
            self._slow_jobs.add(ticket["job"])
        return ticket

    def result(self, job_id, timeout=600.0):
        if job_id in self._slow_jobs:
            time.sleep(self.delay)
        return super().result(job_id, timeout=timeout)


class TestStragglers:
    """Both fan-outs time every unit of work and record the ones that
    took over twice the median."""

    def test_run_and_run_specs_record_the_delayed_item(self):
        singles = [RunSpec.grid(name=f"single-{p}", precisions=(p,),
                                accumulators=("fp32",), sources=("laplace",),
                                batch=200, n=8, seed=5) for p in (10, 12, 14)]
        service = SweepService(queue_workers=2)
        coordinator = FleetCoordinator(
            [_HoldsBack(service, {"fleet-spec#s1of3", "single-12"})], shards=3)
        try:
            coordinator.run(SPEC)
            coordinator.run_specs(singles)
            stragglers = coordinator.stats()["stragglers"]
        finally:
            coordinator.close()
            service.close()
        assert [s["shard"] for s in stragglers] == [1, 1]
        for record in stragglers:
            assert record["seconds"] >= 1.0
            assert record["seconds"] > 2 * record["median_seconds"]
            assert record["sweep_seconds"] >= record["seconds"]


    def test_two_item_fan_out_flags_the_slow_item(self):
        """The lower median: of two items, the slow one is measured
        against the fast one."""
        coordinator = FleetCoordinator([LocalEndpoint(None)])
        coordinator._note_stragglers([0.01, 5.0], 5.0)
        coordinator._note_stragglers([0.02, 0.03], 0.03)
        assert [(s["shard"], s["median_seconds"])
                for s in coordinator.stats()["stragglers"]] == [(1, 0.01)]

    def test_record_keeps_only_the_most_recent(self):
        coordinator = FleetCoordinator([LocalEndpoint(None)])
        for k in range(3 * MAX_STRAGGLERS):
            coordinator._note_stragglers([0.01, 1.0 + k], 1.0 + k)
        stragglers = coordinator.stats()["stragglers"]
        assert len(stragglers) == MAX_STRAGGLERS
        assert stragglers[-1]["seconds"] == 3 * MAX_STRAGGLERS
        assert stragglers[0]["seconds"] == 2 * MAX_STRAGGLERS + 1


def _shard_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate()
            if t.name.startswith("fleet-shard") and t.is_alive()]


class TestLifetimePool:
    """One dispatch pool per coordinator and one pooled connection per
    endpoint, kept across sweeps until close()."""

    def test_runs_reuse_one_connection_per_endpoint(self, fleet_servers,
                                                    connections):
        a, b = fleet_servers
        coordinator = FleetCoordinator([a.url, b.url], shards=2)
        try:
            first = coordinator.run(SPEC)
            for _ in range(2):
                assert coordinator.run(SPEC) == first
            assert len(coordinator.run_specs([SPEC])) == 1
            assert len(connections) == 2
        finally:
            coordinator.close()

    def test_pool_is_built_once_through_the_module_name(self, monkeypatch,
                                                        fleet_servers):
        import repro.fleet.coordinator as coordinator_mod

        built = []

        class CountingPool(coordinator_mod.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                built.append(kwargs.get("thread_name_prefix"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(coordinator_mod, "ThreadPoolExecutor", CountingPool)
        a, b = fleet_servers
        coordinator = FleetCoordinator([a.url, b.url], shards=2)
        assert built == []  # nothing until the first sweep
        try:
            coordinator.run(SPEC)
            coordinator.run_specs([SPEC, SPEC])
            coordinator.run(SPEC)
            assert built == ["fleet-shard"]
            coordinator.close()
            coordinator.run(SPEC)  # still usable: the pool is rebuilt
            assert len(built) == 2
        finally:
            coordinator.close()

    def test_close_stops_every_shard_thread(self, fleet_servers):
        a, b = fleet_servers
        before = set(_shard_threads())  # other tests' unclosed coordinators
        coordinator = FleetCoordinator([a.url, b.url], shards=4)
        coordinator.run(SPEC)
        coordinator.run_specs([SPEC, SPEC])
        assert set(_shard_threads()) - before
        coordinator.close()
        assert set(_shard_threads()) <= before
        assert all(ep._idle == [] for ep in coordinator.endpoints)


class TestFleetCLI:
    def test_fleet_with_unreachable_endpoints_degrades_locally(
            self, tmp_path, capsys):
        """Unreachable endpoints no longer kill the run: shards fall back to
        an in-process service and the CLI warns about the degradation."""
        from repro.experiments.runner import main

        path = tmp_path / "spec.json"
        SPEC.to_json(path)
        assert main(["--spec", str(path)]) == 0
        direct = capsys.readouterr().out
        assert main(["--spec", str(path), "--fleet", "http://127.0.0.1:9",
                     "--shards", "2"]) == 0
        out, err = capsys.readouterr()
        strip = lambda text: [l for l in text.splitlines()
                              if not l.startswith("[")]
        assert strip(direct) == strip(out)
        assert "fleet degraded" in err
        assert "local=2" in out
