"""The tentpole invariant: random FaultPlans never change a byte.

Property tests drive real recovery machinery — store quarantine, client
retries, coordinator redispatch and local fallback — under seeded random
fault schedules, and assert the outputs are identical to a fault-free run
every time.
"""

import json
import random
import time

import pytest

from repro.api import EmulationSession, RunSpec
from repro.chaos import DeadlineExceeded, FaultPlan, RetryPolicy, install
from repro.fleet import FleetCoordinator
from repro.search import RungSpec, SearchSession, SearchSpace, SearchSpec
from repro.service import ServiceClient, ServiceServer, SweepService
from repro.store import ResultStore

# Big enough to engage the thread pool while staying a sub-second sweep:
# 2 sources x 2 chunk tasks.
SPEC = RunSpec.grid(name="chaos-recovery", precisions=(8, 16),
                    accumulators=("fp32",), sources=("laplace", "normal"),
                    batch=8192, n=16, seed=3)

FLEET_SPEC = RunSpec.grid(name="chaos-fleet", precisions=(10, 12, 14, 16),
                          accumulators=("fp32",), sources=("laplace",),
                          batch=400, n=8, seed=5)


@pytest.fixture(scope="module")
def reference_points():
    with EmulationSession() as session:
        return session.sweep(SPEC).points


def _random_local_plan(seed: int) -> FaultPlan:
    """Corruption at random schedule positions (a local run has 6
    store.put calls and crosses no client or service site)."""
    rng = random.Random(seed)
    faults = [f"store-corrupt@put:{rng.randrange(4)}"]
    if rng.random() < 0.5:
        faults.append(f"store-corrupt@put:{rng.randrange(4)}")
    return FaultPlan.from_dict({"seed": seed, "faults": faults})


class TestLocalRecoveryProperty:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_plans_recover_bit_identical(self, tmp_path, seed,
                                                reference_points):
        plan = _random_local_plan(seed)
        store = ResultStore(tmp_path / "store")
        with EmulationSession(backend="thread", workers=2,
                              store=store) as session:
            with install(plan) as engine:
                chaotic = session.sweep(SPEC)
            injected = engine.stats()["injected"]
            for fault in plan.faults:  # every listed kind fired
                assert injected.get(fault.kind, 0) >= 1, fault
            assert session.stats.tasks_dispatched >= 2  # the pool engaged
        assert chaotic.points == reference_points

        # the corruption was never served; verify finds and quarantines it,
        # a second pass reports the store clean
        first = store.verify()
        assert first["quarantined"] + store.stats.quarantined >= 1
        second = store.verify()
        assert second["quarantined"] == 0
        assert second["ok"] == second["checked"]

        # and the (healed) warm store still replays bit-identically
        with EmulationSession(store=store) as session:
            warm = session.sweep(SPEC)
        assert warm.points == reference_points


def _random_fleet_plan(seed: int, shards: int) -> FaultPlan:
    rng = random.Random(seed)
    faults = [
        f"endpoint-timeout@shard:{rng.randrange(shards)}",
        f"conn-reset@request:{rng.randrange(6)}",
        {"kind": "slow-response", "p": 0.1, "delay": 0.0},
    ]
    return FaultPlan.from_dict({"seed": seed, "faults": faults})


class TestFleetChaosProperty:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_transport_faults_keep_merges_byte_identical(self, seed):
        shards = 3
        plan = _random_fleet_plan(seed, shards)
        reference = SweepService()
        try:
            job, _ = reference.submit("sweep", FLEET_SPEC.to_dict())
            assert job.done.wait(120) and job.status == "done", job.error
            direct = json.loads(json.dumps(job.result))
        finally:
            reference.close()
        with ServiceServer(port=0, queue_workers=2) as a, \
             ServiceServer(port=0, queue_workers=2) as b:
            coordinator = FleetCoordinator(
                [a.url, b.url], shards=shards,
                retry=RetryPolicy(attempts=3, backoff=0.01))
            try:
                with install(plan) as engine:
                    merged = coordinator.run(FLEET_SPEC)
                assert sum(engine.stats()["injected"].values()) >= 1
            finally:
                coordinator.close()
        assert json.dumps(merged, sort_keys=True) == \
               json.dumps(direct, sort_keys=True)


class TestInjectedResetsReconnect:
    """An injected reset stands for a dead connection: the idle pooled
    connection the request would have used is dropped, so the retry
    opens a new one instead of riding the old socket."""

    def test_client_retry_opens_a_new_connection(self, connections):
        with ServiceServer(port=0) as server:
            client = ServiceClient(server.url, retry=RetryPolicy(
                attempts=2, backoff=0.01))
            client.health()
            (pooled,) = client._idle
            with install(FaultPlan.of("conn-reset@request:0")) as engine:
                assert client.stats()["jobs"]["total"] == 0
            assert engine.stats()["injected"] == {"conn-reset": 1}
            assert pooled.sock is None  # dropped, not reused
            assert len(connections) == 2
            client.close()

    def test_fleet_retry_reconnects_and_merges_byte_identical(
            self, connections):
        with ServiceServer(port=0) as a, ServiceServer(port=0) as b:
            coordinator = FleetCoordinator([a.url, b.url], shards=2)
            try:
                clean = coordinator.run(FLEET_SPEC)
                assert len(connections) == 2  # one per endpoint
                with install(FaultPlan.of("conn-reset@request:0")) as engine:
                    chaotic = coordinator.run(FLEET_SPEC)
                assert engine.stats()["injected"] == {"conn-reset": 1}
                assert len(connections) == 3
            finally:
                coordinator.close()
        assert json.dumps(chaotic) == json.dumps(clean)


SMALL_SPEC = RunSpec.grid(name="deadline-small", precisions=(8,),
                          accumulators=("fp32",), sources=("laplace",),
                          batch=256, n=8, seed=1)


class TestDeadlines:
    def test_cold_sweep_with_no_budget_fails_fast(self, tmp_path):
        with EmulationSession(store=tmp_path / "s") as session:
            with pytest.raises(DeadlineExceeded, match="budget"):
                session.sweep(SMALL_SPEC, deadline_seconds=0.0)

    def test_warm_sweep_is_exempt_from_the_deadline(self, tmp_path):
        with EmulationSession(store=tmp_path / "s") as session:
            full = session.sweep(SMALL_SPEC)
        # every chunk is stored: zero budget must still succeed, identically
        with EmulationSession(store=tmp_path / "s") as session:
            warm = session.sweep(SMALL_SPEC, deadline_seconds=0.0)
        assert warm.points == full.points

    def test_deadline_without_a_store_still_bounds_the_call(self):
        with EmulationSession() as session:
            with pytest.raises(DeadlineExceeded):
                session.sweep(SMALL_SPEC, deadline_seconds=0.0)

    # 2 sources x 12 chunk tasks of 200 rows on a 2-worker pool
    CHUNKED_SPEC = RunSpec.grid(name="deadline-chunked", precisions=(8, 12),
                                accumulators=("fp32",),
                                sources=("laplace", "normal"),
                                batch=2400, n=8, seed=4)

    @staticmethod
    def _thread_session(store, **kwargs):
        return EmulationSession(backend="thread", workers=2, chunk_rows=200,
                                store=store, **kwargs)

    def test_thread_cold_sweep_with_no_budget_computes_nothing(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        with self._thread_session(store) as session:
            with pytest.raises(DeadlineExceeded, match="budget"):
                session.sweep(self.CHUNKED_SPEC, deadline_seconds=0.0)
            assert session.stats.kernel_rows == 0
        assert store.stats.puts == 0

    def test_thread_sweep_interrupted_mid_source_resumes(self, tmp_path):
        """The deadline elapses while the first chunks compute: those stay
        stored, later tasks refuse to start, and the resume computes only
        the rest, byte-identical to a serial cold run."""
        store = ResultStore(tmp_path / "s")
        session = self._thread_session(store)
        real, calls = session._run_points, []

        def slow(*args):
            calls.append(1)
            result = real(*args)
            time.sleep(1.0)  # the 0.5 s budget runs out meanwhile
            return result

        session._run_points = slow
        with pytest.raises(DeadlineExceeded, match="budget"):
            session.sweep(self.CHUNKED_SPEC, deadline_seconds=0.5)
        session.close()
        total = 2 * 12
        assert 1 <= len(calls) < total
        assert store.stats.puts == len(calls)  # every finished chunk, no source

        with self._thread_session(store) as session:
            resumed = session.sweep(self.CHUNKED_SPEC)
            assert session.stats.tasks_dispatched == total - len(calls)
        with EmulationSession() as session:
            assert resumed.points == session.sweep(self.CHUNKED_SPEC).points

    def test_thread_warm_sweep_dispatches_nothing(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        with self._thread_session(store) as session:
            cold = session.sweep(self.CHUNKED_SPEC)
            assert session.stats.tasks_dispatched == 2 * 12
        with self._thread_session(store) as session:
            warm = session.sweep(self.CHUNKED_SPEC, deadline_seconds=0.0)
            assert session.stats.tasks_dispatched == 0
            assert session.stats.kernel_rows == 0
        assert warm.points == cold.points

    @staticmethod
    def _search_spec():
        space = SearchSpace(kinds=(), mult_a=(), mult_b=(), adder_width=(),
                            it=(), n_inputs=(), ehu=(),
                            designs=("mc-ipu4", "fp16", "int8"))
        return SearchSpec(name="deadline-search", space=space,
                          objective="-median_contaminated_bits", eta=3,
                          rungs=(RungSpec(samples=8, batch=200),),
                          op_precisions=((8, 8),))

    def test_cold_search_rung_with_no_budget_fails_fast(self, tmp_path):
        spec = self._search_spec()
        with SearchSession(store=ResultStore(tmp_path)) as session:
            with pytest.raises(DeadlineExceeded, match="rung"):
                session.run(spec, rung_deadline_seconds=0.0)

    def test_resumed_search_rungs_are_exempt(self, tmp_path):
        spec = self._search_spec()
        store = ResultStore(tmp_path)
        with SearchSession(store=store) as session:
            full = session.run(spec)
        with SearchSession(store=store) as session:
            resumed = session.run(spec, rung_deadline_seconds=0.0)
            assert session.stats.rungs_resumed == 1
        assert json.dumps(resumed.to_dict(), sort_keys=True) == \
               json.dumps(full.to_dict(), sort_keys=True)
