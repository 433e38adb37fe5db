"""The tentpole invariant: random FaultPlans never change a byte.

Property tests drive real recovery machinery — store quarantine, client
retries, coordinator redispatch and local fallback — under seeded random
fault schedules, and assert the outputs are identical to a fault-free run
every time.
"""

import json
import random

import pytest

from repro.api import EmulationSession, RunSpec
from repro.chaos import DeadlineExceeded, FaultPlan, install
from repro.fleet import FleetCoordinator
from repro.search import RungSpec, SearchSession, SearchSpace, SearchSpec
from repro.service import ServiceServer, SweepService
from repro.store import ResultStore

# Big enough to engage the thread pool (rows >= MIN_PARALLEL_ROWS) while
# staying a sub-second sweep: 2 sources x 1 block x 2 dispatched spans.
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
    """Corruption at random schedule positions (a local run has 4
    store.put calls), plus timing noise."""
    rng = random.Random(seed)
    faults = [
        f"store-corrupt@put:{rng.randrange(4)}",
        {"kind": "slow-response", "p": 0.3, "delay": 0.0},
    ]
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
            assert injected.get("store-corrupt", 0) >= 1
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
            coordinator = FleetCoordinator([a.url, b.url], shards=shards,
                                           retries=2, backoff=0.01)
            try:
                with install(plan) as engine:
                    merged = coordinator.run(FLEET_SPEC)
                assert sum(engine.stats()["injected"].values()) >= 1
            finally:
                coordinator.close()
        assert json.dumps(merged, sort_keys=True) == \
               json.dumps(direct, sort_keys=True)


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
