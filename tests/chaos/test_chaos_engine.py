"""repro.chaos.engine: deterministic matching, arming, and hook semantics."""

import pytest

from repro.chaos import (
    ChaosEngine,
    FaultPlan,
    InjectedFault,
    arm,
    chaos_hook,
    current_engine,
    disarm,
    install,
    is_retryable,
)


class TestMatching:
    def test_counter_fault_fires_on_exactly_the_nth_call(self):
        engine = ChaosEngine(FaultPlan.of("store-corrupt@put:2"))
        hits = [engine.hook("store.put") for _ in range(5)]
        assert hits == [None, None, {"action": "corrupt"}, None, None]

    def test_repeat_suffix_fires_on_consecutive_calls(self):
        engine = ChaosEngine(FaultPlan.of("store-corrupt@put:1x2"))
        hits = [engine.hook("store.put") for _ in range(4)]
        assert hits == [None, {"action": "corrupt"}, {"action": "corrupt"},
                        None]

    def test_sites_are_independent_counters(self):
        engine = ChaosEngine(FaultPlan.of("store-corrupt@put:0"))
        assert engine.hook("service.job") is None  # wrong site: not consumed
        assert engine.hook("store.put") == {"action": "corrupt"}

    def test_conn_reset_raises_a_retryable_injected_fault(self):
        engine = ChaosEngine(FaultPlan.of("conn-reset@request:0"))
        with pytest.raises(InjectedFault) as info:
            engine.hook("client.request")
        assert is_retryable(info.value)
        assert info.value.kind == "conn-reset"
        assert engine.hook("client.request") is None  # consumed

    def test_endpoint_timeout_matches_the_shard_not_the_call_order(self):
        engine = ChaosEngine(FaultPlan.of("endpoint-timeout@shard:2"))
        assert engine.hook("fleet.shard", shard=0) is None
        assert engine.hook("fleet.shard", shard=1) is None
        with pytest.raises(InjectedFault, match="shard=2"):
            engine.hook("fleet.shard", shard=2)
        # times=1: the shard dispatches cleanly on redispatch
        assert engine.hook("fleet.shard", shard=2) is None

    def test_slow_response_is_seeded_and_timing_only(self):
        plan = FaultPlan.of("slow-response@1.0", seed=5)
        # p=1.0 always fires; the default delay is small enough for a test
        engine = ChaosEngine(plan)
        assert engine.hook("service.job") is None  # sleeps, returns nothing
        assert engine.stats()["injected"] == {"slow-response": 1}
        # the probabilistic draw replays identically for the same seed
        def fire_counts(seed):
            e = ChaosEngine(FaultPlan.from_dict({"seed": seed, "faults": [
                {"kind": "slow-response", "p": 0.5, "delay": 0.0}]}))
            out = []
            for _ in range(8):
                e.hook("service.job")
                out.append(e.stats()["injected"].get("slow-response", 0))
            return out

        assert fire_counts(9) == fire_counts(9)
        assert fire_counts(9)[-1] not in (0, 8)  # p=0.5 actually mixes

    def test_stats_shape(self):
        engine = ChaosEngine(FaultPlan.of("store-corrupt@put:0", seed=3))
        engine.hook("store.put")
        stats = engine.stats()
        assert stats["seed"] == 3
        assert stats["faults"] == ["store-corrupt@put:0"]
        assert stats["calls"] == {"store.put": 1}
        assert stats["injected"] == {"store-corrupt": 1}


class TestArming:
    def test_disarmed_hook_is_a_no_op(self):
        assert current_engine() is None
        assert chaos_hook("store.put", kind="sweep") is None

    def test_install_arms_and_disarms(self):
        with install(FaultPlan.of("store-corrupt@put:0")) as engine:
            assert current_engine() is engine
            assert chaos_hook("store.put") == {"action": "corrupt"}
        assert current_engine() is None

    def test_double_arm_is_an_error(self):
        engine = arm(ChaosEngine(FaultPlan()))
        try:
            with pytest.raises(RuntimeError, match="already armed"):
                arm(ChaosEngine(FaultPlan()))
            assert current_engine() is engine
        finally:
            disarm()

    def test_install_disarms_after_an_exception(self):
        with pytest.raises(KeyError):
            with install(FaultPlan()):
                raise KeyError("boom")
        assert current_engine() is None
