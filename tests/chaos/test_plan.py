"""repro.chaos.plan: the fault grammar and its lossless round trips."""

import json
from pathlib import Path

import pytest

from repro.chaos import Fault, FaultPlan

REPO_ROOT = Path(__file__).resolve().parents[2]

GRAMMAR = [
    ("store-corrupt@put:2x2", dict(kind="store-corrupt", at=2, times=2)),
    ("store-corrupt@put:0", dict(kind="store-corrupt", at=0)),
    ("endpoint-timeout@shard:1", dict(kind="endpoint-timeout", shard=1)),
    ("conn-reset@request:5", dict(kind="conn-reset", at=5)),
    ("conn-reset@request:0x3", dict(kind="conn-reset", at=0, times=3)),
    ("slow-response@0.25", dict(kind="slow-response", p=0.25)),
]


class TestFaultGrammar:
    @pytest.mark.parametrize("text,fields", GRAMMAR)
    def test_parse_and_str_round_trip(self, text, fields):
        fault = Fault.parse(text)
        for name, value in fields.items():
            assert getattr(fault, name) == value
        assert str(fault) == text
        assert Fault.parse(str(fault)) == fault

    @pytest.mark.parametrize("bad", [
        # the removed process-pool fault, in every form it used to take
        "worker-crash",
        "worker-crash@put:1",
        "no-such-kind@chunk:1",
        "worker-crash@chunk:",
        "worker-crash@chunk:-1",
        "store-corrupt",              # no @target
        "store-corrupt@request:1",    # wrong counter label for the kind
        "store-corrupt@put:",         # missing index
        "store-corrupt@put:-1",
        "conn-reset@request:0x0",     # repeat count below 1 (times >= 1)
        "slow-response@nope",
    ])
    def test_malformed_text_rejected(self, bad):
        with pytest.raises(ValueError):
            Fault.parse(bad)

    def test_field_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            Fault(kind="meteor-strike", at=0)
        with pytest.raises(ValueError, match="probability"):
            Fault(kind="slow-response", p=1.5)
        with pytest.raises(ValueError, match="shard"):
            Fault(kind="endpoint-timeout")
        with pytest.raises(ValueError, match="call index"):
            Fault(kind="store-corrupt")

    def test_removed_worker_crash_names_the_remaining_kinds(self):
        for parse in (Fault.parse, FaultPlan.of):
            with pytest.raises(ValueError) as info:
                parse("worker-crash@chunk:1")
            for kind in ("store-corrupt", "endpoint-timeout", "conn-reset",
                         "slow-response"):
                assert kind in str(info.value)

    def test_sites_follow_the_kind(self):
        assert Fault.parse("store-corrupt@put:0").sites == ("store.put",)
        assert Fault.parse("slow-response@0.5").sites == (
            "client.request", "service.job")


class TestFaultPlan:
    def test_dict_and_json_round_trip(self):
        plan = FaultPlan.of("conn-reset@request:1", "store-corrupt@put:2",
                            "slow-response@0.1", seed=7)
        assert FaultPlan.from_dict(plan.to_dict()) == plan
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_dict_faults_accept_strings_and_dicts(self):
        plan = FaultPlan.from_dict({
            "seed": 3,
            "faults": ["conn-reset@request:0",
                       {"kind": "endpoint-timeout", "shard": 2}],
        })
        assert plan.seed == 3
        assert plan.faults[0].kind == "conn-reset"
        assert plan.faults[1].shard == 2

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown fault-plan fields"):
            FaultPlan.from_dict({"seed": 0, "chaos_level": 11})
        with pytest.raises(ValueError, match="unknown fault fields"):
            FaultPlan.from_dict({"faults": [{"kind": "conn-reset", "port": 1}]})
        with pytest.raises(ValueError, match="JSON object"):
            FaultPlan.from_json("[1, 2]")

    def test_save_load_round_trip(self, tmp_path):
        plan = FaultPlan.of("store-corrupt@put:0", seed=11)
        path = tmp_path / "plan.json"
        plan.save(path)
        assert FaultPlan.load(path) == plan
        # the file is plain sorted JSON, editable by hand
        data = json.loads(path.read_text())
        assert data["seed"] == 11

    def test_committed_ci_plan_parses(self):
        plan = FaultPlan.load(REPO_ROOT / "examples/specs/chaos_quick.json")
        assert plan.seed == 7
        assert [f.kind for f in plan.faults] == ["store-corrupt"]

    def test_describe_names_every_fault(self):
        plan = FaultPlan.of("conn-reset@request:1", seed=2)
        assert "seed=2" in plan.describe()
        assert "conn-reset@request:1" in plan.describe()
        assert "no faults" in FaultPlan().describe()
