"""repro.fleet.ShardPlan: exact cover, determinism, bit-identical merges."""

import json
import random

import pytest

from repro.api import (
    DesignSession,
    DesignSweepSpec,
    EmulationSession,
    PrecisionPoint,
    RunSpec,
    render_design_reports,
    render_sweep,
)
from repro.api.session import sweep_points_to_dicts
from repro.fleet import ShardPlan

SPEC = RunSpec.grid(name="shard-spec", precisions=(10, 12, 14, 16, 20),
                    accumulators=("fp32", "fp16"),
                    sources=("laplace", "normal"), batch=400, n=8, seed=5)
DESIGN_SPEC = DesignSweepSpec.grid(
    name="shard-designs", designs=("MC-IPU4", "INT8", "FP16"),
    tiles=("small", "big"), samples=24, rng=41)


class TestPartitioning:
    @pytest.mark.parametrize("spec,kind", [(SPEC, "sweep"),
                                           (DESIGN_SPEC, "design-sweep")])
    @pytest.mark.parametrize("shards", [1, 2, 3, 64])
    def test_shards_cover_the_grid_exactly_once(self, spec, kind, shards):
        plan = ShardPlan.build(spec, shards)
        assert plan.kind == kind
        total = (len(spec.points) if kind == "sweep"
                 else len(spec.points()))
        covered = [pi for s in plan.shards for pi in s.point_indices]
        assert sorted(covered) == list(range(total))  # disjoint + complete
        assert all(s.point_indices for s in plan.shards)  # no empty shards

    def test_design_sub_specs_reproduce_the_parent_points(self):
        plan = ShardPlan.build(DESIGN_SPEC, 3)
        parent_points = DESIGN_SPEC.points()
        for shard in plan.shards:
            assert tuple(shard.spec.points()) == tuple(
                parent_points[pi] for pi in shard.point_indices)

    def test_run_spec_shards_split_points_never_sources(self):
        plan = ShardPlan.build(SPEC, 4)
        assert plan.axis == "points"
        for shard in plan.shards:
            # sources untouched: they share one RNG stream sequentially,
            # so dropping one would change every later source's operands
            assert shard.spec.sources == SPEC.sources
            assert shard.spec.points == tuple(
                SPEC.points[pi] for pi in shard.point_indices)

    def test_longest_design_axis_wins(self):
        tall = DesignSweepSpec.grid(name="tall", designs=("MC-IPU4",),
                                    tiles=("small", "big", "16x16x2x2"),
                                    samples=8)
        assert ShardPlan.build(tall, 2).axis == "tiles"
        wide = DesignSweepSpec.grid(name="wide",
                                    designs=("MC-IPU4", "INT8", "FP16"),
                                    tiles=("small", "big"), samples=8)
        assert ShardPlan.build(wide, 2).axis == "designs"

    def test_shard_count_is_clamped_to_the_axis(self):
        plan = ShardPlan.build(DESIGN_SPEC, 64)
        assert len(plan.shards) == 3  # three designs
        single = ShardPlan.build(
            DesignSweepSpec.grid(name="one", designs=("INT8",),
                                 tiles=("small",), samples=8), 4)
        assert len(single.shards) == 1 and single.axis == "none"

    def test_plans_are_deterministic_with_derived_fingerprints(self):
        a = ShardPlan.build(SPEC, 3)
        assert ShardPlan.build(SPEC, 3) == a
        fingerprints = [s.spec.fingerprint() for s in a.shards]
        assert len(set(fingerprints)) == len(a.shards)
        # a different split names different sub-grids
        other = ShardPlan.build(SPEC, 2)
        assert not (set(fingerprints)
                    & {s.spec.fingerprint() for s in other.shards})

    def test_invalid_inputs_are_rejected(self):
        with pytest.raises(ValueError):
            ShardPlan.build(SPEC, 0)
        with pytest.raises(ValueError):
            ShardPlan.build(RunSpec(name="empty", sources=("laplace",)), 2)


def _sweep_payload(session, spec) -> dict:
    """A shard's service payload for ``spec``, after the HTTP hop."""
    points = sweep_points_to_dicts(session.sweep(spec).points)
    return json.loads(json.dumps({"points": points}))


class TestMerges:
    def test_merged_sweep_is_bit_identical_to_unsharded(self):
        plan = ShardPlan.build(SPEC, 3)
        with EmulationSession() as session:
            direct = session.sweep(SPEC)
            payloads = [_sweep_payload(session, s.spec) for s in plan.shards]
        merged = plan.merge_payloads(payloads)
        # bit-equal stats, same order
        assert merged["points"] == sweep_points_to_dicts(direct.points)
        assert merged["rendered"] == render_sweep(direct, title=SPEC.name)

    def test_merged_reports_are_bit_identical_to_unsharded(self):
        plan = ShardPlan.build(DESIGN_SPEC, 3)
        with DesignSession() as session:
            direct = session.sweep(DESIGN_SPEC)
            shard_reports = [session.sweep(s.spec) for s in plan.shards]
        merged = plan.merge_reports(shard_reports)
        assert [r.to_dict() for r in merged] == [r.to_dict() for r in direct]
        assert render_design_reports(merged, title=DESIGN_SPEC.name) == \
               render_design_reports(direct, title=DESIGN_SPEC.name)

    def test_merge_order_comes_from_the_plan_not_arrival(self):
        """Shuffling who computed what must not change the merged bytes:
        the plan's point_indices, not arrival order, place results."""
        plan = ShardPlan.build(SPEC, 4)
        with EmulationSession() as session:
            direct = session.sweep(SPEC)
            payloads = {s.index: _sweep_payload(session, s.spec)
                        for s in random.Random(7).sample(plan.shards,
                                                         len(plan.shards))}
        merged = plan.merge_payloads(
            [payloads[i] for i in range(len(plan.shards))])
        assert merged["points"] == sweep_points_to_dicts(direct.points)

    def test_merge_payloads_reproduces_the_service_payload(self):
        plan = ShardPlan.build(SPEC, 2)
        with EmulationSession() as session:
            direct = session.sweep(SPEC)
            payloads = [_sweep_payload(session, s.spec) for s in plan.shards]
        merged = plan.merge_payloads(payloads)
        assert merged["kind"] == "sweep"
        assert merged["name"] == SPEC.name
        assert merged["fingerprint"] == SPEC.fingerprint()
        assert merged["points"] == sweep_points_to_dicts(direct.points)
        assert merged["rendered"] == render_sweep(direct, title=SPEC.name)

    def test_wrong_sized_shard_results_are_rejected(self):
        plan = ShardPlan.build(SPEC, 2)
        with pytest.raises(ValueError, match="expected"):
            plan.merge_payloads([{"points": []}, {"points": []}])
        dplan = ShardPlan.build(DESIGN_SPEC, 3)
        with pytest.raises(ValueError, match="expected"):
            dplan.merge_reports([[], [], []])

    def test_kind_mismatch_is_rejected(self):
        plan = ShardPlan.build(SPEC, 2)
        with pytest.raises(ValueError, match="merge_reports"):
            plan.merge_reports([[], []])
