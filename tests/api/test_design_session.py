"""DesignSession: cache behavior, joint evaluation, Pareto, parallel sweeps."""

from dataclasses import dataclass

import math

import pytest

from repro.api import (
    DesignPoint,
    DesignSession,
    DesignSweepSpec,
    PrecisionPoint,
    RunSpec,
    pareto_frontier,
)
from repro.tile.config import SMALL_TILE

QUICK_ACCURACY = RunSpec(name="quick", sources=("laplace",), batch=400)


@pytest.fixture()
def session():
    with DesignSession(accuracy=QUICK_ACCURACY) as s:
        yield s


class TestCaches:
    def test_component_areas_memoized(self, session):
        a = session.component_areas("MC-IPU4")
        b = session.component_areas("mc-ipu4")
        assert a is b
        assert session.stats.hits.get("area") == 1
        assert session.stats.misses.get("area") == 1

    def test_alignment_factor_shared_across_designs_with_same_tree(self, session):
        # MC-SER and MC-IPU4 both serve off a 16-bit tree with EHU share 8:
        # the second design must reuse the first's network simulations.
        f1 = session.design_alignment_factor("MC-SER", samples=16, rng=3)
        misses = dict(session.stats.misses)
        f2 = session.design_alignment_factor("MC-IPU4", samples=16, rng=3)
        assert f1 == f2 > 1.0
        assert session.stats.misses == misses  # nothing recomputed
        assert session.stats.hits.get("alignment") == 1

    def test_alignment_factor_is_one_for_wide_or_non_temporal(self, session):
        assert session.design_alignment_factor("NVDLA") == 1.0
        assert session.design_alignment_factor("INT8") == 1.0
        assert session.alignment_factor(SMALL_TILE) == 1.0  # 38b >= 28b

    def test_network_perf_cache_returns_identical_results(self, session):
        perf1 = session.network_perf("resnet18", "small@16b/c8", samples=16, rng=5)
        perf2 = session.network_perf("resnet18", "small@16b/c8", samples=16, rng=5)
        assert perf1 is perf2
        from repro.tile.simulator import simulate_network
        from repro.nn.zoo import resnet18_convs

        direct = simulate_network(resnet18_convs(),
                                  SMALL_TILE.with_precision(16, 8), 28,
                                  "forward", samples=16, rng=5)
        assert perf1.total_cycles == direct.total_cycles

    def test_adder_widths_share_one_worst_shift_draw(self, session):
        # the design-search ladder: 3 widths x 2 directions x 2 rung sizes
        # draws one sample set per (direction, samples), never per width
        from repro.nn.zoo import resnet18_convs
        from repro.tile.simulator import simulate_network

        for samples in (24, 384):
            for direction in ("forward", "backward"):
                for width in (16, 20, 23):
                    tile = SMALL_TILE.with_precision(width, 8)
                    perf = session.network_perf("resnet18", tile, 28, direction,
                                                samples, rng=41)
                    assert perf == simulate_network(resnet18_convs(), tile, 28,
                                                    direction, samples, rng=41)
        assert session.stats.misses.get("shifts") == 4
        assert session.stats.hits.get("shifts") == 8
        assert session.stats.misses.get("perf") == 12
        # a wide tile of the same geometry is costed off the same draw
        wide = session.network_perf("resnet18", SMALL_TILE.with_precision(38, 8),
                                    28, "forward", 384, rng=41)
        assert wide == simulate_network(resnet18_convs(),
                                        SMALL_TILE.with_precision(38, 8), 28,
                                        "forward", 384, rng=41)
        assert session.stats.misses.get("shifts") == 4

    def test_equivalent_tile_specs_share_simulations(self, session):
        # 'small' (width from the design) and an explicitly pinned
        # 'small@16b/c8' are the same simulation tile: no recompute
        session.evaluate(DesignPoint(design="MC-IPU4", tile="small",
                                     samples=16, rng=3))
        misses = dict(session.stats.misses)
        session.evaluate(DesignPoint(design="MC-IPU4", tile="small@16b/c8",
                                     samples=16, rng=3))
        assert session.stats.misses == misses
        assert session.stats.hits.get("alignment") == 1

    def test_accuracy_memoized_per_precision_point(self, session):
        a = session.accuracy(PrecisionPoint(16))
        b = session.accuracy(PrecisionPoint(16))
        assert a is b and session.stats.hits.get("accuracy") == 1

    def test_tile_cost_matches_direct_call(self, session):
        from repro.hw.tile_cost import tile_cost

        cost = session.tile_cost(SMALL_TILE.with_precision(16), mode="fp")
        direct = tile_cost(SMALL_TILE.with_precision(16), mode="fp")
        assert cost == direct
        assert session.tile_cost(SMALL_TILE.with_precision(16), mode="fp") is cost


class TestSimulationPins:
    """Exact floats of the alignment simulations. The golden renders round
    to 3 decimals, so only these catch a last-bit drift in the costing."""

    ALIGNMENT = {
        "MC-SER": "1.5828364252061249",
        "MC-IPU4": "1.5828364252061249",
        "MC-IPU84": "1.2603246466431095",
        "MC-IPU8": "1.0839958775029448",
    }
    TOTAL_CYCLES = {
        (12, "forward"): "22152477.375", (12, "backward"): "68036598.0",
        (16, "forward"): "16861690.125", (16, "backward"): "33830267.625",
        (20, "forward"): "16229792.25", (20, "backward"): "24114541.5",
        (23, "forward"): "15974784.0", (23, "backward"): "18734451.75",
        (38, "forward"): "15974784.0", (38, "backward"): "15974784.0",
    }

    def test_temporal_paper_design_alignment_factors(self, session):
        from repro.hw.designs import DESIGNS

        temporal = [n for n, d in DESIGNS.items() if d.fp_mode == "temporal"]
        assert sorted(temporal) == sorted(self.ALIGNMENT)
        for name in temporal:
            factor = session.design_alignment_factor(name, samples=96, rng=41)
            assert repr(factor) == self.ALIGNMENT[name], name

    @pytest.mark.parametrize("width", [12, 16, 20, 23, 38])
    def test_resnet18_total_cycles(self, session, width):
        tile = SMALL_TILE.with_precision(width, 8)
        for direction in ("forward", "backward"):
            perf = session.network_perf("resnet18", tile, 28, direction,
                                        samples=1024, rng=0)
            assert repr(perf.total_cycles) == self.TOTAL_CYCLES[width, direction]


class TestEvaluate:
    def test_custom_design_on_custom_tile_end_to_end(self, session):
        """Acceptance: a non-paper design on a custom tile gets accuracy AND
        efficiency from one evaluate() call."""
        report = session.evaluate(DesignPoint(
            design="mc-ipu:8x4@24b", tile="8x8x2x2/c4", samples=16, rng=7))
        fp16 = report.efficiency_for(16, 16)
        assert fp16 is not None
        assert fp16.tops_per_mm2 > 0 and fp16.tops_per_w > 0
        assert report.alignment_factor > 1.0
        assert report.accuracy  # numerics half populated
        assert math.isfinite(report.accuracy_metric("mean_contaminated_bits"))
        assert report.area_mm2 > 0 and report.power_fp_w > 0

    def test_rejects_tile_width_conflicting_with_design(self, session):
        with pytest.raises(ValueError, match="pins a 23-bit"):
            session.evaluate(DesignPoint(design="MC-IPU4", tile="small@23b",
                                         samples=16))

    def test_bare_string_evaluates_on_default_tile(self, session):
        report = session.evaluate("MC-IPU4")
        assert report.design == "MC-IPU4"
        assert report.point.tile.name == "small"

    def test_int_only_design_has_no_fp_half(self, session):
        report = session.evaluate(DesignPoint(design="INT8", samples=16))
        assert report.efficiency_for(16, 16) is None
        assert report.accuracy == () and report.power_fp_w is None
        assert math.isnan(report.metric("tops_per_w@fp16"))
        assert math.isnan(report.metric("power_fp_w"))  # None attr -> NaN
        assert math.isnan(report.metric("median_abs_error"))

    def test_efficiency_matches_table1_math(self, session):
        from repro.hw.designs import DESIGNS
        from repro.hw.efficiency import design_efficiency

        report = session.evaluate(DesignPoint(design="MC-IPU4", samples=16, rng=3))
        af = session.design_alignment_factor("MC-IPU4", samples=16, rng=3)
        for (a, w), got in zip(report.point.op_precisions, report.efficiency):
            want = design_efficiency(DESIGNS["MC-IPU4"], a, w,
                                     alignment_factor=af if (a, w) == (16, 16) else 1.0)
            assert got == want

    def test_metric_strings(self, session):
        report = session.evaluate(DesignPoint(design="MC-IPU4", samples=16))
        assert report.metric("tops_per_mm2@4x4") == report.efficiency_for(4, 4).tops_per_mm2
        assert report.metric("tops_per_w@fp16") == report.efficiency_for(16, 16).tops_per_w
        assert report.metric("tops_per_w@FP16") == report.metric("tops_per_w@fp16")
        assert report.metric("-area_mm2") == -report.area_mm2
        assert report.metric("-median_abs_error") == -report.accuracy_metric("median_abs_error")

    def test_metric_is_nan_for_uncosted_op_precision(self, session):
        report = session.evaluate(DesignPoint(
            design="MC-IPU4", op_precisions=((4, 4),), samples=16))
        assert math.isnan(report.metric("tops_per_mm2@8x8"))
        with pytest.raises(KeyError):  # the explicit accessor still raises
            report.efficiency_for(8, 8)

    def test_typoed_accuracy_metric_raises_when_data_exists(self, session):
        report = session.evaluate(DesignPoint(design="MC-IPU4", samples=16))
        with pytest.raises(AttributeError):
            report.metric("median_abs_eror")

    def test_report_to_dict_is_json_safe(self, session):
        import json

        report = session.evaluate(DesignPoint(design="MC-IPU4", samples=16))
        json.dumps(report.to_dict())


class TestSweep:
    def spec(self):
        return DesignSweepSpec.grid(
            designs=("MC-SER", "MC-IPU4", "INT8"), tiles=("small",),
            samples=16, rng=3)

    def test_sweep_order_matches_spec(self, session):
        reports = session.sweep(self.spec())
        assert [r.design for r in reports] == ["MC-SER", "MC-IPU4", "INT8"]

    def test_parallel_sweep_identical_to_serial(self):
        spec = self.spec()
        with DesignSession(accuracy=QUICK_ACCURACY) as serial:
            want = serial.sweep(spec)
        with DesignSession(workers=4, accuracy=QUICK_ACCURACY) as parallel:
            got = parallel.sweep(spec)
        assert got == want

    def test_warm_sweep_hits_caches_and_is_identical(self, session):
        spec = self.spec()
        cold = session.sweep(spec)
        misses = dict(session.stats.misses)
        warm = session.sweep(spec)
        assert warm == cold
        assert session.stats.misses == misses  # warm run computed nothing new

    def test_sweep_accepts_point_lists(self, session):
        reports = session.sweep(["MC-IPU4", DesignPoint(design="INT4", samples=16)])
        assert [r.design for r in reports] == ["MC-IPU4", "INT4"]

    def test_closed_session_rejects_work(self):
        s = DesignSession(workers=2, accuracy=QUICK_ACCURACY)
        s.close()
        with pytest.raises(RuntimeError, match="closed"):
            s.sweep(self.spec())
        with pytest.raises(RuntimeError, match="closed"):
            s.evaluate("MC-IPU4")  # serial path too: no silent session rebuild


@dataclass(frozen=True)
class _XY:
    name: str
    x: float
    y: float
    group: str = "g"


class TestParetoFrontier:
    def test_hand_built_frontier(self):
        pts = [_XY("a", 1, 1), _XY("b", 2, 3), _XY("c", 3, 2),
               _XY("d", 0, 5), _XY("e", 2, 2)]
        front = pareto_frontier(pts, "x", "y")
        assert [p.name for p in front] == ["b", "c", "d"]

    def test_duplicates_both_survive(self):
        pts = [_XY("a", 2, 3), _XY("b", 2, 3)]
        assert pareto_frontier(pts, "x", "y") == pts

    def test_negated_metric(self):
        pts = [_XY("a", 1, 5), _XY("b", 2, 3)]
        # maximize both: incomparable, both survive
        assert pareto_frontier(pts, "x", "y") == pts
        # minimize y via negation: b wins both axes and dominates a
        assert [p.name for p in pareto_frontier(pts, "x", "-y")] == ["b"]

    def test_within_groups(self):
        pts = [_XY("a", 1, 1, "g1"), _XY("b", 2, 2, "g1"), _XY("c", 1, 1, "g2")]
        front = pareto_frontier(pts, "x", "y", within=lambda p: p.group)
        assert [p.name for p in front] == ["b", "c"]

    def test_callables_and_order_preserved(self):
        pts = [_XY("a", 3, 1), _XY("b", 1, 3)]
        front = pareto_frontier(pts, lambda p: p.x, lambda p: p.y)
        assert front == pts

    def test_nonfinite_items_dropped(self):
        pts = [_XY("a", float("nan"), 1), _XY("b", 1, 1)]
        assert [p.name for p in pareto_frontier(pts, "x", "y")] == ["b"]

    def test_accepts_generators(self):
        pts = [_XY("a", 3, 1), _XY("b", 1, 3)]
        assert pareto_frontier((p for p in pts), "x", "y") == pts

    def test_matches_fig10_front(self):
        from repro.experiments.fig10 import Fig10Point, pareto_front

        pts = [
            Fig10Point("small", 12, 1, 1, 1, 5.0, 1.0),
            Fig10Point("small", 16, 1, 1, 1, 4.0, 2.0),
            Fig10Point("small", 20, 1, 1, 1, 3.0, 1.5),  # dominated by 16
            Fig10Point("big", 12, 1, 1, 1, 1.0, 1.0),    # alone in its group
        ]
        front = pareto_front(pts)
        assert [(p.tile, p.precision) for p in front] == [
            ("small", 12), ("small", 16), ("big", 12)]
