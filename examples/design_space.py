"""Explore the accelerator design space: adder-tree precision x clustering,
then invent designs of your own and Pareto-rank them.

Part 1 (tile view): for a chosen workload, sweeps MC-IPU precision and
cluster size, reporting normalized execution time (performance cost) next
to tile area and power (hardware cost) — the Figure 8 + Figure 10 trade-off
in one table.

Simulations go through one `repro.api.DesignSession`
(`network_perf`), which draws exponent statistics *once per cluster size*
and costs every adder width off that draw: the width only changes how the
same worst alignment shifts are served, so no precision point re-samples or
re-decodes anything. The FP32-accumulation software precision comes from
the accumulator registry instead of a magic number.

Part 2 (design view): a `repro.api.DesignSession` evaluates paper designs
*and* custom registry strings (`mc-ipu:8x4@24b`, `nvdla-like:...`) jointly —
numerics error sweep + TOPS/mm2 + TOPS/W per design in one `evaluate()` —
and `pareto_frontier` ranks the FP16-density x numerics trade-off. This is
the Table-1 machinery opened up to arbitrary design points.

Usage: python examples/design_space.py [resnet18|resnet50|inceptionv3] [--backward]
"""

import sys

from repro.api import (
    DesignSession,
    DesignSweepSpec,
    pareto_frontier,
    parse_accumulator,
    render_design_reports,
)
from repro.hw.tile_cost import tile_cost
from repro.ipu.mc_ipu import BASELINE_ADDER_WIDTH
from repro.tile.config import SMALL_TILE
from repro.utils.table import render_table


def main() -> None:
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    workload = args[0] if args else "resnet18"
    direction = "backward" if "--backward" in sys.argv else "forward"
    # §3.1: FP32 accumulation needs 28 bits of software precision
    software_precision = parse_accumulator("fp32").software_precision
    samples = 256

    base_tile = SMALL_TILE.with_precision(BASELINE_ADDER_WIDTH)
    base_cost = tile_cost(base_tile, mode="fp")
    rows = []
    with DesignSession() as session:
        baseline = session.network_perf(workload, base_tile, software_precision,
                                        direction, samples, rng=0)
        for cluster in (1, 4, None):
            for width in (12, 16, 20, 28):
                tile = SMALL_TILE.with_precision(width, cluster)
                perf = session.network_perf(workload, tile, software_precision,
                                            direction, samples, rng=0)
                cost = tile_cost(tile, mode="fp")
                rows.append([
                    width,
                    "tile" if cluster is None else cluster,
                    round(perf.normalized_to(baseline), 3),
                    f"{100 * (cost.area_mm2 / base_cost.area_mm2 - 1):+.1f}%",
                    f"{100 * (cost.power_w / base_cost.power_w - 1):+.1f}%",
                ])
    rows.append([BASELINE_ADDER_WIDTH, "-", 1.0, "+0.0%", "+0.0%"])
    rows.sort(key=lambda r: (r[0], str(r[1])))
    print(render_table(
        ["adder width", "cluster", "normalized time", "area vs baseline",
         "power vs baseline"],
        rows,
        title=f"Design space: {workload} ({direction}), FP32 accumulation, 8-input tile",
    ))
    print("\nreading guide: (12,1) and (16,1) are the paper's Pareto picks —",
          "large area/power savings for modest FP-mode slowdowns.")

    custom_design_pareto()


def custom_design_pareto() -> None:
    """Part 2: joint accuracy x efficiency over paper + invented designs."""
    spec = DesignSweepSpec.grid(
        name="custom designs",
        designs=(
            "MC-SER", "MC-IPU4", "MC-IPU84", "MC-IPU8", "NVDLA", "FP16",
            # invented points: registry grammar, no code changes needed
            "mc-ipu:4x4@20b",        # MC-IPU4 with a roomier tree
            "mc-ipu:8x4@24b",        # near-single-cycle 8x4
            "mc-ipu:8x8@23b/ehu4",   # MC-IPU8 with tighter EHU clusters
        ),
        tiles=("small",),
        samples=96,
    )
    with DesignSession() as session:
        reports = session.sweep(spec)
        print()
        print(render_design_reports(reports, title=spec.name))
        front = pareto_frontier(reports, x="tops_per_mm2@4x4",
                                y="tops_per_mm2@fp16")
        print("\nINT4-density x FP16-density Pareto frontier (Table 1's "
              "trade-off):", ", ".join(r.design for r in front))
        exact = pareto_frontier(reports, x="tops_per_mm2@4x4",
                                y="-mean_contaminated_bits")
        print("INT4-density x numerics Pareto frontier:",
              ", ".join(r.design for r in exact))
        hits = sum(session.stats.hits.values())
        misses = sum(session.stats.misses.values())
        print(f"(session caches: {hits} hits / {misses} misses — designs "
              "sharing adder trees reuse each other's simulations)")


if __name__ == "__main__":
    main()
