"""Byte-identity of every experiment render against a committed golden.

Each file under ``golden/`` is one figure or table rendered at a reduced
size. fig7, table1, fig8a, fig8b and fig10 were rendered by the
pre-DesignSession implementations (direct ``tile_cost``/``simulate_network``/
``design_efficiency`` calls). A render must match its golden byte for byte:
caching, the execution backend and the engine's fast paths never change a
number.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.api import EmulationSession, PrecisionPoint, RunSpec, render_sweep
from repro.experiments import accuracy_table, fig3, fig7, fig8, fig9, fig10, table1
from repro.nn.zoo import resnet18_convs
from repro.tile.cluster import simulate_tile_queue
from repro.tile.config import SMALL_TILE
from repro.tile.simulator import simulate_network, step_cycle_samples
from repro.tile.workload import sample_product_exponents
from repro.utils.table import render_table

GOLDEN = Path(__file__).resolve().parent / "golden"


def golden_text(name: str) -> str:
    return (GOLDEN / name).read_text()


def ablation_skip_empty() -> str:
    """How much would a smarter EHU stage 5 (skipping empty serve
    partitions) recover? The paper's sequential-threshold hardware pays for
    empty intermediate cycles; this quantifies the gap."""
    layers = resnet18_convs()[2:10]
    rows = []
    for direction in ("forward", "backward"):
        seq = simulate_network(layers, SMALL_TILE.with_precision(12), 28,
                               direction, samples=192, rng=5)
        skip = simulate_network(layers, SMALL_TILE.with_precision(12), 28,
                                direction, samples=192, rng=5,
                                skip_empty_cycles=True)
        rows.append([direction, round(seq.total_cycles / skip.total_cycles, 3)])
    return render_table(["direction", "sequential/skip-empty cycle ratio"], rows,
                        title="Ablation: EHU empty-partition skipping (MC-IPU(12), sw=28)")


def ablation_buffer_depth() -> str:
    """Cluster decoupling vs local buffer depth (§3.3's buffering premise)."""
    layer = resnet18_convs()[6]
    exps = sample_product_exponents(layer, 8, 4, 3000, "backward", rng=7)
    per_cluster = step_cycle_samples(exps, 16, 28)
    costs = np.stack([np.roll(per_cluster, k * 97) for k in range(8)], axis=1)
    rows = []
    for depth in (1, 2, 4, 8, 32):
        res = simulate_tile_queue(costs, depth)
        rows.append([depth, res.total_cycles, f"{100 * res.stall_fraction:.1f}%"])
    return render_table(["buffer depth", "makespan [cycles]", "broadcast stalls"], rows,
                        title="Ablation: cluster input-buffer depth (backward, MC-IPU(16))")


def mc_sweep() -> str:
    """MC-IPU points through the session sweep: fp16 operands at every
    serve-cycle count the Figure-3 widths reach, plus fp32 operands (six
    nibbles; the w=32 point takes the int64 path and floors on all but its
    top diagonal). The means are printed in full so a change in any row
    shows, not only a change in the medians."""
    fp16 = RunSpec(
        name="mc-fp16", sources=("laplace", "normal", "uniform"),
        points=tuple(PrecisionPoint(w, 28, True, acc)
                     for w in (10, 12, 16, 20) for acc in ("fp16", "fp32")),
        batch=1500, chunks=2, seed=3)
    fp32 = RunSpec(
        name="mc-fp32-operands", operand_format="fp32",
        sources=("laplace", "normal", "uniform"),
        points=(PrecisionPoint(12, 28, True, "fp32"),
                PrecisionPoint(32, 48, True, "fp32")),
        batch=1000, chunks=2, seed=4)
    blocks = []
    with EmulationSession() as session:
        for spec in (fp16, fp32):
            sweep = session.sweep(spec)
            blocks.append(render_sweep(sweep, title=spec.name))
            blocks.append("\n".join(
                f"{spec.name} {p.source} {p.acc_fmt} w={p.precision}: "
                f"mean_abs={p.stats.mean_abs_error!r} "
                f"mean_rel_pct={p.stats.mean_rel_error_pct!r} "
                f"mean_bits={p.stats.mean_contaminated_bits!r}"
                for p in sweep.points))
    return "\n\n".join(blocks)


RENDERS = [
    pytest.param("fig7.txt", lambda: fig7.render(fig7.run()), id="fig7"),
    pytest.param("table1.txt", lambda: table1.render(table1.run(samples=48, rng=5)),
                 id="table1"),
    pytest.param("fig8a.txt",
                 lambda: fig8.render(fig8.run_precision_sweep(samples=48, rng=1)),
                 id="fig8a", marks=pytest.mark.slow),
    pytest.param("fig8b.txt",
                 lambda: fig8.render(fig8.run_cluster_sweep(samples=48, rng=2)),
                 id="fig8b", marks=pytest.mark.slow),
    pytest.param("fig10.txt",
                 lambda: fig10.render(fig10.run(samples=48, rng=4, tiles=(SMALL_TILE,))),
                 id="fig10"),
    pytest.param("fig3.txt",
                 lambda: fig3.render(fig3.run(
                     batch=4000, chunks=2, precisions=(8, 12, 16, 20, 24, 26, 28, 38),
                     sources=("laplace", "normal", "uniform"))),
                 id="fig3"),
    pytest.param("fig9.txt",
                 lambda: fig9.render(fig9.run(samples_per_layer=800, rng=21)),
                 id="fig9"),
    pytest.param("accuracy.txt",
                 lambda: accuracy_table.render(accuracy_table.run(
                     precisions=(8, 12), n_eval=32, styles=("plain",))),
                 id="accuracy"),
    pytest.param("mc_sweep.txt", mc_sweep, id="mc_sweep"),
    pytest.param("ablation_skip_empty.txt", ablation_skip_empty, id="ablation_skip_empty"),
    pytest.param("ablation_buffer_depth.txt", ablation_buffer_depth,
                 id="ablation_buffer_depth"),
]


@pytest.mark.parametrize("golden, render", RENDERS)
def test_render_matches_golden(golden, render):
    assert render() + "\n" == golden_text(golden)


def test_table1_shared_session_still_byte_identical():
    from repro.api import DesignSession

    with DesignSession() as session:
        cold = table1.render(table1.run(samples=48, rng=5, session=session))
        warm = table1.render(table1.run(samples=48, rng=5, session=session))
    assert cold == warm
    assert cold + "\n" == golden_text("table1.txt")
