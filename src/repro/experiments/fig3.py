"""Figure 3: error metrics vs IPU precision for FP16/FP32 accumulators."""

from __future__ import annotations

from repro.analysis.sweeps import PrecisionSweep, recommended_min_precision
from repro.api import EmulationSession, RunSpec, render_sweep
from repro.fp.formats import FP16, FP32
from repro.utils.rng import as_generator

__all__ = ["run", "render", "spec_for"]


def spec_for(
    batch: int = 20000,
    chunks: int = 4,
    precisions=(8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 27, 28, 30, 38),
    sources=("laplace", "normal", "uniform", "resnet-tensors", "convnet-tensors"),
    acc_fmts=(FP16, FP32),
    seed: int = 0,
) -> RunSpec:
    """The Figure-3 grid as a declarative, JSON-serializable RunSpec."""
    return RunSpec.grid(
        name="fig3",
        precisions=tuple(precisions),
        accumulators=tuple(f.name for f in acc_fmts),
        sources=tuple(sources), batch=batch, chunks=chunks, seed=seed,
    )


def run(
    batch: int = 20000,
    chunks: int = 4,
    precisions=(8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 27, 28, 30, 38),
    sources=("laplace", "normal", "uniform", "resnet-tensors", "convnet-tensors"),
    acc_fmts=(FP16, FP32),
    rng=0,
    session: EmulationSession | None = None,
) -> PrecisionSweep:
    spec = spec_for(batch, chunks, precisions, sources, acc_fmts,
                    seed=rng if isinstance(rng, int) else 0)
    session = session or EmulationSession()
    return session.sweep(spec, rng=as_generator(rng))


def render(sweep: PrecisionSweep) -> str:
    blocks = []
    for acc in ("fp16", "fp32"):
        blocks.append(render_sweep(
            PrecisionSweep([p for p in sweep.points if p.acc_fmt == acc]),
            title="Figure 3"))
        blocks.append(
            f"=> minimum IPU precision for {acc} accumulation (median contaminated "
            f"bits == 0 on the worst source): {recommended_min_precision(sweep, acc)} "
            f"bits (paper: {'16' if acc == 'fp16' else '26-27'})"
        )
    return "\n\n".join(blocks)


def main() -> None:  # pragma: no cover - CLI entry
    print(render(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
