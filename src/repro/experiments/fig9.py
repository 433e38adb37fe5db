"""Figure 9: exponent-difference (alignment size) histograms, fwd vs bwd.

Two complementary reproductions:

- shape-faithful synthetic ResNet-18 tensors (the default, matching the
  layer geometry the paper simulated);
- real tensors from our trained NumPy ResNet-style model (training
  substrate), selectable with ``use_trained_model=True``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.exponents import ShiftHistogram, alignment_histogram, histogram_from_model
from repro.nn.zoo import resnet18_convs
from repro.utils.table import render_table

__all__ = ["run", "render"]


@dataclass
class Fig9Result:
    forward: ShiftHistogram
    backward: ShiftHistogram


def run(n_inputs: int = 8, samples_per_layer: int = 1500, rng: int = 21,
        use_trained_model: bool = False) -> Fig9Result:
    if use_trained_model:
        from repro.analysis._model_cache import trained_model

        model, dataset = trained_model("resnet")
        images, labels = dataset.images[:48], dataset.labels[:48]
        fwd = histogram_from_model(model, images, labels, n_inputs, rng=rng,
                                   direction="forward")
        bwd = histogram_from_model(model, images, labels, n_inputs, rng=rng,
                                   direction="backward")
        return Fig9Result(fwd, bwd)
    layers = resnet18_convs()
    fwd = alignment_histogram(layers, n_inputs, "forward", samples_per_layer, rng)
    bwd = alignment_histogram(layers, n_inputs, "backward", samples_per_layer, rng)
    return Fig9Result(fwd, bwd)


def render(result: Fig9Result) -> str:
    headers = ["alignment size", "forward %", "backward %"]
    rows = []
    for (edge, f), (_, b) in zip(result.forward.rows(), result.backward.rows()):
        label = f"{edge}" if edge < len(result.forward.density) - 1 else f">={edge}"
        rows.append([label, round(100 * f, 3), round(100 * b, 3)])
    table = render_table(headers, rows,
                         title="Figure 9 — ResNet-18 exponent-difference distribution")
    summary = (
        f"forward: median {result.forward.median():.0f}, "
        f"{100 * result.forward.fraction_above(8):.2f}% above 8 (paper: ~1%)\n"
        f"backward: median {result.backward.median():.0f}, "
        f"{100 * result.backward.fraction_above(8):.2f}% above 8 (paper: much wider)"
    )
    return table + "\n" + summary


def main() -> None:  # pragma: no cover
    print(render(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
