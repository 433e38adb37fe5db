"""§3.1 accuracy experiment: Top-1 vs IPU precision on trained models.

The paper's finding: IPU precision >= 12 matches the FP32 model on every
batch; 8-bit matches on average but fluctuates per batch (up to ±17%).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.accuracy import AccuracyPoint, accuracy_vs_precision
from repro.utils.table import render_table

__all__ = ["run", "render"]


@dataclass
class AccuracyResult:
    model_name: str
    points: list[AccuracyPoint]


def run(
    precisions=(8, 10, 12, 16, 28),
    n_eval: int = 128,
    styles=("resnet", "plain"),
    session=None,
) -> list[AccuracyResult]:
    from repro.analysis._model_cache import trained_model

    results = []
    for style in styles:
        model, dataset = trained_model(style)
        images = dataset.images[-n_eval:]
        labels = dataset.labels[-n_eval:]
        points = accuracy_vs_precision(model, images, labels, precisions,
                                       session=session)
        results.append(AccuracyResult(style, points))
    return results


def render(results: list[AccuracyResult]) -> str:
    headers = ["model", "IPU precision", "top-1", "delta vs fp32", "per-batch spread"]
    rows = []
    for res in results:
        ref = next(p for p in res.points if p.precision is None)
        for p in res.points:
            label = "fp32 (ref)" if p.precision is None else str(p.precision)
            rows.append([
                res.model_name, label, round(p.accuracy, 4),
                f"{p.accuracy - ref.accuracy:+.4f}",
                round(p.batch_spread, 4),
            ])
    note = ("paper: precision >= 12 matches FP32 on every batch; "
            "8-bit is close on average but fluctuates per batch")
    return render_table(headers, rows, title="Accuracy vs IPU precision (§3.1)") + "\n" + note


def main() -> None:  # pragma: no cover
    print(render(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
