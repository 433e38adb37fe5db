"""Tests for the benchmark's own logic (not for the program it measures)."""

import numpy as np
import pytest

from perfbench.spans import Patches, PropagatingPool, Span, Tracer, layer_totals, self_times, union_length
from perfbench.stats import percentile, tail_percentile, zipf_requests


def spans(*rows):
    return [Span(i, name, start, end, parent) for i, name, start, end, parent in rows]


def test_union_counts_overlap_once():
    assert union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.75)]) == pytest.approx(4.0)
    assert union_length([]) == 0.0
    assert union_length([(2, 2), (3, 1)]) == 0.0


def test_self_time_unions_concurrent_children():
    # a dispatch span with two overlapping worker spans and one child that
    # runs past the parent's end (clipped)
    tree = spans((1, "api.executor", 0.0, 10.0, None),
                 (2, "ipu.engine.kernels", 1.0, 6.0, 1),
                 (3, "ipu.engine.kernels", 2.0, 7.0, 1),
                 (4, "ipu.engine.kernels", 9.0, 12.0, 1))
    self_s, union, summed = self_times(tree)[1]
    assert union == pytest.approx(7.0)    # [1, 7] + [9, 10]
    assert summed == pytest.approx(11.0)  # 5 + 5 + 1
    assert self_s == pytest.approx(3.0)
    totals = layer_totals(tree)
    assert totals["ipu.engine.kernels"]["calls"] == 3
    assert totals["ipu.engine.kernels"]["self_s"] == pytest.approx(13.0)
    assert totals["api.executor"]["self_s"] == pytest.approx(3.0)


def test_nested_same_layer_is_not_double_counted():
    tree = spans((1, "api.design", 0.0, 4.0, None),
                 (2, "api.design", 1.0, 3.0, 1),
                 (3, "tile.simulator", 1.5, 2.5, 2))
    totals = layer_totals(tree)
    assert totals["api.design"]["self_s"] == pytest.approx(3.0)
    assert totals["tile.simulator"]["self_s"] == pytest.approx(1.0)


def test_pool_tasks_are_parented_under_the_submitter():
    tracer = Tracer()
    with PropagatingPool.bound(tracer)(max_workers=2) as pool:
        root = tracer.open("root")
        futures = [pool.submit(tracer.call, "child", lambda: None) for _ in range(4)]
        for f in futures:
            f.result()
        tracer.close(root)
    children = [s for s in tracer.take() if s.name == "child"]
    assert len(children) == 4 and all(s.parent == root.id for s in children)


class _Target:
    def method(self, x):
        return x + 1

    @classmethod
    def build(cls, x):
        return (cls, x)


def test_patches_time_calls_and_restore_originals():
    tracer, patches = Tracer(), Patches()
    original = _Target.__dict__["build"]
    patches.span(tracer, _Target, "method", "layer.a")
    patches.span(tracer, _Target, "build", "layer.b")
    assert _Target().method(1) == 2
    assert _Target.build(3) == (_Target, 3)
    patches.restore()
    assert [s.name for s in tracer.take()] == ["layer.a", "layer.b"]
    assert _Target.__dict__["build"] is original
    assert _Target().method(1) == 2


@pytest.mark.parametrize("n,expected", [
    (0, None), (19, None), (20, 50), (39, 50), (40, 75), (99, 75),
    (100, 90), (199, 90), (200, 95), (5000, 95),
])
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert n - int(np.ceil(n * expected / 100)) >= 10 - 1e-9


def test_percentile_matches_numpy():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0]
    for p in (0, 25, 50, 90, 95, 100):
        assert percentile(values, p) == pytest.approx(np.percentile(values, p))


def test_zipf_requests_deterministic_per_seed_with_fixed_mix():
    a = zipf_requests(7, 48, 18)
    assert a == zipf_requests(7, 48, 18)
    assert a != zipf_requests(8, 48, 18)
    assert zipf_requests([7, 1], 48, 18) != zipf_requests([7, 2], 48, 18)
    counts = np.bincount(a, minlength=18)
    # every seed gets the same Zipf(1.2) frequencies, only the order moves
    assert np.array_equal(counts, np.bincount(zipf_requests(8, 48, 18), minlength=18))
    assert counts.sum() == 48 and list(counts) == sorted(counts, reverse=True)
    weights = np.arange(1, 19) ** -1.2
    assert np.all(np.abs(counts - 48 * weights / weights.sum()) < 1)


def test_golden_check_fails_on_a_corrupted_value():
    from repro.ipu.engine import KernelPoint, fp_ip_points, pack_operands

    from perfbench.workloads import golden_mismatches

    rng = np.random.default_rng(0)
    a = rng.laplace(0, 1, (4, 16)).astype(np.float16).astype(np.float64)
    b = rng.normal(0, 1, (4, 16)).astype(np.float16).astype(np.float64)
    configs = [(12, None, False), (16, 28, True)]
    samples = []
    for w, sw, mc in configs:
        res = fp_ip_points(pack_operands(a), pack_operands(b), [KernelPoint(w, sw, mc)])[0]
        samples += [(a[r], b[r], (w, sw, mc), float(res.values[r])) for r in range(4)]
    assert golden_mismatches(samples) == []
    a_row, b_row, key, value = samples[5]
    samples[5] = (a_row, b_row, key, np.nextafter(value, np.inf))
    assert len(golden_mismatches(samples)) == 1


def test_service_pool_is_seeded():
    from perfbench.workloads import service_pool

    pool = service_pool(3)
    assert pool == service_pool(3) and pool != service_pool(4)
    assert [kind for kind, _ in pool].count("design-sweep") == 6 and len(pool) == 18
