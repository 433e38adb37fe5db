"""Microbenchmarks of the emulation kernels themselves (throughput)."""

import numpy as np

from repro.ipu.engine import KernelPoint, fp_ip_points, pack_operands
from repro.tile.simulator import step_cycle_samples

SWEEP_PRECISIONS = (8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30, 34, 38)


def pack_and_run(a, b, point):
    """The one-shot path: decode both operands, then run one kernel point."""
    return fp_ip_points(pack_operands(a), pack_operands(b), [point])


def test_bench_fp_ip_batch_single_cycle(benchmark):
    rng = np.random.default_rng(0)
    a = rng.laplace(0, 1, (20000, 16))
    b = rng.laplace(0, 1, (20000, 16))
    benchmark(pack_and_run, a, b, KernelPoint(16))


def test_bench_fp_ip_batch_multi_cycle(benchmark):
    rng = np.random.default_rng(1)
    a = rng.laplace(0, 1, (20000, 16))
    b = rng.laplace(0, 1, (20000, 16))
    benchmark(pack_and_run, a, b, KernelPoint(12, 28, multi_cycle=True))


def test_bench_pack_operands(benchmark):
    """Cost of the decode + nibble split the plans amortize away."""
    rng = np.random.default_rng(3)
    a = rng.laplace(0, 1, (20000, 16))
    benchmark(pack_operands, a)


def test_bench_engine_precision_sweep(benchmark):
    """One packed pair evaluated at all 14 Figure-3 precisions."""
    rng = np.random.default_rng(4)
    pa = pack_operands(rng.laplace(0, 1, (20000, 16)))
    pb = pack_operands(rng.laplace(0, 1, (20000, 16)))
    points = [KernelPoint(w) for w in SWEEP_PRECISIONS]
    benchmark(fp_ip_points, pa, pb, points)


def test_bench_streaming_iter(benchmark):
    """The bounded-memory streaming path vs one in-memory fp_ip_points call.

    Chunked iteration must not cost materially more than the monolithic
    run — it executes the same cache-sized chunks, just yielding between
    them instead of holding every output row.
    """
    from repro.api import EmulationSession

    rng = np.random.default_rng(5)
    a = rng.laplace(0, 1, (20000, 16))
    b = rng.laplace(0, 1, (20000, 16))
    with EmulationSession() as s:
        pa, pb = s.pack(a), s.pack(b)

        def consume():
            total = 0.0
            for _, _, chunk in s.fp_ip_points_iter(pa, pb, [16]):
                total += float(chunk[0].values[-1])
            return total

        benchmark(consume)


def test_bench_step_cycles(benchmark):
    rng = np.random.default_rng(2)
    exps = rng.integers(-28, 31, size=(4096, 8, 16))
    benchmark(step_cycle_samples, exps, 16, 28)
