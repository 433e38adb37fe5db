"""Quickstart: emulate a mixed-precision IPU on INT and FP16 inner products.

Runs the bit-accurate golden model on a few inner products, showing
- exact INT4/INT8/INT12 dot products via nibble iterations,
- approximate FP16 inner products at several IPU precisions vs the exact
  (Kulisch) reference,
- the multi-cycle behaviour of a narrow MC-IPU,
- the batch-scale front door: an `repro.api.EmulationSession` running a
  declarative `RunSpec` sweep off one shared operand plan.

Usage: python examples/quickstart.py
"""

import numpy as np

from repro.api import EmulationSession, PrecisionPoint, RunSpec
from repro.fp import FP16, FP32
from repro.ipu import InnerProductUnit, IPUConfig, exact_fp_ip, make_mc_ipu
from repro.utils.table import render_table


def int_mode_demo() -> None:
    print("== INT mode: temporal nibble decomposition is exact ==")
    rng = np.random.default_rng(0)
    ipu = InnerProductUnit(IPUConfig(n_inputs=8, adder_width=28, software_precision=28))
    rows = []
    for a_bits, b_bits in [(4, 4), (8, 4), (8, 8), (8, 12)]:
        a = rng.integers(-(1 << (a_bits - 1)), 1 << (a_bits - 1), 8).tolist()
        b = rng.integers(-(1 << (b_bits - 1)), 1 << (b_bits - 1), 8).tolist()
        result, cycles = ipu.int_dot(a, b, a_bits, b_bits)
        assert result == sum(x * y for x, y in zip(a, b))
        rows.append([f"INT{a_bits} x INT{b_bits}", result, cycles])
    print(render_table(["operation", "dot product", "cycles"], rows))
    print()


def fp_mode_demo() -> None:
    print("== FP16 mode: IPU precision vs error (vs exact reference) ==")
    rng = np.random.default_rng(1)
    vals_a = rng.laplace(0, 1, 8).astype(np.float16)
    vals_b = rng.laplace(0, 1, 8).astype(np.float16)
    a_bits = [int(v) for v in vals_a.view(np.uint16)]
    b_bits = [int(v) for v in vals_b.view(np.uint16)]
    exact = FP32.decode_value(exact_fp_ip(a_bits, b_bits, FP16, FP32))
    rows = []
    for w in (10, 12, 16, 20, 28, 38):
        ipu = InnerProductUnit(IPUConfig(n_inputs=8, adder_width=w, software_precision=w))
        res = ipu.fp_dot(a_bits, b_bits, FP16, FP32)
        rows.append([f"IPU({w})", res.value, abs(res.value - exact), res.cycles])
    rows.append(["exact", exact, 0.0, "-"])
    print(render_table(["unit", "result", "abs error", "cycles"], rows))
    print()


def mc_ipu_demo() -> None:
    print("== MC-IPU: narrow adder, full accuracy, extra cycles ==")
    # operands with a wide exponent spread force multi-cycle alignment
    a = np.array([900.0, 0.004, 3.0, 250.0, 0.02, 1.0, 60.0, 0.25], dtype=np.float16)
    b = np.ones(8, dtype=np.float16)
    a_bits = [int(v) for v in a.view(np.uint16)]
    b_bits = [int(v) for v in b.view(np.uint16)]
    rows = []
    for w in (12, 16, 20, 28):
        ipu = make_mc_ipu(w, FP32, n_inputs=8)
        res = ipu.fp_dot(a_bits, b_bits, FP16, FP32)
        rows.append([f"MC-IPU({w})", res.value, res.alignment_cycles, res.cycles])
    print(render_table(
        ["unit", "result", "cycles / nibble iter", "total cycles (9 iters)"], rows))
    print("(the 38-bit baseline would take 9 cycles; narrower units trade",
          "FP cycles for INT-mode area)")
    print()


def session_demo() -> None:
    print("== EmulationSession: batch emulation through repro.api ==")
    rng = np.random.default_rng(4)
    a = rng.laplace(0, 1, (4096, 16))
    b = rng.laplace(0, 1, (4096, 16))
    with EmulationSession() as session:
        # one shared operand plan serves every precision and accumulator
        points = [PrecisionPoint(12), PrecisionPoint(16), PrecisionPoint(28),
                  PrecisionPoint(16, accumulator="fp16")]
        exact = session.inner_product(a, b, PrecisionPoint(38, accumulator="kulisch"))
        rows = []
        for p, res in zip(points, session.inner_products(a, b, points)):
            # compare the written-back value, so the accumulator's own
            # rounding (fp16 vs fp32) is visible next to the IPU error
            err = np.abs(res.rounded.astype(np.float64) - exact.values)
            rows.append([f"IPU({p.adder_width})", p.accumulator,
                         f"{err.mean():.3e}", f"{err.max():.3e}"])
        print(render_table(
            ["unit", "accumulator", "mean abs err", "max abs err"], rows,
            title="4096 emulated FP16 inner products vs the exact accumulator",
        ))
        print(f"{session.stats.kernel_rows} kernel rows emulated "
              f"(accumulator-only variants share one kernel)")

        # the same sweep as a declarative, JSON-round-trippable spec
        spec = RunSpec.grid(name="quickstart", precisions=(12, 16, 28),
                            accumulators=("fp32",), sources=("laplace",),
                            batch=2000, seed=0)
        assert RunSpec.from_json(spec.to_json()) == spec
        sweep = session.sweep(spec)
        series = dict(sweep.series("laplace", "fp32", "median_contaminated_bits"))
        print("RunSpec JSON round-trip ok; median contaminated bits:",
              {w: round(v, 2) for w, v in series.items()})


if __name__ == "__main__":
    int_mode_demo()
    fp_mode_demo()
    mc_ipu_demo()
    session_demo()
