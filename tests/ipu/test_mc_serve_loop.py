"""The MC serve loop, row by row against the scalar golden model.

Rows are built from alignment shifts, so every serve cycle of every
MC-IPU width is occupied somewhere, at both edges of its shift window
(residual shift 1 and ``sp``). Special rows cover an empty middle cycle,
a row with no product bits at all, and a row whose only live lane is the
max-exponent one.
"""

import numpy as np
import pytest

from repro.fp.formats import FP16, FP32
from repro.ipu.ehu import mc_cycle_counts, serve_cycle
from repro.ipu.engine import KernelPoint, fp_ip_points, pack_operands
from repro.ipu.ipu import InnerProductUnit, IPUConfig

from test_engine import fp32_extreme_operands

SW = 28
N = 16
TOP_EXP = 13  # product exponent of the shift-0 lane


def shift_rows(sp):
    """Per-row alignment shifts; ``None`` marks the all-zero row."""
    last = serve_cycle(SW - 1, sp)
    edges = []
    for c in range(last + 1):
        lo, hi = (0, min(sp, SW - 1)) if c == 0 else (c * sp + 1, min((c + 1) * sp, SW - 1))
        edges += sorted({lo, hi})
    rows = [[0] + edges[k:k + N - 1] for k in range(0, len(edges), N - 1)]
    if 2 * sp + 1 < SW:  # cycles 0 and 2 served, cycle 1 empty
        rows.append([0, sp, 2 * sp + 1, SW, SW + 3] + [0] * (N - 5))
    rows.append([0] + [SW + k % 4 for k in range(N - 1)])  # only the max lane is live
    rows.append(None)
    rng = np.random.default_rng(sp)
    rows += [[0] + list(rng.integers(0, SW + 4, N - 1)) for _ in range(6)]
    return [None if r is None else r + [SW] * (N - len(r)) for r in rows]


def operands(rows, fmt, seed):
    """Operand rows whose product exponents are ``TOP_EXP - shift``."""
    rng = np.random.default_rng(seed)
    a = np.zeros((len(rows), N))
    b = np.zeros((len(rows), N))
    for r, shifts in enumerate(rows):
        if shifts is None:
            continue
        prod_exp = TOP_EXP - np.asarray(shifts)
        eb = rng.integers(-2, 3, N)
        ea = prod_exp - eb
        low = ea < -14  # keep both operands normal in FP16
        ea[low], eb[low] = -14, prod_exp[low] + 14
        frac = fmt.man_bits
        ma = 1 + rng.integers(0, 1 << frac, N) / (1 << frac)
        mb = 1 + rng.integers(0, 1 << frac, N) / (1 << frac)
        ma[r % N] = mb[r % N] = 2 - 2.0**-frac  # one lane with every nibble lit
        a[r] = ma * np.exp2(ea.astype(float)) * rng.choice([-1, 1], N)
        b[r] = mb * np.exp2(eb.astype(float))
    return a, b


def bits(row, fmt):
    dtype, view = (np.float16, np.uint16) if fmt is FP16 else (np.float32, np.uint32)
    return [int(v) for v in np.asarray(row, dtype).view(view)]


@pytest.mark.parametrize("fmt", [FP16, FP32], ids=lambda f: f.name)
@pytest.mark.parametrize("w", [10, 12, 16, 20])
def test_every_serve_cycle_matches_golden_model(w, fmt):
    sp = w - 9
    rows = shift_rows(sp)
    a, b = operands(rows, fmt, seed=w)
    pa, pb = pack_operands(a, fmt), pack_operands(b, fmt)
    got = fp_ip_points(pa, pb, [KernelPoint(w, SW, multi_cycle=True)])[0]

    shifts = got.max_exp[:, None] - (pa.exp.astype(np.int64) + pb.exp)
    live = [r is not None for r in rows]
    assert np.array_equal(shifts[live], [r for r in rows if r is not None])
    masked = shifts >= SW
    assert np.array_equal(got.alignment_cycles,
                          mc_cycle_counts(shifts, masked, sp, w, SW))
    served = {serve_cycle(int(s), sp) for s in shifts[~masked]}
    assert served == set(range(serve_cycle(SW - 1, sp) + 1))

    for r in range(len(rows)):
        unit = InnerProductUnit(IPUConfig(n_inputs=N, adder_width=w, software_precision=SW))
        res = unit.fp_dot(bits(a[r], fmt), bits(b[r], fmt), fmt, FP32)
        sig, scale = unit.accumulator.exact()
        assert float(sig) * 2.0**scale == got.values[r], (w, fmt.name, r, rows[r])
        assert res.alignment_cycles == got.alignment_cycles[r], (w, fmt.name, r)
        assert res.max_exp == got.max_exp[r]


@pytest.mark.parametrize("w, sw", [(12, 64), (40, 64), (20, 100)])
def test_fp32_lanes_past_the_fp16_shift_range(w, sw):
    """Above sw = 59, live fp32 lanes have shifts past the 58-bit FP16
    range; each is still served in its own cycle at its own residual."""
    rng = np.random.default_rng(43)
    a, b = fp32_extreme_operands(rng, (48, N)), fp32_extreme_operands(rng, (48, N))
    with np.errstate(over="ignore"):  # products near 2**254 round to inf
        got = fp_ip_points(pack_operands(a, FP32), pack_operands(b, FP32),
                           [KernelPoint(w, sw, multi_cycle=True)])[0]
    for r in range(len(a)):
        unit = InnerProductUnit(IPUConfig(n_inputs=N, adder_width=w, software_precision=sw))
        with np.errstate(over="ignore"):
            res = unit.fp_dot(bits(a[r], FP32), bits(b[r], FP32), FP32, FP32)
        sig, scale = unit.accumulator.exact()
        assert float(sig) * 2.0**scale == got.values[r], (w, sw, r)
        assert res.alignment_cycles == got.alignment_cycles[r], (w, sw, r)
