"""Trace context across executor boundaries.

The two invariants under test: (1) every pool-thread span is parented into
the submitting trace, and (2) arming the tracer never changes a result byte.
"""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.api import EmulationSession, RunSpec
from repro.api import session as session_mod
from repro.ipu.ehu import mc_cycle_counts
from repro.ipu.engine import KernelPoint, pack_operands
from repro.obs.trace import install

# Big enough to engage the parallel executors (rows >= MIN_PARALLEL_ROWS).
SPEC = RunSpec.grid(name="obs-propagation", precisions=(8, 16),
                    accumulators=("fp32",), sources=("laplace", "normal"),
                    batch=8192, n=16, seed=3)


@pytest.fixture(scope="module")
def reference_points():
    with EmulationSession() as session:
        return session.sweep(SPEC).points


def _stats_dicts(points):
    return [dataclasses.asdict(p.stats) for p in points]


def _sweep_traced(backend, workers=2):
    with install() as tracer:
        with EmulationSession(backend=backend, workers=workers) as session:
            sweep = session.sweep(SPEC)
            stats = dataclasses.asdict(session.stats)  # live while the session is open
        return sweep.points, tracer.export(), stats


def _assert_chunks_parented(spans, backend):
    kernels = {s["span_id"]: s for s in spans if s["name"] == "engine.kernels"}
    chunks = [s for s in spans if s["name"] == "executor.chunk"]
    assert chunks, f"no executor.chunk spans for backend {backend}"
    for c in chunks:
        assert c["attrs"]["backend"] == backend
        assert c["parent_id"] in kernels, c
    assert len({s["trace_id"] for s in spans}) == 1
    return chunks


class TestThreadBackend:
    def test_chunk_spans_parented_and_results_identical(self, reference_points):
        points, spans, stats = _sweep_traced("thread")
        assert _stats_dicts(points) == _stats_dicts(reference_points)
        chunks = _assert_chunks_parented(spans, "thread")
        assert all(c["pid"] == os.getpid() for c in chunks)
        # one span per dispatched chunk: every pool task's span arrives
        assert stats["tasks_dispatched"] > 0
        assert len(chunks) == stats["tasks_dispatched"]


class TestByteIdentity:
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_armed_vs_disarmed_identical(self, backend, reference_points):
        points, spans, _ = _sweep_traced(backend)
        assert spans  # armed actually recorded something
        assert _stats_dicts(points) == _stats_dicts(reference_points)


class TestKernelPathAttributes:
    """Armed, every ``engine.kernels`` span says which fast path its points
    took; disarmed, none of that is computed."""

    POINTS = [KernelPoint(12, 28, multi_cycle=True), KernelPoint(16),
              KernelPoint(20, 28, multi_cycle=True), KernelPoint(38)]

    @staticmethod
    def _plans(rows):
        rng = np.random.default_rng(11)
        a = rng.laplace(0, 1, (rows, 16)) * np.exp2(rng.integers(-8, 9, (rows, 16)))
        return pack_operands(a), pack_operands(rng.normal(0, 1, (rows, 16)))

    @pytest.mark.parametrize("backend, rows", [("serial", 300), ("thread", 8192)])
    def test_traced_mc_call_records_dtypes_and_serve_cycles(self, backend, rows):
        pa, pb = self._plans(rows)
        with install() as tracer:
            with EmulationSession(backend=backend, workers=2) as session:
                results = session.run_kernels(pa, pb, self.POINTS)
        kernels = [s for s in tracer.export() if s["name"] == "engine.kernels"]
        assert len(kernels) == 1
        attrs = kernels[0]["attrs"]
        assert attrs["parallel"] is (backend == "thread")
        assert attrs["work_dtypes"] == ["int32", "int32", "int32", "int64"]
        exps = pa.exp.astype(np.int64) + pb.exp
        shifts = exps.max(axis=1, keepdims=True) - exps
        want = [int(mc_cycle_counts(shifts, shifts >= 28, p.adder_width - 9,
                                    p.adder_width, 28).max())
                if p.multi_cycle else None for p in self.POINTS]
        assert attrs["max_serve_cycles"] == want
        assert want[0] > want[2] > 1
        assert want[0] == int(results[0].alignment_cycles.max())

    def test_disarmed_call_computes_no_path_attributes(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("path attributes computed while disarmed")

        monkeypatch.setattr(session_mod, "_kernel_paths", refuse)
        pa, pb = self._plans(64)
        with EmulationSession() as session:
            session.run_kernels(pa, pb, self.POINTS)


_HASHSEED_SCRIPT = """\
import json
from repro.api import EmulationSession, RunSpec
from repro.obs.trace import install

spec = RunSpec.grid(name="obs-hashseed", precisions=(8, 16),
                    accumulators=("fp32",), sources=("laplace", "normal"),
                    batch=8192, n=16, seed=3)
with install() as tracer:
    with EmulationSession(backend="thread", workers=2) as session:
        sweep = session.sweep(spec)
spans = tracer.export()
names = {}
by_id = {s["span_id"]: s for s in spans}
for s in spans:
    parent = by_id.get(s["parent_id"])
    edge = (parent["name"] if parent else None, s["name"])
    names[str(edge)] = names.get(str(edge), 0) + 1
out = {
    "points": [[p.source, p.acc_fmt, p.precision,
                p.stats.mean_abs_error] for p in sweep.points],
    "edges": names,
    "traces": len({s["trace_id"] for s in spans}),
}
print(json.dumps(out, sort_keys=True))
"""


def test_propagation_is_hash_seed_independent():
    """The span topology (and the results) are identical under different
    PYTHONHASHSEEDs — nothing in the trace plumbing leans on dict/set
    iteration order."""
    outputs = []
    for hashseed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        env.setdefault("PYTHONPATH", "src")
        proc = subprocess.run([sys.executable, "-c", _HASHSEED_SCRIPT],
                              capture_output=True, text=True, env=env,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
