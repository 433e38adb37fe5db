"""Trace context across executor boundaries.

The two invariants under test: (1) every pool-thread span is parented into
the submitting trace, and (2) arming the tracer never changes a result byte.
"""

import dataclasses
import os
import subprocess
import sys

import pytest

from repro.api import EmulationSession, RunSpec
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
