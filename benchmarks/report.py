"""Perf-tracking benchmark report: engine vs frozen seed implementation.

Times the hot emulation paths twice — once through the frozen seed kernels
(:mod:`repro.ipu.seedref`) and once through the prepacked engine — at
identical sample counts, cross-checks that both produce identical results,
and writes the numbers to ``BENCH_*.json`` so the perf trajectory is
tracked across PRs. Run from the repo root::

    PYTHONPATH=src python benchmarks/report.py [--out-dir .] [--repeats 3]

Outputs:

- ``BENCH_kernels.json``  — kernel microbenchmarks (single + MC), the
  forced-int64 engine-mode row, the
  session-vs-direct-engine overhead row, serial-vs-thread-vs-process
  backend scaling rows for emulation *and* design sweeps (with session
  stats proving the pools engaged; ``cpus`` recorded honestly per row
  from the scheduler affinity mask, and sub-1x pool rows flagged — not
  failed — on hosts without enough cores to win), the
  chunk-size scan behind ``DEFAULT_CHUNK_ELEMENTS``, the cold-vs-warm
  ``DesignSession.sweep`` design-space row (Table-1 grid), the
  ``store_cold``/``store_warm`` persistent-store rows (store engagement
  asserted via its hit/miss stats), the HTTP service round-trip row
  (cold submit vs store-served resubmit through ``repro.service``), and
  the ``chaos_overhead`` row (hook sites disarmed vs armed with an
  empty plan — ~zero when disarmed, bit-identical either way)
- ``BENCH_fig3.json``     — the quick Figure-3 sweep (same config as
  ``benchmarks/test_bench_fig3.py``)
- ``BENCH_accuracy.json`` — the quick §3.1 accuracy run (same config as
  ``benchmarks/test_bench_accuracy.py``)
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.analysis.accuracy import accuracy_vs_precision, emulated_conv2d
from repro.analysis.error import error_stats
from repro.analysis.sweeps import _operands_for
from repro.api import DesignSession, DesignSweepSpec, EmulationSession, PrecisionPoint, RunSpec
from repro.fp.formats import FP16, FP32, np_float_dtype
from repro.hw.designs import DESIGNS
from repro.ipu.engine import KernelPoint, fp_ip_points, pack_operands
from repro.ipu.reference import cpu_fp32_dot_batch
from repro.ipu.seedref import fp_ip_batch_seed
from repro.nn.functional import im2col

FIG3_CONFIG = dict(
    batch=4000, chunks=2,
    precisions=(8, 12, 16, 20, 24, 26, 28, 38),
    sources=("laplace", "normal", "uniform"),
)
ACCURACY_CONFIG = dict(precisions=(8, 12), n_eval=32, style="plain", batch_size=32)
KERNEL_BATCH = 20000


def _cpus() -> int:
    """CPUs this process may actually use (affinity mask, not machine size)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _best_of(fn, repeats):
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _seed_fig3_sweep(batch, chunks, precisions, sources, rng):
    """The seed Figure-3 sweep loop: one decode per (acc_fmt, precision)."""
    from repro.utils.rng import as_generator

    rng = as_generator(rng)
    points = []
    for source in sources:
        a, b = _operands_for(source, batch * chunks, 16, rng)
        a16 = np.asarray(a, np.float16).astype(np.float64)
        b16 = np.asarray(b, np.float16).astype(np.float64)
        ref = cpu_fp32_dot_batch(a16, b16).astype(np.float64)
        if chunks > 1:
            ref = ref.reshape(batch, chunks).sum(axis=1)
        for acc_fmt in (FP16, FP32):
            for w in precisions:
                res = fp_ip_batch_seed(a16, b16, adder_width=w, acc_fmt=acc_fmt)
                approx = res.values
                if chunks > 1:
                    approx = approx.reshape(batch, chunks).sum(axis=1)
                approx = approx.astype(np_float_dtype(acc_fmt)).astype(np.float64)
                ref_cast = (ref.astype(np.float16).astype(np.float64)
                            if acc_fmt.name == "fp16" else ref)
                points.append((source, acc_fmt.name, w, error_stats(approx, ref_cast, acc_fmt)))
    return points


def _emulated_conv2d_seed(x, weight, bias, stride, padding, adder_width, acc_fmt=FP32):
    """The seed emulated_conv2d: K-fold operand broadcast, one kernel call."""
    n_ipu = 16
    k = weight.shape[0]
    kh, kw = weight.shape[2], weight.shape[3]
    nimg = x.shape[0]
    cols = im2col(x, kh, kw, stride, padding)
    d, p = cols.shape[1], cols.shape[2]
    chunks = -(-d // n_ipu)
    pad = chunks * n_ipu - d
    if pad:
        cols = np.pad(cols, ((0, 0), (0, pad), (0, 0)))
    wmat = weight.reshape(k, d)
    if pad:
        wmat = np.pad(wmat, ((0, 0), (0, pad)))
    acts = np.moveaxis(cols, 1, 2).reshape(nimg * p, chunks, n_ipu)
    wchunks = wmat.reshape(k, chunks, n_ipu)
    a_flat = np.broadcast_to(acts[None], (k, nimg * p, chunks, n_ipu)).reshape(-1, n_ipu)
    b_flat = np.broadcast_to(wchunks[:, None], (k, nimg * p, chunks, n_ipu)).reshape(-1, n_ipu)
    res = fp_ip_batch_seed(a_flat, b_flat, adder_width=adder_width, acc_fmt=acc_fmt)
    out = res.values.reshape(k, nimg * p, chunks).sum(axis=2)
    out_t = out.T.reshape(nimg, p, k).transpose(0, 2, 1)
    if acc_fmt.name == "fp32":
        out_t = out_t.astype(np.float32)
    else:
        out_t = out_t.astype(np.float16).astype(np.float32)
    ho = (x.shape[2] + 2 * padding - kh) // stride + 1
    wo = (x.shape[3] + 2 * padding - kw) // stride + 1
    result = out_t.reshape(nimg, k, ho, wo)
    if bias is not None:
        result = result + bias[None, :, None, None]
    return result


def _engine_once(a, b, adder_width, software_precision=None, multi_cycle=False):
    """The direct engine path: pack both operands, run one kernel point."""
    point = KernelPoint(adder_width, software_precision, multi_cycle)
    return fp_ip_points(pack_operands(a, FP16), pack_operands(b, FP16), [point])[0]


def _session_once(a, b, adder_width, software_precision=None, multi_cycle=False):
    """The session path, cold: fingerprint + pack + run (no cache reuse)."""
    with EmulationSession() as session:
        return session.inner_product(
            a, b, PrecisionPoint(adder_width, software_precision, multi_cycle))


def bench_kernels(repeats):
    rng = np.random.default_rng(0)
    a = rng.laplace(0, 1, (KERNEL_BATCH, 16))
    b = rng.laplace(0, 1, (KERNEL_BATCH, 16))
    cases = {
        "single_cycle_w16": dict(adder_width=16),
        "single_cycle_w28": dict(adder_width=28),
        "multi_cycle_w12_sw28": dict(adder_width=12, software_precision=28, multi_cycle=True),
    }
    out = {}
    for name, kw in cases.items():
        seed_s, seed_res = _best_of(lambda: fp_ip_batch_seed(a, b, **kw), repeats)
        eng_s, eng_res = _best_of(lambda: _engine_once(a, b, **kw), repeats)
        identical = bool(
            np.array_equal(seed_res.values, eng_res.values)
            and np.array_equal(seed_res.total_cycles, eng_res.total_cycles)
        )
        out[name] = {
            "batch": KERNEL_BATCH, "n": 16, "cpus": _cpus(), **kw,
            "seed_seconds": round(seed_s, 4),
            "engine_seconds": round(eng_s, 4),
            "speedup": round(seed_s / eng_s, 2),
            "identical": identical,
        }
    return out


def bench_session(repeats):
    """Session-vs-direct-engine: cold overhead and execution-backend scaling.

    The overhead row compares one cold single-threaded session call against
    the direct engine path on the standard microbenchmark batch (the session
    adds a content fingerprint + registry resolution). The backend rows run
    a large multi-point sweep through every execution backend at the same
    worker count; all paths must be bit-identical, and the process row's
    session stats must show the pool actually engaged (tasks dispatched,
    shared-memory bytes shipped).
    """
    rng = np.random.default_rng(1)
    a = rng.laplace(0, 1, (KERNEL_BATCH, 16))
    b = rng.laplace(0, 1, (KERNEL_BATCH, 16))
    eng_s, eng_res = _best_of(lambda: _engine_once(a, b, 16), repeats)
    ses_s, ses_res = _best_of(lambda: _session_once(a, b, 16), repeats)
    out = {
        "single_thread_overhead": {
            "batch": KERNEL_BATCH, "n": 16, "adder_width": 16, "cpus": _cpus(),
            "engine_seconds": round(eng_s, 4),
            "session_seconds": round(ses_s, 4),
            "overhead_pct": round(100 * (ses_s / eng_s - 1), 2),
            "identical": bool(np.array_equal(eng_res.values, ses_res.values)),
        }
    }

    big_a = rng.laplace(0, 1, (120000, 16))
    big_b = rng.laplace(0, 1, (120000, 16))
    points = [PrecisionPoint(w) for w in (12, 16, 28)]

    def run_with(backend, workers):
        with EmulationSession(workers=workers, backend=backend) as session:
            results = session.inner_products(big_a, big_b, points)
            return results, session.stats.as_dict()

    serial_s, (serial_res, _) = _best_of(lambda: run_with("serial", 1), repeats)
    cpus = _cpus()
    workers = max(2, min(4, cpus))  # exercise the pools even on 1-core hosts
    for backend, row in (("thread", "worker_pool_sweep"),
                         ("process", "process_pool_sweep")):
        par_s, (par_res, stats) = _best_of(lambda: run_with(backend, workers), repeats)
        identical = all(
            np.array_equal(s.values, p.values) and np.array_equal(s.rounded, p.rounded)
            for s, p in zip(serial_res, par_res)
        )
        engaged = stats["tasks_dispatched"] > 0 and (
            backend != "process" or stats["shm_bytes"] > 0)
        speedup = round(serial_s / par_s, 2)
        out[row] = {
            "batch": 120000, "n": 16, "points": [p.adder_width for p in points],
            "backend": backend, "workers": workers, "cpus": cpus,
            "serial_seconds": round(serial_s, 4),
            "parallel_seconds": round(par_s, 4),
            "speedup": speedup,
            # sub-1x with more workers than cores is pool overhead, not a
            # regression: flagged for the reader, never failed
            "subscale": bool(speedup < 1.0),
            "tasks_dispatched": stats["tasks_dispatched"],
            "shm_bytes": stats["shm_bytes"],
            "pool_engaged": bool(engaged),
            "identical": bool(identical),
        }
        assert engaged, f"{backend} pool did not engage"
    return out


def bench_engine_modes(repeats):
    """Engine-mode row: ``int64_vs_int32`` pins the cost of forcing the wide
    work dtype on a point the engine would otherwise run in int32 (why
    auto-selection matters). Both timings must be bit-identical.
    """
    rng = np.random.default_rng(3)
    pa = pack_operands(rng.laplace(0, 1, (KERNEL_BATCH, 16)), FP16)
    pb = pack_operands(rng.laplace(0, 1, (KERNEL_BATCH, 16)), FP16)
    w16 = [KernelPoint(16)]
    i32_s, i32 = _best_of(lambda: fp_ip_points(pa, pb, w16), repeats)
    i64_s, i64 = _best_of(
        lambda: fp_ip_points(pa, pb, w16, work_dtype=np.int64), repeats)
    identical = bool(all(
        np.array_equal(x.values, y.values)
        and np.array_equal(x.rounded, y.rounded)
        and np.array_equal(x.total_cycles, y.total_cycles)
        for x, y in zip(i32, i64)
    ))
    return {"int64_vs_int32": {
        "batch": KERNEL_BATCH, "n": 16, "adder_width": 16, "cpus": _cpus(),
        "int32_seconds": round(i32_s, 4),
        "int64_seconds": round(i64_s, 4),
        "int64_cost": round(i64_s / i32_s, 2),
        "identical": identical,
    }}


def bench_chunk_block(repeats):
    """Microbenchmark of the shared chunk-sizing knob (DEFAULT_CHUNK_ELEMENTS).

    Times the standard single-point kernel at several chunk sizes so the
    committed default is a measured choice rather than folklore; the session
    exposes the same knob as ``chunk_rows``.
    """
    from repro.ipu.engine import DEFAULT_CHUNK_ELEMENTS

    rng = np.random.default_rng(7)
    pa = pack_operands(rng.laplace(0, 1, (120000, 16)), FP16)
    pb = pack_operands(rng.laplace(0, 1, (120000, 16)), FP16)
    point = KernelPoint(16)
    rows = {}
    for elements in (1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20):
        chunk_rows = max(1, elements // 16)
        secs, _ = _best_of(
            lambda: fp_ip_points(pa, pb, [point], chunk_rows=chunk_rows), repeats)
        rows[f"elements_{elements}"] = {
            "chunk_rows": chunk_rows,
            "seconds": round(secs, 4),
            "default": elements == DEFAULT_CHUNK_ELEMENTS,
        }
    return {"chunk_block": {
        "batch": 120000, "n": 16, "adder_width": 16,
        "default_elements": DEFAULT_CHUNK_ELEMENTS, "sizes": rows,
    }}


def bench_design_space(repeats):
    """Cold vs warm DesignSession.sweep over the Table-1 design grid.

    Cold builds a fresh session per run (every alignment simulation, tile
    costing, and numerics sweep computed); warm re-sweeps the same session
    (everything served from the value-keyed caches). Reports must compare
    equal — the caches return exactly what a re-computation would. The
    backend rows repeat the cold sweep through the thread and process
    backends (cold is where fan-out matters: a warm sweep is all cache
    hits).
    """
    spec = DesignSweepSpec.grid(name="table1-grid", designs=tuple(DESIGNS),
                                tiles=("small",), samples=96, rng=41)

    def cold(backend="serial", workers=None):
        with DesignSession(workers=workers, backend=backend) as session:
            return session.sweep(spec), session.stats.as_dict()

    cold_s, (cold_reports, _) = _best_of(cold, repeats)
    with DesignSession() as session:
        session.sweep(spec)  # populate every cache
        warm_s, warm_reports = _best_of(lambda: session.sweep(spec), repeats)
        hits, misses = dict(session.stats.hits), dict(session.stats.misses)
    out = {
        "design_space_sweep": {
            "designs": len(spec.designs), "points": len(spec.points()),
            "samples": spec.samples, "cpus": _cpus(),
            "cold_seconds": round(cold_s, 4),
            "warm_seconds": round(warm_s, 4),
            "speedup": round(cold_s / warm_s, 2),
            "cache_hits": hits, "cache_misses": misses,
            "identical": bool(cold_reports == warm_reports),
        }
    }
    cpus = _cpus()
    workers = max(2, min(4, cpus))
    for backend in ("thread", "process"):
        par_s, (par_reports, stats) = _best_of(
            lambda: cold(backend, workers), repeats)
        speedup = round(cold_s / par_s, 2)
        out[f"design_sweep_{backend}"] = {
            "points": len(spec.points()), "samples": spec.samples,
            "backend": backend, "workers": workers, "cpus": cpus,
            "serial_seconds": round(cold_s, 4),
            "parallel_seconds": round(par_s, 4),
            "speedup": speedup,
            "subscale": bool(speedup < 1.0),
            "tasks_dispatched": stats["tasks_dispatched"],
            "shm_bytes": stats["shm_bytes"],
            "pool_engaged": stats["tasks_dispatched"] > 0,
            "identical": bool(par_reports == cold_reports),
        }
    return out


def bench_store(repeats):
    """Cold vs warm sweeps through the persistent on-disk result store.

    ``store_cold`` runs the quick Figure-3 grid against an empty store
    (full compute + payload writes); ``store_warm`` re-runs it in a *fresh
    session on a fresh store handle* over the same directory — the
    cross-process replay path, where every source is served from disk.
    Engagement is asserted via the store's own hit/miss stats, and all
    paths must be bit-identical to a store-less sweep.
    """
    from repro.store import ResultStore

    spec = RunSpec.grid(
        precisions=FIG3_CONFIG["precisions"], accumulators=("fp16", "fp32"),
        sources=FIG3_CONFIG["sources"], batch=FIG3_CONFIG["batch"],
        chunks=FIG3_CONFIG["chunks"], seed=0,
    )

    def run(store=None):
        with EmulationSession(store=store) as session:
            return session.sweep(spec), (None if store is None
                                         else session.store.stats.as_dict())

    base_s, (base, _) = _best_of(lambda: run(None), repeats)
    root = Path(tempfile.mkdtemp(prefix="bench-store-"))
    try:
        def cold():
            return run(tempfile.mkdtemp(dir=root))  # empty store every repeat

        cold_s, (cold_res, cold_stats) = _best_of(cold, repeats)
        warm_dir = root / "warm"
        run(str(warm_dir))  # populate once
        warm_s, (warm_res, warm_stats) = _best_of(lambda: run(str(warm_dir)),
                                                  repeats)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    engaged = (warm_stats["hits"] >= len(spec.sources)
               and cold_stats["puts"] > 0)
    assert engaged, f"store did not engage: cold {cold_stats}, warm {warm_stats}"
    identical = bool(base.points == cold_res.points == warm_res.points)
    return {
        "store_cold": {
            "points": len(spec.points), "sources": len(spec.sources),
            "batch": spec.batch * spec.chunks, "cpus": _cpus(),
            "no_store_seconds": round(base_s, 4),
            "seconds": round(cold_s, 4),
            "write_overhead_pct": round(100 * (cold_s / base_s - 1), 2),
            "puts": cold_stats["puts"], "bytes": cold_stats["bytes"],
            "identical": identical,
        },
        "store_warm": {
            "points": len(spec.points), "sources": len(spec.sources),
            "batch": spec.batch * spec.chunks, "cpus": _cpus(),
            "cold_seconds": round(cold_s, 4),
            "seconds": round(warm_s, 4),
            "speedup": round(cold_s / warm_s, 2),
            "hits": warm_stats["hits"], "store_engaged": bool(engaged),
            "identical": identical,
        },
    }


def bench_service(repeats):
    """HTTP round trips through the sweep service (repro.service).

    ``first_seconds`` is one cold submit+wait (compute included);
    ``seconds`` is the best warm resubmission — the request rides the
    service's persistent store, so the row measures the full network round
    trip of a served-from-disk result. Store engagement is asserted via
    ``GET /v1/stats``, and the warm payload must equal the cold one.
    """
    from repro.service import ServiceClient, ServiceServer

    store_dir = tempfile.mkdtemp(prefix="bench-service-")
    try:
        with ServiceServer(port=0, store=store_dir) as server:
            client = ServiceClient(server.url)
            spec = RunSpec.grid(
                precisions=FIG3_CONFIG["precisions"],
                accumulators=("fp16", "fp32"), sources=FIG3_CONFIG["sources"],
                batch=FIG3_CONFIG["batch"], chunks=FIG3_CONFIG["chunks"], seed=0,
            )
            t0 = time.perf_counter()
            first = client.run(spec)
            first_s = time.perf_counter() - t0
            warm_s, warm = _best_of(lambda: client.run(spec), repeats)
            stats = client.stats()
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    engaged = stats["store"]["hits"] >= len(spec.sources)
    assert engaged, f"service store did not engage: {stats['store']}"
    return {
        "service_round_trip": {
            "points": len(spec.points), "sources": len(spec.sources),
            "batch": spec.batch * spec.chunks, "cpus": _cpus(),
            "first_seconds": round(first_s, 4),
            "seconds": round(warm_s, 4),
            "speedup": round(first_s / warm_s, 2),
            "jobs": stats["jobs"]["total"], "coalesced": stats["coalesced"],
            "store_hits": stats["store"]["hits"],
            "store_engaged": bool(engaged),
            "identical": bool(warm == first),
        },
    }


def bench_fleet(repeats):
    """One design sweep sharded across two in-process services
    (repro.fleet) vs the same sweep on a single service.

    Shards go through real ``ServiceServer`` HTTP endpoints, so the row
    carries coordination + transport overhead honestly. On a 1-core host
    (``subscale``) the two services time-slice one CPU and the fleet can
    only lose; the row exists to track that overhead and to assert the
    merged payload stays byte-identical to the single-service result.
    """
    from repro.fleet import FleetCoordinator
    from repro.service import ServiceServer, SweepService

    spec = DesignSweepSpec.grid(name="bench-fleet", designs=tuple(DESIGNS),
                                tiles=("small",), samples=96, rng=41)

    def direct():  # a cold service per run: same footing as the fleet leg
        single = SweepService()
        try:
            job, _ = single.submit("design-sweep", spec.to_dict())
            assert job.done.wait(600) and job.status == "done", job.error
            return json.loads(json.dumps(job.result))
        finally:
            single.close()

    direct_s, direct_payload = _best_of(direct, repeats)

    def fleet():
        with ServiceServer(port=0, queue_workers=2) as a, \
             ServiceServer(port=0, queue_workers=2) as b:
            coordinator = FleetCoordinator([a.url, b.url])
            return coordinator.run(spec), coordinator.stats()

    fleet_s, (merged, stats) = _best_of(fleet, repeats)
    speedup = direct_s / fleet_s
    return {
        "fleet_sweep": {
            "designs": len(spec.designs), "samples": spec.samples,
            "endpoints": 2, "shards": stats["shards_completed"],
            "cpus": _cpus(),
            "single_seconds": round(direct_s, 4),
            "fleet_seconds": round(fleet_s, 4),
            "seconds": round(fleet_s, 4),
            "speedup": round(speedup, 2),
            "subscale": bool(speedup < 1.0),
            "redispatches": stats["redispatches"],
            "identical": bool(
                json.dumps(merged, sort_keys=True)
                == json.dumps(direct_payload, sort_keys=True)),
        },
    }


def bench_search_halving(repeats):
    """Successive-halving search vs exhaustive top-fidelity evaluation on
    the Table-1-and-widths grid (24 candidates, cold sessions both legs).

    Halving screens everything at a cheap rung and promotes only the
    error-Pareto survivors, so its top rung touches <= 1/3 of the grid;
    ``identical`` asserts it still recovers the exhaustive frontier.
    """
    from repro.api.design import pareto_frontier
    from repro.search import RungSpec, SearchSession, SearchSpace, SearchSpec

    spec = SearchSpec(
        name="bench-search",
        space=SearchSpace(mult_a=(4, 8), mult_b=(4, 8),
                          adder_width=(16, 20, 23, 28),
                          designs=tuple(DESIGNS)),
        objective="pareto:tops_per_mm2@4x4,-median_contaminated_bits",
        rungs=(RungSpec(samples=24, batch=500),
               RungSpec(samples=384, batch=8000)),
        op_precisions=((4, 4), (8, 8), (16, 16)))
    candidates = spec.candidates()
    top = spec.rungs[-1]

    def exhaustive():
        with DesignSession() as session:
            points = [c.point(spec.op_precisions, top.samples, spec.rng)
                      for c in candidates]
            return session.sweep(points, accuracy=top.accuracy_spec())

    exhaustive_s, reports = _best_of(exhaustive, repeats)
    front = pareto_frontier(
        list(enumerate(reports)),
        x=lambda ir: ir[1].metric("tops_per_mm2@4x4"),
        y=lambda ir: ir[1].metric("-median_contaminated_bits"))
    exhaustive_frontier = sorted(candidates[i].design for i, _ in front)

    def halving():
        with SearchSession() as session:
            return session.run(spec), session.stats.to_dict()

    halving_s, (result, stats) = _best_of(halving, repeats)
    winners = sorted(c.design for c in result.winners())
    top_rung = len(result.rungs[-1].candidates)
    recovered = winners == exhaustive_frontier
    return {
        "search_halving": {
            "candidates": len(candidates),
            "rungs": [{"samples": r.samples, "batch": r.batch}
                      for r in spec.rungs],
            "objective": spec.objective, "cpus": _cpus(),
            "exhaustive_seconds": round(exhaustive_s, 4),
            "halving_seconds": round(halving_s, 4),
            "seconds": round(halving_s, 4),
            "speedup": round(exhaustive_s / halving_s, 2),
            "top_rung_candidates": top_rung,
            "top_rung_fraction": round(top_rung / len(candidates), 4),
            "evaluations": stats["evaluated"],
            "frontier": winners,
            "frontier_recovered": recovered,
            "identical": recovered,
        },
    }


def bench_chaos(repeats):
    """Chaos-hook cost: disarmed (the production default) vs armed.

    Disarmed, every hook site is one module-global load plus a ``None``
    check — this row keeps that ~zero. The armed leg installs an *empty*
    ``FaultPlan`` so each hook pays full engine dispatch with nothing to
    inject; both legs must stay bit-identical to each other.
    """
    from repro.chaos import FaultPlan, install

    spec = RunSpec.grid(name="bench-chaos", precisions=(8, 12, 16, 20),
                        accumulators=("fp32",), sources=("laplace", "normal"),
                        batch=4000, chunks=2, seed=0)
    disarmed_s, base = _best_of(lambda: EmulationSession().sweep(spec),
                                repeats)

    def armed():
        with install(FaultPlan.of(seed=0)):
            return EmulationSession().sweep(spec)

    armed_s, chaotic = _best_of(armed, repeats)
    return {
        "chaos_overhead": {
            "hooks_disarmed_seconds": round(disarmed_s, 4),
            "hooks_armed_seconds": round(armed_s, 4),
            "seconds": round(armed_s, 4),
            "chaos_overhead_pct": round(100 * (armed_s / disarmed_s - 1), 2),
            "identical": chaotic.points == base.points,
        },
    }


def bench_obs(repeats):
    """Trace-hook cost: disarmed (the production default) vs armed.

    Mirrors ``bench_chaos``: disarmed, every ``trace_span`` site is one
    module-global load plus a ``None`` check. The armed leg installs a
    live tracer so every span is actually recorded; both legs must stay
    bit-identical to each other.
    """
    from repro.obs.trace import install

    spec = RunSpec.grid(name="bench-obs", precisions=(8, 12, 16, 20),
                        accumulators=("fp32",), sources=("laplace", "normal"),
                        batch=4000, chunks=2, seed=0)
    EmulationSession().sweep(spec)  # warm-up: neither leg pays first-run costs
    spans_recorded = 0

    def disarmed():
        return EmulationSession().sweep(spec)

    def armed():
        nonlocal spans_recorded
        with install() as tracer:
            sweep = EmulationSession().sweep(spec)
            spans_recorded = len(tracer.export())
            return sweep

    # the true per-span cost is microseconds, far below this container's
    # run-to-run noise — interleave the legs so drift hits both equally,
    # and take the min over enough rounds to converge
    disarmed_s = armed_s = float("inf")
    base = traced = None
    for _ in range(max(repeats, 7)):
        d, base = _best_of(disarmed, 1)
        a, traced = _best_of(armed, 1)
        disarmed_s, armed_s = min(disarmed_s, d), min(armed_s, a)
    return {
        "obs_overhead": {
            "hooks_disarmed_seconds": round(disarmed_s, 4),
            "hooks_armed_seconds": round(armed_s, 4),
            "seconds": round(armed_s, 4),
            "obs_overhead_pct": round(100 * (armed_s / disarmed_s - 1), 2),
            "spans_recorded": spans_recorded,
            "identical": traced.points == base.points,
        },
    }


def bench_kernels_and_session(repeats):
    return {**bench_kernels(repeats), **bench_engine_modes(repeats),
            **bench_session(repeats), **bench_chunk_block(repeats),
            **bench_design_space(repeats), **bench_search_halving(repeats),
            **bench_store(repeats),
            **bench_service(repeats), **bench_fleet(repeats),
            **bench_chaos(repeats), **bench_obs(repeats)}


def bench_fig3(repeats):
    spec = RunSpec.grid(
        precisions=FIG3_CONFIG["precisions"], accumulators=("fp16", "fp32"),
        sources=FIG3_CONFIG["sources"], batch=FIG3_CONFIG["batch"],
        chunks=FIG3_CONFIG["chunks"], seed=0,
    )
    seed_s, seed_points = _best_of(lambda: _seed_fig3_sweep(rng=0, **FIG3_CONFIG), repeats)
    eng_s, sweep = _best_of(lambda: EmulationSession().sweep(spec), repeats)
    got = {(p.source, p.acc_fmt, p.precision): p.stats for p in sweep.points}
    identical = len(got) == len(seed_points) and all(
        got[(src, acc, w)] == stats for src, acc, w, stats in seed_points
    )
    return {
        "config": {k: list(v) if isinstance(v, tuple) else v for k, v in FIG3_CONFIG.items()},
        "points": len(seed_points),
        "seed_seconds": round(seed_s, 3),
        "engine_seconds": round(eng_s, 3),
        "speedup": round(seed_s / eng_s, 2),
        "identical": identical,
    }


def bench_accuracy(repeats):
    from repro.analysis._model_cache import trained_model

    cfg = ACCURACY_CONFIG
    model, dataset = trained_model(cfg["style"])  # cached: training excluded
    images = dataset.images[-cfg["n_eval"]:]
    labels = dataset.labels[-cfg["n_eval"]:]
    run = lambda conv_fn, session=None: accuracy_vs_precision(
        model, images, labels, cfg["precisions"], batch_size=cfg["batch_size"],
        conv_fn=conv_fn, session=session,
    )
    seed_s, seed_points = _best_of(lambda: run(_emulated_conv2d_seed), repeats)
    eng_s, eng_points = _best_of(lambda: run(None, EmulationSession()), repeats)
    identical = seed_points == eng_points
    return {
        "config": {k: list(v) if isinstance(v, tuple) else v for k, v in cfg.items()},
        "seed_seconds": round(seed_s, 3),
        "engine_seconds": round(eng_s, 3),
        "speedup": round(seed_s / eng_s, 2),
        "identical": identical,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default=".", help="where to write BENCH_*.json")
    parser.add_argument("--repeats", type=int, default=3, help="take the best of N runs")
    args = parser.parse_args(argv)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    env = {"python": platform.python_version(), "numpy": np.__version__}
    reports = {
        "BENCH_kernels.json": ("kernel + session microbenchmarks", bench_kernels_and_session),
        "BENCH_fig3.json": ("quick Figure-3 sweep", bench_fig3),
        "BENCH_accuracy.json": ("quick §3.1 accuracy run", bench_accuracy),
    }
    failed = False
    for filename, (title, fn) in reports.items():
        print(f"[{filename}] {title} ...", flush=True)
        payload = {"benchmark": title, "env": env, "results": fn(args.repeats)}
        results = payload["results"]
        flat = results.values() if "seed_seconds" not in results else [results]
        for r in flat:
            if "sizes" in r:  # informational microbenchmark, nothing to verify
                default = next(v for v in r["sizes"].values() if v["default"])
                print(f"  chunk-size scan: default {r['default_elements']} "
                      f"elements -> {default['seconds']}s")
                continue
            mark = "ok" if r.get("identical") else "MISMATCH"
            if "seed_seconds" in r:
                print(f"  seed {r['seed_seconds']}s -> engine {r['engine_seconds']}s "
                      f"({r['speedup']}x, results {mark})")
            elif "int32_seconds" in r:
                print(f"  int32 {r['int32_seconds']}s -> forced int64 "
                      f"{r['int64_seconds']}s ({r['int64_cost']}x cost, "
                      f"results {mark})")
            elif "obs_overhead_pct" in r:
                print(f"  trace hooks: disarmed {r['hooks_disarmed_seconds']}s "
                      f"-> armed {r['hooks_armed_seconds']}s "
                      f"({r['obs_overhead_pct']:+.2f}% overhead, "
                      f"{r['spans_recorded']} spans, results {mark})")
            elif "chaos_overhead_pct" in r:
                print(f"  chaos hooks: disarmed {r['hooks_disarmed_seconds']}s "
                      f"-> armed (empty plan) {r['hooks_armed_seconds']}s "
                      f"({r['chaos_overhead_pct']:+.2f}% overhead, "
                      f"results {mark})")
            elif "overhead_pct" in r:
                print(f"  engine {r['engine_seconds']}s -> session {r['session_seconds']}s "
                      f"({r['overhead_pct']:+.2f}% overhead, results {mark})")
            elif "write_overhead_pct" in r:
                print(f"  store cold: no-store {r['no_store_seconds']}s -> "
                      f"cold-store {r['seconds']}s "
                      f"({r['write_overhead_pct']:+.2f}% write overhead, results {mark})")
            elif "store_hits" in r:
                print(f"  service round trip: first {r['first_seconds']}s -> "
                      f"warm {r['seconds']}s ({r['speedup']}x, "
                      f"{r['store_hits']} store hits, results {mark})")
            elif "fleet_seconds" in r:
                flag = (f" [flagged: sub-1x with {r['endpoints']} endpoints "
                        f"on a {r['cpus']}-cpu host]" if r.get("subscale")
                        else "")
                print(f"  single service {r['single_seconds']}s -> "
                      f"{r['endpoints']}-endpoint fleet / {r['shards']} "
                      f"shards {r['fleet_seconds']}s ({r['speedup']}x, "
                      f"results {mark}){flag}")
            elif "halving_seconds" in r:
                mark = "ok" if r.get("frontier_recovered") else "MISMATCH"
                print(f"  exhaustive {r['exhaustive_seconds']}s over "
                      f"{r['candidates']} candidates -> halving "
                      f"{r['halving_seconds']}s ({r['speedup']}x, top rung "
                      f"{r['top_rung_candidates']}/{r['candidates']}, "
                      f"frontier {mark})")
            elif "hits" in r and "seconds" in r:
                print(f"  store warm: cold {r['cold_seconds']}s -> "
                      f"warm {r['seconds']}s ({r['speedup']}x, "
                      f"{r['hits']} store hits, results {mark})")
            elif "cold_seconds" in r:
                print(f"  cold sweep {r['cold_seconds']}s -> warm {r['warm_seconds']}s "
                      f"({r['speedup']}x, {r['points']} design points, results {mark})")
            else:
                flag = (f" [flagged: sub-1x with {r['workers']} workers on a "
                        f"{r['cpus']}-cpu host]" if r.get("subscale") else "")
                print(f"  serial {r['serial_seconds']}s -> {r['workers']} "
                      f"{r.get('backend', 'thread')} workers "
                      f"{r['parallel_seconds']}s ({r['speedup']}x, "
                      f"results {mark}){flag}")
            failed |= not r.get("identical")
        path = out_dir / filename
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"  wrote {path}")
    if failed:
        print("ERROR: engine results diverged from the seed implementation")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
