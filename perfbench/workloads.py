"""The four benchmark workloads: inputs from a seed, one pass, its checks.

Every pass starts cold the way a CLI call does: a fresh session and no
store (``service-mix`` restarts its services with empty stores each round).
The program only ever sees the generated inputs; the seed never reaches it
except through them.

Each workload exposes the same small surface to :mod:`perfbench.worker`:

- ``inputs()``: the chosen inputs as JSON (recorded next to the digests);
- ``setup()``: set-up work that is not timed per pass, returning its
  timings (model training, service start-up);
- ``run_pass(tracer)``: one cold pass, returning ``(output, counters)``,
  with layer spans opened at the benchmark's own call sites when
  ``tracer`` is set (the program's inner boundaries are wrapped by
  :func:`install_layer_spans`);
- ``close()``.

``service-mix`` is a closed loop of clients rather than a pass loop, so it
drives its own rounds (:meth:`ServiceMix.run_round`).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

import repro.analysis.accuracy as accuracy_mod
import repro.analysis.sweeps as sweeps_mod
import repro.api.design as design_mod
import repro.api.executor as executor_mod
import repro.api.session as session_mod
import repro.fleet.coordinator as coordinator_mod
import repro.nn.layers as layers_mod
from repro.analysis._model_cache import trained_model
from repro.api import (
    DesignSession,
    DesignSweepSpec,
    EmulationSession,
    PrecisionPoint,
    RunSpec,
    render_design_reports,
    render_sweep,
)
from repro.api.session import sweep_points_to_dicts
from repro.fleet import FleetCoordinator
from repro.fp.formats import FP16, FP32
from repro.ipu.engine import PackedOperands, plan_values
from repro.ipu.ipu import InnerProductUnit, IPUConfig
from repro.search import SearchSession, SearchSpec, render_search
from repro.search.halving import RungSpec
from repro.search.space import SearchSpace
from repro.service import ServiceClient

from perfbench.spans import Patches, PropagatingPool, Tracer
from perfbench.stats import zipf_requests

__all__ = ["WORKLOADS", "make_workload", "digest", "install_layer_spans",
           "golden_mismatches", "service_pool"]

# The paper's eight Table-1 designs, as registry strings.
PAPER_DESIGNS = ("mc-ser", "mc-ipu4", "mc-ipu84", "mc-ipu8", "nvdla", "fp16",
                 "int8", "int4")
FIG3_WIDTHS = (8, 12, 16, 20, 24, 26, 28, 38)
MC_WIDTHS = (12, 16, 20)
SOURCES = ("laplace", "normal", "uniform")
# Job workers per service: a store read need not queue behind a compute.
SERVICE_WORKERS = 2


def digest(obj) -> str:
    """Canonical content hash (``NaN`` and key order compare stably)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def call(tracer: Tracer | None, layer: str, fn, *args, **kwargs):
    """``fn(*args)``, as a ``layer`` span when a tracer is armed."""
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.call(layer, fn, *args, **kwargs)


def install_layer_spans(tracer: Tracer, patches: Patches) -> None:
    """Wrap every inner layer boundary the workloads cross.

    Each wrapper sits on the name the *calling* module binds, so only calls
    across that boundary are timed. Unused wrappers cost nothing.
    """
    wrap = lambda owner, name, layer: patches.span(tracer, owner, name, layer)
    # emulation: api.session -> nn.sampling / ipu.* / analysis.error
    for name in ("sweep", "pack", "run_kernels"):
        wrap(session_mod.EmulationSession, name, "api.session")
    wrap(sweeps_mod, "sample_operand_batch", "nn.sampling")
    wrap(session_mod, "cpu_fp32_dot_batch", "ipu.reference")
    wrap(session_mod, "pack_operands", "ipu.engine.pack")
    wrap(session_mod, "fp_ip_points", "ipu.engine.kernels")
    wrap(session_mod, "error_stats", "analysis.error")
    wrap(executor_mod.ThreadExecutor, "run_points", "api.executor")
    wrap(executor_mod, "fp_ip_points", "ipu.engine.kernels")
    patches.set(executor_mod, "ThreadPoolExecutor", PropagatingPool.bound(tracer))
    # accuracy: analysis.accuracy -> conv / nn.functional / nn.layers / pack
    wrap(accuracy_mod, "emulated_forward", "analysis.accuracy")
    wrap(accuracy_mod, "emulated_conv2d", "analysis.accuracy.conv")
    wrap(accuracy_mod, "im2col", "nn.functional")
    wrap(accuracy_mod, "pack_operands", "ipu.engine.pack")
    wrap(layers_mod.Layer, "__call__", "nn.layers")
    # design search: search -> api.design -> tile.simulator / hw.cost
    wrap(design_mod.DesignSession, "sweep", "api.design")
    wrap(design_mod.DesignSession, "evaluate", "api.design")
    wrap(design_mod, "simulate_network", "tile.simulator")
    for name in ("component_areas_ge", "design_efficiency", "design_area_mm2",
                 "design_power_w", "tile_cost"):
        wrap(design_mod, name, "hw.cost")
    # fleet clients: fleet -> plan / merge / service.client
    wrap(coordinator_mod.ShardPlan, "build", "fleet.plan")
    wrap(coordinator_mod.ShardPlan, "merge_payloads", "fleet.merge")
    patches.set(coordinator_mod, "ThreadPoolExecutor", PropagatingPool.bound(tracer))


# -- golden-model spot check -------------------------------------------------


def _fp16_bits(row) -> list[int]:
    return [int(v) for v in np.asarray(row, np.float16).view(np.uint16)]


def golden_mismatches(samples) -> list[str]:
    """Rows whose engine value differs from the scalar golden model.

    ``samples`` holds ``(a_row, b_row, (adder_width, software_precision,
    multi_cycle), value)`` with float rows exactly representable in FP16
    and ``value`` the engine's exact register value for that row.
    """
    bad = []
    for a_row, b_row, (w, sw, mc), value in samples:
        unit = InnerProductUnit(IPUConfig(n_inputs=len(a_row), adder_width=w,
                                          software_precision=w if sw is None else sw))
        unit.fp_dot(_fp16_bits(a_row), _fp16_bits(b_row), FP16, FP32)
        sig, scale = unit.accumulator.exact()
        golden = float(sig) * 2.0 ** scale
        if golden != value:
            bad.append(f"IPU({w}, sw={sw}, mc={mc}): golden {golden!r} != "
                       f"engine {value!r}")
    return bad


# -- fig3-sweep -----------------------------------------------------------------


class Fig3Sweep:
    """One Figure-3 ``EmulationSession.sweep`` per pass (thread backend)."""

    name = "fig3-sweep"
    golden_rows_per_call = 2

    def __init__(self, seed: int):
        self.seed = seed
        points = [PrecisionPoint(w, accumulator=acc)
                  for w in FIG3_WIDTHS for acc in ("fp16", "fp32")]
        points += [PrecisionPoint(w, 28, True, "fp32") for w in MC_WIDTHS]
        self.spec = RunSpec(name=self.name, sources=SOURCES, points=tuple(points),
                            batch=40000, n=16, chunks=2, seed=seed)

    def inputs(self) -> dict:
        return {"spec": self.spec.to_dict(), "backend": "thread", "workers": 2,
                "store": None}

    def setup(self) -> dict:
        return {}

    def run_pass(self, tracer: Tracer | None = None):
        session = call(tracer, "api.session", EmulationSession,
                       workers=2, backend="thread")
        try:
            sweep = call(tracer, "api.session", session.sweep, self.spec)
            rendered = call(tracer, "api.report", render_sweep, sweep,
                            title=self.spec.name)
        finally:
            call(tracer, "api.session", session.close)
        stats = session.stats
        output = {"rendered": rendered, "points": sweep_points_to_dicts(sweep.points)}
        return output, _session_counters(stats)

    def golden_pass(self):
        """One pass whose kernel results are sampled for the golden check:
        returns ``(output, counters, mismatches, rows_checked)``."""
        rng = np.random.default_rng([self.seed, 3])
        samples = []
        original = EmulationSession._run_points

        def sampled(session, pa, pb, points, engine=None):
            results = original(session, pa, pb, points, engine)
            rows = rng.choice(len(results[0].values), size=self.golden_rows_per_call,
                              replace=False)
            a = plan_values(_rows(pa, rows))
            b = plan_values(_rows(pb, rows))
            for point, res in zip(points, results):
                key = (point.adder_width, point.software_precision, point.multi_cycle)
                samples.extend((a[i], b[i], key, float(res.values[r]))
                               for i, r in enumerate(rows))
            return results

        patches = Patches()
        patches.set(EmulationSession, "_run_points", sampled)
        try:
            output, counters = self.run_pass()
        finally:
            patches.restore()
        return output, counters, golden_mismatches(samples), len(samples)

    def close(self) -> None:
        pass


def _rows(plan: PackedOperands, rows) -> PackedOperands:
    return PackedOperands(plan.fmt, plan.sign[rows], plan.exp[rows],
                          plan.nibbles[rows])


def _session_counters(stats) -> dict:
    lookups = stats.plan_hits + stats.plan_misses
    return {"ipu.engine.rows": stats.kernel_rows,
            "api.executor.tasks": stats.tasks_dispatched,
            "api.session.plan_hit_ratio": stats.plan_hits / lookups if lookups else 0.0}


# -- accuracy-conv ------------------------------------------------------------


class AccuracyConv:
    """One §3.1 ``accuracy_vs_precision`` per pass on the trained convnet."""

    name = "accuracy-conv"
    precisions = (8, 12)
    n_images = 16

    def __init__(self, seed: int):
        self.seed = seed
        self.model = self.images = self.labels = None

    def _window(self, total: int) -> tuple[int, int]:
        # seed 0 takes the last images; other seeds step back one window at a time
        stop = total - self.n_images * (self.seed % 8)
        return stop - self.n_images, stop

    def inputs(self) -> dict:
        return {"model": "plain", "precisions": [None, *self.precisions],
                "images": self.n_images, "batch_size": self.n_images,
                "image_window": "the last 16 for seed 0, one window earlier per "
                                "seed step (mod 8)",
                "session": "serial", "store": None}

    def setup(self) -> dict:
        t0 = time.perf_counter()
        self.model, dataset = trained_model("plain")
        train_s = time.perf_counter() - t0
        lo, hi = self._window(len(dataset.labels))
        self.images, self.labels = dataset.images[lo:hi], dataset.labels[lo:hi]
        return {"train_s": train_s}

    def run_pass(self, tracer: Tracer | None = None):
        session = call(tracer, "api.session", EmulationSession)
        try:
            points = call(tracer, "analysis.accuracy",
                          accuracy_mod.accuracy_vs_precision, self.model,
                          self.images, self.labels, self.precisions,
                          batch_size=self.n_images, session=session)
        finally:
            call(tracer, "api.session", session.close)
        return {"points": [asdict(p) for p in points]}, _session_counters(session.stats)

    def close(self) -> None:
        pass


# -- design-search -------------------------------------------------------------


class DesignSearch:
    """One cold serial ``SearchSession.run`` per pass, no store."""

    name = "design-search"

    def __init__(self, seed: int):
        self.seed = seed
        space = SearchSpace(kinds=("mc-ipu",), mult_a=(4, 8), mult_b=(4, 8),
                            adder_width=(16, 20, 23, 28), designs=PAPER_DESIGNS)
        rungs = (RungSpec(samples=24, batch=500, seed=seed),
                 RungSpec(samples=384, batch=8000, seed=seed))
        self.spec = SearchSpec(
            name=self.name, space=space, seed=seed, rungs=rungs, rng=41 + seed,
            objective="pareto:tops_per_mm2@4x4,-median_contaminated_bits",
            op_precisions=((4, 4), (8, 8), (16, 16)))

    def inputs(self) -> dict:
        return {"spec": self.spec.to_dict(), "candidates": len(self.spec.candidates()),
                "session": "serial", "store": None}

    def setup(self) -> dict:
        return {}

    def run_pass(self, tracer: Tracer | None = None):
        session = call(tracer, "search", SearchSession)
        try:
            result = call(tracer, "search", session.run, self.spec)
            rendered = call(tracer, "search", render_search, result)
            rows = session.design.emulation.stats.kernel_rows
            design_stats = session.design.stats
        finally:
            call(tracer, "search", session.close)
        hits = sum(design_stats.hits.values())
        lookups = hits + sum(design_stats.misses.values())
        evaluated = session.stats.evaluated
        counters = {
            "ipu.engine.rows": rows,
            "search.evaluated": evaluated,
            "search.top_rung_frac": (len(result.rungs[-1].candidates) / evaluated
                                     if evaluated else 0.0),
            "api.design.cache_hit_ratio": hits / lookups if lookups else 0.0,
        }
        return {"rendered": rendered, "result": result.to_dict()}, counters

    def close(self) -> None:
        pass


# -- service-mix ---------------------------------------------------------------


def service_pool(seed: int) -> list[tuple[str, dict]]:
    """The 18 request specs in Zipf rank order: ``(kind, spec dict)``.

    Twelve Figure-3 subsets (three ladder widths x both accumulators over
    two sources, batch 4000 x 2 chunks) and six Table-1 design grids
    (96 alignment samples), each with its own seed. Kinds follow a fixed
    rank pattern (two sweeps, then a design grid) so every seed puts the
    same mix of work at each popularity rank; the seed picks the contents.
    """
    rng = np.random.default_rng([seed, 18])
    seeds = rng.choice(1 << 20, size=18, replace=False)
    sweeps, designs = [], []
    for i in range(12):
        widths = sorted(int(w) for w in rng.choice(FIG3_WIDTHS, size=3, replace=False))
        sources = [SOURCES[j] for j in sorted(rng.choice(3, size=2, replace=False))]
        spec = RunSpec.grid(precisions=tuple(widths), accumulators=("fp16", "fp32"),
                            name=f"mix-sweep-{i}", sources=tuple(sources),
                            batch=4000, chunks=2, seed=int(seeds[i]))
        sweeps.append(("sweep", spec.to_dict()))
    for i in range(6):
        spec = DesignSweepSpec.grid(PAPER_DESIGNS, name=f"mix-design-{i}",
                                    samples=96, rng=int(seeds[12 + i]))
        designs.append(("design-sweep", spec.to_dict()))
    pool = []
    for rank in range(18):
        pool.append(designs.pop(0) if rank % 3 == 2 else sweeps.pop(0))
    return pool


def direct_result(kind: str, spec_dict: dict, emulation, design) -> dict:
    """The in-process (unsharded, service-free) payload fields for a spec."""
    if kind == "sweep":
        spec = RunSpec.from_dict(spec_dict)
        sweep = emulation.sweep(spec)
        return {"points": sweep_points_to_dicts(sweep.points),
                "rendered": render_sweep(sweep, title=spec.name)}
    spec = DesignSweepSpec.from_dict(spec_dict)
    reports = design.sweep(spec)
    return {"reports": [r.to_dict() for r in reports],
            "rendered": render_design_reports(reports, title=spec.name)}


def response_digest(kind: str, payload: dict) -> str:
    field = "points" if kind == "sweep" else "reports"
    return digest({field: payload.get(field), "rendered": payload.get("rendered")})


class _Service:
    """One ``runner --serve`` process with its own empty store directory."""

    def __init__(self, root: Path, store: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src"), env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments.runner", "--serve",
             "--port", "0", "--store", str(store),
             "--service-workers", str(SERVICE_WORKERS)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            cwd=str(root), env=env)
        line = self.proc.stdout.readline()
        if not line.startswith("serving on "):
            self.stop()
            raise RuntimeError(f"service failed to start: {line!r}")
        self.url = line.split()[2]
        self.client = ServiceClient(self.url)
        deadline = time.monotonic() + 60
        while True:
            try:
                self.client.health()
                break
            except Exception:
                if time.monotonic() > deadline or self.proc.poll() is not None:
                    self.stop()
                    raise RuntimeError(f"service at {self.url} never became healthy")
                time.sleep(0.01)
        self.start_s = time.perf_counter() - t0

    def stats(self) -> dict:
        return self.client.stats()

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.client.shutdown()
            except Exception:
                self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc.stdout.close()


class ServiceMix:
    """A closed loop of 2 fleet clients over 2 services, in rounds.

    Each round starts both services with empty stores and plays one seeded
    Zipf sequence of ``round_requests`` requests: first requests for a spec
    compute and write the store, repeats read it, and concurrent twins
    coalesce. Restarting per round keeps the cold share of every round the
    same, so the median tracks store reads and the tail tracks computes no
    matter how long the run is.
    """

    name = "service-mix"
    clients = 2
    services = 2
    shards = 2
    round_requests = 48

    def __init__(self, seed: int, root: Path, workdir: Path, part: int = 0):
        self.seed = seed
        self.part = part
        self.root = root
        self.workdir = workdir
        self.pool = service_pool(seed)
        self.refs: list[str] = []
        self.live: list[_Service] = []
        self.serve_start_s: list[float] = []
        self.rounds = 0

    def inputs(self) -> dict:
        return {"pool": [{"kind": k, "spec": s} for k, s in self.pool],
                "zipf_exponent": 1.2, "round_requests": self.round_requests,
                "clients": self.clients, "services": self.services,
                "shards": self.shards, "loop": "closed",
                "draws": "zipf_requests([seed, worker part, round], round_requests, 18)"}

    def _start_services(self) -> None:
        base = self.workdir / f"round-{self.rounds}"
        self.rounds += 1
        starters = [threading.Thread(target=self._start_one, args=(base / f"svc-{i}",))
                    for i in range(self.services)]
        for t in starters:
            t.start()
        for t in starters:
            t.join()
        if len(self.live) != self.services:
            raise RuntimeError("a service failed to start")

    def _start_one(self, store: Path) -> None:
        try:
            service = _Service(self.root, store)
        except RuntimeError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return
        self.live.append(service)
        self.serve_start_s.append(service.start_s)

    def _stop_services(self) -> None:
        services, self.live = self.live, []
        for service in services:
            service.stop()

    def setup(self) -> dict:
        self._start_services()
        return {"serve_start_s": max(self.serve_start_s)}

    def load_or_compute_refs(self, path: Path) -> str:
        """Direct in-process results for every pool spec, computed once per
        run outside timing (later workers of the run read ``path``);
        returns the digest of the whole reference set."""
        if path.is_file():
            self.refs = json.loads(path.read_text())
        else:
            with EmulationSession() as emulation, \
                    DesignSession(emulation=emulation) as design:
                self.refs = [response_digest(kind, direct_result(kind, spec,
                                                                 emulation, design))
                             for kind, spec in self.pool]
            path.write_text(json.dumps(self.refs))
        return digest(self.refs)

    def run_round(self, tracer: Tracer | None = None) -> dict:
        """Play one round; services from :meth:`setup` serve the first."""
        if not self.live:
            self._start_services()
        patches = Patches()
        jobs: list[dict] = []
        if tracer is not None:
            install_layer_spans(tracer, patches)
            _install_client_spans(tracer, patches, jobs)
        draws = zipf_requests([self.seed, self.part, self.rounds], self.round_requests,
                           len(self.pool))
        coordinators = [FleetCoordinator([s.url for s in self.live], shards=self.shards)
                        for _ in range(self.clients)]
        lock = threading.Lock()
        cursor = iter(range(len(draws)))
        records: list[tuple] = []

        def client(coordinator):
            while True:
                with lock:
                    i = next(cursor, None)
                if i is None:
                    return
                kind, spec = self.pool[draws[i]]
                root = tracer.open("bench.pass") if tracer is not None else None
                t0 = time.perf_counter()
                try:
                    payload = call(tracer, "fleet", coordinator.run, spec, kind=kind)
                    error = None
                except Exception as exc:  # a failed request is counted, not fatal
                    payload, error = None, f"{type(exc).__name__}: {exc}"
                latency = time.perf_counter() - t0
                if root is not None:
                    tracer.close(root)
                with lock:
                    records.append((draws[i], kind, latency, payload, error))

        threads = [threading.Thread(target=client, args=(c,)) for c in coordinators]
        t0 = time.perf_counter()
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            wall = time.perf_counter() - t0
        finally:
            patches.restore()
        service_stats = [s.stats() for s in self.live]
        fleet_stats = [c.stats() for c in coordinators]
        for c in coordinators:
            c.close()
        self._stop_services()
        errors = []
        for index, kind, latency, payload, error in records:
            if error is None and response_digest(kind, payload) != self.refs[index]:
                error = f"response for pool spec {index} differs from the direct result"
            if error is not None:
                errors.append(error)
        return {"wall_s": wall, "latencies": [r[2] for r in records],
                "errors": errors, "service_stats": service_stats,
                "counts": _round_counts(service_stats, fleet_stats),
                "jobs": jobs, "spans": tracer.take() if tracer is not None else []}

    def close(self) -> None:
        self._stop_services()
        shutil.rmtree(self.workdir, ignore_errors=True)


def _round_counts(service_stats: list[dict], fleet_stats: list[dict]) -> dict:
    """One round's store, service and fleet counters, summed over processes."""
    counts: dict[str, int] = {}

    def add(key, value):
        counts[key] = counts.get(key, 0) + value

    for s in service_stats:
        store = s["store"]
        for key in ("hits", "misses", "puts", "quarantined"):
            add(f"store.{key}", store[key])
        add("store.bytes_written", store["bytes"])  # stores start empty
        add("service.coalesced", s["coalesced"])
        add("service.rejected_busy", s["queue"]["rejected_busy"])
    for f in fleet_stats:
        add("fleet.shards", f["shards_completed"])
        add("fleet.retries", f["retries"])
        add("fleet.redispatches", f["redispatches"])
    return counts


def _install_client_spans(tracer: Tracer, patches: Patches, jobs: list) -> None:
    """``service.client`` spans on submit/result, plus each shard job's
    server-side timestamps next to its client round trip (wall clock)."""
    local = threading.local()
    submit, result, job = ServiceClient.submit, ServiceClient.result, ServiceClient.job

    def traced_submit(self, *args, **kwargs):
        local.sent = time.time()
        return tracer.call("service.client", submit, self, *args, **kwargs)

    def traced_job(self, *args, **kwargs):
        local.job = job(self, *args, **kwargs)
        return local.job

    def traced_result(self, *args, **kwargs):
        payload = tracer.call("service.client", result, self, *args, **kwargs)
        done, info = time.time(), local.job
        server = info["finished"] - max(info["created"], local.sent)
        jobs.append({"http_s": done - local.sent - server,
                     "queue_wait_s": info["started"] - info["created"],
                     "job_s": info["finished"] - info["started"]})
        return payload

    patches.set(ServiceClient, "submit", traced_submit)
    patches.set(ServiceClient, "job", traced_job)
    patches.set(ServiceClient, "result", traced_result)


WORKLOADS = {cls.name: cls for cls in (Fig3Sweep, AccuracyConv, DesignSearch, ServiceMix)}


def make_workload(name: str, seed: int, root: Path, workdir: Path, part: int = 0):
    cls = WORKLOADS[name]
    if cls is ServiceMix:
        return cls(seed, root, workdir, part)
    return cls(seed)
