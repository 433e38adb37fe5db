"""Design-space sessions: joint accuracy x efficiency evaluation.

A :class:`DesignSession` is the hardware-side twin of
:class:`repro.api.session.EmulationSession`: one object owns every expensive
artifact the per-figure scripts used to recompute —

- **component areas** per design geometry (the Table-1/Figure-7 cost model),
- **tile costs** per (tile, fp_mode, activity mode),
- **network performance simulations** keyed by
  ``(workload, tile, software precision, direction, samples, rng)`` — the
  alignment-cycle statistics behind Table 1, Figure 8 and Figure 10 —
  costed off **worst-shift samples** keyed by the tile's ``c_unroll`` and
  cluster size instead of the whole tile, so every adder width shares one
  draw,
- **alignment factors** derived from those simulations, and
- **numerics error sweeps** per :class:`PrecisionPoint` (run through an
  embedded :class:`EmulationSession`, so operand plans are shared too).

All caches are keyed by value (frozen dataclasses), concurrency-safe, and
deduplicate in-flight computations, so a worker-pool :meth:`sweep` over a
:class:`DesignSweepSpec` computes each simulation exactly once no matter how
many design points share it. :meth:`evaluate` returns a
:class:`DesignReport` carrying both halves of the paper's trade-off —
error metrics next to TOPS/mm² and TOPS/W — for any registry design string.
"""

from __future__ import annotations

import copy
import math
import re
import threading
from concurrent.futures import Future
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from repro.analysis.sweeps import SweepPoint
from repro.hw.components import component_areas_ge
from repro.hw.designs import Design
from repro.hw.efficiency import (
    EfficiencyPoint,
    design_area_mm2,
    design_efficiency,
    design_power_w,
)
from repro.hw.registry import parse_design, parse_tile
from repro.hw.tile_cost import TileCost, tile_cost
from repro.nn.zoo import WORKLOADS
from repro.obs.metrics import REGISTRY, counter
from repro.obs.trace import trace_span
from repro.store import ResultStore
from repro.store.fingerprint import fingerprint as _result_key
from repro.tile.config import SMALL_TILE, TileConfig
from repro.tile.simulator import (
    FP16_ITERATIONS,
    NetworkPerf,
    simulate_network,
    worst_shift_samples,
)

from repro.api.executor import ExecutorStats, make_executor
from repro.api.session import (
    EmulationSession,
    sweep_points_from_dicts,
    sweep_points_to_dicts,
)
from repro.api.spec import DesignPoint, DesignSweepSpec, PrecisionPoint, RunSpec

__all__ = ["DesignSession", "DesignSessionStats", "DesignReport",
           "pareto_frontier", "use_session"]

# §3.1: FP32 accumulation needs 28 bits of software precision.
FP32_SOFTWARE_PRECISION = 28

# Table 1's alignment-factor benchmark mix: ResNet-18 forward + backward.
TABLE1_WORKLOADS = (("resnet18", "forward"), ("resnet18", "backward"))

# Default numerics protocol for DesignReport accuracy metrics: a Figure-3
# style error sweep, sized to stay interactive per design point.
DEFAULT_ACCURACY_SPEC = RunSpec(name="design-accuracy",
                                sources=("laplace", "normal"), batch=4000)


@dataclass
class DesignSessionStats(ExecutorStats):
    """Per-cache hit/miss counters plus the executor's (which it writes
    here directly)."""

    hits: dict = counter(label="key")
    misses: dict = counter(label="key")

    def note(self, kind: str, hit: bool) -> None:
        bucket = self.hits if hit else self.misses
        bucket[kind] = bucket.get(kind, 0) + 1


@dataclass(frozen=True)
class DesignReport:
    """Joint accuracy x efficiency verdict for one :class:`DesignPoint`.

    ``efficiency`` parallels ``point.op_precisions`` (``None`` where the
    design lacks the op, e.g. FP16 on INT-only designs); ``accuracy`` holds
    the numerics error sweep points of the resolved precision (empty for
    INT-only designs). ``area_mm2``/``power_*_w`` cost one IPU instance.
    """

    point: DesignPoint
    design: str
    area_mm2: float
    power_int_w: float
    power_fp_w: float | None
    alignment_factor: float
    efficiency: tuple[EfficiencyPoint | None, ...]
    accuracy: tuple[SweepPoint, ...]

    def efficiency_for(self, a_prec: int, w_prec: int) -> EfficiencyPoint | None:
        for (a, w), point in zip(self.point.op_precisions, self.efficiency):
            if (a, w) == (a_prec, w_prec):
                return point
        raise KeyError(f"report has no ({a_prec}, {w_prec}) efficiency row")

    def accuracy_metric(self, name: str) -> float:
        """Mean of an :class:`ErrorStats` field over the sweep's sources
        (NaN when the design has no FP numerics)."""
        if not self.accuracy:
            return math.nan
        return float(np.mean([getattr(p.stats, name) for p in self.accuracy]))

    def metric(self, name: str) -> float:
        """Resolve a metric string for sorting/Pareto work.

        ``"tops_per_mm2@4x4"`` / ``"tops_per_w@fp16"`` read an efficiency
        row (NaN when the design lacks it); bare :class:`ErrorStats` field
        names (``"median_contaminated_bits"``) read the accuracy half,
        averaged over sources; anything else is a report attribute
        (``"area_mm2"``). A leading ``"-"`` negates, so error-style
        metrics can feed maximizing consumers like :func:`pareto_frontier`.
        """
        if name.startswith("-"):
            return -self.metric(name[1:])
        if "@" in name:
            attr, row = name.split("@", 1)
            row = row.lower()
            a, w = (16, 16) if row in ("fp16", "fp16xfp16") else map(int, row.split("x"))
            try:
                point = self.efficiency_for(a, w)
            except KeyError:
                return math.nan  # this report never costed that op precision
            return math.nan if point is None else float(getattr(point, attr))
        if name.startswith(("median_", "mean_")):
            # NaN only for designs with no numerics; a typo'd stats field
            # raises AttributeError inside accuracy_metric instead of
            # silently emptying a Pareto frontier
            return math.nan if not self.accuracy else self.accuracy_metric(name)
        value = getattr(self, name)
        return math.nan if value is None else float(value)

    def to_dict(self) -> dict:
        return {
            "point": self.point.to_dict(),
            "design": self.design,
            "area_mm2": self.area_mm2,
            "power_int_w": self.power_int_w,
            "power_fp_w": self.power_fp_w,
            "alignment_factor": self.alignment_factor,
            # scalar fields: a shallow copy encodes like asdict, without
            # its deep copy
            "efficiency": [None if e is None else dict(vars(e))
                           for e in self.efficiency],
            "accuracy": sweep_points_to_dicts(self.accuracy),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DesignReport":
        """Inverse of :meth:`to_dict` — reconstructed reports compare equal
        to the originals (JSON floats round-trip exactly), which is what
        lets :class:`repro.store.ResultStore` serve them across processes."""
        return cls(
            point=DesignPoint.from_dict(d["point"]),
            design=d["design"],
            area_mm2=d["area_mm2"],
            power_int_w=d["power_int_w"],
            power_fp_w=d["power_fp_w"],
            alignment_factor=d["alignment_factor"],
            efficiency=tuple(
                None if e is None else EfficiencyPoint(**e) for e in d["efficiency"]
            ),
            accuracy=tuple(sweep_points_from_dicts(d["accuracy"])),
        )


def _metric_getter(metric):
    if callable(metric):
        return metric

    def get(item):
        if isinstance(item, DesignReport):
            return item.metric(metric)
        if metric.startswith("-"):
            return -get_positive(item, metric[1:])
        return get_positive(item, metric)

    def get_positive(item, name):
        return float(getattr(item, name))

    return get


def pareto_frontier(items, x, y, within=None) -> list:
    """Items not dominated in the (x, y) plane — both axes maximized.

    ``x``/``y`` are callables, attribute names, or (for
    :class:`DesignReport` items) metric strings like ``"tops_per_w@fp16"``
    or ``"-median_contaminated_bits"`` (the leading ``-`` turns an
    error-style metric into a maximizable one). ``within`` optionally
    groups items (a callable key): domination is only tested inside a
    group, as in Figure 10's per-tile fronts. Items with non-finite
    coordinates are dropped; input order is preserved.
    """
    items = list(items)  # tolerate generators: we traverse twice
    fx, fy = _metric_getter(x), _metric_getter(y)
    coords = [(fx(item), fy(item)) for item in items]
    front = []
    for p, (px, py) in zip(items, coords):
        if not (math.isfinite(px) and math.isfinite(py)):
            continue
        dominated = any(
            q is not p
            and (within is None or within(q) == within(p))
            and qx >= px and qy >= py and (qx > px or qy > py)
            for q, (qx, qy) in zip(items, coords)
        )
        if not dominated:
            front.append(p)
    return front


@contextmanager
def use_session(session: "DesignSession | None" = None):
    """Yield ``session``, or create a temporary one and close it after.

    The experiment drivers' ownership idiom: ``run(session=None)`` entry
    points wrap their body in ``with use_session(session) as session`` so a
    caller-supplied session is shared (and left open) while an absent one
    is scoped to the call.
    """
    if session is not None:
        yield session
        return
    session = DesignSession()
    try:
        yield session
    finally:
        session.close()


class DesignSession:
    """Shared-state design-space evaluator (see module docstring).

    Parameters
    ----------
    workers:
        Worker count for :meth:`sweep` fan-out (also forwarded to the
        embedded :class:`EmulationSession` unless one is supplied).
        Results are identical to a serial sweep — caches deduplicate
        in-flight work, and every computation is deterministic.
    emulation:
        An existing :class:`EmulationSession` to run the numerics half
        through (shared executor and weight plans). When ``None``, one is
        created lazily and closed with this session.
    accuracy:
        The :class:`RunSpec` protocol template for accuracy metrics; its
        ``points`` are ignored (each evaluation injects the design's
        resolved :class:`PrecisionPoint`).
    backend:
        Sweep fan-out backend (:mod:`repro.api.executor`): ``"serial"`` /
        ``"thread"``, a spec, or a spec dict. ``None`` keeps the historical
        convention (threads when ``workers > 1``).
    store:
        A :class:`repro.store.ResultStore` (or a directory path) persisting
        whole :class:`DesignReport`\\ s across processes, keyed by the
        design point's fingerprint plus this session's accuracy protocol.
        Warm replays of a design grid (``table1``-style sweeps) skip every
        simulation; pool sweeps dispatch only the missing points. Also
        forwarded to an owned embedded :class:`EmulationSession`, so the
        numerics half resumes chunk-by-chunk too.
    """

    def __init__(
        self,
        workers: int | None = None,
        emulation: EmulationSession | None = None,
        accuracy: RunSpec | None = None,
        backend=None,
        store=None,
    ):
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.store = ResultStore.coerce(store)
        self.stats = DesignSessionStats()
        self.executor = make_executor(backend, workers, self.stats)
        self.workers = self.executor.workers
        self.accuracy_spec = accuracy if accuracy is not None else DEFAULT_ACCURACY_SPEC
        self._emulation = emulation
        self._owns_emulation = emulation is None
        self._memo: dict[tuple, Future] = {}
        self._layer_lists: dict[str, tuple] = {}
        self._lock = threading.Lock()
        self._closed = False
        REGISTRY.register_object(
            self, prefix="repro_design",
            labels={"instance": REGISTRY.next_instance("design")})

    def snapshot(self) -> DesignSessionStats:
        """A copy of :attr:`stats`, taken under the cache lock it counts
        under (what ``/v1/metrics`` and ``/v1/stats`` read)."""
        with self._lock:
            return copy.deepcopy(self.stats)

    # -- lifecycle ---------------------------------------------------------

    @property
    def emulation(self) -> EmulationSession:
        """The embedded numerics session (created lazily when owned)."""
        if self._closed:
            raise RuntimeError("session is closed")
        with self._lock:  # parallel sweeps must share one instance
            if self._emulation is None:
                self._emulation = EmulationSession(workers=self.workers,
                                                   store=self.store)
            return self._emulation

    def close(self) -> None:
        """Shut the backend down, drop all caches, close an owned emulation."""
        self.executor.close()
        if self._owns_emulation and self._emulation is not None:
            self._emulation.close()
            self._emulation = None
        self._memo.clear()
        self._layer_lists.clear()
        self._closed = True

    def __enter__(self) -> "DesignSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- memoization core --------------------------------------------------

    def _memoized(self, kind: str, key: tuple, compute):
        """Value-keyed cache with in-flight deduplication.

        The first caller computes; concurrent callers with the same key
        block on the same future, so a parallel sweep never duplicates an
        expensive simulation. Failed computations are evicted (retryable).
        """
        with self._lock:
            fut = self._memo.get((kind, key))
            if fut is None:
                fut = Future()
                self._memo[(kind, key)] = fut
                owner = True
            else:
                owner = False
            self.stats.note(kind, hit=not owner)
        if not owner:
            return fut.result()
        try:
            value = compute()
        except BaseException as exc:
            with self._lock:
                self._memo.pop((kind, key), None)
            fut.set_exception(exc)
            raise
        fut.set_result(value)
        return value

    # -- hardware cost half ------------------------------------------------

    def component_areas(self, design: str | Design) -> dict[str, float]:
        """Per-component GE areas of one IPU of this design (memoized)."""
        design = parse_design(design)
        return self._memoized("area", (design,),
                              lambda: component_areas_ge(design.geometry()))

    def design_area_mm2(self, design: str | Design) -> float:
        design = parse_design(design)
        return design_area_mm2(design, areas=self.component_areas(design))

    def design_power_w(self, design: str | Design, mode: str) -> float:
        design = parse_design(design)
        return design_power_w(design, mode, areas=self.component_areas(design))

    def design_efficiency(
        self, design: str | Design, a_prec: int, w_prec: int,
        alignment_factor: float = 1.0,
    ) -> EfficiencyPoint | None:
        """One Table-1 cell pair off the cached component areas."""
        design = parse_design(design)
        return design_efficiency(design, a_prec, w_prec, alignment_factor,
                                 areas=self.component_areas(design))

    def tile_cost(self, tile: str | TileConfig, fp_mode: str | None = "temporal",
                  mode: str = "fp") -> TileCost:
        """Figure-7 tile cost, memoized per (tile, fp_mode, mode)."""
        tile = parse_tile(tile)
        return self._memoized("tile_cost", (tile, fp_mode, mode),
                              lambda: tile_cost(tile, fp_mode, mode))

    # -- performance half --------------------------------------------------

    def _layers(self, workload) -> tuple:
        """A workload's conv layers as a hashable tuple (lists pass through)."""
        if isinstance(workload, str):
            layers = self._layer_lists.get(workload)
            if layers is None:
                layers = tuple(WORKLOADS[workload]())
                self._layer_lists[workload] = layers
            return layers
        return tuple(workload)

    def network_perf(
        self, workload, tile: str | TileConfig,
        software_precision: int = FP32_SOFTWARE_PRECISION,
        direction: str = "forward", samples: int = 1024, rng: int = 0,
    ) -> NetworkPerf:
        """Memoized :func:`repro.tile.simulator.simulate_network`.

        ``workload`` is a :data:`repro.nn.zoo.WORKLOADS` name or an explicit
        layer list. Simulations are deterministic in ``rng`` (an int seed),
        so value-keyed caching is exact: a cache hit returns precisely what
        a re-simulation would. The worst-shift draw behind a simulation is
        cached separately (kind ``"shifts"``) under the tile's ``c_unroll``
        and cluster size only, so tiles differing in adder width share it.
        """
        tile = parse_tile(tile)
        layers = self._layers(workload)
        rng = int(rng)
        key = (layers, tile, software_precision, direction, samples, rng)

        def compute():
            # the draw has no adder width in it: every width of this
            # geometry is costed off one memoized sample
            group = tile.effective_cluster_size
            worst = self._memoized(
                "shifts",
                (layers, tile.c_unroll, group, software_precision,
                 direction, samples, rng),
                lambda: worst_shift_samples(
                    layers, tile.c_unroll, group, software_precision,
                    direction, samples, rng))
            return simulate_network(layers, tile, software_precision, direction,
                                    samples=samples, rng=rng, worst=worst)

        return self._memoized("perf", key, compute)

    def alignment_factor(
        self, tile: str | TileConfig, workloads=TABLE1_WORKLOADS,
        software_precision: int = FP32_SOFTWARE_PRECISION,
        samples: int = 384, rng: int = 41,
    ) -> float:
        """Average MC alignment cycles per nibble iteration on this tile.

        The mean over ``workloads`` (``(name, direction)`` pairs) of
        ``total_cycles / (steps * FP16_ITERATIONS)``; 1.0 when the adder
        tree meets the software precision (never multi-cycle).
        """
        tile = parse_tile(tile)
        if tile.adder_width >= software_precision:
            return 1.0
        workloads = tuple(tuple(w) for w in workloads)
        key = (tile, workloads, software_precision, samples, int(rng))

        def compute():
            factors = []
            for name, direction in workloads:
                perf = self.network_perf(name, tile, software_precision,
                                         direction, samples, rng)
                steps = sum(l.steps for l in perf.layers)
                factors.append(perf.total_cycles / (steps * FP16_ITERATIONS))
            return float(np.mean(factors))

        return self._memoized("alignment", key, compute)

    def design_alignment_factor(
        self, design: str | Design, samples: int = 384, rng: int = 41,
        tile: str | TileConfig | None = None,
    ) -> float:
        """Table 1's per-design alignment factor (forward+backward ResNet-18).

        Non-temporal designs and adder trees meeting the FP32 software
        precision never stall (factor 1.0). The simulation tile defaults to
        the paper's: the small tile at the design's adder width, clustered
        by its EHU share.
        """
        design = parse_design(design)
        if design.fp_mode != "temporal" or design.adder_width >= FP32_SOFTWARE_PRECISION:
            return 1.0
        if tile is None:
            tile = SMALL_TILE.with_precision(design.adder_width, design.ehu_share)
        return self.alignment_factor(tile, TABLE1_WORKLOADS,
                                     FP32_SOFTWARE_PRECISION, samples, rng)

    # -- numerics half -----------------------------------------------------

    def accuracy(self, precision: PrecisionPoint,
                 spec: RunSpec | None = None) -> tuple[SweepPoint, ...]:
        """Error-sweep points for one numerics configuration (memoized).

        Runs the session's accuracy protocol (``spec`` overrides the
        template) with this single precision point through the embedded
        :class:`EmulationSession`; every design that lands on the same
        precision point reuses the memoized result.
        """
        template = self.accuracy_spec if spec is None else spec
        key = (precision, template)

        def compute():
            sweep = self.emulation.sweep(template.with_points((precision,)))
            return tuple(sweep.points)

        return self._memoized("accuracy", key, compute)

    # -- persistent store --------------------------------------------------

    def _report_fingerprint(self, point: DesignPoint,
                            accuracy: RunSpec | None = None) -> str:
        """Store key for one report: the point plus the accuracy protocol
        (minus its ignored ``points``/``name``/``executor`` fields)."""
        template = self.accuracy_spec if accuracy is None else accuracy
        accuracy_dict = template.to_dict()
        for field_ in ("name", "executor", "points"):
            accuracy_dict.pop(field_, None)
        return _result_key({"design_report": point.fingerprint(),
                            "accuracy": accuracy_dict})

    def _load_report(self, point: DesignPoint,
                     accuracy: RunSpec | None = None) -> DesignReport | None:
        if self.store is None:
            return None
        payload = self.store.get_json(
            "design-report", self._report_fingerprint(point, accuracy))
        if payload is None:
            self.stats.note("report", hit=False)
            return None
        report = DesignReport.from_dict(payload)
        self.stats.note("report", hit=True)
        return report

    def _save_report(self, point: DesignPoint, report: DesignReport,
                     accuracy: RunSpec | None = None) -> None:
        if self.store is not None:
            self.store.put_json("design-report",
                                self._report_fingerprint(point, accuracy),
                                report.to_dict())

    # -- the front door ----------------------------------------------------

    def evaluate(self, point: DesignPoint | str,
                 accuracy: RunSpec | None = None) -> DesignReport:
        """Joint evaluation: one call, both halves of the paper's trade-off.

        Accepts a full :class:`DesignPoint` or any design registry string
        (evaluated on the default small tile). ``accuracy`` overrides the
        session's accuracy protocol template for this evaluation (the
        fidelity knob :meth:`sweep` forwards from a spec's ``accuracy``
        field). All expensive pieces come from (and populate) the session
        caches — and, when the session has a ``store``, finished reports
        persist across processes.
        """
        if self._closed:
            raise RuntimeError("session is closed")
        point = DesignPoint.from_dict(point)
        with trace_span("design.evaluate", design=point.design.name) as sp:
            stored = self._load_report(point, accuracy)
            if stored is not None:
                sp.set(warm=True)
                return stored
            sp.set(warm=False)
            return self._evaluate_fresh(point, accuracy)

    def _evaluate_fresh(self, point: DesignPoint,
                        accuracy: RunSpec | None = None) -> DesignReport:
        """Compute + persist one report, skipping the store lookup (the
        caller — :meth:`evaluate` or a :meth:`sweep` prefetch — did it)."""
        design = point.design.resolve()
        base_tile = point.tile.resolve()
        pinned = re.search(r"@(\d+)b?", point.tile.name)
        if pinned is not None and int(pinned.group(1)) != design.adder_width:
            raise ValueError(
                f"tile spec {point.tile.name!r} pins a {pinned.group(1)}-bit "
                f"adder tree but design {design.name!r} has "
                f"{design.adder_width} bits — drop the @width (the design "
                "supplies it) or change the design"
            )
        cluster = (base_tile.cluster_size if base_tile.cluster_size is not None
                   else design.ehu_share)
        # Re-derive from the root geometry so the simulation tile's name (part
        # of TileConfig equality, hence of the memo keys) is canonical: both
        # 'small' and 'small@16b/c8' land on the same 'small-w16-c8' key.
        try:
            root = parse_tile(base_tile.name.split("-w")[0])
        except KeyError:
            root = base_tile
        sim_tile = root.with_precision(design.adder_width, cluster)
        af = self.design_alignment_factor(design, point.samples, point.rng,
                                          tile=sim_tile)
        areas = self.component_areas(design)
        efficiency = tuple(
            design_efficiency(design, a, w,
                              alignment_factor=af if (a, w) == (16, 16) else 1.0,
                              areas=areas)
            for a, w in point.op_precisions
        )
        precision = point.resolved_precision()
        sweep_points = (() if precision is None
                        else self.accuracy(precision, spec=accuracy))
        report = DesignReport(
            point=point,
            design=design.name,
            area_mm2=design_area_mm2(design, areas=areas),
            power_int_w=design_power_w(design, "int", areas=areas),
            power_fp_w=(None if design.fp_mode is None
                        else design_power_w(design, "fp", areas=areas)),
            alignment_factor=af,
            efficiency=efficiency,
            accuracy=sweep_points,
        )
        self._save_report(point, report, accuracy)
        return report

    def sweep(self, spec: DesignSweepSpec | list,
              accuracy: RunSpec | None = None) -> list[DesignReport]:
        """Evaluate a :class:`DesignSweepSpec` (or an explicit point list).

        A spec's ``accuracy`` field (or the ``accuracy`` argument, for
        explicit point lists) overrides the session's accuracy protocol
        template for the whole sweep — the per-rung fidelity knob of
        :mod:`repro.search`. With ``workers > 1`` the points fan out across
        the execution backend, and the in-flight-deduplicating caches
        guarantee shared simulations run once. Reports come back in spec
        order, identical to a serial sweep (every computation is
        deterministic).
        """
        with trace_span("design.sweep", backend=self.executor.name):
            return self._sweep_impl(spec, accuracy)

    def _sweep_impl(self, spec: DesignSweepSpec | list,
                    accuracy: RunSpec | None) -> list[DesignReport]:
        if isinstance(spec, DesignSweepSpec):
            points = list(spec.points())
            if spec.accuracy is not None:
                accuracy = spec.accuracy
        else:
            points = [DesignPoint.from_dict(p) for p in spec]
        if self.executor.workers <= 1 or len(points) <= 1:
            return [self.evaluate(p, accuracy) for p in points]
        if self._closed:
            raise RuntimeError("session is closed")
        # serve store hits up front so the pool only sees the missing points
        reports: list[DesignReport | None] = [self._load_report(p, accuracy)
                                              for p in points]
        missing = [i for i, r in enumerate(reports) if r is None]
        if missing:
            # the prefetch above already consulted the store once per point;
            # dispatch the compute half only
            todo = [points[i] for i in missing]
            fresh = self.executor.map(lambda p: self._evaluate_fresh(p, accuracy), todo)
            for i, report in zip(missing, fresh):
                reports[i] = report
        return reports
