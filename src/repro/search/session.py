"""The successive-halving search driver and its resumable result records.

A :class:`SearchSession` walks a :class:`~repro.search.halving.SearchSpec`
rung by rung: evaluate the rung's surviving candidates at its fidelity
(through a shared :class:`~repro.api.DesignSession`, or a
:class:`~repro.fleet.FleetCoordinator` for a fleet-backed search), select
survivors with :func:`~repro.search.halving.select_survivors`, and record
the rung. Every completed rung persists in the session's
:class:`~repro.store.ResultStore` (kind ``"search-rung"``, keyed by the
spec fingerprint + rung index), and every design evaluation persists
through the design session's own ``"design-report"`` entries — so a
killed search re-run with the same store resumes at the first incomplete
rung and re-computes only the missing design points.

:class:`SearchResult` (spec + candidates + rung records) is pure data:
its ``to_dict()`` is a deterministic function of the spec and the store
contents, which is what lets the CI byte-diff a resumed run, a fresh run,
and a ``POST /v1/search`` payload against each other.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass

from repro.api.design import DesignReport, DesignSession
from repro.api.spec import DesignSweepSpec
from repro.chaos.errors import DeadlineExceeded
from repro.obs.metrics import REGISTRY, counter
from repro.obs.trace import trace_span
from repro.search.halving import RungSpec, SearchSpec, keep_count, select_survivors
from repro.search.space import Candidate
from repro.store import ResultStore
from repro.store.fingerprint import fingerprint as _result_key
from repro.utils.table import render_table

__all__ = ["RungRecord", "SearchResult", "SearchSession", "render_search"]

# The per-candidate summary metrics recorded for design-level rungs: enough
# to render the result and re-check frontier membership without reloading
# reports. All are DesignReport.metric strings.
SUMMARY_METRICS = ("median_contaminated_bits", "tops_per_mm2@fp16",
                   "tops_per_w@fp16", "area_mm2")


@dataclass(frozen=True)
class RungRecord:
    """One completed rung: who ran, what they scored, who survived.

    ``candidates``/``survivors`` are indices into the search's candidate
    tuple; ``scores[i]`` holds candidate ``candidates[i]``'s objective-axis
    values (one entry for metric objectives, two for ``pareto:``, the
    top-1 accuracy for model-level rungs); ``metrics[i]`` is its
    :data:`SUMMARY_METRICS` summary dict.
    """

    index: int
    candidates: tuple[int, ...]
    scores: tuple[tuple[float, ...], ...]
    survivors: tuple[int, ...]
    metrics: tuple[dict, ...]
    top1: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "candidates", tuple(int(i) for i in self.candidates))
        object.__setattr__(self, "scores", tuple(
            tuple(float(s) for s in row) for row in self.scores))
        object.__setattr__(self, "survivors", tuple(int(i) for i in self.survivors))
        object.__setattr__(self, "metrics", tuple(dict(m) for m in self.metrics))

    def to_dict(self) -> dict:
        return {"index": self.index,
                "candidates": list(self.candidates),
                "scores": [list(row) for row in self.scores],
                "survivors": list(self.survivors),
                "metrics": [dict(m) for m in self.metrics],
                "top1": self.top1}

    @classmethod
    def from_dict(cls, d: dict) -> "RungRecord":
        return cls(index=d["index"], candidates=d["candidates"],
                   scores=d["scores"], survivors=d["survivors"],
                   metrics=d["metrics"], top1=d.get("top1", False))


@dataclass(frozen=True)
class SearchResult:
    """The full search outcome: ordered rung records over one candidate
    tuple. ``winners()`` are the last rung's survivors."""

    spec: SearchSpec
    candidates: tuple[Candidate, ...]
    rungs: tuple[RungRecord, ...]

    def winners(self) -> tuple[Candidate, ...]:
        if not self.rungs:
            return ()
        return tuple(self.candidates[i] for i in self.rungs[-1].survivors)

    def to_dict(self) -> dict:
        return {"spec": self.spec.to_dict(),
                "candidates": [c.to_dict() for c in self.candidates],
                "rungs": [r.to_dict() for r in self.rungs],
                "winners": [int(i) for i in self.rungs[-1].survivors] if self.rungs else []}

    @classmethod
    def from_dict(cls, d: dict) -> "SearchResult":
        return cls(spec=SearchSpec.from_dict(d["spec"]),
                   candidates=tuple(Candidate.from_dict(c)
                                    for c in d["candidates"]),
                   rungs=tuple(RungRecord.from_dict(r) for r in d["rungs"]))


def _fmt(value: float) -> str:
    if value is None or not math.isfinite(value):
        return "-"
    return f"{value:.4g}"


def render_search(result: SearchResult) -> str:
    """The search as text tables: one row per (rung, candidate), survivors
    starred, then the winners. Deterministic — the CI byte-diffs it."""
    spec = result.spec
    headers = ["rung", "candidate", "design", "tile", "score",
               "err bits", "TOPS/mm2", "TOPS/W", ""]
    rows = []
    for record in result.rungs:
        kept = set(record.survivors)
        for ci, score, metrics in zip(record.candidates, record.scores,
                                      record.metrics):
            c = result.candidates[ci]
            if record.top1:
                err = metrics.get("fp32_top1")
                mm2 = pw = None
            else:
                err = metrics.get("median_contaminated_bits")
                mm2 = metrics.get("tops_per_mm2@fp16")
                pw = metrics.get("tops_per_w@fp16")
            rows.append([
                f"{record.index}{' (top1)' if record.top1 else ''}",
                ci, c.design, c.tile,
                " ".join(_fmt(s) for s in score),
                _fmt(err), _fmt(mm2), _fmt(pw),
                "kept" if ci in kept else "",
            ])
    table = render_table(headers, rows, title=f"search: {spec.name}")
    winners = ", ".join(f"#{i} {result.candidates[i].design}"
                        for i in (result.rungs[-1].survivors if result.rungs else ()))
    lines = [table,
             f"objective: {spec.objective} | strategy: {spec.strategy} | "
             f"eta: {spec.eta} | rungs: {len(result.rungs)}",
             f"winners: {winners or 'none'}"]
    return "\n".join(lines)


@dataclass
class SearchSessionStats:
    rungs_total: int = counter()
    rungs_resumed: int = counter()
    evaluated: int = counter()  # candidate evaluations attempted (non-resumed rungs)
    computed: int = counter()   # of those, computed fresh
    cached: int = counter()     # of those, served from the store


class SearchSession:
    """See module docstring.

    Parameters
    ----------
    design:
        The :class:`~repro.api.DesignSession` evaluating design-level
        rungs. ``None`` builds one from ``backend``/``workers``/``store``
        (owned: closed with this session).
    store:
        :class:`~repro.store.ResultStore` (or path) persisting rung
        records and, via the owned design session, the per-point reports.
        Without a store the search still runs — it just can't resume.
    fleet:
        A :class:`~repro.fleet.FleetCoordinator`; when set, design-level
        rungs dispatch one single-point design sweep per candidate through
        the fleet instead of the local design session. Results are
        identical either way (the sub-specs carry the rung's fidelity).
    """

    def __init__(self, design: DesignSession | None = None, store=None,
                 backend=None, workers: int | None = None, fleet=None):
        self.store = ResultStore.coerce(store)
        if design is None:
            self.design = DesignSession(workers=workers, backend=backend,
                                        store=self.store)
            self._owns_design = True
        else:
            self.design = design
            self._owns_design = False
            if self.store is None:
                self.store = design.store
        self.fleet = fleet
        self.stats = SearchSessionStats()
        REGISTRY.register_object(
            self, prefix="repro_search",
            labels={"instance": REGISTRY.next_instance("search")})

    def snapshot(self) -> SearchSessionStats:
        """A copy of :attr:`stats` (what ``/v1/metrics`` scrapes)."""
        return copy.deepcopy(self.stats)

    def close(self) -> None:
        if self._owns_design:
            self.design.close()

    def __enter__(self) -> "SearchSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- rung persistence --------------------------------------------------

    @staticmethod
    def _rung_key(spec: SearchSpec, index: int) -> str:
        return _result_key({"search_rung": spec.fingerprint(), "rung": index})

    def _load_rung(self, spec: SearchSpec, index: int, expected: list[int],
                   top1: bool) -> RungRecord | None:
        if self.store is None:
            return None
        payload = self.store.get_json("search-rung", self._rung_key(spec, index))
        if payload is None:
            return None
        record = RungRecord.from_dict(payload)
        # a record that doesn't describe exactly this rung's roster is
        # stale (e.g. an earlier rung's store entry was lost): recompute
        if (record.candidates != tuple(expected) or record.top1 != top1
                or len(record.scores) != len(expected)
                or len(record.metrics) != len(expected)
                or not set(record.survivors) <= set(expected)):
            return None
        return record

    def _save_rung(self, spec: SearchSpec, record: RungRecord) -> None:
        if self.store is not None:
            self.store.put_json("search-rung",
                                self._rung_key(spec, record.index),
                                record.to_dict())

    # -- rung evaluation ---------------------------------------------------

    @staticmethod
    def _check_deadline(deadline: float | None, what: str) -> float | None:
        """Remaining seconds before ``deadline`` (None = unbounded); raises
        :class:`DeadlineExceeded` when the budget is already spent."""
        if deadline is None:
            return None
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise DeadlineExceeded(f"rung deadline elapsed before {what}")
        return remaining

    def _evaluate_rung(self, spec: SearchSpec, ri: int, rung: RungSpec,
                       active: list[int],
                       candidates: tuple[Candidate, ...],
                       deadline: float | None = None) -> list[DesignReport]:
        accuracy = rung.accuracy_spec()
        points = [candidates[i].point(spec.op_precisions, rung.samples, spec.rng)
                  for i in active]
        self.stats.evaluated += len(points)
        if self.fleet is not None:
            subs = [DesignSweepSpec(
                name=f"{spec.name}-r{ri}-c{i}", designs=(candidates[i].design,),
                tiles=(candidates[i].tile,),
                precisions=(() if candidates[i].precision is None
                            else (candidates[i].precision,)),
                op_precisions=spec.op_precisions, samples=rung.samples,
                rng=spec.rng, accuracy=accuracy) for i in active]
            warm_before = self.fleet.stats().get("shards_skipped_warm", 0)
            remaining = self._check_deadline(deadline, f"rung {ri} dispatch")
            payloads = self.fleet.run_specs(subs, "design-sweep",
                                            timeout=remaining)
            warm = self.fleet.stats().get("shards_skipped_warm", 0) - warm_before
            self.stats.cached += warm
            self.stats.computed += len(points) - warm
            return [DesignReport.from_dict(p["reports"][0]) for p in payloads]
        hits0 = self.design.stats.hits.get("report", 0)
        if deadline is None:
            reports = self.design.sweep(points, accuracy=accuracy)
        else:
            # point at a time so a hung rung fails between candidates; each
            # finished report persists, so the re-run only fills the gaps
            reports = []
            for i, point in zip(active, points):
                self._check_deadline(deadline, f"rung {ri} candidate {i}")
                reports.extend(self.design.sweep([point], accuracy=accuracy))
        hits = self.design.stats.hits.get("report", 0) - hits0
        self.stats.cached += hits
        self.stats.computed += len(points) - hits
        return reports

    def _top1_scores(self, spec: SearchSpec, rung: RungSpec,
                     active: list[int],
                     candidates: tuple[Candidate, ...],
                     deadline: float | None = None) -> list[dict]:
        """Model-level scores: top-1 accuracy of the rung's trained model
        at each candidate's resolved precision width (store-cached per
        (style, n_eval, width) — many candidates share a width)."""
        out = []
        self.stats.evaluated += len(active)
        for i in active:
            point = candidates[i].point(spec.op_precisions, rung.samples,
                                        spec.rng)
            precision = point.resolved_precision()
            if precision is None:  # INT-only design: no FP16 model serve
                self.stats.computed += 1
                out.append({"top1_accuracy": math.nan, "fp32_top1": math.nan})
                continue
            width = precision.adder_width
            key = _result_key({"search_top1": {
                "style": rung.top1_style, "n_eval": rung.top1_n_eval,
                "width": width}})
            stored = None if self.store is None else \
                self.store.get_json("search-top1", key)
            if stored is not None:
                self.stats.cached += 1
                out.append(stored)
                continue
            self._check_deadline(deadline, f"top1 candidate {i}")
            self.stats.computed += 1
            from repro.analysis._model_cache import trained_model
            from repro.analysis.accuracy import accuracy_vs_precision

            model, dataset = trained_model(rung.top1_style)
            images = dataset.images[-rung.top1_n_eval:]
            labels = dataset.labels[-rung.top1_n_eval:]
            acc_points = accuracy_vs_precision(
                model, images, labels, (width,),
                session=self.design.emulation)
            payload = {"top1_accuracy": acc_points[1].accuracy,
                       "fp32_top1": acc_points[0].accuracy}
            if self.store is not None:
                self.store.put_json("search-top1", key, payload)
            out.append(payload)
        return out

    # -- the front door ----------------------------------------------------

    def run(self, spec: SearchSpec,
            rung_deadline_seconds: float | None = None) -> SearchResult:
        """Run (or resume) the whole halving ladder; see module docstring.

        ``rung_deadline_seconds`` bounds each *non-resumed* rung's wall
        clock: the budget is checked between candidate evaluations (and
        passed through as the fleet dispatch timeout), so a hung rung raises
        :class:`~repro.chaos.errors.DeadlineExceeded` fast instead of
        stalling the ladder. Resumed rungs and store-served evaluations are
        exempt — a warm replay always finishes — and every evaluation that
        completed before the deadline persists, so a re-run picks up where
        the timed-out one stopped.
        """
        spec = SearchSpec.from_dict(spec)
        candidates = spec.candidates()
        with trace_span("search.run", spec=spec.name,
                        candidates=len(candidates), rungs=len(spec.rungs)):
            return self._run_rungs(spec, candidates, rung_deadline_seconds)

    def _run_rungs(self, spec: SearchSpec, candidates,
                   rung_deadline_seconds: float | None) -> SearchResult:
        active = list(range(len(candidates)))
        records: list[RungRecord] = []
        for ri, rung in enumerate(spec.rungs):
            self.stats.rungs_total += 1
            deadline = (None if rung_deadline_seconds is None
                        else time.monotonic() + rung_deadline_seconds)
            with trace_span("search.rung", rung=ri, candidates=len(active),
                            top1=rung.top1) as sp:
                record = self._load_rung(spec, ri, active, rung.top1)
                if record is not None:
                    self.stats.rungs_resumed += 1
                    sp.set(resumed=True)
                elif rung.top1:
                    scored = self._top1_scores(spec, rung, active, candidates,
                                               deadline=deadline)
                    scores = [(s["top1_accuracy"],) for s in scored]
                    keep = keep_count(len(active), spec.eta)
                    ranked = sorted(
                        range(len(active)),
                        key=lambda j: ((-scores[j][0]
                                        if math.isfinite(scores[j][0])
                                        else math.inf), j))
                    survivors = [active[j] for j in sorted(ranked[:keep])]
                    record = RungRecord(index=ri, candidates=tuple(active),
                                        scores=tuple(scores),
                                        survivors=tuple(survivors),
                                        metrics=tuple(scored), top1=True)
                    self._save_rung(spec, record)
                else:
                    reports = self._evaluate_rung(spec, ri, rung, active,
                                                  candidates,
                                                  deadline=deadline)
                    local, scores = select_survivors(reports, spec.objective,
                                                     spec.eta)
                    metrics = tuple(
                        {m: (math.nan if r is None else float(r.metric(m)))
                         for m in SUMMARY_METRICS}
                        for r in reports)
                    record = RungRecord(
                        index=ri, candidates=tuple(active),
                        scores=tuple(tuple(row) for row in scores),
                        survivors=tuple(active[j] for j in local),
                        metrics=metrics)
                    self._save_rung(spec, record)
                sp.set(survivors=len(record.survivors))
            records.append(record)
            active = list(record.survivors)
        return SearchResult(spec=spec, candidates=candidates,
                            rungs=tuple(records))
