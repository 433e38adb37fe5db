"""Declarative run configurations: frozen, JSON-round-trippable dataclasses.

A :class:`PrecisionPoint` names one point of the paper's *numerics* design
space — IPU adder width x serve mode x accumulator — using registry strings
only, so a whole sweep (:class:`RunSpec`) serializes to a flat JSON document
that ``python -m repro.experiments.runner --spec spec.json`` can replay.

The *hardware* half mirrors the same pattern: :class:`DesignSpec` and
:class:`TileSpec` name entries of :mod:`repro.hw.registry`, a
:class:`DesignPoint` crosses them with a :class:`PrecisionPoint` (the joint
accuracy x efficiency coordinate the paper's Table 1 argues about), and a
:class:`DesignSweepSpec` crosses whole grids — replayable with
``runner --design-spec spec.json``.

Spec JSON from before the kernel engine became fixed may carry an
``"engine"`` key; :meth:`RunSpec.from_dict` drops it, since every engine
produced the same bits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

from repro.fp.registry import AccumulatorSpec, parse_accumulator, parse_format
from repro.hw.designs import TABLE1_PRECISIONS, Design
from repro.hw.registry import format_tile, parse_design, parse_tile, register_design
from repro.ipu.engine import KernelPoint
from repro.store.fingerprint import fingerprint as _fingerprint
from repro.tile.config import TileConfig

from repro.api.executor import ExecutorSpec

__all__ = [
    "PrecisionPoint", "RunSpec", "DEFAULT_SOURCES",
    "DesignSpec", "TileSpec", "DesignPoint", "DesignSweepSpec",
    "DEFAULT_OP_PRECISIONS", "ExecutorSpec",
    "spec_kind_of", "spec_from_kind",
]

DEFAULT_SOURCES = ("laplace", "normal", "uniform", "resnet-tensors", "convnet-tensors")


def _dump_spec_json(d: dict, path: str | Path | None) -> str:
    text = json.dumps(d, indent=2) + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text


def _load_spec_json(source: str | Path) -> dict:
    """JSON dict from a JSON string or a path to a JSON file."""
    if isinstance(source, Path) or (isinstance(source, str) and source.lstrip()[:1] != "{"):
        source = Path(source).read_text()
    return json.loads(source)


def _result_fingerprint(tag: str, d: dict) -> str:
    """Stable result key for a spec dict: drops the fields that never change
    results (``name`` labels output, ``executor`` only changes wall-clock),
    so replays of one grid land on one store entry / one coalesced request
    regardless of presentation or backend choice."""
    d = dict(d)
    d.pop("name", None)
    d.pop("executor", None)
    return _fingerprint({tag: d})


@dataclass(frozen=True)
class PrecisionPoint:
    """One emulation configuration, fully described by JSON-safe fields.

    ``accumulator`` is a registry name (``"fp32"``, ``"fp16"``,
    ``"kulisch"``); ``software_precision``/``multi_cycle`` follow the
    :class:`repro.ipu.engine.KernelPoint` conventions (``None`` = the
    single-cycle Figure-3 default).
    """

    adder_width: int
    software_precision: int | None = None
    multi_cycle: bool = False
    accumulator: str = "fp32"

    def __post_init__(self) -> None:
        if self.adder_width < 1:
            raise ValueError(f"adder width must be positive, got {self.adder_width}")
        acc = parse_accumulator(self.accumulator)  # fail early on unknown names
        if acc.kind == "int":
            raise ValueError(
                f"accumulator {acc.name!r} is the INT-mode register; FP kernel "
                "points take float/exact accumulators (use session.int_dot for "
                "INT dots)"
            )
        self.kernel_point().resolve()  # reject unservable width/precision combos

    @property
    def acc(self) -> AccumulatorSpec:
        return parse_accumulator(self.accumulator)

    def kernel_point(self) -> KernelPoint:
        """The engine configuration (accumulator rounding applied separately)."""
        acc = self.acc
        fmt = acc.fmt if acc.kind == "float" else parse_format("fp32")
        return KernelPoint(self.adder_width, self.software_precision,
                           self.multi_cycle, fmt)

    def kernel_key(self) -> tuple:
        """Points differing only in accumulator share one kernel execution."""
        return (self.adder_width, self.software_precision, self.multi_cycle)

    def to_dict(self) -> dict:
        # scalar fields: a shallow copy encodes like asdict, without its
        # deep copy (this runs for every fingerprint)
        return dict(vars(self))

    @classmethod
    def from_dict(cls, d: dict) -> "PrecisionPoint":
        return cls(**d)


@dataclass(frozen=True)
class RunSpec:
    """A serializable precision sweep: sources x points at one batch shape.

    Matches the Figure-3 protocol: per source, ``batch * chunks`` FP16
    operand pairs of length ``n`` are sampled, every point is emulated off
    one shared operand plan, and ``chunks`` consecutive inner products are
    summed into one longer dot before the error statistics.

    ``executor`` optionally pins an execution backend
    (``{"backend": "thread", "workers": 8}`` or a bare backend name), so a
    committed spec JSON replays with the backend it was measured with. The
    field is applied by the replay drivers (``runner --spec``, whose
    ``--backend``/``--workers`` flags override it); library callers choose
    the backend when constructing their :class:`EmulationSession` —
    ``session.sweep`` runs on the session's backend regardless (pass
    ``EmulationSession(backend=spec.executor)`` to honor it). The backend
    never changes results — only wall-clock.
    """

    name: str = "sweep"
    operand_format: str = "fp16"
    sources: tuple[str, ...] = DEFAULT_SOURCES
    points: tuple[PrecisionPoint, ...] = ()
    batch: int = 20000
    n: int = 16
    chunks: int = 1
    seed: int = 0
    executor: ExecutorSpec | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "sources", tuple(self.sources))
        object.__setattr__(self, "points", tuple(
            p if isinstance(p, PrecisionPoint) else PrecisionPoint.from_dict(p)
            for p in self.points
        ))
        if self.executor is not None and not isinstance(self.executor, ExecutorSpec):
            object.__setattr__(self, "executor", ExecutorSpec.from_dict(self.executor))
        for source in self.sources:
            if source.startswith("mixture:"):
                # fail on malformed mixture grammars at spec build time —
                # not halfway through a sweep
                from repro.nn.sampling import parse_mixture_source

                parse_mixture_source(source)
        fmt = parse_format(self.operand_format)
        if fmt.name not in ("fp16", "fp32"):
            # the vectorized engine decodes through native NumPy dtypes only
            raise ValueError(
                f"operand_format {fmt.name!r} has no vectorized engine path "
                "(fp16/fp32 only)"
            )
        if self.batch < 1 or self.n < 1 or self.chunks < 1:
            raise ValueError("batch, n, and chunks must all be >= 1")
        for p in self.points:  # the int64 adder-tree bound depends on n
            p.kernel_point().resolve().work_dtype(self.n)

    @classmethod
    def grid(
        cls,
        precisions: tuple[int, ...],
        accumulators: tuple[str, ...] = ("fp32",),
        **kwargs,
    ) -> "RunSpec":
        """The Figure-3 nesting: precisions outer, accumulators inner."""
        points = tuple(
            PrecisionPoint(w, accumulator=a) for w in precisions for a in accumulators
        )
        return cls(points=points, **kwargs)

    def with_points(self, points) -> "RunSpec":
        return replace(self, points=tuple(points))

    def fingerprint(self) -> str:
        """Stable cross-process result key (code-version salted).

        Identical for every spelling of one sweep — ``name`` and
        ``executor`` are excluded because they never change results — and
        stable across processes/machines. :mod:`repro.store` keys stored
        sweep results on it and :mod:`repro.service` coalesces identical
        in-flight requests by it.
        """
        return _result_fingerprint("run_spec", self.to_dict())

    # -- JSON round trip ---------------------------------------------------

    def to_dict(self) -> dict:
        # asdict's encoding, field by field, without its deep copy
        d = dict(vars(self))
        d["sources"] = list(self.sources)
        d["points"] = [p.to_dict() for p in self.points]
        if self.executor is not None:
            d["executor"] = self.executor.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunSpec":
        d = dict(d)
        # specs written when the kernel engine was selectable carry an
        # "engine" key; every engine produced the same bits, so drop it
        d.pop("engine", None)
        d["points"] = tuple(PrecisionPoint.from_dict(p) for p in d.get("points", ()))
        d["sources"] = tuple(d.get("sources", DEFAULT_SOURCES))
        return cls(**d)

    def to_json(self, path: str | Path | None = None) -> str:
        return _dump_spec_json(self.to_dict(), path)

    @classmethod
    def from_json(cls, source: str | Path) -> "RunSpec":
        """Load from a JSON string or a path to a JSON file."""
        return cls.from_dict(_load_spec_json(source))


# -- hardware design space ---------------------------------------------------

# The AxW op-precision rows of Table 1; (16, 16) denotes FP16 x FP16.
DEFAULT_OP_PRECISIONS = tuple(tuple(p) for p in TABLE1_PRECISIONS)


@dataclass(frozen=True)
class DesignSpec:
    """One hardware design, named by its :mod:`repro.hw.registry` string.

    Accepts paper names (``"MC-IPU4"``) and grammar specs
    (``"mc-ipu:8x4@24b"``); the string is normalized to the registry's
    canonical name at construction, so equal designs compare (and
    serialize) equal regardless of input spelling.
    """

    design: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "design", parse_design(self.design).name)

    @property
    def name(self) -> str:
        return self.design

    def resolve(self) -> Design:
        return parse_design(self.design)

    def to_dict(self) -> str:
        return self.design

    @classmethod
    def from_dict(cls, d) -> "DesignSpec":
        if isinstance(d, DesignSpec):
            return d
        if isinstance(d, Design):
            # hand-built designs become resolvable by registering them
            # (idempotent; a name conflict with a different design raises)
            register_design(d)
            return cls(d.name)
        if isinstance(d, dict):
            return cls(**d)
        return cls(d)


@dataclass(frozen=True)
class TileSpec:
    """One tile geometry, named by its :mod:`repro.hw.registry` string
    (``"small"``, ``"big"``, ``"16x16x2x2"``, with optional ``@Wb``/``/cN``
    suffixes). Validated eagerly; normalized lexically (case/whitespace)."""

    tile: str = "small"

    def __post_init__(self) -> None:
        normalized = self.tile.strip().lower()
        parse_tile(normalized)  # fail early on unknown/malformed specs
        object.__setattr__(self, "tile", normalized)

    @property
    def name(self) -> str:
        return self.tile

    def resolve(self) -> TileConfig:
        return parse_tile(self.tile)

    def to_dict(self) -> str:
        return self.tile

    @classmethod
    def from_dict(cls, d) -> "TileSpec":
        if isinstance(d, TileSpec):
            return d
        if isinstance(d, TileConfig):
            # derived names like 'small-w16-c4' are not parseable; emit the
            # grammar form ('small@16b/c4') from the config's fields instead
            return cls(format_tile(d))
        if isinstance(d, dict):
            return cls(**d)
        return cls(d)


def _as_op_precisions(rows) -> tuple[tuple[int, int], ...]:
    out = []
    for row in rows:
        a, w = (int(v) for v in row)
        if a < 1 or w < 1:
            raise ValueError(f"op precision {row!r} must be positive")
        out.append((a, w))
    return tuple(out)


@dataclass(frozen=True)
class DesignPoint:
    """One joint design-space coordinate: hardware x tile x numerics.

    ``precision`` is the emulation configuration for the accuracy half;
    ``None`` derives the single-cycle IPU at the design's adder width (the
    Figure-3 protocol — see :meth:`resolved_precision`; INT-only designs
    have no FP numerics and stay ``None``). ``op_precisions`` are the AxW
    rows costed on the efficiency half (Table 1's four by default);
    ``samples``/``rng`` parametrize the alignment-factor performance
    simulation.
    """

    design: DesignSpec
    tile: TileSpec = TileSpec()
    precision: PrecisionPoint | None = None
    op_precisions: tuple[tuple[int, int], ...] = DEFAULT_OP_PRECISIONS
    samples: int = 384
    rng: int = 41

    def __post_init__(self) -> None:
        object.__setattr__(self, "design", DesignSpec.from_dict(self.design))
        object.__setattr__(self, "tile", TileSpec.from_dict(self.tile))
        if self.precision is not None and not isinstance(self.precision, PrecisionPoint):
            object.__setattr__(self, "precision", PrecisionPoint.from_dict(self.precision))
        object.__setattr__(self, "op_precisions", _as_op_precisions(self.op_precisions))
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")

    def resolved_precision(self) -> PrecisionPoint | None:
        """The numerics point: explicit, or derived from the design.

        The derived point is the single-cycle IPU at the design's adder
        width with FP32 accumulation — the Figure-3 protocol the repo's
        accuracy experiments use, where the truncating tree's error is the
        signature of the width choice. Pass an explicit ``precision`` to
        model other modes (e.g. the near-exact multi-cycle serve,
        ``PrecisionPoint(w, 28, True)``, whose cost the alignment factor
        already reflects). INT-only designs have no FP16 numerics
        (``None``).
        """
        if self.precision is not None:
            return self.precision
        design = self.design.resolve()
        if design.fp_mode is None:
            return None
        return PrecisionPoint(design.adder_width)

    def to_dict(self) -> dict:
        return {
            "design": self.design.to_dict(),
            "tile": self.tile.to_dict(),
            "precision": None if self.precision is None else self.precision.to_dict(),
            "op_precisions": [list(p) for p in self.op_precisions],
            "samples": self.samples,
            "rng": self.rng,
        }

    @classmethod
    def from_dict(cls, d) -> "DesignPoint":
        if isinstance(d, DesignPoint):
            return d
        if isinstance(d, str):
            return cls(design=DesignSpec(d))
        return cls(**d)

    def fingerprint(self) -> str:
        """Stable cross-process result key for this joint coordinate
        (code-version salted — see :meth:`RunSpec.fingerprint`).

        Keys on the *resolved* design/tile parameters, not just their
        registry names: a custom name re-registered with different
        geometry in a later process must miss, never be served the old
        geometry's stored report.
        """
        d = self.to_dict()
        # Design/TileConfig hold only scalars: a shallow copy encodes like
        # asdict, without its deep copy (this runs on every report lookup)
        d["design_resolved"] = dict(vars(self.design.resolve()))
        d["tile_resolved"] = dict(vars(self.tile.resolve()))
        return _result_fingerprint("design_point", d)


@dataclass(frozen=True)
class DesignSweepSpec:
    """A serializable design-space sweep: designs x tiles x precisions.

    The cross product (:meth:`points`) pairs every design with every tile
    and every precision override (an empty ``precisions`` grid derives the
    numerics point per design), sharing ``op_precisions``/``samples``/
    ``rng`` — so a whole Pareto exploration is one flat JSON document that
    ``runner --design-spec spec.json`` can replay. ``executor`` pins the
    fan-out backend for such replays (overridable with ``--backend``;
    applied by the runner — library callers pass it to
    ``DesignSession(backend=...)``); backends never change reports, only
    wall-clock.

    ``accuracy`` optionally overrides the evaluating session's accuracy
    protocol template (a :class:`RunSpec` whose ``points`` are ignored —
    each design point injects its own resolved precision). This is the
    sweep-level *fidelity* knob: :mod:`repro.search` rungs raise the
    protocol's ``batch``/``sources`` per rung, and because the template is
    part of every report's store fingerprint, different fidelities never
    collide in a shared :class:`repro.store.ResultStore`. ``None`` keeps
    the session's template (and the spec's historical fingerprint).
    """

    name: str = "design-sweep"
    designs: tuple[DesignSpec, ...] = ()
    tiles: tuple[TileSpec, ...] = (TileSpec(),)
    precisions: tuple[PrecisionPoint, ...] = ()
    op_precisions: tuple[tuple[int, int], ...] = DEFAULT_OP_PRECISIONS
    samples: int = 384
    rng: int = 41
    executor: ExecutorSpec | None = None
    accuracy: RunSpec | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "designs", tuple(
            DesignSpec.from_dict(d) for d in self.designs))
        object.__setattr__(self, "tiles", tuple(
            TileSpec.from_dict(t) for t in self.tiles))
        object.__setattr__(self, "precisions", tuple(
            p if isinstance(p, PrecisionPoint) else PrecisionPoint.from_dict(p)
            for p in self.precisions))
        object.__setattr__(self, "op_precisions", _as_op_precisions(self.op_precisions))
        if self.executor is not None and not isinstance(self.executor, ExecutorSpec):
            object.__setattr__(self, "executor", ExecutorSpec.from_dict(self.executor))
        if self.accuracy is not None and not isinstance(self.accuracy, RunSpec):
            object.__setattr__(self, "accuracy", RunSpec.from_dict(self.accuracy))
        if not self.tiles:
            raise ValueError("DesignSweepSpec needs at least one tile")
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")

    @classmethod
    def grid(cls, designs, tiles=("small",), **kwargs) -> "DesignSweepSpec":
        """Cross registry strings: designs outer, tiles middle, precisions inner."""
        return cls(designs=tuple(designs), tiles=tuple(tiles), **kwargs)

    def points(self) -> tuple[DesignPoint, ...]:
        """The cross product, in designs-outer / tiles / precisions-inner order."""
        return tuple(
            DesignPoint(design=d, tile=t, precision=p,
                        op_precisions=self.op_precisions,
                        samples=self.samples, rng=self.rng)
            for d in self.designs
            for t in self.tiles
            for p in (self.precisions or (None,))
        )

    def fingerprint(self) -> str:
        """Stable cross-process result key for the whole grid (``name`` and
        ``executor`` excluded — see :meth:`RunSpec.fingerprint`)."""
        d = self.to_dict()
        if "accuracy" in d:
            # keys of stored results were minted while the embedded RunSpec
            # still serialized an (always null) "engine" field
            d["accuracy"]["engine"] = None
        return _result_fingerprint("design_sweep_spec", d)

    # -- JSON round trip ---------------------------------------------------

    def to_dict(self) -> dict:
        d = {
            "name": self.name,
            "designs": [d.to_dict() for d in self.designs],
            "tiles": [t.to_dict() for t in self.tiles],
            "precisions": [p.to_dict() for p in self.precisions],
            "op_precisions": [list(p) for p in self.op_precisions],
            "samples": self.samples,
            "rng": self.rng,
            "executor": None if self.executor is None else self.executor.to_dict(),
        }
        if self.accuracy is not None:
            # emitted only when set: specs without a fidelity override keep
            # their historical dict shape, JSON bytes, and fingerprints
            d["accuracy"] = self.accuracy.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "DesignSweepSpec":
        return cls(**d)

    def to_json(self, path: str | Path | None = None) -> str:
        return _dump_spec_json(self.to_dict(), path)

    @classmethod
    def from_json(cls, source: str | Path) -> "DesignSweepSpec":
        """Load from a JSON string or a path to a JSON file."""
        return cls.from_dict(_load_spec_json(source))


# -- kind dispatch ------------------------------------------------------------
#
# The spec schemas are disjoint (only design sweeps carry ``designs``, only
# search specs carry ``space``/``strategy``), which is what lets the
# service, the fleet shard planner, and the client auto-detect a spec's
# kind from its JSON body. The service wire names are the canonical kind
# strings: ``"sweep"`` / ``"design-sweep"`` / ``"search"``.
#
# ``repro.search`` imports this module, so its spec class is resolved
# lazily here — eagerly for the other two kinds.

_SPEC_KINDS = {"sweep": RunSpec, "design-sweep": DesignSweepSpec}


def _search_spec_cls():
    from repro.search.halving import SearchSpec

    return SearchSpec


def spec_kind_of(spec) -> str:
    """The service-wire kind of a spec object or spec dict."""
    if isinstance(spec, RunSpec):
        return "sweep"
    if isinstance(spec, DesignSweepSpec):
        return "design-sweep"
    if isinstance(spec, dict):
        if "space" in spec or "strategy" in spec:
            return "search"
        return "design-sweep" if "designs" in spec else "sweep"
    if type(spec).__name__ == "SearchSpec" and isinstance(spec, _search_spec_cls()):
        return "search"
    raise TypeError(f"cannot infer a spec kind from {type(spec).__name__}")


def spec_from_kind(kind: str, d) -> "RunSpec | DesignSweepSpec":
    """Deserialize a spec dict of a named kind (used by the service's
    request parsing and by :class:`repro.fleet.FleetCoordinator`)."""
    cls = _search_spec_cls() if kind == "search" else _SPEC_KINDS.get(kind)
    if cls is None:
        raise ValueError(f"unknown job kind {kind!r}; "
                         f"expected one of {sorted(_SPEC_KINDS) + ['search']}")
    if isinstance(d, cls):
        return d
    if not isinstance(d, dict):
        raise ValueError(f"spec body must be a JSON object, got "
                         f"{type(d).__name__}")
    return cls.from_dict(d)
