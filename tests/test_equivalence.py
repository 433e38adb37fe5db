"""One equivalence matrix: every execution path of the committed specs
returns the bytes of one reference.

Each cell runs one committed spec down one path and compares what comes
out with that spec's reference, the payload of a serial, storeless,
in-process :class:`SweepService`. A path is a point on five axes:

- front door: ``runner.main(argv)``, an in-process ``SweepService``, an
  HTTP ``ServiceServer``, or a fleet of two HTTP services over 4 shards.
  ``cli`` cells drive the HTTP and fleet doors through the runner
  (``--submit``, ``--fleet``) as well;
- backend: serial, or a 2-worker thread pool;
- store: none; ``cold`` (a fresh directory); ``warm`` (a first run fills
  it, a second is served from it); ``partial`` (the first run's entry for
  the last source is deleted before the second run, or the last rung
  record of a search); ``rot`` (one bit of one stored digit flipped, which
  only the checksum sidecar can detect);
- faults: none, or the committed ``chaos_quick.json`` plan, armed for the
  cell's first run, the one that writes the store;
- tracing: off, or armed for the cell's last run.

Payload cells compare the full result JSON, ``rendered`` included. CLI
cells compare the stdout body, with the ``[``-prefixed footers stripped,
against the reference's ``rendered`` field. Every run of a cell is
compared, so a warm cell checks its cold run too.
"""

import json
import re
from pathlib import Path
from typing import NamedTuple

import pytest

from repro.api.spec import spec_from_kind
from repro.experiments.runner import main
from repro.fleet import FleetCoordinator
from repro.obs.trace import install as trace_install
from repro.service import ServiceClient, ServiceServer, SweepService

SPECS_DIR = Path(__file__).resolve().parents[1] / "examples" / "specs"
CHAOS_PLAN = SPECS_DIR / "chaos_quick.json"
SHARDS = 4


def _load(name: str) -> dict:
    return json.loads((SPECS_DIR / name).read_text())


def _mc_spec() -> dict:
    """fig3_quick.json plus MC-IPU 12/16/20 @ sw 28: MC kernels through
    every path. Its MC columns share their width with single-cycle ones in
    the rendered tables, so only the result JSON tells them apart."""
    spec = _load("fig3_quick.json")
    spec["name"] = "fig3-quick-mc"
    spec["points"] += [{"adder_width": w, "software_precision": 28,
                        "multi_cycle": True, "accumulator": acc}
                       for w in (12, 16, 20) for acc in ("fp16", "fp32")]
    return spec


# spec name -> (service kind, runner flag, spec dict)
SPECS = {
    "fig3": ("sweep", "--spec", _load("fig3_quick.json")),
    "mc": ("sweep", "--spec", _mc_spec()),
    "design": ("design-sweep", "--design-spec", _load("design_pareto.json")),
    "search": ("search", "--search", _load("search_quick.json")),
}


class Cell(NamedTuple):
    spec: str
    door: str                  # runner | service | http | fleet
    backend: str = "serial"    # serial | thread (2 workers)
    store: str = "none"        # none | cold | warm | partial | rot
    chaos: bool = False
    trace: bool = False
    cli: bool = False          # drive the door through runner.main

    def __str__(self) -> str:
        door = f"{self.door}-cli" if self.cli and self.door != "runner" else self.door
        flags = "".join(f"-{f}" for f in ("chaos", "trace") if getattr(self, f))
        return f"{self.spec}-{door}-{self.backend}-{self.store}{flags}"


CELLS = [
    # fig3_quick.json: every store state, the fault plan, every door
    Cell("fig3", "runner"),  # ties the runner's stdout to the service payload
    Cell("fig3", "runner", "thread"),
    Cell("fig3", "runner", "thread", "cold"),
    Cell("fig3", "runner", "thread", "warm"),
    Cell("fig3", "runner", "thread", "partial"),
    Cell("fig3", "runner", "serial", "rot"),
    Cell("fig3", "runner", "thread", "cold", chaos=True),
    Cell("fig3", "runner", "thread", "warm", chaos=True),
    Cell("fig3", "runner", trace=True),
    Cell("fig3", "service", "thread", trace=True),
    Cell("fig3", "http", "serial", "cold", cli=True),
    Cell("fig3", "fleet", cli=True),
    Cell("fig3", "fleet", "thread", "warm", trace=True),
    # the same grid plus MC points: every thread, store, service and fleet
    # cell compares result JSON
    Cell("mc", "runner"),
    Cell("mc", "service", "thread"),
    Cell("mc", "service", "serial", "cold"),
    Cell("mc", "service", "thread", "warm"),
    Cell("mc", "service", "thread", "partial"),
    Cell("mc", "http", "thread", trace=True),
    Cell("mc", "fleet", "thread", "cold", trace=True),
    # design_pareto.json
    Cell("design", "runner"),
    Cell("design", "runner", "thread", "warm"),
    Cell("design", "service", "thread", "cold"),
    Cell("design", "http", cli=True),
    Cell("design", "fleet"),
    Cell("design", "fleet", "thread", cli=True, trace=True),
    # search_quick.json
    Cell("search", "runner"),
    Cell("search", "runner", "thread", "warm"),
    Cell("search", "runner", "serial", "partial"),
    Cell("search", "service", "thread", "cold"),
    Cell("search", "http"),
    Cell("search", "fleet", "serial", "cold", cli=True),
]


def test_every_axis_value_has_a_cell():
    for field, values in (("spec", SPECS), ("door", ("runner", "service", "http", "fleet")),
                          ("backend", ("serial", "thread")),
                          ("store", ("none", "cold", "warm", "partial", "rot")),
                          ("chaos", (False, True)), ("trace", (False, True))):
        assert {getattr(c, field) for c in CELLS} == set(values), field
    assert len({str(c) for c in CELLS}) == len(CELLS)


@pytest.fixture(scope="module")
def references():
    """spec name -> the serial, storeless, in-process service payload."""
    refs = {}
    for name, (kind, _, spec) in SPECS.items():
        service = SweepService()
        try:
            job, _ = service.submit(kind, spec)
            assert job.done.wait(300) and job.status == "done", job.error
            refs[name] = json.loads(json.dumps(job.result))  # the HTTP hop
        finally:
            service.close()
        parsed = spec_from_kind(kind, spec)
        assert (refs[name]["kind"], refs[name]["name"], refs[name]["fingerprint"]) \
            == (kind, parsed.name, parsed.fingerprint())
    return refs


# -- one run down one door ----------------------------------------------------


class Run(NamedTuple):
    body: str | None         # CLI stdout without the [footers]
    payload: dict | None     # service-shape result JSON
    footers: list[str]
    doc: dict                # the runner's --json document
    spans: list[dict]        # armed runs: the spans recorded
    fleet: dict | None       # fleet API runs: the coordinator's stats


def _backend_kwargs(cell: Cell) -> dict:
    return {"backend": "thread", "workers": 2} if cell.backend == "thread" else {}


def _cli(cell: Cell, path: Path, store: Path | None, chaos: bool, trace: bool,
         tmp: Path, capsys, url: str | None = None) -> Run:
    """``runner.main`` over the cell's door; ``url`` names its services."""
    kind, flag, _ = SPECS[cell.spec]
    doc_path, trace_path = tmp / "run.json", tmp / "trace.json"
    argv = ["--json", str(doc_path)]
    if cell.door == "http":
        argv += ["--submit", str(path), "--url", url]
    else:
        argv += [flag, str(path)]
    if cell.door == "runner":
        argv += ["--backend", cell.backend]
        argv += ["--workers", "2"] if cell.backend == "thread" else []
    if cell.door == "fleet":
        argv += ["--fleet", url]
        argv += ["--shards", str(SHARDS)] if kind != "search" else []
    if store is not None:
        argv += ["--store", str(store)]
    if chaos:
        argv += ["--chaos", str(CHAOS_PLAN)]
    if trace:
        argv += ["--trace", str(trace_path)]
    capsys.readouterr()
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    spans = []
    if trace:
        spans = [{"name": e["name"], "attrs": e["args"]}
                 for e in json.loads(trace_path.read_text())["traceEvents"]]
    return Run("\n".join(l for l in lines if not l.startswith("[")), None,
               [l for l in lines if l.startswith("[")],
               json.loads(doc_path.read_text()), spans, None)


def _api(cell: Cell, store: Path | None) -> tuple[dict, dict | None]:
    """The cell's door called in-process: (payload, fleet stats or None)."""
    kind, _, spec = SPECS[cell.spec]
    backend = _backend_kwargs(cell)
    if cell.door == "service":
        service = SweepService(store=store, **backend)
        try:
            job, _ = service.submit(kind, spec)
            assert job.done.wait(300) and job.status == "done", job.error
            return json.loads(json.dumps(job.result)), None
        finally:
            service.close()
    if cell.door == "http":
        with ServiceServer(port=0, store=store, **backend) as server:
            client = ServiceClient(server.url)
            try:
                payload = client.run(spec, kind=kind)
            finally:
                client.close()
        payload.pop("trace_spans", None)  # what runner --submit does too
        return payload, None
    with ServiceServer(port=0, queue_workers=2, **backend) as a, \
         ServiceServer(port=0, queue_workers=2, **backend) as b:
        coordinator = FleetCoordinator([a.url, b.url], shards=SHARDS, store=store)
        try:
            return coordinator.run(spec, kind=kind), coordinator.stats()
        finally:
            coordinator.close()


def _run(cell: Cell, path: Path, store: Path | None, chaos: bool, trace: bool,
         tmp: Path, capsys) -> Run:
    """One run down the cell's path, on fresh services: a second run of a
    cell sees only what its store kept."""
    if cell.door == "runner":
        return _cli(cell, path, store, chaos, trace, tmp, capsys)
    if cell.cli:
        backend = _backend_kwargs(cell)
        if cell.door == "http":  # the service owns the store
            with ServiceServer(port=0, store=store, **backend) as server:
                return _cli(cell, path, None, chaos, trace, tmp, capsys, server.url)
        with ServiceServer(port=0, queue_workers=2, **backend) as a, \
             ServiceServer(port=0, queue_workers=2, **backend) as b:
            return _cli(cell, path, store, chaos, trace, tmp, capsys,
                        f"{a.url},{b.url}")
    if not trace:
        payload, fleet = _api(cell, store)
        return Run(None, payload, [], {}, [], fleet)
    with trace_install() as tracer:
        payload, fleet = _api(cell, store)
    return Run(None, payload, [], {}, tracer.export(), fleet)


def _damage(cell: Cell, store: Path) -> None:
    """Between a cell's two runs: drop or rot the entry its store state
    names (a warm store is left as it is)."""
    if cell.store == "warm":
        return
    if cell.spec == "search":  # partial: the last rung's record goes
        records = sorted(store.glob("search-rung/*/*.json"),
                         key=lambda p: json.loads(p.read_text())["index"])
        records[-1].unlink()
        return
    # the last source: a run that resumes it must still draw the operands
    # of every stored source before it
    last = SPECS[cell.spec][2]["sources"][-1]
    (entry,) = [p for p in store.glob("sweep-source/*/*.json")
                if json.loads(p.read_text())["points"][0]["source"] == last]
    if cell.store == "partial":
        entry.unlink()
        return
    raw = entry.read_bytes()  # rot: 0 <-> 1, 2 <-> 3, ... still valid JSON
    at = raw.index(b'"median_abs_error":') + len(b'"median_abs_error":')
    assert raw[at:at + 1].isdigit()
    entry.write_bytes(raw[:at] + bytes([raw[at] ^ 1]) + raw[at + 1:])


# -- the matrix ---------------------------------------------------------------


@pytest.mark.parametrize("cell", CELLS, ids=str)
def test_cell_matches_the_reference(cell, references, tmp_path, capsys):
    ref = references[cell.spec]
    kind = SPECS[cell.spec][0]
    tag = "search" if kind == "search" else \
        {"runner": "spec", "http": "submit", "fleet": "fleet"}.get(cell.door)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPECS[cell.spec][2]))
    store = None if cell.store == "none" else tmp_path / "store"
    two_runs = cell.store in ("warm", "partial", "rot")
    runs = [_run(cell, path, store, cell.chaos, cell.trace and not two_runs,
                 tmp_path, capsys)]
    if two_runs:
        _damage(cell, store)
        runs.append(_run(cell, path, store, False, cell.trace, tmp_path, capsys))

    for run in runs:
        if run.payload is not None:
            assert json.dumps(run.payload, sort_keys=True) == \
                json.dumps(ref, sort_keys=True)
        else:
            assert run.body == ref["rendered"]
            assert any(f.startswith(f"[{tag} ") for f in run.footers)
        if run.fleet is not None:  # every shard ran once, or came from the store
            stats = run.fleet
            assert stats["shards_completed"] + stats["shards_skipped_warm"] == SHARDS
            assert sum(e["jobs"] for e in stats["endpoints"]) == stats["shards_completed"]
    last = runs[-1]
    if cell.chaos:  # every fault the plan lists fired
        assert any(re.fullmatch(r"\[chaos .* faults=([1-9]\d*) injected=\1\]", f)
                   for f in runs[0].footers), runs[0].footers
    if cell.trace:
        assert last.spans
        if two_runs:  # the served entries show up as store hits
            assert any(s["name"] == "store.get" and s["attrs"].get("hit")
                       for s in last.spans)
        if store is not None:  # and no telemetry reached the store
            assert not any(b"trace_spans" in p.read_bytes()
                           for p in store.rglob("*") if p.is_file())
    if cell.store == "warm":  # the second run computed nothing
        if last.fleet is not None:
            assert last.fleet["shards_skipped_warm"] == SHARDS
        elif kind == "sweep" and cell.door == "runner":
            assert last.doc["stats"]["kernel_rows"] == 0
        elif kind == "search" and cell.door == "runner":
            assert last.doc["stats"]["computed"] == 0
    if kind == "search" and cell.door == "runner" and two_runs:
        stats = last.doc["stats"]
        resumed = stats["rungs_total"] - (cell.store == "partial")
        assert stats["rungs_resumed"] == resumed, stats
    if cell.store == "rot":  # the rotted entry was caught, not served
        assert any((store / ".quarantine").iterdir())
