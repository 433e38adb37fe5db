"""CLI entry point: regenerate any table/figure of the paper.

Usage::

    python -m repro.experiments.runner --list
    python -m repro.experiments.runner fig3 fig9
    python -m repro.experiments.runner --all [--quick]
    python -m repro.experiments.runner --all --quick --json timings.json
    python -m repro.experiments.runner --spec examples/specs/fig3_quick.json
    python -m repro.experiments.runner --spec spec.json --workers 4
    python -m repro.experiments.runner --spec spec.json --backend thread --workers 8
    python -m repro.experiments.runner --spec spec.json --store results/
    python -m repro.experiments.runner --design-spec examples/specs/design_pareto.json
    python -m repro.experiments.runner --search examples/specs/search_quick.json
    python -m repro.experiments.runner --search spec.json --store results/ --backend thread
    python -m repro.experiments.runner --serve --port 8731 --store results/
    python -m repro.experiments.runner --serve --service-workers 4 --queue-cap 64
    python -m repro.experiments.runner --serve --host 0.0.0.0 --token s3cret
    python -m repro.experiments.runner --submit spec.json --url http://127.0.0.1:8731
    python -m repro.experiments.runner --design-spec spec.json \
        --fleet http://127.0.0.1:8731,http://127.0.0.1:8732 --shards 4
    python -m repro.experiments.runner --design-spec spec.json \
        --fleet http://127.0.0.1:8731 --store results/   # skip store-warm shards
    python -m repro.experiments.runner --search spec.json \
        --fleet http://127.0.0.1:8731,http://127.0.0.1:8732 --store results/
    python -m repro.experiments.runner --spec spec.json --store results/ \
        --chaos examples/specs/chaos_quick.json   # fault-injected replay
    python -m repro.experiments.runner --spec spec.json --trace trace.json
    python -m repro.experiments.runner --design-spec spec.json --profile
    python -m repro.experiments.runner --design-spec spec.json \
        --fleet http://127.0.0.1:8731,http://127.0.0.1:8732 --trace trace.json
    python -m repro.experiments.runner --verify-store results/

``--trace`` writes a Chrome trace-event JSON (load it in Perfetto /
``chrome://tracing``) covering every layer the run crossed — including
remote service jobs, whose spans come back over the wire. ``--profile``
prints a per-phase wall-time tree after the result. Both leave the result
output byte-identical to an untraced run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from dataclasses import asdict
from typing import Callable, NamedTuple

__all__ = ["EXPERIMENTS", "MODES", "main"]


def _fig3(quick: bool) -> str:
    from repro.experiments import fig3

    if quick:
        return fig3.render(fig3.run(batch=4000, chunks=2,
                                    precisions=(8, 12, 16, 20, 24, 28, 38),
                                    sources=("laplace", "normal", "uniform")))
    return fig3.render(fig3.run())


def _fig7(quick: bool) -> str:
    from repro.experiments import fig7

    return fig7.render(fig7.run())


def _fig8a(quick: bool) -> str:
    from repro.experiments import fig8

    return fig8.render(fig8.run_precision_sweep(samples=128 if quick else 512))


def _fig8b(quick: bool) -> str:
    from repro.experiments import fig8

    return fig8.render(fig8.run_cluster_sweep(samples=128 if quick else 512))


def _fig9(quick: bool) -> str:
    from repro.experiments import fig9

    return fig9.render(fig9.run(samples_per_layer=500 if quick else 1500))


def _fig10(quick: bool) -> str:
    from repro.experiments import fig10

    return fig10.render(fig10.run(samples=96 if quick else 384))


def _table1(quick: bool) -> str:
    from repro.experiments import table1

    return table1.render(table1.run(samples=96 if quick else 384))


def _accuracy(quick: bool) -> str:
    from repro.experiments import accuracy_table

    if quick:
        return accuracy_table.render(
            accuracy_table.run(precisions=(8, 12), n_eval=32, styles=("plain",))
        )
    return accuracy_table.render(accuracy_table.run())


EXPERIMENTS = {
    "fig3": (_fig3, "error metrics vs IPU precision (FP16/FP32 accumulators)"),
    "fig7": (_fig7, "tile area & power breakdowns"),
    "fig8a": (_fig8a, "normalized exec time vs MC-IPU precision"),
    "fig8b": (_fig8b, "normalized exec time vs cluster size"),
    "fig9": (_fig9, "exponent-difference histograms (fwd vs bwd)"),
    "fig10": (_fig10, "area/power efficiency design space"),
    "table1": (_table1, "TOPS/mm2 and TOPS/W across designs"),
    "accuracy": (_accuracy, "Top-1 accuracy vs IPU precision"),
}


class Result(NamedTuple):
    """A run's output, its ``[<tag> <footer> done in Xs]`` line and --json."""

    output: str
    tag: str
    footer: str
    doc: dict


class _Fail(Exception):
    """Ends a run with this one-line message on stderr and exit code 2."""


def _session_executor(spec_executor, backend: str | None, workers: int | None):
    """Resolve a replay's backend: CLI flags override the spec's executor."""
    from repro.api import ExecutorSpec

    spec = ExecutorSpec() if spec_executor is None else spec_executor
    if backend is None and workers is not None and spec.backend == "serial":
        # historical CLI convention: bare --workers N means threads
        backend = "thread"
    return spec.merged(backend=backend, workers=workers)


def _replay(args) -> Result:
    """Replay a --spec RunSpec or --design-spec DesignSweepSpec locally."""
    from repro import api

    if args.spec is not None:
        path, what, load, open_session, render = (
            args.spec, "spec", api.RunSpec.from_json, api.EmulationSession,
            api.render_sweep)
    else:
        path, what, load, open_session, render = (
            args.design_spec, "design spec", api.DesignSweepSpec.from_json,
            api.DesignSession, api.render_design_reports)
    try:  # bad files/specs exit cleanly; sweep bugs must keep their traceback
        spec = load(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise _Fail(f"cannot load {what} {path!r}: {exc}")
    executor = _session_executor(spec.executor, args.backend, args.workers)
    with open_session(backend=executor, store=args.store) as session:
        output = render(session.sweep(spec), title=spec.name)
    return Result(output, "spec", path,
                  {"spec": path, "stats": asdict(session.stats)})


def _fleet_coordinator(args):
    """The --fleet coordinator; a list with no endpoint URL ends the run."""
    from repro.fleet import FleetCoordinator

    urls = [u.strip() for u in args.fleet.split(",") if u.strip()]
    if not urls:
        raise _Fail("--fleet needs at least one endpoint URL")
    return FleetCoordinator(urls, shards=args.shards, token=args.token,
                            store=args.store)


def _replay_fleet(args) -> Result:
    """Shard a --spec/--design-spec across --fleet endpoints and merge the
    result (byte-identical to the local replay). With --store, store-warm
    shards are served from disk undispatched."""
    from repro.fleet import FleetError
    from repro.service import ServiceError

    path, kind = ((args.spec, "sweep") if args.spec is not None
                  else (args.design_spec, "design-sweep"))
    coordinator = _fleet_coordinator(args)
    try:
        with open(path) as fh:
            spec_dict = json.load(fh)
        result = coordinator.run(spec_dict, kind=kind)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        # unreadable, malformed, invalid, or the other spec kind
        raise _Fail(f"cannot load spec {path!r}: {exc}")
    except (FleetError, ServiceError) as exc:
        raise _Fail(f"fleet error: {exc}")
    finally:
        coordinator.close()
    stats = coordinator.stats()
    if stats["shards_local"]:
        print(f"fleet degraded: {stats['shards_local']} shard(s) ran locally "
              "(endpoints unreachable)", file=sys.stderr)
    return Result(result["rendered"], "fleet",
                  f"{path} over {len(coordinator.endpoints)} endpoints / "
                  f"{stats['shards_completed']} shards "
                  f"(retries={stats['retries']} redispatches="
                  f"{stats['redispatches']} warm={stats['shards_skipped_warm']}"
                  f" local={stats['shards_local']})",
                  {"spec": path, "stats": stats})


def _search(args) -> Result:
    """Run (or resume) a SearchSpec JSON: locally through a SearchSession,
    or across --fleet endpoints (one job per rung candidate)."""
    from repro.fleet import FleetError
    from repro.search import SearchSession, SearchSpec, render_search
    from repro.service import ServiceError

    try:
        spec = SearchSpec.from_json(args.search)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise _Fail(f"cannot load search spec {args.search!r}: {exc}")
    fleet = None if args.fleet is None else _fleet_coordinator(args)
    executor = _session_executor(spec.executor, args.backend, args.workers)
    try:
        with SearchSession(store=args.store, backend=executor,
                           fleet=fleet) as session:
            result = session.run(spec)
    except (FleetError, ServiceError) as exc:
        raise _Fail(f"fleet error: {exc}")
    finally:
        if fleet is not None:
            fleet.close()
    stats = asdict(session.stats)
    return Result(render_search(result), "search",
                  f"{args.search} rungs={stats['rungs_total']} resumed="
                  f"{stats['rungs_resumed']} evaluated={stats['evaluated']} "
                  f"computed={stats['computed']} cached={stats['cached']}",
                  {"search": args.search, "stats": stats})


def _serve(args) -> int:
    """Run the sweep service until ``POST /v1/shutdown`` or a signal."""
    import signal
    import threading

    from repro.service import ServiceServer
    from repro.service.server import MAX_FINISHED_JOBS

    port = 8731 if args.port is None else args.port
    try:
        server = ServiceServer(
            host=args.host or "127.0.0.1", port=port, store=args.store,
            backend=args.backend, workers=args.workers,
            queue_workers=args.service_workers or 1,
            queue_cap=args.queue_cap, token=args.token,
            max_finished_jobs=(MAX_FINISHED_JOBS if args.max_finished_jobs
                               is None else args.max_finished_jobs))
    except ValueError as exc:  # e.g. non-loopback bind without a token
        print(f"cannot start service: {exc}", file=sys.stderr)
        return 2

    def stop(signum, frame):
        # shutdown() joins the serve loop, so it must run off-signal-stack
        threading.Thread(target=server.httpd.shutdown, daemon=True).start()

    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, stop)
    print(f"serving on {server.url} "
          f"(store: {args.store or 'none'}, "
          f"workers: {server.service.queue_workers}, "
          f"queue cap: {server.service.queue_cap or 'unbounded'}, "
          f"auth: {'bearer' if server.token else 'open/loopback'}) "
          f"— POST /v1/shutdown to stop",
          flush=True)
    server.serve_forever()
    print("service stopped cleanly", flush=True)
    return 0


def _submit(args) -> Result:
    """Submit a spec file to a running service and return its result."""
    from repro.obs.trace import trace_ingest
    from repro.service import ServiceClient, ServiceError

    client = ServiceClient(args.url or "http://127.0.0.1:8731",
                           token=args.token)
    try:
        ticket = client.submit(args.submit)
        result = client.result(ticket["job"], timeout=600.0)
    except (OSError, ValueError) as exc:  # unreadable file or malformed JSON
        raise _Fail(f"cannot load spec {args.submit!r}: {exc}")
    except ServiceError as exc:
        raise _Fail(f"service error: {exc}")
    spans = result.pop("trace_spans", None) if isinstance(result, dict) else None
    if spans:  # the service's job spans, parented under our trace
        trace_ingest(spans)
    try:
        stats = client.stats() if args.json else None
    except ServiceError:  # stats are best-effort observability
        stats = None
    return Result(result["rendered"], "submit",
                  f"{args.submit} job {ticket['job']} coalesced="
                  f"{str(ticket.get('coalesced', False)).lower()}",
                  {"submit": args.submit, "job": ticket["job"],
                   "stats": stats})


def _verify_store(args) -> int:
    """Check every store entry against its checksum sidecar; print the JSON
    report. Corrupt entries are quarantined (and counted), never served."""
    from repro.store import ResultStore

    try:
        report = ResultStore(args.verify_store).verify()
    except OSError as exc:
        raise _Fail(f"cannot verify store {args.verify_store!r}: {exc}")
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _experiments(args) -> int:
    """Run the named (or, with --all, every) paper experiment."""
    names = list(EXPERIMENTS) if args.all else args.experiments
    if not names:
        _parser().print_help()
        return 2
    timings: dict[str, float] = {}
    for name in names:
        if name not in EXPERIMENTS:
            print(f"unknown experiment {name!r}; use --list", file=sys.stderr)
            return 2
        fn, desc = EXPERIMENTS[name]
        print(f"\n{'=' * 72}\n{name}: {desc}\n{'=' * 72}")
        start = time.time()
        print(fn(args.quick))
        timings[name] = round(time.time() - start, 3)
        print(f"[{name} done in {timings[name]:.1f}s]")
    if args.json:
        _write_json(args.json, {"quick": args.quick, "seconds": timings})
        print(f"[timings written to {args.json}]")
    return 0


def _write_json(path: str, doc: dict, indent: int | None = 2) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=indent)
        fh.write("\n")


class Mode(NamedTuple):
    """How help and errors name a mode, its runner, the flags it accepts."""

    label: str
    run: Callable[[argparse.Namespace], "Result | int"]
    flags: str


_REPLAY = "--json --store --chaos --trace --profile"
_LOCAL = f"{_REPLAY} --backend --workers"  # fleets configure their services
_FLEET = Mode("--spec/--design-spec --fleet", _replay_fleet,
              f"{_REPLAY} --fleet --token --shards")

# The one statement of which flag each run mode accepts. A mode's own flag
# selects it (named experiments count as "--experiments"; they are also the
# default), or its " --fleet" row when --fleet is given. The runner span's
# ``mode`` is the selecting row's name.
MODES: dict[str, Mode] = {
    "experiments": Mode("experiment", _experiments, "--all --quick --json"),
    "spec": Mode("--spec", _replay, _LOCAL),
    "design-spec": Mode("--design-spec", _replay, _LOCAL),
    "spec --fleet": _FLEET,
    "design-spec --fleet": _FLEET,
    "search": Mode("--search", _search, _LOCAL),
    # rungs dispatch one job per candidate, not a shard plan: no --shards
    "search --fleet": Mode("--search --fleet", _search,
                           f"{_REPLAY} --fleet --token"),
    "serve": Mode("--serve", _serve,
                  "--backend --workers --store --chaos --port --host --token "
                  "--service-workers --queue-cap --max-finished-jobs"),
    "submit": Mode("--submit", _submit,
                   "--json --trace --profile --url --token"),
    "verify-store": Mode("--verify-store", _verify_store, ""),
}


def _applies_to(flag: str) -> str:
    """The modes that accept ``flag``, as help and errors name them."""
    return ", ".join(dict.fromkeys(
        mode.label for mode in MODES.values() if flag in mode.flags.split()))


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)

    def bound(flag: str, help: str, **kwargs) -> None:  # help names its modes
        parser.add_argument(flag, help=f"{help}; for {_applies_to(flag)} runs",
                            **kwargs)

    parser.add_argument("experiments", nargs="*", help="experiment ids (see --list)")
    bound("--all", "run every experiment", action="store_true")
    bound("--quick", "reduced sample counts", action="store_true")
    parser.add_argument("--list", action="store_true", help="list experiment ids")
    bound("--json", "write the run's wall-clock seconds (and its layer "
                    "stats) to PATH", metavar="PATH")
    parser.add_argument("--spec", metavar="PATH", help="run a declarative "
                        "RunSpec JSON (repro.api) instead of a named experiment")
    parser.add_argument("--design-spec", metavar="PATH", help="run a "
                        "declarative DesignSweepSpec JSON through a "
                        "DesignSession (joint accuracy x efficiency report)")
    parser.add_argument("--search", metavar="PATH", help="run (or, with "
                        "--store, resume) a SearchSpec JSON: budgeted "
                        "successive-halving design-space search (repro.search)")
    bound("--workers", "session workers", type=_positive_int)
    bound("--backend", "execution backend (overrides the spec's executor "
                       "field; results are bit-identical across backends)",
          choices=("serial", "thread"))
    bound("--store", "persistent result store directory (warm replays are "
                     "served from disk; interrupted sweeps and searches "
                     "resume); with --fleet it backs the coordinator's "
                     "warm-shard payload cache", metavar="DIR")
    parser.add_argument("--serve", action="store_true",
                        help="run the HTTP sweep service (repro.service) over "
                             "one shared session pair until POST /v1/shutdown")
    bound("--port", "listen port (0 = ephemeral; default 8731)", type=int)
    bound("--host", "bind address (default 127.0.0.1; non-loopback binds "
                    "require --token)")
    bound("--service-workers", "job-queue worker pool size (default 1; "
                               "distinct jobs run in parallel, identical "
                               "fingerprints still coalesce)",
          type=_positive_int)
    bound("--queue-cap", "max queued jobs before submits get HTTP 429 + "
                         "Retry-After (default: unbounded)", type=_positive_int)
    bound("--max-finished-jobs", "finished-job retention before the oldest "
                                 "results are dropped (default 1024)",
          type=_positive_int)
    bound("--token", "bearer token: required by --serve on non-loopback "
                     "binds, sent by --submit/--fleet clients (default: the "
                     "REPRO_SERVICE_TOKEN environment variable)")
    parser.add_argument("--submit", metavar="PATH", help="submit a RunSpec/"
                        "DesignSweepSpec/SearchSpec JSON to a running service "
                        "(kind auto-detected) and print its result")
    bound("--url", "service URL (default http://127.0.0.1:8731)", metavar="URL")
    bound("--fleet", "comma-separated service URLs: shard the run across "
                     "them and merge the results byte-identically to a "
                     "local run", metavar="URLS")
    bound("--shards", "shard count (default: one per endpoint; clamped to "
                      "the sharded axis length)", type=_positive_int)
    bound("--chaos", "arm a repro.chaos FaultPlan JSON for the run: "
                     "deterministic fault injection at the layer boundaries "
                     "(recovery keeps results byte-identical; a [chaos ...] "
                     "footer reports the injected counts)", metavar="PATH")
    bound("--trace", "arm the repro.obs tracer for the run and write a "
                     "Chrome trace-event JSON (Perfetto / chrome://tracing) "
                     "to PATH; spans cover every layer crossed, including "
                     "remote service jobs; the result output stays "
                     "byte-identical", metavar="PATH")
    bound("--profile", "arm the repro.obs tracer and print a per-phase "
                       "wall-time tree after the result", action="store_true")
    parser.add_argument("--verify-store", metavar="DIR", help="verify every "
                        "entry of a result-store directory against its "
                        "checksum sidecar and print the JSON report (corrupt "
                        "entries are quarantined, never served)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.list:
        for name, (_, desc) in EXPERIMENTS.items():
            print(f"{name:10s} {desc}")
        return 0
    given = [f"--{dest.replace('_', '-')}" for dest, value in vars(args).items()
             if value is not None and value is not False and value != []]
    picked = [name for name in MODES if f"--{name}" in given]
    if len(picked) > 1:
        print(f"{' and '.join(MODES[name].label for name in picked)} are "
              "mutually exclusive", file=sys.stderr)
        return 2
    name = picked[0] if picked else "experiments"
    mode = MODES.get(f"{name} --fleet" if args.fleet is not None else name,
                     MODES[name])
    for flag in given:
        if flag[2:] not in MODES and flag not in mode.flags.split():
            print(f"{flag} only applies to {_applies_to(flag)} runs",
                  file=sys.stderr)
            return 2
    return _run(mode, name, args)


def _run(mode: Mode, name: str, args) -> int:
    """Run ``mode`` under the tracer (--trace/--profile) and the chaos
    engine (--chaos) it asked for; print its result, then their footers."""
    traced, engine = args.trace is not None or args.profile, None
    with contextlib.ExitStack() as stack:
        if traced:
            from repro.obs import trace

            tracer = stack.enter_context(trace.install())
            stack.enter_context(trace.trace_span("runner", mode=name))
        try:
            if args.chaos is not None:
                from repro import chaos

                try:
                    plan = chaos.FaultPlan.load(args.chaos)
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    raise _Fail(f"cannot load chaos plan {args.chaos!r}: {exc}")
                engine = stack.enter_context(chaos.install(plan))
            start = time.time()
            rc = mode.run(args)
        except _Fail as exc:
            print(exc, file=sys.stderr)
            rc = 2
        if isinstance(rc, Result):
            print(rc.output)
            elapsed = round(time.time() - start, 3)
            print(f"[{rc.tag} {rc.footer} done in {elapsed:.1f}s]")
            if args.json:
                _write_json(args.json, {**rc.doc, "seconds": {rc.tag: elapsed}})
            rc = 0
    if engine is not None:
        stats = engine.stats()
        print(f"[chaos {args.chaos} seed={stats['seed']} "
              f"faults={len(stats['faults'])} "
              f"injected={sum(stats['injected'].values())}]")
    if not traced:
        return rc
    from repro.obs.export import render_profile, to_chrome_trace

    spans = tracer.export()
    if args.trace is not None:
        try:
            _write_json(args.trace, to_chrome_trace(spans), indent=None)
        except OSError as exc:
            print(f"cannot write trace {args.trace!r}: {exc}", file=sys.stderr)
            return 2
        print(f"[trace {args.trace} spans={len(spans)} "
              f"dropped={tracer.dropped}]")
    if args.profile:
        print(render_profile(spans))
    return rc


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
