"""One benchmark process: set up a workload, then time its passes.

Started by :mod:`perfbench.run` as ``python -m perfbench.worker``; a run
starts several of these one after another and pools their samples. A
worker prints ``READY <json>`` once set-up is done (the parent times
interpreter start to that line as ``setup_s``) and then ``RESULT <json>``
with raw samples. Untraced runs time every pass; traced runs (``--trace
1``) alternate untraced and traced passes, so the tracing overhead is the
difference of their medians.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

_T0 = time.perf_counter()

from perfbench import workloads as wl_mod  # noqa: E402  (imports repro + NumPy)
from perfbench.spans import Patches, Tracer, layer_totals, self_times  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = Path(__file__).resolve().parent / "expected.json"
DEFAULT_SEED = 0

# Layers whose per-pass self time is reported as "<layer>.self_s".
SELF_LAYERS = ("nn.sampling", "ipu.reference", "ipu.engine.pack",
               "ipu.engine.kernels", "api.session", "analysis.error",
               "api.report", "analysis.accuracy", "analysis.accuracy.conv",
               "nn.functional", "nn.layers", "search", "api.design",
               "tile.simulator", "hw.cost", "fleet")
# Layers whose per-pass span count is reported as "<layer>.calls".
CALL_LAYERS = ("ipu.engine.pack", "ipu.engine.kernels", "analysis.error",
               "analysis.accuracy.conv", "tile.simulator")


def expected_digest(name: str) -> str | None:
    try:
        return json.loads(EXPECTED.read_text())[name]["digest"]
    except (OSError, ValueError, KeyError):
        return None


def split_trees(spans) -> list[list]:
    """Group spans by their ``bench.pass`` root (one group per pass)."""
    by_id = {s.id: s for s in spans}
    groups: dict[int, list] = {}
    for span in spans:
        root = span
        while root.parent is not None and root.parent in by_id:
            root = by_id[root.parent]
        if root.name == "bench.pass":
            groups.setdefault(root.id, []).append(span)
    return list(groups.values())


def pass_layers(spans) -> dict:
    """Per-layer numbers of one traced pass (one ``bench.pass`` tree)."""
    totals = layer_totals(spans)
    root = next(s for s in spans if s.name == "bench.pass")
    out = {"bench.unattributed_frac":
           self_times(spans)[root.id][0] / max(root.end - root.start, 1e-12)}
    for layer in SELF_LAYERS:
        out[f"{layer}.self_s"] = totals.get(layer, {}).get("self_s", 0.0)
    for layer in CALL_LAYERS:
        out[f"{layer}.calls"] = totals.get(layer, {}).get("calls", 0)
    executor = totals.get("api.executor", {})
    out["api.executor.wait_s"] = executor.get("self_s", 0.0)
    out["api.executor.kernels_union_s"] = executor.get("child_union_s", 0.0)
    out["api.executor.kernels_sum_s"] = executor.get("child_sum_s", 0.0)
    out["fleet.plan_s"] = totals.get("fleet.plan", {}).get("self_s", 0.0)
    out["fleet.merge_s"] = totals.get("fleet.merge", {}).get("self_s", 0.0)
    return out


def timed_pass(wl, tracing: bool):
    """One pass: ``(output, counters, seconds, layer row or None)``."""
    tracer = Tracer() if tracing else None
    patches = Patches()
    try:
        if tracing:
            wl_mod.install_layer_spans(tracer, patches)
            root = tracer.open("bench.pass")
        t0 = time.perf_counter()
        try:
            output, counters = wl.run_pass(tracer)
        finally:
            elapsed = time.perf_counter() - t0
            if tracing:
                tracer.close(root)
    finally:
        patches.restore()
    layers = {**pass_layers(tracer.take()), **counters} if tracing else None
    return output, counters, elapsed, layers


def measure_batch(wl, seconds: float, trace: bool, expected: str | None,
                  golden: bool) -> dict:
    out = {"kind": "batch", "attempted": 0, "failed": 0, "errors": [],
           "digest": None, "golden_rows_checked": 0, "op_seconds": [],
           "traced_op_seconds": [], "op_rows": [], "layer_rows": []}

    def check(output, what: str) -> str | None:
        d = wl_mod.digest(output)
        out["digest"] = out["digest"] or d
        if d != out["digest"]:
            return f"{what}: digest differs from the run's first pass"
        if expected is not None and d != expected:
            return f"{what}: digest differs from the recorded seed-0 digest"
        return None

    if golden:
        # untimed check pass: its kernel rows are replayed on the golden model
        output, _, bad, out["golden_rows_checked"] = wl.golden_pass()
        out["attempted"] += 1
        error = bad[0] if bad else check(output, "golden pass")
        if error is not None:
            out["failed"] += 1
            out["errors"].append(error)
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        tracing = trace and i % 2 == 1
        out["attempted"] += 1
        try:
            output, counters, elapsed, layers = timed_pass(wl, tracing)
        except Exception as exc:  # a failed pass is counted, not fatal
            output, error = None, f"pass {i}: {type(exc).__name__}: {exc}"
        else:
            error = check(output, f"pass {i}")
            # a pass that ran to the end is timed even if its output is wrong
            if tracing:
                out["traced_op_seconds"].append(elapsed)
                out["layer_rows"].append(layers)
            else:
                out["op_seconds"].append(elapsed)
                out["op_rows"].append(counters["ipu.engine.rows"])
        if error is not None:
            out["failed"] += 1
            out["errors"].append(error)
        i += 1
        if time.perf_counter() >= deadline and (not trace or i >= 2):
            return out


def measure_service(wl, seconds: float, trace: bool, expected: str | None,
                    refs_file: Path) -> dict:
    out = {"kind": "service", "attempted": 0, "failed": 0, "errors": [],
           "op_seconds": [], "traced_op_seconds": [], "timed_wall_s": 0.0,
           "kernel_rows": 0, "requests": 0, "layer_rows": [], "jobs": [],
           "totals": {}}
    out["digest"] = wl.load_or_compute_refs(refs_file)
    if expected is not None and out["digest"] != expected:
        out["attempted"] = out["failed"] = 1
        out["errors"].append("reference results differ from the recorded seed-0 digest")
    totals = out["totals"]
    timed, rounds = 0.0, 0
    while timed < seconds or (trace and rounds < 2):
        tracing = trace and rounds % 2 == 1
        r = wl.run_round(Tracer() if tracing else None)
        timed += r["wall_s"]
        rounds += 1
        out["attempted"] += len(r["latencies"])
        out["failed"] += len(r["errors"])
        out["errors"].extend(r["errors"][:3])
        out["requests"] += len(r["latencies"])
        if tracing:
            out["traced_op_seconds"].extend(r["latencies"])
            out["layer_rows"].extend(pass_layers(tree) for tree in split_trees(r["spans"]))
            out["jobs"].extend(r["jobs"])
        else:
            out["op_seconds"].extend(r["latencies"])
            out["timed_wall_s"] += r["wall_s"]
            out["kernel_rows"] += sum(s["emulation"]["kernel_rows"]
                                      for s in r["service_stats"])
        for key, value in r["counts"].items():
            totals[key] = totals.get(key, 0) + value
    out["serve_start_s"] = wl.serve_start_s
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl_mod.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--part", type=int, default=0,
                        help="index of this worker in the run; part 0 runs the "
                             "one-off checks (golden rows, service references)")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--record", action="store_true",
                        help="skip the seed-0 digest check (the parent records it)")
    args = parser.parse_args(argv)
    wl = wl_mod.make_workload(args.workload, args.seed, ROOT,
                              args.workdir / f"part-{args.part}", args.part)
    try:
        info = {"import_s": IMPORT_S, **wl.setup()}
        print("READY " + json.dumps(info), flush=True)
        expected = (expected_digest(wl.name)
                    if args.seed == DEFAULT_SEED and not args.record else None)
        if isinstance(wl, wl_mod.ServiceMix):
            result = measure_service(wl, args.seconds, bool(args.trace), expected,
                                     args.workdir / "refs.json")
        else:
            result = measure_batch(wl, args.seconds, bool(args.trace), expected,
                                   golden=args.part == 0
                                   and isinstance(wl, wl_mod.Fig3Sweep))
        result["inputs"] = wl.inputs()
        result["numpy"] = wl_mod.np.__version__
        print("RESULT " + json.dumps(result), flush=True)
    finally:
        wl.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
