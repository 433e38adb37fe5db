"""The repo benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig3-sweep --seed 0 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` prints every per-layer metric from a traced run. The last
stdout line is ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it give each metric with its sample count and the run environment,
and ``.perfbench_out/`` keeps the raw samples of the latest run per
workload, seed and trace setting. ``--record`` (seed 0 only) stores the
run's output digest and chosen inputs in ``perfbench/expected.json``, which
later seed-0 runs check against.

A run starts ``WORKERS`` fresh worker processes one after another. Each
sets the workload up from a fresh interpreter (``setup_s`` is the median of
these set-up times) and then runs its share of the ``--seconds`` budget;
their samples are pooled, so no single process's memory layout decides the
result. Peak RSS is the largest resident set of any process the run
started, services included.

The older ``benchmarks/report.py`` rows and the ``benchmarks/test_bench_*``
harness are left as they are; folding them into this benchmark is planned
as a separate change.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import queue
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("fig3-sweep", "accuracy-conv", "design-search", "service-mix")
WORKERS = 3
RUN_BUDGET_S = 170.0  # the whole run, set-ups included, must end within this


class WorkerError(RuntimeError):
    pass


def _reader(stream, lines: queue.Queue) -> None:
    for line in stream:
        lines.put((time.perf_counter(), line))
    lines.put((time.perf_counter(), None))


def run_worker(args: list[str], env: dict, deadline: float) -> tuple[float, dict, dict]:
    """Run one worker; returns ``(seconds to READY, ready info, result)``."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "perfbench.worker", *args],
                            stdout=subprocess.PIPE, text=True, cwd=str(ROOT),
                            env=env, start_new_session=True)
    lines: queue.Queue = queue.Queue()
    reader = threading.Thread(target=_reader, args=(proc.stdout, lines), daemon=True)
    reader.start()
    ready_s, info, result = None, {}, None
    try:
        while True:
            stamp, line = lines.get(timeout=max(0.0, deadline - time.perf_counter()))
            if line is None:
                break
            if line.startswith("READY "):
                ready_s, info = stamp - start, json.loads(line[6:])
            elif line.startswith("RESULT "):
                result = json.loads(line[7:])
        code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except (queue.Empty, subprocess.TimeoutExpired):
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and its services
        proc.wait()
        raise WorkerError("worker exceeded the run's time budget") from None
    finally:
        reader.join(timeout=5)
        proc.stdout.close()
    if code != 0 or ready_s is None or result is None:
        raise WorkerError(f"worker exited with code {code} without a result")
    return ready_s, info, result


def environment(numpy_version: str) -> dict:
    nproc = shutil.which("nproc")
    out = subprocess.run([nproc], capture_output=True, text=True).stdout if nproc else ""
    return {"cpus": len(os.sched_getaffinity(0)),
            "nproc": int(out) if out.strip().isdigit() else os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy_version,
            "machine": platform.machine()}


def pool(parts: list[dict]) -> dict:
    """Pool the workers' raw samples; a digest that differs between workers
    counts as one more failed operation."""
    out = {"kind": parts[0]["kind"], "attempted": 0, "failed": 0, "errors": []}
    for key in ("op_seconds", "traced_op_seconds", "op_rows", "layer_rows",
                "jobs", "serve_start_s"):
        out[key] = [x for p in parts for x in p.get(key, [])]
    for key in ("timed_wall_s", "kernel_rows", "requests"):
        out[key] = sum(p.get(key, 0) for p in parts)
    out["totals"] = {}
    for p in parts:
        out["attempted"] += p["attempted"]
        out["failed"] += p["failed"]
        out["errors"] += p["errors"]
        for key, value in p.get("totals", {}).items():
            out["totals"][key] = out["totals"].get(key, 0) + value
    digests = {p["digest"] for p in parts}
    if len(digests) > 1:
        out["attempted"] += 1
        out["failed"] += 1
        out["errors"].append("workers of one run produced different outputs")
    out["digest"] = parts[0]["digest"]
    return out


def end_to_end(result: dict, setup_s: list[float], peak_rss_mb: float) -> dict:
    from perfbench.stats import median, percentile, tail_percentile

    ops = result["op_seconds"]
    if not ops:  # every op raised; the result line reports them as failed
        return {}
    p = tail_percentile(len(ops))
    if result["kind"] == "service":
        wall = result["timed_wall_s"]
        ops_per_s, ips = len(ops) / wall, result["kernel_rows"] / wall
    else:
        ops_per_s = len(ops) / sum(ops)
        ips = median(result["op_rows"]) / median(ops)
    return {
        "setup_s": (median(setup_s), f"median of {len(setup_s)} set-ups"),
        "op_p50_ms": (median(ops) * 1e3, f"median of {len(ops)} ops"),
        "op_tail_ms": (percentile(ops, p or 50) * 1e3,
                       f"p{p} of {len(ops)} ops" if p is not None
                       else f"p50 of {len(ops)} ops: too few for a tail percentile"),
        "ops_per_s": (ops_per_s, f"{len(ops)} ops"),
        "emulated_ips": (ips, "emulated inner products / op time"),
        "peak_rss_mb": (peak_rss_mb, "largest process of the run"),
    }


def per_layer(result: dict, setups: list[dict]) -> dict:
    from perfbench.stats import median, percentile

    rows = result["layer_rows"]
    values = {k: median([row.get(k, 0.0) for row in rows])
              for k in {k for row in rows for k in row}}
    if result["kind"] == "service":
        totals, requests = result["totals"], max(result["requests"], 1)
        lookups = totals.get("store.hits", 0) + totals.get("store.misses", 0)
        values["store.hit_ratio"] = totals.get("store.hits", 0) / lookups if lookups else 0.0
        # counters per request, the service workload's unit of work
        values.update({k: v / requests for k, v in totals.items()
                       if k not in ("store.hits", "store.misses")})
        jobs = result["jobs"]
        for key, name in (("http_s", "service.client.http_s"),
                          ("queue_wait_s", "service.queue_wait_s"),
                          ("job_s", "service.job_s")):
            values[name] = median([j[key] for j in jobs]) if jobs else 0.0
        # store reads dominate the median job; computes (kernels, tile sims) the tail
        values["service.job_p95_s"] = percentile([j["job_s"] for j in jobs], 95) if jobs else 0.0
    traced, plain = result["traced_op_seconds"], result["op_seconds"]
    if traced and plain:
        values["bench.trace_overhead_frac"] = (median(traced) - median(plain)) / median(plain)
    values["bench.failed_frac"] = result["failed"] / max(result["attempted"], 1)
    values["setup.import_s"] = median([s["import_s"] for s in setups])
    values["setup.train_s"] = median([s.get("train_s", 0.0) for s in setups])
    values["setup.serve_start_s"] = median(result["serve_start_s"] or [0.0])
    return {k: (v, "") for k, v in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this seed-0 run's digest and inputs")
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record and args.seed != 0:
        print("perfbench: --record stores seed-0 digests only", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    workdir = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    base_args = ["--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds / WORKERS), "--trace", str(args.trace),
                 "--workdir", str(workdir)] + (["--record"] if args.record else [])
    deadline = started + RUN_BUDGET_S
    setup_s, setups, parts = [], [], []
    try:
        for part in range(WORKERS):
            ready_s, info, result = run_worker([*base_args, "--part", str(part)],
                                               env, deadline)
            setup_s.append(ready_s)
            setups.append(info)
            parts.append(result)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    result = pool(parts)
    env_info = environment(parts[0]["numpy"])

    if args.trace:
        measured, wanted = per_layer(result, setups), spec["per_layer"]
    else:
        measured, wanted = end_to_end(result, setup_s, peak_rss_mb), spec["end_to_end"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"env={json.dumps(env_info, sort_keys=True)}")
    metrics = {}
    for metric in wanted:
        value, note = measured.get(metric["name"], (0.0, "not measured in this run"))
        metrics[metric["name"]] = {"value": float(value), "unit": metric["unit"]}
        print(f"  {metric['name']:<32} {value:>14.6g} {metric['unit']:<6} {note}")
    for error in result["errors"][:10]:
        print(f"  error: {error}")
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": env_info, "setup_s": setup_s, "setups": setups,
              "inputs": parts[0]["inputs"], "result": result, "metrics": metrics}
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    if args.record:
        expected_path = HERE / "expected.json"
        expected = json.loads(expected_path.read_text()) if expected_path.is_file() else {}
        expected[args.workload] = {"seed": 0, "digest": result["digest"],
                                   "inputs": parts[0]["inputs"]}
        expected_path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
