"""repro.store: fingerprints, atomicity, LRU budget, resumable sweeps."""

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from repro.api import (
    DesignPoint,
    DesignSession,
    DesignSweepSpec,
    EmulationSession,
    ExecutorSpec,
    PrecisionPoint,
    RunSpec,
)
from repro.api.design import DesignReport
from repro.api.session import sweep_points_to_dicts
from repro.service import SweepService
from repro.store import ResultStore, fingerprint

QUICK_SPEC = Path(__file__).resolve().parents[2] / "examples" / "specs" / "fig3_quick.json"

SPEC = RunSpec(name="store-spec", sources=("laplace", "normal"),
               points=(PrecisionPoint(12), PrecisionPoint(16),
                       PrecisionPoint(16, accumulator="fp16")),
               batch=600, n=8, seed=7)


# -- fingerprints ------------------------------------------------------------


class TestFingerprints:
    def test_stable_across_processes(self):
        """Keys must not depend on PYTHONHASHSEED or process state."""
        code = (
            "from repro.api import RunSpec, PrecisionPoint, DesignPoint\n"
            "spec = RunSpec(name='store-spec', sources=('laplace', 'normal'),"
            " points=(PrecisionPoint(12), PrecisionPoint(16),"
            " PrecisionPoint(16, accumulator='fp16')), batch=600, n=8, seed=7)\n"
            "print(spec.fingerprint())\n"
            "print(DesignPoint.from_dict('MC-IPU4').fingerprint())\n"
        )
        env = dict(os.environ, PYTHONHASHSEED="12345")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        run_fp, point_fp = out.stdout.split()
        assert run_fp == SPEC.fingerprint()
        assert point_fp == DesignPoint.from_dict("MC-IPU4").fingerprint()

    def test_name_executor_engine_never_change_results_nor_keys(self):
        renamed = RunSpec.from_dict({**SPEC.to_dict(), "name": "other"})
        threaded = RunSpec.from_dict(
            {**SPEC.to_dict(), "executor": ExecutorSpec("thread", 2)})
        assert renamed.fingerprint() == SPEC.fingerprint()
        assert threaded.fingerprint() == SPEC.fingerprint()
        # spec JSON may carry the retired "engine" key with any value: it
        # loads, and the stored-result keys stay the pinned historical ones
        quick = json.loads(QUICK_SPEC.read_text())
        acc = RunSpec(name="t", sources=("laplace",), batch=300, n=8, seed=2)
        for engine in (None, "numpy", "compiled", "any-retired-name"):
            legacy = RunSpec.from_dict({**quick, "engine": engine})
            assert legacy.fingerprint() == "effd0ca85db771486e8ce6ed3da05231"
            design = DesignSweepSpec.grid(
                designs=("MC-IPU4", "INT8"), samples=24,
                accuracy={**acc.to_dict(), "engine": engine})
            assert design.fingerprint() == "b019525e073de91db487d5b7aaa23d4e"
        from repro.service import ServiceClient, ServiceServer

        with ServiceServer(port=0) as server:
            result = ServiceClient(server.url).run(
                {**SPEC.to_dict(), "engine": "compiled"}, kind="sweep")
        assert result["fingerprint"] == SPEC.fingerprint()

    def test_result_fields_change_keys(self):
        for change in ({"seed": 8}, {"batch": 601}, {"sources": ["laplace"]},
                       {"points": [PrecisionPoint(12).to_dict()]}):
            other = RunSpec.from_dict({**SPEC.to_dict(), **change})
            assert other.fingerprint() != SPEC.fingerprint(), change

    def test_design_sweep_fingerprint(self):
        spec = DesignSweepSpec.grid(designs=("MC-IPU4", "INT8"), samples=24)
        again = DesignSweepSpec.from_dict({**spec.to_dict(), "name": "x"})
        assert spec.fingerprint() == again.fingerprint()
        assert spec.fingerprint() != DesignSweepSpec.grid(
            designs=("MC-IPU4",), samples=24).fingerprint()

    def test_salt_invalidates(self):
        assert fingerprint({"a": 1}) != fingerprint({"a": 1}, salt="v2")

    def test_custom_design_fingerprint_keys_on_geometry_not_name(self):
        """Re-registering a custom name with different geometry in another
        process must miss the store, never inherit the old report."""
        code = (
            "from repro.hw.designs import Design\n"
            "from repro.api import DesignPoint, register_design\n"
            "register_design(Design('custom-fp', 8, 4, {width}, 'temporal', 4))\n"
            "print(DesignPoint.from_dict('custom-fp').fingerprint())\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p)

        def run(width):
            out = subprocess.run([sys.executable, "-c", code.format(width=width)],
                                 env=env, capture_output=True, text=True,
                                 check=True)
            return out.stdout.strip()

        assert run(24) == run(24)  # same geometry: stable key
        assert run(24) != run(20)  # same name, new geometry: a miss


# -- the store itself --------------------------------------------------------


FP = "ab" + "0" * 30
FP2 = "cd" + "1" * 30


class TestResultStore:
    def test_json_round_trip_and_stats(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get_json("kind", FP) is None
        store.put_json("kind", FP, {"x": [1.5, float("nan")]})
        got = store.get_json("kind", FP)
        assert got["x"][0] == 1.5 and np.isnan(got["x"][1])
        assert store.stats.hits == 1 and store.stats.misses == 1
        assert store.stats.puts == 1 and store.stats.bytes > 0

    def test_arrays_round_trip_bit_exact(self, tmp_path):
        store = ResultStore(tmp_path)
        values = np.random.default_rng(0).standard_normal(257)
        store.put_arrays("chunks", FP, {"k0": values, "k1": values[::-1].copy()})
        got = store.get_arrays("chunks", FP)
        assert got["k0"].dtype == np.float64
        assert np.array_equal(got["k0"], values)
        assert np.array_equal(got["k1"], values[::-1])

    def test_rejects_non_hex_fingerprints(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(ValueError):
            store.get_json("kind", "../../etc/passwd")

    @pytest.mark.parametrize("fp", ["", "ABCDEF", "abcG", "0x1f", "../ab",
                                    "ab/cd", "ab\n", " ab", "١"])
    def test_path_rejects_anything_but_lowercase_hex(self, tmp_path, fp):
        with pytest.raises(ValueError, match="lowercase hex"):
            ResultStore(tmp_path)._path("kind", fp, ".json")

    def test_path_accepts_every_hex_digit(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store._path("kind", "0123456789abcdef", ".json")
        assert path == tmp_path / "kind" / "01" / "0123456789abcdef.json"

    def test_partial_file_never_served(self, tmp_path):
        """A torn entry (crash mid-sector) is a miss, not garbage data."""
        store = ResultStore(tmp_path)
        store.put_json("kind", FP, {"x": 1})
        path = store._path("kind", FP, ".json")
        path.write_bytes(path.read_bytes()[:-4])  # tear the tail off
        assert ResultStore(tmp_path).get_json("kind", FP) is None
        assert not path.exists()  # corrupt entries are dropped
        store.put_arrays("kind", FP2, {"k0": np.arange(4.0)})
        npz = store._path("kind", FP2, ".npz")
        npz.write_bytes(npz.read_bytes()[: npz.stat().st_size // 2])
        assert ResultStore(tmp_path).get_arrays("kind", FP2) is None

    def test_crashed_writer_tmp_file_invisible(self, tmp_path):
        store = ResultStore(tmp_path, evict_grace_seconds=0.0)
        stale = tmp_path / "kind" / FP[:2] / f".{FP[:8]}-dead.tmp"
        stale.parent.mkdir(parents=True)
        stale.write_bytes(b'{"x": 1')  # a writer died mid-write
        assert store.get_json("kind", FP) is None
        old = time.time() - 7200
        os.utime(stale, (old, old))
        store.max_bytes = 1
        store.put_json("kind", FP2, {"y": 2})  # triggers eviction + sweep
        assert not stale.exists()

    def test_lru_eviction_at_byte_budget(self, tmp_path):
        store = ResultStore(tmp_path, evict_grace_seconds=0.0)
        payload = {"data": "z" * 200}
        now = time.time()
        for i, fp in enumerate((FP, FP2)):
            store.put_json("kind", fp, payload)
            # entry mtimes order the LRU scan; make the order unambiguous
            os.utime(store._path("kind", fp, ".json"),
                     (now - 200 + i, now - 200 + i))
        store.max_bytes = 1
        store.put_json("kind", "ee" + "2" * 30, payload)
        assert store.stats.evictions == 2
        assert not store.contains("kind", FP)
        assert not store.contains("kind", FP2)
        # the newest entry survives even when it alone exceeds the budget
        assert store.contains("kind", "ee" + "2" * 30)

    def test_read_bumps_lru_recency(self, tmp_path):
        store = ResultStore(tmp_path, max_bytes=500,
                            evict_grace_seconds=0.0)
        payload = {"data": "z" * 200}
        now = time.time()
        for i, fp in enumerate((FP, FP2)):
            store.put_json("kind", fp, payload)
            os.utime(store._path("kind", fp, ".json"),
                     (now - 100 + i, now - 100 + i))
        assert store.get_json("kind", FP) is not None  # FP is now most recent
        store.put_json("kind", "ee" + "2" * 30, payload)  # evicts one entry
        assert store.contains("kind", FP)
        assert not store.contains("kind", FP2)

    def test_checksum_mismatch_quarantined_never_served(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put_json("kind", FP, {"x": 1})
        path = store._path("kind", FP, ".json")
        # flip committed bytes without touching the sidecar (disk bit-rot /
        # an injected store-corrupt fault): still valid JSON, wrong sum
        path.write_bytes(path.read_bytes().replace(b"1", b"7"))
        assert store.get_json("kind", FP) is None  # a miss, not garbage
        assert store.stats.quarantined == 1
        assert not path.exists()
        evidence = list((tmp_path / ".quarantine").iterdir())
        assert any(p.name.startswith("kind__") for p in evidence)
        # the caller recomputes and the key serves correctly again
        store.put_json("kind", FP, {"x": 1})
        assert store.get_json("kind", FP) == {"x": 1}

    def test_verify_quarantines_backfills_and_repair_purges(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put_json("kind", FP, {"x": 1})
        store.put_arrays("kind", FP2, {"k0": np.arange(4.0)})
        good = store._path("kind", FP, ".json")
        bad = store._path("kind", FP2, ".npz")
        bad.write_bytes(bad.read_bytes()[:-2] + b"zz")
        store._sum_path(good).unlink()  # an entry from an older store
        report = ResultStore(tmp_path).verify()
        assert report["checked"] == 2
        assert report["quarantined"] == 1
        assert report["backfilled"] == 1
        assert report["quarantine_entries"] == 1
        clean = ResultStore(tmp_path)
        assert clean.verify() == {"checked": 1, "ok": 1, "quarantined": 0,
                                  "backfilled": 0, "quarantine_entries": 1,
                                  "purged": 0}
        assert clean.repair()["purged"] == 2  # the entry + its sidecar
        assert not any((tmp_path / ".quarantine").iterdir())

    def test_grace_window_shields_fresh_entries_from_eviction(self, tmp_path):
        store = ResultStore(tmp_path, max_bytes=1, evict_grace_seconds=60.0)
        store.put_json("kind", FP, {"data": "z" * 200})
        store.put_json("kind", FP2, {"data": "z" * 200})
        # both entries are over budget but inside the grace window
        assert store.stats.evictions == 0
        assert store.contains("kind", FP) and store.contains("kind", FP2)

    def test_concurrent_puts_and_evictions_never_corrupt(self, tmp_path):
        """The eviction-vs-put race (satellite): one thread hammering puts
        while another forces eviction sweeps must never surface an error or
        serve a torn payload."""
        store = ResultStore(tmp_path, max_bytes=2048,
                            evict_grace_seconds=0.05)
        errors = []
        payload = {"data": "z" * 300}
        stop = threading.Event()

        def writer():
            try:
                for i in range(120):
                    fp = f"{i % 6:02d}" + "b" * 30
                    store.put_json("race", fp, payload)
                    got = store.get_json("race", fp)
                    assert got is None or got == payload
            except Exception as exc:  # noqa: BLE001 - surface in main thread
                errors.append(exc)
            finally:
                stop.set()

        def evictor():
            try:
                while not stop.is_set():
                    store.put_json("churn", "ff" + "c" * 30,
                                   {"data": "y" * 600})
                    time.sleep(0.002)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=writer),
                   threading.Thread(target=evictor)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert store.stats.quarantined == 0
        report = store.verify()
        assert report["quarantined"] == 0

    def test_concurrent_writers_and_readers(self, tmp_path):
        store = ResultStore(tmp_path)
        errors = []

        def work(seed):
            try:
                rng = np.random.default_rng(seed % 4)  # contended keys
                fp = f"{seed % 4:02d}" + "a" * 30
                payload = {"values": list(rng.standard_normal(8))}
                for _ in range(20):
                    store.put_json("race", fp, payload)
                    got = store.get_json("race", fp)
                    assert got is None or got == payload
            except Exception as exc:  # noqa: BLE001 - surface in main thread
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for seed in range(4):
            assert store.get_json("race", f"{seed:02d}" + "a" * 30) is not None


# -- session integration -----------------------------------------------------


class TestStoreBackedSweeps:
    @pytest.fixture(scope="class")
    def reference(self):
        with EmulationSession() as session:
            return session.sweep(SPEC)

    def test_explicit_rng_disables_persistence(self, tmp_path, reference):
        store = ResultStore(tmp_path / "rng")
        with EmulationSession(store=store) as session:
            got = session.sweep(SPEC, rng=SPEC.seed)
        assert got.points == reference.points
        assert store.stats.puts == 0

    def test_interrupted_sweep_resumes_only_missing_chunks(self, tmp_path):
        spec = RunSpec(name="resume", sources=("laplace",),
                       points=(PrecisionPoint(12), PrecisionPoint(16)),
                       batch=1000, n=8, seed=11)
        store_dir = tmp_path / "resume"

        def counting_session(fail_after=None):
            session = EmulationSession(store=store_dir, chunk_rows=200)
            real = session._run_points
            calls = []

            def wrapper(*args, **kwargs):
                if fail_after is not None and len(calls) >= fail_after:
                    raise KeyboardInterrupt("simulated kill")
                calls.append(1)
                return real(*args, **kwargs)

            session._run_points = wrapper
            return session, calls

        session, calls = counting_session()
        total_blocks = len(session._block_spans((spec.batch, spec.n)))
        assert total_blocks == 5
        session.close()

        session, calls = counting_session(fail_after=2)
        with pytest.raises(KeyboardInterrupt):
            session.sweep(spec)
        assert len(calls) == 2  # two chunks computed, then the "kill"
        session.close()

        session, calls = counting_session()
        resumed = session.sweep(spec)
        assert len(calls) == total_blocks - 2  # only the missing chunks ran
        session.close()

        with EmulationSession() as session:
            fresh = session.sweep(spec)
        assert resumed.points == fresh.points

    def test_store_shared_across_accumulator_variants(self, tmp_path):
        """Chunk entries are keyed below the kernel grid: accumulator-only
        point variants reuse every stored chunk, regardless of which
        accumulator a spec's kernel dedup happened to see first."""
        base = RunSpec(name="a", sources=("laplace",),
                       points=(PrecisionPoint(16),), batch=800, n=8, seed=2)
        extended = base.with_points((PrecisionPoint(16),
                                     PrecisionPoint(16, accumulator="fp16")))
        fp16_first = base.with_points((PrecisionPoint(16, accumulator="fp16"),))
        store = ResultStore(tmp_path / "shared")
        with EmulationSession(store=store, chunk_rows=200) as session:
            session.sweep(base)
            session._run_points = None  # any kernel execution would crash now
            got = session.sweep(extended)
            got_fp16 = session.sweep(fp16_first)
        with EmulationSession() as session:
            want = session.sweep(extended)
            want_fp16 = session.sweep(fp16_first)
        assert got.points == want.points
        assert got_fp16.points == want_fp16.points

    def test_closed_session_rejects_sweeps_even_when_warm(self, tmp_path):
        session = EmulationSession(store=tmp_path / "closed")
        session.sweep(SPEC)
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            session.sweep(SPEC)


THREE = RunSpec(name="three", sources=("laplace", "normal", "uniform"),
                points=(PrecisionPoint(12), PrecisionPoint(16)),
                batch=400, n=8, seed=5)


class TestWarmSweepsDrawNoOperands:
    """A source is sampled only while some source at or after it is cold."""

    @pytest.fixture(scope="class")
    def reference(self):
        with EmulationSession() as session:
            return session.sweep(THREE)

    @pytest.fixture
    def sampled(self, monkeypatch):
        """The sources whose operands the sweep draws, in draw order."""
        import repro.api.session as session_module

        calls, real = [], session_module._operands_for

        def counting(source, *args):
            calls.append(source)
            return real(source, *args)

        monkeypatch.setattr(session_module, "_operands_for", counting)
        return calls

    def test_fully_warm_sweep_samples_nothing(self, tmp_path, reference,
                                              sampled):
        with EmulationSession(store=tmp_path / "w") as session:
            session.sweep(THREE)
        assert sampled == list(THREE.sources)
        sampled.clear()
        store = ResultStore(tmp_path / "w")
        with EmulationSession(store=store) as session:
            warm = session.sweep(THREE)
        assert sampled == []
        assert warm.points == reference.points
        # still exactly one sweep-source read per source, all hits
        assert (store.stats.hits, store.stats.misses) == (len(THREE.sources), 0)

    @pytest.mark.parametrize("dropped", [0, 1, 2])
    def test_partially_warm_sweep_samples_up_to_the_cold_source(
            self, tmp_path, reference, sampled, dropped):
        store = ResultStore(tmp_path / "p")
        with EmulationSession(store=store) as session:
            session.sweep(THREE)
        source_fp = fingerprint({"sweep_source": THREE.fingerprint(),
                                 "index": dropped,
                                 "source": THREE.sources[dropped]})
        store._path("sweep-source", source_fp, ".json").unlink()
        sampled.clear()
        with EmulationSession(store=store) as session:
            got = session.sweep(THREE)
        assert sampled == list(THREE.sources[:dropped + 1])
        assert got.points == reference.points

    def test_explicit_rng_samples_every_source(self, tmp_path, reference,
                                               sampled):
        with EmulationSession(store=tmp_path / "r") as session:
            session.sweep(THREE)
            sampled.clear()
            got = session.sweep(THREE, rng=THREE.seed)
        assert sampled == list(THREE.sources)
        assert got.points == reference.points

    def test_repeated_service_sweep_job_samples_nothing(self, tmp_path,
                                                        sampled):
        service = SweepService(store=tmp_path / "svc")
        try:
            first, _ = service.submit("sweep", THREE.to_dict())
            assert first.done.wait(60) and first.status == "done"
            sampled.clear()
            again, coalesced = service.submit("sweep", THREE.to_dict())
            assert not coalesced
            assert again.done.wait(60) and again.status == "done"
        finally:
            service.close()
        assert sampled == []
        assert again.result["points"] == first.result["points"]


class TestStoreBackedDesignSession:
    SPEC = DesignSweepSpec.grid(name="grid", designs=("MC-IPU4", "INT8"),
                                tiles=("small",), samples=24, rng=41)

    @pytest.fixture(scope="class")
    def reference(self):
        with DesignSession() as session:
            return session.sweep(self.SPEC)

    def test_report_json_round_trip(self, reference):
        for report in reference:
            clone = DesignReport.from_dict(
                json.loads(json.dumps(report.to_dict())))
            assert clone == report

    def test_encoding_equals_asdict_bytes(self, reference):
        """The wire encoding skips asdict's deep copy, not a key or byte."""
        def asdict_points(points):
            return [{"source": p.source, "acc_fmt": p.acc_fmt,
                     "precision": p.precision, "stats": asdict(p.stats)}
                    for p in points]

        assert any(report.accuracy for report in reference)
        assert any(e is not None for report in reference
                   for e in report.efficiency)
        for report in reference:
            want = {**report.to_dict(),
                    "efficiency": [None if e is None else asdict(e)
                                   for e in report.efficiency],
                    "accuracy": asdict_points(report.accuracy)}
            assert json.dumps(report.to_dict()) == json.dumps(want)
        with EmulationSession() as session:
            points = session.sweep(SPEC).points
        assert (json.dumps(sweep_points_to_dicts(points))
                == json.dumps(asdict_points(points)))

    def test_cold_warm_and_pool_hits(self, tmp_path, reference):
        with DesignSession(store=tmp_path / "d") as session:
            assert session.sweep(self.SPEC) == reference
        with DesignSession(store=tmp_path / "d", workers=2) as session:
            assert session.sweep(self.SPEC) == reference
            assert session.stats.hits.get("report") == len(self.SPEC.points())
            assert session.stats.tasks_dispatched == 0  # nothing left to pool

    def test_cold_pool_sweep_consults_store_once_per_point(self, tmp_path,
                                                           reference):
        with DesignSession(store=tmp_path / "once", workers=2) as session:
            assert session.sweep(self.SPEC) == reference
            # one store consultation per point — the pool dispatch must not
            # repeat the prefetch's lookup (would double-count every miss)
            assert session.stats.misses.get("report") == len(self.SPEC.points())
            assert session.stats.hits.get("report") is None
