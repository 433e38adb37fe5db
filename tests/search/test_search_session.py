"""SearchSession: halving end-to-end, resume, service/fleet parity."""

import json
import shutil

import pytest

from repro.api import DesignSession, pareto_frontier
from repro.fleet import FleetCoordinator, LocalEndpoint
from repro.search import (
    RungRecord,
    RungSpec,
    SearchResult,
    SearchSession,
    SearchSpace,
    SearchSpec,
    render_search,
)
from repro.service import SweepService
from repro.store import ResultStore

TABLE1 = ("mc-ser", "mc-ipu4", "mc-ipu84", "mc-ipu8",
          "nvdla", "fp16", "int8", "int4")


def table1_space():
    return SearchSpace(kinds=(), mult_a=(), mult_b=(), adder_width=(),
                       it=(), n_inputs=(), ehu=(), designs=TABLE1)


def quick_spec(**overrides):
    defaults = dict(
        name="quick", space=table1_space(),
        objective="-median_contaminated_bits", eta=3,
        rungs=(RungSpec(samples=8, batch=200),
               RungSpec(samples=16, batch=400)),
        op_precisions=((4, 4), (8, 8), (16, 16)))
    defaults.update(overrides)
    return SearchSpec(**defaults)


def as_bytes(result):
    return json.dumps(result.to_dict(), sort_keys=True)


class TestRun:
    def test_halving_shrinks_the_roster(self, tmp_path):
        spec = quick_spec()
        with SearchSession(store=ResultStore(tmp_path)) as sess:
            result = sess.run(spec)
        assert len(result.rungs) == 2
        assert result.rungs[0].candidates == tuple(range(8))
        # eta=3 over 8 candidates -> ceil(8/3) = 3 survivors at rung 1
        assert result.rungs[1].candidates == result.rungs[0].survivors
        assert len(result.rungs[1].candidates) == 3
        assert set(result.rungs[-1].survivors) <= set(result.rungs[1].candidates)
        assert sess.stats.rungs_total == 2 and sess.stats.rungs_resumed == 0
        assert sess.stats.evaluated == 8 + 3 == sess.stats.computed

    def test_int_designs_score_nan_and_lose(self, tmp_path):
        spec = quick_spec()
        with SearchSession(store=ResultStore(tmp_path)) as sess:
            result = sess.run(spec)
        designs = {c.design for c in result.winners()}
        assert not designs & {"INT8", "INT4"}

    def test_result_round_trip(self, tmp_path):
        spec = quick_spec()
        with SearchSession(store=ResultStore(tmp_path)) as sess:
            result = sess.run(spec)
        clone = SearchResult.from_dict(json.loads(as_bytes(result)))
        assert as_bytes(clone) == as_bytes(result)
        assert clone.winners() == result.winners()

    def test_render_marks_survivors(self, tmp_path):
        spec = quick_spec()
        with SearchSession(store=ResultStore(tmp_path)) as sess:
            rendered = render_search(sess.run(spec))
        assert "search: quick" in rendered
        assert "kept" in rendered
        assert "winners: #" in rendered
        # INT designs have no FP accuracy path: dashes, not NaNs
        assert "nan" not in rendered

    def test_storeless_search_still_runs(self):
        spec = quick_spec(rungs=(RungSpec(samples=8, batch=200),))
        with SearchSession() as sess:
            result = sess.run(spec)
        assert len(result.winners()) == 3


class TestResume:
    def test_second_run_resumes_every_rung(self, tmp_path):
        spec = quick_spec()
        store = ResultStore(tmp_path)
        with SearchSession(store=store) as sess:
            first = sess.run(spec)
        with SearchSession(store=store) as sess:
            second = sess.run(spec)
            assert sess.stats.rungs_resumed == 2
            assert sess.stats.evaluated == 0
        assert as_bytes(second) == as_bytes(first)

    def test_lost_rung_records_recompute_from_cached_reports(self, tmp_path):
        """The CI kill-mid-rung scenario, made deterministic: rung records
        gone, design reports still in the store — the resume re-selects
        from cached evaluations without recomputing any design point."""
        spec = quick_spec()
        store = ResultStore(tmp_path)
        with SearchSession(store=store) as sess:
            first = sess.run(spec)
        shutil.rmtree(tmp_path / "search-rung")
        with SearchSession(store=ResultStore(tmp_path)) as sess:
            second = sess.run(spec)
            assert sess.stats.rungs_resumed == 0
            assert sess.stats.evaluated == 11
            assert sess.stats.computed == 0
            assert sess.stats.cached == 11
        assert as_bytes(second) == as_bytes(first)

    def test_renamed_search_shares_rung_records(self, tmp_path):
        store = ResultStore(tmp_path)
        with SearchSession(store=store) as sess:
            first = sess.run(quick_spec(name="alpha"))
        with SearchSession(store=store) as sess:
            second = sess.run(quick_spec(name="beta"))
            assert sess.stats.rungs_resumed == 2
        assert json.dumps([r.to_dict() for r in second.rungs]) == \
            json.dumps([r.to_dict() for r in first.rungs])

    def test_stale_rung_record_is_recomputed(self, tmp_path):
        spec = quick_spec()
        store = ResultStore(tmp_path)
        # poison rung 0 with a record for a different roster
        bogus = RungRecord(index=0, candidates=(0, 1), scores=((1.0,), (2.0,)),
                           survivors=(1,), metrics=({}, {}))
        store.put_json("search-rung", SearchSession._rung_key(spec, 0),
                       bogus.to_dict())
        with SearchSession(store=store) as sess:
            result = sess.run(spec)
            assert sess.stats.rungs_resumed == 0
        assert result.rungs[0].candidates == tuple(range(8))


class TestServiceParity:
    def test_search_jobs_coalesce_on_fingerprint(self, tmp_path):
        service = SweepService(store=ResultStore(tmp_path), queue_workers=1)
        try:
            a, _ = service.submit("search", quick_spec(name="one").to_dict())
            b, coalesced = service.submit("search",
                                          quick_spec(name="one").to_dict())
            assert coalesced and b is a
            assert service.job(a.id, wait=300.0).status == "done"
        finally:
            service.close()


class TestFleetSearch:
    def test_fleet_run_matches_local_and_warms_the_store(self, tmp_path):
        spec = quick_spec(name="fleet")
        with SearchSession(store=ResultStore(tmp_path / "local")) as sess:
            local = sess.run(spec)

        store = ResultStore(tmp_path / "shared")
        service = SweepService()
        try:
            coord = FleetCoordinator(
                [LocalEndpoint(service, name="w0"),
                 LocalEndpoint(service, name="w1")], store=store)
            with SearchSession(store=store, fleet=coord) as sess:
                fleet_result = sess.run(spec)
                assert sess.stats.computed == 11 and sess.stats.cached == 0
            assert as_bytes(fleet_result) == as_bytes(local)

            # rung records gone, fleet payload cache still warm: the rerun
            # dispatches nothing and reproduces the result byte-for-byte
            shutil.rmtree(tmp_path / "shared" / "search-rung")
            coord2 = FleetCoordinator([LocalEndpoint(service, name="w0")],
                                      store=store)
            with SearchSession(store=store, fleet=coord2) as sess:
                warm_result = sess.run(spec)
                assert sess.stats.cached == 11 and sess.stats.computed == 0
            assert coord2.stats()["shards_skipped_warm"] == 11
            assert coord2.stats()["shards_completed"] == 0
            assert as_bytes(warm_result) == as_bytes(local)
        finally:
            service.close()


@pytest.mark.slow
class TestAcceptance:
    def test_halving_recovers_the_exhaustive_pareto_frontier(self, tmp_path):
        """On the Table-1-and-widths grid, halving with the paper's error
        objective keeps the same Pareto set as evaluating everything at the
        top fidelity — while running the top rung on <= 1/3 of candidates."""
        space = SearchSpace(mult_a=(4, 8), mult_b=(4, 8),
                            adder_width=(16, 20, 23, 28), designs=TABLE1)
        spec = SearchSpec(
            name="acceptance", space=space,
            objective="pareto:tops_per_mm2@4x4,-median_contaminated_bits",
            rungs=(RungSpec(samples=24, batch=500),
                   RungSpec(samples=384, batch=8000)),
            op_precisions=((4, 4), (8, 8), (16, 16)))
        candidates = spec.candidates()
        assert len(candidates) == 24

        with SearchSession(store=ResultStore(tmp_path)) as sess:
            result = sess.run(spec)
        assert len(result.rungs[-1].candidates) <= len(candidates) / 3

        top = spec.rungs[-1]
        with DesignSession(store=ResultStore(tmp_path)) as design:
            points = [c.point(spec.op_precisions, top.samples, spec.rng)
                      for c in candidates]
            reports = design.sweep(points, accuracy=top.accuracy_spec())
        front = pareto_frontier(
            list(enumerate(reports)),
            x=lambda ir: ir[1].metric("tops_per_mm2@4x4"),
            y=lambda ir: ir[1].metric("-median_contaminated_bits"))
        exhaustive = sorted(candidates[i].design for i, _ in front)
        assert sorted(c.design for c in result.winners()) == exhaustive


@pytest.mark.slow
class TestTop1Rung:
    def test_model_level_final_rung(self, tmp_path):
        spec = quick_spec(
            name="top1",
            rungs=(RungSpec(samples=8, batch=200),
                   RungSpec(samples=8, batch=200, top1=True,
                            top1_style="plain", top1_n_eval=32)))
        store = ResultStore(tmp_path)
        with SearchSession(store=store) as sess:
            result = sess.run(spec)
        final = result.rungs[-1]
        assert final.top1
        assert len(final.survivors) == 1
        winner = result.winners()[0]
        assert winner.design not in ("INT8", "INT4")
        # top-1 scores are accuracies in [0, 1]
        kept = dict(zip(final.candidates, final.scores))
        assert 0.0 <= kept[result.rungs[0].survivors[0]][0] <= 1.0
        assert "(top1)" in render_search(result)

        # the (style, n_eval, width) score cache makes the resume free
        with SearchSession(store=store) as sess:
            again = sess.run(spec)
            assert sess.stats.rungs_resumed == 2
        assert as_bytes(again) == as_bytes(result)
