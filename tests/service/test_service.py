"""repro.service: HTTP round trips, coalescing, store engagement, runner CLI."""

import json
import socket
import threading
from pathlib import Path
from urllib.parse import urlsplit

import pytest

from repro.api import (
    DesignSession,
    DesignSweepSpec,
    EmulationSession,
    PrecisionPoint,
    RunSpec,
    render_design_reports,
    render_sweep,
)
from repro.api.session import sweep_points_from_dicts
from repro.service import (
    ServiceBusy,
    ServiceClient,
    ServiceError,
    ServiceServer,
    SweepService,
)
from repro.service.server import MAX_BODY_BYTES

SPEC = RunSpec(name="svc-spec", sources=("laplace",),
               points=(PrecisionPoint(12), PrecisionPoint(16)),
               batch=500, n=8, seed=5)
DESIGN_SPEC = DesignSweepSpec.grid(name="svc-designs",
                                   designs=("MC-IPU4", "INT8"),
                                   tiles=("small",), samples=24, rng=41)


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    with ServiceServer(port=0, store=tmp_path_factory.mktemp("store")) as srv:
        yield srv


@pytest.fixture(scope="module")
def client(server):
    return ServiceClient(server.url)


class TestHTTPRoundTrips:
    def test_sweep_matches_direct_session(self, client):
        result = client.run(SPEC)
        with EmulationSession() as session:
            sweep = session.sweep(SPEC)
        assert result["rendered"] == render_sweep(sweep, title=SPEC.name)
        assert sweep_points_from_dicts(result["points"]) == sweep.points
        assert result["fingerprint"] == SPEC.fingerprint()

    def test_design_sweep_matches_direct_session(self, client):
        result = client.run(DESIGN_SPEC)
        with DesignSession() as session:
            reports = session.sweep(DESIGN_SPEC)
        assert result["rendered"] == render_design_reports(
            reports, title=DESIGN_SPEC.name)
        assert [r.to_dict() for r in reports] == json.loads(
            json.dumps(result["reports"]))

    def test_resubmission_is_served_from_the_store(self, client):
        before = client.stats()["store"]
        result = client.run(SPEC)
        after = client.stats()["store"]
        assert after["hits"] >= before["hits"] + len(SPEC.sources)
        with EmulationSession() as session:
            assert result["rendered"] == render_sweep(session.sweep(SPEC),
                                                      title=SPEC.name)

    def test_job_endpoint_reports_metadata(self, client):
        ticket = client.submit(SPEC)
        assert ticket["kind"] == "sweep" and ticket["name"] == SPEC.name
        job = client.job(ticket["job"], wait=30)
        assert job["status"] == "done"
        assert job["finished"] >= job["started"] >= job["created"] > 0

    def test_stats_shape(self, client):
        stats = client.stats()
        assert stats["jobs"]["total"] >= 1 and stats["jobs"]["error"] == 0
        assert {"queued", "running", "done"} <= set(stats["jobs"])
        assert stats["store"]["puts"] > 0
        assert "plan_hits" in stats["emulation"] and "hits" in stats["design"]

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServiceError) as err:
            client.job("job-999-deadbeef")
        assert err.value.status == 404

    def test_unknown_path_is_404(self, client):
        with pytest.raises(ServiceError) as err:
            client._request("GET", "/v2/nothing")
        assert err.value.status == 404

    def test_malformed_spec_is_400(self, client):
        with pytest.raises(ServiceError) as err:
            client.submit({"batch": -3}, kind="sweep")
        assert err.value.status == 400
        assert "invalid sweep spec" in str(err.value)
        # a removed backend name is a validation error too, never a 5xx
        with pytest.raises(ServiceError) as err:
            client.submit({**SPEC.to_dict(), "executor": "process"}, kind="sweep")
        assert err.value.status == 400
        assert "'thread'" in str(err.value)
        # a point whose 16-lane sum would overflow the int64 adder tree
        with pytest.raises(ServiceError) as err:
            client.submit({**SPEC.to_dict(), "n": 16,
                           "points": [PrecisionPoint(64).to_dict()]},
                          kind="sweep")
        assert err.value.status == 400
        assert "overflows" in str(err.value)
        assert client.health()["ok"] is True

    def test_failing_job_reports_error_status(self, client):
        # an empty grid parses but fails at run time -> job status "error"
        ticket = client.submit(RunSpec(name="empty", sources=("laplace",)))
        with pytest.raises(ServiceError) as err:
            client.result(ticket["job"], timeout=30)
        assert "no precision points" in str(err.value)


def _raw_post(url, content_length, timeout=5.0):
    """POST /v1/sweep over a bare kept-alive socket, declaring
    ``content_length`` but sending no body; read until the server hangs up
    (a handler stuck reading the body trips the socket timeout instead)."""
    parts = urlsplit(url)
    with socket.create_connection((parts.hostname, parts.port),
                                  timeout=timeout) as sock:
        sock.sendall(
            f"POST /v1/sweep HTTP/1.1\r\nHost: {parts.netloc}\r\n"
            "Content-Type: application/json\r\nConnection: keep-alive\r\n"
            f"Content-Length: {content_length}\r\n\r\n".encode())
        received = b""
        while chunk := sock.recv(65536):
            received += chunk
    head, _, body = received.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


class TestRequestBodyBounds:
    @pytest.mark.parametrize("length,status", [
        ("-1", 400), ("abc", 400), (MAX_BODY_BYTES + 1, 413)])
    def test_bad_content_length_is_refused_unread_and_never_enqueued(
            self, server, client, length, status):
        before = client.stats()["jobs"]["total"]
        got, payload = _raw_post(server.url, length)
        assert got == status
        assert str(length) in payload["error"]
        assert client.stats()["jobs"]["total"] == before

    def test_committed_specs_fit_the_cap(self):
        root = Path(__file__).resolve().parents[2] / "examples" / "specs"
        for path in root.glob("*.json"):
            assert path.stat().st_size * 100 < MAX_BODY_BYTES, path


class TestCoalescing:
    def test_identical_inflight_specs_share_one_job(self):
        """Deterministic coalescing: block the worker, then submit twice."""
        service = SweepService()
        release, started = threading.Event(), threading.Event()
        real_sweep = service.emulation.sweep

        def gated_sweep(spec, **kwargs):
            started.set()
            assert release.wait(30)
            return real_sweep(spec, **kwargs)

        service.emulation.sweep = gated_sweep
        try:
            blocker, coalesced = service.submit(
                "sweep", {**SPEC.to_dict(), "seed": 99})
            assert not coalesced and started.wait(30)  # worker is now gated
            first, c1 = service.submit("sweep", SPEC.to_dict())
            twin, c2 = service.submit(
                "sweep", {**SPEC.to_dict(), "name": "same-grid-other-name"})
            assert first.id != blocker.id  # different grid, separate job
            assert not c1 and c2  # the twin coalesced onto the queued job
            assert twin is first
            # a running job keeps absorbing identical requests too
            running_twin, c3 = service.submit("sweep",
                                              {**SPEC.to_dict(), "seed": 99})
            assert c3 and running_twin is blocker
            assert service.stats()["coalesced"] == 2
            release.set()
            assert twin.done.wait(60) and twin.status == "done"
            assert service.stats()["jobs"]["total"] == 2
        finally:
            release.set()
            service.close()

    def test_close_drains_a_running_job_instead_of_killing_it(self):
        """Shutdown must let an accepted job finish, however long it runs."""
        service = SweepService()
        release, started = threading.Event(), threading.Event()
        real_sweep = service.emulation.sweep

        def gated_sweep(spec, **kwargs):
            started.set()
            assert release.wait(30)
            return real_sweep(spec, **kwargs)

        service.emulation.sweep = gated_sweep
        try:
            job, _ = service.submit("sweep", SPEC.to_dict())
            assert started.wait(30)  # the job is mid-compute
            closer = threading.Thread(target=service.close)
            closer.start()
            release.set()  # close() must still be waiting on the worker
            closer.join(timeout=60)
            assert not closer.is_alive()
            assert job.status == "done" and job.result is not None
        finally:
            release.set()
            service.close()

    def test_finished_jobs_are_pruned_beyond_the_retention_cap(self):
        service = SweepService(max_finished_jobs=1)
        try:
            first, _ = service.submit("sweep", SPEC.to_dict())
            assert first.done.wait(60)
            second, _ = service.submit("sweep", {**SPEC.to_dict(), "seed": 9})
            assert second.done.wait(60)
            assert service.job(first.id) is None  # result memory is bounded
            assert service.job(second.id) is second
            assert service.stats()["jobs"]["total"] == 1
        finally:
            service.close()

    def test_finished_jobs_do_not_coalesce(self):
        service = SweepService()
        try:
            first, _ = service.submit("sweep", SPEC.to_dict())
            assert first.done.wait(60)
            second, coalesced = service.submit("sweep", SPEC.to_dict())
            assert not coalesced and second.id != first.id
            assert second.done.wait(60)
            assert second.result["points"] == first.result["points"]
        finally:
            service.close()


class TestSubmitCloseRace:
    def test_submit_racing_close_is_refused_not_lost(self):
        """A submit paused between validation and enqueue while close()
        runs must be refused cleanly — never enqueued onto the drained
        queue, where the client would long-poll a job that never runs."""
        service = SweepService()
        in_parse, resume = threading.Event(), threading.Event()
        real_parse = service.parse_spec

        def gated_parse(kind, spec_dict):
            in_parse.set()
            assert resume.wait(30)  # close() completes while we sit here
            return real_parse(kind, spec_dict)

        service.parse_spec = gated_parse
        outcome = {}

        def racer():
            try:
                outcome["job"] = service.submit("sweep", SPEC.to_dict())
            except RuntimeError as exc:
                outcome["error"] = str(exc)

        thread = threading.Thread(target=racer)
        try:
            thread.start()
            assert in_parse.wait(30)  # submit is mid-validation, pre-lock
            service.close()  # drains the queue and stops every worker
            resume.set()
            thread.join(timeout=30)
            assert not thread.is_alive()
            assert outcome == {"error": "service is closed"}
            assert service._queue.empty()  # nothing enqueued post-drain
        finally:
            resume.set()
            service.close()


class TestWorkerPool:
    def test_distinct_jobs_run_in_parallel_on_n_workers(self):
        """Two distinct fingerprints must be mid-compute simultaneously;
        an identical third submit still coalesces onto one job id."""
        service = SweepService(queue_workers=2)
        barrier = threading.Barrier(3, timeout=30)
        real_sweep = service.emulation.sweep

        def rendezvous_sweep(spec, **kwargs):
            barrier.wait()  # passes only when both workers are in here
            return real_sweep(spec, **kwargs)

        service.emulation.sweep = rendezvous_sweep
        try:
            first, _ = service.submit("sweep", SPEC.to_dict())
            second, _ = service.submit("sweep", {**SPEC.to_dict(), "seed": 9})
            twin, coalesced = service.submit(
                "sweep", {**SPEC.to_dict(), "name": "other-name"})
            assert coalesced and twin is first  # pool keeps coalescing
            barrier.wait()  # both workers got here concurrently, or timeout
            assert first.done.wait(60) and second.done.wait(60)
            assert first.status == "done" and second.status == "done"
            assert service.stats()["queue"]["workers"] == 2
        finally:
            service.close()

    def test_invalid_pool_configuration_is_rejected(self):
        with pytest.raises(ValueError):
            SweepService(queue_workers=0)
        with pytest.raises(ValueError):
            SweepService(queue_cap=0)


class TestBackpressure:
    def test_full_queue_raises_service_busy_with_a_hint(self):
        service = SweepService(queue_cap=1)
        release, started = threading.Event(), threading.Event()
        real_sweep = service.emulation.sweep

        def gated_sweep(spec, **kwargs):
            started.set()
            assert release.wait(30)
            return real_sweep(spec, **kwargs)

        service.emulation.sweep = gated_sweep
        try:
            blocker, _ = service.submit("sweep", SPEC.to_dict())
            assert started.wait(30)  # worker busy; the queue is empty
            queued, _ = service.submit("sweep", {**SPEC.to_dict(), "seed": 7})
            with pytest.raises(ServiceBusy) as err:
                service.submit("sweep", {**SPEC.to_dict(), "seed": 8})
            assert err.value.retry_after > 0
            # coalescing onto the queued twin still works while full
            twin, coalesced = service.submit(
                "sweep", {**SPEC.to_dict(), "seed": 7, "name": "twin"})
            assert coalesced and twin is queued
            assert service.stats()["queue"]["rejected_busy"] == 1
            release.set()
            assert queued.done.wait(60) and queued.status == "done"
        finally:
            release.set()
            service.close()

    def test_http_429_retry_after_honored_by_the_client(self, tmp_path):
        with ServiceServer(port=0, queue_cap=1) as server:
            service = server.service
            release, started = threading.Event(), threading.Event()
            real_sweep = service.emulation.sweep

            def gated_sweep(spec, **kwargs):
                started.set()
                assert release.wait(30)
                return real_sweep(spec, **kwargs)

            service.emulation.sweep = gated_sweep
            client = ServiceClient(server.url)
            client.submit({**SPEC.to_dict(), "seed": 21})
            assert started.wait(30)
            client.submit({**SPEC.to_dict(), "seed": 22})  # fills the queue
            # an impatient client sees the raw 429 + Retry-After hint
            with pytest.raises(ServiceError) as err:
                client.submit({**SPEC.to_dict(), "seed": 23}, busy_timeout=0)
            assert err.value.status == 429
            assert err.value.retry_after and err.value.retry_after >= 1
            # a patient client sleeps on the hint and lands after the drain
            release.set()
            ticket = client.submit({**SPEC.to_dict(), "seed": 23},
                                   busy_timeout=60)
            assert client.result(ticket["job"], timeout=120)["points"]
            assert client.stats()["queue"]["rejected_busy"] >= 1


class TestAuth:
    @pytest.fixture(scope="class")
    def auth_server(self):
        with ServiceServer(port=0, token="hunter2") as srv:
            yield srv

    def test_missing_or_bad_token_is_401(self, auth_server):
        for client in (ServiceClient(auth_server.url),
                       ServiceClient(auth_server.url, token="wrong")):
            with pytest.raises(ServiceError) as err:
                client.stats()
            assert err.value.status == 401
            with pytest.raises(ServiceError) as err:
                client.submit(SPEC)
            assert err.value.status == 401

    def test_good_token_works_end_to_end(self, auth_server):
        client = ServiceClient(auth_server.url, token="hunter2")
        assert client.run(SPEC, timeout=120)["fingerprint"] == SPEC.fingerprint()

    def test_healthz_is_open_even_with_auth(self, auth_server):
        health = ServiceClient(auth_server.url).health()
        assert health["ok"] and health["workers"] == 1
        assert health["uptime_seconds"] >= 0 and "version" in health

    def test_loopback_without_token_stays_open(self, server, client):
        assert client.token is None
        assert client.health()["ok"]
        assert client.stats()["jobs"]["total"] >= 0  # no 401

    def test_non_loopback_bind_without_token_is_refused(self, monkeypatch):
        monkeypatch.delenv("REPRO_SERVICE_TOKEN", raising=False)
        with pytest.raises(ValueError, match="non-loopback"):
            ServiceServer(host="0.0.0.0", port=0)
        # loopback literals and a token both unlock the bind
        ServiceServer(host="localhost", port=0).close()
        ServiceServer(host="0.0.0.0", port=0, token="s3cret").close()

    def test_token_from_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_TOKEN", "env-token")
        server = ServiceServer(host="0.0.0.0", port=0)
        try:
            assert server.token == "env-token"
            assert ServiceClient(server.url).token == "env-token"
        finally:
            server.close()


class TestHealthz:
    def test_health_reports_queue_depth_and_version(self, server, client):
        from repro import __version__

        health = client.health()
        assert health["version"] == __version__
        assert health["queue_depth"] == 0 and health["queue_cap"] is None

    def test_max_finished_jobs_plumbs_through_the_server(self, tmp_path):
        with ServiceServer(port=0, max_finished_jobs=7) as srv:
            assert srv.service.max_finished_jobs == 7


class TestRunnerCLI:
    def test_serve_non_loopback_without_token_exits_2(self, capsys,
                                                      monkeypatch):
        from repro.experiments.runner import main

        monkeypatch.delenv("REPRO_SERVICE_TOKEN", raising=False)
        assert main(["--serve", "--host", "0.0.0.0", "--port", "0"]) == 2
        assert "cannot start service" in capsys.readouterr().err

    def test_submit_malformed_spec_file_exits_2(self, tmp_path, capsys):
        from repro.experiments.runner import main

        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["--submit", str(path), "--url", "http://127.0.0.1:9"]) == 2
        assert "cannot load spec" in capsys.readouterr().err

    def test_submit_against_unreachable_service_exits_2(self, tmp_path, capsys):
        from repro.experiments.runner import main

        path = tmp_path / "spec.json"
        SPEC.to_json(path)
        assert main(["--submit", str(path), "--url", "http://127.0.0.1:9"]) == 2
        assert "service error" in capsys.readouterr().err


class TestServeLifecycle:
    def test_shutdown_endpoint_stops_a_blocking_server(self, tmp_path):
        server = ServiceServer(port=0, store=tmp_path / "s")
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = ServiceClient(server.url)
        assert client.run(SPEC)["rendered"]
        final = client.shutdown()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert final["ok"] and final["stats"]["jobs"]["done"] == 1
        with pytest.raises(ServiceError):
            client.stats()  # the socket is really gone
