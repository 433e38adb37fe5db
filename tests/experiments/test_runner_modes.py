"""The runner's flag matrix: every run mode against every mode-bound flag."""

from pathlib import Path

import pytest

from repro.experiments import runner

SPECS = Path(__file__).resolve().parents[2] / "examples" / "specs"
URL = "http://127.0.0.1:9"  # nothing listens there; no case gets that far

# Each mode's argv fails (or finishes) cheaply just past flag validation:
# a missing spec file, a stubbed server, a stubbed experiment, an empty store.
MODES = {
    "experiments": ["fig3"],
    "spec": ["--spec", "{tmp}/none.json"],
    "design-spec": ["--design-spec", "{tmp}/none.json"],
    "fleet": ["--design-spec", "{tmp}/none.json", "--fleet", URL],
    "search": ["--search", "{tmp}/none.json"],
    "search-fleet": ["--search", "{tmp}/none.json", "--fleet", URL],
    "serve": ["--serve"],
    "submit": ["--submit", "{tmp}/none.json"],
    "verify-store": ["--verify-store", "{tmp}"],
}
FLAGS = {
    "--all": [], "--quick": [], "--json": ["{tmp}/out.json"],
    "--workers": ["2"], "--backend": ["thread"], "--store": ["{tmp}/store"],
    "--port": ["0"], "--host": ["127.0.0.1"], "--service-workers": ["2"],
    "--queue-cap": ["4"], "--max-finished-jobs": ["8"], "--token": ["t"],
    "--url": [URL], "--fleet": [URL], "--shards": ["2"],
    "--chaos": [str(SPECS / "chaos_quick.json")],
    "--trace": ["{tmp}/trace.json"], "--profile": [],
}
_REPLAY = "--json --store --chaos --trace --profile --fleet"  # --fleet: own row
ACCEPTS = {
    "experiments": "--all --quick --json",
    "spec": f"{_REPLAY} --workers --backend",
    "design-spec": f"{_REPLAY} --workers --backend",
    "fleet": f"{_REPLAY} --token --shards",
    "search": f"{_REPLAY} --workers --backend",
    "search-fleet": f"{_REPLAY} --token",
    "serve": "--workers --backend --store --chaos --port --host "
             "--service-workers --queue-cap --max-finished-jobs --token",
    "submit": "--json --url --token --trace --profile",
    "verify-store": "",
}


@pytest.fixture()
def run(tmp_path, capsys, monkeypatch):
    def no_server(**kwargs):
        raise ValueError("stubbed")

    monkeypatch.setattr(runner, "EXPERIMENTS",
                        {"fig3": (lambda quick: "stub", "stub experiment")})
    monkeypatch.setattr("repro.service.ServiceServer", no_server)

    def invoke(argv):
        try:
            rc = runner.main([a.replace("{tmp}", str(tmp_path)) for a in argv])
        except SystemExit as exc:  # argparse rejections
            rc = exc.code
        return rc, capsys.readouterr().err
    return invoke


@pytest.mark.parametrize("flag", FLAGS)
@pytest.mark.parametrize("mode", MODES)
def test_mode_accepts_exactly_its_flags(run, mode, flag):
    rc, err = run(MODES[mode] + [flag] + FLAGS[flag])
    passed = rc == 0 or "cannot load" in err or "cannot start" in err
    assert passed == (flag in ACCEPTS[mode].split()), err
    if not passed:
        assert rc == 2 and f"{flag} only applies to " in err


@pytest.mark.parametrize("argv, message", [
    (["--workers", "2"], "--workers only applies to --spec, --design-spec, "
                         "--search, --serve runs"),
    (["--queue-cap", "5"], "--queue-cap only applies to --serve runs"),
    (["--spec", "x.json", "--host", "0.0.0.0"], "only applies to --serve"),
    (["--profile"], "--profile only applies to "),
    (["--fleet", URL], "--fleet only applies to "),
    (["--spec", "x.json", "--quick"], "--quick only applies to experiment"),
    (["--spec", "a.json", "--serve"], "mutually exclusive"),
    (["fig3", "--submit", "a.json"], "mutually exclusive"),
    # bad counts are argparse errors, not tracebacks
    (["--spec", f"{SPECS}/fig3_quick.json", "--workers", "0"], "must be >= 1"),
    (["--search", f"{SPECS}/search_quick.json", "--workers", "-1"],
     "must be >= 1"),
    (["--design-spec", f"{SPECS}/design_pareto.json", "--fleet", URL,
      "--shards", "0"], "must be >= 1"),
    (["--serve", "--service-workers", "0"], "must be >= 1"),
    (["--serve", "--queue-cap", "0"], "must be >= 1"),
    (["--serve", "--max-finished-jobs", "0"], "must be >= 1"),
])
def test_rejections_say_why(run, argv, message):
    rc, err = run(argv)
    assert rc == 2 and message in err


@pytest.mark.parametrize("fleet", [[], ["--fleet", URL]])
@pytest.mark.parametrize("flag, other", [("--spec", "design_pareto.json"),
                                         ("--design-spec", "fig3_quick.json")])
def test_spec_of_the_other_kind_is_refused(run, fleet, flag, other):
    """A design grid given to --spec (or a precision grid to --design-spec)
    exits 2 the same way locally and over a fleet, before any dispatch."""
    rc, err = run([flag, str(SPECS / other)] + fleet)
    assert rc == 2 and "cannot load" in err, err
