"""PrecisionPoint / RunSpec: JSON round trips and validation."""

import json
from dataclasses import asdict

import pytest

from repro.api import PrecisionPoint, RunSpec
from repro.ipu.engine import KernelPoint


class TestPrecisionPoint:
    def test_dict_round_trip(self):
        p = PrecisionPoint(12, software_precision=28, multi_cycle=True,
                           accumulator="fp16")
        assert PrecisionPoint.from_dict(p.to_dict()) == p
        assert json.loads(json.dumps(p.to_dict())) == p.to_dict()

    def test_kernel_point(self):
        p = PrecisionPoint(12, 28, True, "fp32")
        kp = p.kernel_point()
        assert kp == KernelPoint(12, 28, True, kp.acc_fmt)
        assert kp.acc_fmt.name == "fp32"

    def test_kulisch_points_run_fp32_kernels(self):
        assert PrecisionPoint(38, accumulator="kulisch").kernel_point().acc_fmt.name == "fp32"

    def test_kernel_key_ignores_accumulator(self):
        assert (PrecisionPoint(16, accumulator="fp16").kernel_key()
                == PrecisionPoint(16, accumulator="fp32").kernel_key())

    def test_rejects_unknown_accumulator(self):
        with pytest.raises(KeyError):
            PrecisionPoint(16, accumulator="nope")

    def test_rejects_int_mode_accumulator(self):
        with pytest.raises(ValueError, match="INT-mode"):
            PrecisionPoint(16, accumulator="int32")

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            PrecisionPoint(0)

    def test_rejects_unservable_single_cycle_precision(self):
        """A single-cycle point cannot promise more software precision than
        its tree width — fail at spec load, not mid-sweep."""
        with pytest.raises(ValueError, match="single-cycle"):
            PrecisionPoint(12, software_precision=28, multi_cycle=False)


class TestRunSpec:
    def spec(self):
        return RunSpec.grid(
            name="t", precisions=(8, 16), accumulators=("fp16", "fp32"),
            sources=("laplace", "uniform"), batch=100, n=8, chunks=2, seed=3,
        )

    def test_grid_nesting_order(self):
        pts = self.spec().points
        assert [(p.adder_width, p.accumulator) for p in pts] == [
            (8, "fp16"), (8, "fp32"), (16, "fp16"), (16, "fp32"),
        ]

    def test_dict_round_trip(self):
        spec = self.spec()
        assert RunSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("executor", [None, {"backend": "thread", "workers": 2}])
    def test_encoding_equals_asdict_bytes(self, executor):
        """to_dict skips asdict's deep copy, not a key or byte: every store
        key and coalescing fingerprint is a hash of these bytes."""
        spec = RunSpec.from_dict({**self.spec().to_dict(), "executor": executor})
        want = asdict(spec)
        want["sources"] = list(spec.sources)
        want["points"] = [asdict(p) for p in spec.points]
        assert json.dumps(spec.to_dict()) == json.dumps(want)
        assert json.dumps(spec.points[0].to_dict()) == json.dumps(want["points"][0])

    def test_json_string_round_trip(self):
        spec = self.spec()
        text = spec.to_json()
        assert RunSpec.from_json(text) == spec
        assert json.loads(text)["points"][0] == {"adder_width": 8,
                                                 "software_precision": None,
                                                 "multi_cycle": False,
                                                 "accumulator": "fp16"}

    def test_json_file_round_trip(self, tmp_path):
        spec = self.spec()
        path = tmp_path / "spec.json"
        spec.to_json(path)
        assert RunSpec.from_json(path) == spec
        assert RunSpec.from_json(str(path)) == spec

    def test_points_coerced_from_dicts(self):
        spec = RunSpec(points=({"adder_width": 16},), sources=["laplace"])
        assert spec.points == (PrecisionPoint(16),)
        assert spec.sources == ("laplace",)

    def test_committed_example_spec_loads(self):
        from pathlib import Path

        path = Path(__file__).resolve().parents[2] / "examples" / "specs" / "fig3_quick.json"
        spec = RunSpec.from_json(path)
        assert spec.points and spec.sources

    def test_validation(self):
        with pytest.raises(KeyError):
            RunSpec(operand_format="nope")
        with pytest.raises(ValueError):
            RunSpec(batch=0)
        # the int64 adder-tree bound is checked against the spec's own n
        with pytest.raises(ValueError, match="overflows"):
            RunSpec(points=(PrecisionPoint(64),), n=16)
        assert RunSpec(points=(PrecisionPoint(60),), n=16).points

    def test_engine_field(self):
        """The kernel engine is fixed: a legacy ``"engine"`` key in spec JSON
        loads and is dropped, and the field is gone from the spec itself."""
        spec = self.spec()
        for engine in (None, "numpy", "numpy-unfused", "compiled"):
            legacy = RunSpec.from_json(json.dumps({**spec.to_dict(), "engine": engine}))
            assert legacy == spec
            assert legacy.fingerprint() == spec.fingerprint()
        assert "engine" not in spec.to_dict()
        with pytest.raises(TypeError, match="engine"):
            RunSpec(engine="numpy")

    def test_rejects_unpackable_operand_format(self):
        """Registry formats without an engine path fail at spec load, not
        mid-sweep (e.g. a --spec file naming e4m3 operands)."""
        with pytest.raises(ValueError, match="no vectorized engine path"):
            RunSpec(operand_format="e4m3")
        with pytest.raises(ValueError):
            RunSpec(operand_format="bfloat16")
