"""DesignSpec / TileSpec / DesignPoint / DesignSweepSpec: JSON round trips."""

import json
from dataclasses import asdict

import pytest

from repro.api import (
    DEFAULT_OP_PRECISIONS,
    DesignPoint,
    DesignSpec,
    DesignSweepSpec,
    PrecisionPoint,
    TileSpec,
)
from repro.api.spec import _result_fingerprint
from repro.hw.designs import DESIGNS
from repro.hw.registry import tile_names


class TestDesignSpec:
    def test_normalizes_to_canonical_name(self):
        assert DesignSpec("mc-ipu4") == DesignSpec("MC-IPU4")
        assert DesignSpec("MC-IPU4").design == "MC-IPU4"
        assert DesignSpec("MC-IPU:8x4@24B").design == "mc-ipu:8x4@24b"

    def test_resolve(self):
        assert DesignSpec("MC-IPU4").resolve() is DESIGNS["MC-IPU4"]

    def test_round_trip(self):
        spec = DesignSpec("mc-ipu:8x4@24b")
        assert DesignSpec.from_dict(spec.to_dict()) == spec
        assert DesignSpec.from_dict(DESIGNS["NVDLA"]) == DesignSpec("NVDLA")

    def test_from_dict_registers_hand_built_designs(self):
        from repro.hw.designs import Design

        d = Design("my-custom-18b", 4, 4, 18, "temporal", fp16_iterations=9)
        spec = DesignSpec.from_dict(d)
        assert spec.resolve() is d  # resolvable after implicit registration

    def test_rejects_unknown(self):
        with pytest.raises(KeyError):
            DesignSpec("bogus")


class TestTileSpec:
    def test_normalizes_lexically(self):
        assert TileSpec(" SMALL@16B/c4 ") == TileSpec("small@16b/c4")

    def test_resolve(self):
        from repro.tile.config import SMALL_TILE

        assert TileSpec("small").resolve() is SMALL_TILE
        assert TileSpec("small@16b/c4").resolve() == SMALL_TILE.with_precision(16, 4)

    def test_round_trip(self):
        spec = TileSpec("16x16x2x2@20b")
        assert TileSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_accepts_derived_tileconfigs(self):
        from repro.tile.config import SMALL_TILE

        derived = SMALL_TILE.with_precision(16, 4)  # name 'small-w16-c4'
        spec = TileSpec.from_dict(derived)
        assert spec == TileSpec("small@16b/c4")
        assert spec.resolve() == derived
        assert TileSpec.from_dict(SMALL_TILE) == TileSpec("small")

    def test_rejects_unknown(self):
        with pytest.raises(KeyError):
            TileSpec("medium")


class TestDesignPoint:
    def point(self):
        return DesignPoint(design="mc-ipu:8x4@24b", tile="small@16b/c4",
                           precision=PrecisionPoint(12, 28, True),
                           op_precisions=((4, 4), (16, 16)), samples=32, rng=7)

    def test_coercion_from_strings(self):
        p = DesignPoint(design="MC-IPU4")
        assert isinstance(p.design, DesignSpec) and isinstance(p.tile, TileSpec)
        assert p.op_precisions == DEFAULT_OP_PRECISIONS

    def test_dict_round_trip_is_json_safe(self):
        p = self.point()
        d = p.to_dict()
        assert json.loads(json.dumps(d)) == d
        assert DesignPoint.from_dict(d) == p

    def test_from_dict_accepts_bare_design_string(self):
        assert DesignPoint.from_dict("MC-IPU4") == DesignPoint(design="MC-IPU4")

    def test_derived_precision_single_cycle_at_design_width(self):
        p = DesignPoint(design="MC-IPU4")
        assert p.resolved_precision() == PrecisionPoint(16)
        assert DesignPoint(design="NVDLA").resolved_precision() == PrecisionPoint(36)

    def test_explicit_precision_wins(self):
        assert self.point().resolved_precision() == PrecisionPoint(12, 28, True)

    def test_int_only_designs_have_no_numerics(self):
        assert DesignPoint(design="INT8").resolved_precision() is None

    def test_hashable(self):
        assert len({self.point(), self.point()}) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            DesignPoint(design="MC-IPU4", samples=0)
        with pytest.raises(ValueError):
            DesignPoint(design="MC-IPU4", op_precisions=((0, 4),))

    @pytest.mark.parametrize("tile", tile_names())
    def test_fingerprint_encodes_resolved_fields_like_asdict(self, tile):
        """The fingerprint copies the resolved design/tile fields instead of
        deep-copying them, and hashes the same bytes asdict would give."""
        assert len(DESIGNS) == 8
        for name in DESIGNS:
            point = DesignPoint(design=name, tile=tile)
            design, tile_cfg = point.design.resolve(), point.tile.resolve()
            assert json.dumps(dict(vars(design))) == json.dumps(asdict(design))
            assert (json.dumps(dict(vars(tile_cfg)))
                    == json.dumps(asdict(tile_cfg)))
            want = {**point.to_dict(), "design_resolved": asdict(design),
                    "tile_resolved": asdict(tile_cfg)}
            assert point.fingerprint() == _result_fingerprint("design_point",
                                                              want)


class TestDesignSweepSpec:
    def spec(self):
        return DesignSweepSpec.grid(
            name="t", designs=("MC-IPU4", "mc-ipu:8x4@24b"),
            tiles=("small", "big"), samples=16, rng=3,
        )

    def test_cross_product_order(self):
        pts = self.spec().points()
        assert [(p.design.name, p.tile.name) for p in pts] == [
            ("MC-IPU4", "small"), ("MC-IPU4", "big"),
            ("mc-ipu:8x4@24b", "small"), ("mc-ipu:8x4@24b", "big"),
        ]
        assert all(p.samples == 16 and p.rng == 3 for p in pts)

    def test_precision_grid_crossed_against_designs(self):
        spec = DesignSweepSpec.grid(
            designs=("MC-IPU4",), tiles=("small",),
            precisions=(PrecisionPoint(8), PrecisionPoint(16)),
        )
        assert [p.precision for p in spec.points()] == [
            PrecisionPoint(8), PrecisionPoint(16)]

    def test_dict_round_trip(self):
        spec = self.spec()
        assert DesignSweepSpec.from_dict(spec.to_dict()) == spec

    def test_json_string_round_trip(self):
        spec = self.spec()
        assert DesignSweepSpec.from_json(spec.to_json()) == spec

    def test_json_file_round_trip(self, tmp_path):
        spec = self.spec()
        path = tmp_path / "spec.json"
        spec.to_json(path)
        assert DesignSweepSpec.from_json(path) == spec
        assert DesignSweepSpec.from_json(str(path)) == spec

    def test_committed_example_spec_loads(self):
        from pathlib import Path

        path = (Path(__file__).resolve().parents[2] / "examples" / "specs"
                / "design_pareto.json")
        spec = DesignSweepSpec.from_json(path)
        assert spec.designs and spec.tiles
        assert any(":" in d.name for d in spec.designs)  # a custom grammar design

    def test_requires_a_tile(self):
        with pytest.raises(ValueError, match="at least one tile"):
            DesignSweepSpec(designs=("MC-IPU4",), tiles=())

    def test_rejects_invalid_samples_at_load_time(self):
        with pytest.raises(ValueError, match="samples"):
            DesignSweepSpec.from_json('{"designs": ["MC-IPU4"], "samples": 0}')
