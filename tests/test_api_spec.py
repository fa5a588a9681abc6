"""Unit tests for the declarative spec layer: Point, Sweep, MemorySpec."""

from __future__ import annotations

import json

import pytest

from repro.api import (
    MemorySpec,
    Point,
    Sweep,
    load_sweep,
    point_digest,
)
from repro.api.presets import (
    PRESETS_NEEDING_PROGRAM,
    SWEEP_PRESETS,
    bypass_sweep,
    hierarchy_sweep,
    issue_split_sweep,
    speedup_sweep,
    table1_sweep,
)
from repro.config import LatencyModel
from repro.errors import ConfigError
from repro.memory import (
    BankedMemory,
    BypassBuffer,
    CacheMemory,
    FixedLatencyMemory,
    StreamPrefetcher,
)


class TestPoint:
    def test_defaults(self):
        point = Point(program="trfd")
        assert point.machine == "dm"
        assert point.memory == MemorySpec()

    def test_hashable_cache_key(self):
        a = Point(program="trfd", window=16)
        b = Point(program="trfd", window=16)
        assert a == b and hash(a) == hash(b)
        assert {a: 1}[b] == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"program": ""},
            {"program": "trfd", "window": 0},
            {"program": "trfd", "memory_differential": -1},
            {"program": "trfd", "au_width": 0},
            {"program": "trfd", "expansion": -0.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            Point(**kwargs)


class TestMemorySpec:
    def test_builds_each_kind(self):
        assert isinstance(MemorySpec().build(60), FixedLatencyMemory)
        assert isinstance(
            MemorySpec(kind="bypass", entries=8).build(60), BypassBuffer
        )
        assert isinstance(MemorySpec(kind="cache").build(60), CacheMemory)
        assert isinstance(MemorySpec(kind="banked").build(60), BankedMemory)
        assert isinstance(
            MemorySpec(kind="prefetch").build(60), StreamPrefetcher
        )
        assert isinstance(
            MemorySpec(kind="hierarchy").build(60), CacheMemory
        )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            MemorySpec(kind="quantum")

    def test_hierarchy_levels_configure_geometry(self):
        spec = MemorySpec(
            kind="hierarchy",
            levels=((1024, 16, 1, 0), (4096, 16, 4, 7)),
        )
        built = spec.build(60)
        assert [lv.config.associativity for lv in built.levels] == [1, 4]
        assert built.levels[1].config.hit_extra == 7
        assert built.miss_extra == 60

    def test_levels_normalised_to_hashable_tuples(self):
        spec = MemorySpec(kind="hierarchy", levels=[[1024, 16, 1, 0]])
        assert spec.levels == ((1024, 16, 1, 0),)
        assert hash(spec) == hash(
            MemorySpec(kind="hierarchy", levels=((1024, 16, 1, 0),))
        )

    def test_malformed_level_rejected(self):
        with pytest.raises(ConfigError):
            MemorySpec(kind="hierarchy", levels=((1024, 16, 1),))

    def test_banked_fields_thread_through(self):
        built = MemorySpec(
            kind="banked", banks=2, bank_busy=7, line_bytes=16
        ).build(10)
        assert built.banks == 2
        assert built.busy == 7
        assert built.interleave_bytes == 16
        assert built.extra == 10

    def test_prefetch_fields_thread_through(self):
        built = MemorySpec(kind="prefetch", streams=3, degree=4).build(60)
        assert built.streams == 3
        assert built.degree == 4


class TestSweepGrid:
    def test_cartesian_product(self):
        sweep = Sweep.grid(
            program=("trfd", "mdg"),
            machine="dm",
            window=(8, 16),
            memory_differential=(0, 60),
        )
        points = list(sweep.points())
        assert len(sweep) == 8 and len(points) == 8
        assert {(p.program, p.window, p.memory_differential) for p in points} \
            == {(n, w, m) for n in ("trfd", "mdg") for w in (8, 16)
                for m in (0, 60)}

    def test_scalars_pin_base(self):
        sweep = Sweep.grid(program="trfd", window=(8, 16), swsm_width=7)
        assert all(p.swsm_width == 7 for p in sweep.points())

    def test_zipped_axis_covaries(self):
        sweep = Sweep.grid(
            program="trfd",
            zipped={("au_width", "du_width"): [(1, 8), (4, 5)]},
        )
        widths = [(p.au_width, p.du_width) for p in sweep.points()]
        assert widths == [(1, 8), (4, 5)]

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            Sweep.grid(program="trfd", warp_factor=(1, 2))

    def test_program_axis_supplies_base(self):
        sweep = Sweep.grid(program=("trfd", "mdg"), window=8)
        assert sweep.base.program == "trfd"

    def test_needs_program(self):
        with pytest.raises(ConfigError):
            Sweep.grid(window=(8, 16))


class TestSweepSerialisation:
    def test_dict_round_trip(self):
        sweep = Sweep.grid(
            name="round-trip",
            program=("trfd",),
            machine=("dm", "swsm"),
            window=(8, None),
            memory=(MemorySpec(), MemorySpec(kind="bypass", entries=4)),
            zipped={("au_width", "du_width"): [(3, 6), (4, 5)]},
        )
        restored = Sweep.from_dict(sweep.to_dict())
        assert restored == sweep
        assert list(restored.points()) == list(sweep.points())

    def test_new_memory_kinds_round_trip(self):
        sweep = Sweep.grid(
            name="memory-zoo",
            program=("trfd",),
            memory=(
                MemorySpec(kind="banked", banks=4, bank_busy=2),
                MemorySpec(kind="prefetch", streams=2, degree=3),
                MemorySpec(
                    kind="hierarchy", levels=((1024, 16, 1, 0),)
                ),
            ),
        )
        restored = Sweep.from_dict(
            json.loads(json.dumps(sweep.to_dict()))
        )
        assert restored == sweep
        assert list(restored.points()) == list(sweep.points())

    def test_load_json(self, tmp_path):
        doc = {
            "name": "from-json",
            "base": {"program": "trfd", "window": "unl"},
            "axes": {"memory_differential": [0, 60]},
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(doc))
        sweep = load_sweep(path)
        assert sweep.base.window is None
        assert [p.memory_differential for p in sweep.points()] == [0, 60]

    def test_zipped_rows_must_match_arity(self, tmp_path):
        doc = {
            "base": {"program": "trfd"},
            "axes": {"au_width,du_width": [[4, 5, 6], [3, 6, 1]]},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError):
            load_sweep(path)

    def test_unreadable_spec_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            load_sweep(tmp_path / "missing.toml")
        broken = tmp_path / "broken.toml"
        broken.write_text("name = [unclosed\n")
        with pytest.raises(ConfigError):
            load_sweep(broken)

    def test_load_toml(self, tmp_path):
        path = tmp_path / "sweep.toml"
        path.write_text(
            'name = "from-toml"\n'
            "[base]\n"
            'program = "mdg"\n'
            "window = 32\n"
            "[axes]\n"
            'machine = ["dm", "swsm"]\n'
            'memory = [{kind = "fixed"}, {kind = "bypass", entries = 16}]\n'
        )
        sweep = load_sweep(path)
        assert len(sweep) == 4
        kinds = {p.memory.kind for p in sweep.points()}
        assert kinds == {"fixed", "bypass"}


def _asdict_digest(point, scale, latencies):
    """``point_digest`` spelled through ``dataclasses.asdict``."""
    import hashlib
    from dataclasses import asdict

    from repro.api.spec import CACHE_FORMAT
    from repro.workloads.grammar import GRAMMAR_VERSION

    doc = {
        "format": CACHE_FORMAT,
        "point": asdict(point),
        "scale": scale,
        "latencies": asdict(latencies),
    }
    if point.program.lower().startswith("gen:"):
        doc["grammar"] = GRAMMAR_VERSION
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


#: Points covering every memory kind, an unlimited window, a generated
#: program and explicit hierarchy levels.
KEY_POINTS = (
    Point(program="trfd", memory=MemorySpec(kind="fixed")),
    Point(program="trfd", machine="swsm", window=None,
          memory=MemorySpec(kind="bypass", entries=16, line_bytes=64)),
    Point(program="gen:stencil:3", memory=MemorySpec(kind="cache")),
    Point(program="flo52q", expansion=0.5, memory=MemorySpec(
        kind="hierarchy", levels=((1024, 32, 2, 1), (8192, 32, 4, 6)),
    )),
    Point(program="mdg", partition="balanced",
          memory=MemorySpec(kind="banked", banks=4, bank_busy=3)),
    Point(program="GEN:gather:7", window=None, probe_esw=True,
          memory=MemorySpec(kind="prefetch", streams=2, degree=3)),
)


class TestPointDigest:
    def test_stable(self):
        point = Point(program="trfd", window=16)
        latencies = LatencyModel()
        assert point_digest(point, 2000, latencies) == point_digest(
            point, 2000, latencies
        )

    @pytest.mark.parametrize(
        "latencies", [LatencyModel(), LatencyModel(fp_op=5, mem_base=2)]
    )
    def test_key_equals_asdict_spelling(self, latencies):
        for point in KEY_POINTS:
            assert point_digest(point, 2000, latencies) == _asdict_digest(
                point, 2000, latencies
            ), point

    def test_sensitive_to_spec_scale_and_latencies(self):
        point = Point(program="trfd", window=16)
        latencies = LatencyModel()
        base = point_digest(point, 2000, latencies)
        assert point_digest(point, 4000, latencies) != base
        assert point_digest(
            point, 2000, LatencyModel(fp_op=5)
        ) != base
        assert point_digest(
            Point(program="trfd", window=32), 2000, latencies
        ) != base


class TestPresets:
    def test_registry_builds(self):
        for name, factory in SWEEP_PRESETS.items():
            sweep = (
                factory("trfd")
                if name in PRESETS_NEEDING_PROGRAM
                else factory()
            )
            assert len(sweep) > 0, name
            assert all(isinstance(p, Point) for p in sweep.points())

    def test_hierarchy_sweep_crosses_machines_and_models(self):
        sweep = hierarchy_sweep("trfd")
        points = list(sweep.points())
        assert {p.machine for p in points} == {"dm", "swsm"}
        kinds = {p.memory.kind for p in points}
        assert {"fixed", "bypass", "cache", "hierarchy", "banked",
                "prefetch"} <= kinds

    def test_table1_covers_perfect_and_target_md(self):
        sweep = table1_sweep(programs=("trfd",), windows=(8, None))
        mds = {p.memory_differential for p in sweep.points()}
        assert mds == {0, 60}

    def test_issue_split_partitions_combined_width(self):
        sweep = issue_split_sweep("trfd")
        assert all(
            p.au_width + p.du_width == 9 for p in sweep.points()
        )

    def test_bypass_entry_zero_means_fixed(self):
        points = list(bypass_sweep("trfd", entry_counts=(0, 16)).points())
        assert points[0].memory.kind == "fixed"
        assert points[1].memory == MemorySpec(
            kind="bypass", entries=16, line_bytes=1
        )

    def test_base_overrides_reach_every_point(self):
        sweep = speedup_sweep("trfd", windows=(8,), au_width=2, du_width=7)
        assert all(
            (p.au_width, p.du_width) == (2, 7) for p in sweep.points()
        )
