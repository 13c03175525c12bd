"""Deterministic RNG, generators, scenario files, CSV/SVG artifacts, CLI."""

import hashlib
import json
import math

import numpy as np
import pytest

from polyshort import simulate
from polyshort.artifacts import (
    Scenario,
    ScenarioError,
    load_scenario,
    read_trajectory_csv,
    render_svg,
    scenario_from_dict,
    scenario_polygon,
    write_trajectory_csv,
)
from polyshort.cli import cli_main
from polyshort.flows import FlowKind, FlowSpec
from polyshort.generators import GenerationFailedError, GeneratorKind, GeneratorSpec, SplitMix64, generate
from polyshort.geometry import (
    ConvexityTag,
    Polygon,
    StarTag,
    classify_convexity,
    classify_star,
    is_simple,
)
from polyshort.simulate import SimConfig, Termination, Trajectory, run


def small_trajectory():
    tri = Polygon([(0, 0), (2, 0), (1, 1.5)])
    return run(tri, FlowSpec.linear(), SimConfig(t_end=0.02, dt=0.01))


class TestSplitMix64:
    def test_seed_zero_known_answers(self):
        r = SplitMix64(0)
        assert r.next_u64() == 0xE220A8397B1DCDAF
        assert r.next_u64() == 0x6E789E6AA1B965F4
        assert r.next_u64() == 0x06C45D188009454F

    def test_streams_are_reproducible(self):
        a, b = SplitMix64(987654321), SplitMix64(987654321)
        assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]

    def test_seed_wraps_at_64_bits(self):
        assert SplitMix64(1 << 64).next_u64() == SplitMix64(0).next_u64()

    def test_uniform_uses_top_53_bits(self):
        raw = SplitMix64(314).next_u64()
        assert SplitMix64(314).uniform() == (raw >> 11) / float(1 << 53)

    def test_uniform_bounds(self):
        r = SplitMix64(7)
        vals = [r.uniform(2.0, 5.0) for _ in range(1000)]
        assert all(2.0 <= v < 5.0 for v in vals)

    @pytest.mark.parametrize("k", [2.5, -2, True, np.True_, "3", None])
    def test_draw_count_is_a_nonnegative_integer(self, k):
        # next_u64s(2.5) once drew 3 values but moved the state by 2, and
        # next_u64s(-2) moved it back; a refused count moves nothing
        r = SplitMix64(5)
        with pytest.raises(ValueError, match="nonnegative integer"):
            r.next_u64s(k)
        assert r.next_u64() == SplitMix64(5).next_u64()

    @pytest.mark.parametrize("size", [True, 2.5, -1])
    def test_uniform_size_is_a_nonnegative_integer(self, size):
        # uniform(size=True) once drew one value
        with pytest.raises(ValueError, match="nonnegative integer"):
            SplitMix64(5).uniform(size=size)

    def test_draw_count_may_be_a_numpy_integer(self):
        r = SplitMix64(5)
        assert r.next_u64s(np.int64(0)).shape == (0,)
        assert r.next_u64s(np.uint8(3)).tolist() == SplitMix64(5).next_u64s(3).tolist()


class TestGeneratorSpec:
    def test_fixture_kinds_reject_n(self):
        with pytest.raises(ValueError):
            GeneratorSpec(GeneratorKind.BOOMERANG, n=10)
        with pytest.raises(ValueError):
            GeneratorSpec(GeneratorKind.EMBEDDED_LOSS, n=19)

    def test_parametric_kinds_require_n(self):
        with pytest.raises(ValueError):
            GeneratorSpec(GeneratorKind.RANDOM_STAR)
        with pytest.raises(ValueError):
            GeneratorSpec(GeneratorKind.REGULAR, n=2)
        with pytest.raises(ValueError):
            GeneratorSpec(GeneratorKind.RANDOM_CONVEX, n=1001)

    @pytest.mark.parametrize(
        "kind", [GeneratorKind.REGULAR, GeneratorKind.RANDOM_STAR, GeneratorKind.RANDOM_CONVEX, GeneratorKind.COLLINEAR]
    )
    def test_n_must_be_an_integer(self, kind):
        for n in (5.0, 5.5):
            with pytest.raises(ValueError, match="integer"):
                GeneratorSpec(kind, n=n)
        assert generate(GeneratorSpec(kind, n=np.int64(5)), 1).n == 5

    def test_radius_range_validated(self):
        with pytest.raises(ValueError):
            GeneratorSpec(GeneratorKind.RANDOM_STAR, n=5, radius_range=(0.0, 1.0))
        with pytest.raises(ValueError):
            GeneratorSpec(GeneratorKind.RANDOM_STAR, n=5, radius_range=(2.0, 1.0))

    @pytest.mark.parametrize("radius_range", [(0.5, math.inf), (math.inf, math.inf), (0.5, math.nan), (-1.0, 1.0)])
    def test_radius_range_is_finite(self, radius_range):
        # (0.5, inf) once passed here and failed later on non-finite vertices
        with pytest.raises(ValueError, match="0 < lo <= hi < inf"):
            GeneratorSpec(GeneratorKind.RANDOM_STAR, n=5, radius_range=radius_range)

    @pytest.mark.parametrize("radius_range", [(True, 2.0), (0.5, np.True_)])
    def test_radius_range_is_not_bools(self, radius_range):
        # (True, 2) was once taken as (1, 2)
        with pytest.raises(TypeError, match="radius_range must not hold bools"):
            GeneratorSpec(GeneratorKind.RANDOM_STAR, n=5, radius_range=radius_range)

    @pytest.mark.parametrize("kind", ["random_star", None, 3])
    def test_kind_is_a_generator_kind(self, kind):
        # GeneratorSpec("random_star", n=6) once generated the embedded_loss fixture
        with pytest.raises(TypeError, match="must be a GeneratorKind"):
            GeneratorSpec(kind, n=6)


# the first 16 hex digits of the sha256 of generate(kind, n)'s little-endian complex128
# vertices, for each n and each of GENERATED_SEEDS: the same polygons, bit for bit, as when
# each coordinate was one scalar draw
GENERATED_SEEDS = (0, 1002, 2001, (1 << 64) - 1)
GENERATED_SHA256 = {
    "random_star": {
        4: ("b9b0a6ff0bbb5ccc", "7d12bea610e6f234", "1b450c4a16f4d94b", "97650f36bcd8e29a"),
        12: ("a39239998ce90207", "c42fb499926c35f3", "dd57d9ec4ad900d1", "6a9f9e45a544ee4e"),
        128: ("86c467cc08510869", "2642ceb86644889a", "7697726b44b2f617", "b926865cc3ae1f11"),
        384: ("372351a17981031c", "88f165c937494f48", "267ddec56ff99447", "b795461c5f9e6ba5"),
        1000: ("70ec93bce6200532", "1f95fffb1b388e1e", "7445d7f5706b4bd3", "d319d5453045ede0"),
    },
    "random_convex": {
        4: ("63a31a2762cb1ed0", "32c605317db94ac1", "dadc7243286939eb", "5c313a8d4b107011"),
        12: ("c1538f63f46a9bb9", "2da46deeff9da4d0", "7299ad8d14353492", "5a9336dc4583fdf2"),
        128: ("46a237fac52020e9", "2381233836bbedb1", "56b272b3b365bc59", "8540e8a3a0f16d7a"),
        384: ("dd87d8fa5dcf88b5", "fc580311f35da147", "78e09b60b6a011c3", "634f826ecdab28a5"),
        1000: ("ce4aa3e5b4d6be67", "d1e1b89bf1707a0e", "c2cedde3f26a1d3d", "d8f3223f4e1d17a7"),
    },
    "collinear": {
        4: ("e587b4b092b178a9", "115e8f44a4abc69d", "6efe7438470bf7e9", "a22ec821af6727a6"),
        12: ("e47f0b5dd4e6b97c", "1a866dc6b295f58d", "5a384a4937eee083", "7ede246b20b523c4"),
        128: ("689f722232762b6c", "4cb9a7c391bf0652", "df361313caed2edc", "49073701780db603"),
        384: ("c26225c96edb1150", "b5073c9217cd3d89", "603aa6d7563b7f2f", "014e94d40353b154"),
        1000: ("1506667208561882", "75e08bfb7740513d", "5637b0550a9227f8", "f077d015fe24beac"),
    },
}


class TestGenerate:
    def test_regular_hexagon(self):
        p = generate(GeneratorSpec(GeneratorKind.REGULAR, n=6), 0)
        expect = np.exp(2j * np.pi * np.arange(6) / 6)
        assert np.max(np.abs(p.z - expect)) < 1e-15

    def test_random_star_postcondition(self):
        spec = GeneratorSpec(GeneratorKind.RANDOM_STAR, n=10, radius_range=(0.5, 1.5))
        p = generate(spec, 42)
        assert p.n == 10
        assert classify_star(p).tag is StarTag.CCW_STAR
        r = np.abs(p.z)
        assert np.all((r >= 0.5) & (r <= 1.5))

    def test_random_convex_postcondition(self):
        p = generate(GeneratorSpec(GeneratorKind.RANDOM_CONVEX, n=7), 7)
        assert p.n == 7
        assert classify_convexity(p).tag is ConvexityTag.STRICTLY_CONVEX

    def test_collinear_postcondition(self):
        p = generate(GeneratorSpec(GeneratorKind.COLLINEAR, n=6), 11)
        assert p.n == 6
        z = p.z
        d = np.abs(z[:, None] - z[None, :])
        i, j = np.unravel_index(int(d.argmax()), d.shape)
        direction = (z[j] - z[i]) / abs(z[j] - z[i])
        offs = (z - z[i]) * np.conj(direction)
        assert np.abs(offs.imag).max() <= 1e-9 * p.diameter()

    @pytest.mark.parametrize("n", [100, 1000])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_collinear_builds_large_n(self, n, seed):
        # the spacing floor shrinks like 1 / n**2, as the smallest gap of n draws does
        p = generate(GeneratorSpec(GeneratorKind.COLLINEAR, n=n), seed)
        assert p.n == n
        offs = (p.z - p.z[0]) * np.conj(p.z[1] - p.z[0]) / abs(p.z[1] - p.z[0])
        assert np.abs(offs.imag).max() <= 1e-9 * p.diameter()

    @pytest.mark.parametrize("kind", sorted(GENERATED_SHA256))
    @pytest.mark.parametrize("n", [4, 12, 128, 384, 1000])
    def test_generated_vertices_are_pinned(self, kind, n):
        got = [
            hashlib.sha256(generate(GeneratorSpec(GeneratorKind(kind), n=n), seed).z.astype("<c16").tobytes()).hexdigest()
            for seed in GENERATED_SEEDS
        ]
        assert [h[:16] for h in got] == list(GENERATED_SHA256[kind][n])

    def test_fixtures_are_frozen_counterexamples(self):
        boom = generate(GeneratorSpec(GeneratorKind.BOOMERANG), 0)
        assert boom.n == 10
        assert is_simple(boom)
        assert classify_convexity(boom).tag is ConvexityTag.NOT_CONVEX
        loss = generate(GeneratorSpec(GeneratorKind.EMBEDDED_LOSS), 0)
        assert loss.n == 19
        assert is_simple(loss)
        # fixtures ignore the seed entirely
        assert np.array_equal(boom.z, generate(GeneratorSpec(GeneratorKind.BOOMERANG), 99).z)

    def test_seed_determines_output(self):
        spec = GeneratorSpec(GeneratorKind.RANDOM_STAR, n=8)
        assert np.array_equal(generate(spec, 3).z, generate(spec, 3).z)
        assert not np.array_equal(generate(spec, 3).z, generate(spec, 4).z)


class TestScenario:
    DOC = {
        "name": "demo",
        "polygon": {"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]},
        "flow": {"kind": "linear"},
        "sim": {"t_end": 1.0, "dt": 0.01, "record_every": 5},
        "seed": 9,
        "outputs": ["csv", "svg"],
    }

    def test_parse_full_document(self):
        sc = scenario_from_dict(self.DOC)
        assert sc.name == "demo"
        assert isinstance(sc.polygon, Polygon)
        assert sc.flow.kind is FlowKind.LINEAR
        assert sc.sim.t_end == 1.0
        assert sc.sim.record_every == 5
        assert sc.seed == 9
        assert sc.outputs == frozenset({"csv", "svg"})

    def test_parse_generator_polygon(self):
        doc = dict(self.DOC)
        doc["polygon"] = {"generator": {"kind": "random_star", "n": 6}}
        sc = scenario_from_dict(doc)
        assert isinstance(sc.polygon, GeneratorSpec)
        assert scenario_polygon(sc).n == 6

    def test_defaults(self):
        doc = {
            "name": "d",
            "polygon": {"vertices": [[0, 0], [1, 0], [0, 1]]},
            "flow": {"kind": "menger_melnikov"},
            "sim": {"t_end": 0.1},
        }
        sc = scenario_from_dict(doc)
        assert sc.seed == 0
        assert sc.outputs == frozenset()

    def test_bisector_flow_options(self):
        doc = dict(self.DOC)
        doc["flow"] = {"kind": "bisector", "speed_mode": "norm_matched"}
        sc = scenario_from_dict(doc)
        assert sc.flow.kind is FlowKind.BISECTOR
        doc["flow"] = {"kind": "bisector", "speed": 2.0}
        assert scenario_from_dict(doc).flow.bisector_speed == 2.0

    @pytest.mark.parametrize(
        "mutation",
        [
            {"flow": {"kind": "warp"}},
            {"polygon": {}},
            {"polygon": {"generator": {"kind": "nope"}}},
            {"sim": {}},
            {"outputs": ["csv", "pdf"]},
            {"polygon": {"vertices": [[0, 0], [1, 0]]}},
            {"sim": {"t_end": 1.0, "adaptive": "false"}},
            {"sim": {"t_end": 1.0, "adaptive": 0}},
            {"sim": {"t_end": 1.0, "record_every": 2.5}},
            {"sim": {"t_end": 1.0, "record_every": 2.0}},
            {"sim": {"t_end": 1.0, "record_every": True}},
            {"polygon": {"generator": {"kind": "random_star", "n": 6.9}}},
            {"polygon": {"generator": {"kind": "random_star", "n": "6"}}},
            {"polygon": {"generator": {"kind": "random_star", "n": 6, "radius_range": [0.5, "1.5"]}}},
            {"polygon": {"generator": {"kind": "random_star", "n": 6, "radius_range": [True, 1.5]}}},
            {"seed": 2.7},
            {"seed": True},
            {"flow": {"kind": "bisector", "speed": "2"}},
            {"sim": {"t_end": "1e-1"}},
            {"sim": {"t_end": 1.0, "dt": True}},
            {"sim": {"t_end": 1.0, "stop_diameter": "0"}},
            {"sim": {"t_end": 1.0, "min_edge_capture": False}},
            {"sim": {"t_end": math.inf, "stop_diameter": 0}},
            {"sim": {"t_end": 1.0, "dt": math.inf}},
            {"sim": {"t_end": 1.0, "stop_diameter": math.nan}},
            {"sim": {"t_end": 1.0, "min_edge_capture": math.nan}},
            {"outputs": 5},
            {"outputs": [["csv"]]},
            {"sim": {"t_end": 10**400}},
            {"polygon": {"vertices": [[10**400, 0], [1, 0], [0, 1]]}},
            {"polygon": {"generator": {"kind": "random_star", "n": 6, "radius_range": [0.5, 10**400]}}},
            {"polygon": {"vertices": [[k, k * k] for k in range(1001)]}},
        ],
    )
    def test_malformed_documents_rejected(self, mutation):
        doc = dict(self.DOC)
        doc.update(mutation)
        with pytest.raises(ScenarioError):
            scenario_from_dict(doc)

    def test_json_typed_sim_fields_accepted(self):
        doc = dict(self.DOC)
        doc["sim"] = {"t_end": 1.0, "adaptive": False, "record_every": 3}
        sim = scenario_from_dict(doc).sim
        assert sim.adaptive is False
        assert sim.record_every == 3
        doc["sim"] = {"t_end": 1, "dt": 0.5, "stop_diameter": 0, "min_edge_capture": None}
        sim = scenario_from_dict(doc).sim
        assert (sim.t_end, sim.dt, sim.stop_diameter, sim.min_edge_capture) == (1.0, 0.5, 0.0, None)
        assert type(sim.t_end) is float

    def test_missing_key_rejected(self):
        doc = dict(self.DOC)
        del doc["sim"]
        with pytest.raises(ScenarioError):
            scenario_from_dict(doc)

    def test_load_scenario_bad_json(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text("{not json", encoding="utf-8")
        with pytest.raises(ScenarioError):
            load_scenario(f)
        # nested deeper than the JSON decoder's recursion allows
        f.write_text("[" * 100000, encoding="utf-8")
        with pytest.raises(ScenarioError, match="invalid JSON"):
            load_scenario(f)


class TestTrajectoryCsv:
    def test_header_and_shape(self, tmp_path):
        traj = small_trajectory()
        path = tmp_path / "t.csv"
        write_trajectory_csv(traj, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "t,x1,y1,x2,y2,x3,y3,perimeter,area,minF,minH,min_edge"
        assert len(lines[0].split(",")) == 12
        assert len(lines) == len(traj) + 2
        assert lines[-1] == f"# termination={traj.termination.name}"

    def test_roundtrip_bit_exact(self, tmp_path):
        traj = small_trajectory()
        path = tmp_path / "t.csv"
        write_trajectory_csv(traj, path)
        back = read_trajectory_csv(path)
        assert back.termination is traj.termination
        assert np.array_equal(back.times, traj.times)
        assert np.array_equal(back.perimeter, traj.perimeter)
        assert np.array_equal(back.signed_area, traj.signed_area)
        assert np.array_equal(back.min_f, traj.min_f)
        assert np.array_equal(back.min_h, traj.min_h)
        assert np.array_equal(back.min_edge, traj.min_edge)
        for a, b in zip(back.states, traj.states):
            assert np.array_equal(a.z, b.z)

    def test_roundtrip_bit_exact_at_the_ends_of_the_range(self, tmp_path):
        # signed zeros, a subnormal and +-1e300, with every diagnostic finite
        tiny = 5e-324
        z = np.array(
            [
                [1e300, -0.0 + tiny * 1j, -1e300 - 0.0j, tiny - tiny * 1j],
                [1e300 - 0.0j, -tiny, -1e300 + tiny * 1j, -0.0 - 0.0j],
                [-0.0, 1e300 + tiny * 1j, tiny, -1e300],
            ]
        )
        traj = Trajectory(np.array([-0.0, tiny, 1e300]), z, Termination.T_END)
        path = tmp_path / "t.csv"
        write_trajectory_csv(traj, path)
        back = read_trajectory_csv(path)
        for name in ("times", "z", "perimeter", "signed_area", "min_f", "min_h", "min_edge"):
            a, b = getattr(back, name), getattr(traj, name)
            assert np.isfinite(b).all()
            assert a.tobytes() == b.tobytes(), name

    def test_rejects_empty_trajectory(self, tmp_path):
        empty = Trajectory(times=np.array([]), z=np.empty((0, 3), complex), termination=Termination.T_END)
        with pytest.raises(ValueError):
            write_trajectory_csv(empty, tmp_path / "e.csv")

    @pytest.mark.parametrize(
        "text",
        [
            "t,x1,y1\n0,0,0\n",
            "z,x1,y1,x2,y2,x3,y3,perimeter,area,minF,minH,min_edge\n" + "0," * 11 + "0\n# termination=T_END\n",
            "t,x1,y1,x2,y2,x3,y3,perimeter,area,minF,minH,min_edge\n" + "0," * 11 + "0\n",
            "t,x1,y1,x2,y2,x3,y3,perimeter,area,minF,minH,min_edge\n0,1\n# termination=T_END\n",
            "t,x1,y1,x2,y2,x3,y3,perimeter,area,minF,minH,min_edge\n" + "0," * 11 + "0\n# termination=BOGUS\n",
            "t,x1,y1,x2,y2,x3,y3,perimeter,area,minF,minH,edge\n" + "0," * 11 + "0\n# termination=T_END\n",
            "t,x1,y1,x2,y2,x3,y3,perimeter,area,minF,minH,min_edge\n" + "0," * 11 + "abc\n# termination=T_END\n",
            "t,x1,y1,x2,y2,x3,y3,perimeter,area,minF,minH,min_edge\n" + "0," * 11 + "nan\n# termination=T_END\n",
            # an all-zero row is self-consistent: every diagnostic of it is 0
            "t,x1,y1,x2,y2,x3,y3,perimeter,area,minF,minH,min_edge\n" + "0," * 11 + "0\n"
            "0.5,0,0,0,0,0,0,99,0,0,0,0\n# termination=T_END\n",
            "t,x1,y1,x2,y2,x3,y3,perimeter,area,minF,minH,min_edge\n0.5," + "0," * 10 + "0\n# termination=T_END\n",
            "t,x1,y1,x2,y2,x3,y3,perimeter,area,minF,minH,min_edge\n" + "0," * 11 + "0\n"
            "0.5," + "0," * 10 + "0\n0.1," + "0," * 10 + "0\n# termination=T_END\n",
        ],
    )
    def test_rejects_malformed_files(self, tmp_path, text):
        f = tmp_path / "bad.csv"
        f.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match="bad.csv"):
            read_trajectory_csv(f)


class TestRenderSvg:
    def test_single_snapshot_square(self):
        sq = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        traj = run(sq, FlowSpec.linear(), SimConfig(t_end=0.01, dt=0.01))
        svg = render_svg(traj, snapshot_times=[0.0])
        assert svg.count("<path") == 1
        d = svg.split(' d="')[1].split('"')[0]
        assert d.startswith("M ")
        assert d.count(" L ") == 3
        assert d.endswith("Z")
        assert "viewBox=" in svg

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_snapshot_time_that_is_not_finite(self, t):
        with pytest.raises(ValueError, match="finite"):
            render_svg(small_trajectory(), snapshot_times=[0.01, t])

    def test_snapshot_time_outside_the_run_draws_its_nearer_end(self):
        # far out, every |times - t| rounded to |t| and the first row won the tie
        sq = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        traj = run(sq, FlowSpec.linear(), SimConfig(t_end=1.0, dt=0.1))
        first, last = (render_svg(traj, snapshot_times=[t]) for t in (0.0, 1.0))
        assert first != last
        assert render_svg(traj, snapshot_times=[-1e300]) == render_svg(traj, snapshot_times=[-5.0]) == first
        assert render_svg(traj, snapshot_times=[1e300]) == render_svg(traj, snapshot_times=[5.0]) == last
        assert render_svg(traj, snapshot_times=[1e300, 0.0]) == render_svg(traj, snapshot_times=[0.0, 1.0])

    def test_default_five_snapshots_and_paths(self):
        traj = small_trajectory()
        svg = render_svg(traj)
        # 3 recorded samples -> 3 distinct default picks; one polyline per vertex
        assert svg.count("<path") == 3
        assert svg.count("<polyline") == traj.n

    def test_centroid_marker(self):
        traj = small_trajectory()
        svg = render_svg(traj, mark_centroid=True)
        assert svg.count("<line") == 3

    def test_byte_deterministic(self):
        traj = small_trajectory()
        assert render_svg(traj) == render_svg(traj)

    def test_rejects_empty(self):
        empty = Trajectory(times=np.array([]), z=np.empty((0, 3), complex), termination=Termination.T_END)
        with pytest.raises(ValueError):
            render_svg(empty)


def write_scenario(tmp_path, **overrides):
    doc = {
        "name": "sq",
        "polygon": {"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]},
        "flow": {"kind": "linear"},
        "sim": {"t_end": 0.5, "dt": 0.01, "record_every": 10},
        "outputs": ["csv", "svg", "report_json"],
    }
    doc.update(overrides)
    path = tmp_path / f"{doc['name']}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class TestCli:
    def test_spectrum_table_is_one_based(self, capsys):
        assert cli_main(["spectrum", "--n", "4"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("# mode eigenvalue")
        assert out[1] == "1 0"
        assert out[2] == "2 -1"
        assert out[3] == "3 -2"
        assert out[4] == "4 -1"

    def test_spectrum_scenario_dimension_mismatch(self, tmp_path, capsys):
        sc = write_scenario(tmp_path)
        assert cli_main(["spectrum", "--n", "5", "--scenario", str(sc)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("n", ["2", "1001", "1000000000000000"])
    def test_spectrum_n_outside_vertex_bound(self, capsys, n):
        assert cli_main(["spectrum", "--n", n]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --n must be within [3, 1000]")

    def test_spectrum_scenario_magnitudes(self, tmp_path, capsys):
        sc = write_scenario(tmp_path)
        assert cli_main(["spectrum", "--n", "4", "--scenario", str(sc)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "# mode eigenvalue coeff_magnitude"
        assert len(out[1].split()) == 3

    def test_simulate_writes_declared_outputs(self, tmp_path, capsys):
        sc = write_scenario(tmp_path)
        assert cli_main(["simulate", "--scenario", str(sc), "--out-dir", str(tmp_path)]) == 0
        assert (tmp_path / "sq.csv").exists()
        assert (tmp_path / "sq.svg").exists()
        summary = json.loads((tmp_path / "sq.json").read_text(encoding="utf-8"))
        assert summary["termination"] == "T_END"
        assert summary["perimeter_final"] < summary["perimeter_initial"]
        assert "termination=T_END" in capsys.readouterr().out

    def test_simulate_is_bit_deterministic(self, tmp_path, capsys):
        sc = write_scenario(tmp_path, name="gen", polygon={"generator": {"kind": "random_star", "n": 8}}, seed=5)
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert cli_main(["simulate", "--scenario", str(sc), "--out-dir", str(a)]) == 0
        assert cli_main(["simulate", "--scenario", str(sc), "--out-dir", str(b)]) == 0
        capsys.readouterr()
        assert (a / "gen.csv").read_bytes() == (b / "gen.csv").read_bytes()
        assert (a / "gen.svg").read_bytes() == (b / "gen.svg").read_bytes()

    def test_simulate_missing_scenario_is_usage_error(self, tmp_path, capsys):
        code = cli_main(["simulate", "--scenario", str(tmp_path / "absent.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_simulate_flow_override(self, tmp_path, capsys):
        sc = write_scenario(tmp_path, outputs=["csv"])
        out = tmp_path / "o"
        assert cli_main([
            "simulate", "--scenario", str(sc), "--flow", "menger_melnikov",
            "--t-end", "0.1", "--out-dir", str(out),
        ]) == 0
        capsys.readouterr()
        traj = read_trajectory_csv(out / "sq.csv")
        # MM shrinks the square strictly inside its hull immediately
        assert traj.perimeter[-1] < traj.perimeter[0]

    def test_analyze_pass_and_fail_paths(self, tmp_path, capsys):
        sc = write_scenario(tmp_path, outputs=["csv"])
        assert cli_main(["simulate", "--scenario", str(sc), "--out-dir", str(tmp_path)]) == 0
        csv = tmp_path / "sq.csv"
        assert cli_main(["analyze", "--csv", str(csv), "--checks", "perimeter,convex,area"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3
        assert cli_main(["analyze", "--csv", str(csv), "--checks", "bogus"]) == 2
        capsys.readouterr()

    def test_analyze_unknown_termination_is_usage_error(self, tmp_path, capsys):
        csv = tmp_path / "t.csv"
        write_trajectory_csv(small_trajectory(), csv)
        text = csv.read_text(encoding="utf-8").replace("termination=T_END", "termination=BOGUS")
        csv.write_text(text, encoding="utf-8")
        assert cli_main(["analyze", "--csv", str(csv)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:") and "t.csv" in err[0] and "BOGUS" in err[0]

    def test_analyze_tampered_csv_is_usage_error(self, tmp_path, capsys):
        csv = tmp_path / "t.csv"
        write_trajectory_csv(small_trajectory(), csv)
        lines = csv.read_text(encoding="utf-8").splitlines()
        cells = lines[2].split(",")
        cells[7] = "99"  # the perimeter of the second sample
        lines[2] = ",".join(cells)
        csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert cli_main(["analyze", "--csv", str(csv)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:") and "t.csv" in err[0] and "perimeter" in err[0]

    def test_directory_path_is_usage_error(self, tmp_path, capsys):
        for argv in (["simulate", "--scenario", str(tmp_path)], ["analyze", "--csv", str(tmp_path)]):
            assert cli_main(argv) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error:")

    def test_simulate_step_cap_exits_1(self, tmp_path, capsys, monkeypatch):
        # the run would take 50 steps without the cap
        monkeypatch.setattr(simulate, "MAX_STEPS", 3)
        sc = write_scenario(tmp_path, sim={"t_end": 0.5, "dt": 0.01, "stop_diameter": 0, "record_every": 1})
        assert cli_main(["simulate", "--scenario", str(sc), "--out-dir", str(tmp_path)]) == 1
        assert "termination=MAX_STEPS" in capsys.readouterr().out
        summary = json.loads((tmp_path / "sq.json").read_text(encoding="utf-8"))
        assert summary["termination"] == "MAX_STEPS" and summary["samples"] == 4
        assert read_trajectory_csv(tmp_path / "sq.csv").termination is Termination.MAX_STEPS

    def test_simulate_string_adaptive_is_usage_error(self, tmp_path, capsys):
        sim = {"t_end": 0.5, "dt": 0.01, "adaptive": "false"}
        sc = write_scenario(tmp_path, sim=sim)
        assert cli_main(["simulate", "--scenario", str(sc), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "adaptive" in err[0]

    def test_analyze_not_applicable(self, tmp_path, capsys):
        # a star (nonconvex) start makes the convexity check inapplicable
        sc = write_scenario(
            tmp_path, name="star",
            polygon={"generator": {"kind": "random_star", "n": 7}},
            seed=5, outputs=["csv"],
        )
        assert cli_main(["simulate", "--scenario", str(sc), "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        code = cli_main(["analyze", "--csv", str(tmp_path / "star.csv"), "--checks", "convex"])
        assert code == 1
        assert "NOT_APPLICABLE" in capsys.readouterr().out

    def test_analyze_json_report(self, tmp_path, capsys):
        def strict(text):
            # Infinity and NaN are not JSON
            return json.loads(text, parse_constant=lambda c: pytest.fail(f"{c} in the report"))

        sc = write_scenario(tmp_path, outputs=["csv"])
        assert cli_main(["simulate", "--scenario", str(sc), "--out-dir", str(tmp_path)]) == 0
        out_json = tmp_path / "rep.json"
        assert cli_main(["analyze", "--csv", str(tmp_path / "sq.csv"), "--checks", "perimeter", "--out-json", str(out_json)]) == 0
        capsys.readouterr()
        doc = strict(out_json.read_text(encoding="utf-8"))
        assert doc["passed"] is True
        assert doc["checks"][0]["check_name"] == "perimeter_monotone"
        assert doc["not_applicable"] == []
        # shorter than one leading time constant: the ellipse check does not apply
        sc = write_scenario(
            tmp_path, name="short", polygon={"generator": {"kind": "random_star", "n": 8}},
            sim={"t_end": 0.5, "dt": 0.01, "record_every": 10}, outputs=["csv"],
        )
        assert cli_main(["simulate", "--scenario", str(sc), "--out-dir", str(tmp_path)]) == 0
        assert cli_main(["analyze", "--csv", str(tmp_path / "short.csv"), "--checks", "ellipse", "--out-json", str(out_json)]) == 1
        assert "NOT_APPLICABLE  ellipse: no pair of samples past one leading time constant" in capsys.readouterr().out
        doc = strict(out_json.read_text(encoding="utf-8"))
        # the exit code is 1, so the report must not pass
        assert doc == {
            "passed": False,
            "checks": [],
            "not_applicable": [{"check": "ellipse", "reason": "no pair of samples past one leading time constant"}],
        }

    def test_reproduce_fig8_area_check_fails(self, tmp_path, capsys):
        assert cli_main(["reproduce", "fig8", "--out-dir", str(tmp_path)]) == 0
        for name in ("fig8.svg", "fig8.csv", "fig8_area.csv"):
            assert (tmp_path / name).exists()
        area_lines = (tmp_path / "fig8_area.csv").read_text(encoding="utf-8").splitlines()
        assert area_lines[0] == "t,area"
        code = cli_main(["analyze", "--csv", str(tmp_path / "fig8.csv"), "--checks", "area"])
        out = capsys.readouterr().out
        assert code == 1
        fail_line = [ln for ln in out.splitlines() if ln.startswith("FAIL")][0]
        assert "area_monotone" in fail_line

    def test_reproduce_fig7_is_byte_stable(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli_main(["reproduce", "fig7", "--out-dir", str(a)]) == 0
        assert cli_main(["reproduce", "fig7", "--out-dir", str(b)]) == 0
        capsys.readouterr()
        assert (a / "fig7.svg").read_bytes() == (b / "fig7.svg").read_bytes()

    def test_validate_small_ensemble(self, tmp_path, capsys):
        out_json = tmp_path / "v.json"
        code = cli_main(["validate", "--ensemble-size", "2", "--seed", "1", "--out-json", str(out_json)])
        out = capsys.readouterr().out
        assert code == 0
        assert "all checks passed" in out
        doc = json.loads(out_json.read_text(encoding="utf-8"))
        assert doc["passed"] is True
        assert doc["seed"] == 1

    @pytest.mark.parametrize("size", ["0", "-1"])
    def test_validate_rejects_empty_ensemble(self, capsys, size):
        assert cli_main(["validate", "--ensemble-size", size, "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: --ensemble-size must be at least 1, not {size}"]

    def test_no_arguments_is_usage_error(self, capsys):
        assert cli_main([]) == 2
        capsys.readouterr()
