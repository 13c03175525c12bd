"""Geometry predicates: frozen oracles plus algebraic property tests."""

import math
import tracemalloc

import numpy as np
import pytest

from polyshort import geometry
from polyshort.analysis import check_area_monotone
from polyshort.flows import FlowSpec
from polyshort.generators import (
    _BOOMERANG_VERTICES,
    _EMBEDDED_LOSS_VERTICES,
    GeneratorKind,
    GeneratorSpec,
    generate,
)
from polyshort.geometry import (
    ConvexityTag,
    Polygon,
    StarTag,
    centroid,
    circumcircle,
    classify_convexity,
    classify_star,
    convex_function,
    convexity_values,
    is_simple,
    perimeter,
    signed_area,
    star_function,
    star_values,
)
from polyshort.simulate import SimConfig, TrajectoryPredicate, detect_first, run

try:
    from hypothesis import given
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False

COORDS = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False) if HAVE_HYPOTHESIS else None


def regular_ngon(n, radius=1.0):
    k = np.arange(n)
    return Polygon(radius * np.exp(2j * np.pi * k / n))


UNIT_SQUARE = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])


class TestPolygonConstruction:
    def test_accepts_pairs_and_complex(self):
        a = Polygon([(0, 0), (1, 0), (0, 1)])
        b = Polygon([0j, 1 + 0j, 1j])
        assert a == b

    def test_rejects_fewer_than_three(self):
        with pytest.raises(ValueError):
            Polygon([(0, 0), (1, 0)])

    def test_rejects_exact_duplicates(self):
        with pytest.raises(ValueError):
            Polygon([(0, 0), (1, 0), (0, 0)])

    def test_accepts_near_duplicates(self):
        # distinctness is exact equality only
        p = Polygon([(0, 0), (1e-300, 0), (1, 0), (0, 1)])
        assert p.n == 4

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Polygon([(0, 0), (1, 0), (np.nan, 1)])
        with pytest.raises(ValueError):
            Polygon([(0, 0), (np.inf, 0), (0, 1)])

    @pytest.mark.parametrize("bad", [("1", "0"), (1j, 0)])
    def test_pairs_must_be_real_numbers(self, bad):
        with pytest.raises(TypeError, match="real numbers"):
            Polygon([(0, 0), bad, (0, 1)])

    def test_vertices_must_be_numbers(self):
        # numeric strings are not parsed: "1j" is text, not the point i
        with pytest.raises(TypeError, match="vertices must be numbers"):
            Polygon(["0", "1", "1j"])

    @pytest.mark.parametrize(
        "vertices",
        [
            [(True, False), (False, True), (True, True)],
            [(True, 0.5), (0, 1), (2, 2)],
            [(0, 0), (1, np.True_), (0, 1)],
            np.array([(0, 0), (1, True), (0, 1)], dtype=object),
        ],
        ids=["all", "first", "numpy", "object_array"],
    )
    def test_boolean_coordinates_are_refused(self, vertices):
        # numpy promotes a bool among numbers to 1 or 0: (True, 0.5) would be 1+0.5j
        with pytest.raises(TypeError, match="real numbers"):
            Polygon(vertices)
        with pytest.raises(TypeError, match="vertices must be numbers"):
            Polygon([True, 1j, 2])

    def test_wrap_shares_only_a_read_only_complex_array(self):
        z = np.array([0, 1, 1j])
        frozen = z.copy()
        frozen.flags.writeable = False
        assert Polygon._wrap(frozen).z is frozen
        for other in (z, np.array([0.0, 1.0, 2.0]), frozen.astype(np.complex64)):
            p = Polygon._wrap(other)
            assert p.z is not other and p.z.dtype == np.complex128 and not p.z.flags.writeable
            assert np.array_equal(p.z, other)

    def test_vertices_are_frozen(self):
        p = UNIT_SQUARE
        with pytest.raises(ValueError):
            p.z[0] = 5.0


class TestCentroid:
    def test_unit_square(self):
        assert centroid(UNIT_SQUARE) == pytest.approx(0.5 + 0.5j)

    def test_regular_ngon_origin(self):
        for n in (3, 5, 8):
            assert abs(centroid(regular_ngon(n))) < 1e-14

    def test_right_triangle(self):
        assert centroid(Polygon([(0, 0), (3, 0), (0, 3)])) == pytest.approx(1 + 1j)


class TestPerimeter:
    def test_unit_square(self):
        assert perimeter(UNIT_SQUARE) == pytest.approx(4.0)

    def test_equilateral_triangle_side_one(self):
        tri = regular_ngon(3, radius=1.0 / math.sqrt(3.0))
        assert perimeter(tri) == pytest.approx(3.0)

    def test_hexagon_circumradius_one(self):
        assert perimeter(regular_ngon(6)) == pytest.approx(6.0)


class TestSignedArea:
    def test_unit_square_ccw(self):
        assert signed_area(UNIT_SQUARE) == pytest.approx(1.0)

    def test_unit_square_cw(self):
        cw = Polygon([(0, 0), (0, 1), (1, 1), (1, 0)])
        assert signed_area(cw) == pytest.approx(-1.0)

    def test_right_triangle(self):
        assert signed_area(Polygon([(0, 0), (2, 0), (0, 2)])) == pytest.approx(2.0)

    def test_reversal_negates_exactly(self):
        p = Polygon([(0.1, 0.7), (2.3, -0.4), (1.9, 1.8), (-0.6, 1.1)])
        r = Polygon(p.z[::-1])
        assert signed_area(r) == -signed_area(p)


class TestStarFunction:
    def test_quarter_turn_positive(self):
        assert star_function(1, 0, 1j) == 1.0

    def test_collinear_zero(self):
        assert star_function(0, 1, 2) == 0.0
        assert star_function(1j, 2j, 5j) == 0.0

    def test_quarter_turn_reflex_negative(self):
        assert star_function(1j, 0, 1) == -1.0

    def test_polar_identity(self):
        # F(a, b, c) = r1 r2 sin(alpha) with polar quantities computed separately
        rng = np.random.default_rng(3)
        for _ in range(200):
            a, b, c = (complex(*xy) for xy in rng.uniform(-5, 5, size=(3, 2)))
            r1, r2 = abs(a - b), abs(c - b)
            if r1 < 1e-6 or r2 < 1e-6:
                continue
            alpha = math.atan2((c - b).imag, (c - b).real) - math.atan2(
                (a - b).imag, (a - b).real
            )
            expected = r1 * r2 * math.sin(alpha)
            assert star_function(a, b, c) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    if HAVE_HYPOTHESIS:

        @given(COORDS, COORDS, COORDS, COORDS, COORDS, COORDS, COORDS, COORDS)
        def test_rigid_motion_invariance(self, ax, ay, bx, by, cx, cy, tx, ty):
            a, b, c = complex(ax, ay), complex(bx, by), complex(cx, cy)
            t = complex(tx, ty)
            rot = np.exp(0.7j)
            base = star_function(a, b, c)
            moved = star_function(rot * a + t, rot * b + t, rot * c + t)
            scale = max(1.0, abs(a - b) * abs(c - b))
            assert abs(moved - base) <= 1e-11 * scale

        @given(COORDS, COORDS, COORDS, COORDS, COORDS, COORDS)
        def test_quadratic_scaling(self, ax, ay, bx, by, cx, cy):
            a, b, c = complex(ax, ay), complex(bx, by), complex(cx, cy)
            s = 3.5
            base = star_function(a, b, c)
            scaled = star_function(s * a, s * b, s * c)
            assert scaled == pytest.approx(s * s * base, rel=1e-12, abs=1e-9)


class TestConvexFunction:
    def test_square_corner(self):
        assert convex_function(0, 1, 1 + 1j) == 1.0

    def test_collinear_zero(self):
        assert convex_function(0, 1, 2) == 0.0

    def test_reflex_negative(self):
        assert convex_function(0, 1, 2 - 1j) < 0.0

    if HAVE_HYPOTHESIS:

        @given(COORDS, COORDS, COORDS, COORDS, COORDS, COORDS)
        def test_is_exact_negation_of_star_function(self, ax, ay, bx, by, cx, cy):
            a, b, c = complex(ax, ay), complex(bx, by), complex(cx, cy)
            assert convex_function(a, b, c) == -star_function(a, b, c)
    else:

        def test_is_exact_negation_of_star_function(self):
            rng = np.random.default_rng(5)
            for _ in range(300):
                a, b, c = (complex(*xy) for xy in rng.uniform(-9, 9, size=(3, 2)))
                assert convex_function(a, b, c) == -star_function(a, b, c)


class TestClassifyStar:
    def test_regular_ngon_ccw(self):
        for n in (3, 4, 7, 12):
            res = classify_star(regular_ngon(n))
            assert res.tag is StarTag.CCW_STAR
            assert res.angles == pytest.approx(np.full(n, 2 * np.pi / n))
            assert res.radii == pytest.approx(np.ones(n))

    def test_regular_ngon_cw(self):
        p = Polygon(np.exp(-2j * np.pi * np.arange(6) / 6))
        res = classify_star(p)
        assert res.tag is StarTag.CW_STAR
        assert np.sum(res.angles) == pytest.approx(-2 * np.pi, abs=1e-9)

    def test_vertex_at_centroid_is_not_star(self):
        # centroid of these four is exactly the first vertex
        p = Polygon([(0, 0), (3, 0), (0, 3), (-3, -3)])
        assert centroid(p) == 0j
        assert classify_star(p).tag is StarTag.NOT_STAR

    def test_angle_sum_invariant(self):
        res = classify_star(regular_ngon(9))
        assert np.sum(res.angles) == pytest.approx(2 * np.pi, abs=1e-9)

    def test_star_values_sign_matches_class(self):
        p = regular_ngon(8)
        assert np.all(star_values(p) > 0)
        q = Polygon(p.z[::-1])
        assert np.all(star_values(q) < 0)


class TestClassifyConvexity:
    def test_ccw_unit_square_strict(self):
        res = classify_convexity(UNIT_SQUARE)
        assert res.tag is ConvexityTag.STRICTLY_CONVEX
        assert res.internal_angles == pytest.approx(np.full(4, np.pi / 2))

    def test_orientation_independent(self):
        cw = Polygon(UNIT_SQUARE.z[::-1])
        assert classify_convexity(cw).tag is ConvexityTag.STRICTLY_CONVEX

    def test_flat_vertex_is_convex_not_strict(self):
        p = Polygon([(0, 0), (0.5, 0), (1, 0), (1, 1), (0, 1)])
        assert classify_convexity(p).tag is ConvexityTag.CONVEX

    def test_boomerang_fixture_not_convex(self):
        res = classify_convexity(Polygon(_BOOMERANG_VERTICES))
        assert res.tag is ConvexityTag.NOT_CONVEX
        assert np.min(res.h_values) < 0

    def test_convexity_tests_no_side_pair(self, monkeypatch):
        # local turns, folds and one full turn decide; the side-pair test never runs
        def no_pair_test(z):
            raise AssertionError("classify_convexity called _simple")

        monkeypatch.setattr(geometry, "_simple", no_pair_test)
        # every H value is positive, but the turns add up to 4*pi
        pentagram = classify_convexity(Polygon(np.exp(4j * np.pi * np.arange(5) / 5)))
        assert pentagram.tag is ConvexityTag.NOT_CONVEX
        assert np.all(pentagram.h_values > 0.0)
        assert np.sum(np.pi - pentagram.internal_angles) == pytest.approx(4 * np.pi)
        # a spike cut into the unit square whose sides fold back 1e-13 apart: it
        # turns once and its H values stay in the band, so only the fold rules it out
        spike = classify_convexity(Polygon([0, 0.5, 0.5 + 0.5j, 0.5 + 1e-13, 1, 1 + 1j, 1j]))
        assert spike.tag is ConvexityTag.NOT_CONVEX
        assert np.sum(np.pi - spike.internal_angles) == pytest.approx(2 * np.pi)
        assert np.all(spike.h_values >= -geometry.PREDICATE_TOL * 2.0)  # diameter**2 = 2
        # the linear_ensemble flat6 item: a convex pentagon with one side split
        z = generate(GeneratorSpec(GeneratorKind.RANDOM_CONVEX, n=5), 1205).z
        flat6 = Polygon(np.insert(z, 1, 0.5 * (z[0] + z[1])))
        assert classify_convexity(flat6).tag is ConvexityTag.CONVEX

    def test_convex_resolves_nothing_below_the_h_band(self):
        # A figure-eight detour 1e-11 diameters wide on a side of an octagon: its
        # H values stay inside the band PREDICATE_TOL * diameter**2 and its turns
        # cancel, so the octagon stays CONVEX; is_simple sees the crossings
        octagon = np.exp(2j * np.pi * np.arange(8) / 8)
        side, s = octagon[1] - octagon[0], 1e-11 * 2.0 / 4  # the detour spans 4 s
        detour = [(-2, 0), (1, 1), (1, -1), (-1, 1), (-1, -1), (2, 0)]
        mid = 0.5 * (octagon[0] + octagon[1])
        z = np.insert(octagon, 1, [mid + side / abs(side) * s * complex(x, y) for x, y in detour])
        res = classify_convexity(Polygon(z))
        assert res.tag is ConvexityTag.CONVEX
        assert not is_simple(Polygon(z))

    def test_internal_angle_sum_simple_polygons(self):
        # sum of internal angles of a simple polygon is (n-2)*pi
        for poly in (
            UNIT_SQUARE,
            regular_ngon(11),
            Polygon(_BOOMERANG_VERTICES),
            Polygon(_EMBEDDED_LOSS_VERTICES),
        ):
            res = classify_convexity(poly)
            expected = (poly.n - 2) * np.pi
            assert np.sum(res.internal_angles) == pytest.approx(expected, abs=1e-9)

    def test_convexity_values_raw_order(self):
        vals = convexity_values(UNIT_SQUARE)
        assert vals == pytest.approx(np.ones(4))


class TestLemma5StarFromConvex:
    def test_strictly_convex_ccw_classifies_ccw_star(self):
        """Strict convexity implies a counterclockwise star formation."""
        from polyshort.generators import GeneratorKind, GeneratorSpec, generate

        for seed in range(50):
            poly = generate(
                GeneratorSpec(GeneratorKind.RANDOM_CONVEX, n=4 + seed % 9), seed
            )
            assert classify_star(poly).tag is StarTag.CCW_STAR


class TestIsSimple:
    def test_convex_true(self):
        assert is_simple(regular_ngon(7))

    def test_bowtie_false(self):
        assert not is_simple(Polygon([(0, 0), (1, 1), (1, 0), (0, 1)]))

    def test_clustered_boomerang_true(self):
        assert is_simple(Polygon(_EMBEDDED_LOSS_VERTICES))
        assert is_simple(Polygon(_BOOMERANG_VERTICES))

    def test_touching_counts_as_intersection(self):
        # vertex of one edge lies exactly on a non-adjacent edge
        p = Polygon([(0, 0), (2, 0), (2, 2), (1, 0), (0, 2)])
        assert not is_simple(p)

    def test_doubled_back_edge_not_simple(self):
        p = Polygon([(0, 0), (2, 0), (1, 0), (1, 1)])
        assert not is_simple(p)

    def test_strictly_convex_rows_skip_the_pair_test(self, monkeypatch):
        # a STRICTLY_CONVEX row is exactly simple: is_simple and the area check
        # settle it with no side pair, while other rows still reach _sides_meet
        def no_pair_test(*sides):
            raise AssertionError("_sides_meet called")

        monkeypatch.setattr(geometry, "_sides_meet", no_pair_test)
        poly = generate(GeneratorSpec(GeneratorKind.RANDOM_CONVEX, n=10), 3)
        assert is_simple(poly)
        traj = run(poly, FlowSpec.linear(), SimConfig(t_end=1.0, dt=0.01))
        assert check_area_monotone(traj).passed
        assert detect_first(traj, TrajectoryPredicate.LOSES_SIMPLICITY) is None
        with pytest.raises(AssertionError, match="_sides_meet called"):
            is_simple(Polygon(_BOOMERANG_VERTICES))

    def test_box_screen_sends_few_pairs(self, monkeypatch):
        # the star20 item of the artifact_roundtrip benchmark at seed 1: its 49
        # rows that are not STRICTLY_CONVEX hold 8 330 side pairs that share no
        # vertex, and sending all of them to _sides_meet found no crossing
        poly = generate(GeneratorSpec(GeneratorKind.RANDOM_STAR, n=20), 1016)
        traj = run(poly, FlowSpec.linear(), SimConfig(t_end=3.0, dt=0.05, record_every=1))
        tags, _, _, folded = geometry._convexity_classes(traj.z)
        open_rows = int((~folded & (tags != ConvexityTag.STRICTLY_CONVEX)).sum())
        all_pairs = open_rows * 20 * (20 - 3) // 2
        assert (len(traj), open_rows, all_pairs) == (61, 49, 8330)
        sent, real = [], geometry._sides_meet
        monkeypatch.setattr(geometry, "_sides_meet", lambda *sides: sent.append(sides[0].size) or real(*sides))
        assert geometry._simple(traj.z, tags, folded).all()
        assert sum(sent) < 0.01 * all_pairs

    @pytest.mark.parametrize(
        "poly, limit_mb",
        [(regular_ngon(1000), 1.0), (generate(GeneratorSpec(GeneratorKind.RANDOM_STAR, n=1000), 1), 2.0)],
        ids=["regular", "random_star"],
    )
    def test_pair_index_only_for_open_rows(self, poly, limit_mb):
        # the STRICTLY_CONVEX 1000-gon forms no side pair; a star that is not
        # convex forms its pairs a block at a time, from each block's start
        is_simple(poly)
        tracemalloc.start()
        try:
            assert is_simple(poly)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit_mb * 1e6

    def test_short_side_keeps_a_distance_band(self):
        # The side ending at eps/2 + 0.05 e^{i pi/6} points between the ends of
        # the 1e-10 side [0, eps] and stops 0.025 short of its line.  A band of
        # PREDICATE_TOL * scale**2 / |side| about that line (0.042 here) counted a
        # crossing; in distance units the hexagon is simple, as exact arithmetic says
        eps, ray = 1e-10, np.exp(1j * np.pi / 6)
        hexagon = Polygon([0, eps, 2, eps / 2 + 1.5 * ray, eps / 2 + 0.05 * ray, -0.5 + 0.5j])
        assert is_simple(hexagon)


class TestCircumcircle:
    def test_symmetric_triple(self):
        cc = circumcircle(1, 1j, -1)
        assert cc.center == pytest.approx(0j, abs=1e-14)
        assert cc.radius == pytest.approx(1.0)

    def test_collinear_marker(self):
        assert circumcircle(0, 1, 2) is None

    def test_right_triangle(self):
        cc = circumcircle(0, 1, 1j)
        assert cc.center == pytest.approx(0.5 + 0.5j)
        assert cc.radius == pytest.approx(math.sqrt(2) / 2)

    def test_generators_lie_on_circle(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 100:
            a, b, c = (complex(*xy) for xy in rng.uniform(-10, 10, size=(3, 2)))
            cc = circumcircle(a, b, c)
            if cc is None:
                continue
            checked += 1
            for p in (a, b, c):
                assert abs(abs(p - cc.center) - cc.radius) <= 1e-9 * cc.radius
