"""Geometry predicates: frozen oracles plus algebraic property tests."""

import math

import numpy as np
import pytest

from polyshort import geometry
from polyshort.generators import _BOOMERANG_VERTICES, _EMBEDDED_LOSS_VERTICES
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

    def test_pentagram_checks_simplicity_once(self, monkeypatch):
        # every H value is positive, so only the simplicity test rules it out
        calls = []

        simple = geometry._simple

        def counting_simple(z):
            calls.append(z)
            return simple(z)

        monkeypatch.setattr(geometry, "_simple", counting_simple)
        pentagram = Polygon(np.exp(4j * np.pi * np.arange(5) / 5))
        res = classify_convexity(pentagram)
        assert res.tag is ConvexityTag.NOT_CONVEX
        assert np.all(res.h_values > 0.0)
        assert len(calls) == 1

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
