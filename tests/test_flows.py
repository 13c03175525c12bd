"""Velocity fields: frozen vertex velocities and structural identities."""

import numpy as np
import pytest

from polyshort import flows
from polyshort.flows import (
    BisectorSpeedMode,
    CoincidentVerticesError,
    DegenerateTripleError,
    FlowKind,
    FlowSpec,
    VelocityField,
    velocity,
)
from polyshort.geometry import Polygon, circumcircle
from polyshort.simulate import SimConfig, Termination, run
from polyshort.spectral import eigenvalues

UNIT_SQUARE = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
DIAMOND = Polygon([(1, 0), (0, 1), (-1, 0), (0, -1)])
# vertex 1 sits on the straight line through its neighbors
FLAT_PENTAGON = Polygon([(0, 0), (1, 0), (2, 0), (2, 2), (0, 2)])


def regular_ngon(n, radius=1.0):
    return Polygon(radius * np.exp(2j * np.pi * np.arange(n) / n))


def random_polygon(rng, n):
    return Polygon(rng.uniform(-3, 3, n) + 1j * rng.uniform(-3, 3, n))


class TestFlowSpec:
    def test_factories(self):
        assert FlowSpec.linear().kind is FlowKind.LINEAR
        assert FlowSpec.menger_melnikov().kind is FlowKind.MENGER_MELNIKOV
        b = FlowSpec.bisector()
        assert b.bisector_speed_mode is BisectorSpeedMode.UNIT
        assert b.bisector_speed == 1.0

    def test_bisector_needs_mode(self):
        with pytest.raises(ValueError):
            FlowSpec(kind=FlowKind.BISECTOR)

    def test_unit_mode_needs_positive_speed(self):
        with pytest.raises(ValueError):
            FlowSpec(kind=FlowKind.BISECTOR, bisector_speed_mode=BisectorSpeedMode.UNIT)
        with pytest.raises(ValueError):
            FlowSpec(
                kind=FlowKind.BISECTOR,
                bisector_speed_mode=BisectorSpeedMode.UNIT,
                bisector_speed=-1.0,
            )

    @pytest.mark.parametrize("speed", [np.nan, np.inf, -np.inf])
    def test_unit_mode_needs_finite_speed(self, speed):
        # a NaN or infinite speed once made every velocity non-finite
        with pytest.raises(ValueError, match="UNIT bisector flow needs a positive finite speed"):
            FlowSpec.bisector(speed=speed)

    def test_norm_matched_takes_no_speed(self):
        with pytest.raises(ValueError):
            FlowSpec(
                kind=FlowKind.BISECTOR,
                bisector_speed_mode=BisectorSpeedMode.NORM_MATCHED,
                bisector_speed=1.0,
            )

    def test_bisector_factory_leaves_the_speed_rule_to_the_constructor(self):
        norm = BisectorSpeedMode.NORM_MATCHED
        assert FlowSpec.bisector(norm) == FlowSpec(kind=FlowKind.BISECTOR, bisector_speed_mode=norm)
        with pytest.raises(ValueError, match="takes no speed"):
            FlowSpec.bisector(norm, speed=2.0)
        with pytest.raises(ValueError, match="positive finite speed"):
            FlowSpec.bisector(speed=0.0)

    def test_other_flows_reject_bisector_params(self):
        with pytest.raises(ValueError):
            FlowSpec(kind=FlowKind.LINEAR, bisector_speed=1.0)
        with pytest.raises(ValueError):
            FlowSpec(
                kind=FlowKind.MENGER_MELNIKOV,
                bisector_speed_mode=BisectorSpeedMode.UNIT,
            )


class TestVelocityField:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            VelocityField(np.array([0j, np.nan + 0j]))

    def test_rejects_non_flat(self):
        with pytest.raises(ValueError):
            VelocityField(np.zeros((2, 2), dtype=complex))

    def test_len(self):
        assert len(velocity(UNIT_SQUARE, FlowSpec.linear())) == 4


class TestLinearVelocity:
    def test_unit_square_corner(self):
        v = velocity(UNIT_SQUARE, FlowSpec.linear()).velocities
        assert v[0] == pytest.approx(0.5 + 0.5j)
        assert v[2] == pytest.approx(-0.5 - 0.5j)

    def test_regular_ngon_is_eigenvector(self):
        # pure mode-1 content: v = lambda_1 z exactly
        for n in (3, 4, 6, 12):
            p = regular_ngon(n)
            lam = eigenvalues(n)[1]
            v = velocity(p, FlowSpec.linear()).velocities
            assert np.max(np.abs(v - lam * p.z)) < 1e-12

    def test_collinear_stays_real(self):
        p = Polygon([0, 1.3, 2.9, 4.0, 0.7])
        v = velocity(p, FlowSpec.linear()).velocities
        assert np.max(np.abs(v.imag)) == 0.0

    def test_velocities_sum_to_zero(self):
        rng = np.random.default_rng(17)
        for n in (3, 5, 9, 20):
            p = random_polygon(rng, n)
            v = velocity(p, FlowSpec.linear()).velocities
            assert abs(np.sum(v)) <= 1e-12 * n * p.diameter()

    def test_linearity(self):
        rng = np.random.default_rng(23)
        p = random_polygon(rng, 7)
        v = velocity(p, FlowSpec.linear()).velocities
        a = 2.0 - 1.5j
        scaled = velocity(Polygon(a * p.z), FlowSpec.linear()).velocities
        assert np.max(np.abs(scaled - a * v)) <= 1e-12 * np.max(np.abs(v)) * abs(a)
        shifted = velocity(Polygon(p.z + (4.0 + 3.0j)), FlowSpec.linear()).velocities
        assert np.max(np.abs(shifted - v)) <= 1e-12


class TestMengerMelnikovVelocity:
    def test_diamond_contracts_radially(self):
        # every neighbor triple lies on the unit circle, so v = -z exactly
        v = velocity(DIAMOND, FlowSpec.menger_melnikov()).velocities
        assert np.max(np.abs(v + DIAMOND.z)) < 1e-14

    def test_equilateral_magnitude_is_curvature(self):
        for r in (0.5, 1.0, 3.0):
            p = regular_ngon(3, radius=r)
            v = velocity(p, FlowSpec.menger_melnikov()).velocities
            assert np.abs(v) == pytest.approx(np.full(3, 1.0 / r), rel=1e-12)

    def test_straight_vertex_has_zero_velocity(self):
        v = velocity(FLAT_PENTAGON, FlowSpec.menger_melnikov()).velocities
        assert v[1] == 0j
        assert v[0] != 0j

    def test_matches_circumcircle_per_vertex(self):
        rng = np.random.default_rng(31)
        p = random_polygon(rng, 8)
        v = velocity(p, FlowSpec.menger_melnikov()).velocities
        z = p.z
        for i in range(8):
            circ = circumcircle(z[i - 1], z[i], z[(i + 1) % 8])
            assert circ is not None
            expect = (circ.center - z[i]) / circ.radius**2
            assert v[i] == pytest.approx(expect, rel=1e-12)

    def test_coincident_neighbors_raise(self):
        # exact duplicates cannot pass Polygon validation, so hit the raw field
        with pytest.raises(DegenerateTripleError):
            flows._menger_melnikov_field(np.array([0j, 0j, 1 + 1j]))

    def test_equal_outer_neighbors_raise(self):
        with pytest.raises(DegenerateTripleError):
            flows._menger_melnikov_field(np.array([0j, 1 + 0j, 0j, 2j]))


class TestBisectorVelocity:
    def test_unit_square_corner_unit_mode(self):
        v = velocity(UNIT_SQUARE, FlowSpec.bisector()).velocities
        s = np.sqrt(2.0) / 2.0
        assert v[0] == pytest.approx(s + s * 1j)
        assert np.abs(v) == pytest.approx(np.ones(4))

    def test_unit_speed_scales(self):
        base = velocity(UNIT_SQUARE, FlowSpec.bisector(speed=1.0)).velocities
        fast = velocity(UNIT_SQUARE, FlowSpec.bisector(speed=2.5)).velocities
        assert np.max(np.abs(fast - 2.5 * base)) < 1e-15

    def test_straight_vertex_is_stationary(self):
        spec = FlowSpec.bisector()
        v = velocity(FLAT_PENTAGON, spec).velocities
        assert v[1] == 0j

    def test_hexagon_norm_matched_contracts_radially(self):
        # unit edge vectors at each vertex sum to exactly -z, so v = -z/2
        p = regular_ngon(6)
        spec = FlowSpec.bisector(speed_mode=BisectorSpeedMode.NORM_MATCHED)
        v = velocity(p, spec).velocities
        assert np.max(np.abs(v + 0.5 * p.z)) < 1e-14

    def test_norm_matched_is_half_direction_sum(self):
        rng = np.random.default_rng(41)
        p = random_polygon(rng, 9)
        spec = FlowSpec.bisector(speed_mode=BisectorSpeedMode.NORM_MATCHED)
        v = velocity(p, spec).velocities
        d = flows._bisector_direction(p.z)
        assert np.array_equal(v, 0.5 * d)

    def test_zero_edge_raises(self):
        with pytest.raises(CoincidentVerticesError):
            flows._bisector_direction(np.array([0j, 0j, 1 + 1j]))


HEXAGON = regular_ngon(6).z
BISECTORS = (FlowSpec.bisector(), FlowSpec.bisector(speed_mode=BisectorSpeedMode.NORM_MATCHED))


def with_zero_edge(k):
    # edge k runs from vertex k to vertex k + 1; edge 5 is the wrap edge 5 -> 0
    z = HEXAGON.copy()
    z[(k + 1) % 6] = z[k]
    return z


def with_folded_triple(k):
    # the triple centred on vertex k has equal outer points; triples 0 and 5 wrap
    z = HEXAGON.copy()
    z[(k + 1) % 6] = z[k - 1]
    return z


class TestDegeneracyAtEveryPosition:
    # the degeneracy tests see the whole circuit, the wrap-around included

    @pytest.mark.parametrize("k", range(6))
    def test_zero_edge(self, k):
        z = with_zero_edge(k)
        with pytest.raises(CoincidentVerticesError):
            flows._bisector_direction(z)
        for spec in BISECTORS:
            with pytest.raises(CoincidentVerticesError):
                velocity(Polygon._wrap(z), spec)
        # z_prev == z at vertex k + 1
        with pytest.raises(DegenerateTripleError):
            flows._menger_melnikov_field(z)

    @pytest.mark.parametrize("k", range(6))
    def test_equal_outer_neighbors(self, k):
        with pytest.raises(DegenerateTripleError):
            flows._menger_melnikov_field(with_folded_triple(k))

    @pytest.mark.parametrize("k", range(6))
    @pytest.mark.parametrize("build", [with_zero_edge, with_folded_triple])
    def test_menger_melnikov_run_ends_degenerate(self, build, k):
        traj = run(Polygon._wrap(build(k)), FlowSpec.menger_melnikov(), SimConfig(t_end=1.0, dt=0.01))
        assert traj.termination is Termination.DEGENERATE
        assert len(traj) == 1

    @pytest.mark.parametrize("k", range(6))
    @pytest.mark.parametrize("spec", BISECTORS)
    def test_bisector_run_ends_degenerate(self, spec, k):
        # a capture threshold of 0 never fires, so the zero edge reaches the field
        cfg = SimConfig(t_end=1.0, dt=0.01, min_edge_capture=0.0)
        traj = run(Polygon._wrap(with_zero_edge(k)), spec, cfg)
        assert traj.termination is Termination.DEGENERATE
        assert len(traj) == 1
