"""Integrator and trajectory bookkeeping: accuracy, stopping, detection."""

import dataclasses
import math

import numpy as np
import pytest

from polyshort import flows, geometry, simulate
from polyshort.flows import DegenerateTripleError, FlowSpec
from polyshort.generators import _BOOMERANG_VERTICES, GeneratorKind, GeneratorSpec, generate
from polyshort.geometry import Polygon
from polyshort.simulate import (
    SimConfig,
    Termination,
    Trajectory,
    TrajectoryPredicate,
    _rk4,
    detect_first,
    run,
    step_rk4,
)
from polyshort.spectral import closed_form_state, decompose, eigenvalues

# every value a Trajectory derives from its states
DERIVED = ("perimeter", "signed_area", "min_f", "min_h", "min_edge", "_convexity", "_simple")

UNIT_SQUARE = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
DIAMOND = Polygon([(1, 0), (0, 1), (-1, 0), (0, -1)])


def regular_ngon(n, radius=1.0):
    return Polygon(radius * np.exp(2j * np.pi * np.arange(n) / n))


def random_polygon(seed, n):
    rng = np.random.default_rng(seed)
    return Polygon(rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))


class TestSimConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SimConfig(t_end=0.0)
        with pytest.raises(ValueError):
            SimConfig(t_end=1.0, dt=0.0)
        with pytest.raises(ValueError):
            SimConfig(t_end=1.0, stop_diameter=-1.0)
        with pytest.raises(ValueError):
            SimConfig(t_end=1.0, record_every=0)
        for bad in (2.5, 2.0):
            with pytest.raises(ValueError, match="integer"):
                SimConfig(t_end=1.0, record_every=bad)
        with pytest.raises(ValueError):
            SimConfig(t_end=1.0, min_edge_capture=-1e-6)
        # construction only: a non-finite config must never reach run()
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                SimConfig(t_end=bad, stop_diameter=0.0)
            with pytest.raises(ValueError, match="finite"):
                SimConfig(t_end=1.0, dt=bad)
            with pytest.raises(ValueError, match="finite"):
                SimConfig(t_end=1.0, stop_diameter=bad)
            with pytest.raises(ValueError, match="finite"):
                SimConfig(t_end=1.0, min_edge_capture=bad)


class TestTrajectory:
    @pytest.mark.parametrize("times", [[0.0, 1.0], [0.5, 1.0, 2.0], [0.0, 1.0, 1.0], [0.0, 2.0, 1.0]])
    def test_rejects_bad_times(self, times):
        z = np.tile(UNIT_SQUARE.z, (3, 1))
        with pytest.raises(ValueError):
            Trajectory(times, z, Termination.T_END)

    def test_diagnostics_are_read_only(self):
        traj = Trajectory([0.0], UNIT_SQUARE.z[None, :], Termination.T_END)
        assert traj.perimeter.tolist() == [4.0]
        with pytest.raises(ValueError):
            traj.perimeter[0] = 0.0

    def test_fields_are_times_states_and_termination(self):
        assert [f.name for f in dataclasses.fields(Trajectory)] == ["times", "z", "termination"]

    def test_derived_values_are_read_only_and_computed_once(self):
        traj = run(DIAMOND, FlowSpec.linear(), SimConfig(t_end=0.3, dt=0.01, record_every=5))
        for name in DERIVED:
            value = getattr(traj, name)
            assert getattr(traj, name) is value
            for a in value if isinstance(value, tuple) else (value,):
                assert a.shape == (len(traj),) and not a.flags.writeable
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(traj, name, value)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_run_derives_without_warning(self):
        # the unstable digest scenario: dt = 2 is past RK4's stability edge, and
        # the states grow until they overflow
        quad = Polygon([(0, 0), (2, 0), (1, 1), (0, 1)])
        traj = run(quad, FlowSpec.linear(), SimConfig(t_end=1e4, dt=2.0, record_every=100))
        assert traj.termination is Termination.DEGENERATE
        for name in DERIVED:
            getattr(traj, name)
        assert not np.isfinite(traj.perimeter[-1])

    def test_equality_is_bit_for_bit(self):
        cfg = SimConfig(t_end=0.3, dt=0.01, record_every=5)
        a = run(DIAMOND, FlowSpec.linear(), cfg)
        assert a == run(DIAMOND, FlowSpec.linear(), cfg)
        assert a != run(DIAMOND, FlowSpec.linear(), SimConfig(t_end=0.3, dt=0.02, record_every=5))
        assert a != run(UNIT_SQUARE, FlowSpec.linear(), cfg)
        assert a != Trajectory(a.times, a.z, Termination.COLLAPSED)
        signed = a.z.copy()
        signed[0, 0] = complex(1.0, -0.0)  # == 1+0j, but not bit for bit
        assert a != Trajectory(a.times, signed, a.termination)
        assert a != a.z

    def test_unhashable(self):
        # as a Polygon is: equality compares arrays, which have no hash
        traj = Trajectory([0.0], UNIT_SQUARE.z[None, :], Termination.T_END)
        with pytest.raises(TypeError, match="unhashable type: 'Trajectory'"):
            hash(traj)


class TestStepRk4:
    def test_eigenvector_gets_degree_four_taylor(self):
        # pure mode: one step multiplies by the quartic Taylor polynomial of exp
        p = regular_ngon(6)
        dt = 0.3
        x = eigenvalues(6)[1] * dt
        taylor = 1.0 + x + x**2 / 2.0 + x**3 / 6.0 + x**4 / 24.0
        q = step_rk4(p, FlowSpec.linear(), dt)
        assert np.max(np.abs(q.z - taylor * p.z)) < 1e-14

    def test_zero_field_is_fixed_point(self):
        z = np.array([0.1 + 0.2j, 1.0 - 0.5j, -0.4 + 0.9j])
        out = _rk4(z, lambda w: np.zeros_like(w), 0.7, np.zeros_like(z))
        assert np.array_equal(out, z)

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            step_rk4(UNIT_SQUARE, FlowSpec.linear(), 0.0)
        with pytest.raises(ValueError):
            step_rk4(UNIT_SQUARE, FlowSpec.linear(), -0.1)

    def test_degeneracy_propagates(self):
        # v = -z exactly on the diamond, so dt = 2 sends the whole polygon
        # to its centroid at the half step
        with pytest.raises(DegenerateTripleError):
            step_rk4(DIAMOND, FlowSpec.menger_melnikov(), 2.0)


class TestRunLinear:
    def test_tracks_closed_form(self):
        p = random_polygon(67, 10)
        d = decompose(p)
        traj = run(p, FlowSpec.linear(), SimConfig(t_end=2.0, dt=0.01, record_every=50))
        for t, s in zip(traj.times, traj.states):
            exact = closed_form_state(d, float(t))
            assert np.max(np.abs(s.z - exact.z)) < 1e-9

    def test_fourth_order_convergence(self):
        p = random_polygon(67, 10)
        exact = closed_form_state(decompose(p), 1.0).z

        def final_err(dt):
            tr = run(p, FlowSpec.linear(), SimConfig(t_end=1.0, dt=dt, record_every=10**9))
            return np.max(np.abs(tr.states[-1].z - exact))

        assert final_err(0.02) / final_err(0.01) > 14.0

    def test_unit_square_diameter_decay(self):
        # the square is a pure slowest mode, so diameter scales by e^(-t)
        traj = run(UNIT_SQUARE, FlowSpec.linear(), SimConfig(t_end=5.0, dt=1e-3, record_every=1000))
        d0 = UNIT_SQUARE.diameter()
        expect = d0 * np.exp(-5.0)
        assert traj.states[-1].diameter() == pytest.approx(expect, rel=1e-4)
        assert traj.termination is Termination.T_END
        assert traj.times[-1] == 5.0

    def test_times_strictly_increasing_from_zero(self):
        traj = run(UNIT_SQUARE, FlowSpec.linear(), SimConfig(t_end=1.0, dt=0.01, record_every=7))
        assert traj.times[0] == 0.0
        assert np.all(np.diff(traj.times) > 0)

    def test_centroid_stationary(self):
        p = random_polygon(5, 8)
        c0 = geometry.centroid(p)
        traj = run(p, FlowSpec.linear(), SimConfig(t_end=3.0, dt=0.01, record_every=100))
        drift = max(abs(geometry.centroid(s) - c0) for s in traj.states)
        assert drift <= 1e-12 * p.diameter()

    def test_diagnostics_match_states(self):
        traj = run(random_polygon(9, 6), FlowSpec.linear(), SimConfig(t_end=1.0, dt=0.01, record_every=20))
        for i, s in enumerate(traj.states):
            assert traj.perimeter[i] == geometry.perimeter(s)
            assert traj.signed_area[i] == geometry.signed_area(s)
            assert traj.min_f[i] == geometry.star_values(s).min()
            assert traj.min_h[i] == geometry.convexity_values(s).min()
            assert traj.min_edge[i] == s.min_edge()

    def test_collapse_stop(self):
        traj = run(UNIT_SQUARE, FlowSpec.linear(), SimConfig(t_end=100.0, dt=0.05, stop_diameter=1e-4, record_every=50))
        assert traj.termination is Termination.COLLAPSED
        assert traj.states[-1].diameter() < 1e-4
        assert traj.times[-1] < 100.0

    def test_already_collapsed_records_single_sample(self):
        tiny = Polygon([(0, 0), (1e-8, 0), (0, 1e-8)])
        traj = run(tiny, FlowSpec.linear(), SimConfig(t_end=1.0, stop_diameter=1.0))
        assert traj.termination is Termination.COLLAPSED
        assert len(traj) == 1
        assert traj.times[0] == 0.0

    def test_step_cap_ends_the_run(self, monkeypatch):
        # 100 steps without the cap, so the test ends whatever the cap does
        monkeypatch.setattr(simulate, "MAX_STEPS", 3)
        cfg = SimConfig(t_end=1.0, dt=0.01, stop_diameter=0.0, record_every=2)
        traj = run(UNIT_SQUARE, FlowSpec.linear(), cfg)
        assert traj.termination is Termination.MAX_STEPS
        # record_every still applies; the final state is always recorded
        assert traj.times.tolist() == [0.0, 0.02, 0.03]

    def test_end_of_time_beats_the_step_cap(self, monkeypatch):
        monkeypatch.setattr(simulate, "MAX_STEPS", 3)
        traj = run(UNIT_SQUARE, FlowSpec.linear(), SimConfig(t_end=0.03, dt=0.01))
        assert traj.termination is Termination.T_END
        assert len(traj) == 4

    def test_never_steps_the_vertices(self, monkeypatch):
        # the linear flow runs in modal space; a run that fell back to
        # stepping the vertices would call the field
        def field(z):
            raise AssertionError("the linear run evaluated the vertex field")

        monkeypatch.setattr(flows, "_linear_field", field)
        with pytest.raises(AssertionError):
            step_rk4(UNIT_SQUARE, FlowSpec.linear(), 0.1)
        cfg = SimConfig(t_end=100.0, dt=0.05, stop_diameter=1e-3, record_every=7)
        assert run(random_polygon(3, 9), FlowSpec.linear(), cfg).termination is Termination.COLLAPSED

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n, dt", [(4, 2.0), (12, 3.0)])
    def test_unstable_step_degenerates_without_warnings(self, n, dt):
        # past RK4's stability edge the fastest mode overflows; no numpy
        # RuntimeWarning (overflow, invalid value) escapes the run
        traj = run(random_polygon(11, n), FlowSpec.linear(), SimConfig(t_end=1e5, dt=dt, record_every=10))
        assert traj.termination is Termination.DEGENERATE
        assert np.isfinite(traj.z).all()


class TestRunMengerMelnikov:
    def test_diamond_diameter_law(self):
        # circumradius obeys ds/dt = -1/s, so diameter(t) = 2 sqrt(1 - 2t)
        traj = run(DIAMOND, FlowSpec.menger_melnikov(), SimConfig(t_end=0.4, dt=1e-3, record_every=40))
        for t, s in zip(traj.times, traj.states):
            expect = 2.0 * np.sqrt(1.0 - 2.0 * float(t))
            assert s.diameter() == pytest.approx(expect, rel=1e-5)
        assert traj.termination is Termination.T_END

    def test_diamond_collapses_at_half(self):
        traj = run(DIAMOND, FlowSpec.menger_melnikov(), SimConfig(t_end=1.0, dt=1e-3, stop_diameter=1e-3, record_every=50))
        assert traj.termination is Termination.COLLAPSED
        assert abs(traj.times[-1] - 0.5) <= 1e-3

    def test_huge_fixed_step_degenerates(self):
        traj = run(DIAMOND, FlowSpec.menger_melnikov(), SimConfig(t_end=4.0, dt=2.0, adaptive=False))
        assert traj.termination is Termination.DEGENERATE
        assert len(traj) == 1

    def test_step_that_does_not_advance_time_degenerates(self):
        # near collapse the capped step falls below the spacing of doubles at t
        star = generate(GeneratorSpec(GeneratorKind.RANDOM_STAR, n=3), 0)
        cfg = SimConfig(t_end=1e6, dt=1.0, stop_diameter=0.0, record_every=1)
        traj = run(Polygon(10.0 * star.z), FlowSpec.menger_melnikov(), cfg)
        assert traj.termination is Termination.DEGENERATE
        assert np.all(np.diff(traj.times) > 0)

    def test_four_field_evaluations_per_adaptive_step(self, monkeypatch):
        calls = []
        field = flows._menger_melnikov_field

        def counted(z):
            calls.append(1)
            return field(z)

        monkeypatch.setattr(flows, "_menger_melnikov_field", counted)
        traj = run(DIAMOND, FlowSpec.menger_melnikov(), SimConfig(t_end=0.1, dt=1e-2, record_every=1))
        assert traj.termination is Termination.T_END
        assert len(calls) == 4 * (len(traj) - 1)


class TestRunBisector:
    def test_rectangle_short_edge_capture(self):
        # corners move diagonally at unit speed; the short edge shrinks at
        # rate sqrt(2) and hits the capture threshold near t = 0.7
        rect = Polygon([(0, 0), (2, 0), (2, 1), (0, 1)])
        traj = run(rect, FlowSpec.bisector(), SimConfig(t_end=2.0, dt=1e-3, record_every=10, min_edge_capture=1e-2))
        assert traj.termination is Termination.CAPTURE
        assert traj.times[-1] == pytest.approx((1.0 - 1e-2) / np.sqrt(2.0), abs=3e-3)
        assert traj.min_edge[-1] < 1e-2

    def test_immediate_capture_when_threshold_exceeds_edge(self):
        traj = run(UNIT_SQUARE, FlowSpec.bisector(), SimConfig(t_end=1.0, min_edge_capture=2.0))
        assert traj.termination is Termination.CAPTURE
        assert len(traj) == 1


class TestDetectFirst:
    def test_needs_two_samples(self):
        tiny = Polygon([(0, 0), (1e-8, 0), (0, 1e-8)])
        traj = run(tiny, FlowSpec.linear(), SimConfig(t_end=1.0, stop_diameter=1.0))
        with pytest.raises(ValueError):
            detect_first(traj, TrajectoryPredicate.AREA_INCREASING)

    def test_strictly_convex_start_detected_at_zero(self):
        traj = run(UNIT_SQUARE, FlowSpec.linear(), SimConfig(t_end=1.0, dt=0.01, record_every=10))
        assert detect_first(traj, TrajectoryPredicate.BECOMES_STRICTLY_CONVEX) == 0.0

    def test_flat_vertex_resolves_at_first_sample(self):
        flat = Polygon([(0, 0), (0.5, 0), (1, 0), (1, 1), (0, 1)])
        traj = run(flat, FlowSpec.linear(), SimConfig(t_end=1.0, dt=0.01, record_every=5))
        t = detect_first(traj, TrajectoryPredicate.BECOMES_STRICTLY_CONVEX)
        assert t == traj.times[1]

    def test_star_becomes_convex_later(self):
        from polyshort.generators import GeneratorKind, GeneratorSpec, generate
        from polyshort.spectral import leading_decay_rate

        star = generate(GeneratorSpec(GeneratorKind.RANDOM_STAR, n=7), 5)
        assert geometry.classify_convexity(star).tag is geometry.ConvexityTag.NOT_CONVEX
        traj = run(star, FlowSpec.linear(), SimConfig(t_end=6.0 / leading_decay_rate(7), dt=0.01, record_every=10))
        t = detect_first(traj, TrajectoryPredicate.BECOMES_STRICTLY_CONVEX)
        assert t is not None
        assert t > 0.0

    def test_boomerang_area_grows_from_start(self):
        traj = run(Polygon(_BOOMERANG_VERTICES), FlowSpec.linear(), SimConfig(t_end=2.0, dt=1e-3, record_every=10))
        assert detect_first(traj, TrajectoryPredicate.AREA_INCREASING) == 0.0
        # it grows area while staying embedded
        assert detect_first(traj, TrajectoryPredicate.LOSES_SIMPLICITY) is None

    def test_convex_polygon_has_neither(self):
        traj = run(UNIT_SQUARE, FlowSpec.linear(), SimConfig(t_end=2.0, dt=0.01, record_every=10))
        assert detect_first(traj, TrajectoryPredicate.AREA_INCREASING) is None
        assert detect_first(traj, TrajectoryPredicate.LOSES_SIMPLICITY) is None

    def test_embedded_loss_fixture_crosses(self):
        from polyshort.generators import _EMBEDDED_LOSS_VERTICES

        poly = Polygon(_EMBEDDED_LOSS_VERTICES)
        assert geometry.is_simple(poly)
        traj = run(poly, FlowSpec.linear(), SimConfig(t_end=1.5, dt=1e-3, record_every=10))
        t = detect_first(traj, TrajectoryPredicate.LOSES_SIMPLICITY)
        assert t is not None
        assert 0.0 < t <= 1.5
