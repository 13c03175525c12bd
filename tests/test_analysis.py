"""Trajectory checkers: each theorem's executable form, pass and fail paths."""

import json
import math

import numpy as np
import pytest

from polyshort import geometry
from polyshort.analysis import (
    CheckReport,
    NotSimpleError,
    PreconditionNotConvexError,
    PreconditionNotStarError,
    PreconditionTooShortError,
    check_area_monotone,
    check_centroid_drift,
    check_convexity_preservation,
    check_ellipse_convergence,
    check_perimeter_monotone,
    check_star_preservation,
    ellipse_convergence_series,
    perimeter_rate,
    report_json,
    report_lines,
    validate_suite,
)
from polyshort.artifacts import write_trajectory_csv
from polyshort.cli import _FIG9_VERTICES, cli_main
from polyshort.flows import (
    BisectorSpeedMode,
    CoincidentVerticesError,
    FlowSpec,
    velocity,
)
from polyshort.generators import _BOOMERANG_VERTICES, GeneratorKind, GeneratorSpec, generate
from polyshort.geometry import Polygon, perimeter
from polyshort.simulate import SimConfig, Termination, Trajectory, TrajectoryPredicate, detect_first, run
from polyshort.spectral import DegenerateLeadingModeError, eigenvalues, leading_decay_rate

UNIT_SQUARE = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
DIAMOND = Polygon([(1, 0), (0, 1), (-1, 0), (0, -1)])


def regular_ngon(n, radius=1.0):
    return Polygon(radius * np.exp(2j * np.pi * np.arange(n) / n))


def make_traj(states, termination=Termination.T_END):
    return Trajectory(
        np.arange(len(states), dtype=float), [s.z for s in states], termination
    )


class TestPerimeterRate:
    def test_diamond_linear_rate(self):
        # each |d_i| is sqrt(2) and v_i = -z_i, so the rate is -4 sqrt(2)
        rate = perimeter_rate(DIAMOND, velocity(DIAMOND, FlowSpec.linear()))
        assert rate == pytest.approx(-4.0 * np.sqrt(2.0), rel=1e-12)

    def test_zero_field_zero_rate(self):
        assert perimeter_rate(UNIT_SQUARE, np.zeros(4, dtype=complex)) == 0.0

    def test_matches_finite_difference(self):
        rng = np.random.default_rng(19)
        p = Polygon(rng.uniform(-2, 2, 9) + 1j * rng.uniform(-2, 2, 9))
        for spec in (FlowSpec.linear(), FlowSpec.menger_melnikov(), FlowSpec.bisector()):
            v = velocity(p, spec).velocities
            rate = perimeter_rate(p, v)
            h = 1e-7
            fd = (perimeter(Polygon(p.z + h * v)) - perimeter(p)) / h
            assert rate == pytest.approx(fd, abs=1e-5)

    def test_unit_bisector_rate_is_minus_sum_d(self):
        rng = np.random.default_rng(29)
        p = Polygon(rng.uniform(-2, 2, 7) + 1j * rng.uniform(-2, 2, 7))
        from polyshort.flows import _bisector_direction

        d = _bisector_direction(p.z)
        rate = perimeter_rate(p, velocity(p, FlowSpec.bisector()))
        assert rate == pytest.approx(-float(np.sum(np.abs(d))), rel=1e-12)

    def test_bisector_beats_phase_scrambled_fields(self):
        rng = np.random.default_rng(37)
        p = Polygon(rng.uniform(-2, 2, 8) + 1j * rng.uniform(-2, 2, 8))
        best = velocity(p, FlowSpec.bisector()).velocities
        rate_best = perimeter_rate(p, best)
        for _ in range(20):
            other = np.abs(best) * np.exp(2j * np.pi * rng.random(8))
            assert rate_best <= perimeter_rate(p, other) + 1e-12

    def test_zero_edge_raises(self):
        z = Polygon._wrap(np.array([0j, 0j, 1 + 1j]))
        with pytest.raises(CoincidentVerticesError):
            perimeter_rate(z, np.zeros(3, dtype=complex))

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            perimeter_rate(UNIT_SQUARE, np.zeros(3, dtype=complex))


class TestCheckReport:
    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            CheckReport("x", True, 1.0, 0.0, 3)
        with pytest.raises(ValueError):
            CheckReport("x", False, None, 0.0, 3)


class TestCheckPerimeterMonotone:
    def test_collapsing_star_passes(self):
        star = generate(GeneratorSpec(GeneratorKind.RANDOM_STAR, n=9), 3)
        cfg = SimConfig(t_end=400.0, dt=0.05, stop_diameter=1e-4 * star.diameter(), record_every=10)
        traj = run(star, FlowSpec.linear(), cfg)
        assert traj.termination is Termination.COLLAPSED
        rep = check_perimeter_monotone(traj)
        assert rep.passed
        assert rep.worst_margin > 0.0

    def test_constant_trajectory_fails_at_first_pair(self):
        traj = make_traj([UNIT_SQUARE, UNIT_SQUARE, UNIT_SQUARE])
        rep = check_perimeter_monotone(traj)
        assert not rep.passed
        assert rep.first_violation_time == traj.times[1]
        assert rep.worst_margin < 0.0

    def test_collapsed_needs_thousandfold_drop(self):
        # strictly decreasing but stopped early: the collapse ratio fails
        states = [UNIT_SQUARE, Polygon(0.9 * UNIT_SQUARE.z), Polygon(0.8 * UNIT_SQUARE.z)]
        traj = make_traj(states, termination=Termination.COLLAPSED)
        rep = check_perimeter_monotone(traj)
        assert not rep.passed
        assert rep.first_violation_time == traj.times[-1]

    def test_bisector_capture_run_passes(self):
        p = Polygon(_FIG9_VERTICES)
        cfg = SimConfig(t_end=40.0, dt=1e-3, record_every=20, min_edge_capture=1e-3 * p.diameter())
        traj = run(p, FlowSpec.bisector(speed_mode=BisectorSpeedMode.NORM_MATCHED), cfg)
        assert traj.termination is Termination.CAPTURE
        assert check_perimeter_monotone(traj).passed


class TestCheckStarPreservation:
    def test_ccw_star_preserved(self):
        star = generate(GeneratorSpec(GeneratorKind.RANDOM_STAR, n=7), 11)
        traj = run(star, FlowSpec.linear(), SimConfig(t_end=5.0, dt=0.01, record_every=25))
        rep = check_star_preservation(traj)
        assert rep.passed
        assert rep.worst_margin > 0.0
        assert rep.samples_checked == len(traj)

    def test_cw_star_preserved(self):
        radii = np.array([1.0, 1.2, 0.9, 1.1, 1.0, 1.3, 0.95, 1.05])
        cw = Polygon(radii * np.exp(-2j * np.pi * np.arange(8) / 8))
        traj = run(cw, FlowSpec.linear(), SimConfig(t_end=3.0, dt=0.01, record_every=20))
        rep = check_star_preservation(traj)
        assert rep.passed
        assert rep.worst_margin > 0.0

    def test_class_change_fails(self):
        ok = regular_ngon(4, radius=3.0)
        # second state's first vertex sits exactly on the centroid
        bad = Polygon([(0, 0), (3, 0), (0, 3), (-3, -3)])
        traj = make_traj([ok, bad])
        rep = check_star_preservation(traj)
        assert not rep.passed
        assert rep.first_violation_time == traj.times[1]
        assert rep.worst_margin <= 0.0

    def test_menger_melnikov_counterexample(self):
        # the Menger-Melnikov flow does not keep every star a star: this
        # random 256-gon loses star shape about its centroid at t = 1.469e-3
        # (about 1.460e-3 under step refinement), while its perimeter decreases
        poly = generate(GeneratorSpec(GeneratorKind.RANDOM_STAR, n=256), 11)
        traj = run(poly, FlowSpec.menger_melnikov(), SimConfig(t_end=2e-3, dt=1e-4))
        assert traj.termination is Termination.T_END
        assert traj.z.shape == (114, 256)
        rep = check_star_preservation(traj)
        assert not rep.passed
        assert rep.first_violation_time == pytest.approx(1.469108e-3, rel=1e-6)
        assert rep.worst_margin == pytest.approx(-8.301e-4, rel=1e-3)
        assert check_perimeter_monotone(traj).passed

    def test_non_star_start_rejected(self):
        collinear = Polygon([0.0, 1.0, 3.0, 2.0])
        traj = make_traj([collinear])
        with pytest.raises(PreconditionNotStarError):
            check_star_preservation(traj)


class TestCheckConvexityPreservation:
    def test_strictly_convex_preserved(self):
        traj = run(regular_ngon(9), FlowSpec.linear(), SimConfig(t_end=4.0, dt=0.01, record_every=20))
        rep = check_convexity_preservation(traj)
        assert rep.passed
        assert rep.samples_checked == len(traj) - 1

    def test_flat_vertex_start_allowed(self):
        flat = Polygon([(0, 0), (0.5, 0), (1, 0), (1, 1), (0, 1)])
        traj = run(flat, FlowSpec.linear(), SimConfig(t_end=1.0, dt=0.01, record_every=5))
        assert check_convexity_preservation(traj).passed

    def test_becoming_nonconvex_fails(self):
        flat = Polygon([(0, 0), (0.5, 0), (1, 0), (1, 1), (0, 1)])
        dent = Polygon([(0, 0), (0.5, 0.2), (1, 0), (1, 1), (0, 1)])
        traj = make_traj([flat, dent])
        rep = check_convexity_preservation(traj)
        assert not rep.passed
        assert rep.first_violation_time == traj.times[1]

    def test_non_convex_start_rejected(self):
        star = generate(GeneratorSpec(GeneratorKind.RANDOM_STAR, n=7), 5)
        traj = make_traj([star])
        with pytest.raises(PreconditionNotConvexError):
            check_convexity_preservation(traj)


class TestCheckAreaMonotone:
    def test_convex_area_decreases(self):
        traj = run(regular_ngon(6), FlowSpec.linear(), SimConfig(t_end=3.0, dt=0.01, record_every=20))
        assert check_area_monotone(traj).passed

    def test_regular_area_decays_at_twice_lambda(self):
        # pure mode 1: area(t) = area(0) * exp(2 lambda_1 t)
        traj = run(regular_ngon(5), FlowSpec.linear(), SimConfig(t_end=2.0, dt=1e-3, record_every=200))
        lam = eigenvalues(5)[1]
        for t, a in zip(traj.times, traj.signed_area):
            expect = traj.signed_area[0] * np.exp(2.0 * lam * float(t))
            assert a == pytest.approx(expect, rel=1e-9)

    def test_boomerang_fails_immediately(self):
        traj = run(Polygon(_BOOMERANG_VERTICES), FlowSpec.linear(), SimConfig(t_end=2.0, dt=1e-3, record_every=10))
        rep = check_area_monotone(traj)
        assert not rep.passed
        assert rep.first_violation_time is not None
        assert rep.first_violation_time <= 0.05

    def test_non_simple_sample_rejected(self):
        bowtie = Polygon([(0, 0), (1, 1), (1, 0), (0, 1)])
        traj = make_traj([UNIT_SQUARE, bowtie])
        with pytest.raises(NotSimpleError):
            check_area_monotone(traj)


class TestEllipseConvergenceSeries:
    def test_regular_polygon_already_converged(self):
        traj = run(regular_ngon(8), FlowSpec.linear(), SimConfig(t_end=1.0, dt=0.01, record_every=20))
        series = ellipse_convergence_series(traj)
        assert len(series) == len(traj)
        assert all(r <= 1e-12 for _, r in series)

    def test_random_octagon_converges(self):
        rng = np.random.default_rng(12)
        p = Polygon(rng.uniform(-1, 1, 8) + 1j * rng.uniform(-1, 1, 8))
        rate = leading_decay_rate(8)
        traj = run(p, FlowSpec.linear(), SimConfig(t_end=6.0 / rate, dt=0.02, record_every=25))
        series = ellipse_convergence_series(traj)
        assert series[-1][1] < 1e-3
        after = [(t, r) for t, r in series if t * rate >= 1.0]
        assert all(b < a for (_, a), (_, b) in zip(after, after[1:]))


class TestCheckEllipseConvergence:
    def test_star_run_past_six_time_constants_passes(self):
        poly = generate(GeneratorSpec(GeneratorKind.RANDOM_STAR, n=8), 3)
        rate = leading_decay_rate(8)
        traj = run(poly, FlowSpec.linear(), SimConfig(t_end=6.5 / rate, dt=0.02, record_every=25))
        assert traj.times[-1] * rate >= 6.0
        rep = check_ellipse_convergence(traj)
        assert rep.passed, rep
        assert rep.check_name == "ellipse_convergence"
        assert 0 < rep.samples_checked < len(traj)
        assert rep.worst_margin > 0.0

    def test_rising_residual_fails(self):
        poly = generate(GeneratorSpec(GeneratorKind.RANDOM_STAR, n=8), 3)
        rate = leading_decay_rate(8)
        traj = run(poly, FlowSpec.linear(), SimConfig(t_end=4.0 / rate, dt=0.02, record_every=25))
        # replay the run backwards in time: the residual now grows
        back = make_traj(traj.states[::-1])
        rep = check_ellipse_convergence(back)
        assert not rep.passed
        assert rep.worst_margin < 0.0

    def test_run_shorter_than_one_time_constant_does_not_apply(self):
        # the last pair starts before t = 1 / rate, so no pair is compared
        poly = generate(GeneratorSpec(GeneratorKind.RANDOM_STAR, n=8), 3)
        rate = leading_decay_rate(8)
        traj = run(poly, FlowSpec.linear(), SimConfig(t_end=1.5 / rate, dt=0.05 / rate, record_every=15))
        assert traj.times[-2] * rate < 1.0 <= traj.times[-1] * rate
        with pytest.raises(PreconditionTooShortError):
            check_ellipse_convergence(traj)

    def test_frequency_two_loop_is_degenerate(self):
        loop = Polygon(np.exp(4j * np.pi * np.arange(7) / 7))
        traj = run(loop, FlowSpec.linear(), SimConfig(t_end=0.1, dt=0.01))
        with pytest.raises(DegenerateLeadingModeError):
            check_ellipse_convergence(traj)


class TestReportFormatting:
    REPORTS = [
        CheckReport("alpha_check", True, None, 0.25, 10),
        CheckReport("beta_check", False, 1.5, -0.125, 7),
    ]

    def test_lines(self):
        lines = report_lines(self.REPORTS)
        assert lines[0].startswith("PASS")
        assert "alpha_check" in lines[0]
        assert lines[1].startswith("FAIL")
        assert "1.5" in lines[1]

    def test_json_roundtrip(self):
        doc = report_json(self.REPORTS, seed=3, ensemble_size=2)
        parsed = json.loads(doc)
        assert parsed["seed"] == 3
        assert parsed["ensemble_size"] == 2
        assert parsed["passed"] is False
        assert parsed["checks"][0]["check_name"] == "alpha_check"
        assert parsed["checks"][1]["first_violation_time"] == 1.5

    def test_json_deterministic(self):
        assert report_json(self.REPORTS, seed=1) == report_json(self.REPORTS, seed=1)


@pytest.mark.parametrize("drift, passed", [(4e-9, True), (6e-9, False)])
def test_centroid_drift_is_bounded_by_the_initial_diameter(drift, passed):
    # the bound is 1e-9 times the first state's diameter, 5: a tenth of that
    # state, moved by the drift, is the final one
    z0 = np.array([0.0, 3.0, 3.0 + 4.0j, 4.0j])
    g0 = z0.mean()
    traj = Trajectory([0.0, 1.0], [z0, g0 + 0.1 * (z0 - g0) + drift], Termination.COLLAPSED)
    report = check_centroid_drift(traj)
    assert report.passed is passed and report.samples_checked == 2
    assert report.worst_margin == pytest.approx(5e-9 - drift, rel=1e-6)


@pytest.mark.parametrize("size", [0, -1])
def test_validate_suite_names_its_own_parameter(size):
    # the library names its argument; the command line names its flag
    with pytest.raises(ValueError, match=rf"^ensemble_size must be at least 1, not {size}$"):
        validate_suite(size, 1)


def counting(monkeypatch, module, name):
    """Patch ``module.name`` to record each call; returns the list of calls."""
    calls, real = [], getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_analyze_classifies_convexity_once(tmp_path, monkeypatch, capsys):
    poly = generate(GeneratorSpec(GeneratorKind.RANDOM_CONVEX, n=12), 5)
    path = tmp_path / "convex.csv"
    write_trajectory_csv(run(poly, FlowSpec.linear(), SimConfig(t_end=3.0, dt=0.01)), path)
    classified = counting(monkeypatch, geometry, "_convexity_classes")
    assert cli_main(["analyze", "--csv", str(path), "--checks", "convex,area"]) == 0
    assert "convexity_preservation" in capsys.readouterr().out
    assert len(classified) == 1


def test_area_check_and_simplicity_loss_share_one_pair_test(monkeypatch):
    loss = generate(GeneratorSpec(GeneratorKind.EMBEDDED_LOSS), 0)
    traj = run(loss, FlowSpec.linear(), SimConfig(t_end=1.5, dt=1e-3, record_every=10))
    pairs = counting(monkeypatch, geometry, "_sides_meet")
    tags, _, _, folded = geometry._convexity_classes(traj.z)
    geometry._simple(traj.z, tags, folded)
    once = len(pairs)
    assert once > 0
    with pytest.raises(NotSimpleError):
        check_area_monotone(traj)
    assert detect_first(traj, TrajectoryPredicate.LOSES_SIMPLICITY) is not None
    assert len(pairs) == 2 * once


def test_area_check_and_simplicity_loss_take_the_fold_verdict_once(monkeypatch):
    # the convexity pass settles the folds; the simplicity test forms no sides for them
    loss = generate(GeneratorSpec(GeneratorKind.EMBEDDED_LOSS), 0)
    traj = run(loss, FlowSpec.linear(), SimConfig(t_end=1.5, dt=1e-3, record_every=10))
    bands = counting(monkeypatch, geometry, "_collinear")
    with pytest.raises(NotSimpleError):
        check_area_monotone(traj)
    assert detect_first(traj, TrajectoryPredicate.LOSES_SIMPLICITY) is not None
    assert len(bands) == 1


def test_csv_write_forms_the_edge_lengths_once(tmp_path, monkeypatch):
    # perimeter and min_edge come from one pass over the (S, n) edge lengths
    traj = run(generate(GeneratorSpec(GeneratorKind.RANDOM_STAR, n=9), 4), FlowSpec.bisector(), SimConfig(t_end=0.2))
    edges = counting(monkeypatch, geometry, "_edge_lengths")
    write_trajectory_csv(traj, tmp_path / "t.csv")
    assert len(edges) == 1
