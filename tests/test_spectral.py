"""Modal solution: eigenvalues, decomposition, closed form, limit ellipse."""

import numpy as np
import pytest

from polyshort.flows import FlowSpec, velocity
from polyshort.geometry import Polygon, centroid
from polyshort.simulate import SimConfig, run
from polyshort.spectral import (
    DegenerateLeadingModeError,
    SpectralDecomposition,
    _leading_magnitude,
    closed_form_state,
    decompose,
    eigenvalues,
    ellipse_residual,
    leading_decay_rate,
    limit_ellipse,
)


def regular_ngon(n, radius=1.0):
    return Polygon(radius * np.exp(2j * np.pi * np.arange(n) / n))


def circulant_matrix(n):
    # dense matrix of the flow map z -> (roll(z,-1) + roll(z,1))/2 - z
    a = np.zeros((n, n))
    for i in range(n):
        a[i, (i + 1) % n] += 0.5
        a[i, (i - 1) % n] += 0.5
        a[i, i] -= 1.0
    return a


class TestEigenvalues:
    def test_n4_values(self):
        assert eigenvalues(4) == pytest.approx([0.0, -1.0, -2.0, -1.0], abs=1e-12)

    def test_n3_exact(self):
        assert eigenvalues(3) == pytest.approx([0.0, -1.5, -1.5])

    def test_matches_dense_eigensolver(self):
        for n in list(range(3, 17)) + [33, 64]:
            dense = np.linalg.eigvals(circulant_matrix(n))
            assert np.max(np.abs(dense.imag)) < 1e-10
            got = np.sort(eigenvalues(n))
            assert np.max(np.abs(np.sort(dense.real) - got)) < 1e-10

    def test_zero_mode_and_decay(self):
        for n in (3, 7, 12):
            lam = eigenvalues(n)
            assert lam[0] == 0.0
            assert np.all(lam[1:] < 0.0)

    def test_conjugate_pairing(self):
        lam = eigenvalues(11)
        for k in range(1, 11):
            assert lam[k] == lam[11 - k]

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            eigenvalues(2)

    def test_leading_decay_rate(self):
        for n in (3, 6, 10):
            assert leading_decay_rate(n) == pytest.approx(-eigenvalues(n)[1], rel=1e-15)


class TestDecompose:
    def test_reconstruction(self):
        rng = np.random.default_rng(57)
        p = Polygon(rng.uniform(-2, 2, 9) + 1j * rng.uniform(-2, 2, 9))
        d = decompose(p)
        k = np.arange(9)
        w = np.exp(2j * np.pi * np.outer(k, k) / 9)
        back = w @ d.modal_coeffs
        assert np.max(np.abs(back - p.z)) < 1e-10

    def test_zero_mode_is_centroid(self):
        p = Polygon([(0.4, 1.0), (2.2, -0.3), (1.1, 2.5), (-1.0, 0.8)])
        d = decompose(p)
        assert d.centroid == pytest.approx(centroid(p), rel=1e-14)

    def test_translation_moves_only_mode_zero(self):
        p = Polygon([(0, 0), (2, 0), (2, 1), (0, 1)])
        t = 3.0 - 2.0j
        d0 = decompose(p)
        d1 = decompose(Polygon(p.z + t))
        assert d1.modal_coeffs[0] == pytest.approx(d0.modal_coeffs[0] + t)
        assert np.max(np.abs(d1.modal_coeffs[1:] - d0.modal_coeffs[1:])) < 1e-13

    def test_diamond_is_pure_mode_one(self):
        d = decompose(Polygon([(1, 0), (0, 1), (-1, 0), (0, -1)]))
        assert d.modal_coeffs == pytest.approx([0.0, 1.0, 0.0, 0.0], abs=1e-15)

    def test_regular_ngon_is_pure_mode_one(self):
        d = decompose(regular_ngon(8))
        expect = np.zeros(8, dtype=complex)
        expect[1] = 1.0
        assert d.modal_coeffs == pytest.approx(expect, abs=1e-14)
        assert _leading_magnitude(d.modal_coeffs, "") == pytest.approx(1.0)


class TestClosedFormState:
    def test_time_zero_identity(self):
        rng = np.random.default_rng(61)
        p = Polygon(rng.uniform(-2, 2, 7) + 1j * rng.uniform(-2, 2, 7))
        q = closed_form_state(decompose(p), 0.0)
        assert np.max(np.abs(q.z - p.z)) < 1e-12

    def test_regular_ngon_scales_exponentially(self):
        p = regular_ngon(6)
        lam = eigenvalues(6)[1]
        for t in (0.3, 1.0, 4.0):
            q = closed_form_state(decompose(p), t)
            assert np.max(np.abs(q.z - np.exp(lam * t) * p.z)) < 1e-12

    def test_converges_to_centroid(self):
        p = Polygon([(0, 0), (5, 1), (4, 4), (1, 3)])
        c = centroid(p)
        q = closed_form_state(decompose(p), 200.0)
        assert np.max(np.abs(q.z - c)) < 1e-10

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            closed_form_state(decompose(regular_ngon(4)), -0.1)

    def test_derivative_matches_linear_velocity(self):
        # one-sided second-order difference of the exact solution at t = 0
        p = Polygon([(0.3, 0.1), (2.0, -0.4), (2.5, 1.8), (0.9, 2.2), (-0.7, 1.0)])
        d = decompose(p)
        h = 1e-6
        f0 = p.z
        f1 = closed_form_state(d, h).z
        f2 = closed_form_state(d, 2 * h).z
        fd = (-3.0 * f0 + 4.0 * f1 - f2) / (2.0 * h)
        v = velocity(p, FlowSpec.linear()).velocities
        assert np.max(np.abs(fd - v)) < 1e-8

    def test_rk4_tracks_closed_form(self):
        rng = np.random.default_rng(67)
        p = Polygon(rng.uniform(-1, 1, 10) + 1j * rng.uniform(-1, 1, 10))
        d = decompose(p)
        traj = run(p, FlowSpec.linear(), SimConfig(t_end=2.0, dt=1e-3, record_every=500))
        for t, s in zip(traj.times, traj.states):
            exact = closed_form_state(d, float(t))
            assert np.max(np.abs(s.z - exact.z)) < 1e-6


class TestLimitEllipse:
    def test_regular_ngon_is_circle(self):
        e = limit_ellipse(decompose(regular_ngon(9)))
        assert e.semi_major == 1.0
        assert e.semi_minor == pytest.approx(1.0)

    def test_flat_ellipse_from_balanced_modes(self):
        # |c_1| = |c_{n-1}| collapses the minor axis to a segment
        coeffs = np.zeros(6, dtype=complex)
        coeffs[1] = 0.5
        coeffs[-1] = 0.5
        d = SpectralDecomposition(n=6, eigenvalues=eigenvalues(6), modal_coeffs=coeffs)
        e = limit_ellipse(d)
        assert e.semi_minor == 0.0
        assert e.orientation == 0.0

    def test_collinear_polygon_gives_flat_ellipse(self):
        p = Polygon([0.0, 1.3, 2.9, 4.0, 0.7])
        e = limit_ellipse(decompose(p))
        assert e.semi_minor <= 1e-12

    def test_pure_fast_mode_degenerate(self):
        # frequency-2 loop: both slowest modes vanish identically
        j = np.arange(7)
        p = Polygon(np.exp(2j * np.pi * 2 * j / 7))
        with pytest.raises(DegenerateLeadingModeError):
            limit_ellipse(decompose(p))

    def test_orientation_reflects_mode_phases(self):
        coeffs = np.zeros(5, dtype=complex)
        coeffs[1] = 1.0 * np.exp(0.8j)
        coeffs[-1] = 0.25 * np.exp(0.2j)
        d = SpectralDecomposition(n=5, eigenvalues=eigenvalues(5), modal_coeffs=coeffs)
        e = limit_ellipse(d)
        assert e.orientation == pytest.approx(0.5)
        assert e.semi_minor == pytest.approx(0.75 / 1.25)


class TestEllipseResidual:
    def test_regular_ngon_residual_zero(self):
        p = regular_ngon(12)
        e = limit_ellipse(decompose(p))
        assert ellipse_residual(p, e) <= 1e-12

    def test_pure_leading_collinear_on_segment(self):
        # real combination of modes 1 and n-1 only: flat ellipse, zero misfit
        j = np.arange(5)
        p = Polygon(np.cos(2 * np.pi * j / 5 + 0.4).astype(complex))
        e = limit_ellipse(decompose(p))
        assert e.semi_minor == pytest.approx(0.0, abs=1e-15)
        assert ellipse_residual(p, e) <= 1e-12

    def test_degenerate_polygon_raises(self):
        j = np.arange(7)
        p = Polygon(np.exp(2j * np.pi * 2 * j / 7))
        e = limit_ellipse(decompose(regular_ngon(7)))
        with pytest.raises(DegenerateLeadingModeError):
            ellipse_residual(p, e)

    def test_decays_below_tolerance_by_six_time_constants(self):
        rng = np.random.default_rng(71)
        p = Polygon(rng.uniform(-1, 1, 8) + 1j * rng.uniform(-1, 1, 8))
        d = decompose(p)
        e = limit_ellipse(d)
        tau = 1.0 / leading_decay_rate(8)
        r_mid = ellipse_residual(closed_form_state(d, 1.0 * tau), e)
        r_end = ellipse_residual(closed_form_state(d, 6.0 * tau), e)
        assert r_end < 1e-3
        assert r_end < r_mid
