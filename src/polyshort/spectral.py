"""Exact modal solution of the linear flow and the limiting ellipse.

The linear flow is ``dz/dt = A z`` with ``A`` the circulant matrix averaging
each vertex's neighbors.  Its eigenvectors are the discrete Fourier modes
``(omega**(i*k))_i`` with ``omega = exp(2j*pi/n)``, and the eigenvalue of mode
``k`` is

    lambda_k = cos(2*pi*k/n) - 1,      k = 0 .. n-1.

Mode 0 is the centroid (eigenvalue 0, stationary); every other mode decays.
Modes 1 and n-1 share the slowest rate, and their combination

    z(theta) = c_1 * exp(1j*theta) + c_{n-1} * exp(-1j*theta)

traces an ellipse with semi-axes ``|c_1| + |c_{n-1}|`` and
``||c_1| - |c_{n-1}||``, rotated by ``(arg c_1 + arg c_{n-1}) / 2``.  Hence a
generic polygon, rescaled to fixed size, converges to that ellipse.

All modal indices in this module are 0-based frequencies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Polygon

__all__ = [
    "DegenerateLeadingModeError",
    "SpectralDecomposition",
    "EllipseParams",
    "eigenvalues",
    "leading_decay_rate",
    "decompose",
    "closed_form_state",
    "limit_ellipse",
    "ellipse_residual",
]

# Leading-mode magnitudes below this fraction of the total mode energy count
# as degenerate (the limit shape is governed by faster modes).
LEADING_MODE_TOL = 1e-12

# A normalized semi-minor axis at or below this is treated as a flat ellipse
# (a segment) when computing residuals.
FLAT_AXIS_TOL = 1e-9


class DegenerateLeadingModeError(Exception):
    """Both slowest modes vanish, so no limiting ellipse exists."""


def eigenvalues(n: int) -> np.ndarray:
    """Decay rates ``cos(2*pi*k/n) - 1`` for ``k = 0 .. n-1``.

    Entry 0 is exactly 0; all others are negative; entries ``k`` and ``n - k``
    coincide.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    lam = np.cos(2.0 * np.pi * np.arange(n) / n) - 1.0
    half = np.arange(1, n // 2 + 1)
    lam[n - half] = lam[half]  # exact pairing, not just up to rounding
    return lam


def _rk4_gain_m1(x: np.ndarray) -> np.ndarray:
    # R(x) - 1 for the RK4 stability polynomial R(x) = 1 + x + x**2/2 + x**3/6 + x**4/24:
    # one RK4 step of size h multiplies mode k of the linear flow by R(h * lambda_k)
    return x * (1.0 + x * (0.5 + x * (1.0 / 6.0 + x / 24.0)))


def leading_decay_rate(n: int) -> float:
    """Magnitude of the slowest nonzero decay rate, ``1 - cos(2*pi/n)``.

    Time divided by the reciprocal of this rate is the natural dimensionless
    clock of the flow (one unit = one leading time constant).
    """
    return 1.0 - float(np.cos(2.0 * np.pi / n))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Fourier modes of a polygon under the linear flow.

    ``modal_coeffs[k]`` is the coefficient of frequency ``k`` and decays at
    rate ``eigenvalues[k]``; ``modal_coeffs[0]`` is the centroid.
    """

    n: int
    eigenvalues: np.ndarray
    modal_coeffs: np.ndarray

    @property
    def centroid(self) -> complex:
        return complex(self.modal_coeffs[0])


def _modes(z: np.ndarray) -> np.ndarray:
    # c_k = (1/n) sum_i z_i omega**(-i*k) along the last axis of a (..., n) stack
    return np.fft.fft(z, axis=-1, norm="forward")


def _leading_magnitude(c: np.ndarray, what: str) -> np.ndarray:
    # |c_1| + |c_{n-1}| per row of modal coefficients; DegenerateLeadingModeError(what)
    # when in any row both vanish relative to the remaining mode energy
    lead = np.abs(c[..., 1]) + np.abs(c[..., -1])
    rest = np.sqrt(np.sum(np.abs(c[..., 1:]) ** 2, axis=-1))
    if np.any((lead <= LEADING_MODE_TOL * rest) | (rest == 0.0)):
        raise DegenerateLeadingModeError(what)
    return lead


def decompose(poly: Polygon) -> SpectralDecomposition:
    """Project the vertex vector onto the Fourier modes (one FFT)."""
    return SpectralDecomposition(n=poly.n, eigenvalues=eigenvalues(poly.n), modal_coeffs=_modes(poly.z))


def closed_form_state(decomp: SpectralDecomposition, t: float) -> Polygon:
    """Exact state of the linear flow at a finite time ``t >= 0``.

    Each modal coefficient is scaled by ``exp(lambda_k * t)`` and the modes are
    resummed by the inverse FFT.  At large ``t`` all vertices approach the
    centroid.  Raises ``ValueError`` for a negative, infinite or NaN ``t``.
    """
    if not 0.0 <= t < np.inf:
        raise ValueError("time must be finite and nonnegative")
    c = decomp.modal_coeffs * np.exp(decomp.eigenvalues * t)
    return Polygon._wrap(np.fft.ifft(c, norm="forward"))


@dataclass(frozen=True)
class EllipseParams:
    """An ellipse in the normalized shape frame.

    ``center`` is a point, ``semi_major >= semi_minor >= 0``, and
    ``orientation`` is the major-axis direction in radians, in ``[0, pi)``.
    ``semi_minor = 0`` describes a segment.
    """

    center: complex
    semi_major: float
    semi_minor: float
    orientation: float


def limit_ellipse(decomp: SpectralDecomposition) -> EllipseParams:
    """Limiting shape of the renormalized linear flow, scaled to semi-major 1.

    Built from the two slowest modes: semi-axes proportional to
    ``|c_1| + |c_{n-1}|`` and ``||c_1| - |c_{n-1}||``, major axis along
    ``(arg c_1 + arg c_{n-1}) / 2``.  Raises
    :class:`DegenerateLeadingModeError` when both leading modes vanish
    relative to the remaining mode energy.
    """
    c = decomp.modal_coeffs
    lead = float(_leading_magnitude(c, "slowest modes vanish; no limiting ellipse"))
    c1 = complex(c[1])
    cn = complex(c[-1])
    minor = abs(abs(c1) - abs(cn))
    phi = (np.angle(c1) + np.angle(cn)) / 2.0
    return EllipseParams(
        center=0j,
        semi_major=1.0,
        semi_minor=minor / lead,
        orientation=float(phi % np.pi),
    )


def _ellipse_residuals(z: np.ndarray, ellipse: EllipseParams) -> np.ndarray:
    # ellipse_residual of every row of the (S, n) stack z at once
    scale = _leading_magnitude(_modes(z), "polygon has no leading-mode content")
    w = (z - z.mean(axis=-1, keepdims=True)) / scale[..., None] - ellipse.center
    w = w * np.exp(-1j * ellipse.orientation)
    x = w.real
    y = w.imag
    a = ellipse.semi_major
    b = ellipse.semi_minor
    if b <= FLAT_AXIS_TOL:
        over = np.maximum(np.abs(x) - a, 0.0)
        dist = np.hypot(over, y)
        return np.sqrt(np.mean(dist**2, axis=-1))
    vals = np.abs((x / a) ** 2 + (y / b) ** 2 - 1.0)
    return np.sqrt(np.mean(vals**2, axis=-1))


def ellipse_residual(poly: Polygon, ellipse: EllipseParams) -> float:
    """RMS misfit of the polygon's normalized shape against ``ellipse``.

    The polygon is centered on its centroid and scaled by its own leading-mode
    magnitude ``|c_1| + |c_{n-1}|`` so it is comparable with the unit-major-axis
    ellipse, then rotated into the ellipse's axis frame.  The residual is the
    RMS over vertices of ``|(x/a)**2 + (y/b)**2 - 1|``.  For a flat ellipse
    (``b`` at or below ``FLAT_AXIS_TOL``) it is instead the RMS distance to the
    major-axis segment.  Raises :class:`DegenerateLeadingModeError` when the
    polygon itself has no leading-mode content to normalize by.
    """
    return float(_ellipse_residuals(poly.z[None], ellipse)[0])
