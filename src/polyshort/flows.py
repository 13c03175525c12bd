"""Velocity fields that drive the polygon evolutions.

Three flows are provided, each assigning one velocity per vertex:

* linear: ``v_i = (z_{i+1} - z_i)/2 + (z_{i-1} - z_i)/2``, a fixed linear map
  of the vertex vector (each vertex chases the midpoint of its neighbors).
* Menger-Melnikov: ``v_i = (C_i - z_i) / R_i**2`` where ``C_i`` and ``R_i``
  are the center and radius of the circle through ``z_{i-1}, z_i, z_{i+1}``;
  the magnitude is the Menger curvature ``1/R_i``.  It equals
  ``1 / conj(C_i - z_i)``, evaluated in closed form on sides scaled by a power
  of two, with no center and no radius.  A straight vertex (the fold test's
  band, ``geometry._collinear``) contributes zero velocity.
* bisector: motion along the internal angle bisector at each vertex, the
  direction that locally shrinks the perimeter fastest for a given speed.
  ``d_i`` is the sum of the two unit edge vectors out of ``z_i``; UNIT mode
  moves at fixed speed along ``d_i`` (zero where the edges are anti-parallel
  and ``d_i`` vanishes), NORM_MATCHED mode uses ``d_i / 2`` so magnitudes are
  comparable with the linear flow.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .geometry import Polygon, _circumcircle_terms, _ring

__all__ = [
    "FlowKind",
    "BisectorSpeedMode",
    "FlowSpec",
    "VelocityField",
    "FlowDegeneracyError",
    "DegenerateTripleError",
    "CoincidentVerticesError",
    "velocity",
]

# |d_i| below this counts as anti-parallel edges (d is a sum of unit vectors,
# so the threshold is scale-free).
ANTIPARALLEL_TOL = 1e-12


class FlowKind(enum.Enum):
    LINEAR = "linear"
    MENGER_MELNIKOV = "menger_melnikov"
    BISECTOR = "bisector"


class BisectorSpeedMode(enum.Enum):
    UNIT = "unit"
    NORM_MATCHED = "norm_matched"


class FlowDegeneracyError(Exception):
    """The velocity field is undefined for this polygon state."""


class DegenerateTripleError(FlowDegeneracyError):
    """Two points of a curvature triple coincide exactly."""


class CoincidentVerticesError(FlowDegeneracyError):
    """An edge has exactly zero length, so its unit vector is undefined."""


@dataclass(frozen=True)
class FlowSpec:
    """Which flow to run, plus bisector parameters when applicable.

    ``bisector_speed_mode`` and ``bisector_speed`` must be set if and only if
    ``kind`` is BISECTOR; ``bisector_speed`` applies to UNIT mode only.
    """

    kind: FlowKind
    bisector_speed_mode: BisectorSpeedMode | None = None
    bisector_speed: float | None = None

    def __post_init__(self):
        if self.kind is FlowKind.BISECTOR:
            if self.bisector_speed_mode is None:
                raise ValueError("bisector flow needs a speed mode")
            if self.bisector_speed_mode is BisectorSpeedMode.UNIT:
                # NaN fails every comparison; an infinite speed has no finite velocity
                if self.bisector_speed is None or not 0.0 < self.bisector_speed < np.inf:
                    raise ValueError("UNIT bisector flow needs a positive finite speed")
            elif self.bisector_speed is not None:
                raise ValueError("NORM_MATCHED bisector flow takes no speed")
        else:
            if self.bisector_speed_mode is not None or self.bisector_speed is not None:
                raise ValueError("bisector parameters only apply to the bisector flow")

    @classmethod
    def linear(cls) -> "FlowSpec":
        return cls(kind=FlowKind.LINEAR)

    @classmethod
    def menger_melnikov(cls) -> "FlowSpec":
        return cls(kind=FlowKind.MENGER_MELNIKOV)

    @classmethod
    def bisector(cls, speed_mode: BisectorSpeedMode = BisectorSpeedMode.UNIT, speed: float | None = None) -> "FlowSpec":
        """A bisector flow: UNIT with no speed moves at 1.0; the constructor refuses a speed with NORM_MATCHED."""
        if speed is None and speed_mode is BisectorSpeedMode.UNIT:
            speed = 1.0
        return cls(kind=FlowKind.BISECTOR, bisector_speed_mode=speed_mode, bisector_speed=speed)


@dataclass(frozen=True)
class VelocityField:
    """One complex velocity per vertex, aligned with the polygon's numbering."""

    velocities: np.ndarray

    def __post_init__(self):
        v = np.array(self.velocities, dtype=np.complex128)
        if v.ndim != 1:
            raise ValueError("velocities must be a flat sequence")
        if not np.isfinite(v).all():
            raise ValueError("velocities must be finite")
        v.flags.writeable = False
        object.__setattr__(self, "velocities", v)

    def __len__(self) -> int:
        return self.velocities.size


def _linear_field(z: np.ndarray) -> np.ndarray:
    y = z[_ring(z.size)]
    return 0.5 * (y[2:] + y[:-2]) - z


def _menger_melnikov_field(z: np.ndarray) -> np.ndarray:
    y = z[_ring(z.size)]
    zp, zn = y[:-2], y[2:]
    if np.count_nonzero(zp == z) or np.count_nonzero(zp == zn):
        raise DegenerateTripleError("coincident points in a curvature triple")
    num, cross, ok, s = _circumcircle_terms(zp, z, zn)
    # collinear triples keep velocity 0 and are never divided
    return np.divide(-2j * s * cross, num.conj(), out=np.zeros(z.shape, complex), where=ok)


def _bisector_direction(z: np.ndarray) -> np.ndarray:
    # e[i] = z_i - z_{i-1} for i = 0 .. n, indices mod n: edge n-1 -> 0 is both e[0] and e[n]
    y = z[_ring(z.size)]
    e = y[1:] - y[:-1]
    ln = np.abs(e)
    if np.count_nonzero(ln) < ln.size:
        raise CoincidentVerticesError("zero-length edge")
    # (z_{i-1} - z_i) / l_{i-1} is its own subtraction: -e[:-1] or t - _prev(t) flip signed zeros
    return (y[:-2] - z) / ln[:-1] + e[1:] / ln[1:]


def _bisector_field(z: np.ndarray, spec: FlowSpec) -> np.ndarray:
    d = _bisector_direction(z)
    if spec.bisector_speed_mode is BisectorSpeedMode.NORM_MATCHED:
        return 0.5 * d
    mag = np.abs(d)
    return np.divide(spec.bisector_speed * d, mag, out=np.zeros(d.shape, complex), where=mag > ANTIPARALLEL_TOL)


def _field_function(spec: FlowSpec):
    # raw ndarray -> ndarray evaluator used by the integrator
    if spec.kind is FlowKind.LINEAR:
        return _linear_field
    if spec.kind is FlowKind.MENGER_MELNIKOV:
        return _menger_melnikov_field
    return lambda z: _bisector_field(z, spec)


def velocity(poly: Polygon, spec: FlowSpec) -> VelocityField:
    """Velocity field of ``spec``'s flow on ``poly``.

    Raises :class:`DegenerateTripleError` (Menger-Melnikov) when two points of
    a consecutive triple coincide, :class:`CoincidentVerticesError` (bisector)
    when an edge has zero length.  The linear field is defined for every polygon.
    """
    return VelocityField(_field_function(spec)(poly.z))
