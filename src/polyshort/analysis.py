"""Trajectory checks: the package's theorems as executable pass/fail reports.

Each checker walks a recorded trajectory and returns a :class:`CheckReport`.
A report passes exactly when it has no first violation time.  Margins are
signed "distance to violation" figures: the larger, the safer; a negative
worst margin pinpoints how badly the worst sample failed.

Monotonicity checks ("strictly decreases") require each consecutive pair of
samples to drop by more than a relative slack of 1e-12, so a constant
trajectory fails while genuine decay, which is orders of magnitude above the
slack at any practical sampling stride, passes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import geometry, spectral
from .flows import VelocityField, _bisector_direction
from .geometry import ConvexityTag, Polygon, StarTag
from .simulate import Termination, Trajectory

__all__ = [
    "CheckReport",
    "PreconditionNotStarError",
    "PreconditionNotConvexError",
    "NotSimpleError",
    "perimeter_rate",
    "check_perimeter_monotone",
    "check_star_preservation",
    "check_convexity_preservation",
    "check_area_monotone",
    "check_ellipse_convergence",
    "ellipse_convergence_series",
    "report_lines",
    "report_json",
]

MONOTONE_SLACK = 1e-12

# A collapsed run must end with less than this fraction of its starting perimeter.
COLLAPSE_PERIMETER_RATIO = 1e-3


class PreconditionNotStarError(ValueError):
    """The initial state is not a star, so star preservation does not apply."""


class PreconditionNotConvexError(ValueError):
    """The initial state is not convex, so convexity preservation does not apply."""


class NotSimpleError(ValueError):
    """A sample is not a simple polygon, so its area is not a region area."""


@dataclass(frozen=True)
class CheckReport:
    check_name: str
    passed: bool
    first_violation_time: float | None
    worst_margin: float
    samples_checked: int

    def __post_init__(self):
        if self.passed != (self.first_violation_time is None):
            raise ValueError("passed must mean exactly: no first violation time")


def perimeter_rate(poly: Polygon, vel) -> float:
    """Instantaneous rate of perimeter change under the velocity field ``vel``.

    Equals ``-sum_i Re{conj(d_i) * v_i}`` with ``d_i`` the sum of the two unit
    edge vectors at vertex ``i``.  For a fixed speed budget per vertex the rate
    is minimized (most negative) by moving along ``d_i``, which is the internal
    angle bisector.  ``vel`` may be a :class:`VelocityField` or a plain complex
    sequence of length n.  Raises :class:`CoincidentVerticesError` on a
    zero-length edge.
    """
    z = poly.z
    u = vel.velocities if isinstance(vel, VelocityField) else np.asarray(vel, dtype=np.complex128)
    if u.shape != z.shape:
        raise ValueError("velocity field length must match the polygon")
    return -float(np.sum(geometry._dot(_bisector_direction(z), u)))


def _report(name: str, first: float | None, worst: float, samples: int) -> CheckReport:
    # the one place that derives ``passed`` from the first violation time
    return CheckReport(
        check_name=name,
        passed=first is None,
        first_violation_time=first,
        worst_margin=worst,
        samples_checked=samples,
    )


def _monotone_report(name, times, values, slack_ref, extra_violation=None, samples=None):
    # violation at pair (k, k+1) when values drops by no more than slack
    margins = values[:-1] - values[1:]
    slack = MONOTONE_SLACK * slack_ref[:-1]
    bad = np.nonzero(margins <= slack)[0]
    first = float(times[bad[0] + 1]) if bad.size else None
    if first is None and extra_violation is not None:
        first = extra_violation
    worst = float((margins - slack).min()) if margins.size else math.inf
    return _report(name, first, worst, samples if samples is not None else len(values))


def check_perimeter_monotone(traj: Trajectory) -> CheckReport:
    """Perimeter must strictly decrease between samples.

    When the run ended by collapse, the final perimeter must additionally be
    below ``COLLAPSE_PERIMETER_RATIO`` of the initial one; that failure is
    reported at the final sample time.
    """
    p = traj.perimeter
    extra = None
    if traj.termination is Termination.COLLAPSED and p[-1] >= COLLAPSE_PERIMETER_RATIO * p[0]:
        extra = float(traj.times[-1])
    return _monotone_report("perimeter_monotone", traj.times, p, p, extra_violation=extra)


def check_star_preservation(traj: Trajectory) -> CheckReport:
    """Every sample must keep the initial state's star class.

    The margin per sample is the minimum centroid turning value F_i, signed so
    positive means safely inside the initial class.  Raises
    :class:`PreconditionNotStarError` when the initial state is not a star.
    """
    first_cls = geometry.classify_star(traj.states[0])
    if first_cls.tag is StarTag.NOT_STAR:
        raise PreconditionNotStarError("initial state is not a star")
    sign = 1.0 if first_cls.tag is StarTag.CCW_STAR else -1.0
    first = None
    worst = math.inf
    for t, s in zip(traj.times, traj.states):
        worst = min(worst, float((sign * geometry.star_values(s)).min()))
        if geometry.classify_star(s).tag is not first_cls.tag and first is None:
            first = float(t)
    return _report("star_preservation", first, worst, len(traj))


def check_convexity_preservation(traj: Trajectory) -> CheckReport:
    """Every sample after the start must be strictly convex.

    The initial state may be merely convex (straight vertices allowed); it
    must immediately become strictly convex.  The margin per checked sample is
    the minimum orientation-corrected H value.  Raises
    :class:`PreconditionNotConvexError` when the initial state is not convex.
    """
    first_tag = geometry.classify_convexity(traj.states[0]).tag
    if first_tag is ConvexityTag.NOT_CONVEX:
        raise PreconditionNotConvexError("initial state is not convex")
    first = None
    worst = math.inf
    checked = 0
    for t, s in zip(traj.times, traj.states):
        if t == 0.0:
            continue
        cls = geometry.classify_convexity(s)
        checked += 1
        worst = min(worst, float(cls.h_values.min()))
        if cls.tag is not ConvexityTag.STRICTLY_CONVEX and first is None:
            first = float(t)
    return _report("convexity_preservation", first, worst, checked)


def check_area_monotone(traj: Trajectory) -> CheckReport:
    """Unsigned enclosed area must strictly decrease between samples.

    Only meaningful for simple polygons: raises :class:`NotSimpleError` if any
    sample fails :func:`polyshort.geometry.is_simple`.
    """
    for s in traj.states:
        if not geometry.is_simple(s):
            raise NotSimpleError("trajectory contains a non-simple sample")
    mag = np.abs(traj.signed_area)
    return _monotone_report("area_monotone", traj.times, mag, mag)


def ellipse_convergence_series(traj: Trajectory) -> list:
    """Per-sample residual of the normalized shape against the limit ellipse.

    The ellipse comes from the initial state's decomposition; each sample is
    normalized by its own leading-mode magnitude.  Returns ``(time, residual)``
    pairs.  Raises :class:`DegenerateLeadingModeError` when the initial state
    has no leading-mode content.
    """
    ellipse = spectral.limit_ellipse(spectral.decompose(traj.states[0]))
    return [
        (float(t), spectral.ellipse_residual(s, ellipse))
        for t, s in zip(traj.times, traj.states)
    ]


def check_ellipse_convergence(traj: Trajectory) -> CheckReport:
    """The ellipse residual must decrease once past one leading time constant.

    Pairs of samples before ``t = 1 / leading_decay_rate`` are not checked.
    When the run reaches six leading time constants, the final residual must
    also be below 1e-3; that failure is reported at the final sample time.
    Raises :class:`DegenerateLeadingModeError` when the initial state has no
    leading-mode content.
    """
    series = ellipse_convergence_series(traj)
    rate = spectral.leading_decay_rate(traj.n)
    first = None
    worst = math.inf
    checked = 0
    for (t0, r0), (t1, r1) in zip(series, series[1:]):
        if t0 * rate < 1.0:
            continue
        checked += 1
        drop = r0 - r1
        worst = min(worst, drop)
        if r1 > r0 + 1e-12 * max(r0, 1e-30) + 1e-15 and first is None:
            first = t1
    t_last, r_last = series[-1]
    if first is None and t_last * rate >= 6.0 and r_last >= 1e-3:
        first = t_last
    return _report("ellipse_convergence", first, worst, checked)


def _bound_report(name: str, traj: Trajectory, value: float, bound: float) -> CheckReport:
    # passes when value <= bound; a failure is dated at the final sample
    first = None if value <= bound else float(traj.times[-1])
    return _report(name, first, bound - value, len(traj))


def check_centroid_drift(traj: Trajectory, diam0: float) -> CheckReport:
    """The vertex centroid must stay within 1e-9 * ``diam0`` of where it started."""
    g = np.array([s.z.mean() for s in traj.states])
    return _bound_report("centroid_drift", traj, float(np.abs(g - g[0]).max()), 1e-9 * diam0)


def check_line_deviation(traj: Trajectory) -> CheckReport:
    """Every sample must stay within 1e-9 * diameter of the initial state's line.

    The line runs through the initial state's farthest vertex pair.
    """
    z0 = traj.states[0].z
    d = np.abs(z0[:, None] - z0[None, :])
    i, j = np.unravel_index(int(d.argmax()), d.shape)
    direction = (z0[j] - z0[i]) / abs(z0[j] - z0[i])
    diam0 = float(d.max())
    dev = 0.0
    for s in traj.states:
        offs = (s.z - z0[i]) * np.conj(direction)
        dev = max(dev, float(np.abs(offs.imag).max()))
    return _bound_report("line_deviation", traj, dev, 1e-9 * diam0)


def report_lines(reports) -> list:
    """Fixed-width text table, one line per report."""
    lines = []
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        at = "-" if r.first_violation_time is None else f"{r.first_violation_time:.6g}"
        lines.append(
            f"{status}  {r.check_name:<40s} worst_margin={r.worst_margin: .6e} "
            f"first_violation={at:>12s} samples={r.samples_checked}"
        )
    return lines


def report_json(reports, **meta) -> str:
    """Deterministic JSON document for a list of reports.

    Keyword arguments become top-level metadata (seed, ensemble size, ...).
    """
    doc = dict(meta)
    doc["passed"] = all(r.passed for r in reports)
    doc["checks"] = [
        {
            "check_name": r.check_name,
            "passed": r.passed,
            "first_violation_time": r.first_violation_time,
            "worst_margin": r.worst_margin,
            "samples_checked": r.samples_checked,
        }
        for r in reports
    ]
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"
