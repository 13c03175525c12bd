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
from dataclasses import dataclass, replace

import numpy as np

from . import geometry, spectral
from .flows import FlowSpec, VelocityField, _bisector_direction, velocity
from .generators import GeneratorKind, GeneratorSpec, SplitMix64, generate
from .geometry import ConvexityTag, Polygon, StarTag
from .simulate import SimConfig, Termination, Trajectory, run

__all__ = [
    "CheckReport",
    "PreconditionNotStarError",
    "PreconditionNotConvexError",
    "NotSimpleError",
    "PreconditionTooShortError",
    "perimeter_rate",
    "check_perimeter_monotone",
    "check_star_preservation",
    "check_convexity_preservation",
    "check_area_monotone",
    "check_ellipse_convergence",
    "ellipse_convergence_series",
    "report_lines",
    "report_json",
    "validate_suite",
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


class PreconditionTooShortError(ValueError):
    """No pair of samples lies past one leading time constant, where the ellipse check starts."""


# Errors meaning a check does not apply to the trajectory: neither a pass nor a failure.
NOT_APPLICABLE = (
    PreconditionNotStarError,
    PreconditionNotConvexError,
    NotSimpleError,
    PreconditionTooShortError,
    spectral.DegenerateLeadingModeError,
)


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


def _monotone_report(name, times, values, extra_violation=None):
    # violation at pair (k, k+1) when values drops by no more than slack
    margins = values[:-1] - values[1:]
    slack = MONOTONE_SLACK * values[:-1]
    bad = np.nonzero(margins <= slack)[0]
    first = float(times[bad[0] + 1]) if bad.size else None
    if first is None and extra_violation is not None:
        first = extra_violation
    worst = float((margins - slack).min()) if margins.size else math.inf
    return _report(name, first, worst, len(values))


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
    return _monotone_report("perimeter_monotone", traj.times, p, extra_violation=extra)


def check_star_preservation(traj: Trajectory) -> CheckReport:
    """Every sample must keep the initial state's star class.

    The margin per sample is the minimum centroid turning value F_i, signed so
    positive means safely inside the initial class.  Raises
    :class:`PreconditionNotStarError` when the initial state is not a star.
    """
    tags, _, _, f = geometry._star_classes(traj.z)
    if tags[0] is StarTag.NOT_STAR:
        raise PreconditionNotStarError("initial state is not a star")
    sign = 1.0 if tags[0] is StarTag.CCW_STAR else -1.0
    bad = np.flatnonzero(tags != tags[0])
    first = float(traj.times[bad[0]]) if bad.size else None
    worst = float((sign * f).min())
    return _report("star_preservation", first, worst, len(traj))


def check_convexity_preservation(traj: Trajectory) -> CheckReport:
    """Every sample after the start must be strictly convex.

    The initial state may be merely convex (straight vertices allowed); it
    must immediately become strictly convex.  The margin per checked sample is
    the minimum orientation-corrected H value.  Raises
    :class:`PreconditionNotConvexError` when the initial state is not convex.
    """
    tags, h_min, _ = traj._convexity
    if tags[0] is ConvexityTag.NOT_CONVEX:
        raise PreconditionNotConvexError("initial state is not convex")
    # times strictly increase from 0, so only row 0 is the initial state
    bad = np.flatnonzero(tags[1:] != ConvexityTag.STRICTLY_CONVEX)
    first = float(traj.times[bad[0] + 1]) if bad.size else None
    worst = float(h_min[1:].min()) if len(traj) > 1 else math.inf
    return _report("convexity_preservation", first, worst, len(traj) - 1)


def check_area_monotone(traj: Trajectory) -> CheckReport:
    """Unsigned enclosed area must strictly decrease between samples.

    Only meaningful for simple polygons: raises :class:`NotSimpleError` if any
    sample fails :func:`polyshort.geometry.is_simple`.
    """
    if not traj._simple.all():
        raise NotSimpleError("trajectory contains a non-simple sample")
    return _monotone_report("area_monotone", traj.times, np.abs(traj.signed_area))


def ellipse_convergence_series(traj: Trajectory) -> list:
    """Per-sample residual of the normalized shape against the limit ellipse.

    The ellipse comes from the initial state's decomposition; each sample is
    normalized by its own leading-mode magnitude.  Returns ``(time, residual)``
    pairs.  Raises :class:`DegenerateLeadingModeError` when the initial state
    has no leading-mode content.
    """
    ellipse = spectral.limit_ellipse(spectral.decompose(Polygon._wrap(traj.z[0])))
    return list(zip(traj.times.tolist(), spectral._ellipse_residuals(traj.z, ellipse).tolist()))


def check_ellipse_convergence(traj: Trajectory) -> CheckReport:
    """The ellipse residual must decrease once past one leading time constant.

    Pairs of samples before ``t = 1 / leading_decay_rate`` are not checked.
    When the run reaches six leading time constants, the final residual must
    also be below 1e-3; that failure is reported at the final sample time.
    Raises :class:`DegenerateLeadingModeError` when the initial state has no
    leading-mode content, and :class:`PreconditionTooShortError` when no pair
    of samples lies past one leading time constant.
    """
    series = ellipse_convergence_series(traj)
    rate = spectral.leading_decay_rate(traj.n)
    pairs = [(p, q) for p, q in zip(series, series[1:]) if p[0] * rate >= 1.0]
    if not pairs:
        raise PreconditionTooShortError("no pair of samples past one leading time constant")
    rises = (t1 for (_, r0), (t1, r1) in pairs if r1 > r0 + 1e-12 * max(r0, 1e-30) + 1e-15)
    first = next(rises, None)
    t_last, r_last = series[-1]
    if first is None and t_last * rate >= 6.0 and r_last >= 1e-3:
        first = t_last
    return _report("ellipse_convergence", first, min(r0 - r1 for (_, r0), (_, r1) in pairs), len(pairs))


def _bound_report(name: str, traj: Trajectory, value: float, bound: float) -> CheckReport:
    # passes when value <= bound; a failure is dated at the final sample
    first = None if value <= bound else float(traj.times[-1])
    return _report(name, first, bound - value, len(traj))


def check_centroid_drift(traj: Trajectory) -> CheckReport:
    """The vertex centroid must stay within 1e-9 * the initial state's diameter of where it started."""
    g = traj.z.mean(axis=1)
    return _bound_report("centroid_drift", traj, float(np.abs(g - g[0]).max()), 1e-9 * geometry._diameter(traj.z[0]))


def check_line_deviation(traj: Trajectory) -> CheckReport:
    """Every sample must stay within 1e-9 * diameter of the initial state's line.

    The line runs through the initial state's farthest vertex pair.
    """
    z0 = traj.z[0]
    i, j, diam0 = geometry._farthest_pair(z0)
    direction = (z0[j] - z0[i]) / abs(z0[j] - z0[i])
    dev = float(np.abs(((traj.z - z0[i]) * np.conj(direction)).imag).max())
    return _bound_report("line_deviation", traj, dev, 1e-9 * diam0)


def validate_suite(ensemble_size: int, seed: int) -> list:
    """The randomized theorem suite behind ``polyshort validate``, one report per check.

    Random stars and convex polygons (``ensemble_size`` of each, at least 1)
    run the linear flow to collapse, ten collinear polygons stay on their line,
    the bisector beats random fields on ``ensemble_size`` stars, and RK4
    matches the closed form.  All draws come from one :class:`SplitMix64`
    seeded with ``seed``.
    """
    if ensemble_size < 1:
        raise ValueError(f"ensemble_size must be at least 1, not {ensemble_size}")
    reports = []
    root = SplitMix64(seed)

    # linear runs to collapse: each ensemble's generator, n = n0 + (i mod period), name prefix and own checks
    star = {"star_preservation": check_star_preservation}
    convex = {"convexity_preservation": check_convexity_preservation, "convex_area": check_area_monotone}
    ensembles = [(GeneratorKind.RANDOM_STAR, 4, 7, "star", star), (GeneratorKind.RANDOM_CONVEX, 5, 6, "convex", convex)]
    for kind, n0, period, prefix, checks in ensembles:
        checks |= {f"{prefix}_perimeter": check_perimeter_monotone, f"{prefix}_centroid_drift": check_centroid_drift}
        for i in range(ensemble_size):
            poly = generate(GeneratorSpec(kind, n=n0 + i % period), root.next_u64())
            cfg = SimConfig(t_end=400.0, dt=0.05, stop_diameter=1e-4 * poly.diameter(), record_every=10)
            traj = run(poly, FlowSpec.linear(), cfg)
            reports += [replace(check(traj), check_name=f"{name}[{i:02d}]") for name, check in checks.items()]

    # collinear states stay collinear
    for i in range(10):
        poly = generate(GeneratorSpec(GeneratorKind.COLLINEAR, n=6 + (i % 4)), root.next_u64())
        traj = run(poly, FlowSpec.linear(), SimConfig(t_end=2.0, dt=0.01, record_every=20))
        reports.append(replace(check_line_deviation(traj), check_name=f"collinear_invariance[{i:02d}]"))

    # bisector direction is perimeter-optimal among magnitude-matched fields
    for i in range(ensemble_size):
        poly = generate(GeneratorSpec(GeneratorKind.RANDOM_STAR, n=5 + (i % 6)), root.next_u64())
        u = velocity(poly, FlowSpec.bisector())
        rate_u = perimeter_rate(poly, u)
        margin = math.inf
        for _ in range(10):
            phases = root.uniform(0.0, 2.0 * np.pi, poly.n)
            v = np.abs(u.velocities) * np.exp(1j * phases)
            margin = min(margin, perimeter_rate(poly, v) - rate_u)
        first = None if margin >= -1e-12 else 0.0
        reports.append(_report(f"bisector_optimality[{i:02d}]", first, margin, 10))

    # integrator agrees with the exact modal solution
    for i in range(3):
        poly = generate(GeneratorSpec(GeneratorKind.RANDOM_STAR, n=8), root.next_u64())
        traj = run(poly, FlowSpec.linear(), SimConfig(t_end=2.0, dt=1e-3, record_every=200))
        dec = spectral.decompose(poly)
        exact = np.array([spectral.closed_form_state(dec, t).z for t in traj.times.tolist()])
        err = float(np.abs(traj.z - exact).max())
        reports.append(_bound_report(f"rk4_vs_closed_form[{i}]", traj, err, 1e-6))
    return reports


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


def report_json(reports, not_applicable=None, **meta) -> str:
    """Deterministic JSON document for a list of reports.

    Keyword arguments become top-level metadata (seed, ensemble size, ...).
    An infinite worst margin (nothing was compared) is written as ``null``.
    ``not_applicable``, when given, lists the ``(check, reason)`` pairs of
    requested checks that did not apply; any one makes ``"passed"`` false.
    """
    doc = dict(meta)
    doc["passed"] = all(r.passed for r in reports) and not not_applicable
    doc["checks"] = [
        {
            "check_name": r.check_name,
            "passed": r.passed,
            "first_violation_time": r.first_violation_time,
            "worst_margin": r.worst_margin if math.isfinite(r.worst_margin) else None,
            "samples_checked": r.samples_checked,
        }
        for r in reports
    ]
    if not_applicable is not None:
        doc["not_applicable"] = [{"check": name, "reason": reason} for name, reason in not_applicable]
    return json.dumps(doc, indent=2, sort_keys=False, allow_nan=False) + "\n"
