"""Fixed-step RK4 evolution of a polygon under a chosen flow.

``run`` integrates until the configured end time or until the polygon
collapses (diameter below threshold), two adjacent vertices capture each
other (bisector flow only), or the flow's velocity becomes undefined.  The
stopping reason is part of the returned trajectory, not an error.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .flows import FlowDegeneracyError, FlowKind, FlowSpec, _field_function
from .geometry import Polygon

__all__ = [
    "SimConfig",
    "Termination",
    "Trajectory",
    "TrajectoryPredicate",
    "step_rk4",
    "run",
    "detect_first",
]

# Adaptive curvature stepping keeps max displacement per step below this
# fraction of the shortest edge.
CURVATURE_STEP_FRACTION = 0.05


class Termination(enum.Enum):
    T_END = "t_end"
    COLLAPSED = "collapsed"
    CAPTURE = "capture"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class SimConfig:
    """Integration settings.

    ``min_edge_capture`` of ``None`` means "use the default": 1e-6 times the
    initial diameter for the bisector flow, disabled otherwise.  ``adaptive``
    only affects the Menger-Melnikov flow, whose velocities are unbounded near
    collapse; there the step is shrunk so no vertex moves more than
    ``CURVATURE_STEP_FRACTION`` of the shortest edge.
    """

    t_end: float
    dt: float = 1e-3
    stop_diameter: float = 1e-6
    record_every: int = 1
    adaptive: bool = True
    min_edge_capture: float | None = None

    def __post_init__(self):
        if not self.t_end > 0.0:
            raise ValueError("t_end must be positive")
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if self.stop_diameter < 0.0:
            raise ValueError("stop_diameter must be nonnegative")
        if self.record_every < 1:
            raise ValueError("record_every must be at least 1")
        if self.min_edge_capture is not None and self.min_edge_capture < 0.0:
            raise ValueError("min_edge_capture must be nonnegative")


@dataclass(frozen=True)
class Trajectory:
    """Recorded samples of one run: states plus per-sample diagnostics.

    ``times`` starts at 0 and is strictly increasing.  ``min_f`` is the
    smallest per-vertex centroid turning value F_i, ``min_h`` the smallest
    per-vertex H value in numbering order, ``min_edge`` the shortest edge.
    """

    times: np.ndarray
    states: list = field(repr=False)
    perimeter: np.ndarray
    signed_area: np.ndarray
    min_f: np.ndarray
    min_h: np.ndarray
    min_edge: np.ndarray
    termination: Termination

    @property
    def n(self) -> int:
        return self.states[0].n

    def __len__(self) -> int:
        return self.times.size


def _rk4(z: np.ndarray, fld, dt: float) -> np.ndarray:
    k1 = fld(z)
    k2 = fld(z + (0.5 * dt) * k1)
    k3 = fld(z + (0.5 * dt) * k2)
    k4 = fld(z + dt * k3)
    return z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def step_rk4(poly: Polygon, flow: FlowSpec, dt: float) -> Polygon:
    """One classical Runge-Kutta step of size ``dt > 0``.

    Velocity degeneracies encountered at any of the four stages propagate as
    the flow's own exceptions.
    """
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    return Polygon._wrap(_rk4(poly.z, _field_function(flow), dt))


def _build_trajectory(rec_t, rec_z, termination: Termination) -> Trajectory:
    states = [Polygon._wrap(z) for z in rec_z]
    per = np.empty(len(states))
    area = np.empty(len(states))
    min_f = np.empty(len(states))
    min_h = np.empty(len(states))
    min_e = np.empty(len(states))
    for i, s in enumerate(states):
        per[i] = geometry.perimeter(s)
        area[i] = geometry.signed_area(s)
        min_f[i] = geometry.star_values(s).min()
        min_h[i] = geometry.convexity_values(s).min()
        min_e[i] = s.min_edge()
    return Trajectory(
        times=np.array(rec_t),
        states=states,
        perimeter=per,
        signed_area=area,
        min_f=min_f,
        min_h=min_h,
        min_edge=min_e,
        termination=termination,
    )


def run(poly: Polygon, flow: FlowSpec, cfg: SimConfig) -> Trajectory:
    """Integrate ``poly`` under ``flow`` and record every ``record_every``-th step.

    The initial state and the final state are always recorded.  Stopping
    conditions are evaluated on the current state before each step, in the
    order: collapse, capture, end of time.  A flow degeneracy (or a non-finite
    step result) ends the run with termination DEGENERATE at the last valid
    state.
    """
    fld = _field_function(flow)
    z = np.array(poly.z, dtype=np.complex128)
    capture = cfg.min_edge_capture
    if capture is None:
        capture = 1e-6 * poly.diameter() if flow.kind is FlowKind.BISECTOR else 0.0
    t = 0.0
    steps = 0
    rec_t = [0.0]
    rec_z = [z.copy()]
    while True:
        if geometry._diameter(z) < cfg.stop_diameter:
            termination = Termination.COLLAPSED
            break
        if flow.kind is FlowKind.BISECTOR and capture > 0.0 and geometry._edge_lengths(z).min() < capture:
            termination = Termination.CAPTURE
            break
        remaining = cfg.t_end - t
        if remaining <= cfg.dt * 1e-9:
            termination = Termination.T_END
            break
        last = remaining <= cfg.dt
        dt_eff = remaining if last else cfg.dt
        if cfg.adaptive and flow.kind is FlowKind.MENGER_MELNIKOV:
            try:
                v = fld(z)
            except FlowDegeneracyError:
                termination = Termination.DEGENERATE
                break
            vmax = float(np.abs(v).max())
            if vmax > 0.0:
                cap_dt = CURVATURE_STEP_FRACTION * float(geometry._edge_lengths(z).min()) / vmax
                if cap_dt < dt_eff:
                    dt_eff = cap_dt
                    last = False
            if dt_eff < 1e-15 * cfg.dt:
                # step size collapsed; the flow is too stiff to advance
                termination = Termination.DEGENERATE
                break
        try:
            z_new = _rk4(z, fld, dt_eff)
        except FlowDegeneracyError:
            termination = Termination.DEGENERATE
            break
        if not np.isfinite(z_new).all():
            termination = Termination.DEGENERATE
            break
        z = z_new
        t = cfg.t_end if last else t + dt_eff
        steps += 1
        if steps % cfg.record_every == 0:
            rec_t.append(t)
            rec_z.append(z.copy())
    if rec_t[-1] != t:
        rec_t.append(t)
        rec_z.append(z.copy())
    return _build_trajectory(rec_t, rec_z, termination)


class TrajectoryPredicate(enum.Enum):
    BECOMES_STRICTLY_CONVEX = "becomes_strictly_convex"
    LOSES_SIMPLICITY = "loses_simplicity"
    AREA_INCREASING = "area_increasing"


def detect_first(traj: Trajectory, predicate: TrajectoryPredicate):
    """First recorded time at which ``predicate`` holds, or ``None``.

    AREA_INCREASING uses the forward difference of ``|signed_area|`` between
    consecutive samples and reports the earlier sample time of the first
    increasing pair.  Detection resolution is the recording stride.  Needs at
    least two samples.
    """
    if len(traj) < 2:
        raise ValueError("need a trajectory with at least 2 samples")
    if predicate is TrajectoryPredicate.AREA_INCREASING:
        mag = np.abs(traj.signed_area)
        inc = np.nonzero(mag[1:] > mag[:-1])[0]
        return float(traj.times[inc[0]]) if inc.size else None
    if predicate is TrajectoryPredicate.BECOMES_STRICTLY_CONVEX:
        for t, s in zip(traj.times, traj.states):
            if geometry.classify_convexity(s).tag is geometry.ConvexityTag.STRICTLY_CONVEX:
                return float(t)
        return None
    for t, s in zip(traj.times, traj.states):
        if not geometry.is_simple(s):
            return float(t)
    return None
