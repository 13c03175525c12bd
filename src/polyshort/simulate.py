"""Fixed-step RK4 evolution of a polygon under a chosen flow.

``run`` integrates until the configured end time or until the polygon
collapses (diameter below threshold), two adjacent vertices capture each
other (bisector flow only), the flow's velocity becomes undefined, or it has
taken ``MAX_STEPS`` steps.  The stopping reason is part of the returned
trajectory, not an error.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .flows import FlowDegeneracyError, FlowKind, FlowSpec, _field_function
from .geometry import ConvexityTag, Polygon

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

# After this many steps a run ends with termination MAX_STEPS: every run ends.
MAX_STEPS = 10**6


class Termination(enum.Enum):
    T_END = "t_end"
    COLLAPSED = "collapsed"
    CAPTURE = "capture"
    DEGENERATE = "degenerate"
    MAX_STEPS = "max_steps"


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
        # NaN fails every comparison; an infinite t_end would never end a run
        if not 0.0 < self.t_end < math.inf:
            raise ValueError("t_end must be positive and finite")
        if not 0.0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")
        if not 0.0 <= self.stop_diameter < math.inf:
            raise ValueError("stop_diameter must be nonnegative and finite")
        if self.record_every < 1:
            raise ValueError("record_every must be at least 1")
        if self.min_edge_capture is not None and not 0.0 <= self.min_edge_capture < math.inf:
            raise ValueError("min_edge_capture must be nonnegative and finite")


# eq=False keeps the bit-for-bit __eq__ below and leaves the class unhashable
@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded samples of one run: times, states and the stopping reason.

    ``z`` is the read-only ``(S, n)`` complex array of the S recorded states,
    one row per sample; ``states`` derives :class:`Polygon` views of its rows.
    ``times`` has one entry per row, starts at 0 and strictly increases, or
    construction raises ``ValueError``.  ``perimeter``, ``signed_area``,
    ``min_f``, ``min_h`` (smallest F_i, H_i) and ``min_edge`` come from ``z``.
    """

    times: np.ndarray
    z: np.ndarray = field(repr=False)
    termination: Termination
    perimeter: np.ndarray = field(init=False, repr=False)
    signed_area: np.ndarray = field(init=False, repr=False)
    min_f: np.ndarray = field(init=False, repr=False)
    min_h: np.ndarray = field(init=False, repr=False)
    min_edge: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        times = np.array(self.times, dtype=np.float64)
        z = np.array(self.z, dtype=np.complex128, order="C")
        if z.ndim != 2 or times.shape != z.shape[:1]:
            raise ValueError("need one time per row of an (S, n) array of states")
        if times.size and (times[0] != 0.0 or not (np.diff(times) > 0.0).all()):
            raise ValueError("times must start at 0 and strictly increase")
        edges = geometry._edge_lengths(z)
        columns = {
            "times": times,
            "z": z,
            "perimeter": edges.sum(axis=-1),
            "signed_area": geometry._signed_area(z),
            "min_f": geometry._star_values(z).min(axis=-1),
            "min_h": geometry._convexity_values(z).min(axis=-1),
            "min_edge": edges.min(axis=-1),
        }
        for name, value in columns.items():
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def states(self) -> list:
        """The recorded states as polygons sharing the rows of ``z``."""
        return [Polygon._wrap(row) for row in self.z]

    @property
    def n(self) -> int:
        return self.z.shape[1]

    def __len__(self) -> int:
        return self.times.size

    def __eq__(self, other) -> bool:
        # bit for bit: a rerun of the same scenario reproduces every sample
        if not isinstance(other, Trajectory) or self.termination is not other.termination:
            return False
        pairs = ((self.times, other.times), (self.z, other.z))
        return all(a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in pairs)


def _rk4(z: np.ndarray, fld, dt: float, k1: np.ndarray) -> np.ndarray:
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
    fld = _field_function(flow)
    return Polygon._wrap(_rk4(poly.z, fld, dt, fld(poly.z)))


def run(poly: Polygon, flow: FlowSpec, cfg: SimConfig) -> Trajectory:
    """Integrate ``poly`` under ``flow`` and record every ``record_every``-th step.

    The initial state and the final state are always recorded.  Stopping
    conditions are evaluated on the current state before each step, in the
    order: collapse, capture, end of time, ``MAX_STEPS`` steps taken.  A flow
    degeneracy, a non-finite step result or a step too small to advance the
    time ends the run with termination DEGENERATE at the last valid state.
    """
    fld = _field_function(flow)
    adaptive = cfg.adaptive and flow.kind is FlowKind.MENGER_MELNIKOV
    capture = cfg.min_edge_capture if flow.kind is FlowKind.BISECTOR else 0.0
    if capture is None:
        capture = 1e-6 * poly.diameter()
    z = poly.z  # only ever rebound, never written in place: rows need no copies
    t = 0.0
    steps = 0
    rec_t = [0.0]
    rec_z = [z]
    while True:
        if geometry._diameter(z) < cfg.stop_diameter:
            termination = Termination.COLLAPSED
            break
        if capture > 0.0 and geometry._edge_lengths(z).min() < capture:
            termination = Termination.CAPTURE
            break
        remaining = cfg.t_end - t
        if remaining <= cfg.dt * 1e-9:
            termination = Termination.T_END
            break
        if steps >= MAX_STEPS:
            termination = Termination.MAX_STEPS
            break
        last = remaining <= cfg.dt
        dt_eff = remaining if last else cfg.dt
        try:
            k1 = fld(z)
            if adaptive:
                vmax = float(np.abs(k1).max())
                if vmax > 0.0:
                    cap_dt = CURVATURE_STEP_FRACTION * float(geometry._edge_lengths(z).min()) / vmax
                    if cap_dt < dt_eff:
                        dt_eff = cap_dt
                        last = False
            # a step too small to advance t means the flow is too stiff
            z_new = None if dt_eff < 1e-15 * cfg.dt or t + dt_eff == t else _rk4(z, fld, dt_eff, k1)
        except FlowDegeneracyError:
            z_new = None
        if z_new is None or not np.isfinite(z_new).all():
            termination = Termination.DEGENERATE
            break
        z = z_new
        t = cfg.t_end if last else t + dt_eff
        steps += 1
        if steps % cfg.record_every == 0:
            rec_t.append(t)
            rec_z.append(z)
    if rec_t[-1] != t:
        rec_t.append(t)
        rec_z.append(z)
    return Trajectory(rec_t, rec_z, termination)


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
        hits = np.flatnonzero(mag[1:] > mag[:-1])
    elif predicate is TrajectoryPredicate.BECOMES_STRICTLY_CONVEX:
        hits = np.flatnonzero(geometry._convexity_classes(traj.z)[0] == ConvexityTag.STRICTLY_CONVEX)
    else:
        hits = np.flatnonzero(~geometry._simple(traj.z))
    return float(traj.times[hits[0]]) if hits.size else None
