"""Fixed-step RK4 evolution of a polygon under a chosen flow.

``run`` integrates until the configured end time or until the polygon
collapses (diameter below threshold), two adjacent vertices capture each
other (bisector flow only), the flow's velocity becomes undefined, or it has
taken ``MAX_STEPS`` steps.  The stopping reason is part of the returned
trajectory, not an error.

The linear flow is circulant, so one RK4 step of size h multiplies Fourier
mode k by the RK4 stability polynomial R(h * lambda_k), and ``run`` computes
a block of its steps at once, per mode, with no Python loop over the steps.
The other flows step the vertices.  Both paths share one set of time, stop
and record rules, applied to a block of states at a time.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry, spectral
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

# A linear run computes at most this many vertex positions at once, in blocks
# of _MODAL_BLOCK // n steps; the other flows take _STEP_BLOCK steps ahead of
# the stop tests.  A stop wastes at most the rest of its block.
_MODAL_BLOCK = 4096
_STEP_BLOCK = 8


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
        if not isinstance(self.record_every, (int, np.integer)) or self.record_every < 1:
            raise ValueError("record_every must be an integer of at least 1")
        if self.min_edge_capture is not None and not 0.0 <= self.min_edge_capture < math.inf:
            raise ValueError("min_edge_capture must be nonnegative and finite")


def _derived(fn):
    # a Trajectory value derived on first read, then read-only; an unstable run's states may overflow
    @np.errstate(over="ignore", invalid="ignore")
    def get(self):
        value = fn(self)
        for a in value if isinstance(value, tuple) else (value,):
            a.flags.writeable = False
        return value
    return functools.cached_property(get)


# eq=False keeps the bit-for-bit __eq__ below and leaves the class unhashable
@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded samples of one run: times, states and the stopping reason.

    ``z`` is the read-only ``(S, n)`` complex array of the S recorded states,
    one row per sample; ``states`` derives :class:`Polygon` views of its rows.
    ``times`` has one entry per row, starts at 0 and strictly increases, or
    construction raises ``ValueError``.  ``perimeter``, ``signed_area``, ``min_f``, ``min_h``
    (smallest F_i, H_i) and ``min_edge`` are derived from ``z`` on first use, then read-only.
    """

    times: np.ndarray
    z: np.ndarray = field(repr=False)
    termination: Termination

    def __post_init__(self):
        times = np.array(self.times, dtype=np.float64)
        z = np.array(self.z, dtype=np.complex128, order="C")
        if z.ndim != 2 or times.shape != z.shape[:1]:
            raise ValueError("need one time per row of an (S, n) array of states")
        if times.size and (times[0] != 0.0 or not (np.diff(times) > 0.0).all()):
            raise ValueError("times must start at 0 and strictly increase")
        times.flags.writeable = z.flags.writeable = False
        self.__dict__.update(times=times, z=z)

    perimeter = _derived(lambda self: geometry._edge_lengths(self.z).sum(axis=-1))
    signed_area = _derived(lambda self: geometry._signed_area(self.z))
    min_f = _derived(lambda self: geometry._star_values(self.z).min(axis=-1))
    min_h = _derived(lambda self: geometry._convexity_values(self.z).min(axis=-1))
    min_edge = _derived(lambda self: geometry._edge_lengths(self.z).min(axis=-1))
    _simple = _derived(lambda self: geometry._simple(self.z, self._convexity[0]))

    @_derived
    def _convexity(self):  # each sample's ConvexityTag and smallest oriented H value
        tags, _, h = geometry._convexity_classes(self.z)
        return tags, h.min(axis=-1)

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


def _time_left(t, cfg: SimConfig):
    # whether a run at time t (or at each of the times t) takes another step;
    # where it does not, it ends T_END
    return cfg.t_end - t > cfg.dt * 1e-9


def _fixed_steps(t: float, cfg: SimConfig, k: int):
    # End times of the next k steps from t, fewer if the time runs out first,
    # and whether the last of them is the short step that ends at t_end
    # exactly.  A step is dt long while more than dt remains.  The times are
    # sums taken in order, so a block of them has the bits of a step-by-step
    # loop's.
    ts = np.full(k + 1, cfg.dt)
    ts[0] = t
    ts = np.add.accumulate(ts)
    full = cfg.t_end - ts[:-1] > cfg.dt
    if full.all():
        return ts[1:], False
    j = int(full.argmin())
    if not _time_left(ts[j], cfg):
        return ts[1 : j + 1], False
    ts[j + 1] = cfg.t_end
    return ts[1 : j + 2], True


def _stepped_states(z: np.ndarray, flow: FlowSpec, cfg: SimConfig):
    # RK4 steps of the vertices, in blocks of up to _STEP_BLOCK end times and
    # states.  A block ends early after a step that the curvature cap
    # shortened, as the rest of its times no longer apply.  A field that is
    # undefined, or a step too small to advance the time, ends a block, and
    # the next request raises FlowDegeneracyError.
    fld = _field_function(flow)
    adaptive = cfg.adaptive and flow.kind is FlowKind.MENGER_MELNIKOV
    t = 0.0
    while True:
        ends, last = _fixed_steps(t, cfg, _STEP_BLOCK)
        ts, zs = [], []
        try:
            for j, end in enumerate(ends.tolist()):
                dt_eff = cfg.t_end - t if last and j == ends.size - 1 else cfg.dt
                k1 = fld(z)
                capped = False
                if adaptive:
                    vmax = float(np.abs(k1).max())
                    if vmax > 0.0:
                        cap_dt = CURVATURE_STEP_FRACTION * float(geometry._edge_lengths(z).min()) / vmax
                        if cap_dt < dt_eff:
                            dt_eff, end, capped = cap_dt, t + cap_dt, True
                # a step too small to advance t means the flow is too stiff
                if dt_eff < 1e-15 * cfg.dt or t + dt_eff == t:
                    raise FlowDegeneracyError("step too small to advance the time")
                z = _rk4(z, fld, dt_eff, k1)
                t = end
                ts.append(t)
                zs.append(z)
                if capped:
                    break
        except FlowDegeneracyError:
            if ts:
                yield np.array(ts), np.array(zs)
            raise
        yield np.array(ts), np.array(zs)


def _modal_states(z: np.ndarray, cfg: SimConfig):
    # RK4 steps of the linear flow taken per Fourier mode, in blocks of
    # _MODAL_BLOCK // n end times and states.  The flow is circulant, so a step
    # of size h multiplies mode k by R(h * lambda_k) and m steps multiply it by
    # exp(m * log1p(R - 1)); a running product of R ~ 1 - 1e-4 would instead
    # grow its rounding with m.
    n = z.size
    c0 = spectral._modes(z)
    lam = spectral.eigenvalues(n)
    log_gain = np.log1p(spectral._rk4_gain_m1(cfg.dt * lam))
    k = max(1, _MODAL_BLOCK // n)
    t, m = 0.0, 0
    while True:
        ts, last = _fixed_steps(t, cfg, k)
        full = ts.size - last
        # the modes now, then after each full step
        c = c0 * np.exp(np.arange(m, m + full + 1)[:, None] * log_gain)
        if last:
            h = cfg.t_end - (ts[-2] if full else t)
            c = np.concatenate((c, c[-1:] * (1.0 + spectral._rk4_gain_m1(h * lam))))
        t, m = float(ts[-1]), m + full
        yield ts, np.fft.ifft(c[1:], axis=-1, norm="forward")


def _collapsed(z: np.ndarray, stop: float) -> np.ndarray:
    # geometry._diameter(row) < stop for each row of the (k, n) stack z, decided
    # exactly; only rows whose diameter bracket straddles stop get the diameter
    return geometry._by_diameter(z, lambda d: d < stop)


def _capture_test(poly: Polygon, flow: FlowSpec, cfg: SimConfig):
    # For the bisector flow, the function that tells which shortest edges of a
    # block are below the capture threshold; None for the other flows.  The
    # default threshold, 1e-6 times the initial diameter, is decided against
    # the initial polygon's diameter bracket, and its exact diameter is taken
    # only for a block with an edge inside the band.
    if flow.kind is not FlowKind.BISECTOR:
        return None
    capture = cfg.min_edge_capture
    if capture is not None:
        return lambda e: e < capture
    z0 = poly.z[None]
    return lambda e: geometry._by_diameter(z0, lambda d: e < 1e-6 * d[:, None])[0]


def _first_stop(z: np.ndarray, ts: np.ndarray, steps: int, cfg: SimConfig, captured):
    # The first row of the (k, n) stack z at which the run stops, and why; or
    # (k, None).  Row i is the state at time ts[i] after steps + i steps.  At
    # one state the rules go in the order collapse, capture (if captured, from
    # _capture_test, is not None), end of time, MAX_STEPS (read at call time,
    # so a patched cap holds).
    k = ts.size
    rules = [(Termination.COLLAPSED, _collapsed(z, cfg.stop_diameter))]
    if captured is not None:
        rules.append((Termination.CAPTURE, captured(geometry._edge_lengths(z).min(axis=-1))))
    rules.append((Termination.T_END, ~_time_left(ts, cfg)))
    i = min([int(hit.argmax()) for _, hit in rules if hit.any()] + [max(MAX_STEPS - steps, 0), k])
    if i == k:
        return k, None
    return i, next((reason for reason, hit in rules if hit[i]), Termination.MAX_STEPS)


def run(poly: Polygon, flow: FlowSpec, cfg: SimConfig) -> Trajectory:
    """Integrate ``poly`` under ``flow`` and record every ``record_every``-th step.

    The initial state and the final state are always recorded.  Stopping
    conditions are evaluated on the current state before each step, in the
    order: collapse, capture, end of time, ``MAX_STEPS`` steps taken.  A flow
    degeneracy, a non-finite step result or a step too small to advance the
    time ends the run with termination DEGENERATE at the last valid state.
    The linear flow takes its RK4 steps per Fourier mode, a block of them at
    a time; the other flows step the vertices.  The collapse test and the
    default capture threshold use the diameter only where its O(n) bracket
    cannot decide them (see ``geometry._by_diameter``).
    """
    captured = _capture_test(poly, flow, cfg)
    blocks = _modal_states(poly.z, cfg) if flow.kind is FlowKind.LINEAR else _stepped_states(poly.z, flow, cfg)
    # the current block of states: row i is the state after steps + i steps
    ts, z, steps = np.zeros(1), poly.z[None], 0
    final = ts, z
    rec_t, rec_z = [], []
    # an unstable step overflows; its non-finite state ends the run DEGENERATE
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            finite = np.isfinite(z).all(axis=-1)
            valid = finite.size if finite.all() else int(finite.argmin())
            i, termination = _first_stop(z[:valid], ts[:valid], steps, cfg, captured)
            reached = i if termination is None else i + 1
            if termination is None and valid < finite.size:
                termination = Termination.DEGENERATE
            # copies, so that a block is freed once its recorded rows are kept
            first = -steps % cfg.record_every
            rec_t.append(ts[first:reached:cfg.record_every].copy())
            rec_z.append(z[first:reached:cfg.record_every].copy())
            if reached:
                final = ts[reached - 1 : reached], z[reached - 1 : reached]
            if termination is not None:
                break
            steps += ts.size
            try:
                ts, z = next(blocks)
            except FlowDegeneracyError:
                termination = Termination.DEGENERATE
                break
    if np.concatenate(rec_t)[-1] != final[0][0]:
        rec_t.append(final[0])
        rec_z.append(final[1])
    return Trajectory(np.concatenate(rec_t), np.concatenate(rec_z), termination)


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
        hits = np.flatnonzero(traj._convexity[0] == ConvexityTag.STRICTLY_CONVEX)
    else:
        hits = np.flatnonzero(~traj._simple)
    return float(traj.times[hits[0]]) if hits.size else None
