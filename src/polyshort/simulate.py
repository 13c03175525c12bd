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

# A linear run takes its steps as modes in blocks of _SCREENED * geometry._BLOCK // n
# (_SCREENED is the linear block factor; see _modal_states), and so forms at
# most _SCREENED * _BLOCK vertex positions at once; the other flows
# take _STEP_BLOCK steps ahead of the stop tests and so test their stops once
# per 32 steps, capped or not.  A stop wastes at most the rest of its block: up
# to 32 vertex steps (31 after the first, which the initial state leads), or on
# the linear path its modes and the open rows formed past the stop.  The screen
# takes its bounds on every _STEP_BLOCK-th row of a block and on its last row,
# so it too settles a block's stops 32 rows at a time: the rows it leaves open
# start after a grid row and end on one or at the end of the block.
_STEP_BLOCK = 32
_SCREENED = 4


class Termination(enum.Enum):
    T_END = "t_end"
    COLLAPSED = "collapsed"
    CAPTURE = "capture"
    DEGENERATE = "degenerate"
    MAX_STEPS = "max_steps"


@dataclass(frozen=True)
class SimConfig:
    """Integration settings.

    ``min_edge_capture`` is read by the bisector flow alone, and its ``None``
    means "use the default", 1e-6 times the initial diameter.  ``adaptive``
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
        # a bool would pass for the number 1 or 0, and any value for a truth value
        numbers = (self.t_end, self.dt, self.stop_diameter, self.record_every, self.min_edge_capture)
        if geometry._has_bool(numbers) or not isinstance(self.adaptive, (bool, np.bool_)):
            raise TypeError("numeric settings must not be bools, and adaptive must be a bool")
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

    perimeter = property(lambda self: self._edges[0])
    signed_area = _derived(lambda self: geometry._signed_area(self.z))
    min_f = _derived(lambda self: geometry._star_values(self.z).min(axis=-1))
    min_h = _derived(lambda self: geometry._convexity_values(self.z).min(axis=-1))
    min_edge = property(lambda self: self._edges[1])
    _simple = _derived(lambda self: geometry._simple(self.z, self._convexity[0], self._convexity[2]))

    @_derived
    def _edges(self):  # each sample's perimeter and shortest edge, from one pass over the edges
        e = geometry._edge_lengths(self.z)
        return e.sum(axis=-1), e.min(axis=-1)

    @_derived
    def _convexity(self):  # each sample's ConvexityTag, smallest oriented H value and fold verdict
        tags, _, h, folded = geometry._convexity_classes(self.z)
        return tags, h.min(axis=-1), folded

    @property
    def states(self) -> list:
        """The recorded states as polygons sharing the rows of ``z``."""
        return list(map(Polygon._wrap, self.z))

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

    Velocity degeneracies at any of the four stages propagate as the flow's own
    exceptions, and a result that is not finite raises ``FlowDegeneracyError``.
    """
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    fld = _field_function(flow)
    with np.errstate(over="ignore", invalid="ignore"):
        z = _rk4(poly.z, fld, dt, fld(poly.z))
    if not np.isfinite(z).all():
        raise FlowDegeneracyError("the step's result is not finite")
    return Polygon._wrap(z)


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
    # RK4 steps of the vertices: blocks of _STEP_BLOCK end times and states with
    # the slice of all their rows, the first led by the initial state.  A step
    # ends by _fixed_steps' rule, or at t + cap_dt if the curvature cap shortens
    # it.  An undefined field or a stalled step ends the last block with a NaN state.
    fld = _field_function(flow)
    adaptive = cfg.adaptive and flow.kind is FlowKind.MENGER_MELNIKOV
    t, ts, zs = 0.0, [0.0], [z]
    while True:
        for _ in range(_STEP_BLOCK):
            if not _time_left(t, cfg):
                break
            dt_eff, end = (cfg.dt, t + cfg.dt) if cfg.t_end - t > cfg.dt else (cfg.t_end - t, cfg.t_end)
            try:
                k1 = fld(z)
                if adaptive:
                    vmax = float(np.abs(k1).max())
                    if vmax > 0.0:
                        cap_dt = CURVATURE_STEP_FRACTION * float(geometry._edge_lengths(z).min()) / vmax
                        if cap_dt < dt_eff:
                            dt_eff, end = cap_dt, t + cap_dt
                # a step too small to advance t means the flow is too stiff
                if dt_eff < 1e-15 * cfg.dt or t + dt_eff == t:
                    raise FlowDegeneracyError("step too small to advance the time")
                z = _rk4(z, fld, dt_eff, k1)
            except FlowDegeneracyError:
                yield np.array(ts + [end]), np.array(zs + [np.full_like(z, np.nan)]), slice(0, None)
                return
            t = end
            ts.append(t)
            zs.append(z)
        yield np.array(ts), np.array(zs), slice(0, None)
        ts, zs = [], []


class _ModalBlock:
    """States of a block of linear-flow steps, formed from their modes on demand.

    Row i has the modes c0 * exp(e[i] * log_gain), times ``short`` in the last
    row if that is the short step.  Indexing and ``bounds`` take the rows asked
    for alone, with their bits in the whole block: each step is elementwise,
    and the inverse FFT and the sums of the bounds take each row alone.
    """

    def __init__(self, c0, log_gain, e, short=None):
        self.c0, self.log_gain, self.e, self.short = c0, log_gain, e, short

    def _scaled(self, a, rows):  # a, per mode, times the gain of each of the rows
        i = np.arange(self.e.size)[rows]
        out = a * np.exp(self.e[i, None] * self.log_gain)
        if self.short is not None and i.size and i[-1] == self.e.size - 1:
            out[-1] *= self.short
        return out

    def __getitem__(self, rows):
        c = self._scaled(self.c0, rows)
        return np.fft.ifft(c, axis=-1, norm="forward") if len(c) else c

    def bounds(self, rows):  # L = sqrt(2) |c[1:]|_2 and U = 2 sum |c[1:]| (see _modal_states)
        b = self._scaled(np.abs(self.c0), rows)[:, 1:]
        return np.sqrt(2.0 * (b * b).sum(axis=-1)), 2.0 * b.sum(axis=-1)

    def open_rows(self, stop, margin):
        # The slice of rows whose collapse L and U leave open: L clears the rows
        # before it, and U shows that its last row collapses if it ends before
        # the block.  No mode grows, so L and U do not increase from row to row:
        # they are taken on a grid of every _STEP_BLOCK-th row and the last.  The
        # slice starts after the grid rows that L clears, with the rows between
        # them (see _modal_states), and ends at the first that U proves collapsed.
        k = self.e.size
        grid = np.append(np.arange(0, k - 1, _STEP_BLOCK), k - 1)
        lower, upper = self.bounds(grid)
        if lower[-1] >= stop + margin:
            return slice(k, k)
        j, proved = int((lower < stop + margin).argmax()), upper + margin < stop
        return slice(int(grid[j - 1]) + 1 if j else 0, int(grid[proved.argmax()]) + 1 if proved.any() else k)


def _modal_states(z: np.ndarray, cfg: SimConfig):
    # RK4 steps of the linear flow taken per Fourier mode: the initial state,
    # then blocks of end times and states (see _STEP_BLOCK), each with the
    # slice of its rows that the stop test must form.  The flow is circulant,
    # so a step of size h multiplies mode k by R(h * lambda_k) and m steps
    # multiply it by exp(m * log1p(R - 1)); a running product of R ~ 1 - 1e-4
    # would instead grow its rounding with m.
    #
    # While no mode grows, _ModalBlock.open_rows screens the collapse test with
    # bounds L <= d <= U of the diameter d that _diameters takes of a formed
    # state z.  Over the n (n - 1) ordered pairs j != j', the mean of
    # |z_j - z_j'|**2 is 2n/(n - 1) times the mean of |z_j - g|**2 about the
    # centroid g, which is |c[1:]|_2**2 (Parseval), so d >= sqrt(2) |c[1:]|_2 = L;
    # and d <= 2 max |z - g| <= 2 sum |c[1:]| = U.  The margin covers the
    # roundings, each a few n eps S, S = sum |c0| with c0_0 included (a polygon
    # far from the origin rounds with its offset).  The inverse FFT moves each
    # vertex by E <= log2(n) sqrt(n) 6 eps |c|_2 <= 12 n eps S (the forward FFT
    # moves the initial modes as far).  About the exact centroid g of z,
    # L - 2E <= d <= U + 4E, so no computed centroid enters.  exp and abs put
    # |c0_k| exp(e l_k) within 4 eps of |c_k|, and the sums in L and U add n eps.
    # A row between two grid rows is cleared by the L of the later one: the
    # exact |c_k| do not increase, so its own are at least the later row's
    # computed ones less 8 eps.  _diameters rounds each distance by 3 eps of at
    # most 2 S.  All stay below 64 n eps S; squares below the normal range round
    # by up to 2**-1075 each, moving L by up to sqrt(n) 2**-537.  A growing mode,
    # or modes so large that a square of S overflows, turn the screen off.
    n = z.size
    c0 = spectral._modes(z)
    lam = spectral.eigenvalues(n)
    log_gain = np.log1p(spectral._rk4_gain_m1(cfg.dt * lam))
    size = np.abs(c0).sum()
    margin = 64.0 * n * (np.finfo(np.float64).eps * size + 2.0**-537)
    screen = (log_gain <= 0.0).all() and np.isfinite(size * size)
    first = _ModalBlock(c0, log_gain, np.zeros(1, dtype=np.int64))
    yield np.zeros(1), z[None], first.open_rows(cfg.stop_diameter, margin) if screen else slice(0, 1)
    k = max(1, _SCREENED * geometry._BLOCK // n)
    t, m = 0.0, 0
    while True:
        ts, last = _fixed_steps(t, cfg, k)
        full = ts.size - last
        # the modes after each full step, then after the short step from the last of them
        short = 1.0 + spectral._rk4_gain_m1((cfg.t_end - (ts[-2] if full else t)) * lam) if last else None
        block = _ModalBlock(c0, log_gain, np.minimum(np.arange(m + 1, m + ts.size + 1), m + full), short)
        t, m = float(ts[-1]), m + full
        screened = screen and (short is None or (short <= 1.0).all())
        yield ts, block, block.open_rows(cfg.stop_diameter, margin) if screened else slice(0, None)


def _capture_test(poly: Polygon, flow: FlowSpec, cfg: SimConfig):
    # For the bisector flow, the function that tells which shortest edges of a
    # block are below the capture threshold; None for the other flows.  The
    # default threshold, 1e-6 times the initial diameter, is decided by
    # _by_diameter against the initial polygon's diameter bracket, taken once
    # per run; the first exact diameter narrows that bracket for good.
    if flow.kind is not FlowKind.BISECTOR:
        return None
    capture = cfg.min_edge_capture
    if capture is not None:
        return lambda e: e < capture
    z0 = poly.z[None]
    bracket = geometry._diameter_bracket(z0)
    return lambda e: geometry._by_diameter(z0, lambda d: e < 1e-6 * d[:, None], bracket)[0]


def _first_stop(z, ts: np.ndarray, rows: slice, steps: int, cfg: SimConfig, captured):
    # How many rows of the block z the run reaches, and why it stops at the
    # last of them; or (k, None).  Row i is the state at time ts[i] after
    # steps + i steps.  Only the rows in the slice rows are formed and tested
    # (a screened linear block's open_rows settles the others; only a stepped
    # block may have a capture test).  The first non-finite row ends the
    # run DEGENERATE at the row before it.  At each finite state the rules go
    # in the order collapse, capture (if captured, from _capture_test, is not
    # None), end of time, MAX_STEPS (read at call time: a patched cap holds).
    zs = z[rows]
    finite = np.isfinite(zs).all(axis=-1)
    k = ts.size if finite.all() else rows.start + int(finite.argmin())
    zs, ts = zs[: k - rows.start], ts[:k]
    collapsed = np.zeros(k, dtype=bool)
    if len(zs):
        collapsed[rows.start : rows.start + len(zs)] = geometry._by_diameter(zs, lambda d: d < cfg.stop_diameter)
    rules = [(Termination.COLLAPSED, collapsed)]
    if captured is not None:
        rules.append((Termination.CAPTURE, captured(geometry._edge_lengths(zs).min(axis=-1))))
    rules.append((Termination.T_END, ~_time_left(ts, cfg)))
    i = min([int(hit.argmax()) for _, hit in rules if hit.any()] + [max(MAX_STEPS - steps, 0), k])
    if i < k:
        return i + 1, next((reason for reason, hit in rules if hit[i]), Termination.MAX_STEPS)
    return k, None if finite.all() else Termination.DEGENERATE


def run(poly: Polygon, flow: FlowSpec, cfg: SimConfig) -> Trajectory:
    """Integrate ``poly`` under ``flow`` and record every ``record_every``-th step.

    The initial state and the final state are always recorded.  Stopping
    conditions are evaluated on the current state before each step, in the
    order: collapse, capture, end of time, ``MAX_STEPS`` steps taken.  A flow
    degeneracy, a non-finite step result or a step too small to advance the
    time ends the run with termination DEGENERATE at the last valid state.
    The linear flow takes its RK4 steps per Fourier mode, a block of them at
    a time, and forms the vertices only of the states it records, its last
    state and the states whose collapse its modal bounds cannot settle; the
    other flows step the vertices, testing the initial state with their first
    block.  The collapse and default capture tests take the diameter only where
    its bracket by the x and y extents cannot decide (``geometry._by_diameter``);
    the capture threshold's bracket is taken once per run.
    """
    captured = _capture_test(poly, flow, cfg)
    blocks = _modal_states(poly.z, cfg) if flow.kind is FlowKind.LINEAR else _stepped_states(poly.z, flow, cfg)
    steps, rec_t, rec_z = 0, [], []
    # an unstable step overflows; its non-finite state ends the run DEGENERATE
    with np.errstate(over="ignore", invalid="ignore"):
        # each block of states: row i is the state after steps + i steps
        for ts, z, rows in blocks:
            reached, termination = _first_stop(z, ts, rows, steps, cfg, captured)
            # copies, so that a block is freed once its recorded rows are kept
            first = -steps % cfg.record_every
            rec_t.append(ts[first:reached:cfg.record_every].copy())
            rec_z.append(z[first:reached:cfg.record_every].copy())
            if reached:
                final = ts[reached - 1 : reached], z, reached - 1
            if termination is not None:
                break
            steps += ts.size
        t, z, i = final
        if np.concatenate(rec_t)[-1] != t[0]:
            rec_t.append(t)
            rec_z.append(z[i : i + 1])
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
