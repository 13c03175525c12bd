"""Scenario files, deterministic generators, CSV/SVG artifacts, and the CLI.

Everything here is bit-deterministic: the only randomness source is
:class:`SplitMix64` (seeded explicitly, identical on every platform), CSV
floats are written with 17 significant digits so they round-trip exactly, and
SVG output is plain string assembly with fixed formatting.
"""

from __future__ import annotations

import argparse
import enum
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import analysis, geometry, spectral
from .analysis import (
    PreconditionNotConvexError,
    PreconditionNotStarError,
    check_area_monotone,
    check_centroid_drift,
    check_convexity_preservation,
    check_ellipse_convergence,
    check_line_deviation,
    check_perimeter_monotone,
    check_star_preservation,
    perimeter_rate,
    report_json,
    report_lines,
)
from .flows import BisectorSpeedMode, FlowKind, FlowSpec, bisector_velocity
from .geometry import ConvexityTag, Polygon, StarTag
from .simulate import SimConfig, Termination, Trajectory, run
from .spectral import closed_form_state, decompose, leading_decay_rate

__all__ = [
    "SplitMix64",
    "GeneratorKind",
    "GeneratorSpec",
    "GenerationFailedError",
    "Scenario",
    "ScenarioError",
    "generate",
    "load_scenario",
    "scenario_from_dict",
    "scenario_polygon",
    "write_trajectory_csv",
    "read_trajectory_csv",
    "render_svg",
    "cli_main",
    "main",
]

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """Deterministic 64-bit generator (SplitMix64).

    The state advances by the golden gamma ``0x9E3779B97F4A7C15`` and each
    output is the new state put through two xor-shift-multiply mixing rounds
    (constants ``0xBF58476D1CE4E5B9`` and ``0x94D049BB133111EB``).  Integer
    arithmetic only, so streams are identical on every platform.
    ``uniform`` uses the top 53 bits, giving doubles equidistributed on
    ``[0, 1)``.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        x = self._state
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
        return x ^ (x >> 31)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        return lo + (hi - lo) * ((self.next_u64() >> 11) * 2.0**-53)


class GenerationFailedError(Exception):
    """No candidate satisfied the generator's postcondition within the attempt cap."""


class GeneratorKind(enum.Enum):
    REGULAR = "regular"
    RANDOM_STAR = "random_star"
    RANDOM_CONVEX = "random_convex"
    COLLINEAR = "collinear"
    BOOMERANG = "boomerang"
    EMBEDDED_LOSS = "embedded_loss"


_FIXTURE_KINDS = (GeneratorKind.BOOMERANG, GeneratorKind.EMBEDDED_LOSS)


@dataclass(frozen=True)
class GeneratorSpec:
    """What to generate.  ``n`` applies to the parametric kinds (3..1000);
    the two fixture kinds carry their own vertex lists."""

    kind: GeneratorKind
    n: int | None = None
    radius_range: tuple = (0.5, 1.5)

    def __post_init__(self):
        lo, hi = self.radius_range
        if not (0.0 < lo <= hi):
            raise ValueError("radius_range must be 0 < lo <= hi")
        if self.kind in _FIXTURE_KINDS:
            if self.n is not None:
                raise ValueError(f"{self.kind.value} is a fixed fixture; n does not apply")
        else:
            if self.n is None or not (3 <= self.n <= 1000):
                raise ValueError("n must be within [3, 1000]")


_MAX_ATTEMPTS = 1000

# Counterexample fixtures, found by scripts/find_fixtures.py (seed 20260816)
# and frozen here as explicit vertex lists.
# BOOMERANG: simple, nonconvex V with a dense outer boundary and a deep coarse
# notch; its unsigned area initially grows under the linear flow (exact
# initial rate 6.44, peak near t = 0.98), and it stays simple over t in [0,2].
# EMBEDDED_LOSS: annular strip, outer arc sampled coarsely (fast vertices) and
# inner arc densely (slow); the outer edge sweeps through the inner edge and
# simplicity is lost near t = 0.77.
_BOOMERANG_VERTICES = [
    (-2.3979518217227085, 1.9914834562942514),
    (-1.7984638662920314, 1.1951509216585492),
    (-1.1989759108613542, 0.398818387022847),
    (-0.5994879554306771, -0.397514147612855),
    (0.0, -1.1938466822485574),
    (0.5994879554306771, -0.3975141476128552),
    (1.1989759108613542, 0.398818387022847),
    (1.7984638662920314, 1.195150921658549),
    (2.3979518217227085, 1.9914834562942514),
    (0.0, -0.9548417057312815),
]
_EMBEDDED_LOSS_VERTICES = [
    (2.0, 0.0),
    (1.8507342112183203, 0.7581443658209841),
    (1.4252171205738977, 1.4031237148673126),
    (0.7869638722418579, 1.838664695855691),
    (0.031243840776952282, 1.9997559407121421),
    (-0.7291398272260944, 1.8623520377073453),
    (-0.434655593991989, 1.8209229710421517),
    (-0.17843991944904714, 1.8635571220127716),
    (0.08121066947889923, 1.870318363012109),
    (0.33929797762488684, 1.8410765421994728),
    (0.5908539025033583, 1.776394555765711),
    (0.8310360687777516, 1.6775175123520845),
    (1.05522104251857, 1.5463487650861716),
    (1.2590933309056997, 1.3854132726108466),
    (1.4387284541576724, 1.1978089943954253),
    (1.590668490578404, 0.9871472559545141),
    (1.7119886405021538, 0.7574832319260228),
    (1.8003535278009186, 0.5132378851880407),
    (1.8540621551673195, 0.25911286466291145),
]


def _regular(n: int) -> Polygon:
    k = np.arange(n)
    return Polygon(np.exp(2j * np.pi * k / n))


def _random_star(n: int, radius_range, rng: SplitMix64) -> Polygon:
    lo, hi = radius_range
    for _ in range(_MAX_ATTEMPTS):
        # positive simplex of turning angles, bounded away from 0 and pi
        raw = np.array([0.15 + rng.uniform() for _ in range(n)])
        alpha = 2.0 * np.pi * raw / raw.sum()
        if alpha.max() >= np.pi - 0.05:
            continue
        theta0 = rng.uniform(0.0, 2.0 * np.pi)
        theta = theta0 + np.concatenate(([0.0], np.cumsum(alpha[:-1])))
        r = np.array([rng.uniform(lo, hi) for _ in range(n)])
        poly = Polygon(r * np.exp(1j * theta))
        if geometry.classify_star(poly).tag is StarTag.CCW_STAR:
            return poly
    raise GenerationFailedError("no star candidate classified CCW_STAR")


def _random_convex(n: int, rng: SplitMix64) -> Polygon:
    for _ in range(_MAX_ATTEMPTS):
        # sorted angles with spacing at least 0.4*pi/n via a positive simplex
        raw = np.array([0.25 + rng.uniform() for _ in range(n)])
        alpha = 2.0 * np.pi * raw / raw.sum()
        theta0 = rng.uniform(0.0, 2.0 * np.pi)
        ang = theta0 + np.concatenate(([0.0], np.cumsum(alpha[:-1])))
        u = np.array([rng.uniform(-1.0, 1.0) for _ in range(n)])
        # jitter the radii, re-verifying convexity at each rung; distinct
        # points on a circle in angular order are strictly convex, so the
        # zero-jitter rung cannot miss
        for shrink in (1.0, 0.25, 0.0625, 0.0):
            poly = Polygon((1.0 + 0.1 * shrink * u) * np.exp(1j * ang))
            if geometry.classify_convexity(poly).tag is ConvexityTag.STRICTLY_CONVEX:
                return poly
    raise GenerationFailedError("no candidate classified STRICTLY_CONVEX")


def _collinear(n: int, rng: SplitMix64) -> Polygon:
    for _ in range(_MAX_ATTEMPTS):
        theta = rng.uniform(0.0, np.pi)
        base = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        xs = np.array([rng.uniform(-1.0, 1.0) for _ in range(n)])
        if np.diff(np.sort(xs)).min() < 2e-3:
            continue
        direction = complex(math.cos(theta), math.sin(theta))
        poly = Polygon(base + xs * direction)
        # postcondition: perpendicular spread is rounding noise only
        offs = (poly.z - base) * np.conj(direction)
        if np.abs(offs.imag).max() <= geometry.PREDICATE_TOL * poly.diameter():
            return poly
    raise GenerationFailedError("no collinear candidate satisfied the line test")


def generate(spec: GeneratorSpec, seed: int) -> Polygon:
    """Deterministic polygon construction; identical output for identical inputs.

    Postconditions are asserted per kind: RANDOM_STAR classifies CCW_STAR,
    RANDOM_CONVEX classifies STRICTLY_CONVEX, COLLINEAR lies on one line.
    Raises :class:`GenerationFailedError` after 1000 rejected candidates.
    """
    rng = SplitMix64(seed)
    if spec.kind is GeneratorKind.REGULAR:
        return _regular(spec.n)
    if spec.kind is GeneratorKind.RANDOM_STAR:
        return _random_star(spec.n, spec.radius_range, rng)
    if spec.kind is GeneratorKind.RANDOM_CONVEX:
        return _random_convex(spec.n, rng)
    if spec.kind is GeneratorKind.COLLINEAR:
        return _collinear(spec.n, rng)
    if spec.kind is GeneratorKind.BOOMERANG:
        return Polygon(_BOOMERANG_VERTICES)
    return Polygon(_EMBEDDED_LOSS_VERTICES)


class ScenarioError(ValueError):
    """A scenario document is malformed."""


@dataclass(frozen=True)
class Scenario:
    """One named run: a polygon source, a flow, integration settings, outputs.

    ``outputs`` is a subset of ``{"csv", "svg", "report_json"}`` naming which
    artifacts a plain ``simulate`` should write.
    """

    name: str
    polygon: object  # Polygon or GeneratorSpec
    flow: FlowSpec
    sim: SimConfig
    seed: int = 0
    outputs: frozenset = frozenset()


_OUTPUT_KINDS = frozenset({"csv", "svg", "report_json"})


def _parse_flow(doc) -> FlowSpec:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ScenarioError("flow must be an object with a 'kind'")
    try:
        kind = FlowKind(doc["kind"])
    except ValueError:
        raise ScenarioError(f"unknown flow kind {doc['kind']!r}") from None
    if kind is not FlowKind.BISECTOR:
        return FlowSpec(kind=kind)
    mode = BisectorSpeedMode(doc.get("speed_mode", "unit"))
    if mode is BisectorSpeedMode.NORM_MATCHED:
        return FlowSpec.bisector(speed_mode=mode)
    return FlowSpec.bisector(speed_mode=mode, speed=float(doc.get("speed", 1.0)))


def _parse_polygon(doc):
    if not isinstance(doc, dict):
        raise ScenarioError("polygon must be an object")
    if "vertices" in doc:
        return Polygon(doc["vertices"])
    if "generator" in doc:
        g = doc["generator"]
        try:
            kind = GeneratorKind(g["kind"])
        except (KeyError, ValueError):
            raise ScenarioError("generator needs a known 'kind'") from None
        kwargs = {}
        if "n" in g and g["n"] is not None:
            kwargs["n"] = int(g["n"])
        if "radius_range" in g:
            kwargs["radius_range"] = tuple(float(x) for x in g["radius_range"])
        return GeneratorSpec(kind=kind, **kwargs)
    raise ScenarioError("polygon needs 'vertices' or 'generator'")


def _parse_sim(doc) -> SimConfig:
    if not isinstance(doc, dict) or "t_end" not in doc:
        raise ScenarioError("sim must be an object with 't_end'")
    kwargs = {"t_end": float(doc["t_end"])}
    for key in ("dt", "stop_diameter"):
        if key in doc:
            kwargs[key] = float(doc[key])
    # JSON types only: bool("false") is True and int(2.5) is 2
    for key, kind, what in (("record_every", int, "an integer"), ("adaptive", bool, "true or false")):
        if key in doc:
            if type(doc[key]) is not kind:
                raise ScenarioError(f"sim.{key} must be {what}, not {doc[key]!r}")
            kwargs[key] = doc[key]
    if "min_edge_capture" in doc and doc["min_edge_capture"] is not None:
        kwargs["min_edge_capture"] = float(doc["min_edge_capture"])
    return SimConfig(**kwargs)


def scenario_from_dict(doc) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario must be a JSON object")
    try:
        name = str(doc["name"])
        polygon = _parse_polygon(doc["polygon"])
        flow = _parse_flow(doc["flow"])
        sim = _parse_sim(doc["sim"])
    except KeyError as exc:
        raise ScenarioError(f"scenario is missing {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise ScenarioError(str(exc)) from None
    outputs = frozenset(doc.get("outputs", ()))
    if not outputs <= _OUTPUT_KINDS:
        raise ScenarioError(f"outputs must be a subset of {sorted(_OUTPUT_KINDS)}")
    return Scenario(
        name=name,
        polygon=polygon,
        flow=flow,
        sim=sim,
        seed=int(doc.get("seed", 0)),
        outputs=outputs,
    )


def load_scenario(path) -> Scenario:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON ({exc})") from None
    return scenario_from_dict(doc)


def scenario_polygon(scenario: Scenario) -> Polygon:
    """The scenario's initial polygon (generating it if specified by recipe)."""
    if isinstance(scenario.polygon, Polygon):
        return scenario.polygon
    return generate(scenario.polygon, scenario.seed)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write a trajectory to CSV with full round-trip precision.

    Columns: ``t, x1, y1, ..., xn, yn, perimeter, area, minF, minH, min_edge``.
    The last line records the stopping reason as ``# termination=<reason>``.
    Values use 17 significant digits so reading the file back reproduces every
    float bit-exactly.
    """
    if len(traj) == 0:
        raise ValueError("refusing to write an empty trajectory")
    n = traj.n
    cols = ["t"]
    for i in range(1, n + 1):
        cols += [f"x{i}", f"y{i}"]
    cols += ["perimeter", "area", "minF", "minH", "min_edge"]
    lines = [",".join(cols)]
    for k in range(len(traj)):
        z = traj.states[k].z
        row = [_fmt(traj.times[k])]
        for i in range(n):
            row += [_fmt(z[i].real), _fmt(z[i].imag)]
        row += [
            _fmt(traj.perimeter[k]),
            _fmt(traj.signed_area[k]),
            _fmt(traj.min_f[k]),
            _fmt(traj.min_h[k]),
            _fmt(traj.min_edge[k]),
        ]
        lines.append(",".join(row))
    lines.append(f"# termination={traj.termination.name}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_trajectory_csv(path) -> Trajectory:
    """Parse a file written by :func:`write_trajectory_csv`, bit-exactly."""
    text = Path(path).read_text(encoding="utf-8")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 3:
        raise ValueError(f"{path}: not a trajectory CSV (too short)")
    header = lines[0].split(",")
    if header[0] != "t" or len(header) < 12 or (len(header) - 6) % 2 != 0:
        raise ValueError(f"{path}: unexpected CSV header")
    n = (len(header) - 6) // 2
    prefix, _, reason = lines[-1].partition("=")
    if prefix != "# termination" or reason.strip() not in Termination.__members__:
        raise ValueError(f"{path}: missing or unknown termination line {lines[-1]!r}")
    termination = Termination[reason.strip()]
    times, states = [], []
    per, area, min_f, min_h, min_e = [], [], [], [], []
    for ln in lines[1:-1]:
        vals = [float(v) for v in ln.split(",")]
        if len(vals) != 2 * n + 6:
            raise ValueError(f"{path}: row has {len(vals)} fields, expected {2 * n + 6}")
        times.append(vals[0])
        xy = np.array(vals[1 : 2 * n + 1]).reshape(n, 2)
        states.append(Polygon._wrap(xy[:, 0] + 1j * xy[:, 1]))
        per.append(vals[2 * n + 1])
        area.append(vals[2 * n + 2])
        min_f.append(vals[2 * n + 3])
        min_h.append(vals[2 * n + 4])
        min_e.append(vals[2 * n + 5])
    return Trajectory(
        times=np.array(times),
        states=states,
        perimeter=np.array(per),
        signed_area=np.array(area),
        min_f=np.array(min_f),
        min_h=np.array(min_h),
        min_edge=np.array(min_e),
        termination=termination,
    )


def _svg_num(x: float) -> str:
    s = format(x, ".6g")
    return "0" if s == "-0" else s


def _shade(i: int, count: int) -> str:
    # early snapshots light gray, final one black
    if count <= 1:
        return "#000000"
    level = int(round(200 * (1.0 - i / (count - 1))))
    return f"#{level:02x}{level:02x}{level:02x}"


def render_svg(
    traj: Trajectory,
    *,
    show_trajectories: bool = True,
    snapshot_times=None,
    mark_centroid: bool = False,
) -> str:
    """Deterministic SVG picture of a trajectory.

    Snapshot states are drawn as solid closed outlines (defaulting to five
    states evenly spread over the recording); each vertex's path through time
    is a dashed polyline; ``mark_centroid`` adds an asterisk at the initial
    centroid.  Identical trajectories and options yield byte-identical text.
    """
    if len(traj) == 0:
        raise ValueError("refusing to render an empty trajectory")
    count = len(traj)
    if snapshot_times is None:
        picks = sorted({int(round(f * (count - 1) / 4.0)) for f in range(5)})
    else:
        picks = sorted(
            {int(np.argmin(np.abs(traj.times - float(t)))) for t in snapshot_times}
        )
    # canvas bounds over everything drawn (y flipped so the picture is upright)
    pts = [traj.states[i].z for i in picks]
    if show_trajectories:
        pts = [s.z for s in traj.states]
    allz = np.concatenate(pts)
    g0 = complex(traj.states[0].z.mean())
    xs = allz.real
    ys = -allz.imag
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    if mark_centroid:
        x0, x1 = min(x0, g0.real), max(x1, g0.real)
        y0, y1 = min(y0, -g0.imag), max(y1, -g0.imag)
    span = max(x1 - x0, y1 - y0, 1e-30)
    margin = 0.05 * span
    x0 -= margin
    y0 -= margin
    w = (x1 - x0) + margin
    h = (y1 - y0) + margin
    stroke = 0.006 * span
    dash = _svg_num(2.0 * stroke)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{_svg_num(x0)} {_svg_num(y0)}'
        f' {_svg_num(w)} {_svg_num(h)}" width="640" height="{int(round(640 * h / w))}">'
    ]
    if show_trajectories:
        out.append('<g id="vertex-paths">')
        n = traj.n
        for i in range(n):
            coords = " ".join(
                f"{_svg_num(s.z[i].real)},{_svg_num(-s.z[i].imag)}" for s in traj.states
            )
            out.append(
                f'<polyline fill="none" stroke="#8a8a8a" stroke-width="{_svg_num(0.5 * stroke)}"'
                f' stroke-dasharray="{dash},{dash}" points="{coords}"/>'
            )
        out.append("</g>")
    out.append('<g id="snapshots">')
    for j, i in enumerate(picks):
        z = traj.states[i].z
        d = "M " + " L ".join(f"{_svg_num(v.real)},{_svg_num(-v.imag)}" for v in z) + " Z"
        out.append(
            f'<path fill="none" stroke="{_shade(j, len(picks))}"'
            f' stroke-width="{_svg_num(stroke)}" d="{d}"/>'
        )
    out.append("</g>")
    if mark_centroid:
        cx, cy = g0.real, -g0.imag
        r = 0.02 * span
        out.append('<g id="centroid">')
        for ang in (0.0, np.pi / 3.0, 2.0 * np.pi / 3.0):
            dx = r * math.cos(ang)
            dy = r * math.sin(ang)
            out.append(
                f'<line x1="{_svg_num(cx - dx)}" y1="{_svg_num(cy - dy)}"'
                f' x2="{_svg_num(cx + dx)}" y2="{_svg_num(cy + dy)}"'
                f' stroke="#000000" stroke-width="{_svg_num(0.5 * stroke)}"/>'
            )
        out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# command line


def _cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    if args.dt is not None or args.t_end is not None:
        sim = scenario.sim
        sim = replace(
            sim,
            dt=args.dt if args.dt is not None else sim.dt,
            t_end=args.t_end if args.t_end is not None else sim.t_end,
        )
        scenario = replace(scenario, sim=sim)
    if args.flow is not None:
        scenario = replace(scenario, flow=_parse_flow({"kind": args.flow}))
    poly = scenario_polygon(scenario)
    traj = run(poly, scenario.flow, scenario.sim)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = args.out_csv or (
        out_dir / f"{scenario.name}.csv" if "csv" in scenario.outputs else None
    )
    svg_path = args.out_svg or (
        out_dir / f"{scenario.name}.svg" if "svg" in scenario.outputs else None
    )
    json_path = args.out_json or (
        out_dir / f"{scenario.name}.json" if "report_json" in scenario.outputs else None
    )
    if csv_path:
        write_trajectory_csv(traj, csv_path)
    if svg_path:
        Path(svg_path).write_text(render_svg(traj), encoding="utf-8")
    if json_path:
        summary = {
            "name": scenario.name,
            "termination": traj.termination.name,
            "samples": len(traj),
            "t_final": float(traj.times[-1]),
            "perimeter_initial": float(traj.perimeter[0]),
            "perimeter_final": float(traj.perimeter[-1]),
            "area_initial": float(traj.signed_area[0]),
            "area_final": float(traj.signed_area[-1]),
        }
        Path(json_path).write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    print(
        f"{scenario.name}: termination={traj.termination.name} samples={len(traj)}"
        f" t_final={traj.times[-1]:.6g}"
    )
    return 1 if traj.termination is Termination.DEGENERATE else 0


def _cmd_spectrum(args) -> int:
    lams = spectral.eigenvalues(args.n)
    mags = None
    if args.scenario:
        scenario = load_scenario(args.scenario)
        poly = scenario_polygon(scenario)
        if poly.n != args.n:
            print(f"scenario polygon has n={poly.n}, not n={args.n}", file=sys.stderr)
            return 2
        mags = np.abs(decompose(poly).modal_coeffs)
    # mode numbering is 1-based, matching the lambda_1 = 0 convention
    print("# mode eigenvalue" + (" coeff_magnitude" if mags is not None else ""))
    for i, lam in enumerate(lams, start=1):
        row = f"{i} {lam:.12g}"
        if mags is not None:
            row += f" {mags[i - 1]:.12g}"
        print(row)
    return 0


_ANALYZE_CHECKS = {
    "star": check_star_preservation,
    "convex": check_convexity_preservation,
    "perimeter": check_perimeter_monotone,
    "area": check_area_monotone,
    "ellipse": check_ellipse_convergence,
}


def _cmd_analyze(args) -> int:
    traj = read_trajectory_csv(args.csv)
    wanted = [c.strip() for c in args.checks.split(",") if c.strip()]
    unknown = [c for c in wanted if c not in _ANALYZE_CHECKS]
    if unknown:
        print(f"unknown checks: {', '.join(unknown)}", file=sys.stderr)
        return 2
    reports = []
    not_applicable = []
    for name in wanted:
        try:
            reports.append(_ANALYZE_CHECKS[name](traj))
        except (
            PreconditionNotStarError,
            PreconditionNotConvexError,
            analysis.NotSimpleError,
            spectral.DegenerateLeadingModeError,
        ) as exc:
            not_applicable.append((name, str(exc)))
    for line in report_lines(reports):
        print(line)
    for name, msg in not_applicable:
        print(f"NOT_APPLICABLE  {name}: {msg}")
    if args.out_json:
        Path(args.out_json).write_text(report_json(reports), encoding="utf-8")
    return 0 if not not_applicable and all(r.passed for r in reports) else 1


def _validate_suite(ensemble_size: int, seed: int) -> list:
    """The randomized theorem suite behind ``polyshort validate``."""
    reports = []
    root = SplitMix64(seed)

    def sub_seed():
        return root.next_u64()

    # star polygons stay stars; perimeter decays to collapse; centroid fixed
    for i in range(ensemble_size):
        n = 4 + (i % 7)
        poly = generate(GeneratorSpec(GeneratorKind.RANDOM_STAR, n=n), sub_seed())
        diam0 = poly.diameter()
        cfg = SimConfig(t_end=400.0, dt=0.05, stop_diameter=1e-4 * diam0, record_every=10)
        traj = run(poly, FlowSpec.linear(), cfg)
        reports.append(replace(check_star_preservation(traj), check_name=f"star_preservation[{i:02d}]"))
        reports.append(replace(check_perimeter_monotone(traj), check_name=f"star_perimeter[{i:02d}]"))
        reports.append(replace(check_centroid_drift(traj, diam0), check_name=f"star_centroid_drift[{i:02d}]"))

    # strictly convex polygons stay strictly convex; area shrinks
    for i in range(ensemble_size):
        n = 5 + (i % 6)
        poly = generate(GeneratorSpec(GeneratorKind.RANDOM_CONVEX, n=n), sub_seed())
        diam0 = poly.diameter()
        cfg = SimConfig(t_end=400.0, dt=0.05, stop_diameter=1e-4 * diam0, record_every=10)
        traj = run(poly, FlowSpec.linear(), cfg)
        reports.append(replace(check_convexity_preservation(traj), check_name=f"convexity_preservation[{i:02d}]"))
        reports.append(replace(check_area_monotone(traj), check_name=f"convex_area[{i:02d}]"))
        reports.append(replace(check_perimeter_monotone(traj), check_name=f"convex_perimeter[{i:02d}]"))
        reports.append(replace(check_centroid_drift(traj, diam0), check_name=f"convex_centroid_drift[{i:02d}]"))

    # collinear states stay collinear
    for i in range(10):
        poly = generate(GeneratorSpec(GeneratorKind.COLLINEAR, n=6 + (i % 4)), sub_seed())
        traj = run(poly, FlowSpec.linear(), SimConfig(t_end=2.0, dt=0.01, record_every=20))
        reports.append(replace(check_line_deviation(traj), check_name=f"collinear_invariance[{i:02d}]"))

    # bisector direction is perimeter-optimal among magnitude-matched fields
    for i in range(ensemble_size):
        poly = generate(GeneratorSpec(GeneratorKind.RANDOM_STAR, n=5 + (i % 6)), sub_seed())
        u = bisector_velocity(poly, FlowSpec.bisector())
        rate_u = perimeter_rate(poly, u)
        margin = math.inf
        for _ in range(10):
            phases = np.array([root.uniform(0.0, 2.0 * np.pi) for _ in range(poly.n)])
            v = np.abs(u.velocities) * np.exp(1j * phases)
            margin = min(margin, perimeter_rate(poly, v) - rate_u)
        first = None if margin >= -1e-12 else 0.0
        reports.append(analysis._report(f"bisector_optimality[{i:02d}]", first, margin, 10))

    # integrator agrees with the exact modal solution
    for i in range(3):
        poly = generate(GeneratorSpec(GeneratorKind.RANDOM_STAR, n=8), sub_seed())
        traj = run(poly, FlowSpec.linear(), SimConfig(t_end=2.0, dt=1e-3, record_every=200))
        dec = decompose(poly)
        err = 0.0
        for t, s in zip(traj.times, traj.states):
            exact = closed_form_state(dec, float(t)).z
            err = max(err, float(np.abs(s.z - exact).max()))
        reports.append(analysis._bound_report(f"rk4_vs_closed_form[{i}]", traj, err, 1e-6))
    return reports


def _cmd_validate(args) -> int:
    reports = _validate_suite(args.ensemble_size, args.seed)
    for line in report_lines(reports):
        print(line)
    ok = all(r.passed for r in reports)
    print(f"validate: {'all checks passed' if ok else 'CHECK FAILURES'} ({len(reports)} checks)")
    if args.out_json:
        Path(args.out_json).write_text(
            report_json(reports, seed=args.seed, ensemble_size=args.ensemble_size),
            encoding="utf-8",
        )
    return 0 if ok else 1


# figure scenarios; all parameters frozen so outputs are byte-stable
_FIG7_SEED = 2026


def _reproduce_fig7(out_dir: Path) -> None:
    poly = generate(GeneratorSpec(GeneratorKind.RANDOM_STAR, n=10), _FIG7_SEED)
    rate = leading_decay_rate(10)
    cfg = SimConfig(t_end=3.0 / rate, dt=0.01, record_every=10)
    traj = run(poly, FlowSpec.linear(), cfg)
    snaps = [tau / rate for tau in (0.0, 0.5, 1.0, 2.0, 3.0)]
    svg = render_svg(traj, show_trajectories=True, snapshot_times=snaps, mark_centroid=True)
    (out_dir / "fig7.svg").write_text(svg, encoding="utf-8")


def _reproduce_fig8(out_dir: Path) -> None:
    poly = generate(GeneratorSpec(GeneratorKind.BOOMERANG), 0)
    traj = run(poly, FlowSpec.linear(), SimConfig(t_end=2.0, dt=1e-3, record_every=10))
    svg = render_svg(
        traj, show_trajectories=True, snapshot_times=[0.0, 0.25, 0.5, 1.0, 2.0]
    )
    (out_dir / "fig8.svg").write_text(svg, encoding="utf-8")
    write_trajectory_csv(traj, out_dir / "fig8.csv")
    lines = ["t,area"]
    for t, a in zip(traj.times, traj.signed_area):
        lines.append(f"{_fmt(t)},{_fmt(a)}")
    (out_dir / "fig8_area.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


_FIG9_VERTICES = [
    (0.0, 0.0),
    (2.5, -0.18),
    (5.0, -0.25),
    (7.5, -0.18),
    (10.0, 0.0),
    (10.35, 0.3),
    (10.0, 0.6),
    (7.5, 0.78),
    (5.0, 0.85),
    (2.5, 0.78),
    (0.0, 0.6),
    (-0.35, 0.3),
]


def _reproduce_fig9(out_dir: Path) -> None:
    # adjacent cap vertices genuinely collide near t = 0.88; the capture
    # threshold stops the run just short of the collision
    poly = Polygon(_FIG9_VERTICES)
    diam0 = poly.diameter()
    snaps_b = [0.0, 0.2, 0.4, 0.6, 0.85]
    cfg_b = SimConfig(
        t_end=40.0, dt=1e-3, record_every=20, min_edge_capture=1e-3 * diam0
    )
    traj_b = run(poly, FlowSpec.bisector(speed_mode=BisectorSpeedMode.NORM_MATCHED), cfg_b)
    svg_b = render_svg(traj_b, show_trajectories=True, snapshot_times=snaps_b)
    (out_dir / "fig9_bisector.svg").write_text(svg_b, encoding="utf-8")
    cfg_l = SimConfig(t_end=float(traj_b.times[-1]), dt=1e-3, record_every=20)
    traj_l = run(poly, FlowSpec.linear(), cfg_l)
    svg_l = render_svg(traj_l, show_trajectories=True, snapshot_times=snaps_b)
    (out_dir / "fig9_linear.svg").write_text(svg_l, encoding="utf-8")


def _reproduce_fig10(out_dir: Path) -> None:
    poly = generate(GeneratorSpec(GeneratorKind.EMBEDDED_LOSS), 0)
    traj = run(poly, FlowSpec.linear(), SimConfig(t_end=1.5, dt=1e-3, record_every=10))
    svg = render_svg(
        traj, show_trajectories=True, snapshot_times=[0.0, 0.3, 0.6, 1.0, 1.5]
    )
    (out_dir / "fig10.svg").write_text(svg, encoding="utf-8")


_FIGURES = {
    "fig7": _reproduce_fig7,
    "fig8": _reproduce_fig8,
    "fig9": _reproduce_fig9,
    "fig10": _reproduce_fig10,
}


def _cmd_reproduce(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _FIGURES[args.figure](out_dir)
    print(f"{args.figure}: artifacts written to {out_dir}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyshort",
        description="Polygon shortening flows: simulate, analyze, and reproduce figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a scenario file and write its artifacts")
    p.add_argument("--scenario", required=True, help="scenario JSON path")
    p.add_argument("--flow", choices=[k.value for k in FlowKind], help="override the flow")
    p.add_argument("--dt", type=float, help="override the step size")
    p.add_argument("--t-end", dest="t_end", type=float, help="override the end time")
    p.add_argument("--seed", type=int, help="override the scenario seed")
    p.add_argument("--out-csv", help="trajectory CSV path")
    p.add_argument("--out-svg", help="SVG picture path")
    p.add_argument("--out-json", help="run summary JSON path")
    p.add_argument("--out-dir", default=".", help="directory for scenario-declared outputs")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("spectrum", help="print the decay-rate table for n vertices")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--scenario", help="also print modal magnitudes of this scenario's polygon")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("analyze", help="run invariant checks over a trajectory CSV")
    p.add_argument("--csv", required=True, help="trajectory CSV path")
    p.add_argument(
        "--checks",
        default="perimeter",
        help=f"comma-separated subset of: {','.join(_ANALYZE_CHECKS)}",
    )
    p.add_argument("--out-json", help="write the reports as JSON here")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("reproduce", help="regenerate a bundled figure deterministically")
    p.add_argument("figure", choices=sorted(_FIGURES))
    p.add_argument("--out-dir", default=".", help="output directory")
    p.set_defaults(func=_cmd_reproduce)

    p = sub.add_parser("validate", help="run the randomized theorem suite")
    p.add_argument("--ensemble-size", type=int, default=20)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out-json", help="write the report JSON here")
    p.set_defaults(func=_cmd_validate)
    return parser


def cli_main(argv=None) -> int:
    """Entry point returning an exit code: 0 clean, 1 check failure, 2 usage error."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ScenarioError, GenerationFailedError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())
