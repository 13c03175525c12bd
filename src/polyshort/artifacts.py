"""Scenario documents, the trajectory CSV and the SVG picture.

Everything here is bit-deterministic: CSV floats are written with 17
significant digits so they round-trip exactly, and SVG output is plain string
assembly with fixed formatting.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .flows import BisectorSpeedMode, FlowKind, FlowSpec
from .generators import GeneratorKind, GeneratorSpec, _check_n, generate
from .geometry import Polygon
from .simulate import SimConfig, Termination, Trajectory

__all__ = [
    "Scenario",
    "ScenarioError",
    "scenario_from_dict",
    "load_scenario",
    "scenario_polygon",
    "write_trajectory_csv",
    "read_trajectory_csv",
    "render_svg",
]


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


# JSON types only: float(True) is 1.0, float("1e-1") is 0.1, int(2.5) is 2,
# bool("false") is True and str({}) is "{}", so each value must have its JSON type
_JSON_TYPES = {
    float: ((int, float), "a number"),
    int: ((int,), "an integer"),
    bool: ((bool,), "true or false"),
    str: ((str,), "a string"),
}


def _json_value(value, kind, name: str):
    types, what = _JSON_TYPES[kind]
    if type(value) not in types:
        raise ScenarioError(f"{name} must be {what}, not {value!r}")
    return kind(value)


def _parse_flow(doc) -> FlowSpec:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ScenarioError("flow must be an object with a 'kind'")
    try:
        kind = FlowKind(doc["kind"])
    except ValueError:
        raise ScenarioError(f"unknown flow kind {doc['kind']!r}") from None
    if kind is not FlowKind.BISECTOR:
        return FlowSpec(kind=kind)
    speed = _json_value(doc["speed"], float, "flow.speed") if "speed" in doc else None
    return FlowSpec.bisector(speed_mode=BisectorSpeedMode(doc.get("speed_mode", "unit")), speed=speed)


def _json_coordinates(vertex):
    # each coordinate a JSON number: numpy would take a true among numbers for 1
    if isinstance(vertex, list):
        return [_json_value(x, float, "polygon.vertices") for x in vertex]
    return _json_value(vertex, float, "polygon.vertices")


def _parse_polygon(doc):
    if not isinstance(doc, dict):
        raise ScenarioError("polygon must be an object")
    if "vertices" in doc:
        vertices = doc["vertices"]
        poly = Polygon([_json_coordinates(v) for v in vertices] if isinstance(vertices, list) else vertices)
        _check_n(poly.n, "the number of vertices")
        return poly
    if "generator" in doc:
        g = doc["generator"]
        try:
            kind = GeneratorKind(g["kind"])
        except (KeyError, ValueError):
            raise ScenarioError("generator needs a known 'kind'") from None
        kwargs = {}
        if "n" in g and g["n"] is not None:
            kwargs["n"] = _json_value(g["n"], int, "generator.n")
        if "radius_range" in g:
            kwargs["radius_range"] = tuple(_json_value(x, float, "generator.radius_range") for x in g["radius_range"])
        return GeneratorSpec(kind=kind, **kwargs)
    raise ScenarioError("polygon needs 'vertices' or 'generator'")


def _parse_sim(doc) -> SimConfig:
    if not isinstance(doc, dict) or "t_end" not in doc:
        raise ScenarioError("sim must be an object with 't_end'")
    kinds = {"t_end": float, "dt": float, "stop_diameter": float, "record_every": int, "adaptive": bool}
    kwargs = {key: _json_value(doc[key], kind, f"sim.{key}") for key, kind in kinds.items() if key in doc}
    if doc.get("min_edge_capture") is not None:
        kwargs["min_edge_capture"] = _json_value(doc["min_edge_capture"], float, "sim.min_edge_capture")
    return SimConfig(**kwargs)


def scenario_from_dict(doc) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario must be a JSON object")
    try:
        name = _json_value(doc["name"], str, "name")
        polygon = _parse_polygon(doc["polygon"])
        flow = _parse_flow(doc["flow"])
        sim = _parse_sim(doc["sim"])
    except KeyError as exc:
        raise ScenarioError(f"scenario is missing {exc.args[0]!r}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(str(exc)) from None
    outputs = doc.get("outputs", [])
    if not isinstance(outputs, list) or not all(type(o) is str and o in _OUTPUT_KINDS for o in outputs):
        raise ScenarioError(f"outputs must be a list of names from {sorted(_OUTPUT_KINDS)}")
    seed = _json_value(doc.get("seed", 0), int, "seed")
    return Scenario(name=name, polygon=polygon, flow=flow, sim=sim, seed=seed, outputs=frozenset(outputs))


def load_scenario(path) -> Scenario:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ScenarioError(f"{path}: invalid JSON ({exc})") from None
    return scenario_from_dict(doc)


def scenario_polygon(scenario: Scenario) -> Polygon:
    """The scenario's initial polygon (generating it if specified by recipe)."""
    if isinstance(scenario.polygon, Polygon):
        return scenario.polygon
    return generate(scenario.polygon, scenario.seed)


# CSV column name -> Trajectory attribute, for the columns after the vertices
_CSV_COLUMNS = {"perimeter": "perimeter", "area": "signed_area", "minF": "min_f", "minH": "min_h", "min_edge": "min_edge"}


def _csv_header(n: int) -> list:
    return ["t", *(f"{c}{i}" for i in range(1, n + 1) for c in "xy"), *_CSV_COLUMNS]


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write a trajectory to CSV with full round-trip precision.

    Columns: ``t, x1, y1, ..., xn, yn, perimeter, area, minF, minH, min_edge``.
    The last line records the stopping reason as ``# termination=<reason>``.
    Values use 17 significant digits so reading the file back reproduces every
    float bit-exactly.
    """
    if len(traj) == 0:
        raise ValueError("refusing to write an empty trajectory")
    # a complex row viewed as floats is x1, y1, ..., xn, yn
    columns = [traj.times, traj.z.view(np.float64)] + [getattr(traj, a) for a in _CSV_COLUMNS.values()]
    _write_csv(path, _csv_header(traj.n), columns, [f"# termination={traj.termination.name}"])


def _write_csv(path, header, columns, tail=()) -> None:
    """Write ``header``, each row of the stacked ``columns`` with one ``%.17g`` format, then ``tail``."""
    table = np.column_stack(columns)
    row_format = ",".join(["%.17g"] * table.shape[1])
    lines = [",".join(header)] + [row_format % tuple(row) for row in table.tolist()] + list(tail)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _table(rows) -> np.ndarray:
    # the numbers of the CSV rows, a row each, or a (0, 0) array where loadtxt reads none
    try:
        return np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)  # a "#" row is an error
    except ValueError:
        return np.empty((0, 0))


def read_trajectory_csv(path) -> Trajectory:
    """Parse a file written by :func:`write_trajectory_csv`, bit-exactly.

    Any malformed file, or a diagnostic column that differs from the one the
    vertices give, raises ``ValueError`` naming the file.
    """
    text = Path(path).read_text(encoding="utf-8")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 3:
        raise ValueError(f"{path}: not a trajectory CSV (too short)")
    header = lines[0].split(",")
    n = (len(header) - 1 - len(_CSV_COLUMNS)) // 2
    if header != _csv_header(n):
        raise ValueError(f"{path}: unexpected CSV header")
    _check_n(n, f"{path}: the number of vertices")
    prefix, _, reason = lines[-1].partition("=")
    if prefix != "# termination" or reason.strip() not in Termination.__members__:
        raise ValueError(f"{path}: missing or unknown termination line {lines[-1]!r}")
    try:
        table = _table(lines[1:-1])
        if table.shape[1] != len(header):
            k = next(k for k, row in enumerate(lines[1:-1], start=1) if _table([row]).shape[1] != len(header))
            raise ValueError(f"data row {k} is not {len(header)} comma-separated numbers")
        if not np.isfinite(table).all():
            raise ValueError(f"data row {np.isfinite(table).all(axis=1).argmin() + 1} holds a non-finite value")
        traj = Trajectory(table[:, 0], table[:, 1 : 2 * n + 1].view(np.complex128), Termination[reason.strip()])
        # bit for bit: 17 digits round-trip and the derivation is deterministic
        for k, (name, attr) in enumerate(_CSV_COLUMNS.items(), start=2 * n + 1):
            bad = np.flatnonzero(table[:, k].view(np.int64) != getattr(traj, attr).view(np.int64))
            if bad.size:
                raise ValueError(f"{name} in data row {bad[0] + 1} disagrees with the vertices")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return traj


def _svg_num(x: float) -> str:
    s = format(x, ".6g")
    return "0" if s == "-0" else s


def _svg_points(z: np.ndarray, sep: str = " ") -> str:
    # "x,y" pairs, y flipped so the picture is upright: conj(z) as floats, + 0.0 making -0.0 a 0
    return sep.join(["%.6g,%.6g"] * len(z)) % tuple((z.conj().view(np.float64) + 0.0).tolist())


def _shade(i: int, count: int) -> str:
    # early snapshots light gray, final one black
    if count <= 1:
        return "#000000"
    level = int(round(200 * (1.0 - i / (count - 1))))
    return f"#{level:02x}{level:02x}{level:02x}"


def render_svg(traj: Trajectory, *, snapshot_times=None, mark_centroid: bool = False) -> str:
    """Deterministic SVG picture of a trajectory.

    Snapshot states are drawn as solid closed outlines (defaulting to five
    states evenly spread over the recording); each vertex's path through time
    is a dashed polyline; ``mark_centroid`` adds an asterisk at the initial
    centroid.  Each snapshot time draws the recorded state nearest to it; a
    time outside the recording draws its nearer end.  Identical trajectories
    and options yield byte-identical text.  Raises ``ValueError`` for an empty
    trajectory, one whose extent is not finite, or a NaN or infinite snapshot
    time.
    """
    if len(traj) == 0:
        raise ValueError("refusing to render an empty trajectory")
    count = len(traj)
    if snapshot_times is None:
        picks = sorted({int(round(f * (count - 1) / 4.0)) for f in range(5)})
    else:
        wanted = np.array([float(t) for t in snapshot_times])
        if not np.isfinite(wanted).all():
            raise ValueError("snapshot times must be finite")
        # a time outside the recording takes its nearer end: far out, every distance rounds alike
        wanted = np.clip(wanted, traj.times[0], traj.times[-1])
        picks = sorted({int(np.argmin(np.abs(traj.times - t))) for t in wanted})
    # canvas bounds over everything drawn (y flipped so the picture is upright)
    g0 = complex(traj.z[0].mean())
    x0, x1 = float(traj.z.real.min()), float(traj.z.real.max())
    y0, y1 = -float(traj.z.imag.max()), -float(traj.z.imag.min())
    if mark_centroid:
        x0, x1 = min(x0, g0.real), max(x1, g0.real)
        y0, y1 = min(y0, -g0.imag), max(y1, -g0.imag)
    span = max(x1 - x0, y1 - y0, 1e-30)
    margin = 0.05 * span
    x0, y0 = x0 - margin, y0 - margin
    w = (x1 - x0) + margin
    h = (y1 - y0) + margin
    height = 640 * h / w
    # states near overflow (an unstable run's last ones) have no finite canvas
    if not np.isfinite([x0, y0, w, h, height]).all():
        raise ValueError("the trajectory's extent is not finite at drawing scale; it cannot be drawn")
    stroke = 0.006 * span
    dash = _svg_num(2.0 * stroke)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{_svg_num(x0)} {_svg_num(y0)}'
        f' {_svg_num(w)} {_svg_num(h)}" width="640" height="{int(round(height))}">'
    ]
    out.append('<g id="vertex-paths">')
    for path in traj.z.T:
        out.append(
            f'<polyline fill="none" stroke="#8a8a8a" stroke-width="{_svg_num(0.5 * stroke)}"'
            f' stroke-dasharray="{dash},{dash}" points="{_svg_points(path)}"/>'
        )
    out.append("</g>")
    out.append('<g id="snapshots">')
    for j, i in enumerate(picks):
        d = "M " + _svg_points(traj.z[i], " L ") + " Z"
        out.append(f'<path fill="none" stroke="{_shade(j, len(picks))}" stroke-width="{_svg_num(stroke)}" d="{d}"/>')
    out.append("</g>")
    if mark_centroid:
        cx, cy = g0.real, -g0.imag
        r = 0.02 * span
        out.append('<g id="centroid">')
        for ang in (0.0, np.pi / 3.0, 2.0 * np.pi / 3.0):
            dx, dy = r * math.cos(ang), r * math.sin(ang)
            out.append(
                f'<line x1="{_svg_num(cx - dx)}" y1="{_svg_num(cy - dy)}"'
                f' x2="{_svg_num(cx + dx)}" y2="{_svg_num(cy + dy)}"'
                f' stroke="#000000" stroke-width="{_svg_num(0.5 * stroke)}"/>'
            )
        out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"
