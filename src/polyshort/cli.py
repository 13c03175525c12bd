"""The ``polyshort`` command line: simulate, spectrum, analyze, reproduce, validate.

Each subcommand is a thin handler over the library; ``cli_main`` maps bad
input to exit code 2 with one ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .analysis import (
    NOT_APPLICABLE,
    check_area_monotone,
    check_convexity_preservation,
    check_ellipse_convergence,
    check_perimeter_monotone,
    check_star_preservation,
    report_json,
    report_lines,
    validate_suite,
)
from .artifacts import (
    _fmt,
    _parse_flow,
    load_scenario,
    read_trajectory_csv,
    render_svg,
    scenario_polygon,
    write_trajectory_csv,
)
from .flows import BisectorSpeedMode, FlowKind, FlowSpec
from .generators import GenerationFailedError, GeneratorKind, GeneratorSpec, _check_n, generate
from .geometry import Polygon
from .simulate import SimConfig, Termination, run
from .spectral import decompose, eigenvalues, leading_decay_rate

__all__ = ["cli_main", "main"]


def _cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    overrides = {key: value for key, value in (("dt", args.dt), ("t_end", args.t_end)) if value is not None}
    scenario = replace(scenario, sim=replace(scenario.sim, **overrides))
    if args.flow is not None:
        scenario = replace(scenario, flow=_parse_flow({"kind": args.flow}))
    poly = scenario_polygon(scenario)
    traj = run(poly, scenario.flow, scenario.sim)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    def declared(kind: str, suffix: str):
        # where a scenario-declared output goes when no --out-* flag names it
        return out_dir / f"{scenario.name}.{suffix}" if kind in scenario.outputs else None

    csv_path = args.out_csv or declared("csv", "csv")
    svg_path = args.out_svg or declared("svg", "svg")
    json_path = args.out_json or declared("report_json", "json")
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
    print(f"{scenario.name}: termination={traj.termination.name} samples={len(traj)} t_final={traj.times[-1]:.6g}")
    return 1 if traj.termination in (Termination.DEGENERATE, Termination.MAX_STEPS) else 0


def _cmd_spectrum(args) -> int:
    _check_n(args.n, "--n")
    lams = eigenvalues(args.n)
    mags = None
    if args.scenario:
        scenario = load_scenario(args.scenario)
        poly = scenario_polygon(scenario)
        if poly.n != args.n:
            raise ValueError(f"scenario polygon has n={poly.n}, not n={args.n}")
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
        raise ValueError(f"unknown checks: {', '.join(unknown)}")
    reports = []
    not_applicable = []
    for name in wanted:
        try:
            reports.append(_ANALYZE_CHECKS[name](traj))
        except NOT_APPLICABLE as exc:
            not_applicable.append((name, str(exc)))
    for line in report_lines(reports):
        print(line)
    for name, msg in not_applicable:
        print(f"NOT_APPLICABLE  {name}: {msg}")
    if args.out_json:
        Path(args.out_json).write_text(report_json(reports, not_applicable), encoding="utf-8")
    return 0 if not not_applicable and all(r.passed for r in reports) else 1


def _cmd_validate(args) -> int:
    if args.ensemble_size < 1:
        raise ValueError(f"--ensemble-size must be at least 1, not {args.ensemble_size}")
    reports = validate_suite(args.ensemble_size, args.seed)
    for line in report_lines(reports):
        print(line)
    ok = all(r.passed for r in reports)
    print(f"validate: {'all checks passed' if ok else 'CHECK FAILURES'} ({len(reports)} checks)")
    if args.out_json:
        doc = report_json(reports, seed=args.seed, ensemble_size=args.ensemble_size)
        Path(args.out_json).write_text(doc, encoding="utf-8")
    return 0 if ok else 1


# figure scenarios; all parameters frozen so outputs are byte-stable
_FIG7_SEED = 2026


def _reproduce_fig7(out_dir: Path) -> None:
    poly = generate(GeneratorSpec(GeneratorKind.RANDOM_STAR, n=10), _FIG7_SEED)
    rate = leading_decay_rate(10)
    cfg = SimConfig(t_end=3.0 / rate, dt=0.01, record_every=10)
    traj = run(poly, FlowSpec.linear(), cfg)
    snaps = [tau / rate for tau in (0.0, 0.5, 1.0, 2.0, 3.0)]
    svg = render_svg(traj, snapshot_times=snaps, mark_centroid=True)
    (out_dir / "fig7.svg").write_text(svg, encoding="utf-8")


def _reproduce_fig8(out_dir: Path) -> None:
    poly = generate(GeneratorSpec(GeneratorKind.BOOMERANG), 0)
    traj = run(poly, FlowSpec.linear(), SimConfig(t_end=2.0, dt=1e-3, record_every=10))
    svg = render_svg(traj, snapshot_times=[0.0, 0.25, 0.5, 1.0, 2.0])
    (out_dir / "fig8.svg").write_text(svg, encoding="utf-8")
    write_trajectory_csv(traj, out_dir / "fig8.csv")
    lines = ["t,area"] + [f"{_fmt(t)},{_fmt(a)}" for t, a in zip(traj.times, traj.signed_area)]
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
    snaps_b = [0.0, 0.2, 0.4, 0.6, 0.85]
    cfg_b = SimConfig(t_end=40.0, dt=1e-3, record_every=20, min_edge_capture=1e-3 * poly.diameter())
    traj_b = run(poly, FlowSpec.bisector(speed_mode=BisectorSpeedMode.NORM_MATCHED), cfg_b)
    svg_b = render_svg(traj_b, snapshot_times=snaps_b)
    (out_dir / "fig9_bisector.svg").write_text(svg_b, encoding="utf-8")
    cfg_l = SimConfig(t_end=float(traj_b.times[-1]), dt=1e-3, record_every=20)
    traj_l = run(poly, FlowSpec.linear(), cfg_l)
    svg_l = render_svg(traj_l, snapshot_times=snaps_b)
    (out_dir / "fig9_linear.svg").write_text(svg_l, encoding="utf-8")


def _reproduce_fig10(out_dir: Path) -> None:
    poly = generate(GeneratorSpec(GeneratorKind.EMBEDDED_LOSS), 0)
    traj = run(poly, FlowSpec.linear(), SimConfig(t_end=1.5, dt=1e-3, record_every=10))
    svg = render_svg(traj, snapshot_times=[0.0, 0.3, 0.6, 1.0, 1.5])
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
    p.add_argument("--checks", default="perimeter", help=f"comma-separated subset of: {','.join(_ANALYZE_CHECKS)}")
    p.add_argument("--out-json", help="write the reports as JSON here")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("reproduce", help="regenerate a bundled figure deterministically")
    p.add_argument("figure", choices=sorted(_FIGURES))
    p.add_argument("--out-dir", default=".", help="output directory")
    p.set_defaults(func=_cmd_reproduce)

    p = sub.add_parser("validate", help="run the randomized theorem suite")
    p.add_argument("--ensemble-size", type=int, default=20, help="runs per random ensemble (at least 1)")
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
    except (GenerationFailedError, OSError, ValueError) as exc:  # ScenarioError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())
