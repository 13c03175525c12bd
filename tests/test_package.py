"""The package surface: each public name declared once, and the console script."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polyshort
from polyshort.cli import cli_main

ROOT = Path(__file__).resolve().parent.parent
LIBRARY_MODULES = ("geometry", "flows", "spectral", "simulate", "analysis", "generators", "artifacts")

# the top-level names before the library was split by concern; none may go
KEPT = """
__version__ Polygon StarTag StarClass ConvexityTag ConvexityClass Circumcircle centroid perimeter signed_area
star_function convex_function star_values convexity_values classify_star classify_convexity is_simple circumcircle
FlowKind FlowSpec BisectorSpeedMode VelocityField FlowDegeneracyError DegenerateTripleError CoincidentVerticesError
velocity SpectralDecomposition EllipseParams DegenerateLeadingModeError eigenvalues leading_decay_rate decompose
closed_form_state limit_ellipse ellipse_residual SimConfig Trajectory Termination TrajectoryPredicate run step_rk4
detect_first CheckReport PreconditionNotStarError PreconditionNotConvexError NotSimpleError PreconditionTooShortError
perimeter_rate check_perimeter_monotone check_star_preservation check_convexity_preservation check_area_monotone
check_ellipse_convergence ellipse_convergence_series report_lines report_json SplitMix64 GeneratorKind GeneratorSpec
GenerationFailedError Scenario ScenarioError generate load_scenario scenario_polygon write_trajectory_csv
read_trajectory_csv render_svg
""".split()


def test_all_is_the_union_of_the_library_modules():
    modules = [importlib.import_module(f"polyshort.{name}") for name in LIBRARY_MODULES]
    declared = [name for module in modules for name in module.__all__]
    assert len(declared) == len(set(declared)), "a public name is declared twice"
    assert sorted(polyshort.__all__) == sorted(["__version__", *declared])
    for module in modules:
        for name in module.__all__:
            assert getattr(polyshort, name) is getattr(module, name)


def test_top_level_keeps_every_name_and_gains_the_undeclared_ones():
    assert set(KEPT) <= set(polyshort.__all__)
    gained = {"PREDICATE_TOL", "ANGLE_SUM_TOL", "MAX_VERTICES", "scenario_from_dict", "validate_suite"}
    assert gained <= set(polyshort.__all__)


def test_import_does_not_load_the_cli():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    code = "import sys, polyshort; print('polyshort.cli' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_console_script_names_the_cli(capsys):
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts, "pyproject.toml declares no console script"
    for target in scripts.values():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr))
    assert cli_main(["--help"]) == 0
    assert "usage: polyshort" in capsys.readouterr().out
