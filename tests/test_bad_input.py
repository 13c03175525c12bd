"""Fuzzing the input boundary: bad input is a clean error, never a traceback.

Scenario documents, trajectory CSV files and the ``spectrum`` and ``analyze``
command lines come from outside the program.  Whatever they hold, the only
allowed outcomes are a clean result or exit code 2 with exactly one
``error:`` line.  No ``simulate`` run is fuzzed: a fuzzed scenario could ask
for up to ``MAX_STEPS`` steps.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from polyshort.artifacts import (  # noqa: E402
    ScenarioError,
    read_trajectory_csv,
    scenario_from_dict,
    write_trajectory_csv,
)
from polyshort.cli import cli_main  # noqa: E402
from polyshort.flows import FlowSpec  # noqa: E402
from polyshort.geometry import Polygon  # noqa: E402
from polyshort.simulate import SimConfig, run  # noqa: E402

# a JSON integer too large for a float
HUGE = 10**400

INTEGER = st.one_of(st.integers(), st.sampled_from([HUGE, -HUGE, 0, 3, 1000, 1001]))
NUMBER = st.one_of(INTEGER, st.floats())
JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), NUMBER, st.text(max_size=4)),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


def field(valid):
    # mostly a value of the right shape, sometimes any JSON value
    return st.one_of(valid, JSON)


VERTICES = st.lists(st.lists(NUMBER, min_size=2, max_size=2), max_size=6)
GENERATOR = st.fixed_dictionaries(
    {"kind": field(st.sampled_from(["regular", "random_star", "random_convex", "collinear", "boomerang"]))},
    optional={"n": NUMBER, "radius_range": field(st.lists(NUMBER, min_size=2, max_size=2))},
)
SCENARIO = st.fixed_dictionaries(
    {
        "name": field(st.just("fuzz")),
        "polygon": field(
            st.fixed_dictionaries({"vertices": field(VERTICES)}) | st.fixed_dictionaries({"generator": field(GENERATOR)})
        ),
        "flow": field(
            st.fixed_dictionaries(
                {"kind": field(st.sampled_from(["linear", "menger_melnikov", "bisector"]))},
                optional={"speed_mode": field(st.sampled_from(["unit", "norm_matched"])), "speed": NUMBER},
            )
        ),
        "sim": field(
            st.fixed_dictionaries(
                {"t_end": NUMBER},
                optional={
                    "dt": NUMBER,
                    "stop_diameter": NUMBER,
                    "record_every": NUMBER,
                    "adaptive": field(st.booleans()),
                    "min_edge_capture": NUMBER,
                },
            )
        ),
    },
    optional={"seed": NUMBER, "outputs": field(st.lists(st.sampled_from(["csv", "svg", "report_json"])))},
)

VALID = {
    "name": "fuzz",
    "polygon": {"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]},
    "flow": {"kind": "linear"},
    "sim": {"t_end": 1.0},
}

NORM_MATCHED = {"kind": "bisector", "speed_mode": "norm_matched"}


def with_value(path, value):
    """``VALID`` with the entry at ``path`` (a tuple of keys) set to ``value``."""
    doc = json.loads(json.dumps(VALID))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def cli(argv):
    """``cli_main(argv)`` as (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def assert_clean(code, err):
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert code in (0, 1, 2)
    assert len(errors) == (1 if code == 2 else 0), err


@settings(deadline=None)
@example(with_value(("sim", "t_end"), HUGE))
@example(with_value(("polygon", "vertices"), [[HUGE, 0], [1, 0], [0, 1]]))
@example(with_value(("polygon",), {"generator": {"kind": "random_star", "n": 8, "radius_range": [0.5, HUGE]}}))
@example(with_value(("polygon", "vertices"), [[i, i * i] for i in range(1001)]))
@example(with_value(("flow",), dict(NORM_MATCHED, speed="fast")))
@given(SCENARIO)
def test_scenario_from_dict(doc):
    try:
        scenario_from_dict(doc)
    except ScenarioError:
        pass


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("vertex", [[0, math.inf], [-math.inf, 0], [math.nan, 1], [math.inf, math.nan]])
def test_simulate_non_finite_vertex_is_one_error_line(tmp_path, vertex):
    # a warning raised as an error would escape cli_main as a traceback
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(with_value(("polygon", "vertices"), [vertex, [1, 0], [0, 1]])), encoding="utf-8")
    code, _, err = cli(["simulate", "--scenario", path, "--out-dir", tmp_path])
    assert code == 2
    assert err.splitlines() == ["error: polygon vertices must be finite"]


def test_string_vertices_are_one_error_line(tmp_path):
    doc = with_value(("polygon", "vertices"), ["0", "1", "1j"])
    with pytest.raises(ScenarioError, match="polygon.vertices must be a number"):
        scenario_from_dict(doc)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = cli(["simulate", "--scenario", path, "--out-dir", tmp_path])
    assert code == 2
    assert err.splitlines() == ["error: polygon.vertices must be a number, not '0'"]


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("polygon", "vertices"), [[True, False], [False, True], [True, True]], "polygon.vertices must be a number, not True"),
        (("polygon", "vertices"), [[True, 0.5], [0, 1], [2, 2]], "polygon.vertices must be a number, not True"),
        (("name",), {"a": 1}, "name must be a string, not {'a': 1}"),
        (("flow",), dict(NORM_MATCHED, speed=3.0), "NORM_MATCHED bisector flow takes no speed"),
        (("flow",), dict(NORM_MATCHED, speed="fast"), "flow.speed must be a number, not 'fast'"),
    ],
    ids=["boolean_vertices", "mixed_boolean_vertices", "object_name", "norm_matched_speed", "string_speed"],
)
def test_scenario_value_of_the_wrong_kind_is_one_error_line(tmp_path, path, value, message):
    # each of these once ran: booleans as vertices, alone or among numbers, a
    # dict as the file name, a NORM_MATCHED speed dropped without a word
    doc = with_value(path, value)
    doc["outputs"] = ["csv"]
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = cli(["simulate", "--scenario", scenario, "--out-dir", tmp_path])
    assert code == 2
    assert err.splitlines() == [f"error: {message}"]
    assert [p.name for p in tmp_path.iterdir()] == ["scenario.json"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("speed", [math.nan, math.inf, -math.inf])
def test_non_finite_bisector_speed_is_one_error_line(tmp_path, speed):
    # json writes these as NaN and Infinity, which json.loads takes; such a
    # run once wrote a one-sample DEGENERATE trajectory and exited 1
    doc = with_value(("flow",), {"kind": "bisector", "speed_mode": "unit", "speed": speed})
    doc["outputs"] = ["csv", "report_json"]
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = cli(["simulate", "--scenario", scenario, "--out-dir", tmp_path])
    assert code == 2
    assert err.splitlines() == ["error: UNIT bisector flow needs a positive finite speed"]
    assert [p.name for p in tmp_path.iterdir()] == ["scenario.json"]


@pytest.mark.filterwarnings("error")
def test_simulate_unstable_step_writes_no_warning(tmp_path):
    # dt = 2 is past RK4's stability edge for the fastest mode of this
    # quadrilateral, which grows until it overflows: the run ends DEGENERATE,
    # and a warning raised as an error would escape cli_main as a traceback
    doc = with_value(("polygon", "vertices"), [[0, 0], [2, 0], [1, 1], [0, 1]])
    doc["sim"] = {"t_end": 1e4, "dt": 2.0, "record_every": 100}
    doc["outputs"] = ["csv", "report_json"]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = cli(["simulate", "--scenario", path, "--out-dir", tmp_path])
    assert code == 1
    assert "termination=DEGENERATE" in out
    assert err == ""
    # Infinity and NaN are not JSON: the overflowed perimeter is null
    text = (tmp_path / "fuzz.json").read_text(encoding="utf-8")
    summary = json.loads(text, parse_constant=lambda c: pytest.fail(f"{c} in the summary"))
    assert summary["termination"] == "DEGENERATE" and summary["perimeter_final"] is None


@pytest.mark.filterwarnings("error")
def test_simulate_unstable_step_svg_is_one_error_line(tmp_path):
    # the same run's last states are near 1e308: no finite SVG canvas holds them
    doc = with_value(("polygon", "vertices"), [[0, 0], [2, 0], [1, 1], [0, 1]])
    doc["sim"] = {"t_end": 1e4, "dt": 2.0, "record_every": 100}
    doc["outputs"] = ["svg"]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = cli(["simulate", "--scenario", path, "--out-dir", tmp_path])
    assert code == 2
    assert_clean(code, err)
    assert "not finite" in err


def test_simulate_unstable_step_svg_writes_no_file(tmp_path):
    # the SVG is refused before the CSV or the summary is written
    doc = with_value(("polygon", "vertices"), [[0, 0], [2, 0], [1, 1], [0, 1]])
    doc["sim"] = {"t_end": 1e4, "dt": 2.0, "record_every": 100}
    doc["outputs"] = ["csv", "svg", "report_json"]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    code, _, err = cli(["simulate", "--scenario", path, "--out-dir", out])
    assert code == 2 and "not finite" in err
    assert list(out.iterdir()) == []


@settings(max_examples=50, deadline=None)
@example(10**15, None)
@example(4, with_value(("sim", "t_end"), HUGE))
@example(4, with_value(("polygon", "vertices"), [[0, 0], [1, 0], [1, 1], [0, 1], [-1, 2]]))
@given(INTEGER, st.none() | SCENARIO)
def test_cli_spectrum(n, doc):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["spectrum", "--n", n]
        if doc is not None:
            path = Path(tmp) / "scenario.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            argv += ["--scenario", path]
        code, _, err = cli(argv)
    assert_clean(code, err)


def _base_csv() -> str:
    quad = Polygon([(0, 0), (2, 0), (1, 1.5), (0.2, 1.0)])
    traj = run(quad, FlowSpec.linear(), SimConfig(t_end=6.0, dt=0.5))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "base.csv"
        write_trajectory_csv(traj, path)
        return path.read_text(encoding="utf-8")


BASE_CSV = _base_csv()
# edits of the text of a valid file: (kind, position, replacement)
EDIT = st.tuples(
    st.sampled_from(["replace", "insert", "delete_line", "duplicate_line", "truncate"]),
    st.integers(0, 10**6),
    st.sampled_from(list("0123456789.,-+eE#=\n x") + ["nan", "inf", "1e999", "MAX_STEPS", "9" * 400]),
)


def edited(text, edits):
    for kind, pos, repl in edits:
        lines = text.split("\n")
        if kind == "delete_line":
            del lines[pos % len(lines)]
            text = "\n".join(lines)
        elif kind == "duplicate_line":
            k = pos % len(lines)
            text = "\n".join(lines[: k + 1] + lines[k:])
        elif kind == "truncate":
            text = text[: pos % (len(text) + 1)]
        else:
            k = pos % (len(text) + 1)
            text = text[:k] + repl + text[k + (kind == "replace") :]
    return text


@settings(max_examples=100, deadline=None)
@example([])
@example([("delete_line", 2, "")])
@example([("replace", BASE_CSV.index("T_END"), "MAX_STEPS")])
@given(st.lists(EDIT, max_size=3))
def test_read_and_analyze_edited_csv(edits):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        path.write_text(edited(BASE_CSV, edits), encoding="utf-8")
        try:
            read_trajectory_csv(path)
        except ValueError:
            pass
        code, _, err = cli(["analyze", "--csv", path, "--checks", "star,convex,perimeter,area,ellipse"])
    assert_clean(code, err)


def test_csv_header_beyond_vertex_bound():
    n = 1001
    cols = ["t"] + [f"{a}{i}" for i in range(1, n + 1) for a in "xy"] + ["perimeter", "area", "minF", "minH", "min_edge"]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "big.csv"
        path.write_text(",".join(cols) + "\n" + ",".join(["0"] * len(cols)) + "\n# termination=T_END\n")
        with pytest.raises(ValueError, match="within"):
            read_trajectory_csv(path)
        code, _, err = cli(["analyze", "--csv", path])
    assert code == 2 and "within [3, 1000]" in err


def _edited_row(edit):
    # BASE_CSV with its second data row edited
    lines = BASE_CSV.split("\n")
    lines[2] = edit(lines[2])
    return "\n".join(lines)


# the 4-gon's rows hold t, 8 coordinates and 5 diagnostics
_NOT_14 = "is not 14 comma-separated numbers"


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda row: row.rsplit(",", 1)[0], _NOT_14),
        (lambda row: row.replace(",", ",x", 1), _NOT_14),
        # loadtxt's default would skip a "#" line; here it is an error
        (lambda row: "# " + row, _NOT_14),
        (lambda row: "nan" + row[row.index(",") :], "holds a non-finite value"),
    ],
)
def test_analyze_bad_csv_row_is_one_error_line(tmp_path, edit, message):
    path = tmp_path / "t.csv"
    path.write_text(_edited_row(edit), encoding="utf-8")
    with pytest.raises(ValueError, match=rf"t\.csv: data row 2 {message}$"):
        read_trajectory_csv(path)
    code, _, err = cli(["analyze", "--csv", path, "--checks", "perimeter"])
    assert code == 2
    assert_clean(code, err)
    assert err.startswith(f"error: {path}: ")


@pytest.mark.parametrize(
    "checks, message",
    [
        ("", "--checks names no check"),
        (",", "--checks names no check"),
        (" , ", "--checks names no check"),
        ("perimeter,bogus", "unknown checks: bogus"),
    ],
    ids=["empty", "comma", "blanks", "unknown"],
)
def test_analyze_runs_only_named_known_checks(tmp_path, checks, message):
    # a --checks list naming no check runs none: an error, not a passed report
    path, report = tmp_path / "t.csv", tmp_path / "report.json"
    path.write_text(BASE_CSV, encoding="utf-8")
    code, out, err = cli(["analyze", "--csv", path, "--checks", checks, "--out-json", report])
    assert_clean(code, err)
    assert code == 2 and err == f"error: {message}\n" and not out
    assert not report.exists()
