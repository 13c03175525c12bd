"""Print one sha256 per CLI artifact, to prove that a refactor changes no output.

Run from the repository root:

    python3 scripts/artifact_digest.py

It writes, into a temporary directory, the ``validate --seed 1`` report JSON,
every file of ``reproduce fig7``, ``fig8``, ``fig9`` and ``fig10``, the CSV,
SVG and summary JSON of ``simulate`` on five scenarios (an adaptive
Menger-Melnikov run of a generator polygon, a Menger-Melnikov run of a
polygon with a straight vertex, a UNIT-speed bisector run, a densely recorded
linear run of a convex polygon and a linear run of the ``embedded_loss``
fixture), the CSV and summary JSON of the Menger-Melnikov run of the seed-11
256-gon that stops being a star, of a linear run whose step is past RK4's
stability edge, so that its states overflow, of a Menger-Melnikov run that
ends when its step no longer advances the time, of a UNIT-speed bisector
run that ends CAPTURE by the default threshold and of a linear run that ends
COLLAPSED mid-stride, and the ``analyze`` report JSON of every check on
``fig8.csv`` and on the CSV of the first, fourth and fifth scenario, then
prints ``<sha256>  <file>`` for each file in name order.  Run it before and
after a change and diff the two outputs: any difference is a changed artifact.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from polyshort.cli import cli_main  # noqa: E402


def _cli(*argv) -> None:
    # analyze exits 1 on fig8 (its area check fails by design); only the
    # files matter here, so the exit code and the printed table are dropped
    with contextlib.redirect_stdout(io.StringIO()):
        cli_main([str(a) for a in argv])


_OUTPUTS = ["csv", "svg", "report_json"]

# Each scenario is written with every output kind, so render_svg draws its
# default snapshots.
_SCENARIOS = [
    # a generator polygon under the adaptive Menger-Melnikov flow; dt is large
    # enough that the curvature cap shortens every step
    {
        "name": "mm_star",
        "polygon": {"generator": {"kind": "random_star", "n": 9}},
        "flow": {"kind": "menger_melnikov"},
        "sim": {"t_end": 0.5, "dt": 0.05, "record_every": 2},
        "seed": 7,
        "outputs": _OUTPUTS,
    },
    # vertex 1 is straight, so its curvature triple is collinear and its first
    # Menger-Melnikov velocity is the zero branch
    {
        "name": "mm_straight",
        "polygon": {"vertices": [[0, 0], [1, 0], [2, 0], [2, 2], [0, 2]]},
        "flow": {"kind": "menger_melnikov"},
        "sim": {"t_end": 0.3, "dt": 0.02, "record_every": 3},
        "outputs": _OUTPUTS,
    },
    # fig9 runs only the NORM_MATCHED bisector flow
    {
        "name": "bisector_unit",
        "polygon": {"generator": {"kind": "random_convex", "n": 10}},
        "flow": {"kind": "bisector", "speed_mode": "unit", "speed": 0.5},
        "sim": {"t_end": 1.0, "dt": 0.01, "record_every": 5},
        "seed": 5,
        "outputs": _OUTPUTS,
    },
    # every step recorded: the star, convexity and area checks pass with
    # margins taken over 301 samples
    {
        "name": "linear_convex",
        "polygon": {"generator": {"kind": "random_convex", "n": 12}},
        "flow": {"kind": "linear"},
        "sim": {"t_end": 3.0, "dt": 0.01, "record_every": 1},
        "seed": 3,
        "outputs": _OUTPUTS,
    },
    # loses simplicity mid-run, so the area check does not apply
    {
        "name": "embedded_loss",
        "polygon": {"generator": {"kind": "embedded_loss"}},
        "flow": {"kind": "linear"},
        "sim": {"t_end": 1.5, "dt": 1e-3, "record_every": 10},
        "outputs": _OUTPUTS,
    },
    # the Menger-Melnikov flow does not keep every star a star: this 256-gon
    # stops being one about its centroid at t = 1.469e-3
    {
        "name": "mm_star_loss",
        "polygon": {"generator": {"kind": "random_star", "n": 256}},
        "flow": {"kind": "menger_melnikov"},
        "sim": {"t_end": 2e-3, "dt": 1e-4},
        "seed": 11,
        "outputs": ["csv", "report_json"],
    },
    # dt = 2 is past RK4's stability edge for this quadrilateral's fastest mode:
    # the run overflows and ends DEGENERATE, and its last perimeter is not finite
    {
        "name": "unstable",
        "polygon": {"vertices": [[0, 0], [2, 0], [1, 1], [0, 1]]},
        "flow": {"kind": "linear"},
        "sim": {"t_end": 1e4, "dt": 2.0, "record_every": 100},
        "outputs": ["csv", "report_json"],
    },
    # the regular pentagon shrinks under the Menger-Melnikov flow until the
    # curvature cap leaves a step too small to advance the time: the run ends
    # DEGENERATE after 254 steps, and its last sample is off the stride
    {
        "name": "mm_stall",
        "polygon": {"generator": {"kind": "regular", "n": 5}},
        "flow": {"kind": "menger_melnikov"},
        "sim": {"t_end": 1e6, "dt": 1, "stop_diameter": 0, "record_every": 7},
        "outputs": ["csv", "report_json"],
    },
    # the short bottom edge of this pentagon closes by under 1e-6 a step, so no
    # step jumps over the default capture threshold, 1e-6 times the diameter 2:
    # the run ends CAPTURE after 214 steps, mid-block at blocks of 8 and of 32
    {
        "name": "bisector_capture",
        "polygon": {"vertices": [[-1, 0], [0, -0.5], [1e-4, -0.5], [1, 0], [0, 1]]},
        "flow": {"kind": "bisector", "speed_mode": "unit"},
        "sim": {"t_end": 1e-3, "dt": 1e-6, "record_every": 10},
        "outputs": ["csv", "report_json"],
    },
    # a linear run that ends COLLAPSED after 688 steps, at row 687 of its first
    # modal block, between two rows of the modal screen's stride grid
    {
        "name": "linear_collapse",
        "polygon": {"generator": {"kind": "random_star", "n": 8}},
        "flow": {"kind": "linear"},
        "sim": {"t_end": 400, "dt": 0.05, "stop_diameter": 1e-4, "record_every": 10},
        "seed": 3,
        "outputs": ["csv", "report_json"],
    },
]


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        out.mkdir()
        for doc in _SCENARIOS:
            scenario = Path(tmp) / f"{doc['name']}.json"
            scenario.write_text(json.dumps(doc), encoding="utf-8")
            _cli("simulate", "--scenario", scenario, "--out-dir", out)
        _cli("validate", "--seed", 1, "--out-json", out / "validate.json")
        for fig in ("fig7", "fig8", "fig9", "fig10"):
            _cli("reproduce", fig, "--out-dir", out)
        # mm_star.csv has uneven adaptive times, so the reader's checks of the
        # times and the derived columns run on a real Menger-Melnikov file
        for name in ("fig8", "mm_star", "linear_convex", "embedded_loss"):
            _cli(
                "analyze",
                "--csv", out / f"{name}.csv",
                "--checks", "star,convex,perimeter,area,ellipse",
                "--out-json", out / f"analyze_{name}.json",
            )
        for path in sorted(out.iterdir()):
            print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
