"""Print one sha256 per CLI artifact, to prove that a refactor changes no output.

Run from the repository root:

    python3 scripts/artifact_digest.py

It writes, into a temporary directory, the ``validate --seed 1`` report JSON,
every file of ``reproduce fig7``, ``fig8``, ``fig9`` and ``fig10``, and the
``analyze`` report JSON of every check on ``fig8.csv``, then prints
``<sha256>  <file>`` for each file in name order.  Run it before and after a
change and diff the two outputs: any difference is a changed artifact.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from polyshort.io_cli import cli_main  # noqa: E402


def _cli(*argv) -> None:
    # analyze exits 1 on fig8 (its area check fails by design); only the
    # files matter here, so the exit code and the printed table are dropped
    with contextlib.redirect_stdout(io.StringIO()):
        cli_main([str(a) for a in argv])


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        _cli("validate", "--seed", 1, "--out-json", out / "validate.json")
        for fig in ("fig7", "fig8", "fig9", "fig10"):
            _cli("reproduce", fig, "--out-dir", out)
        _cli(
            "analyze",
            "--csv", out / "fig8.csv",
            "--checks", "star,convex,perimeter,area,ellipse",
            "--out-json", out / "analyze_fig8.json",
        )
        for path in sorted(out.iterdir()):
            print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
