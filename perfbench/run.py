"""polyshort benchmark: one process, one thread, a closed loop with one client.

Usage, from the repository root:

    python3 perfbench/run.py --workload linear_ensemble --seed 1 --seconds 20 --trace 0

The workloads are defined in ``workloads.py``.  Set-up (importing polyshort,
generating the seeded inputs, running the warm-up items) is repeated
``SETUP_REPS`` times and its median reported as ``setup_s``.  The timed phase
then runs the workload's item pool in whole rounds until ``--seconds`` have
passed and at least ``MIN_ITEMS`` items have run.  End-to-end times are
scaled to a reference speed (see ``REF_SECONDS``).

With ``--trace 0`` the last line reports the end-to-end metrics.  With
``--trace 1`` untraced and traced rounds alternate: the traced ones give the
per-layer metrics (medians over rounds, counts per round), the pair gives
``trace.overhead_ratio``, and the spans are written to ``.perfbench-out/``.
The metric names and units are those declared in ``BENCHMARK.json``.
"""

import os

# pinned before numpy is imported: numpy here links a threaded BLAS
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from probes import run_probes  # noqa: E402
from spans import LAYERS, Tracer, group_time  # noqa: E402
from workloads import WORKLOADS, run_item  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 3
MIN_ITEMS = 100
# A slowed-down program still ends: stop at this multiple of --seconds even
# short of MIN_ITEMS.
MAX_SECONDS_FACTOR = 4

# End-to-end times are reported at a fixed reference speed.  Around every
# item and every set-up the runner times a fixed kernel of the same kind as
# the item's work (see reference_s) and scales the measured time by
# REF_SECONDS / (kernel time).  On a shared machine whose speed drifts by
# +-25% over minutes, this keeps a program change visible (it moves the item,
# not the kernel) while the drift cancels.
REF_SECONDS = 2e-3
_REF_Z = np.exp(2j * np.pi * np.arange(12) / 12)
_REF_W = np.exp(2j * np.pi * np.arange(400) / 400)

# per-layer metric -> (layer, span name) whose per-round time it reports
SPAN_METRICS = {
    "simulate.run_s": ("simulate", "run"),
    "analysis.perimeter_s": ("analysis", "perimeter"),
    "analysis.star_s": ("analysis", "star"),
    "analysis.convex_s": ("analysis", "convex"),
    "analysis.area_s": ("analysis", "area"),
    "analysis.ellipse_s": ("analysis", "ellipse"),
    "analysis.detect_first_s": ("analysis", "detect_first"),
    "spectral.decompose_s": ("spectral", "decompose"),
    "spectral.closed_form_s": ("spectral", "closed_form"),
    "io_cli.write_csv_s": ("io_cli", "write_csv"),
    "io_cli.read_csv_s": ("io_cli", "read_csv"),
    "io_cli.render_svg_s": ("io_cli", "render_svg"),
    "trace.harness_self_s": ("item", "self"),
    **{f"{layer}.busy_s": (layer, "busy") for layer in LAYERS},
}
COUNT_METRICS = (
    "simulate.steps",
    "simulate.samples",
    "simulate.t_end",
    "simulate.collapsed",
    "simulate.capture",
    "simulate.degenerate",
    "analysis.samples_checked",
    "io_cli.csv_bytes",
    "io_cli.svg_bytes",
)


def reference_s(kind: str) -> float:
    """Wall time of the reference kernel ``kind``, about 2 ms.

    ``"interpreter"``: the flows' mix of small numpy calls on a 12-gon and
    Python arithmetic.  ``"memory"``: all pairwise distances of a 400-gon,
    like the O(n^2) diameter stop check.  The two slow down by different
    factors when a neighbour competes for the core or for memory bandwidth.
    """
    start = perf_counter()
    if kind == "memory":
        for _ in range(2):
            float(np.abs(_REF_W[:, None] - _REF_W[None, :]).max())
        return perf_counter() - start
    z = _REF_Z
    for _ in range(60):
        z = 0.5 * (np.roll(z, 1) + np.roll(z, -1)) - z + _REF_Z
        float(np.abs(z).max())
    acc = 0
    for i in range(3000):
        acc += i * i % 7
    return perf_counter() - start


def import_polyshort():
    """Import polyshort afresh from this checkout's ``src``."""
    for name in [m for m in sys.modules if m == "polyshort" or m.startswith("polyshort.")]:
        del sys.modules[name]
    ps = importlib.import_module("polyshort")
    if Path(ps.__file__).resolve().parent != SRC / "polyshort":
        raise ImportError(f"polyshort was imported from {ps.__file__}, not from {SRC}")
    return ps


@dataclass
class Round:
    traced: bool
    wall: float = 0.0
    item_times: list = field(default_factory=list)
    # REF_SECONDS over the item's reference time, the mean of before and after
    scales: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    spans: tuple = (0, 0)


class Run:
    """Attempted and failed items, and each item's digest from its first round."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digests: dict = {}
        self.messages: list = []

    def record(self, item, result):
        self.attempted += 1
        failures = list(result.failures)
        first = self.digests.setdefault(item.name, result.digest)
        if first != result.digest:
            failures.append("digest differs from the item's first round")
        if failures:
            self.failed += 1
            self.messages.append(f"{item.name}: {'; '.join(failures)}")

    def digest(self) -> str:
        blob = "\n".join(f"{k} {v}" for k, v in self.digests.items())
        return hashlib.sha256(blob.encode()).hexdigest()


def setup(args, tracer, workdir):
    """Import, generate and warm up ``SETUP_REPS`` times; keep the last set-up."""
    times, scaled, generate_s = [], [], []
    for _ in range(SETUP_REPS):
        first_span = len(tracer.spans)
        ref = reference_s("interpreter")
        start = perf_counter()
        ps = import_polyshort()
        wl = WORKLOADS[args.workload](ps, args.seed, tracer)
        for item in wl.warmup:
            run_item(ps, tracer, workdir, item, "warmup")
        times.append(perf_counter() - start)
        scaled.append(times[-1] * 2 * REF_SECONDS / (ref + reference_s("interpreter")))
        generate_s.append(group_time(tracer.spans[first_span:]).get(("io_cli", "generate"), 0.0))
    return ps, wl, times, scaled, generate_s


def timed_rounds(args, ps, wl, tracer, workdir, run):
    rounds = []
    start = perf_counter()
    while True:
        # traced rounds in the order U T T U U T T U ..., so slow drift in
        # the machine's speed falls on both sides of the overhead ratio
        rd = Round(traced=bool(args.trace) and len(rounds) % 4 in (1, 2))
        tracer.enabled = rd.traced
        first_span = len(tracer.spans)
        round_start = perf_counter()
        for idx, item in enumerate(wl.pool):
            ref = reference_s(item.bound_by)
            t0 = perf_counter()
            result = run_item(ps, tracer, workdir, item, f"r{len(rounds)}.{idx}")
            rd.item_times.append(perf_counter() - t0)
            rd.scales.append(2 * REF_SECONDS / (ref + reference_s(item.bound_by)))
            run.record(item, result)
            rd.counts.update(result.counts)
        rd.wall = perf_counter() - round_start
        rd.spans = (first_span, len(tracer.spans))
        rounds.append(rd)
        elapsed = perf_counter() - start
        items = sum(len(r.item_times) for r in rounds)
        paired = not args.trace or len(rounds) % 2 == 0
        enough = items >= MIN_ITEMS or elapsed >= MAX_SECONDS_FACTOR * args.seconds
        if paired and elapsed >= args.seconds and enough:
            tracer.enabled = False
            return rounds


def end_to_end(item_times, setup_times) -> dict:
    """End-to-end metrics from a (round, item) array of item times."""
    # Each pool item runs once per round, and its time is the median of its
    # repeats, so a burst of interference costs one repeat, not the metric.
    per_item = np.median(item_times, axis=0)
    p50, p90 = np.percentile(per_item, [50, 90]) * 1e3
    return {
        "items_per_s": per_item.size / float(per_item.sum()),
        "item_p50_ms": float(p50),
        "item_p90_ms": float(p90),
        "setup_s": statistics.median(setup_times),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(ps, wl, rounds, tracer, generate_s, workdir, run) -> dict:
    traced = [rd for rd in rounds if rd.traced]
    grouped = [group_time(tracer.spans[a:b]) for a, b in (rd.spans for rd in traced)]
    m = {name: statistics.median(g.get(key, 0.0) for g in grouped) for name, key in SPAN_METRICS.items()}
    counts = traced[0].counts  # items are deterministic: every round counts the same
    m.update({name: float(counts.get(name, 0)) for name in COUNT_METRICS})
    m["simulate.us_per_step"] = m["simulate.run_s"] / max(counts["simulate.steps"], 1) * 1e6
    m["simulate.step_ratio"] = counts["simulate.steps"] / max(counts["simulate.nominal_steps"], 1e-300)
    violations = counts.get("analysis.invariant_violations", 0)
    for item in wl.audit:
        result = run_item(ps, tracer, workdir, item, "audit")
        run.record(item, result)
        violations += result.counts.get("analysis.invariant_violations", 0)
    m["analysis.invariant_violations"] = float(violations)
    m["io_cli.generate_s"] = statistics.median(generate_s)
    m["trace.overhead_ratio"] = sum(rd.wall for rd in traced) / sum(
        rd.wall for rd in rounds if not rd.traced
    )
    m.update(run_probes(ps))
    return m


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        import_polyshort()
    except ImportError as exc:
        print(f"error: cannot import polyshort from {SRC}: {exc}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    workdir = ROOT / ".perfbench-work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    tracer.enabled = bool(args.trace)
    run = Run()
    try:
        ps, wl, setup_times, setup_scaled, generate_s = setup(args, tracer, workdir)
        rounds = timed_rounds(args, ps, wl, tracer, workdir, run)
        digest = run.digest()  # the pool's items only, so both modes agree
        if args.trace:
            metrics = per_layer(ps, wl, rounds, tracer, generate_s, workdir, run)
            out_dir = ROOT / ".perfbench-out"
            out_dir.mkdir(exist_ok=True)
            tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
        else:
            times = np.array([rd.item_times for rd in rounds])
            metrics = end_to_end(times * np.array([rd.scales for rd in rounds]), setup_scaled)
            wall = end_to_end(times, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is still using it

    names = [m["name"] for m in wanted]
    missing = sorted(set(names) - set(metrics))
    undeclared = sorted(set(metrics) - set(names))
    if missing or undeclared:
        print(f"error: metrics missing {missing}, undeclared {undeclared}", file=sys.stderr)
        return 1
    for msg in run.messages[:10]:
        print(f"FAILED {msg}", file=sys.stderr)

    items = sum(len(rd.item_times) for rd in rounds)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {len(rounds)}  items {items}  pool {len(wl.pool)}")
    for m in wanted:
        print(f"{m['name']:<48s} {metrics[m['name']]:>14.6g} {m['unit']}")
    print(f"{'fail_ratio':<48s} {run.failed / max(run.attempted, 1):>14.6g} -")
    if not args.trace:
        print("unscaled wall times: " + json.dumps({k: round(v, 6) for k, v in wall.items()}))
    meta = {
        "digest": digest,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "src_lines": src_lines(),
        "threads": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
