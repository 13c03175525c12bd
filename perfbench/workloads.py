"""The benchmark's three workloads: item pools built from a seed, and each item's checks.

An item is one polygon taken through its workload's whole pipeline.  Every
call into the package goes through ``ctx.call(layer, name, fn, ...)`` so the
traced run can time it.  An item fails when it raises, when a state is not
finite, when it ends with an unexpected termination, or when a check that the
test suite enforces disagrees with its expected verdict.  Every verdict, the
termination and a hash of the states and artifacts go into the item's digest.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# Large-n Menger-Melnikov items take MM_STEPS steps of a step size chosen from
# the polygon: MM_STEP_FRACTION * min_edge / max|v|, a tenth of the cap the
# integrator's adaptive rule enforces.  Far below the cap the rule rarely
# shrinks a step, so an item costs about MM_STEPS steps whatever the seed.
MM_STEPS = 6
MM_STEP_FRACTION = 0.005

# Bisector speeds are at most 1, so 10 steps of 2e-5 move no vertex more than
# 2e-4, well short of the default capture threshold on these polygons.
BISECTOR_CFG = {"t_end": 2e-4, "dt": 2e-5, "record_every": 5}

# The fig9 capture polygon, as bundled with ``polyshort reproduce fig9``.
FIG9_VERTICES = [
    (0.0, 0.0), (2.5, -0.18), (5.0, -0.25), (7.5, -0.18), (10.0, 0.0), (10.35, 0.3),
    (10.0, 0.6), (7.5, 0.78), (5.0, 0.85), (2.5, 0.78), (0.0, 0.6), (-0.35, 0.3),
]


@dataclass(frozen=True)
class Item:
    name: str
    run: Callable[["Ctx"], None]
    # which reference kernel's speed the item's time follows (see run.py)
    bound_by: str = "interpreter"


@dataclass
class Workload:
    pool: list
    warmup: list
    audit: list = field(default_factory=list)


class Ctx:
    """What one item records: verdicts for its digest, failures and counts."""

    def __init__(self, ps, tracer, workdir):
        self.ps = ps
        self.tracer = tracer
        self.workdir = workdir
        self.record: dict = {}
        self.failures: list = []
        self.counts: Counter = Counter()

    def call(self, layer, name, fn, *args, **kwargs):
        return self.tracer.call(layer, name, fn, *args, **kwargs)

    def note(self, what, value):
        self.record[what] = value

    def expect(self, what, ok):
        self.record["ok." + what] = bool(ok)
        if not ok:
            self.failures.append(what)


@dataclass(frozen=True)
class ItemResult:
    digest: str
    failures: list
    counts: Counter


def run_item(ps, tracer, workdir, item: Item, label: str) -> ItemResult:
    ctx = Ctx(ps, tracer, workdir)
    try:
        tracer.item(label, item.run, ctx)
    except Exception as exc:  # any exception is this item's failure, not the run's
        ctx.note("raised", type(exc).__name__)
        ctx.failures.append(f"raised {type(exc).__name__}: {exc}")
    blob = json.dumps([item.name, ctx.record], sort_keys=True, default=repr)
    return ItemResult(hashlib.sha256(blob.encode()).hexdigest(), ctx.failures, ctx.counts)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _passed(report) -> bool:
    return report is not None and report.passed


def simulate(ctx, poly, flow, cfg):
    """``polyshort.run`` plus the counts and checks every trajectory gets."""
    traj = ctx.call("simulate", "run", ctx.ps.run, poly, flow, cfg)
    t_final = float(traj.times[-1])
    # every step is a sample when record_every is 1 (the adaptive items);
    # otherwise steps have the fixed size dt
    steps = len(traj) - 1 if cfg.record_every == 1 else round(t_final / cfg.dt)
    c = ctx.counts
    c["simulate.steps"] += steps
    c["simulate.nominal_steps"] += t_final / cfg.dt
    c["simulate.samples"] += len(traj)
    c["simulate." + traj.termination.value] += 1
    states = np.stack([s.z for s in traj.states])
    ctx.expect("finite", np.isfinite(states).all())
    ctx.note("termination", traj.termination.name)
    ctx.note("states", _sha(states.tobytes()))
    return traj, states


def check(ctx, name, fn, traj):
    """Run one analysis check; ``None`` when it does not apply to ``traj``."""
    ps = ctx.ps
    not_applicable = (
        ps.PreconditionNotStarError,
        ps.PreconditionNotConvexError,
        ps.NotSimpleError,
        ps.DegenerateLeadingModeError,
    )
    try:
        report = ctx.call("analysis", name, fn, traj)
    except not_applicable as exc:
        ctx.note(name, "n/a:" + type(exc).__name__)
        return None
    ctx.counts["analysis.samples_checked"] += report.samples_checked
    ctx.note(name, "pass" if report.passed else f"fail@{report.first_violation_time!r}")
    return report


def expect_centroid_fixed(ctx, states, diam0):
    g = states.mean(axis=1)
    ctx.expect("centroid_drift", float(np.abs(g - g[0]).max()) <= 1e-9 * diam0)


def expect_termination(ctx, traj, *allowed):
    ctx.expect("termination", traj.termination in allowed)


# ---------------------------------------------------------------------------
# linear_ensemble


def _collapse_item(kind, poly):
    def run(ctx):
        ps = ctx.ps
        diam0 = ctx.call("geometry", "diameter", poly.diameter)
        cfg = ps.SimConfig(t_end=400.0, dt=0.05, stop_diameter=1e-4 * diam0, record_every=10)
        traj, states = simulate(ctx, poly, ps.FlowSpec.linear(), cfg)
        expect_termination(ctx, traj, ps.Termination.COLLAPSED)
        if kind == "star":
            ctx.expect("star", _passed(check(ctx, "star", ps.check_star_preservation, traj)))
        else:
            if kind == "flat":
                start = ctx.call("geometry", "classify_convexity", ps.classify_convexity, poly)
                ctx.expect("flat_start", start.tag is ps.ConvexityTag.CONVEX)
            ctx.expect("convex", _passed(check(ctx, "convex", ps.check_convexity_preservation, traj)))
            if kind == "convex":
                ctx.expect("area", _passed(check(ctx, "area", ps.check_area_monotone, traj)))
        ctx.expect("perimeter", _passed(check(ctx, "perimeter", ps.check_perimeter_monotone, traj)))
        expect_centroid_fixed(ctx, states, diam0)

    return run


def _closed_form_item(poly):
    def run(ctx):
        ps = ctx.ps
        cfg = ps.SimConfig(t_end=1.0, dt=1e-3, record_every=50)
        traj, states = simulate(ctx, poly, ps.FlowSpec.linear(), cfg)
        expect_termination(ctx, traj, ps.Termination.T_END)
        dec = ctx.call("spectral", "decompose", ps.decompose, poly)
        err = 0.0
        for t, z in zip(traj.times, states):
            exact = ctx.call("spectral", "closed_form", ps.closed_form_state, dec, float(t))
            err = max(err, float(np.abs(z - exact.z).max()))
        ctx.note("closed_form_err", err)
        ctx.expect("closed_form", err <= 1e-6)
        ctx.expect("perimeter", _passed(check(ctx, "perimeter", ps.check_perimeter_monotone, traj)))
        expect_centroid_fixed(ctx, states, 1.0)

    return run


def linear_ensemble(ps, seed, tracer) -> Workload:
    """Small-n linear-flow items, as in ``validate`` and acceptance criteria 2-5."""
    G = ps.GeneratorKind

    def gen(kind, n, i):
        spec = ps.GeneratorSpec(kind, n=n)
        return tracer.call("io_cli", "generate", ps.generate, spec, seed * 1000 + i)

    pool = []
    for n in range(4, 13):
        pool.append(Item(f"star{n}", _collapse_item("star", gen(G.RANDOM_STAR, n, n))))
    for n in range(5, 13):
        pool.append(Item(f"convex{n}", _collapse_item("convex", gen(G.RANDOM_CONVEX, n, 100 + n))))
    for n in (5, 7):
        z = gen(G.RANDOM_CONVEX, n, 200 + n).z
        # split the first edge at its midpoint: one exactly flat vertex
        poly = ps.Polygon(np.insert(z, 1, 0.5 * (z[0] + z[1])))
        pool.append(Item(f"flat{n + 1}", _collapse_item("flat", poly)))
    for i in range(2):
        raw = gen(G.RANDOM_STAR, 12, 300 + i)
        poly = ps.Polygon(raw.z / tracer.call("geometry", "diameter", raw.diameter))
        pool.append(Item(f"closed_form12.{i}", _closed_form_item(poly)))
    return Workload(pool=pool, warmup=[pool[0], pool[9]])


# ---------------------------------------------------------------------------
# large_n


def _mm_run(ctx, poly, cfg):
    ps = ctx.ps
    traj, _ = simulate(ctx, poly, ps.FlowSpec.menger_melnikov(), cfg)
    expect_termination(ctx, traj, ps.Termination.T_END)
    # The README claims MM keeps stars and shrinks the perimeter, but no test
    # enforces it, so a broken verdict is counted, not failed.
    for name, fn in (("star", ps.check_star_preservation), ("perimeter", ps.check_perimeter_monotone)):
        report = check(ctx, name, fn, traj)
        if report is not None and not report.passed:
            ctx.counts["analysis.invariant_violations"] += 1


def _mm_item(poly):
    def run(ctx):
        ps = ctx.ps
        v = ctx.call("flows", "velocity", ps.velocity, poly, ps.FlowSpec.menger_melnikov()).velocities
        dt = MM_STEP_FRACTION * ctx.call("geometry", "min_edge", poly.min_edge) / float(np.abs(v).max())
        _mm_run(ctx, poly, ps.SimConfig(t_end=MM_STEPS * dt, dt=dt, record_every=1))

    return run


def _mm_audit(ctx):
    # a fixed case where the README's MM claim fails: this star 256-gon loses
    # star shape near t = 1.5e-3
    ps = ctx.ps
    spec = ps.GeneratorSpec(ps.GeneratorKind.RANDOM_STAR, n=256)
    poly = ctx.call("io_cli", "generate", ps.generate, spec, 11)
    _mm_run(ctx, poly, ps.SimConfig(t_end=2e-3, dt=1e-4))


def _bisector_item(poly, flow):
    def run(ctx):
        ps = ctx.ps
        traj, _ = simulate(ctx, poly, flow, ps.SimConfig(**BISECTOR_CFG))
        expect_termination(ctx, traj, ps.Termination.T_END, ps.Termination.CAPTURE)
        check(ctx, "perimeter", ps.check_perimeter_monotone, traj)

    return run


def large_n(ps, seed, tracer) -> Workload:
    """Short MM and bisector runs on 128- to 1000-gons; per-step arithmetic dominates."""
    G = ps.GeneratorKind
    flows = (
        ("bisector_unit", ps.FlowSpec.bisector()),
        ("bisector_norm", ps.FlowSpec.bisector(speed_mode=ps.BisectorSpeedMode.NORM_MATCHED)),
    )
    pool = []
    for i, (kind, n) in enumerate(
        (
            (G.RANDOM_STAR, 128),
            (G.RANDOM_CONVEX, 256),
            (G.RANDOM_STAR, 384),
            (G.RANDOM_STAR, 512),
            (G.RANDOM_CONVEX, 1000),
        )
    ):
        spec = ps.GeneratorSpec(kind, n=n)
        poly = tracer.call("io_cli", "generate", ps.generate, spec, seed * 1000 + i)
        tag = f"{kind.value}{n}"
        pool.append(Item(f"mm.{tag}", _mm_item(poly)))
        # a bisector step is cheap; the O(n^2) diameter check dominates
        pool.extend(
            Item(f"{name}.{tag}", _bisector_item(poly, flow), bound_by="memory") for name, flow in flows
        )
    return Workload(pool=pool, warmup=pool[:3], audit=[Item("mm_audit.star256", _mm_audit)])


# ---------------------------------------------------------------------------
# artifact_roundtrip


def roundtrip(ctx, traj, states):
    """Write the CSV, read it back and require a bit-exact trajectory."""
    ps = ctx.ps
    path = ctx.workdir / "item.csv"
    ctx.call("io_cli", "write_csv", ps.write_trajectory_csv, traj, path)
    data = path.read_bytes()
    ctx.counts["io_cli.csv_bytes"] += len(data)
    ctx.note("csv", _sha(data))
    back = ctx.call("io_cli", "read_csv", ps.read_trajectory_csv, path)
    same = back.termination is traj.termination and len(back) == len(traj)
    same = same and np.array_equal(np.stack([s.z for s in back.states]), states)
    for name in ("times", "perimeter", "signed_area", "min_f", "min_h", "min_edge"):
        same = same and np.array_equal(getattr(back, name), getattr(traj, name))
    ctx.expect("csv_roundtrip", same)
    return back


def analyze(ctx, traj) -> dict:
    """Every check ``polyshort analyze`` offers; reports keyed by check name."""
    ps = ctx.ps
    reports = {
        "star": check(ctx, "star", ps.check_star_preservation, traj),
        "convex": check(ctx, "convex", ps.check_convexity_preservation, traj),
        "perimeter": check(ctx, "perimeter", ps.check_perimeter_monotone, traj),
        "area": check(ctx, "area", ps.check_area_monotone, traj),
    }
    try:
        series = ctx.call("analysis", "ellipse", ps.ellipse_convergence_series, traj)
    except ps.DegenerateLeadingModeError:
        ctx.note("ellipse", "n/a")
    else:
        ctx.counts["analysis.samples_checked"] += len(series)
        ctx.note("ellipse", [r for _, r in series])
    return reports


def render(ctx, traj):
    svg = ctx.call("io_cli", "render_svg", ctx.ps.render_svg, traj)
    data = svg.encode()
    ctx.counts["io_cli.svg_bytes"] += len(data)
    ctx.note("svg", _sha(data))


def _artifact_item(kind, poly):
    def run(ctx):
        ps = ctx.ps
        diam0 = ctx.call("geometry", "diameter", poly.diameter)
        cfg = ps.SimConfig(t_end=3.0, dt=0.05, record_every=1)
        traj, states = simulate(ctx, poly, ps.FlowSpec.linear(), cfg)
        expect_termination(ctx, traj, ps.Termination.T_END)
        back = roundtrip(ctx, traj, states)
        reports = analyze(ctx, back)
        for name in ("star", "perimeter") if kind == "star" else ("convex", "area", "perimeter"):
            ctx.expect(name, _passed(reports[name]))
        render(ctx, back)
        expect_centroid_fixed(ctx, states, diam0)

    return run


def _fixture_item(fixture, poly):
    def run(ctx):
        ps = ctx.ps
        diam0 = ctx.call("geometry", "diameter", poly.diameter)
        if fixture == "fig9":
            flow = ps.FlowSpec.bisector(speed_mode=ps.BisectorSpeedMode.NORM_MATCHED)
            cfg = ps.SimConfig(t_end=40.0, dt=1e-3, record_every=20, min_edge_capture=1e-3 * diam0)
        else:
            ctx.expect("simple_at_start", ctx.call("geometry", "is_simple", ps.is_simple, poly))
            flow = ps.FlowSpec.linear()
            t_end = 2.0 if fixture == "boomerang" else 1.5
            cfg = ps.SimConfig(t_end=t_end, dt=1e-3, record_every=10)
        traj, states = simulate(ctx, poly, flow, cfg)
        back = roundtrip(ctx, traj, states)
        reports = analyze(ctx, back)
        if fixture == "fig9":
            expect_termination(ctx, traj, ps.Termination.CAPTURE)
        else:
            expect_termination(ctx, traj, ps.Termination.T_END)
            expect_centroid_fixed(ctx, states, diam0)
        if fixture == "boomerang":
            area = reports["area"]
            ctx.expect("area_grows", area is not None and not area.passed and area.first_violation_time <= 0.05)
        if fixture == "embedded_loss":
            lost = ps.TrajectoryPredicate.LOSES_SIMPLICITY
            t_cross = ctx.call("analysis", "detect_first", ps.detect_first, back, lost)
            ctx.note("loses_simplicity_at", t_cross)
            ctx.expect("loses_simplicity", t_cross is not None)
        render(ctx, back)

    return run


def artifact_roundtrip(ps, seed, tracer) -> Workload:
    """Densely recorded linear runs written to CSV, read back, analyzed and drawn."""
    G = ps.GeneratorKind
    pool = []
    for n in range(12, 21):
        for kind, gkind in (("star", G.RANDOM_STAR), ("convex", G.RANDOM_CONVEX)):
            spec = ps.GeneratorSpec(gkind, n=n)
            poly = tracer.call("io_cli", "generate", ps.generate, spec, seed * 1000 + len(pool))
            pool.append(Item(f"{kind}{n}", _artifact_item(kind, poly)))
    for fixture, gkind in (("boomerang", G.BOOMERANG), ("embedded_loss", G.EMBEDDED_LOSS)):
        poly = tracer.call("io_cli", "generate", ps.generate, ps.GeneratorSpec(gkind), 0)
        pool.append(Item(fixture, _fixture_item(fixture, poly)))
    pool.append(Item("fig9", _fixture_item("fig9", ps.Polygon(FIG9_VERTICES))))
    return Workload(pool=pool, warmup=pool[:2])


WORKLOADS = {
    "linear_ensemble": linear_ensemble,
    "large_n": large_n,
    "artifact_roundtrip": artifact_roundtrip,
}
