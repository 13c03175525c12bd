"""Acceptance suite: eleven numbered criteria, one printed verdict line each.

Ensembles are built once per module and shared (criteria 5 and 9 audit the
trajectories produced for criteria 2, 3, 4, and 6).  Each criterion with a
runtime budget counts the time spent building its own ensemble.
"""

import time
from dataclasses import dataclass

import numpy as np
import pytest

from polyshort.analysis import (
    check_area_monotone,
    check_convexity_preservation,
    check_perimeter_monotone,
    ellipse_convergence_series,
    perimeter_rate,
)
from polyshort.flows import FlowSpec, velocity
from polyshort.geometry import (
    ConvexityTag,
    Polygon,
    StarTag,
    classify_convexity,
    classify_star,
    is_simple,
    perimeter,
)
from polyshort.io_cli import GeneratorKind, GeneratorSpec, cli_main, generate
from polyshort.simulate import (
    SimConfig,
    Termination,
    TrajectoryPredicate,
    detect_first,
    run,
)
from polyshort.spectral import closed_form_state, decompose, eigenvalues, leading_decay_rate


_CAPSYS = None


@pytest.fixture(autouse=True)
def _expose_capsys(capsys):
    # verdict lines must reach the terminal even under default capture
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def verdict(num, ok, detail):
    line = f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    if _CAPSYS is None:
        print(line)
    else:
        with _CAPSYS.disabled():
            print(line)
    assert ok, f"criterion {num} failed: {detail}"


@dataclass(frozen=True)
class Ensemble:
    trajectories: list
    build_seconds: float
    initial_diameters: list


def collapse_config(dt=0.05):
    return SimConfig(t_end=400.0, dt=dt, stop_diameter=1e-4, record_every=10)


@pytest.fixture(scope="module")
def star_runs():
    t0 = time.perf_counter()
    trajs, diams = [], []
    for i in range(100):
        poly = generate(GeneratorSpec(GeneratorKind.RANDOM_STAR, n=4 + i % 9), 1000 + i)
        diams.append(poly.diameter())
        trajs.append(run(poly, FlowSpec.linear(), collapse_config()))
    return Ensemble(trajs, time.perf_counter() - t0, diams)


@pytest.fixture(scope="module")
def convex_runs():
    t0 = time.perf_counter()
    trajs, diams = [], []
    for i in range(100):
        poly = generate(GeneratorSpec(GeneratorKind.RANDOM_CONVEX, n=5 + i % 8), 2000 + i)
        diams.append(poly.diameter())
        trajs.append(run(poly, FlowSpec.linear(), collapse_config()))
    return Ensemble(trajs, time.perf_counter() - t0, diams)


@pytest.fixture(scope="module")
def flat_vertex_runs():
    t0 = time.perf_counter()
    trajs, diams = [], []
    for i in range(20):
        base = generate(GeneratorSpec(GeneratorKind.RANDOM_CONVEX, n=5 + i % 6), 3000 + i)
        z = base.z
        # split the first edge at its midpoint: one exactly flat vertex
        poly = Polygon(np.insert(z, 1, 0.5 * (z[0] + z[1])))
        diams.append(poly.diameter())
        trajs.append(run(poly, FlowSpec.linear(), collapse_config()))
    return Ensemble(trajs, time.perf_counter() - t0, diams)


@pytest.fixture(scope="module")
def oracle_runs():
    # 20 random 12-gons scaled to unit diameter, integrated at dt = 1e-3
    t0 = time.perf_counter()
    trajs, diams, polys = [], [], []
    for i in range(20):
        raw = generate(GeneratorSpec(GeneratorKind.RANDOM_STAR, n=12), 4000 + i)
        poly = Polygon(raw.z / raw.diameter())
        polys.append(poly)
        diams.append(poly.diameter())
        trajs.append(run(poly, FlowSpec.linear(), SimConfig(t_end=5.0, dt=1e-3, record_every=50)))
    ens = Ensemble(trajs, time.perf_counter() - t0, diams)
    return ens, polys


@pytest.fixture(scope="module")
def ellipse_runs():
    t0 = time.perf_counter()
    trajs, diams = [], []
    t_end = 6.0 / leading_decay_rate(8)
    for i in range(20):
        poly = generate(GeneratorSpec(GeneratorKind.RANDOM_STAR, n=8), 5000 + i)
        diams.append(poly.diameter())
        trajs.append(run(poly, FlowSpec.linear(), SimConfig(t_end=t_end, dt=0.05, record_every=10)))
    return Ensemble(trajs, time.perf_counter() - t0, diams)


def test_criterion_1_eigenvalue_exactness():
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(3, 65):
        a = np.zeros((n, n))
        for i in range(n):
            a[i, (i + 1) % n] += 0.5
            a[i, (i - 1) % n] += 0.5
            a[i, i] -= 1.0
        dense = np.sort(np.linalg.eigvals(a).real)
        worst = max(worst, float(np.max(np.abs(dense - np.sort(eigenvalues(n))))))
    elapsed = time.perf_counter() - t0
    verdict(
        1,
        worst < 1e-10 and elapsed < 5.0,
        f"eigenvalues vs dense oracle n=3..64, max err {worst:.3e}, {elapsed:.2f}s (< 5s)",
    )


def test_criterion_2_rk4_vs_closed_form(oracle_runs):
    ens, polys = oracle_runs
    t0 = time.perf_counter()
    worst = 0.0
    for poly, traj in zip(polys, ens.trajectories):
        dec = decompose(poly)
        for t, s in zip(traj.times, traj.states):
            err = float(np.abs(s.z - closed_form_state(dec, float(t)).z).max())
            worst = max(worst, err)
    elapsed = ens.build_seconds + (time.perf_counter() - t0)
    verdict(
        2,
        worst < 1e-6 and elapsed < 10.0,
        f"RK4 dt=1e-3 vs closed form, 20 unit-diameter 12-gons over [0,5], "
        f"max coord err {worst:.3e} (< 1e-6), {elapsed:.2f}s (< 10s)",
    )


def test_criterion_3_star_preservation(star_runs):
    t0 = time.perf_counter()
    violations = 0
    samples = 0
    for traj in star_runs.trajectories:
        assert traj.termination is Termination.COLLAPSED
        for s in traj.states:
            samples += 1
            if classify_star(s).tag is not StarTag.CCW_STAR:
                violations += 1
    elapsed = star_runs.build_seconds + (time.perf_counter() - t0)
    verdict(
        3,
        violations == 0 and elapsed < 30.0,
        f"100 star polygons to diameter 1e-4: {violations} violations in "
        f"{samples} samples, {elapsed:.2f}s (< 30s)",
    )


def test_criterion_4_convexity_preservation(convex_runs, flat_vertex_runs):
    t0 = time.perf_counter()
    violations = 0
    samples = 0
    for traj in convex_runs.trajectories:
        for s in traj.states:
            samples += 1
            if classify_convexity(s).tag is not ConvexityTag.STRICTLY_CONVEX:
                violations += 1
    flat_ok = 0
    for traj in flat_vertex_runs.trajectories:
        start = classify_convexity(traj.states[0]).tag
        rep = check_convexity_preservation(traj)
        if start is ConvexityTag.CONVEX and rep.passed:
            flat_ok += 1
    elapsed = (
        convex_runs.build_seconds
        + flat_vertex_runs.build_seconds
        + (time.perf_counter() - t0)
    )
    verdict(
        4,
        violations == 0 and flat_ok == 20 and elapsed < 30.0,
        f"100 strictly convex stay strict ({violations} violations in {samples} samples); "
        f"{flat_ok}/20 flat-vertex starts strict from the first t>0 sample, "
        f"{elapsed:.2f}s (< 30s)",
    )


def test_criterion_5_perimeter_monotone(
    star_runs, convex_runs, flat_vertex_runs, oracle_runs, ellipse_runs
):
    # collapse runs must also end below 1e-3 of the starting perimeter; the
    # fixed-horizon ensembles are audited for strict decrease
    ens2, _ = oracle_runs
    groups = [star_runs, convex_runs, flat_vertex_runs, ens2, ellipse_runs]
    failures = 0
    checked = 0
    worst_margin = np.inf
    collapsed = 0
    for ens in groups:
        for traj in ens.trajectories:
            rep = check_perimeter_monotone(traj)
            checked += 1
            worst_margin = min(worst_margin, rep.worst_margin)
            if not rep.passed:
                failures += 1
            if traj.termination is Termination.COLLAPSED:
                collapsed += 1
                assert traj.perimeter[-1] < 1e-3 * traj.perimeter[0]
    verdict(
        5,
        failures == 0 and collapsed == 220,
        f"perimeter strictly decreasing on {checked} trajectories "
        f"(worst margin {worst_margin:.3e}); all {collapsed} collapse runs "
        f"ended below 1e-3 of the initial perimeter",
    )


def test_criterion_6_ellipse_convergence(ellipse_runs):
    rate = leading_decay_rate(8)
    worst_final = 0.0
    monotone_breaks = 0
    for traj in ellipse_runs.trajectories:
        series = ellipse_convergence_series(traj)
        t_last, r_last = series[-1]
        assert t_last * rate >= 6.0 - 1e-9
        worst_final = max(worst_final, r_last)
        tail = [(t, r) for t, r in series if t * rate >= 1.0]
        for (_, r0), (_, r1) in zip(tail, tail[1:]):
            if r1 > r0 * (1.0 + 1e-12) + 1e-15:
                monotone_breaks += 1
    verdict(
        6,
        worst_final < 1e-3 and monotone_breaks == 0,
        f"20 random 8-gons: worst residual at tau=6 is {worst_final:.3e} (< 1e-3), "
        f"{monotone_breaks} monotonicity breaks for tau >= 1",
    )


def test_criterion_7_bisector_optimality():
    rng = np.random.default_rng(20260816)
    worst_gap = -np.inf
    fd_totals = {1e-5: 0.0, 1e-6: 0.0, 1e-7: 0.0}
    for i in range(50):
        if i % 2:
            spec = GeneratorSpec(GeneratorKind.RANDOM_STAR, n=4 + i % 9)
        else:
            spec = GeneratorSpec(GeneratorKind.RANDOM_CONVEX, n=5 + i % 6)
        poly = generate(spec, 7000 + i)
        u = velocity(poly, FlowSpec.bisector()).velocities
        rate_u = perimeter_rate(poly, u)
        for _ in range(20):
            v = np.abs(u) * np.exp(2j * np.pi * rng.random(poly.n))
            worst_gap = max(worst_gap, rate_u - perimeter_rate(poly, v))
        p0 = perimeter(poly)
        for h in fd_totals:
            fd = (perimeter(Polygon(poly.z + h * u)) - p0) / h
            fd_totals[h] += abs(fd - rate_u)
    ratio_a = fd_totals[1e-5] / fd_totals[1e-6]
    ratio_b = fd_totals[1e-6] / fd_totals[1e-7]
    ok = worst_gap <= 1e-12 and 8.0 < ratio_a < 12.0 and 8.0 < ratio_b < 12.0
    verdict(
        7,
        ok,
        f"bisector rate beats 1000 magnitude-matched fields (worst gap {worst_gap:.3e}"
        f" <= 1e-12); FD error scales linearly in h (decade ratios "
        f"{ratio_a:.2f}, {ratio_b:.2f})",
    )


def test_criterion_8_counterexample_fixtures():
    boom = generate(GeneratorSpec(GeneratorKind.BOOMERANG), 0)
    loss = generate(GeneratorSpec(GeneratorKind.EMBEDDED_LOSS), 0)
    simple0 = is_simple(boom) and is_simple(loss)
    traj8 = run(boom, FlowSpec.linear(), SimConfig(t_end=2.0, dt=1e-3, record_every=10))
    rep = check_area_monotone(traj8)
    traj10 = run(loss, FlowSpec.linear(), SimConfig(t_end=1.5, dt=1e-3, record_every=10))
    t_cross = detect_first(traj10, TrajectoryPredicate.LOSES_SIMPLICITY)
    ok = (
        simple0
        and not rep.passed
        and rep.first_violation_time is not None
        and rep.first_violation_time <= 0.05
        and t_cross is not None
    )
    verdict(
        8,
        ok,
        f"fig8 fixture: area check FAILED at t={rep.first_violation_time} (<= 0.05); "
        f"fig10 fixture: loses simplicity at t={t_cross}; both simple at t=0",
    )


def test_criterion_9_centroid_conservation(
    oracle_runs, star_runs, convex_runs, flat_vertex_runs, ellipse_runs
):
    ens2, _ = oracle_runs
    worst_rel = 0.0
    audited = 0
    for ens in (ens2, star_runs, convex_runs, flat_vertex_runs, ellipse_runs):
        for traj, diam0 in zip(ens.trajectories, ens.initial_diameters):
            g = np.array([s.z.mean() for s in traj.states])
            worst_rel = max(worst_rel, float(np.abs(g - g[0]).max()) / diam0)
            audited += 1
    verdict(
        9,
        worst_rel <= 1e-9,
        f"centroid drift across {audited} linear trajectories: worst "
        f"{worst_rel:.3e} of initial diameter (<= 1e-9)",
    )


def test_criterion_10_collinearity_invariance():
    worst_rel = 0.0
    for i in range(10):
        poly = generate(GeneratorSpec(GeneratorKind.COLLINEAR, n=5 + i % 4), 6000 + i)
        traj = run(poly, FlowSpec.linear(), SimConfig(t_end=5.0, dt=0.01, record_every=20))
        z0 = traj.states[0].z
        d = np.abs(z0[:, None] - z0[None, :])
        a, b = np.unravel_index(int(d.argmax()), d.shape)
        direction = (z0[b] - z0[a]) / abs(z0[b] - z0[a])
        dev = max(
            float(np.abs(((s.z - z0[a]) * np.conj(direction)).imag).max())
            for s in traj.states
        )
        worst_rel = max(worst_rel, dev / float(d.max()))
    verdict(
        10,
        worst_rel <= 1e-9,
        f"10 collinear configurations over t in [0,5]: worst perpendicular "
        f"deviation {worst_rel:.3e} of diameter (<= 1e-9)",
    )


def test_criterion_11_determinism(tmp_path, capsys):
    ja, jb = tmp_path / "a.json", tmp_path / "b.json"
    code_a = cli_main(["validate", "--seed", "1", "--out-json", str(ja)])
    code_b = cli_main(["validate", "--seed", "1", "--out-json", str(jb)])
    da, db = tmp_path / "figa", tmp_path / "figb"
    assert cli_main(["reproduce", "fig7", "--out-dir", str(da)]) == 0
    assert cli_main(["reproduce", "fig7", "--out-dir", str(db)]) == 0
    capsys.readouterr()
    json_same = ja.read_bytes() == jb.read_bytes()
    svg_same = (da / "fig7.svg").read_bytes() == (db / "fig7.svg").read_bytes()
    verdict(
        11,
        code_a == 0 and code_b == 0 and json_same and svg_same,
        f"validate --seed 1 twice: byte-identical JSON ({json_same}); "
        f"reproduce fig7 twice: byte-identical SVG ({svg_same})",
    )
