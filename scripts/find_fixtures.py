"""Randomized search for the two counterexample fixtures.

Run from the repository root:

    python3 scripts/find_fixtures.py [--seed N]

The script searches two shape families and prints the winning vertex lists as
Python literals ready to paste into ``polyshort.generators``:

* boomerang: V-shaped solids with a densely sampled outer boundary and a
  coarse, deeply notched inner one.  Candidates are scored by the exact
  initial growth rate of unsigned area under the linear flow, computed
  modally: with A(t) = (n/2) sum_k |c_k|^2 e^{2 lambda_k t} sin(2 pi k / n),
  the rate at t=0 is n sum_k |c_k|^2 lambda_k sin(2 pi k/n).  A candidate is
  kept only if it is simple, nonconvex, its unsigned area grows at the first
  recorded sample pair (dt 1e-3, stride 10), and it stays simple over the
  whole displayed window t in [0, 2].

* embedded loss: an annular strip whose outer arc is sampled coarsely (those
  vertices move fast under the linear flow) and whose inner arc is sampled
  densely (nearly collinear, so they barely move).  Kept only if simple at
  t=0 and the simulation actually crosses itself within t in [0, 1.5].

Both searches are deterministic for a given seed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import polyshort as ps
from polyshort.generators import SplitMix64


def area_growth_rate(poly) -> float:
    """sign(A) * dA/dt at t=0 under the linear flow, computed exactly."""
    dec = ps.decompose(poly)
    n = dec.n
    k = np.arange(n)
    lam = dec.eigenvalues
    s = np.sin(2.0 * np.pi * k / n)
    mags2 = np.abs(dec.modal_coeffs) ** 2
    area = 0.5 * n * float(np.sum(mags2 * s))
    rate = n * float(np.sum(mags2 * lam * s))
    return float(np.sign(area)) * rate


def make_boomerang(rng: SplitMix64):
    """V-shaped solid with a dense outer boundary and a coarse notched inner one.

    Straight-line interior vertices contribute nothing to the area rate, convex
    corners lose area like the square of their neighbor spacing, and the reflex
    notch gains like the square of its spacing; dense-outside/coarse-inside is
    what tips the balance toward growth.
    """
    a = rng.uniform(1.5, 2.5)  # half span
    h = rng.uniform(1.0, 2.0)  # tip height
    b = rng.uniform(0.3, 1.2)  # outer bend drop below the tips
    depth = rng.uniform(0.5, 0.95)  # notch depth fraction
    m_out = 3 + int(rng.uniform(0.0, 5.0))  # interior points per outer arm
    m_in = int(rng.uniform(0.0, 2.0))  # interior points per inner arm

    tip_l = complex(-a, h)
    tip_r = complex(a, h)
    bend = complex(0.0, -b)
    notch = complex(0.0, h - depth * (h + b))

    def walk(p, q, m):
        # p exclusive, q inclusive, m evenly spaced interior points
        return [p + (q - p) * j / (m + 1) for j in range(1, m + 2)]

    verts = [tip_l]
    verts += walk(tip_l, bend, m_out)
    verts += walk(bend, tip_r, m_out)
    verts += walk(tip_r, notch, m_in)
    verts += walk(notch, tip_l, m_in)[:-1]
    return ps.Polygon(verts)


def find_boomerang(seed: int, attempts: int = 4000):
    rng = SplitMix64(seed)
    best = None
    best_rate = 0.0
    for _ in range(attempts):
        try:
            poly = make_boomerang(rng)
        except ValueError:
            continue
        if not ps.is_simple(poly):
            continue
        if ps.classify_convexity(poly).tag is not ps.ConvexityTag.NOT_CONVEX:
            continue
        rate = area_growth_rate(poly)
        if rate <= best_rate:
            continue
        traj = ps.run(
            poly, ps.FlowSpec.linear(), ps.SimConfig(t_end=2.0, dt=1e-3, record_every=10)
        )
        if not all(ps.is_simple(s) for s in traj.states):
            continue
        aa = np.abs(traj.signed_area)
        if not (aa[1] > aa[0] * (1.0 + 1e-9)):
            continue
        best, best_rate = poly, rate
    return best, best_rate


def make_clustered_strip(rng: SplitMix64):
    """Annular strip, sparse outside and dense inside: embedded-loss family."""
    n_out = 3 + int(rng.uniform(0.0, 3.0))  # interior coarse samples
    n_in = 9 + int(rng.uniform(0.0, 8.0))  # dense inner cluster
    radius = 2.0
    gap = rng.uniform(0.04, 0.16)
    spread = rng.uniform(0.6, 1.0) * np.pi  # angular extent of the strip

    th_out = np.linspace(0.0, spread, n_out + 2)
    th_in = np.linspace(spread, 0.0, n_in + 2)[1:-1]
    outer = radius * np.exp(1j * th_out)
    inner = (radius - gap) * np.exp(1j * th_in)
    return ps.Polygon(np.concatenate((outer, inner)))


def find_embedded_loss(seed: int, attempts: int = 2000):
    rng = SplitMix64(seed)
    for _ in range(attempts):
        try:
            poly = make_clustered_strip(rng)
        except ValueError:
            continue
        if not ps.is_simple(poly):
            continue
        traj = ps.run(
            poly, ps.FlowSpec.linear(), ps.SimConfig(t_end=1.5, dt=1e-3, record_every=10)
        )
        t_loss = ps.detect_first(traj, ps.TrajectoryPredicate.LOSES_SIMPLICITY)
        if t_loss is None:
            continue
        return poly, t_loss
    return None, None


def print_vertices(name: str, poly) -> None:
    print(f"{name} = [")
    for v in poly.z:
        print(f"    ({float(v.real)!r}, {float(v.imag)!r}),")
    print("]")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=20260816)
    args = parser.parse_args()

    boo, rate = find_boomerang(args.seed)
    if boo is None:
        print("boomerang search failed", file=sys.stderr)
        return 1
    traj = ps.run(
        boo, ps.FlowSpec.linear(), ps.SimConfig(t_end=2.0, dt=1e-3, record_every=10)
    )
    aa = np.abs(traj.signed_area)
    peak = float(traj.times[int(np.argmax(aa))])
    print(f"# boomerang: n={boo.n}, initial d|A|/dt={rate:.6g}, |A| peaks at t={peak:.3g}")
    print_vertices("_BOOMERANG_VERTICES", boo)
    print()

    emb, t_loss = find_embedded_loss(args.seed)
    if emb is None:
        print("embedded-loss search failed", file=sys.stderr)
        return 1
    print(f"# embedded loss: n={emb.n}, first self-intersection at t={t_loss:.3g}")
    print_vertices("_EMBEDDED_LOSS_VERTICES", emb)
    return 0


if __name__ == "__main__":
    sys.exit(main())
