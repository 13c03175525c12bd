"""Deterministic polygon generators and the frozen counterexample fixtures.

The only randomness source is :class:`SplitMix64`, seeded explicitly and
identical on every platform, so :func:`generate` returns the same polygon for
the same spec and seed everywhere.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .geometry import ConvexityTag, Polygon, StarTag

__all__ = [
    "MAX_VERTICES",
    "SplitMix64",
    "GeneratorKind",
    "GeneratorSpec",
    "GenerationFailedError",
    "generate",
]

_MASK64 = (1 << 64) - 1
# SplitMix64's gamma, mixing multipliers and shifts as np.uint64, so that array arithmetic wraps mod 2**64
_GAMMA, _MIX1, _MIX2 = np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_S11, _S27, _S30, _S31 = np.uint64(11), np.uint64(27), np.uint64(30), np.uint64(31)


class SplitMix64:
    """Deterministic 64-bit generator (SplitMix64).

    The state advances by the golden gamma ``0x9E3779B97F4A7C15`` and each
    output is the new state put through two xor-shift-multiply mixing rounds
    (constants ``0xBF58476D1CE4E5B9`` and ``0x94D049BB133111EB``).  Output j
    depends on the seed and j alone, so a block of outputs is wrapping
    ``uint64`` array arithmetic, identical on every platform, and bulk and
    single draws are one stream.  ``uniform`` uses the top 53 bits, giving
    doubles equidistributed on ``[0, 1)``.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK64

    def next_u64s(self, k: int) -> np.ndarray:
        """The next ``k`` outputs as a ``uint64`` array; ``k`` is a nonnegative integer, not a bool."""
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 0:
            raise ValueError(f"the number of draws must be a nonnegative integer, not {k!r}")
        x = np.uint64(self._state) + np.arange(1, k + 1, dtype=np.uint64) * _GAMMA
        self._state = (self._state + int(k) * int(_GAMMA)) & _MASK64
        x = (x ^ (x >> _S30)) * _MIX1
        x = (x ^ (x >> _S27)) * _MIX2
        return x ^ (x >> _S31)

    def next_u64(self) -> int:
        return int(self.next_u64s(1)[0])

    def uniform(self, lo: float = 0.0, hi: float = 1.0, size: int | None = None):
        """One float, or an array of the next ``size`` draws, on ``[lo, hi)``."""
        u = lo + (hi - lo) * ((self.next_u64s(1 if size is None else size) >> _S11) * 2.0**-53)
        return float(u[0]) if size is None else u


class GenerationFailedError(Exception):
    """No candidate satisfied the generator's postcondition within the attempt cap."""


class GeneratorKind(enum.Enum):
    REGULAR = "regular"
    RANDOM_STAR = "random_star"
    RANDOM_CONVEX = "random_convex"
    COLLINEAR = "collinear"
    BOOMERANG = "boomerang"
    EMBEDDED_LOSS = "embedded_loss"


_FIXTURE_KINDS = (GeneratorKind.BOOMERANG, GeneratorKind.EMBEDDED_LOSS)

# Vertex counts from outside the program (generator n, scenario vertex list, CSV
# header, spectrum --n) lie in [3, MAX_VERTICES]: this bounds the n x n diameter
# of Polygon.diameter and of the rows whose diameter bracket decides nothing.
MAX_VERTICES = 1000


def _check_n(n, what: str) -> None:
    if not isinstance(n, (int, np.integer)) or not 3 <= n <= MAX_VERTICES:
        raise ValueError(f"{what} must be within [3, {MAX_VERTICES}] and an integer, not {n}")


@dataclass(frozen=True)
class GeneratorSpec:
    """What to generate.  ``n`` applies to the parametric kinds (3..MAX_VERTICES), ``radius_range``
    to RANDOM_STAR alone; the two fixture kinds carry their own vertex lists."""

    kind: GeneratorKind
    n: int | None = None
    radius_range: tuple = (0.5, 1.5)

    def __post_init__(self):
        if not isinstance(self.kind, GeneratorKind) or geometry._has_bool(self.radius_range):
            raise TypeError(f"kind must be a GeneratorKind, not {self.kind!r}, and radius_range must not hold bools")
        lo, hi = self.radius_range
        if not 0.0 < lo <= hi < np.inf:
            raise ValueError("radius_range must be 0 < lo <= hi < inf")
        if self.kind in _FIXTURE_KINDS:
            if self.n is not None:
                raise ValueError(f"{self.kind.value} is a fixed fixture; n does not apply")
        else:
            _check_n(self.n, "n")


_MAX_ATTEMPTS = 1000

# Counterexample fixtures, found by scripts/find_fixtures.py (seed 20260816)
# and frozen here as explicit vertex lists.
# BOOMERANG: simple, nonconvex V with a dense outer boundary and a deep coarse
# notch; its unsigned area initially grows under the linear flow (exact
# initial rate 6.44, peak near t = 0.98), and it stays simple over t in [0,2].
# EMBEDDED_LOSS: annular strip, outer arc sampled coarsely (fast vertices) and
# inner arc densely (slow); the outer edge sweeps through the inner edge and
# simplicity is lost near t = 0.77.
_BOOMERANG_VERTICES = [
    (-2.3979518217227085, 1.9914834562942514),
    (-1.7984638662920314, 1.1951509216585492),
    (-1.1989759108613542, 0.398818387022847),
    (-0.5994879554306771, -0.397514147612855),
    (0.0, -1.1938466822485574),
    (0.5994879554306771, -0.3975141476128552),
    (1.1989759108613542, 0.398818387022847),
    (1.7984638662920314, 1.195150921658549),
    (2.3979518217227085, 1.9914834562942514),
    (0.0, -0.9548417057312815),
]
_EMBEDDED_LOSS_VERTICES = [
    (2.0, 0.0),
    (1.8507342112183203, 0.7581443658209841),
    (1.4252171205738977, 1.4031237148673126),
    (0.7869638722418579, 1.838664695855691),
    (0.031243840776952282, 1.9997559407121421),
    (-0.7291398272260944, 1.8623520377073453),
    (-0.434655593991989, 1.8209229710421517),
    (-0.17843991944904714, 1.8635571220127716),
    (0.08121066947889923, 1.870318363012109),
    (0.33929797762488684, 1.8410765421994728),
    (0.5908539025033583, 1.776394555765711),
    (0.8310360687777516, 1.6775175123520845),
    (1.05522104251857, 1.5463487650861716),
    (1.2590933309056997, 1.3854132726108466),
    (1.4387284541576724, 1.1978089943954253),
    (1.590668490578404, 0.9871472559545141),
    (1.7119886405021538, 0.7574832319260228),
    (1.8003535278009186, 0.5132378851880407),
    (1.8540621551673195, 0.25911286466291145),
]


def _regular(n: int) -> Polygon:
    return Polygon(np.exp(2j * np.pi * np.arange(n) / n))


def _random_star(n: int, radius_range, rng: SplitMix64) -> Polygon:
    lo, hi = radius_range
    for _ in range(_MAX_ATTEMPTS):
        # positive simplex of turning angles, bounded away from 0 and pi
        raw = 0.15 + rng.uniform(size=n)
        alpha = 2.0 * np.pi * raw / raw.sum()
        if alpha.max() >= np.pi - 0.05:
            continue
        u = rng.uniform(size=n + 1)  # theta0, n radii: mapped as uniform(lo, hi) maps them
        theta = 2.0 * np.pi * u[0] + np.concatenate(([0.0], np.cumsum(alpha[:-1])))
        r = lo + (hi - lo) * u[1:]
        poly = Polygon(r * np.exp(1j * theta))
        if geometry.classify_star(poly).tag is StarTag.CCW_STAR:
            return poly
    raise GenerationFailedError("no star candidate classified CCW_STAR")


def _random_convex(n: int, rng: SplitMix64) -> Polygon:
    for _ in range(_MAX_ATTEMPTS):
        u = rng.uniform(size=2 * n + 1)  # n angles, theta0, n jitters
        # sorted angles with spacing at least 0.4*pi/n via a positive simplex
        raw = 0.25 + u[:n]
        alpha = 2.0 * np.pi * raw / raw.sum()
        ang = 2.0 * np.pi * u[n] + np.concatenate(([0.0], np.cumsum(alpha[:-1])))
        u = -1.0 + 2.0 * u[n + 1 :]
        # jitter the radii, re-verifying convexity at each rung; distinct
        # points on a circle in angular order are strictly convex, so the
        # zero-jitter rung cannot miss
        for shrink in (1.0, 0.25, 0.0625, 0.0):
            poly = Polygon((1.0 + 0.1 * shrink * u) * np.exp(1j * ang))
            if geometry.classify_convexity(poly).tag is ConvexityTag.STRICTLY_CONVEX:
                return poly
    raise GenerationFailedError("no candidate classified STRICTLY_CONVEX")


def _collinear(n: int, rng: SplitMix64) -> Polygon:
    # n uniform draws on [-1, 1] have a smallest gap near 2 / n**2, so the
    # spacing floor shrinks with n; it is 2e-3 for n <= 10
    min_gap = min(2e-3, 0.2 / n**2)
    for _ in range(_MAX_ATTEMPTS):
        u = rng.uniform(size=n + 3)
        theta, base = float(np.pi * u[0]), complex(-0.5 + u[1], -0.5 + u[2])
        xs = -1.0 + 2.0 * u[3:]
        if np.diff(np.sort(xs)).min() < min_gap:
            continue
        direction = complex(math.cos(theta), math.sin(theta))
        poly = Polygon(base + xs * direction)
        # postcondition: perpendicular spread is rounding noise only
        offs = (poly.z - base) * np.conj(direction)
        spread = np.abs(offs.imag).max()
        if geometry._by_diameter(poly.z[None], lambda d: spread <= geometry.PREDICATE_TOL * d)[0]:
            return poly
    raise GenerationFailedError("no collinear candidate satisfied the line test")


def generate(spec: GeneratorSpec, seed: int) -> Polygon:
    """Deterministic polygon construction; identical output for identical inputs.

    Postconditions are asserted per kind: RANDOM_STAR classifies CCW_STAR,
    RANDOM_CONVEX classifies STRICTLY_CONVEX, COLLINEAR lies on one line.
    Raises :class:`GenerationFailedError` after 1000 rejected candidates.
    """
    rng = SplitMix64(seed)
    if spec.kind is GeneratorKind.REGULAR:
        return _regular(spec.n)
    if spec.kind is GeneratorKind.RANDOM_STAR:
        return _random_star(spec.n, spec.radius_range, rng)
    if spec.kind is GeneratorKind.RANDOM_CONVEX:
        return _random_convex(spec.n, rng)
    if spec.kind is GeneratorKind.COLLINEAR:
        return _collinear(spec.n, rng)
    if spec.kind is GeneratorKind.BOOMERANG:
        return Polygon(_BOOMERANG_VERTICES)
    return Polygon(_EMBEDDED_LOSS_VERTICES)
