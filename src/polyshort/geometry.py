"""Polygons in the complex plane: primitives, angle data, and classification.

A point is a Python ``complex``; the :class:`Polygon` constructor also accepts
``(x, y)`` pairs.  A polygon is a cyclic circuit of at least three pairwise
distinct vertices.  The circuit is allowed to self-intersect; :func:`is_simple`
tells the cases apart.

All predicates work in floating point with scale-aware tolerances.  The two
turning quantities

    star_function(a, b, c)   = Im{ conj(a - b) * (c - b) }
    convex_function(p, v, q) = Im{ (p - v) * conj(q - v) }

scale quadratically with length, so sign tests compare them against
``PREDICATE_TOL`` times a squared length: the diameter in the star and convexity
classes, the larger side's L1 length at a straight vertex (a fold, or a collinear
circumcircle triple).  Angle-sum tests use the absolute tolerance ``ANGLE_SUM_TOL``.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PREDICATE_TOL",
    "ANGLE_SUM_TOL",
    "Polygon",
    "Circumcircle",
    "StarTag",
    "StarClass",
    "ConvexityTag",
    "ConvexityClass",
    "centroid",
    "perimeter",
    "signed_area",
    "star_function",
    "convex_function",
    "star_values",
    "convexity_values",
    "classify_star",
    "classify_convexity",
    "is_simple",
    "circumcircle",
]

# Sign tests on quadratically scaling quantities use this times a squared length,
# tests on lengths this times a length (see the module docstring).
PREDICATE_TOL = 1e-12

# Absolute tolerance on winding/angle sums, in radians.
ANGLE_SUM_TOL = 1e-9

_TWO_PI = 2.0 * np.pi

# A stacked pass forms at most this many values at once, unless one row alone
# has more: pairwise distances, side pairs, a linear run's vertex positions.
_BLOCK = 4096

# _diameter_bracket widens its bracket by this times (hi + 2**-1022).  The
# diameter is the largest width over all directions (Preparata and Shamos
# 1985): every vertex pair is at most W apart in x and H in y, and the pairs
# that span W and H are at least that far apart.  Each computed extent is one
# subtraction, and _diameters forms its coordinate differences by the same
# subtractions; rounding is monotone, so none exceeds W in x or H in y, and the
# pairs that span W and H reach them bit for bit.  A hypot (numpy's complex abs
# too: 2 ulps from a correctly rounded one at most, as measured) lies within
# 4 eps of exact, plus 4 * 2**-1074 below the normal range.  So, hi being the
# computed hypot(W, H), _diameters lies between max(W, H) less 4 eps hi +
# 2**-1072 and hi plus 9 eps hi + 2**-1071; 16 eps (hi + 2**-1022) covers both,
# the margin's own rounding and subnormal rows (16 eps 2**-1022 = 2**-1070).  A
# NaN or infinite coordinate, or an extent that overflows, makes lo NaN.
_BRACKET_ULPS = 16.0 * np.finfo(np.float64).eps


_COMPLEX = np.dtype(np.complex128)
_new = object.__new__


def _has_bool(v) -> bool:
    # whether a bool hides in the vertex sequence v: numpy promotes one among numbers to 1 or 0
    if isinstance(v, np.ndarray):
        return v.dtype.kind == "b" or (v.dtype.kind == "O" and any(map(_has_bool, v.flat)))
    if isinstance(v, (list, tuple)):
        return any(map(_has_bool, v))
    return isinstance(v, (bool, np.bool_))


def _as_complex_vertices(vertices) -> np.ndarray:
    arr = np.asarray(vertices)
    if arr.ndim == 2 and arr.shape[-1] == 2:
        if arr.dtype.kind not in "iufO" or _has_bool(vertices):
            raise TypeError("vertex coordinates must be real numbers")
        # assigned, not x + 1j * y: 1j * inf multiplies 0 by inf and warns
        z = np.empty(len(arr), dtype=np.complex128)
        z.real, z.imag = arr[:, 0], arr[:, 1]
        return z
    if arr.dtype.kind not in "iufcO" or _has_bool(vertices):
        raise TypeError("vertices must be numbers")
    return np.array(arr, dtype=np.complex128)


class Polygon:
    """Cyclic circuit of ``n >= 3`` pairwise distinct vertices.

    Parameters
    ----------
    vertices : sequence of complex or of (x, y) pairs
        Vertex coordinates in circuit order.  Indices wrap modulo ``n``
        everywhere in this package.

    Raises
    ------
    ValueError
        If fewer than three vertices are given, any coordinate is non-finite,
        or two vertices compare exactly equal.  Near-coincident vertices are
        allowed; exact duplicates never are.
    """

    __slots__ = ("z",)

    def __init__(self, vertices):
        z = _as_complex_vertices(vertices)
        if z.ndim != 1 or z.size < 3:
            raise ValueError("a polygon needs at least 3 vertices")
        if not np.isfinite(z).all():
            raise ValueError("polygon vertices must be finite")
        if np.unique(z).size != z.size:
            raise ValueError("polygon vertices must be pairwise distinct")
        z.flags.writeable = False
        self.z = z

    @classmethod
    def _wrap(cls, z: np.ndarray) -> "Polygon":
        # Trusted constructor for derived states (integrator output, closed-form
        # evaluation, file round-trips) where a collapsing polygon may round to
        # coincident vertices.  Skips every check: the caller vouches that z is
        # finite.  A read-only complex128 array (a row of Trajectory.z) is shared.
        p = _new(cls)
        if z.dtype is not _COMPLEX or z.flags.writeable:
            z = np.array(z, dtype=np.complex128)
            z.flags.writeable = False
        p.z = z
        return p

    @property
    def n(self) -> int:
        return self.z.size

    def edge_lengths(self) -> np.ndarray:
        return _edge_lengths(self.z)

    def min_edge(self) -> float:
        return float(_edge_lengths(self.z).min())

    def diameter(self) -> float:
        """Largest pairwise vertex distance."""
        return _diameter(self.z)

    def __len__(self) -> int:
        return self.z.size

    def __eq__(self, other) -> bool:
        return isinstance(other, Polygon) and np.array_equal(self.z, other.z)

    def __repr__(self) -> str:
        return f"Polygon(n={self.n}, diameter={self.diameter():.6g})"


def _farthest_pair(z: np.ndarray):
    """``(i, j, |z_j - z_i|)`` for the first farthest vertex pair of the circuit ``z``."""
    d = np.abs(z[:, None] - z[None, :])
    i, j = np.unravel_index(int(d.argmax()), d.shape)
    return int(i), int(j), float(d[i, j])


def _diameter(z: np.ndarray) -> float:
    return _farthest_pair(z)[2]


def _diameters(z: np.ndarray) -> np.ndarray:
    # _diameter of every row of the (S, n) stack z, in blocks of rows that hold
    # at most _BLOCK distances (or of one row): a stacked (S, n, n) array grows
    # too large
    n = z.shape[-1]
    rows = max(1, _BLOCK // (n * n))
    out = np.empty(len(z))
    for i in range(0, len(z), rows):
        block = z[i : i + rows]
        out[i : i + rows] = np.abs(block[:, :, None] - block[:, None, :]).max(axis=(-2, -1))
    return out


def _diameter_bracket(z: np.ndarray):
    """``(lo, hi)`` about ``_diameters(z)``: max(W, H) <= diameter <= hypot(W, H), W and H the x and y extents."""
    x, y = z.real, z.imag
    w, h = x.max(axis=-1) - x.min(axis=-1), y.max(axis=-1) - y.min(axis=-1)
    hi = np.hypot(w, h)
    margin = _BRACKET_ULPS * (hi + 2.0**-1022)
    # clipped at 0: a test of d**2 is monotone only for d >= 0
    return np.maximum(np.maximum(w, h) - margin, 0.0), hi + margin


def _by_diameter(z: np.ndarray, test, bracket=None):
    """``test(_diameters(z))`` for the ``(S, n)`` stack ``z``, with few exact diameters.

    ``test`` maps an ``(S,)`` array of diameters to booleans of shape ``(S,)``
    or ``(S, k)``, each monotone in its row's diameter.  The test runs at both
    ends of ``bracket``, by default the widened extent bracket :func:`_diameter_bracket`
    (max(W, H) to hypot(W, H)), and only the rows where the two answers differ, or
    lo is NaN, get the exact diameter, which narrows the bracket in place to it.
    """
    lo, hi = _diameter_bracket(z) if bracket is None else bracket
    out = test(hi)
    differ = out != test(lo)
    if differ.ndim > 1:
        differ = differ.any(axis=-1)
    unsure = differ | np.isnan(lo)
    if unsure.any():
        lo[unsure] = hi[unsure] = _diameters(z[unsure])
        out = test(hi)
    return out


# The private helpers below take one circuit or a stack of them, shape (..., n),
# along the last axis; the public per-polygon functions call them.


def _next(z: np.ndarray) -> np.ndarray:
    """z_{i+1}, cyclically along the last axis."""
    return np.concatenate((z[..., 1:], z[..., :1]), axis=-1)


def _prev(z: np.ndarray) -> np.ndarray:
    """z_{i-1}, cyclically along the last axis."""
    return np.concatenate((z[..., -1:], z[..., :-1]), axis=-1)


@functools.lru_cache(maxsize=64)
def _ring(n: int) -> np.ndarray:
    """The read-only index of z_{n-1}, z_0, ..., z_{n-1}, z_0: one circuit's neighbours in one gather."""
    ring = np.arange(-1, n + 1) % n
    ring.flags.writeable = False
    return ring


def _edge_lengths(z: np.ndarray) -> np.ndarray:
    # |z_{i+1} - z_i|, edge i running from vertex i to vertex i+1
    return np.abs(_next(z) - z)


def _cross(u, w):
    """Im{conj(u) * w}; scalars or arrays alike."""
    return u.real * w.imag - u.imag * w.real


def _dot(u, w):
    """Re{conj(u) * w}; scalars or arrays alike."""
    return u.real * w.real + u.imag * w.imag


def _signed_area(z: np.ndarray) -> np.ndarray:
    return 0.5 * np.sum(_cross(z, _next(z)), axis=-1)


def _star_values(z: np.ndarray) -> np.ndarray:
    w = z - z.mean(axis=-1, keepdims=True)
    return _cross(w, _next(w))


def _convexity_values(z: np.ndarray) -> np.ndarray:
    return _cross(_next(z) - z, _prev(z) - z)


def centroid(poly: Polygon) -> complex:
    """Vertex average (the conserved first modal coefficient of the circuit)."""
    return complex(poly.z.mean())


def perimeter(poly: Polygon) -> float:
    """Sum of edge lengths around the circuit."""
    return float(_edge_lengths(poly.z).sum())


def signed_area(poly: Polygon) -> float:
    """Shoelace area; positive for counterclockwise numbering of a simple circuit."""
    return float(_signed_area(poly.z))


def star_function(a: complex, b: complex, c: complex) -> float:
    """Turning quantity F = Im{conj(a - b) * (c - b)}.

    In polar form, with ``a - b = r1 * exp(1j*phi1)`` and
    ``c - b = r2 * exp(1j*phi2)``, this equals ``r1 * r2 * sin(phi2 - phi1)``:
    positive when ``c`` sits counterclockwise of ``a`` as seen from ``b``
    (angle strictly between 0 and pi), negative for the clockwise side, zero
    exactly when the three points are collinear.
    """
    b = complex(b)
    return _cross(complex(a) - b, complex(c) - b)


def convex_function(prev: complex, vertex: complex, nxt: complex) -> float:
    """Turning quantity H = Im{(prev - vertex) * conj(nxt - vertex)}.

    Equals ``rho1 * rho2 * sin(beta)`` where ``beta`` is the counterclockwise
    angle at ``vertex`` from the ray toward ``nxt`` to the ray toward ``prev``
    (the internal angle when the circuit is simple and numbered
    counterclockwise).  Algebraically ``convex_function = -star_function`` on
    the same triple.
    """
    b = complex(vertex)
    return _cross(complex(nxt) - b, complex(prev) - b)


def star_values(poly: Polygon) -> np.ndarray:
    """Per-vertex F_i = Im{conj(z_i - g) * (z_{i+1} - g)} about the centroid g.

    All positive exactly when consecutive vertices advance counterclockwise
    as seen from the centroid.
    """
    return _star_values(poly.z)


def convexity_values(poly: Polygon) -> np.ndarray:
    """Per-vertex H_i = Im{(z_{i-1} - z_i) * conj(z_{i+1} - z_i)} in numbering order.

    Sign follows the circuit numbering as given; no orientation correction is
    applied here (``classify_convexity`` reports the orientation-corrected
    values).
    """
    return _convexity_values(poly.z)


class StarTag(enum.Enum):
    CCW_STAR = "ccw_star"
    CW_STAR = "cw_star"
    NOT_STAR = "not_star"


# the tags of _star_classes, indexed by ccw + 2 * cw
_STAR_TAGS = np.array([StarTag.NOT_STAR, StarTag.CCW_STAR, StarTag.CW_STAR], dtype=object)


@dataclass(frozen=True)
class StarClass:
    """Result of :func:`classify_star`.

    ``angles[i]`` is the signed turn about the centroid from vertex ``i`` to
    vertex ``i+1``, in ``(-pi, pi]``; ``radii[i]`` is the distance from the
    centroid to vertex ``i``.  For ``CCW_STAR`` every radius is positive,
    every angle is positive, and the angles sum to ``2*pi``; for ``CW_STAR``
    the mirror holds with sum ``-2*pi``.
    """

    tag: StarTag
    angles: np.ndarray
    radii: np.ndarray


def _star_classes(z: np.ndarray):
    """Per row of the ``(S, n)`` stack ``z``: its :class:`StarTag`, angles and radii.

    Returns ``(tags, angles, radii, f)``, an object array and three ``(S, n)``
    arrays: the first three as :func:`classify_star` reports them for one
    row, and the F values the angles come from.
    """
    w = z - z.mean(axis=-1, keepdims=True)
    wn = _next(w)
    r = np.abs(w)
    f = _cross(w, wn)
    alpha = np.arctan2(f, _dot(w, wn))
    total = alpha.sum(axis=-1)
    r_min = r.min(axis=-1)
    radii_ok = _by_diameter(z, lambda d: r_min > PREDICATE_TOL * d)
    ccw = radii_ok & (alpha > 0.0).all(axis=-1) & (np.abs(total - _TWO_PI) <= ANGLE_SUM_TOL)
    cw = radii_ok & (alpha < 0.0).all(axis=-1) & (np.abs(total + _TWO_PI) <= ANGLE_SUM_TOL)
    return _STAR_TAGS[ccw + 2 * cw], alpha, r, f


def classify_star(poly: Polygon) -> StarClass:
    """Classify the circuit as a counterclockwise/clockwise star about its centroid.

    A counterclockwise star has every vertex at positive distance from the
    centroid, every consecutive pair advancing by a strictly positive angle,
    and total winding of one full turn.  Any radius at or below
    ``PREDICATE_TOL`` times the diameter forces ``NOT_STAR``.
    """
    tags, alpha, r, _ = _star_classes(poly.z[None])
    return StarClass(tag=tags[0], angles=alpha[0], radii=r[0])


class ConvexityTag(enum.Enum):
    STRICTLY_CONVEX = "strictly_convex"
    CONVEX = "convex"
    NOT_CONVEX = "not_convex"


# the tags of _convexity_classes, indexed by convex * (1 + strict)
_CONVEXITY_TAGS = np.array(
    [ConvexityTag.NOT_CONVEX, ConvexityTag.CONVEX, ConvexityTag.STRICTLY_CONVEX], dtype=object
)


@dataclass(frozen=True)
class ConvexityClass:
    """Result of :func:`classify_convexity`.

    ``internal_angles[i]`` lies in ``[0, 2*pi)`` and is the internal angle at
    vertex ``i`` of the counterclockwise traversal (input numbered clockwise
    is reversed internally, so the report does not depend on numbering
    direction).  ``h_values`` are the correspondingly oriented per-vertex H
    values: all strictly positive for a strictly convex circuit.
    """

    tag: ConvexityTag
    internal_angles: np.ndarray
    h_values: np.ndarray


def _convexity_classes(z: np.ndarray):
    """Per row of the ``(S, n)`` stack ``z``: its :class:`ConvexityTag`, angles and H values.

    Returns ``(tags, internal_angles, h_values, folded)``: an object array and two ``(S, n)``
    arrays, as :func:`classify_convexity` reports them for one row, and whether each row has a
    fold, a straight vertex whose sides leave it one way.  O(n) per row, with no side-pair test:
    no backward turn, no fold and one full turn, ``sum(pi - beta) = 2*pi``, make it convex and simple.
    """
    u = _prev(z) - z
    w = _next(z) - z
    cross, dot = _cross(u, w), _dot(u, w)
    folded = (_collinear(cross, np.maximum(_l1(u), _l1(w))) & (dot > 0.0)).any(axis=-1)
    # both orientations from the same crosses: negating one would flip signed zeros
    cw = (_signed_area(z) < 0.0)[:, None]
    h = np.where(cw, cross, _cross(w, u))
    beta = np.arctan2(h, dot)
    beta = np.where(beta < 0.0, beta + _TWO_PI, beta)
    h_min, h_max = h.min(axis=-1), h.max(axis=-1)

    def tests(d):
        tol = PREDICATE_TOL * d**2
        return np.stack((h_min > tol, h_min >= -tol, h_max > tol), axis=-1)

    strict, no_reflex, some_turn = _by_diameter(z, tests).T
    once = np.abs((np.pi - beta).sum(axis=-1) - _TWO_PI) <= ANGLE_SUM_TOL
    convex = no_reflex & some_turn & once & ~folded
    return _CONVEXITY_TAGS[convex * (1 + strict)], beta, h, folded


def classify_convexity(poly: Polygon) -> ConvexityClass:
    """Classify convexity of the circuit, independent of numbering direction.

    ``STRICTLY_CONVEX``: every oriented H value above ``PREDICATE_TOL`` times the
    squared diameter, no fold, and turns ``pi - beta`` adding up to one full turn:
    exactly convex and simple.  ``CONVEX`` also admits straight vertices (H = 0
    within that band) provided not all are straight; it resolves nothing smaller
    than the band, so it may accept what :func:`is_simple` rejects.  Everything
    else, including a circuit that turns more than once, is ``NOT_CONVEX``.
    """
    tags, beta, h, _ = _convexity_classes(poly.z[None])
    return ConvexityClass(tag=tags[0], internal_angles=beta[0], h_values=h[0])


def _l1(u):
    return np.abs(u.real) + np.abs(u.imag)


def _collinear(cross, scale):
    """Elementwise, is a vertex straight: |cross(u, w)| <= ``PREDICATE_TOL`` scale**2, scale = max(L1 u, L1 w), not NaN?"""
    return np.abs(cross) <= PREDICATE_TOL * scale * scale


def _sides_meet(a, b, c, d):
    """Elementwise: does side ``(a, b)`` meet side ``(c, d)``?

    An endpoint is on a side's line when |cross| <= ``tol_len`` * L1(side), a distance
    of at most sqrt(2) ``tol_len`` (``tol_len`` = ``PREDICATE_TOL`` * the pair's L1 scale),
    and meets the side when inside the side's bounding box grown by ``tol_len``.
    """
    ab, ac, ad = b - a, c - a, d - a
    cd, ca, cb = d - c, a - c, b - c
    l1_ab, l1_cd = _l1(ab), _l1(cd)
    tol_len = PREDICATE_TOL * np.maximum(np.maximum(l1_ab, l1_cd), np.maximum(_l1(ac), _l1(ad)))
    tol_ab, tol_cd = tol_len * l1_ab, tol_len * l1_cd
    # orientation of an endpoint against the other side: +1, -1, or 0 within the band
    o1, o2, o3, o4 = (
        (v > t).astype(np.int8) - (v < -t)
        for v, t in zip((_cross(ab, ac), _cross(ab, ad), _cross(cd, ca), _cross(cd, cb)), (tol_ab, tol_ab, tol_cd, tol_cd))
    )
    meet = (o1 != o2) & (o3 != o4)
    for o, p, q, r in ((o1, a, b, c), (o2, a, b, d), (o3, c, d, a), (o4, c, d, b)):
        collinear = o == 0
        if collinear.any():
            # r lies on side (p, q) when it is in the side's box grown by tol_len
            for lo, hi, x in ((p.real, q.real, r.real), (p.imag, q.imag, r.imag)):
                collinear &= (np.minimum(lo, hi) - tol_len <= x) & (x <= np.maximum(lo, hi) + tol_len)
            meet |= collinear
    return meet


def _simple(z: np.ndarray, tags: np.ndarray, folded: np.ndarray) -> np.ndarray:
    """Per row of the ``(S, n)`` stack ``z`` with :func:`_convexity_classes` ``tags`` and ``folded``: is it simple?

    A folded row is not simple, a STRICTLY_CONVEX row is; only the other rows pair their sides, by cyclic offset.
    A pair goes to :func:`_sides_meet` only when the sides' bounding boxes overlap once one is grown by the margin
    g = 4 ``PREDICATE_TOL`` (W + H), W and H the extents of the row's box: no other pair can meet.
    """
    simple = ~folded
    open_rows = np.flatnonzero(simple & (tags != ConvexityTag.STRICTLY_CONVEX))
    if not open_rows.size:
        return simple
    zn = _next(z)
    # side k runs from vertex k to k+1; test each pair of sides that share no vertex once:
    # side i with side (i + d) mod n for d = 2 .. n // 2, but at d = n / 2 only for i < d,
    # in blocks of _BLOCK // n offsets
    n = z.shape[-1]
    side, step = np.arange(n), max(1, _BLOCK // n)
    # a block holds whole open rows when a row has few of its n (n - 3) / 2 pairs, else part of one row
    rows = max(1, _BLOCK // max(n * (n - 3) // 2, 1))
    for r0 in range(0, open_rows.size, rows):
        live = open_rows[r0 : r0 + rows]
        za, zb = z[live], zn[live]
        # side k's box: its x and y extents
        x0, x1 = np.minimum(za.real, zb.real), np.maximum(za.real, zb.real)
        y0, y1 = np.minimum(za.imag, zb.imag), np.maximum(za.imag, zb.imag)
        # _sides_meet calls a pair meeting only when the sides cross, or when an end lies
        # within 2 tol_len of the other side.  tol_len is PREDICATE_TOL times the largest
        # of four L1 lengths, each at most W + H, the extents of the row's box; in floating
        # point too, as rounding is monotone.  So boxes apart by more than
        # 2 PREDICATE_TOL (W + H) hold no meeting pair, and g = 4 PREDICATE_TOL (W + H)
        # leaves a factor 2 for rounding
        g = 4.0 * PREDICATE_TOL * (x1.max(axis=-1) - x0.min(axis=-1) + y1.max(axis=-1) - y0.min(axis=-1))
        x0, y0 = x0 - g[:, None], y0 - g[:, None]
        for d0 in range(2, n // 2 + 1, step):
            d = np.arange(d0, min(d0 + step, n // 2 + 1))[:, None]
            o, ii = np.nonzero((2 * d < n) | (side < d))
            jj = (ii + d0 + o) % n
            # only pairs whose boxes are not apart by more than g can meet: a strict >
            # keeps a NaN box, and an infinite g, from an infinite or NaN row, every pair
            apart = (x0[:, jj] > x1[:, ii]) | (x0[:, ii] > x1[:, jj]) | (y0[:, jj] > y1[:, ii]) | (y0[:, ii] > y1[:, jj])
            r, k = np.nonzero(~apart)
            if not r.size:
                continue
            i, j = ii[k], jj[k]
            simple[live[r[_sides_meet(za[r, i], zb[r, i], za[r, j], zb[r, j])]]] = False
            keep = simple[live]
            if not keep.all():
                live, za, zb, x0, x1, y0, y1 = (a[keep] for a in (live, za, zb, x0, x1, y0, y1))
                if not live.size:
                    break
    return simple


def is_simple(poly: Polygon) -> bool:
    """True when the circuit is a simple polygon.

    A ``STRICTLY_CONVEX`` circuit is simple whatever the band: that tag is exact.
    Otherwise each of the O(n^2) pairs of sides i and (i + d) mod n, d = 2 .. n // 2,
    is checked once.  Non-adjacent sides must not meet; touching within ``PREDICATE_TOL``
    of the local scale counts as meeting.  Adjacent sides meet only at their shared
    vertex: one doubling back makes it non-simple.  A pair whose bounding boxes lie
    apart by more than 4 ``PREDICATE_TOL`` (W + H), W and H the extents of the
    circuit's box, cannot meet, so only the other pairs take the banded test.
    """
    tags, _, _, folded = _convexity_classes(poly.z[None])
    return bool(_simple(poly.z[None], tags, folded)[0])


@dataclass(frozen=True)
class Circumcircle:
    """Circle through three non-collinear points."""

    center: complex
    radius: float


def _circumcircle_terms(a, b, c):
    """Elementwise ``(num, cross, ok, s)`` for the circles through ``(a, b, c)``.

    With u = s (a - b), w = s (c - b), ``num`` = |u|^2 w - |w|^2 u and ``cross`` =
    Im{conj(u) * w}, the center is b + num / (2i s cross), so (center - b) / R^2 =
    1 / conj(center - b) = -2i s cross / conj(num).  s, one power of two per call,
    takes the largest L1 of u and w into [1/2, 1): exact, and num ~ side**3 stays
    in range.  ``ok`` is False where the vertex is :func:`_collinear`; callers
    divide only where it is True.  Its band takes s times the unscaled L1 lengths.
    """
    u, w = a - b, c - b
    scale = np.maximum(_l1(u), _l1(w))
    s = math.ldexp(1.0, -max(math.frexp(scale.max())[1], -1023))
    u, w = s * u, s * w
    cross = _cross(u, w)
    return _dot(u, u) * w - _dot(w, w) * u, cross, ~_collinear(cross, s * scale), s


def circumcircle(a: complex, b: complex, c: complex):
    """Circle through three points, or ``None`` when they are collinear.

    Collinearity means ``|star_function(a, b, c)|`` at or below ``PREDICATE_TOL``
    times the squared larger L1 length of ``a - b`` and ``c - b`` (coincident
    points included): the circle degenerates to a line and ``None`` is returned.
    """
    b = complex(b)
    num, cross, ok, s = _circumcircle_terms(complex(a), b, complex(c))
    if not ok:
        return None
    offset = num / (2j * cross) / s
    return Circumcircle(center=b + offset, radius=abs(offset))
