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
``PREDICATE_TOL`` times the squared diameter of their input points.  Angle-sum
tests use the absolute tolerance ``ANGLE_SUM_TOL`` (radians).
"""

from __future__ import annotations

import enum
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

# Sign tests on quadratically scaling quantities use this times squared diameter;
# tests on lengths use this times the diameter.
PREDICATE_TOL = 1e-12

# Absolute tolerance on winding/angle sums, in radians.
ANGLE_SUM_TOL = 1e-9

_TWO_PI = 2.0 * np.pi


def _as_complex_vertices(vertices) -> np.ndarray:
    arr = np.asarray(vertices)
    if arr.ndim == 2 and arr.shape[-1] == 2:
        arr = arr[:, 0] + 1j * arr[:, 1]
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
        # coincident vertices.  Skips the distinctness check only.
        p = cls.__new__(cls)
        zz = np.array(z, dtype=np.complex128)
        zz.flags.writeable = False
        p.z = zz
        return p

    @property
    def n(self) -> int:
        return self.z.size

    @property
    def xy(self) -> np.ndarray:
        """Vertices as an (n, 2) float array."""
        return np.column_stack((self.z.real, self.z.imag))

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


def _diameter(z: np.ndarray) -> float:
    d = np.abs(z[:, None] - z[None, :])
    return float(d.max())


def _edge_lengths(z: np.ndarray) -> np.ndarray:
    # |z_{i+1} - z_i|, edge i running from vertex i to vertex i+1
    return np.abs(np.roll(z, -1) - z)


def _cross(u, w):
    """Im{conj(u) * w}; scalars or arrays alike."""
    return u.real * w.imag - u.imag * w.real


def _dot(u, w):
    """Re{conj(u) * w}; scalars or arrays alike."""
    return u.real * w.real + u.imag * w.imag


def centroid(poly: Polygon) -> complex:
    """Vertex average (the conserved first modal coefficient of the circuit)."""
    return complex(poly.z.mean())


def perimeter(poly: Polygon) -> float:
    """Sum of edge lengths around the circuit."""
    return float(_edge_lengths(poly.z).sum())


def signed_area(poly: Polygon) -> float:
    """Shoelace area; positive for counterclockwise numbering of a simple circuit."""
    return 0.5 * float(np.sum(_cross(poly.z, np.roll(poly.z, -1))))


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
    w = poly.z - poly.z.mean()
    return _cross(w, np.roll(w, -1))


def convexity_values(poly: Polygon) -> np.ndarray:
    """Per-vertex H_i = Im{(z_{i-1} - z_i) * conj(z_{i+1} - z_i)} in numbering order.

    Sign follows the circuit numbering as given; no orientation correction is
    applied here (``classify_convexity`` reports the orientation-corrected
    values).
    """
    z = poly.z
    return _cross(np.roll(z, -1) - z, np.roll(z, 1) - z)


class StarTag(enum.Enum):
    CCW_STAR = "ccw_star"
    CW_STAR = "cw_star"
    NOT_STAR = "not_star"


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


def classify_star(poly: Polygon) -> StarClass:
    """Classify the circuit as a counterclockwise/clockwise star about its centroid.

    A counterclockwise star has every vertex at positive distance from the
    centroid, every consecutive pair advancing by a strictly positive angle,
    and total winding of one full turn.  Any radius at or below
    ``PREDICATE_TOL`` times the diameter forces ``NOT_STAR``.
    """
    z = poly.z
    w = z - z.mean()
    r = np.abs(w)
    wn = np.roll(w, -1)
    alpha = np.arctan2(_cross(w, wn), _dot(w, wn))
    r_tol = PREDICATE_TOL * _diameter(z)
    tag = StarTag.NOT_STAR
    if np.all(r > r_tol):
        total = float(alpha.sum())
        if np.all(alpha > 0.0) and abs(total - _TWO_PI) <= ANGLE_SUM_TOL:
            tag = StarTag.CCW_STAR
        elif np.all(alpha < 0.0) and abs(total + _TWO_PI) <= ANGLE_SUM_TOL:
            tag = StarTag.CW_STAR
    return StarClass(tag=tag, angles=alpha, radii=r)


class ConvexityTag(enum.Enum):
    STRICTLY_CONVEX = "strictly_convex"
    CONVEX = "convex"
    NOT_CONVEX = "not_convex"


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


def classify_convexity(poly: Polygon) -> ConvexityClass:
    """Classify convexity of the circuit, independent of numbering direction.

    ``STRICTLY_CONVEX``: simple, and every oriented H value strictly positive
    (every internal angle strictly between 0 and pi).  ``CONVEX`` additionally
    admits straight vertices (H = 0 within tolerance) provided not all vertices
    are straight.  Everything else, including non-simple circuits, is
    ``NOT_CONVEX``.
    """
    z = poly.z
    u = np.roll(z, 1) - z
    w = np.roll(z, -1) - z
    if signed_area(poly) < 0.0:
        u, w = w, u
    h = _cross(w, u)
    beta = np.arctan2(h, _dot(u, w))
    beta = np.where(beta < 0.0, beta + _TWO_PI, beta)
    tol = PREDICATE_TOL * _diameter(z) ** 2
    # all(h > tol) implies the first two conditions, so is_simple runs at most once
    if np.all(h >= -tol) and np.any(h > tol) and is_simple(poly):
        tag = ConvexityTag.STRICTLY_CONVEX if np.all(h > tol) else ConvexityTag.CONVEX
    else:
        tag = ConvexityTag.NOT_CONVEX
    return ConvexityClass(tag=tag, internal_angles=beta, h_values=h)


def _orient(ax, ay, bx, by, cx, cy, tol):
    v = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    if v > tol:
        return 1
    if v < -tol:
        return -1
    return 0


def _on_segment(ax, ay, bx, by, px, py, tol):
    # assumes p collinear with segment (a, b) within the caller's tolerance
    return (
        min(ax, bx) - tol <= px <= max(ax, bx) + tol
        and min(ay, by) - tol <= py <= max(ay, by) + tol
    )


def _segments_touch(p1, q1, p2, q2) -> bool:
    ax, ay = p1.real, p1.imag
    bx, by = q1.real, q1.imag
    cx, cy = p2.real, p2.imag
    dx, dy = q2.real, q2.imag
    scale = max(
        abs(bx - ax) + abs(by - ay),
        abs(dx - cx) + abs(dy - cy),
        abs(cx - ax) + abs(cy - ay),
        abs(dx - ax) + abs(dy - ay),
    )
    tol_cross = PREDICATE_TOL * scale * scale
    tol_len = PREDICATE_TOL * scale
    o1 = _orient(ax, ay, bx, by, cx, cy, tol_cross)
    o2 = _orient(ax, ay, bx, by, dx, dy, tol_cross)
    o3 = _orient(cx, cy, dx, dy, ax, ay, tol_cross)
    o4 = _orient(cx, cy, dx, dy, bx, by, tol_cross)
    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and _on_segment(ax, ay, bx, by, cx, cy, tol_len):
        return True
    if o2 == 0 and _on_segment(ax, ay, bx, by, dx, dy, tol_len):
        return True
    if o3 == 0 and _on_segment(cx, cy, dx, dy, ax, ay, tol_len):
        return True
    if o4 == 0 and _on_segment(cx, cy, dx, dy, bx, by, tol_len):
        return True
    return False


def is_simple(poly: Polygon) -> bool:
    """True when the circuit is a simple polygon.

    Checks all O(n^2) side pairs.  Non-adjacent sides must not meet at all;
    touching within ``PREDICATE_TOL`` of the local scale counts as meeting.
    Adjacent sides must meet only at their shared vertex, so a side doubling
    back over its neighbor makes the circuit non-simple.
    """
    pts = poly.z.tolist()
    n = len(pts)
    for i in range(n):
        a = pts[i - 1]
        v = pts[i]
        c = pts[(i + 1) % n]
        ur = a.real - v.real
        ui = a.imag - v.imag
        wr = c.real - v.real
        wi = c.imag - v.imag
        scale = max(abs(ur) + abs(ui), abs(wr) + abs(wi))
        cross = ur * wi - ui * wr
        dot = ur * wr + ui * wi
        if abs(cross) <= PREDICATE_TOL * scale * scale and dot > 0.0:
            return False
    for i in range(n):
        p1 = pts[i]
        q1 = pts[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i + 1 or (i == 0 and j == n - 1):
                continue
            if _segments_touch(p1, q1, pts[j], pts[(j + 1) % n]):
                return False
    return True


@dataclass(frozen=True)
class Circumcircle:
    """Circle through three non-collinear points."""

    center: complex
    radius: float


def circumcircle(a: complex, b: complex, c: complex):
    """Circle through three points, or ``None`` when they are collinear.

    Collinearity means ``|star_function(a, b, c)|`` at or below
    ``PREDICATE_TOL`` times the squared diameter of the triple (coincident
    points included), in which case the circle degenerates to a line and
    ``None`` is returned.
    """
    a = complex(a)
    b = complex(b)
    c = complex(c)
    scale = max(abs(a - b), abs(b - c), abs(a - c))
    if scale == 0.0 or abs(star_function(a, b, c)) <= PREDICATE_TOL * scale * scale:
        return None
    # shift to the triple's mean so the quadratic terms stay well conditioned
    shift = (a + b + c) / 3.0
    x1, y1 = a.real - shift.real, a.imag - shift.imag
    x2, y2 = b.real - shift.real, b.imag - shift.imag
    x3, y3 = c.real - shift.real, c.imag - shift.imag
    d = 2.0 * (x1 * (y2 - y3) + x2 * (y3 - y1) + x3 * (y1 - y2))
    s1 = x1 * x1 + y1 * y1
    s2 = x2 * x2 + y2 * y2
    s3 = x3 * x3 + y3 * y3
    ux = (s1 * (y2 - y3) + s2 * (y3 - y1) + s3 * (y1 - y2)) / d
    uy = (s1 * (x3 - x2) + s2 * (x1 - x3) + s3 * (x2 - x1)) / d
    center = complex(ux + shift.real, uy + shift.imag)
    radius = (abs(center - a) + abs(center - b) + abs(center - c)) / 3.0
    return Circumcircle(center=center, radius=radius)
