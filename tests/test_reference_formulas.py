"""Turning values, angles, fields, the circumcircle and the classes against their original formulas.

Each quantity below once had its own hand-written copy of Im{conj(u) * w},
Re{conj(u) * w}, the edge lengths or the bisector direction.  The copies are
kept here, written out as they were, and the single implementations in the
package must reproduce them bit for bit, signed zeros included.  The same
holds for the per-sample trajectory columns, which are computed row-wise on
the whole ``(S, n)`` stack of samples at once, and for the flows, whose
cyclic neighbours were once taken with ``np.roll``.  The circumcircle and the
Menger-Melnikov field once shared a shifted-coordinate circumcenter formula,
and the field called it in a per-vertex loop; that formula and loop are kept
here as an oracle, but the package now evaluates the closed form
``b + num / (2i cross)`` and ``-2i cross / conj(num)``, which rounds
differently.  So the closed form is judged against the exact value of the
circle in ``fractions.Fraction`` arithmetic, within a stated bound, and the old
formula must agree with it within the sum of the two formulas' bounds.  Its
collinear mask has the straight-vertex band of the fold test.  The side-pair
test of ``is_simple`` was once a scalar loop over the pairs; that loop, and
the one-polygon star and convexity classifiers built on it, are kept here as
the oracle for the stacked classification.  Run with no band in
``fractions.Fraction`` arithmetic, the same loop is the exact simplicity test,
which ``is_simple`` must pass wherever no vertex or side pair is inside a band.
The package classifies convexity by one full turn and no side pair, so its
CONVEX tag may differ from the oracle's where only the oracle's pair band
rejects a row (see ``check_convexity``).  A strictly convex row is simple in
both, whatever its pairs.  The SVG once formatted each vertex coordinate with
its own call; that formatter is the oracle for the one format per path.  The
modal transform was once a
pair of direct O(n^2) sums through hand-built DFT matrices, and the ellipse
series a per-sample loop; those bodies are kept here as the oracle for the
FFT and for the stacked residual.  ``run`` once stepped every flow's vertices
in a Python loop, one step per iteration; that loop is kept here as the
oracle for the linear flow's modal blocks (same termination, bit-equal times,
states within a few units in the last place) and, bit for bit, for the
stepped flows.  The modal blocks once formed every state and took the
collapse test on each; that run is kept as the bit-for-bit oracle for the
modal bounds, which leave most states unformed.  The bounds were once taken
on every row of a block; that per-row evaluation is the oracle for the search
on a stride grid.  The pair test once sent every side pair of an open row to
``_sides_meet``; that all-pairs loop is the oracle for the screen that leaves
out the pairs whose bounding boxes lie apart.
"""

import itertools
import math
import sys
import tempfile
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from polyshort.analysis import (  # noqa: E402
    check_area_monotone,
    check_convexity_preservation,
    ellipse_convergence_series,
    perimeter_rate,
)
from polyshort.artifacts import _svg_points, read_trajectory_csv, write_trajectory_csv  # noqa: E402
from polyshort.flows import (  # noqa: E402
    ANTIPARALLEL_TOL,
    BisectorSpeedMode,
    CoincidentVerticesError,
    DegenerateTripleError,
    FlowDegeneracyError,
    FlowKind,
    FlowSpec,
    _field_function,
    _bisector_direction,
    _bisector_field,
    _linear_field,
    _menger_melnikov_field,
)
from polyshort.generators import GeneratorKind, GeneratorSpec, generate  # noqa: E402
from polyshort.geometry import (  # noqa: E402
    _BLOCK,
    ANGLE_SUM_TOL,
    PREDICATE_TOL,
    ConvexityTag,
    Polygon,
    StarTag,
    _by_diameter,
    _circumcircle_terms,
    _collinear,
    _convexity_classes,
    _cross,
    _diameter,
    _diameters,
    _dot,
    _edge_lengths,
    _l1,
    _next,
    _prev,
    _sides_meet,
    _simple,
    _star_classes,
    _star_values,
    circumcircle,
    classify_convexity,
    classify_star,
    convex_function,
    convexity_values,
    is_simple,
    perimeter,
    signed_area,
    star_function,
    star_values,
)
from polyshort import geometry, simulate  # noqa: E402
from polyshort.simulate import (  # noqa: E402
    CURVATURE_STEP_FRACTION,
    SimConfig,
    Termination,
    Trajectory,
    run,
    step_rk4,
)
from polyshort.spectral import (  # noqa: E402
    FLAT_AXIS_TOL,
    LEADING_MODE_TOL,
    DegenerateLeadingModeError,
    EllipseParams,
    SpectralDecomposition,
    _modes,
    _rk4_gain_m1,
    closed_form_state,
    decompose,
    eigenvalues,
    ellipse_residual,
    leading_decay_rate,
    limit_ellipse,
)

_TWO_PI = 2.0 * np.pi
_EPS = np.finfo(np.float64).eps
_TINY = Fraction(float(np.finfo(np.float64).tiny))

# small exact values make zero products, and so signed zeros, common
COORD = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0]),
    st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False),
)
POINT = st.builds(complex, COORD, COORD)
CIRCUIT = st.lists(POINT, min_size=3, max_size=9).map(lambda pts: Polygon._wrap(np.array(pts)))
# stacks of S samples; the sizes straddle numpy's 8-wide unrolled and
# 128-wide pairwise summation blocks, where a row-wise sum could differ
STACK_SHAPE = st.tuples(
    st.integers(1, 4), st.sampled_from([3, 4, 7, 8, 9, 15, 16, 17, 127, 128, 129, 255, 256, 257])
)
STACK = STACK_SHAPE.flatmap(lambda shape: arrays(np.complex128, shape, elements=POINT))
# the same shapes, with coordinates also from the whole double range: subnormal,
# huge, infinite and NaN
WIDE_STACK = STACK_SHAPE.flatmap(
    lambda shape: arrays(np.complex128, shape, elements=st.one_of(POINT, st.builds(complex, st.floats(), st.floats())))
)


def sort_by_angle(z):
    order = np.argsort(np.angle(z - z.mean(axis=1, keepdims=True)), axis=1, kind="stable")
    return np.take_along_axis(z, order, axis=1)


# small-integer circuits, where collinear, touching and doubled-back sides are
# common; sorting a row by angle about its centroid often makes it simple
GRID_STACK = st.tuples(st.integers(1, 4), st.integers(3, 9), st.booleans()).flatmap(
    lambda shape: arrays(
        np.complex128, shape[:2], elements=st.builds(complex, st.integers(-3, 3), st.integers(-3, 3))
    ).map(lambda z: sort_by_angle(z) if shape[2] else z)
)


# points of a circle in angle order, at scales from 1e-100 to 1e100: convex
# rows, many strictly, with coincident and near-coincident vertices among them
CIRCLE_STACK = st.builds(
    lambda scale, center, theta: scale * (center + np.exp(1j * np.sort(theta, axis=1))),
    st.integers(-100, 100).map(lambda k: 10.0**k),
    POINT,
    st.tuples(st.integers(1, 3), st.integers(3, 16)).flatmap(
        lambda shape: arrays(np.float64, shape, elements=st.floats(0.0, 6.25))
    ),
)


def same_bits(a, b) -> bool:
    a = np.atleast_1d(np.asarray(a, dtype=np.float64))
    b = np.atleast_1d(np.asarray(b, dtype=np.float64))
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def ref_star_function(a, b, c):
    a, b, c = complex(a), complex(b), complex(c)
    ur = a.real - b.real
    ui = a.imag - b.imag
    wr = c.real - b.real
    wi = c.imag - b.imag
    return ur * wi - ui * wr


def ref_convex_function(prev, vertex, nxt):
    a, b, c = complex(prev), complex(vertex), complex(nxt)
    ur = a.real - b.real
    ui = a.imag - b.imag
    wr = c.real - b.real
    wi = c.imag - b.imag
    return ui * wr - ur * wi


def ref_star_values(z):
    w = z - z.mean()
    wn = np.roll(w, -1)
    return w.real * wn.imag - w.imag * wn.real


def ref_convexity_values(z):
    u = np.roll(z, 1) - z
    w = np.roll(z, -1) - z
    return u.imag * w.real - u.real * w.imag


def ref_signed_area(z):
    zn = np.roll(z, -1)
    return 0.5 * float(np.sum(z.real * zn.imag - zn.real * z.imag))


def ref_star_angles(z):
    w = z - z.mean()
    wn = np.roll(w, -1)
    cross = w.real * wn.imag - w.imag * wn.real
    dot = w.real * wn.real + w.imag * wn.imag
    return np.arctan2(cross, dot)


def ref_convexity(z):
    prev = np.roll(z, 1)
    nxt = np.roll(z, -1)
    if ref_signed_area(z) < 0.0:
        prev, nxt = nxt, prev
    u = prev - z
    w = nxt - z
    h = u.imag * w.real - u.real * w.imag
    dot = u.real * w.real + u.imag * w.imag
    beta = np.arctan2(h, dot)
    return h, np.where(beta < 0.0, beta + _TWO_PI, beta)


def ref_bisector_direction(z):
    e_prev = np.roll(z, 1) - z
    e_next = np.roll(z, -1) - z
    lp = np.abs(e_prev)
    ln = np.abs(e_next)
    if np.any(lp == 0.0) or np.any(ln == 0.0):
        raise CoincidentVerticesError("zero-length edge")
    return e_prev / lp + e_next / ln


def ref_perimeter_rate(z, u):
    d = ref_bisector_direction(z)
    return -float(np.sum(d.real * u.real + d.imag * u.imag))


def ref_linear_field(z):
    return 0.5 * (np.roll(z, -1) + np.roll(z, 1)) - z


def ref_unit_bisector_field(z, speed):
    d = ref_bisector_direction(z)
    mag = np.abs(d)
    safe = np.where(mag > ANTIPARALLEL_TOL, mag, 1.0)
    u = speed * d / safe
    return np.where(mag > ANTIPARALLEL_TOL, u, 0.0 + 0.0j)


def ref_circumcircle(a, b, c):
    # (center, radius), or None for a collinear triple
    a = complex(a)
    b = complex(b)
    c = complex(c)
    # the straight-vertex band of the fold test: the larger side's L1 length, squared
    scale = max(abs(a.real - b.real) + abs(a.imag - b.imag), abs(c.real - b.real) + abs(c.imag - b.imag))
    if abs(ref_star_function(a, b, c)) <= PREDICATE_TOL * scale * scale:
        return None
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
    return center, radius


def ref_menger_melnikov_field(z):
    zp = np.roll(z, 1)
    zn = np.roll(z, -1)
    if np.any(zp == z) or np.any(zp == zn):
        raise DegenerateTripleError("coincident points in a curvature triple")
    v = np.zeros_like(z)
    for i in range(z.size):
        circ = ref_circumcircle(zp[i], z[i], zn[i])
        if circ is not None:
            center, radius = circ
            # numpy complex scalar divided by a float, as in the original loop
            v[i] = (center - z[i]) / (radius * radius)
    return v


# The circle through three doubles, in exact rational arithmetic (in the
# spirit of Shewchuk's robust predicates): the value the float formulas are
# judged against.  kappa = |u| |w| / |cross(u, w)| is the condition of the
# triple, 1 / sin of the angle at b.  Measured over 40000 random,
# near-collinear, folded-back, far-off and uneven triples, the closed form in
# the package was within 2.2 eps kappa |v| of the exact velocity, its center
# within 1.9 eps kappa R (plus the rounding of b + offset) and its radius
# within 2.5 eps kappa R.  The old formula above was within 0.49 eps kappa
# (rho + M / R) times |v| of the velocity and times R of the center and the
# radius, where rho = (|u| + |w|)^2 / (|u| |w|) and M = max(|a|, |b|, |c|): its
# shifted squares lose more on uneven sides and far from the origin.  The
# bounds hold while cross(u, w) and num = |u|^2 w - |w|^2 u are normal
# doubles: for the closed form, with u and w scaled by the power of two s of
# the call (``_circumcircle_terms``), so at any scale; for the old formula, as
# they are, which fails at triples about 1e-103 across and below.
_MM_ULPS = 4
_CIRCLE_ULPS = 4
_OLD_CIRCLE_ULPS = 1


@dataclass(frozen=True)
class ExactCircle:
    velocity: tuple  # (C - b) / R^2 as exact (real, imag)
    center: tuple  # exact (real, imag)
    radius: float  # the exact radius, rounded once
    kappa: float
    old_scale: float  # rho + M / R, the old formula's extra loss
    cross: Fraction
    nn: Fraction  # |num|^2

    def normal(self, s=1.0) -> bool:
        """Are cross(s u, s w) and num(s u, s w) normal doubles?"""
        s = Fraction(s)
        return min(self.cross * self.cross * s**4, self.nn * s**6) >= _TINY * _TINY


def sqrt_of(x):
    """math.sqrt(float(x)) for a Fraction x > 0, also where float(x) would leave the range."""
    k = (x.numerator.bit_length() - x.denominator.bit_length()) // 2
    return math.ldexp(math.sqrt(x / Fraction(4) ** k), k)


def exact_circle(a, b, c):
    """The circle through the doubles ``a, b, c``, exactly; None where they are collinear."""
    ar, ai, br, bi, cr, ci = (Fraction(x) for x in (a.real, a.imag, b.real, b.imag, c.real, c.imag))
    ur, ui, wr, wi = ar - br, ai - bi, cr - br, ci - bi
    cross = ur * wi - ui * wr
    uu, ww = ur * ur + ui * ui, wr * wr + wi * wi
    nr, ni = uu * wr - ww * ur, uu * wi - ww * ui
    nn = nr * nr + ni * ni
    if cross == 0:
        return None
    radius = sqrt_of(nn / (4 * cross * cross))
    rho = 2.0 + math.sqrt((uu + ww) ** 2 / (uu * ww))
    return ExactCircle(
        velocity=(2 * cross * ni / nn, -2 * cross * nr / nn),
        center=(br + ni / (2 * cross), bi - nr / (2 * cross)),
        radius=radius,
        kappa=math.sqrt(uu * ww / (cross * cross)),
        old_scale=rho + max(abs(a), abs(b), abs(c)) / radius,
        cross=cross,
        nn=nn,
    )


def distance(z, exact) -> float:
    """|z - exact| for a double ``z`` and an exact (real, imag) pair."""
    return math.hypot(float(Fraction(z.real) - exact[0]), float(Fraction(z.imag) - exact[1]))


def magnitude(exact) -> float:
    return math.hypot(float(exact[0]), float(exact[1]))


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


def _segments_touch(p1, q1, p2, q2, tol=PREDICATE_TOL) -> bool:
    ax, ay = p1
    bx, by = q1
    cx, cy = p2
    dx, dy = q2
    l1_ab = abs(bx - ax) + abs(by - ay)
    l1_cd = abs(dx - cx) + abs(dy - cy)
    scale = max(l1_ab, l1_cd, abs(cx - ax) + abs(cy - ay), abs(dx - ax) + abs(dy - ay))
    tol_len = tol * scale
    # an endpoint within tol_len of a side's line: |cross| <= tol_len * L1(side)
    o1 = _orient(ax, ay, bx, by, cx, cy, tol_len * l1_ab)
    o2 = _orient(ax, ay, bx, by, dx, dy, tol_len * l1_ab)
    o3 = _orient(cx, cy, dx, dy, ax, ay, tol_len * l1_cd)
    o4 = _orient(cx, cy, dx, dy, bx, by, tol_len * l1_cd)
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


def ref_folded(z, tol=PREDICATE_TOL, num=float):
    # does a vertex have sides that leave it one way, within the band (a fold)?
    pts = [(num(v.real), num(v.imag)) for v in z.tolist()]
    n = len(pts)
    for i in range(n):
        ar, ai = pts[i - 1]
        vr, vi = pts[i]
        cr, ci = pts[(i + 1) % n]
        ur = ar - vr
        ui = ai - vi
        wr = cr - vr
        wi = ci - vi
        scale = max(abs(ur) + abs(ui), abs(wr) + abs(wi))
        cross = ur * wi - ui * wr
        dot = ur * wr + ui * wi
        if abs(cross) <= tol * scale * scale and dot > 0.0:
            return True
    return False


def ref_is_simple(z, tol=PREDICATE_TOL, num=float):
    # tol=0 with num=Fraction is the exact test: no band, no rounding.  With the
    # band, a fold-free circuit that turns once with every H above the H band is
    # simple whatever its pairs, as in _simple
    if ref_folded(z, tol, num):
        return False
    if tol and ref_turns_once_strictly(z):
        return True
    pts = [(num(v.real), num(v.imag)) for v in z.tolist()]
    n = len(pts)
    for i in range(n):
        p1 = pts[i]
        q1 = pts[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i + 1 or (i == 0 and j == n - 1):
                continue
            if _segments_touch(p1, q1, pts[j], pts[(j + 1) % n], tol):
                return False
    return True


def ref_classify_star(z):
    # (tag, angles, radii), as classify_star computed them for one polygon
    w = z - z.mean()
    r = np.abs(w)
    alpha = np.arctan2(_star_values(z), _dot(w, _next(w)))
    r_tol = PREDICATE_TOL * _diameter(z)
    tag = StarTag.NOT_STAR
    if np.all(r > r_tol):
        total = float(alpha.sum())
        if np.all(alpha > 0.0) and abs(total - _TWO_PI) <= ANGLE_SUM_TOL:
            tag = StarTag.CCW_STAR
        elif np.all(alpha < 0.0) and abs(total + _TWO_PI) <= ANGLE_SUM_TOL:
            tag = StarTag.CW_STAR
    return tag, alpha, r


def ref_turns(z):
    # (internal_angles, h_values, H band), as classify_convexity computed them
    u = _prev(z) - z
    w = _next(z) - z
    if ref_signed_area(z) < 0.0:
        u, w = w, u
    h = _cross(w, u)
    beta = np.arctan2(h, _dot(u, w))
    beta = np.where(beta < 0.0, beta + _TWO_PI, beta)
    return beta, h, PREDICATE_TOL * _diameter(z) ** 2


def ref_turns_once_strictly(z):
    # every oriented H above the H band and the turns pi - beta one full turn:
    # with no fold, STRICTLY_CONVEX; it does not call ref_is_simple
    beta, h, tol = ref_turns(z)
    return bool(np.all(h > tol)) and abs(float(np.sum(np.pi - beta)) - _TWO_PI) <= ANGLE_SUM_TOL


def ref_classify_convexity(z):
    # (tag, internal_angles, h_values), as classify_convexity computed them
    beta, h, tol = ref_turns(z)
    if np.all(h >= -tol) and np.any(h > tol) and ref_is_simple(z):
        tag = ConvexityTag.STRICTLY_CONVEX if np.all(h > tol) else ConvexityTag.CONVEX
    else:
        tag = ConvexityTag.NOT_CONVEX
    return tag, beta, h


def exact_h(z):
    """Per vertex, H = Im{(z_{i-1} - z_i) * conj(z_{i+1} - z_i)} in ``Fraction`` arithmetic."""
    pts = [(Fraction(v.real), Fraction(v.imag)) for v in z.tolist()]
    return [
        (qx - vx) * (py - vy) - (qy - vy) * (px - vx)
        for (px, py), (vx, vy), (qx, qy) in zip(pts[-1:] + pts[:-1], pts, pts[1:] + pts[:1])
    ]


def check_convexity(z, tag, beta, h):
    """One row's convexity classes against ``ref_classify_convexity``.

    Angles and H values match bit for bit.  The tag matches too, except where
    only the oracle's side-pair band rejects a CONVEX row: a feature inside the
    H band (a near-coincident vertex, a hair-thin loop) that the pair band sees
    as a touch.  The one-full-turn rule cannot resolve it and keeps the H
    verdict.  A strictly convex row is simple in the oracle too, whatever its
    pairs, so STRICTLY_CONVEX always matches.  It is exact: every oriented H
    value is above 0 and the circuit is simple, both without rounding or
    tolerance.
    """
    ref_tag, ref_beta, ref_h = ref_classify_convexity(z)
    assert same_bits(beta, ref_beta) and same_bits(h, ref_h)
    if tag is not ref_tag:
        tol = PREDICATE_TOL * _diameter(z) ** 2
        assert ref_tag is ConvexityTag.NOT_CONVEX and not ref_is_simple(z)
        assert np.all(h >= -tol) and np.any(h > tol) and not np.all(h > tol)
        assert tag is ConvexityTag.CONVEX
    if tag is ConvexityTag.STRICTLY_CONVEX:
        orientation = -1 if ref_signed_area(z) < 0.0 else 1
        assert all(orientation * x > 0 for x in exact_h(z))
        assert ref_is_simple(z, tol=0, num=Fraction)


def outcome(fn, z):
    """``fn(z)`` as float bits, or the flow degeneracy it raised."""
    try:
        return np.asarray(fn(z)).view(np.float64)
    except (DegenerateTripleError, CoincidentVerticesError) as exc:
        return type(exc)


def same_outcome(a, b) -> bool:
    return a is b if isinstance(a, type) or isinstance(b, type) else same_bits(a, b)


@given(POINT, POINT, POINT)
def test_triple_functions(a, b, c):
    assert same_bits(star_function(a, b, c), ref_star_function(a, b, c))
    assert same_bits(convex_function(a, b, c), ref_convex_function(a, b, c))
    assert type(star_function(a, b, c)) is float
    assert type(convex_function(a, b, c)) is float


@given(CIRCUIT)
def test_per_vertex_values(poly):
    assert same_bits(star_values(poly), ref_star_values(poly.z))
    assert same_bits(convexity_values(poly), ref_convexity_values(poly.z))
    assert same_bits(signed_area(poly), ref_signed_area(poly.z))
    lengths = np.abs(np.roll(poly.z, -1) - poly.z)
    assert same_bits(poly.edge_lengths(), lengths)
    assert same_bits(poly.min_edge(), float(lengths.min()))
    assert same_bits(perimeter(poly), float(lengths.sum()))


@given(CIRCUIT)
def test_classifier_angles(poly):
    assert same_bits(classify_star(poly).angles, ref_star_angles(poly.z))
    cls = classify_convexity(poly)
    h, beta = ref_convexity(poly.z)
    assert same_bits(cls.h_values, h)
    assert same_bits(cls.internal_angles, beta)


@given(CIRCUIT, st.lists(POINT, min_size=9, max_size=9))
def test_perimeter_rate(poly, vel):
    u = np.array(vel[: poly.n])
    try:
        expected = ref_perimeter_rate(poly.z, u)
    except CoincidentVerticesError:
        with pytest.raises(CoincidentVerticesError):
            perimeter_rate(poly, u)
        return
    assert same_bits(perimeter_rate(poly, u), expected)


@given(STACK)
def test_trajectory_columns(z):
    traj = Trajectory(np.arange(z.shape[0], dtype=float), list(z), Termination.T_END)
    states = traj.states
    assert same_bits(traj.z.view(np.float64), z.view(np.float64))
    assert same_bits(traj.perimeter, [perimeter(s) for s in states])
    assert same_bits(traj.signed_area, [signed_area(s) for s in states])
    assert same_bits(traj.min_f, [star_values(s).min() for s in states])
    assert same_bits(traj.min_h, [convexity_values(s).min() for s in states])
    assert same_bits(traj.min_edge, [s.min_edge() for s in states])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        write_trajectory_csv(traj, path)
        back = read_trajectory_csv(path)
    assert same_bits(back.z.view(np.float64), z.view(np.float64))
    for name in ("times", "perimeter", "signed_area", "min_f", "min_h", "min_edge"):
        assert same_bits(getattr(back, name), getattr(traj, name))


def ref_svg_points(z, sep=" "):
    # the SVG vertex list as render_svg once wrote it: one format call per coordinate
    def num(x):
        s = format(x, ".6g")
        return "0" if s == "-0" else s

    return sep.join(f"{num(x)},{num(-y)}" for x, y in zip(z.real.tolist(), z.imag.tolist()))


SVG_COORD = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e-300, math.inf, -math.inf, math.nan]),
)


@given(arrays(np.complex128, st.integers(1, 40), elements=st.builds(complex, SVG_COORD, SVG_COORD)), st.booleans())
def test_svg_points(z, path):
    # one "%.6g,%.6g" format per path writes the per-coordinate text; a strided
    # view, as render_svg passes for a vertex's path, too
    sep = " L " if path else " "
    assert _svg_points(z, sep) == ref_svg_points(z, sep)
    assert _svg_points(z[::2], sep) == ref_svg_points(z[::2], sep)


@given(POINT, POINT, POINT)
def test_circumcircle(a, b, c):
    expected = ref_circumcircle(a, b, c)
    circ = circumcircle(a, b, c)
    if expected is None:
        assert circ is None
        return
    assert type(circ.center) is complex and type(circ.radius) is float
    exact = exact_circle(a, b, c)
    if not exact.normal(_circumcircle_terms(a, b, c)[3]):
        return
    bound = _CIRCLE_ULPS * _EPS * exact.kappa * exact.radius
    old_bound = _OLD_CIRCLE_ULPS * _EPS * exact.kappa * exact.old_scale * exact.radius
    # b + offset rounds once more, and the exact radius was rounded once
    assert distance(circ.center, exact.center) <= bound + _EPS * abs(circ.center)
    assert abs(circ.radius - exact.radius) <= bound + _EPS * exact.radius
    if exact.normal():
        old_center, old_radius = expected
        assert abs(old_center - circ.center) <= bound + old_bound + _EPS * abs(circ.center)
        assert abs(old_radius - circ.radius) <= bound + old_bound


# the fields take one circuit at a time, as their degeneracy checks look at
# the whole circuit; a stack supplies circuits of the sizes above


@given(STACK)
def test_linear_and_bisector_fields(stack):
    unit = FlowSpec.bisector(speed=1.5)
    for z in stack:
        assert same_bits(_linear_field(z).view(np.float64), ref_linear_field(z).view(np.float64))
        assert same_outcome(outcome(_bisector_direction, z), outcome(ref_bisector_direction, z))
        got = outcome(lambda w: _bisector_field(w, unit), z)
        assert same_outcome(got, outcome(lambda w: ref_unit_bisector_field(w, 1.5), z))


@given(STACK)
def test_menger_melnikov_field(stack):
    for z in stack:
        # a collinear triple is masked before any division: no warning, no inf
        with np.errstate(divide="raise", invalid="raise"):
            got = outcome(_menger_melnikov_field, z)
        old = outcome(ref_menger_melnikov_field, z)
        if isinstance(old, type):
            assert got is old
            continue
        got, old = got.view(np.complex128), old.view(np.complex128)
        s = _circumcircle_terms(_prev(z), z, _next(z))[3]
        for i in range(z.size):
            a, b, c = z[i - 1], z[i], z[(i + 1) % z.size]
            if ref_circumcircle(a, b, c) is None:
                assert same_bits(got[i : i + 1].view(np.float64), [0.0, 0.0])
                continue
            exact = exact_circle(a, b, c)
            if not exact.normal(s):
                continue
            speed = magnitude(exact.velocity)
            bound = _MM_ULPS * _EPS * exact.kappa * speed
            old_bound = _OLD_CIRCLE_ULPS * _EPS * exact.kappa * exact.old_scale * speed
            assert distance(got[i], exact.velocity) <= bound
            if exact.normal():
                assert abs(old[i] - got[i]) <= bound + old_bound


# unscaled, num = |u|^2 w - |w|^2 u is about s^3: subnormal below about 1e-103
# and infinite above about 1e102
@pytest.mark.parametrize("s", [1e-300, 1e-150, 1e-100, 1e-50, 1.0, 1e50, 1e100, 1e300])
def test_menger_melnikov_scale_and_translation(s):
    # v(s z + c) = v(z) / s, to within the oracle bound at both scales plus
    # the exact change that rounding s z + c makes
    z = generate(GeneratorSpec(GeneratorKind.RANDOM_CONVEX, n=12), 3).z
    x = s * z + s * (0.75 - 1.5j)
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        v, vs = _menger_melnikov_field(z), _menger_melnikov_field(x)
    for i in range(z.size):
        exact = exact_circle(z[i - 1], z[i], z[(i + 1) % z.size])
        scaled = exact_circle(x[i - 1], x[i], x[(i + 1) % z.size])
        rounding = [Fraction(s) * p - q for p, q in zip(scaled.velocity, exact.velocity)]
        bound = _MM_ULPS * _EPS * (exact.kappa * magnitude(exact.velocity) + s * scaled.kappa * magnitude(scaled.velocity))
        error = [Fraction(s) * Fraction(p) - Fraction(q) for p, q in ((vs[i].real, v[i].real), (vs[i].imag, v[i].imag))]
        assert magnitude(error) <= bound + magnitude(rounding)


def test_straight_vertex_band():
    # the circle and Menger-Melnikov mask take the fold test's band,
    # |cross| <= PREDICATE_TOL * max(L1 u, L1 w)**2, not the triple's squared
    # diameter: cross 2.5e-12 against 1e-12 (was 4e-12) makes a circle, and
    # cross 3e-12 against 4e-12 (was 2e-12) a straight vertex
    circ = circumcircle(-1, 1.25e-12j, 1)
    assert circ.center == pytest.approx(-4e11j) and circ.radius == pytest.approx(4e11)
    assert _menger_melnikov_field(np.array([-1, 1.25e-12j, 1]))[1] == pytest.approx(-2.5e-12j)
    flat = np.array([0.5 + 0.5j, 0, 1 + (1 + 6e-12) * 1j])
    assert circumcircle(*flat) is None and ref_circumcircle(*flat) is None
    assert same_bits(_menger_melnikov_field(flat)[1:2].view(np.float64), [0.0, 0.0])
    # a triple 7.3e-150 across: its circle once came out with radius 0
    circ = circumcircle(0, 7.3e-150j, 7.3e-150)
    assert circ.center == pytest.approx(3.65e-150 + 3.65e-150j) and circ.radius == pytest.approx(5.16188e-150)


@given(st.one_of(STACK, WIDE_STACK))
def test_circumcircle_mask_is_the_fold_band(stack):
    # _circumcircle_terms takes the L1 lengths and the cross product once and
    # scales the lengths by s; its mask has the bits of _collinear on the
    # scaled sides, and a NaN row stays not collinear
    for z in (stack, *stack):
        a, b, c = _prev(z), z, _next(z)
        with np.errstate(all="ignore"):
            num, cross, ok, s = _circumcircle_terms(a, b, c)
            u, w = s * (a - b), s * (c - b)
            assert ok.dtype == bool and np.array_equal(ok, ~_collinear(_cross(u, w), np.maximum(_l1(u), _l1(w))))
            assert same_bits(cross, _cross(u, w))
        assert ok[np.isnan(cross)].all()


@given(CIRCUIT)
def test_is_simple(poly):
    assert is_simple(poly) is ref_is_simple(poly.z)


@given(CIRCUIT)
def test_one_polygon_classes(poly):
    star = classify_star(poly)
    tag, alpha, r = ref_classify_star(poly.z)
    assert star.tag is tag and same_bits(star.angles, alpha) and same_bits(star.radii, r)
    cvx = classify_convexity(poly)
    check_convexity(poly.z, cvx.tag, cvx.internal_angles, cvx.h_values)


def l1(p, q):
    return abs(q[0] - p[0]) + abs(q[1] - p[1])


def point_to_side(p, q, x):
    """Squared distance from ``x`` to the side ``(p, q)``, for exact ``(real, imag)`` pairs."""
    dx, dy, ex, ey = q[0] - p[0], q[1] - p[1], x[0] - p[0], x[1] - p[1]
    dd = dx * dx + dy * dy
    t = min(max((ex * dx + ey * dy) / dd, 0), 1) if dd else 0
    return (ex - t * dx) ** 2 + (ey - t * dy) ** 2


def in_a_band(z):
    """Is a vertex of ``z`` inside the fold band, or a side pair inside the pair band?

    A vertex is, when its exact cross is not 0 but |cross| <= 2 PREDICATE_TOL
    max(L1 u, L1 w)**2 and its sides leave it one way.  A non-adjacent pair is,
    when the sides do not meet but come within 4 tol_len, tol_len = PREDICATE_TOL
    times the pair's L1 scale: an endpoint that ``_sides_meet`` counts as on a
    side lies at most 2 tol_len from it.  Both bands are doubled for rounding.
    """
    pts = [(Fraction(v.real), Fraction(v.imag)) for v in z.tolist()]
    n, tol = len(pts), Fraction(PREDICATE_TOL)
    for a, v, c in zip(pts[-1:] + pts[:-1], pts, pts[1:] + pts[:1]):
        cross = (a[0] - v[0]) * (c[1] - v[1]) - (a[1] - v[1]) * (c[0] - v[0])
        dot = (a[0] - v[0]) * (c[0] - v[0]) + (a[1] - v[1]) * (c[1] - v[1])
        if cross and abs(cross) <= 2 * tol * max(l1(v, a), l1(v, c)) ** 2 and dot > 0:
            return True
    for i in range(n):
        # the non-adjacent pairs i < j: side n - 1 is adjacent to side 0
        for j in range(i + 2, n - (i == 0)):
            a, b, c, d = pts[i], pts[(i + 1) % n], pts[j], pts[(j + 1) % n]
            if _segments_touch(a, b, c, d, tol=0):
                continue
            tol_len = tol * max(l1(a, b), l1(c, d), l1(a, c), l1(a, d))
            near = min(point_to_side(a, b, c), point_to_side(a, b, d), point_to_side(c, d, a), point_to_side(c, d, b))
            if near <= (4 * tol_len) ** 2:
                return True
    return False


def stacked_simple(z):
    """``_simple`` of the stack ``z`` with its own convexity classes, as a ``Trajectory`` takes it."""
    tags, _, _, folded = _convexity_classes(z)
    return _simple(z, tags, folded)


# the fold example: the short side's end lies 5.2e-13 from the long side's
# line, inside both bands, while the exact circuit is simple
FOLD = np.array([0, 1, 1 + 1j, 1e-10 * np.exp(1j * np.radians(0.3))])


@given(st.one_of(CIRCUIT.map(lambda poly: poly.z[None]), GRID_STACK))
def test_simple_is_exact_outside_the_bands(z):
    # wherever no vertex and no side pair is inside a band, the banded verdict is
    # the exact one; a pair at distance 0 meets in both
    for row, simple in zip(z, stacked_simple(z)):
        if not in_a_band(row):
            assert bool(simple) is ref_is_simple(row, tol=0, num=Fraction)


def test_fold_band_case():
    assert in_a_band(FOLD)
    assert not is_simple(Polygon(FOLD)) and ref_is_simple(FOLD, tol=0, num=Fraction)


# a strictly convex pentagon of diameter 29.09 whose side 2 is 4.5e-11 long: the
# pair band sees side 3's start touch side 1, though the exact circuit is simple
CHAMFERED = np.array(
    [
        -11.431980201018359 - 8.13783576674112j,
        -11.31270899216889 - 8.616852784912453j,
        14.726796019580664 - 4.368456296555142j,
        14.726796019576744 - 4.36845629651057j,
        -9.393751240582302 + 11.88736244099022j,
    ]
)


def test_strictly_convex_is_simple_whatever_the_band():
    pts = [(v.real, v.imag) for v in CHAMFERED.tolist()]
    assert _segments_touch(pts[1], pts[2], pts[3], pts[4])
    poly = Polygon(CHAMFERED)
    assert classify_convexity(poly).tag is ConvexityTag.STRICTLY_CONVEX
    assert is_simple(poly) and ref_is_simple(CHAMFERED)
    assert ref_is_simple(CHAMFERED, tol=0, num=Fraction)
    # so the convexity and area checks agree on its run
    traj = run(poly, FlowSpec.linear(), SimConfig(t_end=0.2, dt=0.05))
    assert check_convexity_preservation(traj).passed and check_area_monotone(traj).passed


# the stacked classes must give every row of a stack the one-polygon verdict


@given(st.one_of(STACK, GRID_STACK))
def test_stacked_simple(z):
    assert [bool(v) for v in stacked_simple(z)] == [ref_is_simple(row) for row in z]


@given(STACK)
def test_stacked_star_classes(z):
    tags, alpha, r, _ = _star_classes(z)
    assert tags.shape == z.shape[:1] and alpha.shape == r.shape == z.shape
    for row, tag, a, rr in zip(z, tags, alpha, r):
        ref_tag, ref_alpha, ref_r = ref_classify_star(row)
        assert tag is ref_tag and same_bits(a, ref_alpha) and same_bits(rr, ref_r)


@given(st.one_of(STACK, GRID_STACK, CIRCLE_STACK))
# a unit square with a vertex split 1.5e-167 apart: the oracle's pair band sees
# the split side touch the bottom one, the H band resolves nothing there
@example(np.array([[1.0, 1.0 + 1.5e-167j, 1j, 0.0]]))
def test_stacked_convexity_classes(z):
    tags, beta, h, folded = _convexity_classes(z)
    assert tags.shape == folded.shape == z.shape[:1] and beta.shape == h.shape == z.shape
    assert [bool(f) for f in folded] == [ref_folded(row) for row in z]
    for row, tag, b, hh in zip(z, tags, beta, h):
        check_convexity(row, tag, b, hh)


def test_simple_spans_pair_blocks():
    # more side pairs than one block holds: per row at n = 200, and per stack
    # of 8-gons; swapping two neighbours of a regular polygon crosses the
    # sides around them, in the first, a middle or the last block of pairs.
    # The other rows have vertex 1 pulled halfway in: simple, but not convex,
    # so they go through every block too
    for n, swaps in ((200, [None, 3, 100, 196, None]), (8, [None, 0, 5, 7] * 300)):
        z = np.tile(np.exp(2j * np.pi * np.arange(n) / n), (len(swaps), 1))
        for row, k in zip(z, swaps):
            if k is None:
                row[1] *= 0.5
            else:
                row[[k, (k + 1) % n]] = row[[(k + 1) % n, k]]
        tags, _, _, folded = _convexity_classes(z)
        assert not (tags == ConvexityTag.STRICTLY_CONVEX).any()
        assert z.shape[0] * n * (n - 3) // 2 > 2 * _BLOCK
        got = [bool(v) for v in _simple(z, tags, folded)]
        assert got == [ref_is_simple(row) for row in z] == [k is None for k in swaps]


def ref_all_pairs_simple(z, tags, folded):
    """``_simple`` as it sent every side pair of an open row to ``_sides_meet``, a block of pairs at a time."""
    simple = ~folded
    open_rows = np.flatnonzero(simple & (tags != ConvexityTag.STRICTLY_CONVEX))
    if not open_rows.size:
        return simple
    zn = _next(z)
    n = z.shape[-1]
    count = np.maximum(n - 2 - np.arange(n), 0)
    count[0] = max(n - 3, 0)
    first = np.concatenate(([0], np.cumsum(count)))
    pairs = int(first[-1])
    rows = max(1, _BLOCK // max(pairs, 1))
    for r0 in range(0, open_rows.size, rows):
        live = open_rows[r0 : r0 + rows]
        for p0 in range(0, pairs, _BLOCK):
            p = np.arange(p0, min(p0 + _BLOCK, pairs))
            ii = np.searchsorted(first, p, side="right") - 1
            jj = p - first[ii] + ii + 2
            za, zb = z[live], zn[live]
            simple[live] = ~_sides_meet(za[:, ii], zb[:, ii], za[:, jj], zb[:, jj]).any(axis=-1)
            live = live[simple[live]]
            if not live.size:
                break
    return simple


def margin_row(s, swap=False):
    """A pentagon whose vertex 3, where sides 2 and 3 meet, lies ``s`` above the middle of side 0.

    For 0 <= s <= 2 its box is 2 by 2, so the screen's margin is g = 16 ``PREDICATE_TOL``,
    and side 0 with side 2 has tol_len = 4 ``PREDICATE_TOL``.  ``swap`` mirrors the
    pentagon in the diagonal, so that the gap lies along x.
    """
    z = np.array([0, 2, 2 + 2j, 1 + s * 1j, 2j])
    return 1j * z.conj() if swap else z


_G = 16 * PREDICATE_TOL
# side 0 touched, 2 tol_len from it, and just inside and just outside g, along y and along x
MARGIN_ROWS = np.array(
    [
        margin_row(s, swap)
        for swap in (False, True)
        for s in (0.0, 8 * PREDICATE_TOL, np.nextafter(_G, 0), _G, np.nextafter(_G, 1))
    ]
)
NON_FINITE_ROWS = np.array(
    [
        [0, 2, 2 + 2j, 1 + np.nan * 1j, 2j],
        [0, 2, 2 + 2j, np.inf + 0j, 2j],
        [0, 2, np.inf + np.inf * 1j, 1, 2j],
        [-np.inf, 2, 2 + 2j, 1 + 0j, 2j],
        [0, 2, 2 + 2j, 1 + 1j, complex(np.nan, np.inf)],
        [0, 2, 2 + 2j, 1 + 1j, 2j],
    ]
)


@given(st.one_of(STACK, GRID_STACK, CIRCLE_STACK, WIDE_STACK))
@example(MARGIN_ROWS)
@example(NON_FINITE_ROWS)
def test_box_screen_keeps_every_verdict(z):
    # the screen leaves out only pairs that _sides_meet rejects; a NaN or infinite
    # row keeps all its pairs
    with np.errstate(all="ignore"):
        tags, _, _, folded = _convexity_classes(z)
        assert np.array_equal(_simple(z, tags, folded), ref_all_pairs_simple(z, tags, folded))


def test_box_screen_margin(monkeypatch):
    # side 0 reaches _sides_meet with sides 2 and 3 while vertex 3 is within g of
    # it, along either axis; all other pairs lie apart by 1 or more
    sent, real = [], geometry._sides_meet
    monkeypatch.setattr(geometry, "_sides_meet", lambda *sides: sent.append(sides[0].size) or real(*sides))
    for swap in (False, True):
        for s, pairs in ((0.0, 2), (np.nextafter(_G, 0), 2), (_G, 2), (np.nextafter(_G, 1), 0), (1.0, 0)):
            sent.clear()
            assert stacked_simple(margin_row(s, swap)[None])[0] == (s > 0)
            assert sum(sent) == pairs
    # the finite last row sends no pair, each of the others all five
    sent.clear()
    with np.errstate(all="ignore"):
        stacked_simple(NON_FINITE_ROWS)
    assert sum(sent) == 5 * 5


def test_embedded_loss_verdicts():
    loss = generate(GeneratorSpec(GeneratorKind.EMBEDDED_LOSS), 0)
    traj = run(loss, FlowSpec.linear(), SimConfig(t_end=1.5, dt=1e-3, record_every=10))
    tags, _, _, folded = _convexity_classes(traj.z)
    simple = _simple(traj.z, tags, folded)
    assert (simple.size, int(simple.sum())) == (151, 77)
    assert np.array_equal(simple, ref_all_pairs_simple(traj.z, tags, folded))


# The modal transform: the direct sums, as decompose, closed_form_state,
# limit_ellipse and ellipse_residual computed them through DFT matrices.


def ref_decompose(poly):
    """Project the vertex vector onto the Fourier modes (direct O(n^2) sums)."""
    z = poly.z
    n = z.size
    k = np.arange(n)
    w = np.exp(-2j * np.pi * np.outer(k, k) / n)
    coeffs = w @ z / n
    return SpectralDecomposition(n=n, eigenvalues=eigenvalues(n), modal_coeffs=coeffs)


def ref_closed_form_state(decomp, t):
    if t < 0.0:
        raise ValueError("time must be nonnegative")
    n = decomp.n
    k = np.arange(n)
    w = np.exp(2j * np.pi * np.outer(k, k) / n)
    z = w @ (decomp.modal_coeffs * np.exp(decomp.eigenvalues * t))
    return Polygon._wrap(z)


def ref_limit_ellipse(decomp):
    c = decomp.modal_coeffs
    c1 = complex(c[1])
    cn = complex(c[-1])
    lead = abs(c1) + abs(cn)
    rest = float(np.sqrt(np.sum(np.abs(c[1:]) ** 2)))
    if lead <= LEADING_MODE_TOL * rest or rest == 0.0:
        raise DegenerateLeadingModeError("slowest modes vanish; no limiting ellipse")
    minor = abs(abs(c1) - abs(cn))
    phi = (np.angle(c1) + np.angle(cn)) / 2.0
    return EllipseParams(center=0j, semi_major=1.0, semi_minor=minor / lead, orientation=float(phi % np.pi))


def ref_ellipse_residual(poly, ellipse):
    d = ref_decompose(poly)
    scale = float(abs(d.modal_coeffs[1]) + abs(d.modal_coeffs[-1]))
    rest = float(np.sqrt(np.sum(np.abs(d.modal_coeffs[1:]) ** 2)))
    if scale <= LEADING_MODE_TOL * rest or rest == 0.0:
        raise DegenerateLeadingModeError("polygon has no leading-mode content")
    w = (poly.z - poly.z.mean()) / scale - ellipse.center
    w = w * np.exp(-1j * ellipse.orientation)
    x = w.real
    y = w.imag
    a = ellipse.semi_major
    b = ellipse.semi_minor
    if b <= FLAT_AXIS_TOL:
        over = np.maximum(np.abs(x) - a, 0.0)
        dist = np.hypot(over, y)
        return float(np.sqrt(np.mean(dist**2)))
    vals = np.abs((x / a) ** 2 + (y / b) ** 2 - 1.0)
    return float(np.sqrt(np.mean(vals**2)))


def ref_ellipse_series(traj):
    # the per-sample loop of ellipse_convergence_series
    states = traj.states
    ellipse = ref_limit_ellipse(ref_decompose(states[0]))
    return [(float(t), ref_ellipse_residual(s, ellipse)) for t, s in zip(traj.times, states)]


FFT_STACK = st.tuples(st.integers(1, 4), st.integers(3, 64)).flatmap(
    lambda shape: arrays(np.complex128, shape, elements=POINT)
)


@settings(deadline=None)
@given(FFT_STACK, st.floats(0.0, 10.0))
def test_fft_against_direct_sums(z, t):
    # both sum n terms of size at most max|z|: they may differ by rounding only
    modes = _modes(z)
    for row, c in zip(z, modes):
        poly = Polygon._wrap(row)
        bound = 8 * row.size * _EPS * np.abs(row).max()
        dec = decompose(poly)
        ref = ref_decompose(poly)
        # a row of a stack gets the bits of the row alone
        assert same_bits(dec.modal_coeffs.view(np.float64), c.view(np.float64))
        assert np.abs(dec.modal_coeffs - ref.modal_coeffs).max() <= bound
        assert np.abs(closed_form_state(dec, t).z - ref_closed_form_state(ref, t).z).max() <= bound


def series_outcome(fn):
    """``fn()`` as an array of (time, residual) rows, or the degeneracy message."""
    try:
        return np.array(fn())
    except DegenerateLeadingModeError as exc:
        return str(exc)


# a real row has |c_1| = |c_{n-1}|: the flat-ellipse branch
@example(np.array([[0.0, 1.3, 2.9, 4.0, 0.7], [0.0, 1.0, 2.5, 3.5, 0.5]], dtype=np.complex128))
# row 0 is fine, row 1 is a pure frequency-2 loop with no leading modes
@example(np.array([[1, 1j, -1, -1j], [1, -1, 1, -1]], dtype=np.complex128))
@given(STACK)
def test_stacked_ellipse_series(z):
    # one stacked call gives each row the bits of a one-row call, and raises
    # as the per-sample loop did: row 0 through limit_ellipse, then any row
    traj = Trajectory(np.arange(z.shape[0], dtype=float), z, Termination.T_END)

    def per_sample():
        ellipse = limit_ellipse(decompose(Polygon._wrap(traj.z[0])))
        return [(float(t), ellipse_residual(Polygon._wrap(row), ellipse)) for t, row in zip(traj.times, traj.z)]

    got = series_outcome(lambda: ellipse_convergence_series(traj))
    expected = series_outcome(per_sample)
    if isinstance(expected, str):
        assert isinstance(got, str) and got == expected
    else:
        assert not isinstance(got, str) and same_bits(got, expected)


GENERATED = st.tuples(
    st.sampled_from([GeneratorKind.RANDOM_STAR, GeneratorKind.RANDOM_CONVEX]),
    st.integers(3, 40),
    st.integers(0, 2**32),
)


@settings(deadline=None)
@given(GENERATED)
def test_ellipse_series_against_direct_sums(spec):
    # exact linear flow of a generated polygon over six leading time constants
    kind, n, seed = spec
    poly = generate(GeneratorSpec(kind, n=n), seed)
    ref = ref_decompose(poly)
    times = np.linspace(0.0, 6.0, 13) / leading_decay_rate(n)
    z = np.array([ref_closed_form_state(ref, float(t)).z for t in times])
    traj = Trajectory(times, z, Termination.T_END)
    got = np.array(ellipse_convergence_series(traj))
    expected = np.array(ref_ellipse_series(traj))
    assert same_bits(got[:, 0], expected[:, 0])
    # the residual is an RMS of O(1) terms that cancel as the shape converges,
    # so rounding is relative to the unit semi-major axis, not to the residual
    assert np.all(np.abs(got[:, 1] - expected[:, 1]) <= 1e-12 * np.maximum(expected[:, 1], 1.0))


# ---------------------------------------------------------------------------
# The stepped RK4 loop of ``run``, as it was before the linear flow moved to
# modal space.  It steps the vertices through the flow's field, one Python
# iteration per step; ``run`` must end as it does, at bit-equal times.


def ref_rk4(z, fld, dt, k1):
    k2 = fld(z + (0.5 * dt) * k1)
    k3 = fld(z + (0.5 * dt) * k2)
    k4 = fld(z + dt * k3)
    return z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def ref_run(poly, flow, cfg):
    fld = _field_function(flow)
    adaptive = cfg.adaptive and flow.kind is FlowKind.MENGER_MELNIKOV
    capture = cfg.min_edge_capture if flow.kind is FlowKind.BISECTOR else 0.0
    if capture is None:
        capture = 1e-6 * poly.diameter()
    z = poly.z  # only ever rebound, never written in place: rows need no copies
    t = 0.0
    steps = 0
    rec_t = [0.0]
    rec_z = [z]
    while True:
        if _diameter(z) < cfg.stop_diameter:
            termination = Termination.COLLAPSED
            break
        if capture > 0.0 and _edge_lengths(z).min() < capture:
            termination = Termination.CAPTURE
            break
        remaining = cfg.t_end - t
        if remaining <= cfg.dt * 1e-9:
            termination = Termination.T_END
            break
        if steps >= simulate.MAX_STEPS:
            termination = Termination.MAX_STEPS
            break
        last = remaining <= cfg.dt
        dt_eff = remaining if last else cfg.dt
        try:
            k1 = fld(z)
            if adaptive:
                vmax = float(np.abs(k1).max())
                if vmax > 0.0:
                    cap_dt = CURVATURE_STEP_FRACTION * float(_edge_lengths(z).min()) / vmax
                    if cap_dt < dt_eff:
                        dt_eff = cap_dt
                        last = False
            # a step too small to advance t means the flow is too stiff
            z_new = None if dt_eff < 1e-15 * cfg.dt or t + dt_eff == t else ref_rk4(z, fld, dt_eff, k1)
        except FlowDegeneracyError:
            z_new = None
        if z_new is None or not np.isfinite(z_new).all():
            termination = Termination.DEGENERATE
            break
        z = z_new
        t = cfg.t_end if last else t + dt_eff
        steps += 1
        if steps % cfg.record_every == 0:
            rec_t.append(t)
            rec_z.append(z)
    if rec_t[-1] != t:
        rec_t.append(t)
        rec_z.append(z)
    return Trajectory(rec_t, rec_z, termination)


# the largest modal-against-stepped state difference allowed, in units of
# eps * initial diameter: the two round differently (measured: at most 8.1)
_MODAL_ULPS = 64


def assert_same_linear_run(poly, cfg):
    with np.errstate(over="ignore", invalid="ignore"):
        expected = ref_run(poly, FlowSpec.linear(), cfg)
    got = run(poly, FlowSpec.linear(), cfg)
    assert got.termination is expected.termination
    assert same_bits(got.times, expected.times)
    scale = _MODAL_ULPS * _EPS * _diameter(poly.z)
    assert np.abs(got.z - expected.z).max() <= scale
    return got


LINEAR_RUNS = st.tuples(
    st.sampled_from([GeneratorKind.RANDOM_STAR, GeneratorKind.RANDOM_CONVEX]),
    st.integers(3, 40),
    st.integers(0, 2**32),
    # up to 1.35: past about 1.39, RK4 is unstable on the fastest mode
    st.floats(1e-3, 1.35),
    # t_end in steps, not a whole number of them in general
    st.floats(0.5, 300.0),
    st.integers(1, 30),
    # stop_diameter as a fraction of the initial diameter
    st.one_of(st.just(0.0), st.floats(1e-3, 1.0)),
)


@settings(deadline=None, max_examples=60)
@given(LINEAR_RUNS)
def test_modal_run_against_stepped_loop(spec):
    kind, n, seed, dt, steps, record_every, stop = spec
    poly = generate(GeneratorSpec(kind, n=n), seed)
    cfg = SimConfig(t_end=steps * dt, dt=dt, stop_diameter=stop * _diameter(poly.z), record_every=record_every)
    assert_same_linear_run(poly, cfg)


def stepped_collapse_band(poly, cfg, steps):
    """Times, diameters and bracket radii of the oracle's first ``steps`` steps."""
    traj = ref_run(poly, FlowSpec.linear(), replace(cfg, t_end=steps * cfg.dt, stop_diameter=0.0, record_every=1))
    r = np.abs(traj.z - traj.z.mean(axis=1, keepdims=True)).max(axis=1)
    return traj.times, np.array([_diameter(row) for row in traj.z]), r


@pytest.mark.parametrize("n", [5, 12, 40])
@pytest.mark.parametrize("offset", [0, 1])
def test_collapse_at_a_block_boundary(n, offset):
    # the first collapsed state is the last row of the first modal block
    # (offset 0) or the first row of the second (offset 1); the stop lies
    # inside the bracket band of the state before, which only the exact
    # diameter shows to be above it
    # (a screened block is _SCREENED times longer, and its steps as much
    # shorter: the first block ends well above the rounding floor)
    poly = generate(GeneratorSpec(GeneratorKind.RANDOM_STAR, n=n), 7)
    cfg = SimConfig(t_end=1e4, dt=0.05 / simulate._SCREENED, record_every=3)
    k = simulate._SCREENED * _BLOCK // n
    times, d, r = stepped_collapse_band(poly, cfg, k + 2)
    j = k + offset
    stop = 0.5 * (d[j - 1] + d[j])
    assert d[:j].min() > stop > d[j]
    assert stop > r[j - 1]
    got = assert_same_linear_run(poly, replace(cfg, stop_diameter=stop))
    assert got.termination is Termination.COLLAPSED
    assert got.times[-1] == times[j]


def test_short_last_step():
    # t_end is not a whole number of steps: the last one is short and ends at
    # t_end exactly
    poly = generate(GeneratorSpec(GeneratorKind.RANDOM_CONVEX, n=9), 3)
    got = assert_same_linear_run(poly, SimConfig(t_end=1.0, dt=0.03, record_every=4))
    assert got.termination is Termination.T_END
    assert got.times[-1] == 1.0 and got.times[-2] < 1.0


def test_step_cap_on_the_modal_path(monkeypatch):
    monkeypatch.setattr(simulate, "MAX_STEPS", 3)
    poly = generate(GeneratorSpec(GeneratorKind.RANDOM_STAR, n=7), 1)
    got = assert_same_linear_run(poly, SimConfig(t_end=1.0, dt=0.01, stop_diameter=0.0, record_every=2))
    assert got.termination is Termination.MAX_STEPS
    assert len(got) == 3


@pytest.mark.parametrize("n, dt", [(4, 2.0), (12, 3.0), (7, 2.5)])
def test_unstable_step_degenerates_on_both_paths(n, dt):
    # h * lambda below -2.785 makes the fastest mode grow until it overflows.
    # The two paths round differently, so the last finite step may differ;
    # this far past the edge the mode grows fivefold or more a step, and the
    # difference is at most one step.
    poly = generate(GeneratorSpec(GeneratorKind.RANDOM_STAR, n=n), 5)
    cfg = SimConfig(t_end=1e5, dt=dt, record_every=50)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = ref_run(poly, FlowSpec.linear(), cfg)
    got = run(poly, FlowSpec.linear(), cfg)
    assert expected.termination is Termination.DEGENERATE
    assert got.termination is Termination.DEGENERATE
    assert abs(got.times[-1] - expected.times[-1]) <= dt


def ref_modal_states(z, cfg):
    # the linear flow's modal blocks as they were before the modal screen:
    # every row of every block formed by one inverse FFT
    n = z.size
    c0 = _modes(z)
    lam = eigenvalues(n)
    log_gain = np.log1p(_rk4_gain_m1(cfg.dt * lam))
    k = max(1, _BLOCK // n)
    t, m = 0.0, 0
    while True:
        ts, last = simulate._fixed_steps(t, cfg, k)
        full = ts.size - last
        # the modes now, then after each full step
        c = c0 * np.exp(np.arange(m, m + full + 1)[:, None] * log_gain)
        if last:
            h = cfg.t_end - (ts[-2] if full else t)
            c = np.concatenate((c, c[-1:] * (1.0 + _rk4_gain_m1(h * lam))))
        t, m = float(ts[-1]), m + full
        yield ts, np.fft.ifft(c[1:], axis=-1, norm="forward")


def ref_modal_run(poly, cfg):
    """``run`` of the linear flow with every state formed and every row through ``_by_diameter``."""
    blocks = ref_modal_states(poly.z, cfg)
    ts, z, steps = np.zeros(1), poly.z[None], 0
    rec_t, rec_z = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            finite = np.isfinite(z).all(axis=-1)
            k = ts.size if finite.all() else int(finite.argmin())
            rules = [
                (Termination.COLLAPSED, _by_diameter(z[:k], lambda d: d < cfg.stop_diameter)),
                (Termination.T_END, ~(cfg.t_end - ts[:k] > cfg.dt * 1e-9)),
            ]
            i = min([int(hit.argmax()) for _, hit in rules if hit.any()] + [max(simulate.MAX_STEPS - steps, 0), k])
            if i < k:
                reached = i + 1
                termination = next((reason for reason, hit in rules if hit[i]), Termination.MAX_STEPS)
            else:
                reached, termination = k, None if k == ts.size else Termination.DEGENERATE
            first = -steps % cfg.record_every
            rec_t.append(ts[first:reached:cfg.record_every])
            rec_z.append(z[first:reached:cfg.record_every])
            if reached:
                final = ts[reached - 1 : reached], z[reached - 1 : reached]
            if termination is not None:
                break
            steps += ts.size
            ts, z = next(blocks)
    if np.concatenate(rec_t)[-1] != final[0][0]:
        rec_t.append(final[0])
        rec_z.append(final[1])
    return Trajectory(np.concatenate(rec_t), np.concatenate(rec_z), termination)


def nudged(x, ulps):
    for _ in range(abs(ulps)):
        x = np.nextafter(x, math.copysign(math.inf, ulps))
    return float(x)


@settings(deadline=None, max_examples=80)
@given(
    LINEAR_RUNS,
    # a regular n-gon, whose U is its diameter when n is even
    st.booleans(),
    # from 1.4, RK4 is unstable on the fastest mode of most n, and the screen is off
    st.one_of(st.none(), st.floats(1.4, 2.5)),
    # a translation, in initial diameters, and its direction
    st.one_of(st.just(0.0), st.floats(0.0, 1e8)),
    st.floats(0.0, 2.0 * math.pi),
    # the stop at a row's L, U or diameter: the last row of a block, a row of
    # a block's stride grid or one either side of it, or any row
    st.sampled_from([None, "lower", "upper", "diameter"]),
    st.one_of(
        st.integers(0, 3).map(lambda b: ("block", b)),
        st.tuples(st.integers(0, 2), st.integers(0, 130), st.integers(-1, 1)).map(lambda g: ("grid", g)),
        st.integers(0, 3000).map(lambda j: ("row", j)),
    ),
    # and a few doubles, or a relative 1e-11 at most, either side of it
    st.one_of(st.integers(-4, 4), st.floats(-1e-11, 1e-11)),
)
# states far below the rounding of their centroid, at the origin and away from it
@example((GeneratorKind.RANDOM_STAR, 3, 0, 1.0, 1.0, 1, 0.0), False, None, 0.0, 0.0, "lower", ("row", 31), 0)
@example((GeneratorKind.RANDOM_STAR, 6, 0, 1.0, 1.0, 1, 0.0), False, None, 1415.0, 1.0, "lower", ("block", 1), 0)
# a regular octagon's diameter is U, up to rounding
@example((GeneratorKind.RANDOM_STAR, 8, 0, 0.75, 1.0, 1, 0.0), True, None, 0.0, 0.0, "upper", ("row", 2), 1)
# an equilateral triangle's diameter is sqrt(3) RMS = sqrt(2n/(n-1)) RMS, where
# L = sqrt(2) RMS must stay below it: the stop at the diameter of row 40
@example((GeneratorKind.RANDOM_STAR, 3, 0, 0.05, 1.0, 1, 0.0), True, None, 0.0, 0.0, "diameter", ("row", 40), 0)
def test_modal_screen_against_dense_run(spec, regular, unstable, offset, angle, near, row, nudge):
    # forming only the states that the run records, its last state and the
    # rows the modal bounds leave open gives the bits of forming them all
    kind, n, seed, dt, steps, record_every, stop = spec
    dt = dt if unstable is None else unstable
    z = np.exp(2j * np.pi * np.arange(n) / n) if regular else generate(GeneratorSpec(kind, n=n), seed).z
    z = z + offset * _diameter(z) * np.exp(1j * angle)
    assume(len(set(z.tolist())) == n)
    poly, diam0 = Polygon(z), _diameter(z)
    stop *= diam0
    if near is not None:
        # a screened block is _SCREENED times longer; row i of a block of k
        # steps after b of them is the state after k b + 1 + i steps
        k = (simulate._SCREENED if unstable is None else 1) * _BLOCK // n
        if row[0] == "grid":
            b, q, d = row[1]
            j = k * b + 1 + simulate._STEP_BLOCK * q + d
        else:
            j = k * row[1] if row[0] == "block" else row[1]
        with np.errstate(over="ignore", invalid="ignore"):
            c = _modes(z) * np.exp(j * np.log1p(_rk4_gain_m1(dt * eigenvalues(n))))
            size = np.abs(c[1:])
            diameter = _diameter(np.fft.ifft(c, norm="forward"))
            value = {"lower": np.sqrt(2.0 * (size**2).sum()), "upper": 2.0 * size.sum(), "diameter": diameter}[near]
        assume(np.isfinite(value))
        stop = nudged(value, nudge) if isinstance(nudge, int) else value * (1.0 + nudge)
        steps = max(steps, j + 1.5)
    cfg = SimConfig(t_end=steps * dt, dt=dt, stop_diameter=max(stop, 0.0), record_every=record_every)
    # bit for bit: termination, times and states
    assert run(poly, FlowSpec.linear(), cfg) == ref_modal_run(poly, cfg)


def ref_row_bounds(block, stop, margin):
    """Per row of a ``_ModalBlock``: does its L clear it, and does its U prove it collapsed?

    L and U are taken on every row, as the modal screen once took them.
    """
    b = np.abs(block.c0) * np.exp(block.e[:, None] * block.log_gain)
    if block.short is not None:
        b[-1] *= block.short
    b = b[:, 1:]
    lower, upper = np.sqrt(2.0 * (b * b).sum(axis=-1)), 2.0 * b.sum(axis=-1)
    return lower >= stop + margin, upper + margin < stop


@settings(deadline=None, max_examples=150)
@given(
    st.sampled_from([GeneratorKind.RANDOM_STAR, GeneratorKind.RANDOM_CONVEX]),
    st.integers(3, 40),
    st.integers(0, 2**32),
    st.floats(1e-3, 1.35),
    # the block: steps before it, its length, and a short last step
    st.integers(0, 5000),
    st.integers(1, 5000),
    st.one_of(st.none(), st.floats(0.0, 1.0)),
    # the stop near a row's L or U, a few doubles either side of it, or anywhere
    st.sampled_from(["lower", "upper", "anywhere"]),
    st.integers(0, 4999),
    st.integers(-4, 4),
    st.floats(0.0, 1.0),
    st.sampled_from([0.0, 1e-12, 1e-6]),
)
# a crossing on the last grid row before the last row, and one just after it
@example(GeneratorKind.RANDOM_STAR, 12, 1, 0.05, 0, 1364, None, "lower", 1344, 0, 0.0, 0.0)
@example(GeneratorKind.RANDOM_STAR, 12, 1, 0.05, 0, 1364, None, "upper", 1345, 0, 0.0, 0.0)
def test_strided_search_against_every_row(kind, n, seed, dt, before, k, short, near, j, nudge, frac, margin):
    # every row before the open slice is cleared by its own L, and its last
    # row is proved collapsed by its own U, or the slice runs to the block's end
    z = generate(GeneratorSpec(kind, n=n), seed).z
    lam = eigenvalues(n)
    log_gain = np.log1p(_rk4_gain_m1(dt * lam))
    gain = None if short is None else 1.0 + _rk4_gain_m1(short * dt * lam)
    block = simulate._ModalBlock(_modes(z), log_gain, np.arange(before + 1, before + k + 1), gain)
    margin *= _diameter(z)
    j = min(j, k - 1)
    b = np.abs(block.c0) * np.exp(block.e[j] * log_gain)
    if j == k - 1 and gain is not None:
        b = b * gain
    b = b[1:]
    if near == "lower":
        stop = nudged(np.sqrt(2.0 * (b * b).sum()), nudge) - margin
    elif near == "upper":
        stop = nudged(2.0 * b.sum(), nudge) + margin
    else:
        stop = frac * _diameter(z)
    cleared, proved = ref_row_bounds(block, stop, margin)
    rows = block.open_rows(stop, margin)
    assert 0 <= rows.start <= rows.stop <= k
    assert cleared[: rows.start].all()
    assert rows.stop == k or proved[rows.stop - 1]
    # the bounds are taken on the grid alone: the slice starts after the grid
    # rows cleared before the first one left open, and ends at the first grid
    # row proved collapsed, or is empty if the last row is cleared
    grid = np.append(np.arange(0, k - 1, simulate._STEP_BLOCK), k - 1)
    i, on_grid = int(cleared[grid].argmin()), proved[grid]
    window = slice(int(grid[i - 1]) + 1 if i else 0, int(grid[on_grid.argmax()]) + 1 if on_grid.any() else k)
    assert rows == (slice(k, k) if cleared[-1] else window)
    # on a grid of every row, the slice is the per-row search's
    per_row = slice(int(cleared.argmin()), int(proved.argmax()) + 1 if proved.any() else k)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "_STEP_BLOCK", 1)
        assert block.open_rows(stop, margin) == (slice(k, k) if cleared.all() else per_row)


@settings(deadline=None)
@given(st.lists(st.tuples(st.integers(-50, 50), st.integers(-50, 50)), min_size=3, max_size=12, unique=True))
def test_diameter_is_at_least_sqrt2_times_rms(points):
    # Over the ordered pairs j != j', the mean of |z_j - z_j'|**2 is 2n/(n-1)
    # times the mean of |z_j - g|**2, exactly; so the squared diameter is at
    # least that, and L = sqrt(2) RMS is a lower bound of the diameter
    n = len(points)
    pts = [(Fraction(x, 7), Fraction(y, 3)) for x, y in points]
    gx, gy = sum(x for x, _ in pts) / n, sum(y for _, y in pts) / n
    rms2 = sum((x - gx) ** 2 + (y - gy) ** 2 for x, y in pts) / n
    sq = [(x1 - x2) ** 2 + (y1 - y2) ** 2 for (x1, y1), (x2, y2) in itertools.permutations(pts, 2)]
    assert sum(sq) / (n * (n - 1)) == Fraction(2 * n, n - 1) * rms2
    assert max(sq) >= Fraction(2 * n, n - 1) * rms2 >= 2 * rms2


@pytest.mark.parametrize(
    "n, dt, t_end, stop, record_every, termination",
    [
        # collapse, as a linear_ensemble item runs it
        (12, 0.05, 400.0, 1e-4, 10, Termination.COLLAPSED),
        # T_END after two screened blocks and part of a third
        (7, 0.05, 300.0, 0.0, 10, Termination.T_END),
        # every state recorded, to collapse
        (5, 0.05, 400.0, 1e-3, 1, Termination.COLLAPSED),
        # a growing mode: the screen is off, and the blocks keep _BLOCK // n steps
        (9, 1.6, 1e5, 1e-3, 7, Termination.DEGENERATE),
    ],
    ids=["collapse", "t_end", "record_every_1", "growing_mode"],
)
def test_linear_run_against_dense_run(n, dt, t_end, stop, record_every, termination):
    poly = generate(GeneratorSpec(GeneratorKind.RANDOM_STAR, n=n), 11)
    cfg = SimConfig(t_end=t_end, dt=dt, stop_diameter=stop * _diameter(poly.z), record_every=record_every)
    with np.errstate(over="ignore", invalid="ignore"):
        got = run(poly, FlowSpec.linear(), cfg)
    assert got.termination is termination
    assert got == ref_modal_run(poly, cfg)


@settings(deadline=None)
@given(FFT_STACK, st.floats(1e-3, 1.4))
def test_rk4_step_is_the_modal_gain(z, h):
    # the public stepped map and the modal path apply one polynomial R(h lambda)
    for row in z:
        stepped = step_rk4(Polygon._wrap(row), FlowSpec.linear(), h).z
        gain = 1.0 + _rk4_gain_m1(h * eigenvalues(row.size))
        modal = np.fft.ifft(np.fft.fft(row) * gain)
        assert np.abs(stepped - modal).max() <= 16 * _EPS * np.abs(row).max()


@settings(deadline=None)
@given(STACK, st.integers(0, 3), st.sampled_from(["d", "d+", "d-", "r", "2r", "zero"]))
def test_collapse_test_is_exact(z, row, which):
    # the bracket only narrows where the exact diameter is needed: the first
    # row it calls collapsed is the first row with _diameter < stop; and the
    # stacked diameters, in blocks of rows, are the per-row ones
    row = min(row, len(z) - 1)
    d = np.array([_diameter(x) for x in z])
    assert same_bits(_diameters(z), d)
    r = np.abs(z - z.mean(axis=1, keepdims=True)).max(axis=1)
    stop = {
        "d": d[row],
        "d+": np.nextafter(d[row], np.inf),
        "d-": np.nextafter(d[row], 0.0),
        "r": r[row],
        "2r": 2.0 * r[row],
        "zero": 0.0,
    }[which]
    expected = d < stop
    got = _by_diameter(z, lambda d: d < stop)
    first = int(expected.argmax()) if expected.any() else len(z)
    assert not got[:first].any()
    assert first == len(z) or got[first]


# Every tolerance built from the diameter is decided from the O(n) bracket
# r <= diameter <= 2 r, and the exact n x n diameter is taken only for rows
# the bracket cannot settle.  The rows below sit at the tolerance itself and
# one double either side of it, where only the exact diameter decides; they
# must get the verdicts of the oracles above, which take _diameter of every
# row.


@pytest.fixture
def exact_rows(monkeypatch):
    """The row count of each call to geometry._diameters during the test."""
    calls = []
    diameters = geometry._diameters

    def counted(z):
        calls.append(len(z))
        return diameters(z)

    monkeypatch.setattr(geometry, "_diameters", counted)
    return calls


def one_either_side(x):
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


def test_star_radius_band(exact_rows):
    # the centroid is exactly 0, the diameter |1j - (-1j)| exactly 2, and the
    # two vertices on the real axis lie PREDICATE_TOL * 2 from the centroid,
    # or one double nearer or farther
    radii = one_either_side(PREDICATE_TOL * 2.0)
    z = np.array([[e, 1j, -e, -1j] for e in radii])
    tags, alpha, r, _ = _star_classes(z)
    assert exact_rows == [3]
    for row, tag, a, rr, e in zip(z, tags, alpha, r, radii):
        ref_tag, ref_alpha, ref_r = ref_classify_star(row)
        assert _diameter(row) == 2.0 and ref_r.min() == e
        assert tag is ref_tag and same_bits(a, ref_alpha) and same_bits(rr, ref_r)
    assert list(tags) == [StarTag.NOT_STAR, StarTag.NOT_STAR, StarTag.CCW_STAR]


def test_convexity_h_band(exact_rows):
    # a counterclockwise quadrilateral of diameter |1 - (-1)| = 2 whose
    # bottom vertex -1j * h / 2 has H value h exactly: h at -PREDICATE_TOL * 4
    # and at PREDICATE_TOL * 4, and one double either side of each
    tol = PREDICATE_TOL * 4.0
    hs = one_either_side(-tol) + one_either_side(tol)
    z = np.array([[-1.0, complex(0.0, -0.5 * h), 1.0, 1j] for h in hs])
    tags, beta, h, _ = _convexity_classes(z)
    assert exact_rows == [6]
    for row, tag, b, hh, want in zip(z, tags, beta, h, hs):
        ref_tag, ref_beta, ref_h = ref_classify_convexity(row)
        assert _diameter(row) == 2.0 and ref_h.min() == want
        assert tag is ref_tag and same_bits(b, ref_beta) and same_bits(hh, ref_h)
    C = ConvexityTag
    assert list(tags) == [C.NOT_CONVEX, C.CONVEX, C.CONVEX, C.CONVEX, C.CONVEX, C.STRICTLY_CONVEX]


@pytest.mark.parametrize("side", range(3))
def test_default_capture_band(exact_rows, side):
    # a convex pentagon of diameter |-1 - 1| = 2 whose shortest edge, from
    # -0.5j to e - 0.5j, is e long: the default capture threshold 1e-6 * 2,
    # or one double shorter or longer
    e = one_either_side(1e-6 * 2.0)[side]
    poly = Polygon([-1.0, -0.5j, e - 0.5j, 1.0, 1j])
    assert poly.diameter() == 2.0 and poly.min_edge() == e
    flow = FlowSpec.bisector()
    cfg = SimConfig(t_end=0.05, dt=1e-3)
    got = run(poly, flow, cfg)
    assert exact_rows == [1]
    assert got == ref_run(poly, flow, cfg)
    # captured at once below the threshold; otherwise the bisectors at the
    # short edge diverge and it grows
    if side == 0:
        assert got.termination is Termination.CAPTURE and len(got) == 1
    else:
        assert got.termination is Termination.T_END


def test_default_capture_takes_the_initial_bracket_once(monkeypatch, exact_rows):
    # a square with two straight vertices 3e-6 apart on its top edge: its
    # diameter is 2 sqrt 2 and its bracket about [1.67, 3.33], so the shortest
    # edge lies between the capture threshold and the band's top all run; over
    # seven blocks of steps the capture test still forms the bracket of the
    # initial polygon once, and takes its exact diameter once.  The run takes
    # 6.25 blocks' worth of steps, 200 at blocks of 32, over the same 5e-4 time
    z0 = np.array([[-1 - 1j, 1 - 1j, 1 + 1j, 1.5e-6 + 1j, -1.5e-6 + 1j, -1 + 1j]])
    brackets = []
    bracket = geometry._diameter_bracket

    def counted(z):
        brackets.append(z.shape == z0.shape and bool((z == z0).all()))
        return bracket(z)

    monkeypatch.setattr(geometry, "_diameter_bracket", counted)
    poly, flow = Polygon(z0[0]), FlowSpec.bisector()
    cfg = SimConfig(t_end=5e-4, dt=8e-5 / simulate._STEP_BLOCK)
    got = run(poly, flow, cfg)
    assert got.termination is Termination.T_END
    assert -(-(len(got) - 1) // simulate._STEP_BLOCK) == 7
    assert (got.min_edge > 1e-6 * poly.diameter()).all() and got.min_edge.min() > 2.99e-6
    # the collapse test brackets the initial state and each of the 7 blocks;
    # the capture test brackets z0 once
    assert len(brackets) == 9 and brackets.count(True) == 2
    assert exact_rows == [1]
    assert got == ref_run(poly, flow, cfg)


def _raising_fields(n_eval):
    """A stand-in for ``_field_function`` whose fields raise on their ``n_eval``-th evaluation."""
    field_function = simulate._field_function

    def make(flow):
        fld, count = field_function(flow), itertools.count(1)

        def raising(z):
            if next(count) == n_eval:
                raise FlowDegeneracyError("undefined here")
            return fld(z)

        return raising

    return make


@pytest.mark.parametrize("flow", [FlowSpec.menger_melnikov(), FlowSpec.bisector()], ids=["mm", "bisector"])
@pytest.mark.parametrize("record_every", [1, 3])
@pytest.mark.parametrize("collapse", [False, True])
def test_raised_degeneracy_at_each_block_row(monkeypatch, flow, record_every, collapse):
    # four field evaluations a step: the failing step falls on each row of the
    # first two blocks of _STEP_BLOCK steps and on the first of the third, at
    # each of the four stages in turn, in a run of three blocks and part of a
    # fourth; with collapse, the run collapses at step 5, and only a failure
    # before that step ends it DEGENERATE
    block = simulate._STEP_BLOCK
    poly = generate(GeneratorSpec(GeneratorKind.RANDOM_STAR, n=7), 2)
    cfg = SimConfig(t_end=(3 * block + 6) * 1e-3, dt=1e-3, stop_diameter=0.0, record_every=record_every)
    if collapse:
        d = [_diameter(row) for row in ref_run(poly, flow, replace(cfg, t_end=0.006, record_every=1)).z]
        cfg = replace(cfg, stop_diameter=0.5 * (d[4] + d[5]))
    module = sys.modules[__name__]
    for n_eval in range(1, 4 * (2 * block + 1) + 1, 3):
        monkeypatch.setattr(simulate, "_field_function", _raising_fields(n_eval))
        monkeypatch.setattr(module, "_field_function", _raising_fields(n_eval))
        expected = ref_run(poly, flow, cfg)
        assert run(poly, flow, cfg) == expected
        late = collapse and n_eval > 4 * 5
        assert expected.termination is (Termination.COLLAPSED if late else Termination.DEGENERATE)
        monkeypatch.undo()


def test_well_separated_rows_need_no_exact_diameter(monkeypatch):
    def refuse(z):
        raise AssertionError("the bracket settles every row here")

    monkeypatch.setattr(geometry, "_diameters", refuse)
    ring = np.exp(2j * np.pi * np.arange(1000) / 1000)
    z = np.array([ring, 3.0 * ring + (2.0 - 1.0j)])
    assert all(tag is StarTag.CCW_STAR for tag in _star_classes(z)[0])
    assert all(tag is ConvexityTag.STRICTLY_CONVEX for tag in _convexity_classes(z)[0])
    poly = generate(GeneratorSpec(GeneratorKind.RANDOM_STAR, n=12), 3)
    traj = run(poly, FlowSpec.bisector(), SimConfig(t_end=0.05, dt=1e-3))
    assert traj.termination is Termination.T_END


STEPPED_RUNS = st.tuples(
    st.sampled_from(
        [
            FlowSpec.menger_melnikov(),
            FlowSpec.bisector(),
            FlowSpec.bisector(speed_mode=BisectorSpeedMode.NORM_MATCHED),
        ]
    ),
    st.integers(3, 12),
    st.integers(0, 2**32),
    st.floats(1e-4, 0.02),
    # t_end in steps
    st.floats(0.5, 40.0),
    st.integers(1, 5),
    st.booleans(),
    # stop_diameter and min_edge_capture as fractions of the initial diameter
    st.one_of(st.just(0.0), st.floats(0.5, 1.0)),
    st.one_of(st.none(), st.floats(1e-3, 0.3)),
)


@settings(deadline=None, max_examples=40)
@given(STEPPED_RUNS)
def test_stepped_flows_against_stepped_loop(spec):
    # the Menger-Melnikov and bisector flows still step the vertices: bit for bit
    flow, n, seed, dt, steps, record_every, adaptive, stop, capture = spec
    poly = generate(GeneratorSpec(GeneratorKind.RANDOM_STAR, n=n), seed)
    diam0 = _diameter(poly.z)
    cfg = SimConfig(
        t_end=steps * dt,
        dt=dt,
        stop_diameter=stop * diam0,
        record_every=record_every,
        adaptive=adaptive,
        min_edge_capture=None if capture is None else capture * diam0,
    )
    assert run(poly, flow, cfg) == ref_run(poly, flow, cfg)


# A convex pentagon with a short bottom edge, 1e-4 long, whose bisectors
# converge: at unit speed and dt = 1e-6 the edge closes by under 1e-6 a step,
# so no step jumps over the default capture threshold 1e-6 * 2
CAPTURE_PENTAGON = Polygon([-1.0, -0.5j, 1e-4 - 0.5j, 1.0, 1j])
STAR_9 = generate(GeneratorSpec(GeneratorKind.RANDOM_STAR, n=9), 7)
BISECTOR_STEPS = SimConfig(t_end=1e-3, dt=1e-6, record_every=10)
# name: polygon, flow, settings and how the run ends
STOPPED_RUNS = {
    # after 109 steps, then after 214
    "capture": (
        CAPTURE_PENTAGON, FlowSpec.bisector(), replace(BISECTOR_STEPS, min_edge_capture=5e-5), Termination.CAPTURE
    ),
    "default_capture": (CAPTURE_PENTAGON, FlowSpec.bisector(), BISECTOR_STEPS, Termination.CAPTURE),
    # dt is so large that the curvature cap shortens every step
    "mm_capped": (
        STAR_9,
        FlowSpec.menger_melnikov(),
        SimConfig(t_end=1.0, dt=0.05, stop_diameter=0.5 * STAR_9.diameter(), record_every=2),
        Termination.COLLAPSED,
    ),
    # the regular pentagon whose capped step no longer advances the time
    "mm_stall": (
        Polygon(np.exp(2j * np.pi * np.arange(5) / 5)),
        FlowSpec.menger_melnikov(),
        SimConfig(t_end=1e6, dt=1.0, stop_diameter=0.0, record_every=7),
        Termination.DEGENERATE,
    ),
    # after 45 steps, with the cap patched
    "max_steps": (
        STAR_9,
        FlowSpec.bisector(speed_mode=BisectorSpeedMode.NORM_MATCHED),
        SimConfig(t_end=1.0, dt=1e-3, record_every=4),
        Termination.MAX_STEPS,
    ),
    # after 688 steps, at row 687 of the first modal block: mid-block, and
    # mid-stride on a modal screen grid of 8 or of 32 rows
    "linear_collapse": (
        generate(GeneratorSpec(GeneratorKind.RANDOM_STAR, n=8), 3),
        FlowSpec.linear(),
        SimConfig(t_end=400.0, dt=0.05, stop_diameter=1e-4, record_every=10),
        Termination.COLLAPSED,
    ),
}


@pytest.mark.parametrize("block", [1, 8, 32])
def test_block_length_never_shows(monkeypatch, block):
    # each stopped run has the stepped loop's bits at every block length, and
    # the linear run the dense modal run's at every modal screen stride; the
    # last block of a run that stops mid-block holds steps past its stop
    monkeypatch.setattr(simulate, "_STEP_BLOCK", block)
    first_stop, max_steps, blocks = simulate._first_stop, simulate.MAX_STEPS, {}

    def counted(z, ts, rows, steps, cfg, captured):
        reached, termination = first_stop(z, ts, rows, steps, cfg, captured)
        blocks[name].append((ts.size, reached))
        return reached, termination

    monkeypatch.setattr(simulate, "_first_stop", counted)
    for name, (poly, flow, cfg, termination) in STOPPED_RUNS.items():
        blocks[name] = []
        monkeypatch.setattr(simulate, "MAX_STEPS", 45 if name == "max_steps" else max_steps)
        got = run(poly, flow, cfg)
        assert got == (ref_modal_run(poly, cfg) if flow.kind is FlowKind.LINEAR else ref_run(poly, flow, cfg))
        assert got.termination is termination
    # after the initial state, every capped block is one step long
    assert {size for size, _ in blocks["mm_capped"][1:]} == {1}
    # the step that no longer advances the time is a block of one unreached row
    assert blocks.pop("mm_stall")[-1] == (1, 0)
    assert blocks["linear_collapse"][1][1] == 688
    mid_block = [name for name, b in blocks.items() if b[-1][1] < b[-1][0]]
    assert mid_block == ([] if block == 1 else ["capture", "default_capture", "max_steps"]) + ["linear_collapse"]
