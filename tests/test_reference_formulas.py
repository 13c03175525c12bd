"""Turning values, angles, fields, the circumcircle and the classes against their original formulas.

Each quantity below once had its own hand-written copy of Im{conj(u) * w},
Re{conj(u) * w}, the edge lengths or the bisector direction.  The copies are
kept here, written out as they were, and the single implementations in the
package must reproduce them bit for bit, signed zeros included.  The same
holds for the per-sample trajectory columns, which are computed row-wise on
the whole ``(S, n)`` stack of samples at once, and for the flows, whose
cyclic neighbours were once taken with ``np.roll`` and whose Menger-Melnikov
field once called the scalar circumcircle in a per-vertex loop.  The side-pair
test of ``is_simple`` was once a scalar loop over the pairs; that loop, and
the one-polygon star and convexity classifiers built on it, are kept here as
the oracle for the stacked classification.  The modal transform was once a
pair of direct O(n^2) sums through hand-built DFT matrices, and the ellipse
series a per-sample loop; those bodies are kept here as the oracle for the
FFT and for the stacked residual.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from polyshort.analysis import ellipse_convergence_series, perimeter_rate  # noqa: E402
from polyshort.flows import (  # noqa: E402
    ANTIPARALLEL_TOL,
    CoincidentVerticesError,
    DegenerateTripleError,
    FlowSpec,
    _bisector_direction,
    _bisector_field,
    _linear_field,
    _menger_melnikov_field,
)
from polyshort.geometry import (  # noqa: E402
    _PAIR_BLOCK,
    ANGLE_SUM_TOL,
    PREDICATE_TOL,
    ConvexityTag,
    Polygon,
    StarTag,
    _convexity_classes,
    _cross,
    _diameter,
    _dot,
    _next,
    _prev,
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
from polyshort.io_cli import (  # noqa: E402
    GeneratorKind,
    GeneratorSpec,
    generate,
    read_trajectory_csv,
    write_trajectory_csv,
)
from polyshort.simulate import Termination, Trajectory  # noqa: E402
from polyshort.spectral import (  # noqa: E402
    FLAT_AXIS_TOL,
    LEADING_MODE_TOL,
    DegenerateLeadingModeError,
    EllipseParams,
    SpectralDecomposition,
    _modes,
    closed_form_state,
    decompose,
    eigenvalues,
    ellipse_residual,
    leading_decay_rate,
    limit_ellipse,
)

_TWO_PI = 2.0 * np.pi

# small exact values make zero products, and so signed zeros, common
COORD = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0]),
    st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False),
)
POINT = st.builds(complex, COORD, COORD)
CIRCUIT = st.lists(POINT, min_size=3, max_size=9).map(lambda pts: Polygon._wrap(np.array(pts)))
# stacks of S samples; the sizes straddle numpy's 8-wide unrolled and
# 128-wide pairwise summation blocks, where a row-wise sum could differ
STACK = st.tuples(
    st.integers(1, 4), st.sampled_from([3, 4, 7, 8, 9, 15, 16, 17, 127, 128, 129, 255, 256, 257])
).flatmap(lambda shape: arrays(np.complex128, shape, elements=POINT))


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
    scale = max(abs(a - b), abs(b - c), abs(a - c))
    if scale == 0.0 or abs(ref_star_function(a, b, c)) <= PREDICATE_TOL * scale * scale:
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


def ref_is_simple(z):
    pts = z.tolist()
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


def ref_classify_convexity(z):
    # (tag, internal_angles, h_values), as classify_convexity computed them
    u = _prev(z) - z
    w = _next(z) - z
    if ref_signed_area(z) < 0.0:
        u, w = w, u
    h = _cross(w, u)
    beta = np.arctan2(h, _dot(u, w))
    beta = np.where(beta < 0.0, beta + _TWO_PI, beta)
    tol = PREDICATE_TOL * _diameter(z) ** 2
    if np.all(h >= -tol) and np.any(h > tol) and ref_is_simple(z):
        tag = ConvexityTag.STRICTLY_CONVEX if np.all(h > tol) else ConvexityTag.CONVEX
    else:
        tag = ConvexityTag.NOT_CONVEX
    return tag, beta, h


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


@given(POINT, POINT, POINT)
def test_circumcircle(a, b, c):
    expected = ref_circumcircle(a, b, c)
    circ = circumcircle(a, b, c)
    if expected is None:
        assert circ is None
        return
    assert type(circ.center) is complex and type(circ.radius) is float
    assert same_bits([circ.center.real, circ.center.imag, circ.radius], [expected[0].real, expected[0].imag, expected[1]])


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
        assert same_outcome(got, outcome(ref_menger_melnikov_field, z))


@given(CIRCUIT)
def test_is_simple(poly):
    assert is_simple(poly) is ref_is_simple(poly.z)


@given(CIRCUIT)
def test_one_polygon_classes(poly):
    star = classify_star(poly)
    tag, alpha, r = ref_classify_star(poly.z)
    assert star.tag is tag and same_bits(star.angles, alpha) and same_bits(star.radii, r)
    cvx = classify_convexity(poly)
    tag, beta, h = ref_classify_convexity(poly.z)
    assert cvx.tag is tag and same_bits(cvx.internal_angles, beta) and same_bits(cvx.h_values, h)


# the stacked classes must give every row of a stack the one-polygon verdict


@given(st.one_of(STACK, GRID_STACK))
def test_stacked_simple(z):
    assert [bool(v) for v in _simple(z)] == [ref_is_simple(row) for row in z]


@given(STACK)
def test_stacked_star_classes(z):
    tags, alpha, r, _ = _star_classes(z)
    assert tags.shape == z.shape[:1] and alpha.shape == r.shape == z.shape
    for row, tag, a, rr in zip(z, tags, alpha, r):
        ref_tag, ref_alpha, ref_r = ref_classify_star(row)
        assert tag is ref_tag and same_bits(a, ref_alpha) and same_bits(rr, ref_r)


@given(st.one_of(STACK, GRID_STACK))
def test_stacked_convexity_classes(z):
    tags, beta, h = _convexity_classes(z)
    assert tags.shape == z.shape[:1] and beta.shape == h.shape == z.shape
    for row, tag, b, hh in zip(z, tags, beta, h):
        ref_tag, ref_beta, ref_h = ref_classify_convexity(row)
        assert tag is ref_tag and same_bits(b, ref_beta) and same_bits(hh, ref_h)


def test_simple_spans_pair_blocks():
    # more side pairs than one block holds: per row at n = 200, and per stack
    # of 8-gons; swapping two neighbours of a regular polygon crosses the
    # sides around them, in the first, a middle or the last block of pairs
    for n, swaps in ((200, [None, 3, 100, 196, None]), (8, [None, 0, 5, 7] * 300)):
        z = np.tile(np.exp(2j * np.pi * np.arange(n) / n), (len(swaps), 1))
        for row, k in zip(z, swaps):
            if k is not None:
                row[[k, (k + 1) % n]] = row[[(k + 1) % n, k]]
        assert z.shape[0] * n * (n - 3) // 2 > 2 * _PAIR_BLOCK
        got = [bool(v) for v in _simple(z)]
        assert got == [ref_is_simple(row) for row in z] == [k is None for k in swaps]


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


_EPS = np.finfo(np.float64).eps
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
