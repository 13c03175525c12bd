"""Turning values, angles and the perimeter rate against their original formulas.

Each quantity below once had its own hand-written copy of Im{conj(u) * w},
Re{conj(u) * w}, the edge lengths or the bisector direction.  The copies are
kept here, written out as they were, and the single implementations in the
package must reproduce them bit for bit, signed zeros included.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from polyshort.analysis import perimeter_rate  # noqa: E402
from polyshort.flows import CoincidentVerticesError  # noqa: E402
from polyshort.geometry import (  # noqa: E402
    Polygon,
    classify_convexity,
    classify_star,
    convex_function,
    convexity_values,
    perimeter,
    signed_area,
    star_function,
    star_values,
)

_TWO_PI = 2.0 * np.pi

# small exact values make zero products, and so signed zeros, common
COORD = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0]),
    st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False),
)
POINT = st.builds(complex, COORD, COORD)
CIRCUIT = st.lists(POINT, min_size=3, max_size=9).map(lambda pts: Polygon._wrap(np.array(pts)))


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


def ref_perimeter_rate(z, u):
    e_prev = np.roll(z, 1) - z
    e_next = np.roll(z, -1) - z
    lp = np.abs(e_prev)
    ln = np.abs(e_next)
    if np.any(lp == 0.0) or np.any(ln == 0.0):
        raise CoincidentVerticesError("zero-length edge")
    d = e_prev / lp + e_next / ln
    return -float(np.sum(d.real * u.real + d.imag * u.imag))


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
