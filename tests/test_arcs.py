"""Simplexes, arcs, and frames avoiding a hyperplane."""

import hashlib
import random
from itertools import combinations

import pytest

from desarc.arcs import (
    Arc,
    frame_off_hyperplane,
    is_simplex,
    random_arc_off_hyperplane,
)
from desarc.errors import (
    DimensionTooSmall,
    FieldTooSmall,
    NotAnArc,
    TooFew,
    WrongCount,
)
from desarc.field import GF
from desarc.projlin import (
    ProjPoint,
    join,
    normalize,
)

from support import face, hyperplane_from_dual

F5 = GF(5)


def pt(field, *coords):
    return normalize(field, coords)


def unit_points(field, n):
    pts = []
    for i in range(n + 1):
        coords = [0] * (n + 1)
        coords[i] = 1
        pts.append(ProjPoint(field, coords))
    return pts


# -- independent oracle: integer determinant mod p ------------------------------

def det3_mod(rows, p):
    (a, b, c), (d, e, f), (g, h, i) = rows
    return (a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)) % p


# -- simplexes -----------------------------------------------------------------

def test_unit_points_form_simplex():
    for n in (2, 3, 4):
        assert is_simplex(unit_points(F5, n))


def test_collinear_points_not_simplex():
    pts = [pt(F5, 1, 0, 0), pt(F5, 0, 1, 0), pt(F5, 1, 1, 0)]
    assert det3_mod([p.coords for p in pts], 5) == 0
    assert not is_simplex(pts)


def test_repeated_point_not_simplex():
    assert not is_simplex([pt(F5, 1, 0, 0), pt(F5, 1, 0, 0), pt(F5, 0, 1, 0)])


def test_simplex_wrong_count():
    with pytest.raises(WrongCount):
        is_simplex([pt(F5, 1, 0, 0), pt(F5, 0, 1, 0)])


# -- arcs ----------------------------------------------------------------------

def test_frame_is_arc():
    pts = unit_points(F5, 3) + [pt(F5, 1, 1, 1, 1)]
    assert Arc(pts).points == tuple(pts)


def test_conic_arc_in_pg2_5():
    # oracle first: every triple of the conic has nonzero determinant mod 5
    pts = [(1, t, (t * t) % 5) for t in range(5)] + [(0, 0, 1)]
    for triple in combinations(pts, 3):
        assert det3_mod(triple, 5) != 0
    arc_pts = [normalize(F5, c) for c in pts]
    Arc(arc_pts)
    assert len(arc_pts) == 6  # q + 1


def test_collinear_triple_breaks_arc():
    pts = unit_points(F5, 2) + [pt(F5, 1, 1, 0)]
    with pytest.raises(NotAnArc):
        Arc(pts)


def test_arc_too_few():
    with pytest.raises(TooFew):
        Arc([pt(F5, 1, 0, 0), pt(F5, 0, 1, 0)])


def test_arc_of_no_points_is_too_few():
    # no point, so no ambient space: the count is the broken precondition
    with pytest.raises(TooFew, match="at least one point"):
        Arc([])


def test_arc_needs_dimension_one():
    # every point of PG(0, q) spans it, so the arc check cannot see a repeat
    p = pt(F5, 1)
    with pytest.raises(DimensionTooSmall):
        Arc([p, p, p])
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(DimensionTooSmall):
        random_arc_off_hyperplane(F5, 0, 3, rng)
    assert rng.getstate() == state


def test_random_arc_below_dimension_zero_is_rejected_before_sampling():
    # PG(-1, q) has no point, so a sampler would draw empty vectors forever
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(DimensionTooSmall):
        random_arc_off_hyperplane(F5, -1, 2, rng)
    assert rng.getstate() == state


def test_subsequences_of_arc_are_arcs():
    base = frame_off_hyperplane(F5, 3)
    pts = list(base)
    for sub in combinations(pts, 4):
        Arc(sub)


def test_arc_subset_span_dimensions():
    # any t points of an arc span a (t-1)-space, t <= n+1
    f = GF(7)
    arc = frame_off_hyperplane(f, 4)
    for t in range(1, 5):
        for sub in combinations(arc.points, t):
            assert join(*sub).dim == t - 1


# -- frames off a hyperplane -------------------------------------------------------

def test_frame_off_hyperplane_gf2_fails():
    with pytest.raises(FieldTooSmall):
        frame_off_hyperplane(GF(2), 2)


def test_frame_off_hyperplane_needs_dimension_one():
    with pytest.raises(DimensionTooSmall):
        frame_off_hyperplane(F5, 0)


def test_frame_off_k_itself():
    # the standard frame e_0, e_1, e_2, (1, 1, 1) avoids K: x_0 + x_1 + x_2 = 0
    # over GF(5), and x -> x + (x_1 + x_2) e_0 with coordinates 0 and 2 then
    # swapped carries K onto x_2 = 0 and the standard frame onto the frame
    k = hyperplane_from_dual(F5, (1, 1, 1))
    standard = unit_points(F5, 2) + [pt(F5, 1, 1, 1)]
    assert not any(k.contains_point(p) for p in standard)

    def carry(x):
        y = [(x[0] + x[1] + x[2]) % 5, x[1], x[2]]
        return normalize(F5, [y[2], y[1], y[0]])

    assert list(frame_off_hyperplane(F5, 2)) == [carry(p.coords) for p in standard]


def test_frame_off_x1_zero():
    # the first coordinate hyperplane x_1 = 0 (dual (1, 0, 0)) of PG(2, 5):
    # swapping the first and last coordinates of the frame off x_3 = 0
    # gives a frame off it
    h = hyperplane_from_dual(F5, (1, 0, 0))
    arc = [normalize(F5, p.coords[::-1]) for p in frame_off_hyperplane(F5, 2)]
    assert len(arc) == 4
    Arc(arc)
    for p in arc:
        assert p.coords[0] != 0
        assert not h.contains_point(p)


_FIELDS = {3: GF(3), 4: GF(2, 2), 5: GF(5), 7: GF(7), 9: GF(3, 2)}


@pytest.mark.parametrize("q,n", [(q, n) for q in _FIELDS for n in range(1, 7)])
def test_frame_avoids_the_last_coordinate_hyperplane(q, n):
    arc = frame_off_hyperplane(_FIELDS[q], n)
    assert isinstance(arc, Arc)
    assert len(arc) == n + 2
    Arc(arc.points)
    assert all(p.coords[-1] != 0 for p in arc)


def test_frame_z_choice_keeps_point_off_k():
    # cases where the naive choice z = 1 would land the last point
    # (1, ..., 1, z) of the standard frame on K: x_0 + ... + x_n = 0; its
    # image in the frame has that sum, n + z, as its last coordinate
    for q, n in [(3, 2), (3, 5), (5, 4), (7, 6)]:
        arc = frame_off_hyperplane(GF(q), n)
        assert arc[-1].coords[-1] != 0


@pytest.mark.parametrize("field,n,digest", [
    (GF(5), 2, "b1ad2a28c09e0e968bd5d2b39bfb9dd893f905d988b34863ea6aa5eb106b8f39"),
    (GF(3), 3, "5443346a8c5f90f7d2771b2f8fded6b9e2e2e93352552bc63b3869c69e3cb477"),
    (GF(2, 2), 2, "8f02fbef92d484398652a0aad24279ce0572ef160a7499675d4e67c931c89476"),
    (GF(3, 2), 2, "1648e7f810d2b8b130e549cd7b9c26ca40b223e990b863166dc9eb98621f2e74"),
], ids=["q5-n2", "q3-n3", "q4-n2", "q9-n2"])
def test_frames_are_the_recorded_ones(field, n, digest):
    """sha256 of repr of the frame's coordinate tuples, recorded when the
    frame was carried off any hyperplane by a coordinate rule built from
    its dual vector, here x_n = 0."""
    frame = [p.coords for p in frame_off_hyperplane(field, n)]
    assert hashlib.sha256(repr(frame).encode()).hexdigest() == digest


def test_face_of_simplex():
    pts = unit_points(F5, 3)
    f0 = face(pts, 0)
    assert f0.dim == 2
    assert not f0.contains_point(pts[0])
    for p in pts[1:]:
        assert f0.contains_point(p)


# -- seeded random arcs ---------------------------------------------------------------

def test_random_arc_off_hyperplane_valid_and_deterministic():
    a1 = random_arc_off_hyperplane(F5, 3, 5, random.Random(42))
    a2 = random_arc_off_hyperplane(F5, 3, 5, random.Random(42))
    assert a1 == a2
    Arc(a1.points)
    for p in a1:
        assert p.coords[-1] != 0


def test_random_arc_gf2_fails():
    with pytest.raises(FieldTooSmall):
        random_arc_off_hyperplane(GF(2), 3, 5, random.Random(1))


@pytest.mark.parametrize("field,dual,m,seed,expected", [
    (F5, (0, 0, 0, 1), 5, 42,
     [(0, 0, 1, 3), (1, 1, 0, 4), (0, 0, 1, 1), (1, 4, 3, 1), (0, 1, 0, 4)]),
    (GF(2, 2), (0, 0, 1), 4, 7, [(1, 3, 2), (1, 0, 3), (0, 0, 1), (1, 1, 3)]),
])
def test_random_arc_off_hyperplane_pinned(field, dual, m, seed, expected):
    # the arcs these seeds gave off x_n = 0, the hyperplane of the dual
    # vector, when the sampler took any hyperplane
    h = hyperplane_from_dual(field, dual)
    arc = random_arc_off_hyperplane(field, h.n, m, random.Random(seed))
    assert [p.coords for p in arc] == expected
    assert not any(h.contains_point(p) for p in arc)
