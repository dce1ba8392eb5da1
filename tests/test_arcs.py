"""Simplexes, arcs, and frames avoiding a hyperplane."""

import hashlib
import random
from itertools import combinations

import pytest

from desarc.arcs import (
    Arc,
    face,
    frame_off_hyperplane,
    is_arc,
    is_simplex,
    random_arc_off_hyperplane,
)
from desarc.errors import (
    FieldTooSmall,
    NotAHyperplane,
    NotAnArc,
    TooFew,
    WrongCount,
)
from desarc.field import GF
from desarc.projlin import (
    ProjPoint,
    Subspace,
    all_points,
    hyperplane_from_dual,
    join,
    normalize,
)

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
    assert is_arc(pts)


def test_conic_arc_in_pg2_5():
    # oracle first: every triple of the conic has nonzero determinant mod 5
    pts = [(1, t, (t * t) % 5) for t in range(5)] + [(0, 0, 1)]
    for triple in combinations(pts, 3):
        assert det3_mod(triple, 5) != 0
    arc_pts = [normalize(F5, c) for c in pts]
    assert is_arc(arc_pts)
    assert len(arc_pts) == 6  # q + 1


def test_collinear_triple_breaks_arc():
    pts = unit_points(F5, 2) + [pt(F5, 1, 1, 0)]
    assert not is_arc(pts)
    with pytest.raises(NotAnArc):
        Arc(pts)


def test_arc_too_few():
    with pytest.raises(TooFew):
        is_arc([pt(F5, 1, 0, 0), pt(F5, 0, 1, 0)])


def test_subsequences_of_arc_are_arcs():
    base = frame_off_hyperplane(hyperplane_from_dual(F5, (1, 1, 1, 1)))
    pts = list(base)
    for sub in combinations(pts, 4):
        assert is_arc(list(sub))


def test_arc_subset_span_dimensions():
    # any t points of an arc span a (t-1)-space, t <= n+1
    f = GF(7)
    arc = frame_off_hyperplane(hyperplane_from_dual(f, (1, 1, 1, 1, 1)))
    for t in range(1, 5):
        for sub in combinations(arc.points, t):
            assert join(*sub).dim == t - 1


# -- frames off a hyperplane -------------------------------------------------------

def test_frame_off_k_itself():
    k = hyperplane_from_dual(F5, (1, 1, 1))
    arc = frame_off_hyperplane(k)
    assert list(arc) == unit_points(F5, 2) + [pt(F5, 1, 1, 1)]


def test_frame_off_hyperplane_gf2_fails():
    h = hyperplane_from_dual(GF(2), (1, 0, 0))
    with pytest.raises(FieldTooSmall):
        frame_off_hyperplane(h)


def test_frame_off_x1_zero():
    h = hyperplane_from_dual(F5, (1, 0, 0))
    arc = frame_off_hyperplane(h)
    assert len(arc) == 4
    for p in arc:
        assert p.coords[0] != 0


@pytest.mark.parametrize("q,n", [(3, 2), (3, 3), (4, 2), (5, 2), (5, 4), (9, 2), (7, 3)])
def test_frame_avoids_arbitrary_hyperplanes(q, n):
    field = {3: GF(3), 4: GF(2, 2), 5: GF(5), 7: GF(7), 9: GF(3, 2)}[q]
    rng = random.Random(10 * q + n)
    pts = list(all_points(field, n))
    for _ in range(8):
        h = hyperplane_from_dual(field, rng.choice(pts).coords)
        arc = frame_off_hyperplane(h)
        assert is_arc(list(arc))
        assert len(arc) == n + 2
        for p in arc:
            assert not h.contains_point(p)


def test_frame_z_choice_keeps_point_off_k():
    # cases where the naive choice z = 1 would land the last point on K
    for q, n in [(3, 2), (3, 5), (5, 4), (7, 6)]:
        field = GF(q)
        k = hyperplane_from_dual(field, (1,) * (n + 1))
        arc = frame_off_hyperplane(k)
        assert all(not k.contains_point(p) for p in arc)


@pytest.mark.parametrize("field,n,digest", [
    (GF(5), 2, "5947e73d7e8acfd7d6c025c76272b8213b7c06f6767128f2f34646875d6793ae"),
    (GF(3), 3, "6aeb40daa44e69ed6c4dd96112c91b218588c494e747c470703eabd88eb8ffb2"),
    (GF(2, 2), 2, "f348a44c72c1b753fd35b6de8340cba3259db24caf3febaed61cedc0ff230185"),
    (GF(3, 2), 2, "9f02fac3fc0b0ea40bde22b14b6c0b0491df8d588f2e292094ba6c3927b20851"),
])
def test_frames_are_the_recorded_ones(field, n, digest):
    """sha256 of repr(frames), one frame per hyperplane of PG(n, q) in the
    order of its dual vector among all_points, recorded when the frame was
    moved onto h by an explicit matrix (transposition times elementary
    row update) built from K's and h's dual vectors."""
    frames = [[p.coords for p in frame_off_hyperplane(hyperplane_from_dual(field, u.coords))]
              for u in all_points(field, n)]
    assert hashlib.sha256(repr(frames).encode()).hexdigest() == digest


def test_face_of_simplex():
    pts = unit_points(F5, 3)
    f0 = face(pts, 0)
    assert f0.dim == 2
    assert not f0.contains_point(pts[0])
    for p in pts[1:]:
        assert f0.contains_point(p)


# -- seeded random arcs ---------------------------------------------------------------

def test_random_arc_off_hyperplane_valid_and_deterministic():
    h = hyperplane_from_dual(F5, (0, 0, 0, 1))
    a1 = random_arc_off_hyperplane(h, 5, random.Random(42))
    a2 = random_arc_off_hyperplane(h, 5, random.Random(42))
    assert a1 == a2
    assert is_arc(list(a1))
    for p in a1:
        assert not h.contains_point(p)


def test_random_arc_gf2_fails():
    h = hyperplane_from_dual(GF(2), (0, 0, 0, 1))
    with pytest.raises(FieldTooSmall):
        random_arc_off_hyperplane(h, 5, random.Random(1))


def test_random_arc_needs_a_hyperplane():
    line = Subspace(F5, 3, [(1, 0, 0, 0), (0, 1, 0, 0)])
    with pytest.raises(NotAHyperplane):
        random_arc_off_hyperplane(line, 5, random.Random(1))


@pytest.mark.parametrize("field,dual,m,seed,expected", [
    (F5, (1, 2, 0, 1), 5, 42,
     [(0, 0, 1, 3), (1, 1, 0, 4), (0, 1, 2, 0), (0, 0, 1, 1), (1, 3, 4, 0)]),
    (GF(2, 2), (0, 1, 2), 4, 7, [(1, 0, 3), (0, 0, 1), (0, 1, 0), (1, 2, 0)]),
])
def test_random_arc_off_hyperplane_pinned(field, dual, m, seed, expected):
    # the arcs these seeds gave when the sampler had its own dot product
    h = hyperplane_from_dual(field, dual)
    arc = random_arc_off_hyperplane(h, m, random.Random(seed))
    assert [p.coords for p in arc] == expected
