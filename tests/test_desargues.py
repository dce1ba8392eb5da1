"""Sections, perspectivity, axes, t-space meets, lifting, and the
lift-and-project axis construction."""

import random
from collections import Counter
from itertools import combinations
from math import comb

import pytest

from desarc.arcs import Arc, frame_off_hyperplane, random_arc_off_hyperplane
from desarc.desargues import (
    LabeledConfiguration,
    PerspectivePair,
    axis_hyperplane,
    conway_lift_axis,
    edge_intersections,
    extract_perspective_pair,
    find_vertex,
    lift_round_trips,
    lift_to_arc,
    normal_form_pair,
    normal_forms,
    random_perspective_pair,
    section_arc,
    sectioned_config,
    tspace_intersections,
    tspace_verdicts,
)
from desarc.errors import (
    AmbientMismatch,
    BadSymbols,
    BadT,
    DimensionTooSmall,
    EdgesDisjoint,
    FieldTooSmall,
    GeometryError,
    NoCommonVertex,
    PointOnHyperplane,
    SharedFace,
    SharedPoint,
    WInH,
    WrongCount,
)
from desarc.field import GF
from desarc.projlin import (
    ProjPoint,
    Subspace,
    _combine,
    all_points,
    join,
    meet,
    normalize,
    nullspace,
    num_points,
)

from support import converse_census, face, hyperplane_from_dual

F5 = GF(5)


def pt(field, *coords):
    return normalize(field, coords)


# -- sections --------------------------------------------------------------------

@pytest.mark.parametrize("n,q,expected", [(2, 5, 10), (3, 5, 15), (3, 3, 15)])
def test_section_point_counts(n, q, expected):
    config = sectioned_config(n, GF(q))
    assert len(config) == expected == comb(n + 3, 2)
    assert len(set(config.points())) == expected


def _last_coordinate_hyperplane(field, n):
    """x_n = 0 in PG(n, q), built from its equation."""
    return hyperplane_from_dual(field, (0,) * n + (1,))


def _in_h(point):
    """A point of PG(n, q) as the point of x_{n+1} = 0 in PG(n+1, q)."""
    return ProjPoint(point.field, point.coords + (0,))


def test_section_rejects_point_on_hyperplane():
    # the standard frame of PG(3, 5) contains e0, which lies on x3 = 0
    arc = Arc([pt(F5, *(int(i == j) for j in range(4))) for i in range(4)]
              + [pt(F5, 1, 1, 1, 1)])
    with pytest.raises(PointOnHyperplane):
        section_arc(arc)


@pytest.mark.parametrize("n,field", [(2, F5), (3, GF(2, 2)), (5, GF(3, 3)), (8, GF(11))])
def test_section_points_are_where_the_lines_meet_h(n, field):
    # the oracle joins two arc points and meets the line with h, where
    # section_arc reads the last coordinates
    rng = random.Random(n)
    h = _last_coordinate_hyperplane(field, n + 1)
    arc = random_arc_off_hyperplane(field, n + 1, n + 3, rng)
    config = section_arc(arc)
    for i, j in combinations(range(n + 3), 2):
        on_h = meet(join(arc[i], arc[j]), h).point()
        assert config.point(i + 1, j + 1) == ProjPoint(field, on_h.coords[:-1])


def test_section_wrong_arc_size():
    small = frame_off_hyperplane(F5, 3)
    # drop a point: 4 points in PG(3) are a simplex-arc but not frame-sized
    with pytest.raises(WrongCount):
        section_arc(Arc(small.points[:4]))


def test_section_unavailable_over_gf2():
    # 10 section points cannot fit in the 7-point plane PG(2, 2)
    assert num_points(GF(2), 2) == 7
    with pytest.raises(FieldTooSmall):
        sectioned_config(2, GF(2))


@pytest.mark.parametrize("n", [1, 0, -1])
def test_section_needs_dimension_two(n):
    with pytest.raises(DimensionTooSmall):
        sectioned_config(n, F5)
    with pytest.raises(DimensionTooSmall):
        sectioned_config(n, F5, random.Random(0))


def test_pair_needs_dimension_two():
    f = GF(7)
    a = [pt(f, 1, 0), pt(f, 0, 1)]
    b = [pt(f, 1, 1), pt(f, 1, 2)]
    with pytest.raises(DimensionTooSmall):
        PerspectivePair(a, b)


def test_configuration_needs_dimension_two():
    f = GF(7)
    pts = [pt(f, 1, x) for x in range(6)]
    table = dict(zip(combinations((1, 2, 3, 4), 2), pts))
    with pytest.raises(DimensionTooSmall):
        LabeledConfiguration(f, 1, table)


# -- pair extraction -----------------------------------------------------------------

def test_extract_pair_layout_n3():
    config = sectioned_config(3, F5)
    pair, vertex = extract_perspective_pair(config, 1, 2)
    assert pair.a == tuple(config.point(1, i) for i in (3, 4, 5, 6))
    assert pair.b == tuple(config.point(2, i) for i in (3, 4, 5, 6))
    assert vertex == config.point(1, 2)


def test_extract_pair_on_subtable_goes_through_replicate():
    # a sub-table carries triangles (semi-simplexes), not full simplexes
    from desarc.configuration import replicate
    config = sectioned_config(4, F5)
    sub = config.restrict((3, 4, 5, 6, 7))
    with pytest.raises(BadSymbols):
        extract_perspective_pair(sub, 3, 4)
    pair, residual = replicate(sub, (3, 4))
    assert pair.c == tuple(config.point(3, i) for i in (5, 6, 7))
    assert pair.d == tuple(config.point(4, i) for i in (5, 6, 7))
    assert pair.vertex == config.point(3, 4)
    assert len(residual) == 3


def test_extract_pair_bad_symbols():
    config = sectioned_config(2, F5)
    with pytest.raises(BadSymbols):
        extract_perspective_pair(config, 3, 3)
    with pytest.raises(BadSymbols):
        extract_perspective_pair(config, 1, 9)


def test_pair_rejects_shared_point():
    a = [pt(F5, 1, 0, 0), pt(F5, 0, 1, 0), pt(F5, 0, 0, 1)]
    b = [pt(F5, 1, 0, 0), pt(F5, 1, 1, 0), pt(F5, 1, 1, 1)]
    with pytest.raises(SharedPoint):
        PerspectivePair(a, b)


def test_pair_rejects_shared_face():
    # both triangles contain the line <e1, e2> as the face opposite index 2
    a = [pt(F5, 1, 0, 0), pt(F5, 0, 1, 0), pt(F5, 0, 0, 1)]
    b = [pt(F5, 1, 1, 0), pt(F5, 1, 2, 0), pt(F5, 1, 1, 1)]
    with pytest.raises(SharedFace):
        PerspectivePair(a, b)


# -- vertex ------------------------------------------------------------------------

def test_simplex_with_vertex_is_a_frame():
    # each simplex of a pair, augmented by the vertex, is an (n+2)-point arc
    for n, q in [(2, 5), (3, 3), (4, 5)]:
        config = sectioned_config(n, GF(q))
        pair, vertex = extract_perspective_pair(config, 1, 2)
        Arc(pair.a + (vertex,))
        Arc(pair.b + (vertex,))


def test_vertex_equals_label_point():
    config = sectioned_config(3, F5)
    for a, b in [(1, 2), (2, 5), (3, 6)]:
        pair, vertex = extract_perspective_pair(config, a, b)
        assert find_vertex(pair) == vertex == config.point(a, b)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_vertex_on_every_connector_line_gf7(n):
    f = GF(7)
    rng = random.Random(700 + n)
    for _ in range(5):
        pair, vertex = random_perspective_pair(n, f, rng)
        v = find_vertex(pair)
        assert v == vertex
        # oracle: exhaustive containment check, line by line
        for i in range(n + 1):
            assert join(pair.a[i], pair.b[i]).contains_point(v)


@pytest.mark.parametrize("field,n", [(GF(2, 2), 2), (GF(3, 2), 2),
                                     (GF(2, 2), 3), (GF(3, 2), 3)])
def test_perspectivity_over_extension_fields(field, n):
    rng = random.Random(field.q + n)
    pair, vertex = random_perspective_pair(n, field, rng)
    assert find_vertex(pair) == vertex
    meets = edge_intersections(pair)
    assert len(set(meets.values())) == comb(n + 1, 2)
    axis = axis_hyperplane(pair)
    assert axis.dim == n - 1
    assert all(axis.contains_point(p) for p in meets.values())


def _random_pair_from_vertex(n, field, rng):
    """Independent generator: pick a simplex and a vertex directly, then put
    the second simplex on the connector lines.  No sectioning involved."""
    from desarc.arcs import is_simplex
    from desarc.projlin import all_points as _ap
    pts = list(_ap(field, n))
    while True:
        a = rng.sample(pts, n + 1)
        if not is_simplex(a):
            continue
        v = rng.choice(pts)
        if v in a:
            continue
        if any(f.contains_point(v) for k in range(n + 1) for f in [face(a, k)]):
            continue
        b = []
        for i in range(n + 1):
            line_pts = [p for p in join(v, a[i]).points() if p != v and p != a[i]]
            b.append(rng.choice(line_pts))
        try:
            return PerspectivePair(a, b), v
        except GeometryError:
            continue


@pytest.mark.parametrize("n,q", [(2, 5), (3, 3), (3, 7)])
def test_vertex_first_construction_recovers_vertex(n, q):
    # pairs built straight from a vertex, not from an arc section: all
    # corresponding edges must meet and the concurrence point must be v
    f = GF(q)
    rng = random.Random(31 * n + q)
    for _ in range(10):
        pair, v = _random_pair_from_vertex(n, f, rng)
        assert find_vertex(pair) == v
        meets = edge_intersections(pair)
        assert len(set(meets.values())) == comb(n + 1, 2)
        axis = axis_hyperplane(pair)
        assert axis.dim == n - 1
        assert all(axis.contains_point(p) for p in meets.values())


def test_edges_disjoint_detected():
    # two tetrahedra with skew corresponding edges cannot be in perspective
    from desarc.errors import EdgesDisjoint
    f = GF(5)
    a = [pt(f, 1, 0, 0, 0), pt(f, 0, 1, 0, 0), pt(f, 0, 0, 1, 0),
         pt(f, 0, 0, 0, 1)]
    b = [pt(f, 1, 1, 1, 1), pt(f, 1, 2, 4, 3), pt(f, 1, 3, 4, 2),
         pt(f, 1, 4, 1, 2)]
    pair = PerspectivePair(a, b)
    with pytest.raises(EdgesDisjoint):
        find_vertex(pair)


def _count_meets(monkeypatch):
    from desarc import desargues
    calls = []
    real = desargues.meet

    def counted(s1, s2):
        calls.append((s1, s2))
        return real(s1, s2)

    monkeypatch.setattr(desargues, "meet", counted)
    return calls


def test_edge_meets_computed_once_per_pair(monkeypatch):
    pair, vertex = random_perspective_pair(4, F5, random.Random(41))
    calls = _count_meets(monkeypatch)
    assert find_vertex(pair) == vertex
    meets = edge_intersections(pair)
    axis = axis_hyperplane(pair)
    # the C(5, 2) edge meets once each, plus the meet of two connector lines
    assert len(calls) == comb(5, 2) + 1
    assert axis.dim == 3 and len(meets) == comb(5, 2)
    # t = 1 reads the edge meets; t = n - 1 computes the face meets, once
    lines = tspace_intersections(pair, 1)
    assert len(calls) == comb(5, 2) + 1
    faces = tspace_intersections(pair, 3)
    assert tspace_intersections(pair, 3) == faces   # read back, not recomputed
    assert len(calls) == comb(5, 2) + 1 + 5
    assert lines == [
        meet(join(pair.a[i], pair.a[j]), join(pair.b[i], pair.b[j]))
        for i, j in combinations(range(5), 2)]
    # the 4-subsets in order leave out index 4, 3, ..., 0
    assert faces[::-1] == [meet(fa, fb) for fa, fb in zip(pair.faces_a, pair.faces_b)]


def _index_subsets(n, low=1):
    return [idxs for size in range(low, n + 2)
            for idxs in combinations(range(n + 1), size)]


@pytest.mark.parametrize("field", [GF(5), GF(2, 3), GF(3, 2)], ids=str)
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_prefix_grown_pair_spans_match_joins_from_scratch(field, n):
    """The pair's spans, each joined from the span of its prefix, its faces
    and its subset meets against joins and meets of the points alone, on
    two seeded pairs per (n, q)."""
    from desarc.desargues import _subset_meet
    for seed in (1, 2):
        pair, _ = random_perspective_pair(n, field, random.Random(100 * n + seed))
        for idxs in _index_subsets(n):
            assert pair.span_a(idxs) == join(*(pair.a[i] for i in idxs))
            assert pair.span_b(idxs) == join(*(pair.b[i] for i in idxs))
        for k in range(n + 1):
            assert pair.faces_a[k] == face(pair.a, k)
            assert pair.faces_b[k] == face(pair.b, k)
        for idxs in _index_subsets(n - 1, low=2):
            assert _subset_meet(pair, idxs) == meet(
                join(*(pair.a[i] for i in idxs)), join(*(pair.b[i] for i in idxs)))


def test_axis_is_joined_once_per_pair(monkeypatch):
    from desarc import desargues
    pair, _ = random_perspective_pair(4, F5, random.Random(3))
    points = edge_intersections(pair)   # joins the edges' spans
    calls = []
    real = desargues.join

    def counted(*parts):
        calls.append(parts)
        return real(*parts)

    monkeypatch.setattr(desargues, "join", counted)
    axis = axis_hyperplane(pair)
    assert axis_hyperplane(pair) is axis
    assert len(calls) == 1
    assert axis == real(*points.values())


def test_a_span_key_joins_once_per_symbol_that_adds_points(monkeypatch):
    # one symbol labels no point, so its span is the empty one, unjoined;
    # each later symbol of the key adds its labels with the earlier ones
    from desarc import desargues
    config = sectioned_config(3, F5)
    calls = []
    real = desargues.join

    def counted(*parts):
        calls.append(parts)
        return real(*parts)

    monkeypatch.setattr(desargues, "join", counted)
    assert config.span((2,)).dim == -1
    assert calls == []
    assert config.span((1, 2, 3)) == real(config.point(1, 2), config.point(1, 3),
                                          config.point(2, 3))
    assert len(calls) == 2


# -- edge intersections ---------------------------------------------------------------

@pytest.mark.parametrize("n,count", [(2, 3), (3, 6), (4, 10)])
def test_edge_intersection_counts(n, count):
    config = sectioned_config(n, F5)
    pair, vertex = extract_perspective_pair(config, 1, 2)
    meets = edge_intersections(pair)
    assert len(meets) == comb(n + 1, 2) == count
    pts = set(meets.values())
    assert len(pts) == count
    assert not pts & set(pair.a)
    assert not pts & set(pair.b)
    assert vertex not in pts


def test_edge_intersections_match_labels():
    config = sectioned_config(3, F5)
    pair, _ = extract_perspective_pair(config, 1, 2)
    rest = (3, 4, 5, 6)
    for (i, j), p in edge_intersections(pair).items():
        assert p == config.point(rest[i], rest[j])


# -- axis ---------------------------------------------------------------------------

def test_axis_classical_planar_desargues():
    config = sectioned_config(2, F5)
    pair, _ = extract_perspective_pair(config, 1, 2)
    axis = axis_hyperplane(pair)
    assert axis.dim == 1
    for p in edge_intersections(pair).values():
        assert axis.contains_point(p)


def test_axis_equals_join_of_descendant_table():
    config = sectioned_config(4, F5)
    pair, _ = extract_perspective_pair(config, 1, 2)
    axis = axis_hyperplane(pair)
    assert axis.dim == 3
    descend = join(*(config.point(i, j)
                     for i, j in combinations((3, 4, 5, 6, 7), 2)))
    assert axis == descend


def test_axis_carries_face_meets():
    config = sectioned_config(4, GF(3))
    pair, _ = extract_perspective_pair(config, 1, 2)
    axis = axis_hyperplane(pair)
    for fa, fb in zip(pair.faces_a, pair.faces_b):
        fm = meet(fa, fb)
        assert fm.dim == pair.n - 2
        assert axis.contains(fm)


# -- t-space meets ----------------------------------------------------------------------

def test_tspace_t1_matches_edges():
    config = sectioned_config(3, F5)
    pair, _ = extract_perspective_pair(config, 1, 2)
    metas = tspace_intersections(pair, 1)
    expected = [p for _, p in sorted(edge_intersections(pair).items())]
    assert [s.point() for s in metas] == expected


def test_tspace_triangle_lines_carry_three_points():
    config = sectioned_config(3, F5)
    pair, _ = extract_perspective_pair(config, 1, 2)
    meets = edge_intersections(pair)
    subsets = list(combinations(range(4), 3))
    for subset, line in zip(subsets, tspace_intersections(pair, 2)):
        assert line.dim == 1
        on_line = [meets[(i, j)] for i, j in combinations(subset, 2)]
        assert len(set(on_line)) == 3
        for p in on_line:
            assert line.contains_point(p)


def test_tspace_face_meets_n4():
    config = sectioned_config(4, F5)
    pair, _ = extract_perspective_pair(config, 1, 2)
    axis = axis_hyperplane(pair)
    planes = tspace_intersections(pair, 3)
    assert len(planes) == 5
    for s in planes:
        assert s.dim == 2
        assert axis.contains(s)


def test_tspace_bad_t():
    config = sectioned_config(3, F5)
    pair, _ = extract_perspective_pair(config, 1, 2)
    for t in (0, 3, 7):
        with pytest.raises(BadT):
            tspace_intersections(pair, t)


# -- lifting ---------------------------------------------------------------------------

def _round_trip(pair, vertex, rng=None):
    arc = lift_to_arc(pair, vertex, rng)
    config = section_arc(arc)
    n = pair.n
    assert all(config.point(1, i + 3) == pair.a[i] for i in range(n + 1))
    assert all(config.point(2, i + 3) == pair.b[i] for i in range(n + 1))
    assert config.point(1, 2) == vertex
    return arc


def test_lift_planar_pair_gives_5_arc():
    config = sectioned_config(2, F5)
    pair, vertex = extract_perspective_pair(config, 1, 2)
    arc = _round_trip(pair, vertex)
    assert arc.n == 3 and len(arc) == 5
    for p in arc:
        assert p.coords[-1] != 0


@pytest.mark.parametrize("n,q", [(2, 5), (2, 7), (3, 5), (3, 7)])
def test_lift_round_trip_seeded(n, q):
    f = GF(q)
    rng = random.Random(n * 100 + q)
    for _ in range(5):
        pair, vertex = random_perspective_pair(n, f, rng)
        _round_trip(pair, vertex)
        _round_trip(pair, vertex, rng)  # randomized free choices too


@pytest.mark.parametrize("n,field", [(2, GF(3)), (2, GF(2, 2)), (2, F5), (2, GF(3, 2)),
                                     (3, GF(3)), (3, GF(2, 2)), (4, GF(3))])
def test_normal_forms_are_the_closed_form_and_each_round_trips(n, field):
    # N(n, q) = (q-1)^(n+1) - ((q-1)^(n+1) - (-1)^(n+1)) / q: the s with every
    # entry nonzero, less those with 1 + sum s_i = 0
    q = field.q
    units = (q - 1) ** (n + 1)
    forms = list(normal_forms(n, field))
    assert len(forms) == units - (units - (-1) ** (n + 1)) // q
    assert forms == sorted(set(forms)) and all(all(s) for s in forms)
    for s in forms:
        pair, vertex = normal_form_pair(n, field, s)
        assert vertex.coords == (1,) * (n + 1)
        assert [p.coords for p in pair.a] == [
            tuple(int(i == j) for j in range(n + 1)) for i in range(n + 1)]
        assert all(join(a, vertex).contains_point(b) for a, b in zip(pair.a, pair.b))
        assert lift_round_trips(pair, vertex)


@pytest.mark.parametrize("n,field", [(2, F5), (3, F5), (2, GF(3, 2))])
def test_normal_forms_meet_and_axis_are_the_closed_form(n, field):
    # s_j B_i - s_i B_j = s_j e_i - s_i e_j lies on both edges (i, j), and
    # s . (s_j e_i - s_i e_j) = 0, so the axis is the hyperplane of dual s
    for s in normal_forms(n, field):
        pair, _ = normal_form_pair(n, field, s)
        meets = edge_intersections(pair)
        for i, j in combinations(range(n + 1), 2):
            v = [0] * (n + 1)
            v[i], v[j] = s[j], field.neg(s[i])
            assert meets[(i, j)] == normalize(field, v)
        assert axis_hyperplane(pair) == hyperplane_from_dual(field, s)


def _anchor_from_list(h, rng=None):
    """The anchor draw as a choice from the list of every point off h."""
    pool = [p for p in all_points(h.field, h.n) if not h.contains_point(p)]
    return pool[0] if rng is None else rng.choice(pool)


@pytest.mark.parametrize("n,q,dual", [(2, 5, (0, 0, 0, 1)), (3, 3, (0, 0, 0, 0, 1))])
def test_seeded_lift_matches_the_list_based_choice(monkeypatch, n, q, dual):
    # dual is the equation of x_{n+1} = 0, the hyperplane lift_to_arc lifts from
    from desarc import desargues
    f = GF(q)
    h = hyperplane_from_dual(f, dual)
    pair, vertex = random_perspective_pair(n, f, random.Random(n + q))

    def lifts():
        rngs = [None] + [random.Random(seed) for seed in range(8)]
        return [lift_to_arc(pair, vertex, rng) for rng in rngs]

    arcs = lifts()
    assert len(set(arcs)) > 2
    monkeypatch.setattr(desargues, "_anchor_off",
                        lambda field, dim, rng=None: _anchor_from_list(h, rng))
    assert lifts() == arcs


class _FixedDraw:
    """Stands in for a seeded rng whose anchor draw is the given index."""

    def __init__(self, index, stop):
        self.index = index
        self.stop = stop

    def randrange(self, stop):
        assert stop == self.stop
        return self.index


@pytest.mark.parametrize("n,field,dual", [
    (3, GF(3), (0, 0, 0, 1)),
    (3, GF(5), (0, 0, 0, 1)),
    (3, GF(2, 2), (0, 0, 0, 1)),
    (3, GF(7), (0, 0, 0, 1)),
    (2, GF(2, 2), (0, 0, 1)),
    (2, GF(3, 2), (0, 0, 1)),
    (2, GF(5), (0, 0, 1)),
    (1, GF(5), (0, 1)),
    (4, GF(2, 2), (0, 0, 0, 0, 1)),
])
def test_anchor_unranks_every_index_of_the_list(n, field, dual):
    # the list holds every point off x_n = 0, the hyperplane of the dual vector
    from desarc.desargues import _anchor_off
    h = hyperplane_from_dual(field, dual)
    pool = [p for p in all_points(field, n) if not h.contains_point(p)]
    assert len(pool) == field.q ** n
    assert _anchor_off(field, n) == pool[0]
    assert [_anchor_off(field, n, _FixedDraw(i, len(pool)))
            for i in range(len(pool))] == pool


def test_seeded_lift_round_trips_at_8_11():
    f = GF(11)
    pair, vertex = random_perspective_pair(8, f, random.Random(3))
    arc = _round_trip(pair, vertex, random.Random(5))
    assert len(arc) == 11 and all(p.coords[-1] for p in arc)


def _reference_lift(pair, vertex, rng=None):
    """lift_to_arc's points written with lists: the anchor is the choice
    from every point off h = {x_{n+1} = 0}, and points 1, 2 the sample from
    the points of the anchor's line through the vertex that lie off h."""
    h = _last_coordinate_hyperplane(pair.field, pair.n + 1)
    v = _in_h(vertex)
    line = [p for p in join(v, _anchor_from_list(h, rng)).points()
            if not h.contains_point(p)]
    p1, p2 = line[:2] if rng is None else rng.sample(line, 2)
    pts = [p1, p2]
    for a, b in zip(pair.a, pair.b):
        pts.append(meet(join(p1, _in_h(a)), join(p2, _in_h(b))).point())
    return pts


@pytest.mark.parametrize("n,field", [
    (2, GF(3)), (2, GF(5)), (2, GF(7)), (2, GF(2, 2)), (2, GF(3, 2)), (2, GF(2, 3)),
    (3, GF(3)), (3, GF(5)), (3, GF(2, 2)),
])
def test_lift_matches_the_list_based_reference(n, field):
    rng = random.Random(10 * n + field.q)
    for _ in range(3):
        pair, vertex = random_perspective_pair(n, field, rng)
        assert list(lift_to_arc(pair, vertex)) == _reference_lift(pair, vertex)
        for seed in range(4):
            got = lift_to_arc(pair, vertex, random.Random(seed))
            assert list(got) == _reference_lift(pair, vertex, random.Random(seed))


def _pair_at_4096_and_walked_points(monkeypatch):
    """A seeded pair of PG(3, 4096) with its vertex, and the list that
    collects every point `Subspace.points` yields from then on."""
    f = GF(2, 12, (1, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1))
    pair, vertex = random_perspective_pair(3, f, random.Random(1))
    walked = []
    real = Subspace.points

    def counted(self):
        for p in real(self):
            walked.append(p)
            yield p

    monkeypatch.setattr(Subspace, "points", counted)
    return pair, vertex, walked


def test_lift_lists_no_line_at_4096(monkeypatch):
    pair, vertex, walked = _pair_at_4096_and_walked_points(monkeypatch)
    for rng in (None, random.Random(1), random.Random(2)):
        _round_trip(pair, vertex, rng)
    assert len(walked) == 0


def test_pair_battery_lists_no_line_at_4096(monkeypatch):
    # the Conway lift reads its lifted point from the line's reduced rows
    from desarc.cli import _pair_battery
    pair, vertex, walked = _pair_at_4096_and_walked_points(monkeypatch)
    checks = _pair_battery(pair, vertex)
    assert [name for name, ok, _ in checks if not ok] == []
    assert len(walked) == 0


def _random_line(field, n, p0, p1, rng):
    """A line of PG(n, q) from random reduced rows with pivots p0 < p1."""
    r0 = [0] * (n + 1)
    r1 = [0] * (n + 1)
    r0[p0] = r1[p1] = 1
    for c in range(p0 + 1, n + 1):
        if c != p1:
            r0[c] = rng.randrange(field.q)
        if c > p1:
            r1[c] = rng.randrange(field.q)
    line = Subspace(field, n, [r0, r1])
    assert line.basis == (tuple(r0), tuple(r1)) and line._pivots == (p0, p1)
    return line


@pytest.mark.parametrize("field", [GF(2, 2), F5, GF(7), GF(3, 2)], ids=str)
def test_line_points_are_read_from_the_reduced_rows(field):
    # every pivot pair of PG(3, q) and every point v of each line, r1 (the
    # point q of the canonical order) among them: the q points other than v
    # are the canonical list without v
    from desarc.desargues import _line_points_but
    rng = random.Random(field.q)
    q = field.q
    for p0, p1 in combinations(range(4), 2):
        for _ in range(3):
            line = _random_line(field, 3, p0, p1, rng)
            canonical = list(line.points())
            assert len(canonical) == q + 1 and canonical[q].coords == line.basis[1]
            for v in canonical:
                assert _line_points_but(line, v, range(q)) == [
                    p for p in canonical if p != v]


@pytest.mark.parametrize("n,field", [(3, F5), (4, GF(3)), (2, GF(3, 2))], ids=str)
def test_tspace_meets_are_the_closed_form_on_every_normal_form(n, field):
    # for |I| = t+1 <= n, span(A_I) = {x_j = 0 : j not in I} meets span(B_I)
    # in the points with sum over I of s_i x_i = 0: sum c_i B_i lies in
    # span(A_I) exactly when sum c_i s_i = 0, and is then sum c_i e_i
    unit = [[int(i == j) for j in range(n + 1)] for i in range(n + 1)]
    cases = 0
    for s in normal_forms(n, field):
        pair, _ = normal_form_pair(n, field, s)
        for t in range(1, n):
            got = tspace_intersections(pair, t)
            idx_sets = list(combinations(range(n + 1), t + 1))
            assert len(got) == len(idx_sets)
            for x, idxs in zip(got, idx_sets):
                eqs = [unit[j] for j in range(n + 1) if j not in idxs]
                eqs.append([s[i] if i in idxs else 0 for i in range(n + 1)])
                assert x == Subspace(field, n, nullspace(field, eqs, n + 1))
                cases += 1
    assert cases == {3: 2050, 4: 525, 2: 1365}[n]


def _reference_verdicts(pair, x):
    """The verdict of each index-set size k = 2..n read from the meets."""
    return {t + 1: all(sub.dim == t - 1 and x.contains(sub)
                       for sub in tspace_intersections(pair, t))
            for t in range(1, pair.n)}


def _random_vector(field, width, rng):
    while True:
        vec = [rng.randrange(field.q) for _ in range(width)]
        if any(vec):
            return vec


def _random_subspaces(pair, rng):
    """Stand-ins for the axis: a random hyperplane, and the spans of n - 1
    and of n + 1 random vectors (the latter as a rule the whole space)."""
    field, n = pair.field, pair.n
    return [hyperplane_from_dual(field, _random_vector(field, n + 1, rng)),
            Subspace(field, n, [_random_vector(field, n + 1, rng) for _ in range(n - 1)]),
            Subspace(field, n, [_random_vector(field, n + 1, rng) for _ in range(n + 1)])]


@pytest.fixture
def frame_defects(monkeypatch):
    """Counts the reasons `_frame_defect` gives, None for an index set that
    passes, and compares the frame verdicts with the meets'."""
    from desarc import desargues
    reasons = Counter()
    real = desargues._frame_defect

    def recorded(*args):
        reason = real(*args)
        reasons[reason] += 1
        return reason

    monkeypatch.setattr(desargues, "_frame_defect", recorded)

    def agree(pair, xs):
        for x in xs:
            assert tspace_verdicts(pair, x) == _reference_verdicts(pair, x)
        return reasons

    return agree


@pytest.mark.parametrize("n,field", [(3, F5), (4, GF(3)), (2, GF(3, 2))], ids=str)
def test_tspace_verdicts_match_the_meets_on_every_normal_form(frame_defects, n, field):
    rng = random.Random(n * field.q)
    for s in normal_forms(n, field):
        pair, _ = normal_form_pair(n, field, s)
        reasons = frame_defects(pair, [axis_hyperplane(pair), *_random_subspaces(pair, rng)])
    # the axis passes every index set, and a random hyperplane misses a meet
    assert set(reasons) == {None, "off x"}


@pytest.mark.parametrize("field", [F5, GF(11), GF(2, 3), GF(3, 2)], ids=str)
@pytest.mark.parametrize("n", range(3, 9))
def test_tspace_verdicts_match_the_meets_on_seeded_pairs(frame_defects, n, field):
    rng = random.Random(10 * n + field.q)
    for _ in range(2):
        pair, _ = random_perspective_pair(n, field, rng)
        reasons = frame_defects(pair, [axis_hyperplane(pair), *_random_subspaces(pair, rng)])
    assert set(reasons) == {None, "off x"}


@pytest.mark.parametrize("n,field", [(3, F5), (4, GF(3)), (5, GF(2, 3)), (6, GF(7))], ids=str)
def test_tspace_verdicts_match_the_meets_on_pairs_not_in_perspective(frame_defects, n,
                                                                     field):
    # random simplexes, whose first edges are skew as a rule (rank R_I > 1),
    # and ones with B_0..B_{k-1} in span(A_0..A_{k-1}) for some k < n, whose
    # first index set of size k has span(A_I) = span(B_I) (rank R_I = 0)
    rng = random.Random(n * field.q)
    width, pairs = n + 1, 0
    while pairs < 12:
        a = [_random_vector(field, width, rng) for _ in range(width)]
        b = [_random_vector(field, width, rng) for _ in range(width)]
        if pairs % 2:
            k = rng.randrange(2, n)
            b[:k] = [_combine(field, _random_vector(field, k, rng), a[:k], width)
                     for _ in range(k)]
        try:
            pair = PerspectivePair([normalize(field, v) for v in a],
                                   [normalize(field, v) for v in b])
        except GeometryError:
            continue
        pairs += 1
        reasons = frame_defects(pair, _random_subspaces(pair, rng))
    assert {"rank 0", "rank > 1"} <= set(reasons)


def test_lift_rejects_vertex_on_face():
    # a valid pair whose vertex never lies on a face; move the vertex onto one
    config = sectioned_config(2, F5)
    pair, _ = extract_perspective_pair(config, 1, 2)
    bad_vertex = pair.a[0]
    with pytest.raises(SharedFace):
        lift_to_arc(pair, bad_vertex)


# -- lift-and-project axis ------------------------------------------------------------

@pytest.mark.parametrize("q", [5, 7])
def test_conway_axis_matches_seeded(q):
    f = GF(q)
    off_h = [p for p in all_points(f, 3) if p.coords[-1]]
    rng = random.Random(q)
    for _ in range(10):
        pair, _ = random_perspective_pair(2, f, rng)
        w = rng.choice(off_h)
        assert conway_lift_axis(pair, w) == axis_hyperplane(pair)


def test_conway_w_in_h_rejected():
    f = GF(5)
    pair, _ = extract_perspective_pair(sectioned_config(2, f), 1, 2)
    for w in _last_coordinate_hyperplane(f, 3).points():
        with pytest.raises(WInH):
            conway_lift_axis(pair, w)


@pytest.mark.parametrize("w", [ProjPoint(GF(7), (0, 0, 0, 1)), ProjPoint(F5, (0, 0, 1)),
                               ProjPoint(F5, (0, 0, 0, 0, 1))], ids=str)
def test_conway_w_must_live_in_the_ambient_space(w):
    # a point of PG(3, 7), of PG(2, 5) and of PG(4, 5), for a pair of PG(2, 5)
    pair, _ = extract_perspective_pair(sectioned_config(2, F5), 1, 2)
    with pytest.raises(AmbientMismatch):
        conway_lift_axis(pair, w)


def test_conway_higher_dimension():
    f = GF(3)
    pair, _ = extract_perspective_pair(sectioned_config(3, f), 1, 2)
    w = next(p for p in all_points(f, 4) if p.coords[-1])
    assert conway_lift_axis(pair, w) == axis_hyperplane(pair)


def _pairs_in_perspective(n, field, rng, count):
    """count seeded pairs of PG(n, q) in perspective from v by construction,
    as (pair, v): B_i is a point of the line v A_i.  In every third pair
    some A_j is v, and in every third some B_j is v, so v lies on faces."""
    pts = list(all_points(field, n))
    made = 0
    while made < count:
        kind = made % 3
        v = rng.choice(pts)
        j = rng.randrange(n + 1)
        a = rng.sample(pts, n + 1)
        if kind == 1:
            a[j] = v
        b = []
        for i, ai in enumerate(a):
            if ai == v:
                b.append(rng.choice([p for p in pts if p != v]))
            elif kind == 2 and i == j:
                b.append(v)
            else:
                b.append(rng.choice([p for p in join(v, ai).points() if p not in (v, ai)]))
        try:
            pair = PerspectivePair(a, b)
        except GeometryError:  # not two simplexes, or a shared point or face
            continue
        made += 1
        yield pair, v


@pytest.mark.parametrize("n,field", [(2, GF(3)), (2, GF(2, 2)), (2, F5), (3, GF(3)),
                                     (3, GF(2, 2)), (4, GF(3))])
def test_pairs_in_perspective_lift_or_raise_a_typed_error(n, field):
    # find_vertex, lift_to_arc and conway_lift_axis take each meet they
    # make as a point, which the geometry proves; a meet that were not one
    # would raise ValueError here, not one of the typed errors
    from desarc.desargues import _anchor_off
    rng = random.Random(n * 100 + field.q)
    on_a_face = 0
    for pair, v in _pairs_in_perspective(n, field, rng, 30):
        try:
            assert find_vertex(pair) == v
            w = _anchor_off(field, n + 1, rng)
            assert conway_lift_axis(pair, w) == axis_hyperplane(pair)
            lift_to_arc(pair, v, rng)
            assert lift_round_trips(pair, v)
        except SharedFace:
            on_a_face += 1
        except (NoCommonVertex, EdgesDisjoint):
            pass
    assert on_a_face >= 20


@pytest.mark.parametrize("field,counts", [
    (GF(3), {"tuples": 2197, "NotASimplex": 793, "SharedPoint": 816,
             "SharedFace": 48, "both": 116, "neither": 424}),
    (GF(2, 2), {"tuples": 9261, "NotASimplex": 2541, "SharedPoint": 2598,
                "SharedFace": 270, "both": 666, "neither": 3186}),
], ids=str)
def test_converse_census_in_the_plane(field, counts):
    # every pair with A = e_0, e_1, e_2, up to projectivity: the connectors
    # are concurrent exactly when the edge meets are three distinct
    # collinear points, so no pair is in perspective one way only
    assert converse_census(2, field) == counts


# -- configuration table basics ---------------------------------------------------------

def test_config_restrict_shares_points():
    config = sectioned_config(4, F5)
    sub = config.restrict((3, 4, 5, 6, 7))
    assert len(sub) == 10
    for i, j in combinations((3, 4, 5, 6, 7), 2):
        assert sub.point(i, j) is config.point(i, j)


def test_a_label_in_both_orders_is_rejected():
    # (1, 3): P and (3, 1): Q once built a table of 10 labels that kept Q
    config = sectioned_config(2, F5)
    q = next(p for p in all_points(F5, 2) if p not in config.points())
    table = {**config.table, (3, 1): q}
    with pytest.raises(BadSymbols, match=r"label \(1,3\) is listed twice"):
        LabeledConfiguration(F5, 2, table)


def test_config_relabel_permutation():
    config = sectioned_config(3, F5)
    perm = {1: 4, 4: 1, 2: 2, 3: 3, 5: 6, 6: 5}
    swapped = config.relabel(perm)
    assert swapped.point(4, 2) == config.point(1, 2)
    assert swapped.point(5, 6) == config.point(5, 6)


def test_random_sectioned_config_deterministic():
    c1 = sectioned_config(2, F5, random.Random(11))
    c2 = sectioned_config(2, F5, random.Random(11))
    assert c1 == c2


@pytest.mark.parametrize("field,n", [(GF(2, 3), 2), (GF(3, 2), 3), (GF(5, 2), 2)])
def test_full_pipeline_extension_fields(field, n):
    # section, sweep, axis and round trip over non-prime fields
    from desarc.configuration import vertex_sweep
    config = sectioned_config(n, field)
    assert len(config) == comb(n + 3, 2)
    assert vertex_sweep(config).all_ok
    pair, vertex = extract_perspective_pair(config, 1, 2)
    arc = lift_to_arc(pair, vertex)
    again = section_arc(arc)
    assert all(again.point(1, i + 3) == pair.a[i] for i in range(n + 1))
    assert conway_lift_axis(
        pair, next(p for p in all_points(field, n + 1) if p.coords[-1]),
    ) == axis_hyperplane(pair)
