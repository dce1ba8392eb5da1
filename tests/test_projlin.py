"""Points, subspaces and join/meet of PG(n, q)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from desarc.errors import (
    AmbientMismatch,
    InvalidField,
    NotAHyperplane,
    NotNormalized,
    ZeroVector,
)
from desarc.field import GF
from desarc.projlin import (
    ProjPoint,
    Subspace,
    all_points,
    join,
    meet,
    normalize,
    nullspace,
    num_points,
    rank,
    rref,
)

from support import hyperplane_from_dual, reference_nullspace, reference_rref

F5 = GF(5)


def pt(field, *coords):
    return normalize(field, coords)


# -- normalize ------------------------------------------------------------------

def test_normalize_examples():
    assert pt(F5, 0, 2, 4).coords == (0, 1, 2)   # scale by inv(2) = 3
    assert pt(F5, 3, 1).coords == (1, 2)         # scale by inv(3) = 2
    with pytest.raises(ZeroVector):
        normalize(F5, (0, 0, 0))


def test_constructors_take_int_coordinates_only():
    with pytest.raises(InvalidField):
        normalize(F5, [1.7, 0, True])
    with pytest.raises(InvalidField):
        Subspace(F5, 2, [[2.9, 0, 0]])


@pytest.mark.parametrize("field,coords", [
    (F5, (1, 7, 0)), (F5, (True, 0, 0)), (F5, (1, -1, 0)), (F5, (1, 2.0, 0)),
    (GF(2, 2), (1, 9, 0)), (GF(2, 2), (1, 4, 0)),
])
def test_a_point_takes_field_elements_only(field, coords):
    # (1, 7, 0) once built Pt(1, 7, 0) over GF(5), unequal to normalize's
    # Pt(1, 2, 0), and (True, 0, 0) built Pt(True, 0, 0)
    with pytest.raises(InvalidField, match="is not an element of GF"):
        ProjPoint(field, coords)


def test_a_point_needs_normalized_coordinates():
    with pytest.raises(NotNormalized, match=r"lead with 2, not 1; use normalize\(\)"):
        ProjPoint(F5, (0, 2, 1))
    with pytest.raises(ZeroVector):
        ProjPoint(F5, (0, 0, 0))
    assert ProjPoint(GF(2, 2), (0, 1, 3)) == normalize(GF(2, 2), (0, 2, 1))


def test_normalize_idempotent_on_canonical():
    for p in all_points(GF(3), 2):
        assert normalize(p.field, p.coords) == p


def test_point_count():
    assert sum(1 for _ in all_points(GF(2), 2)) == 7
    assert sum(1 for _ in all_points(GF(3), 2)) == 13
    assert num_points(GF(5), 3) == 156


# -- join/meet -------------------------------------------------------------------

def test_join_two_points_is_line():
    l = join(pt(F5, 1, 0, 0), pt(F5, 0, 1, 0))
    assert l.dim == 1


def test_skew_lines_in_pg3():
    f = GF(5)
    l1 = join(pt(f, 1, 0, 0, 0), pt(f, 0, 1, 0, 0))
    l2 = join(pt(f, 0, 0, 1, 0), pt(f, 0, 0, 0, 1))
    assert join(l1, l2).dim == 3
    assert meet(l1, l2).dim == -1


def test_join_absorbs_contained_point():
    l = join(pt(F5, 1, 0, 0), pt(F5, 0, 1, 0))
    p = pt(F5, 1, 3, 0)
    assert l.contains_point(p)
    assert join(p, l) == l


def test_meet_two_planes_in_pg3():
    f = GF(3)
    p1 = join(pt(f, 1, 0, 0, 0), pt(f, 0, 1, 0, 0), pt(f, 0, 0, 1, 0))
    p2 = join(pt(f, 1, 0, 0, 0), pt(f, 0, 1, 0, 0), pt(f, 0, 0, 0, 1))
    assert meet(p1, p2).dim == 1


def test_meet_idempotent_bit_identical():
    f = GF(5)
    s = join(pt(f, 1, 2, 3, 4), pt(f, 0, 1, 1, 1))
    assert meet(s, s) == s
    assert meet(s, s).basis == s.basis


def _reference_meet(u, w):
    """ann(ann U + ann W), built from the column-sweep reference alone."""
    field, width = u.field, u.n + 1
    ann = (reference_nullspace(field, u.basis, width)
           + reference_nullspace(field, w.basis, width))
    return tuple(reference_nullspace(field, ann, width))


@pytest.mark.parametrize("p,k,n", [(5, 1, 4), (3, 2, 3)])
def test_meet_matches_annihilator_oracle(p, k, n):
    """Every (dim U, dim W) pair, every overlap of their spanning sets:
    empty, equal, nested and disjoint subspaces, in both argument orders.
    U and W are spanned by rows of a random invertible matrix, so
    dim(U meet W) is the number of shared rows minus one."""
    field = GF(p, k)
    rng = random.Random(31 * field.q + n)
    width = n + 1
    for a in range(width + 1):
        for b in range(width + 1):
            for shared in range(max(0, a + b - width), min(a, b) + 1):
                m = []
                while rank(field, m) < width:
                    m = [[rng.randrange(field.q) for _ in range(width)]
                         for _ in range(width)]
                u = Subspace(field, n, m[:a])
                w = Subspace(field, n, m[a - shared:a - shared + b])
                expected = _reference_meet(u, w)
                assert meet(u, w).basis == expected
                assert meet(w, u).basis == expected
                assert meet(u, w).dim == shared - 1


def _rows_to_reduce(field, width, count, rng):
    """count rows of the given width: random rows, dense or sparse, then
    zero rows, repeats and combinations of two earlier rows, shuffled."""
    add, mul = field.add, field.mul
    rows = []
    for _ in range(count):
        kind = rng.randrange(5) if rows else rng.randrange(2)
        if kind == 0:
            row = [rng.randrange(field.q) for _ in range(width)]
        elif kind == 1:
            row = [rng.randrange(field.q) if rng.random() < 0.4 else 0
                   for _ in range(width)]
        elif kind == 2:
            row = [0] * width
        elif kind == 3:
            row = list(rng.choice(rows))
        else:
            x, y = rng.choice(rows), rng.choice(rows)
            s, t = rng.randrange(field.q), rng.randrange(field.q)
            row = [add(mul(s, u), mul(t, v)) for u, v in zip(x, y)]
        rows.append(row)
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("field", [GF(5), GF(7), GF(2, 2), GF(2, 3), GF(3, 2)], ids=str)
def test_rref_matches_the_column_sweep_reference(field):
    """rref grows its basis one row at a time; RREF is unique, so its rows
    and pivots must be the column sweep's, for every width 1..7 and 0 to
    width+2 rows, and rank and nullspace follow.  The input rows stay as
    they were."""
    rng = random.Random(field.q)
    for width in range(1, 8):
        for count in range(width + 3):
            for _ in range(6):
                rows = _rows_to_reduce(field, width, count, rng)
                before = [list(row) for row in rows]
                expected = reference_rref(field, rows, width)
                reduced, pivots = rref(field, rows)
                assert (reduced, pivots) == expected
                assert all(type(row) is tuple for row in reduced)
                assert rank(field, rows) == len(expected[0])
                assert nullspace(field, rows, width) == reference_nullspace(
                    field, rows, width)
                assert rows == before


def test_rank_reads_every_column():
    # rank once took a width and swept only that many columns: these two
    # rows had rank 1 at width 2
    assert rank(F5, [[0, 0, 1], [0, 1, 0]]) == 2
    assert rref(F5, [[0, 0, 2], [0, 3, 0], [0, 3, 1]]) == ([(0, 1, 0), (0, 0, 1)], [1, 2])


@pytest.mark.parametrize("rows", [
    [[1, 2, 3, 4]], [[1, 2]], [[1, 0, 0], [0, 1]], [[]],
])
def test_a_subspace_row_has_n_plus_1_coordinates(rows):
    # [[1, 2, 3, 4]] and [[1, 2]] were once taken as points of PG(2, 5)
    with pytest.raises(AmbientMismatch):
        Subspace(F5, 2, rows)


@pytest.mark.parametrize("rows", [
    [[1, 0, 0]], [[0, 0, 1]], [[1]], [[1, 0], [0, 1, 0]], [[]],
])
def test_a_nullspace_row_has_width_entries(rows):
    # [[1, 0, 0]] was once read as the 2-column row (1, 0), with nullspace
    # [(0, 1)], and [[0, 0, 1]] raised a bare IndexError
    with pytest.raises(AmbientMismatch):
        nullspace(F5, rows, 2)
    assert nullspace(F5, [[1, 0]], 2) == [(0, 1)]
    assert nullspace(F5, [], 2) == [(1, 0), (0, 1)]


def _random_subspace(field, n, rng):
    rows = [[rng.randrange(field.q) for _ in range(n + 1)]
            for _ in range(rng.randrange(0, n + 2))]
    return Subspace(field, n, rows)


@pytest.mark.parametrize("q,n", [(3, 2), (3, 5), (4, 3), (5, 4), (9, 2), (9, 5)])
def test_dimension_formula_randomized(q, n):
    field = GF(q) if q in (3, 5) else (GF(2, 2) if q == 4 else GF(3, 2))
    rng = random.Random(97 * q + n)
    for _ in range(40):
        e = _random_subspace(field, n, rng)
        f = _random_subspace(field, n, rng)
        assert join(e, f).dim + meet(e, f).dim == e.dim + f.dim
        assert join(e, f) == join(f, e)
        # join extends e's reduced basis; the column-sweep reference
        # reduces the stacked rows
        joined = join(e, f)
        rows, pivots = reference_rref(field, e.basis + f.basis, n + 1)
        assert (list(joined.basis), list(joined._pivots)) == (rows, pivots)
        assert joined._pivots == _leads(joined)
        assert meet(e, f) == meet(f, e)


def _leads(s):
    return tuple(next(i for i, x in enumerate(row) if x) for row in s.basis)


@pytest.mark.parametrize("field", [GF(5), GF(2, 3), GF(3, 2)], ids=str)
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_hyperplane_contains_agrees_with_coordinates(field, n):
    """Subspace.contains on a hyperplane reads the dual vector; it must
    agree with expressing each basis row in the hyperplane's basis.  Half
    the subspaces are cut down into the hyperplane, so both answers occur.
    The pivots each subspace keeps are its rows' leading columns."""
    from desarc.projlin import _vector_in
    rng = random.Random(31 * n + field.q)
    seen = set()
    for _ in range(60):
        h = hyperplane_from_dual(field, [rng.randrange(field.q) for _ in range(n)] + [1])
        s = _random_subspace(field, n, rng)
        if rng.random() < 0.5:
            s = meet(s, h)
        by_rows = all(_vector_in(h, row) for row in s.basis)
        assert h.contains(s) == by_rows
        seen.add(by_rows)
        for sub in (h, s, join(s, h), meet(s, h)):
            assert sub._pivots == _leads(sub)
    assert seen == {True, False}


def test_join_canonical_under_presentation():
    f = GF(5)
    a = pt(f, 1, 2, 3)
    b = pt(f, 0, 1, 4)
    s1 = join(a, b)
    s2 = join(b, a)
    assert s1 == s2 and s1.basis == s2.basis
    # same span from different spanning sets
    c = normalize(f, [f.add(x, y) for x, y in zip(a.coords, b.coords)])
    s3 = join(a, c)
    assert s3 == s1


def test_join_ambient_mismatch():
    with pytest.raises(AmbientMismatch):
        join(pt(F5, 1, 0, 0), pt(F5, 1, 0, 0, 0))
    with pytest.raises(AmbientMismatch):
        join(pt(GF(3), 1, 0, 0), pt(F5, 1, 0, 0))


# -- hyperplanes --------------------------------------------------------------------

def test_hyperplane_from_dual_examples():
    h = hyperplane_from_dual(F5, (1, 1, 1))
    assert h.dim == 1
    on_h = [p for p in all_points(F5, 2) if h.contains_point(p)]
    assert len(on_h) == 6
    for p in on_h:
        assert sum(p.coords) % 5 == 0

    h0 = hyperplane_from_dual(F5, (1, 0, 0))
    assert all(p.coords[0] == 0 for p in h0.points())

    with pytest.raises(ZeroVector):
        hyperplane_from_dual(F5, (0, 0, 0))


def test_meet_hyperplane_with_line():
    f = GF(5)
    h = hyperplane_from_dual(f, (1, 0, 0, 0))
    inside = join(pt(f, 0, 1, 0, 0), pt(f, 0, 0, 1, 0))
    crossing = join(pt(f, 1, 0, 0, 0), pt(f, 0, 1, 0, 0))
    assert meet(h, inside) == inside
    assert meet(h, crossing).dim == 0


def test_dual_vector_round_trip():
    for coeffs in [(1, 1, 1), (1, 0, 0), (0, 1, 3), (2, 4, 1)]:
        h = hyperplane_from_dual(F5, coeffs)
        assert hyperplane_from_dual(F5, h.dual_vector()) == h
    # a line of PG(3) is not a hyperplane, a line of the plane is
    with pytest.raises(NotAHyperplane):
        join(pt(F5, 1, 0, 0, 0), pt(F5, 0, 1, 0, 0)).dual_vector()
    assert join(pt(F5, 1, 0, 0), pt(F5, 0, 1, 0)).dual_vector() == (0, 0, 1)


# -- coordinate hyperplanes -------------------------------------------------------------

def test_coordinate_hyperplane():
    # x_3 = 0, the hyperplane that sections arcs of PG(3, q)
    h = hyperplane_from_dual(F5, (0, 0, 0, 1))
    assert h.dual_vector() == (0, 0, 0, 1)
    assert list(h.points()) == [p for p in all_points(F5, 3) if p.coords[3] == 0]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_subspace_equality_is_span_equality(seed):
    rng = random.Random(seed)
    f = GF(3)
    s = _random_subspace(f, 3, rng)
    if s.dim < 0:
        return
    # re-span from a shuffled, rescaled point sample
    pts = list(s.points())
    rng.shuffle(pts)
    again = join(*pts[:max(1, len(pts) - 1)], *pts)
    assert again == s
