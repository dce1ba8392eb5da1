"""Constructions shared by several test modules: the hyperplane of a dual
vector, the face of a simplex and the meets of corresponding t-spaces of a
pair, oracles the library itself has no use for; a column-sweep row
reduction that shares no code with the library's; the converse census;
and the tables the span oracle and the recorded verify reports run on.

The census runs on its own too:

    PYTHONPATH=tests python -c 'import support, desarc.field as f
    print(support.converse_census(2, f.GF(5)))'
"""

import random
from collections import Counter
from itertools import combinations, product

from desarc.desargues import (
    LabeledConfiguration,
    PerspectivePair,
    axis_hyperplane,
    edge_intersections,
    find_vertex,
    sectioned_config,
)
from desarc.errors import (
    EdgesDisjoint,
    NoCommonVertex,
    NotASimplex,
    SharedFace,
    SharedPoint,
    ZeroVector,
)
from desarc.field import GF
from desarc.projlin import ProjPoint, Subspace, all_points, join, meet, nullspace


def reference_rref(field, rows, width):
    """Reduced row echelon form by a sweep over the columns, with the
    field's scalar ops only: (rows, pivot_columns), zero rows dropped, the
    rows as tuples.  The input rows are copied, never modified."""
    add, mul, neg, inv = field.add, field.mul, field.neg, field.inv
    mat = [list(row) for row in rows]
    pivots = []
    r = 0
    for c in range(width):
        pr = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        s = inv(mat[r][c])
        mat[r] = [mul(s, x) for x in mat[r]]
        for i, row in enumerate(mat):
            f = row[c]
            if f and i != r:
                mat[i] = [add(x, neg(mul(f, y))) for x, y in zip(row, mat[r])]
        pivots.append(c)
        r += 1
    return [tuple(row) for row in mat[:r]], pivots


def reference_nullspace(field, rows, width):
    """Reduced basis of {x : M x = 0} for the row matrix M, read from
    `reference_rref`: one vector per free column."""
    reduced, pivots = reference_rref(field, rows, width)
    basis = []
    for f in (c for c in range(width) if c not in pivots):
        v = [0] * width
        v[f] = 1
        for row, pc in zip(reduced, pivots):
            v[pc] = field.neg(row[f])
        basis.append(v)
    return reference_rref(field, basis, width)[0]


def hyperplane_from_dual(field, coeffs) -> Subspace:
    """The hyperplane of all points x with coeffs . x = 0."""
    coeffs = [field.value(c) for c in coeffs]
    if not any(coeffs):
        raise ZeroVector("hyperplane coefficients cannot all be zero")
    n = len(coeffs) - 1
    return Subspace(field, n, nullspace(field, [coeffs], n + 1))


def face(points, k: int) -> Subspace:
    """Face k of a simplex: the hyperplane spanned by every point except
    the one at index k."""
    return join(*(p for i, p in enumerate(points) if i != k))


def tspace_intersections(pair, t: int):
    """The meets of corresponding t-spaces span(A_I) and span(B_I), one per
    (t+1)-subset I of indices in lexicographic order, each a meet of two
    joins of the points: the oracle for the pair's frame, which reads them
    with no span or meet."""
    return [meet(join(*(pair.a[i] for i in idxs)), join(*(pair.b[i] for i in idxs)))
            for idxs in combinations(range(pair.n + 1), t + 1)]


def random_points_table(n, field, rng) -> LabeledConfiguration:
    """Distinct random points of PG(n, q) at the labels of symbols 1..n+3."""
    labels = list(combinations(range(1, n + 4), 2))
    pts = rng.sample(list(all_points(field, n)), len(labels))
    return LabeledConfiguration(field, n, dict(zip(labels, pts)))


def perturbed_section() -> LabeledConfiguration:
    """The seeded section of PG(4, 7) with label (1, 3) moved to the first
    point outside the table in canonical order: the triples {1, 3, k} span
    planes, and every check of `verify` fails."""
    field = GF(7)
    config = sectioned_config(4, field, random.Random(1))
    taken = set(config.points())
    fresh = next(p for p in all_points(field, 4) if p not in taken)
    return LabeledConfiguration(field, 4, {**config.table, (1, 3): fresh})


def converse_census(n, field) -> Counter:
    """Desargues and its converse on every pair with A = e_0..e_n: B runs
    over every ordered (n+1)-tuple of points of PG(n, q).  Counts the
    tuples, each typed error of the pair's constructor by name, and for
    every pair it accepts whether `find_vertex` finds a centre and whether
    the edge meets are distinct points that span a hyperplane: "both",
    "neither", "centre only" or "axis only"."""
    a = tuple(ProjPoint(field, [int(i == j) for j in range(n + 1)])
              for i in range(n + 1))
    counts = Counter()
    for b in product(list(all_points(field, n)), repeat=n + 1):
        counts["tuples"] += 1
        try:
            pair = PerspectivePair(a, b)
        except (NotASimplex, SharedPoint, SharedFace) as err:
            counts[type(err).__name__] += 1
            continue
        try:
            find_vertex(pair)
            centre = True
        except (EdgesDisjoint, NoCommonVertex):
            centre = False
        try:
            meets = list(edge_intersections(pair).values())
            axis = (len(set(meets)) == len(meets)
                    and axis_hyperplane(pair).dim == n - 1)
        except EdgesDisjoint:
            axis = False
        counts[{(True, True): "both", (False, False): "neither",
                (True, False): "centre only", (False, True): "axis only"}[
                    centre, axis]] += 1
    return counts
