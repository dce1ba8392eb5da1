"""Simplexes, arcs, coordinate frames, and frames and arcs avoiding the
hyperplane x_n = 0.

An arc of PG(n, q) is a point set in which every subset of n+1 points spans
the whole space.  A frame (coordinate system) is an arc of n+2 points.
"""

from __future__ import annotations

from itertools import combinations

from .errors import (
    DimensionTooSmall,
    FieldTooSmall,
    NotAnArc,
    TooFew,
    WrongCount,
)
from .field import GF
from .projlin import (
    ProjPoint,
    common_ambient,
    normalize,
    rank,
)


def is_simplex(points) -> bool:
    """True iff the n+1 points span PG(n, q)."""
    field, n = common_ambient(points)
    points = list(points)
    if len(points) != n + 1:
        raise WrongCount(f"a simplex of PG({n}) needs {n + 1} points, got {len(points)}")
    return rank(field, [p.coords for p in points]) == n + 1


def _arc_violation(field, n, points):
    """First (n+1)-subset of the points that fails to span, or None."""
    coords = [p.coords for p in points]
    for idxs in combinations(range(len(points)), n + 1):
        if rank(field, [coords[i] for i in idxs]) != n + 1:
            return idxs
    return None


class Arc:
    """An ordered arc of PG(n, q) with n >= 1; construction verifies the arc
    property.  In PG(0, q) every point spans the space, so the property
    could not tell a repeated point."""

    __slots__ = ("field", "n", "points")

    def __init__(self, points):
        points = tuple(points)
        if not points:
            raise TooFew("an arc needs at least one point, got none")
        field, n = common_ambient(points)
        if n < 1:
            raise DimensionTooSmall(f"an arc needs dimension n >= 1, got n = {n}")
        if len(points) < n + 1:
            raise TooFew(f"an arc of PG({n}) needs at least {n + 1} points")
        bad = _arc_violation(field, n, points)
        if bad is not None:
            raise NotAnArc(f"points at positions {bad} do not span PG({n})")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "points", points)

    def __setattr__(self, name, value):
        raise AttributeError("Arc is immutable")

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, i):
        return self.points[i]

    def __eq__(self, other):
        return (isinstance(other, Arc) and self.field == other.field
                and self.points == other.points)

    def __hash__(self):
        return hash((self.field, self.points))

    def __repr__(self):
        return f"Arc({len(self.points)} points in PG({self.n},{self.field.q}))"


def frame_off_hyperplane(field: GF, n: int) -> Arc:
    """A coordinate frame (arc of n+2 points) of PG(n, q) with no point on
    the hyperplane x_n = 0: e_n, e_i + e_n for i = 1..n-1, e_0 + e_n and
    (z, 1, ..., 1, n + z), where z is the smallest nonzero element with
    n + z != 0 in the field.

    These are the images of the standard frame e_0, ..., e_n,
    (1, ..., 1, z) under x -> x + (x_1 + ... + x_n) e_0 followed by the swap
    of coordinates 0 and n.  The map is invertible and takes the hyperplane
    x_0 + ... + x_n = 0, which the standard frame avoids as n + z != 0,
    onto x_n = 0.  Such a z exists whenever q > 2, and over GF(2) exactly
    when n is even (z = 1: the 4 points off a line of PG(2, 2) form a
    frame); the function still asks for q > 2, as sections do, and raises
    FieldTooSmall over GF(2).
    """
    if field.q == 2:
        raise FieldTooSmall("no frame avoids a hyperplane over GF(2)")
    if n < 1:
        raise DimensionTooSmall(f"a frame off a hyperplane needs n >= 1, got n = {n}")
    n_in_field = field.scalar(n)
    z = next(c for c in range(1, field.q) if field.add(n_in_field, c) != 0)
    frame = [[0] * n + [1]]
    frame += [[int(i == j) for j in range(n)] + [1] for i in (*range(1, n), 0)]
    frame.append([z] + [1] * (n - 1) + [field.add(n_in_field, z)])
    return Arc(normalize(field, x) for x in frame)


# -- seeded random constructions ------------------------------------------------

def random_point(field: GF, n: int, rng) -> ProjPoint:
    while True:
        coords = [rng.randrange(field.q) for _ in range(n + 1)]
        if any(coords):
            return normalize(field, coords)


_MAX_TRIES = 10000


def _extends_arc(field, n, prefix_coords, cand) -> bool:
    r = len(prefix_coords)
    if r <= n:
        return rank(field, prefix_coords + [cand]) == r + 1
    for idxs in combinations(range(r), n):
        rows = [prefix_coords[i] for i in idxs] + [cand]
        if rank(field, rows) != n + 1:
            return False
    return True


def random_arc_off_hyperplane(field: GF, n: int, m: int, rng) -> Arc:
    """A uniformly seeded arc of m points of PG(n, q), n >= 1, avoiding the
    hyperplane x_n = 0, built by rejection sampling with restarts, from at
    most _MAX_TRIES sampled points."""
    if field.q == 2:
        raise FieldTooSmall("no arc of interest avoids a hyperplane over GF(2)")
    if n < 1:
        raise DimensionTooSmall(f"an arc needs dimension n >= 1, got n = {n}")
    tries = 0
    while True:
        prefix = []
        dead = 0
        while len(prefix) < m:
            tries += 1
            if tries > _MAX_TRIES:
                raise NotAnArc(
                    f"no {m}-point arc off the hyperplane found in {_MAX_TRIES} samples")
            p = random_point(field, n, rng)
            if p.coords[-1] == 0:
                continue
            if _extends_arc(field, n, [x.coords for x in prefix], p.coords):
                prefix.append(p)
                dead = 0
            else:
                dead += 1
                if dead > 60:
                    break  # restart from scratch
        if len(prefix) == m:
            return Arc(prefix)
