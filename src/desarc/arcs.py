"""Simplexes, arcs, coordinate frames, and frames avoiding a hyperplane.

An arc of PG(n, q) is a point set in which every subset of n+1 points spans
the whole space.  A frame (coordinate system) is an arc of n+2 points.
"""

from __future__ import annotations

from itertools import combinations

from .errors import (
    FieldTooSmall,
    NotAHyperplane,
    NotAnArc,
    TooFew,
    WrongCount,
)
from .field import GF
from .projlin import (
    ProjPoint,
    Subspace,
    collineation_to_hyperplane,
    common_ambient,
    hyperplane_from_dual,
    join,
    normalize,
    rank,
)


def is_simplex(points) -> bool:
    """True iff the n+1 points span PG(n, q)."""
    field, n = common_ambient(points)
    points = list(points)
    if len(points) != n + 1:
        raise WrongCount(f"a simplex of PG({n}) needs {n + 1} points, got {len(points)}")
    return rank(field, [p.coords for p in points], n + 1) == n + 1


def _arc_violation(field, n, points):
    """First (n+1)-subset of the points that fails to span, or None."""
    coords = [p.coords for p in points]
    for idxs in combinations(range(len(points)), n + 1):
        if rank(field, [coords[i] for i in idxs], n + 1) != n + 1:
            return idxs
    return None


def is_arc(points) -> bool:
    """True iff every (n+1)-subset of the points is a simplex."""
    field, n = common_ambient(points)
    points = list(points)
    if len(points) < n + 1:
        raise TooFew(f"an arc of PG({n}) needs at least {n + 1} points")
    return _arc_violation(field, n, points) is None


def face(points, k: int) -> Subspace:
    """Face k of a simplex: the hyperplane spanned by every point except
    the one at index k."""
    pts = list(points)
    return join(*(p for i, p in enumerate(pts) if i != k))


class Arc:
    """An ordered arc; construction verifies the arc property."""

    __slots__ = ("field", "n", "points")

    def __init__(self, points):
        points = tuple(points)
        field, n = common_ambient(points)
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

    def __ne__(self, other):
        return not self.__eq__(other)

    def __hash__(self):
        return hash((self.field, self.points))

    def __repr__(self):
        return f"Arc({len(self.points)} points in PG({self.n},{self.field.q}))"


def frame_off_hyperplane(h: Subspace) -> Arc:
    """A coordinate frame (arc of n+2 points) with no point on the
    hyperplane h.

    Starts from the standard simplex together with (1,...,1,z) against the
    reference hyperplane K: x_1 + ... + x_{n+1} = 0, then transports the
    frame onto h by the canonical collineation K -> h.  z is the smallest
    nonzero element keeping the last point off K, i.e. with n + z != 0 in
    the field; such a z exists exactly when q > 2.
    """
    field = h.field
    n = h.n
    if field.q == 2:
        raise FieldTooSmall("no frame avoids a hyperplane over GF(2)")
    if not h.is_hyperplane:
        raise NotAHyperplane(f"dimension {h.dim} in PG({n})")

    k_plane = hyperplane_from_dual(field, (1,) * (n + 1))
    n_in_field = field.scalar(n)
    z = next(v for v in range(1, field.q) if field.add(n_in_field, v) != 0)

    pts = []
    for i in range(n + 1):
        coords = [0] * (n + 1)
        coords[i] = 1
        pts.append(ProjPoint(field, coords))
    pts.append(ProjPoint(field, (1,) * n + (z,)))

    if h == k_plane:
        return Arc(pts)
    move = collineation_to_hyperplane(k_plane, h)
    return Arc([move.apply_point(p) for p in pts])


# -- seeded random constructions ------------------------------------------------

def random_point(field: GF, n: int, rng) -> ProjPoint:
    while True:
        coords = [rng.randrange(field.q) for _ in range(n + 1)]
        if any(coords):
            return normalize(field, coords)


def _extends_arc(field, n, prefix_coords, cand) -> bool:
    r = len(prefix_coords)
    if r <= n:
        return rank(field, prefix_coords + [cand], n + 1) == r + 1
    for idxs in combinations(range(r), n):
        rows = [prefix_coords[i] for i in idxs] + [cand]
        if rank(field, rows, n + 1) != n + 1:
            return False
    return True


def random_arc_off_hyperplane(h: Subspace, m: int, rng, max_tries: int = 10000) -> Arc:
    """A uniformly seeded arc of m points avoiding the hyperplane h, built
    by rejection sampling with restarts."""
    field, n = h.field, h.n
    if field.q == 2:
        raise FieldTooSmall("no arc of interest avoids a hyperplane over GF(2)")
    if not h.is_hyperplane:
        raise NotAHyperplane(f"dimension {h.dim} in PG({n})")
    tries = 0
    while True:
        prefix = []
        dead = 0
        while len(prefix) < m:
            tries += 1
            if tries > max_tries:
                raise NotAnArc(
                    f"no {m}-point arc off the hyperplane found in {max_tries} samples")
            p = random_point(field, n, rng)
            if h.contains_point(p):
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
