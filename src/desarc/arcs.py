"""Simplexes, arcs, coordinate frames, and frames avoiding a hyperplane.

An arc of PG(n, q) is a point set in which every subset of n+1 points spans
the whole space.  A frame (coordinate system) is an arc of n+2 points.
"""

from __future__ import annotations

from itertools import combinations

from .errors import (
    FieldTooSmall,
    NotAnArc,
    TooFew,
    WrongCount,
)
from .field import GF
from .projlin import (
    ProjPoint,
    Subspace,
    check_hyperplane,
    common_ambient,
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

    def __hash__(self):
        return hash((self.field, self.points))

    def __repr__(self):
        return f"Arc({len(self.points)} points in PG({self.n},{self.field.q}))"


def frame_off_hyperplane(h: Subspace) -> Arc:
    """A coordinate frame (arc of n+2 points) with no point on the
    hyperplane h.

    The standard frame e_0, ..., e_n, (1,...,1,z) avoids the hyperplane
    K: x_0 + ... + x_n = 0, where z is the smallest nonzero element with
    n + z != 0 in the field.  Such a z exists whenever q > 2, and over
    GF(2) exactly when n is even (z = 1: the 4 points off a line of
    PG(2, 2) form a frame); the function still asks for q > 2, as sections
    do, and raises FieldTooSmall over GF(2).  One coordinate rule carries
    it off h.  Let u be the normalized dual vector of h, t the position of
    its first nonzero entry, v the vector u with entries 0 and t swapped,
    and w = 1 - v entrywise.  Each frame point x goes to x + (w.x) e_0 with
    coordinates 0 and t then swapped, normalized.

    The rule is linear, and invertible because w_0 = 1 - u_t = 0.  The dot
    product of u with an image is v.x + (w.x) v_0 = (v + w).x, as v_0 = 1,
    which is the dot product of x with (1,...,1).  So the map takes K onto
    h, and the frame off K onto a frame off h.  For h = K it is the identity.
    """
    field = h.field
    n = h.n
    if field.q == 2:
        raise FieldTooSmall("no frame avoids a hyperplane over GF(2)")

    add, mul, sub = field.add, field.mul, field.sub
    n_in_field = field.scalar(n)
    z = next(c for c in range(1, field.q) if add(n_in_field, c) != 0)
    frame = [[1 if i == j else 0 for j in range(n + 1)] for i in range(n + 1)]
    frame.append([1] * n + [z])

    u = h.dual_vector()   # NotAHyperplane unless h is a hyperplane
    t = next(i for i, x in enumerate(u) if x)
    v = list(u)
    v[0], v[t] = v[t], v[0]
    w = [sub(1, x) for x in v]
    pts = []
    for x in frame:
        dot = 0
        for wi, xi in zip(w, x):
            if wi and xi:
                dot = add(dot, mul(wi, xi))
        x[0] = add(x[0], dot)
        x[0], x[t] = x[t], x[0]
        pts.append(normalize(field, x))
    return Arc(pts)


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
        return rank(field, prefix_coords + [cand], n + 1) == r + 1
    for idxs in combinations(range(r), n):
        rows = [prefix_coords[i] for i in idxs] + [cand]
        if rank(field, rows, n + 1) != n + 1:
            return False
    return True


def random_arc_off_hyperplane(h: Subspace, m: int, rng) -> Arc:
    """A uniformly seeded arc of m points avoiding the hyperplane h, built
    by rejection sampling with restarts, from at most _MAX_TRIES sampled
    points."""
    field, n = h.field, h.n
    if field.q == 2:
        raise FieldTooSmall("no arc of interest avoids a hyperplane over GF(2)")
    check_hyperplane(h, field, n)
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
