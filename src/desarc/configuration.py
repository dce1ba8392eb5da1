"""Structural analysis of sectioned configurations.

A full configuration X over symbols 1..n+3 splits, at every choice of a
vertex label (a, b), into two simplexes, the vertex, and the corresponding-
edge intersections, matching the integer identity

    C(n+3, 2) = 2(n+1) + 1 + C(n+1, 2)

and the edge-intersection sub-table replays the same split one dimension
down, with

    C(n+1, 2) = 2(n-1) + 1 + C(n-1, 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import combinations
from math import comb

from .desargues import (
    LabeledConfiguration,
    edge_intersections,
    extract_perspective_pair,
    find_vertex,
)
from .desargues import _label
from .errors import (
    BadSymbols,
    DegenerateConfiguration,
    GeometryError,
    TooFewSymbols,
    WrongCount,
)
from .projlin import ProjPoint, Subspace, join, meet, rank


# -- integer partition identities ---------------------------------------------

def vertex_partition_identity(n: int):
    """(C(n+3,2), (2(n+1), 1, C(n+1,2))) — always an equality."""
    return comb(n + 3, 2), (2 * (n + 1), 1, comb(n + 1, 2))


def semi_partition_identity(n: int):
    """(C(n+1,2), (2(n-1), 1, C(n-1,2))) — always an equality."""
    return comb(n + 1, 2), (2 * (n - 1), 1, comb(n - 1, 2))


# -- semi-simplexes ------------------------------------------------------------

class SemiSimplexPair:
    """Two ordered sets of r points, each spanning an (r-1)-space, with a
    vertex of perspective."""

    __slots__ = ("field", "n", "c", "d", "vertex")

    def __init__(self, c, d, vertex: ProjPoint):
        c = tuple(c)
        d = tuple(d)
        if len(c) != len(d) or not c:
            raise WrongCount("the semi-simplexes must be equal-sized and nonempty")
        field, n = c[0].field, c[0].n
        for side in (c, d):
            if rank(field, [p.coords for p in side], n + 1) != len(side):
                raise DegenerateConfiguration(
                    "a semi-simplex must span a space of one less dimension")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "vertex", vertex)

    def __setattr__(self, name, value):
        raise AttributeError("SemiSimplexPair is immutable")

    def __repr__(self):
        return f"SemiSimplexPair({len(self.c)}+{len(self.d)} points in PG({self.n}))"


# -- symbol incidence ------------------------------------------------------------

def verify_symbol_incidence(config: LabeledConfiguration) -> bool:
    """Check the label law of the table against the actual geometry.

    Verified, for every symbol triple {i,j,k}: the points (i,j), (i,k),
    (j,k) are pairwise distinct and collinear; and for every symbol i, no
    three of the points hanging off i are collinear, so each triple line
    carries exactly its three points among all labels meeting the triple.
    A fully disjoint label can land on a triple line by accident over a
    small field; that is an incidence of the ambient space, not of the
    configuration's line system, and is not an error.
    """
    labels = config.labels()
    pts = {lab: config.point(*lab) for lab in labels}
    if len(set(pts.values())) != len(labels):
        return False
    field, width = config.field, config.n + 1
    for i, j, k in combinations(config.symbols, 3):
        rows = [pts[_label(i, j)].coords, pts[_label(i, k)].coords,
                pts[_label(j, k)].coords]
        if rank(field, rows, width) != 2:
            return False
    for i in config.symbols:
        partners = [s for s in config.symbols if s != i]
        for j, k, l in combinations(partners, 3):
            rows = [pts[_label(i, j)].coords, pts[_label(i, k)].coords,
                    pts[_label(i, l)].coords]
            if rank(field, rows, width) == 2:
                return False
    return True


# -- substructure counts ----------------------------------------------------------

def substructure_counts(config: LabeledConfiguration):
    """Distinct spans of k-symbol subsets for k = 2..min(n+1, s-1), grouped
    by their actual dimension, returned as {dimension: count}.  For a full
    configuration this is C(n+3, k) subspaces of dimension k-2 at every k;
    a degenerate span would land under the wrong dimension and surface as a
    count mismatch.

    Spans grow one symbol at a time: the span of a subset is the span of
    the subset without its last symbol joined with the points that pair
    the last symbol with each of the others.  That covers the same points
    as joining every pair of the subset, so the spans are the same."""
    s = len(config.symbols)
    by_dim = {}
    spans = {(i,): Subspace.empty(config.field, config.n) for i in config.symbols}
    for k in range(2, min(config.n + 1, s - 1) + 1):
        spans = {subset: join(spans[subset[:-1]],
                              *(config.point(i, subset[-1]) for i in subset[:-1]))
                 for subset in combinations(config.symbols, k)}
        for span in spans.values():
            by_dim.setdefault(span.dim, set()).add(span)
    return {dim: len(found) for dim, found in sorted(by_dim.items())}


# -- vertex sweep ---------------------------------------------------------------

@dataclass(frozen=True)
class SweepEntry:
    label: tuple
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class SweepReport:
    dimension: int
    order: int
    point_total: int
    entries: tuple = dc_field(default=())

    @property
    def passed(self) -> int:
        return sum(1 for e in self.entries if e.ok)

    @property
    def total(self) -> int:
        return len(self.entries)

    @property
    def all_ok(self) -> bool:
        return self.passed == self.total

    @property
    def identity(self):
        return vertex_partition_identity(self.dimension)


def vertex_sweep(config: LabeledConfiguration) -> SweepReport:
    """Try every label as a perspectivity vertex.

    A label (a, b) passes when the pair extraction succeeds, the
    reconstructed vertex is the point labeled (a, b), and the corresponding-
    edge intersections are exactly the table points whose labels avoid a
    and b.
    """
    entries = []
    for a, b in config.labels():
        try:
            pair, vertex = extract_perspective_pair(config, a, b)
            found = find_vertex(pair)
            if found != vertex:
                entries.append(SweepEntry((a, b), False, "vertex mismatch"))
                continue
            rest = [s for s in config.symbols if s not in (a, b)]
            meets = edge_intersections(pair)
            ok = True
            for (i, j), pt in meets.items():
                if pt != config.point(rest[i], rest[j]):
                    ok = False
                    break
            entries.append(SweepEntry((a, b), ok,
                                      "" if ok else "edge intersections mismatch"))
        except GeometryError as exc:  # a failed check; a bug propagates
            entries.append(SweepEntry((a, b), False, type(exc).__name__))
    return SweepReport(config.n, config.field.q, len(config), tuple(entries))


# -- self replication ---------------------------------------------------------

def replicate(config: LabeledConfiguration, vertex_label):
    """Split a symbol table at a vertex label into a semi-simplex pair and
    the residual sub-table over the remaining symbols.

    Needs at least 3 symbols; with exactly 3 the pair degenerates to two
    single points with the vertex on their line and an empty residual.
    """
    s = len(config.symbols)
    if s < 3:
        raise TooFewSymbols(f"replication needs at least 3 symbols, got {s}")
    a, b = vertex_label
    if a == b or a not in config.symbols or b not in config.symbols:
        raise BadSymbols(f"bad vertex label ({a},{b})")
    rest = [x for x in config.symbols if x not in (a, b)]
    c = tuple(config.point(a, i) for i in rest)
    d = tuple(config.point(b, i) for i in rest)
    pair = SemiSimplexPair(c, d, config.point(a, b))
    residual = config.restrict(rest) if len(rest) >= 2 else None
    return pair, residual


@dataclass(frozen=True)
class ReplicationLevel:
    symbols: tuple
    vertex_label: tuple
    side_size: int
    residual_labels: int


def replication_trace(config: LabeledConfiguration):
    """Iterate replicate, always taking the two smallest symbols as the
    vertex, until fewer than 3 symbols remain.  Returns the level records;
    each level's sub-table is a restriction view of the one before."""
    levels = []
    current = config
    while current is not None and len(current.symbols) >= 3:
        a, b = current.symbols[0], current.symbols[1]
        pair, residual = replicate(current, (a, b))
        levels.append(ReplicationLevel(
            current.symbols, (a, b), len(pair.c),
            0 if residual is None else len(residual)))
        current = residual
    return levels


# -- triple perspective ----------------------------------------------------------

def _meet_point(l1: Subspace, l2: Subspace) -> ProjPoint:
    x = meet(l1, l2)
    if x.dim != 0:
        raise DegenerateConfiguration("lines do not meet in a single point")
    return x.point()


def triple_perspective_axis(config: LabeledConfiguration) -> Subspace:
    """Three semi-simplexes hung off the first three symbols, pairwise in
    perspective from the collinear vertices (1,2), (1,3), (2,3); returns the
    common axis spanned by the remaining-symbol points, after verifying that
    every pairwise corresponding-edge intersection lands on it."""
    s1, s2, s3 = config.symbols[:3]
    rest = list(config.symbols[3:])
    if len(rest) < 2:
        raise TooFewSymbols("need at least two more symbols beyond the vertices")

    vertices = [config.point(s1, s2), config.point(s1, s3), config.point(s2, s3)]
    if rank(config.field, [v.coords for v in vertices], config.n + 1) > 2:
        raise DegenerateConfiguration("the three vertices are not collinear")

    axis = join(*(config.point(i, j) for i, j in combinations(rest, 2)))

    for sa, sb in ((s1, s2), (s1, s3), (s2, s3)):
        for i, j in combinations(rest, 2):
            la = join(config.point(sa, i), config.point(sa, j))
            lb = join(config.point(sb, i), config.point(sb, j))
            x = _meet_point(la, lb)
            if x != config.point(i, j):
                raise DegenerateConfiguration(
                    f"edges {i},{j} of pair ({sa},{sb}) miss the labeled point")
            if not axis.contains_point(x):
                raise DegenerateConfiguration(
                    f"edge intersection {i},{j} escapes the common axis")
    return axis


# -- geometric partition check ----------------------------------------------------

def verify_vertex_partition(config: LabeledConfiguration, a: int, b: int) -> bool:
    """The actual point sets of the split at (a, b) are pairwise disjoint and
    together exhaust the table."""
    pair, vertex = extract_perspective_pair(config, a, b)
    meets = edge_intersections(pair)
    sets = [set(pair.a), set(pair.b), {vertex}, set(meets.values())]
    total = set()
    for part in sets:
        if total & part:
            return False
        total |= part
    return total == set(config.points())
