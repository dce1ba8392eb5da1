"""Structural analysis of sectioned configurations.

A full configuration X over symbols 1..n+3 splits, at every choice of a
vertex label (a, b), into two simplexes, the vertex, and the corresponding-
edge intersections, matching the integer identity

    C(n+3, 2) = 2(n+1) + 1 + C(n+1, 2)

and the edge-intersection sub-table replays the same split one dimension
down, with

    C(n+1, 2) = 2(n-1) + 1 + C(n-1, 2).

Every check reads the geometry through `LabeledConfiguration.span`, one
span per symbol set.  Each is grown from the span without its last symbol
l by the labels of l that no symbol triple already places: (f, l) for the
first symbol f, and (j, l) only where span{f, j, l} is no line (see
`LabeledConfiguration._added`).  At a vertex label (a, b) with remaining
symbols R, the edge A_iA_j is span{a,i,j}, the connector A_iB_i is
span{a,b,i}, and face k of A is span({a} | R - {k}).  The vertex sweep
passes (a, b) iff

  1. span{a,b,i} is a line for every i in R;
  2. for i < j in R, span{a,i,j} and span{b,i,j} are distinct lines;
  3. span({a} | R) and span({b} | R) have dimension n;
  4. span({a} | R - {k}) != span({b} | R - {k}) for every k in R.

None needs a meet.  By 2 the edges are distinct lines through (i, j), so
they meet there, and the span of {a} | T is that of the points A_T, so 3
and 4 say A and B are simplexes with no common face.  By 1 (a, b) is on
every connector, and connectors 0 and 1 differ as edges 0,1 do.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from itertools import combinations
from math import comb

from .desargues import LabeledConfiguration, edge_intersections, extract_perspective_pair
from .errors import (
    BadSymbols,
    DegenerateConfiguration,
    GeometryError,
    TooFewSymbols,
    WrongCount,
)
from .projlin import ProjPoint, Subspace, rank


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
            if rank(field, [p.coords for p in side]) != len(side):
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
    """Check the label law of the table against the actual geometry: every
    symbol triple spans a line and every 4-subset a plane.  The points are
    distinct, which the `LabeledConfiguration` constructor guarantees.
    Given the lines, three points off i in {i,j,k,l} are collinear iff all
    six are, so each triple line carries exactly its three points among the
    labels meeting the triple.  A disjoint label on a triple line over a
    small field is an ambient incidence, not an error.
    """
    return (all(config.span(t).dim == 1 for t in combinations(config.symbols, 3))
            and all(config.span(s).dim == 2 for s in combinations(config.symbols, 4)))


# -- substructure counts ----------------------------------------------------------

def substructure_counts(config: LabeledConfiguration):
    """Distinct spans of k-symbol subsets for k = 2..min(n+1, s-1), grouped
    by their actual dimension, returned as {dimension: count}.  For a full
    configuration this is C(n+3, k) subspaces of dimension k-2 at every k;
    a degenerate span would land under the wrong dimension and surface as a
    count mismatch."""
    s = len(config.symbols)
    spans = {config.span(subset) for k in range(2, min(config.n + 1, s - 1) + 1)
             for subset in combinations(config.symbols, k)}
    return dict(sorted(Counter(span.dim for span in spans).items()))


# -- vertex sweep ---------------------------------------------------------------

# the records are named tuples: a frozen dataclass would cost every
# configuration command the import of `dataclasses` and its `inspect` chain
SweepEntry = namedtuple("SweepEntry", "label ok detail", defaults=("",))


class SweepReport(namedtuple("SweepReport", "dimension point_total entries",
                             defaults=((),))):
    __slots__ = ()

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


def _edge_fault(config: LabeledConfiguration, a: int, b: int, i: int, j: int):
    """Condition 2 at the rest pair i < j: None when span{a,i,j} and
    span{b,i,j} are distinct lines, else (s,) for the first symbol s whose
    span is no line, or (a, b) when both are one line."""
    ea, eb = config.span((a, i, j)), config.span((b, i, j))
    if ea.dim != 1:
        return (a,)
    if eb.dim != 1:
        return (b,)
    return (a, b) if ea == eb else None


def _vertex_fault(config: LabeledConfiguration, a: int, b: int):
    """The first sweep condition the label (a, b) breaks, as a message
    naming its symbols, or None."""
    rest = [s for s in config.symbols if s not in (a, b)]
    if len(rest) != config.n + 1:  # sub-tables carry semi-simplex pairs; see replicate
        return f"a full table over {config.n + 3} symbols is required, got {len(rest) + 2}"
    for i in rest:
        if config.span((a, b, i)).dim != 1:
            return f"connector {(a, b, i)} is not a line"
    for i, j in combinations(rest, 2):
        fault = _edge_fault(config, a, b, i, j)
        if fault == (a, b):
            return f"edges {(a, i, j)} and {(b, i, j)} coincide"
        if fault is not None:
            return f"edge {(*fault, i, j)} is not a line"
    for s in (a, b):
        dim = config.span((s, *rest)).dim
        if dim != config.n:
            return f"simplex {(s, *rest)} spans dimension {dim}, not {config.n}"
    for k in rest:
        face = [i for i in rest if i != k]
        if config.span((a, *face)) == config.span((b, *face)):
            return f"faces {(a, *face)} and {(b, *face)} coincide"
    return None


def vertex_sweep(config: LabeledConfiguration) -> SweepReport:
    """Try every label as a perspectivity vertex by the four conditions of
    the module docstring; a failing entry names the first one it breaks."""
    faults = [(label, _vertex_fault(config, *label)) for label in config.labels()]
    return SweepReport(config.n, len(config), tuple(
        SweepEntry(label, fault is None, fault or "") for label, fault in faults))


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


ReplicationLevel = namedtuple("ReplicationLevel",
                              "symbols vertex_label side_size residual_labels")


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

def triple_perspective_axis(config: LabeledConfiguration) -> Subspace:
    """Three semi-simplexes hung off the first three symbols, pairwise in
    perspective from the collinear vertices (1,2), (1,3), (2,3); returns the
    common axis, the span of the remaining symbols, after verifying that
    every pairwise corresponding-edge intersection is the labeled point,
    which lies on that span by construction."""
    s1, s2, s3 = config.symbols[:3]
    rest = config.symbols[3:]
    if len(rest) < 2:
        raise TooFewSymbols("need at least two more symbols beyond the vertices")
    if config.span((s1, s2, s3)).dim != 1:
        raise DegenerateConfiguration("the three vertices are not collinear")
    for sa, sb in ((s1, s2), (s1, s3), (s2, s3)):
        for i, j in combinations(rest, 2):
            fault = _edge_fault(config, sa, sb, i, j)
            if fault == (sa, sb):
                raise DegenerateConfiguration("lines do not meet in a single point")
            if fault is not None:
                raise DegenerateConfiguration(
                    f"edges {i},{j} of pair ({sa},{sb}) miss the labeled point")
    return config.span(rest)


# -- geometric partition check ----------------------------------------------------

def verify_vertex_partition(config: LabeledConfiguration, a: int, b: int) -> bool:
    """The actual point sets of the split at (a, b) are pairwise disjoint and
    together exhaust the table.  False when the points at (a, b) are no
    perspective pair or two of its corresponding edges do not meet in a
    point; `BadSymbols` when a or b is not a distinct symbol of a full
    table."""
    try:
        pair, vertex = extract_perspective_pair(config, a, b)
        meets = edge_intersections(pair).values()
    except BadSymbols:
        raise
    except GeometryError:
        return False
    parts = [*pair.a, *pair.b, vertex, *meets]
    return len(set(parts)) == len(parts) and set(parts) == set(config.points())
