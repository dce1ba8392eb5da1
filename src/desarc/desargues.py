"""Sections of arcs, simplexes in perspective, and the lifts between them.

The pipeline both ways:

  * an (n+3)-point arc in PG(n+1, q) avoiding the hyperplane x_{n+1} = 0,
    sectioned by it, yields a labeled configuration of C(n+3, 2) points in
    PG(n, q); two symbols a, b pick out a pair of simplexes in perspective
    from the point labeled (a, b);
  * two simplexes in perspective with no shared point or face lift back to
    such an arc, and sectioning the lift reproduces the pair.

Labels are unordered pairs of symbols 1..n+3.  The sectioning hyperplane is
always x_{n+1} = 0: PGL(n+2, q) is transitive on hyperplanes, so any other
gives the same configurations up to projectivity.  Configuration points are
kept in the first n+1 coordinates, so they are honest points of PG(n, q),
and a point of PG(n, q) embeds in the hyperplane by appending a 0.

The extended Desargues theorem says that the corresponding t-spaces
span(A_I) and span(B_I), |I| = t+1 <= n, of two simplexes in perspective
meet in (t-1)-spaces, all on the axis.  A pair reads every such meet, the
edges (|I| = 2) and the faces (|I| = n) among them, in its frame: the
coordinates of B relative to the simplex A, as in Hirschfeld's Projective
Geometries over Finite Fields, with no span or meet.  One rref of the
columns (A_0 .. A_n | B_0 .. B_n) gives (I | C), and the column c_i of C
holds the coordinates of B_i in the basis A: B_i = sum_j c_i[j] A_j.  So
sum_{i in I} y_i B_i lies in span(A_I) exactly when its coordinates off I
vanish, R_I y = 0 for the matrix R_I with a row j for each j not in I and
entries c_i[j], i in I.  B is a simplex, so y -> sum y_i B_i is
injective, and the meet is the image of the kernel of R_I: of projective
dimension |I| - 1 - rank R_I.  It is a (|I|-2)-space exactly when rank
R_I = 1, that is when R_I has a nonzero row r and every row is a multiple
of r.  The meet is then the image of {y : r.y = 0}: for an edge I = (i, j)
the point r_1 B_i - r_0 B_j, and rank 0 or rank > 1 make the edges the
same line or skew.  Face k of A is the hyperplane of the points whose k-th
coordinate is 0, so the faces k of A and B coincide exactly when c_i[k] = 0
for every i != k.  A subspace x is the common zero set of the rows d of a
dual basis (the nullspace of x's basis; one row for a hyperplane), and d
vanishes on the meet when the functional y -> sum y_i d.B_i vanishes on
r's kernel, which is when (d.B_i)_{i in I} is a multiple of r.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations, product
from types import MappingProxyType

from .arcs import Arc, frame_off_hyperplane, is_simplex, random_arc_off_hyperplane
from .errors import (
    AmbientMismatch,
    BadSymbols,
    DegenerateSection,
    DimensionTooSmall,
    EdgesDisjoint,
    FieldTooSmall,
    NoCommonVertex,
    NotASimplex,
    PointOnHyperplane,
    SharedFace,
    SharedPoint,
    TooFew,
    WInH,
    WrongCount,
)
from .field import GF
from .projlin import (
    ProjPoint,
    Subspace,
    _combine,
    common_ambient,
    join,
    meet,
    normalize,
    nullspace,
    rref,
)


def _label(i: int, j: int):
    return (i, j) if i < j else (j, i)


class LabeledConfiguration:
    """A table of points of PG(n, q) indexed by unordered symbol pairs.

    The full section of an (n+3)-arc uses symbols 1..n+3; restrictions to a
    subset of symbols keep the original symbol names and share the point
    objects, so identity across recursion levels is label-exact.  The table
    is a read-only view, so the constructor's checks and the span map hold
    for the object's lifetime.
    """

    __slots__ = ("field", "n", "symbols", "table", "_spans")

    def __init__(self, field: GF, n: int, table):
        if n < 2:
            raise DimensionTooSmall(
                f"labeled configurations need dimension n >= 2, got n = {n}")
        symbols = set()
        for (i, j) in table:
            symbols.add(i)
            symbols.add(j)
        symbols = tuple(sorted(symbols))
        clean = {}
        for (i, j), p in table.items():
            if i == j:
                raise BadSymbols(f"label ({i},{j}) repeats a symbol")
            if not isinstance(p, ProjPoint) or p.field != field or p.n != n:
                raise AmbientMismatch("configuration points must live in PG(n, q)")
            label = _label(i, j)
            if label in clean:
                raise BadSymbols(f"label ({label[0]},{label[1]}) is listed twice")
            clean[label] = p
        expected = {(a, b) for a, b in combinations(symbols, 2)}
        if set(clean) != expected:
            raise BadSymbols("table must cover every unordered pair of its symbols")
        if len(set(clean.values())) != len(clean):
            raise DegenerateSection("configuration points are not pairwise distinct")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "table", MappingProxyType(clean))
        object.__setattr__(self, "_spans", {(): Subspace.empty(field, n)})

    def __setattr__(self, name, value):
        raise AttributeError("LabeledConfiguration is immutable")

    def span(self, symbols) -> Subspace:
        """The join of the points labeled by pairs of the symbols, kept per
        symbol set and joined from the span without the last symbol and the
        labels that symbol adds (`_added`), which skip every label a
        symbol triple already places; the join extends the reduced basis of
        the shorter span, and a symbol that adds no label reuses it.  The
        vertex sweep reads only these: (a, b) with the other symbols R
        passes iff (1) each span{a,b,i} is a line, (2) span{a,i,j} and
        span{b,i,j} are distinct lines, (3) span({a} | R) and span({b} | R)
        have dimension n, and (4) span({a} | R - {k}) != span({b} | R - {k}).
        No meet is needed, as two distinct lines through (i, j) meet there;
        the configuration module gives the whole argument."""
        key = tuple(sorted(symbols))
        found = self._spans.get(key)
        if found is None:
            found = self.span(key[:-1])
            new = self._added(key)
            if new:
                found = join(found, *new)
            self._spans[key] = found
        return found

    def _added(self, key):
        """The points the last symbol l of a span key adds to the span of
        the symbols before it, with f the first: (f, l), and (j, l) for
        each symbol j between f and l whose triple span{f, j, l}, a
        proper sub-key kept in the same map, is no line.  The rule holds
        on every table, with no check to pass first.  If span{f, j, l} is
        a line, it is the line through (f, j) and (f, l), which the
        constructor makes two distinct points; (f, j) is in the span
        before l and (f, l) is added, so (j, l) is in the join already.  A
        key of at most three symbols has no proper triple, so there l adds
        all its labels."""
        f, l = key[0], key[-1]
        if len(key) <= 3:
            return [self.point(i, l) for i in key[:-1]]
        return [self.point(f, l)] + [self.point(j, l) for j in key[1:-1]
                                     if self.span((f, j, l)).dim != 1]

    def point(self, i: int, j: int) -> ProjPoint:
        try:
            return self.table[_label(i, j)]
        except KeyError:
            raise BadSymbols(f"no point labeled ({i},{j})") from None

    def labels(self):
        return sorted(self.table)

    def points(self):
        return [self.table[lab] for lab in self.labels()]

    def restrict(self, symbols) -> "LabeledConfiguration":
        """Sub-table over a symbol subset; points are shared, labels kept."""
        keep = set(symbols)
        if not keep <= set(self.symbols):
            raise BadSymbols("restriction symbols must be existing symbols")
        sub = {lab: p for lab, p in self.table.items()
               if lab[0] in keep and lab[1] in keep}
        return LabeledConfiguration(self.field, self.n, sub)

    def relabel(self, mapping) -> "LabeledConfiguration":
        """Apply a symbol permutation given as a dict old -> new."""
        sub = {_label(mapping[i], mapping[j]): p for (i, j), p in self.table.items()}
        return LabeledConfiguration(self.field, self.n, sub)

    def __len__(self):
        return len(self.table)

    def __eq__(self, other):
        return (isinstance(other, LabeledConfiguration)
                and self.field == other.field and self.n == other.n
                and self.table == other.table)

    def __repr__(self):
        return (f"LabeledConfiguration({len(self.table)} points, "
                f"symbols {self.symbols[0]}..{self.symbols[-1]}, PG({self.n}))")


class PerspectivePair:
    """Two simplexes of PG(n, q) in index-wise correspondence.

    Construction verifies both are simplexes of PG(n, q) with n >= 2, that
    they share no point, and that no face of one equals the corresponding
    face of the other.  The perspectivity theorems all assume exactly these
    hypotheses, so violating them fails fast here instead of corrupting
    downstream geometry.

    The pair keeps its frame (see the module docstring): `_frame[j][i]`
    is the j-th coordinate of B_i in the basis A, from which the edge
    meets, the shared-face test and the t-space verdicts are all read.
    Every slot is set here, and none changes after.
    """

    __slots__ = ("field", "n", "a", "b", "_frame")

    def __init__(self, a, b):
        a = tuple(a)
        b = tuple(b)
        if len(a) != len(b):
            raise WrongCount("the simplexes must have the same number of points")
        if not a:
            raise TooFew("the simplexes have no points")
        if not is_simplex(a):
            raise NotASimplex("first point set is not a simplex")
        if not is_simplex(b):
            raise NotASimplex("second point set is not a simplex")
        field, n = a[0].field, a[0].n
        if b[0].field != field or b[0].n != n:
            raise AmbientMismatch("the simplexes live in different spaces")
        if n < 2:
            raise DimensionTooSmall(
                f"perspective pairs need dimension n >= 2, got n = {n}")
        if set(a) & set(b):
            raise SharedPoint("the simplexes share a point")
        frame = _coordinates(a, b)
        for k, row in enumerate(frame):
            if not any(row[:k] + row[k + 1:]):
                raise SharedFace(f"corresponding faces {k} coincide")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "_frame", frame)

    def __setattr__(self, name, value):
        raise AttributeError("PerspectivePair is immutable")

    def __repr__(self):
        return f"PerspectivePair(n={self.n}, q={self.field.q})"


def _coordinates(basis, points):
    """The coordinates of the points in the basis of a simplex's points:
    row j holds the j-th coordinate of each point p, p = sum_j x_j basis_j.
    One rref of the columns (basis | points), which reduces to (I | X)."""
    width = len(basis)
    columns = [p.coords for p in basis] + [p.coords for p in points]
    reduced, _ = rref(basis[0].field, list(zip(*columns)))
    return [row[width:] for row in reduced]


# -- section -------------------------------------------------------------------

def _check_section_preconditions(n: int, field: GF):
    """Sections are defined for n >= 2 and q > 2.  At n = 1 the two
    simplexes of every vertex span the same line, so no perspectivity
    check can pass; below that there is no arc to section."""
    if n < 2:
        raise DimensionTooSmall(
            f"sectioned configurations need dimension n >= 2, got n = {n}")
    if field.q == 2:
        raise FieldTooSmall("sections need a field of order greater than 2")


def section_arc(gamma: Arc) -> LabeledConfiguration:
    """Section the lines of an (n+3)-arc of PG(n+1, q) by x_{n+1} = 0.

    The line through arc points i and j meets the hyperplane in one point,
    labeled by the unordered pair (i, j); the result is a configuration of
    C(n+3, 2) distinct points of PG(n, q), each the first n+1 coordinates
    of P_j[-1] P_i - P_i[-1] P_j, whose last coordinate is 0.
    """
    field, n = gamma.field, gamma.n - 1
    _check_section_preconditions(n, field)
    m = len(gamma)
    if m != n + 3:
        raise WrongCount(f"expected an arc of {n + 3} points, got {m}")
    values = [p.coords[-1] for p in gamma]
    for idx, u in enumerate(values):
        if u == 0:
            raise PointOnHyperplane(f"arc point {idx + 1} lies on the hyperplane")

    sub_row, scale_row = field.sub_row, field.scale_row
    table = {}
    for i, j in combinations(range(m), 2):
        x = sub_row(values[i], scale_row(values[j], gamma[i].coords), gamma[j].coords)
        table[(i + 1, j + 1)] = normalize(field, x[:-1])
    return LabeledConfiguration(field, n, table)


def sectioned_config(n: int, field: GF, rng=None) -> LabeledConfiguration:
    """A configuration of PG(n, q): the section of an (n+3)-arc off
    x_{n+1} = 0, the frame of `frame_off_hyperplane` or with a seeded rng a
    random arc (`random_arc_off_hyperplane`)."""
    _check_section_preconditions(n, field)
    if rng is None:
        gamma = frame_off_hyperplane(field, n + 1)
    else:
        gamma = random_arc_off_hyperplane(field, n + 1, n + 3, rng)
    return section_arc(gamma)


def random_perspective_pair(n: int, field: GF, rng):
    """A seeded random perspective pair with its vertex, drawn from a random
    sectioned configuration at a random vertex label."""
    config = sectioned_config(n, field, rng)
    a, b = rng.sample(config.symbols, 2)
    return extract_perspective_pair(config, a, b)


# -- perspectivity -----------------------------------------------------------

def extract_perspective_pair(config: LabeledConfiguration, a: int, b: int):
    """The simplex pair hung off two symbols: A_i = (a, i), B_i = (b, i) for
    the remaining symbols i ascending, with vertex (a, b).

    Returns (pair, vertex).
    """
    if a == b:
        raise BadSymbols("the two symbols must differ")
    if a not in config.symbols or b not in config.symbols:
        raise BadSymbols(f"symbols must come from {config.symbols}")
    rest = [s for s in config.symbols if s not in (a, b)]
    if len(rest) != config.n + 1:
        # sub-tables carry semi-simplex pairs; see configuration.replicate
        raise BadSymbols(
            f"a full table over {config.n + 3} symbols is required, "
            f"got {len(config.symbols)}")
    pa = tuple(config.point(a, i) for i in rest)
    pb = tuple(config.point(b, i) for i in rest)
    return PerspectivePair(pa, pb), config.point(a, b)


def _edge_meet(pair: PerspectivePair, i: int, j: int) -> ProjPoint:
    """The point where edges i, j of A and B meet, r_1 B_i - r_0 B_j for
    the row r of R_I, I = (i, j), read from the pair's frame."""
    field, b = pair.field, pair.b
    r, reason = _rank_one_row(field, pair._frame, (i, j))
    if reason == "rank 0":  # span(A_I) = span(B_I)
        raise EdgesDisjoint(f"edges {i},{j} are the same line")
    if reason is not None:
        raise EdgesDisjoint(f"edges {i},{j} are skew")
    return normalize(field, field.sub_row(r[0], field.scale_row(r[1], b[i].coords),
                                          b[j].coords))


def find_vertex(pair: PerspectivePair) -> ProjPoint:
    """The common point of all lines A_iB_i.

    Checks first that every pair of corresponding edges meets in a point,
    then intersects two of the connector lines and verifies the rest pass
    through the result.  Edges A_0A_1 and B_0B_1 are distinct and meet, so
    the first two connectors are distinct lines of one plane: they meet.
    """
    n = pair.n
    for i, j in combinations(range(n + 1), 2):
        _edge_meet(pair, i, j)

    v = meet(join(pair.a[0], pair.b[0]), join(pair.a[1], pair.b[1])).point()
    for i in range(2, n + 1):
        if not join(pair.a[i], pair.b[i]).contains_point(v):
            raise NoCommonVertex(f"connector line {i} misses the candidate vertex")
    return v


def edge_intersections(pair: PerspectivePair):
    """All C(n+1, 2) points A_iA_j meet B_iB_j, keyed by the index pair."""
    return {(i, j): _edge_meet(pair, i, j)
            for i, j in combinations(range(pair.n + 1), 2)}


def axis_hyperplane(pair: PerspectivePair) -> Subspace:
    """The join of the corresponding-edge intersections: for a pair in
    perspective, the hyperplane that carries every t-space meet.  An edge
    meet that fails raises its error."""
    return join(*edge_intersections(pair).values())


def tspace_verdicts(pair: PerspectivePair, x: Subspace):
    """For each size k = 2..n, whether span(A_I) meets span(B_I) in a
    (k-2)-space of x for every index set I of k indices: the t-space meets
    with t = k - 1, checked in the pair's frame with no span or meet (see
    the module docstring).  x's equations are its dual rows, the
    nullspace of its basis: one row for a hyperplane.  Returns a dict
    keyed by k; a size stops at its first I that fails (`_frame_defect`)."""
    field, n = pair.field, pair.n
    width = n + 1
    common_ambient((pair.a[0], x))
    # duals[m][i] = d.B_i for the m-th dual row d of x
    b_cols = list(zip(*(b.coords for b in pair.b)))
    duals = [_combine(field, d, b_cols, width)
             for d in nullspace(field, x.basis, width)]
    return {k: all(_frame_defect(field, pair._frame, duals, idxs) is None
                   for idxs in combinations(range(width), k))
            for k in range(2, n + 1)}


def _rank_one_row(field: GF, frame, idxs):
    """(r, None) when R_I, for I = idxs, has rank 1, with r its first
    nonzero row scaled to 1 at its first nonzero entry; (None, "rank 0") or
    (None, "rank > 1") otherwise.  Row j of R_I, for j not in I, is
    frame[j] on I.  A row is a multiple of r exactly when it is its own
    entry at r's leading 1 times r."""
    scale_row = field.scale_row
    first = None
    for j, coords in enumerate(frame):
        if j in idxs:
            continue
        row = [coords[i] for i in idxs]
        if first is None:
            for p, lead in enumerate(row):
                if lead:
                    first = scale_row(field.inv(lead), row)
                    break
        elif row != scale_row(row[p], first):
            return None, "rank > 1"
    if first is None:
        return None, "rank 0"
    return first, None


def _frame_defect(field: GF, frame, duals, idxs):
    """Why span(A_I) and span(B_I), for I = idxs, do not meet in a
    (|I|-2)-space of x, or None: the rank of R_I when it is not 1
    (`_rank_one_row`), or "off x" for a dual row of x that is no multiple
    of R_I's row r."""
    first, reason = _rank_one_row(field, frame, idxs)
    if reason is None:
        scale_row, p = field.scale_row, first.index(1)
        for dual in duals:
            row = [dual[i] for i in idxs]
            if row != scale_row(row[p], first):
                return "off x"
    return reason


# -- lifting -------------------------------------------------------------------

def _line_points_but(line: Subspace, v: ProjPoint, picks):
    """Points of the line other than its point v, by their indices
    0..q-1 in canonical order.  Let r0 and r1 be the line's reduced rows,
    with pivots p0 < p1.  In canonical order its points are r0 + c r1 for
    the codes c = 0..q-1, then r1, and each of these vectors is already
    normalized: r0 + c r1 has 1 at p0 and c at p1, and r1 has 0 at p0.  So
    v is point q if v[p0] = 0 and point v[p1] otherwise, and index i among
    the other q points is point i below v's index and point i + 1 from it
    on."""
    field = line.field
    q, sub_row, neg = field.q, field.sub_row, field.neg
    (r0, r1), (p0, p1) = line.basis, line._pivots
    at = q if v.coords[p0] == 0 else v.coords[p1]
    out = []
    for i in picks:
        if i >= at:
            i += 1
        out.append(ProjPoint(field, sub_row(neg(i), r0, r1) if i < q else r1))
    return out


def _embed(p: ProjPoint) -> ProjPoint:
    """A point of PG(n, q) as the point of x_{n+1} = 0 in PG(n+1, q)."""
    return ProjPoint(p.field, p.coords + (0,))


def _anchor_off(field: GF, n: int, rng=None) -> ProjPoint:
    """The first point of PG(n, q) off x_n = 0 in canonical order, or with a
    seeded rng a random one.  The index is the draw rng.choice would make
    from the list of all q^n points off the hyperplane; the point is found
    by unranking it as a mixed-radix number.  The points with their leading
    1 at lead < n come first, q^(n-lead-1)(q-1) of them, as base-q digits
    for coordinates lead+1..n-1 and then a nonzero last coordinate; e_n
    comes last."""
    q = field.q
    index = 0 if rng is None else rng.randrange(q ** n)
    for lead in range(n):
        count = q ** (n - lead - 1) * (q - 1)
        if index < count:
            break
        index -= count
    else:
        return ProjPoint(field, (0,) * n + (1,))
    index, last = divmod(index, q - 1)
    tail = [last + 1]
    for _ in range(n - lead - 1):
        index, x = divmod(index, q)
        tail.append(x)
    return ProjPoint(field, (0,) * lead + (1,) + tuple(reversed(tail)))


def lift_to_arc(pair: PerspectivePair, vertex: ProjPoint, rng=None) -> Arc:
    """Rebuild an (n+3)-arc of PG(n+1, q) whose section by x_{n+1} = 0 is
    the pair.

    The pair and vertex are embedded in that hyperplane by appending a 0.
    Points 1 and 2 lie on the line joining the vertex to an anchor off it
    (see `_anchor_off`); point i (for i = 3..n+3) is the meet of lines
    1-A_i and 2-B_i.  The line meets the hyperplane only at the vertex, so
    its other q points are the candidates for points 1 and 2: the first two
    in canonical order, or with a seeded rng the two indices
    rng.sample(range(q), 2), which is the draw rng.sample would make from
    their list.  Both are unranked, so the line's points are never listed.
    Lines 1-A_i and 2-B_i lie in the plane of point 1, A_i and the vertex
    (not A_i, which is on no face), and differ, as line 1-2 meets the
    hyperplane only at the vertex: their meet is a point.
    """
    if vertex.field != pair.field or vertex.n != pair.n:
        raise AmbientMismatch("point lives in a different space")
    # face k of a simplex holds the points whose k-th coordinate is 0
    for simplex in (pair.a, pair.b):
        if not all(x for (x,) in _coordinates(simplex, (vertex,))):
            raise SharedFace("the vertex lies on a face of one of the simplexes")
    for i in range(pair.n + 1):
        if not join(pair.a[i], pair.b[i]).contains_point(vertex):
            raise NoCommonVertex(f"connector line {i} misses the given vertex")

    v_amb = _embed(vertex)
    line = join(v_amb, _anchor_off(pair.field, pair.n + 1, rng))
    picks = [0, 1] if rng is None else rng.sample(range(pair.field.q), 2)
    p1, p2 = _line_points_but(line, v_amb, picks)

    pts = [p1, p2]
    for a, b in zip(pair.a, pair.b):
        pts.append(meet(join(p1, _embed(a)), join(p2, _embed(b))).point())
    return Arc(pts)


def lift_round_trips(pair: PerspectivePair, vertex: ProjPoint) -> bool:
    """Whether the canonical lift of the pair to an arc sections back to
    it: labels (1, i+3) give A_i, (2, i+3) give B_i and (1, 2) the vertex."""
    n = pair.n
    config = section_arc(lift_to_arc(pair, vertex))
    return (all(config.point(1, i + 3) == pair.a[i] for i in range(n + 1))
            and all(config.point(2, i + 3) == pair.b[i] for i in range(n + 1))
            and config.point(1, 2) == vertex)


def normal_forms(n: int, field: GF):
    """Every s in (F*)^(n+1) with 1 + s_0 + ... + s_n != 0, in code order:
    one per orbit of labeled configurations of PG(n, q) under
    projectivities.  One sends the frame A_0..A_n, V to e_0..e_n, (1, ..., 1),
    and then B_i = e_i + s_i V (`normal_form_pair`), a simplex exactly when
    det(I + s 1^T) = 1 + sum s_i != 0."""
    for s in product(range(1, field.q), repeat=n + 1):
        if reduce(field.add, s, 1):
            yield s


def normal_form_pair(n: int, field: GF, s):
    """The pair of the normal form s: A_i = e_i and B_i = e_i + s_i V, with
    vertex V = (1, ..., 1).  Returns (pair, vertex)."""
    add = field.add
    a = [ProjPoint(field, [int(i == j) for j in range(n + 1)]) for i in range(n + 1)]
    b = [normalize(field, [add(x, 1) if i == j else x for j in range(n + 1)])
         for i, x in enumerate(s)]
    return PerspectivePair(a, b), ProjPoint(field, (1,) * (n + 1))


def conway_lift_axis(pair: PerspectivePair, w: ProjPoint) -> Subspace:
    """The axis recovered by lifting and projecting: lift the second
    corresponding point pair out of x_{n+1} = 0 through w, span the two
    lifted simplexes, and project their meet back into the hyperplane
    from w.  A_2 lifts to the first point of the line w-A_2 other than w
    and A_2 in canonical order, one of the line's points 0 and 1 without w
    (`_line_points_but`), so the line is never listed.  A vector x
    projects to w[-1] x - x[-1] w, whose last coordinate is 0: a linear
    map whose kernel is w.  The first lifted hyperplane misses w, else it
    would hold every A_i and so be x_{n+1} = 0, which the lifted point is
    off; so the projected basis rows of the meet span its projection.

    The result equals axis_hyperplane(pair) in canonical form.  With w off
    the hyperplane, the lifted simplexes span distinct hyperplanes: equal
    ones would give the pair a shared face, which its constructor rejects.
    """
    field, n = pair.field, pair.n
    if w.field != field or w.n != n + 1:
        raise AmbientMismatch("w must live in the ambient PG(n+1, q)")
    if w.coords[-1] == 0:
        raise WInH("the projection centre must lie off the hyperplane")

    v_amb = _embed(find_vertex(pair))
    a_amb = [_embed(p) for p in pair.a]
    b_amb = [_embed(p) for p in pair.b]
    a2, b2 = a_amb[1], b_amb[1]

    lift_line = join(w, a2)
    a2_star = next(p for p in _line_points_but(lift_line, w, (0, 1)) if p != a2)
    b2_star = meet(join(v_amb, a2_star), join(w, b2)).point()

    h1 = join(*([a_amb[0], a2_star] + a_amb[2:]))
    h2 = join(*([b_amb[0], b2_star] + b_amb[2:]))
    sub_row, scale_row = field.sub_row, field.scale_row
    rows = [sub_row(x[-1], scale_row(w.coords[-1], x), w.coords)[:-1]
            for x in meet(h1, h2).basis]
    return Subspace(field, n, rows)
