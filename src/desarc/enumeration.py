"""Desk-scale exhaustive enumeration of arcs, frames and sectioned
configurations.

Counts are over ordered point tuples; the unordered figure count is the
ordered count divided by m!.  The kernel backtracks over points in canonical
order and prunes with the point sets of spans.  Point sets are Python ints,
one bit per point id.  A candidate extends a prefix of at most n-1 points
exactly when it avoids the prefix's span, and a longer prefix exactly when
it avoids the hyperplane through it and every (n-1)-subset of the prefix; so
the next pool is `pool & ~forbidden`, with `forbidden` the union of those
spans.  The level before the last counts the point pairs that complete its
prefix instead of walking its leaves.

Span rows.  Each prefix subset s of at most n-1 points has one row, a list
indexed by point id: entry j is the point set of span(s + j).  The subset s
is independent and every candidate j lies off span(s), so span(s + j) has
dimension |s|, and any point i of it off span(s) spans the same subspace
with s.  One fill therefore enters it at every such i.  The row's own
span(s) is the entry of s's highest point in the row of the rest of s, and
a point spans itself, so rows of the empty subset need no join.  The row of
one point x holds lines: the `projlin.join` of x and j is the only join the
kernel makes, and its point set comes from `Subspace.points`, shared by
canonical line.  Above a line, span(s + j) is the union of the lines
through j and the points x of span(s), each read from the row of x: a
vector of span(s + j) is v + c j with v in <s>, which is j when v = 0 and
lies on the line through the point v and j otherwise.  A node hands its
children the rows they read: a child's (n-1)-subsets are the prefix's and
the new point with each (n-2)-subset of the prefix.

The last pair.  On a line or a plane (n <= 2) the level before the last
may count by lines.  With P its prefix and C its candidates above the last
point of P, the completions are the C(|C|, 2) pairs of C less
sum over a in P of sum over the lines L through a of C(|L & C|, 2).  A
pair {j, k} of C fails only if a point a of P is collinear with j and k;
two such points a, b would put a, b and j on one line, which j's being in
the pool forbids, so the pairs each a removes are disjoint.  On a line
every pair completes.  A node counts by lines when the lines of its prefix
points are fewer than the |C| |P| row entries its walk reads; the line
total rides down the recursion, so the choice costs O(1) a node.  The
lines through a are the distinct entries of a's row at the root pool
points above a, the entries the node of the prefix (a) fills anyway, so a
plane job joins the lines the walk joins.

Set walk.  Every level extends a prefix by the pool points above its last
point (any pool point at the root), so each point set P is walked once, as
its ascending ordering, with weight |P|!.  The level before the last counts
the completions by two points above its last: each m-arc set is reached
once, from its m-2 smallest points, and counts m!.  The outputs are those
of the walk over every ordering:
  * counts and nodes: the pool below P is the set of points off span(T)
    for every T in P with |T| = min(|P|, n), so it depends on the set of P
    only, and every ordering of an arc is an arc.  A node charges |P|!
    |pool| and the last level what it counts, so the node count is the
    number of ordered k-arcs summed over k = 1..m;
  * budget: every charge is at least 0, so the budget is exceeded exactly
    when the total node count exceeds it.  The root charges its pool, so a
    pool larger than the budget fails before the points are listed.

The kernel only counts: `run_job` checks a sectioned-config count after
the search, on one normal form per orbit, with code that shares none of it."""

from __future__ import annotations

import time
from collections import namedtuple
from itertools import combinations
from math import factorial

from .desargues import lift_round_trips, normal_form_pair, normal_forms
from .errors import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    DimensionTooSmall,
    NegativeBudget,
    WrongCount,
)
from .field import GF
from .projlin import Subspace, all_points, join, num_points


def pgl_order(n: int, q: int) -> int:
    """Order of the projectivity group of PG(n, q): the number of ordered
    coordinate frames, by sharp transitivity.  Pure integer arithmetic,
    independent of any search."""
    total = 1
    for i in range(n + 1):
        total *= q ** (n + 1) - q ** i
    return total // (q - 1)


# -- kernel ----------------------------------------------------------------------

class _ArcSearch:
    """Backtracking enumerator over int bitmasks of point ids.

    A node holds an ascending prefix P, standing for its |P|! orderings,
    and the pool of points that keep it an arc; it charges |P|! per pool
    point, one budget node per ordered child, and extends P by the pool
    points above its last.  The level before the last counts by popcount
    the pool points above each child or, on a line or a plane, the
    candidate pairs less those on a line through a prefix point; it
    charges them, m! each."""

    def __init__(self, field: GF, n: int, m: int, avoid: bool, budget: int):
        if n < 1:
            raise DimensionTooSmall(
                f"enumeration needs dimension n >= 1, the search space is PG({n}, q)")
        if budget < 0:
            raise NegativeBudget(f"the node budget must be at least 0, got {budget}")
        # the root's first charge is its pool: every point, less those of
        # the avoided hyperplane x_n = 0
        pool_size = num_points(field, n) - (num_points(field, n - 1) if avoid else 0)
        if pool_size > budget:
            raise BudgetExceeded(f"search exceeded {budget} nodes")
        self.n = n
        self.m = m
        self.budget = budget
        self.nodes = 0
        self.count = 0
        self.joins = 0
        self.points = list(all_points(field, n))
        self.index = {p.coords: i for i, p in enumerate(self.points)}
        # rows[s][j] is the point mask of span(s + j), for a prefix subset
        # mask s and a point id j off span(s); span_points maps a canonical
        # span to its point mask, shared by every subset that spans it
        self.rows = {}
        self.span_points = {}
        # lines[a] lists the lines through point a, by `_lines`, in a plane
        self.lines = [None] * len(self.points)
        self.pool0 = (1 << len(self.points)) - 1
        if avoid:
            self.pool0 &= ~_mask(i for i, p in enumerate(self.points) if p.coords[-1] == 0)

    def _points_mask(self, span: Subspace) -> int:
        """Mask of the points of a subspace, shared by every subset that
        spans it."""
        mask = self.span_points.get(span.basis)
        if mask is None:
            index = self.index
            mask = self.span_points[span.basis] = _mask(
                index[p.coords] for p in span.points())
        return mask

    def _row(self, s: int) -> list:
        row = self.rows.get(s)
        if row is None:
            row = self.rows[s] = [None] * len(self.points)
        return row

    def _fill(self, s: int, row: list, j: int) -> int:
        """Enter span(s + j) in the row of s at every point that spans it
        with s: the points of span(s + j) off span(s).  The row's own
        span(s) is the entry of s's highest point in the row of the rest of
        s.  Only lines are joined: above a line, span(s + j) is the union
        of the lines through j and each point of span(s)."""
        if s & (s - 1):
            top = s.bit_length() - 1
            rest = s ^ (1 << top)
            parent = self._row(rest)
            own = parent[top]
            if own is None:
                own = self._fill(rest, parent, top)
            span = 0
            for x in _ids(own):
                through = self._row(1 << x)
                line = through[j]
                if line is None:
                    line = self._fill(1 << x, through, j)
                span |= line
        elif s:
            own = s
            self.joins += 1
            span = self._points_mask(join(self.points[s.bit_length() - 1], self.points[j]))
        else:
            # a point spans itself
            own, span = 0, 1 << j
        for i in _ids(span & ~own):
            row[i] = span
        return span

    def _lines(self, a: int) -> list:
        """The distinct lines through the point a that hold a root pool
        point above a, filled into the row of a as the search would."""
        lines = self.lines[a]
        if lines is None:
            row = self._row(1 << a)
            lines = self.lines[a] = []
            rest = self.pool0 >> (a + 1) << (a + 1)
            while rest:
                j = (rest & -rest).bit_length() - 1
                line = row[j]
                if line is None:
                    line = self._fill(1 << a, row, j)
                lines.append(line)
                rest &= ~line
        return lines

    def _charge(self, amount):
        self.nodes += amount
        if self.nodes > self.budget:
            raise BudgetExceeded(f"search exceeded {self.budget} nodes")

    def run(self):
        if self.m == 1:
            self._charge(self.pool0.bit_count())
            self.count = self.pool0.bit_count()
        else:
            self._recurse((), self.pool0, 1, [(0, self._row(0))], 0)

    def _recurse(self, prefix, pool, weight, rows, lines):
        """Walk the ascending prefix, of weight |prefix|!, below which
        `pool` holds the points that keep it an arc.  `rows` pairs each
        subset the walk reads with its row: the (n-1)-subsets of the
        prefix, or the whole prefix while shorter.  In a plane, `lines`
        counts the lines `_lines` holds for the prefix points."""
        self._charge(weight * pool.bit_count())
        # ascending extensions only: the pool points above the last one
        cand = pool >> (prefix[-1] + 1) << (prefix[-1] + 1) if prefix else pool
        before_last = len(prefix) == self.m - 2
        if before_last:
            # by lines, when they are fewer than the row entries the walk reads
            if self.n <= 2 and lines < cand.bit_count() * len(rows):
                self._count_by_lines(prefix, cand, weight)
                return
        elif len(prefix) < self.n - 1:
            # a child of at most n-1 points reads the row of its whole prefix
            base, tails = [], [_mask(prefix)]
        else:
            # a child's (n-1)-subsets: the prefix's, and those with the new
            # point, one per (n-2)-subset of the prefix (none on a line)
            base = rows
            tails = list(map(_mask, combinations(prefix, self.n - 2))) if self.n > 1 else []
        plane = self.n == 2
        leaves = 0
        while cand:
            low = cand & -cand
            cand ^= low
            j = low.bit_length() - 1
            # once j joins the prefix, later points must avoid its span with
            # each subset the rows stand for
            forbidden = 0
            for s, row in rows:
                span = row[j]
                if span is None:
                    span = self._fill(s, row, j)
                forbidden |= span
            nxt = pool & ~forbidden
            if before_last:
                # the completions above j
                leaves += (nxt >> (j + 1)).bit_count()
            elif nxt:
                child = base + [(t | low, self._row(t | low)) for t in tails]
                self._recurse(prefix + (j,), nxt, weight * (len(prefix) + 1), child,
                              lines + len(self._lines(j)) if plane else 0)
        if before_last:
            self._complete(leaves, weight)

    def _count_by_lines(self, prefix, cand, weight):
        """The completions of a prefix P of a plane or line by two points
        of its candidates C: the pairs of C less, for each point a of P,
        the pairs of C on a line through a.  Two points of P collinear with
        a pair would be collinear with a candidate, so no pair is taken
        twice; on a line every pair completes."""
        size = cand.bit_count()
        pairs = size * (size - 1)
        if self.n == 2:
            for a in prefix:
                for line in self.lines[a]:
                    k = (line & cand).bit_count()
                    pairs -= k * (k - 1)
        self._complete(pairs // 2, weight)

    def _complete(self, pairs: int, weight: int):
        """Count and charge the completions of a prefix of weight (m-2)! by
        `pairs` point pairs: m-arc sets, m! orderings each."""
        leaves = pairs * weight * self.m * (self.m - 1)
        self.count += leaves
        self._charge(leaves)


def _mask(ids) -> int:
    """The int with bit i set for each point id i."""
    mask = 0
    for i in ids:
        mask |= 1 << i
    return mask


def _ids(mask: int):
    """Set bit positions of the mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def count_arcs(n: int, field: GF, m: int, avoid: bool = False,
               budget: int = DEFAULT_BUDGET) -> int:
    """Exact number of ordered m-tuples of points of PG(n, q) in general
    position (every subset of at most n+1 points independent), with avoid
    only those with every point off the hyperplane x_n = 0."""
    return run_job("arcs", n, field, m=m, avoid=avoid, budget=budget).raw_count


def count_frames(n: int, field: GF, budget: int = DEFAULT_BUDGET) -> int:
    """Exact number of ordered coordinate frames (arcs of n+2 points) of
    PG(n, q); equals the projectivity group order, which serves as an
    independent cross-check and is never assumed."""
    return run_job("frames", n, field, budget=budget).raw_count


# -- job records -------------------------------------------------------------------

class EnumResult(namedtuple("EnumResult", "raw_count unordered_count nodes "
                                          "wall_seconds joins orbits")):
    """A job's counts and search statistics.  `nodes` is the number of
    ordered k-arcs of the searched space summed over k = 1..m, the size of
    the search tree over every ordering; the budget bounds it.  `joins`
    counts the lines the kernel joined, each at most once in the row of
    each of its points; every larger span is a union of lines.  `orbits`
    counts the normal forms a sectioned-config job checked, 0 for other
    kinds.  A named tuple, not a frozen dataclass: `dataclasses` and its
    `inspect` chain would add their import to every `enumerate` process."""
    __slots__ = ()


def _check_orbits(n: int, field: GF, raw_count: int) -> int:
    """The number N of normal forms of PG(n, q).  The stabilizer of the
    hyperplane x_{n+1} = 0 of PG(n+1, q) acts freely on the ordered
    (n+3)-arcs off it with N orbits, so its order
    q^(n+1) (q-1) |PGL(n+1, q)| times N is the count; where sections exist
    (n >= 2, q > 2) each normal form must lift and section back to itself."""
    q = field.q
    orbits = 0
    for s in normal_forms(n, field):
        orbits += 1
        if n >= 2 and q > 2 and not lift_round_trips(*normal_form_pair(n, field, s)):
            raise WrongCount(f"the normal form s = {s} does not section back to its pair")
    expected = q ** (n + 1) * (q - 1) * pgl_order(n, q) * orbits
    if raw_count != expected:
        raise WrongCount(f"the search counted {raw_count} sectioned configurations, "
                         f"but {orbits} orbits make {expected}")
    return orbits


def run_job(kind: str, n: int, field: GF, m: int = None, avoid: bool = False,
            budget: int = DEFAULT_BUDGET) -> EnumResult:
    """Run an enumeration job and collect its statistics.

    "arcs" counts the ordered m-arcs of PG(n, q), with `avoid` only those
    off the hyperplane x_n = 0; "frames" the ordered (n+2)-arcs of PG(n, q);
    and "sectioned-configs" the ordered (n+3)-arcs of PG(n+1, q) off x_{n+1} = 0,
    which is every hyperplane's count, as PGL(n+2, q) is transitive on them.
    `nodes` counts the ordered k-arcs for k = 1..m (see `EnumResult`).  A
    sectioned-config count is checked by `_check_orbits`, whose cost the
    count bounds."""
    start = time.perf_counter()
    if kind == "arcs":
        if m is None or m < 1:
            raise WrongCount("arc jobs need a tuple size m of at least 1")
        search = _ArcSearch(field, n, m, avoid, budget)
    elif m is not None or avoid:
        raise WrongCount(f"m and avoid apply to arc jobs only, not {kind}")
    elif kind == "frames":
        search = _ArcSearch(field, n, n + 2, False, budget)
    elif kind == "sectioned-configs":
        if n < 1:
            raise DimensionTooSmall(f"sectioned-config jobs need n >= 1, got n = {n}")
        search = _ArcSearch(field, n + 1, n + 3, True, budget)
    else:
        raise WrongCount(f"unknown job kind {kind!r}")
    search.run()
    orbits = _check_orbits(n, field, search.count) if kind == "sectioned-configs" else 0
    return EnumResult(search.count, search.count // factorial(search.m), search.nodes,
                      time.perf_counter() - start, search.joins, orbits)
