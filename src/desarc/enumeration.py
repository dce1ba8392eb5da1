"""Desk-scale exhaustive enumeration of arcs, frames and sectioned
configurations.

Counts are over ordered point tuples; the unordered figure count is the
ordered count divided by m!.  The kernel backtracks over points in canonical
order and prunes with the point sets of spans.  Point sets are Python ints,
one bit per point id.  A candidate extends a prefix of at most n-1 points
exactly when it avoids the prefix's span, and a longer prefix exactly when
it avoids the hyperplane through it and every (n-1)-subset of the prefix; so
the next pool is `pool & ~forbidden`, with `forbidden` the union of those
spans.  The level before the last counts each completion pool by popcount
instead of walking its leaves.

Span rows.  Each prefix subset s of at most n-1 points has one row, a list
indexed by point id: entry j is the point set of span(s + j).  The subset s
is independent and every candidate j lies off span(s), so span(s + j) has
dimension |s|, and any point i of it off span(s) spans the same subspace
with s.  One `projlin.join` therefore fills the row at every such i.  The
row's own span(s) is the entry of s's highest point in the row of the rest
of s, and a point spans itself, so rows of the empty subset need no join.
Point sets come from `Subspace.points` and are shared by canonical span.

Set walk.  Every level extends a prefix by the pool points above its last
point (any pool point at the root), so each point set P is walked once, as
its ascending ordering, with weight |P|!.  The level before the last counts
each candidate j's completions above j: each m-arc set is reached once,
from its m-2 smallest points, and counts m!.  The outputs are those of the
walk over every ordering:
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
    the pool points above each child, m! times each, and charges that."""

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
        """Join span(s + j) and enter it in the row of s at every point that
        spans it with s: the points of span(s + j) off span(s).  The row's
        own span(s) is the entry of s's highest point in the row of the
        rest of s."""
        if s:
            top = s.bit_length() - 1
            rest = s ^ (1 << top)
            parent = self._row(rest)
            own = parent[top]
            if own is None:
                own = self._fill(rest, parent, top)
            points = self.points
            self.joins += 1
            span = self._points_mask(join(*(points[i] for i in _ids(s | 1 << j))))
        else:
            # a point spans itself
            own, span = 0, 1 << j
        for i in _ids(span & ~own):
            row[i] = span
        return span

    def _charge(self, amount):
        self.nodes += amount
        if self.nodes > self.budget:
            raise BudgetExceeded(f"search exceeded {self.budget} nodes")

    def run(self):
        if self.m == 1:
            self._charge(self.pool0.bit_count())
            self.count = self.pool0.bit_count()
        else:
            self._recurse((), self.pool0, 1)

    def _recurse(self, prefix, pool, weight):
        """Walk the ascending prefix, of weight |prefix|!, below which
        `pool` holds the points that keep it an arc."""
        self._charge(weight * pool.bit_count())
        before_last = len(prefix) == self.m - 2
        # ascending extensions only: the pool points above the last one
        cand = pool >> (prefix[-1] + 1) << (prefix[-1] + 1) if prefix else pool
        # once a candidate joins the prefix, later points must avoid its span
        # with every n-1 prefix points (with the whole prefix, while shorter)
        rows = [(s, self._row(s)) for s in map(
            _mask, combinations(prefix, min(len(prefix), self.n - 1)))]
        leaves = 0
        while cand:
            low = cand & -cand
            cand ^= low
            j = low.bit_length() - 1
            forbidden = 0
            for s, row in rows:
                span = row[j]
                if span is None:
                    span = self._fill(s, row, j)
                forbidden |= span
            nxt = pool & ~forbidden
            if before_last:
                # the completions above j, each an m-set in its m! orderings
                leaves += (nxt >> (j + 1)).bit_count()
            elif nxt:
                self._recurse(prefix + (j,), nxt, weight * (len(prefix) + 1))
        if before_last:
            leaves *= weight * self.m * (self.m - 1)
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
    counts the spans the kernel joined, each at most once per row, and
    `orbits` the normal forms a sectioned-config job checked, 0 for other
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
