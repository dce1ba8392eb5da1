"""Desk-scale exhaustive enumeration of arcs, frames and sectioned
configurations.

Counts are over ordered point tuples; the unordered figure count is the
ordered count divided by m!.  The kernel backtracks over points in
canonical order and prunes with the point sets of spans.  Point sets are
Python ints, one bit per point id.  A candidate extends a prefix of at most
n-1 points exactly when it avoids the prefix's span, and a longer prefix
exactly when it avoids the hyperplane through it and every (n-1)-subset of
the prefix; so the next pool is `pool & ~forbidden`, with `forbidden` the
union of those spans.  The level before the last counts the point pairs
that complete its prefix instead of walking its leaves, a plane 4-arc
search counts the three points that complete each first point, and a 5-arc
search of PG(3, q) the three that complete each pair of its first point
(`solid`).
Points are coordinate tuples indexed by id, in the order of
`projlin.all_points`; the search builds no `ProjPoint` and no `Subspace`.

Span rows.  Each prefix subset s of at most n-1 points has one row, a list
indexed by point id: entry j is the point set of span(s + j).  The subset s
is independent and every candidate j lies off span(s), so span(s + j) has
dimension |s|, and any point i of it off span(s) spans the same subspace
with s.  One fill therefore enters it at every such i.  The row's own
span(s) is the entry of s's highest point in the row of the rest of s, and
a point spans itself, so rows of the empty subset need no join.  The row of
one point x holds lines: the line of x and j is the only join the kernel
makes.  It is the `projlin.rref` of their two coordinate rows, r0 and r1,
and its points are r1 and r0 - c r1 for each c in GF(q), normalized as the
basis is reduced.  Its point set is entered in the row of every point on
the line that has a row and kept for the others, whose rows start with it
when they are made; so each line is joined once, and a join makes no row
the walk would not.  Above a line, span(s + j) is the union of the lines
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

The last three in a plane.  A plane 4-arc search (n = 2, m = 4) counts at
the node of its first point a and enters no node of two points.  With C
the pool points above a, c = |C| and k_L = |L & C| for each line L, the
completions are
  C(c, 3) - sum over L through a of [C(k_L, 2) (c - k_L) + C(k_L, 3)]
          - sum over L not through a of C(k_L, 3).
A 3-set T of C fails exactly when two of its points lie on a line through
a, or all three on a line not through a.  Two pairs of T on lines through
a share a point x, so both lines are line(a, x), and T is taken once by
the first sum; a collinear T on a line not through a has no pair on a
line through a, so the two sums are disjoint.  The C(k_L, 3) terms of
both sums are one sum over the lines with three or more root pool points,
each listed once from `_lines` of its lowest pool point, and the lines
through a are `_lines(a)`; a line with fewer points of C adds nothing.  So
the count joins no line the walk would not.  The node also charges what
its children (a, j) would: 2! |pool(a) - line(a, j)| each, which is
2 (c |pool(a)| - sum over L through a of k_L |L & pool(a)|) in all.
Reading every line of the plane at the first node would cost a row per
point before the budget could stop the job, so the node first charges
that and a floor of its completions from the lines through a alone: each
of the other lines holds k_L <= q + 1 points of C, so C(k_L, 3) <=
C(k_L, 2) (q - 1) / 3, and the C(k_L, 2) over those lines sum to the
pairs of C on no line through a.  The rest of the completions' charge
follows the full count, so the node's total is unchanged.  The collinear
triples of C are a running sum: the first points come in ascending order,
so C is the previous first point's candidates less a, and each line
through a with k_L points of C loses C(k_L, 2) of them.  Every pool line
is read once, at the first count, and each first point reads its own
lines only.

Set walk.  Every level extends a prefix by the pool points above its last
point (any pool point at the root), so each point set P is walked once, as
its ascending ordering, with weight |P|!.  The level before the last counts
the completions by two points above its last: each m-arc set is reached
once, from its m-2 smallest points, and counts m!.  The outputs are those
of the walk over every ordering:
  * counts and nodes: the pool below P is the set of points off span(T)
    for every T in P with |T| = min(|P|, n), so it depends on the set of P
    only, and every ordering of an arc is an arc.  A node charges |P|!
    |pool| (and a node that counts its last three, its children's
    charges) and the last level what it counts, so the node count is the
    number of ordered k-arcs summed over k = 1..m;
  * budget: every charge is at least 0, so the budget is exceeded exactly
    when the total node count exceeds it.  The root charges its pool, so a
    pool larger than the budget fails before the points are listed; its
    size is multiplied up only until it passes the budget.

The kernel only counts: `run_job` checks a sectioned-config count after
the search, on one normal form per orbit, with code that shares none of it."""

from __future__ import annotations

import time
from collections import namedtuple
from itertools import combinations, product
from math import factorial

from .errors import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    DimensionTooSmall,
    NegativeBudget,
    WrongCount,
)
from .field import GF
from .projlin import rref


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
    charges them, m! each.  A plane 4-arc search counts instead at its
    first point: the candidate triples less those that put three of the
    four points on a line; a 5-arc search of PG(3, q) counts at each pair
    of its first point by the planes through the pair's line.  Points are
    coordinate tuples, indexed by id; `joins` counts the distinct lines
    joined."""

    def __init__(self, field: GF, n: int, m: int, avoid: bool, budget: int):
        if n < 1:
            raise DimensionTooSmall(
                f"enumeration needs dimension n >= 1, the search space is PG({n}, q)")
        if budget < 0:
            raise NegativeBudget(f"the node budget must be at least 0, got {budget}")
        # the root's first charge is its pool: every point, less those of
        # the avoided hyperplane x_n = 0
        q = field.q
        if _pool_exceeds(q, n, avoid, budget):
            raise BudgetExceeded(f"search exceeded {budget} nodes")
        self.n = n
        self.m = m
        self.budget = budget
        self.nodes = 0
        self.count = 0
        self.joins = 0
        self.field = field
        # the points of PG(n, q) in the canonical order of `projlin.all_points`
        self.points = [(0,) * lead + (1,) + tail for lead in range(n + 1)
                       for tail in product(range(q), repeat=n - lead)]
        self.index = {p: i for i, p in enumerate(self.points)}
        # rows[s][j] is the point mask of span(s + j), for a prefix subset
        # mask s and a point id j off span(s); pending[x] holds the lines,
        # with their point ids, joined through a point x whose row is not
        # made yet
        self.rows = {}
        self.pending = {}
        # lines[a] lists the lines through point a, by `_lines`, in a plane,
        # pool_lines those with three or more root pool points, and
        # collinear the triples of the candidates of the latest first
        # point on one of them
        self.lines = [None] * len(self.points)
        self.pool_lines = None
        self.collinear = None
        # a 5-arc search of PG(3, q) counts by planes (`solid`); space
        # holds the incidences it reads, once they are built
        self.by_planes = (n, m) == (3, 5)
        self.space = None
        self.q = q
        self.leaf = factorial(m)
        self.pool0 = (1 << len(self.points)) - 1
        if avoid:
            self.pool0 &= ~_mask(i for i, p in enumerate(self.points) if p[-1] == 0)

    def _row(self, s: int) -> list:
        row = self.rows.get(s)
        if row is None:
            row = self.rows[s] = [None] * len(self.points)
            if not s & (s - 1):
                # a point's row starts with the lines already joined through it
                x = s.bit_length() - 1
                for line, ids in self.pending.pop(x, ()):
                    for i in ids:
                        if i != x:
                            row[i] = line
        return row

    def _line(self, x: int, y: int):
        """The line through the points x and y: its point mask, its point
        ids and its reduced basis r0, r1 with their pivot columns.  Its
        points are r1 and r0 - c r1 for each c in GF(q), each normalized,
        as the basis is reduced."""
        self.joins += 1
        basis, pivots = rref(self.field, (self.points[x], self.points[y]))
        r0, r1 = basis
        index, sub_row = self.index, self.field.sub_row
        ids = [index[r1]] + [index[tuple(sub_row(c, r0, r1))] for c in range(self.q)]
        return _mask(ids), ids, basis, pivots

    def _fill(self, s: int, row: list, j: int) -> int:
        """Enter span(s + j) in the row of s at every point that spans it
        with s: the points of span(s + j) off span(s).  The row's own
        span(s) is the entry of s's highest point in the row of the rest of
        s.  Only lines are joined, each once: a line is entered in the row
        of every point on it that has one, and waits in `pending` for the
        others, so the join makes no row.  Above a line, span(s + j) is the
        union of the lines through j and each point of span(s)."""
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
            span, ids, _, _ = self._line(s.bit_length() - 1, j)
            for x in ids:
                through = self.rows.get(1 << x)
                if through is None:
                    self.pending.setdefault(x, []).append((span, ids))
                else:
                    for i in ids:
                        if i != x:
                            through[i] = span
            return span
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

    def _pool_lines(self) -> list:
        """The lines that hold three or more root pool points, each once:
        a line of `_lines(x)` for the pool point x lowest on it."""
        if self.pool_lines is None:
            pool = self.pool0
            self.pool_lines = [line for x in _ids(pool) for line in self._lines(x)
                               if (line & pool).bit_count() > 2
                               and not line & pool & ((1 << x) - 1)]
        return self.pool_lines

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
        counts the lines `_lines` holds for the prefix points; a plane
        4-arc search counts below its first point by `_count_last_three`,
        and a 5-arc search of PG(3, q) by `solid.count_pairs`."""
        self._charge(weight * pool.bit_count())
        # ascending extensions only: the pool points above the last one
        cand = pool >> (prefix[-1] + 1) << (prefix[-1] + 1) if prefix else pool
        if prefix and self.by_planes:
            # a module that only a 5-arc search of PG(3, q) compiles
            from .solid import count_pairs
            count_pairs(self, prefix[0], pool, cand)
            return
        if prefix and self.n == 2 and self.m == 4:
            self._count_last_three(prefix[0], pool, cand)
            return
        before_last = len(prefix) == self.m - 2
        if before_last:
            # by lines, when they are fewer than the row entries the walk reads
            if self.n <= 2 and lines < cand.bit_count() * len(rows):
                self._count_by_lines(prefix, cand)
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
                # a first point that counts by planes reads no row
                child = [] if self.by_planes else base + [(t | low, self._row(t | low))
                                                          for t in tails]
                self._recurse(prefix + (j,), nxt, weight * (len(prefix) + 1), child,
                              lines + len(self._lines(j)) if plane else 0)
        if before_last:
            self._complete(leaves)

    def _count_by_lines(self, prefix, cand):
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
        self._complete(pairs // 2)

    def _count_last_three(self, a, pool, cand):
        """The completions of a first point a of a plane 4-arc by three
        points of its candidates C, and the charges of the children (a, j)
        the walk would enter.  A 3-set of C fails when two of its points
        lie on a line through a, or all three on a line not through a; each
        failing set is counted once (see the module docstring)."""
        size = cand.bit_count()
        # each child (a, j) charges 2! per point of pool(a) off line(a, j)
        children = size * pool.bit_count()
        triples = size * (size - 1) * (size - 2) // 6
        pairs = size * (size - 1) // 2
        through = leaving = 0
        for line in self._lines(a):
            k = (line & cand).bit_count()
            children -= k * (line & pool).bit_count()
            k2 = k * (k - 1) // 2
            triples -= k2 * (size - k)
            pairs -= k2
            through += k2 * (k - 2) // 3
            leaving += k2
        # charge a floor of the completions before every pool line is read:
        # the pairs of C on no line through a lie on lines of at most q + 1
        # points, so those lines hold at most (q - 1) / 3 collinear triples
        # per pair
        floor = max(triples - through - (self.q - 1) * pairs // 3, 0)
        self._charge(2 * children + floor * self.leaf)
        if self.collinear is None:
            pool0 = self.pool0
            self.collinear = sum(k * (k - 1) * (k - 2) // 6
                                 for k in ((line & pool0).bit_count()
                                           for line in self._pool_lines()))
        # the first points come in ascending order, so C is the previous
        # first point's candidates less a: a line through a with k points
        # of C loses C(k, 2) collinear triples
        self.collinear -= leaving
        triples -= self.collinear
        self.count += triples * self.leaf
        self._charge((triples - floor) * self.leaf)

    def _complete(self, sets: int):
        """Count and charge the completions of a prefix: `sets` m-arc
        sets, m! orderings each."""
        leaves = sets * self.leaf
        self.count += leaves
        self._charge(leaves)


def _pool_exceeds(q: int, n: int, avoid: bool, budget: int) -> bool:
    """Whether the root pool of PG(n, q) holds more than `budget` points:
    the q^n points off x_n = 0 with `avoid`, all 1 + q + ... + q^n without.
    The powers of q are multiplied up and left as soon as the pool passes
    the budget, so a large n costs no more than a small one."""
    size = power = 1
    for _ in range(n):
        power *= q
        size = power if avoid else size + power
        if size > budget:
            return True
    return size > budget


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
    counts the distinct lines the kernel touched: each is joined once,
    and entered in the row of every point on it or, in a 5-arc search of
    PG(3, q), listed with the planes through it; every larger span is a
    union of lines.  `orbits` counts the normal forms a sectioned-config
    job checked, 0 for other kinds.  A named tuple, not a frozen dataclass: `dataclasses` and its
    `inspect` chain would add their import to every `enumerate` process."""
    __slots__ = ()


def _check_orbits(n: int, field: GF, raw_count: int) -> int:
    """The number N of normal forms of PG(n, q).  The stabilizer of the
    hyperplane x_{n+1} = 0 of PG(n+1, q) acts freely on the ordered
    (n+3)-arcs off it with N orbits, so its order
    q^(n+1) (q-1) |PGL(n+1, q)| times N is the count; where sections exist
    (n >= 2, q > 2) each normal form must lift and section back to itself.
    Only this check reads `desargues`, so a frames or arcs job never
    imports it."""
    from .desargues import lift_round_trips, normal_form_pair, normal_forms

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
