"""Desk-scale exhaustive enumeration of arcs, frames and sectioned
configurations.

Counts are over ordered point tuples; the unordered figure count is the
ordered count divided by m!.  The kernel backtracks over points in canonical
order and prunes with hyperplane point-sets: once the prefix holds at least
n points, a candidate extends the arc exactly when it avoids the hyperplane
spanned by every n-subset of the prefix, so the allowed candidate list is
filtered incrementally with set lookups instead of rank computations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations, product
from math import comb, factorial

from .errors import BudgetExceeded, WrongCount
from .field import GF
from .projlin import Subspace

DEFAULT_BUDGET = 10 ** 9


def pgl_order(n: int, q: int) -> int:
    """Order of the projectivity group of PG(n, q): the number of ordered
    coordinate frames, by sharp transitivity.  Pure integer arithmetic,
    independent of any search."""
    total = 1
    for i in range(n + 1):
        total *= q ** (n + 1) - q ** i
    return total // (q - 1)


# -- kernel ----------------------------------------------------------------------

def _point_tuples(field: GF, n: int):
    """Normalized coordinate tuples of PG(n, q), canonical order."""
    q = field.q
    out = []
    for lead in range(n + 1):
        for tail in product(range(q), repeat=n - lead):
            out.append((0,) * lead + (1,) + tail)
    return out


def _det(field: GF, rows):
    """Determinant of a small square matrix by destructive elimination."""
    mul, sub, inv = field.mul, field.sub, field.inv
    m = [list(r) for r in rows]
    size = len(m)
    det = 1
    for c in range(size):
        pr = next((i for i in range(c, size) if m[i][c]), None)
        if pr is None:
            return 0
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            det = field.neg(det)
        pivot = m[c][c]
        det = mul(det, pivot)
        piv_inv = inv(pivot)
        for i in range(c + 1, size):
            if m[i][c]:
                f = mul(m[i][c], piv_inv)
                m[i] = [sub(x, mul(f, y)) for x, y in zip(m[i], m[c])]
    return det


def _cofactor_dual(field: GF, rows, width: int):
    """Normalized dual vector of the hyperplane spanned by width-1
    independent rows: alternating cofactor determinants."""
    dual = []
    sign = 1
    for skip in range(width):
        minor = [[r[c] for c in range(width) if c != skip] for r in rows]
        d = _det(field, minor)
        dual.append(d if sign == 1 else field.neg(d))
        sign = -sign
    lead = next((x for x in dual if x), None)
    if lead is None:
        return None
    if lead != 1:
        s = field.inv(lead)
        mul = field.mul
        dual = [mul(s, x) for x in dual]
    return tuple(dual)


class _ArcSearch:
    """Backtracking enumerator.  `visit`, when given, is called once per
    exhausted prefix as visit(prefix_ids, completion_ids, points) so the
    caller can materialize whichever completions it wants to inspect."""

    def __init__(self, field: GF, n: int, m: int, avoid_dual, budget: int, visit,
                 first_points=None):
        self.field = field
        self.n = n
        self.m = m
        self.budget = budget
        self.visit = visit
        self.first_points = None if first_points is None else set(first_points)
        self.nodes = 0
        self.count = 0
        self.points = _point_tuples(field, n)
        self.index = {pt: i for i, pt in enumerate(self.points)}
        self.hyper_sets = {}
        # the same unordered point subsets recur across many branches, so
        # their spans and hyperplane duals are cached by sorted id tuple
        self.subset_hyper = {}
        self.span_cache = {}
        add, mul = field.add, field.mul

        def dot(u, v):
            acc = 0
            for x, y in zip(u, v):
                if x and y:
                    acc = add(acc, mul(x, y))
            return acc

        self.dot = dot
        if avoid_dual is not None:
            self.allowed0 = [i for i, pt in enumerate(self.points)
                             if dot(avoid_dual, pt) != 0]
        else:
            self.allowed0 = list(range(len(self.points)))

    def _hyperplane_ids(self, dual):
        ids = self.hyper_sets.get(dual)
        if ids is None:
            dot = self.dot
            ids = frozenset(i for i, pt in enumerate(self.points)
                            if dot(dual, pt) == 0)
            self.hyper_sets[dual] = ids
        return ids

    def _span_ids(self, prefix_ids):
        """Point ids of the span of the prefix (prefix size <= n)."""
        field = self.field
        add, mul = field.add, field.mul
        width = self.n + 1
        base = [self.points[i] for i in prefix_ids]
        ids = set()
        for lead in range(len(base)):
            for tail in product(range(field.q), repeat=len(base) - lead - 1):
                coeffs = (0,) * lead + (1,) + tail
                vec = [0] * width
                for c, row in zip(coeffs, base):
                    if c:
                        for i, x in enumerate(row):
                            if x:
                                vec[i] = add(vec[i], mul(c, x))
                lead_val = next(x for x in vec if x)
                if lead_val != 1:
                    s = field.inv(lead_val)
                    vec = [mul(s, x) for x in vec]
                ids.add(self.index[tuple(vec)])
        return ids

    def _charge(self, amount=1):
        self.nodes += amount
        if self.nodes > self.budget:
            raise BudgetExceeded(f"search exceeded {self.budget} nodes")

    def run(self):
        if self.m == 0:
            self.count = 1
            return
        self._recurse((), self.allowed0)

    def _recurse(self, prefix, pool):
        depth = len(prefix)
        candidates = pool
        if depth == 0 and self.first_points is not None:
            candidates = [i for i in pool if i in self.first_points]
        if depth == self.m - 1:
            self._charge(len(candidates))
            self.count += len(candidates)
            if self.visit is not None:
                self.visit(prefix, candidates, self.points)
            return
        n = self.n
        for pid in candidates:
            self._charge()
            new_prefix = prefix + (pid,)
            if len(new_prefix) <= n:
                key = tuple(sorted(new_prefix))
                span = self.span_cache.get(key)
                if span is None:
                    span = self._span_ids(new_prefix)
                    self.span_cache[key] = span
                nxt = [c for c in pool if c not in span]
            else:
                merged = set()
                for subset in combinations(prefix, n - 1):
                    key = tuple(sorted(subset + (pid,)))
                    ids = self.subset_hyper.get(key)
                    if ids is None:
                        rows = [self.points[i] for i in key]
                        dual = _cofactor_dual(self.field, rows, n + 1)
                        ids = self._hyperplane_ids(dual)
                        self.subset_hyper[key] = ids
                    merged |= ids
                nxt = [c for c in pool if c not in merged]
            if nxt:
                self._recurse(new_prefix, nxt)


def count_arcs(n: int, field: GF, m: int, avoid: Subspace = None,
               budget: int = DEFAULT_BUDGET, visit=None,
               first_points=None) -> int:
    """Exact number of ordered m-tuples of points of PG(n, q) in general
    position (every subset of at most n+1 points independent), optionally
    with every point off the avoided hyperplane.

    `first_points` restricts the first tuple slot to the given point
    indices; the search tree partitions by first point, so summing the
    counts of disjoint restrictions reproduces the full count exactly.
    """
    if m < 1:
        raise WrongCount("need at least one point")
    avoid_dual = avoid.dual_vector() if avoid is not None else None
    search = _ArcSearch(field, n, m, avoid_dual, budget, visit, first_points)
    search.run()
    return search.count


def count_frames(n: int, field: GF, budget: int = DEFAULT_BUDGET) -> int:
    """Exact number of ordered coordinate frames (arcs of n+2 points) of
    PG(n, q); equals the projectivity group order, which serves as an
    independent cross-check and is never assumed."""
    return count_arcs(n, field, n + 2, budget=budget)


@dataclass(frozen=True)
class SectionedCount:
    raw: int        # ordered (n+3)-arcs off the hyperplane
    unordered: int  # raw // (n+3)!
    samples_checked: int


def _sectioned_search(n: int, field: GF, h: Subspace, budget: int,
                      sample_every: int, sample_cap: int):
    from .arcs import Arc
    from .desargues import section_arc
    from .projlin import ProjPoint

    if h.n != n + 1 or not h.is_hyperplane:
        raise WrongCount("h must be a hyperplane of PG(n+1, q)")

    state = {"seen": 0, "checked": 0}

    def visit(prefix_ids, completion_ids, points):
        base = state["seen"]
        state["seen"] += len(completion_ids)
        if state["checked"] >= sample_cap:
            return
        # pick the completions whose global ordinal hits the sampling stride
        first = (-base) % sample_every
        for offset in range(first, len(completion_ids), sample_every):
            if state["checked"] >= sample_cap:
                return
            ids = prefix_ids + (completion_ids[offset],)
            arc = Arc([ProjPoint(field, points[i]) for i in ids])
            config = section_arc(arc, h)
            if len(config) != comb(n + 3, 2):
                raise WrongCount("sampled arc did not section to a full configuration")
            state["checked"] += 1

    # at n = 1 a diagonal point of the planar quadrangle can lie on h, so
    # the arcs there are counted but not sectioned
    search = _ArcSearch(field, n + 1, n + 3, h.dual_vector(), budget,
                        visit if n >= 2 else None)
    search.run()
    return search, state["checked"]


def count_sectioned_configs(n: int, field: GF, h: Subspace,
                            budget: int = DEFAULT_BUDGET,
                            sample_every: int = 100,
                            sample_cap: int = 20) -> SectionedCount:
    """Exact count of ordered (n+3)-arcs of PG(n+1, q) with no point on h.

    For n >= 2 every such arc sections to a valid labeled configuration,
    which is verified on a deterministic sample of the enumerated arcs.  At
    n = 1 that claim fails (a diagonal point of the quadrangle can lie on h),
    so the arcs are only counted and `samples_checked` is 0."""
    search, checked = _sectioned_search(n, field, h, budget,
                                        sample_every, sample_cap)
    return SectionedCount(search.count, search.count // factorial(n + 3), checked)


# -- job records -------------------------------------------------------------------

@dataclass(frozen=True)
class EnumJob:
    kind: str                 # "arcs" | "frames" | "sectioned-configs"
    n: int
    field: GF
    m: int = None
    avoid: Subspace = None
    budget: int = DEFAULT_BUDGET


@dataclass(frozen=True)
class EnumResult:
    job: EnumJob
    raw_count: int
    unordered_count: int
    nodes: int
    wall_seconds: float


def run_job(job: EnumJob) -> EnumResult:
    """Execute an enumeration job and collect node statistics."""
    start = time.perf_counter()
    if job.kind == "frames":
        m = job.n + 2
        avoid_dual = None
    elif job.kind == "arcs":
        if job.m is None:
            raise WrongCount("arc jobs need an explicit tuple size m")
        m = job.m
        avoid_dual = job.avoid.dual_vector() if job.avoid is not None else None
    elif job.kind == "sectioned-configs":
        if job.avoid is None:
            raise WrongCount("sectioned-config jobs need the sectioning hyperplane")
        search, _ = _sectioned_search(job.n, job.field, job.avoid,
                                      job.budget, 100, 20)
        return EnumResult(job, search.count,
                          search.count // factorial(job.n + 3), search.nodes,
                          time.perf_counter() - start)
    else:
        raise WrongCount(f"unknown job kind {job.kind!r}")

    search = _ArcSearch(job.field, job.n, m, avoid_dual, job.budget, None)
    search.run()
    return EnumResult(job, search.count, search.count // factorial(m),
                      search.nodes, time.perf_counter() - start)
