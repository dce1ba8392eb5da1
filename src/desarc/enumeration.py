"""Desk-scale exhaustive enumeration of arcs, frames and sectioned
configurations.

Counts are over ordered point tuples; the unordered figure count is the
ordered count divided by m!.  The kernel backtracks over points in canonical
order and prunes with hyperplane point-sets.  Point sets are Python ints, one
bit per point id.  A candidate extends a prefix of at most n-1 points exactly
when it avoids the prefix's span, and a longer prefix exactly when it avoids
the hyperplane through it and every (n-1)-subset of the prefix; so the next
pool is `pool & ~forbidden`, with `forbidden` the union of those spans.
Spans are cached by the mask of the spanning subset, and hyperplanes by their
dual vector.  The level before the last counts each completion pool by
popcount instead of visiting its leaves."""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations, product
from math import comb, factorial

from .arcs import Arc
from .desargues import section_arc
from .errors import BudgetExceeded, DimensionTooSmall, WrongCount
from .field import GF
from .projlin import ProjPoint, Subspace

DEFAULT_BUDGET = 10 ** 9
# sectioned-config searches section every SAMPLE_EVERY-th arc, at most
# SAMPLE_CAP of them
SAMPLE_EVERY = 100
SAMPLE_CAP = 20


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
    """Backtracking enumerator over int bitmasks of point ids.

    A node holds the ordered prefix, the pool of points that keep it an arc
    and the candidates for the next slot: the pool, or at the root the pool
    restricted to the allowed first points.  Each node charges one budget
    node per candidate.  The level before the last counts each child's pool
    by popcount and charges it, so leaves are never visited.  `visit`, when
    set, is called there as visit(prefix_ids, completion_count,
    completion_mask) until it returns False."""

    def __init__(self, field: GF, n: int, m: int, avoid_dual, budget: int,
                 first_points=None):
        if n < 1:
            raise DimensionTooSmall(
                f"enumeration needs dimension n >= 1, the search space is PG({n}, q)")
        self.field = field
        self.n = n
        self.m = m
        self.budget = budget
        self.visit = None
        self.nodes = 0
        self.count = 0
        self.points = _point_tuples(field, n)
        self.index = {pt: i for i, pt in enumerate(self.points)}
        self.hyper_masks = {}
        # the same unordered point subsets recur across many branches, so
        # their spans are cached by the subset's mask
        self.spans = {}
        add, mul = field.add, field.mul

        def dot(u, v):
            acc = 0
            for x, y in zip(u, v):
                if x and y:
                    acc = add(acc, mul(x, y))
            return acc

        self.dot = dot
        self.pool0 = _mask(i for i, pt in enumerate(self.points)
                           if avoid_dual is None or dot(avoid_dual, pt) != 0)
        if first_points is None:
            self.first = self.pool0
        else:
            allowed = set(first_points)
            self.first = self.pool0 & _mask(i for i in range(len(self.points))
                                            if i in allowed)

    def _span_mask(self, subset):
        """Points of the span of the independent points of the subset mask
        (at most n of them); n points span a hyperplane, found from its
        dual vector and shared by every subset spanning it."""
        field = self.field
        base = [self.points[i] for i in _ids(subset)]
        if len(base) == self.n:
            dual = _cofactor_dual(field, base, self.n + 1)
            mask = self.hyper_masks.get(dual)
            if mask is None:
                dot = self.dot
                mask = _mask(i for i, pt in enumerate(self.points)
                             if dot(dual, pt) == 0)
                self.hyper_masks[dual] = mask
            return mask
        add, mul = field.add, field.mul
        width = self.n + 1
        mask = 0
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
                mask |= 1 << self.index[tuple(vec)]
        return mask

    def _charge(self, amount):
        self.nodes += amount
        if self.nodes > self.budget:
            raise BudgetExceeded(f"search exceeded {self.budget} nodes")

    def run(self):
        if self.m == 1:
            self._charge(self.first.bit_count())
            self.count = self.first.bit_count()
        else:
            self._recurse((), self.pool0, self.first)

    def _recurse(self, prefix, pool, cand):
        self._charge(cand.bit_count())
        # once a candidate joins the prefix, later points must avoid its span
        # with every n-1 prefix points (with the whole prefix, while shorter)
        subsets = [_mask(s) for s in
                   combinations(prefix, min(len(prefix), self.n - 1))]
        spans = self.spans
        before_last = len(prefix) == self.m - 2
        visit = self.visit
        leaves = 0
        while cand:
            low = cand & -cand
            cand ^= low
            forbidden = 0
            for s in subsets:
                span = spans.get(s | low)
                if span is None:
                    span = spans[s | low] = self._span_mask(s | low)
                forbidden |= span
            nxt = pool & ~forbidden
            if not nxt:
                continue
            if before_last:
                size = nxt.bit_count()
                leaves += size
                if visit is not None and not visit(
                        prefix + (low.bit_length() - 1,), size, nxt):
                    visit = self.visit = None
            else:
                self._recurse(prefix + (low.bit_length() - 1,), nxt, nxt)
        if before_last:
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


def count_arcs(n: int, field: GF, m: int, avoid: Subspace = None,
               budget: int = DEFAULT_BUDGET, first_points=None) -> int:
    """Exact number of ordered m-tuples of points of PG(n, q) in general
    position (every subset of at most n+1 points independent), optionally
    with every point off the avoided hyperplane.

    `first_points` restricts the first tuple slot to the given point
    indices; the search tree partitions by first point, so summing the
    counts of disjoint restrictions reproduces the full count exactly.
    """
    job = EnumJob("arcs", n, field, m=m, avoid=avoid, budget=budget)
    return _search(job, first_points)[0].count


def count_frames(n: int, field: GF, budget: int = DEFAULT_BUDGET) -> int:
    """Exact number of ordered coordinate frames (arcs of n+2 points) of
    PG(n, q); equals the projectivity group order, which serves as an
    independent cross-check and is never assumed."""
    return _search(EnumJob("frames", n, field, budget=budget))[0].count


@dataclass(frozen=True)
class SectionedCount:
    raw: int        # ordered (n+3)-arcs off the hyperplane
    unordered: int  # raw // (n+3)!
    samples_checked: int


def count_sectioned_configs(n: int, field: GF, h: Subspace,
                            budget: int = DEFAULT_BUDGET) -> SectionedCount:
    """Exact count of ordered (n+3)-arcs of PG(n+1, q) with no point on h.

    For n >= 2 every such arc sections to a valid labeled configuration,
    which is verified on a deterministic sample of the enumerated arcs: every
    SAMPLE_EVERY-th arc in search order, at most SAMPLE_CAP of them.  At
    n = 1 that claim fails (a diagonal point of the quadrangle can lie on h),
    so the arcs are only counted and `samples_checked` is 0."""
    job = EnumJob("sectioned-configs", n, field, avoid=h, budget=budget)
    search, checked = _search(job)
    return SectionedCount(search.count, search.count // factorial(n + 3), checked)


class _SectionSampler:
    """Search visitor that sections every SAMPLE_EVERY-th enumerated arc, at
    most SAMPLE_CAP of them, and checks each gives a full configuration."""

    def __init__(self, n: int, field: GF, h: Subspace, points):
        self.n = n
        self.field = field
        self.h = h
        self.points = points
        self.seen = 0
        self.checked = 0

    def __call__(self, prefix_ids, count, mask):
        """Take the next `count` arcs in search order: prefix_ids plus each
        point of `mask`.  Returns False once no more samples are wanted."""
        base = self.seen
        self.seen += count
        # the completions whose global ordinal hits the sampling stride
        offsets = range((-base) % SAMPLE_EVERY, count, SAMPLE_EVERY)
        if offsets:
            ids = _ids(mask)
            for offset in offsets[:SAMPLE_CAP - self.checked]:
                arc = Arc([ProjPoint(self.field, self.points[i])
                           for i in prefix_ids + (ids[offset],)])
                if len(section_arc(arc, self.h)) != comb(self.n + 3, 2):
                    raise WrongCount("sampled arc did not section to a full configuration")
                self.checked += 1
        return self.checked < SAMPLE_CAP


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


def _search(job: EnumJob, first_points=None):
    """Run the search a job describes; returns it with the number of
    sampled arcs that were sectioned and checked."""
    n, field = job.n, job.field
    sampler = None
    if job.kind == "frames":
        search = _ArcSearch(field, n, n + 2, None, job.budget)
    elif job.kind == "arcs":
        if job.m is None or job.m < 1:
            raise WrongCount("arc jobs need a tuple size m of at least 1")
        avoid_dual = job.avoid.dual_vector() if job.avoid is not None else None
        search = _ArcSearch(field, n, job.m, avoid_dual, job.budget,
                            first_points=first_points)
    elif job.kind == "sectioned-configs":
        h = job.avoid
        if h is None:
            raise WrongCount("sectioned-config jobs need the sectioning hyperplane")
        if h.n != n + 1 or not h.is_hyperplane:
            raise WrongCount("h must be a hyperplane of PG(n+1, q)")
        search = _ArcSearch(field, n + 1, n + 3, h.dual_vector(), job.budget)
        # at n = 1 a diagonal point of the planar quadrangle can lie on h,
        # so the arcs there are counted but not sectioned
        if n >= 2:
            sampler = search.visit = _SectionSampler(n, field, h, search.points)
    else:
        raise WrongCount(f"unknown job kind {job.kind!r}")
    search.run()
    return search, 0 if sampler is None else sampler.checked


def run_job(job: EnumJob) -> EnumResult:
    """Execute an enumeration job and collect node statistics."""
    start = time.perf_counter()
    search, _ = _search(job)
    return EnumResult(job, search.count, search.count // factorial(search.m),
                      search.nodes, time.perf_counter() - start)
