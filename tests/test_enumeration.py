"""Exhaustive counting of arcs and frames, cross-checked against
independent oracles."""

import os
import subprocess
import sys
import time
from itertools import combinations, product
from math import factorial
from pathlib import Path

import pytest

from desarc import desargues, enumeration, solid
from desarc.desargues import normal_forms
from desarc.enumeration import (
    count_arcs,
    count_frames,
    pgl_order,
    run_job,
)
from desarc.errors import (
    BudgetExceeded,
    DimensionTooSmall,
    NegativeBudget,
    WrongCount,
)
from desarc.field import GF
from desarc.projlin import all_points, join, rref


# -- independent oracle machinery (no shared code with the search kernel) ----------

def _oracle_points(q: int, width: int, mul, add):
    """All normalized projective points, plain tuples."""
    pts = []

    def norm(vec):
        lead = next((x for x in vec if x), None)
        if lead is None:
            return None
        # scale so the first nonzero entry is 1
        inv = next(s for s in range(1, q) if mul(s, lead) == 1)
        return tuple(mul(inv, x) for x in vec)

    seen = set()
    from itertools import product
    for vec in product(range(q), repeat=width):
        n = norm(vec)
        if n is not None and n not in seen:
            seen.add(n)
            pts.append(n)
    return pts


def _prime_ops(p):
    return (lambda a, b: (a * b) % p), (lambda a, b: (a + b) % p)


def _oracle_rank(rows, p):
    """Row reduction with plain modular ints; independent of the library."""
    m = [list(r) for r in rows]
    cols = len(m[0]) if m else 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(m)) if m[i][c] % p), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [(x * inv) % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] % p:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        r += 1
    return r


def _oracle_pgl(n, q):
    num = 1
    for i in range(n + 1):
        num *= q ** (n + 1) - q ** i
    return num // (q - 1)


def _oracle_sectioned(n, q):
    """Ordered (n+3)-arcs of PG(n+1, q) off a hyperplane, by counting the
    pairs (ordered frame, hyperplane missing it) both ways.  PGL(n+2, q)
    acts regularly on ordered frames and transitively on hyperplanes, so
    the count is |PGL| * a / theta: theta hyperplanes, and a of them miss
    the standard frame e_0, ..., e_{n+1}, e_0 + ... + e_{n+1}.  Such a
    hyperplane has a dual vector with every entry nonzero (A vectors) and a
    nonzero entry sum; Z of the A vectors sum to zero."""
    theta = (q ** (n + 2) - 1) // (q - 1)
    all_nonzero = (q - 1) ** (n + 2)
    zero_sum = (all_nonzero + (-1) ** (n + 2) * (q - 1)) // q
    a = (all_nonzero - zero_sum) // (q - 1)
    return _oracle_pgl(n + 1, q) * a // theta


# -- frames --------------------------------------------------------------------------

def test_ordered_triples_on_a_line():
    # PG(1,3) has 4 points; every distinct ordered triple is an arc
    assert count_arcs(1, GF(3), 3) == 4 * 3 * 2 == 24
    assert count_frames(1, GF(3)) == 24


def test_frames_pg23_against_group_order():
    assert _oracle_pgl(2, 3) == 5616
    assert pgl_order(2, 3) == 5616
    assert count_frames(2, GF(3)) == 5616


def test_frames_pg24_against_group_order():
    assert count_frames(2, GF(2, 2)) == _oracle_pgl(2, 4) == 60480


def test_frames_pg33_against_group_order():
    assert count_frames(3, GF(3)) == _oracle_pgl(3, 3) == pgl_order(3, 3)


# PG(2, q) for q up to 16, over the built-in moduli where q is no prime
_PLANE_FIELDS = {2: GF(2), 3: GF(3), 4: GF(2, 2), 5: GF(5), 7: GF(7), 8: GF(2, 3),
                 9: GF(3, 2), 11: GF(11), 13: GF(13), 16: GF(2, 4)}


@pytest.mark.parametrize("q", sorted(_PLANE_FIELDS))
def test_frames_of_a_plane_closed_form_oracle(q):
    # the ordered k-arcs of PG(2, q), theta = q^2+q+1 points: theta points,
    # theta (theta-1) pairs, a third point off their line, and the frames,
    # |PGL(3, q)| = q^3 (q^3-1) (q^2-1) by sharp transitivity
    theta = q * q + q + 1
    frames = q ** 3 * (q ** 3 - 1) * (q ** 2 - 1)
    nodes = theta + theta * (theta - 1) + theta * (theta - 1) * (theta - q - 1) + frames
    result = run_job("frames", 2, _PLANE_FIELDS[q], budget=max(nodes, 10 ** 9))
    assert (result.raw_count, result.nodes) == (frames, nodes)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_frames_of_a_solid_closed_form_oracle(q):
    # the ordered k-arcs of PG(3, q), theta = q^3+q^2+q+1 points: theta
    # points, theta (theta-1) pairs, a third point off their line, a fourth
    # off their plane, and the frames, |PGL(4, q)| by sharp transitivity
    theta = q ** 3 + q * q + q + 1
    frames = q ** 6 * (q ** 4 - 1) * (q ** 3 - 1) * (q ** 2 - 1)
    nodes = (theta + theta * (theta - 1) + theta * (theta - 1) * (theta - q - 1)
             + theta * (theta - 1) * (theta - q - 1) * (theta - q * q - q - 1) + frames)
    result = run_job("frames", 3, _PLANE_FIELDS[q], budget=max(nodes, 10 ** 9))
    assert (result.raw_count, result.nodes) == (frames, nodes)


def test_frames_brute_force_oracle_pg22():
    # full independent enumeration over all ordered 4-tuples of PG(2, 2)
    mul, add = _prime_ops(2)
    pts = _oracle_points(2, 3, mul, add)
    assert len(pts) == 7
    count = 0
    from itertools import permutations
    for quad in permutations(pts, 4):
        if all(_oracle_rank(list(t), 2) == 3 for t in combinations(quad, 3)):
            count += 1
    assert count == _oracle_pgl(2, 2)
    assert count_frames(2, GF(2)) == count


# -- arcs off a hyperplane ---------------------------------------------------------------

def test_no_5_arc_off_plane_in_pg32():
    assert count_arcs(3, GF(2), 5, avoid=True) == 0


def test_5_arcs_exist_in_pg32_without_avoidance():
    assert count_arcs(3, GF(2), 5) > 0


def test_avoidance_monotonicity():
    f = GF(3)
    for m in (3, 4):
        assert count_arcs(2, f, m, avoid=True) <= count_arcs(2, f, m)


def test_avoided_counts_with_subset_oracle():
    # ordered 4-arcs of PG(2,3) off x2 = 0, re-counted independently
    mul, add = _prime_ops(3)
    from itertools import permutations
    pts = [p for p in _oracle_points(3, 3, mul, add) if p[2]]
    assert len(pts) == 9
    count = 0
    for quad in permutations(pts, 4):
        if all(_oracle_rank(list(t), 3) == 3 for t in combinations(quad, 3)):
            count += 1
    assert count_arcs(2, GF(3), 4, avoid=True) == count


@pytest.mark.parametrize("field,orbits", [(GF(5), 13), (GF(2, 2), 7)])
def test_avoided_4_arcs_of_a_plane_are_the_normal_form_count(field, orbits):
    # the ordered 4-arcs of PG(2, q) off x2 = 0 are the sectioned
    # configurations of PG(1, q): q^2 (q-1) |PGL(2, q)| times the N normal
    # forms (s0, s1) with 1 + s0 + s1 != 0
    q = field.q
    assert len(list(normal_forms(1, field))) == orbits
    expected = q ** 2 * (q - 1) * pgl_order(1, q) * orbits
    assert count_arcs(2, field, 4, avoid=True) == expected
    assert run_job("sectioned-configs", 1, field).raw_count == expected


# -- sectioned configurations ----------------------------------------------------------

def test_sectioned_count_gf2_is_zero():
    assert run_job("sectioned-configs", 2, GF(2)).raw_count == 0


def test_sectioned_count_n1_counts_without_sampling():
    # n = 1: ordered 4-arcs of PG(2, 3) off a line.  A diagonal point of such
    # a quadrangle can lie on the line, so no arc is sectioned.  The count is
    # the closed form |PGL(3, q)| * a / theta with q = 3: theta = 13 lines,
    # a = 3 lines missing a fixed frame, 5616 * 3 / 13 = 1296.
    result = run_job("sectioned-configs", 1, GF(3))
    assert result.raw_count == 1296 == pgl_order(2, 3) * 3 // 13
    assert result.unordered_count == 1296 // factorial(4)
    assert result.orbits == 3


@pytest.mark.slow
def test_sectioned_count_pg33_subset_oracle():
    """Dual-route check of the full n=2, q=3 count: unordered 5-subsets of
    the 27 off-plane points of PG(3,3), arc-checked with the independent
    rank oracle, times 5! for the ordered count."""
    mul, add = _prime_ops(3)
    pts = [p for p in _oracle_points(3, 4, mul, add) if p[3] % 3 != 0]
    assert len(pts) == 27
    quad_ok = {}
    for quad in combinations(range(len(pts)), 4):
        rows = [pts[i] for i in quad]
        quad_ok[quad] = _oracle_rank(rows, 3) == 4
    unordered = 0
    for five in combinations(range(len(pts)), 5):
        if all(quad_ok[q] for q in combinations(five, 4)):
            unordered += 1
    result = run_job("sectioned-configs", 2, GF(3))
    assert result.unordered_count == unordered
    assert result.raw_count == unordered * factorial(5)
    assert result.orbits == 5


# -- job running ---------------------------------------------------------------------------

def test_run_job_deterministic():
    r1 = run_job("frames", 2, GF(3))
    r2 = run_job("frames", 2, GF(3))
    assert r1.raw_count == r2.raw_count == 5616
    assert r1.nodes == r2.nodes
    assert r1.unordered_count == 5616 // factorial(4)


def test_a_result_is_immutable():
    result = run_job("frames", 2, GF(3))
    assert (result.joins, result.orbits) == (13, 0)
    assert result.wall_seconds >= 0
    with pytest.raises(AttributeError):
        result.nodes = 0
    with pytest.raises(AttributeError):
        result.note = "added"


def test_budget_exceeded():
    with pytest.raises(BudgetExceeded):
        count_frames(2, GF(3), budget=10)


@pytest.mark.parametrize("count", [
    lambda budget: count_frames(2, GF(3), budget=budget),
    lambda budget: count_arcs(2, GF(3), 4, budget=budget),
    lambda budget: run_job("arcs", 2, GF(3), m=4, budget=budget),
    lambda budget: run_job("sectioned-configs", 2, GF(3), budget=budget),
], ids=["count_frames", "count_arcs", "run_job-arcs", "run_job-sectioned-configs"])
def test_a_negative_budget_is_rejected_before_the_search(count):
    with pytest.raises(NegativeBudget, match="budget must be at least 0, got -5"):
        count(-5)
    # a budget of 0 is a budget, which the first node exceeds
    with pytest.raises(BudgetExceeded):
        count(0)


def test_run_job_arcs_with_avoid():
    f = GF(3)
    result = run_job("arcs", 2, f, m=4, avoid=True)
    assert result.raw_count == count_arcs(2, f, 4, avoid=True)
    assert result.nodes > 0


def test_run_job_rejects_flags_its_kind_ignores():
    f = GF(3)
    for kind, extra in (("frames", {"m": 7}), ("frames", {"avoid": True}),
                        ("sectioned-configs", {"m": 5}),
                        ("sectioned-configs", {"avoid": True}),
                        ("sectioned-configs", {"m": 5, "avoid": True})):
        with pytest.raises(WrongCount, match="m and avoid apply to arc jobs only"):
            run_job(kind, 2, f, **extra)


def test_run_job_rejects_an_empty_arc_job():
    for m in (0, -1):
        with pytest.raises(WrongCount):
            run_job("arcs", 2, GF(3), m=m)
    with pytest.raises(WrongCount):
        count_arcs(2, GF(3), 0)


@pytest.mark.parametrize("kind,n", [("frames", 0), ("frames", -2), ("arcs", -1),
                                    ("sectioned-configs", -1), ("sectioned-configs", 0)])
def test_run_job_needs_a_space_of_dimension_one(kind, n):
    with pytest.raises(DimensionTooSmall):
        run_job(kind, n, GF(3), m=2 if kind == "arcs" else None)


# -- the bitmask kernel against figures of the list-based search -----------------------

# (raw_count, nodes) as the list-and-frozenset search reported them
@pytest.mark.parametrize("kind,n,field,expected", [
    ("frames", 2, GF(7), (5630688, 5790345)),
    ("frames", 2, GF(2, 3), (16482816, 16824529)),
    ("frames", 1, GF(13, 2, (11, 0, 1)), (4826640, 4855540)),
    ("sectioned-configs", 2, GF(3), (1516320, 1837161)),
])
def test_counts_and_nodes_match_the_list_search(kind, n, field, expected):
    result = run_job(kind, n, field)
    assert (result.raw_count, result.nodes) == expected


@pytest.mark.parametrize("job", [
    dict(kind="frames", n=2, field=GF(3)),
    dict(kind="frames", n=1, field=GF(13, 2, (11, 0, 1))),
    dict(kind="arcs", n=2, field=GF(3), m=4, avoid=True),
    dict(kind="arcs", n=2, field=GF(5), m=1),
    dict(kind="arcs", n=2, field=GF(5), m=2),
    dict(kind="arcs", n=3, field=GF(2), m=5, avoid=True),
    dict(kind="sectioned-configs", n=1, field=GF(5)),
    dict(kind="sectioned-configs", n=2, field=GF(3)),
    dict(kind="arcs", n=2, field=GF(2, 2), m=6),
    dict(kind="frames", n=3, field=GF(3)),
    dict(kind="arcs", n=3, field=GF(2, 2), m=5, avoid=True),
], ids=lambda job: f"{job['kind']}-{job['n']}-{job['field'].q}-{job.get('m')}")
def test_budget_boundary_is_the_node_count(job):
    nodes = run_job(**job).nodes
    assert nodes > 0
    passed = run_job(**job, budget=nodes)
    assert passed.nodes == nodes
    with pytest.raises(BudgetExceeded):
        run_job(**job, budget=nodes - 1)


# (3, 2): the ordered 6-arcs of PG(4, 2) off a solid, one orbit of the
# solid's stabilizer; a count asks for no section over GF(2)
@pytest.mark.parametrize("n,q", [(1, 3), (1, 5), (1, 7), (2, 3), (2, 4), (3, 2)])
def test_sectioned_count_closed_form_oracle(n, q):
    field = _PLANE_FIELDS[q]
    assert run_job("sectioned-configs", n, field).raw_count == _oracle_sectioned(n, q)


@pytest.mark.parametrize("kind,n,q,orbits", [
    ("sectioned-configs", 1, 3, 3), ("sectioned-configs", 2, 3, 5),
    ("sectioned-configs", 2, 2, 0), ("sectioned-configs", 3, 2, 1), ("frames", 2, 3, 0),
])
def test_orbits_counts_the_normal_forms_of_sectioned_jobs(kind, n, q, orbits):
    assert run_job(kind, n, GF(q)).orbits == orbits


def test_the_orbit_identity_is_the_double_count_beyond_the_search():
    # the count run_job expects, q^(n+1) (q-1) |PGL(n+1, q)| times the N(n, q)
    # normal forms (N by the closed form that test_desargues checks against
    # normal_forms), is the double count of frames and hyperplanes at sizes
    # no test searches
    for n in range(1, 7):
        for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
            units = (q - 1) ** (n + 1)
            orbits = units - (units - (-1) ** (n + 1)) // q
            assert (q ** (n + 1) * (q - 1) * pgl_order(n, q) * orbits
                    == _oracle_sectioned(n, q)), (n, q)


def test_a_wrong_sectioned_count_raises(monkeypatch):
    search = enumeration._ArcSearch.run

    def one_too_many(self):
        search(self)
        self.count += 1

    monkeypatch.setattr(enumeration._ArcSearch, "run", one_too_many)
    with pytest.raises(WrongCount, match="counted 1516321 .* 5 orbits make 1516320"):
        run_job("sectioned-configs", 2, GF(3))


def test_a_normal_form_that_does_not_round_trip_raises(monkeypatch):
    # at (2, 3) the normal forms are (1, 1, 1), (1, 1, 2), (1, 2, 1),
    # (2, 1, 1) and (2, 2, 2); only the last one fails here
    f = GF(3)
    last = desargues.normal_form_pair(2, f, (2, 2, 2))[0]
    monkeypatch.setattr(desargues, "lift_round_trips",
                        lambda pair, vertex: pair.b != last.b)
    with pytest.raises(WrongCount, match=r"s = \(2, 2, 2\)"):
        run_job("sectioned-configs", 2, f)


@pytest.mark.parametrize("kind", ["frames", "sectioned-configs"])
def test_a_root_pool_above_the_budget_fails_before_the_points_are_listed(kind):
    # PG(3, 101) has 1,040,604 points and PG(4, 101) about 1.05e8
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="exceeded 10 nodes"):
        run_job(kind, 3, GF(101), budget=10)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("kind,n,q,m", [("frames", 2, 101, None), ("arcs", 2, 101, 5),
                                        ("frames", 3, 13, None)])
def test_a_job_over_the_budget_makes_only_the_rows_its_walk_reads(monkeypatch, kind, n, q, m):
    # a join makes no row: it enters its line in the rows that exist and
    # leaves it for the others, so a job the default budget stops early
    # holds a few rows of one entry per point, not one row per point.  A
    # plane 4-arc job charges a floor of its first point's completions
    # before it reads every line of the plane
    searches = []
    init = enumeration._ArcSearch.__init__

    def kept(self, *args):
        init(self, *args)
        searches.append(self)

    monkeypatch.setattr(enumeration._ArcSearch, "__init__", kept)
    with pytest.raises(BudgetExceeded):
        run_job(kind, n, GF(q), **({} if m is None else dict(m=m)))
    (search,) = searches
    assert len(search.rows) < len(search.points) // 10
    assert search.pool_lines is None


@pytest.mark.parametrize("kind,n", [("frames", 3), ("sectioned-configs", 2)])
def test_a_5_arc_job_of_a_solid_over_the_budget_reads_no_line(monkeypatch, kind, n):
    # a 5-arc search of PG(3, 13): the first pair charges a floor of its
    # completions before the lines and planes of the space are read, and
    # under the default budget that floor stops the job
    searches = []
    init = enumeration._ArcSearch.__init__

    def kept(self, *args):
        init(self, *args)
        searches.append(self)

    monkeypatch.setattr(enumeration._ArcSearch, "__init__", kept)
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded):
        run_job(kind, n, GF(13))
    assert time.perf_counter() - start < 1
    (search,) = searches
    assert (search.space, search.joins, len(search.rows)) == (None, 0, 1)


@pytest.mark.parametrize("q,n,avoid", [(2, 1, False), (2, 3, True), (3, 2, False),
                                       (3, 3, True), (7, 2, False), (7, 4, True)])
def test_the_root_check_compares_the_pool_with_the_budget(q, n, avoid):
    # the pool is q^n points with avoid, (q^(n+1) - 1) / (q - 1) without
    size = q ** n if avoid else (q ** (n + 1) - 1) // (q - 1)
    for budget in (0, size - 1, size, size + 1, 10 ** 30):
        assert enumeration._pool_exceeds(q, n, avoid, budget) == (size > budget)


def test_a_root_pool_far_above_the_budget_fails_at_once():
    # PG(10^8, 7) has (7^(10^8+1) - 1) / 6 points: the root check leaves the
    # powers of 7 as soon as the pool passes the budget, so the command
    # exits at once, where computing the pool in full would run for minutes
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "desarc", "enumerate", "--kind", "frames",
                           "--n", "100000000", "--p", "7"], env=env, stdin=subprocess.DEVNULL,
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2
    assert "BudgetExceeded" in proc.stderr
    assert proc.stdout == ""


# -- prefixes longer than n: the level before the last is reached by many orderings --

def _conics(q):
    # nondegenerate conics of PG(2, q): |PGL(3, q)| / |PGL(2, q)| = q^5 - q^2
    return q ** 5 - q ** 2


# hyperovals of PG(2, 4): |PGL(3, 4)| / |A_6| = 60480 / 360 = 168; every
# 5-arc lies on exactly one.  For q = 5 every 6-arc is a conic (Segre).
# Node counts are the figures of the search that walked every ordering.
@pytest.mark.parametrize("job,count,nodes", [
    (dict(kind="arcs", n=2, field=GF(2, 2), m=6), 168 * factorial(6), 309561),
    (dict(kind="arcs", n=2, field=GF(2, 2), m=5), 168 * factorial(6), 188601),
    (dict(kind="arcs", n=2, field=GF(5), m=6), _conics(5) * factorial(6), 4860211),
    (dict(kind="frames", n=3, field=GF(3)), _oracle_pgl(3, 3), 13704640),
], ids=["hyperovals-pg24-m6", "hyperovals-pg24-m5", "conics-pg25-m6", "frames-pg33"])
def test_counts_and_nodes_beyond_the_dimension(job, count, nodes):
    result = run_job(**job)
    assert (result.raw_count, result.nodes) == (count, nodes)


def _gf4_ops():
    # GF(4) = GF(2)[x] / (x^2 + x + 1), the element b1*x + b0 as the int 2*b1 + b0
    def mul(a, b):
        r = (a if b & 1 else 0) ^ (a << 1 if b & 2 else 0)
        return r ^ 0b111 if r & 4 else r
    return mul, (lambda a, b: a ^ b)


def _oracle_ordered_arcs(pts, n, m, independent):
    """Ordered k-arcs among the points for k = 1..m: the k-sets, grown in
    ascending order, whose (n+1)-subsets (the whole set, while smaller) are
    independent, each counted k! times."""
    sets = [0] * (m + 1)
    known = {}

    def free(ids):
        if ids not in known:
            known[ids] = independent([pts[i] for i in ids])
        return known[ids]

    def grow(chosen, start):
        sets[len(chosen)] += 1
        if len(chosen) == m:
            return
        size = min(len(chosen), n)
        for j in range(start, len(pts)):
            if all(free(sub + (j,)) for sub in combinations(chosen, size)):
                grow(chosen + (j,), j + 1)

    grow((), 0)
    return [sets[k] * factorial(k) for k in range(1, m + 1)]


def _gf4_independent(vecs):
    # k vectors are independent when their 4^k combinations are distinct
    mul, add = _gf4_ops()
    combos = set()
    for coeffs in product(range(4), repeat=len(vecs)):
        total = (0,) * len(vecs[0])
        for c, v in zip(coeffs, vecs):
            total = tuple(add(t, mul(c, x)) for t, x in zip(total, v))
        combos.add(total)
    return len(combos) == 4 ** len(vecs)


def _oracle_independence(q):
    """The field ops and the independence test of GF(q), q prime or 4."""
    if q == 4:
        return _gf4_ops(), _gf4_independent
    mul, add = _prime_ops(q)
    return (mul, add), lambda vecs: _oracle_rank(vecs, q) == len(vecs)


# (q, width, keep, m, nodes, job): the brute force takes the points of
# PG(width - 1, q) with coordinate `keep` nonzero (all of them for None),
# the space the job searches, and tuple size m; nodes, when given, is the
# figure the search that walked every ordering reported
@pytest.mark.parametrize("q,width,keep,m,nodes,job", [
    (3, 3, None, 4, 7189, dict(kind="arcs", n=2, field=GF(3), m=4)),
    (3, 3, 2, 4, 1809, dict(kind="arcs", n=2, field=GF(3), m=4,
                            avoid=True)),
    (4, 3, None, 6, 309561, dict(kind="arcs", n=2, field=GF(2, 2), m=6)),
    (2, 4, None, 5, None, dict(kind="frames", n=3, field=GF(2))),
    (5, 3, 2, 5, None, dict(kind="arcs", n=2, field=GF(5), m=5,
                            avoid=True)),
    (5, 3, 2, 4, None, dict(kind="sectioned-configs", n=1, field=GF(5))),
    (3, 4, 3, 5, 1837161, dict(kind="sectioned-configs", n=2, field=GF(3))),
], ids=["pg23-m4", "pg23-m4-avoid", "hyperovals-pg24", "frames-pg32", "pg25-m5-avoid",
        "sectioned-1-5", "sectioned-2-3"])
def test_nodes_are_the_ordered_arcs_of_every_size(q, width, keep, m, nodes, job):
    # nodes = sum over k = 1..m of the ordered k-arcs, counted by brute
    # force over point sets with no code of the search
    (mul, add), independent = _oracle_independence(q)
    pts = [p for p in _oracle_points(q, width, mul, add) if keep is None or p[keep]]
    arcs = _oracle_ordered_arcs(pts, width - 1, m, independent)
    result = run_job(**job)
    assert result.raw_count == arcs[-1]
    assert result.nodes == sum(arcs)
    if nodes is not None:
        assert result.nodes == nodes


@pytest.mark.parametrize("n,q,top", [(2, 2, 6), (2, 3, 6), (2, 4, 6), (2, 5, 6), (2, 7, 4),
                                     (1, 5, 4)])
@pytest.mark.parametrize("avoid", [False, True], ids=["all", "avoid"])
def test_the_last_pair_by_lines_or_by_walk_matches_the_brute_force(monkeypatch, n, q, top,
                                                                  avoid):
    # the level before the last counts its completing pairs by lines or by
    # walking its candidates, whichever reads less, and a plane 4-arc job
    # counts the last three points by lines at its first point; all give
    # the brute force's ordered m-arcs and nodes for m = 2..top
    (mul, add), independent = _oracle_independence(q)
    pts = [p for p in _oracle_points(q, n + 1, mul, add) if not avoid or p[n]]
    arcs = _oracle_ordered_arcs(pts, n, top, independent)
    paths = {"lines": 0, "walk": 0}
    entered = set()
    charges = []
    count_by_lines = enumeration._ArcSearch._count_by_lines
    recurse = enumeration._ArcSearch._recurse
    charge = enumeration._ArcSearch._charge

    def by_lines(self, *args):
        paths["lines"] += 1
        return count_by_lines(self, *args)

    def counted(self, prefix, *args):
        entered.add((self.m, len(prefix)))
        if len(prefix) == self.m - 2:
            paths["walk"] += 1
        return recurse(self, prefix, *args)

    def charged(self, amount):
        charges.append(amount)
        return charge(self, amount)

    monkeypatch.setattr(enumeration._ArcSearch, "_count_by_lines", by_lines)
    monkeypatch.setattr(enumeration._ArcSearch, "_recurse", counted)
    monkeypatch.setattr(enumeration._ArcSearch, "_charge", charged)
    field = GF(2, 2) if q == 4 else GF(q)
    for m in range(2, top + 1):
        result = run_job("arcs", n, field, m=m, avoid=avoid)
        assert (result.raw_count, result.nodes) == (arcs[m - 1], sum(arcs[:m])), m
    # no charge is negative, so the floor of the completions a plane 4-arc
    # job charges before it reads every pool line is never above their count
    assert min(charges) >= 0
    # every node of the level before the last counts by lines or walks; a
    # plane takes both paths, and a line walks only an empty candidate set
    paths["walk"] -= paths["lines"]
    assert paths["lines"] > 0
    if n == 2:
        assert paths["walk"] > 0
        # a plane 4-arc job enters no node of two points
        assert (4, 1) in entered and (4, 2) not in entered


@pytest.mark.parametrize("q,avoid", [(2, False), (2, True), (3, False), (3, True)])
def test_the_last_three_of_a_solid_5_arc_match_the_brute_force(monkeypatch, q, avoid):
    # a 5-arc search of PG(3, q) counts the completions of each pair (a, b)
    # by the planes through the line ab and charges its children's nodes;
    # it gives the brute force's ordered 5-arcs and the ordered k-arcs for
    # k = 1..5 as its nodes, enters no node of two or three points, and
    # charges nothing negative (its floor is never above the pair's charge)
    (mul, add), independent = _oracle_independence(q)
    pts = [p for p in _oracle_points(q, 4, mul, add) if not avoid or p[3]]
    arcs = _oracle_ordered_arcs(pts, 3, 5, independent)
    entered, charges = set(), []
    recurse = enumeration._ArcSearch._recurse
    charge = enumeration._ArcSearch._charge

    def counted(self, prefix, *args):
        entered.add(len(prefix))
        return recurse(self, prefix, *args)

    def charged(self, amount):
        charges.append(amount)
        return charge(self, amount)

    monkeypatch.setattr(enumeration._ArcSearch, "_recurse", counted)
    monkeypatch.setattr(enumeration._ArcSearch, "_charge", charged)
    result = run_job("arcs", 3, GF(q), m=5, avoid=avoid)
    assert (result.raw_count, result.nodes) == (arcs[-1], sum(arcs))
    assert entered == {0, 1}
    assert min(charges) >= 0


@pytest.mark.parametrize("kind,n,q", [("frames", 3, 5), ("frames", 3, 7),
                                    ("sectioned-configs", 2, 5), ("sectioned-configs", 2, 7)])
def test_the_floor_of_a_first_pair_is_never_above_its_charge(monkeypatch, kind, n, q):
    # from q = 5 on, the first pair of a first point charges a positive
    # floor of its completions before it reads the planes; the rest of its
    # charge, its total less the floor, is never negative
    charges = []
    charge = enumeration._ArcSearch._charge

    def charged(self, amount):
        charges.append(amount)
        return charge(self, amount)

    monkeypatch.setattr(enumeration._ArcSearch, "_charge", charged)
    theta = (q ** 4 - 1) // (q - 1)
    size = q ** 3 if kind == "sectioned-configs" else theta
    result = run_job(kind, n, GF(q), budget=10 ** 18)
    assert min(charges) >= 0
    # the floor of the job's first pair: pool(a, b) holds at least
    # size - q - 1 points and C at least size - 1 - q
    rest, c = size - q - 1, size - 1 - q
    sets = c * (c - q * q) * (c - 4 * q * q - 2 * q) // 6
    assert sets > 0
    assert 2 * rest + 6 * c * (rest - q * q) + 120 * sets in charges
    assert result.nodes == sum(charges)


@pytest.mark.parametrize("q,avoid", [(2, False), (3, True), (4, False), (5, True)])
def test_the_space_tables_hold_lines_and_the_planes_through_them(q, avoid):
    # each line with two root pool points is listed once, with the points
    # of the join of two of them, and with the q + 1 distinct planes whose
    # dual vectors vanish on it
    field = _PLANE_FIELDS[q]
    search = enumeration._ArcSearch(field, 3, 5, avoid, enumeration.DEFAULT_BUDGET)
    solid.incidences(search)
    points = list(all_points(field, 3))
    assert search.points == [p.coords for p in points]
    masks, points_on, pooled, planes_of = search.space[:4]
    pool = search.pool0
    # every pair of pool points lies on one of the lines
    pairs = sum(k * (k - 1) // 2 for k in pooled)
    assert pairs == pool.bit_count() * (pool.bit_count() - 1) // 2
    assert len(set(masks)) == len(masks) == search.joins
    for mask, ids, k, planes in zip(masks, points_on, pooled, planes_of):
        line = join(points[ids[0]], points[ids[1]])
        assert mask == sum(1 << search.index[p.coords] for p in line.points())
        assert k == (mask & pool).bit_count() >= 2
        assert len(set(planes)) == q + 1
        for plane in planes:
            dual = points[plane].coords
            assert all(not _dot(field, dual, points[i].coords) for i in ids)


def _dot(field, u, v):
    total = 0
    for x, y in zip(u, v):
        total = field.add(total, field.mul(x, y))
    return total


def test_each_point_set_is_counted_once_and_each_span_joined_once_per_row():
    # a line is joined once and entered in the row of every point on it, so
    # `joins` is the number of distinct lines the search touches: frames of
    # PG(2, q) touch all q^2+q+1 lines
    for field in (GF(3), GF(2, 2), GF(5), GF(7), GF(2, 3), GF(3, 2)):
        q = field.q
        assert run_job("frames", 2, field).joins == q * q + q + 1
    # a line of PG(1, q) needs no join: its row entries are single points
    assert run_job("frames", 1, GF(5)).joins == 0
    # above a line every span is a union of lines, so a row of two or more
    # points joins nothing.  Frames of PG(3, 3) touch all its 130 lines;
    # the sectioned configurations at (2, 3) search the 27 points off a
    # plane of PG(3, 3) and touch the 117 lines that hold two of them, and
    # at (2, 4) the 64 points off a plane of PG(3, 4) and its 336 such lines
    assert run_job("frames", 3, GF(3)).joins == 130
    assert run_job("sectioned-configs", 2, GF(3)).joins == 117
    assert run_job("sectioned-configs", 2, GF(2, 2)).joins == 336


@pytest.mark.parametrize("job", [
    dict(kind="frames", n=3, field=GF(3)),
    dict(kind="sectioned-configs", n=2, field=GF(3)),
    dict(kind="arcs", n=4, field=GF(2), m=6),
    dict(kind="arcs", n=2, field=GF(5), m=6, avoid=True),
], ids=["frames-3-3", "sectioned-2-3", "arcs-4-2-m6", "arcs-2-5-m6-avoid"])
def test_the_kernel_joins_only_lines(monkeypatch, job):
    # every row reduction is of two rows (two points, or the two duals of a
    # line), and each line is joined once
    sizes, lines = [], []
    line = enumeration._ArcSearch._line

    def reduced(field, rows):
        sizes.append(len(rows))
        return rref(field, rows)

    def joined(self, x, y):
        out = line(self, x, y)
        lines.append(out[0])
        return out

    monkeypatch.setattr(enumeration, "rref", reduced)
    monkeypatch.setattr(enumeration._ArcSearch, "_line", joined)
    result = run_job(**job)
    assert len(lines) == len(set(lines)) == result.joins > 0
    assert set(sizes) == {2}


def test_the_level_before_the_last_is_entered_once_per_prefix_set(monkeypatch):
    # 6-arcs of PG(3, 2), which holds none: the prefixes before the last
    # level are 4-arcs, and each of the 4-arc sets of the 15 points is
    # entered once, not once per ordering: 15 * 14 * 12 * 8 / 4! of them,
    # as the third point avoids the line of the first two and the fourth
    # their plane
    entered = []
    recurse = enumeration._ArcSearch._recurse

    def counted(self, prefix, *args):
        if len(prefix) == self.m - 2:
            entered.append(prefix)
        return recurse(self, prefix, *args)

    monkeypatch.setattr(enumeration._ArcSearch, "_recurse", counted)
    assert run_job("arcs", 3, GF(2), m=6).raw_count == 0
    assert len(entered) == len(set(map(frozenset, entered))) == 15 * 14 * 12 * 8 // 24


def test_hyperovals_of_pg24_count_nodes_and_joins():
    # 168 hyperovals in 6! orderings each; the nodes are those of the
    # search that walked every ordering, and each of the 21 lines is joined
    # once
    result = run_job("arcs", 2, GF(2, 2), m=6)
    assert (result.raw_count, result.nodes, result.joins) == (
        168 * factorial(6), 309561, 21)


@pytest.mark.parametrize("n,field,m", [(3, GF(2), 6), (2, GF(2, 2), 6), (2, GF(3), 4),
                                       (3, GF(3), 4), (4, GF(2), 6)])
def test_span_rows_hold_the_span_of_their_subset_and_point(n, field, m):
    # every filled entry j of the row of s is the point set of span(s + j),
    # and j lies off span(s).  An entry's span is joined afresh once per
    # distinct entry of a row: s is independent, so span(s + j) has
    # dimension |s| for every j off span(s), and equals any span of that
    # dimension that holds s and j
    search = enumeration._ArcSearch(field, n, m, None, enumeration.DEFAULT_BUDGET)
    search.run()
    points = list(all_points(field, n))
    assert search.points == [p.coords for p in points]

    def span(ids):
        return join(*(points[i] for i in ids))

    def mask(subspace):
        return sum(1 << search.index[p.coords] for p in subspace.points())

    filled = 0
    for s, row in search.rows.items():
        subset = [i for i in range(len(points)) if s >> i & 1]
        own = mask(span(subset)) if subset else 0
        if subset:
            assert span(subset).dim == len(subset) - 1
        joined = {}
        for j, entry in enumerate(row):
            if entry is not None:
                assert not own >> j & 1
                assert entry >> j & 1
                if entry not in joined:
                    joined[entry] = mask(span(subset + [j]))
                assert entry == joined[entry]
                filled += 1
    assert filled > len(points)
