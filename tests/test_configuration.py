"""Symbol incidence, counting, vertex sweep, replication, triple perspective."""

import random
import re
from itertools import combinations
from math import comb

import pytest

from desarc.configuration import (
    SemiSimplexPair,
    SweepEntry,
    SweepReport,
    replicate,
    replication_trace,
    semi_partition_identity,
    substructure_counts,
    triple_perspective_axis,
    verify_symbol_incidence,
    verify_vertex_partition,
    vertex_partition_identity,
    vertex_sweep,
)
from desarc.desargues import (
    LabeledConfiguration,
    edge_intersections,
    extract_perspective_pair,
    find_vertex,
    sectioned_config,
)
from desarc.errors import (
    BadSymbols,
    DegenerateConfiguration,
    GeometryError,
    TooFewSymbols,
)
from desarc.field import GF
from desarc.arcs import random_arc_off_hyperplane
from desarc.projlin import (
    ProjPoint,
    all_points,
    join,
    meet,
    rank,
)

from support import hyperplane_from_dual, perturbed_section, random_points_table

F5 = GF(5)


# -- symbol incidence --------------------------------------------------------------

def test_shared_symbol_triple_collinear():
    config = sectioned_config(3, F5)
    pts = [config.point(1, 2), config.point(1, 3), config.point(2, 3)]
    assert rank(F5, [p.coords for p in pts]) == 2


def test_disjoint_labels_not_collinear():
    config = sectioned_config(3, F5)
    line = join(config.point(1, 2), config.point(3, 4))
    others = [lab for lab in config.labels() if lab not in ((1, 2), (3, 4))]
    assert not any(line.contains_point(config.point(*lab)) for lab in others)


@pytest.mark.parametrize("n,q", [(2, 5), (3, 5), (4, 5), (5, 5), (3, 3), (2, 4)])
def test_symbol_incidence_sweep(n, q):
    field = GF(2, 2) if q == 4 else GF(q)
    assert verify_symbol_incidence(sectioned_config(n, field))


@pytest.mark.parametrize("field", [GF(3), GF(2, 2), GF(5), GF(3, 2)])
def test_symbol_incidence_random_arcs(field):
    rng = random.Random(field.q)
    for _ in range(6):
        assert verify_symbol_incidence(sectioned_config(2, field, rng))


def test_a_checked_table_cannot_be_changed():
    # verify_symbol_incidence trusts the constructor for distinct points and
    # reads cached spans, so the table must stay the one that was checked
    config = sectioned_config(2, F5)
    assert verify_symbol_incidence(config)
    with pytest.raises(TypeError):
        config.table[(1, 2)] = config.point(1, 3)
    with pytest.raises(AttributeError):
        config.table = {}
    assert len(set(config.points())) == len(config) == 10


def test_symbol_incidence_detects_corruption():
    config = sectioned_config(2, F5)
    table = {lab: config.point(*lab) for lab in config.labels()}
    # swap two points to break the line structure
    table[(1, 2)], table[(3, 4)] = table[(3, 4)], table[(1, 2)]
    from desarc.desargues import LabeledConfiguration
    broken = LabeledConfiguration(F5, 2, table)
    assert not verify_symbol_incidence(broken)


def test_symbol_incidence_rejects_ten_points_on_a_line():
    # every triple spans a line, but so does every 4-subset
    line = hyperplane_from_dual(GF(11), (0, 0, 1))
    labels = list(combinations(range(1, 6), 2))
    config = LabeledConfiguration(GF(11), 2, dict(zip(labels, line.points())))
    assert all(config.span(t).dim == 1 for t in combinations(config.symbols, 3))
    assert not verify_symbol_incidence(config)


# -- substructure counts ----------------------------------------------------------------

def test_counts_n2_classical_desargues():
    counts = substructure_counts(sectioned_config(2, F5))
    assert counts == {0: 10, 1: 10}


def test_counts_n3():
    counts = substructure_counts(sectioned_config(3, F5))
    assert counts == {0: 15, 1: 20, 2: 15}


def test_counts_n4():
    counts = substructure_counts(sectioned_config(4, F5))
    assert counts == {0: 21, 1: 35, 2: 35, 3: 21}


def test_counts_formula_general():
    for n, q in [(2, 3), (3, 3), (4, 3)]:
        counts = substructure_counts(sectioned_config(n, GF(q)))
        assert counts == {k - 2: comb(n + 3, k) for k in range(2, n + 2)}


def test_counts_match_all_pairs_join_on_a_corrupted_table():
    # move (2, 3) off the line of (1, 2) and (1, 3): the span of {1, 2, 3}
    # and of every subset holding it grows by one dimension
    config = sectioned_config(3, F5)
    line = join(config.point(1, 2), config.point(1, 3))
    taken = set(config.points())
    fresh = next(p for p in all_points(F5, 3)
                 if p not in taken and not line.contains_point(p))
    bad = LabeledConfiguration(F5, 3, {**config.table, (2, 3): fresh})
    reference = {}
    for k in range(2, 5):
        for subset in combinations(bad.symbols, k):
            span = join(*(bad.point(i, j) for i, j in combinations(subset, 2)))
            reference.setdefault(span.dim, set()).add(span)
    counts = substructure_counts(bad)
    assert counts == {dim: len(spans) for dim, spans in sorted(reference.items())}
    assert counts != substructure_counts(config)


# -- spans -----------------------------------------------------------------------------

def _span_oracle_tables():
    rng = random.Random(4)
    tables = {
        # every symbol triple spans a line
        "section-2-5": sectioned_config(2, F5),
        "section-3-5": sectioned_config(3, F5, rng),
        "section-4-7": sectioned_config(4, GF(7), rng),
        "section-8-11": sectioned_config(8, GF(11), random.Random(5)),
        # triples that are lines only by chance
        "random-3-5": random_points_table(3, F5, rng),
        "random-4-7": random_points_table(4, GF(7), rng),
        # the triples {1, 3, k} span planes, the others lines
        "perturbed-4-7": perturbed_section(),
    }
    return [pytest.param(config, id=name) for name, config in tables.items()]


@pytest.mark.parametrize("config", _span_oracle_tables())
def test_spans_are_the_join_of_every_label(config):
    # one join of every label point of S, largest S first, so the triple
    # spans the rule reads are built inside the first large spans
    for k in range(min(6, len(config.symbols)), 1, -1):
        for subset in combinations(config.symbols, k):
            expected = join(*(config.point(i, j) for i, j in combinations(subset, 2)))
            assert config.span(subset) == expected, subset
    assert config.span(config.symbols[:1]).dim == -1


# -- vertex sweep ----------------------------------------------------------------------

@pytest.mark.parametrize("n,q", [(2, 5), (3, 3), (3, 5), (4, 3)])
def test_vertex_sweep_all_labels_pass(n, q):
    report = vertex_sweep(sectioned_config(n, GF(q)))
    assert report.total == comb(n + 3, 2)
    assert report.passed == report.total
    lhs, parts = report.identity
    assert lhs == sum(parts)


def test_sweep_and_replication_records_are_immutable():
    config = sectioned_config(2, F5)
    report = vertex_sweep(config)
    level = replication_trace(config)[0]
    for record, name in ((report, "entries"), (report.entries[0], "ok"),
                         (level, "side_size")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.note = "added"
    assert (level.symbols, level.vertex_label, level.residual_labels) == (
        (1, 2, 3, 4, 5), (1, 2), 3)
    assert SweepEntry((1, 2), True).detail == ""
    empty = SweepReport(2, 10)
    assert (empty.entries, empty.passed, empty.total, empty.all_ok) == ((), 0, 0, True)


def _pair_path_flags(config):
    """Per-label sweep flags the pair way: extract the simplex pair, find
    its vertex, intersect its edges; a geometry error fails the label."""
    flags = []
    for a, b in config.labels():
        rest = [s for s in config.symbols if s not in (a, b)]
        try:
            pair, vertex = extract_perspective_pair(config, a, b)
            ok = find_vertex(pair) == vertex and all(
                pt == config.point(rest[i], rest[j])
                for (i, j), pt in edge_intersections(pair).items())
        except GeometryError:
            ok = False
        flags.append(ok)
    return flags


def _moved_along_triple_line(config, label, third):
    # a fresh point on the line of `label` and `third`: that triple stays
    # collinear, every other line through the label breaks
    line = config.span((*label, third))
    taken = set(config.points())
    fresh = next(p for p in line.points() if p not in taken)
    return LabeledConfiguration(config.field, config.n, {**config.table, label: fresh})


def _swapped(config, lab1, lab2):
    table = dict(config.table)
    table[lab1], table[lab2] = table[lab2], table[lab1]
    return LabeledConfiguration(config.field, config.n, table)


def _embedded(point):
    # a point of PG(n, q) as a point of the hyperplane x_{n+1} = 0 of PG(n+1, q)
    return ProjPoint(point.field, point.coords + (0,))


def _flat_table(field, rng):
    """Six symbols in PG(3, q) whose points all lie in a plane: the section
    of a 6-arc of PG(3, q) by a plane.  Every connector and edge is a line,
    but no simplex spans PG(3)."""
    h = hyperplane_from_dual(field, (0, 0, 0, 1))
    while True:
        arc = random_arc_off_hyperplane(field, 3, 6, rng)
        pts = {(i + 1, j + 1): meet(join(arc[i], arc[j]), h).point()
               for i, j in combinations(range(6), 2)}
        if len(set(pts.values())) == len(pts):
            return LabeledConfiguration(field, 3, pts)


def _shared_face_table(field, rng):
    """A table of PG(3, q) whose label (1, 2) breaks only the face
    condition: the planar configuration on symbols 1..5 inside F = {x3 = 0},
    and a symbol 6 whose points (1,6), (2,6) lie off F on a line through
    (1,2).  Face 6 of both simplexes is then F."""
    table = {lab: _embedded(p) for lab, p in sectioned_config(2, field).table.items()}
    v = table[(1, 2)]
    off = [p for p in all_points(field, 3) if p.coords[3]]
    while True:
        a6 = rng.choice(off)
        b6 = rng.choice([p for p in join(v, a6).points() if p not in (v, a6)])
        full = {**table, (1, 6): a6, (2, 6): b6}
        for i in (3, 4, 5):
            full[(i, 6)] = meet(join(table[(1, i)], a6), join(table[(2, i)], b6)).point()
        if len(set(full.values())) == len(full):
            return LabeledConfiguration(field, 3, full)


def _coincident_edges_table(field, rng):
    """A table of PG(2, q), q >= 5, whose label (1, 2) has edges 3,4 of
    both simplexes on one line L: the points (1,2), (1,3), (1,4), (2,3),
    (2,4), (3,4) lie on L, (1,5) off it, and (2,5) on the line of (1,2)
    and (1,5).  Every connector through (1,2) is then a line."""
    line = hyperplane_from_dual(field, (0, 0, 1))
    labels = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    off = [p for p in all_points(field, 2) if not line.contains_point(p)]
    while True:
        table = dict(zip(labels, rng.sample(list(line.points()), 6)))
        a5 = rng.choice(off)
        b5 = rng.choice([p for p in join(table[(1, 2)], a5).points()
                         if p not in (table[(1, 2)], a5)])
        table[(1, 5)], table[(2, 5)] = a5, b5
        for i in (3, 4):
            table[(i, 5)] = meet(join(table[(1, i)], a5), join(table[(2, i)], b5)).point()
        if len(set(table.values())) == len(table):
            return LabeledConfiguration(field, 2, table)


def _not_concurrent_table(field, rng):
    """A table of PG(2, q) whose label (1, 2) breaks only the connector
    condition: triangles (1,i) and (2,i), i = 3, 4, 5, with (1,2) the meet
    of connectors 3 and 4, (2,5) off the line of (1,2) and (1,5), and each
    (i,j) the meet of the edges."""
    pts = list(all_points(field, 2))
    while True:
        a3, a4, a5, b3, b4, b5 = rng.sample(pts, 6)
        v = meet(join(a3, b3), join(a4, b4)).point()
        if join(v, a5).contains_point(b5):
            continue
        a, b = {3: a3, 4: a4, 5: a5}, {3: b3, 4: b4, 5: b5}
        table = {(1, 2): v, **{(1, i): a[i] for i in a}, **{(2, i): b[i] for i in b}}
        for i, j in combinations((3, 4, 5), 2):
            edges = meet(join(a[i], a[j]), join(b[i], b[j]))
            if edges.dim == 0:
                table[(i, j)] = edges.point()
        if len(table) == 10 and len(set(table.values())) == 10 and rank(
                field, [p.coords for p in (a3, a4, a5)]) == rank(
                field, [p.coords for p in (b3, b4, b5)]) == 3:
            return LabeledConfiguration(field, 2, table)


def _sweep_cases():
    rng = random.Random(11)
    valid = [sectioned_config(2, F5), sectioned_config(3, GF(3)),
             sectioned_config(4, F5, rng),
             sectioned_config(2, GF(2, 2), rng),
             sectioned_config(3, GF(2, 2), rng),
             sectioned_config(2, GF(3, 2), rng),
             sectioned_config(3, GF(3, 2), rng)]
    corrupted = [_swapped(sectioned_config(2, F5), (1, 2), (3, 4)),
                 _swapped(valid[2], (1, 5), (2, 7)),
                 _moved_along_triple_line(sectioned_config(3, F5), (1, 2), 3),
                 _moved_along_triple_line(valid[6], (2, 4), 5),
                 random_points_table(2, F5, rng), random_points_table(3, GF(3), rng),
                 random_points_table(2, GF(2, 2), rng),
                 _flat_table(GF(7), rng), _shared_face_table(GF(7), rng),
                 _coincident_edges_table(GF(7), rng),
                 _not_concurrent_table(GF(7), rng)]
    return [(c, True) for c in valid] + [(c, False) for c in corrupted]


@pytest.mark.parametrize("config,valid", _sweep_cases())
def test_vertex_sweep_matches_the_pair_path(config, valid):
    flags = [e.ok for e in vertex_sweep(config).entries]
    assert flags == _pair_path_flags(config)
    assert all(flags) if valid else not any(flags)


def test_vertex_sweep_names_the_failing_condition():
    bad = _moved_along_triple_line(sectioned_config(3, F5), (1, 2), 3)
    entries = {e.label: e for e in vertex_sweep(bad).entries}
    assert entries[(1, 2)].detail == "connector (1, 2, 4) is not a line"
    assert entries[(1, 3)].detail == "edge (1, 2, 4) is not a line"
    flat = vertex_sweep(_flat_table(GF(7), random.Random(1))).entries
    assert flat[0].detail == "simplex (1, 3, 4, 5, 6) spans dimension 2, not 3"
    shared = vertex_sweep(_shared_face_table(GF(7), random.Random(1))).entries
    assert shared[0].detail == "faces (1, 3, 4, 5) and (2, 3, 4, 5) coincide"
    coincident = vertex_sweep(_coincident_edges_table(GF(7), random.Random(1))).entries
    assert coincident[0].detail == "edges (1, 3, 4) and (2, 3, 4) coincide"
    skew = vertex_sweep(_not_concurrent_table(GF(7), random.Random(1))).entries
    assert skew[0].detail == "connector (1, 2, 5) is not a line"
    pattern = re.compile(r"(connector|edge|edges|simplex|faces) \((\d+(, \d+)*)\)")
    for (a, b), entry in entries.items():
        assert not entry.ok
        found = pattern.match(entry.detail)
        assert found, entry.detail
        assert {a, b} & {int(x) for x in found.group(2).split(",")}


def test_vertex_sweep_propagates_programming_errors(monkeypatch):
    def broken(config, symbols):
        raise TypeError("a bug, not a failed check")

    monkeypatch.setattr(LabeledConfiguration, "span", broken)
    with pytest.raises(TypeError):
        vertex_sweep(sectioned_config(2, F5))


def test_vertex_sweep_needs_a_full_table():
    report = vertex_sweep(sectioned_config(3, F5).restrict((1, 2, 3, 4, 5)))
    assert report.total == 10 and report.passed == 0
    assert {e.detail for e in report.entries} == {
        "a full table over 6 symbols is required, got 5"}


def test_vertex_sweep_joins_each_span_once(monkeypatch):
    from desarc import desargues
    config = sectioned_config(8, GF(11), random.Random(3))
    calls = []
    real = desargues.join

    def counted(*parts):
        calls.append(parts)
        return real(*parts)

    def no_pair(*args):
        raise AssertionError("the sweep builds no PerspectivePair")

    monkeypatch.setattr(desargues, "join", counted)
    monkeypatch.setattr(desargues.PerspectivePair, "__init__", no_pair)
    assert vertex_sweep(config).all_ok
    assert len(calls) <= 450
    joins = len(calls)
    assert vertex_sweep(config).all_ok
    assert len(calls) == joins


def test_sweep_partition_geometric():
    config = sectioned_config(3, F5)
    for a, b in config.labels():
        assert verify_vertex_partition(config, a, b)


def test_vertex_partition_is_false_on_a_random_table(monkeypatch):
    # at (1, 2) and (1, 3) two edges of the pair are skew (EdgesDisjoint),
    # at (1, 4) a side is no simplex (NotASimplex); the check says False
    table = random_points_table(3, F5, random.Random(1))
    assert [verify_vertex_partition(table, a, b) for a, b in table.labels()] == [False] * 15
    assert not any(e.ok for e in vertex_sweep(table).entries)
    config = sectioned_config(3, F5)
    for a, b in [(1, 1), (1, 9)]:
        with pytest.raises(BadSymbols):
            verify_vertex_partition(config, a, b)
    with pytest.raises(BadSymbols):
        verify_vertex_partition(config.restrict((1, 2, 3, 4, 5)), 1, 2)

    from desarc import configuration

    def broken(pair):
        raise TypeError("a programming error")

    monkeypatch.setattr(configuration, "edge_intersections", broken)
    with pytest.raises(TypeError):
        verify_vertex_partition(config, 1, 2)


def test_sweep_equivariant_under_relabeling():
    config = sectioned_config(3, F5)
    rng = random.Random(3)
    symbols = list(config.symbols)
    for _ in range(3):
        shuffled = symbols[:]
        rng.shuffle(shuffled)
        perm = dict(zip(symbols, shuffled))
        relabeled = config.relabel(perm)
        assert verify_symbol_incidence(relabeled)
        assert substructure_counts(relabeled) == substructure_counts(config)
        assert vertex_sweep(relabeled).all_ok


# -- partition identities -----------------------------------------------------------------

@pytest.mark.parametrize("n", range(2, 13))
def test_partition_identities_arithmetic(n):
    lhs, parts = vertex_partition_identity(n)
    assert lhs == sum(parts) == comb(n + 3, 2)
    lhs2, parts2 = semi_partition_identity(n)
    assert lhs2 == sum(parts2) == comb(n + 1, 2)


def test_identity_instances_from_text():
    assert vertex_partition_identity(3) == (15, (8, 1, 6))
    assert vertex_partition_identity(4) == (21, (10, 1, 10))
    assert semi_partition_identity(4) == (10, (6, 1, 3))
    assert semi_partition_identity(3) == (6, (4, 1, 1))


# -- replication ------------------------------------------------------------------------

def test_replicate_y4():
    config = sectioned_config(4, F5)
    y4 = config.restrict((3, 4, 5, 6, 7))
    pair, residual = replicate(y4, (3, 4))
    assert len(pair.c) == len(pair.d) == 3
    # the triangles live in distinct planes inside a common 3-space
    span_c = join(*pair.c)
    span_d = join(*pair.d)
    assert span_c.dim == 2 and span_d.dim == 2 and span_c != span_d
    assert join(span_c, span_d).dim == 3
    # residual: 3 points on a line
    rpts = residual.points()
    assert len(rpts) == 3
    assert rank(F5, [p.coords for p in rpts]) == 2


def test_replicate_partition_sizes():
    for n, q in [(3, 5), (4, 5), (5, 3)]:
        config = sectioned_config(n, GF(q))
        sub = config.restrict(config.symbols[2:])
        pair, residual = replicate(sub, (sub.symbols[0], sub.symbols[1]))
        s = len(sub.symbols)
        assert len(pair.c) == s - 2
        assert len(residual) == comb(s - 2, 2)
        # every point accounted for exactly once
        used = set(pair.c) | set(pair.d) | {pair.vertex} | set(residual.points())
        assert used == set(sub.points())
        assert len(pair.c) + len(pair.d) + 1 + len(residual) == len(sub)


def test_replicate_too_few_symbols():
    config = sectioned_config(2, F5)
    sub = config.restrict((3, 4, 5))
    pair, residual = replicate(sub, (3, 4))  # s = 3 is the terminal case
    assert len(pair.c) == 1 and residual is None
    two = config.restrict((4, 5))
    with pytest.raises(TooFewSymbols):
        replicate(two, (4, 5))
    with pytest.raises(BadSymbols):
        replicate(sub, (3, 3))


@pytest.mark.parametrize("n,q", [(2, 5), (3, 5), (4, 3), (5, 3)])
def test_replication_trace_levels(n, q):
    config = sectioned_config(n, GF(q))
    levels = replication_trace(config)
    # symbol counts fall by two per level until fewer than three remain
    sizes = [len(lv.symbols) for lv in levels]
    assert sizes[0] == n + 3
    for a, b in zip(sizes, sizes[1:]):
        assert b == a - 2
    assert sizes[-1] in (3, 4)
    for lv in levels:
        s = len(lv.symbols)
        assert lv.side_size == s - 2
        assert lv.residual_labels == comb(s - 2, 2)


def test_trace_terminal_three_point_line():
    # even n reaches a 3-symbol residual: 3 collinear points
    config = sectioned_config(4, GF(3))
    levels = replication_trace(config)
    assert len(levels[-1].symbols) == 3
    last = config.restrict(levels[-1].symbols)
    pts = last.points()
    assert len(pts) == 3
    assert rank(GF(3), [p.coords for p in pts]) == 2


def test_semi_simplex_pair_validation():
    config = sectioned_config(3, F5)
    good = [config.point(1, i) for i in (3, 4, 5)]
    SemiSimplexPair(good, [config.point(2, i) for i in (3, 4, 5)],
                    config.point(1, 2))
    bad = [config.point(1, 2), config.point(1, 3), config.point(2, 3)]  # collinear
    with pytest.raises(DegenerateConfiguration):
        SemiSimplexPair(bad, good, config.point(1, 2))


# -- triple perspective -------------------------------------------------------------------

@pytest.mark.parametrize("n,q", [(3, 3), (3, 5), (4, 3), (4, 5)])
def test_triple_perspective_common_axis(n, q):
    field = GF(q)
    config = sectioned_config(n, field)
    z = triple_perspective_axis(config)
    rest = config.symbols[3:]
    # the three vertices are collinear
    vs = [config.point(1, 2), config.point(1, 3), config.point(2, 3)]
    assert rank(field, [v.coords for v in vs]) == 2
    # Z equals the span of the points hanging off the first remaining symbol
    first = rest[0]
    alt = join(*(config.point(first, j) for j in rest[1:]))
    assert z == alt
    # every pairwise edge-intersection point lies on Z (checked inside the
    # op as well; re-assert here against the table)
    for i, j in combinations(rest, 2):
        assert z.contains_point(config.point(i, j))


def test_triple_perspective_random_configs():
    rng = random.Random(5)
    for _ in range(3):
        config = sectioned_config(3, F5, rng)
        z = triple_perspective_axis(config)
        assert z.dim == 1   # span of the 3 collinear residual points


def test_triple_perspective_axis_names_the_fault():
    config = sectioned_config(3, F5)
    faults = {
        "the three vertices are not collinear":
            _moved_along_triple_line(config, (2, 3), 4),
        "edges 4,5 of pair (1,2) miss the labeled point":
            _moved_along_triple_line(config, (4, 5), 6),
        # edges 3,4 of the pair (1,2) are one line; relabeled so that
        # 3 and 4 are remaining symbols
        "lines do not meet in a single point":
            _coincident_edges_table(GF(7), random.Random(1)).relabel(
                {1: 1, 2: 2, 3: 4, 4: 5, 5: 3}),
    }
    for message, bad in faults.items():
        with pytest.raises(DegenerateConfiguration) as caught:
            triple_perspective_axis(bad)
        assert str(caught.value) == message


def test_complete_quadrilateral_from_four_symbols():
    # four symbols of the n=3 configuration cut out 6 points and 4 lines in
    # a plane; any two lines meet, no three are concurrent
    config = sectioned_config(3, F5)
    sub = config.restrict((1, 2, 3, 4))
    pts = sub.points()
    assert len(pts) == 6
    plane = join(*pts)
    assert plane.dim == 2
    lines = [join(*(config.point(i, j) for i, j in combinations(t, 2)))
             for t in combinations((1, 2, 3, 4), 3)]
    assert all(l.dim == 1 for l in lines)
    meet_pts = []
    for la, lb in combinations(lines, 2):
        x = meet(la, lb)
        assert x.dim == 0
        meet_pts.append(x.point())
    assert len(set(meet_pts)) == 6  # no three lines concurrent
    assert set(meet_pts) == set(pts)


def test_projection_from_any_symbol_spans_the_section():
    # the points hanging off one symbol of a subset span the same subspace
    # as the whole sub-table, of dimension |subset| - 2
    config = sectioned_config(4, F5)
    for subset in [(1, 2, 3), (2, 4, 6, 7), (1, 3, 5, 6, 7), (3, 4, 5, 6, 7)]:
        full = join(*(config.point(i, j) for i, j in combinations(subset, 2)))
        assert full.dim == len(subset) - 2
        for anchor in subset:
            rest = [s for s in subset if s != anchor]
            proj = join(*(config.point(anchor, j) for j in rest))
            assert proj == full


# -- structure of the ten points (n = 4) ------------------------------------------------

def test_y4_lines_lie_in_two_planes_each():
    config = sectioned_config(4, F5)
    y = config.restrict((3, 4, 5, 6, 7))
    lines = {t: join(*(config.point(i, j) for i, j in combinations(t, 2)))
             for t in combinations(y.symbols, 3)}
    planes = {s: join(*(config.point(i, j) for i, j in combinations(s, 2)))
              for s in combinations(y.symbols, 4)}
    assert all(l.dim == 1 for l in lines.values())
    assert all(p.dim == 2 for p in planes.values())
    for t, line in lines.items():
        carriers = [s for s, plane in planes.items() if plane.contains(line)]
        assert len(carriers) == 2
        assert all(set(t) <= set(s) for s in carriers)


def test_y4_point_on_three_lines_three_planes():
    config = sectioned_config(4, F5)
    y = config.restrict((3, 4, 5, 6, 7))
    p34 = config.point(3, 4)
    lines = [t for t in combinations(y.symbols, 3)
             if join(*(config.point(i, j) for i, j in combinations(t, 2))
                     ).contains_point(p34)]
    planes = [s for s in combinations(y.symbols, 4)
              if join(*(config.point(i, j) for i, j in combinations(s, 2))
                      ).contains_point(p34)]
    assert len(lines) == 3
    assert len(planes) == 3
    assert all({3, 4} <= set(t) for t in lines)
    assert all({3, 4} <= set(s) for s in planes)
