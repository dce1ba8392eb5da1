"""Acceptance suite: every criterion exact, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
import time
from itertools import combinations
from math import comb

from desarc.arcs import frame_off_hyperplane
from desarc.configuration import (
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
    axis_hyperplane,
    conway_lift_axis,
    edge_intersections,
    find_vertex,
    lift_to_arc,
    random_perspective_pair,
    section_arc,
    sectioned_config,
)
from desarc.enumeration import count_arcs, count_frames, pgl_order
from desarc.errors import FieldTooSmall
from desarc.field import GF
from desarc.projlin import all_points, join, meet

from support import face, tspace_intersections

SECTION_CASES = [(2, 5), (3, 3), (3, 5), (4, 3), (4, 5)]


def _report(num: int, ok: bool, detail: str):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_section_counts():
    ok = True
    details = []
    for n, q in SECTION_CASES:
        start = time.perf_counter()
        config = sectioned_config(n, GF(q))
        elapsed = time.perf_counter() - start
        expected = comb(n + 3, 2)
        good = (len(config) == expected
                and len(set(config.points())) == expected
                and elapsed < 1.0)
        ok = ok and good
        details.append(f"({n},{q})={len(config)}@{elapsed:.2f}s")
    _report(1, ok, "section counts " + " ".join(details))


def test_criterion_2_extended_desargues():
    start = time.perf_counter()
    ok = True
    for n, q in SECTION_CASES:
        field = GF(q)
        rng = random.Random(20_000 + 97 * n + q)
        for _ in range(200):
            pair, vertex = random_perspective_pair(n, field, rng)
            if find_vertex(pair) != vertex:
                ok = False
            meets = edge_intersections(pair)
            pts = set(meets.values())
            if len(pts) != comb(n + 1, 2):
                ok = False
            if pts & set(pair.a) or pts & set(pair.b) or vertex in pts:
                ok = False
            axis = axis_hyperplane(pair)
            if axis.dim != n - 1:
                ok = False
            for t in range(1, n):
                for sub in tspace_intersections(pair, t):
                    if sub.dim != t - 1 or not axis.contains(sub):
                        ok = False
            for k in range(n + 1):
                fm = meet(face(pair.a, k), face(pair.b, k))
                if fm.dim != n - 2 or not axis.contains(fm):
                    ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    _report(2, ok, f"1000 seeded pairs, all theorem 1-3 checks exact, {elapsed:.1f}s")


def test_criterion_3_partition_identities():
    ok = all(lhs == sum(parts)
             for n in range(2, 13)
             for lhs, parts in (vertex_partition_identity(n),
                                semi_partition_identity(n)))
    # geometric partitions for n <= 5
    for n, q in [(2, 5), (3, 3), (4, 3), (5, 3)]:
        config = sectioned_config(n, GF(q))
        for a, b in config.labels():
            if not verify_vertex_partition(config, a, b):
                ok = False
        # the replication cascade partitions every level exactly
        levels = replication_trace(config)
        current = config
        for level in levels:
            pair, residual = replicate(current, level.vertex_label)
            parts = [set(pair.c), set(pair.d), {pair.vertex},
                     set() if residual is None else set(residual.points())]
            union = set()
            disjoint = True
            for part in parts:
                if union & part:
                    disjoint = False
                union |= part
            if not disjoint or union != set(current.points()):
                ok = False
            if residual is None:
                break
            current = residual
    _report(3, ok, "Eq.(1)/Eq.(2) arithmetic n=2..12 and geometric n<=5")


def test_criterion_4_vertex_sweep():
    ok = True
    details = []
    for n in (3, 4):
        for q in (3, 5):
            report = vertex_sweep(sectioned_config(n, GF(q)))
            good = report.all_ok and report.total == comb(n + 3, 2)
            ok = ok and good
            details.append(f"({n},{q})={report.passed}/{report.total}")
    _report(4, ok, "vertex sweep " + " ".join(details))


def test_criterion_5_round_trip():
    ok = True
    for n in (2, 3):
        for q in (5, 7):
            field = GF(q)
            rng = random.Random(50_000 + 10 * n + q)
            for _ in range(25):
                pair, vertex = random_perspective_pair(n, field, rng)
                arc = lift_to_arc(pair, vertex, rng)
                config = section_arc(arc)
                if not all(config.point(1, i + 3) == pair.a[i]
                           for i in range(n + 1)):
                    ok = False
                if not all(config.point(2, i + 3) == pair.b[i]
                           for i in range(n + 1)):
                    ok = False
                if config.point(1, 2) != vertex:
                    ok = False
    _report(5, ok, "100 seeded lift/section round trips, exact")


def test_criterion_6_gf2_impossibility():
    f2 = GF(2)
    raised_frame = False
    try:
        frame_off_hyperplane(f2, 2)
    except FieldTooSmall:
        raised_frame = True
    raised_section = False
    try:
        sectioned_config(2, f2)
    except FieldTooSmall:
        raised_section = True
    zero = count_arcs(3, f2, 5, avoid=True)
    ok = raised_frame and raised_section and zero == 0
    _report(6, ok, f"GF(2): FieldTooSmall raised, 5-arcs off a plane = {zero}")


def test_criterion_7_fourth_proof_agreement():
    ok = True
    for q in (5, 7):
        field = GF(q)
        off_h = [p for p in all_points(field, 3) if p.coords[-1]]
        rng = random.Random(70_000 + q)
        for _ in range(50):
            pair, _ = random_perspective_pair(2, field, rng)
            w = rng.choice(off_h)
            if conway_lift_axis(pair, w) != axis_hyperplane(pair):
                ok = False
    _report(7, ok, "100 planar pairs: lift-and-project axis equals the direct axis")


def test_criterion_8_substructure_counts():
    c3 = substructure_counts(sectioned_config(3, GF(5)))
    c4 = substructure_counts(sectioned_config(4, GF(5)))
    inc = all(verify_symbol_incidence(sectioned_config(n, GF(q)))
              for n in (3, 4) for q in (3, 5))
    ok = (c3 == {0: 15, 1: 20, 2: 15}
          and c4 == {0: 21, 1: 35, 2: 35, 3: 21}
          and inc)
    _report(8, ok, f"counts n=3 {c3}, n=4 {c4}, incidence sweep {inc}")


def test_criterion_9_enumeration_cross_check():
    start = time.perf_counter()
    frames_line = count_frames(1, GF(3))
    frames_plane = count_frames(2, GF(3))
    elapsed = time.perf_counter() - start
    ok = (frames_line == 24
          and frames_plane == 5616
          and frames_plane == pgl_order(2, 3)
          and elapsed < 60.0)
    _report(9, ok, f"frames PG(1,3)={frames_line}, PG(2,3)={frames_plane}"
                   f"=group order, {elapsed:.1f}s")


def test_criterion_10_triple_perspective():
    ok = True
    for n in (3, 4):
        for q in (3, 5):
            field = GF(q)
            config = sectioned_config(n, field)
            z = triple_perspective_axis(config)
            rest = config.symbols[3:]
            # recompute all three pairwise edge-intersection sets and check
            # they land in the common axis
            for sa, sb in ((1, 2), (1, 3), (2, 3)):
                for i, j in combinations(rest, 2):
                    la = join(config.point(sa, i), config.point(sa, j))
                    lb = join(config.point(sb, i), config.point(sb, j))
                    x = meet(la, lb)
                    if x.dim != 0 or not z.contains_point(x.point()):
                        ok = False
    _report(10, ok, "three semi-simplexes share one axis for n in {3,4}, q in {3,5}")
