"""Command-line interface: exit codes, file artifacts, determinism."""

import hashlib
import json
import random
import re
from math import comb

import pytest
from click.testing import CliRunner

from desarc import enumeration
from desarc import io as gio
from desarc.arcs import random_arc_off_hyperplane
from desarc.cli import _pair_battery, main
from desarc.desargues import (
    PerspectivePair,
    edge_intersections,
    extract_perspective_pair,
    find_vertex,
    random_perspective_pair,
    sectioned_config,
)
from desarc.errors import EdgesDisjoint, GeometryError, NoCommonVertex
from desarc.field import GF
from desarc.projlin import all_points, coordinate_hyperplane


@pytest.fixture
def runner():
    return CliRunner()


def test_demo_n3_p5(runner, tmp_path):
    out = tmp_path / "cfg.json"
    result = runner.invoke(main, ["demo", "--n", "3", "--p", "5",
                                  "--out", str(out)])
    assert result.exit_code == 0
    doc = json.loads(out.read_text())
    rep = doc["report"]
    assert rep["point_total"] == 15
    assert rep["vertices_passed"] == rep["vertices_total"] == 15
    assert rep["identity"] == {"total": 15, "simplex_points": 8,
                               "vertex": 1, "edge_intersections": 6}
    assert len(doc["configuration"]["points"]) == 15


def test_demo_gf2_exits_2(runner):
    result = runner.invoke(main, ["demo", "--n", "2", "--p", "2"])
    assert result.exit_code == 2
    assert "FieldTooSmall" in result.output


@pytest.mark.parametrize("n,p", [(1, 3), (-1, 5)])
def test_demo_dimension_too_small_exits_2(runner, n, p):
    # at n = 1 both simplexes of every vertex span the same line
    result = runner.invoke(main, ["demo", "--n", str(n), "--p", str(p)])
    assert result.exit_code == 2
    assert "DimensionTooSmall" in result.output
    assert "n >= 2" in result.output


def test_section_of_a_plane_arc_exits_2(runner, tmp_path):
    # a 4-arc of PG(2, 5) would section to a configuration of PG(1, 5)
    h = coordinate_hyperplane(GF(5), 2, 2)
    arc = random_arc_off_hyperplane(h, 4, random.Random(5))
    arc_file = tmp_path / "arc.json"
    arc_file.write_text(gio.dumps(gio.arc_to_json(arc)))
    result = runner.invoke(main, ["section", str(arc_file)])
    assert result.exit_code == 2
    assert "DimensionTooSmall" in result.output


def test_verify_pair_of_a_line_exits_2(runner, tmp_path):
    # two point pairs of PG(1, 7), written by hand: each is a simplex, they
    # share no point and no face, but a line has no perspectivity theorems
    doc = {"n": 1, "field": {"p": 7, "k": 1, "modulus": None},
           "A": [[1, 0], [0, 1]], "B": [[1, 1], [1, 2]], "vertex": [1, 3]}
    pair_file = tmp_path / "pair.json"
    pair_file.write_text(json.dumps(doc))
    result = runner.invoke(main, ["verify", str(pair_file)])
    assert result.exit_code == 2
    assert "DimensionTooSmall" in result.output
    assert "n >= 2" in result.output


def test_verify_config_of_a_line_exits_2(runner, tmp_path):
    # six distinct points of PG(1, 7) labeled by the pairs of 4 symbols,
    # written by hand: a line carries no sectioned configuration
    coords = [[1, 0], [0, 1], [1, 1], [1, 2], [1, 3], [1, 4]]
    labels = [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]]
    doc = {"n": 1, "field": {"p": 7, "k": 1, "modulus": None},
           "points": [{"label": lab, "coords": c} for lab, c in zip(labels, coords)]}
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps(doc))
    result = runner.invoke(main, ["verify", str(config_file)])
    assert result.exit_code == 2
    assert "DimensionTooSmall" in result.output
    assert "n >= 2" in result.output


def test_usage_error_exits_2(runner):
    result = runner.invoke(main, ["demo", "--p", "5"])  # missing --n
    assert result.exit_code == 2


FIELD_OPTIONS = ["--n", "--p", "--k", "--modulus"]
HELP_NAMES = {
    "": ["demo", "section", "lift", "verify", "enumerate", "export"],
    "demo": FIELD_OPTIONS + ["--seed", "--out"],
    "section": ["ARC_FILE", "--out"],
    "lift": ["PAIR_FILE", "--seed", "--out"],
    "verify": ["INPUT_FILE", "--out"],
    "enumerate": FIELD_OPTIONS + ["--kind", "--m", "--avoid", "--budget", "--out"],
    "export": ["CONFIG_FILE", "--format", "--out"],
}


@pytest.mark.parametrize("command", sorted(HELP_NAMES))
def test_help_exits_0_and_names_every_option(runner, command):
    result = runner.invoke(main, [*command.split(), "--help"])
    assert result.exit_code == 0
    assert result.stderr == ""
    for name in HELP_NAMES[command] + ["--help"]:
        assert re.search(rf"(?<![\w-]){re.escape(name)}(?![\w-])", result.stdout), name


@pytest.mark.parametrize("args,named", [
    (["demo", "--n", "2", "--p", "5", "--bogus", "1"], "--bogus"),
    (["demo", "--p", "5"], "--n"),
    (["demo", "--n", "2", "--p", "x"], "--p"),
    (["enumerate", "--kind", "bogus", "--n", "2", "--p", "3"], "--kind"),
    (["lift", "MISSING"], "missing.json"),
    (["enumerate", "--kind", "frames", "--n", "2", "--p", "3", "--budget", "-1"], "--budget"),
    (["demo", "--n", "2", "--p", "5", "--k", "2", "--modulus", "1,x,1"], "--modulus"),
    ([], None),
])
def test_a_usage_error_exits_2_and_writes_nothing(runner, tmp_path, args, named):
    out = tmp_path / "out.json"
    args = [str(tmp_path / "missing.json") if a == "MISSING" else a for a in args]
    result = runner.invoke(main, [*args, "--out", str(out)] if args else [])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert not out.exists()
    assert "Error: " in result.stderr and "Traceback" not in result.stderr
    if named:
        assert named in result.stderr


def test_demo_byte_identical(runner, tmp_path):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    for path in (f1, f2):
        result = runner.invoke(main, ["demo", "--n", "2", "--p", "5",
                                      "--seed", "9", "--out", str(path)])
        assert result.exit_code == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_enumerate_sectioned_configs_n1(runner):
    result = runner.invoke(main, ["enumerate", "--kind", "sectioned-configs",
                                  "--n", "1", "--p", "3"])
    assert result.exit_code == 0
    assert json.loads(result.stdout)["raw_count"] == 1296


@pytest.mark.parametrize("args", [("frames", "--n", "0"), ("frames", "--n", "-2"),
                                  ("arcs", "--n", "-1", "--m", "2"),
                                  ("sectioned-configs", "--n", "-1"),
                                  ("sectioned-configs", "--n", "-3")])
def test_enumerate_below_dimension_one_exits_2(runner, args):
    result = runner.invoke(main, ["enumerate", "--kind", *args, "--p", "3"])
    assert result.exit_code == 2
    assert "DimensionTooSmall" in result.output


def test_enumerate_frames(runner):
    result = runner.invoke(main, ["enumerate", "--kind", "frames",
                                  "--n", "2", "--p", "3"])
    assert result.exit_code == 0
    doc = json.loads(result.stdout)
    assert doc["raw_count"] == 5616


def test_enumerate_frames_out_bytes(runner, tmp_path):
    # the digest of the file from the search that walked every ordering
    out = tmp_path / "frames.json"
    result = runner.invoke(main, ["enumerate", "--kind", "frames", "--n", "2",
                                  "--p", "3", "--out", str(out)])
    assert result.exit_code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "93fe26b205eb5454d877f601512d5343d5fd204e0ec47f0a45e4e439d89ea4f6")
    assert re.fullmatch(r"count 5616 \(7189 nodes, \d+ spans joined, \d+\.\d{3}s\)\n",
                        result.stderr)


@pytest.mark.parametrize("args,flag", [
    (("frames", "--avoid"), "--avoid"),
    (("frames", "--m", "7"), "--m"),
    (("sectioned-configs", "--m", "7"), "--m"),
    (("sectioned-configs", "--avoid"), "--avoid"),
])
def test_enumerate_rejects_arc_flags_for_other_kinds(runner, tmp_path, args, flag):
    out = tmp_path / "counts.json"
    result = runner.invoke(main, ["enumerate", "--kind", *args, "--n", "2",
                                  "--p", "3", "--out", str(out)])
    assert result.exit_code == 2
    assert f"{flag} applies to --kind arcs only" in result.stderr
    assert not out.exists()


def test_enumerate_arcs_avoid(runner):
    result = runner.invoke(main, ["enumerate", "--kind", "arcs", "--n", "3",
                                  "--p", "2", "--m", "5", "--avoid"])
    assert result.exit_code == 0
    assert json.loads(result.stdout)["raw_count"] == 0


def test_lift_section_verify_flow(runner, tmp_path):
    config = sectioned_config(2, GF(5))
    pair, vertex = extract_perspective_pair(config, 1, 2)
    pair_file = tmp_path / "pair.json"
    pair_file.write_text(gio.dumps(gio.pair_to_json(pair, vertex)))

    arc_file = tmp_path / "arc.json"
    result = runner.invoke(main, ["lift", str(pair_file), "--out", str(arc_file)])
    assert result.exit_code == 0

    cfg_file = tmp_path / "cfg.json"
    result = runner.invoke(main, ["section", str(arc_file), "--out", str(cfg_file)])
    assert result.exit_code == 0
    doc = json.loads(cfg_file.read_text())
    assert len(doc["points"]) == 10

    result = runner.invoke(main, ["verify", str(cfg_file)])
    assert result.exit_code == 0

    result = runner.invoke(main, ["verify", str(pair_file)])
    assert result.exit_code == 0


def test_verify_detects_corruption(runner, tmp_path):
    from desarc.projlin import all_points
    config = sectioned_config(2, GF(5))
    doc = gio.config_to_json(config)
    # move one point to a fresh position: loads fine, breaks the theorems
    taken = set(config.points())
    fresh = next(p for p in all_points(GF(5), 2) if p not in taken)
    doc["points"][0]["coords"] = list(fresh.coords)
    bad = tmp_path / "bad.json"
    bad.write_text(gio.dumps(doc))
    result = runner.invoke(main, ["verify", str(bad)])
    assert result.exit_code == 1
    # the sweep check names the first failing label and the condition it breaks
    checks = {c["name"]: c for c in json.loads(result.stdout)["checks"]}
    assert checks["vertex_sweep"] == {
        "name": "vertex_sweep", "ok": False,
        "detail": "10 of 10 labels fail, first (1, 2): connector (1, 2, 3) is not a line"}
    assert ("FAIL  vertex_sweep  (10 of 10 labels fail, first (1, 2): "
            "connector (1, 2, 3) is not a line)") in result.stderr


def test_verify_config_without_a_full_table_fails_the_sweep(runner, tmp_path):
    sub = sectioned_config(3, GF(5)).restrict((1, 2, 3, 4, 5))
    cfg = tmp_path / "sub.json"
    cfg.write_text(gio.dumps(gio.config_to_json(sub)))
    result = runner.invoke(main, ["verify", str(cfg)])
    assert result.exit_code == 1
    checks = {c["name"]: c for c in json.loads(result.stdout)["checks"]}
    assert checks["vertex_sweep"] == {
        "name": "vertex_sweep", "ok": False,
        "detail": "10 of 10 labels fail, first (1, 2): "
                  "a full table over 6 symbols is required, got 5"}


def test_verify_rejects_invalid_table(runner, tmp_path):
    # two labels on the same point cannot even load: a usage-level error
    config = sectioned_config(2, GF(5))
    doc = gio.config_to_json(config)
    doc["points"][0]["coords"] = doc["points"][1]["coords"]
    bad = tmp_path / "bad.json"
    bad.write_text(gio.dumps(doc))
    result = runner.invoke(main, ["verify", str(bad)])
    assert result.exit_code == 2
    assert "DegenerateSection" in result.output


def test_export_incidence_csv(runner, tmp_path):
    cfg_file = tmp_path / "cfg.json"
    runner.invoke(main, ["demo", "--n", "3", "--p", "5", "--out", str(cfg_file)])
    out = tmp_path / "inc.csv"
    result = runner.invoke(main, ["export", str(cfg_file), "--out", str(out)])
    assert result.exit_code == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 16                      # header + 15 points
    header = lines[0].split(",")
    assert len(header) == 21                     # "point" + 20 lines
    assert header[0] == "point"
    # every configuration line carries exactly 3 points
    counts = [0] * 20
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[0].count("-") == 1
        for idx, val in enumerate(cells[1:]):
            counts[idx] += int(val)
    assert all(c == 3 for c in counts)


def test_export_json_format(runner, tmp_path):
    cfg_file = tmp_path / "cfg.json"
    runner.invoke(main, ["demo", "--n", "2", "--p", "5", "--out", str(cfg_file)])
    result = runner.invoke(main, ["export", str(cfg_file), "--format", "json"])
    assert result.exit_code == 0
    doc = json.loads(result.stdout)
    assert len(doc["rows"]) == 10
    assert len(doc["header"]) == 11


def test_extension_field_flags(runner):
    result = runner.invoke(main, ["demo", "--n", "2", "--p", "3", "--k", "2"])
    assert result.exit_code == 0


def test_custom_modulus_flag(runner):
    result = runner.invoke(main, ["demo", "--n", "2", "--p", "3", "--k", "2",
                                  "--modulus", "2,1,1"])
    assert result.exit_code == 0


@pytest.mark.parametrize("modulus", ["1,x,1", "a,b", "1,,1"])
def test_a_modulus_that_is_not_integers_is_a_usage_error(runner, modulus):
    result = runner.invoke(main, ["demo", "--n", "2", "--p", "5", "--k", "2",
                                  "--modulus", modulus])
    assert result.exit_code == 2
    assert "--modulus" in result.output
    assert not isinstance(result.exception, ValueError)


@pytest.mark.parametrize("p,k", [("3", "100000"), ("3", "5000"),
                                 ("1000000000000000009", "1")])
def test_a_field_order_above_the_limit_exits_2(runner, p, k):
    # p^k was once computed first: k = 100000 died in int-to-str conversion
    result = runner.invoke(main, ["demo", "--n", "2", "--p", p, "--k", k])
    assert result.exit_code == 2
    assert f"InvalidField: order {p}^{k} exceeds the supported limit 65536" in result.stderr


def test_a_modulus_coefficient_outside_the_prime_field_exits_2(runner):
    result = runner.invoke(main, ["demo", "--n", "2", "--p", "3", "--k", "2",
                                  "--modulus", "4,0,1"])
    assert result.exit_code == 2
    assert "InvalidField" in result.output
    assert "modulus coefficient 4" in result.output


@pytest.mark.parametrize("spec,message", [
    ({"p": 3.0}, "p must be an int"),
    ({"p": True}, "p must be an int"),
    ({"k": 2.0}, "k must be an int"),
    ({"modulus": [1, 0, 1.0]}, "modulus coefficient 1.0 is not an int"),
    ({"modulus": [4, 0, 1]}, "modulus coefficient 4 lies outside"),
    ({"p": 10 ** 18 + 9}, "order 1000000000000000009^2 exceeds"),   # once hung
])
@pytest.mark.parametrize("cmd,kind", [("verify", "pair"), ("lift", "pair"),
                                      ("verify", "config"), ("export", "config")])
def test_a_file_whose_field_is_not_ints_in_range_exits_2(runner, tmp_path, spec, message,
                                                          cmd, kind):
    # p = 5.0 once loaded and then died in pow() with a TypeError and exit 1
    field = GF(3, 2)
    if kind == "pair":
        doc = gio.pair_to_json(*random_perspective_pair(2, field, random.Random(2)))
    else:
        doc = gio.config_to_json(sectioned_config(2, field))
    doc["field"].update(spec)
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, [cmd, str(path)])
    assert result.exit_code == 2
    assert f"InvalidField: {message}" in result.output


def test_malformed_file_is_usage_error(runner, tmp_path):
    bad = tmp_path / "garbage.json"
    bad.write_text("{not json at all")
    for cmd in ("verify", "section", "lift", "export"):
        result = runner.invoke(main, [cmd, str(bad)])
        assert result.exit_code == 2, cmd


def test_enumerate_budget_error(runner):
    result = runner.invoke(main, ["enumerate", "--kind", "frames", "--n", "2",
                                  "--p", "3", "--budget", "5"])
    assert result.exit_code == 2
    assert "BudgetExceeded" in result.output


def test_enumerate_rejects_a_negative_budget(runner):
    result = runner.invoke(main, ["enumerate", "--kind", "frames", "--n", "2",
                                  "--p", "3", "--budget", "-5"])
    assert result.exit_code == 2
    assert "--budget" in result.output
    assert "BudgetExceeded" not in result.output
    # a budget of 0 is a valid budget that the first node exceeds
    result = runner.invoke(main, ["enumerate", "--kind", "frames", "--n", "2",
                                  "--p", "3", "--budget", "0"])
    assert result.exit_code == 2
    assert "BudgetExceeded" in result.output


def test_the_budget_default_is_the_kernels(runner, tmp_path):
    result = runner.invoke(main, ["enumerate", "--help"])
    assert result.exit_code == 0
    shown = re.search(r"--budget.*?\[default:\s*(\d+)", result.output, re.DOTALL)
    assert int(shown.group(1)) == enumeration.DEFAULT_BUDGET
    out = tmp_path / "frames.json"
    result = runner.invoke(main, ["enumerate", "--kind", "frames", "--n", "2",
                                  "--p", "3", "--out", str(out)])
    assert result.exit_code == 0
    assert json.loads(out.read_text())["job"]["budget"] == enumeration.DEFAULT_BUDGET


BATTERY = ["vertex_concurrence", "edge_intersections_distinct",
           "edge_intersections_disjoint", "axis_is_hyperplane",
           "axis_carries_intersections", "tspace_meets", "face_meets_in_axis",
           "lift_project_axis", "lift_section_round_trip"]


def test_verify_reports_each_check_of_a_pair_not_in_perspective(runner, tmp_path):
    # two random triangles of PG(2, 7) whose connector lines are not concurrent
    field = GF(7)
    rng = random.Random(3)
    pts = list(all_points(field, 2))
    while True:
        sample = rng.sample(pts, 7)
        try:
            pair = PerspectivePair(sample[:3], sample[3:6])
            find_vertex(pair)
        except NoCommonVertex:
            break
        except GeometryError:
            continue
    pair_file = tmp_path / "pair.json"
    pair_file.write_text(gio.dumps(gio.pair_to_json(pair, sample[6])))
    result = runner.invoke(main, ["verify", str(pair_file)])
    assert result.exit_code == 1
    doc = json.loads(result.stdout)
    assert [c["name"] for c in doc["checks"]] == BATTERY
    checks = {c["name"]: c for c in doc["checks"]}
    assert checks["vertex_concurrence"] == {
        "name": "vertex_concurrence", "ok": False,
        "detail": "NoCommonVertex: connector line 2 misses the candidate vertex"}
    assert checks["lift_section_round_trip"]["detail"].startswith("NoCommonVertex: ")
    # the checks after a failed one still ran, and some of them pass
    assert checks["edge_intersections_distinct"] == {
        "name": "edge_intersections_distinct", "ok": True}
    assert checks["tspace_meets"]["ok"]
    for check in doc["checks"]:
        assert set(check) <= {"name", "ok", "detail"}
        if check["ok"]:
            assert "detail" not in check
    assert not doc["all_ok"]


def test_verify_gives_every_check_on_skew_edges_one_detail(runner, tmp_path):
    # two random tetrahedra of PG(3, 5) with skew edges 0,1: every check
    # that needs the edge meets fails with the one memoized error
    field = GF(5)
    rng = random.Random(3)
    pts = list(all_points(field, 3))
    while True:
        sample = rng.sample(pts, 9)
        try:
            pair = PerspectivePair(sample[:4], sample[4:8])
            edge_intersections(pair)
        except EdgesDisjoint:
            break
        except GeometryError:
            continue
    pair_file = tmp_path / "pair.json"
    pair_file.write_text(gio.dumps(gio.pair_to_json(pair, sample[8])))
    result = runner.invoke(main, ["verify", str(pair_file)])
    assert result.exit_code == 1
    checks = {c["name"]: c for c in json.loads(result.stdout)["checks"]}
    skew = "EdgesDisjoint: edges 0,1 are skew"
    for name in BATTERY[:-1]:
        assert checks[name] == {"name": name, "ok": False, "detail": skew}
    assert checks["lift_section_round_trip"] == {
        "name": "lift_section_round_trip", "ok": False,
        "detail": "NoCommonVertex: connector line 0 misses the given vertex"}


def test_verify_passing_report_has_no_detail(runner, tmp_path):
    pair, vertex = extract_perspective_pair(sectioned_config(3, GF(5)), 1, 2)
    pair_file = tmp_path / "pair.json"
    pair_file.write_text(gio.dumps(gio.pair_to_json(pair, vertex)))
    result = runner.invoke(main, ["verify", str(pair_file)])
    assert result.exit_code == 0
    doc = json.loads(result.stdout)
    assert doc["checks"] == [{"name": name, "ok": True} for name in BATTERY]


@pytest.mark.parametrize("n,q", [(4, 5), (8, 11)])
def test_pair_battery_meets_once_per_index_subset(monkeypatch, n, q):
    from desarc import desargues
    pair, vertex = desargues.random_perspective_pair(n, GF(q), random.Random(n + q))
    calls = []
    real = desargues.meet

    def counted(s1, s2):
        calls.append((s1, s2))
        return real(s1, s2)

    monkeypatch.setattr(desargues, "meet", counted)
    checks = _pair_battery(pair, vertex)
    assert [(name, ok) for name, ok, _ in checks] == [(name, True) for name in BATTERY]
    subsets = 2 ** (n + 1) - (n + 1) - 2   # index subsets of size 2..n
    connectors = 2                          # find_vertex, again in the Conway lift
    lifts = 3 + (n + 1)                     # Conway lift; lift_to_arc, one per point
    sections = comb(n + 3, 2)               # section of the lifted arc
    assert len(calls) <= subsets + connectors + lifts + sections
    if n == 8:
        assert len(calls) <= 570
