"""Command-line interface: exit codes, file artifacts, determinism."""

import errno
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest
from click.testing import CliRunner

from desarc import enumeration
from desarc import io as gio
from desarc.arcs import frame_off_hyperplane, random_arc_off_hyperplane
from desarc.cli import _pair_battery, main
from desarc.desargues import (
    PerspectivePair,
    edge_intersections,
    extract_perspective_pair,
    find_vertex,
    lift_to_arc,
    random_perspective_pair,
    sectioned_config,
)
from desarc.errors import EdgesDisjoint, GeometryError, NoCommonVertex
from desarc.field import GF
from desarc.projlin import all_points

from support import perturbed_section, random_points_table


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
    arc = random_arc_off_hyperplane(GF(5), 2, 4, random.Random(5))
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


@pytest.mark.parametrize("label", [[1, 2], [2, 1]])
def test_a_label_listed_twice_exits_2(runner, tmp_path, label):
    # the later of two (1, 2) entries once replaced the earlier, and the
    # file passed verify
    demo = tmp_path / "demo.json"
    result = runner.invoke(main, ["demo", "--n", "3", "--p", "5", "--seed", "1",
                                  "--out", str(demo)])
    assert result.exit_code == 0
    doc = json.loads(demo.read_text())
    doc["configuration"]["points"].insert(0, {"label": label, "coords": [0, 0, 0, 1]})
    bad, out = tmp_path / "bad.json", tmp_path / "out.json"
    bad.write_text(json.dumps(doc))
    result = runner.invoke(main, ["verify", str(bad), "--out", str(out)])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert not out.exists()
    assert "error: BadSymbols: label (1,2) is listed twice" in result.stderr


@pytest.mark.parametrize("command,n", [("section", 9), ("verify", 2)])
def test_a_file_whose_n_is_not_its_dimension_exits_2(runner, tmp_path, command, n):
    # an arc of PG(4, 5) or a pair of PG(3, 5) with "n" edited once loaded,
    # and section wrote the dimension of the points
    pair, vertex = random_perspective_pair(3, GF(5), random.Random(2))
    if command == "section":
        doc = gio.arc_to_json(lift_to_arc(pair, vertex))
    else:
        doc = gio.pair_to_json(pair, vertex)
    doc["n"] = n
    bad, out = tmp_path / "bad.json", tmp_path / "out.json"
    bad.write_text(json.dumps(doc))
    result = runner.invoke(main, [command, str(bad), "--out", str(out)])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert not out.exists()
    assert f"error: AmbientMismatch: the document gives n = {n}" in result.stderr


def _document(kind):
    """A document as desarc writes it: a pair of PG(3, 5), its lift (an arc
    of PG(4, 5)), a configuration of PG(2, 5) or a pair of PG(2, 4096)."""
    if kind == "config":
        return gio.config_to_json(sectioned_config(2, GF(5)))
    if kind == "pair-4096":
        field, n = GF(2, 12, [1, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1]), 2
    else:
        field, n = GF(5), 3
    pair, vertex = random_perspective_pair(n, field, random.Random(2))
    if kind == "arc":
        return gio.arc_to_json(lift_to_arc(pair, vertex))
    return gio.pair_to_json(pair, vertex)


# (command, document, path of the edited value, edit, error): each edited
# file once loaded, by int(), % p or a float "n", and the command exited 0,
# or 1 with a FAIL report or a TypeError
@pytest.mark.parametrize("command,kind,path,edit,error", [
    ("verify", "pair", ("vertex", -1), lambda x: x + 5, "InvalidField"),
    ("verify", "pair", ("A", 0), lambda c: [float(x) for x in c], "InvalidField"),
    ("verify", "pair", ("A", 0), lambda c: [x == 1 or x for x in c], "InvalidField"),
    ("verify", "pair", ("B", 1), lambda c: [str(x) for x in c], "InvalidField"),
    ("section", "arc", ("points", 0), lambda c: [x + 0.5 * (x == 1) for x in c],
     "InvalidField"),
    ("verify", "config", ("points", 0, "label"), lambda lab: [lab[0], lab[1] + 0.5],
     "BadSymbols"),
    ("verify", "config", ("points", 0, "label"), lambda lab: [str(s) for s in lab],
     "BadSymbols"),
    ("verify", "pair-4096", ("vertex", -1), lambda c: [x or 3 for x in c], "InvalidField"),
    ("verify", "config", ("n",), float, "AmbientMismatch"),
    ("export", "config", ("n",), float, "AmbientMismatch"),
    ("section", "arc", ("n",), float, "AmbientMismatch"),
    ("verify", "pair", ("n",), float, "AmbientMismatch"),
    ("verify", "pair", ("vertex",), lambda c: c[:-1], "AmbientMismatch"),
    ("verify", "pair", ("vertex",), lambda c: c + [0], "AmbientMismatch"),
], ids=["coordinate-raised-by-p", "float-coordinates", "true-coordinate",
        "string-coordinates", "arc-coordinate-1.5", "label-2.5", "string-label",
        "coefficient-3", "config-n-float", "export-config-n-float", "arc-n-float",
        "pair-n-float", "short-vertex", "long-vertex"])
def test_a_malformed_document_exits_2(runner, tmp_path, command, kind, path, edit, error):
    doc = _document(kind)
    *keys, last = path
    target = doc
    for key in keys:
        target = target[key]
    target[last] = edit(target[last])
    bad, out = tmp_path / "bad.json", tmp_path / "out.json"
    bad.write_text(json.dumps(doc))
    result = runner.invoke(main, [command, str(bad), "--out", str(out)])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert not out.exists()
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith(f"error: {error}: ")


def _short_arc():
    """The lift of a pair of PG(3, 5), an arc of PG(4, 5), cut to 4 points."""
    doc = _document("arc")
    doc["points"] = doc["points"][:4]
    return doc


def _config_with_label(label):
    doc = _document("config")
    doc["points"][0]["label"] = label
    return doc


# documents each command reads and rejects by the error of one precondition
@pytest.mark.parametrize("command", ["verify", "section"])
@pytest.mark.parametrize("make,message", [
    (lambda: [1, 2], "BadSymbols: expected a JSON object"),
    (dict, "BadSymbols: unrecognized geometry document"),
    (lambda: _config_with_label([1, 1]), "BadSymbols: label (1,1) repeats a symbol"),
    (_short_arc, "TooFew: an arc of PG(4) needs at least 5 points"),
], ids=["list", "empty-object", "label-1-1", "arc-of-4-points-in-pg4"])
def test_a_document_breaking_a_precondition_exits_2(runner, tmp_path, command, make,
                                                     message):
    bad, out = tmp_path / "bad.json", tmp_path / "out.json"
    bad.write_text(json.dumps(make()))
    result = runner.invoke(main, [command, str(bad), "--out", str(out)])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert not out.exists()
    assert "Traceback" not in result.stderr
    assert result.stderr == f"error: {message}\n"


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
    (["verify", "MISSING"], "Error: cannot read {tmp}/missing.json: No such file"),
    (["lift", "CONFIG"], "Error: {tmp}/config.json holds a configuration, not a pair"),
    (["section", "PAIR"], "Error: {tmp}/pair.json holds a pair, not an arc"),
    (["export", "ARC"], "Error: {tmp}/arc.json holds an arc, not a configuration"),
    (["verify", "ARC"], "Error: {tmp}/arc.json holds an arc, not a configuration or a pair"),
])
def test_a_usage_error_exits_2_and_writes_nothing(runner, tmp_path, args, named):
    # ARC, PAIR and CONFIG stand for a file of that kind, MISSING for none
    docs = {"ARC": ("arc.json", lambda: gio.arc_to_json(frame_off_hyperplane(GF(5), 3))),
            "PAIR": ("pair.json", lambda: gio.pair_to_json(*extract_perspective_pair(
                sectioned_config(2, GF(5)), 1, 2))),
            "CONFIG": ("config.json", lambda: gio.config_to_json(sectioned_config(2, GF(5)))),
            "MISSING": ("missing.json", None)}

    def path(placeholder):
        name, doc = docs[placeholder]
        if doc:
            (tmp_path / name).write_text(gio.dumps(doc()))
        return str(tmp_path / name)

    args = [path(a) if a in docs else a for a in args]
    out = tmp_path / "out.json"
    result = runner.invoke(main, [*args, "--out", str(out)] if args else [])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert not out.exists()
    assert "Error: " in result.stderr and "Traceback" not in result.stderr
    if named:
        assert named.format(tmp=tmp_path) in result.stderr


def test_demo_byte_identical(runner, tmp_path):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    for path in (f1, f2):
        result = runner.invoke(main, ["demo", "--n", "2", "--p", "5",
                                      "--seed", "9", "--out", str(path)])
        assert result.exit_code == 0
    assert f1.read_bytes() == f2.read_bytes()


# sha256 of each --out file: demo canonical and with --seed 5, the pair of
# random_perspective_pair(n, field, Random(1)), its lift canonical and with
# --seed 3, and the section of the seeded lift
_GOLDEN = {
    (2, 5, 1): {
        "demo": "0e20624934f5b7f42eb57e63504aa1d42ea0e774f0dd55277e0bbf59e53c932e",
        "demo-seed-5": "aa5539ee05c097b148398a3babacbc55e24c7732fb90d7f739ab41ff877ceb82",
        "pair": "df4eee5f64df602e484592560fac1cba30a83fe9514a3496b64e839fd27a73de",
        "lift": "8ddc010a4bb03058299aa17a46ba9504ac01ee52289b64fd462069a85d303ea9",
        "lift-seed-3": "1e60c4e7b03a96643da254b6981fe489857fc7e675d071ca53c7427550866c48",
        "section": "5f38acf24d912a361bd6e5f115ac376a7aee7c3db855dc04015d75881c0647ec",
    },
    (3, 3, 2): {
        "demo": "470795d5b20ad85805dab57ae32e18482132f9fc921368f6e59ade44aa8a38c0",
        "demo-seed-5": "6e52dbd45264fe939bd9d24c4ea71be2664d3f9488f9543de3c7deefae1fef11",
        "pair": "1c8440122171467da69b223e86af95d5c42ad0e5c4a499ba086d1348ba5b008d",
        "lift": "61335ed4f20680b3ea927b2d89a26fb6678104a66074001af35c8a81182c3b67",
        "lift-seed-3": "549937c867f1168199aa59dd9d4b72913989879f5d1bd82b0540f8f148044e37",
        "section": "40625aa669ad0ba939233626e8488506c957caba2c16be12e87676cf8ff074cc",
    },
    (4, 3, 3): {
        "demo": "2ddad3cf157d54abbaa6dfb9762e7a77b60df828c9803f7e4ed236f7bf6fee29",
        "demo-seed-5": "2a74a5a4d84e6db2c46cc03e593eb2e9d98cc1d15ea98b97f3dbd7d581e22384",
        "pair": "da9998e67b0f04ec464b0a5299d9633959bd3b90da299c105ee31d6cc251d521",
        "lift": "c69faaca590e0d303647743a9bceb04907cda1da8103a4b47f78d1ff366c8e17",
        "lift-seed-3": "21db9c6ae905ed1364c58c3281603ffefe0cb7b1502954195201f8996ae785cd",
        "section": "e532bf446d9559375bbeabdb3ae289fef41a2c8bc8fbd4f2c283690dd4eb1cfd",
    },
}


@pytest.mark.parametrize("n,p,k", sorted(_GOLDEN), ids=lambda v: str(v))
def test_out_files_are_the_recorded_bytes(runner, tmp_path, n, p, k):
    # the seeded anchor and line draws of lift, the seeded arc of demo and
    # the section, at (2, 5), (3, 9) and (4, 27)
    flags = ["--n", str(n), "--p", str(p), "--k", str(k)]
    files = {name: tmp_path / f"{name}.json" for name in _GOLDEN[(n, p, k)]}
    pair, vertex = random_perspective_pair(n, GF(p, k), random.Random(1))
    files["pair"].write_text(gio.dumps(gio.pair_to_json(pair, vertex)))
    for name, args in (("demo", ["demo", *flags]),
                       ("demo-seed-5", ["demo", *flags, "--seed", "5"]),
                       ("lift", ["lift", str(files["pair"])]),
                       ("lift-seed-3", ["lift", str(files["pair"]), "--seed", "3"]),
                       ("section", ["section", str(files["lift-seed-3"])])):
        result = runner.invoke(main, [*args, "--out", str(files[name])])
        assert result.exit_code == 0, result.output
    digests = {name: hashlib.sha256(path.read_bytes()).hexdigest()
               for name, path in files.items()}
    assert digests == _GOLDEN[(n, p, k)]


_CHECKS = ("symbol_incidence", "substructure_counts", "vertex_sweep",
           "triple_perspective_axis", "vertex_concurrence",
           "edge_intersections_distinct", "edge_intersections_disjoint",
           "axis_is_hyperplane", "axis_carries_intersections", "tspace_meets",
           "face_meets_in_axis", "lift_project_axis", "lift_section_round_trip")


def _failed_lines(sweep, edges, lift):
    skew = f"(EdgesDisjoint: edges {edges} are skew)"
    return [f"FAIL  {name}" for name in _CHECKS[:2]] + [
        f"FAIL  vertex_sweep  ({sweep})",
        "FAIL  triple_perspective_axis  "
        "(DegenerateConfiguration: the three vertices are not collinear)",
        *(f"FAIL  {name}  {skew}" for name in _CHECKS[4:-1]),
        f"FAIL  lift_section_round_trip  ({lift})"]


# exit code, sha256 of the verify --out report and its stderr lines, recorded
# when each span still joined every label its last symbol adds
_VERIFY_GOLDEN = {
    "seeded-8-11": (0, "660a79c0a581a2b0cfb1b689c6dc09d77b2fde3c2550d2a8a3c6f2bc629d6541",
                    [f"PASS  {name}" for name in _CHECKS]),
    "canonical-6-11": (0, "660a79c0a581a2b0cfb1b689c6dc09d77b2fde3c2550d2a8a3c6f2bc629d6541",
                       [f"PASS  {name}" for name in _CHECKS]),
    "perturbed-4-7": (1, "8e48e68010790f4863a49eb445790b98ab25f22c77bccd647956f71652093edb",
                      _failed_lines("21 of 21 labels fail, first (1, 2): "
                                    "connector (1, 2, 3) is not a line", "0,1",
                                    "NoCommonVertex: connector line 0 misses the given vertex")),
    "random-3-5": (1, "3b83b60df5bc0154982bbfcdddd59f83e8cc4afba57b1214392aeee563f6bad5",
                   _failed_lines("15 of 15 labels fail, first (1, 2): "
                                 "connector (1, 2, 3) is not a line", "0,2",
                                 "SharedFace: the vertex lies on a face of one of "
                                 "the simplexes")),
}


@pytest.mark.parametrize("name", sorted(_VERIFY_GOLDEN))
def test_verify_reports_are_the_recorded_bytes(runner, tmp_path, name):
    # a seeded demo and the canonical one of the benchmark's enumerate
    # workload pass; the perturbed section and a table of random points fail
    cfg, report = tmp_path / "config.json", tmp_path / "verify.json"
    tables = {"perturbed-4-7": perturbed_section,
              "random-3-5": lambda: random_points_table(3, GF(5), random.Random(1))}
    if name in tables:
        cfg.write_text(gio.dumps(gio.config_to_json(tables[name]())))
    else:
        n, p = name.split("-")[1:]
        seed = ["--seed", "5"] if name.startswith("seeded") else []
        result = runner.invoke(main, ["demo", "--n", n, "--p", p, *seed, "--out", str(cfg)])
        assert result.exit_code == 0, result.output
    result = runner.invoke(main, ["verify", str(cfg), "--out", str(report)])
    code, digest, lines = _VERIFY_GOLDEN[name]
    assert result.exit_code == code
    assert hashlib.sha256(report.read_bytes()).hexdigest() == digest
    assert result.stderr.splitlines() == lines


def _tetrahedra_with_skew_edges():
    """Two random tetrahedra of PG(3, 5) whose edges 0,1 are skew, and a
    ninth random point."""
    field = GF(5)
    rng = random.Random(3)
    pts = list(all_points(field, 3))
    while True:
        sample = rng.sample(pts, 9)
        try:
            pair = PerspectivePair(sample[:4], sample[4:8])
            edge_intersections(pair)
        except EdgesDisjoint:
            return pair, sample[8]
        except GeometryError:
            continue


# exit code, sha256 of the verify --out report and its stderr lines for
# pair files, recorded when the t-space and face checks met the spans of
# every index set
_PAIR_GOLDEN = {
    "seeded-8-11": (0, "09221dec6d0573da8cb109f9df1343e99c7b300332a9fda15f18d03b7141a7ba",
                    [f"PASS  {name}" for name in _CHECKS[4:]]),
    "seeded-5-7": (0, "09221dec6d0573da8cb109f9df1343e99c7b300332a9fda15f18d03b7141a7ba",
                   [f"PASS  {name}" for name in _CHECKS[4:]]),
    "skew-3-5": (1, "42c3d3aabf30710b6b1b98a8732cdac7be85bae1c62f6e5ffb1bb02dde16d694",
                 _failed_lines("", "0,1", "NoCommonVertex: connector line 0 misses "
                                          "the given vertex")[4:]),
}


@pytest.mark.parametrize("name", sorted(_PAIR_GOLDEN))
def test_verify_reports_of_pair_files_are_the_recorded_bytes(runner, tmp_path, name):
    if name.startswith("skew"):
        pair, vertex = _tetrahedra_with_skew_edges()
    else:
        n, q = map(int, name.split("-")[1:])
        pair, vertex = random_perspective_pair(n, GF(q), random.Random(n * q))
    pair_file, report = tmp_path / "pair.json", tmp_path / "verify.json"
    pair_file.write_text(gio.dumps(gio.pair_to_json(pair, vertex)))
    result = runner.invoke(main, ["verify", str(pair_file), "--out", str(report)])
    code, digest, lines = _PAIR_GOLDEN[name]
    assert result.exit_code == code
    assert hashlib.sha256(report.read_bytes()).hexdigest() == digest
    assert result.stderr.splitlines() == lines


def test_verify_of_a_seeded_config_stays_within_its_work(monkeypatch):
    # each span joins only the labels no symbol triple places, and extends
    # its prefix's reduced basis; joining every label with one rref each
    # took 3,671 rref and 64,508 sub_row calls here
    from desarc import cli, projlin
    field = GF(11)
    config = sectioned_config(8, field, random.Random(5))
    calls = {"rref": 0, "sub_row": 0}
    real_rref, real_sub_row = projlin.rref, field.sub_row

    def rref(*args):
        calls["rref"] += 1
        return real_rref(*args)

    def sub_row(*args):
        calls["sub_row"] += 1
        return real_sub_row(*args)

    monkeypatch.setattr(projlin, "rref", rref)
    object.__setattr__(field, "sub_row", sub_row)
    assert all(ok for _, ok, _ in cli._verify_config(config))
    assert calls["rref"] <= 650 and calls["sub_row"] <= 29000, calls


def test_enumerate_sectioned_configs_n1(runner):
    result = runner.invoke(main, ["enumerate", "--kind", "sectioned-configs",
                                  "--n", "1", "--p", "3"])
    assert result.exit_code == 0
    assert json.loads(result.stdout)["raw_count"] == 1296


def test_enumerate_sectioned_configs_over_gf2(runner):
    # a count of arcs of PG(4, 2) off a solid asks for no section over GF(2)
    result = runner.invoke(main, ["enumerate", "--kind", "sectioned-configs",
                                  "--n", "3", "--p", "2"])
    assert result.exit_code == 0
    assert json.loads(result.stdout)["raw_count"] == 322560


@pytest.mark.parametrize("args", [("frames", "--n", "0"), ("frames", "--n", "-2"),
                                  ("arcs", "--n", "-1", "--m", "2"),
                                  ("sectioned-configs", "--n", "-1"),
                                  ("sectioned-configs", "--n", "-3"),
                                  ("sectioned-configs", "--n", "0")])
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
    # run_job owns the rule, so the CLI reports it as a geometry error
    out = tmp_path / "counts.json"
    result = runner.invoke(main, ["enumerate", "--kind", *args, "--n", "2",
                                  "--p", "3", "--out", str(out)])
    assert result.exit_code == 2
    assert result.stderr == (
        f"error: WrongCount: m and avoid apply to arc jobs only, not {args[0]}\n")
    assert flag.lstrip("-") in result.stderr
    assert result.stdout == ""
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


@pytest.mark.parametrize("args,named", [
    (["verify", "DIR"], "DIR"),
    (["verify", "NOT_UTF8"], "NOT_UTF8"),
    (["demo", "--n", "2", "--p", "5", "--out", "NO_DIR"], "NO_DIR"),
    (["enumerate", "--kind", "frames", "--n", "2", "--p", "3", "--out", "DIR"], "DIR"),
], ids=["verify-a-directory", "verify-not-utf8", "out-in-a-missing-directory",
        "out-to-a-directory"])
def test_a_path_that_cannot_be_read_or_written_is_a_usage_error(runner, tmp_path,
                                                                args, named):
    (tmp_path / "latin1.json").write_bytes('{"kind": "caf\xe9"}'.encode("latin-1"))
    paths = {"DIR": str(tmp_path), "NOT_UTF8": str(tmp_path / "latin1.json"),
             "NO_DIR": str(tmp_path / "missing" / "x.json")}
    result = runner.invoke(main, [paths.get(a, a) for a in args])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "Error: " in result.stderr and "Traceback" not in result.stderr
    assert paths[named] in result.stderr


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
    pair, point = _tetrahedra_with_skew_edges()
    pair_file = tmp_path / "pair.json"
    pair_file.write_text(gio.dumps(gio.pair_to_json(pair, point)))
    result = runner.invoke(main, ["verify", str(pair_file)])
    assert result.exit_code == 1
    checks = {c["name"]: c for c in json.loads(result.stdout)["checks"]}
    skew = "EdgesDisjoint: edges 0,1 are skew"
    for name in BATTERY[:-1]:
        assert checks[name] == {"name": name, "ok": False, "detail": skew}
    assert checks["lift_section_round_trip"] == {
        "name": "lift_section_round_trip", "ok": False,
        "detail": "NoCommonVertex: connector line 0 misses the given vertex"}


def test_verify_gives_every_check_on_coincident_edges_one_detail(runner, tmp_path):
    # edges A_0A_1 and B_0B_1 of two tetrahedra of PG(3, 5) on the line
    # x_2 = x_3 = 0; in PG(2, q) they would be a shared face
    field = GF(5)
    a = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    b = [(1, 1, 0, 0), (1, 2, 0, 0), (1, 0, 1, 1), (0, 1, 2, 1)]
    doc = {"n": 3, "field": gio.field_to_json(field), "A": a, "B": b,
           "vertex": [1, 1, 1, 1]}
    pair_file = tmp_path / "pair.json"
    pair_file.write_text(json.dumps(doc))
    result = runner.invoke(main, ["verify", str(pair_file)])
    assert result.exit_code == 1
    checks = {c["name"]: c for c in json.loads(result.stdout)["checks"]}
    same = "EdgesDisjoint: edges 0,1 are the same line"
    for name in BATTERY[:-1]:
        assert checks[name] == {"name": name, "ok": False, "detail": same}


def test_verify_passing_report_has_no_detail(runner, tmp_path):
    pair, vertex = extract_perspective_pair(sectioned_config(3, GF(5)), 1, 2)
    pair_file = tmp_path / "pair.json"
    pair_file.write_text(gio.dumps(gio.pair_to_json(pair, vertex)))
    result = runner.invoke(main, ["verify", str(pair_file)])
    assert result.exit_code == 0
    doc = json.loads(result.stdout)
    assert doc["checks"] == [{"name": name, "ok": True} for name in BATTERY]


def _battery_meets(monkeypatch, n, q):
    """The meets the battery of a seeded pair of PG(n, q) makes, once every
    check has passed."""
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
    return calls


@pytest.mark.parametrize("n,q", [(4, 5), (8, 11)])
def test_pair_battery_meets_once_per_index_subset(monkeypatch, n, q):
    calls = _battery_meets(monkeypatch, n, q)
    subsets = 2 ** (n + 1) - (n + 1) - 2   # index subsets of size 2..n
    connectors = 2                          # find_vertex, again in the Conway lift
    lifts = 2 + (n + 1)                     # Conway lift; lift_to_arc, one per point
    sections = comb(n + 3, 2)               # section of the lifted arc
    assert len(calls) <= subsets + connectors + lifts + sections
    if n == 8:
        assert len(calls) <= 570


@pytest.mark.parametrize("n,q,meets", [(4, 5, 19), (8, 11, 49)])
def test_pair_battery_meets_only_edges_connectors_and_lifts(monkeypatch, n, q, meets):
    # the t-space and face checks read tspace_verdicts, found in the frame
    # of A with no meet: what is left is the C(n+1, 2) edges, 2 connectors,
    # 2 meets in the Conway lift and one per point in the lift to an arc
    calls = _battery_meets(monkeypatch, n, q)
    assert len(calls) == comb(n + 1, 2) + 2 + 2 + (n + 1) == meets


# -- the process: `python -m desarc` ends through desarc.__main__.run --

_SRC = Path(__file__).resolve().parent.parent / "src"


def _process(args, cwd, stdout=subprocess.PIPE, **env):
    """Run `python -m desarc args` as a process of its own; environment
    variables given as None are unset."""
    environ = dict(os.environ)
    environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_SRC),
                                                          environ.get("PYTHONPATH")]))
    for name, value in env.items():
        if value is None:
            environ.pop(name, None)
        else:
            environ[name] = value
    return subprocess.run([sys.executable, "-m", "desarc", *args], cwd=cwd, env=environ,
                          stdin=subprocess.DEVNULL, stdout=stdout, stderr=subprocess.PIPE,
                          timeout=120)


_ENUMERATE_SECONDS = re.compile(rb", \d+\.\d+s\)$", re.MULTILINE)


@pytest.mark.parametrize("args,code", [
    (["demo", "--n", "3", "--p", "5"], 0),
    (["verify", "PERTURBED"], 1),
    (["demo", "--n", "2", "--p", "5", "--k", "2", "--modulus", "x"], 2),
    (["demo", "--n", "2", "--p", "2", "--k", "7", "--modulus", "1,1,0,1,1,1,1,1"], 2),
    (["enumerate", "--kind", "frames", "--n", "2", "--p", "3"], 0),
    (["lift", "--help"], 0),
], ids=["demo", "verify-fails", "usage-error", "geometry-error", "enumerate", "help"])
def test_a_process_gives_the_bytes_and_code_of_cli_main(runner, tmp_path, monkeypatch,
                                                        args, code):
    # the process skips the interpreter's teardown; what it writes and the
    # code it exits with are those of cli.main run in-process
    monkeypatch.setenv("COLUMNS", "80")     # the width of --help in both
    (tmp_path / "perturbed.json").write_text(
        gio.dumps(gio.config_to_json(perturbed_section())))
    args = [str(tmp_path / "perturbed.json") if a == "PERTURBED" else a for a in args]
    proc = _process(args, tmp_path)
    result = runner.invoke(main, args)
    assert (proc.returncode, result.exit_code) == (code, code)
    assert proc.stdout == result.stdout_bytes
    assert (_ENUMERATE_SECONDS.sub(b")", proc.stderr)
            == _ENUMERATE_SECONDS.sub(b")", result.stderr_bytes))
    assert b"Traceback" not in proc.stderr
    if args[0] == "demo" and code == 0:
        out = tmp_path / "demo.json"
        assert runner.invoke(main, [*args, "--out", str(out)]).exit_code == 0
        assert proc.stdout == out.read_bytes()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("args,unbuffered", [
    pytest.param(args, unbuffered, id=f"{name}{mode}")
    for name, args in [("", ["demo", "--n", "3", "--p", "5"]), ("help-", ["--help"]),
                       ("lift-help-", ["lift", "--help"])]
    for mode, unbuffered in [("buffered", None), ("unbuffered", "1")]])
def test_a_failed_write_to_stdout_exits_2(tmp_path, args, unbuffered):
    # every write to /dev/full fails with ENOSPC; with a buffered stdout the
    # interpreter would retry the bytes at exit, and exit 120, and with an
    # unbuffered one argparse would drop the failed write of a help text
    with open("/dev/full", "w") as full:
        proc = _process(args, tmp_path, stdout=full, PYTHONUNBUFFERED=unbuffered)
    assert proc.returncode == 2
    assert proc.stderr.decode() == (f"Error: cannot write standard output: "
                                    f"{os.strerror(errno.ENOSPC)}\n")


def _run_exiting_with(monkeypatch, raised):
    """desarc.__main__.run over a main that raises `raised`, or returns if
    it is None; the codes it ends the process with."""
    from desarc import __main__ as entry

    def command():
        if raised is not None:
            raise raised

    ended = []
    monkeypatch.setattr(entry, "main", command)
    monkeypatch.setattr(entry.os, "_exit", ended.append)
    entry.run()
    return ended


@pytest.mark.parametrize("raised,code,printed", [
    (None, 0, ""), (SystemExit(), 0, ""), (SystemExit(0), 0, ""), (SystemExit(1), 1, ""),
    (SystemExit(2), 2, ""), (SystemExit(True), 1, ""),
    (SystemExit("no such thing"), 1, "no such thing\n"),
], ids=repr)
def test_run_ends_with_the_code_the_interpreter_gives(monkeypatch, capsys, raised, code,
                                                      printed):
    # cli.main returns (None) or raises SystemExit
    assert _run_exiting_with(monkeypatch, raised) == [code]
    assert capsys.readouterr() == ("", printed)


def test_run_lets_any_other_exception_propagate(monkeypatch):
    with pytest.raises(KeyError, match="x"):
        _run_exiting_with(monkeypatch, KeyError("x"))


class _Full(io.StringIO):
    def flush(self):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("raised,code,reported", [
    (None, 2, True), (SystemExit(0), 2, True), (SystemExit(1), 1, False),
    (SystemExit(2), 2, False),
], ids=repr)
def test_run_reports_a_stdout_it_cannot_flush_after_a_success(monkeypatch, raised, code,
                                                             reported):
    # a failed command has reported why on stderr already and keeps its code
    err = io.StringIO()
    monkeypatch.setattr(sys, "stdout", _Full())
    monkeypatch.setattr(sys, "stderr", err)
    assert _run_exiting_with(monkeypatch, raised) == [code]
    message = f"Error: cannot write standard output: {os.strerror(errno.ENOSPC)}\n"
    assert err.getvalue() == (message if reported else "")
