"""Command-line interface: exit codes, file artifacts, determinism."""

import json

import pytest
from click.testing import CliRunner

from desarc import io as gio
from desarc.cli import main
from desarc.desargues import extract_perspective_pair, sectioned_config
from desarc.field import GF


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


def test_usage_error_exits_2(runner):
    result = runner.invoke(main, ["demo", "--p", "5"])  # missing --n
    assert result.exit_code == 2


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


def test_enumerate_frames(runner):
    result = runner.invoke(main, ["enumerate", "--kind", "frames",
                                  "--n", "2", "--p", "3"])
    assert result.exit_code == 0
    doc = json.loads(result.stdout)
    assert doc["raw_count"] == 5616


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
