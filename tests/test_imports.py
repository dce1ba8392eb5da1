"""Which desarc modules a command's process loads.

Each CLI command is a process of its own, so a module it imports but does
not use is start-up time.  The lists come from `python -X importtime`, which
prints one line per module as its import finishes."""

import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from desarc import io as gio
from desarc.desargues import lift_to_arc, random_perspective_pair, section_arc
from desarc.field import GF

SRC = Path(__file__).resolve().parent.parent / "src"
_IMPORTED = re.compile(r"^import time:\s+\d+ \|\s+\d+ \| *(\S+)$")

COMMANDS = {
    "lift": ["lift", "pair.json", "--out", "lifted.json"],
    "section": ["section", "arc.json", "--out", "sectioned.json"],
    "export": ["export", "config.json", "--out", "incidence.csv"],
    "verify-pair": ["verify", "pair.json", "--out", "verify-pair.json"],
    "verify-config": ["verify", "config.json", "--out", "verify-config.json"],
    "demo": ["demo", "--n", "2", "--p", "3", "--out", "demo.json"],
    "enumerate": ["enumerate", "--kind", "frames", "--n", "2", "--p", "3",
                  "--out", "frames.json"],
    "enumerate-arcs": ["enumerate", "--kind", "arcs", "--n", "2", "--p", "3", "--m", "5",
                       "--out", "arcs.json"],
    "enumerate-sectioned": ["enumerate", "--kind", "sectioned-configs", "--n", "2",
                            "--p", "3", "--out", "sectioned.json"],
}
PAIR_COMMANDS = ("lift", "section", "export", "verify-pair")


def _imported(args, cwd):
    """Module names in the order their imports finished."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], cwd=cwd, env=env,
                          stdin=subprocess.DEVNULL, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return [m.group(1) for m in map(_IMPORTED.match, proc.stderr.splitlines()) if m]


@pytest.fixture(scope="module")
def imported(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("commands")
    pair, vertex = random_perspective_pair(2, GF(5), random.Random(1))
    arc = lift_to_arc(pair, vertex, random.Random(1))
    (workdir / "pair.json").write_text(gio.dumps(gio.pair_to_json(pair, vertex)))
    (workdir / "arc.json").write_text(gio.dumps(gio.arc_to_json(arc)))
    (workdir / "config.json").write_text(gio.dumps(gio.config_to_json(section_arc(arc))))
    return {name: _imported(["-m", "desarc", *args], workdir)
            for name, args in COMMANDS.items()}


def test_importing_the_package_loads_no_submodule(tmp_path):
    names = _imported(["-c", "import desarc"], tmp_path)
    assert "desarc" in names
    assert [name for name in names if name.startswith("desarc.")] == []


@pytest.mark.parametrize("command", PAIR_COMMANDS)
def test_pair_and_file_commands_load_no_configuration_or_enumeration(imported, command):
    names = imported[command]
    assert "desarc.cli" in names and "desarc.desargues" in names
    assert "desarc.configuration" not in names
    assert "desarc.enumeration" not in names


def test_enumerate_loads_no_configuration(imported):
    assert "desarc.enumeration" in imported["enumerate"]
    assert "desarc.configuration" not in imported["enumerate"]


@pytest.mark.parametrize("command", ["enumerate", "enumerate-arcs"])
def test_frames_and_arcs_jobs_load_no_desargues_or_arcs(imported, command):
    # only the orbit check of a sectioned-config job reads `desargues`
    names = imported[command]
    assert "desarc.enumeration" in names and "desarc.io" in names
    assert "desarc.desargues" not in names
    assert "desarc.arcs" not in names
    # nor, in a plane, the count of a 5-arc search of PG(3, q)
    assert "desarc.solid" not in names


def test_a_sectioned_configs_job_loads_desargues_and_arcs(imported):
    names = imported["enumerate-sectioned"]
    assert "desarc.desargues" in names and "desarc.arcs" in names
    assert "desarc.configuration" not in names
    # at n = 2 it is a 5-arc search of PG(3, q), counted by planes
    assert "desarc.solid" in names


@pytest.mark.parametrize("command", ["demo", "verify-config"])
def test_configuration_commands_load_no_enumeration(imported, command):
    assert "desarc.configuration" in imported[command]
    assert "desarc.enumeration" not in imported[command]


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_no_command_imports_click(imported, command):
    # the CLI parses with argparse; importing click cost about 39 ms a process
    names = imported[command]
    assert [name for name in names if name == "click" or name.startswith("click.")] == []


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_no_command_imports_dataclasses_inspect_or_csv(imported, command):
    # the records are named tuples: `dataclasses` pulls in `inspect`, `ast`,
    # `dis` and `tokenize`, 7-12 ms a process; `csv` cost about 1 ms
    assert {"dataclasses", "inspect", "csv"}.isdisjoint(imported[command])
