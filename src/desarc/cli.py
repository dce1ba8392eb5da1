"""Command-line interface: construct, verify, lift, enumerate, export.

Exit codes: 0 all checks passed, 1 a verification failed, 2 usage or
geometry error.  With the same flags and the same seed the emitted files are
byte-identical; wall-clock timings go to stderr only.

Each command is a process of its own, and most of a short command's time is
start-up, so this module imports only what every command needs (`io`,
`projlin`, `field`, `errors`) and parses the command line with the standard
library's `argparse`.  Each command imports the rest inside itself: `lift`,
`section`, `export` and `verify` load `desargues` and `arcs` (through the
function they call or the file loader), `demo` and `verify` of a
configuration also `configuration`, and `enumerate` loads `enumeration`,
which loads `desargues` and `arcs` only for a sectioned-config job.  So a
frames or arcs job compiles neither.

Each command is a plain function that `main.command` registers with its
arguments; `main` builds one argparse subparser per command and calls
`main.commands[name].callback` with the parsed values.  A command raises
and `main` alone turns the error into exit 2: a usage error prints
`Error: <message>` and a geometry error `error: <Type>: <message>` on
stderr.  Every input file goes through `_load`, which names the path when
it cannot be read or parsed, or holds a kind the command does not take,
and every document through `_emit`, which flushes stdout, so a document
that cannot be written is a usage error too.  So is a `--help` text:
`_Parser.print_help` writes it through `_emit`, where argparse would drop
the failed write.

`main` exits through SystemExit, in-process as well (the tests' CliRunner
and the benchmark's traced run call it so).  A `desarc` or `python -m
desarc` process runs it through `desarc.__main__.run`, which flushes the
standard streams and ends the process with `os._exit` and the same code,
skipping the interpreter's teardown and with it any `atexit` handler.
"""

from __future__ import annotations

import argparse
import random
import sys
from math import comb

from . import io as gio
from .errors import DEFAULT_BUDGET, GeometryError
from .field import GF
from .io import dumps


class UsageError(Exception):
    """A command line the program cannot run: `Error: <message>` on
    stderr and exit 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)

    def print_help(self, file=None):
        """Write the help to stdout as `_emit` writes a document, so a help
        text that stdout cannot take is a usage error; argparse's own write
        drops the failure."""
        if file is None:
            _emit(self.format_help(), None)
        else:
            super().print_help(file)


class _Command:
    def __init__(self, callback, arguments, help):
        self.callback = callback
        self.arguments = arguments
        self.help = help


class _Group:
    """The `desarc` program: a set of named commands.

    `commands[name].callback` is looked up on every call, so a caller may
    replace it (the benchmark's span recorder wraps it there)."""

    def __init__(self, name: str, help: str):
        self.name = name
        self.help = help
        self.commands = {}

    def command(self, name: str, *arguments):
        """Register a function as the command `name`; each argument is an
        `_arg(...)` spec, and the function is called with the parsed values
        as keywords."""
        def register(fn):
            self.commands[name] = _Command(fn, arguments, fn.__doc__)
            return fn
        return register

    def _parser(self, prog: str):
        parser = _Parser(prog=prog, description=self.help, add_help=False,
                         allow_abbrev=False)
        parser.add_argument("--help", action="help", help="Show this message and exit.")
        sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
        for name, cmd in self.commands.items():
            # the options are listed under --help, not in the usage line
            files = [kwargs["metavar"] for flags, kwargs in cmd.arguments
                     if not flags[0].startswith("-")]
            cmd_parser = sub.add_parser(name, usage=" ".join(["%(prog)s [OPTIONS]", *files]),
                                        help=cmd.help, description=cmd.help,
                                        add_help=False, allow_abbrev=False)
            cmd_parser.add_argument("--help", action="help",
                                    help="Show this message and exit.")
            for flags, kwargs in cmd.arguments:
                cmd_parser.add_argument(*flags, **kwargs)
        return parser

    def main(self, args=None, prog_name=None, standalone_mode=True):
        """Run the command line `args` (default: sys.argv[1:]).

        A usage error prints `Error: <message>` and a geometry error
        `error: <Type>: <message>` on stderr; each exits 2 through
        SystemExit.  `standalone_mode` is accepted for callers written
        against click's `Command.main`, and changes nothing: every outcome
        is an exit code either way."""
        try:
            values = vars(self._parser(prog_name or self.name).parse_args(args))
            self.commands[values.pop("command")].callback(**values)
        except UsageError as exc:
            print(f"Error: {exc}", file=sys.stderr)
            sys.exit(2)
        except GeometryError as exc:
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            sys.exit(2)

    __call__ = main


def _arg(*flags, **kwargs):
    """One argument of a command, as `argparse.add_argument` takes it."""
    return flags, kwargs


def _natural(text: str) -> int:
    """An integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is not in the range x>=0")
    return value


def _field_from_flags(p: int, k: int, modulus):
    try:
        mod = [int(x) for x in modulus.split(",")] if modulus else None
    except ValueError:
        raise UsageError(
            f"--modulus must be comma-separated integers, got {modulus!r}") from None
    return GF(p, k, mod)


_KIND_NAMES = {"arc": "an arc", "config": "a configuration", "pair": "a pair"}


def _load(path: str, *kinds):
    """Read a geometry file as (kind, object), for one of `kinds`; a file
    that cannot be read or parsed, or holds another kind, is a usage
    error."""
    try:
        with open(path) as fh:
            text = fh.read()
        kind, obj = gio.load_geometry(text)
    except GeometryError:
        raise
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from exc
    except (ValueError, KeyError, TypeError) as exc:
        # a file that is not UTF-8 fails here too (UnicodeDecodeError)
        raise UsageError(f"cannot parse {path}: {exc}") from exc
    if kind not in kinds:
        raise UsageError(f"{path} holds {_KIND_NAMES[kind]}, not "
                         + " or ".join(_KIND_NAMES[k] for k in kinds))
    return kind, obj


def _emit(text: str, out):
    """Write a command's document to `out`, or to stdout (flushed, so a
    stream that cannot take it fails here); either failure is a usage
    error."""
    try:
        if out:
            with open(out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        raise UsageError(f"cannot write {out or 'standard output'}: {exc.strerror}") from exc


_FIELD_ARGUMENTS = (
    _arg("--n", type=int, required=True, help="projective dimension"),
    _arg("--p", type=int, required=True, help="field characteristic"),
    _arg("--k", type=int, default=1, help="field extension degree [default: %(default)s]"),
    _arg("--modulus", help="comma-separated modulus coefficients, constant first"),
)


main = _Group("desarc", "Exact constructions and checks in PG(n, q): arc sections, "
                         "simplexes in perspective, configuration analysis, enumeration.")


@main.command(
    "demo", *_FIELD_ARGUMENTS,
    _arg("--seed", type=int, help="randomize the arc with this seed (default: canonical arc)"),
    _arg("--out", help="write the report to this path"))
def demo(n, p, k, modulus, seed, out):
    """Build a sectioned configuration and sweep all vertices."""
    from .configuration import vertex_sweep
    from .desargues import sectioned_config
    field = _field_from_flags(p, k, modulus)
    rng = random.Random(seed) if seed is not None else None
    config = sectioned_config(n, field, rng)
    report = vertex_sweep(config)
    lhs, parts = report.identity
    doc = {
        "configuration": gio.config_to_json(config),
        "report": {
            "n": n,
            "q": field.q,
            "point_total": report.point_total,
            "vertices_total": report.total,
            "vertices_passed": report.passed,
            "identity": {"total": lhs, "simplex_points": parts[0],
                         "vertex": parts[1], "edge_intersections": parts[2]},
            "entries": [{"label": list(e.label), "ok": e.ok}
                        for e in report.entries],
        },
    }
    _emit(dumps(doc), out)
    print(f"{report.point_total} points, {report.passed}/{report.total} vertices pass, "
          f"identity {lhs} = {parts[0]}+{parts[1]}+{parts[2]}", file=sys.stderr)
    sys.exit(0 if report.all_ok else 1)


@main.command(
    "section",
    _arg("arc_file", metavar="ARC_FILE"),
    _arg("--out", help="write the configuration to this path"))
def section(arc_file, out):
    """Section an arc file by the last-coordinate hyperplane."""
    from .desargues import section_arc
    _, arc = _load(arc_file, "arc")
    config = section_arc(arc)
    _emit(dumps(gio.config_to_json(config)), out)


@main.command(
    "lift",
    _arg("pair_file", metavar="PAIR_FILE"),
    _arg("--seed", type=int, help="randomize the free choices in the lift"),
    _arg("--out", help="write the arc to this path"))
def lift(pair_file, seed, out):
    """Lift a perspective pair to an arc one dimension up."""
    from .desargues import lift_to_arc
    _, (pair, vertex) = _load(pair_file, "pair")
    rng = random.Random(seed) if seed is not None else None
    arc = lift_to_arc(pair, vertex, rng)
    _emit(dumps(gio.arc_to_json(arc)), out)


def _detail(exc: GeometryError) -> str:
    return f"{type(exc).__name__}: {exc}"


def _pair_battery(pair, vertex):
    """Theorem checks for one pair, as (name, ok, detail) entries.

    Each check runs on its own: a typed geometry error fails that check,
    with the error type and message as its detail, and the other checks
    still run.  The pair keeps its edge meets, so a check that needs
    them raises the same error as every other such check."""
    from .desargues import (
        _anchor_off,
        axis_hyperplane,
        conway_lift_axis,
        edge_intersections,
        find_vertex,
        lift_round_trips,
        tspace_verdicts,
    )

    n = pair.n

    def carries_ok():
        axis = axis_hyperplane(pair)
        return all(axis.contains_point(pt) for pt in edge_intersections(pair).values())

    verdicts = {}

    def meets_in_axis(sizes):
        # the verdict of each index-set size, found once in the frame of A;
        # face k spans the n indices without k, so the face meets are size n
        axis = axis_hyperplane(pair)
        if not verdicts:
            verdicts.update(tspace_verdicts(pair, axis))
        return all(verdicts[k] for k in sizes)

    w = _anchor_off(pair.field, n + 1)
    battery = [
        ("vertex_concurrence", lambda: find_vertex(pair) == vertex),
        ("edge_intersections_distinct",
         lambda: len(set(edge_intersections(pair).values())) == comb(n + 1, 2)),
        ("edge_intersections_disjoint",
         lambda: all(pt not in pair.a and pt not in pair.b and pt != vertex
                     for pt in edge_intersections(pair).values())),
        ("axis_is_hyperplane", lambda: axis_hyperplane(pair).dim == n - 1),
        ("axis_carries_intersections", carries_ok),
        ("tspace_meets", lambda: meets_in_axis(range(2, n + 1))),
        ("face_meets_in_axis", lambda: meets_in_axis((n,))),
        # lift-and-project agreement
        ("lift_project_axis",
         lambda: conway_lift_axis(pair, w) == axis_hyperplane(pair)),
        # round trip through the arc
        ("lift_section_round_trip", lambda: lift_round_trips(pair, vertex)),
    ]
    checks = []
    for name, check in battery:
        try:
            checks.append((name, check(), None))
        except GeometryError as exc:
            checks.append((name, False, _detail(exc)))
    return checks


def _verify_config(config):
    from .configuration import (
        substructure_counts,
        triple_perspective_axis,
        verify_symbol_incidence,
        vertex_sweep,
    )
    from .desargues import extract_perspective_pair

    # the pair battery runs first, so its pair is freed before the checks
    # below fill the configuration's span map
    try:
        pair, vertex = extract_perspective_pair(
            config, config.symbols[0], config.symbols[1])
    except GeometryError as exc:
        battery = [(f"pair_extraction_{type(exc).__name__}", False, _detail(exc))]
    else:
        battery = _pair_battery(pair, vertex)
        del pair
    checks = [("symbol_incidence", verify_symbol_incidence(config), None)]
    counts = substructure_counts(config)
    s = len(config.symbols)
    expected = {k - 2: comb(s, k) for k in range(2, min(config.n + 1, s - 1) + 1)}
    checks.append(("substructure_counts", counts == expected, None))
    report = vertex_sweep(config)
    failed = [e for e in report.entries if not e.ok]
    checks.append(("vertex_sweep", not failed, f"{len(failed)} of {report.total} labels "
                   f"fail, first {failed[0].label}: {failed[0].detail}" if failed else None))
    if len(config.symbols) >= 5:
        try:
            triple_perspective_axis(config)
            checks.append(("triple_perspective_axis", True, None))
        except GeometryError as exc:
            checks.append(("triple_perspective_axis", False, _detail(exc)))
    return checks + battery


@main.command(
    "verify",
    _arg("input_file", metavar="INPUT_FILE"),
    _arg("--out", help="write the report to this path"))
def verify(input_file, out):
    """Run the full theorem battery on a configuration or pair file."""
    kind, obj = _load(input_file, "config", "pair")
    checks = _verify_config(obj) if kind == "config" else _pair_battery(*obj)
    entries = []
    for name, ok, detail in checks:
        entry = {"name": name, "ok": ok}
        if detail is not None:
            entry["detail"] = detail
        entries.append(entry)
    doc = {"checks": entries, "all_ok": all(ok for _, ok, _ in checks)}
    _emit(dumps(doc), out)
    for name, ok, detail in checks:
        line = f"{'PASS' if ok else 'FAIL'}  {name}"
        print(line if detail is None else f"{line}  ({detail})", file=sys.stderr)
    sys.exit(0 if doc["all_ok"] else 1)


@main.command(
    "enumerate", *_FIELD_ARGUMENTS,
    _arg("--kind", choices=["arcs", "frames", "sectioned-configs"], required=True),
    _arg("--m", type=int, help="tuple size for arc jobs"),
    _arg("--avoid", action="store_true",
        help="only points off the last-coordinate hyperplane (arc jobs)"),
    _arg("--budget", type=_natural, default=DEFAULT_BUDGET,
        help="node budget for the search [default: %(default)s]"),
    _arg("--out", help="write the counts to this path"))
def enumerate_cmd(n, p, k, modulus, kind, m, avoid, budget, out):
    """Count arcs, frames, or sectioned configurations exactly."""
    from .enumeration import run_job
    field = _field_from_flags(p, k, modulus)
    result = run_job(kind, n, field, m=m, avoid=avoid, budget=budget)
    doc = {
        "job": {"kind": kind, "n": n, "field": gio.field_to_json(field), "m": m,
                "avoid_hyperplane": avoid or kind == "sectioned-configs", "budget": budget},
        "raw_count": result.raw_count,
        "unordered_count": result.unordered_count,
        "nodes": result.nodes,
    }
    _emit(dumps(doc), out)
    print(f"count {result.raw_count} ({result.nodes} nodes, {result.joins} spans "
          f"joined, {result.wall_seconds:.3f}s)", file=sys.stderr)


@main.command(
    "export",
    _arg("config_file", metavar="CONFIG_FILE"),
    _arg("--format", dest="fmt", choices=["csv", "json"], default="csv",
        help="matrix format [default: %(default)s]"),
    _arg("--out", help="write the matrix to this path"))
def export(config_file, fmt, out):
    """Export the point-line incidence matrix of a configuration."""
    _, config = _load(config_file, "config")
    if fmt == "csv":
        text = gio.incidence_csv(config)
    else:
        rows = gio.incidence_rows(config)
        text = dumps({"header": rows[0], "rows": rows[1:]})
    _emit(text, out)


if __name__ == "__main__":
    main()
