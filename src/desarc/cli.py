"""Command-line interface: construct, verify, lift, enumerate, export.

Exit codes: 0 all checks passed, 1 a verification failed, 2 usage or
geometry error.  With the same flags and the same seed the emitted files are
byte-identical; wall-clock timings go to stderr only.

Each command is a process of its own, and most of a short command's time is
start-up, so this module imports only what `lift`, `section`, `export` and
`verify` of a pair need (`io`, `desargues`, `arcs`, `projlin`, `field`,
`errors`) and parses the command line with the standard library's
`argparse`.  `demo` and `verify` of a configuration import `configuration`
inside the command, and `enumerate` imports `enumeration`.

Each command is a plain function that `main.command` registers with its
arguments; `main` builds one argparse subparser per command and calls
`main.commands[name].callback` with the parsed values.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from math import comb

from . import io as gio
from .desargues import (
    _anchor_off,
    axis_hyperplane,
    conway_lift_axis,
    edge_intersections,
    extract_perspective_pair,
    find_vertex,
    lift_to_arc,
    random_sectioned_config,
    section_arc,
    sectioned_config,
    tspace_intersections,
)
from .errors import DEFAULT_BUDGET, GeometryError
from .field import GF
from .io import dumps
from .projlin import coordinate_hyperplane


class UsageError(Exception):
    """A command line the program cannot run: `Error: <message>` on
    stderr and exit 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


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

        A usage error exits 2 through SystemExit.  `standalone_mode` is
        accepted for callers written against click's `Command.main`, and
        changes nothing: every outcome is an exit code either way."""
        try:
            values = vars(self._parser(prog_name or self.name).parse_args(args))
            self.commands[values.pop("command")].callback(**values)
        except UsageError as exc:
            print(f"Error: {exc}", file=sys.stderr)
            sys.exit(2)

    __call__ = main


def _arg(*flags, **kwargs):
    """One argument of a command, as `argparse.add_argument` takes it."""
    return flags, kwargs


def _existing_path(path: str) -> str:
    if not os.path.exists(path):
        raise argparse.ArgumentTypeError(f"path {path!r} does not exist")
    return path


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


def _load(path: str):
    """Read and dispatch a geometry file; malformed input is a usage error."""
    with open(path) as fh:
        text = fh.read()
    try:
        return gio.load_geometry(text)
    except GeometryError:
        raise
    except (ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"cannot parse {path}: {exc}") from exc


def _emit(text: str, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fail(exc: GeometryError):
    print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
    sys.exit(2)


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
    try:
        field = _field_from_flags(p, k, modulus)
        if seed is None:
            config = sectioned_config(n, field)
        else:
            config = random_sectioned_config(n, field, random.Random(seed))
        report = vertex_sweep(config)
    except GeometryError as exc:
        _fail(exc)
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
    _arg("arc_file", metavar="ARC_FILE", type=_existing_path),
    _arg("--out", help="write the configuration to this path"))
def section(arc_file, out):
    """Section an arc file by the last-coordinate hyperplane."""
    try:
        kind, obj = _load(arc_file)
        if kind != "arc":
            raise UsageError("the input file does not hold an arc")
        arc = obj
        h = coordinate_hyperplane(arc.field, arc.n, arc.n)
        config = section_arc(arc, h)
    except GeometryError as exc:
        _fail(exc)
    _emit(dumps(gio.config_to_json(config)), out)


@main.command(
    "lift",
    _arg("pair_file", metavar="PAIR_FILE", type=_existing_path),
    _arg("--seed", type=int, help="randomize the free choices in the lift"),
    _arg("--out", help="write the arc to this path"))
def lift(pair_file, seed, out):
    """Lift a perspective pair to an arc one dimension up."""
    try:
        kind, obj = _load(pair_file)
        if kind != "pair":
            raise UsageError("the input file does not hold a pair")
        pair, vertex = obj
        h = coordinate_hyperplane(pair.field, pair.n + 1, pair.n + 1)
        rng = random.Random(seed) if seed is not None else None
        arc = lift_to_arc(pair, vertex, h, rng)
    except GeometryError as exc:
        _fail(exc)
    _emit(dumps(gio.arc_to_json(arc)), out)


def _detail(exc: GeometryError) -> str:
    return f"{type(exc).__name__}: {exc}"


def _pair_battery(pair, vertex):
    """Theorem checks for one pair, as (name, ok, detail) entries.

    Each check runs on its own: a typed geometry error fails that check,
    with the error type and message as its detail, and the other checks
    still run.  The pair keeps its edge meets, so a check that needs
    them raises the same error as every other such check."""
    n = pair.n
    h = coordinate_hyperplane(pair.field, n + 1, n + 1)

    def carries_ok():
        axis = axis_hyperplane(pair)
        return all(axis.contains_point(pt) for pt in edge_intersections(pair).values())

    def tspace_ok():
        axis = axis_hyperplane(pair)
        return all(sub.dim == t - 1 and axis.contains(sub)
                   for t in range(1, n) for sub in tspace_intersections(pair, t))

    def face_meets_ok():
        # face k spans the n-subset of indices without k: the (n-1)-space meets
        axis = axis_hyperplane(pair)
        return all(x.dim == n - 2 and axis.contains(x)
                   for x in tspace_intersections(pair, n - 1))

    def round_trip_ok():
        arc = lift_to_arc(pair, vertex, h)
        config = section_arc(arc, h)
        return (all(config.point(1, i + 3) == pair.a[i] for i in range(n + 1))
                and all(config.point(2, i + 3) == pair.b[i] for i in range(n + 1))
                and config.point(1, 2) == vertex)

    w = _anchor_off(h)
    battery = [
        ("vertex_concurrence", lambda: find_vertex(pair) == vertex),
        ("edge_intersections_distinct",
         lambda: len(set(edge_intersections(pair).values())) == comb(n + 1, 2)),
        ("edge_intersections_disjoint",
         lambda: all(pt not in pair.a and pt not in pair.b and pt != vertex
                     for pt in edge_intersections(pair).values())),
        ("axis_is_hyperplane", lambda: axis_hyperplane(pair).dim == n - 1),
        ("axis_carries_intersections", carries_ok),
        ("tspace_meets", tspace_ok),
        ("face_meets_in_axis", face_meets_ok),
        # lift-and-project agreement
        ("lift_project_axis",
         lambda: conway_lift_axis(pair, h, w) == axis_hyperplane(pair)),
        # round trip through the arc
        ("lift_section_round_trip", round_trip_ok),
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
    _arg("input_file", metavar="INPUT_FILE", type=_existing_path),
    _arg("--out", help="write the report to this path"))
def verify(input_file, out):
    """Run the full theorem battery on a configuration or pair file."""
    try:
        kind, obj = _load(input_file)
        if kind == "config":
            checks = _verify_config(obj)
        elif kind == "pair":
            checks = _pair_battery(*obj)
        else:
            raise UsageError("verify expects a configuration or pair file")
    except GeometryError as exc:
        _fail(exc)
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
    from .enumeration import EnumJob, run_job
    if kind != "arcs":
        for flag, given in (("--m", m is not None), ("--avoid", avoid)):
            if given:
                raise UsageError(f"{flag} applies to --kind arcs only, not {kind}")
    try:
        field = _field_from_flags(p, k, modulus)
        if kind == "sectioned-configs":
            hyper = coordinate_hyperplane(field, n + 1, n + 1)
        elif avoid:
            hyper = coordinate_hyperplane(field, n, n)
        else:
            hyper = None
        job = EnumJob(kind, n, field, m=m, avoid=hyper, budget=budget)
        result = run_job(job)
    except GeometryError as exc:
        _fail(exc)
    doc = {
        "job": {"kind": kind, "n": n, "field": gio.field_to_json(field),
                "m": m, "avoid_hyperplane": hyper is not None, "budget": budget},
        "raw_count": result.raw_count,
        "unordered_count": result.unordered_count,
        "nodes": result.nodes,
    }
    _emit(dumps(doc), out)
    print(f"count {result.raw_count} ({result.nodes} nodes, {result.joins} spans "
          f"joined, {result.wall_seconds:.3f}s)", file=sys.stderr)


@main.command(
    "export",
    _arg("config_file", metavar="CONFIG_FILE", type=_existing_path),
    _arg("--format", dest="fmt", choices=["csv", "json"], default="csv",
        help="matrix format [default: %(default)s]"),
    _arg("--out", help="write the matrix to this path"))
def export(config_file, fmt, out):
    """Export the point-line incidence matrix of a configuration."""
    try:
        kind, obj = _load(config_file)
        if kind != "config":
            raise UsageError("export expects a configuration file")
        if fmt == "csv":
            text = gio.incidence_csv(obj)
        else:
            rows = gio.incidence_rows(obj)
            text = dumps({"header": rows[0], "rows": rows[1:]})
    except GeometryError as exc:
        _fail(exc)
    _emit(text, out)


if __name__ == "__main__":
    main()
