"""Workloads of the desarc benchmark: CLI command chains made from a seed,
and the check every command's output must pass.

A workload is a list of `Command`s.  Each names its time class (the
end-to-end metric its wall time is summed into), the CLI arguments, the
`--out` file it writes, and a check that reads the exit code, stderr and
that file.  Counts are checked against closed-form oracles written here
from integer arithmetic alone; they share no code with the search.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass, replace
from itertools import combinations
from math import comb
from typing import Callable

# Field specs (p, k, modulus) per order.  The five moduli given explicitly
# are irreducible; the others are the package's built-in defaults.
FIELDS = {
    3: (3, 1, None),
    5: (5, 1, None),
    7: (7, 1, None),
    8: (2, 3, None),
    9: (3, 2, None),
    11: (11, 1, None),
    27: (3, 3, None),
    81: (3, 4, (2, 1, 0, 0, 1)),
    169: (13, 2, (11, 0, 1)),
    256: (2, 8, (1, 0, 1, 1, 1, 0, 0, 0, 1)),
    4096: (2, 12, (1, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1)),
    65536: (2, 16, (1, 0, 1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1)),
}

# Time classes: each command's wall time is summed into one of these.
CLASSES = ("demo", "verify", "roundtrip", "enumerate")


@dataclass(frozen=True)
class Command:
    key: str            # stable name within the workload, used for pins
    cls: str            # a member of CLASSES, or "probe" for known defects
    args: tuple         # arguments after `desarc`; files are work-dir names
    out: str            # the --out file name
    check: Callable     # (rc, stderr, out_text) -> None, or the reason it failed
    pinned: bool        # whether the --out bytes are pinned by sha256
    reps: int = 1       # back-to-back runs per end-to-end pass; see REPS


def field_flags(q: int):
    p, k, mod = FIELDS[q]
    flags = ["--p", str(p)]
    if k > 1:
        flags += ["--k", str(k)]
    if mod is not None:
        flags += ["--modulus", ",".join(str(c) for c in mod)]
    return flags


# -- oracles ------------------------------------------------------------------

def pgl_order(n: int, q: int) -> int:
    """|PGL(n+1, q)|, the number of ordered frames of PG(n, q)."""
    total = 1
    for i in range(n + 1):
        total *= q ** (n + 1) - q ** i
    return total // (q - 1)


def sectioned_oracle(n: int, q: int) -> int:
    """Ordered (n+3)-arcs of PG(n+1, q) with no point on a fixed hyperplane.

    PGL(n+2, q) acts regularly on ordered frames, so counting (frame,
    hyperplane) pairs both ways gives N = |PGL(n+2, q)| * a / theta, where
    theta counts hyperplanes and a counts hyperplanes missing a fixed frame.
    """
    theta = (q ** (n + 2) - 1) // (q - 1)
    big_a = (q - 1) ** (n + 2)
    z = (big_a + (-1) ** (n + 2) * (q - 1)) // q
    a = (big_a - z) // (q - 1)
    return pgl_order(n + 1, q) * a // theta


# -- checks ---------------------------------------------------------------------

def _json(text):
    try:
        return json.loads(text), None
    except (TypeError, ValueError) as exc:
        return None, f"unreadable output: {exc}"


def _exit0(rc, stderr):
    if rc != 0:
        last = stderr.strip().splitlines()[-1:] or [""]
        return f"exit {rc}: {last[0][:200]}"
    return None


def check_demo(n):
    def check(rc, stderr, text):
        bad = _exit0(rc, stderr)
        if bad:
            return bad
        doc, bad = _json(text)
        if bad:
            return bad
        rep = doc["report"]
        want = comb(n + 3, 2)
        if not (rep["point_total"] == rep["vertices_total"]
                == rep["vertices_passed"] == want):
            return (f"{rep['vertices_passed']}/{rep['vertices_total']} vertices "
                    f"pass, {want} expected")
        if len(doc["configuration"]["points"]) != want:
            return "configuration has the wrong number of points"
        return None
    return check


def check_verify(rc, stderr, text):
    bad = _exit0(rc, stderr)
    if bad:
        return bad
    doc, bad = _json(text)
    if bad:
        return bad
    failed = [c["name"] for c in doc["checks"] if not c["ok"]]
    if not doc["all_ok"] or failed or not doc["checks"]:
        return f"checks failed: {failed}"
    return None


def check_export(n):
    """Shape of the incidence matrix, and a 1 wherever a point's label lies
    inside a line's symbol triple."""
    def check(rc, stderr, text):
        bad = _exit0(rc, stderr)
        if bad:
            return bad
        rows = list(csv.reader(io.StringIO(text)))
        symbols = range(1, n + 4)
        triples = ["-".join(map(str, t)) for t in combinations(symbols, 3)]
        labels = ["-".join(map(str, pr)) for pr in combinations(symbols, 2)]
        if rows[0] != ["point"] + triples or [r[0] for r in rows[1:]] != labels:
            return "incidence matrix has the wrong header or row labels"
        for r in rows[1:]:
            pr = set(r[0].split("-"))
            for t, cell in zip(triples, r[1:]):
                if cell not in ("0", "1") or (pr <= set(t.split("-")) and cell != "1"):
                    return f"point {r[0]} has entry {cell!r} on line {t}"
        return None
    return check


def check_lift(n):
    def check(rc, stderr, text):
        bad = _exit0(rc, stderr)
        if bad:
            return bad
        doc, bad = _json(text)
        if bad:
            return bad
        if doc["n"] != n + 1 or len(doc["points"]) != n + 3:
            return "lifted arc has the wrong dimension or size"
        return None
    return check


def check_round_trip(pair_doc):
    """section(lift(pair)) must reproduce A, B and the vertex exactly."""
    n = pair_doc["n"]

    def check(rc, stderr, text):
        bad = _exit0(rc, stderr)
        if bad:
            return bad
        doc, bad = _json(text)
        if bad:
            return bad
        table = {tuple(p["label"]): p["coords"] for p in doc["points"]}
        ok = (all(table.get((1, i + 3)) == pair_doc["A"][i] for i in range(n + 1))
              and all(table.get((2, i + 3)) == pair_doc["B"][i] for i in range(n + 1))
              and table.get((1, 2)) == pair_doc["vertex"])
        return None if ok else "section of the lift does not reproduce the pair"
    return check


def check_count(oracle):
    def check(rc, stderr, text):
        bad = _exit0(rc, stderr)
        if bad:
            return bad
        doc, bad = _json(text)
        if bad:
            return bad
        if doc["raw_count"] != oracle:
            return f"count {doc['raw_count']}, oracle {oracle}"
        return None
    return check


def check_invalid_field(rc, stderr, text):
    if rc == 2 and "InvalidField" in stderr:
        return None
    return f"exit {rc} without InvalidField, a reducible modulus was accepted"


def check_count_or_precondition(oracle):
    """A count equal to the oracle, or exit 2 naming a precondition error
    rather than the internal-consistency error DegenerateSection."""
    counted = check_count(oracle)

    def check(rc, stderr, text):
        if rc == 2 and "error: " in stderr and "DegenerateSection" not in stderr:
            return None
        return counted(rc, stderr, text)
    return check


# -- workloads --------------------------------------------------------------------

# Runs per end-to-end pass of the commands of a short time class.  Host
# noise on a small shared machine comes in bursts of a second or two, so a
# class needs several seconds of samples per run for its median to settle;
# these give every class of every workload about 4 s or more per run.
REPS = {"geometry-prime": {"enumerate": 2},
        "geometry-ext": {"enumerate": 6},
        "enumerate": {"demo": 4, "verify": 3, "roundtrip": 3}}

GEOMETRY_PRIME = ((3, 5), (5, 7), (8, 11))
GEOMETRY_EXT = ((5, 9), (5, 27), (4, 81), (3, 256), (3, 4096))
DEMO_ONLY_EXT = (2, 65536)   # verify here walks a 65537-point line: ~20 s
ENUMERATIONS = (("frames", 2, 7), ("frames", 2, 8), ("sectioned-configs", 2, 3))


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple     # Command, in run order
    inputs: dict        # work-dir file name -> text written before the runs
    fields: tuple       # orders q whose fields setup builds


def _rung(n, q, rng, pair_doc, seeded_demo=True):
    """The geometry chain at one (n, q): demo, verify the configuration,
    export it, verify a pair, lift the pair, section the lift.  `lift` runs
    without --seed: its seeded form lists every point of PG(n+1, q).  Without
    `seeded_demo`, demo builds the canonical configuration."""
    tag = f"{n}-{q}"
    seed_flags = ("--seed", str(rng.randrange(10 ** 6))) if seeded_demo else ()
    cfg, pair, arc = f"demo-{tag}.json", f"pair-{tag}.json", f"lift-{tag}.json"
    return [
        Command(f"demo-{tag}", "demo",
                ("demo", "--n", str(n), *field_flags(q), *seed_flags, "--out", cfg),
                cfg, check_demo(n), True),
        Command(f"verify-config-{tag}", "verify",
                ("verify", cfg, "--out", f"verify-config-{tag}.json"),
                f"verify-config-{tag}.json", check_verify, True),
        Command(f"export-{tag}", "roundtrip",
                ("export", cfg, "--out", f"export-{tag}.csv"),
                f"export-{tag}.csv", check_export(n), True),
        Command(f"verify-pair-{tag}", "verify",
                ("verify", pair, "--out", f"verify-pair-{tag}.json"),
                f"verify-pair-{tag}.json", check_verify, True),
        Command(f"lift-{tag}", "roundtrip",
                ("lift", pair, "--out", arc),
                arc, check_lift(n), True),
        Command(f"section-{tag}", "roundtrip",
                ("section", arc, "--out", f"section-{tag}.json"),
                f"section-{tag}.json", check_round_trip(pair_doc), True),
    ]


def _enumerate(kind, n, q, check, cls="enumerate"):
    key = f"{cls}-{kind}-{n}-{q}"
    return Command(key, cls,
                   ("enumerate", "--kind", kind, "--n", str(n), *field_flags(q),
                    "--out", f"{key}.json"),
                   f"{key}.json", check, False)


def build(name: str, seed: int, make_pair) -> Workload:
    """The workload's commands and input files for this seed.

    `make_pair(n, q, rng)` returns the JSON text of a seeded perspective
    pair; the benchmark writes it through the package's own serializer.
    """
    rng = random.Random(f"{name}/{seed}")
    inputs, commands = {}, []

    def rungs(ladder, seeded_demo=True):
        for n, q in ladder:
            text = make_pair(n, q, random.Random(rng.randrange(10 ** 9)))
            inputs[f"pair-{n}-{q}.json"] = text
            commands.extend(_rung(n, q, rng, json.loads(text), seeded_demo))

    if name == "geometry-prime":
        rungs(GEOMETRY_PRIME)
        commands.append(_enumerate("frames", 2, 7, check_count(pgl_order(2, 7))))
        fields = (5, 7, 11)
    elif name == "geometry-ext":
        rungs(GEOMETRY_EXT)
        n, q = DEMO_ONLY_EXT
        out = f"demo-{n}-{q}.json"
        commands.append(Command(
            f"demo-{n}-{q}", "demo",
            ("demo", "--n", str(n), *field_flags(q),
             "--seed", str(rng.randrange(10 ** 6)), "--out", out),
            out, check_demo(n), True))
        commands.append(_enumerate("frames", 1, 169, check_count(pgl_order(1, 169))))
        commands.append(Command(
            "probe-reducible-modulus", "probe",
            ("demo", "--n", "2", "--p", "2", "--k", "7",
             "--modulus", "1,1,0,1,1,1,1,1", "--seed", str(rng.randrange(10 ** 6)),
             "--out", "probe-reducible.json"),
            "probe-reducible.json", check_invalid_field, False))
        fields = (9, 27, 81, 169, 256, 4096, 65536)
    elif name == "enumerate":
        for kind, n, q in ENUMERATIONS:
            oracle = pgl_order(n, q) if kind == "frames" else sectioned_oracle(n, q)
            commands.append(_enumerate(kind, n, q, check_count(oracle)))
        # the canonical configuration keeps this small chain's cost the same
        # on every seed; only its pair is seeded
        rungs(((6, 11),), seeded_demo=False)
        commands.append(_enumerate(
            "sectioned-configs", 1, 3,
            check_count_or_precondition(sectioned_oracle(1, 3)), cls="probe"))
        fields = (7, 8, 3, 11)
    else:
        raise KeyError(name)
    reps = REPS[name]
    commands = [replace(c, reps=reps.get(c.cls, 1)) for c in commands]
    return Workload(name, tuple(commands), inputs, fields)


NAMES = ("geometry-prime", "geometry-ext", "enumerate")
