"""JSON and CSV serialization of fields, points, arcs, pairs and
configurations.

Field specs serialize as {"p": ..., "k": ..., "modulus": [...]}; prime-field
coordinates as residue integers, extension-field coordinates as coefficient
arrays (constant term first).  Numbers are read as written: coordinates,
coefficients, labels and "n" are ints, never bools, floats or strings.

`Arc`, `LabeledConfiguration` and `PerspectivePair` are imported by the
loaders that build them (and for type checkers only at module level), so a process that writes only counts and fields
(`enumerate` of frames or arcs) compiles neither `arcs` nor `desargues`.
"""

from __future__ import annotations

import json
from itertools import combinations
from typing import TYPE_CHECKING

from .errors import AmbientMismatch, BadSymbols, InvalidField
from .field import GF
from .projlin import ProjPoint, normalize

if TYPE_CHECKING:
    from .arcs import Arc
    from .desargues import LabeledConfiguration, PerspectivePair


# -- fields -----------------------------------------------------------------

def field_to_json(field: GF) -> dict:
    return {
        "p": field.p,
        "k": field.k,
        "modulus": list(field.modulus) if field.modulus else None,
    }


def field_from_json(data) -> GF:
    return GF(data["p"], data.get("k", 1), data.get("modulus"))


# -- coordinates -------------------------------------------------------------

def coords_to_json(field: GF, coords):
    if field.k == 1:
        return list(coords)
    return [list(field.coeffs(v)) for v in coords]


def coords_from_json(field: GF, data):
    out = []
    for x in data:
        digits = [x] if field.k == 1 else x
        if not (isinstance(digits, list) and len(digits) == field.k
                and all(type(d) is int and 0 <= d < field.p for d in digits)):
            raise InvalidField(f"coordinate {x!r} is not an element of {field}")
        out.append(field.from_coeffs(digits))
    return tuple(out)


def point_to_json(p: ProjPoint):
    return coords_to_json(p.field, p.coords)


def point_from_json(field: GF, data) -> ProjPoint:
    return normalize(field, coords_from_json(field, data))


# -- arcs ---------------------------------------------------------------------

def arc_to_json(arc: Arc) -> dict:
    return {
        "n": arc.n,
        "field": field_to_json(arc.field),
        "points": [point_to_json(p) for p in arc],
    }


def _check_n(data, n: int = None) -> int:
    """The document's "n": an int, and n, the points' dimension, if given."""
    given = data["n"]
    if type(given) is not int:
        raise AmbientMismatch(f"the document gives n = {given!r}, not an int")
    if n is not None and given != n:
        raise AmbientMismatch(f"the document gives n = {given}, "
                              f"but its points lie in PG({n})")
    return given


def arc_from_json(data) -> Arc:
    from .arcs import Arc

    field = field_from_json(data["field"])
    arc = Arc([point_from_json(field, c) for c in data["points"]])
    _check_n(data, arc.n)
    return arc


# -- configurations ---------------------------------------------------------------

def config_to_json(config: LabeledConfiguration) -> dict:
    return {
        "n": config.n,
        "field": field_to_json(config.field),
        "points": [
            {"label": list(lab), "coords": point_to_json(config.point(*lab))}
            for lab in config.labels()
        ],
    }


def config_from_json(data) -> LabeledConfiguration:
    from .desargues import LabeledConfiguration

    field = field_from_json(data["field"])
    table = {}
    for item in data["points"]:
        label = item["label"]
        if not (isinstance(label, list) and len(label) == 2
                and all(type(s) is int for s in label)):
            raise BadSymbols(f"label {label!r} is not two ints")
        label = tuple(sorted(label))
        if label in table:
            raise BadSymbols(f"label ({label[0]},{label[1]}) is listed twice")
        table[label] = point_from_json(field, item["coords"])
    return LabeledConfiguration(field, _check_n(data), table)


# -- perspective pairs --------------------------------------------------------------

def pair_to_json(pair: PerspectivePair, vertex: ProjPoint) -> dict:
    return {
        "n": pair.n,
        "field": field_to_json(pair.field),
        "A": [point_to_json(p) for p in pair.a],
        "B": [point_to_json(p) for p in pair.b],
        "vertex": point_to_json(vertex),
    }


def pair_from_json(data):
    from .desargues import PerspectivePair

    field = field_from_json(data["field"])
    a = [point_from_json(field, c) for c in data["A"]]
    b = [point_from_json(field, c) for c in data["B"]]
    vertex = point_from_json(field, data["vertex"])
    pair = PerspectivePair(a, b)
    _check_n(data, pair.n)
    _check_n(data, vertex.n)
    return pair, vertex


# -- incidence matrix ----------------------------------------------------------------

def incidence_rows(config: LabeledConfiguration):
    """Rows of the point-line incidence matrix: one row per table point
    labeled "i-j", one column per shared-symbol line labeled "i-j-k",
    entries 1 when the point lies on the line (verified geometrically)."""
    triples = list(combinations(config.symbols, 3))
    lines = [config.span(t) for t in triples]
    header = ["point"] + ["-".join(str(x) for x in t) for t in triples]
    rows = [header]
    for lab in config.labels():
        p = config.point(*lab)
        rows.append(["-".join(str(x) for x in lab)]
                    + [1 if line.contains_point(p) else 0 for line in lines])
    return rows


def incidence_csv(config: LabeledConfiguration) -> str:
    """The rows as CSV text, each line ending in a newline.  No cell holds a
    comma, quote or newline, so none needs quoting, and the text is the one
    `csv.writer` writes."""
    return "".join(",".join(map(str, row)) + "\n" for row in incidence_rows(config))


# -- generic dispatch -----------------------------------------------------------------

def dumps(data) -> str:
    """Deterministic JSON text: sorted keys, stable layout, trailing newline."""
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def load_geometry(text: str):
    """Parse a JSON document into (kind, object): an arc, a configuration,
    or a perspective pair, recognized by its fields.  Demo reports embed
    their configuration under a "configuration" key."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise BadSymbols("expected a JSON object")
    if isinstance(data.get("configuration"), dict):
        data = data["configuration"]
    if "A" in data and "B" in data:
        pair, vertex = pair_from_json(data)
        return "pair", (pair, vertex)
    pts = data.get("points")
    if isinstance(pts, list) and pts and isinstance(pts[0], dict):
        return "config", config_from_json(data)
    if isinstance(pts, list):
        return "arc", arc_from_json(data)
    raise BadSymbols("unrecognized geometry document")
