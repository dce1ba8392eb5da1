"""Serialization round trips for fields, points, arcs, pairs and configs."""

import csv
import io
import json

import pytest

from desarc import io as gio
from desarc.arcs import frame_off_hyperplane
from desarc.desargues import extract_perspective_pair, sectioned_config
from desarc.errors import AmbientMismatch
from desarc.field import GF
from desarc.projlin import normalize


@pytest.mark.parametrize("field", [GF(5), GF(7), GF(2, 2), GF(3, 2)])
def test_field_round_trip(field):
    doc = gio.field_to_json(field)
    assert set(doc) == {"p", "k", "modulus"}
    assert gio.field_from_json(doc) == field
    assert json.dumps(doc)  # json-safe


def test_prime_field_coords_are_residues():
    f = GF(5)
    p = normalize(f, (0, 2, 4))
    assert gio.point_to_json(p) == [0, 1, 2]


def test_extension_field_coords_are_coefficient_arrays():
    f = GF(2, 2)
    p = normalize(f, (1, 2, 3))
    doc = gio.point_to_json(p)
    assert doc == [[1, 0], [0, 1], [1, 1]]
    assert gio.point_from_json(f, doc) == p


@pytest.mark.parametrize("kind", ["arc", "pair"])
def test_a_document_n_that_is_not_its_points_dimension_is_rejected(kind):
    if kind == "arc":
        doc = gio.arc_to_json(frame_off_hyperplane(GF(5), 3))
        load = gio.arc_from_json
    else:
        doc = gio.pair_to_json(*extract_perspective_pair(sectioned_config(3, GF(5)), 1, 2))
        load = gio.pair_from_json
    for n in (2, 4, 9):
        with pytest.raises(AmbientMismatch, match=rf"gives n = {n}, but its points lie in PG\(3\)"):
            load(dict(doc, n=n))
    load(doc)


def test_arc_round_trip():
    arc = frame_off_hyperplane(GF(5), 3)
    doc = gio.arc_to_json(arc)
    assert gio.arc_from_json(json.loads(json.dumps(doc))) == arc


def test_config_round_trip():
    config = sectioned_config(3, GF(5))
    doc = gio.config_to_json(config)
    again = gio.config_from_json(json.loads(json.dumps(doc)))
    assert again == config


def test_config_round_trip_extension_field():
    config = sectioned_config(2, GF(3, 2))
    again = gio.config_from_json(gio.config_to_json(config))
    assert again == config


def test_pair_round_trip():
    config = sectioned_config(3, GF(7))
    pair, vertex = extract_perspective_pair(config, 2, 5)
    doc = gio.pair_to_json(pair, vertex)
    pair2, vertex2 = gio.pair_from_json(doc)
    assert pair2.a == pair.a and pair2.b == pair.b and vertex2 == vertex


def test_load_geometry_dispatch():
    config = sectioned_config(2, GF(5))
    kind, obj = gio.load_geometry(gio.dumps(gio.config_to_json(config)))
    assert kind == "config" and obj == config

    pair, vertex = extract_perspective_pair(config, 1, 2)
    kind, obj = gio.load_geometry(gio.dumps(gio.pair_to_json(pair, vertex)))
    assert kind == "pair"

    arc = frame_off_hyperplane(GF(5), 3)
    kind, obj = gio.load_geometry(gio.dumps(gio.arc_to_json(arc)))
    assert kind == "arc" and obj == arc


def test_dumps_deterministic():
    config = sectioned_config(2, GF(5))
    assert gio.dumps(gio.config_to_json(config)) == \
        gio.dumps(gio.config_to_json(sectioned_config(2, GF(5))))


def test_incidence_csv_shape():
    config = sectioned_config(2, GF(5))
    text = gio.incidence_csv(config)
    lines = text.strip().split("\n")
    assert len(lines) == 11               # header + 10 points
    assert len(lines[0].split(",")) == 11  # "point" + C(5,3) lines
    # each configuration line carries exactly its 3 labeled points
    for col in range(1, 11):
        assert sum(int(l.split(",")[col]) for l in lines[1:]) == 3


@pytest.mark.parametrize("n,field", [(2, GF(5)), (5, GF(3, 2)), (8, GF(11))])
def test_incidence_csv_is_what_csv_writer_writes(n, field):
    config = sectioned_config(n, field)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(gio.incidence_rows(config))
    assert gio.incidence_csv(config) == buf.getvalue()


def test_normalize_reduces_prime_field_residues():
    f = GF(5)
    assert normalize(f, (5, 7, 14)).coords == (0, 1, 2)
