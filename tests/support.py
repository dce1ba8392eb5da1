"""Constructions shared by several test modules: the hyperplane of a dual
vector and the face of a simplex, two oracles the library itself has no
use for, and the tables the span oracle and the recorded verify reports
run on."""

import random
from itertools import combinations

from desarc.desargues import LabeledConfiguration, sectioned_config
from desarc.errors import ZeroVector
from desarc.field import GF
from desarc.projlin import Subspace, all_points, join, nullspace


def hyperplane_from_dual(field, coeffs) -> Subspace:
    """The hyperplane of all points x with coeffs . x = 0."""
    coeffs = [field.value(c) for c in coeffs]
    if not any(coeffs):
        raise ZeroVector("hyperplane coefficients cannot all be zero")
    n = len(coeffs) - 1
    return Subspace(field, n, nullspace(field, [coeffs], n + 1))


def face(points, k: int) -> Subspace:
    """Face k of a simplex: the hyperplane spanned by every point except
    the one at index k."""
    return join(*(p for i, p in enumerate(points) if i != k))


def random_points_table(n, field, rng) -> LabeledConfiguration:
    """Distinct random points of PG(n, q) at the labels of symbols 1..n+3."""
    labels = list(combinations(range(1, n + 4), 2))
    pts = rng.sample(list(all_points(field, n)), len(labels))
    return LabeledConfiguration(field, n, dict(zip(labels, pts)))


def perturbed_section() -> LabeledConfiguration:
    """The seeded section of PG(4, 7) with label (1, 3) moved to the first
    point outside the table in canonical order: the triples {1, 3, k} span
    planes, and every check of `verify` fails."""
    field = GF(7)
    config = sectioned_config(4, field, random.Random(1))
    taken = set(config.points())
    fresh = next(p for p in all_points(field, 4) if p not in taken)
    return LabeledConfiguration(field, 4, {**config.table, (1, 3): fresh})
