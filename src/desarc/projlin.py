"""Exact projective linear algebra over GF(q).

Points are homogeneous coordinate tuples normalized so the first nonzero
coordinate is 1.  Subspaces are stored as reduced-row-echelon bases: one
canonical matrix per row space, so equality, hashing and deduplication are
exact and meets/joins are reproducible bit for bit.  The empty subspace
(projective dimension -1) is a first-class value, which keeps the dimension
formula

    dim<E,F> + dim(E meet F) = dim E + dim F

total, with no special cases.

There is one row reduction, `_extend`: it grows a reduced basis one row
at a time.  Each new row is reduced against the pivot rows only, and what
is left becomes one more pivot row.  `rref` runs it from the empty basis,
and `rank`, `nullspace`, the `Subspace(...)` constructor and `meet` call
`rref`.  `join` runs it from the first part's basis when that part is a
subspace, so a span grown from its prefix never reduces the prefix's rows
again, and from the empty basis otherwise.  A meet is one rref: the rows
of the smaller basis are reduced modulo the other basis, and the linear
relations among the residues give the combinations that span the meet,
already in reduced form (see `meet`).  `_residue` is the one reduction of
a row against a reduced basis, shared by `_extend`, `meet` and the
membership test `_vector_in`, which `Subspace.contains_point` and
`Subspace.contains` apply to every subspace, hyperplanes included.  Their
row operations, and those of `_combine`, are the field's row kernels
`sub_row` and `scale_row`, and every subspace keeps the pivot columns of
its basis.  `join` and `meet` build their results from codes that are
already canonical, so only the public `Subspace(...)` constructor and
`normalize` coerce their input; the constructor takes rows of n+1
coordinates only.  A subspace's equations, a dual basis, are read from
`nullspace` of its basis, the one place they are computed.
"""

from __future__ import annotations

from bisect import bisect
from itertools import product

from .errors import (
    AmbientMismatch,
    InvalidField,
    NotNormalized,
    ZeroVector,
)
from .field import GF, _is_int


# -- row reduction ----------------------------------------------------------

def rref(field: GF, rows):
    """Reduced row echelon form. Returns (rows, pivot_columns) with zero
    rows dropped; the output rows are tuples and canonical for the span.
    The basis grows from the empty one, one row at a time (`_extend`)."""
    return _extend(field, (), (), rows)


def rank(field: GF, rows) -> int:
    return len(rref(field, rows)[0])


def nullspace(field: GF, rows, width: int):
    """Canonical (RREF) basis of {x : M x = 0} for the row matrix M, whose
    rows have `width` entries each."""
    for r in rows:
        if len(r) != width:
            raise AmbientMismatch(f"a row of {len(r)} entries in a matrix of width {width}")
    reduced, pivots = rref(field, rows)
    pivot_set = set(pivots)
    free = [c for c in range(width) if c not in pivot_set]
    neg = field.neg
    basis = []
    for f in free:
        v = [0] * width
        v[f] = 1
        for i, pc in enumerate(pivots):
            v[pc] = neg(reduced[i][f])
        basis.append(v)
    return rref(field, basis)[0]


# -- points -------------------------------------------------------------------

def _coerce_coords(field: GF, raw):
    out = []
    for x in raw:
        out.append(field.value(x))
    return tuple(out)


class ProjPoint:
    """A point of PG(n, q): normalized homogeneous coordinates.

    Construction requires canonical coordinates: ints in [0, q), the first
    nonzero one 1.  `normalize` builds a point from any nonzero vector.
    """

    __slots__ = ("field", "coords")

    def __init__(self, field: GF, coords):
        coords = tuple(coords)
        q = field.q
        for c in coords:
            if not _is_int(c) or not 0 <= c < q:
                raise InvalidField(f"coordinate {c!r} is not an element of {field}")
        lead = next((c for c in coords if c), None)
        if lead is None:
            raise ZeroVector("projective point needs a nonzero coordinate")
        if lead != 1:
            raise NotNormalized(
                f"coordinates {coords} lead with {lead}, not 1; use normalize()")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError("ProjPoint is immutable")

    @property
    def n(self) -> int:
        return len(self.coords) - 1

    def __eq__(self, other):
        return (isinstance(other, ProjPoint) and self.field == other.field
                and self.coords == other.coords)

    def __hash__(self):
        return hash((self.field, self.coords))

    def __repr__(self):
        return f"Pt{self.coords}"


def normalize(field: GF, raw) -> ProjPoint:
    """Scale a nonzero coordinate vector so its first nonzero entry is 1."""
    coords = _coerce_coords(field, raw)
    lead = next((c for c in coords if c), None)
    if lead is None:
        raise ZeroVector("cannot normalize the zero vector")
    if lead != 1:
        s = field.inv(lead)
        mul = field.mul
        coords = tuple(mul(s, c) for c in coords)
    return ProjPoint(field, coords)


def all_points(field: GF, n: int):
    """All points of PG(n, q) in canonical order: grouped by the position of
    the leading 1, remaining coordinates in increasing code order."""
    q = field.q
    for lead in range(n + 1):
        for tail in product(range(q), repeat=n - lead):
            yield ProjPoint(field, (0,) * lead + (1,) + tail)


def num_points(field: GF, n: int) -> int:
    return (field.q ** (n + 1) - 1) // (field.q - 1)


# -- subspaces ----------------------------------------------------------------

class Subspace:
    """A projective subspace of PG(n, q) as a canonical RREF row basis.

    dim == -1 encodes the empty subspace (empty basis).  `_pivots` keeps the
    pivot column of each basis row.  Internal callers that already hold a
    reduced basis pass its row tuples with their pivot columns as
    `_pivots`, which skips coercion and reduction.  Every slot is set by
    the constructor.  A vector lies in the subspace exactly when its
    residue modulo the basis is zero (`_vector_in`).
    """

    __slots__ = ("field", "n", "basis", "_pivots")

    def __init__(self, field: GF, n: int, rows, *, _pivots=None):
        if _pivots is None:
            rows = [_coerce_coords(field, r) for r in rows]
            for r in rows:
                if len(r) != n + 1:
                    raise AmbientMismatch(
                        f"a row of {len(r)} coordinates is no vector of PG({n})")
            rows, _pivots = rref(field, rows)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "basis", tuple(rows))
        object.__setattr__(self, "_pivots", tuple(_pivots))

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def empty(cls, field: GF, n: int) -> "Subspace":
        return cls(field, n, (), _pivots=())

    @property
    def dim(self) -> int:
        return len(self.basis) - 1

    def contains_point(self, p: ProjPoint) -> bool:
        if p.field != self.field or p.n != self.n:
            raise AmbientMismatch("point lives in a different space")
        return _vector_in(self, p.coords)

    def contains(self, other: "Subspace") -> bool:
        common_ambient((self, other))
        return all(_vector_in(self, row) for row in other.basis)

    def point(self) -> ProjPoint:
        if self.dim != 0:
            raise ValueError(f"subspace of dimension {self.dim} is not a point")
        return ProjPoint(self.field, self.basis[0])

    def points(self):
        """All points of the subspace, canonical order.  The basis is
        reduced, so a combination whose first nonzero coefficient is 1 has
        a 1 at that row's pivot and zeros before it: it is normalized."""
        field, width = self.field, self.n + 1
        for cpt in all_points(field, self.dim):
            yield ProjPoint(field, _combine(field, cpt.coords, self.basis, width))

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.field == other.field
                and self.n == other.n and self.basis == other.basis)

    def __hash__(self):
        return hash((self.field, self.n, self.basis))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, n={self.n})"


def common_ambient(objs):
    """(field, n) shared by a mix of points and subspaces."""
    objs = list(objs)
    if not objs:
        raise AmbientMismatch("no objects given")
    field = objs[0].field
    n = objs[0].n
    for o in objs[1:]:
        if o.field != field or o.n != n:
            raise AmbientMismatch("objects live in different ambient spaces")
    return field, n


def join(*parts) -> Subspace:
    """Smallest subspace containing every part (points and subspaces mix).

    The rows of the parts extend a reduced basis one at a time
    (`_extend`): the first part's basis when it is a subspace, and the
    empty basis otherwise."""
    field, n = common_ambient(parts)
    first = parts[0]
    basis = pivots = ()
    if isinstance(first, Subspace):
        basis, pivots, parts = first.basis, first._pivots, parts[1:]
    rows = []
    for part in parts:
        if isinstance(part, ProjPoint):
            rows.append(part.coords)
        elif isinstance(part, Subspace):
            rows.extend(part.basis)
        else:
            raise TypeError(f"cannot join {type(part).__name__}")
    basis, pivots = _extend(field, basis, pivots, rows)
    return Subspace(field, n, basis, _pivots=pivots)


def _extend(field: GF, basis, pivots, rows):
    """The reduced basis of the span of a reduced basis and the rows, with
    its pivot columns: the one row reduction, which `rref` runs from the
    empty basis.  Each row is reduced against the pivot rows so far
    (`_residue`).  A nonzero residue is 0 in every pivot column; scaled to
    lead with 1 at its first nonzero column c, it is cleared from the old
    rows at c and inserted in pivot order.  An old row with its pivot
    after c is 0 at c, and one with its pivot before c changes only from c
    on, so every row keeps its leading 1 and the basis stays reduced.  Each
    row operation makes a new row, so the input rows are never modified."""
    sub_row, scale_row, inv = field.sub_row, field.scale_row, field.inv
    basis, pivots = list(basis), list(pivots)
    for vec in rows:
        res = _residue(field, basis, pivots, vec)
        for c, x in enumerate(res):
            if x:
                break
        else:
            continue  # vec is in the span already
        if x != 1:
            res = scale_row(inv(x), res)
        basis = [sub_row(row[c], row, res) if row[c] else row for row in basis]
        at = bisect(pivots, c)
        pivots.insert(at, c)
        basis.insert(at, res)
    return [tuple(row) for row in basis], pivots


def meet(s1: Subspace, s2: Subspace) -> Subspace:
    """Largest subspace contained in both, with one small rref.

    Let U be the argument with fewer basis rows u_0..u_{r-1} and W the
    other.  W's basis is reduced, so the residue of u_i modulo W is u_i
    minus u_i[p] times the W row with pivot p, summed over W's pivots p:
    zero in those columns, kept only on W's free columns.  A combination
    sum c_i u_i lies in W exactly when sum c_i residue_i = 0.

    The residues go in as the columns of a matrix, u_{r-1} first, and one
    rref picks the pivot columns greedily: u_i is a pivot exactly when its
    residue is independent of those of u_{i+1}..u_{r-1}, so the pivots
    after u_i span the residues after it.  Each non-pivot u_i gives one
    relation c: c_i = 1, c_j = minus the rref entry of u_i's column in the
    row of pivot u_j, and 0 elsewhere.  Each c has its leading 1 at its own
    i and 0 at the other relations' i, so the relations are the reduced
    basis of all such c.  U's basis is reduced too, so sum c_i u_i carries
    c in U's pivot columns, and the combinations are the canonical basis
    of U meet W with no second reduction; each leads at U's pivot column
    of its own i.
    """
    field, n = common_ambient((s1, s2))
    u, w = (s1, s2) if len(s1.basis) <= len(s2.basis) else (s2, s1)
    if not u.basis or not w.basis:
        return Subspace.empty(field, n)
    sub_row = field.sub_row
    r = len(u.basis)
    w_free = [c for c in range(n + 1) if c not in w._pivots]
    cols = []  # cols[r-1-i] = residue of u_i on W's free columns
    for urow in reversed(u.basis):
        res = _residue(field, w.basis, w._pivots, urow)
        cols.append([res[c] for c in w_free])
    reduced, pivots = rref(field, zip(*cols))
    pivot_set = set(pivots)
    basis, leads = [], []
    for i in range(r):
        j = r - 1 - i
        if j in pivot_set:
            continue
        vec = u.basis[i]
        for row, pc in zip(reduced, pivots):
            if row[j]:
                vec = sub_row(row[j], vec, u.basis[r - 1 - pc])
        basis.append(tuple(vec))
        leads.append(u._pivots[i])
    return Subspace(field, n, basis, _pivots=leads)


# -- combinations and membership --------------------------------------------

def _combine(field: GF, coeffs, rows, width: int):
    """The vector sum c_i * row_i, as a list."""
    sub_row, neg = field.sub_row, field.neg
    vec = [0] * width
    for c, row in zip(coeffs, rows):
        if c:
            vec = sub_row(neg(c), vec, row)
    return vec


def _residue(field: GF, basis, pivots, vec):
    """vec minus the combination of the reduced rows by vec's entries in
    their pivot columns: 0 in every pivot column, and 0 exactly when vec
    lies in the rows' span.  Each row is 0 in the other rows' pivot
    columns, so one pass clears them all."""
    sub_row = field.sub_row
    for pc, row in zip(pivots, basis):
        if vec[pc]:
            vec = sub_row(vec[pc], vec, row)
    return vec


def _vector_in(h: Subspace, vec) -> bool:
    """Whether a vector lies in <h>: whether its residue modulo h's
    reduced basis is zero."""
    return not any(_residue(h.field, h.basis, h._pivots, vec))
