"""Field arithmetic: worked examples, exhaustive axioms, typed errors."""

import hashlib
import random
import time
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from desarc.errors import DivisionByZero, InvalidField
from desarc.field import GF


def test_gf5_examples():
    f = GF(5)
    assert f.add(3, 4) == 2            # 7 mod 5
    assert f.inv(2) == 3               # 2*3 = 6 = 1 mod 5
    assert f.sub(3, 4) == 4
    assert f.mul(3, 4) == 2
    assert f.neg(3) == 2
    assert f.mul(f.mul(3, f.inv(4)), 4) == 3


def test_gf4_alpha_squared():
    # modulus x^2 + x + 1: alpha^2 = alpha + 1
    f = GF(2, 2)
    alpha = f.from_coeffs((0, 1))
    alpha_plus_one = f.from_coeffs((1, 1))
    assert f.mul(alpha, alpha) == alpha_plus_one
    assert f.coeffs(f.mul(alpha, alpha)) == (1, 1)


def test_enumerate_counts():
    # the codes 0..q-1 are q distinct coefficient vectors of length k
    for f in (GF(5), GF(3, 2), GF(2, 2)):
        vectors = {f.coeffs(v) for v in range(f.q)}
        assert len(vectors) == f.q
        assert all(len(c) == f.k for c in vectors)


def test_enumerate_order_and_distinctness():
    for f in (GF(7), GF(2, 3), GF(5, 2)):
        for v in range(f.q):
            assert f.add(0, v) == v           # code 0 is the zero
            assert f.mul(1, v) == v           # code 1 is the one
            assert f.mul(0, v) == 0
            assert f.from_coeffs(f.coeffs(v)) == v


def test_gf4_element_set():
    f = GF(2, 2)
    coeff_sets = [f.coeffs(v) for v in range(f.q)]
    assert coeff_sets == [(0, 0), (1, 0), (0, 1), (1, 1)]


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1),
                                 (2, 2), (2, 3), (3, 2), (2, 4)])
def test_field_axioms_exhaustive(p, k):
    f = GF(p, k)
    q = f.q
    add, mul = f.add, f.mul
    for a in range(q):
        for b in range(q):
            assert add(a, b) == add(b, a)
            assert mul(a, b) == mul(b, a)
            for c in range(q):
                assert add(add(a, b), c) == add(a, add(b, c))
                assert mul(mul(a, b), c) == mul(a, mul(b, c))
                assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    for a in range(1, q):
        assert mul(a, f.inv(a)) == 1
    for a in range(q):
        assert add(a, f.neg(a)) == 0
        assert add(a, 0) == a
        assert mul(a, 1) == a


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([25, 27]), st.data())
def test_field_axioms_sampled_larger(q, data):
    f = GF(5, 2) if q == 25 else GF(3, 3)
    a = data.draw(st.integers(0, q - 1))
    b = data.draw(st.integers(0, q - 1))
    c = data.draw(st.integers(0, q - 1))
    assert f.mul(a, b) == f.mul(b, a)
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    if a:
        assert f.mul(a, f.inv(a)) == 1


def test_builtin_moduli_all_work():
    for q, params in [(4, (2, 2)), (8, (2, 3)), (9, (3, 2)),
                      (16, (2, 4)), (25, (5, 2)), (27, (3, 3))]:
        f = GF(*params)
        assert f.q == q
        # spot-check an inverse round trip on a nontrivial element
        assert f.mul(2, f.inv(2)) == 1


def test_division_by_zero():
    f = GF(5)
    with pytest.raises(DivisionByZero):
        f.inv(0)
    with pytest.raises(DivisionByZero):
        GF(2, 3).inv(0)
    with pytest.raises(DivisionByZero):
        GF(3, 2).inv(0)


def test_invalid_field_parameters():
    with pytest.raises(InvalidField):
        GF(6)                      # not prime
    with pytest.raises(InvalidField):
        GF(4)                      # 4 = 2^2 must come as GF(2, 2)
    with pytest.raises(InvalidField):
        GF(5, 1, (1, 1))           # modulus forbidden for k = 1
    with pytest.raises(InvalidField):
        GF(2, 2, (1, 0, 1))        # x^2 + 1 = (x+1)^2 over GF(2)
    with pytest.raises(InvalidField):
        GF(2, 5, (1, 0, 0, 0, 1, 1))          # (x^2+x+1)(x^3+x+1)
    with pytest.raises(InvalidField):
        GF(2, 7, (1, 1, 0, 1, 1, 1, 1, 1))    # (x^2+x+1)(x^5+x^2+1)
    with pytest.raises(InvalidField):
        GF(2, 2, (1, 1))           # wrong length
    with pytest.raises(InvalidField):
        GF(3, 2, (1, 1, 2))        # not monic
    with pytest.raises(InvalidField):
        GF(2, 20)                  # order above the supported limit


@pytest.mark.parametrize("args,message", [
    ((5.0,), "p must be an int"),
    ((True,), "p must be an int"),
    (("5",), "p must be an int"),
    ((5, 1.0), "k must be an int"),
    ((5, True), "k must be an int"),
    ((3, "2"), "k must be an int"),
    ((3, 2, (1, 0, 1.0)), "modulus coefficient 1.0 is not an int"),
    ((3, 2, (1, False, 1)), "modulus coefficient False is not an int"),
    ((3, 2, ("1", "0", "1")), "modulus coefficient '1' is not an int"),
    ((3, 2, (4, 0, 1)), "modulus coefficient 4 lies outside"),           # was (1, 0, 1)
    ((3, 2, (-2, 0, 1)), "modulus coefficient -2 lies outside"),         # was (1, 0, 1)
    ((3, 2, (1, 0, 3)), "modulus coefficient 3 lies outside"),
    ((3, 2, 7), "modulus must be a sequence"),
])
def test_a_field_spec_that_is_not_ints_in_range_is_invalid(args, message):
    with pytest.raises(InvalidField, match=message):
        GF(*args)


@pytest.mark.parametrize("args", [(3, 100000), (3, 10 ** 7), (10 ** 18 + 9,),
                                  (10 ** 18 + 9, 2)])
def test_an_order_above_the_limit_is_rejected_before_it_is_computed(args):
    # p^k was once computed, and p trial-divided, before the limit was
    # checked: GF(3, 10**7) took seconds and GF(10**18 + 9) did not return
    p, k = (*args, 1)[:2]
    t0 = time.perf_counter()
    with pytest.raises(InvalidField, match=rf"order {p}\^{k} exceeds the supported limit 65536"):
        GF(*args)
    assert time.perf_counter() - t0 < 1.0


def test_custom_modulus_accepted():
    # x^2 + x + 2 is irreducible over GF(3): no root among 0, 1, 2
    f = GF(3, 2, (2, 1, 1))
    assert f.q == 9
    for a in range(1, 9):
        assert f.mul(a, f.inv(a)) == 1


def test_element_canonicality_and_hash():
    f = GF(3, 2)
    assert f.add(2, 3) == 5               # (2, 0) + (0, 1) = (2, 1)
    assert f.value(5) == 5
    assert GF(3, 2) == f and hash(GF(3, 2)) == hash(f)
    # same order but different construction parameters differ
    assert GF(3, 2, (2, 1, 1)) != f       # x^2 + x + 2, also irreducible


def test_element_int_comparison():
    assert GF(5).value(7) == 2            # residue semantics for k = 1
    assert GF(2, 2).value(3) == 3
    with pytest.raises(InvalidField):
        GF(2, 2).value(9)                 # out-of-range extension code


@pytest.mark.parametrize("field", [GF(5), GF(3, 2)], ids=str)
@pytest.mark.parametrize("x", [1.7, 2.0, True, False, "3", None])
def test_only_an_int_is_an_element(field, x):
    # int(x) would truncate 1.7, read True as 1 and parse "3"
    with pytest.raises(InvalidField, match="is not an element of"):
        field.value(x)


def test_scalar_embedding():
    f = GF(3, 2)
    assert f.scalar(4) == 1
    assert f.scalar(3) == 0
    assert GF(7).scalar(10) == 3


def _moebius(n):
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6),
                                 (2, 7), (2, 8), (3, 2), (3, 3), (3, 4), (5, 2)])
def test_accepted_moduli_match_gauss_count(p, k):
    """Exactly the irreducible moduli are accepted: their number is
    Gauss's (1/k) * sum over d | k of mu(d) p^(k/d)."""
    gauss = sum(_moebius(d) * p ** (k // d) for d in range(1, k + 1) if k % d == 0) // k
    accepted = 0
    for tail in product(range(p), repeat=k):
        try:
            GF(p, k, tail + (1,))
        except InvalidField:
            continue
        accepted += 1
    assert accepted == gauss


def _poly_times(a, b, p):
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % p
    return tuple(prod)


# irreducible of degree k/2, constant term first: x^8 + x^4 + x^3 + x + 1
# over GF(2), x^5 + 2x + 1 over GF(3), x^3 + x + 1 over GF(5)
HALF_DEGREE_IRREDUCIBLE = {2: (1, 1, 0, 1, 1, 0, 0, 0, 1), 3: (1, 2, 0, 0, 0, 1),
                           5: (1, 1, 0, 1)}


def _reducible_modulus(p, k, shape):
    if shape == "square":
        f = HALF_DEGREE_IRREDUCIBLE[p]
        return _poly_times(f, f, p)
    tail = (1, 1) + (0,) * (k - 3) + (1,)     # x^(k-1) + x + 1
    if shape == "linear-factor":
        return _poly_times((1, 1), tail, p)   # (x + 1)(x^(k-1) + x + 1)
    return _poly_times((0, 1), tail, p)       # x (x^(k-1) + x + 1)


@pytest.mark.parametrize("shape", ["square", "linear-factor", "x-times"])
@pytest.mark.parametrize("p,k", [(2, 16), (3, 10), (5, 6)])
def test_a_reducible_modulus_of_a_large_field_is_rejected_at_once(p, k, shape):
    # the primitive-element search stops at a zero divisor or at a unit of
    # the wrong order, and g^(q-1) = 1 fails for both
    modulus = _reducible_modulus(p, k, shape)
    assert len(modulus) == k + 1 and modulus[-1] == 1
    t0 = time.perf_counter()
    with pytest.raises(InvalidField, match="reducible"):
        GF(p, k, modulus)
    assert time.perf_counter() - t0 < 1.0


# -- schoolbook reference: polynomial arithmetic on coefficient lists, sharing
# no code with the field module

def _digits(v, p, k):
    return [(v // p ** i) % p for i in range(k)]


def _undigits(c, p):
    return sum(x * p ** i for i, x in enumerate(c))


def _ref_add(a, b, p, k):
    return _undigits([(x + y) % p for x, y in zip(_digits(a, p, k), _digits(b, p, k))], p)


def _ref_mul(a, b, p, k, modulus):
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(_digits(a, p, k)):
        for j, y in enumerate(_digits(b, p, k)):
            prod[i + j] = (prod[i + j] + x * y) % p
    for d in range(2 * k - 2, k - 1, -1):     # reduce by the monic modulus
        c = prod[d]
        for i in range(k + 1):
            prod[d - k + i] = (prod[d - k + i] - c * modulus[i]) % p
    return _undigits(prod[:k], p)


GF3_10 = (1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 1)   # x^10 + 2x^8 + 1

CROSS_CHECK = [
    (3, 4, (2, 1, 0, 0, 1)),                  # GF(81)
    (13, 2, (11, 0, 1)),                      # GF(169), x^2 + 11
    (2, 8, (1, 0, 1, 1, 1, 0, 0, 0, 1)),      # GF(256)
    # no element of degree <= 1 is primitive for these two moduli
    (2, 8, (1, 0, 0, 0, 1, 1, 0, 1, 1)),
    (3, 4, (1, 0, 1, 1, 1)),
    (2, 16, (1, 0, 1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1)),   # GF(65536)
    (3, 10, GF3_10),                          # primitive element 1 + 2x + x^3
]


@pytest.mark.parametrize("p,k,modulus", CROSS_CHECK, ids=[
    "gf81", "gf169", "gf256", "gf256-no-linear-primitive",
    "gf81-no-linear-primitive", "gf65536", "gf59049"])
def test_ops_match_schoolbook_reference(p, k, modulus):
    """mul/add/sub on every pair below q = 256, else on 2000 seeded pairs;
    neg/inv on every element up to q = 256, else on a seeded sample."""
    f = GF(p, k, modulus)
    q = f.q
    rng = random.Random(q)
    if q < 256:
        pairs = product(range(q), repeat=2)
    else:
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(2000)]
    for a, b in pairs:
        assert f.mul(a, b) == _ref_mul(a, b, p, k, modulus)
        s = _ref_add(a, b, p, k)
        assert f.add(a, b) == s
        assert f.sub(s, b) == a
    for a in range(q) if q <= 256 else rng.sample(range(q), 2000):
        assert _ref_add(a, f.neg(a), p, k) == 0
        if a:
            assert _ref_mul(a, f.inv(a), p, k, modulus) == 1


def _tables(f):
    # the exp and log tables that mul reads
    cells = dict(zip(f.mul.__code__.co_freevars, f.mul.__closure__))
    return list(cells["exp"].cell_contents), list(cells["log"].cell_contents)


@pytest.mark.parametrize("p,k,modulus,digest", [
    (3, 2, None, "59ea00c7d3f5146d1e83eb054580fc7177b68986be5bfc50089c24ce8547ca9c"),
    (3, 3, None, "9a727f81a2b82159538a88f38cd35801f9c2aa72799de251e22e587faa867a29"),
    (3, 4, (2, 1, 0, 0, 1),
     "765b3480fc3ba93e9c12a0f4046cd387a1128fb4ee67b38938fa6f4e51ff0b03"),
    (13, 2, (11, 0, 1),
     "11feb16742c2fe4b568919d2f4d5cef17ca3e806fb67918a1519d62353ab85cc"),
])
def test_power_tables_are_the_recorded_ones(p, k, modulus, digest):
    """sha256 of repr((exp, log)) as lists, recorded from the digit-wise
    walk that built these tables before the coefficient-list walk."""
    text = repr(_tables(GF(p, k, modulus)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_gf3_10_builds_in_half_a_second():
    start = time.perf_counter()
    f = GF(3, 10, GF3_10)
    assert time.perf_counter() - start < 0.5
    exp, log = _tables(f)
    assert exp[1] == 34 and sorted(exp[:f.q - 1]) == list(range(1, f.q))


# -- row kernels ------------------------------------------------------------------

# the moduli of the benchmark's fields where it names one, else the defaults
ROW_FIELDS = [(3, 1, None), (5, 1, None), (7, 1, None), (11, 1, None),
              (13, 1, None), (2, 2, None), (2, 3, None), (3, 2, None),
              (5, 2, None), (3, 3, None),
              (3, 4, (2, 1, 0, 0, 1)),
              (13, 2, (11, 0, 1)),
              (2, 8, (1, 0, 1, 1, 1, 0, 0, 0, 1)),
              (2, 12, (1, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1)),
              (2, 16, (1, 0, 1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1))]


@pytest.mark.parametrize("p,k,modulus", ROW_FIELDS,
                         ids=[f"gf{p ** k}" for p, k, _ in ROW_FIELDS])
def test_row_kernels_match_the_elementwise_ops(p, k, modulus):
    """sub_row(f, xs, ys) = [sub(x, mul(f, y))] and scale_row(s, xs) =
    [mul(s, x)].  Up to q = 27 for every f on rows that hold every pair
    (x, y), zeros included.  Above that for the factors g^(q-2-d) next to
    g^-1 (in odd characteristic log f + half + log y then passes 2(q-1)
    for a large log y), and for seeded random factors, on seeded rows with
    zeros, 1 and g^(q-2)."""
    f = GF(p, k, modulus)
    q = f.q
    sub, mul = f.sub, f.mul

    def check(factor, xs, ys):
        assert f.sub_row(factor, xs, ys) == [sub(x, mul(factor, y))
                                             for x, y in zip(xs, ys)]
        assert f.scale_row(factor, xs) == [mul(factor, x) for x in xs]

    if q <= 27:
        xs, ys = map(list, zip(*product(range(q), repeat=2)))
        for factor in range(q):
            check(factor, xs, ys)
        return
    exp, _ = _tables(f)
    rng = random.Random(q)
    special = [0, 1, exp[q - 2], exp[q - 3], exp[(q - 1) // 2]]
    factors = [exp[q - 2 - d] for d in range(16)]
    factors += [0, 1] + [rng.randrange(1, q) for _ in range(32)]
    for factor in factors:
        for _ in range(4):
            xs = [rng.choice(special) if rng.random() < 0.4 else rng.randrange(q)
                  for _ in range(64)]
            ys = [rng.choice(special) if rng.random() < 0.4 else rng.randrange(q)
                  for _ in range(64)]
            check(factor, xs, ys)
