"""Exact arithmetic in GF(p^k) with canonical integer-coded elements.

An element of GF(p) is its residue in [0, p).  An element of GF(p^k) is a
coefficient vector (c0, c1, ..., c_{k-1}) over GF(p) packed into the single
integer c0 + c1*p + ... + c_{k-1}*p^(k-1).  Equality of elements is equality
of integers, and the enumeration order 0, 1, ..., q-1 starts with the zero
and one of the field, which keeps every downstream construction
deterministic.

Prime fields compute with plain modular arithmetic.  Every extension field
computes with discrete-logarithm tables of size O(q) over a primitive
element g (Lidl & Niederreiter, *Finite Fields*, ch. 2): exp[i] = g^i and
log[g^i] = i give mul and inv.  add, sub and neg act on the coefficient
vectors: in characteristic 2 that is XOR of the codes, in odd
characteristic it goes through the Zech table zech[i] = log(1 + g^i).  A
modulus is accepted only when the search for g proves it irreducible:
the g it finds has g^(q-1) = 1 exactly when the quotient ring is a field.

Each design also supplies the row kernels that row reduction runs on,
sub_row(f, xs, ys) = xs - f*ys and scale_row(s, xs) = s*xs, so the work
per entry is inline arithmetic or table lookups, not a call to mul and
sub: modulo p for a prime field, x ^ exp[log f + log y] in characteristic
2, and a Zech lookup in odd characteristic.
"""

from __future__ import annotations

from array import array
from operator import mul, xor

from .errors import DivisionByZero, InvalidField

# Irreducible moduli for the desk-scale extension fields, coefficient order
# constant-term first, monic.
DEFAULT_MODULI = {
    4: (1, 1, 1),         # x^2 + x + 1 over GF(2)
    8: (1, 1, 0, 1),      # x^3 + x + 1 over GF(2)
    9: (1, 0, 1),         # x^2 + 1 over GF(3)
    16: (1, 1, 0, 0, 1),  # x^4 + x + 1 over GF(2)
    25: (2, 0, 1),        # x^2 + 2 over GF(5)
    27: (1, 2, 0, 1),     # x^3 + 2x + 1 over GF(3)
}

_ORDER_LIMIT = 2 ** 16   # every table entry fits an unsigned 16-bit slot
_NO_LOG = 0xFFFF         # zech entry where 1 + g^i = 0; every log is below it


def _is_int(x) -> bool:
    """An int that is not a bool: a float or a string is no field parameter."""
    return isinstance(x, int) and not isinstance(x, bool)


def _order(p: int, k: int):
    """p^k, or None when it exceeds _ORDER_LIMIT.  The power is multiplied
    up and left early, so a large k costs no more than a small one."""
    q = 1
    for _ in range(k):
        q *= p
        if q > _ORDER_LIMIT:
            return None
    return q


def _prime_factors(n: int):
    """The distinct prime divisors of n, in increasing order."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _times(a, b, modulus, p):
    """The product of two coefficient lists modulo the monic modulus."""
    k = len(modulus) - 1
    prod = [0] * (2 * k - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b, i):
                prod[j] += c * d
    for top in range(2 * k - 2, k - 1, -1):   # fold x^top back, highest first
        c = prod[top] % p
        if c:
            for i, m in enumerate(modulus[:-1], top - k):
                prod[i] -= c * m
    return [c % p for c in prod[:k]]


def _power_codes(g, modulus, p, count):
    """Codes of g^0, ..., g^(count-1) in GF(p)[x] / (modulus), with g given
    by its coefficient list.  Multiplying by g is GF(p)-linear, so for the
    code c = lo + p^h hi, g c has the coefficients low[lo] + high[hi] mod p,
    where `low` and `high` tabulate g times the polynomials of degree below
    h and g x^h times those of degree below k - h: about sqrt(q) each."""
    k = len(modulus) - 1
    h = (k + 1) // 2
    split = p ** h

    def times_g(code):
        return _times(g, [code // p ** i % p for i in range(k)], modulus, p)

    low = [times_g(c) for c in range(split)]
    high = [times_g(c * split) for c in range(p ** (k - h))]
    places = [p ** i for i in range(k)]
    codes, code = [], 1
    for _ in range(count):
        codes.append(code)
        hi, lo = divmod(code, split)
        code = sum(map(mul, [(a + b) % p for a, b in zip(low[lo], high[hi])], places))
    return codes


class GF:
    """The field GF(p^k), acting as both field spec and arithmetic context.

    Instances are immutable and compare equal when (p, k, modulus) agree.
    The callable attributes add/sub/mul/neg/inv work on integer element
    codes; the row kernels sub_row(f, xs, ys) = xs - f*ys and
    scale_row(s, xs) = s*xs work on equal-length lists of codes and return
    a new list.

    p, k and the modulus coefficients must be ints (not bools), and each
    coefficient must lie in [0, p); anything else raises InvalidField.
    """

    __slots__ = ("p", "k", "q", "modulus", "add", "sub", "mul", "neg", "inv",
                 "sub_row", "scale_row")

    def __init__(self, p: int, k: int = 1, modulus=None):
        for name, value in (("p", p), ("k", k)):
            if not _is_int(value):
                raise InvalidField(f"{name} must be an int, got {value!r}")
        # a p above the limit is not factored: trial division would not finish
        if p <= _ORDER_LIMIT and _prime_factors(p) != [p]:
            raise InvalidField(f"characteristic {p} is not prime")
        if k < 1:
            raise InvalidField("degree must be a positive integer")
        q = _order(p, k)
        if q is None:
            raise InvalidField(f"order {p}^{k} exceeds the supported limit {_ORDER_LIMIT}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "q", q)

        if k == 1:
            if modulus is not None:
                raise InvalidField("a modulus is only meaningful for k > 1")
            object.__setattr__(self, "modulus", None)
            self._init_prime_ops()
        else:
            if modulus is None:
                modulus = DEFAULT_MODULI.get(q)
                if modulus is None:
                    raise InvalidField(
                        f"no built-in modulus for GF({q}); pass one explicitly")
            try:
                modulus = tuple(modulus)
            except TypeError:
                raise InvalidField(f"modulus must be a sequence, got {modulus!r}") from None
            for c in modulus:
                if not _is_int(c):
                    raise InvalidField(f"modulus coefficient {c!r} is not an int")
                if not 0 <= c < p:
                    raise InvalidField(
                        f"modulus coefficient {c} lies outside [0, {p})")
            if len(modulus) != k + 1:
                raise InvalidField(f"modulus must have {k + 1} coefficients")
            if modulus[-1] != 1:
                raise InvalidField("modulus must be monic")
            object.__setattr__(self, "modulus", modulus)
            self._init_ext_ops()

    def __setattr__(self, name, value):  # ops are installed via object.__setattr__
        raise AttributeError("GF instances are immutable")

    def _init_prime_ops(self):
        p = self.p

        def inv(a, _p=p):
            if a % _p == 0:
                raise DivisionByZero("inverse of zero")
            return pow(a, _p - 2, _p)

        def sub_row(f, xs, ys, _p=p):
            return [(x - f * y) % _p for x, y in zip(xs, ys)]

        def scale_row(s, xs, _p=p):
            return [s * x % _p for x in xs]

        object.__setattr__(self, "add", lambda a, b, _p=p: (a + b) % _p)
        object.__setattr__(self, "sub", lambda a, b, _p=p: (a - b) % _p)
        object.__setattr__(self, "mul", lambda a, b, _p=p: (a * b) % _p)
        object.__setattr__(self, "neg", lambda a, _p=p: (-a) % _p)
        object.__setattr__(self, "inv", inv)
        object.__setattr__(self, "sub_row", sub_row)
        object.__setattr__(self, "scale_row", scale_row)

    def _init_ext_ops(self):
        p, k, q, modulus = self.p, self.k, self.q, self.modulus
        n = q - 1                 # order of the multiplicative group
        one = [1] + [0] * (k - 1)

        def power(a, e):   # valid before the modulus is known to be irreducible
            out = one
            while e:
                if e & 1:
                    out = _times(out, a, modulus, p)
                a = _times(a, a, modulus, p)
                e >>= 1
            return out

        # g is primitive iff g^(n/r) != 1 for every prime r dividing n; no
        # element of the prime field is, so the search starts at x, code p.
        # The search also proves the modulus irreducible.  If g^n = 1, then
        # g is a unit whose order divides n, and the primitive test rules
        # out every proper divisor, so g has order n: its n powers are
        # distinct units, every nonzero element is a unit, and the ring is
        # a field.  Over a reducible modulus a zero divisor passes the
        # primitive test, as none of its powers is 1, and fails g^n = 1, as
        # does a unit of smaller order.  The search always stops: a proper
        # factor of the modulus has degree >= 1, so it is a zero divisor
        # with a code >= p.
        factors = _prime_factors(n)
        g = next(g for g in range(p, q)
                 if all(power(self.coeffs(g), n // r) != one for r in factors))
        if power(self.coeffs(g), n) != one:
            raise InvalidField("modulus is reducible over the prime field")
        exp, log = array("H"), array("H", [0]) * q
        if p == 2 and g == p:
            # times x shifts the code; XOR with the modulus clears x^k
            full, v = q | self.from_coeffs(modulus[:-1]), 1
            for i in range(n):
                exp.append(v)
                log[v] = i
                v <<= 1
                if v & q:
                    v ^= full
        else:
            exp.extend(_power_codes(self.coeffs(g), modulus, p, n))
            for i, v in enumerate(exp):
                log[v] = i
        exp += exp                # exp[log a + log b] needs no reduction

        def mul(a, b):
            return exp[log[a] + log[b]] if a and b else 0

        def inv(a):
            if a == 0:
                raise DivisionByZero("inverse of zero")
            return exp[n - log[a]]

        def scale_row(s, xs):     # one log lookup for s, not one per entry
            if not s:
                return [0] * len(xs)
            ls = log[s]
            return [exp[ls + log[x]] if x else 0 for x in xs]

        if p == 2:
            # coefficient vectors add by XOR, and every element is its own
            # negative
            add = sub = xor

            def neg(a):
                return a

            def sub_row(f, xs, ys):
                if not f:
                    return list(xs)
                lf = log[f]
                return [x ^ exp[lf + log[y]] if y else x for x, y in zip(xs, ys)]
        else:
            half = n // 2         # g^half = -1
            no_log = _NO_LOG
            zech = array("H", [0]) * n
            for i in range(n):
                e = exp[i]        # 1 + e: the constant digit steps up by one
                e = e + 1 if e % p != p - 1 else e + 1 - p
                zech[i] = log[e] if e else no_log
            zech += zech          # differences of logs index it unreduced

            def add(a, b):        # g^la + g^lb = g^la (1 + g^(lb - la))
                if not a:
                    return b
                if not b:
                    return a
                la = log[a]
                z = zech[log[b] - la]
                return 0 if z == no_log else exp[la + z]

            def sub(a, b):        # a + (-b), with log(-b) = log b + half
                if not b:
                    return a
                if not a:
                    return exp[log[b] + half]
                la = log[a]
                z = zech[log[b] + half - la]
                return 0 if z == no_log else exp[la + z]

            def neg(a):
                return exp[log[a] + half] if a else 0

            def sub_row(f, xs, ys):
                # x - f y = x + g^m with m = log f + half + log y; m is kept
                # below 2n by reducing log f + half first, so exp[m] and
                # zech[m - log x] (down to -n, which wraps to the table's
                # second copy) stay in range
                if not f:
                    return list(xs)
                lfh = (log[f] + half) % n
                out = []
                for x, y in zip(xs, ys):
                    if y:
                        m = lfh + log[y]
                        if x:
                            la = log[x]
                            z = zech[m - la]
                            x = 0 if z == no_log else exp[la + z]
                        else:
                            x = exp[m]
                    out.append(x)
                return out

        object.__setattr__(self, "add", add)
        object.__setattr__(self, "sub", sub)
        object.__setattr__(self, "mul", mul)
        object.__setattr__(self, "neg", neg)
        object.__setattr__(self, "inv", inv)
        object.__setattr__(self, "sub_row", sub_row)
        object.__setattr__(self, "scale_row", scale_row)

    def scalar(self, m: int) -> int:
        """The image of the rational integer m under the natural map into
        the field, i.e. m copies of 1 summed up."""
        return m % self.p

    def coeffs(self, v: int) -> tuple:
        """Coefficient vector of an element code, length k, constant first."""
        out = []
        for _ in range(self.k):
            v, r = divmod(v, self.p)
            out.append(r)
        return tuple(out)

    def from_coeffs(self, coeffs) -> int:
        """Element code of k coefficients in [0, p), constant first."""
        if len(coeffs) != self.k:
            raise InvalidField(f"expected {self.k} coefficients")
        v = 0
        for c in reversed(coeffs):
            v = v * self.p + c
        return v

    def value(self, x) -> int:
        """Canonical integer code of x: a residue for prime fields, a
        range-checked code for extension fields.  Only an int is an element:
        a bool, float or string raises InvalidField."""
        if not _is_int(x):
            raise InvalidField(f"{x!r} is not an element of {self}")
        if self.k == 1:
            return x % self.p
        if not 0 <= x < self.q:
            raise InvalidField(f"element code {x} out of range for {self}")
        return x

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, GF) and self.p == other.p
                and self.k == other.k and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        return f"GF({self.q})"
