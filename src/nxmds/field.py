"""Finite field arithmetic: GF(p), GF(p^s), and extensions GF(q^m).

Elements are plain integers in [0, order).  For an extension of degree s
over a base of order b, the base-b digits of the integer (least
significant digit first) are the coefficients of the residue polynomial
in ascending degree.  This encoding is canonical: one integer per field
value, 0 and 1 are always the additive and multiplicative identities.

PrimeField and ExtensionField share one base, _Field, which holds the
element test against q, inversion as a^(q-2) through the subclass's
pow, division through its mul, and the cached generator; each subclass
writes out only its add, sub, neg, mul, pow and encoding.
ExtensionField._mul_digits keeps its own reduction rather than calling
_poly_mulmod: the polynomial helpers skip zero coefficients, which
speeds the modulus search, while an extension product must cost the
same base-field operations for every pair of elements, so that
instrumented counts (experiments.cost_counter) do not depend on values.

Moduli are chosen deterministically: candidate monic polynomials are
scanned in increasing order of their coefficient encoding, and the first
irreducible one wins.  Irreducibility is decided by Rabin's test (M. O.
Rabin, "Probabilistic algorithms in finite fields", 1980), which is
exact and costs O(m^3 log q) base-field operations, so a degree-2
extension of a 32-bit prime field builds at once.

Examples of moduli found this way:
    GF(2^2): x^2 + x + 1
    GF(2^3): x^3 + x + 1
    GF(3^2): x^2 + 1
"""

from __future__ import annotations

from functools import lru_cache

from .errors import FieldMismatch, NonPrimeCharacteristic


def symbol_bits(q: int) -> int:
    """Whole bits needed to store one symbol of a size-q field."""
    return (q - 1).bit_length()


def _smallest_factor(n: int) -> int:
    """The smallest prime factor of n >= 2: the one trial-division loop
    of is_prime, prime_factors and _as_prime_power."""
    if n % 2 == 0:
        return 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return d
        d += 2
    return n


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test; fine below ~10^12."""
    return n >= 2 and _smallest_factor(n) == n


def prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime factors of n, ascending."""
    out = []
    while n > 1:
        d = _smallest_factor(n)
        out.append(d)
        while n % d == 0:
            n //= d
    return tuple(out)


class _Field:
    """What GF(p) and GF(b^m) share, written once against self.q and
    each subclass's pow and mul: the element test, inversion by
    Fermat's little theorem, division and the cached generator."""

    __slots__ = ()

    def check(self, a: int) -> int:
        if not isinstance(a, int) or not 0 <= a < self.q:
            raise FieldMismatch(f"{a!r} is not an element of {self!r}")
        return a

    def inv(self, a: int) -> int:
        if self.check(a) == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.pow(a, self.q - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    @property
    def generator(self) -> int:
        """Smallest element (by encoding) generating the multiplicative group."""
        if self._gen is None:
            self._gen = _find_generator(self)
        return self._gen


class PrimeField(_Field):
    """GF(p): integers mod a prime p."""

    __slots__ = ("p", "s", "q", "modulus", "_gen")

    def __init__(self, p: int):
        if not is_prime(p):
            raise NonPrimeCharacteristic(f"{p} is not prime")
        self.p = p
        self.s = 1
        self.q = p
        # degree-1 placeholder modulus, coefficients ascending: x
        self.modulus = (0, 1)
        self._gen = None

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def add(self, a: int, b: int) -> int:
        return (self.check(a) + self.check(b)) % self.p

    def sub(self, a: int, b: int) -> int:
        return (self.check(a) - self.check(b)) % self.p

    def neg(self, a: int) -> int:
        return -self.check(a) % self.p

    def mul(self, a: int, b: int) -> int:
        return self.check(a) * self.check(b) % self.p

    def pow(self, a: int, e: int) -> int:
        # convention: 0^0 = 1
        if e < 0:
            raise ValueError("negative exponent")
        return pow(self.check(a), e, self.p)


class ExtensionField(_Field):
    """GF(b^m): degree-m extension of a base field of order b.

    Arithmetic is polynomial arithmetic on the digit vectors, reduced by
    the irreducible modulus.  All digit operations go through the base
    field object, so an instrumented base field sees every one of them.
    """

    __slots__ = ("base", "m", "q", "p", "s", "modulus", "_gen")

    def __init__(self, base, m: int):
        if m < 1:
            raise ValueError("extension degree must be >= 1")
        self.base = base
        self.m = m
        self.q = base.q ** m
        self.p = base.p
        self.s = base.s * m
        self.modulus = lowest_irreducible(base, m)
        self._gen = None

    def __repr__(self):
        return f"GF({self.base.q}^{self.m})"

    def __eq__(self, other):
        return (
            isinstance(other, ExtensionField)
            and other.base == self.base
            and other.m == self.m
        )

    def __hash__(self):
        return hash(("EXT", self.base, self.m))

    # -- digit encoding --------------------------------------------------

    def coords(self, a: int) -> tuple[int, ...]:
        """Coefficient vector over the base field, ascending degree, of
        the checked element: its m base-b digits (_digits).

        The map is base-field-linear and bijective onto base^m.
        """
        return _digits(self.check(a), self.base.q, self.m)

    def _undigits(self, ds) -> int:
        b = self.base.q
        a = 0
        for d in reversed(ds):
            a = a * b + d
        return a

    # -- arithmetic ------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        f = self.base
        return self._undigits([f.add(x, y) for x, y in zip(self.coords(a), self.coords(b))])

    def sub(self, a: int, b: int) -> int:
        f = self.base
        return self._undigits([f.sub(x, y) for x, y in zip(self.coords(a), self.coords(b))])

    def neg(self, a: int) -> int:
        f = self.base
        return self._undigits([f.neg(x) for x in self.coords(a)])

    def mul(self, a: int, b: int) -> int:
        return self._undigits(self._mul_digits(self.coords(a), self.coords(b)))

    def _mul_digits(self, da, db) -> list[int]:
        # schoolbook product then reduction by the monic modulus; no
        # zero-skipping so the base-field operation count depends only on m
        f = self.base
        m = self.m
        prod = [0] * (2 * m - 1)
        for i in range(m):
            ai = da[i]
            for j in range(m):
                prod[i + j] = f.add(prod[i + j], f.mul(ai, db[j]))
        mod = self.modulus
        for d in range(2 * m - 2, m - 1, -1):
            c = prod[d]
            prod[d] = 0
            for t in range(m):
                prod[d - m + t] = f.sub(prod[d - m + t], f.mul(c, mod[t]))
        return prod[:m]

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            raise ValueError("negative exponent")
        self.check(a)
        out = 1
        base = a
        while e:
            if e & 1:
                out = self.mul(out, base)
            e >>= 1
            if e:
                base = self.mul(base, base)
        return out


def _find_generator(field) -> int:
    order = field.q - 1
    facs = prime_factors(order) if order > 1 else ()
    for g in range(1, field.q):
        if all(field.pow(g, order // f) != 1 for f in facs):
            return g
    raise AssertionError("no multiplicative generator found")


# -- polynomial helpers over an arbitrary base field ----------------------

def _poly_rem(f, num, den):
    """Remainder of num modulo monic den; coefficient lists, ascending."""
    num = list(num)
    d = len(den) - 1
    for i in range(len(num) - 1, d - 1, -1):
        c = num[i]
        if c == 0:
            continue
        num[i] = 0
        for t in range(d):
            num[i - d + t] = f.sub(num[i - d + t], f.mul(c, den[t]))
    return num[:d]


def _digits(a: int, b: int, m: int) -> tuple[int, ...]:
    """The m base-b digits of a, least significant first."""
    out = []
    for _ in range(m):
        a, d = divmod(a, b)
        out.append(d)
    return tuple(out)


def _monic_from_encoding(f, enc: int, degree: int):
    return [*_digits(enc, f.q, degree), 1]


def _poly_mulmod(f, a, b, mod):
    """a*b modulo the monic mod; a and b are residues (length deg mod)."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = f.add(prod[i + j], f.mul(x, y))
    return _poly_rem(f, prod, mod)


def _poly_powmod(f, a, e: int, mod):
    out = [1] + [0] * (len(mod) - 2)
    while e:
        if e & 1:
            out = _poly_mulmod(f, out, a, mod)
        e >>= 1
        if e:
            a = _poly_mulmod(f, a, a, mod)
    return out


def _coprime(f, a, b) -> bool:
    """Whether gcd(a, b) = 1, by Euclid's algorithm; b is nonzero."""
    while True:
        while a and a[-1] == 0:
            a = a[:-1]
        if not a:
            return len(b) == 1
        inv = f.inv(a[-1])
        a, b = _poly_rem(f, b, [f.mul(inv, c) for c in a]), a


def is_irreducible(f, poly) -> bool:
    """Rabin's test for a monic poly of degree m over f of order q: it is
    irreducible iff x^(q^m) = x mod poly and, for every prime r | m,
    gcd(x^(q^(m/r)) - x, poly) = 1.  Every step is base-field arithmetic
    through f, so an instrumented field sees it."""
    m = len(poly) - 1
    if m < 1 or poly[-1] != 1:
        raise ValueError("expected a monic polynomial of degree >= 1")
    x = _poly_rem(f, [0, 1] + [0] * (m - 1), poly)
    frobenius = [x]  # x^(q^j) mod poly for j = 0..m
    for _ in range(m):
        frobenius.append(_poly_powmod(f, frobenius[-1], f.q, poly))
    if frobenius[m] != x:
        return False
    return all(
        _coprime(f, [f.sub(u, v) for u, v in zip(frobenius[m // r], x)], list(poly))
        for r in prime_factors(m)
    )


def lowest_irreducible(base, m: int) -> tuple[int, ...]:
    """First monic irreducible of degree m over base, scanning candidates
    in increasing order of their coefficient encoding."""
    for enc in range(base.q ** m):
        cand = _monic_from_encoding(base, enc, m)
        if is_irreducible(base, cand):
            return tuple(cand)
    raise AssertionError(f"no irreducible of degree {m} over {base!r}")


# -- constructors ----------------------------------------------------------

@lru_cache(maxsize=None)
def make_field(p: int, s: int = 1):
    """GF(p^s).  p must be prime, s >= 1."""
    if s < 1:
        raise ValueError("extension degree must be >= 1")
    if s == 1:
        return PrimeField(p)
    return ExtensionField(PrimeField(p), s)


@lru_cache(maxsize=None)
def make_extension(base, m: int) -> ExtensionField:
    """Degree-m extension of an existing field, with a deterministic modulus."""
    return ExtensionField(base, m)


def field_from_order(q: int):
    """GF(q) for a prime power q."""
    ps = _as_prime_power(q)
    if ps is None:
        raise NonPrimeCharacteristic(f"{q} is not a prime power")
    return make_field(*ps)


def _as_prime_power(q: int):
    """(p, s) with q = p^s, or None; only q's smallest prime factor is
    searched for, so a composite is never factored in full."""
    if q < 2:
        return None
    p, s = _smallest_factor(q), 0
    while q % p == 0:
        q //= p
        s += 1
    return (p, s) if q == 1 else None


def next_prime_power(x: int) -> tuple[int, int]:
    """Smallest prime power >= x, returned as (p, s)."""
    if x < 2:
        raise ValueError("argument must be >= 2")
    q = x
    while True:
        ps = _as_prime_power(q)
        if ps is not None:
            return ps
        q += 1


def iter_elements(field):
    """Canonical element order, lazily: 0, then powers of the canonical
    generator starting from g^0 = 1.  Yields each element exactly once."""
    yield 0
    g = field.generator
    x = 1
    for _ in range(field.q - 1):
        yield x
        x = field.mul(x, g)
