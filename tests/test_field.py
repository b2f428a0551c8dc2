import time

import pytest
from hypothesis import given, strategies as st

import oracles
from nxmds.errors import FieldMismatch, NonPrimeCharacteristic
from nxmds.field import (
    ExtensionField,
    field_from_order,
    is_irreducible,
    is_prime,
    iter_elements,
    lowest_irreducible,
    make_extension,
    make_field,
    next_prime_power,
    prime_factors,
)


def test_is_prime_small():
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 127, 257]
    composites = [0, 1, 4, 6, 8, 9, 10, 15, 21, 25, 49, 121, 255]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(c) for c in composites)


def test_prime_factors():
    assert prime_factors(1) == ()
    assert prime_factors(12) == (2, 3)
    assert prime_factors(255) == (3, 5, 17)
    assert prime_factors(97) == (97,)


def test_next_prime_power():
    assert next_prime_power(2) == (2, 1)
    assert next_prime_power(4) == (2, 2)
    assert next_prime_power(5) == (5, 1)
    assert next_prime_power(6) == (7, 1)
    assert next_prime_power(9) == (3, 2)
    assert next_prime_power(10) == (11, 1)
    assert next_prime_power(16) == (2, 4)
    assert next_prime_power(127) == (127, 1)
    assert next_prime_power(128) == (2, 7)
    with pytest.raises(ValueError):
        next_prime_power(1)


def test_field_from_order():
    assert field_from_order(8).q == 8
    assert field_from_order(9).p == 3
    with pytest.raises(NonPrimeCharacteristic):
        field_from_order(6)


def test_make_field_rejects_composite_characteristic():
    with pytest.raises(NonPrimeCharacteristic):
        make_field(6)
    with pytest.raises(ValueError):
        make_field(5, 0)


def test_fields_are_cached_and_value_equal():
    assert make_field(7) is make_field(7)
    assert make_field(2, 3) is make_field(2, 3)
    assert make_field(2, 3) == ExtensionField(make_field(2), 3)
    assert make_field(3) != make_field(5)


# deterministic modulus choices, checked against by-hand factorizations:
# over GF(2), x^2+1 = (x+1)^2 and x^2+x = x(x+1), so x^2+x+1 is the first
# irreducible quadratic; over GF(3) already x^2+1 has no root.
def test_modulus_examples():
    assert make_field(2, 2).modulus == (1, 1, 1)
    assert make_field(2, 3).modulus == (1, 1, 0, 1)
    assert make_field(3, 2).modulus == (1, 0, 1)


def test_lowest_irreducible_is_minimal():
    # independent check: everything before the chosen modulus must factor
    f = make_field(2)
    for m in (2, 3, 4, 8):
        chosen = lowest_irreducible(f, m)
        enc_chosen = sum(c << i for i, c in enumerate(chosen[:-1]))
        for enc in range(enc_chosen):
            digits = []
            e = enc
            for _ in range(m):
                e, d = divmod(e, 2)
                digits.append(d)
            assert not oracles.irreducible_by_trial_division(f, digits + [1])
        assert oracles.irreducible_by_trial_division(f, list(chosen))


@pytest.mark.parametrize("q", [2, 3, 5, 4])
def test_rabin_matches_trial_division(q):
    # every monic polynomial of degree 1..4, over prime and extension bases
    f = field_from_order(q)
    for m in range(1, 5):
        for enc in range(q ** m):
            poly = oracles.monic(f, enc, m)
            assert is_irreducible(f, poly) == oracles.irreducible_by_trial_division(f, poly)


def test_rabin_matches_trial_division_gf257_quadratics():
    # the quadratics x^2 + b x + c for five linear coefficients b and
    # every c: 1,285 of the 66,049 monic quadratics over GF(257), since
    # Rabin's test costs about 0.15 ms and trial division about 0.8 ms
    # each.  b = 0 holds the GF(257^2) modulus x^2 + 3 and every
    # candidate the scan rejects before it
    f = make_field(257)
    for b in (0, 1, 2, 128, 256):
        for c in range(257):
            poly = [c, b, 1]
            assert is_irreducible(f, poly) == oracles.irreducible_by_trial_division(f, poly)


def test_extension_of_32_bit_prime_builds():
    # 3000000019 = 3 mod 4, so -1 is a non-residue and x^2 + 1 is the
    # first irreducible of the scan; trial division would try p divisors
    t0 = time.monotonic()
    ext = make_extension(make_field(3_000_000_019), 2)
    assert ext.modulus == (1, 0, 1)
    assert time.monotonic() - t0 < 5


def test_irreducible_has_no_roots():
    for p, s in [(2, 4), (3, 3), (5, 2), (7, 2)]:
        base = make_field(p)
        mod = lowest_irreducible(base, s)
        for x in range(p):
            # evaluate by Horner
            acc = 0
            for c in reversed(mod):
                acc = (acc * x + c) % p
            assert acc != 0, f"{mod} has root {x} mod {p}"


FIELD_ORDERS = [2, 3, 5, 7, 11, 4, 8, 16, 32, 9, 27, 25, 49, 64]


@pytest.mark.parametrize("q", FIELD_ORDERS)
def test_field_axioms_exhaustive(q):
    f = field_from_order(q)
    els = list(range(f.q))
    assert f.q == q
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a != 0:
            assert f.mul(a, f.inv(a)) == 1
    for a in els:
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            assert f.sub(a, b) == f.add(a, f.neg(b))
            for c in els[:5]:
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
                assert f.add(a, f.add(b, c)) == f.add(f.add(a, b), c)


@pytest.mark.parametrize("q", [7, 8, 9, 25])
def test_no_zero_divisors(q):
    f = field_from_order(q)
    for a in range(1, q):
        for b in range(1, q):
            assert f.mul(a, b) != 0


@pytest.mark.parametrize("q", FIELD_ORDERS)
def test_pow_matches_repeated_multiplication(q):
    f = field_from_order(q)
    for a in [0, 1, q - 1, q // 2]:
        acc = 1
        for e in range(6):
            assert f.pow(a, e) == acc
            acc = f.mul(acc, a)
    assert f.pow(0, 0) == 1
    with pytest.raises(ValueError):
        f.pow(1, -1)


@pytest.mark.parametrize("q", FIELD_ORDERS)
def test_fermat(q):
    f = field_from_order(q)
    for a in range(1, q):
        assert f.pow(a, q - 1) == 1


@pytest.mark.parametrize("q", FIELD_ORDERS)
def test_generator_order_and_minimality(q):
    f = field_from_order(q)
    g = f.generator
    seen = set()
    x = 1
    for _ in range(q - 1):
        seen.add(x)
        x = f.mul(x, g)
    assert len(seen) == q - 1
    # nothing smaller generates
    for h in range(1, g):
        order = 1
        x = h
        while x != 1:
            x = f.mul(x, h)
            order += 1
        assert order < q - 1


def test_generator_examples():
    assert make_field(5).generator == 2
    assert make_field(7).generator == 3
    assert make_field(2, 2).generator == 2  # the residue x
    assert make_field(3, 2).generator == 4  # x + 1; both 2 and x have small order


def test_element_enumeration():
    for q in [2, 5, 8, 9]:
        f = field_from_order(q)
        order = list(iter_elements(f))
        assert order[0] == 0
        assert order[1] == 1
        assert sorted(order) == list(range(q))


def test_coords_roundtrip_and_linearity():
    for p, s in [(2, 3), (3, 2), (5, 2), (2, 8)]:
        f = make_field(p, s)
        seen = set()
        for a in range(f.q):
            v = f.coords(a)
            assert len(v) == s
            assert sum(d * p ** j for j, d in enumerate(v)) == a
            seen.add(v)
        assert len(seen) == f.q
        # additivity of the coordinate map
        for a in [1, f.q - 1, f.q // 3]:
            for b in [1, 2, f.q // 2]:
                va, vb = f.coords(a), f.coords(b)
                vsum = tuple((x + y) % p for x, y in zip(va, vb))
                assert f.coords(f.add(a, b)) == vsum


def test_tower_extension_coords():
    # GF(8^2) built on GF(8): coords are its two base-8 digits
    f8 = make_field(2, 3)
    f64 = make_extension(f8, 2)
    assert f64.q == 64
    assert f64.p == 2
    assert f64.s == 6
    for a in [0, 1, 7, 63, 37]:
        v = f64.coords(a)
        assert len(v) == 2 and v[0] + 8 * v[1] == a


def test_tower_is_a_field():
    f3 = make_field(3)
    f9 = make_extension(f3, 2)
    f81 = make_extension(f9, 2)
    assert f81.q == 81
    for a in range(1, 81):
        assert f81.mul(a, f81.inv(a)) == 1


def test_check_rejects_out_of_range():
    f = make_field(5)
    with pytest.raises(FieldMismatch):
        f.add(1, 5)
    with pytest.raises(FieldMismatch):
        f.mul(-1, 2)
    g = make_field(2, 2)
    with pytest.raises(FieldMismatch):
        g.add(4, 0)


def test_inv_of_zero_raises():
    for q in [5, 9]:
        with pytest.raises(ZeroDivisionError):
            field_from_order(q).inv(0)


@given(st.integers(0, 26), st.integers(0, 26), st.integers(0, 26))
def test_f27_associativity_distributivity(a, b, c):
    f = make_field(3, 3)
    assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
