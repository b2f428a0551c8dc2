import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nxmds import hashing

from nxmds.code import CodeParams, encode_array, make_code
from nxmds.errors import ExtensionTooSmall, ShapeMismatch
from nxmds.field import make_extension, make_field, symbol_bits
from nxmds.hashing import (
    PrgSeed,
    RandomVector,
    draw_random_vector,
    draw_vector,
    expand_challenges,
    make_prg_seed,
    minimal_extension_degree,
    node_hash,
    prg_expand,
    prg_expand_many,
    seed_bit_count,
)

F2 = make_field(2)
F5 = make_field(5)


def test_symbol_bits():
    assert symbol_bits(2) == 1
    assert symbol_bits(5) == 3
    assert symbol_bits(16) == 4
    assert symbol_bits(17) == 5
    assert symbol_bits(257) == 9


def test_minimal_extension_degree():
    assert minimal_extension_degree(2, 9) == 3  # 2^3 >= 8
    assert minimal_extension_degree(2, 10) == 4  # 2^3 < 9
    assert minimal_extension_degree(17, 2) == 1  # 17 >= 16
    assert minimal_extension_degree(3, 3) == 2  # 3 < 4
    assert minimal_extension_degree(5, 1) == 1  # degenerate, never less than 1


def test_draw_random_vector_reproducible():
    a = draw_random_vector(3, F5, np.random.default_rng(42))
    b = draw_random_vector(3, F5, np.random.default_rng(42))
    assert a.symbols.tolist() == b.symbols.tolist()
    assert a.provenance == "true-random"
    assert seed_bit_count(a.provenance, CodeParams(2, 1, F5, 3)) == 9  # 3 symbols * 3 bits
    assert all(0 <= v < 5 for v in a.symbols)


def test_draw_random_vector_marginals_uniform():
    # chi-square sanity at fixed seed: 10^5 symbols over GF(5)
    rng = np.random.default_rng(7)
    counts = [0] * 5
    for _ in range(200):
        for v in draw_random_vector(500, F5, rng).symbols:
            counts[v] += 1
    total = sum(counts)
    expected = total / 5
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    assert chi2 < 30  # df = 4; generous to stay deterministic-friendly


def test_drawn_at_increases():
    rng = np.random.default_rng(0)
    a = draw_random_vector(3, F5, rng)
    b = draw_random_vector(3, F5, rng)
    assert a.drawn_at < b.drawn_at


# frozen by hand: GF(8) = GF(2)[t]/(t^3+t+1), x = t (encoding 2), y = 1.
# powers 1, t, t^2, t^3 = t+1 have coordinate vectors (1,0,0), (0,1,0),
# (0,0,1), (1,1,0); inner products with coords(1) = (1,0,0) give 1,0,0,1
def test_prg_expand_hand_example():
    ext = make_extension(F2, 3)
    seed = make_prg_seed(F2, 8, np.random.default_rng(0))
    assert seed.ext is ext
    from nxmds.hashing import PrgSeed

    r = prg_expand(PrgSeed(2, 1, ext), 4)
    assert r.symbols.tolist() == [1, 0, 0, 1]
    assert r.provenance == "pseudorandom"
    assert seed_bit_count(r.provenance, CodeParams(2, 1, F2, 8)) == 6  # m = 3 at N = 8


def test_prg_expand_degenerate_seeds():
    ext = make_extension(F2, 3)
    from nxmds.hashing import PrgSeed

    r = prg_expand(PrgSeed(0, 5, ext), 5)
    # x = 0: only i = 0 contributes (0^0 = 1)
    assert r.symbols[0] == oracles.inner(F2, ext.coords(1), ext.coords(5))
    assert all(v == 0 for v in r.symbols[1:])
    r0 = prg_expand(PrgSeed(3, 0, ext), 5)
    assert r0.symbols.tolist() == [0, 0, 0, 0, 0]


def test_prg_expand_matches_direct_powers():
    # independent route: compute x^i by repeated pow, then inner products
    f5 = F5
    ext = make_extension(f5, 2)
    from nxmds.hashing import PrgSeed

    rng = np.random.default_rng(3)
    for _ in range(20):
        x = int(rng.integers(0, ext.q))
        y = int(rng.integers(0, ext.q))
        N = int(rng.integers(1, 12))
        if ext.q < (f5.q - 1) * (N - 1):
            continue
        r = prg_expand(PrgSeed(x, y, ext), N)
        yc = ext.coords(y)
        for i, v in enumerate(r.symbols):
            expect = 0
            for a, b in zip(ext.coords(ext.pow(x, i)), yc):
                expect = f5.add(expect, f5.mul(a, b))
            assert v == expect


def test_prg_expand_too_small():
    ext = make_extension(F2, 2)
    from nxmds.hashing import PrgSeed

    with pytest.raises(ExtensionTooSmall):
        prg_expand(PrgSeed(1, 1, ext), 9)


def test_make_prg_seed_sizing():
    rng = np.random.default_rng(1)
    s = make_prg_seed(F2, 9, rng)
    assert s.m == 3 and seed_bit_count("pseudorandom", CodeParams(2, 1, F2, 9)) == 6
    s17 = make_prg_seed(make_field(17), 3, rng)
    assert s17.m == 2  # 16 * 2 = 32 exceeds 17
    assert seed_bit_count("pseudorandom", CodeParams(4, 2, make_field(17), 3)) == 2 * 2 * 5
    assert 0 <= s17.x < 17 ** 2 and 0 <= s17.y < 17 ** 2
    assert make_prg_seed(make_field(17), 2, rng).m == 1


def ones(N):
    """The all-ones projection vector over GF(5)."""
    return RandomVector(np.ones(N, dtype=np.int64), F5, "true-random", 0)


def test_node_hash_row_sums():
    # projecting on the all-ones vector sums each row
    r = ones(3)
    content = [[1, 2, 3], [4, 4, 0]]
    assert node_hash(content, r).tolist() == [1, 3]
    assert node_hash([[0, 0, 0]], r).tolist() == [0]


def test_node_hash_miss_condition():
    # a corrupted row changes the hash iff its error is not orthogonal to r
    r = ones(3)
    row = [2, 0, 1]
    e_hidden = [1, 4, 0]  # sums to 0 mod 5
    e_seen = [1, 0, 0]
    dirty_hidden = [(a + b) % 5 for a, b in zip(row, e_hidden)]
    dirty_seen = [(a + b) % 5 for a, b in zip(row, e_seen)]
    assert node_hash([dirty_hidden], r).tolist() == node_hash([row], r).tolist()
    assert node_hash([dirty_seen], r).tolist() != node_hash([row], r).tolist()


def test_node_hash_shape():
    with pytest.raises(ShapeMismatch):
        node_hash([[1, 2]], ones(3))


@pytest.mark.parametrize("kind", ["true-random", "pseudorandom"])
def test_hash_codeword_identity(kind):
    # stacking node hashes of an honest system equals G (X r)
    rng = np.random.default_rng(17)
    f17 = make_field(17)
    params, _ = make_code(5, 3, f17, 6)
    X = [[int(v) for v in row]
         for row in rng.integers(0, 17, size=(params.k * params.alpha, 6))]
    if kind == "true-random":
        r = draw_random_vector(6, f17, rng)
    else:
        r = prg_expand(make_prg_seed(f17, 6, rng), 6)
    H = [v for block in encode_array(params, X) for v in node_hash(block, r).tolist()]
    Xr = [oracles.inner(f17, row, r.symbols.tolist()) for row in X]
    assert H == [oracles.inner(f17, row, Xr) for row in oracles.dense_generator(params)]


@pytest.mark.parametrize("kind", ["true-random", "pseudorandom"])
def test_draw_vector_matches_direct_draws(kind):
    params, _ = make_code(5, 3, make_field(17), 6)
    r, seed = draw_vector(params, kind, np.random.default_rng(3))
    rng = np.random.default_rng(3)
    if kind == "true-random":
        assert seed is None
        assert r.symbols.tolist() == draw_random_vector(6, params.field, rng).symbols.tolist()
    else:
        direct = make_prg_seed(params.field, 6, rng)
        assert (seed.x, seed.y, seed.m) == (direct.x, direct.y, direct.m)
        assert r.symbols.tolist() == prg_expand(direct, 6).symbols.tolist()
    assert r.provenance == kind
    with pytest.raises(ValueError):
        draw_vector(params, "quantum", rng)


def test_seed_bit_count():
    p = CodeParams(4, 2, F5, 3)
    assert seed_bit_count("true-random", p) == 9
    p2 = CodeParams(2, 1, F2, 9)
    assert seed_bit_count("pseudorandom", p2) == 6
    with pytest.raises(ValueError):
        seed_bit_count("quantum", p)


def test_seed_bits_scaling():
    # true-random cost is linear in N; seed cost logarithmic
    f17 = make_field(17)
    true_bits, prg_bits = [], []
    for e in range(4, 13):
        N = 2 ** e
        p = CodeParams(4, 2, f17, N)
        true_bits.append(seed_bit_count("true-random", p))
        prg_bits.append(seed_bit_count("pseudorandom", p))
    for i in range(1, len(true_bits)):
        assert true_bits[i] == 2 * true_bits[i - 1]
        assert prg_bits[i] - prg_bits[i - 1] <= 10  # one extension degree step
    assert prg_bits[-1] <= 2 * 12 * 5


@st.composite
def seed_block(draw):
    """Seeds of one extension of GF(2), GF(17), GF(257) or GF(4), degree
    1..4, or of GF(3000000019), whose products pass int64, degree 1..2,
    with an N the extension has room for."""
    base = draw(st.sampled_from([make_field(2), make_field(17), make_field(257),
                                 make_field(2, 2), make_field(3_000_000_019)]))
    ext = make_extension(base, draw(st.integers(1, 4 if base.q < 1000 else 2)))
    top = min(40, ext.q // (base.q - 1) + 1)
    N = draw(st.integers(1, top))
    elements = st.integers(0, ext.q - 1)
    seeds = draw(st.lists(st.tuples(elements, elements), min_size=1, max_size=12))
    return [PrgSeed(x, y, ext) for x, y in seeds], N


@settings(max_examples=150, deadline=None)
@given(seed_block())
def test_bulk_expansion_matches_prg_expand(case):
    seeds, N = case
    assert ([oracles.vector_fields(r) for r in prg_expand_many(seeds, N)]
            == [oracles.vector_fields(prg_expand(s, N)) for s in seeds])


def test_bulk_expansion_past_int64_is_scalar(monkeypatch):
    # 2 * (p-1)^2 passes 2^63 - 1 for p = 3000000019: the kernel's
    # products run over exact Python ints, with no call of prg_expand
    ext = make_extension(make_field(3_000_000_019), 2)
    seeds = [PrgSeed(ext.q - 1, ext.q - 2, ext), PrgSeed(12345678901, 3, ext)]
    want = [oracles.vector_fields(prg_expand(s, 4)) for s in seeds]
    calls = []
    monkeypatch.setattr(hashing, "prg_expand",
                        lambda s, N: calls.append(s) or prg_expand(s, N))
    assert [oracles.vector_fields(r) for r in prg_expand_many(seeds, 4)] == want
    assert calls == []


def test_bulk_expansion_checks_room_and_extension():
    ext = make_extension(make_field(17), 2)
    with pytest.raises(ExtensionTooSmall):
        prg_expand_many([PrgSeed(1, 1, ext)], 20)
    with pytest.raises(ValueError):
        prg_expand_many([PrgSeed(1, 1, ext), PrgSeed(1, 1, make_extension(F5, 2))], 3)


def test_expand_challenges_keeps_order():
    params, _ = make_code(5, 3, make_field(17), 6)
    rng = np.random.default_rng(4)
    drawn = [hashing.draw_challenge(params, kind, rng)
             for kind in ("pseudorandom", "true-random", "pseudorandom")]
    out = expand_challenges(drawn, 6)
    assert out[1] is drawn[1]
    assert ([oracles.vector_fields(out[0]), oracles.vector_fields(out[2])]
            == [oracles.vector_fields(prg_expand(drawn[0], 6)),
                oracles.vector_fields(prg_expand(drawn[2], 6))])
