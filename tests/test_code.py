import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nxmds import code
from nxmds.code import (
    CodeParams,
    DecodeOutcome,
    decode_codeword,
    erasure_decode,
    hash_word_decode,
    make_code,
    node_rows,
)
from nxmds.errors import (
    BadNodeId,
    FieldMismatch,
    FieldTooSmall,
    ShapeMismatch,
    SingularSystem,
    TooFewNodes,
)
from nxmds.field import make_field
from nxmds.hashing import RandomVector, node_hash
from nxmds.matrix import int64_fits, kernel, row_rank
from nxmds.storage import make_system
from nxmds.verifier import repair_node

F5 = make_field(5)
F7 = make_field(7)


def random_matrix(rng, rows, cols, q):
    return [[int(v) for v in row] for row in rng.integers(0, q, size=(rows, cols))]


def encode_rows(params, X):
    """The encoding as lists of n*alpha rows in node-block order."""
    return code.encode_array(params, X).reshape(params.n * params.alpha, params.N).tolist()


@pytest.mark.parametrize("f", [F7, make_field(257), make_field(2, 3)])
def test_dot_matches_field_ops(f):
    # an inner product is node_hash of one row: one kernel product
    rng = np.random.default_rng(31)
    for size in range(6):
        u, v = ([int(x) for x in rng.integers(0, f.q, size)] for _ in range(2))
        r = RandomVector(np.array(v, dtype=np.int64), f, "true-random", 0)
        assert node_hash([u], r).tolist() == [oracles.inner(f, u, v)]
    with pytest.raises(ShapeMismatch):
        node_hash([[1]], RandomVector(np.array([1, 0]), f, "true-random", 0))


def test_params_validation():
    CodeParams(4, 2, F5, 3)
    with pytest.raises(ValueError):
        CodeParams(2, 2, F5, 1)
    with pytest.raises(ValueError):
        CodeParams(4, 0, F5, 1)
    with pytest.raises(ValueError):
        CodeParams(4, 2, F5, 0)
    with pytest.raises(FieldTooSmall):
        CodeParams(6, 2, F5, 1)


def test_derived_parameters():
    p = CodeParams(6, 3, F7, 4)
    assert p.alpha == 3
    assert p.t1 == 1
    p2 = CodeParams(9, 5, make_field(11), 2)
    assert p2.alpha == 4
    assert p2.t1 == 2


def test_eval_points():
    # 0, 1, then powers of the generator (2 for GF(5): 1,2,4,3)
    assert CodeParams(4, 2, F5, 1).eval_points == (0, 1, 2, 4)
    pts = CodeParams(6, 3, F7, 1).eval_points
    assert pts[0] == 0 and pts[1] == 1
    assert len(set(pts)) == 6


def test_node_rows():
    p = CodeParams(4, 2, F5, 3)
    assert set(node_rows(p, 1)) == {1, 2}
    assert set(node_rows(p, 4)) == {7, 8}
    q = CodeParams(4, 3, F5, 1)
    assert set(node_rows(q, 3)) == {3}
    with pytest.raises(BadNodeId):
        node_rows(p, 0)
    with pytest.raises(BadNodeId):
        node_rows(p, 5)


def group_codeword(params, G, msg):
    """Group 0's codeword of the k-symbol message, every other group zero."""
    X = [[v] for v in msg] + [[0]] * (params.k * (params.alpha - 1))
    return tuple(row[0] for row in encode_rows(params, X)[::params.alpha])


# single-group codewords frozen by hand for (4,2) over GF(5), points
# (0,1,2,4): message (1,0) interpolates to P(x) = 1 - x, giving
# (1,0,4,2); message (1,1) is the constant polynomial, giving (1,1,1,1)
def test_systematic_codeword_examples():
    params, G = make_code(4, 2, F5, 1)
    for msg, expect in [((1, 0), (1, 0, 4, 2)), ((1, 1), (1, 1, 1, 1))]:
        assert group_codeword(params, G, msg) == expect


def test_rs_rows_match_lagrange_oracle():
    # the systematic generator's row d encodes the unit message e_d
    for n, k, f in [(4, 2, F5), (6, 3, F7), (5, 4, F7)]:
        params, G = make_code(n, k, f)
        pts = params.eval_points
        for d in range(k):
            unit = [(pts[j], 1 if j == d else 0) for j in range(k)]
            got = group_codeword(params, G, [int(j == d) for j in range(k)])
            assert list(got) == oracles.lagrange_values(f, unit, pts)


def test_generator_block_structure():
    params, G = make_code(6, 3, F7, 2)
    a, k = params.alpha, params.k
    dense = oracles.dense_generator(params)
    assert len(dense) == params.n * a
    assert all(len(r) == k * a for r in dense)
    for i in range(params.n):
        for g in range(a):
            row = dense[i * a + g]
            for c in range(k * a):
                if c // k != g:
                    assert row[c] == 0


@pytest.mark.parametrize("n,k,f", [(4, 2, F5), (6, 3, F7), (5, 2, F7), (8, 6, make_field(11))])
def test_node_level_mds(n, k, f):
    params, G = make_code(n, k, f)
    a = params.alpha
    dense = oracles.dense_generator(params)
    for subset in itertools.combinations(range(1, n + 1), k):
        stacked = []
        for i in subset:
            stacked.extend(dense[(i - 1) * a:i * a])
        assert row_rank(f, stacked) == k * a


def test_encode_matches_full_matrix_product():
    rng = np.random.default_rng(7)
    params, G = make_code(6, 3, F7, 4)
    X = random_matrix(rng, params.k * params.alpha, params.N, 7)
    C = encode_rows(params, X)
    cols = list(zip(*X))
    dense = oracles.dense_generator(params)
    expect_cols = [[oracles.inner(F7, row, c) for row in dense] for c in cols]
    assert C == [list(r) for r in zip(*expect_cols)]


def test_encode_zero_and_linearity():
    rng = np.random.default_rng(3)
    params, G = make_code(4, 2, F5, 3)
    zero = [[0] * 3 for _ in range(4)]
    assert encode_rows(params, zero) == [[0] * 3 for _ in range(8)]
    X1 = random_matrix(rng, 4, 3, 5)
    X2 = random_matrix(rng, 4, 3, 5)
    s = [[(a + b) % 5 for a, b in zip(r1, r2)] for r1, r2 in zip(X1, X2)]
    C1, C2 = encode_rows(params, X1), encode_rows(params, X2)
    assert encode_rows(params, s) == [
        [(a + b) % 5 for a, b in zip(r1, r2)] for r1, r2 in zip(C1, C2)
    ]


def test_encode_shape_checks():
    params, G = make_code(4, 2, F5, 3)
    with pytest.raises(ShapeMismatch):
        encode_rows(params, [[0] * 3 for _ in range(3)])
    with pytest.raises(ShapeMismatch):
        encode_rows(params, [[0] * 2 for _ in range(4)])


def test_systematic_readoff():
    rng = np.random.default_rng(11)
    params, G = make_code(4, 2, F5, 3)
    a, k = params.alpha, params.k
    X = random_matrix(rng, k * a, 3, 5)
    C = encode_rows(params, X)
    for i in range(k):
        for g in range(a):
            assert C[i * a + g] == X[g * k + i]


def node_slices(params, C):
    a = params.alpha
    return {
        i: [C[(i - 1) * a + j] for j in range(a)]
        for i in range(1, params.n + 1)
    }


@pytest.mark.parametrize("n,k,f", [(4, 2, F5), (6, 3, F7)])
def test_erasure_decode_every_subset(n, k, f):
    rng = np.random.default_rng(n * 100 + k)
    params, G = make_code(n, k, f, 3)
    X = random_matrix(rng, k * params.alpha, 3, f.q)
    slices = node_slices(params, encode_rows(params, X))
    for subset in itertools.combinations(range(1, n + 1), k):
        got = erasure_decode(params, {i: slices[i] for i in subset})
        assert got.tolist() == X


def test_erasure_decode_overdetermined_consistency():
    rng = np.random.default_rng(23)
    params, G = make_code(4, 2, F5, 3)
    X = random_matrix(rng, 4, 3, 5)
    slices = node_slices(params, encode_rows(params, X))
    assert erasure_decode(params, slices).tolist() == X
    # corrupt a non-anchor node: the cross-check must trip
    bad = {i: [list(r) for r in s] for i, s in slices.items()}
    bad[4][0][1] = (bad[4][0][1] + 1) % 5
    with pytest.raises(SingularSystem):
        erasure_decode(params, bad)


def test_erasure_decode_errors():
    params, G = make_code(4, 2, F5, 3)
    content = [[0] * 3, [0] * 3]
    with pytest.raises(TooFewNodes):
        erasure_decode(params, {1: content})
    with pytest.raises(BadNodeId):
        erasure_decode(params, {0: content, 2: content})
    with pytest.raises(ShapeMismatch):
        erasure_decode(params, {1: content, 2: [[0] * 3]})


@pytest.mark.parametrize("f", [F7, make_field(3, 2)], ids=["GF7", "GF9"])
def test_interpolate_every_helper_subset(f):
    # at (6,3), every subset of >= k nodes, given as kernel arrays or as
    # lists, rebuilds every block (the dense generator applied by field
    # calls) and the data; an extra node that disagrees is named
    params, G = make_code(6, 3, f, 2)
    n, a, k = params.n, params.alpha, params.k
    X = random_matrix(np.random.default_rng(f.q), k * a, 2, f.q)
    C = [[oracles.inner(f, row, col) for col in zip(*X)] for row in oracles.dense_generator(params)]
    blocks = {i: C[(i - 1) * a:i * a] for i in range(1, n + 1)}
    state = make_system(params, G, X)
    for size in range(k, n + 1):
        for subset in itertools.combinations(range(1, n + 1), size):
            for given in ({i: state.content(i) for i in subset}, {i: blocks[i] for i in subset}):
                assert code.interpolate(params, given, range(1, n + 1)).tolist() == list(blocks.values())
                assert erasure_decode(params, given).tolist() == X
            for target in set(blocks) - set(subset):
                assert repair_node(state, target, subset).tolist() == blocks[target]
            if size > k:
                bad = {i: [list(row) for row in blocks[i]] for i in subset}
                bad[subset[-1]][1][0] = f.add(bad[subset[-1]][1][0], 1)
                for given in (bad, {i: np.array(rows) for i, rows in bad.items()}):
                    with pytest.raises(SingularSystem, match=f"node {subset[-1]} disagrees "
                                                              "with interpolation in group 1"):
                        code.interpolate(params, given, [1])


def test_replication_code():
    f2 = make_field(2)
    params, G = make_code(2, 1, f2, 1)
    assert oracles.dense_generator(params) == ((1,), (1,))
    assert encode_rows(params, [[1]]) == [[1], [1]]


def test_decode_clean_words():
    params, _ = make_code(4, 2, F5)
    for cw in oracles.all_codewords(params):
        out = decode_codeword(params, cw)
        assert out.ok and out.codeword == cw and out.errors == frozenset()
        assert out.message == cw[:2]


def test_decode_single_errors_exhaustive():
    params, _ = make_code(4, 2, F5)
    for cw in oracles.all_codewords(params):
        for pos in range(4):
            for delta in range(1, 5):
                word = list(cw)
                word[pos] = (word[pos] + delta) % 5
                out = decode_codeword(params, word)
                assert out.ok
                assert out.codeword == cw
                assert out.errors == {pos}


def oracle_words(params, rng):
    """Every error support of weight <= t1 (nonzero error values drawn at
    random) on three codewords, then 120 words mostly beyond the radius:
    codewords hit in t1 + 1 positions, and uniformly random words."""
    f, n, t = params.field, params.n, params.t1
    book = oracles.all_codewords(params)

    def hit(cw, support):
        word = list(cw)
        for p in support:
            word[p] = f.add(word[p], int(rng.integers(1, f.q)))
        return tuple(word)

    for i in rng.choice(len(book), size=3, replace=False):
        for e in range(t + 1):
            for support in itertools.combinations(range(n), e):
                yield hit(book[i], support)
    for _ in range(60):
        yield hit(book[int(rng.integers(len(book)))],
                  rng.choice(n, size=t + 1, replace=False))
        yield tuple(int(v) for v in rng.integers(0, f.q, size=n))


def check_against_oracle(params, words) -> int:
    """Decode each word; returns how many the oracle finds undecodable."""
    undecodable = 0
    for word in words:
        out = decode_codeword(params, word)
        expect = oracles.min_distance_decode(params, word, params.t1)
        if expect is None:
            assert not out.ok
            undecodable += 1
        else:
            assert out.ok and out.codeword == expect
            assert out.message == expect[:params.k]
            assert out.errors == {p for p, v in enumerate(word) if v != expect[p]}
    return undecodable


def test_decode_agrees_with_min_distance_oracle():
    # every word at t1 = 1, garbage beyond the decoding radius included
    params, _ = make_code(4, 2, F5)
    assert check_against_oracle(params, itertools.product(range(5), repeat=4))
    # t1 = 2 over a prime field and over GF(2^3), t1 = 3 over a prime
    # field and over GF(3^2), and t1 = 4
    rng = np.random.default_rng(29)
    for n, k, f in [(6, 2, F7), (7, 3, make_field(2, 3)), (8, 2, make_field(11)),
                    (9, 3, make_field(3, 2)), (10, 2, make_field(11))]:
        params, _ = make_code(n, k, f)
        assert check_against_oracle(params, oracle_words(params, rng))


DECODE_FIELDS = [F7, make_field(11), make_field(2, 3), make_field(2, 4)]


@st.composite
def corrupted_codewords(draw, beyond):
    """(params, codeword, word, support): a codeword of a random code with
    t1 >= 1, and the word it becomes under an error whose support holds
    position 0 (evaluation point 0), of weight 1..t1, or t1 + 1 when
    beyond.  Codes for the beyond case have at most 512 codewords, so
    the exhaustive oracle stays cheap."""
    f = draw(st.sampled_from(DECODE_FIELDS))
    n = draw(st.integers(3, min(f.q, 12 if not beyond else 9)))
    k_max = n - 2 if not beyond else max(j for j in range(1, n - 1) if f.q ** j <= 512)
    params = CodeParams(n, draw(st.integers(1, k_max)), f)
    coeffs = draw(st.lists(st.integers(0, f.q - 1), min_size=params.k, max_size=params.k))
    codeword = tuple(oracles.poly_eval(f, coeffs, x) for x in params.eval_points)
    weight = params.t1 + 1 if beyond else draw(st.integers(1, params.t1))
    others = st.lists(st.integers(1, n - 1), min_size=weight - 1,
                      max_size=weight - 1, unique=True)
    support = frozenset([0, *draw(others)])
    word = list(codeword)
    for p in support:
        word[p] = f.add(word[p], draw(st.integers(1, f.q - 1)))
    return params, codeword, tuple(word), support


@settings(max_examples=150, deadline=None)
@given(corrupted_codewords(beyond=False))
def test_decode_corrects_up_to_t1_errors(case):
    params, codeword, word, support = case
    assert decode_codeword(params, word) == DecodeOutcome(
        True, codeword, codeword[:params.k], support)


@settings(max_examples=150, deadline=None)
@given(corrupted_codewords(beyond=True))
def test_decode_beyond_radius_matches_oracle(case):
    params, _, word, _ = case
    check_against_oracle(params, [word])


def test_decode_two_error_radius():
    # (6,2): t1 = 2, distance-5 code; all weight-2 patterns on one codeword
    params, G = make_code(6, 2, F7)
    base = group_codeword(params, G, (3, 5))
    for p1, p2 in itertools.combinations(range(6), 2):
        word = list(base)
        word[p1] = (word[p1] + 2) % 7
        word[p2] = (word[p2] + 4) % 7
        out = decode_codeword(params, word)
        assert out.ok and out.codeword == base and out.errors == {p1, p2}


def hash_codeword(params, G, mhash):
    """Encode a message-hash vector into the n*alpha hash layout."""
    return [r[0] for r in encode_rows(params, [[v] for v in mhash])]


def columns(vectors):
    """The n*alpha-row matrix whose columns are the given hash vectors."""
    return [list(row) for row in zip(*vectors)]


def oracle_flags(params, H):
    """Flags of one hash vector by exhaustive decoding, group by group:
    None when some group word has no unique codeword within t1."""
    a, n = params.alpha, params.n
    flagged = set()
    for g in range(a):
        word = [H[i * a + g] for i in range(n)]
        cw = oracles.min_distance_decode(params, word, params.t1)
        if cw is None:
            return None
        flagged.update(i + 1 for i in range(n) if cw[i] != word[i])
    return frozenset(flagged)


def test_hash_word_decode_clean():
    rng = np.random.default_rng(5)
    params, G = make_code(4, 2, F5, 1)
    vectors = [hash_codeword(params, G, [int(v) for v in rng.integers(0, 5, size=4)])
               for _ in range(6)]
    assert hash_word_decode(params, columns(vectors)) == [frozenset()] * 6


def test_hash_word_decode_one_bad_block():
    rng = np.random.default_rng(6)
    params, G = make_code(4, 2, F5, 1)
    a = params.alpha
    H = hash_codeword(params, G, [int(v) for v in rng.integers(0, 5, size=4)])
    vectors, want = [], []
    for node in range(1, 5):
        for rep in [(1, 1), (4, 0), (2, 3)]:
            bad = list(H)
            lo = (node - 1) * a
            bad[lo:lo + a] = rep
            vectors.append(bad)
            want.append(frozenset({node}) if list(rep) != H[lo:lo + a] else frozenset())
    assert hash_word_decode(params, columns(vectors)) == want


def test_hash_word_decode_beyond_radius_matches_oracle():
    params, G = make_code(4, 2, F5, 1)
    a = params.alpha
    rng = np.random.default_rng(8)
    vectors = []
    for _ in range(200):
        H = hash_codeword(params, G, [int(v) for v in rng.integers(0, 5, size=4)])
        n1, n2 = rng.choice(4, size=2, replace=False) + 1
        for node in (n1, n2):
            lo = (node - 1) * a
            H[lo:lo + a] = [int(v) for v in rng.integers(0, 5, size=a)]
        vectors.append(H)
    got = hash_word_decode(params, columns(vectors))
    want = [oracle_flags(params, H) for H in vectors]
    assert got == want
    assert None in want and any(want)  # both outcomes occur


def test_hash_word_decode_shape():
    params, _ = make_code(4, 2, F5, 1)
    for rows in (7, 9):
        with pytest.raises(ShapeMismatch):
            hash_word_decode(params, [[0, 0]] * rows)


def replay_flags(params, column):
    """Flags of one hash vector by the support-enumeration oracle, group
    word by group word: None when some word is undecodable."""
    a, n = params.alpha, params.n
    flagged = set()
    for g in range(a):
        out = oracles.support_decode(params, [column[i * a + g] for i in range(n)])
        if out is None:
            return None
        flagged.update(p + 1 for p in out[1])
    return frozenset(flagged)


EDGE_P, PAST_EDGE_P = oracles.edge_primes(6)
# (field, n, k): t1 = 1 to 4, the largest p whose products of n = 6
# terms fit int64 and the next prime, p ~ 3*10^9, and two extension fields
BULK_CASES = {"GF3": (make_field(3), 3, 1), "GF7": (F7, 6, 2),
              "GF17": (make_field(17), 7, 3), "GF257": (make_field(257), 12, 6),
              "GF65537": (make_field(65537), 10, 2), "edge": (make_field(EDGE_P), 6, 2),
              "past-edge": (make_field(PAST_EDGE_P), 6, 2),
              "p3000000019": (make_field(3000000019), 6, 2),
              "GF8": (make_field(2, 3), 6, 2), "GF9": (make_field(3, 2), 7, 3)}


@st.composite
def corrupted_hash_block(draw, f, n, k):
    """(params, H): 1-4 hash vectors of random data, in the columns of H,
    each with 0 to t1 + 2 bad nodes (node 1, evaluation point 0, among
    them when drawn) whose symbols move by drawn offsets, 0 included."""
    B = draw(st.integers(1, 4))
    params = CodeParams(n, k, f, B)
    a, t1 = params.alpha, params.t1
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    H = encode_rows(params, random_matrix(rng, k * a, B, f.q))
    for b in range(B):
        bad = draw(st.sets(st.integers(0, n - 1), max_size=min(n, t1 + 2)))
        if draw(st.booleans()):
            bad = {0, *list(bad)[:t1 + 1]}
        for i in bad:
            for g in range(a):
                H[i * a + g][b] = f.add(H[i * a + g][b], draw(st.integers(0, f.q - 1)))
    return params, H


@pytest.mark.parametrize("f,n,k", BULK_CASES.values(), ids=BULK_CASES.keys())
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_bulk_hash_word_decode_matches_scalar_replay(f, n, k, data):
    params, H = data.draw(corrupted_hash_block(f, n, k))
    want = [replay_flags(params, column) for column in zip(*H)]
    assert hash_word_decode(params, H) == want


# (field, n, k) for the syndrome decoder against the oracles: q = n over
# GF(3), GF(5), GF(7) and GF(8); odd n-k (GF5, p3000000019, GF5-t0);
# t1 = 0 (GF5-t0); the int64 edge and past it; characteristic 2 (GF8 at
# t1 = 3, so node 1 and two more errors leave a locator of degree 2,
# whose derivative loses its x term) and GF(9)
LOCKSTEP_CASES = {"GF3": (make_field(3), 3, 1), "GF5": (F5, 5, 2), "GF7": (F7, 7, 3),
                  "GF257": (make_field(257), 8, 2), "edge": (make_field(EDGE_P), 6, 2),
                  "past-edge": (make_field(PAST_EDGE_P), 6, 2),
                  "p3000000019": (make_field(3000000019), 7, 2),
                  "GF8": (make_field(2, 3), 8, 2), "GF9": (make_field(3, 2), 7, 3),
                  "GF5-t0": (F5, 4, 3)}


def near_codewords(rng, params, count):
    """count words: a codeword (a drawn polynomial of degree < k at the
    evaluation points) with 0 to t1 + 2 symbols moved by nonzero
    offsets, node 1 (evaluation point 0) always among them."""
    f, n, k = params.field, params.n, params.k
    words = []
    for _ in range(count):
        coeffs = [int(v) for v in rng.integers(0, f.q, size=k)]
        word = [oracles.poly_eval(f, coeffs, x) for x in params.eval_points]
        size = int(rng.integers(0, min(n, params.t1 + 2) + 1))
        bad = {0, *(int(i) for i in rng.choice(np.arange(1, n), size=max(size - 1, 0), replace=False))}
        for i in bad if size else ():
            word[i] = f.add(word[i], 1 + int(rng.integers(f.q - 1)))
        words.append(word)
    return words


@pytest.mark.parametrize("f,n,k", LOCKSTEP_CASES.values(), ids=LOCKSTEP_CASES.keys())
def test_lockstep_decoder_matches_oracles(f, n, k):
    # one block of words in lockstep, every outcome against Gao's decoder
    # and support enumeration, and against the whole codebook where it is
    # small; decode_codeword runs each word alone
    params = CodeParams(n, k, f, 1)
    words = near_codewords(np.random.default_rng(n * k), params, 60)
    cw, ok = code._decode_words(params, kernel(f).asarray([list(c) for c in zip(*words)]))
    got = [tuple(c) if good else None for c, good in zip(cw.T.tolist(), ok)]
    assert got == [oracles.gao_decode(params, w) for w in words]
    supports = [oracles.support_decode(params, w) for w in words]
    assert got == [None if out is None else out[0] for out in supports]
    if f.q ** k <= 4096:
        assert got == [oracles.min_distance_decode(params, w, params.t1) for w in words]
    assert [decode_codeword(params, w).codeword for w in words] == got
    # both outcomes occur, and some decoded word had an error at node 1
    assert None in got and (params.t1 == 0 or any(
        c is not None and c[0] != w[0] for c, w in zip(got, words)))


def test_edge_primes_straddle_int64():
    assert int64_fits(EDGE_P, 6) and not int64_fits(PAST_EDGE_P, 6)


def polynomial_data(rng, params):
    """(X, C): for each group and column a drawn polynomial of degree < k,
    X holding its values at the first k evaluation points and C its
    values at all n, by Horner evaluation (oracles.poly_eval), with no
    interpolation."""
    f, a, k, N = params.field, params.alpha, params.k, params.N
    X = [[0] * N for _ in range(k * a)]
    C = [[0] * N for _ in range(params.n * a)]
    for g in range(a):
        for c in range(N):
            coeffs = [int(v) for v in rng.integers(0, f.q, size=k)]
            for i, x in enumerate(params.eval_points):
                C[i * a + g][c] = y = oracles.poly_eval(f, coeffs, x)
                if i < k:
                    X[g * k + i][c] = y
    return X, C


# EDGE_P is the largest prime whose sums of 6 products fit int64, so at
# k = 6 PAST_EDGE_P is the first whose products run over Python ints
ENCODE_CASES = {"GF257": CodeParams(8, 6, make_field(257), 5),
                "edge": CodeParams(8, 6, make_field(EDGE_P), 5),
                "past-edge": CodeParams(8, 6, make_field(PAST_EDGE_P), 5),
                "GF9": CodeParams(7, 5, make_field(3, 2), 5)}


@pytest.mark.parametrize("params", ENCODE_CASES.values(), ids=ENCODE_CASES.keys())
def test_encode_matches_polynomial_evaluation(params):
    X, C = polynomial_data(np.random.default_rng(params.field.q % 1000), params)
    assert encode_rows(params, X) == C
    kern = kernel(params.field)
    got = code.encode_array(params, kern.asarray(np.array(X, dtype=np.int64)))
    n, a, N = params.n, params.alpha, params.N
    assert got.dtype == kern.dtype and got.shape == (n, a, N)
    assert got.reshape(n * a, N).tolist() == C


@pytest.mark.parametrize("f", [make_field(257), make_field(EDGE_P)], ids=["GF257", "edge"])
@pytest.mark.parametrize("value", [np.int64(3), -1, "p"])
def test_encode_rejects_non_elements(f, value):
    params = CodeParams(8, 6, f, 2)
    X = [[0, 1] for _ in range(12)]
    X[7][1] = f.p if value == "p" else value
    with pytest.raises(FieldMismatch, match="is not an element of GF"):
        encode_rows(params, X)


@pytest.mark.parametrize("f", [make_field(3000000019), make_field(PAST_EDGE_P),
                               make_field(3, 2), make_field(2, 3)],
                         ids=["p3000000019", "past-edge", "GF9", "GF8"])
def test_scalar_fields_take_the_scalar_path(monkeypatch, f):
    # every field, past int64 and extension fields included, decodes
    # through the one kernel path
    params = CodeParams(6, 2, f, 3)
    a = params.alpha
    H = encode_rows(params, random_matrix(np.random.default_rng(41), 2 * a, 3, f.q))
    for g in range(a):  # node 1 misreports in hash vector 0
        H[g][0] = f.add(H[g][0], 1)
    decoded = []

    def spy(params, S):
        decoded.append(S.shape[1])
        return lockstep_block(params, S)

    lockstep_block = code._lockstep_block
    monkeypatch.setattr(code, "_lockstep_block", spy)
    assert hash_word_decode(params, H) == [frozenset({1}), frozenset(), frozenset()]
    assert decoded == [a]


def test_bulk_hash_word_decode_checks_every_symbol():
    params = CodeParams(4, 2, make_field(17), 2)
    for value, row in [(17, 0), (-1, 7), (1.0, 5), (2 ** 64, 3)]:
        H = [[0, 0] for _ in range(8)]
        H[row][1] = value
        with pytest.raises(FieldMismatch, match="is not an element of GF"):
            hash_word_decode(params, H)


def test_codeparams_cache_friendly():
    a = CodeParams(4, 2, F5, 3)
    b = CodeParams(4, 2, F5, 3)
    assert a == b and hash(a) == hash(b)
    ga = make_code(4, 2, F5, 3)[1]
    gb = make_code(4, 2, F5, 3)[1]
    assert ga == gb and code._tables(a) is code._tables(b)
