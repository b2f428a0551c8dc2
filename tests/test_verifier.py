import itertools
from fractions import Fraction

import numpy as np
import pytest

import oracles

from nxmds import clock, code, hashing
from nxmds.code import interpolate, make_code
from nxmds.errors import (
    CommitmentViolation,
    CorruptHelper,
    DegenerateCode,
    FieldMismatch,
    ShapeMismatch,
    SingularSystem,
    TooFewHelpers,
)
from nxmds.experiments import _block_misses
from nxmds.field import FieldSpec, make_field
from nxmds.hashing import (
    RandomVector,
    draw_random_vector,
    make_prg_seed,
    prg_expand,
)
from nxmds.storage import (
    ErrorPlan,
    corrupt,
    from_slices,
    make_system,
    sample_error_plan,
    true_error_set,
)
from nxmds.matrix import kernel
from nxmds.verifier import (
    THEOREMS,
    VerificationReport,
    accounting,
    choose_field,
    collect_hashes,
    failure_bound,
    repair_node,
    verify,
)

F17 = make_field(17)


def build_with_data(n=4, k=2, f=F17, N=3, seed=0):
    """build, and the data X the state stores."""
    params, G = make_code(n, k, f, N)
    rng = np.random.default_rng(seed)
    X = [[int(v) for v in row]
         for row in rng.integers(0, f.q, size=(k * params.alpha, N))]
    return params, G, make_system(params, G, X), rng, X


def build(n=4, k=2, f=F17, N=3, seed=0):
    return build_with_data(n, k, f, N, seed)[:4]


def test_collect_hashes_honest_is_codeword():
    params, G, state, rng, X = build_with_data()
    r = draw_random_vector(3, F17, rng)
    H = collect_hashes(state, r)
    Xr = [oracles.inner(F17, row, r.symbols.tolist()) for row in X]
    assert H.tolist() == [oracles.inner(F17, row, Xr) for row in oracles.dense_generator(params)]
    assert H.shape == (params.n * params.alpha,) and not H.flags.writeable


HASH_FIELDS = {"GF17": F17, "GF9": make_field(3, 2), "GF8": make_field(2, 3),
               "p3000000019": make_field(3_000_000_019)}


@pytest.mark.parametrize("f", HASH_FIELDS.values(), ids=HASH_FIELDS.keys())
def test_collect_hashes_match_field_calls(f):
    # over p = 3000000019 the kernel's products run in object dtype; node
    # content hashes alike as the state's arrays, as the int64 arrays the
    # container reads and as lists, and a liar's block replaces its own.
    # Hashes and rebuilt blocks are arrays of the kernel's dtype.
    params, G, state, rng, X = build_with_data(5, 2, f, N=4, seed=f.q % 1000)
    plan = sample_error_plan("random-dense", 1, rng, params)
    corrupt(state, plan)
    r = draw_random_vector(4, f, rng)
    a, dtype = params.alpha, kernel(f).dtype
    want = [oracles.inner(f, row, r.symbols.tolist()) for s in state.nodes for row in s.tolist()]
    for i, s in enumerate(state.nodes):
        for content in (s, s.tolist()):
            got = hashing.node_hash(content, r)
            assert got.dtype == dtype and got.tolist() == want[i * a:(i + 1) * a]
    H = collect_hashes(state, r)
    assert H.dtype == dtype and H.tolist() == want
    liar = [f.q - 1] * a
    want[a:2 * a] = liar
    for slices in ([s.tolist() for s in state.nodes],
                   [np.array(s.tolist(), dtype=np.int64) for s in state.nodes]):
        H = collect_hashes(from_slices(params, G, slices), r, liars={2: liar})
        assert H.dtype == dtype and H.tolist() == want
        assert not H.flags.writeable
    # the clean blocks by field calls: the dense generator times the data
    cols = list(zip(*X))
    clean = [[oracles.inner(f, row, c) for c in cols] for row in oracles.dense_generator(params)]
    (bad,) = plan.nodes
    helpers = [i for i in range(1, params.n + 1) if i != bad]
    rebuilt = interpolate(params, {i: state.content(i) for i in helpers}, range(1, params.n + 1))
    assert rebuilt.dtype == dtype and rebuilt.shape == (params.n, a, params.N)
    assert rebuilt.tolist() == [clean[i * a:(i + 1) * a] for i in range(params.n)]
    block = repair_node(state, bad, helpers)
    assert block.dtype == dtype and block.tolist() == clean[(bad - 1) * a:bad * a]


@pytest.mark.parametrize("f", [F17, make_field(3, 2)], ids=["GF17", "GF9"])
@pytest.mark.parametrize("bad", ["q", -1])
def test_hand_built_vector_checked_where_consumed(f, bad):
    # a RandomVector built by hand, not drawn, or a hash vector holding
    # a symbol outside the field: the vector's symbols are made
    # read-only, and hashing, the engine's block and verify each refuse
    # it with the kernel's check, the hash vector as an array or a list
    params, G, state, rng = build(f=f)
    plan = sample_error_plan("single-cell", 1, rng, params)
    symbols = np.array([1, f.q if bad == "q" else bad, 0])
    r = RandomVector(symbols, f, "true-random", clock.tick())
    assert not symbols.flags.writeable
    with pytest.raises(FieldMismatch):
        collect_hashes(state, r)
    with pytest.raises(FieldMismatch):
        _block_misses(params, [plan], [r])
    H = collect_hashes(state, draw_random_vector(3, f, rng)).copy()
    H[5] = symbols[1]
    for hashes in (H, H.tolist()):
        with pytest.raises(FieldMismatch):
            verify(hashes, params, G)


def test_commitment_enforced():
    params, G, state, rng = build()
    r = draw_random_vector(3, F17, rng)
    corrupt(state, sample_error_plan("single-cell", 1, rng, params))
    with pytest.raises(CommitmentViolation):
        collect_hashes(state, r)
    # the honest order passes
    state.restore()
    corrupt(state, sample_error_plan("single-cell", 1, rng, params))
    r2 = draw_random_vector(3, F17, rng)
    collect_hashes(state, r2)


def test_verify_clean():
    params, G, state, rng = build()
    r = draw_random_vector(3, F17, rng)
    report = verify(collect_hashes(state, r), params, G)
    assert report == VerificationReport("clean", frozenset())  # the verdict alone
    assert accounting(params, "true-random").hash_bits == 4 * 2 * 5


@pytest.mark.parametrize("kind", ["true-random", "pseudorandom"])
def test_verify_locates_visible_error(kind):
    params, G, state, rng = build()
    plan = sample_error_plan("single-cell", 1, rng, params)
    corrupt(state, plan)
    # all-ones r: any single-cell error has nonzero projection
    r = RandomVector(np.ones(3, dtype=np.int64), F17, kind, clock.tick())
    report = verify(collect_hashes(state, r), params, G)
    assert report.status == "errors-located"
    assert report.flagged == plan.nodes == true_error_set(state)


def test_verify_soundness_sampled():
    params, G, state, rng = build()
    for trial in range(300):
        state.restore()
        t = int(rng.integers(0, params.t1 + 1))
        model = ["single-cell", "random-dense", "rank-1"][trial % 3]
        if t:
            corrupt(state, sample_error_plan(model, t, rng, params))
        r = draw_random_vector(3, F17, rng)
        report = verify(collect_hashes(state, r), params, G)
        assert report.flagged <= true_error_set(state)


def test_verify_rejects_non_codeword(monkeypatch):
    # a decoder that hands back a word off the code is a broken
    # construction, never a verdict on the nodes
    params, G, state, rng = build()
    r = draw_random_vector(3, F17, rng)
    honest = collect_hashes(state, r).tolist()
    # node 2 misreports every symbol, so every group word needs decoding
    H = collect_hashes(state, r, liars={2: [(v + 1) % 17 for v in honest[2:4]]})
    monkeypatch.setattr(code, "_lockstep_block", lambda params, S: (
        np.zeros((params.n, S.shape[1]), dtype=S.dtype), np.ones(S.shape[1], dtype=bool)))
    with pytest.raises(SingularSystem):
        verify(H, params, G)


def test_verify_documented_miss():
    # adversary whose error rows are all orthogonal to the challenge:
    # corruption is invisible, by design of the failure event
    params, G, state, rng = build()
    target = [1, 3, 5]
    plan = sample_error_plan("null-against-vector", 1, rng, params, target=target)
    corrupt(state, plan)
    r = RandomVector(np.array(target), F17, "true-random", clock.tick())
    report = verify(collect_hashes(state, r), params, G)
    assert report.status == "clean"
    assert report.flagged == frozenset()
    assert true_error_set(state) == plan.nodes


def test_verify_undecodable_beyond_radius():
    params, G, state, rng = build(seed=5)
    saw_undecodable = False
    for seed in range(40):
        state.restore()
        trial_rng = np.random.default_rng(1000 + seed)
        corrupt(state, sample_error_plan("random-dense", 2, trial_rng, params))
        r = draw_random_vector(3, F17, trial_rng)
        report = verify(collect_hashes(state, r), params, G)
        assert report.status != "clean"
        saw_undecodable |= report.status == "undecodable"
    assert saw_undecodable


def test_liar_block_confined():
    params, G, state, rng = build()
    r = draw_random_vector(3, F17, rng)
    H = collect_hashes(state, r, liars={2: (7, 9)})
    report = verify(H, params, G)
    assert report.status == "errors-located"
    assert report.flagged == {2}


@pytest.mark.parametrize("f", [F17, make_field(3, 2)], ids=["GF17", "GF9"])
def test_liar_symbols_must_be_field_elements(f):
    params, G, state, rng = build(f=f)
    r = draw_random_vector(3, f, rng)
    honest = collect_hashes(state, r)[:2].tolist()
    # out of range but congruent to the honest symbol mod p, negative,
    # huge, and values that int() would coerce into the field
    for bad in (honest[0] + f.q, -5, 10 ** 30, 1.5, "7", np.float64(2.9)):
        with pytest.raises(FieldMismatch):
            collect_hashes(state, r, liars={1: (bad, honest[1])})
    same = collect_hashes(state, r, liars={1: honest})
    assert same.dtype == kernel(f).dtype and same.tolist() == collect_hashes(state, r).tolist()


@pytest.mark.parametrize("block", [5, [7], [[7, 9], [9, 7]]], ids=["int", "short", "2 x alpha"])
def test_liar_block_must_be_alpha_symbols(block):
    params, G, state, rng = build()
    r = draw_random_vector(3, F17, rng)
    with pytest.raises(ShapeMismatch, match="^liar block for node 1 must have alpha symbols$"):
        collect_hashes(state, r, liars={1: block})


def test_verify_checks_the_hash_vector_shape():
    params, G, state, rng = build()
    H = collect_hashes(state, draw_random_vector(3, F17, rng))
    message = "^a hash vector must be 1-D with n\\*alpha = 8 symbols$"
    for bad in (H[:, None], H.reshape(4, 2), H[:7], H.tolist() + [0], [H.tolist()], 3):
        with pytest.raises(ShapeMismatch, match=message):
            verify(bad, params, G)
    assert verify(H.tolist(), params, G) == verify(H, params, G)


def test_verify_reads_a_list_as_exact_ints():
    # a symbol past 2^63 in a list stays an int, refused as such; read
    # as a float it would round to some other number
    params, G, state, rng = build(f=make_field(3_000_000_019))
    H = collect_hashes(state, draw_random_vector(3, params.field, rng)).tolist()
    for big in (2 ** 63 + 1, 2 ** 64 + 3_000_000_019):
        H[3] = big
        with pytest.raises(FieldMismatch, match=f"^{big} is not an element"):
            verify(H, params, G)
    with pytest.raises(FieldMismatch, match="^1.0 is not an element"):
        verify([1.0] * 8, params, G)


@pytest.mark.parametrize("position", [0, 6])
def test_verify_rejects_symbols_outside_the_field(position):
    # symbol 0 sits in a group's first k positions, symbol 6 (node 4) does
    # not; both must be rejected, not read mod p or flagged
    params, G, state, rng = build()
    symbols = collect_hashes(state, draw_random_vector(3, F17, rng)).copy()
    symbols[position] += F17.q
    with pytest.raises(FieldMismatch):
        verify(symbols, params, G)


@pytest.mark.parametrize("model", ["random-dense", "rank-1"])
@pytest.mark.parametrize("f", [make_field(3, 2), make_field(2, 3)], ids=["GF9", "GF8"])
def test_verify_flags_projected_errors_over_extension_fields(f, model):
    # with t <= t1 bad nodes the flags are exactly the planned nodes with
    # some error row off the kernel of r
    params, G, state, rng = build(6, 2, f, N=3, seed=f.q)
    missed = 0
    for _ in range(30):
        state.restore()
        t = int(rng.integers(0, params.t1 + 1))
        entries = ()
        if t:
            plan = sample_error_plan(model, t, rng, params)
            corrupt(state, plan)
            entries = plan.entries
        r = draw_random_vector(3, f, rng)
        seen = {i for i, rows in entries
                if any(oracles.inner(f, row, r.symbols.tolist()) for row in rows)}
        report = verify(collect_hashes(state, r), params, G)
        assert report.flagged == seen
        assert report.status == ("errors-located" if seen else "clean")
        missed += len(entries) - len(seen)
    if model == "rank-1":
        assert missed  # the failure event occurs, and verify agrees on it


def test_prg_vector_end_to_end():
    params, G, state, rng = build()
    plan = sample_error_plan("random-dense", 1, rng, params)
    corrupt(state, plan)
    r = prg_expand(make_prg_seed(F17, 3, rng), 3)
    report = verify(collect_hashes(state, r), params, G)
    assert r.provenance == "pseudorandom"
    assert accounting(params, r.provenance).seed_bits == 2 * 2 * 5  # m = 2 over GF(17)
    assert report.flagged <= plan.nodes


def test_repair_rebuilds_clean_content():
    params, G, state, rng = build()
    plan = sample_error_plan("random-dense", 1, rng, params)
    corrupt(state, plan)
    (bad,) = plan.nodes
    helpers = [i for i in range(1, 5) if i != bad][:2]
    rebuilt = repair_node(state, bad, helpers)
    assert rebuilt.tolist() == state._clean[bad - 1].tolist()


def test_repair_honest_node_is_identity():
    params, G, state, _ = build()
    got = repair_node(state, 1, [2, 3])
    assert got.tolist() == state.content(1).tolist()


def test_repair_detects_corrupt_helper():
    params, G, state, rng = build()
    plan = sample_error_plan("random-dense", 1, rng, params)
    corrupt(state, plan)
    (bad,) = plan.nodes
    target = next(i for i in range(1, 5) if i != bad)
    helpers = [i for i in range(1, 5) if i != target]  # includes bad, redundant
    with pytest.raises(CorruptHelper):
        repair_node(state, target, helpers)


REPAIR_CASES = [(6, 3, make_field(7)), (7, 3, make_field(2, 3))]


def corrupt_node(state, i, rng):
    """Corrupt node i in every row (so in every group word)."""
    params = state.params
    E = [[1 + int(v) for v in rng.integers(0, params.field.q - 1, size=params.N)]
         for _ in range(params.alpha)]
    corrupt(state, ErrorPlan((i,), [E], "random-dense"))


@pytest.mark.parametrize("n,k,f", REPAIR_CASES)
def test_repair_every_target_and_helper_set(n, k, f):
    params, G, state, rng = build(n, k, f, N=2, seed=n)
    for target in range(1, n + 1):
        # the target's own (corrupted) content must play no part
        corrupt_node(state, target, rng)
        others = [i for i in range(1, n + 1) if i != target]
        for size in (k, k + 1):
            for helpers in itertools.combinations(others, size):
                assert repair_node(state, target, helpers).tolist() == state._clean[target - 1].tolist()
        state.restore()


@pytest.mark.parametrize("n,k,f", REPAIR_CASES)
def test_repair_rejects_one_corrupt_helper(n, k, f):
    params, G, state, rng = build(n, k, f, N=2, seed=n)
    for bad in range(1, n + 1):
        corrupt_node(state, bad, rng)
        for target in range(1, n + 1):
            if target == bad:
                continue
            rest = [i for i in range(1, n + 1) if i not in (target, bad)]
            for size in range(k, len(rest) + 1):
                for others in itertools.combinations(rest, size):
                    helpers = sorted((bad, *others))
                    # bad anchors the interpolation when among the first k
                    with pytest.raises(CorruptHelper):
                        repair_node(state, target, helpers)
        state.restore()


def test_repair_argument_errors():
    params, G, state, _ = build()
    with pytest.raises(TooFewHelpers):
        repair_node(state, 1, [2])
    with pytest.raises(ValueError):
        repair_node(state, 1, [1, 2])


def test_accounting_formulas():
    params, _ = make_code(4, 2, make_field(5), 3)
    b = accounting(params)
    assert b.data_bits == 2 * 2 * 3 * 3 == 36
    assert b.hash_bits == 4 * 2 * 3 == 24
    assert b.naive_bits == 72
    assert b.seed_bits == 9
    assert b.seed_distribution_bits == 36


def test_accounting_hash_bits_constant_in_n_columns():
    f = make_field(257)
    small = accounting(make_code(4, 2, f, 3)[0])
    large = accounting(make_code(4, 2, f, 3000)[0])
    assert small.hash_bits == large.hash_bits
    assert large.data_bits == 1000 * small.data_bits


def test_accounting_naive_rounds_up():
    params, _ = make_code(5, 3, make_field(7), 2)
    b = accounting(params)
    assert b.naive_bits == -(-5 * b.data_bits // 3)


def test_choose_field():
    assert choose_field(100, 4, 2, "thm1") == FieldSpec(101, 1)
    assert choose_field(100, 4, 2, "thm2") == FieldSpec(401, 1)
    assert choose_field(10, 4, 2, "thm1") == FieldSpec(11, 1)
    spec = choose_field(1000, 9, 5, "thm1")  # t1 = 2, target 2000
    assert spec.q >= 2000
    with pytest.raises(DegenerateCode):
        choose_field(100, 4, 3, "thm1")
    with pytest.raises(ValueError):
        choose_field(100, 4, 2, "thm3")
    with pytest.raises(ValueError):
        choose_field(100, 2, 4, "thm1")


def test_failure_bound():
    # Theorem 1: t1/q; Theorem 2: 2(n-k)*t1/q, both exact
    assert failure_bound(6, 2, 17, THEOREMS["thm1"]) == Fraction(2, 17)
    assert failure_bound(6, 2, 17, THEOREMS["thm2"]) == Fraction(16, 17)
    assert failure_bound(9, 5, 101, "true-random") == Fraction(2, 101)
    with pytest.raises(ValueError):
        failure_bound(6, 2, 17, "oracle")


def test_choose_field_bound_below_one_over_m():
    # failure bound t1/q stays under 1/M after prime-power rounding
    for M in [10, 100, 999, 10 ** 6]:
        for n, k in [(4, 2), (9, 5), (6, 3)]:
            t1 = (n - k) // 2
            spec = choose_field(M, n, k, "thm1")
            assert t1 / spec.q <= 1 / M
            spec2 = choose_field(M, n, k, "thm2")
            assert 2 * (n - k) * t1 / spec2.q <= 1 / M
