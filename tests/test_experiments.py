import dataclasses
import gc
import itertools
import weakref
from fractions import Fraction

import numpy as np
import pytest

import oracles
from nxmds import code, experiments
from nxmds.code import CodeParams, make_code
from nxmds.errors import BadModel, CommitmentViolation, SingularSystem, TooLargeToEnumerate
from nxmds.experiments import (
    CountingField,
    bias_sweep,
    cost_counter,
    exact_bias,
    exact_failure_small,
    exact_zero_prob,
    lemma1_check,
    mc_failure_rate,
    run_trial,
    theoretical_bound,
)
from nxmds.field import ExtensionField, field_from_order, make_field
from nxmds.storage import ErrorPlan, make_system, random_data, sample_error_plan

F5 = make_field(5)


def test_theoretical_bounds():
    p = CodeParams(4, 2, make_field(17), 3)
    assert theoretical_bound(p, "true-random") == 1 / 17
    assert theoretical_bound(p, "pseudorandom") == 4 / 17
    with pytest.raises(ValueError):
        theoretical_bound(p, "oracle")


def test_run_trial_clean():
    params, G = make_code(4, 2, F5, 3)
    rng = np.random.default_rng(0)
    X = [[int(v) for v in row] for row in rng.integers(0, 5, size=(4, 3))]
    state = make_system(params, G, X)
    out = run_trial(state, "rank-1", 0, "true-random", rng)
    assert out.detected and out.missed == frozenset() and out.status == "clean"


def test_mc_no_errors_rate_zero():
    params = CodeParams(4, 2, F5, 3)
    est = mc_failure_rate(params, "rank-1", 0, "true-random", 200, 1)
    assert est.failures == 0 and est.estimate == 0.0


@pytest.mark.parametrize("kind", ["true-random", "pseudorandom"])
def test_mc_t_zero_is_answered_by_the_bound(monkeypatch, kind):
    # no node is corrupted, so no audit can miss: the engine samples no
    # plan, draws no challenge and decodes nothing
    def refuse(*args, **kwargs):
        raise AssertionError("called at t = 0")

    for name in ("sample_error_plans", "draw_challenge", "hash_word_decode"):
        monkeypatch.setattr(experiments, name, refuse)
    params = CodeParams(4, 2, make_field(257), 8)
    for trials in (1, 64, 200):
        est = mc_failure_rate(params, "rank-1", 0, kind, trials, 3)
        assert est == experiments.RateEstimate(trials, 0, theoretical_bound(params, kind))
    with pytest.raises(ValueError, match="'quantum'"):
        mc_failure_rate(params, "rank-1", 0, "quantum", 10, 0)


BAD_MODELS = [("bogus", {}), ("rank-f", {}), ("null-against-vector", {})]


@pytest.mark.parametrize("model,kw", BAD_MODELS, ids=[m for m, _ in BAD_MODELS])
def test_bad_model_raises_at_t_zero(model, kw):
    # t = 0 samples no plan, yet a bad model or a missing option is
    # refused as at t = 1, and before a bad kind
    params = CodeParams(4, 2, make_field(17), 3)
    for t in (0, 1):
        for kind in ("true-random", "quantum"):
            with pytest.raises(BadModel):
                mc_failure_rate(params, model, t, kind, 5, 0, **kw)
    _, G = make_code(4, 2, params.field, 3)
    state = make_system(params, G, random_data(params, np.random.default_rng(0)))
    for t in (0, 1):
        with pytest.raises(BadModel):
            run_trial(state, model, t, "true-random", np.random.default_rng(1), **kw)


def test_mc_reproducible():
    params = CodeParams(4, 2, F5, 2)
    a = mc_failure_rate(params, "rank-1", 1, "true-random", 400, 99)
    b = mc_failure_rate(params, "rank-1", 1, "true-random", 400, 99)
    assert a == b
    c = mc_failure_rate(params, "rank-1", 1, "true-random", 400, 100)
    assert c.trials == 400


def test_mc_rank1_matches_exact_law():
    # committed rank-1 single-node errors miss with probability exactly 1/q
    params = CodeParams(4, 2, F5, 2)
    trials = 10_000
    est = mc_failure_rate(params, "rank-1", 1, "true-random", trials, 7)
    p = 1 / 5
    sigma = (p * (1 - p) / trials) ** 0.5
    assert abs(est.estimate - p) <= 3 * sigma
    # rank-1 single-node errors achieve the bound with equality, so the
    # estimate may land a hair above it but never beyond noise
    assert est.estimate <= est.bound + 3 * est.sigma
    assert est.interval[0] <= est.estimate <= est.interval[1]


def test_mc_pseudorandom_under_bound():
    params = CodeParams(4, 2, F5, 3)
    trials = 4000
    est = mc_failure_rate(params, "rank-1", 1, "pseudorandom", trials, 11)
    assert est.bound == 0.8
    assert est.estimate <= est.bound + 3 * est.sigma


def test_mc_t_validation():
    params = CodeParams(4, 2, F5, 3)
    with pytest.raises(ValueError):
        mc_failure_rate(params, "rank-1", 2, "true-random", 10, 0)
    with pytest.raises(ValueError):
        mc_failure_rate(params, "rank-1", 1, "true-random", 0, 0)
    with pytest.raises(ValueError):
        mc_failure_rate(params, "rank-1", 1, "quantum", 10, 0)


def replay_failures(params, model, t, kind, trials, master, **kw):
    """The engine's oracle for hashing and sampling: run_trial on real
    storage, trial by trial, with mc_failure_rate's seeds (trial i from
    spawn key (1, i)).  The engine hashes no data, so the storage holds
    data from (2,), a stream it never reads.  Both decode through
    code.hash_word_decode, which test_code checks against the
    exhaustive oracle."""
    def rng(*key):
        return np.random.default_rng(np.random.SeedSequence(entropy=master, spawn_key=key))

    _, G = make_code(params.n, params.k, params.field, params.N)
    state = make_system(params, G, random_data(params, rng(2)))
    return sum(not run_trial(state, model, t, kind, rng(1, i), **kw).detected
               for i in range(trials))


# (6,2): alpha = 4 and t1 = 2; N = 3 allows rank 2 and a target
ENGINE_FIELDS = {"GF7": 7, "GF257": 257, "GF9": 9, "GF8": 8}
ENGINE_MODELS = [
    ("single-cell", {}),
    ("random-dense", {}),
    ("rank-1", {}),
    ("rank-f", {"f": 1}),
    ("rank-f", {"f": 2}),
    ("null-against-vector", {"target": [1, 2, 0]}),
]


@pytest.mark.parametrize("kind", ["true-random", "pseudorandom"])
@pytest.mark.parametrize("q", ENGINE_FIELDS.values(), ids=ENGINE_FIELDS.keys())
def test_engine_matches_run_trial_replay(q, kind):
    params = CodeParams(6, 2, field_from_order(q), 3)
    cases = [("rank-1", 0, {})] + [(m, t, kw) for t in (1, 2) for m, kw in ENGINE_MODELS]
    misses = 0
    for j, (model, t, kw) in enumerate(cases):
        master = (q, j)
        est = mc_failure_rate(params, model, t, kind, 12, master, **kw)
        assert est.failures == replay_failures(params, model, t, kind, 12, master, **kw)
        misses += est.failures
    if q < 10:
        assert misses > 0  # small fields miss often enough to test the count


@pytest.mark.parametrize("q", [257, 9])
def test_engine_reads_the_sampled_rows(monkeypatch, q):
    # plans copied by dataclasses.replace give the same estimate
    params = CodeParams(6, 2, field_from_order(q), 3)
    sample = experiments.sample_error_plans
    for model in ("rank-1", "random-dense"):
        want = mc_failure_rate(params, model, 2, "true-random", 40, 3)
        assert want.failures < 40
        with monkeypatch.context() as m:
            m.setattr(experiments, "sample_error_plans",
                      lambda *a, **kw: [dataclasses.replace(p) for p in sample(*a, **kw)])
            assert mc_failure_rate(params, model, 2, "true-random", 40, 3) == want


@pytest.mark.parametrize("block", [1, 3, experiments._BLOCK])
@pytest.mark.parametrize("kind", ["true-random", "pseudorandom"])
def test_estimate_independent_of_block_size(monkeypatch, block, kind):
    params = CodeParams(6, 2, make_field(7), 3)
    for model, kw in ENGINE_MODELS:
        want = mc_failure_rate(params, model, 2, kind, 150, 5, **kw)
        with monkeypatch.context() as m:
            m.setattr(experiments, "_BLOCK", block)
            assert mc_failure_rate(params, model, 2, kind, 150, 5, **kw) == want


def test_engine_rejects_late_plan(monkeypatch):
    # plans stamped after their trials' vectors: the engine refuses them
    sample = experiments.sample_error_plans

    def late(*args, **kwargs):
        return [dataclasses.replace(p, committed_at=p.committed_at + 10 ** 9)
                for p in sample(*args, **kwargs)]

    monkeypatch.setattr(experiments, "sample_error_plans", late)
    params = CodeParams(4, 2, F5, 3)
    for model in ("rank-1", "single-cell"):
        with pytest.raises(CommitmentViolation):
            mc_failure_rate(params, model, 1, "true-random", 5, 0)


def test_engine_checks_corrected_words(monkeypatch):
    # a decoder that finds no errors, so it hands back its input words,
    # which are not codewords
    def broken(params, S):
        return np.zeros((params.n, S.shape[1]), dtype=S.dtype), np.ones(S.shape[1], dtype=bool)

    monkeypatch.setattr(code, "_lockstep_block", broken)
    params = CodeParams(4, 2, F5, 3)
    with pytest.raises(SingularSystem):
        mc_failure_rate(params, "random-dense", 1, "true-random", 5, 0)


def plan_for(rows_by_node, model="random-dense"):
    return ErrorPlan(tuple(rows_by_node), list(rows_by_node.values()), model)


def test_exact_failure_single_row():
    params = CodeParams(3, 1, make_field(3), 3)
    plan = plan_for({1: [[1, 0, 0], [0, 0, 0]]})
    assert exact_failure_small(params, plan) == Fraction(1, 3)


def test_exact_failure_rank_two():
    params = CodeParams(3, 1, make_field(3), 3)
    plan = plan_for({1: [[1, 0, 0], [0, 1, 0]]})
    assert exact_failure_small(params, plan) == Fraction(1, 9)


def test_exact_failure_of_hand_built_empty_plan():
    params = CodeParams(3, 1, make_field(3), 3)
    empty = ErrorPlan((), np.zeros((0, params.alpha, params.N)), "single-cell")
    assert exact_failure_small(params, empty) == 0


def test_exact_failure_obeys_union_bound():
    q = 7
    params = CodeParams(6, 2, make_field(q), 2)
    rng = np.random.default_rng(21)
    for _ in range(20):
        plan = sample_error_plan("rank-1", 2, rng, params)
        p = exact_failure_small(params, plan)
        assert p <= Fraction(2, q)


def test_exact_failure_matches_rank_of_plan():
    # miss probability is q^-f for a single node of declared rank f
    q = 7
    params = CodeParams(7, 3, make_field(q), 4)
    rng = np.random.default_rng(22)
    for f in (1, 2, 3):
        for _ in range(10):
            plan = sample_error_plan("rank-f", 1, rng, params, f=f)
            assert exact_failure_small(params, plan) == Fraction(1, q ** f)


def recount_failures(params, plan):
    """exact_failure_small by field calls: every r, every planned row."""
    f, N = params.field, params.N
    fails = sum(any(all(oracles.inner(f, row, r) == 0 for row in rows) for _, rows in plan.entries)
                for r in itertools.product(range(f.q), repeat=N))
    return Fraction(fails, f.q ** N)


@pytest.mark.parametrize("chunk", [experiments._CHUNK, 50], ids=["one-chunk", "chunk-50"])
@pytest.mark.parametrize("q", [4, 7, 9], ids=["GF4", "GF7", "GF9"])
def test_exact_failure_matches_field_call_recount(monkeypatch, q, chunk):
    # 50 splits the q^3 vectors into chunks with a ragged last one
    monkeypatch.setattr(experiments, "_CHUNK", chunk)
    params = CodeParams(4 if q == 4 else 6, 2, field_from_order(q), 3)
    rng = np.random.default_rng(q)
    for model, f in [("rank-1", None), ("random-dense", None), ("rank-f", 2), ("single-cell", None)]:
        for t in (1, params.t1):
            plan = sample_error_plan(model, t, rng, params, f=f)
            assert exact_failure_small(params, plan) == recount_failures(params, plan)


def test_exact_failure_enumeration_guard():
    params = CodeParams(4, 2, make_field(17), 10)
    plan = plan_for({1: [[1] + [0] * 9, [0] * 10]})
    with pytest.raises(TooLargeToEnumerate):
        exact_failure_small(params, plan)


def test_exact_bias_unit_vector():
    # unit test statistic reads one generator symbol
    b = exact_bias(2, 3, 4, [0, 1, 0, 0], 0)
    assert abs(b) <= Fraction(3, 8)
    assert b == Fraction(1, 8)  # frozen from the first exhaustive run


def test_exact_bias_rejects_zero_beta():
    with pytest.raises(ValueError):
        exact_bias(2, 3, 4, [0, 0, 0, 0], 0)
    with pytest.raises(ValueError):
        exact_zero_prob(2, 3, 4, [0, 0, 0])


def test_true_uniform_vector_has_zero_bias():
    # the law the generator approximates: under a truly uniform vector
    # every nonzero linear test is exactly unbiased
    q, N = 3, 2
    fld = field_from_order(q)
    for beta in itertools.product(range(q), repeat=N):
        if not any(beta):
            continue
        for c in range(q):
            zeros = sum(
                1
                for r in itertools.product(range(q), repeat=N)
                if fld.add(
                    c,
                    fld.add(fld.mul(beta[0], r[0]), fld.mul(beta[1], r[1])),
                ) == 0
            )
            total = q ** N
            assert (q - 1) * zeros - (total - zeros) == 0


def test_bias_sweep_frozen_values():
    # first exhaustive runs, kept as regression anchors; both hit the
    # theoretical bound (q-1)(N-1)/q^m exactly
    assert bias_sweep(2, 4) == (2, Fraction(3, 4), Fraction(7, 8))
    assert bias_sweep(3, 4) == (2, Fraction(2, 3), Fraction(5, 9))


def test_bias_sweep_respects_bounds():
    for q, N in [(2, 5), (2, 7), (3, 3), (3, 5)]:
        m, worst, worst_zero = bias_sweep(q, N)
        bound = Fraction((q - 1) * (N - 1), q ** m)
        assert worst <= bound <= 1
        assert worst_zero <= Fraction(2, q)


def test_bias_sweep_agrees_with_scalar_enumerator():
    q, N = 2, 5
    m, worst, worst_zero = bias_sweep(q, N)
    best = Fraction(0)
    best_zero = Fraction(0)
    for beta in itertools.product(range(q), repeat=N):
        if not any(beta):
            continue
        best_zero = max(best_zero, exact_zero_prob(q, m, N, beta))
        for c in range(q):
            best = max(best, abs(exact_bias(q, m, N, beta, c)))
    assert (best, best_zero) == (worst, worst_zero)


@pytest.mark.parametrize("N", [0, -2])
def test_bias_sweep_refuses_n_below_one(N):
    with pytest.raises(ValueError, match="N must be >= 1"):
        bias_sweep(17, N)


def test_bias_sweep_needs_prime_q():
    with pytest.raises(ValueError):
        bias_sweep(4, 3)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@pytest.mark.parametrize("count", [1, 2, 3, 5])
def test_lemma1_uniform(q, count):
    dist = lemma1_check(q, count)
    assert dist == tuple([Fraction(1, q)] * q)


def test_counting_field_counts():
    f = CountingField(make_field(5))
    f.add(1, 2)
    f.mul(3, 4)
    f.sub(0, 1)
    assert f.count == 3
    assert f.q == 5 and f.p == 5 and f.s == 1


def test_cost_counter_keeps_no_counting_field(monkeypatch):
    # each sweep point's CountingField (and its extension field) is
    # garbage once cost_counter returns: no cache keys on it
    made = []

    class Watched(CountingField):
        def __init__(self, base):
            super().__init__(base)
            made.append(weakref.ref(self))

    monkeypatch.setattr(experiments, "CountingField", Watched)
    cost_counter(17, [4, 8, 16])
    gc.collect()
    assert len(made) == 3 and all(ref() is None for ref in made)


def test_cost_counter_baseline():
    # pinned from the first instrumented run; also the closed form
    # N*2m + (N-1)*(4m^2 - 2m) with N=8, m=3
    assert cost_counter(2, [8]) == [(8, 3, 258)]


@pytest.mark.parametrize("p, m", [(2, 3), (2, 2), (3, 3), (3, 2)])
def test_extension_counts_do_not_depend_on_values(p, m):
    # mul has no value-dependent shortcut (cost_counter's promise), and
    # the field base's inv and div go through the extension's pow and mul
    counting = CountingField(make_field(p))
    ext = ExtensionField(counting, m)

    def cost(op, *args):
        counting.count = 0
        getattr(ext, op)(*args)
        return counting.count

    elements, nonzero = range(ext.q), range(1, ext.q)
    (mul,) = {cost("mul", a, b) for a in elements for b in elements}
    (inv,) = {cost("inv", a) for a in nonzero}
    assert mul > 0 and inv > 0
    assert {cost("div", a, b) for a in elements for b in nonzero} == {mul + inv}


def test_cost_counter_linear_in_n():
    (_, _, a), (_, _, b) = cost_counter(2, [64, 128], m=10)
    assert abs(b / a - 2) < 0.05


def test_cost_counter_quadratic_in_m():
    ((_, _, a),) = cost_counter(2, [32], m=5)
    ((_, _, b),) = cost_counter(2, [32], m=10)
    assert abs(b / a - 4) < 0.15


def test_cost_counter_fit():
    rows = cost_counter(2, [2 ** e for e in range(4, 9)])
    ratios = [ops / (N * m * m) for N, m, ops in rows]
    c = sorted(ratios)[len(ratios) // 2]
    assert all(r <= 1.5 * c and r >= c / 1.5 for r in ratios)
