"""The ten acceptance checks, one test each, in order.

Each check records a single ACCEPTANCE line (pass/fail plus elapsed
time); conftest prints the collected scorecard after the test report.
"""

import itertools
import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

import conftest
import oracles
from nxmds import container
from nxmds.code import CodeParams, decode_codeword, erasure_decode, make_code
from nxmds.experiments import (
    bias_sweep,
    cost_counter,
    exact_failure_small,
    lemma1_check,
    mc_failure_rate,
)
from nxmds.field import (
    field_from_order,
    make_field,
    next_prime_power,
    symbol_bits,
)
from nxmds.hashing import (
    draw_random_vector,
    make_prg_seed,
    minimal_extension_degree,
    prg_expand,
)
from nxmds.storage import (
    MODELS,
    ErrorPlan,
    corrupt,
    make_system,
    sample_error_plan,
    true_error_set,
)
from nxmds.verifier import accounting, collect_hashes, verify


@contextmanager
def criterion(num, desc, limit=None):
    t0 = time.monotonic()
    status = "FAIL"
    try:
        yield
        dt = time.monotonic() - t0
        if limit is not None and dt > limit:
            raise AssertionError(
                f"criterion {num} took {dt:.1f}s, limit is {limit}s"
            )
        status = "PASS"
    finally:
        dt = time.monotonic() - t0
        conftest.acceptance_lines.append(
            f"ACCEPTANCE {num:2d} {status} ({dt:6.1f}s)  {desc}"
        )


def random_matrix(rng, q, rows, cols):
    return [[int(v) for v in row] for row in rng.integers(0, q, size=(rows, cols))]


def test_criterion_01_mds_roundtrip():
    with criterion(1, "every k-subset of nodes reconstructs the data", limit=60):
        rng = np.random.default_rng(2026)
        for n, k in [(4, 2), (6, 3), (9, 5)]:
            p, s = next_prime_power(n)
            field = make_field(p, s)
            params, G = make_code(n, k, field, 2)
            for _ in range(100):
                X = random_matrix(rng, field.q, params.k * params.alpha, 2)
                state = make_system(params, G, X)
                for subset in itertools.combinations(range(1, n + 1), k):
                    nodes = {i: state.content(i) for i in subset}
                    assert erasure_decode(params, nodes).tolist() == X


def test_criterion_02_soundness():
    with criterion(2, "10^4 audits never flag an honest node", limit=60):
        rng = np.random.default_rng(77)
        configs = []
        for n, k, q, N in [(4, 2, 17, 2), (6, 3, 7, 2), (6, 2, 13, 2)]:
            field = field_from_order(q)
            params, G = make_code(n, k, field, N)
            X = random_matrix(rng, q, params.k * params.alpha, N)
            configs.append((params, G, make_system(params, G, X)))
        models = list(MODELS)
        audits = 0
        for i in range(10_000):
            params, G, state = configs[i % len(configs)]
            state.restore()
            t = i % (params.t1 + 1)
            model = models[i % len(models)]
            f = None
            target = None
            if model == "rank-f":
                f = (i % min(params.alpha, params.N)) + 1
            elif model == "null-against-vector":
                target = [int(v) for v in
                          rng.integers(0, params.field.q, size=params.N)]
                if not any(target):
                    target[0] = 1
            if t > 0:
                plan = sample_error_plan(model, t, rng, params,
                                         f=f, target=target)
                corrupt(state, plan)
            if i % 2 == 0:
                r = draw_random_vector(params.N, params.field, rng)
            else:
                r = prg_expand(make_prg_seed(params.field, params.N, rng),
                               params.N)
            report = verify(collect_hashes(state, r), params, G)
            assert set(report.flagged) <= set(true_error_set(state))
            audits += 1
        assert audits == 10_000


def test_criterion_03_thm1_rate():
    with criterion(3, "rank-1 miss rate is 1/q under true randomness",
                   limit=300):
        trials = 100_000
        for q in (17, 257):
            params = CodeParams(4, 2, make_field(q), 2)
            est = mc_failure_rate(params, "rank-1", 1, "true-random",
                                  trials, 2026)
            p = 1 / q
            sigma = math.sqrt(p * (1 - p) / trials)
            assert abs(est.estimate - p) <= 3 * sigma
            assert est.estimate <= est.bound + 3 * sigma


def test_criterion_04_exact_rank_f_law():
    with criterion(4, "exact miss probability is 1/q^f, no tolerance"):
        params = CodeParams(3, 1, make_field(3), 3)
        assert params.alpha == 2
        plan1 = ErrorPlan((1,), [[[1, 0, 0], [2, 0, 0]]], "rank-f", 1)
        plan2 = ErrorPlan((1,), [[[1, 0, 0], [0, 1, 0]]], "rank-f", 2)
        assert exact_failure_small(params, plan1) == Fraction(1, 3)
        assert exact_failure_small(params, plan2) == Fraction(1, 9)
        rng = np.random.default_rng(4)
        for f, expect in ((1, Fraction(1, 3)), (2, Fraction(1, 9))):
            for _ in range(5):
                plan = sample_error_plan("rank-f", 1, rng, params, f=f)
                assert exact_failure_small(params, plan) == expect


def test_criterion_05_uniform_convolution():
    with criterion(5, "sums of independent uniforms stay exactly uniform"):
        for q in (2, 3, 4, 5):
            for count in (1, 2, 3, 5):
                assert lemma1_check(q, count) == tuple([Fraction(1, q)] * q)


def test_criterion_06_small_bias_exact():
    with criterion(6, "exhaustive generator bias within the stated bound",
                   limit=120):
        for N in range(3, 10):
            m, worst, worst_zero = bias_sweep(2, N)
            assert m == minimal_extension_degree(2, N)
            bound = Fraction(N - 1, 2 ** m)
            assert worst <= bound <= 1
            assert worst_zero <= Fraction(2, 2)


def test_criterion_07_thm2_rate():
    with criterion(7, "pseudorandom miss rate under the 2(n-k)t1/q bound",
                   limit=300):
        trials = 100_000
        params = CodeParams(4, 2, make_field(17), 3)
        est = mc_failure_rate(params, "rank-1", 1, "pseudorandom",
                              trials, 2026)
        assert est.bound == pytest.approx(4 / 17)
        assert est.estimate <= est.bound + 3 * est.sigma


def test_criterion_08_accounting():
    with criterion(8, "hash bits constant in N, naive transfer linear"):
        rng = np.random.default_rng(8)
        n, k = 4, 2
        t1 = (n - k) // 2
        for M in (10 ** 3, 10 ** 6):
            p, s = next_prime_power(t1 * M)
            field = make_field(p, s)
            cap = n * (n - k) * (
                math.ceil(math.log2(M)) + math.ceil(math.log2(t1)) + 8
            )
            budgets = []
            payload_bits = []
            for N in (100, 1000, 10_000):
                params, _ = make_code(n, k, field, N)
                budget = accounting(params)
                budgets.append(budget)
                symbols = [[int(v)] for v in
                           rng.integers(0, field.q, size=n * (n - k))]
                blob = container.serialize_matrix(
                    container.header_for(params), symbols
                )
                _, offset = container.parse_header(blob)
                bits = (len(blob) - offset - 16) * 8
                payload_bits.append(bits)
                assert bits <= cap
                assert budget.hash_bits <= cap
                assert budget.naive_bits == -(-n * budget.data_bits // k)
            assert len(set(payload_bits)) == 1
            assert len({b.hash_bits for b in budgets}) == 1
            assert budgets[1].naive_bits == 10 * budgets[0].naive_bits
            assert budgets[2].naive_bits == 100 * budgets[0].naive_bits


def weight_one_variants(field, cw):
    yield list(cw), frozenset()
    for pos in range(len(cw)):
        for delta in range(1, field.q):
            received = list(cw)
            received[pos] = field.add(received[pos], delta)
            yield received, frozenset([pos])


def test_criterion_09_decoder_equals_oracle():
    with criterion(9, "decoder matches minimum-distance search exhaustively"):
        field = make_field(7)
        params, G = make_code(6, 3, field, 1)
        book = oracles.all_codewords(params)
        assert len(book) == 343
        cases = 0
        for cw in book:
            for received, true_errors in weight_one_variants(field, cw):
                out = decode_codeword(params, received)
                nearest = oracles.min_distance_decode(params, received,
                                                      params.t1)
                assert out.ok and nearest is not None
                assert tuple(out.codeword) == nearest == cw
                assert out.errors == true_errors
                cases += 1
        assert cases == 343 * 37


def test_criterion_10_prg_cost_scaling():
    with criterion(10, "generator cost grows as N·m² within 1.5x"):
        rows = cost_counter(2, [2 ** e for e in range(4, 13)])
        num = sum(ops * N * m * m for N, m, ops in rows)
        den = sum((N * m * m) ** 2 for N, m, ops in rows)
        c = num / den
        for N, m, ops in rows:
            assert ops <= 1.5 * c * N * m * m
            assert ops >= c * N * m * m / 1.5
