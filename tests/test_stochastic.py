"""Sampling streams, mini-batch schedule, and gradient estimators."""

import math

import numpy as np
import pytest

from gnes.blockvec import AgentPartition
from gnes.cournot import CournotConfig, generate
from gnes.errors import ConfigurationError, NumericError
from gnes.operators import ExtendedOperator
from gnes.stochastic import (
    PHASE_ETA,
    PHASE_XI,
    AdditiveGaussianOracle,
    AgentStreams,
    BatchSchedule,
    SamplingOracle,
    ZeroNoiseOracle,
    sample_F_hat,
    sample_V_hat,
)

from conftest import estimate_noise_bound, load_builtin


def test_batch_schedule_values():
    s = BatchSchedule(scale=1.0, growth=1.2)
    assert s.size(0) == 1
    assert s.size(9) == 16  # ceil(10^1.2) = ceil(15.849)
    tiny = BatchSchedule(scale=1e-3, growth=1.2)
    assert tiny.size(0) == 1  # floor at one sample
    big = BatchSchedule(scale=2.0, growth=2.0)
    assert big.size(4) == 50


def test_batch_schedule_validation():
    with pytest.raises(ConfigurationError):
        BatchSchedule(scale=0.0)
    with pytest.raises(ConfigurationError):
        BatchSchedule(growth=1.0)
    with pytest.raises(ConfigurationError):
        BatchSchedule(scale=np.inf)
    with pytest.raises(ConfigurationError):
        BatchSchedule().size(-1)


def test_streams_are_deterministic_and_keyed():
    a = AgentStreams(42)
    b = AgentStreams(42)
    draw = lambda s, agent, k, phase: s.generator(agent, k, phase).normal(size=4)
    base = draw(a, 1, 7, PHASE_XI)
    assert np.array_equal(base, draw(b, 1, 7, PHASE_XI))
    # each key coordinate separates the stream
    assert not np.array_equal(base, draw(b, 2, 7, PHASE_XI))
    assert not np.array_equal(base, draw(b, 1, 8, PHASE_XI))
    assert not np.array_equal(base, draw(b, 1, 7, PHASE_ETA))
    assert not np.array_equal(base, draw(AgentStreams(43), 1, 7, PHASE_XI))


def test_streams_rekey_does_not_leak_state():
    s = AgentStreams(0)
    first = s.generator(0, 3, PHASE_XI).normal(size=8)
    # interleave other keys, then revisit the first: identical draws
    s.generator(0, 4, PHASE_XI).normal(size=5)
    s.generator(1, 3, PHASE_ETA).normal(size=3)
    again = s.generator(0, 3, PHASE_XI).normal(size=8)
    assert np.array_equal(first, again)


def test_streams_match_fresh_philox_generators():
    # the cached generator path must equal constructing Philox per key,
    # on a slot's first use, on its reuse and at the ends of each key range
    top = (1 << 64) - 1
    cases = [
        (9, 5, 1234, PHASE_ETA),
        (9, 5, 1235, PHASE_ETA),  # the same slot, re-keyed
        (9, 5, 1234, PHASE_ETA),  # and back to the first key
        (top, (1 << 16) - 1, (1 << 32) - 1, PHASE_ETA),
        (top, (1 << 16) - 1, 0, PHASE_XI),
        (top, 0, (1 << 32) - 1, PHASE_XI),
    ]
    streams = {}
    for seed, agent, k, phase in cases:
        lo = (agent << 48) | (k << 16) | phase
        key = np.array([seed, lo], dtype=np.uint64)
        fresh = np.random.Generator(np.random.Philox(key=key)).normal(size=16)
        cached = streams.setdefault(seed, AgentStreams(seed)).generator(agent, k, phase).normal(size=16)
        assert np.array_equal(fresh, cached), (seed, agent, k, phase)


def test_streams_key_range_checks():
    s = AgentStreams(0)
    with pytest.raises(ConfigurationError):
        s.generator(0, -1, PHASE_XI)
    with pytest.raises(ConfigurationError):
        s.generator(0, 1 << 32, PHASE_XI)
    with pytest.raises(ConfigurationError):
        s.generator(1 << 16, 0, PHASE_XI)
    with pytest.raises(ConfigurationError):
        s.generator(0, 0, 2)


def test_zero_noise_oracle_is_exact():
    problem, _ = load_builtin("affine-monotone-small")
    oracle = ZeroNoiseOracle(problem)
    rng = np.random.default_rng(0)
    u = rng.normal(size=problem.partition.total_dim)
    for i in range(problem.num_agents):
        g = problem.gradient(i, u)
        assert np.array_equal(oracle.sample_mean(i, u, 64, rng), g)
        batch = oracle.sample_gradient_batch(i, u, 3, rng)
        assert np.array_equal(batch, np.tile(g, (3, 1)))


class _NoStreams:
    """Streams stub for oracles that must draw nothing."""

    def generator(self, agent, iteration, phase):
        raise AssertionError(f"stream of agent {agent} was keyed")


@pytest.mark.parametrize("instance", ["cournot-market", "affine-monotone-small"])
def test_zero_noise_stack_is_the_agent_loop_and_keys_no_stream(instance):
    if instance == "cournot-market":
        problem, _, _ = generate(CournotConfig(seed=0))
    else:
        problem, _ = load_builtin(instance)
    part = problem.partition
    n = part.num_agents
    oracle = ZeroNoiseOracle(problem)
    rng = np.random.default_rng(6)
    out = np.empty(part.total_dim)
    for k in range(8):
        u = rng.uniform(-1.0, 200.0, part.total_dim)
        expected = np.concatenate([problem.gradient(i, u) for i in range(n)])
        oracle.sample_mean_stack(u, 7, range(n), [None] * n, out)
        assert np.array_equal(out, expected), k
        assert np.array_equal(sample_F_hat(oracle, u, 7, _NoStreams(), k, PHASE_ETA), expected)
        for i in range(n):
            assert np.array_equal(oracle.sample_mean(i, u, 7, None), expected[part.primal_slice(i)])


def test_default_sample_mean_is_row_average():
    problem, _ = load_builtin("affine-two-firms")

    class BatchOnlyOracle(SamplingOracle):
        # defines batches only, so sample_mean_stack is the base-class default
        partition = problem.partition

        def sample_gradient_batch(self, agent, u, size, rng):
            g = problem.gradient(agent, u)
            return g[None, :] + rng.normal(0.0, 0.5, size=(size, g.shape[0]))

    oracle = BatchOnlyOracle()
    rng1 = np.random.default_rng(7)
    rng2 = np.random.default_rng(7)
    batch = oracle.sample_gradient_batch(0, np.array([0.2, 0.3]), 9, rng1)
    mean = oracle.sample_mean(0, np.array([0.2, 0.3]), 9, rng2)
    assert np.allclose(mean, batch.mean(axis=0), atol=1e-15)


def test_sample_F_hat_matches_per_agent_loop():
    problem, _ = load_builtin("affine-monotone-small")
    part = problem.partition
    oracle = AdditiveGaussianOracle(problem, sd=0.1)
    u = np.full(part.total_dim, 0.2)
    stacked = sample_F_hat(oracle, u, 4, AgentStreams(3), 11, PHASE_XI)
    expected = np.empty(part.total_dim)
    streams = AgentStreams(3)
    for i in range(part.num_agents):
        expected[part.primal_slice(i)] = oracle.sample_mean(
            i, u, 4, streams.generator(i, 11, PHASE_XI)
        )
    assert np.array_equal(stacked, expected)


def test_sample_mean_stack_matches_sample_mean():
    problem, _ = load_builtin("affine-monotone-small")
    part = problem.partition
    oracle = AdditiveGaussianOracle(problem, sd=0.3)
    u = np.linspace(0.0, 1.0, part.total_dim)
    out = np.empty(part.total_dim)
    agents = range(part.num_agents)
    generators = [AgentStreams(8).generator(i, 2, PHASE_ETA) for i in agents]
    oracle.sample_mean_stack(u, 5, agents, generators, out)
    streams = AgentStreams(8)
    for i in range(part.num_agents):
        block = oracle.sample_mean(i, u, 5, streams.generator(i, 2, PHASE_ETA))
        assert np.array_equal(out[part.primal_slice(i)], block)


@pytest.mark.parametrize("instance", ["cournot-market", "affine-monotone-small"])
def test_sample_mean_stack_on_profiles_is_each_agent_at_its_row(instance):
    if instance == "cournot-market":
        problem, oracle, _ = generate(CournotConfig(seed=0))
    else:
        problem, _ = load_builtin(instance)
        oracle = AdditiveGaussianOracle(problem, sd=0.3)
    part = problem.partition
    agents = range(part.num_agents)
    rng = np.random.default_rng(5)
    profiles = rng.uniform(0.0, 60.0, size=(part.num_agents, part.total_dim))
    for size in (1, 3, 14):
        streams = AgentStreams(8)
        stacked = np.empty(part.total_dim)
        generators = [streams.generator(i, 2, PHASE_XI) for i in agents]
        oracle.sample_mean_stack(profiles, size, agents, generators, stacked)
        for i in agents:
            alone = np.empty(part.total_dim)
            generators = [streams.generator(j, 2, PHASE_XI) for j in agents]
            oracle.sample_mean_stack(profiles[i], size, agents, generators, alone)
            sl = part.primal_slice(i)
            assert np.array_equal(stacked[sl], alone[sl]), (size, i)


def test_sample_F_hat_reports_offending_agent():
    problem, _ = load_builtin("affine-two-firms")
    part = problem.partition

    class BrokenOracle(SamplingOracle):
        partition = part

        def sample_gradient_batch(self, agent, u, size, rng):
            out = np.zeros((size, part.dims[agent]))
            if agent == 1:
                out[0, 0] = np.nan
            return out

    with pytest.raises(NumericError) as info:
        sample_F_hat(BrokenOracle(), np.zeros(2), 2, AgentStreams(0), 0, PHASE_XI)
    assert info.value.agent == 1


def test_sample_V_hat_composes_estimate_with_operator():
    problem, graph = load_builtin("affine-monotone-small")
    part = problem.partition
    op = ExtendedOperator(problem, graph)
    oracle = AdditiveGaussianOracle(problem, sd=0.2)
    rng = np.random.default_rng(5)
    x = rng.normal(size=part.state_dim)
    got = sample_V_hat(op, oracle, x, 3, AgentStreams(17), 9, PHASE_XI).copy()
    fhat = sample_F_hat(oracle, x[: part.total_dim], 3, AgentStreams(17), 9, PHASE_XI)
    assert np.array_equal(got, op.v_flat(x, fhat))


def test_gaussian_estimator_unbiased():
    problem, _ = load_builtin("affine-two-firms")
    oracle = AdditiveGaussianOracle(problem, sd=0.4)
    u = np.array([0.3, 0.6])
    g = problem.gradient(0, u)
    rng = np.random.default_rng(99)
    n = 20_000
    draws = oracle.sample_gradient_batch(0, u, n, rng)
    err = draws.mean(axis=0) - g
    se = draws.std(axis=0, ddof=1) / math.sqrt(n)
    assert np.all(np.abs(err) <= 4.0 * se)


def test_gaussian_sample_mean_draws_the_batch_mean_law():
    problem, _ = load_builtin("affine-monotone-small")
    sd = 0.3
    oracle = AdditiveGaussianOracle(problem, sd=sd)
    u = np.array([0.4, 0.2, 0.5, 0.1, 0.3, 0.2])
    g = problem.gradient(1, u)
    # one N(0, sd^2 / S) draw per coordinate from the given stream
    expected = g + np.random.default_rng(3).normal(0.0, sd / 5.0, size=g.shape[0])
    assert np.array_equal(oracle.sample_mean(1, u, 25, np.random.default_rng(3)), expected)
    reps = 20_000
    for size in (1, 9, 400):
        rng = np.random.default_rng(size)
        means = np.stack([oracle.sample_mean(1, u, size, rng) for _ in range(reps)])
        var = sd * sd / size
        assert np.all(np.abs(means.mean(axis=0) - g) <= 4.0 * math.sqrt(var / reps)), size
        # the sample variance has relative standard error sqrt(2 / reps), 1 %
        assert np.all(np.abs(means.var(axis=0, ddof=1) / var - 1.0) <= 0.05), size


def test_batch_mean_variance_scaling():
    problem, _ = load_builtin("affine-two-firms")
    sd = 0.5
    oracle = AdditiveGaussianOracle(problem, sd=sd)
    u = np.array([0.1, 0.9])
    rng = np.random.default_rng(123)
    reps = 2000
    for size in (1, 4, 16):
        means = np.stack([oracle.sample_mean(0, u, size, rng) for _ in range(reps)])
        var = means.var(axis=0, ddof=1)
        assert np.all(var <= 1.2 * sd * sd / size)


def test_noise_bound_estimate_scales_with_sd():
    problem, _ = load_builtin("affine-two-firms")
    lo = estimate_noise_bound(AdditiveGaussianOracle(problem, sd=0.1), problem, seed=1)
    hi = estimate_noise_bound(AdditiveGaussianOracle(problem, sd=0.4), problem, seed=1)
    assert 0.0 < lo < hi
    # additive coordinate noise: E||err||^2 = sd^2 * d across the two agents
    assert hi == pytest.approx(0.4 * math.sqrt(2.0), rel=0.2)
    assert estimate_noise_bound(ZeroNoiseOracle(problem), problem, seed=1) == 0.0


def test_noise_bound_requires_finite_box():
    part = AgentPartition((1,), 1)
    from gnes.operators import GameProblem

    problem = GameProblem(
        partition=part,
        pseudogradient=lambda u: u.copy(),
        D=(np.array([[1.0]]),),
        b=(np.array([1.0]),),
        box_lo=(np.array([-np.inf]),),
        box_hi=(np.array([np.inf]),),
        lipschitz_ell=1.0,
    )
    with pytest.raises(ConfigurationError):
        estimate_noise_bound(AdditiveGaussianOracle(problem, sd=0.1), problem, seed=0)
