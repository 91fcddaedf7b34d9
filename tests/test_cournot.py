"""Cournot benchmark generator, demand oracle, and probe utilities."""

import numpy as np
import pytest

from gnes.cournot import (
    DEFAULT_PARTICIPATION,
    CournotConfig,
    CournotDemandOracle,
    estimate_lipschitz,
    generate,
)
from gnes.errors import ConfigurationError
from gnes.instances import load_document
from gnes.stochastic import PHASE_ETA, AgentStreams

from conftest import estimate_lipschitz_unchunked, monotonicity_probe


def two_firm_config(**overrides):
    """One shared market, deterministic costs/caps/budget."""
    base = dict(
        num_firms=2,
        num_markets=1,
        participation=((0,), (0,)),
        cost_sd=0.0,
        cap_sd=0.0,
        budget_lo=5.0,
        budget_hi=5.0,
        lipschitz_pairs=50,
        seed=0,
    )
    base.update(overrides)
    return CournotConfig(**base)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        CournotConfig(demand_exponent=1.0)
    with pytest.raises(ConfigurationError):
        CournotConfig(demand_exponent=3.5)
    with pytest.raises(ConfigurationError):
        CournotConfig(demand_sign=0.5)
    with pytest.raises(ConfigurationError) as info:
        CournotConfig(demand_sign=1.0)
    assert "allow_nonmonotone" in str(info.value)
    with pytest.raises(ConfigurationError):
        CournotConfig(demand_slope=0.0)
    with pytest.raises(ConfigurationError):
        CournotConfig(demand_sd=-0.1)
    with pytest.raises(ConfigurationError):
        CournotConfig(budget_lo=0.0)
    with pytest.raises(ConfigurationError):
        CournotConfig(budget_lo=3.0, budget_hi=2.0)
    with pytest.raises(ConfigurationError):
        CournotConfig(lipschitz_pairs=0)
    # any non-default shape needs an explicit participation map
    with pytest.raises(ConfigurationError):
        CournotConfig(num_firms=4, num_markets=2)
    with pytest.raises(ConfigurationError):
        CournotConfig(num_firms=2, num_markets=1, participation=((0,),))
    with pytest.raises(ConfigurationError):
        CournotConfig(num_firms=2, num_markets=1, participation=((0,), ()))
    with pytest.raises(ConfigurationError):
        CournotConfig(num_firms=2, num_markets=2, participation=((1, 0), (0, 1)))
    with pytest.raises(ConfigurationError):
        CournotConfig(num_firms=2, num_markets=2, participation=((0,), (2,)))
    with pytest.raises(ConfigurationError) as info:
        CournotConfig(num_firms=2, num_markets=3, participation=((0,), (2,)))
    assert "[1]" in str(info.value)


@pytest.mark.parametrize("field,value", [
    ("seed", "abc"),
    ("seed", True),
    ("seed", 1.5),
    ("num_firms", 10.0),
    ("lipschitz_pairs", 1e4),
    ("demand_q", "x"),
    ("demand_q", float("inf")),
    ("demand_slope", float("nan")),
    ("demand_sd", True),
    ("cap_mean", None),
    ("cost_floor", 10**400),
    ("allow_nonmonotone", 1),
    ("graph", 3),
    ("graph_p", "0.5"),
    ("participation", 5),
    ("participation", [5]),
    ("participation", [[0, "1"]]),
    ("participation", [[0, True]]),
    ("cost_sd", -1.0),
    ("cap_sd", -1.0),
])
def test_config_type_errors_name_the_field(field, value):
    with pytest.raises(ConfigurationError) as info:
        CournotConfig(**{field: value})
    assert info.value.field == field


def test_config_accepts_json_shaped_settings():
    cfg = CournotConfig(
        num_firms=2, num_markets=1, participation=[[0], [0]], demand_q=400, graph_p=None
    )
    assert cfg.participation == ((0,), (0,))
    assert CournotConfig(graph="erdos-renyi", graph_p=1).graph_p == 1
    with pytest.raises(ConfigurationError) as info:
        CournotConfig(seed=-1)
    assert info.value.field == "seed"


def test_default_benchmark_shape():
    problem, oracle, graph = generate()
    part = problem.partition
    assert part.num_agents == 10
    assert part.dims == (2, 1, 3, 2, 2, 1, 2, 4, 2, 3)
    assert part.total_dim == 22
    assert part.constraint_dim == 7
    assert part.dual_dim == 70
    assert part.state_dim == 162
    assert graph.num_agents == 10
    counts = [0] * 7
    for row in DEFAULT_PARTICIPATION:
        for j in row:
            counts[j] += 1
    assert counts == [4, 2, 4, 3, 3, 3, 3]
    u = np.full(part.total_dim, 10.0)
    rng = np.random.default_rng(0)
    assert all(oracle.sample_mean(i, u, 3, rng).shape == (part.dims[i],) for i in range(10))


def test_generate_is_deterministic():
    p1, o1, g1 = generate(CournotConfig(seed=3))
    p2, o2, g2 = generate(CournotConfig(seed=3))
    assert p1.lipschitz_ell == p2.lipschitz_ell
    for a, b in zip(p1.b, p2.b):
        assert np.array_equal(a, b)
    for a, b in zip(p1.box_hi, p2.box_hi):
        assert np.array_equal(a, b)
    assert np.array_equal(g1.weights, g2.weights)
    p3, _, _ = generate(CournotConfig(seed=4))
    assert p3.lipschitz_ell != p1.lipschitz_ell


def test_reference_lipschitz_estimate():
    problem, _, _ = generate(CournotConfig(seed=0))
    assert problem.lipschitz_ell == pytest.approx(0.37141243268790286, rel=1e-12)


def test_gradient_closed_form():
    cfg = two_firm_config()
    problem, _, _ = generate(cfg)
    u = np.array([100.0, 50.0])
    s = u.sum()
    e = cfg.demand_exponent
    for i in range(2):
        expected = (
            cfg.cost_mean
            - cfg.demand_q
            - cfg.demand_sign * cfg.demand_slope * s ** (e - 1.0) * (s + e * u[i])
        )
        assert problem.gradient(i, u)[0] == pytest.approx(expected, rel=1e-10)
    # an empty market leaves only the cost-demand offset
    zero = np.zeros(2)
    for i in range(2):
        assert problem.gradient(i, zero)[0] == cfg.cost_mean - cfg.demand_q


def test_budget_split_across_firms():
    cfg = two_firm_config()
    problem, _, _ = generate(cfg)
    total = np.zeros(1)
    for bi in problem.b:
        assert np.array_equal(bi, np.array([2.5]))
        total += bi
    assert total[0] == pytest.approx(5.0, abs=1e-15)
    assert np.array_equal(problem.box_hi[0], np.array([250.0]))
    assert np.array_equal(problem.box_lo[0], np.array([0.0]))


def test_default_game_is_monotone():
    problem, _, _ = generate(CournotConfig(seed=0))
    assert monotonicity_probe(problem, trials=300) > -1e-8


def test_increasing_price_needs_opt_in():
    cfg = two_firm_config(demand_sign=1.0, allow_nonmonotone=True)
    problem, _, _ = generate(cfg)
    u = np.array([100.0, 50.0])
    assert problem.gradient(0, u)[0] < two_firm_config().cost_mean - cfg.demand_q


def test_sample_mean_matches_batch_average():
    cfg = two_firm_config(demand_sd=0.01)
    problem, oracle, _ = generate(cfg)
    u = np.array([100.0, 50.0])
    for agent in range(2):
        batch = oracle.sample_gradient_batch(agent, u, 64, np.random.default_rng(9))
        mean = oracle.sample_mean(agent, u, 64, np.random.default_rng(9))
        assert np.allclose(batch.mean(axis=0), mean, atol=1e-10)


def test_slope_noise_is_truncated():
    cfg = two_firm_config(demand_sd=0.5)
    problem, oracle, _ = generate(cfg)
    u = np.array([100.0, 50.0])
    s = u.sum()
    factor = s ** (cfg.demand_exponent - 1.0) * (s + cfg.demand_exponent * u[0])
    base = cfg.cost_mean - cfg.demand_q
    batch = oracle.sample_gradient_batch(0, u, 20_000, np.random.default_rng(0))
    slopes = (batch[:, 0] - base) / (-cfg.demand_sign * factor)
    eps = slopes - cfg.demand_slope
    assert np.max(np.abs(eps)) <= 3.0 * cfg.demand_sd + 1e-12
    # the cut actually binds at this deviation level
    assert np.max(np.abs(eps)) > 2.9 * cfg.demand_sd
    assert np.std(eps) > 0.1 * cfg.demand_sd


def test_row_evaluation_matches_single_points():
    problem, oracle, _ = generate(CournotConfig(seed=1))
    layout = oracle._layout
    part = problem.partition
    rng = np.random.default_rng(4)
    # negative entries exercise the clamp of the market totals
    pts = rng.uniform(-50.0, 300.0, size=(16, part.total_dim))
    e = 1.2
    rows = layout.slope_factor(pts, e)
    assert rows.shape == pts.shape and rows.flags.c_contiguous
    gradients = oracle.mean_gradient(pts)
    for t in range(pts.shape[0]):
        single = layout.slope_factor(pts[t], e)
        assert np.array_equal(single, rows[t])
        per_firm = np.concatenate([problem.gradient(i, pts[t]) for i in range(part.num_agents)])
        assert np.array_equal(gradients[t], per_firm)
        assert np.array_equal(problem.stacked_gradient(pts[t]), per_firm)


def test_lipschitz_probe_row_path_matches_loop():
    problem, _, _ = generate(CournotConfig(seed=0, lipschitz_pairs=64))
    n = problem.num_agents

    def looped(pts):
        return np.array([np.concatenate([problem.gradient(i, p) for i in range(n)]) for p in pts])

    slow = estimate_lipschitz(looped, problem.lo_stack, problem.hi_stack, seed=0, pairs=64)
    assert problem.lipschitz_ell == slow


@pytest.mark.parametrize("pairs", [1, 511, 512, 513, 1025])
def test_lipschitz_blocks_match_one_draw_of_all_pairs(pairs):
    problem, oracle, _ = generate(CournotConfig(seed=0, lipschitz_pairs=1))
    for seed in range(5):
        args = (oracle.mean_gradient, problem.lo_stack, problem.hi_stack, seed, pairs)
        assert estimate_lipschitz(*args) == estimate_lipschitz_unchunked(*args)


def test_lipschitz_probe_rejects_constant_gradient():
    with pytest.raises(ConfigurationError):
        estimate_lipschitz(
            lambda pts: np.full_like(pts, 0.5), np.zeros(1), np.ones(1), seed=0, pairs=10
        )


def test_stacked_sampling_matches_per_firm_path():
    # a small demand intercept keeps the sampled term from being rounded
    # away, so a different summation order of the draws would show
    problem, oracle, _ = generate(CournotConfig(seed=0, demand_sd=0.01, demand_q=1.0))
    part = problem.partition
    rng = np.random.default_rng(1)
    out = np.empty(part.total_dim)
    for size in (1, 7, 8, 13, 130):
        for k in range(20):
            u = rng.uniform(0.0, 200.0, part.total_dim)
            agents = range(part.num_agents)
            generators = [AgentStreams(42).generator(i, k, PHASE_ETA) for i in agents]
            oracle.sample_mean_stack(u, size, agents, generators, out)
            streams = AgentStreams(42)
            for i in range(part.num_agents):
                block = oracle.sample_mean(i, u, size, streams.generator(i, k, PHASE_ETA))
                assert np.array_equal(out[part.primal_slice(i)], block), (size, k, i)


def test_document_roundtrip():
    doc = {"kind": "cournot", "config": {"seed": 0, "lipschitz_pairs": 100}}
    problem, graph, oracle = load_document(doc)
    direct, direct_oracle, direct_graph = generate(
        CournotConfig(seed=0, lipschitz_pairs=100)
    )
    assert isinstance(oracle, CournotDemandOracle)
    assert problem.lipschitz_ell == direct.lipschitz_ell
    for a, b in zip(problem.b, direct.b):
        assert np.array_equal(a, b)
    assert np.array_equal(graph.weights, direct_graph.weights)
    with pytest.raises(ConfigurationError):
        load_document({"kind": "cournot", "config": {"seed": 0, "bogus": 1}})
    with pytest.raises(ConfigurationError):
        load_document({"kind": "cournot", "config": [1, 2]})
