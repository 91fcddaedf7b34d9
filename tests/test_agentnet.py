"""Networked executor: parity with the monolithic runner, traffic accounting, locality."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnes.agentnet import AgentNode, Exchange, Message, run_distributed
from gnes.blockvec import Preconditioner
from gnes.cournot import CournotConfig, generate
from gnes.errors import ConfigurationError
from gnes.graph import CommGraph, generate_graph
from gnes.operators import ExtendedOperator
from gnes.solver import SolverParams, run
from gnes.stochastic import PHASE_XI, AdditiveGaussianOracle, AgentStreams, BatchSchedule, ZeroNoiseOracle

from conftest import load_builtin, random_affine_game


def _both(problem, graph, oracle, params, seed):
    s_mono, t_mono = run(problem, graph, oracle, params, seed=seed)
    s_net, t_net, report = run_distributed(problem, graph, oracle, params, seed=seed)
    return s_mono, t_mono, s_net, t_net, report


PARITY_CASES = [
    ("affine-tiny", "sfb", 0.0, 0.0, 7),
    ("affine-two-firms", "sfbf", 0.0, 0.0, 0),
    ("affine-monotone-small", "risfbf", 0.2, 0.1, 3),
    ("affine-asym", "risfbf", 0.1, 0.05, 11),
]


@pytest.mark.parametrize("name,variant,alpha_bar,sd,seed", PARITY_CASES)
def test_network_matches_monolithic(name, variant, alpha_bar, sd, seed):
    problem, graph = load_builtin(name)
    oracle = (
        ZeroNoiseOracle(problem)
        if sd == 0.0
        else AdditiveGaussianOracle(problem, sd=sd)
    )
    params = SolverParams(
        variant=variant, alpha_bar=alpha_bar, max_iters=120, tol=0.0,
        batch=BatchSchedule(1.0, 1.2),
    )
    s_mono, t_mono, s_net, t_net, report = _both(problem, graph, oracle, params, seed)
    assert np.array_equal(s_mono.data, s_net.data)
    assert t_mono.state_hash == t_net.state_hash
    assert t_mono.iterations == t_net.iterations == report.iterations


@settings(max_examples=25, deadline=None)
@given(
    dims=st.lists(st.integers(1, 3), min_size=1, max_size=4),
    m=st.integers(1, 3),
    game_seed=st.integers(0, 2**32 - 1),
    run_seed=st.integers(0, 2**32 - 1),
    iterations=st.integers(1, 40),
)
def test_network_matches_monolithic_on_random_affine_games(dims, m, game_seed, run_seed, iterations):
    problem, graph = random_affine_game(np.random.default_rng(game_seed), dims=tuple(dims), m=m)
    for oracle in (ZeroNoiseOracle(problem), AdditiveGaussianOracle(problem, sd=0.1)):
        for variant in ("risfbf", "sfbf", "sfb"):
            params = SolverParams(
                variant=variant, max_iters=iterations, tol=0.0, batch=BatchSchedule(1.0, 1.2)
            )
            s_mono, t_mono, s_net, t_net, _ = _both(problem, graph, oracle, params, run_seed)
            assert np.array_equal(s_mono.data, s_net.data), variant
            assert t_mono.state_hash == t_net.state_hash, variant


@pytest.mark.parametrize("noise,variant", [
    ("demand", "risfbf"),
    ("zero", "sfbf"),
    ("zero", "risfbf"),
], ids=["demand-risfbf", "zero-sfbf", "zero-risfbf"])
def test_network_matches_on_cournot_market(noise, variant):
    # noise-free, the single process assembles F(u) with the stacked
    # kernel while the agent nodes call the per-firm gradients
    problem, oracle, graph = generate(CournotConfig(seed=0))
    if noise == "zero":
        oracle = ZeroNoiseOracle(problem)
    params = SolverParams(
        variant=variant, alpha_bar=0.1, max_iters=40, tol=0.0,
        batch=BatchSchedule(1.0, 1.2),
    )
    s_mono, t_mono = run(problem, graph, oracle, params, seed=2)
    s_net, t_net, _ = run_distributed(problem, graph, oracle, params, seed=2)
    assert np.array_equal(s_mono.data, s_net.data)
    assert t_mono.state_hash == t_net.state_hash


def _weighted_graphs(rng, n):
    graphs = [generate_graph(name, n) for name in ("ring", "star", "complete")]
    graphs.append(generate_graph("erdos-renyi", n, p=0.5, seed=int(rng.integers(1 << 31))))
    for g in graphs:
        w = g.weights * rng.uniform(0.5, 2.0, size=g.weights.shape)
        yield CommGraph(w + w.T)


def _node_rows_and_stacked(problem, graph, rng, states=10):
    """Each node's operator value from exchanged blocks, next to its rows of v_flat."""
    op = ExtendedOperator(problem, graph)
    psi = Preconditioner.uniform(problem.partition, 0.1)
    oracle = ZeroNoiseOracle(problem)
    nodes = [AgentNode(i, op, oracle, psi, 0) for i in range(problem.num_agents)]
    for _ in range(states):
        x = rng.normal(size=problem.partition.state_dim)
        bus = Exchange(graph, problem.interaction)
        for node in nodes:
            node.post(bus, 0, PHASE_XI, *node.blocks(x[node.rows]))
        stacked = op.v_flat(x)
        for node in nodes:
            local = node.operator_value(x[node.rows], bus.collect(node.index), 0, PHASE_XI, 1)
            yield local, stacked[node.rows]


def test_node_rows_match_v_flat_exactly():
    # A's rows sum in ascending global column order on both sides, so a
    # node's local kernel gives v_flat's floats, not just close ones
    rng = np.random.default_rng(23)
    market, _, _ = generate(CournotConfig(seed=0))
    cases = [(market, g) for g in _weighted_graphs(rng, market.num_agents)]
    for _ in range(6):
        dims = tuple(int(v) for v in rng.integers(1, 4, size=int(rng.integers(3, 7))))
        problem, _ = random_affine_game(rng, dims=dims, m=int(rng.integers(1, 4)))
        cases += [(problem, g) for g in _weighted_graphs(rng, len(dims))]
    for problem, graph in cases:
        for local, stacked in _node_rows_and_stacked(problem, graph, rng):
            assert np.array_equal(local, stacked)


def test_noise_free_nodes_key_no_stream(monkeypatch):
    def refuse(self, agent, iteration, phase):
        raise AssertionError("a noise-free run keyed a stream")

    monkeypatch.setattr(AgentStreams, "generator", refuse)
    problem, _, graph = generate(CournotConfig(seed=0))
    oracle = ZeroNoiseOracle(problem)
    params = SolverParams(variant="sfbf", max_iters=20, tol=0.0)
    _, t_mono = run(problem, graph, oracle, params, seed=4)
    _, t_net, _ = run_distributed(problem, graph, oracle, params, seed=4)
    assert t_mono.state_hash == t_net.state_hash


def test_message_counts_dense_three_agents(monotone_small):
    problem, graph = monotone_small
    oracle = ZeroNoiseOracle(problem)
    # all-to-all interaction and a 3-cycle: 6 strategy links, 6 dual links
    for variant, per_iter in (("sfbf", 24), ("risfbf", 24), ("sfb", 12)):
        params = SolverParams(variant=variant, alpha_bar=0.1, max_iters=30, tol=0.0)
        _, trace, report = run_distributed(problem, graph, oracle, params)
        assert report.messages_per_iteration == per_iter
        assert report.total_messages == per_iter * trace.iterations
        assert report.strategy_messages == report.dual_messages == report.total_messages // 2


def test_message_counts_cournot_market():
    problem, oracle, graph = generate(CournotConfig(seed=0))
    assert [len(r) for r in problem.interaction] == [5, 3, 7, 3, 5, 2, 4, 6, 4, 5]
    params = SolverParams(variant="sfbf", max_iters=5, tol=0.0)
    _, trace, report = run_distributed(problem, graph, oracle, params)
    # 44 interaction links plus 20 ring links, visited twice per iteration
    assert report.messages_per_iteration == 128
    assert report.strategy_messages == 2 * 44 * trace.iterations
    assert report.dual_messages == 2 * 20 * trace.iterations


def test_audit_log_records_every_message(monotone_small):
    problem, graph = monotone_small
    params = SolverParams(variant="risfbf", alpha_bar=0.1, max_iters=4, tol=0.0)
    _, _, report = run_distributed(
        problem, graph, ZeroNoiseOracle(problem), params, audit=True
    )
    assert report.log is not None
    assert len(report.log) == report.total_messages
    dims = problem.partition.dims
    m = problem.partition.constraint_dim
    for k, phase, kind, sender, receiver, size in report.log:
        assert 0 <= k < 4
        assert kind in ("strategy", "dual")
        assert sender != receiver
        if kind == "strategy":
            assert size == dims[sender]
        else:
            assert size == 2 * m
    _, _, quiet = run_distributed(
        problem, graph, ZeroNoiseOracle(problem), params, audit=False
    )
    assert quiet.log is None


def test_exchange_rejects_undeclared_links():
    graph = generate_graph("ring", 4)
    interaction = ((1,), (0,), (3,), (2,))
    bus = Exchange(graph, interaction)
    block = np.zeros(2)
    bus.post(Message(0, 1, "strategy", 0, 0, (block,)))
    with pytest.raises(ConfigurationError) as info:
        bus.post(Message(0, 2, "strategy", 0, 0, (block,)))
    assert info.value.field == "exchange"
    # agents 0 and 2 sit on opposite sides of the ring
    with pytest.raises(ConfigurationError):
        bus.post(Message(0, 2, "dual", 0, 0, (block, block)))
    # a negative sender must not wrap around to agent 3's links
    with pytest.raises(ConfigurationError):
        bus.post(Message(-1, 2, "strategy", 0, 0, (block,)))
    with pytest.raises(ConfigurationError):
        bus.post(Message(0, 1, "gossip", 0, 0, (block,)))
    with pytest.raises(ConfigurationError):
        Exchange(graph, ((1,), (1,), (3,), (2,)))
    assert bus.sent == {"strategy": 1, "dual": 0}


def test_single_agent_runs_without_traffic(tiny):
    problem, graph = tiny
    params = SolverParams(variant="sfbf", max_iters=200, tol=0.0)
    s_mono, t_mono = run(problem, graph, ZeroNoiseOracle(problem), params)
    s_net, t_net, report = run_distributed(problem, graph, ZeroNoiseOracle(problem), params)
    assert np.array_equal(s_mono.data, s_net.data)
    assert t_mono.state_hash == t_net.state_hash
    assert report.total_messages == 0
    assert report.messages_per_iteration == 0


def test_network_refuses_diagnostics(monotone_small):
    problem, graph = monotone_small
    params = SolverParams(variant="risfbf", alpha_bar=0.1, max_iters=5, diagnostics=True)
    with pytest.raises(ConfigurationError) as info:
        run_distributed(problem, graph, ZeroNoiseOracle(problem), params)
    assert info.value.field == "diagnostics"
