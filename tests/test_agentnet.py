"""Networked executor: parity with the monolithic runner, traffic accounting, locality."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnes.agentnet import AgentNode, Exchange, Message, run_distributed
from gnes.blockvec import AgentPartition, Preconditioner
from gnes.cournot import CournotConfig, generate
from gnes.errors import ConfigurationError
from gnes.graph import CommGraph, generate_graph
from gnes.operators import ExtendedOperator
from gnes.solver import DiagnosticsReport, SolverParams, diagnostics_check, run, solve_ground_truth
from gnes.stochastic import (
    PHASE_ETA,
    PHASE_XI,
    AdditiveGaussianOracle,
    AgentStreams,
    BatchSchedule,
    ZeroNoiseOracle,
)

from gnes_test_helpers import load_builtin, random_affine_game


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


def _cases(rng):
    """The market and small random affine games, each on weighted graphs of four shapes."""
    market, demand, _ = generate(CournotConfig(seed=0))
    cases = [(market, demand, g) for g in _weighted_graphs(rng, market.num_agents)]
    for _ in range(6):
        dims = tuple(int(v) for v in rng.integers(1, 4, size=int(rng.integers(3, 7))))
        problem, _ = random_affine_game(rng, dims=dims, m=int(rng.integers(1, 4)))
        oracle = AdditiveGaussianOracle(problem, sd=0.1)
        cases += [(problem, oracle, g) for g in _weighted_graphs(rng, len(dims))]
    return cases


def _nodes(problem, graph, oracle):
    op = ExtendedOperator(problem, graph)
    return op, AgentNode(op, oracle, Preconditioner.uniform(problem.partition, 0.1), 0, False)


def _agent_rows(part, i):
    d, nm, m = part.total_dim, part.dual_dim, part.constraint_dim
    return np.r_[part.primal_slices[i], d + i * m : d + (i + 1) * m, d + nm + i * m : d + nm + (i + 1) * m]


def test_node_rows_match_v_flat_exactly():
    # A's rows sum in ascending global column order on both sides, so each
    # node's rows, built from its own rows and the blocks it was sent,
    # give v_flat's floats, not just close ones
    rng = np.random.default_rng(23)
    for problem, _, graph in _cases(rng):
        op, nodes = _nodes(problem, graph, ZeroNoiseOracle(problem))
        for _ in range(10):
            x = rng.normal(size=problem.partition.state_dim)
            value = nodes.operator_value(x, 0, PHASE_XI, 1)
            stacked = op.v_flat(x)
            for i in range(problem.num_agents):
                rows = _agent_rows(problem.partition, i)
                assert np.array_equal(value[rows], stacked[rows])


def test_node_rows_ignore_every_block_outside_the_inbox():
    # node i's rows of a phase value read only its own rows and what its
    # links carry to it; noise included, since a phase keys the same draws
    rng = np.random.default_rng(29)
    for problem, oracle, graph in _cases(rng):
        part = problem.partition
        _, nodes = _nodes(problem, graph, oracle)
        bus = nodes.bus
        x = np.abs(rng.normal(size=part.state_dim))
        for i in range(problem.num_agents):
            rows = _agent_rows(part, i)
            seen = np.union1d(rows, bus.rows[bus.receiver == i])
            base = nodes.operator_value(x, 3, PHASE_ETA, 4)[rows]
            outside = np.setdiff1d(np.arange(part.state_dim), seen)
            moved = x.copy()
            moved[outside] += np.abs(rng.normal(size=outside.size)) * 5.0
            assert np.array_equal(nodes.operator_value(moved, 3, PHASE_ETA, 4)[rows], base)


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
    bus = Exchange(AgentPartition((2, 2, 2, 2), 1), graph, interaction)
    block = np.arange(2.0)
    bus.post(Message(0, 1, "strategy", 0, 0, (block,)))
    assert np.array_equal(bus.inbox[bus.slots[("strategy", 0, 1)]], block)
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
        Exchange(AgentPartition((2, 2, 2, 2), 1), graph, ((1,), (1,), (3,), (2,)))
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
    # a diagnostics run needs the point its recursion is checked at
    problem, graph = monotone_small
    params = SolverParams(variant="risfbf", alpha_bar=0.1, max_iters=5, diagnostics=True)
    with pytest.raises(ConfigurationError) as info:
        run_distributed(problem, graph, ZeroNoiseOracle(problem), params)
    assert info.value.field == "reference"


@pytest.mark.parametrize("instance", ["cournot-market", "affine-monotone-small"])
def test_network_recursion_diagnostics_match_monolithic(instance):
    if instance == "cournot-market":
        problem, oracle, graph = generate(CournotConfig(seed=0))
    else:
        problem, graph = load_builtin(instance)
        oracle = AdditiveGaussianOracle(problem, sd=0.1)
    reference, _ = solve_ground_truth(problem, graph)
    params = SolverParams(
        variant="risfbf", alpha_bar=0.1, max_iters=60, tol=0.0, diagnostics=True,
        batch=BatchSchedule(1.0, 1.2),
    )
    _, t_mono = run(problem, graph, oracle, params, seed=5, reference=reference)
    _, t_net, _ = run_distributed(problem, graph, oracle, params, seed=5, reference=reference)
    assert t_mono.state_hash == t_net.state_hash
    mono, net = diagnostics_check(t_mono, reference), diagnostics_check(t_net, reference)
    for field in dataclasses.fields(DiagnosticsReport):
        assert np.array_equal(getattr(mono, field.name), getattr(net, field.name)), field.name
    assert len(mono.dm) == 60
    assert t_mono.recursion.multiplier_floor == t_net.recursion.multiplier_floor
