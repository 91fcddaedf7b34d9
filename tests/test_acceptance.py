"""Acceptance gate: the nine release criteria, one test each.

Each criterion runs at its stated tolerances and budget; the summary
hook in conftest prints one pass/fail line per criterion at the end of
the session. Budgets time only the work the criterion prescribes.
"""

import time

import numpy as np
import pytest

from gnes.agentnet import run_distributed
from gnes.blockvec import Preconditioner, PrimalDualState, psi_inner, psi_norm
from gnes.cournot import CournotConfig, generate
from gnes.graph import generate_graph
from gnes.operators import ExtendedOperator, kkt_check, residual_res
from gnes.solver import (
    SolverParams,
    admissible_step_bound,
    diagnostics_check,
    run,
    solve_ground_truth,
)
from gnes.stochastic import AdditiveGaussianOracle, BatchSchedule, ZeroNoiseOracle

from gnes_test_helpers import load_builtin


def _split(problem, state):
    part = problem.partition
    d, nm = part.total_dim, part.dual_dim
    u = state.data[:d]
    lam = state.data[d + nm :].reshape(part.num_agents, -1).mean(axis=0)
    return u, lam


def test_c1_deterministic_convergence(monotone_small):
    problem, graph = monotone_small
    params = SolverParams(variant="sfbf", tol=1e-12, max_iters=10_000)
    t0 = time.perf_counter()
    state, trace = run(problem, graph, ZeroNoiseOracle(problem), params)
    wall = time.perf_counter() - t0
    u, lam = _split(problem, state)
    assert trace.final_r_psi < 1e-12
    assert kkt_check(problem, u, lam, tol=1e-8).passed
    assert residual_res(problem, u) < 1e-8
    assert wall < 5.0


def test_c2_stochastic_convergence(monotone_small):
    problem, graph = monotone_small
    oracle = AdditiveGaussianOracle(problem, sd=0.1)
    params = SolverParams(
        variant="risfbf", alpha_bar=0.1, nu=0.01, max_iters=20_000,
        tol=0.0, tol_res=1e-4, batch=BatchSchedule(1.0, 1.2),
    )
    t0 = time.perf_counter()
    for seed in range(10):
        _, trace = run(problem, graph, oracle, params, seed=seed)
        assert trace.final_res < 1e-4, f"seed {seed}: res {trace.final_res}"
        assert trace.iterations < 20_000, f"seed {seed} hit the iteration cap"
    assert time.perf_counter() - t0 < 60.0


def test_c3_network_parity():
    cases = [
        ("affine-tiny", "sfb", 0.0, 0.0, 0),
        ("affine-tiny", "sfbf", 0.0, 0.1, 1),
        ("affine-two-firms", "sfbf", 0.0, 0.0, 2),
        ("affine-two-firms", "risfbf", 0.2, 0.1, 3),
        ("affine-inactive", "risfbf", 0.1, 0.0, 4),
        ("affine-asym", "risfbf", 0.1, 0.05, 5),
        ("affine-monotone-small", "sfb", 0.0, 0.1, 6),
        ("affine-monotone-small", "risfbf", 0.3, 0.1, 7),
        ("affine-monotone-small", "sfbf", 0.0, 0.2, 8),
    ]
    for name, variant, alpha_bar, sd, seed in cases:
        problem, graph = load_builtin(name)
        oracle = (
            ZeroNoiseOracle(problem) if sd == 0.0
            else AdditiveGaussianOracle(problem, sd=sd)
        )
        params = SolverParams(
            variant=variant, alpha_bar=alpha_bar, max_iters=60, tol=0.0,
            batch=BatchSchedule(1.0, 1.2),
        )
        s1, t1 = run(problem, graph, oracle, params, seed=seed)
        s2, t2, _ = run_distributed(problem, graph, oracle, params, seed=seed)
        assert t1.state_hash == t2.state_hash, (name, variant, seed)
        assert np.array_equal(s1.data, s2.data), (name, variant, seed)
    problem, oracle, graph = generate(CournotConfig(seed=0))
    params = SolverParams(
        variant="risfbf", alpha_bar=0.1, max_iters=40, tol=0.0,
        batch=BatchSchedule(1.0, 1.2),
    )
    s1, t1 = run(problem, graph, oracle, params, seed=9)
    s2, t2, _ = run_distributed(problem, graph, oracle, params, seed=9)
    assert t1.state_hash == t2.state_hash
    assert np.array_equal(s1.data, s2.data)


def test_c4_recursion_diagnostics(monotone_small):
    problem, graph = monotone_small
    reference, _ = solve_ground_truth(problem, graph)
    base = dict(
        variant="risfbf", alpha_bar=0.1, nu=0.01, max_iters=1000, tol=0.0,
        diagnostics=True, batch=BatchSchedule(1.0, 1.2),
    )
    for oracle in (ZeroNoiseOracle(problem), AdditiveGaussianOracle(problem, sd=0.05)):
        _, trace = run(problem, graph, oracle, SolverParams(**base), seed=1, reference=reference)
        report = diagnostics_check(trace, reference, tol=1e-9)
        assert report.ok, type(oracle).__name__
        for family in ("fr_violations", "yzg_violations", "h_violations", "coupling_violations"):
            assert len(getattr(report, family)) == 0, (type(oracle).__name__, family)
    control = SolverParams(**{**base, "rho_scale": 2.0, "enforce_admissibility": False})
    _, trace = run(problem, graph, ZeroNoiseOracle(problem), control, seed=1, reference=reference)
    report = diagnostics_check(trace, reference, tol=1e-9)
    assert not report.ok
    assert len(report.coupling_violations) > 0


def test_c5_norm_and_operator_identities(monotone_small):
    problem, graph = monotone_small
    part = problem.partition
    op = ExtendedOperator(problem, graph)
    rng = np.random.default_rng(2024)
    n = part.num_agents

    def random_psi():
        return Preconditioner(
            part,
            rng.uniform(0.05, 1.0, n),
            rng.uniform(0.05, 1.0, n),
            rng.uniform(0.05, 1.0, n),
        )

    for _ in range(1000):
        psi = random_psi()
        x = PrimalDualState(part, rng.normal(0.0, 2.0, part.state_dim))
        y = PrimalDualState(part, rng.normal(0.0, 2.0, part.state_dim))
        a = rng.uniform(0.0, 1.0)
        b = 1.0 - a
        mix = PrimalDualState(part, a * x.data + b * y.data)
        gap = PrimalDualState(part, x.data - y.data)
        lhs = psi_norm(mix, psi) ** 2
        rhs = a * psi_norm(x, psi) ** 2 + b * psi_norm(y, psi) ** 2 - a * b * psi_norm(gap, psi) ** 2
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))

    for _ in range(1000):
        psi = random_psi()
        x = PrimalDualState(part, rng.normal(0.0, 2.0, part.state_dim))
        y = PrimalDualState(part, rng.normal(0.0, 2.0, part.state_dim))
        jx = op.resolvent_flat(x.data)
        jy = op.resolvent_flat(y.data)
        jgap = PrimalDualState(part, jx - jy)
        xgap = PrimalDualState(part, x.data - y.data)
        assert psi_norm(jgap, psi) ** 2 <= psi_inner(jgap, xgap, psi) + 1e-10

    ell_v = op.lipschitz_ell_V
    for _ in range(1000):
        x = rng.normal(0.0, 3.0, part.state_dim)
        y = rng.normal(0.0, 3.0, part.state_dim)
        vx = op.v_flat(x)
        vy = op.v_flat(y)
        assert np.linalg.norm(vx - vy) <= ell_v * np.linalg.norm(x - y) * (1.0 + 1e-9)


def test_c6_estimator_moments(monotone_small):
    problem, _ = monotone_small
    sd = 0.3
    oracle = AdditiveGaussianOracle(problem, sd=sd)
    u = np.array([0.4, 0.2, 0.5, 0.1, 0.3, 0.2])
    part = problem.partition
    draws = 100_000
    for agent in range(part.num_agents):
        batch = oracle.sample_gradient_batch(agent, u, draws, np.random.default_rng(agent))
        err = np.abs(batch.mean(axis=0) - problem.gradient(agent, u))
        assert np.all(err <= 4.0 * sd / np.sqrt(draws)), agent
    reps = 10_000
    for size in (1, 4, 16):
        for agent in range(part.num_agents):
            rng = np.random.default_rng(1000 + agent)
            means = np.stack([oracle.sample_mean(agent, u, size, rng) for _ in range(reps)])
            assert np.all(means.var(axis=0, ddof=1) <= 1.2 * sd**2 / size), (size, agent)


def test_c7_laplacian_degree_bounds():
    named = [
        generate_graph("ring", 6),
        generate_graph("star", 8),
        generate_graph("complete", 5),
    ]
    rng = np.random.default_rng(77)
    randoms = [
        generate_graph("erdos-renyi", int(rng.integers(2, 13)), p=0.5, seed=int(rng.integers(1_000_000)))
        for _ in range(20)
    ]
    for graph in named + randoms:
        degree = max(len(nb) for nb in graph.neighbors)
        assert degree <= graph.lap_norm <= 2.0 * degree + 1e-12


@pytest.mark.slow
def test_c8_market_benchmark_ordering():
    t0 = time.perf_counter()
    ordered = 0
    for inst_seed in range(10):
        problem, oracle, graph = generate(CournotConfig(seed=inst_seed))
        op = ExtendedOperator(problem, graph)
        step = 0.7 * admissible_step_bound(op, 0.01)
        common = dict(
            steps=(step, step, step), nu=0.01, max_iters=5000, tol=0.0,
            batch=BatchSchedule(0.0005, 1.2), trace_every=5000,
        )
        variants = {
            "risfbf": SolverParams(variant="risfbf", alpha_bar=0.1, **common),
            "sfbf": SolverParams(variant="sfbf", **common),
            "sfb": SolverParams(variant="sfb", **common),
        }
        means = {}
        for name, params in variants.items():
            finals = []
            for rep in range(10):
                _, trace = run(problem, graph, oracle, params, seed=1000 + rep)
                finals.append(trace.final_res)
            means[name] = float(np.mean(finals))
        if means["risfbf"] <= means["sfbf"] <= means["sfb"]:
            ordered += 1
    wall = time.perf_counter() - t0
    assert ordered >= 8, f"ordering held on {ordered}/10 instances"
    assert wall < 600.0


def test_c9_degenerate_inertia_equals_fbf(monotone_small):
    problem, graph = monotone_small
    asym_problem, asym_graph = load_builtin("affine-asym")
    for prob, gr in ((problem, graph), (asym_problem, asym_graph)):
        oracle = AdditiveGaussianOracle(prob, sd=0.1)
        common = dict(max_iters=200, tol=0.0, batch=BatchSchedule(1.0, 1.2))
        degenerate = SolverParams(variant="risfbf", alpha_bar=0.0, rho_fixed=1.0, **common)
        plain = SolverParams(variant="sfbf", **common)
        for seed in range(3):
            s1, t1 = run(prob, gr, oracle, degenerate, seed=seed)
            s2, t2 = run(prob, gr, oracle, plain, seed=seed)
            assert t1.state_hash == t2.state_hash, seed
            assert np.array_equal(s1.data, s2.data), seed
