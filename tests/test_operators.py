"""Extended operator assembly, resolvent, projections, and KKT checks."""

import dataclasses

import numpy as np
import pytest

from gnes.blockvec import AgentPartition, Preconditioner
from gnes.errors import ConfigurationError, DimensionMismatchError, NumericError, ToleranceError
from gnes.graph import CommGraph
from gnes.operators import (
    ExtendedOperator,
    GameProblem,
    kkt_check,
    proj_shared_set,
    residual_res,
)
from gnes.stochastic import PHASE_XI, AdditiveGaussianOracle, AgentStreams, sample_V_hat

from conftest import dykstra_projection, load_builtin, random_affine_game, random_state


def two_agent_game():
    """F(u) = 2u - 1 on [0, 1]^2, one coupling row, single edge graph."""
    part = AgentPartition((1, 1), 1)
    problem = GameProblem(
        partition=part,
        pseudogradient=lambda u: 2.0 * u - 1.0,
        D=(np.array([[1.0]]), np.array([[1.0]])),
        b=(np.array([0.5]), np.array([0.5])),
        box_lo=(np.zeros(1), np.zeros(1)),
        box_hi=(np.ones(1), np.ones(1)),
        lipschitz_ell=2.0,
    )
    graph = CommGraph(np.array([[0.0, 1.0], [1.0, 0.0]]))
    return problem, graph


def test_v_hand_example():
    problem, graph = two_agent_game()
    op = ExtendedOperator(problem, graph)
    # u = (0.5, 0.25), mu = (0.1, 0.2), lambda = (0.3, 0.0)
    x = np.array([0.5, 0.25, 0.1, 0.2, 0.3, 0.0])
    # F(u) = (0, -0.5); V_u = F_i + D_i^T lam_i = (0.3, -0.5)
    # L lam = (0.3, -0.3); L (lam - mu) = (0.4, -0.4)
    # V_lam = b_i + (L (lam - mu))_i - D_i u_i = (0.4, -0.15)
    expected = np.array([0.3, -0.5, 0.3, -0.3, 0.4, -0.15])
    assert np.allclose(op.v_flat(x), expected, atol=1e-15)


def test_held_estimate_survives_the_next_same_phase_call():
    problem, graph = load_builtin("affine-monotone-small")
    op = ExtendedOperator(problem, graph)
    oracle = AdditiveGaussianOracle(problem, sd=0.1)
    streams = AgentStreams(3)
    rng = np.random.default_rng(0)
    x = rng.normal(size=problem.partition.state_dim)
    y = rng.normal(size=problem.partition.state_dim)
    held = sample_V_hat(op, oracle, x, 4, streams, 0, PHASE_XI)
    kept = held.copy()
    later = sample_V_hat(op, oracle, y, 4, streams, 1, PHASE_XI)
    assert later is not held
    assert np.array_equal(held, kept)
    # and the held estimate is still the one drawn at x
    assert np.array_equal(held, sample_V_hat(op, oracle, x, 4, AgentStreams(3), 0, PHASE_XI))


def test_v_matches_dense_kronecker_assembly():
    rng = np.random.default_rng(21)
    for trial in range(10):
        problem, graph = random_affine_game(rng)
        part = problem.partition
        op = ExtendedOperator(problem, graph)
        d, n, m = part.total_dim, part.num_agents, part.constraint_dim
        lap = np.kron(graph.laplacian, np.eye(m))
        d_blk = np.zeros((n * m, d))
        for i in range(n):
            d_blk[i * m : (i + 1) * m, part.primal_slice(i)] = problem.D[i]
        b_stack = np.concatenate(problem.b)
        for _ in range(10):
            x = random_state(part, rng)
            u, mu, lam = x[:d], x[d : d + n * m], x[d + n * m :]
            f = np.concatenate([problem.gradient(i, u) for i in range(n)])
            dense = np.concatenate([
                f + d_blk.T @ lam,
                lap @ lam,
                b_stack + lap @ (lam - mu) - d_blk @ u,
            ])
            assert np.allclose(op.v_flat(x), dense, atol=1e-11)


def test_lipschitz_constant_formula(monotone_small):
    problem, graph = monotone_small
    op = ExtendedOperator(problem, graph)
    expected = problem.lipschitz_ell + 2.0 * graph.lap_norm + problem.d_norm
    assert op.lipschitz_ell_V == pytest.approx(expected, rel=1e-12)


def test_v_is_lipschitz_with_stated_constant(monotone_small):
    problem, graph = monotone_small
    op = ExtendedOperator(problem, graph)
    part = problem.partition
    rng = np.random.default_rng(123)
    for _ in range(1000):
        x = random_state(part, rng)
        y = random_state(part, rng)
        lhs = np.linalg.norm(op.v_flat(x) - op.v_flat(y))
        rhs = op.lipschitz_ell_V * np.linalg.norm(x - y)
        assert lhs <= rhs * (1 + 1e-9)


def test_d_norm_is_spectral_norm(monotone_small):
    problem, _ = monotone_small
    assert problem.d_norm == pytest.approx(
        np.linalg.norm(problem.D_stack, 2), rel=1e-9
    )


def test_resolvent_blocks():
    problem, graph = two_agent_game()
    op = ExtendedOperator(problem, graph)
    psi = Preconditioner.uniform(problem.partition, 0.1)
    x = np.array([1.5, -0.25, 0.7, -0.7, 0.4, -0.3])
    out = op.resolvent_flat(x, psi)
    # box clip on u, identity on mu, positive part on lambda
    assert np.array_equal(out, [1.0, 0.0, 0.7, -0.7, 0.4, 0.0])


def test_resolvent_is_firmly_nonexpansive(monotone_small):
    problem, graph = monotone_small
    op = ExtendedOperator(problem, graph)
    part = problem.partition
    rng = np.random.default_rng(77)
    psi = Preconditioner(
        part, rng.random(3) * 0.2 + 0.05, rng.random(3) * 0.2 + 0.05, rng.random(3) * 0.2 + 0.05
    )
    w = psi.weights
    for _ in range(1000):
        x = random_state(part, rng)
        y = random_state(part, rng)
        jx = op.resolvent_flat(x, psi)
        jy = op.resolvent_flat(y, psi)
        lhs = float(np.dot(w * (jx - jy), jx - jy))
        rhs = float(np.dot(w * (jx - jy), x - y))
        assert lhs <= rhs + 1e-10


def test_r_psi_zero_exactly_at_fixed_points(tiny):
    problem, graph = tiny
    op = ExtendedOperator(problem, graph)
    part = problem.partition
    psi = Preconditioner.uniform(part, 0.3)
    # u* = 0.25 with lambda* = 0.05 solves the coupled game
    assert op.r_psi_flat(np.array([0.25, 0.05, 0.05]), psi) < 1e-12
    assert op.r_psi_flat(np.array([0.9, 0.0, 0.0]), psi) > 1e-3


def test_projection_hand_example():
    problem, _ = two_agent_game()
    # box [0,1]^2 with u1 + u2 <= 1: the corner (1,1) projects to (0.5, 0.5)
    out = proj_shared_set(problem, np.array([1.0, 1.0]))
    assert np.allclose(out, [0.5, 0.5], atol=1e-9)
    inside = np.array([0.2, 0.3])
    assert np.allclose(proj_shared_set(problem, inside), inside, atol=1e-12)


def test_projection_properties(monotone_small):
    problem, _ = monotone_small
    rng = np.random.default_rng(31)
    for _ in range(50):
        v = rng.normal(size=problem.partition.total_dim) * 2.0
        p1 = proj_shared_set(problem, v)
        assert np.all(p1 >= problem.lo_stack - 1e-9)
        assert np.all(p1 <= problem.hi_stack + 1e-9)
        assert np.all(problem.D_stack @ p1 - problem.b_total <= 1e-8)
        # projecting a projected point moves nothing
        assert np.linalg.norm(proj_shared_set(problem, p1) - p1) < 1e-8


def test_projection_rejects_infeasible_zero_row():
    part = AgentPartition((1,), 1)
    problem = GameProblem(
        partition=part,
        pseudogradient=lambda u: u.copy(),
        D=(np.array([[0.0]]),),
        b=(np.array([-1.0]),),
        box_lo=(np.zeros(1),),
        box_hi=(np.ones(1),),
        lipschitz_ell=1.0,
    )
    with pytest.raises(ConfigurationError):
        proj_shared_set(problem, np.array([0.5]))


def test_projection_rejects_row_unreachable_in_box():
    part = AgentPartition((2,), 1)
    problem = GameProblem(
        partition=part,
        pseudogradient=lambda u: u.copy(),
        D=(np.array([[1.0, -1.0]]),),
        b=(np.array([-1.5]),),
        box_lo=(np.zeros(2),),
        box_hi=(np.ones(2),),
        lipschitz_ell=1.0,
    )
    # u0 - u1 >= -1 on the unit box, so u0 - u1 <= -1.5 is empty
    with pytest.raises(ConfigurationError):
        proj_shared_set(problem, np.array([0.5, 0.5]))


def _assert_feasible(problem, u, tol=1e-9):
    assert np.all(u >= problem.lo_stack) and np.all(u <= problem.hi_stack)
    assert np.all(problem.D_stack @ u - problem.b_total <= tol)


def tight_random_game(rng, dims, m):
    """random_affine_game with small offsets b_i >= 0, so that several rows bind.

    u = 0 stays feasible, so the shared set is never empty.
    """
    problem, _ = random_affine_game(rng, dims=dims, m=m)
    return dataclasses.replace(
        problem, b=tuple(rng.uniform(0.0, 0.3, m) for _ in dims)
    )


def test_projection_matches_dykstra_on_random_games():
    rng = np.random.default_rng(2103)
    most_active = 0
    for trial in range(60):
        m = int(rng.integers(1, 5))
        dims = tuple(int(k) for k in rng.integers(1, 4, size=int(rng.integers(2, 5))))
        problem = tight_random_game(rng, dims, m)
        for _ in range(8):
            v = rng.normal(size=problem.partition.total_dim) * 3.0
            u = proj_shared_set(problem, v)
            ref = dykstra_projection(problem, v)
            assert np.max(np.abs(u - ref)) <= 1e-9, (trial, m)
            _assert_feasible(problem, u)
            active = np.abs(problem.D_stack @ ref - problem.b_total) <= 1e-9
            most_active = max(most_active, int(active.sum()))
    # the sample exercises coupled rows, not only single active halfspaces
    assert most_active >= 3


def test_projection_matches_dykstra_on_solver_states(monotone_small):
    from gnes.cournot import CournotConfig, generate
    from gnes.solver import SolverParams, run
    from gnes.stochastic import AdditiveGaussianOracle, BatchSchedule

    problem, graph = monotone_small
    part = problem.partition
    params = SolverParams(
        variant="risfbf", max_iters=80, tol=0.0, diagnostics=True,
        batch=BatchSchedule(1.0, 1.2),
    )
    _, trace = run(problem, graph, AdditiveGaussianOracle(problem, sd=0.1), params, seed=4)
    for x in trace.diag.states[::4]:
        u = x[: part.total_dim]
        v = u - np.concatenate([problem.gradient(i, u) for i in range(part.num_agents)])
        out = proj_shared_set(problem, v)
        assert np.max(np.abs(out - dykstra_projection(problem, v))) <= 1e-9
        _assert_feasible(problem, out)
    # on the market each row covers the columns of its own market, so a
    # single sweep of exact row solves already carries the certificate
    market, demand, market_graph = generate(CournotConfig(seed=0))
    d = market.partition.total_dim
    params = SolverParams(
        variant="risfbf", max_iters=200, tol=0.0, diagnostics=True,
        batch=BatchSchedule(0.0005, 1.2),
    )
    _, trace = run(market, market_graph, demand, params, seed=1)
    for x in trace.diag.states[::25]:
        u = x[:d]
        v = u - np.concatenate([market.gradient(i, u) for i in range(market.num_agents)])
        out = proj_shared_set(market, v, max_sweeps=1)
        ref = dykstra_projection(market, v)
        assert np.max(np.abs(out - ref)) <= 1e-9
        _assert_feasible(market, out)
        # every budget binds along this run
        assert np.all(np.abs(market.D_stack @ ref - market.b_total) <= 1e-9)


def test_projection_raises_when_sweeps_run_out():
    rng = np.random.default_rng(8)
    problem = tight_random_game(rng, (2, 2, 2), 4)
    budget_hit = 0
    for _ in range(40):
        v = rng.normal(size=problem.partition.total_dim) * 3.0
        try:
            proj_shared_set(problem, v, max_sweeps=1)
        except ToleranceError as err:
            budget_hit += 1
            assert err.achieved > 0.0
            # a larger budget reaches the certificate from the same point
            proj_shared_set(problem, v)
    assert budget_hit > 0
    with pytest.raises(ToleranceError):
        proj_shared_set(problem, np.full(problem.partition.total_dim, np.nan))


def test_residual_res_at_solution(tiny):
    problem, _ = tiny
    assert residual_res(problem, np.array([0.25])) < 1e-10
    assert residual_res(problem, np.array([0.8])) > 1e-3


def test_kkt_check_at_tiny_solution(tiny):
    problem, _ = tiny
    report = kkt_check(problem, np.array([0.25]), np.array([0.05]))
    assert report.passed
    assert report.stationarity_gap < 1e-10
    assert report.feasibility_gap <= 0.0
    assert report.complementarity_gap < 1e-10


def test_kkt_check_rejects_non_solutions(tiny):
    problem, _ = tiny
    # interior point with zero multiplier violates stationarity
    report = kkt_check(problem, np.array([0.5]), np.array([0.0]))
    assert not report.stationarity
    # infeasible point
    report = kkt_check(problem, np.array([0.9]), np.array([0.05]))
    assert not report.feasibility
    # negative multiplier fails the sign part of complementarity
    report = kkt_check(problem, np.array([0.25]), np.array([-0.05]))
    assert not report.complementarity
    with pytest.raises(DimensionMismatchError):
        kkt_check(problem, np.array([0.25]), np.array([0.05, 0.0]))


def test_stacked_gradient_stacks_agent_gradients(monotone_small):
    problem, graph = monotone_small
    part = problem.partition
    rng = np.random.default_rng(4)
    u = rng.normal(size=part.total_dim)
    out = problem.stacked_gradient(u)
    for i in range(part.num_agents):
        assert np.array_equal(out[part.primal_slice(i)], problem.gradient(i, u))
    # V's primal block is F(u) + D^T lambda: at lambda = 0 it is F(u) itself
    x = np.concatenate([u, np.zeros(2 * part.dual_dim)])
    assert np.array_equal(ExtendedOperator(problem, graph).v_flat(x)[: part.total_dim], out)


def test_pseudogradient_errors_name_the_agent(monotone_small):
    problem, _ = monotone_small
    part = problem.partition
    u = np.linspace(-1.0, 1.0, part.total_dim)
    exact = problem.stacked_gradient(u)

    def poisoned(v):
        out = exact.copy()
        out[part.primal_slice(2).start] = np.nan
        return out

    bad = dataclasses.replace(problem, pseudogradient=poisoned)
    with pytest.raises(NumericError) as info:
        bad.stacked_gradient(u)
    assert info.value.agent == 2
    with pytest.raises(NumericError) as info:
        bad.gradient(2, u)
    assert info.value.agent == 2
    # an agent reads only its own rows, so another agent's NaN is not its error
    assert np.array_equal(bad.gradient(0, u), exact[part.primal_slice(0)])
    short = dataclasses.replace(problem, pseudogradient=lambda v: exact[:-1])
    with pytest.raises(DimensionMismatchError) as info:
        short.stacked_gradient(u)
    assert info.value.block == "pseudogradient"
    with pytest.raises(DimensionMismatchError) as info:
        short.gradient(1, u)
    assert info.value.block == "agent 1"
    # finite entries whose sum overflows are not an error
    huge = np.full(part.total_dim, 1e308)
    with np.errstate(over="ignore"):
        got = dataclasses.replace(problem, pseudogradient=lambda v: huge).stacked_gradient(u)
    assert np.array_equal(got, huge)


def test_agent_index_out_of_range_is_a_dimension_error(monotone_small):
    from gnes.cournot import CournotConfig, generate

    problem, _ = monotone_small
    u = np.zeros(problem.partition.total_dim)
    market, demand, _ = generate(CournotConfig(seed=0))
    q = np.full(market.partition.total_dim, 10.0)
    rng = np.random.default_rng(0)
    for agent in (-1, problem.num_agents):
        with pytest.raises(DimensionMismatchError):
            problem.gradient(agent, u)
    for agent in (-1, market.num_agents):
        with pytest.raises(DimensionMismatchError):
            market.gradient(agent, q)
        with pytest.raises(DimensionMismatchError):
            demand.sample_mean(agent, q, 4, rng)
        with pytest.raises(DimensionMismatchError):
            demand.sample_gradient_batch(agent, q, 4, rng)


def test_problem_validation_errors():
    part = AgentPartition((1, 1), 1)
    kwargs = dict(
        partition=part,
        pseudogradient=lambda u: u.copy(),
        D=(np.array([[1.0]]), np.array([[1.0]])),
        b=(np.array([0.5]), np.array([0.5])),
        box_lo=(np.zeros(1), np.zeros(1)),
        box_hi=(np.ones(1), np.ones(1)),
        lipschitz_ell=1.0,
    )
    GameProblem(**kwargs)  # baseline constructs

    bad = dict(kwargs, box_lo=(np.zeros(1),))
    with pytest.raises(DimensionMismatchError):
        GameProblem(**bad)
    bad = dict(kwargs, D=(np.array([[1.0, 0.0]]), np.array([[1.0]])))
    with pytest.raises(DimensionMismatchError):
        GameProblem(**bad)
    bad = dict(kwargs, b=(np.array([0.5, 0.5]), np.array([0.5])))
    with pytest.raises(DimensionMismatchError):
        GameProblem(**bad)
    bad = dict(kwargs, box_lo=(np.ones(1) * 2.0, np.zeros(1)))
    with pytest.raises(ConfigurationError):
        GameProblem(**bad)
    for box in ("box_lo", "box_hi"):
        bad = dict(kwargs, **{box: (np.zeros(1), np.array([np.nan]))})
        with pytest.raises(ConfigurationError) as info:
            GameProblem(**bad)
        assert info.value.field == "agent 1"
    # infinite bounds are allowed
    GameProblem(**dict(kwargs, box_lo=(np.array([-np.inf]), np.zeros(1))))
    bad = dict(kwargs, lipschitz_ell=-1.0)
    with pytest.raises(ConfigurationError):
        GameProblem(**bad)
    bad = dict(kwargs, interaction=(np.array([0]), np.array([0])))
    with pytest.raises(ConfigurationError):
        GameProblem(**bad)  # agent 0 listing itself
    bad = dict(kwargs, D=(np.array([[np.inf]]), np.array([[1.0]])))
    with pytest.raises(ConfigurationError):
        GameProblem(**bad)


def test_default_interaction_is_everyone_else():
    problem, _ = two_agent_game()
    assert np.array_equal(problem.interaction[0], [1])
    assert np.array_equal(problem.interaction[1], [0])
