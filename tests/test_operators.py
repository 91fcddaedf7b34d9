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
from gnes.solver import solve_ground_truth
from gnes.stochastic import PHASE_XI, AdditiveGaussianOracle, AgentStreams, sample_V_hat

from gnes_test_helpers import dykstra_projection, load_builtin, random_affine_game, random_state


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
    x = np.array([1.5, -0.25, 0.7, -0.7, 0.4, -0.3])
    out = op.resolvent_flat(x)
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
        jx = op.resolvent_flat(x)
        jy = op.resolvent_flat(y)
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

    def states(problem, graph, oracle, seed, ks, **settings):
        """X_k of one run for each k: a run of k iterations is a prefix of a longer one."""
        yield np.zeros(problem.partition.state_dim)
        for k in ks:
            params = SolverParams(max_iters=k, trace_every=k, **settings)
            yield run(problem, graph, oracle, params, seed=seed)[0].data

    problem, graph = monotone_small
    part = problem.partition
    for x in states(
        problem, graph, AdditiveGaussianOracle(problem, sd=0.1), 4, range(4, 81, 4),
        variant="risfbf", tol=0.0, batch=BatchSchedule(1.0, 1.2),
    ):
        u = x[: part.total_dim]
        v = u - np.concatenate([problem.gradient(i, u) for i in range(part.num_agents)])
        out = proj_shared_set(problem, v)
        assert np.max(np.abs(out - dykstra_projection(problem, v))) <= 1e-9
        _assert_feasible(problem, out)
    # on the market each row covers the columns of its own market, so a
    # single sweep of exact row solves already carries the certificate
    market, demand, market_graph = generate(CournotConfig(seed=0))
    d = market.partition.total_dim
    for x in states(
        market, market_graph, demand, 1, range(25, 201, 25),
        variant="risfbf", tol=0.0, batch=BatchSchedule(0.0005, 1.2),
    ):
        u = x[:d]
        v = u - np.concatenate([market.gradient(i, u) for i in range(market.num_agents)])
        out = proj_shared_set(market, v, max_sweeps=1)
        ref = dykstra_projection(market, v)
        assert np.max(np.abs(out - ref)) <= 1e-9
        _assert_feasible(market, out)
        # every budget binds along this run
        assert np.all(np.abs(market.D_stack @ ref - market.b_total) <= 1e-9)


def grouped_rows_game(rng, m, overlap):
    """Game whose m rows lie on pairwise disjoint columns, with awkward boxes.

    Coefficients and box bounds come from a coarse grid, so several
    kinks of a row fall at the same time; some coordinates are fixed
    (lo == hi), some bounds are infinite, and some offsets are so
    large that their rows never bind. With overlap, one more row takes
    a column from each of two rows and is put at a random place in the
    row order, so the greedy grouping splits the rows into two groups.
    """
    dims = [int(k) for k in rng.integers(1, 5, size=int(rng.integers(2, 5)))]
    dims[-1] += max(0, m + 2 - sum(dims))  # room for a column of every row
    d = sum(dims)
    owner = rng.integers(-1, m, size=d)  # -1: a column in no row
    owner[rng.permutation(d)[:m]] = np.arange(m)  # every row has a column
    cols = np.flatnonzero(owner >= 0)
    dense = np.zeros((m, d))
    dense[owner[cols], cols] = rng.choice([-2.0, -1.0, 1.0, 2.0], size=cols.size)
    lo = rng.integers(-4, 1, size=d) / 2.0
    hi = lo + rng.integers(0, 4, size=d) / 2.0
    lo[rng.random(d) < 0.15] = -np.inf
    hi[rng.random(d) < 0.15] = np.inf
    if overlap:
        p, q = rng.choice(m, size=2, replace=False)
        row = np.zeros(d)
        row[np.flatnonzero(owner == p)[0]] = 1.0
        row[np.flatnonzero(owner == q)[0]] = rng.choice([-1.0, 1.0])
        dense = np.insert(dense, int(rng.integers(0, m + 1)), row, axis=0)
    # offsets above the values at a point of the box, so C is not empty
    inside = np.clip(rng.integers(-2, 3, size=d) / 2.0, lo, hi)
    rhs = dense @ inside + rng.choice([0.0, 0.25, 1.0, 50.0], size=dense.shape[0])
    part = AgentPartition(tuple(dims), dense.shape[0])
    n = part.num_agents
    problem = GameProblem(
        partition=part,
        pseudogradient=lambda u: u.copy(),
        D=tuple(dense[:, part.primal_slice(i)] for i in range(n)),
        b=(rhs,) + tuple(np.zeros(dense.shape[0]) for _ in range(n - 1)),
        box_lo=tuple(lo[part.primal_slice(i)] for i in range(n)),
        box_hi=tuple(hi[part.primal_slice(i)] for i in range(n)),
        lipschitz_ell=1.0,
    )
    return problem


def test_projection_matches_dykstra_on_grouped_rows():
    rng = np.random.default_rng(112)
    largest_group = 0
    seen = {"fixed or infinite": 0, "inactive": 0, "repeated kinks": 0, "coupled": 0}
    for trial in range(120):
        m = int(rng.integers(2, 9))
        overlap = trial % 3 == 2
        problem = grouped_rows_game(rng, m, overlap)
        groups = problem.row_groups
        rows = np.concatenate([g.rows for g in groups])
        assert sorted(rows.tolist()) == list(range(problem.D_stack.shape[0]))
        for g in groups:
            supports = problem.D_stack[g.rows] != 0.0
            assert np.all(supports.sum(axis=0) <= 1)
        assert len(groups) == (2 if overlap else 1)
        largest_group = max(largest_group, max(g.rows.size for g in groups))
        lo, hi = problem.lo_stack, problem.hi_stack
        seen["fixed or infinite"] += int(np.any(lo == hi) and not np.all(np.isfinite(lo) & np.isfinite(hi)))
        d = problem.partition.total_dim
        for _ in range(6):
            # half of the points on the grid, where kinks coincide
            v = rng.integers(-8, 9, size=d) / 2.0 if rng.random() < 0.5 else rng.normal(size=d) * 3.0
            u = proj_shared_set(problem, v, max_sweeps=10000 if overlap else 1)
            ref = dykstra_projection(problem, v)
            assert np.max(np.abs(u - ref)) <= 1e-9, (trial, m, overlap)
            _assert_feasible(problem, u)
            tight = np.abs(problem.D_stack @ ref - problem.b_total) <= 1e-9
            seen["inactive"] += int(not tight.all())
            seen["coupled"] += int(overlap and tight.sum() >= 2)
            # two kinks of one row at the same time, both ahead of t = 0
            r, c = np.nonzero(problem.D_stack)
            a = problem.D_stack[r, c]
            times = np.concatenate([(v[c] - lo[c]) / a, (v[c] - hi[c]) / a])
            ahead = np.isfinite(times) & (times > 0.0)
            kinks = set(zip(np.concatenate([r, r])[ahead], times[ahead]))
            seen["repeated kinks"] += int(len(kinks) < ahead.sum())
    assert largest_group >= 2
    assert all(count > 0 for count in seen.values()), seen


def test_one_row_groups_match_dykstra_in_one_sweep():
    rng = np.random.default_rng(1)
    seen = {"infinite bound": 0, "fixed": 0, "binding": 0, "repeated kinks": 0}
    for trial in range(60):
        problem = grouped_rows_game(rng, 1, overlap=False)
        (group,) = problem.row_groups
        assert group.rows.tolist() == [0]
        lo, hi = problem.lo_stack, problem.hi_stack
        cols = np.flatnonzero(problem.D_stack[0])
        a = problem.D_stack[0, cols]
        seen["infinite bound"] += int(not np.all(np.isfinite(lo[cols]) & np.isfinite(hi[cols])))
        seen["fixed"] += int(np.any(lo[cols] == hi[cols]))
        d = problem.partition.total_dim
        for _ in range(6):
            # half of the points on the grid, where kinks coincide
            v = rng.integers(-8, 9, size=d) / 2.0 if rng.random() < 0.5 else rng.normal(size=d) * 3.0
            u = proj_shared_set(problem, v, max_sweeps=1)
            ref = dykstra_projection(problem, v)
            assert np.max(np.abs(u - ref)) <= 1e-9, trial
            _assert_feasible(problem, u)
            seen["binding"] += int(abs(problem.D_stack[0] @ ref - problem.b_total[0]) <= 1e-9)
            times = np.concatenate([(v[cols] - lo[cols]) / a, (v[cols] - hi[cols]) / a])
            ahead = times[np.isfinite(times) & (times > 0.0)]
            seen["repeated kinks"] += int(np.unique(ahead).size < ahead.size)
    assert all(count > 0 for count in seen.values()), seen


def test_rows_met_only_at_their_floor_project_onto_that_face():
    # b = row_floor: inside the box a row's columns can only sit at the
    # bounds that minimise it, so the projection is known exactly. g_r then
    # ends on a flat piece, where the slope is rounding; wide rows make that
    # rounding nonzero on some of the draws.
    rng = np.random.default_rng(4)
    for trial in range(150):
        m = int(rng.integers(1, 4))
        width = rng.integers(1, 9, size=m)
        d = int(width.sum()) + 1  # the last column is in no row
        dense = np.zeros((m, d))
        rows = np.repeat(np.arange(m), width)
        cols = np.arange(d - 1)
        dense[rows, cols] = rng.choice([-2.0, -1.0, 1.0, 2.0], size=d - 1) * (
            rng.normal(size=d - 1) if trial % 2 else 1.0
        )
        lo = rng.integers(-4, 1, size=d) / 2.0
        hi = lo + rng.integers(0, 4, size=d) / 2.0
        # the bound a row's floor needs stays finite, the other may not
        a = dense.sum(axis=0)
        lo[(a < 0.0) & (rng.random(d) < 0.3)] = -np.inf
        hi[(a > 0.0) & (rng.random(d) < 0.3)] = np.inf
        part = AgentPartition((d,), m)

        def game(rhs):
            return GameProblem(
                partition=part, pseudogradient=lambda u: u.copy(), D=(dense,), b=(rhs,),
                box_lo=(lo,), box_hi=(hi,), lipschitz_ell=1.0,
            )

        problem = game(game(np.zeros(m)).row_floor)
        face = np.where(a > 0.0, lo, hi)
        for _ in range(3):
            v = rng.integers(-8, 9, size=d) / 2.0 if rng.random() < 0.5 else rng.normal(size=d) * 3.0
            u = proj_shared_set(problem, v, max_sweeps=1)
            expected = np.where(a != 0.0, face, np.clip(v, lo, hi))
            assert np.max(np.abs(u - expected)) <= 1e-9, trial


def test_row_with_a_small_coefficient_on_an_unbounded_coordinate():
    # the root lies far out (t ~ 1.4e7), where only the coordinate with the
    # small coefficient still moves, so g's slope there is -a_1^2 ~ -2.5e-7;
    # a slope summed from every passed kink carries rounding of order
    # eps * a_0^2 ~ 6e-16 and misses the row by 3.6e-9 at that t
    a = np.array([-1.6806867955598417, -4.9695227252307176e-04, 0.14945625523596615])
    part = AgentPartition((3,), 1)
    problem = GameProblem(
        partition=part, pseudogradient=lambda u: u.copy(), D=(a[None, :],), b=(np.array([-2.0]),),
        box_lo=(np.array([-np.inf, -2.0, -1.0]),), box_hi=(np.array([-1.0, np.inf, 0.5]),),
        lipschitz_ell=1.0,
    )
    v = np.array([1.9063117371065301, 3.8066685185127582, -1.3091537379977831])
    u = proj_shared_set(problem, v, max_sweeps=1)
    assert abs(a @ u + 2.0) <= 1e-10
    assert u[0] == -1.0 and u[2] == -1.0


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


def test_kkt_stationarity_gap_on_mixed_block_sizes():
    # blocks of 1, 2 and 3 coordinates: the gap is the largest per-agent
    # norm of u_i - clip(u_i - F_i(u) - D_i^T lambda), block by block
    problem, graph = load_builtin("affine-asym")
    part = problem.partition
    assert part.dims == (1, 2, 3)
    d, nm = part.total_dim, part.dual_dim
    reference, _ = solve_ground_truth(problem, graph)
    u = reference.data[:d]
    lam = reference.data[d + nm :].reshape(part.num_agents, -1).mean(axis=0)
    rng = np.random.default_rng(12)
    points = [(u, lam)] + [
        (u + rng.normal(0.0, 0.3, d), lam + rng.normal(0.0, 0.3, lam.size)) for _ in range(20)
    ]
    for at, mult in points:
        f = problem.stacked_gradient(at)
        gaps = []
        for i, sl in enumerate(part.primal_slices):
            z = np.clip(at[sl] - f[sl] - problem.D[i].T @ mult, problem.box_lo[i], problem.box_hi[i])
            gaps.append(np.linalg.norm(at[sl] - z))
        gap = kkt_check(problem, at, mult).stationarity_gap
        assert gap == pytest.approx(max(gaps), rel=1e-9, abs=1e-14)
    assert kkt_check(problem, u, lam).stationarity_gap < 1e-10


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


@pytest.mark.parametrize("instance", ["affine-monotone-small", "cournot-market"])
def test_pseudogradient_on_rows_is_the_per_point_call(instance):
    if instance == "cournot-market":
        from gnes.cournot import CournotConfig, generate

        problem, _, _ = generate(CournotConfig(seed=0))
    else:
        problem, _ = load_builtin(instance)
    part = problem.partition
    rng = np.random.default_rng(12)
    points = rng.uniform(0.0, 60.0, size=(part.num_agents, part.total_dim))
    rows = problem.pseudogradient(points)
    assert np.array_equal(rows, np.stack([problem.pseudogradient(u) for u in points]))
    # on one profile per agent, agent i keeps its block of row i
    own = problem.stacked_gradient(points)
    for i, sl in enumerate(part.primal_slices):
        assert np.array_equal(own[sl], problem.gradient(i, points[i]))


def test_pseudogradient_errors_on_rows_name_the_agent(monotone_small):
    problem, _ = monotone_small
    part = problem.partition
    profiles = np.tile(np.linspace(-1.0, 1.0, part.total_dim), (part.num_agents, 1))
    short = dataclasses.replace(problem, pseudogradient=lambda v: np.zeros(part.total_dim))
    with pytest.raises(DimensionMismatchError) as info:
        short.stacked_gradient(profiles)
    assert info.value.block == "pseudogradient"
    with pytest.raises(DimensionMismatchError) as info:
        problem.stacked_gradient(profiles[:-1])
    assert info.value.block == "rows"

    def poisoned(v):
        out = problem.pseudogradient(v)
        out[..., part.primal_slice(2).start] = np.nan
        # another agent's row may hold anything outside that agent's block
        out[0, part.primal_slice(1)] = np.inf
        return out

    with pytest.raises(NumericError) as info:
        dataclasses.replace(problem, pseudogradient=poisoned).stacked_gradient(profiles)
    assert info.value.agent == 2


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
