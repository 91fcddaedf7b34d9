"""Iteration schedules, admissibility guards, runs, and recursion checks."""

import dataclasses
import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnes.blockvec import AgentPartition, PrimalDualState
from gnes import solver
from gnes.agentnet import run_distributed
from gnes.cournot import CournotConfig, generate
from gnes.errors import ConfigurationError, DimensionMismatchError, NumericError, ToleranceError
from gnes.operators import ExtendedOperator, residual_res
from gnes.solver import (
    SolverParams,
    admissible_step_bound,
    alpha_schedule,
    build_preconditioner,
    consensus_gap,
    diagnostics_check,
    feasibility_gap,
    rho_schedule,
    run,
    solve_ground_truth,
)
from gnes.stochastic import AdditiveGaussianOracle, BatchSchedule, SamplingOracle, ZeroNoiseOracle

from conftest import load_builtin, scalar_game


# final-iterate references of the deterministic reference solves
GROUND_TRUTH = {
    "affine-tiny": (170, [0.25], [0.05]),
    "affine-two-firms": (530, [0.5, 0.5], [0.35]),
    "affine-inactive": (280, [0.769231, 0.769231], [0.0]),
    "affine-asym": (1770, [0.700893, 0.301095, 1.022193, 0.028299, 0.485739, 0.481986], [0.849531, 0.0]),
    "affine-monotone-small": (470, [0.523836, 0.225465, 0.265957, 0.153832, 0.030910, 0.0], [0.780221, 0.0]),
}


def test_params_validation():
    with pytest.raises(ConfigurationError):
        SolverParams(variant="fbhf")
    with pytest.raises(ConfigurationError):
        SolverParams(alpha_bar=1.0)
    with pytest.raises(ConfigurationError):
        SolverParams(alpha_bar=-0.1)
    with pytest.raises(ConfigurationError):
        SolverParams(nu=0.0)
    with pytest.raises(ConfigurationError):
        SolverParams(nu=1.0)
    with pytest.raises(ConfigurationError):
        SolverParams(max_iters=0)
    with pytest.raises(ConfigurationError):
        SolverParams(tol=-1.0)
    with pytest.raises(ConfigurationError):
        SolverParams(trace_every=0)
    with pytest.raises(ConfigurationError):
        SolverParams(rho_fixed=0.0)
    with pytest.raises(ConfigurationError):
        SolverParams(rho_fixed=1.5)
    with pytest.raises(ConfigurationError):
        SolverParams(rho_scale=0.0)
    SolverParams(alpha_bar=0.0)  # zero inertia degenerates to plain FBF


def test_params_refuse_malformed_steps_counts_and_batches(monotone_small):
    cases = [
        (dict(steps=(0.01, 0.01)), "steps"),
        (dict(steps=(0.01,) * 4), "steps"),
        (dict(steps=None), "steps"),
        (dict(steps=True), "steps"),
        (dict(steps="fixed"), "steps"),
        (dict(steps=(0.01, "a", 0.01)), "steps"),
        (dict(max_iters=2.5), "max_iters"),
        (dict(max_iters=10.0), "max_iters"),
        (dict(max_iters=True), "max_iters"),
        (dict(max_iters=None), "max_iters"),
        (dict(trace_every=1.5), "trace_every"),
        (dict(trace_every=False), "trace_every"),
        (dict(max_iters=50, batch=BatchSchedule(1.0, 300.0)), "batch"),
        (dict(batch=None), "batch"),
    ]
    for kwargs, name in cases:
        with pytest.raises(ConfigurationError) as info:
            SolverParams(**kwargs)
        assert info.value.field == name, kwargs
    # numpy integers count as integers, numpy floats as step sizes
    params = SolverParams(max_iters=np.int64(20), trace_every=np.int32(5), steps=np.float32(0.05))
    assert (type(params.max_iters), type(params.trace_every)) == (int, int)
    assert (params.max_iters, params.trace_every) == (20, 5)
    psi = build_preconditioner(params, ExtendedOperator(*monotone_small))
    assert np.all(psi.inv_weights == float(np.float32(0.05)))
    # the last size of a fast schedule is the largest, and it fits
    SolverParams(max_iters=5, batch=BatchSchedule(1.0, 300.0))


def test_params_refuse_values_of_the_wrong_type():
    cases = [
        (SolverParams, dict(tol="a"), "tol"),
        (SolverParams, dict(alpha_bar=None), "alpha_bar"),
        (SolverParams, dict(rho_fixed="x"), "rho_fixed"),
        (SolverParams, dict(nu=float("nan")), "nu"),
        (SolverParams, dict(variant=3), "variant"),
        (SolverParams, dict(diagnostics="yes"), "diagnostics"),
        (SolverParams, dict(enforce_admissibility=1), "enforce_admissibility"),
        (SolverParams, dict(steps=(0.1, "0.2", 0.1)), "steps"),
        (SolverParams, dict(steps=(0.1, True, 0.1)), "steps"),
        (SolverParams, dict(steps=(0.1, [0.1, float("nan")], 0.1)), "steps"),
        (SolverParams, dict(steps=float("inf")), "steps"),
        (BatchSchedule, dict(scale="1"), "scale"),
        (BatchSchedule, dict(growth=None), "growth"),
    ]
    for cls, kwargs, name in cases:
        with pytest.raises(ConfigurationError) as info:
            cls(**kwargs)
        assert info.value.field == name, kwargs


def test_params_store_numbers_as_float():
    params = SolverParams(
        alpha_bar=0, tol=np.int64(0), rho_scale=np.float32(0.5), rho_fixed=1,
        steps=[1, np.float64(0.5), [0.1, 0.2, 0.3]], batch=BatchSchedule(np.int64(2), 2),
    )
    for value in (params.alpha_bar, params.tol, params.rho_scale, params.rho_fixed,
                  params.batch.scale, params.batch.growth, *params.steps[:2]):
        assert type(value) is float
    assert params.steps[2] == (0.1, 0.2, 0.3)
    assert type(SolverParams(steps=1).steps) is float


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
_PARAM_FIELDS = [f.name for f in dataclasses.fields(SolverParams) if f.name != "batch"]


@settings(max_examples=300, deadline=None)
@given(
    fields=st.dictionaries(
        st.sampled_from(_PARAM_FIELDS),
        _JSON_VALUES | st.lists(_JSON_VALUES, min_size=3, max_size=3),
        max_size=3,
    ),
    batch=st.dictionaries(st.sampled_from(["scale", "growth"]), _JSON_VALUES, max_size=2),
)
def test_params_raise_only_configuration_errors(fields, batch):
    try:
        fields["batch"] = BatchSchedule(**batch)
    except ConfigurationError:
        pass
    try:
        params = SolverParams(**fields)
    except ConfigurationError:
        return
    assert isinstance(params, SolverParams)


def test_params_refuse_diagnostics_without_a_correction_step():
    # the forward-backward step has no Z, Y, U or W: the recursion check
    # would pass on zero rows
    with pytest.raises(ConfigurationError) as info:
        SolverParams(variant="sfb", diagnostics=True)
    assert info.value.field == "variant"
    with pytest.raises(ConfigurationError):
        dataclasses.replace(SolverParams(diagnostics=True), variant="sfb")
    SolverParams(variant="sfbf", diagnostics=True)


def test_alpha_schedule_values():
    p = SolverParams(variant="risfbf", alpha_bar=0.2)
    assert alpha_schedule(p, 0) == 0.0
    assert alpha_schedule(p, 1) == pytest.approx(0.1)
    assert alpha_schedule(p, 9) == pytest.approx(0.18)
    assert alpha_schedule(SolverParams(variant="sfbf"), 5) == 0.0


def test_rho_schedule_reference_values():
    p = SolverParams(variant="risfbf", alpha_bar=0.1, nu=0.01)
    # (3 - nu)(1 - abar)^2 / (2 (2a^2 - a + 1)(1 + ell)) at ell = 1
    assert rho_schedule(p, 0.0, 1.0) == pytest.approx(0.6054750, abs=1e-12)
    assert rho_schedule(p, 0.1, 1.0) == pytest.approx(0.658125, abs=1e-12)


def test_rho_schedule_overrides_and_clamp():
    p = SolverParams(variant="risfbf", alpha_bar=0.1, nu=0.01)
    # small operator constant pushes the raw value above one
    assert rho_schedule(p, 0.0, 0.01) == 1.0
    fixed = SolverParams(variant="risfbf", rho_fixed=0.5)
    assert rho_schedule(fixed, 0.3, 1.0) == 0.5
    scaled = SolverParams(variant="risfbf", alpha_bar=0.1, nu=0.01, rho_scale=0.5)
    assert rho_schedule(scaled, 0.0, 1.0) == pytest.approx(0.30273750, abs=1e-12)
    assert rho_schedule(SolverParams(variant="sfbf"), 0.9, 1.0) == 1.0
    with pytest.raises(ConfigurationError):
        rho_schedule(SolverParams(variant="sfb"), 0.0, 1.0)


def test_step_bound_and_auto_preconditioner(monotone_small):
    problem, graph = monotone_small
    op = ExtendedOperator(problem, graph)
    bound = admissible_step_bound(op, 0.01)
    assert bound == pytest.approx(0.99 / (2.0 * op.lipschitz_ell_V), rel=1e-15)
    psi = build_preconditioner(SolverParams(steps="auto", nu=0.01), op)
    assert psi.max_step == pytest.approx(bound, rel=1e-15)


def test_preconditioner_from_scalars_and_arrays(monotone_small):
    problem, graph = monotone_small
    op = ExtendedOperator(problem, graph)
    from_scalar = build_preconditioner(SolverParams(steps=0.05), op)
    assert np.all(from_scalar.inv_weights == 0.05)
    # a triple of floats broadcasts to every agent
    from_triple = build_preconditioner(SolverParams(steps=(0.05, 0.04, 0.03)), op)
    arrays = (np.full(3, 0.05), np.full(3, 0.04), np.full(3, 0.03))
    from_arrays = build_preconditioner(SolverParams(steps=arrays), op)
    assert np.array_equal(from_triple.inv_weights, from_arrays.inv_weights)
    with pytest.raises(ConfigurationError):
        build_preconditioner(SolverParams(steps="fixed"), op)


def test_run_rejects_inadmissible_steps(monotone_small):
    problem, graph = monotone_small
    oracle = ZeroNoiseOracle(problem)
    params = SolverParams(variant="sfbf", steps=1.0, max_iters=5)
    with pytest.raises(ConfigurationError) as info:
        run(problem, graph, oracle, params)
    assert "admissible bound" in str(info.value)


def test_inadmissible_steps_downgrade_to_warning(monotone_small, caplog):
    problem, graph = monotone_small
    oracle = ZeroNoiseOracle(problem)
    params = SolverParams(
        variant="sfbf", steps=1.0, max_iters=2, tol=0.0, enforce_admissibility=False
    )
    with caplog.at_level(logging.WARNING, logger="gnes.solver"):
        run(problem, graph, oracle, params)
    assert any("admissible bound" in r.message for r in caplog.records)


def test_clamp_warning_when_steps_are_small(monotone_small, caplog):
    problem, graph = monotone_small
    oracle = ZeroNoiseOracle(problem)
    params = SolverParams(variant="risfbf", alpha_bar=0.1, steps=0.001, max_iters=2, tol=0.0)
    with caplog.at_level(logging.WARNING, logger="gnes.solver"):
        run(problem, graph, oracle, params)
    assert any("clamped" in r.message for r in caplog.records)


def test_coupling_precheck_rejects_oversized_relaxation(monotone_small):
    problem, graph = monotone_small
    oracle = ZeroNoiseOracle(problem)
    params = SolverParams(variant="risfbf", alpha_bar=0.1, rho_scale=2.0, max_iters=400)
    with pytest.raises(ConfigurationError) as info:
        run(problem, graph, oracle, params)
    assert "coupling fails at k=" in str(info.value)


def test_sfb_scalar_step():
    problem, graph = scalar_game(m_val=1.0, q_val=0.0)
    params = SolverParams(variant="sfb", steps=0.4, max_iters=1, tol=0.0)
    x0 = PrimalDualState(problem.partition, np.array([1.0, 0.0, 0.0]))
    state, trace = run(problem, graph, ZeroNoiseOracle(problem), params, x0=x0)
    # X1 = X0 - gamma F(X0) = 1 - 0.4
    assert state.data[0] == pytest.approx(0.6, abs=1e-15)
    assert trace.iterations == 1


def test_fbf_scalar_two_applications():
    problem, graph = scalar_game(m_val=1.0, q_val=-0.25)
    params = SolverParams(variant="sfbf", steps=0.4, max_iters=1, tol=0.0)
    x0 = PrimalDualState(problem.partition, np.array([1.0, 0.0, 0.0]))
    state, _ = run(problem, graph, ZeroNoiseOracle(problem), params, x0=x0)
    # Y = X0 - g (X0 - 1/4); X1 = Y + g ((X0 - 1/4) - (Y - 1/4))
    #    = X0 - g (1 - g)(X0 - 1/4) = 1 - 0.4 * 0.6 * 0.75
    assert state.data[0] == pytest.approx(0.82, abs=1e-15)


@pytest.mark.parametrize("name", sorted(GROUND_TRUTH))
def test_reference_solves(name):
    problem, graph = load_builtin(name)
    state, trace = solve_ground_truth(problem, graph)
    iters, u_star, lam_star = GROUND_TRUTH[name]
    part = problem.partition
    d, nm = part.total_dim, part.dual_dim
    assert trace.iterations == iters
    assert trace.final_r_psi < 1e-12
    assert np.allclose(state.data[:d], u_star, atol=1e-5)
    lam = state.data[d + nm :].reshape(part.num_agents, -1).mean(axis=0)
    assert np.allclose(lam, lam_star, atol=1e-5)
    # multiplier copies agree across agents at the solution
    assert consensus_gap(part, state.data[d + nm :]) < 1e-6
    # recorded residuals trend down on the deterministic run
    assert trace.r_psi[-1] <= trace.r_psi[0]
    running_min = np.minimum.accumulate(trace.r_psi)
    assert running_min[-1] < 1e-10


def test_reference_solve_computes_no_natural_residual(monotone_small, monkeypatch):
    problem, graph = monotone_small
    calls = []

    def counted(*args):
        calls.append(args)
        return residual_res(*args)

    monkeypatch.setattr(solver, "residual_res", counted)
    _, trace = solve_ground_truth(problem, graph)
    # the solve stops on r_psi and nobody reads the rest of its rows
    assert calls == []
    assert trace.iterations == GROUND_TRUTH["affine-monotone-small"][0]
    assert len(trace.r_psi) > 0 and np.all(np.isfinite(trace.r_psi))
    assert np.all(np.isnan(trace.res + trace.consensus_gap + trace.feas_gap))
    assert np.isnan([trace.final_res, trace.final_consensus_gap, trace.final_feas_gap]).all()
    assert trace.final_r_psi < 1e-12
    # an ordinary run still records the natural residual on every row
    run(problem, graph, ZeroNoiseOracle(problem), SolverParams(variant="sfbf", max_iters=20, tol=0.0))
    assert len(calls) == 21


def test_reference_solve_raises_when_budget_too_small(monotone_small):
    problem, graph = monotone_small
    with pytest.raises(NumericError):
        solve_ground_truth(problem, graph, max_iters=20)


def test_run_is_deterministic_and_reproducible(monotone_small):
    problem, graph = monotone_small
    oracle = AdditiveGaussianOracle(problem, sd=0.1)
    params = SolverParams(variant="risfbf", alpha_bar=0.1, max_iters=100, tol=0.0)
    s1, t1 = run(problem, graph, oracle, params, seed=5)
    s2, t2 = run(problem, graph, oracle, params, seed=5)
    assert np.array_equal(s1.data, s2.data)
    assert t1.state_hash == t2.state_hash
    _, t3 = run(problem, graph, oracle, params, seed=6)
    assert t3.state_hash != t1.state_hash


def test_inertia_off_with_unit_relaxation_equals_sfbf(monotone_small):
    problem, graph = monotone_small
    oracle = AdditiveGaussianOracle(problem, sd=0.1)
    base = dict(max_iters=150, tol=0.0, batch=BatchSchedule(1.0, 1.2))
    degen = SolverParams(variant="risfbf", alpha_bar=0.0, rho_fixed=1.0, **base)
    plain = SolverParams(variant="sfbf", **base)
    s1, t1 = run(problem, graph, oracle, degen, seed=11)
    s2, t2 = run(problem, graph, oracle, plain, seed=11)
    assert np.array_equal(s1.data, s2.data)
    assert t1.state_hash == t2.state_hash


def test_stopping_on_natural_residual(tiny):
    problem, graph = tiny
    params = SolverParams(
        variant="sfbf", tol=0.0, tol_res=1e-6, max_iters=10_000, trace_every=10
    )
    state, trace = run(problem, graph, ZeroNoiseOracle(problem), params)
    assert trace.final_res < 1e-6
    assert trace.iterations < 10_000
    # stopping tests only fire at recorded iterations
    assert trace.iterations % 10 == 0


def test_trace_decimation_and_schedules(monotone_small):
    problem, graph = monotone_small
    oracle = AdditiveGaussianOracle(problem, sd=0.05)
    params = SolverParams(
        variant="risfbf", alpha_bar=0.2, max_iters=50, tol=0.0, trace_every=10,
        batch=BatchSchedule(1.0, 1.2),
    )
    _, trace = run(problem, graph, oracle, params, seed=0)
    assert trace.ks == [0, 10, 20, 30, 40]
    assert len(trace.r_psi) == len(trace.alphas) == len(trace.rhos) == len(trace.batches) == 5
    sched = BatchSchedule(1.0, 1.2)
    assert trace.batches == [sched.size(k) for k in trace.ks]
    assert trace.alphas[0] == 0.0
    assert trace.alphas == [alpha_schedule(params, k) for k in trace.ks]
    assert trace.iterations == 50


@pytest.mark.parametrize("executor", ["single", "network"])
def test_run_validates_initial_state(monotone_small, executor):
    problem, graph = monotone_small
    oracle = ZeroNoiseOracle(problem)
    params = SolverParams(max_iters=2)
    runner = run if executor == "single" else run_distributed
    wrong = PrimalDualState.zeros(AgentPartition((1, 1), 1))
    with pytest.raises(ConfigurationError) as info:
        runner(problem, graph, oracle, params, x0=wrong)
    assert info.value.field == "x0"
    bad = PrimalDualState.zeros(problem.partition)
    bad.data[-1] = -0.5
    with pytest.raises(ConfigurationError) as info:
        runner(problem, graph, oracle, params, x0=bad)
    assert info.value.field == "x0"


@pytest.mark.parametrize("executor", ["single", "network"])
def test_oracle_of_another_partition_is_refused(monotone_small, two_firms, executor):
    problem, graph = monotone_small
    other, _ = two_firms
    runner = run if executor == "single" else run_distributed
    with pytest.raises(DimensionMismatchError) as info:
        runner(problem, graph, AdditiveGaussianOracle(other, sd=0.1), SolverParams(max_iters=2))
    assert info.value.block == "oracle"


class _BatchOnlyOracle(SamplingOracle):
    """Defines batches only, so both executors sample through the base-class default."""

    def __init__(self, problem, bad_agent=None):
        self.problem = problem
        self.partition = problem.partition
        self.bad_agent = bad_agent

    def sample_gradient_batch(self, agent, u, size, rng):
        g = self.problem.gradient(agent, u)
        if agent == self.bad_agent:
            g = np.full_like(g, np.inf)
        return g[None, :] + rng.normal(0.0, 0.2, size=(size, g.shape[0]))


@pytest.mark.parametrize("variant", ["sfbf", "sfb"])
def test_batch_only_oracle_gives_the_same_run_on_both_executors(monotone_small, variant):
    problem, graph = monotone_small
    params = SolverParams(variant=variant, max_iters=40, tol=0.0, batch=BatchSchedule(2.0, 1.2))
    _, single = run(problem, graph, _BatchOnlyOracle(problem), params, seed=5)
    _, network, _ = run_distributed(problem, graph, _BatchOnlyOracle(problem), params, seed=5)
    assert single.state_hash == network.state_hash
    assert single.iterations == network.iterations == 40
    for runner in (run, run_distributed):
        with pytest.raises(NumericError) as info:
            runner(problem, graph, _BatchOnlyOracle(problem, bad_agent=1), params, seed=5)
        assert info.value.agent == 1


def test_numeric_error_carries_partial_trace(monotone_small):
    problem, graph = monotone_small
    part = problem.partition

    class ExplodingOracle(SamplingOracle):
        partition = part

        def sample_gradient_batch(self, agent, u, size, rng):
            return np.full((size, part.dims[agent]), np.inf)

    params = SolverParams(variant="sfbf", max_iters=10, tol=0.0)
    with pytest.raises(NumericError) as info:
        run(problem, graph, ExplodingOracle(), params)
    assert info.value.trace is not None
    assert info.value.trace.iterations == 0


@pytest.mark.parametrize("executor", ["single", "network"])
def test_recording_error_carries_partial_trace(monotone_small, monkeypatch, executor):
    problem, graph = monotone_small
    calls = [0]

    def failing_residual(p, u, *args, **kwargs):
        # the row of iteration k records the (k + 1)-th residual
        calls[0] += 1
        if calls[0] > 5:
            raise ToleranceError("projection did not converge", achieved=1.0)
        return 1.0

    monkeypatch.setattr(solver, "residual_res", failing_residual)
    params = SolverParams(variant="risfbf", max_iters=20, tol=0.0)
    oracle = AdditiveGaussianOracle(problem, sd=0.1)
    with pytest.raises(ToleranceError) as info:
        if executor == "single":
            run(problem, graph, oracle, params, seed=2)
        else:
            run_distributed(problem, graph, oracle, params, seed=2)
    trace = info.value.trace
    assert trace.ks == [0, 1, 2, 3, 4]
    assert trace.res == [1.0] * 5
    assert trace.iterations == 5
    assert len(trace.state_hash) == 64


def test_stopped_run_reuses_the_metrics_of_its_last_row(monotone_small, monkeypatch):
    problem, graph = monotone_small
    calls = [0]
    residual = solver.residual_res

    def counted(p, u):
        calls[0] += 1
        return residual(p, u)

    monkeypatch.setattr(solver, "residual_res", counted)
    params = SolverParams(variant="risfbf", max_iters=5000, tol=0.0, tol_res=5e-3, trace_every=1)
    state, trace = run(problem, graph, AdditiveGaussianOracle(problem, sd=0.1), params, seed=0)
    assert trace.iterations < params.max_iters
    assert trace.final_res < params.tol_res
    # one residual per row, k = 0 .. iterations, and none more in finish
    assert calls[0] == trace.iterations + 1
    assert trace.final_res == residual(problem, state.data[: problem.partition.total_dim])


def test_diagnostics_pass_without_and_with_noise(monotone_small):
    problem, graph = monotone_small
    reference, _ = solve_ground_truth(problem, graph)
    base = dict(
        variant="risfbf", alpha_bar=0.1, nu=0.01, max_iters=300, tol=0.0,
        diagnostics=True, batch=BatchSchedule(1.0, 1.2),
    )
    for oracle in (ZeroNoiseOracle(problem), AdditiveGaussianOracle(problem, sd=0.05)):
        _, trace = run(problem, graph, oracle, SolverParams(**base), seed=3, reference=reference)
        report = diagnostics_check(trace, reference)
        assert report.ok
        assert len(report.fr_violations) == 0
        assert len(report.yzg_violations) == 0
        assert len(report.h_violations) == 0
        assert len(report.coupling_violations) == 0
    # the zero noise run reduces both correction terms to zero
    _, trace = run(problem, graph, ZeroNoiseOracle(problem), SolverParams(**base), seed=3, reference=reference)
    report = diagnostics_check(trace, reference)
    assert np.allclose(report.dm, 0.0, atol=1e-18)
    assert np.allclose(report.dn, 0.0, atol=1e-18)


def test_diagnostics_flag_doubled_relaxation(monotone_small):
    problem, graph = monotone_small
    reference, _ = solve_ground_truth(problem, graph)
    params = SolverParams(
        variant="risfbf", alpha_bar=0.1, nu=0.01, max_iters=200, tol=0.0,
        diagnostics=True, rho_scale=2.0, enforce_admissibility=False,
        batch=BatchSchedule(1.0, 1.2),
    )
    _, trace = run(problem, graph, ZeroNoiseOracle(problem), params, seed=3, reference=reference)
    report = diagnostics_check(trace, reference)
    assert not report.ok
    assert len(report.coupling_violations) > 0


def test_diagnostics_need_the_reference_they_were_run_with(monotone_small):
    problem, graph = monotone_small
    reference, _ = solve_ground_truth(problem, graph)
    oracle = ZeroNoiseOracle(problem)
    params = SolverParams(max_iters=5, tol=0.0, diagnostics=True)
    for missing in (None, PrimalDualState.zeros(AgentPartition((1,), 1))):
        with pytest.raises(ConfigurationError) as info:
            run(problem, graph, oracle, params, reference=missing)
        assert info.value.field == "reference"
    final, trace = run(problem, graph, oracle, params, reference=reference)
    # the trace keeps the vectors of the last checked iteration only
    shorter, _ = run(problem, graph, oracle, dataclasses.replace(params, max_iters=4, diagnostics=False))
    assert [len(rows) for rows in trace.diag] == [3, 1, 1, 1, 1]
    assert np.array_equal(trace.diag.states[1], shorter.data)
    assert np.array_equal(trace.diag.states[2], final.data)
    shifted = PrimalDualState(problem.partition, reference.data + 1.0)
    with pytest.raises(ConfigurationError) as info:
        diagnostics_check(trace, shifted)
    assert info.value.field == "reference"
    _, plain = run(problem, graph, oracle, dataclasses.replace(params, diagnostics=False))
    assert plain.diag is None
    with pytest.raises(ConfigurationError) as info:
        diagnostics_check(plain, reference)
    assert info.value.field == "diagnostics"


def test_diagnostics_rows_survive_an_abort(monotone_small):
    problem, graph = monotone_small
    reference, _ = solve_ground_truth(problem, graph)
    failing_at = 7

    class FailingOracle(ZeroNoiseOracle):
        """Exact until the first estimate of iteration failing_at, which is inf."""

        calls = 0

        def sample_mean_stack(self, u, size, agents, generators, out):
            super().sample_mean_stack(u, size, agents, generators, out)
            if self.calls == 2 * failing_at:
                out[...] = np.inf
            self.calls += 1

    params = SolverParams(max_iters=20, tol=0.0, diagnostics=True)
    with pytest.raises(NumericError) as info:
        run(problem, graph, FailingOracle(problem), params, seed=3, reference=reference)
    trace = info.value.trace
    assert trace.iterations == failing_at
    report = diagnostics_check(trace, reference)
    short = dataclasses.replace(params, max_iters=failing_at)
    _, whole = run(problem, graph, ZeroNoiseOracle(problem), short, seed=3, reference=reference)
    expected = diagnostics_check(whole, reference)
    for name in ("dm", "dn", "h", "delta", "fr_slack", "yzg_slack", "coupling"):
        assert getattr(report, name).shape == (failing_at,)
        assert np.array_equal(getattr(report, name), getattr(expected, name)), name


def test_diagnostics_memory_does_not_grow_with_the_run():
    # on the market, with one trace row per run, so that what grows is what
    # diagnostics add: eight floats per iteration, about 260 bytes, where
    # keeping the iterates took about 7.4 KB
    problem, oracle, graph = generate(CournotConfig(seed=0))
    reference = PrimalDualState.zeros(problem.partition)  # any point serves to measure memory
    peaks = {}
    for iters in (500, 4000):
        params = SolverParams(
            max_iters=iters, tol=0.0, diagnostics=True, trace_every=iters,
            batch=BatchSchedule(0.0005, 1.2),
        )
        tracemalloc.start()
        try:
            run(problem, graph, oracle, params, seed=1, reference=reference)
            peaks[iters] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert (peaks[4000] - peaks[500]) / 3500 < 1024


def test_gap_helpers():
    part = AgentPartition((1, 1), 1)
    lam = np.array([0.3, 0.7])
    assert consensus_gap(part, lam) == pytest.approx(0.4, abs=1e-15)
    assert consensus_gap(AgentPartition((2,), 1), np.array([0.5])) == 0.0
    problem, _ = scalar_game(d_row=1.0, b_val=0.5, lo=0.0, hi=2.0)
    assert feasibility_gap(problem, np.array([2.0])) == pytest.approx(1.5, abs=1e-15)
    assert feasibility_gap(problem, np.array([0.2])) == 0.0


def test_consensus_gap_matches_dense_pairs():
    rng = np.random.default_rng(12)
    for n in (1, 2, 5, 16, 17, 40):
        for m in (1, 3, 7):
            lam = rng.normal(size=n * m)
            lammat = lam.reshape(n, m)
            diffs = lammat[:, None, :] - lammat[None, :, :]
            dense = float(np.sqrt((diffs * diffs).sum(axis=2)).max())
            assert consensus_gap(AgentPartition((1,) * n, m), lam) == dense, (n, m)
