"""Pinned trajectory hashes: a change that moves one float of a run fails here.

The values were printed by the tree before the two executors shared one
iteration loop, and every later change must reproduce them, on both
executors. A change that is meant to move the floats (a new kernel, a
different summation order) updates them on purpose and says so. The
AFFINE and DIAGNOSTICS values were updated once that way, when the affine
F(u) = M u + q became one OrderedRows of M, which sums each row in column
order; MARKET has not moved. RESIDUALS pins the natural residual recorded
at every iteration, which goes through the projection onto the shared set.
"""

import hashlib

import numpy as np
import pytest

from gnes.agentnet import run_distributed
from gnes.instances import load_document
from gnes.solver import SolverParams, diagnostics_check, run, solve_ground_truth
from gnes.stochastic import AdditiveGaussianOracle, BatchSchedule

from gnes_test_helpers import load_builtin

AFFINE = {
    "risfbf": "c5467a278badd135d848d75d3dfcf6f999a66133103c4298e2c9a2ab59301ef7",
    "sfbf": "79e990698a220c83e6921ea9e5c5fceefbb7073684dee0715f5a9af9a10130c3",
    "sfb": "03af878adca4ffb6786c1e9821947632c46fabbed3a1ba5e490849aca4f83352",
}
MARKET = {
    "risfbf": "1e2e1f46e4c340c5722888d8cc3735fb425a8a244b2db478b379a6a2498d8292",
    "sfb": "cb9b4462e72ec2b4edc9c6ad099733e2ff5601c2aa144e585bc8fa028fa1c1ba",
}
DIAGNOSTICS = (
    "77c8707b32d3b18aefceb0af716fab2eb34102190a9034ee44bddfa219ea81e2",
    # sha256 over the bytes of the report's dm, dn, h, delta, fr_slack,
    # yzg_slack and coupling arrays, in that order, at the reference solve;
    # printed when diagnostics_check still replayed stored iterates
    "e42a51a8531d626c457b3f73f7c49a2cc4927d828ba00f07f5518797ee05bb78",
)
REPORT_ARRAYS = ("dm", "dn", "h", "delta", "fr_slack", "yzg_slack", "coupling")
# sha256 over the bytes of trace.res, the natural residual recorded at every
# iteration; printed when one-row constraint groups still had a solver of
# their own in proj_shared_set
RESIDUALS = {
    "affine": "a2e0f8278a30c5b31c309a11f17270b1d74f4d3166451e1d7d6c67afaa41a916",
    "market": "17871ca9a814a4359492337d4b43ad2892e0cfdb5aecfb22d5a3eb0990965bcd",
}


@pytest.mark.parametrize("variant", sorted(AFFINE))
def test_affine_hashes(variant):
    problem, graph = load_builtin("affine-monotone-small")
    oracle = AdditiveGaussianOracle(problem, sd=0.1)
    params = SolverParams(variant=variant, max_iters=300, tol=0.0, trace_every=7)
    _, trace = run(problem, graph, oracle, params, seed=3)
    _, net_trace, _ = run_distributed(problem, graph, oracle, params, seed=3)
    assert trace.state_hash == AFFINE[variant]
    assert net_trace.state_hash == AFFINE[variant]


@pytest.mark.parametrize("variant", sorted(MARKET))
def test_market_hashes(variant):
    problem, graph, oracle = load_document({"kind": "cournot", "config": {"seed": 0}})
    params = SolverParams(
        variant=variant, max_iters=200, tol=0.0, trace_every=200,
        batch=BatchSchedule(0.0005, 1.2),
    )
    _, trace = run(problem, graph, oracle, params, seed=1)
    _, net_trace, _ = run_distributed(problem, graph, oracle, params, seed=1)
    assert trace.state_hash == MARKET[variant]
    assert net_trace.state_hash == MARKET[variant]


@pytest.mark.parametrize("instance", sorted(RESIDUALS))
def test_residual_digests(instance):
    if instance == "affine":
        problem, graph = load_builtin("affine-monotone-small")
        oracle = AdditiveGaussianOracle(problem, sd=0.1)
        params = SolverParams(variant="risfbf", max_iters=300, tol=0.0, trace_every=1)
        seed = 3
    else:
        problem, graph, oracle = load_document({"kind": "cournot", "config": {"seed": 0}})
        params = SolverParams(
            variant="risfbf", max_iters=200, tol=0.0, trace_every=1,
            batch=BatchSchedule(0.0005, 1.2),
        )
        seed = 1
    for executor in (run, run_distributed):
        trace = executor(problem, graph, oracle, params, seed=seed)[1]
        assert len(trace.res) == params.max_iters
        digest = hashlib.sha256(np.asarray(trace.res, dtype=np.float64).tobytes()).hexdigest()
        assert digest == RESIDUALS[instance], executor.__name__


def test_diagnostics_run_hashes():
    problem, graph = load_builtin("affine-monotone-small")
    oracle = AdditiveGaussianOracle(problem, sd=0.1)
    reference, _ = solve_ground_truth(problem, graph)
    params = SolverParams(variant="risfbf", max_iters=200, tol=0.0, diagnostics=True)
    _, trace = run(problem, graph, oracle, params, seed=4, reference=reference)
    report = diagnostics_check(trace, reference)
    payload = hashlib.sha256()
    for name in REPORT_ARRAYS:
        arr = getattr(report, name)
        assert arr.shape == (200,)
        payload.update(arr.tobytes())
    assert (trace.state_hash, payload.hexdigest()) == DIAGNOSTICS
