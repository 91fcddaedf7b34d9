"""Pinned trajectory hashes: a change that moves one float of a run fails here.

The values were printed by the tree before the two executors shared one
iteration loop, and every later change must reproduce them, on both
executors. A change that is meant to move the floats (a new kernel, a
different summation order) updates them on purpose and says so. The
AFFINE and DIAGNOSTICS values were updated once that way, when the affine
F(u) = M u + q became one OrderedRows of M, which sums each row in column
order. All of them were updated once more when the spectral norms behind
the automatic steps (the Laplacian's, D's and the affine ell) became
eigensolver upper bounds, which moved every step in its last bits.
RESIDUALS pins the natural residual recorded at every iteration, which
goes through the projection onto the shared set.
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
    "risfbf": "b5fab0b4485fd8e3ad286d723ed96e15eae8b899be6116001a7c976e6f52ae93",
    "sfbf": "8de14b477e0aad8495b77e8c32e04b46286fc87c5985d5cda72f51e37b1459c5",
    "sfb": "2e067fd7cecbc8a7007a22ebf1fb373c6e8bd5320100a455250ed0e4f3d2bd24",
}
MARKET = {
    "risfbf": "e5618c36dda777c1d565f82b1e2aa52566bcb40e1388c7075b1f93618f392413",
    "sfb": "277883597576dc0d8cb6669b7e87c7b98c02a9da92ab63dc66c91b834f3b0602",
}
DIAGNOSTICS = (
    "2e2596dbfdfea1bab44d558d2b4006265150bf38409c4c54d280d313232bc3da",
    # sha256 over the bytes of the report's dm, dn, h, delta, fr_slack,
    # yzg_slack and coupling arrays, in that order, at the reference solve
    "f586381d60d9ea163c51138a25ed4ab6ce4fbf92dbe043824c6c4a1ddb34ba7b",
)
REPORT_ARRAYS = ("dm", "dn", "h", "delta", "fr_slack", "yzg_slack", "coupling")
# sha256 over the bytes of trace.res, the natural residual recorded at every
# iteration
RESIDUALS = {
    "affine": "7e1bc0d0579736add2b2cee97a432d3d41d4078d1e0853b2bb42fbc4a16c9c6e",
    "market": "33b8cc5011fa400cc02d10b55f1c637dc3ed335dea6947a8e28ebdc9c18b148f",
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
