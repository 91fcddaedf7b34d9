"""Pinned trajectory hashes: a change that moves one float of a run fails here.

The values were printed by the tree before the two executors shared one
iteration loop, and every later change must reproduce them, on both
executors. A change that is meant to move the floats (a new kernel, a
different summation order) updates them on purpose and says so.
"""

import hashlib

import numpy as np
import pytest

from gnes.agentnet import run_distributed
from gnes.instances import load_document
from gnes.solver import SolverParams, run
from gnes.stochastic import AdditiveGaussianOracle, BatchSchedule

from conftest import load_builtin

AFFINE = {
    "risfbf": "24af8908310f6fbe9c8842d5966db795200670b3cecc56b914ae940d975bc4cf",
    "sfbf": "fa4ec537a6a8d691cc74cb18845aad68bf6bce0cb73805e5fd6d2b5630edcacd",
    "sfb": "aead96698bf3ba33eab2f278c1b972a6ae40bf1e13190ca22c0f9f50696ba1b7",
}
MARKET = {
    "risfbf": "1e2e1f46e4c340c5722888d8cc3735fb425a8a244b2db478b379a6a2498d8292",
    "sfb": "cb9b4462e72ec2b4edc9c6ad099733e2ff5601c2aa144e585bc8fa028fa1c1ba",
}
DIAGNOSTICS = (
    "8e22d31e5432df54d5a0d17f93e9375da204557c4bb2b39fec4486ad7979e5e6",
    # sha256 over the bytes of every Z, then every Y, U and W
    "366b5f92688b4a44535e3bc7ba3d825470f5916734407360efa78e79d7f89424",
)


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


def test_diagnostics_run_hashes():
    problem, graph = load_builtin("affine-monotone-small")
    oracle = AdditiveGaussianOracle(problem, sd=0.1)
    params = SolverParams(variant="risfbf", max_iters=200, tol=0.0, diagnostics=True)
    _, trace = run(problem, graph, oracle, params, seed=4)
    diag = trace.diag
    payload = hashlib.sha256()
    for arr in diag.Z + diag.Y + diag.U + diag.W:
        payload.update(np.ascontiguousarray(arr).tobytes())
    assert (trace.state_hash, payload.hexdigest()) == DIAGNOSTICS
    assert len(diag.Z) == len(diag.r_psi_z) == len(diag.alphas) == 200
    assert len(diag.states) == 201
