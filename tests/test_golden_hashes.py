"""Pinned trajectory hashes: a change that moves one float of a run fails here.

The values were printed by the tree before the two executors shared one
iteration loop, and every later change must reproduce them, on both
executors. A change that is meant to move the floats (a new kernel, a
different summation order) updates them on purpose and says so. The
AFFINE and DIAGNOSTICS values were updated once that way, when the affine
F(u) = M u + q became one OrderedRows of M, which sums each row in column
order; MARKET has not moved.
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
    # sha256 over the bytes of every Z, then every Y, U and W
    "4bf54d41b8801b98aabab46214286173a3ee2594c7a4d6253eec8529015c56fc",
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
