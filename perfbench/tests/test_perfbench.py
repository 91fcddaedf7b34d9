"""Fast tests of the benchmark itself: tiny workloads and non-vacuous checks.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import run
import workloads
from tracer import Tracer
from gnes.instances import builtin_document, load_document
from gnes.operators import residual_res


def tiny(name, out):
    if name == "affine-stoch-tol":
        return workloads.AffineStochTol(0, out, tol_res=1e-2, solves_per_round=2)
    if name == "cournot-grid":
        return workloads.CournotGrid(0, out, max_iters=3500)
    return workloads.CournotAudit(0, out, iterations=30, document=builtin_document("affine-two-firms"))


@pytest.fixture(scope="module")
def finished(tmp_path_factory):
    """Each workload at a tiny length, one traced and one untraced round."""
    out = str(tmp_path_factory.mktemp("out"))
    done = {}
    for name in run.NAMES:
        workload = tiny(name, out)
        tracer = Tracer()
        with tracer:
            workload.setup()
        rounds, traced, overhead = run.measure(workload, 0.0, tracer)
        done[name] = (workload, rounds, traced, overhead, tracer)
    return done


@pytest.mark.parametrize("name", run.NAMES)
def test_workload_runs_to_its_end(finished, name):
    workload, rounds, traced, overhead, tracer = finished[name]
    assert len(rounds) == len(traced) == 1
    assert not any(op.failed for rnd in rounds + traced for op in rnd.ops)
    assert workload.check() == []
    e2e = run.end_to_end(rounds, [0.5])
    assert set(e2e) == set(run.END_TO_END_UNITS)
    assert all(v > 0 for v in e2e.values()), e2e
    layers = run.per_layer(tracer, traced, overhead)
    assert tracer.absent == []
    assert layers["solver.iterations"][0] > 0
    assert layers["operators.v_flat.calls"][0] > 0


def test_audit_counts_messages_and_payload(finished):
    workload, rounds, traced, _, _ = finished["cournot-audit"]
    obs = traced[0].obs
    # two firms on one edge, each interacting with the other: 2 x (2 + 2)
    assert workload.expected_messages_per_iteration() == 8
    assert obs["messages_per_iter"] == 8
    assert obs["diag_payload_mb"] > 0 and obs["out_bytes"] > 0


def test_residual_check_rejects_a_perturbed_state(finished):
    workload = finished["affine-stoch-tol"][0]
    game = checks.AffineGame(workload.doc)
    assert checks.check_targets(game, workload.finals, workload.tol_res, workload.max_iters) == []
    seed, u, iterations, reported = workload.finals[0]
    moved = u.copy()
    moved[0] += 0.05
    errors = checks.check_targets(game, [(seed, moved, iterations, reported)], workload.tol_res, workload.max_iters)
    assert any("not below" in e for e in errors)
    assert any("reported residual" in e for e in errors)
    capped = checks.check_targets(game, [(seed, u, workload.max_iters, reported)], workload.tol_res,
                                  workload.max_iters)
    assert any("iteration cap" in e for e in capped)


def test_ordering_check_rejects_swapped_variants(finished):
    workload = finished["cournot-grid"][0]
    game = checks.CournotGame(workloads.cournot_document()["config"])
    start = np.zeros(game.lo.shape[0])
    assert checks.check_ordering(game, workload.finals, start) == []
    relabel = {"risfbf": "sfbf", "sfbf": "risfbf", "sfb": "sfb"}
    swapped = [(relabel[v], s, u, r) for v, s, u, r in workload.finals]
    assert any("mean residual of risfbf" in e for e in checks.check_ordering(game, swapped, start))
    variant, seed, u, reported = workload.finals[0]
    far = [(variant, seed, game.hi.copy(), reported)]
    assert any("not below the start" in e for e in checks.check_ordering(game, far, start))


def test_audit_check_rejects_wrong_answers(finished):
    workload = finished["cournot-audit"][0]
    per_iter = workload.expected_messages_per_iteration()
    report, replay = workload.audits[0]
    assert checks.check_audit(report, replay, per_iter) == []
    flipped = dict(replay, state_hash=replay["state_hash"][::-1])
    assert any("state_hash" in e for e in checks.check_audit(report, flipped, per_iter))
    assert any("per iteration" in e for e in checks.check_audit(report, replay, per_iter + 2))
    short = dict(replay, total_messages=replay["total_messages"] - 1)
    assert any("in total" in e for e in checks.check_audit(report, short, per_iter))
    violated = dict(report, checks=[dict(c, violations=1) for c in report["checks"]])
    assert len(checks.check_audit(violated, replay, per_iter)) == len(report["checks"])


@pytest.mark.parametrize("name", ["affine-monotone-small", "affine-asym"])
def test_own_residual_matches_the_program_on_random_points(name):
    doc = builtin_document(name)
    problem, _, _ = load_document(doc)
    game = checks.AffineGame(doc)
    rng = np.random.default_rng(3)
    for _ in range(50):
        u = rng.uniform(game.lo - 0.5, game.hi + 0.5)
        assert checks.natural_residual(game, u) == pytest.approx(residual_res(problem, u), rel=1e-7, abs=1e-9)


def test_cournot_rebuild_matches_the_generator():
    doc = workloads.cournot_document()
    problem, _, _ = load_document(doc)
    game = checks.CournotGame(doc["config"])
    assert workloads.instance_errors(game, problem) == []
    rng = np.random.default_rng(4)
    u = rng.uniform(game.lo, game.hi)
    program = np.concatenate([problem.gradient(i, u) for i in range(problem.num_agents)])
    assert np.allclose(game.field(u), program, rtol=1e-12, atol=1e-9)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "affine-stoch-tol", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
