"""The benchmark's three workloads, driven through the public API of gnes.

A workload is built once (setup) and then runs rounds. A round is a
fixed list of operations whose inputs depend only on the workload seed
and the round number; every operation is one solver run, one
`gnes verify` invocation or one networked replay. Rounds record what
the correctness checks need, and check() judges all of them at the end
with the benchmark's own arithmetic (see checks.py).

The benchmark calls gnes through module attributes (solver.run, not a
name imported from it), so the tracing wrappers of tracer.py see the
calls the benchmark itself makes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import time
import traceback

import numpy as np

from gnes import agentnet, cli, cournot, instances, operators, solver, stochastic

import checks

VARIANTS = ("risfbf", "sfbf", "sfb")
NOISE_SD = 0.1
STEP_SHARE = 0.7  # steps at 0.7 x the admissible bound, as in the market benchmark
COURNOT_DOC = {"kind": "cournot", "config": {"seed": 0}}


@dataclasses.dataclass
class Op:
    """One attempted operation: its wall time and the work it completed."""

    wall: float
    iterations: int = 0
    draws: int = 0
    failed: bool = False


@dataclasses.dataclass
class Round:
    ops: list
    obs: dict = dataclasses.field(default_factory=dict)  # inputs of per-layer metrics

    @property
    def wall(self) -> float:
        return sum(op.wall for op in self.ops)


def attempt(fn):
    """(result, wall seconds); result is None when fn raised."""
    t0 = time.perf_counter()
    try:
        result = fn()
    except Exception:
        traceback.print_exc()
        return None, time.perf_counter() - t0
    return result, time.perf_counter() - t0


def logical_draws(oracle, params, iterations: int, num_agents: int) -> int:
    """Draws the estimates of a run stand for: sum_k S_k x N per F estimate.

    Counted from the batch schedule, so a sampler that draws the mean
    directly is credited with the S_k draws it replaces. A noise-free
    oracle draws nothing.
    """
    if isinstance(oracle, stochastic.ZeroNoiseOracle):
        return 0
    per_iter = 1 if params.variant == "sfb" else 2
    return per_iter * num_agents * sum(params.batch.size(k) for k in range(iterations))


@contextlib.contextmanager
def observe(module, name, callback):
    """Pass every result of module.name to callback while the block runs.

    A name the module no longer has is not observed.
    """
    original = getattr(module, name, None)
    if original is None:
        yield
        return

    def observed(*args, **kwargs):
        result = original(*args, **kwargs)
        callback(result)
        return result

    setattr(module, name, observed)
    try:
        yield
    finally:
        setattr(module, name, original)


def cournot_document() -> dict:
    """The full generator document of the market instance, as `gnes gen cournot` emits it."""
    cfg = cournot.CournotConfig(**COURNOT_DOC["config"])
    return {"kind": "cournot", "config": dataclasses.asdict(cfg)}


def instance_errors(game, problem) -> list:
    """The benchmark's rebuilt instance must be the one the program solves."""
    errors = []
    if not (np.array_equal(game.lo, problem.lo_stack) and np.array_equal(game.hi, problem.hi_stack)):
        errors.append("benchmark and program disagree on the box")
    if not (np.array_equal(game.A, problem.D_stack) and np.allclose(game.c, problem.b_total, rtol=1e-12, atol=0.0)):
        errors.append("benchmark and program disagree on the shared constraint")
    return errors


class AffineStochTol:
    """Stochastic risfbf on affine-monotone-small until the natural residual target."""

    name = "affine-stoch-tol"

    def __init__(self, seed: int, out_dir: str, tol_res: float = 5e-4, solves_per_round: int = 10,
                 max_iters: int = 20_000):
        self.seed = seed
        self.tol_res = tol_res
        self.solves_per_round = solves_per_round
        self.max_iters = max_iters
        self.finals = []

    def setup(self):
        self.doc = instances.builtin_document("affine-monotone-small")
        self.problem, self.graph, _ = instances.load_document(self.doc)
        # setup_s covers building the operator, though solver.run builds its own
        self.op = operators.ExtendedOperator(self.problem, self.graph)
        self.oracle = stochastic.AdditiveGaussianOracle(self.problem, sd=NOISE_SD)
        self.params = solver.SolverParams(
            variant="risfbf", alpha_bar=0.1, nu=0.01, max_iters=self.max_iters, tol=0.0,
            tol_res=self.tol_res, batch=stochastic.BatchSchedule(1.0, 1.2),
        )

    def run_seed(self, r: int, i: int) -> int:
        return self.seed * 100_000 + r * self.solves_per_round + i

    def run_round(self, r: int) -> Round:
        part = self.problem.partition
        ops = []
        for i in range(self.solves_per_round):
            seed = self.run_seed(r, i)
            result, wall = attempt(lambda: solver.run(self.problem, self.graph, self.oracle, self.params, seed=seed))
            if result is None:
                ops.append(Op(wall, failed=True))
                continue
            state, trace = result
            draws = logical_draws(self.oracle, self.params, trace.iterations, part.num_agents)
            ops.append(Op(wall, trace.iterations, draws))
            self.finals.append((seed, state.data[: part.total_dim].copy(), trace.iterations, trace.final_res))
        return Round(ops)

    def check(self) -> list:
        game = checks.AffineGame(self.doc)
        return instance_errors(game, self.problem) + checks.check_targets(
            game, self.finals, self.tol_res, self.max_iters
        )


class CournotGrid:
    """risfbf, sfbf and sfb on the 10x7 market, one replication of each per round."""

    name = "cournot-grid"

    def __init__(self, seed: int, out_dir: str, max_iters: int = 5000):
        self.seed = seed
        self.max_iters = max_iters
        self.finals = []

    def setup(self):
        self.problem, self.graph, self.oracle = instances.load_document(COURNOT_DOC)
        self.op = operators.ExtendedOperator(self.problem, self.graph)
        step = STEP_SHARE * solver.admissible_step_bound(self.op, 0.01)
        common = dict(
            steps=(step, step, step), nu=0.01, max_iters=self.max_iters, tol=0.0,
            batch=stochastic.BatchSchedule(0.0005, 1.2), trace_every=self.max_iters,
        )
        self.params = {
            v: solver.SolverParams(variant=v, alpha_bar=0.1, **common)
            for v in VARIANTS
        }

    def run_seed(self, r: int) -> int:
        return 1000 + 1000 * self.seed + r

    def run_round(self, r: int) -> Round:
        part = self.problem.partition
        seed = self.run_seed(r)
        ops = []
        for variant, params in self.params.items():
            result, wall = attempt(lambda: solver.run(self.problem, self.graph, self.oracle, params, seed=seed))
            if result is None:
                ops.append(Op(wall, failed=True))
                continue
            state, trace = result
            draws = logical_draws(self.oracle, params, trace.iterations, part.num_agents)
            ops.append(Op(wall, trace.iterations, draws))
            self.finals.append((variant, seed, state.data[: part.total_dim].copy(), trace.final_res))
        return Round(ops)

    def check(self) -> list:
        game = checks.CournotGame(cournot_document()["config"])
        errors = instance_errors(game, self.problem)
        if [list(row) for row in self.problem.interaction] != game.interaction:
            errors.append("benchmark and program disagree on who interacts")
        start = np.zeros(self.problem.partition.total_dim)
        return errors + checks.check_ordering(game, self.finals, start)


def diag_payload_bytes(trace) -> int:
    """Bytes of the per-iteration arrays a diagnostics run keeps in trace.diag."""
    diag = trace.diag
    if diag is None:
        return 0
    return sum(a.nbytes for rows in (diag.states, diag.Z, diag.Y, diag.U, diag.W) for a in rows)


class CournotAudit:
    """`gnes verify` on the market instance, then a networked replay of the same run."""

    name = "cournot-audit"

    def __init__(self, seed: int, out_dir: str, iterations: int = 2000, document: dict | None = None):
        self.seed = seed
        self.iterations = iterations
        self.out_dir = os.path.join(out_dir, "cournot-audit")
        self.doc = document
        self.audits = []

    def setup(self):
        if self.doc is None:
            self.doc = cournot_document()
        self.problem, self.graph, oracle = instances.load_document(self.doc)
        # affine documents carry no sampling model; they get the Gaussian one
        self.noise = None if oracle is not None else {"kind": "gaussian", "sd": NOISE_SD}
        self.oracle = oracle if oracle is not None else stochastic.AdditiveGaussianOracle(self.problem, sd=NOISE_SD)
        self.op = operators.ExtendedOperator(self.problem, self.graph)
        step = STEP_SHARE * solver.admissible_step_bound(self.op, 0.01)
        self.solver_doc = {
            "variant": "risfbf", "alpha_bar": 0.1, "nu": 0.01, "steps": [step, step, step],
            "max_iters": self.iterations, "tol": 0.0, "batch": {"scale": 0.0005, "growth": 1.2},
        }
        # the replay parses the same solver section, recording one row per run
        self.replay_params = cli.parse_config({
            "problem": {"instance": self.doc},
            "solver": dict(self.solver_doc, trace_every=self.iterations),
        }).solver

    def run_seed(self, r: int) -> int:
        return 1000 + 1000 * self.seed + r

    def expected_messages_per_iteration(self) -> int:
        if self.doc["kind"] == "cournot":
            interaction = checks.CournotGame(self.doc["config"]).interaction
        else:
            n = len(self.doc["dims"])
            interaction = [[j for j in range(n) if j != i] for i in range(n)]
        return checks.messages_per_iteration(self.graph.weights, interaction, phases=2)

    def run_round(self, r: int) -> Round:
        seed = self.run_seed(r)
        n = self.problem.partition.num_agents
        os.makedirs(self.out_dir, exist_ok=True)
        config_path = os.path.join(self.out_dir, "verify-config.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump({"problem": {"instance": self.doc}, "noise": self.noise, "solver": self.solver_doc,
                       "seed": seed}, fh)
        seen = {}
        argv = ["verify", "--config", config_path, "--out", self.out_dir]
        with observe(cli, "solve_ground_truth", lambda res: seen.setdefault("reference", res[1].iterations)), \
                observe(cli, "run", lambda res: seen.setdefault("payload", diag_payload_bytes(res[1]))), \
                contextlib.redirect_stdout(io.StringIO()):
            code, wall = attempt(lambda: cli.main(argv))
        obs = {}
        if code != 0:
            ops = [Op(wall, failed=True)]
            report = None
        else:
            with open(os.path.join(self.out_dir, "verify_report.json"), encoding="utf-8") as fh:
                report = json.load(fh)
            draws = logical_draws(self.oracle, self.replay_params, report["iterations"], n)
            ops = [Op(wall, seen.get("reference", 0) + report["iterations"], draws)]
            obs["diag_payload_mb"] = seen.get("payload", 0) / 1e6
            obs["out_bytes"] = sum(
                os.path.getsize(os.path.join(self.out_dir, f)) for f in ("verify_trace.csv", "verify_report.json")
            )
        result, wall = attempt(lambda: agentnet.run_distributed(
            self.problem, self.graph, self.oracle, self.replay_params, seed=seed))
        if result is None:
            ops.append(Op(wall, failed=True))
            return Round(ops, obs)
        _, trace, net = result
        ops.append(Op(wall, trace.iterations, logical_draws(self.oracle, self.replay_params, trace.iterations, n)))
        obs["replay_iterations"] = trace.iterations
        obs["messages_per_iter"] = net.messages_per_iteration
        if report is not None:
            self.audits.append((report, {
                "state_hash": trace.state_hash,
                "iterations": trace.iterations,
                "messages_per_iteration": net.messages_per_iteration,
                "total_messages": net.total_messages,
            }))
        return Round(ops, obs)

    def check(self) -> list:
        per_iter = self.expected_messages_per_iteration()
        errors = []
        if self.doc["kind"] == "cournot":
            errors += instance_errors(checks.CournotGame(self.doc["config"]), self.problem)
        for report, replay in self.audits:
            errors += checks.check_audit(report, replay, per_iter)
        return errors


WORKLOADS = {w.name: w for w in (AffineStochTol, CournotGrid, CournotAudit)}
