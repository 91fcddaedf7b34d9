"""Correctness checks that do not reuse the program's own answers.

The natural residual ||u - P_C(u - F(u))|| of a final iterate is
recomputed here from the instance document alone: the benchmark builds
its own pseudogradient F and its own Euclidean projection onto the
shared set C = {u in box : A u <= c}. Nothing in this module imports
gnes, so a fault in the program's operators or projection cannot hide
itself in the check.

Every check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import math

import numpy as np


def project_shared_set(v, lo, hi, A, c, tol=1e-12, max_iters=200_000):
    """Euclidean projection of v onto {x : lo <= x <= hi, A x <= c}.

    Works on the dual: for multipliers lam >= 0 the Lagrangian is
    minimised over the box by x(lam) = clip(v - A^T lam, lo, hi), and
    lam is raised by projected accelerated gradient ascent (with
    restarts) until x(lam) meets the KKT conditions: A x <= c and
    lam_r (A x - c)_r = 0 to within tol. At that point x(lam) is the
    projection, so the result carries its own certificate.
    """
    v = np.asarray(v, dtype=np.float64)
    m = A.shape[0]
    if m == 0:
        return np.clip(v, lo, hi)
    step = 1.0 / max(float(np.linalg.eigvalsh(A @ A.T).max()), 1e-300)
    scale = 1.0 + float(np.abs(c).max()) + float(np.abs(v).max())
    lam = np.zeros(m)
    look = lam.copy()
    t = 1.0
    for _ in range(max_iters):
        x = np.clip(v - A.T @ look, lo, hi)
        lam_next = np.maximum(look + step * (A @ x - c), 0.0)
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        if np.dot(look - lam_next, lam_next - lam) > 0.0:
            # momentum points against the ascent direction: restart
            t_next = 1.0
            look = lam_next.copy()
        else:
            look = lam_next + ((t - 1.0) / t_next) * (lam_next - lam)
        lam, t = lam_next, t_next
        x = np.clip(v - A.T @ lam, lo, hi)
        slack = A @ x - c
        if slack.max() <= tol * scale and np.abs(lam * slack).max() <= tol * scale:
            return x
    raise RuntimeError("benchmark projection did not reach its KKT tolerance")


def natural_residual(game, u) -> float:
    """||u - P_C(u - F(u))|| with the benchmark's own F and projection."""
    u = np.asarray(u, dtype=np.float64)
    p = project_shared_set(u - game.field(u), game.lo, game.hi, game.A, game.c)
    return float(np.linalg.norm(u - p))


class AffineGame:
    """F(u) = M u + q on the box, with D u <= sum_i b_i, read from an affine document."""

    def __init__(self, doc: dict):
        self.M = np.asarray(doc["M"], dtype=np.float64)
        self.q = np.asarray(doc["q"], dtype=np.float64)
        self.lo = np.concatenate([np.asarray(v, dtype=np.float64) for v in doc["box_lo"]])
        self.hi = np.concatenate([np.asarray(v, dtype=np.float64) for v in doc["box_hi"]])
        self.A = np.hstack([np.asarray(v, dtype=np.float64) for v in doc["D"]])
        self.c = np.sum([np.asarray(v, dtype=np.float64) for v in doc["b"]], axis=0)
        self.num_agents = len(doc["dims"])

    def field(self, u):
        return self.M @ u + self.q


class CournotGame:
    """The Cournot market rebuilt from a full generator document.

    The random data follow the generator's documented draw order from
    one numpy Generator seeded with the instance seed: per-firm costs,
    per-firm capacities, then market budgets. Firms that share a market
    interact; the shared constraint caps each market's total supply at
    its budget.
    """

    def __init__(self, cfg: dict):
        self.participation = [list(row) for row in cfg["participation"]]
        dims = [len(row) for row in self.participation]
        n, m = len(dims), cfg["num_markets"]
        rng = np.random.default_rng(cfg["seed"])
        costs = [np.maximum(rng.normal(cfg["cost_mean"], cfg["cost_sd"], k), cfg["cost_floor"]) for k in dims]
        caps = [np.maximum(rng.normal(cfg["cap_mean"], cfg["cap_sd"], k), cfg["cap_floor"]) for k in dims]
        budget = rng.uniform(cfg["budget_lo"], cfg["budget_hi"], m)
        self.costs = np.concatenate(costs)
        self.market_of = np.array([j for row in self.participation for j in row])
        self.lo = np.zeros(sum(dims))
        self.hi = np.concatenate(caps)
        self.A = (self.market_of[None, :] == np.arange(m)[:, None]).astype(np.float64)
        self.c = budget
        self.q = cfg["demand_q"]
        self.slope = cfg["demand_slope"]
        self.exponent = cfg["demand_exponent"]
        self.sign = cfg["demand_sign"]
        self.num_agents = n
        self.interaction = [
            sorted({l for l in range(n) if l != i and set(self.participation[l]) & set(row)})
            for i, row in enumerate(self.participation)
        ]

    def field(self, u):
        # gradient of firm cost c u - P(S) u with P(S) = q + sign * slope * S^e
        totals = np.maximum(self.A @ u, 0.0)[self.market_of]
        e = self.exponent
        return self.costs - self.q - self.sign * self.slope * totals ** (e - 1.0) * (totals + e * u)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-5 * max(abs(a), abs(b)) + 1e-8


def check_targets(game, finals, tol_res, max_iters) -> list[str]:
    """Each run stopped early at its target, as the recomputed residual confirms.

    finals holds (seed, u, iterations, reported residual) per run.
    """
    errors = []
    for seed, u, iterations, reported in finals:
        res = natural_residual(game, u)
        if iterations >= max_iters:
            errors.append(f"seed {seed}: hit the iteration cap {max_iters}")
        if not res < tol_res:
            errors.append(f"seed {seed}: recomputed residual {res:.3e} is not below {tol_res:.1e}")
        if not _close(res, reported):
            errors.append(f"seed {seed}: reported residual {reported:.6e}, recomputed {res:.6e}")
    return errors


def check_ordering(game, finals, start) -> list[str]:
    """Every run improves on the start point; risfbf ends closest to equilibrium.

    finals holds (variant, seed, u, reported residual) per run; start is
    the initial decision vector.
    """
    errors = []
    res0 = natural_residual(game, start)
    by_variant: dict[str, list[float]] = {}
    for variant, seed, u, reported in finals:
        res = natural_residual(game, u)
        if not res < res0:
            errors.append(f"{variant} seed {seed}: residual {res:.4g} not below the start's {res0:.4g}")
        if not _close(res, reported):
            errors.append(f"{variant} seed {seed}: reported residual {reported:.6e}, recomputed {res:.6e}")
        by_variant.setdefault(variant, []).append(res)
    means = {v: float(np.mean(r)) for v, r in by_variant.items()}
    for other in ("sfbf", "sfb"):
        if other in means and "risfbf" in means and not means["risfbf"] < means[other]:
            errors.append(f"mean residual of risfbf {means['risfbf']:.4g} not below {other} {means[other]:.4g}")
    return errors


def messages_per_iteration(weights, interaction, phases: int) -> int:
    """Messages one iteration sends: each interaction edge carries a strategy
    block and each graph edge a dual block, once per sampling phase."""
    graph_edges = int(np.count_nonzero(np.asarray(weights) > 0.0))
    return phases * (sum(len(row) for row in interaction) + graph_edges)


def check_audit(report, replay, per_iter) -> list[str]:
    """A clean verify, hash parity between the executors, and message accounting.

    report is the parsed verify_report.json of a verify that exited 0;
    replay holds the networked run's state_hash, iterations,
    messages_per_iteration and total_messages; per_iter is the
    benchmark's own message count.
    """
    errors = [
        f"verify check {c['name']}: {c['violations']} violations"
        for c in report["checks"]
        if c["violations"] != 0
    ]
    if replay["state_hash"] != report["trace_hash"]:
        errors.append("networked state_hash differs from the verify trace_hash")
    if replay["iterations"] != report["iterations"]:
        errors.append(f"networked run made {replay['iterations']} iterations, verify {report['iterations']}")
    if replay["messages_per_iteration"] != per_iter:
        errors.append(f"{replay['messages_per_iteration']} messages per iteration reported, {per_iter} expected")
    if replay["total_messages"] != per_iter * replay["iterations"]:
        errors.append(f"{replay['total_messages']} messages in total, {per_iter * replay['iterations']} expected")
    return errors
