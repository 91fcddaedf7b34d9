"""Small games and reference routines that the test modules import by name.

Kept out of conftest.py so that a test run collecting several test
trees, each with its own conftest module, imports these by a name no
other tree uses.
"""

import math

import numpy as np

from gnes.blockvec import AgentPartition, OrderedRows
from gnes.errors import ConfigurationError
from gnes.graph import CommGraph
from gnes.instances import builtin_document, load_document
from gnes.operators import GameProblem
from gnes.stochastic import PHASE_XI, AgentStreams


def load_builtin(name):
    problem, graph, _ = load_document(builtin_document(name))
    return problem, graph


def scalar_game(m_val=1.0, q_val=0.0, lo=-10.0, hi=10.0, d_row=0.0, b_val=0.0):
    """Single agent, one decision variable, one constraint row."""
    part = AgentPartition((1,), 1)
    m = float(m_val)
    q = float(q_val)
    problem = GameProblem(
        partition=part,
        pseudogradient=lambda u: m * u + q,
        D=(np.array([[d_row]]),),
        b=(np.array([b_val]),),
        box_lo=(np.array([lo]),),
        box_hi=(np.array([hi]),),
        lipschitz_ell=abs(m),
    )
    graph = CommGraph(np.zeros((1, 1)))
    return problem, graph


def random_affine_game(rng, dims=(2, 1, 2), m=2):
    """Strictly monotone affine game with a random connected graph."""
    part = AgentPartition(dims, m)
    d = part.total_dim
    n = part.num_agents
    a = rng.normal(size=(d, d)) * 0.3
    m_mat = a - a.T + np.eye(d) * (1.0 + rng.random())
    q = rng.normal(size=d)
    # summed row by row in column order, so an agent's rows are the same
    # floats whether F is evaluated on the full point or on its profile;
    # rows of points go through the transpose, one column per point
    rows = OrderedRows.from_dense(m_mat)

    d_mats = tuple(rng.normal(size=(m, part.dims[i])) for i in range(n))
    b = tuple(np.abs(rng.normal(size=m)) + 0.5 for _ in range(n))
    problem = GameProblem(
        partition=part,
        pseudogradient=lambda u: rows(u.T).T + q,
        D=d_mats,
        b=b,
        box_lo=tuple(-np.ones(part.dims[i]) for i in range(n)),
        box_hi=tuple(np.ones(part.dims[i]) for i in range(n)),
        lipschitz_ell=float(np.linalg.norm(m_mat, 2)),
    )
    while True:
        w = (rng.random((n, n)) < 0.6).astype(float)
        w = np.triu(w, 1)
        w = w + w.T
        try:
            graph = CommGraph(w)
            break
        except Exception:
            continue
    return problem, graph


def random_state(part, rng, spread=2.0):
    """Random stacked primal-dual vector, multipliers not sign-restricted."""
    return rng.normal(size=part.state_dim) * spread


def dykstra_projection(problem, v, tol=1e-13, max_sweeps=200_000):
    """Reference Euclidean projection onto {u in box : D u <= b} by Dykstra's method.

    Alternates over each constraint halfspace and the box, carrying one
    correction vector per set. Stops when a full sweep moves the iterate
    and every correction by less than tol combined; the iterate alone
    can revisit a point while the corrections still grow, so both must
    settle.
    """
    v = np.asarray(v, dtype=np.float64)
    rows = problem.D_stack
    rhs = problem.b_total
    lo, hi = problem.lo_stack, problem.hi_stack
    row_sq = np.einsum("ij,ij->i", rows, rows)
    x = np.clip(v, lo, hi)
    corr_box = v - x
    corr = np.zeros(rows.shape)
    for _ in range(max_sweeps):
        x_prev = x.copy()
        shifted = 0.0
        for r in range(rows.shape[0]):
            if row_sq[r] == 0.0:
                continue
            t = x + corr[r]
            gap = float(rows[r] @ t) - rhs[r]
            y = t - (gap / row_sq[r]) * rows[r] if gap > 0.0 else t
            shifted += float(np.linalg.norm((t - y) - corr[r]))
            corr[r] = t - y
            x = y
        t = x + corr_box
        y = np.clip(t, lo, hi)
        shifted += float(np.linalg.norm((t - y) - corr_box))
        corr_box = t - y
        x = y
        if float(np.linalg.norm(x - x_prev)) + shifted < tol:
            return x
    raise AssertionError("reference projection did not converge")


def monotonicity_probe(problem, trials=1000, seed=0):
    """Smallest normalized monotonicity gap over random box pairs.

    Returns min <F(u) - F(v), u - v> / ||u - v||^2; a clearly negative
    value certifies the game is not monotone on the box. Instances are
    acceptable when the probe stays above -1e-8.
    """
    rng = np.random.default_rng([seed, 2])
    lo, hi = problem.lo_stack, problem.hi_stack
    worst = np.inf
    for _ in range(trials):
        u = rng.uniform(lo, hi)
        v = rng.uniform(lo, hi)
        du = u - v
        nsq = float(np.dot(du, du))
        if nsq < 1e-20:
            continue
        gap = float(np.dot(problem.stacked_gradient(u) - problem.stacked_gradient(v), du))
        worst = min(worst, gap / nsq)
    return worst


def estimate_noise_bound(oracle, problem, seed, points=10, draws=200):
    """Empirical sigma with E||F_hat - F||^2 <= sigma^2 at batch one.

    Samples box points, measures the mean squared single-draw error of
    oracle.sample_gradient_batch, and reports the square root of the
    largest value seen.
    """
    part = problem.partition
    rng = np.random.default_rng(seed)
    streams = AgentStreams(seed)
    worst = 0.0
    lo, hi = problem.lo_stack, problem.hi_stack
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ConfigurationError("noise estimation needs finite boxes", field="box")
    for t in range(points):
        u = lo + (hi - lo) * rng.random(part.total_dim)
        total = 0.0
        for i in range(part.num_agents):
            g = problem.gradient(i, u)
            batch = oracle.sample_gradient_batch(i, u, draws, streams.generator(i, t, PHASE_XI))
            total += float(np.mean(np.sum((batch - g[None, :]) ** 2, axis=1)))
        worst = max(worst, total)
    return math.sqrt(worst)


def estimate_lipschitz_unchunked(gradient_rows, lo, hi, seed, pairs=10_000, margin=1.1):
    """cournot.estimate_lipschitz drawing and evaluating every pair at once, as a reference."""
    rng = np.random.default_rng([seed, 1])
    points = rng.uniform(lo, hi, size=(2 * pairs, lo.shape[0]))
    u_pts = points[0::2]
    v_pts = points[1::2]
    gaps = np.linalg.norm(u_pts - v_pts, axis=1)
    slopes = np.linalg.norm(gradient_rows(u_pts) - gradient_rows(v_pts), axis=1)
    keep = gaps >= 1e-12
    worst = float(np.max(slopes[keep] / gaps[keep])) if np.any(keep) else 0.0
    if worst == 0.0:
        raise ConfigurationError("gradient appears constant", field="lipschitz_pairs")
    return margin * worst
