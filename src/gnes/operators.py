"""Game data, the extended primal-dual operator, and residual machinery.

A game instance holds its pseudogradient F in stacked form (agent i's
partial gradient in block i), local box constraints, and the agent
slices D_i, b_i of the shared affine constraint D u <= b. An agent's
gradient is its own rows of that one kernel.
The extended operator V acts on states x = (u, mu, lambda) and couples
agents through the constraint blocks and the communication Laplacian:

    V(x) = ( F(u) + D^T lambda ; L lambda ; b + L (lambda - mu) - D u )

with all dual products taken blockwise per agent, L standing for the
Kronecker form L (x) I_m. Everything but F is affine, so
V(x) = [F(u); 0; 0] + A x + c with one fixed sparse A and c = [0; 0; b].
A is kept as an OrderedRows over the whole state; an agent node applies
its own rows of it and gets the same floats. Zeros of V + T, where T
collects the local subdifferentials and the nonnegativity cone on
lambda, are variational equilibria of the game.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .blockvec import AgentPartition, OrderedRows, Preconditioner
from .errors import ConfigurationError, DimensionMismatchError, NumericError, ToleranceError
from .graph import CommGraph, largest_eigenvalue_psd

__all__ = [
    "GameProblem",
    "ExtendedOperator",
    "KKTReport",
    "proj_shared_set",
    "residual_res",
    "kkt_check",
]


@dataclass
class GameProblem:
    """Static data of one game instance.

    Parameters
    ----------
    partition : AgentPartition
        Block structure of the decision vector.
    pseudogradient : callable
        Maps the full decision vector u to F(u), shape (total_dim,),
        with agent i's partial gradient in block i. Block i may only
        read the blocks of agent i and of the agents listed in
        interaction[i]; an agent evaluates F on a profile that holds
        just those blocks and keeps its own rows.
    D : sequence of arrays
        Agent slices of the constraint matrix, D[i] has shape (m, dims[i]).
    b : sequence of arrays
        Agent shares b_i of the constraint offset, each shape (m,).
        The shared constraint is D u <= sum_i b_i.
    box_lo, box_hi : sequences of arrays
        Local box bounds per agent, shape (dims[i],); infinite bounds
        are allowed, NaN is not.
    lipschitz_ell : float
        Lipschitz constant of F.
    prox_g : sequence of callables or None
        Optional custom prox oracles prox_g[i](v, gamma). The default
        is the projection onto the local box, which any custom oracle
        must also map into.
    interaction : tuple of arrays or None
        interaction[i] lists the agents (not i) whose blocks agent i's
        rows of F read. None means everyone interacts with everyone.
    """

    partition: AgentPartition
    pseudogradient: Callable[[np.ndarray], np.ndarray]
    D: tuple
    b: tuple
    box_lo: tuple
    box_hi: tuple
    lipschitz_ell: float
    prox_g: tuple | None = None
    interaction: tuple | None = None
    d_norm: float = field(init=False)

    def __post_init__(self):
        part = self.partition
        n = part.num_agents
        m = part.constraint_dim
        self.D = tuple(np.ascontiguousarray(Di, dtype=np.float64) for Di in self.D)
        self.b = tuple(np.asarray(bi, dtype=np.float64).ravel() for bi in self.b)
        if len(self.D) != n or len(self.b) != n:
            raise DimensionMismatchError("need D_i and b_i for every agent", block="D/b")
        for i, (Di, bi) in enumerate(zip(self.D, self.b)):
            if Di.shape != (m, part.dims[i]):
                raise DimensionMismatchError(
                    f"D[{i}] has shape {Di.shape}, expected ({m}, {part.dims[i]})",
                    block=f"agent {i}",
                )
            if bi.shape != (m,):
                raise DimensionMismatchError(
                    f"b[{i}] has shape {bi.shape}, expected ({m},)", block=f"agent {i}"
                )
            if not np.all(np.isfinite(Di)) or not np.all(np.isfinite(bi)):
                raise ConfigurationError("constraint data must be finite", field=f"agent {i}")
        lo = tuple(np.asarray(v, dtype=np.float64).ravel() for v in self.box_lo)
        hi = tuple(np.asarray(v, dtype=np.float64).ravel() for v in self.box_hi)
        if len(lo) != n or len(hi) != n:
            raise DimensionMismatchError("need box bounds for every agent", block="box")
        for i in range(n):
            if lo[i].shape != (part.dims[i],) or hi[i].shape != (part.dims[i],):
                raise DimensionMismatchError(
                    f"box bounds of agent {i} must have shape ({part.dims[i]},)",
                    block=f"agent {i}",
                )
            if np.any(np.isnan(lo[i])) or np.any(np.isnan(hi[i])):
                raise ConfigurationError(f"NaN box bound for agent {i}", field=f"agent {i}")
            if np.any(lo[i] > hi[i]):
                raise ConfigurationError(f"empty box for agent {i}", field=f"agent {i}")
        self.box_lo = lo
        self.box_hi = hi
        if not np.isfinite(self.lipschitz_ell) or self.lipschitz_ell < 0.0:
            raise ConfigurationError("lipschitz_ell must be finite and >= 0", field="lipschitz_ell")
        if self.prox_g is not None and len(self.prox_g) != n:
            raise DimensionMismatchError("need one prox oracle per agent", block="prox_g")
        if self.interaction is None:
            self.interaction = tuple(
                np.array([j for j in range(n) if j != i], dtype=np.int64) for i in range(n)
            )
        else:
            self.interaction = tuple(
                np.asarray(np.sort(np.unique(ix)), dtype=np.int64) for ix in self.interaction
            )
            for i, ix in enumerate(self.interaction):
                if np.any(ix < 0) or np.any(ix >= n) or np.any(ix == i):
                    raise ConfigurationError(
                        f"interaction list of agent {i} must name other agents",
                        field=f"agent {i}",
                    )
        # stacked forms used by projections and norms
        self.lo_stack = np.concatenate(lo)
        self.hi_stack = np.concatenate(hi)
        self.D_stack = np.hstack(self.D)
        self.b_total = np.sum(np.stack(self.b), axis=0)
        # per constraint row: its nonzero columns with their entries and
        # box bounds, and the least value D_r u takes on the box
        self.row_support = tuple(
            (cols, row[cols], self.lo_stack[cols], self.hi_stack[cols])
            for row in self.D_stack
            for cols in (np.flatnonzero(row),)
        )
        self.row_floor = np.array([
            float(np.minimum(a * lo_r, a * hi_r).sum()) for _, a, lo_r, hi_r in self.row_support
        ])
        small = min(self.D_stack.shape)
        gram = self.D_stack @ self.D_stack.T if small == m else self.D_stack.T @ self.D_stack
        self.d_norm = float(np.sqrt(max(largest_eigenvalue_psd(gram), 0.0)))

    @property
    def num_agents(self) -> int:
        return self.partition.num_agents

    def prox(self, i: int, v: np.ndarray, gamma: float) -> np.ndarray:
        """Prox of agent i's local term at step gamma (box projection by default)."""
        if self.prox_g is not None:
            return self.prox_g[i](v, gamma)
        return np.clip(v, self.box_lo[i], self.box_hi[i])

    @property
    def has_custom_prox(self) -> bool:
        return self.prox_g is not None

    def gradient(self, i: int, u: np.ndarray) -> np.ndarray:
        """Agent i's rows of F(u); its shape and finiteness errors name the agent."""
        sl = self.partition.primal_slice(i)
        g = self._evaluate(u, f"agent {i}")[sl]
        if not np.all(np.isfinite(g)):
            raise NumericError("gradient evaluation produced a non-finite value", agent=i)
        return g

    def stacked_gradient(self, u: np.ndarray) -> np.ndarray:
        """Pseudogradient F(u); a non-finite block raises NumericError naming its agent."""
        out = self._evaluate(u, "pseudogradient")
        # a bad entry propagates through the sum; its block is located
        # only on failure (an overflowing sum of finite entries passes)
        if not math.isfinite(float(out.sum())):
            for i, sl in enumerate(self.partition.primal_slices):
                if not np.all(np.isfinite(out[sl])):
                    raise NumericError("gradient evaluation produced a non-finite value", agent=i)
        return out

    def _evaluate(self, u: np.ndarray, block: str) -> np.ndarray:
        out = np.asarray(self.pseudogradient(u), dtype=np.float64)
        d = self.partition.total_dim
        if out.shape != (d,):
            raise DimensionMismatchError(
                f"pseudogradient has shape {out.shape}, expected ({d},)", block=block
            )
        return out


class ExtendedOperator:
    """V together with the resolvent of the separable part T.

    affine and offset are the A and c of V(x) = [F(u); 0; 0] + A x + c.
    Row i of A's mu and lambda blocks holds only agent i's own D_i and
    the weights of its incident edges, which is what lets each agent
    node evaluate its rows from its own blocks and its neighbours'.

    The Lipschitz constant of V satisfies
    ell_V <= ell + 2 kappa + ||D|| with kappa the Laplacian norm, which
    is what step size selection uses.
    """

    __slots__ = ("problem", "graph", "lipschitz_ell_V", "affine", "offset")

    def __init__(self, problem: GameProblem, graph: CommGraph):
        if graph.num_agents != problem.partition.num_agents:
            raise DimensionMismatchError("graph and partition disagree on N", block="graph")
        self.problem = problem
        self.graph = graph
        self.lipschitz_ell_V = float(
            problem.lipschitz_ell + 2.0 * graph.lap_norm + problem.d_norm
        )
        part = problem.partition
        m = part.constraint_dim
        d = part.total_dim
        nm = part.dual_dim
        rows, cols, vals = [], [], []
        # D_i^T lambda_i into the u rows, -D_i u_i into the lambda rows
        for i, Di in enumerate(problem.D):
            r, c = np.nonzero(Di)
            u_at = part.primal_slices[i].start + c
            lam_at = d + nm + i * m + r
            rows += [u_at, lam_at]
            cols += [lam_at, u_at]
            vals += [Di[r, c], -Di[r, c]]
        # L lambda into the mu rows, L (lambda - mu) into the lambda rows
        li, lj = np.nonzero(graph.laplacian)
        within = np.arange(m)
        at_i = (li[:, None] * m + within).ravel()
        at_j = (lj[:, None] * m + within).ravel()
        lap = np.repeat(graph.laplacian[li, lj], m)
        rows += [d + at_i, d + nm + at_i, d + nm + at_i]
        cols += [d + nm + at_j, d + at_j, d + nm + at_j]
        vals += [lap, -lap, lap]
        self.affine = OrderedRows(
            (part.state_dim, part.state_dim),
            np.concatenate(rows), np.concatenate(cols), np.concatenate(vals),
        )
        self.offset = np.zeros(part.state_dim)
        self.offset[d + nm :] = np.concatenate(problem.b)

    # flat-array engine ----------------------------------------------------
    #
    # The solver calls these with raw state arrays and gets fresh arrays
    # back.

    def v_flat(self, x: np.ndarray, fvals: np.ndarray | None = None) -> np.ndarray:
        """V(x) on a flat state; fvals overrides the F(u) part when given."""
        d = self.problem.partition.total_dim
        if fvals is None:
            fvals = self.problem.stacked_gradient(x[:d])
        out = self.affine(x)
        out += self.offset
        out[:d] += fvals
        return out

    def resolvent_flat(self, x: np.ndarray, psi: Preconditioner) -> np.ndarray:
        """Resolvent of Psi^-1 T: blockwise prox on u, identity on mu, clamp on lambda."""
        part = self.problem.partition
        d = part.total_dim
        nm = part.dual_dim
        out = np.empty(part.state_dim)
        prob = self.problem
        if prob.has_custom_prox:
            for i in range(part.num_agents):
                sl = part.primal_slice(i)
                out[sl] = prob.prox(i, x[sl], float(psi.gamma[i]))
        else:
            np.clip(x[:d], prob.lo_stack, prob.hi_stack, out=out[:d])
        out[d : d + nm] = x[d : d + nm]
        np.maximum(x[d + nm :], 0.0, out=out[d + nm :])
        return out

    def r_psi_flat(self, x: np.ndarray, psi: Preconditioner) -> float:
        """Euclidean norm of the fixed-point displacement of the forward-backward map."""
        v = self.v_flat(x)
        y = self.resolvent_flat(x - psi.inv_weights * v, psi)
        return float(np.linalg.norm(x - y))


def _row_multiplier(base, a, lo, hi, c) -> float:
    """Smallest t >= 0 with a . clip(base - t a, lo, hi) <= c.

    g(t) = a . clip(base - t a, lo, hi) - c is nonincreasing and piecewise
    linear: coordinate j adds slope -a_j^2 while it travels between its
    bounds and is constant before and after. With the kinks tau_k sorted
    and delta_k the slope change at each, g(t) = g(0) + s t
    - sum_{tau_k < t} delta_k (tau_k - t) for the slope s at t = 0, so
    running sums give g at every kink, and the root is solved on the
    piece where g stops being positive. Only the row's own columns are
    passed, so every a_j is nonzero.
    """
    g0 = float(a @ np.clip(base, lo, hi)) - c
    if g0 <= 0.0:
        return 0.0
    t_lo = (base - lo) / a
    t_hi = (base - hi) / a
    enter = np.minimum(t_lo, t_hi)
    leave = np.maximum(t_lo, t_hi)
    sq = a * a
    slope = -float(sq[(enter <= 0.0) & (leave > 0.0)].sum())
    times = np.concatenate((enter, leave))
    kinks = np.concatenate((-sq, sq))
    ahead = np.flatnonzero((times > 0.0) & (times < np.inf))
    order = ahead[np.argsort(times[ahead])]
    times = times[order]
    kinks = kinks[order]
    slopes = slope + np.cumsum(kinks)
    offsets = np.cumsum(kinks * times)
    below = np.flatnonzero(g0 + slopes * times - offsets <= 0.0)
    if below.size:
        # the root lies on the piece that ends at kink i
        i = int(below[0])
        slope = float(slopes[i] - kinks[i])
        offset = float(offsets[i] - kinks[i] * times[i])
        end = float(times[i])
    elif times.size:
        slope = float(slopes[-1])
        offset = float(offsets[-1])
        end = float(times[-1])
    else:
        offset = end = 0.0
    if slope >= 0.0:
        # only rounding lands here (rows that cannot be met inside the
        # box are rejected before the sweeps); g is lowest from `end` on
        return end
    return (g0 - offset) / -slope


def _kkt_gap(p: GameProblem, u: np.ndarray, lam: np.ndarray) -> float:
    """Largest violation of D u <= b, and of tightness on rows with lambda_r > 0."""
    slack = p.D_stack @ u - p.b_total
    return max(
        float(np.max(slack, initial=0.0)),
        float(np.max(-slack[lam > 0.0], initial=0.0)),
    )


def proj_shared_set(
    p: GameProblem,
    v: np.ndarray,
    tol: float = 1e-10,
    max_sweeps: int = 10000,
) -> np.ndarray:
    """Euclidean projection onto C = {u in U : D u <= b}.

    Dual coordinate ascent on the m multipliers of D u <= b. For
    lambda >= 0 the Lagrangian is minimised over the box U by
    u(lambda) = clip(v - D^T lambda, lo, hi); a sweep maximises the dual
    exactly in one multiplier at a time (_row_multiplier). The result is
    returned on a KKT certificate at eps = tol * max(1, max|b|):
    D u - b <= eps, and every row with a positive multiplier is tight to
    within eps. u(lambda) is then the exact projection onto C with each
    offset moved by at most eps. Rows on disjoint columns do not
    interact, so one sweep is exact there. Raises if max_sweeps sweeps
    end without the certificate.
    """
    v = np.asarray(v, dtype=np.float64).ravel()
    d = p.partition.total_dim
    if v.shape != (d,):
        raise DimensionMismatchError(f"point has shape {v.shape}, expected ({d},)", block="u")
    rhs = p.b_total
    unreachable = np.flatnonzero(p.row_floor > rhs)
    if unreachable.size:
        raise ConfigurationError(
            f"constraint row {unreachable[0]} cannot be met inside the box", field="D/b"
        )
    if not np.all(np.isfinite(v)):
        raise ToleranceError("cannot project a non-finite point", achieved=math.nan)
    eps = tol * max(1.0, float(np.max(np.abs(rhs))))
    lo, hi = p.lo_stack, p.hi_stack
    lam = np.zeros(p.partition.constraint_dim)
    w = v.copy()  # v - D^T lam
    u = np.clip(w, lo, hi)
    gap = _kkt_gap(p, u, lam)
    sweeps = 0
    while gap > eps:
        if sweeps == max_sweeps:
            raise ToleranceError(
                "projection onto the shared feasible set did not converge", achieved=gap
            )
        sweeps += 1
        for r, (cols, a, lo_r, hi_r) in enumerate(p.row_support):
            base = w[cols] + lam[r] * a
            lam[r] = _row_multiplier(base, a, lo_r, hi_r, rhs[r])
            w[cols] = base - lam[r] * a
        # recomputed, so the certificate holds for u(lam) itself and not
        # for the rounding drift of the row updates
        w = v - p.D_stack.T @ lam
        u = np.clip(w, lo, hi)
        gap = _kkt_gap(p, u, lam)
    return u


def residual_res(p: GameProblem, u: np.ndarray) -> float:
    """Natural residual || u - proj_C(u - F(u)) || of the shared-constraint VI."""
    u = np.asarray(u, dtype=np.float64).ravel()
    f = p.stacked_gradient(u)
    return float(np.linalg.norm(u - proj_shared_set(p, u - f)))


@dataclass(frozen=True)
class KKTReport:
    """Outcome of the first-order optimality test at (u, lambda)."""

    stationarity: bool
    feasibility: bool
    complementarity: bool
    stationarity_gap: float
    feasibility_gap: float
    complementarity_gap: float
    dual_sign_gap: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.stationarity and self.feasibility and self.complementarity


def kkt_check(p: GameProblem, u: np.ndarray, lam: np.ndarray, tol: float = 1e-8) -> KKTReport:
    """First-order conditions with one shared multiplier for all agents.

    Stationarity is tested through the prox characterization
    u_i = prox_{g_i}(u_i - (grad f_i + D_i^T lambda)) at unit step,
    feasibility as D u - b <= tol, and complementarity as
    |lambda_j (D u - b)_j| <= tol together with lambda >= -tol.
    """
    u = np.asarray(u, dtype=np.float64).ravel()
    lam = np.asarray(lam, dtype=np.float64).ravel()
    part = p.partition
    if lam.shape != (part.constraint_dim,):
        raise DimensionMismatchError(
            f"multiplier has shape {lam.shape}, expected ({part.constraint_dim},)",
            block="lambda",
        )
    f = p.stacked_gradient(u)
    stat = 0.0
    for i in range(part.num_agents):
        sl = part.primal_slice(i)
        g = f[sl] + p.D[i].T @ lam
        z = p.prox(i, u[sl] - g, 1.0)
        stat = max(stat, float(np.linalg.norm(u[sl] - z)))
    slack = p.D_stack @ u - p.b_total
    feas = float(np.max(slack, initial=0.0))
    comp = float(np.max(np.abs(lam * slack), initial=0.0))
    dual_sign = float(max(0.0, -np.min(lam, initial=0.0)))
    return KKTReport(
        stationarity=stat <= tol,
        feasibility=feas <= tol,
        complementarity=comp <= tol and dual_sign <= tol,
        stationarity_gap=stat,
        feasibility_gap=feas,
        complementarity_gap=comp,
        dual_sign_gap=dual_sign,
        tol=tol,
    )
