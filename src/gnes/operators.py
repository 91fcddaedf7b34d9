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
its own rows of it and gets the same floats. The local sets are boxes,
so T is the normal cone of one box over the state,
K = U x R^{Nm} x R^{Nm}_+ (the local boxes on u, no bound on mu,
nonnegativity on lambda), and its resolvent is the projection onto K
for every diagonal Psi: one clip. Zeros of V + T are variational
equilibria of the game.
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
        with agent i's partial gradient in block i. It also maps rows
        of points, shape (R, total_dim), to their values row by row,
        each row the floats of the call on that point alone. Block i
        may only read the blocks of agent i and of the agents listed in
        interaction[i]: the networked executor evaluates F once on one
        profile per agent, row i holding just those blocks, and agent i
        keeps its own block of row i.
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
        # the rows in groups on pairwise disjoint columns, and the least
        # value D_r u takes on the box
        self.row_groups = _disjoint_row_groups(self.D_stack, self.lo_stack, self.hi_stack)
        self.row_floor = np.zeros(m)
        for grp in self.row_groups:
            self.row_floor[grp.rows] = np.bincount(
                grp.seg, np.minimum(grp.a * grp.lo, grp.a * grp.hi), grp.rows.size
            )
        small = min(self.D_stack.shape)
        gram = self.D_stack @ self.D_stack.T if small == m else self.D_stack.T @ self.D_stack
        self.d_norm = float(np.sqrt(max(largest_eigenvalue_psd(gram), 0.0)))

    @property
    def num_agents(self) -> int:
        return self.partition.num_agents

    def gradient(self, i: int, u: np.ndarray) -> np.ndarray:
        """Agent i's rows of F(u); its shape and finiteness errors name the agent."""
        sl = self.partition.primal_slice(i)
        g = self._evaluate(u, f"agent {i}")[sl]
        if not np.all(np.isfinite(g)):
            raise NumericError("gradient evaluation produced a non-finite value", agent=i)
        return g

    def stacked_gradient(self, u: np.ndarray) -> np.ndarray:
        """F(u); on one profile per agent (an (N, d) array), agent i's block of F at row i.

        A non-finite block raises NumericError naming its agent.
        """
        out = self.partition.own_rows(self._evaluate(u, "pseudogradient"))
        # a bad entry propagates through the sum; its block is located
        # only on failure (an overflowing sum of finite entries passes)
        if not math.isfinite(float(out.sum())):
            for i, sl in enumerate(self.partition.primal_slices):
                if not np.all(np.isfinite(out[sl])):
                    raise NumericError("gradient evaluation produced a non-finite value", agent=i)
        return out

    def _evaluate(self, u: np.ndarray, block: str) -> np.ndarray:
        """F at one point or at rows of points; a result of another shape is refused."""
        out = np.asarray(self.pseudogradient(u), dtype=np.float64)
        shape = u.shape[:-1] + (self.partition.total_dim,)
        if out.shape != shape:
            raise DimensionMismatchError(
                f"pseudogradient has shape {out.shape}, expected {shape}", block=block
            )
        return out


class ExtendedOperator:
    """V together with the resolvent of the separable part T.

    affine and offset are the A and c of V(x) = [F(u); 0; 0] + A x + c;
    lo and hi bound the state box K whose normal cone is T.
    Row i of A's mu and lambda blocks holds only agent i's own D_i and
    the weights of its incident edges, which is what lets each agent
    node evaluate its rows from its own blocks and its neighbours'.

    The Lipschitz constant of V satisfies
    ell_V <= ell + 2 kappa + ||D|| with kappa the Laplacian norm, which
    is what step size selection uses.
    """

    __slots__ = ("problem", "graph", "lipschitz_ell_V", "affine", "offset", "lo", "hi")

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
        self.lo = np.concatenate((problem.lo_stack, np.full(nm, -np.inf), np.zeros(nm)))
        self.hi = np.concatenate((problem.hi_stack, np.full(2 * nm, np.inf)))

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

    def resolvent_flat(self, x: np.ndarray) -> np.ndarray:
        """Resolvent of Psi^-1 T, the projection onto the state box K for every diagonal Psi."""
        return np.clip(x, self.lo, self.hi)

    def r_psi_flat(self, x: np.ndarray, psi: Preconditioner) -> float:
        """Euclidean norm of the fixed-point displacement of the forward-backward map."""
        v = self.v_flat(x)
        y = self.resolvent_flat(x - psi.inv_weights * v)
        return float(np.linalg.norm(x - y))


class _RowGroup:
    """Constraint rows whose column supports are pairwise disjoint.

    The supports are stored flat, row after row: entry j is column
    cols[j] of row rows[seg[j]], with coefficient a[j] and box bounds
    lo[j], hi[j]; entry_rows[j] is that row's index in D. For the
    breakpoint pass each entry has two kinks, on row seg2, at the times
    (base_j - bounds) / a2 where it meets lo and hi; the slope of g
    changes there by +a_j^2 when the coordinate stops at a bound and by
    -a_j^2 when it starts to move (kinks).
    """

    __slots__ = ("rows", "cols", "a", "lo", "hi", "seg", "entry_rows", "seg2", "a2", "bounds", "kinks")

    def __init__(self, rows: list, D: np.ndarray, lo: np.ndarray, hi: np.ndarray):
        self.rows = np.array(rows, dtype=np.intp)
        seg, cols = np.nonzero(D[self.rows])
        self.seg = seg
        self.cols = cols
        self.a = D[self.rows[seg], cols]
        self.lo = lo[cols]
        self.hi = hi[cols]
        self.entry_rows = self.rows[seg]
        self.seg2 = np.concatenate((seg, seg))
        self.a2 = np.concatenate((self.a, self.a))
        self.bounds = np.concatenate((self.lo, self.hi))
        # base - t a falls for a > 0: it leaves hi first and stops at lo
        signed = self.a * np.abs(self.a)
        self.kinks = np.concatenate((signed, -signed))


def _disjoint_row_groups(D: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple:
    """Greedy partition of D's rows, in row order, into groups on disjoint columns."""
    groups: list[tuple[list, np.ndarray]] = []
    for r, row in enumerate(D):
        support = row != 0.0
        for rows, used in groups:
            if not np.any(used & support):
                rows.append(r)
                used |= support
                break
        else:
            groups.append(([r], support))
    return tuple(_RowGroup(rows, D, lo, hi) for rows, _ in groups)


def _group_multipliers(grp: _RowGroup, base: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Smallest t_r >= 0 with a_r . clip(base - t_r a_r, lo, hi) <= c_r, for every row r of grp.

    g_r(t) = a_r . clip(base - t a_r, lo, hi) - c_r is nonincreasing and
    piecewise linear: coordinate j adds slope -a_j^2 while it travels
    between its bounds and is constant before and after. With the kinks
    tau_k sorted and delta_k the slope change at each, g_r(t) = g_r(0)
    + s t - sum_{tau_k < t} delta_k (tau_k - t) for the slope s at t = 0,
    so running sums give g_r at every kink, and the root is solved on the
    piece where g_r stops being positive. The rows share no column, so
    one pass serves them all: the slope of g_r at t = 0 sums -a_j^2 over
    the coordinates that have passed one of their kinks and not the
    other; the kinks ahead are sorted by row and then by time, the
    running sums restart at each row's first kink, and each row stops at
    its first kink where g_r is nonpositive, or at its last kink when g_r
    stays positive past every kink. Only a row's own columns are entries
    of the group, so every a_j is nonzero.
    """
    k = c.size
    g0 = np.bincount(grp.seg, grp.a * np.minimum(np.maximum(base, grp.lo), grp.hi), k) - c
    active = g0 > 0.0
    if not active.any():
        return np.zeros(k)
    times = (np.concatenate((base, base)) - grp.bounds) / grp.a2
    # -a_j^2 of the moving coordinates, not the slope changes of every
    # kink at t <= 0: those of a coordinate past both of its kinks cancel,
    # and their rounding can outweigh a small a_j^2 that remains
    passed = times <= 0.0
    n = base.size
    slope = -np.bincount(grp.seg, grp.a * grp.a * (passed[:n] != passed[n:]), k)
    ahead = ((times > 0.0) & (times < np.inf)).nonzero()[0]
    ahead = ahead[np.lexsort((times[ahead], grp.seg2[ahead]))]
    offset = np.zeros(k)
    end = np.zeros(k)
    if ahead.size:
        times = times[ahead]
        kinks = grp.kinks[ahead]
        row = grp.seg2[ahead]
        change = row[1:] != row[:-1]
        last = np.concatenate((change, [True]))
        # index of the first kink of each kink's row
        first = np.maximum.accumulate(np.arange(row.size) * np.concatenate(([True], change)))
        moments = kinks * times
        slopes = kinks.cumsum()
        offsets = moments.cumsum()
        slopes += slope[row] - (slopes - kinks)[first]
        offsets -= (offsets - moments)[first]
        below = g0[row] + slopes * times - offsets <= 0.0
        stop = (below | last).nonzero()[0]
        stop = stop[np.concatenate(([True], row[stop[1:]] != row[stop[:-1]]))]
        at = row[stop]
        # the piece ending at a kink where g_r is nonpositive lies before
        # that kink's slope change; past the last kink it includes it
        back = below[stop]
        slope[at] = slopes[stop] - back * kinks[stop]
        offset[at] = offsets[stop] - back * moments[stop]
        end[at] = times[stop]
    # On a piece where no coordinate moves, the slope changes cancel, but
    # the running sums, shared by the whole group, leave a residue well
    # under kinks.size * eps * |a|^2. Such a piece is flat (a row met
    # only at its floor ends on one), and g_r is lowest from its end on.
    flat = 4.0 * grp.kinks.size * np.finfo(np.float64).eps * (grp.a @ grp.a)
    t = np.divide(g0 - offset, -slope, out=end, where=slope < -flat)
    t[~active] = 0.0
    return t


def _kkt_gap(p: GameProblem, u: np.ndarray, lam: np.ndarray) -> float:
    """Largest violation of D u <= b, and of tightness on rows with lambda_r > 0."""
    slack = p.D_stack @ u - p.b_total
    return float(np.maximum(slack, -slack * (lam > 0.0)).max(initial=0.0))


def proj_shared_set(
    p: GameProblem,
    v: np.ndarray,
    tol: float = 1e-10,
    max_sweeps: int = 10000,
) -> np.ndarray:
    """Euclidean projection onto C = {u in U : D u <= b}.

    Dual coordinate ascent on the m multipliers of D u <= b. For
    lambda >= 0 the Lagrangian is minimised over the box U by
    u(lambda) = clip(v - D^T lambda, lo, hi). The rows are split once,
    greedily in row order, into groups on pairwise disjoint columns
    (GameProblem.row_groups). A sweep maximises the dual exactly in the
    multipliers of one group at a time: the rows of a group do not
    interact, so each is a continuous quadratic knapsack, and one
    vectorised breakpoint pass (_group_multipliers; K. C. Kiwiel,
    Math. Program. 112, 2008) solves all of them. When every row lies
    in one group, one sweep is exact. The result is returned on a KKT
    certificate at eps = tol * max(1, max|b|): D u - b <= eps, and every
    row with a positive multiplier is tight to within eps. u(lambda) is
    then the exact projection onto C with each offset moved by at most
    eps.
    Raises if max_sweeps sweeps end without the certificate.
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
        for grp in p.row_groups:
            cols, a = grp.cols, grp.a
            base = w[cols] + lam[grp.entry_rows] * a
            lam[grp.rows] = _group_multipliers(grp, base, rhs[grp.rows])
            w[cols] = base - lam[grp.entry_rows] * a
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

    Stationarity is tested through the projection characterization
    u = clip(u - (F(u) + D^T lambda), lo, hi) on the box U (T is the
    box's normal cone), with the largest per-agent norm of the
    difference as the gap; feasibility as D u - b <= tol, and
    complementarity as |lambda_j (D u - b)_j| <= tol together with
    lambda >= -tol.
    """
    u = np.asarray(u, dtype=np.float64).ravel()
    lam = np.asarray(lam, dtype=np.float64).ravel()
    part = p.partition
    if lam.shape != (part.constraint_dim,):
        raise DimensionMismatchError(
            f"multiplier has shape {lam.shape}, expected ({part.constraint_dim},)",
            block="lambda",
        )
    r = u - np.clip(u - p.stacked_gradient(u) - p.D_stack.T @ lam, p.lo_stack, p.hi_stack)
    starts = [sl.start for sl in part.primal_slices]
    stat = math.sqrt(np.add.reduceat(r * r, starts).max())
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
