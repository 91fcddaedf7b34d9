"""Stochastic forward-backward-forward solvers with inertia and relaxation.

One iteration of the full method, with per-agent step sizes collected in
the diagonal preconditioner Psi and mini-batch operator estimates
V_hat(., xi) and V_hat(., eta):

    Z_k = X_k + alpha_k (X_k - X_{k-1})
    Y_k = J_{Psi^-1 T}(Z_k - Psi^-1 V_hat(Z_k, xi_k))
    X_{k+1} = (1 - rho_k) Z_k + rho_k [ Y_k - Psi^-1 (V_hat(Y_k, eta_k) - V_hat(Z_k, xi_k)) ]

with X_{-1} = X_0. Setting alpha_k = 0 and rho_k = 1 recovers the plain
stochastic forward-backward-forward method; the forward-backward variant
drops the correction step entirely and uses a single sample point.
"""

from __future__ import annotations

import hashlib
import logging
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .blockvec import AgentPartition, Preconditioner, PrimalDualState
from .errors import ConfigurationError, DimensionMismatchError, GnesError, NumericError
from .errors import check_field_types, is_list, is_number
from .graph import CommGraph
from .operators import ExtendedOperator, GameProblem, residual_res
from .stochastic import (
    PHASE_ETA,
    PHASE_XI,
    AgentStreams,
    BatchSchedule,
    SamplingOracle,
    ZeroNoiseOracle,
    sample_V_hat,
)

__all__ = [
    "SolverParams",
    "SolverTrace",
    "DiagnosticsReport",
    "VARIANTS",
    "alpha_schedule",
    "rho_schedule",
    "admissible_step_bound",
    "build_preconditioner",
    "risfbf_step",
    "sfb_step",
    "run",
    "solve_ground_truth",
    "diagnostics_check",
    "consensus_gap",
    "feasibility_gap",
]

logger = logging.getLogger("gnes.solver")

VARIANTS = ("risfbf", "sfbf", "sfb")


@dataclass
class SolverParams:
    """Configuration of one solver run.

    Each field accepts one type, and the Python API refuses the same
    values as a configuration document, naming the same field:

    - variant: a string, one of VARIANTS.
    - alpha_bar, nu, tol, rho_scale: finite numbers, stored as float.
    - tol_res, rho_fixed: a finite number (stored as float) or None.
    - max_iters, trace_every: integers >= 1, stored as int.
    - diagnostics, enforce_admissibility: true or false.
    - batch: a BatchSchedule.
    - steps: "auto" (every step size set to the admissible bound
      (1 - nu) / (2 ell_V)), one number shared by all agents and blocks
      (stored as float), or a (gamma, sigma, tau) triple, stored as a
      tuple, whose entries are numbers (stored as float, shared by all
      agents) or finite numeric per-agent arrays (stored as tuples of
      floats).

    Integers and numbers include numpy scalars, never booleans.

    rho_fixed replaces the relaxation schedule by a constant;
    rho_scale multiplies whatever the schedule yields. Both exist for
    controlled experiments; leaving them at the defaults gives the
    admissible schedule. enforce_admissibility=False downgrades the
    step size and schedule checks from errors to warnings, which is
    only meant for negative controls.
    """

    variant: str = "risfbf"
    alpha_bar: float = 0.1
    nu: float = 0.01
    steps: object = "auto"
    max_iters: int = 1000
    tol: float = 1e-6
    tol_res: float | None = None
    batch: BatchSchedule = field(default_factory=BatchSchedule)
    diagnostics: bool = False
    trace_every: int = 1
    rho_fixed: float | None = None
    rho_scale: float = 1.0
    enforce_admissibility: bool = True

    def __post_init__(self):
        check_field_types(self, skip=("steps",), coerce=True)
        self.steps = _stored_steps(self.steps)
        if self.variant not in VARIANTS:
            raise ConfigurationError(
                f"unknown variant {self.variant!r}, expected one of {VARIANTS}",
                field="variant",
            )
        for name, ok, rule in (
            ("alpha_bar", 0.0 <= self.alpha_bar < 1.0, "lie in [0, 1)"),
            ("nu", 0.0 < self.nu < 1.0, "lie in (0, 1)"),
            ("max_iters", self.max_iters >= 1, "be >= 1"),
            ("trace_every", self.trace_every >= 1, "be >= 1"),
            ("tol", self.tol >= 0.0, "be >= 0"),
            ("tol_res", self.tol_res is None or self.tol_res >= 0.0, "be >= 0"),
            ("rho_fixed", self.rho_fixed is None or 0.0 < self.rho_fixed <= 1.0, "lie in (0, 1]"),
            ("rho_scale", self.rho_scale > 0.0, "be > 0"),
        ):
            if not ok:
                raise ConfigurationError(
                    f"{name} must {rule}, got {getattr(self, name)}", field=name
                )
        if self.diagnostics and self.variant == "sfb":
            raise ConfigurationError(
                "recursion diagnostics apply to the forward-backward-forward variants",
                field="variant",
            )
        if not isinstance(self.batch, BatchSchedule):
            raise ConfigurationError("batch must be a BatchSchedule", field="batch")
        try:
            # the schedule increases, so its last size is its largest
            self.batch.size(self.max_iters - 1)
        except OverflowError:
            raise ConfigurationError(
                f"batch size overflows within {self.max_iters} iterations", field="batch"
            ) from None


def _step_entry(value):
    """One entry of a steps triple as a float or a tuple of per-agent floats; None if neither."""
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError):  # ragged nesting
        return None
    if arr.dtype.kind not in "iuf" or not np.all(np.isfinite(arr)):
        return None
    arr = arr.astype(np.float64)
    return float(arr) if arr.ndim == 0 else tuple(arr.ravel().tolist())


def _stored_steps(steps):
    """steps as "auto", a float, or a triple of floats and per-agent tuples."""
    if isinstance(steps, str) and steps == "auto":
        return steps
    if is_number(steps):
        return float(steps)
    if is_list(steps) and len(steps) == 3:
        entries = tuple(_step_entry(v) for v in steps)
        if all(e is not None for e in entries):
            return entries
    raise ConfigurationError(
        "steps must be 'auto', a number, or a (gamma, sigma, tau) triple of "
        f"numbers or numeric arrays, not {steps!r}",
        field="steps",
    )


def alpha_schedule(params: SolverParams, k: int) -> float:
    """Inertia weight at iteration k: alpha_bar (1 - 1/(k+1)), zero for non-inertial variants."""
    if params.variant != "risfbf":
        return 0.0
    return params.alpha_bar * (1.0 - 1.0 / (k + 1))


def rho_schedule(params: SolverParams, alpha_k: float, ell_v_psi: float) -> float:
    """Relaxation weight for inertia value alpha_k.

    The schedule is
        rho = (3 - nu)(1 - alpha_bar)^2 / (2 (2 a^2 - a + 1)(1 + ell_V_Psi)),
    a = alpha_k, which keeps the inertia-relaxation coupling inequality
    satisfied for every k. Values above 1 are clamped to 1 with a
    warning; rho_fixed and rho_scale override and rescale the rule.
    """
    if params.variant == "sfbf":
        return 1.0
    if params.variant == "sfb":
        raise ConfigurationError("the forward-backward variant has no relaxation step", field="variant")
    if params.rho_fixed is not None:
        rho = params.rho_fixed
    else:
        a = alpha_k
        denom = 2.0 * (2.0 * a * a - a + 1.0) * (1.0 + ell_v_psi)
        rho = (3.0 - params.nu) * (1.0 - params.alpha_bar) ** 2 / denom
    rho *= params.rho_scale
    if rho > 1.0:
        rho = 1.0
    if rho <= 0.0:
        raise ConfigurationError(f"relaxation weight must be positive, got {rho}", field="rho")
    return rho


def admissible_step_bound(op: ExtendedOperator, nu: float) -> float:
    """Largest admissible step size (1 - nu) / (2 ell_V)."""
    if op.lipschitz_ell_V <= 0.0:
        return np.inf
    return (1.0 - nu) / (2.0 * op.lipschitz_ell_V)


def build_preconditioner(params: SolverParams, op: ExtendedOperator) -> Preconditioner:
    """Resolve the steps field of the parameters into a Preconditioner."""
    part = op.problem.partition
    if isinstance(params.steps, str):  # "auto", the only rule
        bound = admissible_step_bound(op, params.nu)
        if not np.isfinite(bound):
            raise ConfigurationError(
                "automatic steps need a positive operator constant", field="steps"
            )
        return Preconditioner.uniform(part, bound)
    if isinstance(params.steps, float):
        return Preconditioner.uniform(part, params.steps)
    # a scalar entry is one step size shared by all agents
    gamma, sigma, tau = (
        np.full(part.num_agents, float(v)) if np.ndim(v) == 0 else v
        for v in params.steps
    )
    return Preconditioner(part, gamma, sigma, tau)


def _coupling_value(alpha: float, rho: float, nu: float, ell_v_psi: float) -> float:
    """2 a^2 + (1 - a)(1 - (3 - nu)(1 - a) / (2 rho (1 + ell))), <= 0 when admissible."""
    return 2.0 * alpha * alpha + (1.0 - alpha) * (
        1.0 - (3.0 - nu) * (1.0 - alpha) / (2.0 * rho * (1.0 + ell_v_psi))
    )


def _validate_run(params: SolverParams, op: ExtendedOperator, psi: Preconditioner):
    """Step size and schedule admissibility, downgraded to warnings on request."""
    bound = admissible_step_bound(op, params.nu)
    ok_steps = psi.max_step <= bound * (1.0 + 1e-12)
    if not ok_steps:
        msg = (
            f"largest step size {psi.max_step:.6g} exceeds the admissible bound "
            f"(1 - nu) / (2 ell_V) = {bound:.6g}"
        )
        if params.enforce_admissibility:
            raise ConfigurationError(msg, field="steps")
        logger.warning("%s (running anyway, admissibility enforcement is off)", msg)
    if params.variant == "sfb":
        return
    ell = op.lipschitz_ell_V * psi.max_step
    if params.rho_fixed is None and params.variant == "risfbf":
        a_star = min(0.25, params.alpha_bar)  # schedule denominator minimizer
        denom = 2.0 * (2.0 * a_star * a_star - a_star + 1.0) * (1.0 + ell)
        raw = (3.0 - params.nu) * (1.0 - params.alpha_bar) ** 2 * params.rho_scale / denom
        if raw > 1.0:
            logger.warning(
                "the relaxation schedule exceeds 1 and will be clamped; "
                "step sizes are small relative to the operator constant"
            )
    ks = list(range(min(params.max_iters, 1024)))
    if params.max_iters > 1024:
        tail = np.unique(
            np.geomspace(1024, params.max_iters, 64).astype(np.int64)
        )
        ks.extend(int(t) for t in tail if t < params.max_iters)
    worst_k, worst = -1, -np.inf
    for k in ks:
        a = alpha_schedule(params, k)
        c = _coupling_value(a, rho_schedule(params, a, ell), params.nu, ell)
        if c > worst:
            worst_k, worst = k, c
    if worst > 1e-12:
        msg = (
            f"inertia-relaxation coupling fails at k={worst_k} "
            f"(value {worst:.6g} > 0); reduce alpha_bar or the relaxation override"
        )
        if params.enforce_admissibility:
            raise ConfigurationError(msg, field="rho")
        logger.warning("%s (running anyway, admissibility enforcement is off)", msg)


_GAP_CHUNK = 16


def consensus_gap(partition: AgentPartition, lam: np.ndarray) -> float:
    """Largest pairwise distance between agent multiplier copies.

    Pairs are formed for _GAP_CHUNK agents at a time, so memory stays
    O(N m) while small networks take one vectorised pass.
    """
    n = partition.num_agents
    lammat = lam.reshape(n, partition.constraint_dim)
    worst = 0.0
    for start in range(0, n, _GAP_CHUNK):
        diffs = lammat[start : start + _GAP_CHUNK, None, :] - lammat[None, :, :]
        worst = max(worst, float((diffs * diffs).sum(axis=2).max()))
    return math.sqrt(worst)


def feasibility_gap(problem: GameProblem, u: np.ndarray) -> float:
    """Norm of the positive part of D u - b."""
    return float(np.linalg.norm(np.maximum(problem.D_stack @ u - problem.b_total, 0.0)))


class SolverTrace:
    """Per-iteration scalars of one run plus, for a diagnostics run, its recursion rows.

    One row is appended for every iteration that executes a step, at
    the decimation set by trace_every (row k describes the iterate X_k
    before the step). The trajectory hash covers X_0 and every computed
    iterate, with negative zeros canonicalized, and is therefore equal
    between any two runs that produce the same float trajectory.
    """

    def __init__(self, partition: AgentPartition):
        self.partition = partition
        self.ks: list[int] = []
        self.r_psi: list[float] = []
        self.res: list[float] = []
        self.consensus_gap: list[float] = []
        self.feas_gap: list[float] = []
        self.step_norm: list[float] = []
        self.alphas: list[float] = []
        self.rhos: list[float] = []
        self.batches: list[int] = []
        self.iterations = 0
        self.state_hash = ""
        self.final_r_psi = math.nan
        self.final_res = math.nan
        self.final_consensus_gap = math.nan
        self.final_feas_gap = math.nan
        self.recursion: _RecursionRows | None = None
        self._hasher = hashlib.sha256()

    @property
    def diag(self) -> _LastIteration | None:
        """The vectors of the last iteration a diagnostics run checked, or None."""
        return None if self.recursion is None else self.recursion.last

    def _hash_state(self, x: np.ndarray):
        # adding 0.0 maps -0.0 to +0.0 and leaves every other value bit-identical
        self._hasher.update((x + 0.0).tobytes())

    def _finalize(self):
        self.state_hash = self._hasher.hexdigest()


_REPORT_ARRAYS = ("dm", "dn", "h", "delta", "fr_slack", "yzg_slack", "coupling")


class _LastIteration(NamedTuple):
    """The vectors of one checked iteration k, each field a tuple of arrays.

    states holds X_{k-1}, X_k and X_{k+1}; Z, Y, U = V_hat(Z) - V(Z) and
    W = V_hat(Y) - V(Y) hold the step's one vector each.
    """

    states: tuple
    Z: tuple
    Y: tuple
    U: tuple
    W: tuple


class _RecursionRows:
    """The recursion quantities of a diagnostics run, evaluated as it runs.

    Each iteration appends one float to every list: the arrays of
    DiagnosticsReport, and the smallest multiplier entry of Y_k, which
    passes through the resolvent. Only the vectors of the latest
    iteration are kept (last), so memory does not grow with the run
    length beyond these floats.
    """

    def __init__(self, psi: Preconditioner, nu: float, ell_v_psi: float, reference: PrimalDualState):
        part = reference.partition
        self.reference = reference.data.copy()
        self._weights = psi.weights
        self._inv_weights = psi.inv_weights
        self._nu = nu
        self._ell = ell_v_psi
        self._lam = part.total_dim + part.dual_dim
        self.dm: list[float] = []
        self.dn: list[float] = []
        self.h: list[float] = []
        self.delta: list[float] = []
        self.fr_slack: list[float] = []
        self.yzg_slack: list[float] = []
        self.coupling: list[float] = []
        self.multiplier_floor: list[float] = []
        self.last: _LastIteration | None = None

    def _nsq(self, v: np.ndarray) -> float:
        return float(np.dot(self._weights * v, v))

    def _nsq_inv(self, v: np.ndarray) -> float:
        return float(np.dot(self._inv_weights * v, v))

    def append(self, op: ExtendedOperator, x_prev, x, x_next, mid: tuple, a: float, rho: float):
        """Evaluate iteration k from X_{k-1}, X_k, X_{k+1} and (Z, Y, V_hat(Z), V_hat(Y))."""
        z, y, vz_hat, vy_hat = mid
        nu, ell, pa = self._nu, self._ell, self.reference
        nsq, nsq_inv = self._nsq, self._nsq_inv
        vz = op.v_flat(z)
        jz = op.resolvent_flat(z - self._inv_weights * vz)
        u = vz_hat - vz
        w = vy_hat - op.v_flat(y)
        e = w - u
        rsq = float(np.linalg.norm(z - jz)) ** 2
        gain = (3.0 - nu) / (2.0 * rho * (1.0 + ell))
        dm = (3.0 - nu) * rho / (1.0 + ell) * nsq_inv(e) + nu * rho * nsq_inv(u)
        dn = 2.0 * rho * float(np.dot(w, pa - y))
        prev_coeff = a * (2.0 * a + gain * (1.0 - a))
        next_coeff = (1.0 - a) * (gain - 1.0)
        dprev = nsq(x - x_prev)
        dnext = nsq(x_next - x)
        lhs = nsq(x_next - pa)
        rhs = (
            (1.0 + a) * nsq(x - pa)
            - a * nsq(x_prev - pa)
            + dm
            + dn
            - 0.5 * nu * rho * rsq
            + prev_coeff * dprev
            - next_coeff * dnext
        )
        c = _coupling_value(a, rho, nu, ell)
        self.dm.append(dm)
        self.dn.append(dn)
        self.h.append(nsq(x - pa) - a * nsq(x_prev - pa) + next_coeff * dprev)
        self.delta.append(0.5 * nu * rho * rsq - c * dprev)
        self.fr_slack.append(rhs - lhs)
        self.yzg_slack.append((nsq_inv(u) - 0.5 * rsq) + nsq(z - y))
        self.coupling.append(c)
        self.multiplier_floor.append(float(y[self._lam :].min()))
        self.last = _LastIteration((x_prev, x, x_next), (z,), (y,), (u,), (w,))


class _RunRecorder:
    """Creates the trace of a run and is its only writer, for both executors.

    Recording, stopping tests, trajectory hashing, the recursion rows
    and finalization live here, so the single-process runner and the
    networked runner cannot drift apart in how they produce traces. A
    step only computes iterates; post_step evaluates the recursion rows
    of a diagnostics run from the mid-iteration points the step returns.
    A recorder made with r_psi_only computes r_psi alone and records
    NaN for res and both gaps, for a caller that stops on r_psi and
    reads nothing else.
    """

    def __init__(
        self,
        op: ExtendedOperator,
        psi: Preconditioner,
        params: SolverParams,
        ell_v_psi: float,
        x0: np.ndarray,
        r_psi_only: bool = False,
        reference: PrimalDualState | None = None,
    ):
        self.problem = op.problem
        self.op = op
        self.psi = psi
        self.params = params
        self.trace = SolverTrace(self.problem.partition)
        self.trace._hash_state(x0)
        if params.diagnostics:
            self.trace.recursion = _RecursionRows(psi, params.nu, ell_v_psi, reference)
        self._record = False
        self._row = None
        self._r_psi_only = r_psi_only

    def _metrics(self, x: np.ndarray) -> tuple[float, float, float, float]:
        """r_psi, res, consensus gap and feasibility gap at x."""
        r_psi = self.op.r_psi_flat(x, self.psi)
        if self._r_psi_only:
            return r_psi, math.nan, math.nan, math.nan
        part = self.problem.partition
        d = part.total_dim
        u = x[:d]
        return (
            r_psi,
            residual_res(self.problem, u),
            consensus_gap(part, x[d + part.dual_dim :]),
            feasibility_gap(self.problem, u),
        )

    def pre_step(self, k: int, x: np.ndarray, x_prev: np.ndarray) -> bool:
        """Record the row for iteration k; True means a stopping test fired."""
        params = self.params
        self._record = (k % params.trace_every) == 0
        if not self._record:
            return False
        t = self.trace
        self._row = r_psi_k, res_k, cgap_k, fgap_k = self._metrics(x)
        if (params.tol > 0.0 and r_psi_k < params.tol) or (
            params.tol_res is not None and res_k < params.tol_res
        ):
            return True
        dx = x - x_prev
        t.ks.append(k)
        t.r_psi.append(r_psi_k)
        t.res.append(res_k)
        t.consensus_gap.append(cgap_k)
        t.feas_gap.append(fgap_k)
        t.step_norm.append(float(np.sqrt(np.dot(self.psi.weights * dx, dx))))
        return False

    def post_step(
        self,
        k: int,
        x: np.ndarray,
        x_prev: np.ndarray,
        x_next: np.ndarray,
        mid: tuple | None,
        alpha: float,
        rho: float,
        size: int,
    ):
        """Check and hash X_{k+1} = x_next of the step from X_k = x and X_{k-1} = x_prev.

        mid is the step's (Z, Y, V_hat(Z), V_hat(Y)) or None.
        """
        # a non-finite entry propagates through the sum
        if not math.isfinite(float(x_next.sum())):
            raise NumericError(f"iterate became non-finite at iteration {k}")
        t = self.trace
        if self._record:
            t.alphas.append(alpha)
            t.rhos.append(rho)
            t.batches.append(size)
        t._hash_state(x_next)
        if t.recursion is not None:
            t.recursion.append(self.op, x_prev, x, x_next, mid, alpha, rho)
        t.iterations = k + 1

    def abort(self, err: GnesError, x: np.ndarray, k: int):
        """Attach the trace of the rows recorded so far to an error that ends the run."""
        try:
            self.finish(x, k, False)
        except GnesError:
            # the final metrics can fail the way the step did; keep the rows
            self.trace._finalize()
        err.trace = self.trace

    def finish(self, x: np.ndarray, k: int, stopped: bool):
        """Final metrics; a stopped run reuses those of the row whose test fired at x."""
        t = self.trace
        if stopped:
            t.iterations = k
        t.final_r_psi, t.final_res, t.final_consensus_gap, t.final_feas_gap = (
            self._row if stopped else self._metrics(x)
        )
        t._finalize()


def risfbf_step(
    op: ExtendedOperator,
    oracle: SamplingOracle,
    psi: Preconditioner,
    x: np.ndarray,
    x_prev: np.ndarray,
    alpha: float,
    rho: float,
    size: int,
    streams: AgentStreams,
    k: int,
) -> tuple[np.ndarray, tuple]:
    """One extrapolation/forward-backward/correction/relaxation cycle on flat arrays.

    Returns X_{k+1} and the mid-iteration points (Z, Y, V_hat(Z), V_hat(Y)).
    """
    invw = psi.inv_weights
    z = x + alpha * (x - x_prev)
    a = sample_V_hat(op, oracle, z, size, streams, k, PHASE_XI)
    y = op.resolvent_flat(z - invw * a)
    b = sample_V_hat(op, oracle, y, size, streams, k, PHASE_ETA)
    r = y + invw * (a - b)
    # same affine form (1 - rho) z + rho r as the per-block relaxation on agent nodes
    return (1.0 - rho) * z + rho * r, (z, y, a, b)


def sfb_step(
    op: ExtendedOperator,
    oracle: SamplingOracle,
    psi: Preconditioner,
    x: np.ndarray,
    size: int,
    streams: AgentStreams,
    k: int,
) -> np.ndarray:
    """Plain projected stochastic forward-backward step."""
    a = sample_V_hat(op, oracle, x, size, streams, k, PHASE_XI)
    return op.resolvent_flat(x - psi.inv_weights * a)


def _drive(
    problem: GameProblem,
    graph: CommGraph,
    params: SolverParams,
    x0: PrimalDualState | None,
    oracle: SamplingOracle,
    make_step,
    r_psi_only: bool = False,
    reference: PrimalDualState | None = None,
) -> tuple[PrimalDualState, SolverTrace]:
    """The iteration loop of both executors.

    make_step(op, psi) returns step(k, x, x_prev, alpha, rho, size),
    which gives X_{k+1} and its mid-iteration points (or None), drawing
    from oracle; the loop owns everything around it: step sizes and
    their checks, the initial state, the oracle's partition, the
    schedules and the recorder. r_psi_only and reference (the point
    of a diagnostics run's recursion checks) are passed to the recorder.
    """
    part = problem.partition
    op = ExtendedOperator(problem, graph)
    psi = build_preconditioner(params, op)
    _validate_run(params, op, psi)
    if x0 is None:
        x0 = PrimalDualState.zeros(part)
    if x0.partition != part:
        raise ConfigurationError("initial state has a different partition", field="x0")
    if np.any(x0.data[part.total_dim + part.dual_dim :] < 0.0):
        raise ConfigurationError("initial multiplier copies must be nonnegative", field="x0")
    if getattr(oracle, "partition", None) != part:
        raise DimensionMismatchError("oracle partition differs from the problem's", block="oracle")
    if params.diagnostics and getattr(reference, "partition", None) != part:
        raise ConfigurationError(
            "recursion diagnostics need a reference state on the problem's partition",
            field="reference",
        )
    ell = op.lipschitz_ell_V * psi.max_step
    x_prev = x = x0.data.copy()  # X_{-1} = X_0; no step writes into its inputs
    rec = _RunRecorder(op, psi, params, ell, x, r_psi_only, reference)
    step = make_step(op, psi)
    relaxed = params.variant != "sfb"
    stopped = False
    k = 0
    try:
        for k in range(params.max_iters):
            if rec.pre_step(k, x, x_prev):
                stopped = True
                break
            size = params.batch.size(k)
            alpha = alpha_schedule(params, k)
            rho = rho_schedule(params, alpha, ell) if relaxed else 1.0
            x_next, mid = step(k, x, x_prev, alpha, rho, size)
            rec.post_step(k, x, x_prev, x_next, mid, alpha, rho, size)
            x_prev = x
            x = x_next
    except GnesError as err:
        rec.abort(err, x, k)
        raise
    rec.finish(x, k, stopped)
    return PrimalDualState(part, x), rec.trace


def run(
    problem: GameProblem,
    graph: CommGraph,
    oracle: SamplingOracle,
    params: SolverParams,
    x0: PrimalDualState | None = None,
    seed: int = 0,
    reference: PrimalDualState | None = None,
) -> tuple[PrimalDualState, SolverTrace]:
    """Iterate the selected variant until the residual target or the budget.

    The stopping tests (fixed-point residual below tol, or natural
    residual below tol_res when set) are evaluated at recorded
    iterations, i.e. every trace_every-th step. The returned trace has
    one row per executed iteration at that decimation, and the final
    iterate's metrics are stored on the trace separately.

    reference is the point p, a zero of the extended inclusion, at
    which a run with params.diagnostics evaluates the recursion
    inequalities as it goes (see diagnostics_check); such a run needs
    it, and other runs ignore it.
    """
    return _drive(
        problem, graph, params, x0, oracle, _sampled_steps(oracle, params, seed), reference=reference
    )


def _sampled_steps(oracle: SamplingOracle, params: SolverParams, seed: int):
    """make_step for _drive: steps of params.variant on draws from the streams of seed."""
    streams = AgentStreams(seed)

    def make_step(op, psi):
        def step(k, x, x_prev, alpha, rho, size):
            if params.variant == "sfb":
                return sfb_step(op, oracle, psi, x, size, streams, k), None
            return risfbf_step(op, oracle, psi, x, x_prev, alpha, rho, size, streams, k)

        return step

    return make_step


def solve_ground_truth(
    problem: GameProblem,
    graph: CommGraph,
    max_iters: int = 500_000,
) -> tuple[PrimalDualState, SolverTrace]:
    """Noise-free forward-backward-forward run to r_psi < 1e-12.

    Used to obtain reference equilibria for the residual and recursion
    tests. The stopping test is checked every 10 iterations. Raises if
    the budget is exhausted before reaching the tolerance. The run
    stops on r_psi alone, so its rows carry r_psi only: res, the
    consensus gap and the feasibility gap are NaN on every row, and so
    are final_res and both final gaps.
    """
    params = SolverParams(
        variant="sfbf",
        alpha_bar=0.0,
        max_iters=max_iters,
        tol=1e-12,
        trace_every=10,
        batch=BatchSchedule(1.0, 1.2),
    )
    oracle = ZeroNoiseOracle(problem)
    state, trace = _drive(
        problem, graph, params, None, oracle, _sampled_steps(oracle, params, 0), r_psi_only=True
    )
    if trace.final_r_psi >= params.tol:
        raise NumericError(
            f"reference solve stalled at residual {trace.final_r_psi:.3e} "
            f"after {trace.iterations} iterations"
        )
    return state, trace


@dataclass
class DiagnosticsReport:
    """Evaluated recursion quantities and their violation sets.

    For each executed iteration k the report carries Delta M_k, the
    reference-dependent inner-product term Delta N_k(p), the energy
    H_k(p), and the drift delta_k(p), together with slack values of the
    per-iteration recursion inequality, the residual-versus-step bound,
    and the coupling inequality. A violation is any slack below the
    negative tolerance.
    """

    dm: np.ndarray
    dn: np.ndarray
    h: np.ndarray
    delta: np.ndarray
    fr_slack: np.ndarray
    yzg_slack: np.ndarray
    coupling: np.ndarray
    tol: float

    @property
    def fr_violations(self) -> np.ndarray:
        return np.flatnonzero(self.fr_slack < -self.tol)

    @property
    def yzg_violations(self) -> np.ndarray:
        return np.flatnonzero(self.yzg_slack < -self.tol)

    @property
    def h_violations(self) -> np.ndarray:
        return np.flatnonzero(self.h < -self.tol)

    @property
    def coupling_violations(self) -> np.ndarray:
        return np.flatnonzero(self.coupling > self.tol)

    @property
    def ok(self) -> bool:
        return (
            self.fr_violations.size == 0
            and self.yzg_violations.size == 0
            and self.h_violations.size == 0
            and self.coupling_violations.size == 0
        )


def diagnostics_check(trace: SolverTrace, p: PrimalDualState, tol: float = 1e-9) -> DiagnosticsReport:
    """The per-iteration recursion inequalities along a run, with violations at tol.

    p should be a zero of the extended inclusion (obtained from a
    high-accuracy reference solve). The run must have been executed
    with diagnostics enabled and p as its reference, which it
    evaluated the recursion at as it ran; the trace of a run that
    ended in an error carries the rows of the iterations it completed.
    """
    rows = trace.recursion
    if rows is None:
        raise ConfigurationError("run was executed without diagnostics", field="diagnostics")
    if not np.array_equal(p.data, rows.reference):
        raise ConfigurationError(
            "p differs from the reference the run was checked against", field="reference"
        )
    return DiagnosticsReport(
        **{name: np.array(getattr(rows, name), dtype=np.float64) for name in _REPORT_ARRAYS}, tol=tol
    )
