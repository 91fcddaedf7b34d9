"""Networked execution of the solver with explicit message passing.

Every iteration is a fixed sequence of synchronous rounds. Agents hold
only their own blocks of the state, their own cost sampler and
constraint data, and their incident edges; anything else they use has
to arrive as a message through the exchange. The arithmetic inside each
agent reproduces, expression by expression, what the single-process
runner does on the stacked arrays, and every sum is accumulated in the
same term order (OrderedRows, laplacian_block), so the two executors
produce bit-identical trajectories and traces.

Messages come in two kinds. A "strategy" message carries one agent's
decision block to the agents whose costs depend on it (the interaction
edges). A "dual" message carries the sender's multiplier copy together
with its auxiliary variable to the communication graph neighbors. An
inertial iteration performs two broadcast rounds (one per sample
point), a plain forward-backward iteration performs one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blockvec import AgentPartition, OrderedRows, Preconditioner, PrimalDualState
from .errors import ConfigurationError, GnesError, NumericError
from .graph import CommGraph, laplacian_block
from .operators import ExtendedOperator, GameProblem
from .solver import (
    SolverParams,
    SolverTrace,
    _RunRecorder,
    _validate_run,
    alpha_schedule,
    build_preconditioner,
    rho_schedule,
)
from .stochastic import PHASE_ETA, PHASE_XI, AgentStreams, SamplingOracle

__all__ = ["Message", "Exchange", "AgentNode", "NetworkReport", "run_distributed"]


@dataclass(frozen=True)
class Message:
    """One directed payload delivery between agents."""

    sender: int
    receiver: int
    kind: str  # "strategy" or "dual"
    iteration: int
    phase: int
    payload: tuple


class Exchange:
    """Synchronous message bus restricted to the declared links.

    Strategy messages travel only along interaction edges (agent j may
    receive agent i's block only when i appears in j's interaction
    list) and dual messages only along communication graph edges.
    Attempting any other delivery raises. The bus counts traffic per
    kind; with audit=True it also keeps the metadata of every message.
    """

    def __init__(
        self,
        graph: CommGraph,
        interaction: tuple,
        audit: bool = False,
    ):
        n = graph.num_agents
        recv: list[list[int]] = [[] for _ in range(n)]
        for j in range(n):
            for i in interaction[j]:
                recv[int(i)].append(j)
        self.strategy_receivers = tuple(
            np.array(sorted(r), dtype=np.int64) for r in recv
        )
        self.dual_receivers = graph.neighbors
        self._strategy_ok = tuple(set(int(j) for j in r) for r in self.strategy_receivers)
        self._dual_ok = tuple(set(int(j) for j in r) for r in self.dual_receivers)
        self._inboxes: list[dict] = [{} for _ in range(n)]
        self.sent = {"strategy": 0, "dual": 0}
        self.log: list[tuple] | None = [] if audit else None

    def post(self, msg: Message):
        allowed = self._strategy_ok if msg.kind == "strategy" else self._dual_ok
        if msg.receiver not in allowed[msg.sender]:
            raise ConfigurationError(
                f"{msg.kind} message from agent {msg.sender} to agent {msg.receiver} "
                "is outside the declared links",
                field="exchange",
            )
        self.sent[msg.kind] += 1
        if self.log is not None:
            self.log.append(
                (
                    msg.iteration,
                    msg.phase,
                    msg.kind,
                    msg.sender,
                    msg.receiver,
                    int(sum(p.size for p in msg.payload)),
                )
            )
        self._inboxes[msg.receiver][(msg.kind, msg.sender)] = msg.payload

    def broadcast_strategy(self, sender: int, k: int, phase: int, block: np.ndarray):
        for j in self.strategy_receivers[sender]:
            self.post(Message(sender, int(j), "strategy", k, phase, (block,)))

    def broadcast_dual(self, sender: int, k: int, phase: int, lam: np.ndarray, mu: np.ndarray):
        for j in self.dual_receivers[sender]:
            self.post(Message(sender, int(j), "dual", k, phase, (lam, mu)))

    def collect(self, receiver: int) -> dict:
        box = self._inboxes[receiver]
        self._inboxes[receiver] = {}
        return box


class AgentNode:
    """One participant of the networked run.

    Holds the agent's own state blocks, its constraint matrix and
    right-hand side, its box (or prox), its step sizes, its incident
    edge weights, and its own sampling streams. Remote values enter
    exclusively through the inbox argument of the round methods.
    """

    def __init__(
        self,
        index: int,
        partition: AgentPartition,
        problem: GameProblem,
        graph: CommGraph,
        oracle: SamplingOracle,
        psi: Preconditioner,
        seed: int,
    ):
        i = index
        self.index = i
        self.partition = partition
        self.m = partition.constraint_dim
        self.dim = partition.dims[i]
        self.pull = OrderedRows.from_dense(problem.D[i].T)
        self.push = OrderedRows.from_dense(problem.D[i])
        self.b = problem.b[i]
        self.prox_fn = problem.prox_g[i] if problem.has_custom_prox else None
        self.lo = problem.box_lo[i]
        self.hi = problem.box_hi[i]
        self.interaction = problem.interaction[i]
        self.neighbors = graph.neighbors[i]
        self.neighbor_weights = graph.neighbor_weights[i]
        self.degree = graph.degrees[i]
        self.gamma = float(psi.gamma[i])
        self.sigma = float(psi.sigma[i])
        self.tau = float(psi.tau[i])
        self.oracle = oracle
        self.streams = AgentStreams(seed)
        # own blocks and per-iteration intermediates
        self.x_u = np.zeros(self.dim)
        self.x_mu = np.zeros(self.m)
        self.x_lam = np.zeros(self.m)
        self.xp_u = self.x_u.copy()
        self.xp_mu = self.x_mu.copy()
        self.xp_lam = self.x_lam.copy()
        self.z_u = self.z_mu = self.z_lam = None
        self.y_u = self.y_mu = self.y_lam = None
        self.a_u = self.a_mu = self.a_lam = None

    def load_state(self, u: np.ndarray, mu: np.ndarray, lam: np.ndarray):
        self.x_u = u.copy()
        self.x_mu = mu.copy()
        self.x_lam = lam.copy()
        self.xp_u = u.copy()
        self.xp_mu = mu.copy()
        self.xp_lam = lam.copy()

    # -- shared pieces -------------------------------------------------

    def _estimate_gradient(self, point_u: np.ndarray, inbox: dict, k: int, phase: int, size: int) -> np.ndarray:
        """Mini-batch cost gradient at the exchanged decision profile."""
        part = self.partition
        u_buf = np.zeros(part.total_dim)
        u_buf[part.primal_slice(self.index)] = point_u
        for j in self.interaction:
            u_buf[part.primal_slice(int(j))] = inbox[("strategy", int(j))][0]
        rng = self.streams.generator(self.index, k, phase)
        est = self.oracle.sample_mean(self.index, u_buf, size, rng)
        # a non-finite entry propagates through the sum
        if not math.isfinite(float(est.sum())):
            raise NumericError("stochastic gradient estimate is non-finite", agent=self.index)
        return est

    def _operator_blocks(
        self,
        point_u: np.ndarray,
        point_mu: np.ndarray,
        point_lam: np.ndarray,
        inbox: dict,
        k: int,
        phase: int,
        size: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """This agent's three blocks of the sampled operator value."""
        fhat = self._estimate_gradient(point_u, inbox, k, phase, size)
        nbrs = self.neighbors
        if nbrs.size:
            lam_rows = np.stack([inbox[("dual", int(j))][0] for j in nbrs])
            mu_rows = np.stack([inbox[("dual", int(j))][1] for j in nbrs])
            diff_rows = lam_rows - mu_rows
        else:
            lam_rows = np.zeros((0, self.m))
            diff_rows = np.zeros((0, self.m))
        v_u = fhat + self.pull(point_lam)
        v_mu = laplacian_block(self.degree, self.neighbor_weights, point_lam, lam_rows)
        v_lam = (
            self.b
            + laplacian_block(
                self.degree, self.neighbor_weights, point_lam - point_mu, diff_rows
            )
        ) - self.push(point_u)
        return v_u, v_mu, v_lam

    def _prox(self, v: np.ndarray) -> np.ndarray:
        if self.prox_fn is not None:
            return self.prox_fn(v, self.gamma)
        return np.clip(v, self.lo, self.hi)

    # -- inertial forward-backward-forward rounds ----------------------

    def extrapolate(self, alpha: float):
        self.z_u = self.x_u + alpha * (self.x_u - self.xp_u)
        self.z_mu = self.x_mu + alpha * (self.x_mu - self.xp_mu)
        self.z_lam = self.x_lam + alpha * (self.x_lam - self.xp_lam)

    def post_z(self, bus: Exchange, k: int):
        bus.broadcast_strategy(self.index, k, PHASE_XI, self.z_u)

    def post_z_dual(self, bus: Exchange, k: int):
        bus.broadcast_dual(self.index, k, PHASE_XI, self.z_lam, self.z_mu)

    def forward_backward(self, inbox: dict, k: int, size: int):
        self.a_u, self.a_mu, self.a_lam = self._operator_blocks(
            self.z_u, self.z_mu, self.z_lam, inbox, k, PHASE_XI, size
        )
        self.y_u = self._prox(self.z_u - self.gamma * self.a_u)
        self.y_mu = self.z_mu - self.sigma * self.a_mu
        self.y_lam = np.maximum(self.z_lam - self.tau * self.a_lam, 0.0)

    def post_y(self, bus: Exchange, k: int):
        bus.broadcast_strategy(self.index, k, PHASE_ETA, self.y_u)

    def post_y_dual(self, bus: Exchange, k: int):
        bus.broadcast_dual(self.index, k, PHASE_ETA, self.y_lam, self.y_mu)

    def correct_and_relax(self, inbox: dict, k: int, size: int, rho: float):
        b_u, b_mu, b_lam = self._operator_blocks(
            self.y_u, self.y_mu, self.y_lam, inbox, k, PHASE_ETA, size
        )
        r_u = self.y_u + self.gamma * (self.a_u - b_u)
        r_mu = self.y_mu + self.sigma * (self.a_mu - b_mu)
        r_lam = self.y_lam + self.tau * (self.a_lam - b_lam)
        self.xp_u, self.xp_mu, self.xp_lam = self.x_u, self.x_mu, self.x_lam
        self.x_u = (1.0 - rho) * self.z_u + rho * r_u
        self.x_mu = (1.0 - rho) * self.z_mu + rho * r_mu
        self.x_lam = (1.0 - rho) * self.z_lam + rho * r_lam

    # -- plain forward-backward rounds ----------------------------------

    def post_x(self, bus: Exchange, k: int):
        bus.broadcast_strategy(self.index, k, PHASE_XI, self.x_u)

    def post_x_dual(self, bus: Exchange, k: int):
        bus.broadcast_dual(self.index, k, PHASE_XI, self.x_lam, self.x_mu)

    def fb_update(self, inbox: dict, k: int, size: int):
        a_u, a_mu, a_lam = self._operator_blocks(
            self.x_u, self.x_mu, self.x_lam, inbox, k, PHASE_XI, size
        )
        self.xp_u, self.xp_mu, self.xp_lam = self.x_u, self.x_mu, self.x_lam
        self.x_u = self._prox(self.x_u - self.gamma * a_u)
        self.x_mu = self.x_mu - self.sigma * a_mu
        self.x_lam = np.maximum(self.x_lam - self.tau * a_lam, 0.0)


@dataclass
class NetworkReport:
    """Traffic accounting of one networked run."""

    strategy_messages: int
    dual_messages: int
    messages_per_iteration: int
    iterations: int
    log: list | None

    @property
    def total_messages(self) -> int:
        return self.strategy_messages + self.dual_messages


def run_distributed(
    problem: GameProblem,
    graph: CommGraph,
    oracle: SamplingOracle,
    params: SolverParams,
    x0: PrimalDualState | None = None,
    seed: int = 0,
    audit: bool = False,
) -> tuple[PrimalDualState, SolverTrace, NetworkReport]:
    """Run the selected variant on the agent network.

    Produces the same iterates, trace, and trajectory hash as run()
    with the same arguments. The returned report carries the message
    counters (and the full metadata log when audit is set).
    """
    part = problem.partition
    op = ExtendedOperator(problem, graph)  # audit station only: metrics and stopping
    psi = build_preconditioner(params, op)
    _validate_run(params, op, psi)
    if params.diagnostics:
        raise ConfigurationError(
            "recursion diagnostics are produced by the single-process runner",
            field="diagnostics",
        )
    if x0 is None:
        x0 = PrimalDualState.zeros(part)
    if x0.partition != part:
        raise ConfigurationError("initial state has a different partition", field="x0")
    d = part.total_dim
    nm = part.dual_dim
    m = part.constraint_dim
    if np.any(x0.data[d + nm :] < 0.0):
        raise ConfigurationError("initial multiplier copies must be nonnegative", field="x0")
    n = part.num_agents
    nodes = [AgentNode(i, part, problem, graph, oracle, psi, seed) for i in range(n)]
    for i, node in enumerate(nodes):
        node.load_state(
            x0.data[part.primal_slice(i)],
            x0.data[d + i * m : d + (i + 1) * m],
            x0.data[d + nm + i * m : d + nm + (i + 1) * m],
        )
    bus = Exchange(graph, problem.interaction, audit=audit)
    per_iter = (1 if params.variant == "sfb" else 2) * (
        sum(len(r) for r in bus.strategy_receivers)
        + sum(len(r) for r in bus.dual_receivers)
    )

    def assemble() -> np.ndarray:
        arr = np.empty(part.state_dim)
        for i, node in enumerate(nodes):
            arr[part.primal_slice(i)] = node.x_u
            arr[d + i * m : d + (i + 1) * m] = node.x_mu
            arr[d + nm + i * m : d + nm + (i + 1) * m] = node.x_lam
        return arr

    trace = SolverTrace(part)
    rec = _RunRecorder(problem, op, psi, params, trace)
    ell = op.lipschitz_ell_V * psi.max_step
    x = assemble()
    x_prev = x.copy()
    rec.start(x)
    stopped = False
    k = 0
    try:
        for k in range(params.max_iters):
            if rec.pre_step(k, x, x_prev):
                stopped = True
                break
            size = params.batch.size(k)
            if params.variant == "sfb":
                alpha = 0.0
                rho = 1.0
                for node in nodes:
                    node.post_x(bus, k)
                for node in nodes:
                    node.post_x_dual(bus, k)
                boxes = [bus.collect(i) for i in range(n)]
                for node, box in zip(nodes, boxes):
                    node.fb_update(box, k, size)
            else:
                alpha = alpha_schedule(params, k)
                rho = rho_schedule(params, alpha, ell)
                for node in nodes:
                    node.extrapolate(alpha)
                for node in nodes:
                    node.post_z(bus, k)
                for node in nodes:
                    node.post_z_dual(bus, k)
                boxes = [bus.collect(i) for i in range(n)]
                for node, box in zip(nodes, boxes):
                    node.forward_backward(box, k, size)
                for node in nodes:
                    node.post_y(bus, k)
                for node in nodes:
                    node.post_y_dual(bus, k)
                boxes = [bus.collect(i) for i in range(n)]
                for node, box in zip(nodes, boxes):
                    node.correct_and_relax(box, k, size, rho)
            x_new = assemble()
            rec.post_step(k, x_new, alpha, rho, size)
            x_prev = x
            x = x_new
    except GnesError as err:
        rec.abort(err, x, k)
        raise
    rec.finish(x, k, stopped)
    report = NetworkReport(
        strategy_messages=bus.sent["strategy"],
        dual_messages=bus.sent["dual"],
        messages_per_iteration=per_iter,
        iterations=trace.iterations,
        log=bus.log,
    )
    return PrimalDualState(part, x), trace, report
