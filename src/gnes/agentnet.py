"""Networked execution of the solver with explicit message passing.

Every iteration is a fixed sequence of synchronous rounds. Agents hold
only their own blocks of the state, their own cost sampler and
constraint data, and their incident edges; anything else they use has
to arrive as a message through the exchange. The operator value V is
F plus one sparse affine map A x + c (operators.ExtendedOperator). An
agent node evaluates its own rows of A on a local vector of its own
blocks and the multiplier blocks its graph neighbours sent, with the
columns kept in ascending global order; A is an OrderedRows, so those
rows give the single-process runner's floats by construction. A node
samples its rows of F-hat through the runner's own sampling call, with
its index as the only agent and its own streams, so both executors run
the same oracle code on the same draws. The rest of a node's arithmetic
repeats the runner's elementwise expressions on the node's rows, so the
two executors produce bit-identical trajectories and traces.
Everything around the step (step sizes and their checks, the initial
state, the schedules, the stopping tests and the whole trace) is the
single-process runner's loop, solver._drive; this module supplies only
the step, a round of messages per sample point.

Messages come in two kinds. A "strategy" message carries one agent's
decision block to the agents whose costs depend on it (the interaction
edges). A "dual" message carries the sender's multiplier copy together
with its auxiliary variable to the communication graph neighbors. An
inertial iteration performs two broadcast rounds (one per sample
point), a plain forward-backward iteration performs one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blockvec import Preconditioner, PrimalDualState
from .errors import ConfigurationError
from .graph import CommGraph
from .operators import ExtendedOperator, GameProblem
from .solver import SolverParams, SolverTrace, _drive
from .stochastic import PHASE_ETA, PHASE_XI, AgentStreams, SamplingOracle, _sample_means

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
    list) and dual messages only along communication graph edges. The
    links are fixed at construction: broadcast hands one payload to
    every declared receiver of its sender, and post delivers a single
    Message after checking its link, raising for any other delivery.
    The bus counts traffic per kind; with audit=True it also keeps the
    metadata of every delivery.
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
                if not (0 <= int(i) < n and int(i) != j):
                    raise ConfigurationError(
                        f"interaction list of agent {j} must name other agents", field="exchange"
                    )
                recv[int(i)].append(j)
        self.receivers = {
            "strategy": tuple(tuple(sorted(r)) for r in recv),
            "dual": tuple(tuple(int(j) for j in r) for r in graph.neighbors),
        }
        self._links = {kind: tuple(map(frozenset, rs)) for kind, rs in self.receivers.items()}
        self._inboxes: list[dict] = [{} for _ in range(n)]
        self.sent = {"strategy": 0, "dual": 0}
        self.log: list[tuple] | None = [] if audit else None

    def post(self, msg: Message):
        links = self._links.get(msg.kind)
        if links is None or not 0 <= msg.sender < len(links) or msg.receiver not in links[msg.sender]:
            raise ConfigurationError(
                f"{msg.kind} message from agent {msg.sender} to agent {msg.receiver} "
                "is outside the declared links",
                field="exchange",
            )
        self._deliver(msg.sender, (msg.receiver,), msg.kind, msg.iteration, msg.phase, msg.payload)

    def broadcast(self, sender: int, kind: str, k: int, phase: int, payload: tuple):
        """Deliver one payload to every declared receiver of sender's kind of message."""
        self._deliver(sender, self.receivers[kind][sender], kind, k, phase, payload)

    def _deliver(self, sender: int, receivers: tuple, kind: str, k: int, phase: int, payload: tuple):
        self.sent[kind] += len(receivers)
        if self.log is not None:
            size = int(sum(p.size for p in payload))
            self.log.extend((k, phase, kind, sender, j, size) for j in receivers)
        key = (kind, sender)
        inboxes = self._inboxes
        for j in receivers:
            inboxes[j][key] = payload

    def collect(self, receiver: int) -> dict:
        box = self._inboxes[receiver]
        self._inboxes[receiver] = {}
        return box


class AgentNode:
    """One participant of the networked run.

    Holds the agent's own state as one vector [u_i | mu_i | lambda_i]
    (rows, its positions in the flat state), its rows of the operator's
    affine part, which carry only D_i, b_i and its incident edge
    weights, its rows of the state box K (T is K's normal cone, so the
    resolvent is the projection onto K), its step sizes, and its own
    sampling streams. Remote values enter exclusively through the inbox
    argument of the round methods.
    """

    def __init__(
        self,
        index: int,
        op: ExtendedOperator,
        oracle: SamplingOracle,
        psi: Preconditioner,
        seed: int,
    ):
        problem = op.problem
        part = problem.partition
        i = index
        m = part.constraint_dim
        d = part.total_dim
        nm = part.dual_dim
        dim = part.dims[i]
        own = part.primal_slices[i]
        within = np.arange(m)
        self.index = i
        self.dim = dim
        self.rows = np.concatenate(
            (np.arange(own.start, own.stop), d + i * m + within, d + nm + i * m + within)
        )
        # local columns: own u, then mu and lambda of self and neighbours,
        # all in ascending global order
        peers = np.union1d(op.graph.neighbors[i], [i])
        dual_at = (peers[:, None] * m + within).ravel()
        cols = np.concatenate((np.arange(own.start, own.stop), d + dual_at, d + nm + dual_at))
        self.kernel = op.affine.restrict(self.rows, cols)
        self.offset = op.offset[self.rows]
        self.steps = psi.inv_weights[self.rows]
        self.lo = op.lo[self.rows]
        self.hi = op.hi[self.rows]
        # where the own and the received blocks go in the local vector
        self._local = np.empty(cols.size)
        k = peers.size
        mu_at = [slice(dim + p * m, dim + (p + 1) * m) for p in range(k)]
        lam_at = [slice(dim + (k + p) * m, dim + (k + p + 1) * m) for p in range(k)]
        me = int(np.searchsorted(peers, i))
        self._own_at = np.r_[0:dim, mu_at[me], lam_at[me]]
        self._dual_slots = tuple(
            (("dual", int(j)), lam_at[p], mu_at[p]) for p, j in enumerate(peers) if j != i
        )
        # the decision profile the oracle reads: own and partners' blocks,
        # zeros elsewhere
        self._profile = np.zeros(d)
        self._fhat = np.empty(d)
        self._own = own
        self._strategy_slots = tuple(
            (("strategy", int(j)), part.primal_slices[int(j)]) for j in problem.interaction[i]
        )
        self._lam = slice(dim + m, None)
        self.oracle = oracle
        self.streams = AgentStreams(seed)
        self.x = self.xp = self.z = self.y = self.a = None

    def load_state(self, x: np.ndarray):
        """Start from this agent's rows of a flat state."""
        self.x = self.xp = np.array(x, dtype=np.float64)

    def blocks(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Views of the u, mu and lambda blocks of one of this agent's vectors."""
        dim = self.dim
        return v[:dim], v[dim : self._lam.start], v[self._lam]

    # -- shared pieces -------------------------------------------------

    def operator_value(self, point: np.ndarray, inbox: dict, k: int, phase: int, size: int) -> np.ndarray:
        """This agent's rows of the sampled operator value at point and the received blocks."""
        profile = self._profile
        profile[self._own] = point[: self.dim]
        for key, at in self._strategy_slots:
            profile[at] = inbox[key][0]
        fhat = _sample_means(self.oracle, profile, size, (self.index,), self.streams, k, phase, self._fhat)
        local = self._local
        local[self._own_at] = point
        for key, lam_at, mu_at in self._dual_slots:
            lam, mu = inbox[key]
            local[lam_at] = lam
            local[mu_at] = mu
        v = self.kernel(local)
        v += self.offset
        v[: self.dim] += fhat[self._own]
        return v

    def _resolvent(self, v: np.ndarray) -> np.ndarray:
        """Projection onto this agent's rows of the state box; in place."""
        return np.clip(v, self.lo, self.hi, out=v)

    def post(self, bus: Exchange, k: int, phase: int, u: np.ndarray, mu: np.ndarray, lam: np.ndarray):
        """Send u to the interaction partners and (lambda, mu) to the graph neighbours."""
        bus.broadcast(self.index, "strategy", k, phase, (u,))
        bus.broadcast(self.index, "dual", k, phase, (lam, mu))

    # -- inertial forward-backward-forward rounds ----------------------

    def extrapolate(self, alpha: float):
        self.z = self.x + alpha * (self.x - self.xp)

    def forward_backward(self, inbox: dict, k: int, size: int):
        self.a = self.operator_value(self.z, inbox, k, PHASE_XI, size)
        self.y = self._resolvent(self.z - self.steps * self.a)

    def correct_and_relax(self, inbox: dict, k: int, size: int, rho: float):
        b = self.operator_value(self.y, inbox, k, PHASE_ETA, size)
        r = self.y + self.steps * (self.a - b)
        self.xp = self.x
        self.x = (1.0 - rho) * self.z + rho * r

    # -- plain forward-backward rounds ----------------------------------

    def fb_update(self, inbox: dict, k: int, size: int):
        a = self.operator_value(self.x, inbox, k, PHASE_XI, size)
        self.xp = self.x
        self.x = self._resolvent(self.x - self.steps * a)


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
    with the same arguments: both go through the same loop, and only
    the step differs. The returned report carries the message counters
    (and the full metadata log when audit is set).
    """
    if params.diagnostics:
        raise ConfigurationError(
            "recursion diagnostics are produced by the single-process runner",
            field="diagnostics",
        )
    part = problem.partition
    n = part.num_agents
    bus = Exchange(graph, problem.interaction, audit=audit)
    per_iter = (1 if params.variant == "sfb" else 2) * sum(
        len(r) for receivers in bus.receivers.values() for r in receivers
    )

    def make_step(op, psi, x0):
        # the nodes take their rows of V's affine part from op
        nodes = [AgentNode(i, op, oracle, psi, seed) for i in range(n)]
        for node in nodes:
            node.load_state(x0[node.rows])
        rows = np.concatenate([node.rows for node in nodes])

        def exchange(k: int, phase: int, points: list) -> list:
            for node, point in zip(nodes, points):
                node.post(bus, k, phase, *node.blocks(point))
            return [bus.collect(i) for i in range(n)]

        def step(k, x, x_prev, alpha, rho, size):
            if params.variant == "sfb":
                boxes = exchange(k, PHASE_XI, [node.x for node in nodes])
                for node, box in zip(nodes, boxes):
                    node.fb_update(box, k, size)
            else:
                for node in nodes:
                    node.extrapolate(alpha)
                boxes = exchange(k, PHASE_XI, [node.z for node in nodes])
                for node, box in zip(nodes, boxes):
                    node.forward_backward(box, k, size)
                boxes = exchange(k, PHASE_ETA, [node.y for node in nodes])
                for node, box in zip(nodes, boxes):
                    node.correct_and_relax(box, k, size, rho)
            x_next = np.empty(part.state_dim)
            x_next[rows] = np.concatenate([node.x for node in nodes])
            return x_next, None

        return step

    state, trace = _drive(problem, graph, params, x0, oracle, make_step)
    report = NetworkReport(
        strategy_messages=bus.sent["strategy"],
        dual_messages=bus.sent["dual"],
        messages_per_iteration=per_iter,
        iterations=trace.iterations,
        log=bus.log,
    )
    return state, trace, report
