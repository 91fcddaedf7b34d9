"""Networked execution of the solver with explicit message passing.

Every iteration is a fixed sequence of synchronous phases. An agent
holds only its own blocks of the state, its own sampling streams and
constraint data, and its incident edges; anything else it uses arrives
as a message through the exchange. The operator value V is F plus one
sparse affine map A x + c (operators.ExtendedOperator).

All agents run a phase together, as one pass over stacked arrays, and
every read stays local to its agent:

- state: the agents' rows live in one array in global state order, and
  each elementwise update of a row reads only that row;
- exchange: the bus copies every declared link's payload, the sender's
  blocks, into the link's slot of one inbox array, in one indexed copy
  whose indices are fixed when the run starts;
- locality: agent i's oracle profile (row i of an N x d array) and its
  local vector are filled only from its own rows and from the inbox
  slots of links into i; the nodes check their fill indices for that
  when they are built;
- kernel: agent i applies its rows of A to its local vector, whose
  columns keep their ascending global order. The node kernels form one
  block-diagonal OrderedRows, so every row gives the runner's floats.

F-hat is sampled through the runner's own sampling call on the rows of
profiles, each agent from its own stream, so both executors run the
same oracle code on the same draws; the rest repeats the runner's
elementwise expressions. The two executors therefore produce
bit-identical trajectories and traces. Everything around the step (step
sizes and their checks, the initial state, the schedules, the stopping
tests, the recursion diagnostics and the whole trace) is the
single-process runner's loop, solver._drive; this module supplies only
the step, one exchange per sample point.

Messages come in two kinds. A "strategy" message carries one agent's
decision block to the agents whose costs depend on it (the interaction
edges). A "dual" message carries the sender's multiplier copy together
with its auxiliary variable to the communication graph neighbors. An
inertial iteration performs two exchanges (one per sample point), a
plain forward-backward iteration performs one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blockvec import AgentPartition, OrderedRows, Preconditioner, PrimalDualState
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
    links are fixed at construction, sender by sender, strategy before
    dual, and each owns one slot of the inbox array: the state rows of
    its payload, the sender's u block or its lambda and mu blocks (rows
    names the state row of every inbox entry, receiver its reader).
    deliver copies every link's payload out of a state vector into its
    slot in one indexed copy; post delivers a single Message after
    checking its link, raising for any other delivery. The bus counts
    one message per delivered link and kind; with audit=True it also
    keeps the metadata of every delivery.
    """

    def __init__(self, partition: AgentPartition, graph: CommGraph, interaction: tuple, audit: bool = False):
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
        d, nm, m = partition.total_dim, partition.dual_dim, partition.constraint_dim
        carried = {
            "strategy": lambda i: np.r_[partition.primal_slices[i]],
            "dual": lambda i: np.r_[d + nm + i * m : d + nm + (i + 1) * m, d + i * m : d + (i + 1) * m],
        }
        links = [
            (kind, i, j) for i in range(n) for kind in ("strategy", "dual") for j in self.receivers[kind][i]
        ]
        payloads = [carried[kind](i) for kind, i, _ in links]
        sizes = [p.size for p in payloads]
        starts = np.cumsum([0] + sizes)
        self.slots = {link: slice(int(a), int(b)) for link, a, b in zip(links, starts, starts[1:])}
        self.rows = np.concatenate(payloads) if links else np.zeros(0, dtype=np.int64)
        self.receiver = np.repeat(np.array([j for _, _, j in links], dtype=np.int64), sizes)
        self.inbox = np.empty(self.rows.size)
        self._metadata = tuple((kind, i, j, size) for (kind, i, j), size in zip(links, sizes))
        self._per_kind = tuple((kind, sum(len(r) for r in rs)) for kind, rs in self.receivers.items())
        self.sent = {"strategy": 0, "dual": 0}
        self.log: list[tuple] | None = [] if audit else None

    def post(self, msg: Message):
        link = (msg.kind, msg.sender, msg.receiver)
        slot = self.slots.get(link)
        if slot is None:
            raise ConfigurationError(
                f"{msg.kind} message from agent {msg.sender} to agent {msg.receiver} "
                "is outside the declared links",
                field="exchange",
            )
        self.inbox[slot] = np.concatenate(msg.payload)
        self._count(msg.iteration, msg.phase, ((*link, slot.stop - slot.start),), ((msg.kind, 1),))

    def deliver(self, k: int, phase: int, point: np.ndarray):
        """Every link's payload, the senders' rows of point, into its inbox slot."""
        np.take(point, self.rows, out=self.inbox)
        self._count(k, phase, self._metadata, self._per_kind)

    def _count(self, k: int, phase: int, deliveries: tuple, per_kind: tuple):
        for kind, count in per_kind:
            self.sent[kind] += count
        if self.log is not None:
            self.log.extend((k, phase, kind, i, j, size) for kind, i, j, size in deliveries)


class AgentNode:
    """All participants of the networked run, held as one stack.

    One instance holds the N agent nodes, and each phase method
    (forward_backward, correct_and_relax, fb_update) runs that phase for
    every node in one call. Node i's state is its rows
    [u_i | mu_i | lambda_i] of the global-order arrays the phases take;
    it also holds its rows of the operator's affine part, which carry
    only D_i, b_i and its incident edge weights, its rows of the state
    box K (T is K's normal cone, so the resolvent is the projection onto
    K), its step sizes, and its own sampling streams. Remote values
    enter only through the bus inbox: node i's profile and local vector
    are filled from its own rows of the phase's point and from the
    inbox slots of links into i, and construction checks the fill
    indices for that.
    """

    def __init__(
        self, op: ExtendedOperator, oracle: SamplingOracle, psi: Preconditioner, seed: int, audit: bool
    ):
        problem = op.problem
        part = problem.partition
        n, m, d, nm, sd = part.num_agents, part.constraint_dim, part.total_dim, part.dual_dim, part.state_dim
        self.bus = bus = Exchange(part, op.graph, problem.interaction, audit=audit)
        # the node of every state row
        agents = np.arange(n)
        owner = np.concatenate((np.repeat(agents, part.dims), np.repeat(agents, m), np.repeat(agents, m)))
        within = np.arange(m)
        # what each node reads: the blocks of its profile row (its own and
        # its interaction partners'), then its local vector (own u, then mu
        # and lambda of itself and its graph neighbours, ascending)
        dst, reader, row, kernels, at = [], [], [], [], n * d
        for i in range(n):
            partners = np.union1d(problem.interaction[i], [i])
            profile = np.concatenate([np.r_[part.primal_slices[j]] for j in partners])
            peers = (np.union1d(op.graph.neighbors[i], [i])[:, None] * m + within).ravel()
            cols = np.concatenate((np.r_[part.primal_slices[i]], d + peers, d + nm + peers))
            mine = np.flatnonzero(owner == i)
            kernels.append((mine, op.affine.restrict(mine, cols)))
            dst += [i * d + profile, at + np.arange(cols.size)]
            row += [profile, cols]
            reader.append(np.full(profile.size + cols.size, i))
            at += cols.size
        dst, reader, row = np.concatenate(dst), np.concatenate(reader), np.concatenate(row)
        # node i finds row r among its own rows of the point or in an inbox
        # slot addressed to it, looked up by the key i * sd + r
        keys = np.concatenate((owner * sd + np.arange(sd), bus.receiver * sd + bus.rows))
        order = np.argsort(keys)
        found = order[np.searchsorted(keys[order], reader * sd + row).clip(max=keys.size - 1)]
        held = found < sd
        self._own_dst, self._own_src = dst[held], found[held]
        self._in_dst, self._in_src = dst[~held], found[~held] - sd
        if not (
            np.array_equal(keys[found], reader * sd + row)
            and np.array_equal(owner[self._own_src], reader[held])
            and np.array_equal(bus.receiver[self._in_src], reader[~held])
        ):
            raise AssertionError("an agent node reads a row it neither holds nor receives")
        # profile rows stay zero where a node reads nothing
        self._work = np.zeros(at)
        self._profiles = self._work[: n * d].reshape(n, d)
        self._local = self._work[n * d :]
        self.kernel = OrderedRows.block_diagonal(sd, kernels)
        self.offset = op.offset
        self.steps = psi.inv_weights
        self.lo = op.lo
        self.hi = op.hi
        self.oracle = oracle
        self.streams = AgentStreams(seed)
        self._agents = range(n)
        self._d = d
        self._fhat = np.empty(d)

    def operator_value(self, point: np.ndarray, k: int, phase: int, size: int) -> np.ndarray:
        """Every node's rows of the sampled operator value at its rows of point, after one exchange."""
        bus = self.bus
        bus.deliver(k, phase, point)
        work = self._work
        work[self._own_dst] = point[self._own_src]
        work[self._in_dst] = bus.inbox[self._in_src]
        profiles = self._profiles
        fhat = _sample_means(self.oracle, profiles, size, self._agents, self.streams, k, phase, self._fhat)
        v = self.kernel(self._local)
        v += self.offset
        v[: self._d] += fhat
        return v

    def _resolvent(self, v: np.ndarray) -> np.ndarray:
        """Projection onto every node's rows of the state box; in place."""
        return np.clip(v, self.lo, self.hi, out=v)

    # -- inertial forward-backward-forward phases ----------------------

    def forward_backward(self, z: np.ndarray, k: int, size: int) -> tuple[np.ndarray, np.ndarray]:
        """a = V_hat(z, xi) and y = J(z - steps a), for every node."""
        a = self.operator_value(z, k, PHASE_XI, size)
        return a, self._resolvent(z - self.steps * a)

    def correct_and_relax(self, z, y, a, k: int, size: int, rho: float) -> tuple[np.ndarray, np.ndarray]:
        """b = V_hat(y, eta) and the relaxed correction X_{k+1}, for every node."""
        b = self.operator_value(y, k, PHASE_ETA, size)
        r = y + self.steps * (a - b)
        return b, (1.0 - rho) * z + rho * r

    # -- plain forward-backward phase ----------------------------------

    def fb_update(self, x: np.ndarray, k: int, size: int) -> np.ndarray:
        a = self.operator_value(x, k, PHASE_XI, size)
        return self._resolvent(x - self.steps * a)


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
    reference: PrimalDualState | None = None,
) -> tuple[PrimalDualState, SolverTrace, NetworkReport]:
    """Run the selected variant on the agent network.

    Produces the same iterates, trace, and trajectory hash as run()
    with the same arguments, recursion diagnostics at reference
    included: both go through the same loop, and only the step differs.
    The returned report carries the message counters (and the full
    metadata log when audit is set).
    """
    nodes = None

    def make_step(op, psi):
        nonlocal nodes
        nodes = AgentNode(op, oracle, psi, seed, audit)

        def step(k, x, x_prev, alpha, rho, size):
            if params.variant == "sfb":
                return nodes.fb_update(x, k, size), None
            z = x + alpha * (x - x_prev)
            a, y = nodes.forward_backward(z, k, size)
            b, x_next = nodes.correct_and_relax(z, y, a, k, size, rho)
            return x_next, (z, y, a, b)

        return step

    state, trace = _drive(problem, graph, params, x0, oracle, make_step, reference=reference)
    bus = nodes.bus
    report = NetworkReport(
        strategy_messages=bus.sent["strategy"],
        dual_messages=bus.sent["dual"],
        messages_per_iteration=(1 if params.variant == "sfb" else 2) * len(bus.slots),
        iterations=trace.iterations,
        log=bus.log,
    )
    return state, trace, report
