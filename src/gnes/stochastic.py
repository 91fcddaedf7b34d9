"""Mini-batch gradient estimation on counter-based random streams.

Every random draw is tied to the tuple (seed, agent, iteration, phase)
through the key of a counter-based generator, so the sample sequence is
a pure function of those coordinates. Whether agents run in one process
or are scheduled as separate tasks cannot change the numbers drawn.
Phase 0 is the first evaluation point of an iteration (xi), phase 1 the
second (eta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DimensionMismatchError, NumericError, check_field_types

__all__ = [
    "PHASE_XI",
    "PHASE_ETA",
    "BatchSchedule",
    "AgentStreams",
    "SamplingOracle",
    "ZeroNoiseOracle",
    "AdditiveGaussianOracle",
    "sample_F_hat",
    "sample_V_hat",
]

PHASE_XI = 0
PHASE_ETA = 1

_AGENT_BITS = 16
_ITER_BITS = 32
_PHASE_BITS = 16


@dataclass(frozen=True)
class BatchSchedule:
    """Polynomially growing mini-batch rule S_k = max(1, ceil(S0 (k+1)^p)).

    p must be strictly greater than 1; otherwise sum_k 1/S_k diverges
    and the variance of the gradient estimates does not go to zero fast
    enough for the stochastic solvers to converge.
    """

    scale: float = 1.0
    growth: float = 1.2

    def __post_init__(self):
        check_field_types(self, coerce=True)
        if self.scale <= 0.0:
            raise ConfigurationError("batch scale must be > 0", field="scale")
        if self.growth <= 1.0:
            raise ConfigurationError(
                "batch growth exponent must be > 1 for summable 1/S_k", field="growth"
            )

    def size(self, k: int) -> int:
        if k < 0:
            raise ConfigurationError("iteration index must be >= 0", field="k")
        return max(1, math.ceil(self.scale * (k + 1) ** self.growth))


class AgentStreams:
    """Deterministic per-agent random streams for one run.

    One Philox generator is kept per (agent, phase) slot and re-keyed
    with the packed (seed, agent, iteration, phase) tuple before each
    use, which is much cheaper than constructing generators per draw
    while keeping every iteration's draws independent of execution
    order. The state template is reused across calls; the state setter
    copies the values, so mutating the template later is safe. The
    template holds Python ints and lists, which the setter reads about
    three times faster than numpy arrays.
    """

    __slots__ = ("seed", "_slots")

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._slots: dict[tuple[int, int], tuple] = {}

    def generator(self, agent: int, iteration: int, phase: int) -> np.random.Generator:
        slot = self._slots.get((agent, phase))
        if slot is None:
            if not 0 <= agent < (1 << _AGENT_BITS):
                raise ConfigurationError(f"agent index {agent} out of key range", field="agent")
            if phase not in (PHASE_XI, PHASE_ETA):
                raise ConfigurationError(f"unknown phase {phase}", field="phase")
            # the key's second word is set to (agent, iteration, phase) before each use
            key = [self.seed & 0xFFFFFFFFFFFFFFFF, 0]
            bg = np.random.Philox(key=np.array(key, dtype=np.uint64))
            gen = np.random.Generator(bg)
            state = {
                "bit_generator": "Philox",
                "state": {"counter": [0, 0, 0, 0], "key": key},
                "buffer": [0, 0, 0, 0],
                "buffer_pos": 4,
                "has_uint32": 0,
                "uinteger": 0,
            }
            slot = (bg, gen, state, key)
            self._slots[(agent, phase)] = slot
        bg, gen, state, key = slot
        if not 0 <= iteration < (1 << _ITER_BITS):
            raise ConfigurationError(f"iteration {iteration} out of key range", field="iteration")
        key[1] = (agent << (_ITER_BITS + _PHASE_BITS)) | (iteration << _PHASE_BITS) | phase
        bg.state = state
        return gen


class SamplingOracle:
    """Per-agent stochastic gradient sampler over a fixed agent partition.

    A subclass sets partition (its problem's AgentPartition) and
    implements sample_gradient_batch, one gradient draw per row. It may
    override sample_mean_stack, which writes the mini-batch mean of each
    listed agent into that agent's rows of out, drawn from the generator
    paired with the agent; the default averages sample_gradient_batch.
    u is one point every listed agent reads, or one profile per agent,
    an (N, d) array of which agent i reads row i and keeps its own
    coordinates (partition.own_rows). Both executors and sample_mean
    sample through that one method. draws is False for an oracle that
    ignores its generators: no stream is keyed.
    """

    draws = True

    def sample_gradient_batch(
        self, agent: int, u: np.ndarray, size: int, rng: np.random.Generator
    ) -> np.ndarray:
        raise NotImplementedError

    def sample_mean_stack(self, u, size, agents, generators, out):
        """Write each listed agent's mini-batch mean at u into its rows of out."""
        slices = self.partition.primal_slices
        for i, rng in zip(agents, generators):
            point = u if u.ndim == 1 else u[i]
            out[slices[i]] = self.sample_gradient_batch(i, point, size, rng).mean(axis=0)

    def sample_mean(
        self, agent: int, u: np.ndarray, size: int, rng: np.random.Generator
    ) -> np.ndarray:
        """One agent's mini-batch mean at u, drawn from rng: its rows of sample_mean_stack."""
        own = self.partition.primal_slice(agent)
        out = np.empty(self.partition.total_dim)
        self.sample_mean_stack(u, size, (agent,), (rng,), out)
        return out[own]


class AdditiveGaussianOracle(SamplingOracle):
    """Deterministic gradient plus iid N(0, sd^2 I) noise per draw."""

    def __init__(self, problem, sd: float):
        if not (np.isfinite(sd) and sd >= 0.0):
            raise ConfigurationError("noise level must be finite and >= 0", field="sd")
        self.problem = problem
        self.partition = problem.partition
        self.sd = float(sd)

    def sample_gradient_batch(self, agent, u, size, rng):
        g = self.problem.gradient(agent, u)
        return g[None, :] + rng.normal(0.0, self.sd, size=(size, g.shape[0]))

    def sample_mean_stack(self, u, size, agents, generators, out):
        # one F call on the point or on every agent's profile
        out[...] = self.problem.stacked_gradient(u)
        if self.draws:
            slices = self.partition.primal_slices
            # the mean of size draws from N(g, sd^2 I) is N(g, sd^2 / size I),
            # so one draw per coordinate replaces size of them
            sd = self.sd / math.sqrt(size)
            for i, rng in zip(agents, generators):
                sl = slices[i]
                out[sl] += rng.normal(0.0, sd, size=sl.stop - sl.start)


class ZeroNoiseOracle(AdditiveGaussianOracle):
    """The Gaussian oracle at sd = 0: the deterministic gradient, keying no stream."""

    draws = False

    def __init__(self, problem):
        super().__init__(problem, 0.0)

    def sample_gradient_batch(self, agent, u, size, rng):
        g = self.problem.gradient(agent, u)
        return np.broadcast_to(g, (size, g.shape[0]))


def _sample_means(oracle, u, size, agents, streams, iteration, phase, out):
    """The listed agents' mini-batch means at u (a point or profiles), in their rows of out.

    Each agent draws from its stream keyed by (iteration, phase); an
    oracle that draws nothing keys none. A non-finite mean raises
    NumericError naming its agent.
    """
    if oracle.draws:
        generators = [streams.generator(i, iteration, phase) for i in agents]
    else:
        generators = [None] * len(agents)
    oracle.sample_mean_stack(u, size, agents, generators, out)
    slices = oracle.partition.primal_slices
    rows = out if len(agents) == len(slices) else np.concatenate([out[slices[i]] for i in agents])
    # a bad entry propagates through the sum; its block is located only on failure
    if not math.isfinite(float(rows.sum())):
        for i in agents:
            if not np.all(np.isfinite(out[slices[i]])):
                raise NumericError("stochastic gradient estimate is non-finite", agent=i)
        raise NumericError("stochastic gradient estimate is non-finite")
    return out


def sample_F_hat(
    oracle: SamplingOracle,
    u: np.ndarray,
    size: int,
    streams: AgentStreams,
    iteration: int,
    phase: int,
) -> np.ndarray:
    """Stacked mini-batch estimate of F(u): every agent's sample_mean at batch size `size`."""
    if size < 1:
        raise ConfigurationError("batch size must be >= 1", field="size")
    part = oracle.partition
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (part.total_dim,):
        raise DimensionMismatchError(
            f"decision vector has shape {u.shape}, expected ({part.total_dim},)",
            block="u",
        )
    out = np.empty(part.total_dim)
    return _sample_means(oracle, u, size, range(part.num_agents), streams, iteration, phase, out)


def sample_V_hat(
    op,
    oracle: SamplingOracle,
    x: np.ndarray,
    size: int,
    streams: AgentStreams,
    iteration: int,
    phase: int,
) -> np.ndarray:
    """V(x) with the F block replaced by its mini-batch estimate.

    Noise enters only the first d coordinates; the Laplacian and
    constraint blocks are exact. Each call returns a new array, so an
    estimate the caller holds stays valid across later calls.
    """
    d = op.problem.partition.total_dim
    return op.v_flat(x, sample_F_hat(oracle, x[:d], size, streams, iteration, phase))

