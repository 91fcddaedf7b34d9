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

from .errors import ConfigurationError, DimensionMismatchError, NumericError

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
        if not (np.isfinite(self.scale) and self.scale > 0.0):
            raise ConfigurationError("batch scale must be finite and > 0", field="scale")
        if not (np.isfinite(self.growth) and self.growth > 1.0):
            raise ConfigurationError(
                "batch growth exponent must be > 1 for summable 1/S_k", field="growth"
            )

    def size(self, k: int) -> int:
        if k < 0:
            raise ConfigurationError("iteration index must be >= 0", field="k")
        return max(1, math.ceil(self.scale * (k + 1) ** self.growth))


def _pack_key(seed: int, agent: int, iteration: int, phase: int) -> np.ndarray:
    if not 0 <= agent < (1 << _AGENT_BITS):
        raise ConfigurationError(f"agent index {agent} out of key range", field="agent")
    if not 0 <= iteration < (1 << _ITER_BITS):
        raise ConfigurationError(f"iteration {iteration} out of key range", field="iteration")
    if phase not in (PHASE_XI, PHASE_ETA):
        raise ConfigurationError(f"unknown phase {phase}", field="phase")
    lo = (agent << (_ITER_BITS + _PHASE_BITS)) | (iteration << _PHASE_BITS) | phase
    return np.array([seed & 0xFFFFFFFFFFFFFFFF, lo], dtype=np.uint64)


class AgentStreams:
    """Deterministic per-agent random streams for one run.

    One Philox generator is kept per (agent, phase) slot and re-keyed
    with the packed (seed, agent, iteration, phase) tuple before each
    use, which is much cheaper than constructing generators per draw
    while keeping every iteration's draws independent of execution
    order. The state template is reused across calls; the state setter
    copies the values, so mutating the template later is safe.
    """

    __slots__ = ("seed", "_slots")

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._slots: dict[tuple[int, int], tuple] = {}

    def generator(self, agent: int, iteration: int, phase: int) -> np.random.Generator:
        slot = self._slots.get((agent, phase))
        if slot is None:
            key = _pack_key(self.seed, agent, 0, phase)
            bg = np.random.Philox(key=key)
            gen = np.random.Generator(bg)
            state = bg.state
            state["state"] = {"counter": np.zeros(4, dtype=np.uint64), "key": key}
            state["buffer_pos"] = 4
            state["has_uint32"] = 0
            state["uinteger"] = 0
            slot = (bg, gen, state, key)
            self._slots[(agent, phase)] = slot
        bg, gen, state, key = slot
        if not 0 <= iteration < (1 << _ITER_BITS):
            raise ConfigurationError(
                f"iteration {iteration} out of key range", field="iteration"
            )
        key[1] = (agent << (_ITER_BITS + _PHASE_BITS)) | (iteration << _PHASE_BITS) | phase
        bg.state = state
        return gen


class SamplingOracle:
    """Per-agent stochastic gradient sampler.

    Subclasses implement sample_gradient_batch, returning one gradient
    draw per row. sample_mean must have the same distribution as the
    row average of that batch; the default computes exactly that
    average, and subclasses may override it with a shortcut that draws
    the average from its own law. draws is False for an oracle whose
    sample_mean ignores its generator, so no stream is keyed for it.
    """

    draws = True

    def sample_gradient_batch(
        self, agent: int, u: np.ndarray, size: int, rng: np.random.Generator
    ) -> np.ndarray:
        raise NotImplementedError

    def sample_mean(
        self, agent: int, u: np.ndarray, size: int, rng: np.random.Generator
    ) -> np.ndarray:
        return self.sample_gradient_batch(agent, u, size, rng).mean(axis=0)

    def sample_mean_stack(self, u, size, streams, iteration, phase, out, partition):
        """Write every agent's sample_mean into the stacked buffer.

        The single-process solver samples through here and an agent node
        through sample_mean, so an override gives this loop's floats,
        draw for draw. The oracles below do so by evaluating F once and
        keeping, for each agent, the arithmetic of its sample_mean on
        its own rows.
        """
        slices = partition.primal_slices
        for i in range(len(slices)):
            out[slices[i]] = self.sample_mean(i, u, size, streams.generator(i, iteration, phase))


class ZeroNoiseOracle(SamplingOracle):
    """Returns the deterministic gradient; draws nothing from the stream."""

    draws = False

    def __init__(self, problem):
        self.problem = problem

    def sample_gradient_batch(self, agent, u, size, rng):
        g = self.problem.gradient(agent, u)
        return np.broadcast_to(g, (size, g.shape[0]))

    def sample_mean(self, agent, u, size, rng):
        # exact: the average of identical rows is the row itself
        return self.problem.gradient(agent, u)

    def sample_mean_stack(self, u, size, streams, iteration, phase, out, partition):
        # F(u) in one call; no stream is keyed, since nothing is drawn
        out[...] = self.problem.stacked_gradient(u)


class AdditiveGaussianOracle(SamplingOracle):
    """Deterministic gradient plus iid N(0, sd^2 I) noise per draw."""

    def __init__(self, problem, sd: float):
        if not (np.isfinite(sd) and sd >= 0.0):
            raise ConfigurationError("noise level must be finite and >= 0", field="sd")
        self.problem = problem
        self.sd = float(sd)

    def sample_gradient_batch(self, agent, u, size, rng):
        g = self.problem.gradient(agent, u)
        return g[None, :] + rng.normal(0.0, self.sd, size=(size, g.shape[0]))

    def sample_mean(self, agent, u, size, rng):
        # the mean of size draws from N(g, sd^2 I) is N(g, sd^2 / size I),
        # so one draw per coordinate replaces size of them
        g = self.problem.gradient(agent, u)
        return g + rng.normal(0.0, self.sd / math.sqrt(size), size=g.shape[0])

    def sample_mean_stack(self, u, size, streams, iteration, phase, out, partition):
        # F(u) in one call, then each agent's noise from its own stream
        # added to its slice: the floats of sample_mean agent by agent
        out[...] = self.problem.stacked_gradient(u)
        sd = self.sd / math.sqrt(size)
        for i, sl in enumerate(partition.primal_slices):
            out[sl] += streams.generator(i, iteration, phase).normal(0.0, sd, size=sl.stop - sl.start)


def sample_F_hat(
    oracle: SamplingOracle,
    u: np.ndarray,
    size: int,
    streams: AgentStreams,
    iteration: int,
    phase: int,
    partition,
) -> np.ndarray:
    """Stacked mini-batch estimate of F(u): each agent's sample_mean at batch size `size`."""
    if size < 1:
        raise ConfigurationError("batch size must be >= 1", field="size")
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (partition.total_dim,):
        raise DimensionMismatchError(
            f"decision vector has shape {u.shape}, expected ({partition.total_dim},)",
            block="u",
        )
    out = np.empty(partition.total_dim)
    oracle.sample_mean_stack(u, size, streams, iteration, phase, out, partition)
    # one finiteness test on the assembled vector; a bad entry propagates
    # through the sum, and the offending block is located only on failure
    if not math.isfinite(float(out.sum())):
        slices = partition.primal_slices
        for i in range(len(slices)):
            if not np.all(np.isfinite(out[slices[i]])):
                raise NumericError("stochastic gradient estimate is non-finite", agent=i)
        raise NumericError("stochastic gradient estimate is non-finite")
    return out


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
    part = op.problem.partition
    fvals = sample_F_hat(oracle, x[: part.total_dim], size, streams, iteration, phase, part)
    return op.v_flat(x, fvals)

