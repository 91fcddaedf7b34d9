"""Block-partitioned vectors, the diagonal preconditioner geometry, and
the ordered sparse product both executors evaluate V's affine part with.

All solver state lives in flat float64 arrays. A partition descriptor
records how the primal vector splits across agents and how long the
stacked dual copies are, so block views can be taken without copying.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, DimensionMismatchError

__all__ = [
    "AgentPartition",
    "PrimalDualState",
    "Preconditioner",
    "OrderedRows",
    "psi_inner",
    "psi_norm",
]


@dataclass(frozen=True)
class AgentPartition:
    """Shape of a game with per-agent decision blocks and shared constraints.

    Parameters
    ----------
    dims : tuple of int
        Decision dimension of each agent, all >= 1.
    constraint_dim : int
        Number m of shared affine constraint rows, >= 1.

    Attributes
    ----------
    total_dim : int
        Total primal dimension d = sum of the agent dims.
    dual_dim : int
        Length of one stacked dual vector, N * m.
    state_dim : int
        Length of a full primal-dual state, d + 2 N m.
    """

    dims: tuple[int, ...]
    constraint_dim: int

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if len(dims) < 1:
            raise ConfigurationError("partition needs at least one agent", field="dims")
        if any(d < 1 for d in dims):
            raise ConfigurationError("every agent dimension must be >= 1", field="dims")
        if int(self.constraint_dim) < 1:
            raise ConfigurationError("constraint dimension must be >= 1", field="constraint_dim")
        object.__setattr__(self, "constraint_dim", int(self.constraint_dim))
        offsets = np.zeros(len(dims) + 1, dtype=np.int64)
        np.cumsum(dims, out=offsets[1:])
        slices = tuple(
            slice(int(offsets[i]), int(offsets[i + 1])) for i in range(len(dims))
        )
        object.__setattr__(self, "primal_slices", slices)
        # plain ints computed once: the sampling path reads them on every call
        total_dim = int(offsets[-1])
        dual_dim = len(dims) * self.constraint_dim
        object.__setattr__(self, "total_dim", total_dim)
        object.__setattr__(self, "dual_dim", dual_dim)
        object.__setattr__(self, "state_dim", total_dim + 2 * dual_dim)

    @property
    def num_agents(self) -> int:
        return len(self.dims)

    def primal_slice(self, i: int) -> slice:
        self._check_agent(i)
        return self.primal_slices[i]

    @cached_property
    def _own_entries(self) -> np.ndarray:
        # flat position of agent i's coordinates in row i of an (N, d) array
        d = self.total_dim
        return np.repeat(np.arange(self.num_agents) * d, self.dims) + np.arange(d)

    def own_rows(self, values: np.ndarray) -> np.ndarray:
        """Per-coordinate values of one point as they are; of one row per agent, agent i's block of row i."""
        if values.ndim == 1:
            return values
        if values.shape != (self.num_agents, self.total_dim):
            raise DimensionMismatchError(
                f"rows have shape {values.shape}, expected one per agent, "
                f"({self.num_agents}, {self.total_dim})",
                block="rows",
            )
        return values.take(self._own_entries)

    def _check_agent(self, i: int):
        if not 0 <= i < self.num_agents:
            raise DimensionMismatchError(
                f"agent index {i} out of range for {self.num_agents} agents",
                block=f"agent {i}",
            )


class OrderedRows:
    """Sparse product A @ x in which every entry has one fixed summation order.

    Row r of the result is accumulated over the nonzero entries of row r
    in ascending column order, left to right from the first product; a
    row without entries gives 0.0. The work is elementwise multiplies
    and adds, so evaluating all rows at once or only some of them gives
    the same floats. This is how the stacked solver and the agent nodes
    stay bit-identical. x is either a vector or a matrix whose rows are
    combined as wholes. entries holds the kept (rows, cols, vals), sorted
    by row and then by column.

    All products are formed in one gather and one multiply. Rows are
    ordered by decreasing entry count, so the t-th products of all rows
    that have one are contiguous and add onto a prefix of the first
    products, one slice per t; one gather restores the row order.
    """

    __slots__ = ("shape", "entries", "_cols", "_vals", "_vcol", "_live", "_spans", "_gather", "_empty")

    def __init__(self, shape: tuple[int, int], rows, cols, vals):
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        keep = vals != 0.0
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        self.shape = (int(shape[0]), int(shape[1]))
        self.entries = (rows, cols, vals)
        counts = np.bincount(rows, minlength=self.shape[0])
        by_count = np.argsort(-counts, kind="stable")
        rank = np.empty_like(by_count)
        rank[by_count] = np.arange(by_count.size)
        # entries by (position within the row, row's place in by_count)
        pos = np.arange(rows.size) - np.searchsorted(rows, rows)
        step_major = np.lexsort((rank[rows], pos))
        self._cols = cols[step_major]
        self._vals = vals[step_major]
        self._vcol = self._vals[:, None]
        per_step = np.bincount(pos, minlength=1)
        starts = np.cumsum(per_step) - per_step
        self._live = int(per_step[0])
        self._spans = tuple(
            (slice(0, int(n)), slice(int(b), int(b + n))) for n, b in zip(per_step[1:], starts[1:])
        )
        empty = counts == 0
        if np.array_equal(by_count, np.arange(by_count.size)) and not empty.any():
            self._gather = self._empty = None
        else:
            self._gather = np.where(empty, 0, rank)
            self._empty = np.flatnonzero(empty) if empty.any() else None

    @classmethod
    def from_dense(cls, a: np.ndarray) -> "OrderedRows":
        a = np.asarray(a, dtype=np.float64)
        rows, cols = np.nonzero(a)
        return cls(a.shape, rows, cols, a[rows, cols])

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if not self._live:
            return np.zeros((self.shape[0],) + x.shape[1:])
        terms = x.take(self._cols, axis=0)
        terms *= self._vals if x.ndim == 1 else self._vcol
        # the first products of all rows, then each later one added in turn
        acc = terms[: self._live]
        for head, span in self._spans:
            part = acc[head]
            np.add(part, terms[span], out=part)
        if self._gather is None:
            return acc
        out = acc.take(self._gather, axis=0)
        if self._empty is not None:
            out[self._empty] = 0.0
        return out


class PrimalDualState:
    """Full iterate x = (u, mu, lambda) stored as one flat array.

    data holds u, then the N m-blocks of mu, then those of lambda, in
    agent order.
    """

    __slots__ = ("partition", "data")

    def __init__(self, partition: AgentPartition, data: np.ndarray):
        data = np.asarray(data, dtype=np.float64)
        if data.shape != (partition.state_dim,):
            raise DimensionMismatchError(
                f"state has shape {data.shape}, expected ({partition.state_dim},)",
                block="state",
            )
        self.partition = partition
        self.data = data

    @classmethod
    def zeros(cls, partition: AgentPartition) -> "PrimalDualState":
        return cls(partition, np.zeros(partition.state_dim))


class Preconditioner:
    """Diagonal matrix Psi = diag(gamma^-1, sigma^-1, tau^-1) in block form.

    gamma, sigma, tau are per-agent positive step sizes. Only the
    diagonal is kept, expanded over each agent's coordinates: weights
    holds Psi, inv_weights the step of each coordinate.
    """

    __slots__ = ("partition", "weights", "inv_weights")

    def __init__(self, partition: AgentPartition, gamma, sigma, tau):
        n = partition.num_agents
        gamma = np.asarray(gamma, dtype=np.float64).ravel()
        sigma = np.asarray(sigma, dtype=np.float64).ravel()
        tau = np.asarray(tau, dtype=np.float64).ravel()
        for name, arr in (("gamma", gamma), ("sigma", sigma), ("tau", tau)):
            if arr.shape != (n,):
                raise DimensionMismatchError(
                    f"{name} must hold one step size per agent", block=name
                )
            if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
                raise ConfigurationError(
                    f"{name} step sizes must be finite and > 0", field=name
                )
        self.partition = partition
        inv = np.empty(partition.state_dim)
        inv[: partition.total_dim] = np.repeat(gamma, partition.dims)
        d = partition.total_dim
        nm = partition.dual_dim
        m = partition.constraint_dim
        inv[d : d + nm] = np.repeat(sigma, m)
        inv[d + nm :] = np.repeat(tau, m)
        self.inv_weights = inv
        self.weights = 1.0 / inv

    @classmethod
    def uniform(cls, partition: AgentPartition, step: float) -> "Preconditioner":
        """All agents share one step size for every block."""
        n = partition.num_agents
        s = np.full(n, float(step))
        return cls(partition, s, s, s)

    @property
    def max_step(self) -> float:
        return float(self.inv_weights.max())


def _check_same_partition(x: PrimalDualState, y: PrimalDualState, psi: Preconditioner):
    if x.partition is not y.partition and x.partition != y.partition:
        raise DimensionMismatchError("states use different partitions", block="state")
    if psi.partition is not x.partition and psi.partition != x.partition:
        raise DimensionMismatchError("preconditioner partition differs from state", block="psi")


def psi_inner(x: PrimalDualState, y: PrimalDualState, psi: Preconditioner) -> float:
    """Weighted inner product <x, y>_Psi = sum_j Psi_jj x_j y_j."""
    _check_same_partition(x, y, psi)
    return float(np.dot(psi.weights * x.data, y.data))


def psi_norm(x: PrimalDualState, psi: Preconditioner) -> float:
    """Norm induced by psi_inner; nonnegative by construction."""
    v = psi_inner(x, x, psi)
    return float(np.sqrt(v if v > 0.0 else 0.0))

