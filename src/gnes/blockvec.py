"""Block-partitioned vectors and the diagonal preconditioner geometry.

All solver state lives in flat float64 arrays. A partition descriptor
records how the primal vector splits across agents and how long the
stacked dual copies are, so block views can be taken without copying.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DimensionMismatchError

__all__ = [
    "AgentPartition",
    "BlockVector",
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
        object.__setattr__(self, "_offsets", offsets)
        slices = tuple(
            slice(int(offsets[i]), int(offsets[i + 1])) for i in range(len(dims))
        )
        object.__setattr__(self, "primal_slices", slices)

    @property
    def num_agents(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        """Total primal dimension d = sum of the agent dims."""
        return int(self._offsets[-1])

    @property
    def dual_dim(self) -> int:
        """Length of one stacked dual vector, N * m."""
        return self.num_agents * self.constraint_dim

    @property
    def state_dim(self) -> int:
        """Length of a full primal-dual state, d + 2 N m."""
        return self.total_dim + 2 * self.dual_dim

    def primal_slice(self, i: int) -> slice:
        self._check_agent(i)
        return self.primal_slices[i]

    def dual_slice(self, i: int) -> slice:
        self._check_agent(i)
        m = self.constraint_dim
        return slice(i * m, (i + 1) * m)

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
    and adds, so evaluating all rows at once or only one agent's rows
    gives the same floats. This is how the stacked solver and the agent
    nodes stay bit-identical. x is either a vector or a matrix whose
    rows are combined as wholes.
    """

    __slots__ = ("shape", "_steps")

    def __init__(self, shape: tuple[int, int], rows, cols, vals):
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        keep = vals != 0.0
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        # position of each entry within its row
        pos = np.arange(rows.size) - np.searchsorted(rows, rows)
        self.shape = (int(shape[0]), int(shape[1]))
        steps = []
        for t in range(int(pos.max()) + 1 if pos.size else 0):
            sel = pos == t
            r = rows[sel]
            # None marks a step that touches every row, in row order
            if r.size == self.shape[0]:
                r = None
            steps.append((r, cols[sel], vals[sel], vals[sel, None]))
        self._steps = tuple(steps)

    @classmethod
    def from_dense(cls, a: np.ndarray) -> "OrderedRows":
        a = np.asarray(a, dtype=np.float64)
        rows, cols = np.nonzero(a)
        return cls(a.shape, rows, cols, a[rows, cols])

    def __call__(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            out = np.empty((self.shape[0],) + x.shape[1:])
        steps = self._steps
        if not steps or steps[0][0] is not None:
            out.fill(0.0)
        for t, (rows, cols, vals, vcol) in enumerate(steps):
            v = vals if x.ndim == 1 else vcol
            if rows is None:
                if t == 0:
                    np.multiply(v, x[cols], out=out)
                else:
                    out += v * x[cols]
            elif t == 0:
                out[rows] = v * x[cols]
            else:
                out[rows] += v * x[cols]
        return out


class BlockVector:
    """A flat vector with agent-block views.

    kind "primal" has length d with agent i owning dims[i] coordinates;
    kind "dual" has length N * m with agent i owning one m-block.
    """

    __slots__ = ("partition", "data", "kind")

    def __init__(self, partition: AgentPartition, data: np.ndarray, kind: str):
        if kind not in ("primal", "dual"):
            raise ConfigurationError(f"unknown block vector kind {kind!r}", field="kind")
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 1:
            raise DimensionMismatchError("block vector data must be one dimensional")
        expected = partition.total_dim if kind == "primal" else partition.dual_dim
        if data.shape[0] != expected:
            raise DimensionMismatchError(
                f"{kind} vector has length {data.shape[0]}, expected {expected}",
                block=kind,
            )
        self.partition = partition
        self.data = data
        self.kind = kind

    def block(self, i: int) -> np.ndarray:
        """View of agent i's coordinates (no copy)."""
        if self.kind == "primal":
            return self.data[self.partition.primal_slice(i)]
        return self.data[self.partition.dual_slice(i)]

    def copy(self) -> "BlockVector":
        return BlockVector(self.partition, self.data.copy(), self.kind)

    def __len__(self) -> int:
        return self.data.shape[0]


class PrimalDualState:
    """Full iterate x = (u, mu, lambda) stored as one flat array.

    Block views are computed from the partition, never copied, so the
    three-phase updates can write through them without aliasing bugs.
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

    @classmethod
    def from_blocks(cls, partition: AgentPartition, u, mu, lam) -> "PrimalDualState":
        u = np.asarray(u, dtype=np.float64).ravel()
        mu = np.asarray(mu, dtype=np.float64).ravel()
        lam = np.asarray(lam, dtype=np.float64).ravel()
        if u.shape[0] != partition.total_dim:
            raise DimensionMismatchError(
                f"primal part has length {u.shape[0]}, expected {partition.total_dim}",
                block="u",
            )
        if mu.shape[0] != partition.dual_dim or lam.shape[0] != partition.dual_dim:
            raise DimensionMismatchError(
                "dual parts must each have length N * m",
                block="mu/lambda",
            )
        return cls(partition, np.concatenate([u, mu, lam]))

    @property
    def u(self) -> BlockVector:
        return BlockVector(self.partition, self.data[: self.partition.total_dim], "primal")

    @property
    def mu(self) -> BlockVector:
        d = self.partition.total_dim
        nm = self.partition.dual_dim
        return BlockVector(self.partition, self.data[d : d + nm], "dual")

    @property
    def lam(self) -> BlockVector:
        d = self.partition.total_dim
        nm = self.partition.dual_dim
        return BlockVector(self.partition, self.data[d + nm :], "dual")

    def copy(self) -> "PrimalDualState":
        return PrimalDualState(self.partition, self.data.copy())


class Preconditioner:
    """Diagonal matrix Psi = diag(gamma^-1, sigma^-1, tau^-1) in block form.

    gamma, sigma, tau are per-agent positive step sizes. The diagonal of
    Psi carries the reciprocals, expanded over each agent's coordinates.
    """

    __slots__ = ("partition", "gamma", "sigma", "tau", "weights", "inv_weights")

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
        self.gamma = gamma
        self.sigma = sigma
        self.tau = tau
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
        return cls(partition, s, s.copy(), s.copy())

    @property
    def lambda_min(self) -> float:
        """Smallest eigenvalue of Psi, i.e. 1 / max step size."""
        return float(self.weights.min())

    @property
    def lambda_max(self) -> float:
        return float(self.weights.max())

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

