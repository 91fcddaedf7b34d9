"""Weighted communication graphs, the per-agent Laplacian block, and the
spectral norms the step rules rest on.

largest_eigenvalue_psd gives every such norm (the Laplacian's lap_norm
here, the constraint norm and the affine ell elsewhere) as an upper
bound: the eigensolver's value plus a margin for its rounding.

The Laplacian acts on stacked dual vectors blockwise, one m-block per
agent, as L (x) I_m; the N m x N m Kronecker form is never materialized.
Neither executor calls a Laplacian product of its own: the extended
operator folds L's nonzeros into its sparse affine part (see
operators.ExtendedOperator), which both executors apply. laplacian_block
is the plain one-agent formula, kept as a reference for that part.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "CommGraph",
    "generate_graph",
    "laplacian_block",
    "largest_eigenvalue_psd",
]


def largest_eigenvalue_psd(mat: np.ndarray) -> float:
    """An upper bound on the largest eigenvalue of a symmetric PSD matrix.

    The dense symmetric eigensolver's value plus n eps ||mat||_inf, a
    margin that covers its rounding, so the step rules built on this
    bound are never handed an underestimate.
    """
    mat = np.asarray(mat, dtype=np.float64)
    margin = mat.shape[0] * np.finfo(np.float64).eps * np.linalg.norm(mat, np.inf)
    return float(np.linalg.eigvalsh(mat)[-1] + margin)


class CommGraph:
    """Undirected weighted graph over the agents.

    Attributes
    ----------
    weights : (N, N) array
        Symmetric, nonnegative, zero diagonal.
    laplacian : (N, N) array
        L = diag(W 1) - W.
    degrees : (N,) array
        Weighted degrees W 1.
    max_degree : float
        Largest weighted degree.
    lap_norm : float
        An upper bound on the largest Laplacian eigenvalue, the spectral
        norm of L (largest_eigenvalue_psd). Satisfies
        max_degree <= lap_norm <= 2 max_degree up to that bound's margin.
    """

    __slots__ = (
        "weights",
        "laplacian",
        "degrees",
        "max_degree",
        "lap_norm",
        "neighbors",
    )

    def __init__(self, weights: np.ndarray):
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ConfigurationError("weight matrix must be square", field="weights")
        if not np.all(np.isfinite(w)):
            raise ConfigurationError("weight matrix must be finite", field="weights")
        if np.any(w < 0.0):
            raise ConfigurationError("edge weights must be nonnegative", field="weights")
        if np.any(np.diagonal(w) != 0.0):
            raise ConfigurationError("self loops are not allowed (diagonal must be zero)", field="weights")
        if not np.array_equal(w, w.T):
            raise ConfigurationError("weight matrix must be symmetric", field="weights")
        n = w.shape[0]
        neighbors = tuple(np.flatnonzero(w[i] > 0.0) for i in range(n))
        if not _connected(neighbors):
            raise ConfigurationError(
                "communication graph must be connected so the dual consensus "
                "dynamics can reach agreement",
                field="weights",
            )
        self.weights = w
        self.degrees = w.sum(axis=1)
        self.laplacian = np.diag(self.degrees) - w
        self.max_degree = float(self.degrees.max()) if n > 0 else 0.0
        self.lap_norm = largest_eigenvalue_psd(self.laplacian)
        self.neighbors = neighbors

    @property
    def num_agents(self) -> int:
        return self.weights.shape[0]


def _connected(neighbors: tuple[np.ndarray, ...]) -> bool:
    """Breadth-first reachability over the positive-weight support."""
    n = len(neighbors)
    if n <= 1:
        return True
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    queue = deque([0])
    while queue:
        i = queue.popleft()
        for j in neighbors[i]:
            if not seen[j]:
                seen[j] = True
                queue.append(int(j))
    return bool(seen.all())


def generate_graph(
    name: str,
    n: int,
    p: float | None = None,
    seed: int | None = None,
    weight: float = 1.0,
) -> CommGraph:
    """Build a named topology over n agents with uniform edge weight.

    Supported names: "ring", "star", "complete", "erdos-renyi". The
    random family needs an edge probability p and a seed, and redraws
    until the sample is connected.
    """
    if n < 1:
        raise ConfigurationError("graph needs at least one agent", field="n")
    if weight <= 0.0:
        raise ConfigurationError("edge weight must be > 0", field="weight")
    w = np.zeros((n, n))
    if name == "ring":
        for i in range(n):
            j = (i + 1) % n
            if i != j:
                w[i, j] = w[j, i] = weight
    elif name == "star":
        for i in range(1, n):
            w[0, i] = w[i, 0] = weight
    elif name == "complete":
        w[:] = weight
        np.fill_diagonal(w, 0.0)
    elif name == "erdos-renyi":
        if p is None or not 0.0 < p <= 1.0:
            raise ConfigurationError("erdos-renyi needs an edge probability in (0, 1]", field="p")
        if seed is None or seed < 0:
            raise ConfigurationError("erdos-renyi needs a seed >= 0", field="seed")
        rng = np.random.default_rng(seed)
        for _ in range(1000):
            w[:] = 0.0
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < p:
                        w[i, j] = w[j, i] = weight
            try:
                return CommGraph(w)
            except ConfigurationError:
                continue
        raise ConfigurationError(
            "could not draw a connected graph; increase p", field="p"
        )
    else:
        raise ConfigurationError(f"unknown graph generator {name!r}", field="name")
    return CommGraph(w)


def laplacian_block(
    degree_i: float,
    weights_i: np.ndarray,
    v_i: np.ndarray,
    neighbor_values: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """One agent's block of the stacked Laplacian product.

    Computes sum_j w_ij (v_i - v_j) as degree_i * v_i minus the weighted
    sum of the neighbor rows, accumulated left to right. weights_i and
    neighbor_values are restricted to the neighbors of agent i in
    ascending index order, so the formula only touches locally
    available data.
    """
    out = np.multiply(degree_i, v_i, out=out)
    if len(weights_i):
        acc = weights_i[0] * neighbor_values[0]
        for w, row in zip(weights_i[1:], neighbor_values[1:]):
            acc += w * row
        out -= acc
    return out

