"""Builtin test games and the instance document format.

An instance document is a JSON-ready dict that fully describes a game.
Two kinds exist:

  {"kind": "affine", ...}   embeds the gradient field F(u) = M u + q
                            row-major together with boxes, constraint
                            blocks, and a graph spec;
  {"kind": "cournot", "config": {...}}
                            embeds generator settings, including the
                            seed, and is rebuilt deterministically.

The builtins are small affine games with strictly monotone gradients,
sized so reference solutions are cheap and every constraint regime
(active coupling row, inactive row, box faces, single agent,
heterogeneous blocks) appears somewhere.
"""

from __future__ import annotations

import copy

import numpy as np

from .blockvec import AgentPartition
from .cournot import CournotConfig, generate
from .errors import ConfigurationError
from .graph import CommGraph, generate_graph, largest_eigenvalue_psd
from .operators import GameProblem

__all__ = [
    "BUILTINS",
    "builtin_document",
    "load_document",
    "affine_gradients",
]


_AFFINE_MONOTONE_SMALL = {
    "kind": "affine",
    "dims": [2, 2, 2],
    "num_constraints": 2,
    "M": [
        [2.0, 0.5, 0.2, 0.0, 0.2, 0.0],
        [-0.5, 2.0, 0.0, 0.2, 0.0, 0.2],
        [0.2, 0.0, 2.0, 0.5, 0.2, 0.0],
        [0.0, 0.2, -0.5, 2.0, 0.0, 0.2],
        [0.2, 0.0, 0.2, 0.0, 2.0, 0.5],
        [0.0, 0.2, 0.0, 0.2, -0.5, 2.0],
    ],
    "q": [-2.0, -1.0, -1.5, -1.0, -1.0, -0.5],
    "box_lo": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
    "box_hi": [[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]],
    "D": [
        [[1.0, 1.0], [1.0, 0.0]],
        [[1.0, 1.0], [1.0, 0.0]],
        [[1.0, 1.0], [1.0, 0.0]],
    ],
    "b": [[0.4, 4.0], [0.4, 4.0], [0.4, 4.0]],
    "graph": {"name": "ring", "weight": 1.0},
}

_AFFINE_TINY = {
    "kind": "affine",
    "dims": [1],
    "num_constraints": 1,
    "M": [[1.0]],
    "q": [-0.3],
    "box_lo": [[0.0]],
    "box_hi": [[1.0]],
    "D": [[[1.0]]],
    "b": [[0.25]],
    "graph": {"weights": [[0.0]]},
}

_AFFINE_TWO_FIRMS = {
    "kind": "affine",
    "dims": [1, 1],
    "num_constraints": 1,
    "M": [[1.0, 0.3], [0.3, 1.0]],
    "q": [-1.0, -1.0],
    "box_lo": [[0.0], [0.0]],
    "box_hi": [[1.0], [1.0]],
    "D": [[[1.0]], [[1.0]]],
    "b": [[0.5], [0.5]],
    "graph": {"weights": [[0.0, 1.0], [1.0, 0.0]]},
}

_AFFINE_INACTIVE = {
    "kind": "affine",
    "dims": [1, 1],
    "num_constraints": 1,
    "M": [[1.0, 0.3], [0.3, 1.0]],
    "q": [-1.0, -1.0],
    "box_lo": [[0.0], [0.0]],
    "box_hi": [[1.0], [1.0]],
    "D": [[[1.0]], [[1.0]]],
    "b": [[5.0], [5.0]],
    "graph": {"weights": [[0.0, 1.0], [1.0, 0.0]]},
}

_AFFINE_ASYM = {
    "kind": "affine",
    "dims": [1, 2, 3],
    "num_constraints": 2,
    "M": [
        [3.0, 0.3, 0.0, 0.2, 0.0, -0.1],
        [-0.3, 3.0, 0.4, 0.0, 0.1, 0.0],
        [0.0, -0.4, 3.0, 0.2, 0.0, 0.1],
        [0.2, 0.0, 0.2, 3.0, 0.3, 0.0],
        [0.0, 0.1, 0.0, -0.3, 3.0, 0.2],
        [-0.1, 0.0, 0.1, 0.0, 0.2, 3.0],
    ],
    "q": [-3.0, -2.0, -3.0, -1.0, -2.0, -2.0],
    "box_lo": [[-1.0], [0.0, 0.0], [-0.5, -0.5, -0.5]],
    "box_hi": [[1.0], [2.0, 2.0], [1.5, 1.5, 1.5]],
    "D": [
        [[1.0], [0.5]],
        [[1.0, 0.0], [0.0, 1.0]],
        [[0.5, 0.5, 0.5], [1.0, 0.0, 0.0]],
    ],
    "b": [[0.5, 2.0], [0.5, 2.0], [0.5, 2.0]],
    "graph": {"weights": [[0.0, 1.5, 0.5], [1.5, 0.0, 0.0], [0.5, 0.0, 0.0]]},
}

_BUILTIN_DOCS = {
    "affine-monotone-small": _AFFINE_MONOTONE_SMALL,
    "affine-tiny": _AFFINE_TINY,
    "affine-two-firms": _AFFINE_TWO_FIRMS,
    "affine-inactive": _AFFINE_INACTIVE,
    "affine-asym": _AFFINE_ASYM,
}

BUILTINS = tuple(sorted(_BUILTIN_DOCS))


def builtin_document(name: str) -> dict:
    """A deep copy of the named builtin's instance document."""
    if name not in _BUILTIN_DOCS:
        raise ConfigurationError(
            f"unknown builtin {name!r}; available: {', '.join(BUILTINS)}",
            field="builtin",
        )
    return copy.deepcopy(_BUILTIN_DOCS[name])


def affine_gradients(m_mat: np.ndarray, q: np.ndarray, partition: AgentPartition) -> tuple:
    """Per-agent closures of the affine field F(u) = M u + q."""

    def make(i: int):
        rows = np.ascontiguousarray(m_mat[partition.primal_slice(i), :])
        qi = q[partition.primal_slice(i)].copy()

        def grad(u: np.ndarray) -> np.ndarray:
            return rows @ u + qi

        return grad

    return tuple(make(i) for i in range(partition.num_agents))


def _graph_from_spec(spec: dict, n: int) -> CommGraph:
    if "weights" in spec:
        return CommGraph(np.asarray(spec["weights"], dtype=np.float64))
    name = spec.get("name")
    if name is None:
        raise ConfigurationError(
            "graph spec needs either a weights matrix or a generator name",
            field="graph",
        )
    return generate_graph(
        name,
        n,
        p=spec.get("p"),
        seed=spec.get("seed"),
        weight=float(spec.get("weight", 1.0)),
    )


def _require(doc: dict, key: str):
    if key not in doc:
        raise ConfigurationError(f"instance document lacks {key!r}", field=key)
    return doc[key]


def _build_affine(doc: dict) -> tuple[GameProblem, CommGraph]:
    dims = tuple(int(v) for v in _require(doc, "dims"))
    m = int(_require(doc, "num_constraints"))
    part = AgentPartition(dims, m)
    d = part.total_dim
    m_mat = np.asarray(_require(doc, "M"), dtype=np.float64)
    q = np.asarray(_require(doc, "q"), dtype=np.float64)
    if m_mat.shape != (d, d) or q.shape != (d,):
        raise ConfigurationError(
            f"affine field needs M of shape ({d}, {d}) and q of length {d}",
            field="M",
        )
    box_lo = tuple(np.asarray(v, dtype=np.float64) for v in _require(doc, "box_lo"))
    box_hi = tuple(np.asarray(v, dtype=np.float64) for v in _require(doc, "box_hi"))
    d_mats = tuple(np.asarray(v, dtype=np.float64) for v in _require(doc, "D"))
    b = tuple(np.asarray(v, dtype=np.float64) for v in _require(doc, "b"))
    ell = doc.get("lipschitz_ell")
    if ell is None:
        ell = float(np.sqrt(largest_eigenvalue_psd(m_mat.T @ m_mat)))
    problem = GameProblem(
        partition=part,
        grad_f=affine_gradients(m_mat, q, part),
        D=d_mats,
        b=b,
        box_lo=box_lo,
        box_hi=box_hi,
        lipschitz_ell=float(ell),
    )
    graph = _graph_from_spec(_require(doc, "graph"), part.num_agents)
    return problem, graph


def load_document(doc: dict):
    """Build (problem, graph, oracle) from an instance document.

    Affine documents carry no sampling model, so the oracle slot is
    None and the runner chooses one; Cournot documents return their
    demand oracle.
    """
    kind = _require(doc, "kind")
    if kind == "affine":
        problem, graph = _build_affine(doc)
        return problem, graph, None
    if kind == "cournot":
        cfg = _require(doc, "config")
        if not isinstance(cfg, dict):
            raise ConfigurationError("cournot config must be a mapping", field="config")
        try:
            config = CournotConfig(**cfg)
        except TypeError as exc:
            raise ConfigurationError(f"bad cournot config: {exc}", field="config") from exc
        problem, oracle, graph = generate(config)
        return problem, graph, oracle
    raise ConfigurationError(f"unknown instance kind {kind!r}", field="kind")
