"""Builtin test games and the instance document format.

An instance document is a JSON-ready dict that fully describes a game.
Two kinds exist:

  {"kind": "affine", ...}   embeds the pseudogradient F(u) = M u + q
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

from .blockvec import AgentPartition, OrderedRows
from .cournot import CournotConfig, generate
from .errors import ConfigurationError, is_integer, is_list, is_number
from .graph import CommGraph, generate_graph, largest_eigenvalue_psd
from .operators import GameProblem

__all__ = [
    "BUILTINS",
    "builtin_document",
    "load_document",
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


def _graph_from_spec(spec, n: int) -> CommGraph:
    if not isinstance(spec, dict):
        raise ConfigurationError("graph spec must be a mapping", field="graph")
    if "weights" in spec:
        return CommGraph(_numbers(spec["weights"], "graph", (n, n)))
    name = spec.get("name")
    if name is None:
        raise ConfigurationError(
            "graph spec needs either a weights matrix or a generator name",
            field="graph",
        )
    p, seed, weight = spec.get("p"), spec.get("seed"), spec.get("weight", 1.0)
    if not ((p is None or is_number(p)) and (seed is None or is_integer(seed)) and is_number(weight)):
        raise ConfigurationError(
            "graph p and weight must be numbers and its seed an integer", field="graph"
        )
    return generate_graph(name, n, p=p, seed=seed, weight=float(weight))


def _require(doc: dict, key: str):
    if key not in doc:
        raise ConfigurationError(f"instance document lacks {key!r}", field=key)
    return doc[key]


def _numbers(value, key: str, shape: tuple, infinite: bool = False) -> np.ndarray:
    """value as a float array of the given shape; numbers only, finite unless infinite is set."""
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        arr = None
    if arr is None or arr.dtype.kind not in "iuf" or arr.shape != shape:
        raise ConfigurationError(f"{key} must be a numeric array of shape {shape}", field=key)
    arr = arr.astype(np.float64)
    if np.any(np.isnan(arr)) or not (infinite or np.all(np.isfinite(arr))):
        raise ConfigurationError(
            f"{key} must be {'free of NaN' if infinite else 'finite'}", field=key
        )
    return arr


def _blocks(doc: dict, key: str, shapes: list, infinite: bool = False) -> tuple:
    """doc[key] as one numeric array per agent, of the given shapes."""
    value = _require(doc, key)
    if not is_list(value) or len(value) != len(shapes):
        raise ConfigurationError(f"{key} needs one entry per agent", field=key)
    return tuple(_numbers(v, key, shape, infinite) for v, shape in zip(value, shapes))


def _build_affine(doc: dict) -> tuple[GameProblem, CommGraph]:
    dims = _require(doc, "dims")
    m = _require(doc, "num_constraints")
    if not (is_list(dims) and all(is_integer(k) for k in dims)):
        raise ConfigurationError("dims must be a list of integers", field="dims")
    if not is_integer(m):
        raise ConfigurationError("num_constraints must be an integer", field="num_constraints")
    part = AgentPartition(tuple(dims), m)
    d = part.total_dim
    m_mat = _numbers(_require(doc, "M"), "M", (d, d))
    q = _numbers(_require(doc, "q"), "q", (d,))
    ell = doc.get("lipschitz_ell")
    if ell is None:
        ell = float(np.sqrt(largest_eigenvalue_psd(m_mat.T @ m_mat)))
    elif not is_number(ell):
        raise ConfigurationError("lipschitz_ell must be a finite number", field="lipschitz_ell")
    rows = OrderedRows.from_dense(m_mat)

    def pseudogradient(u: np.ndarray) -> np.ndarray:
        # each row summed in column order, so an agent's rows evaluated
        # on its own profile are the floats of the same rows here; rows
        # of points go through the transpose, one column per point
        out = rows(u.T).T
        out += q
        return out

    problem = GameProblem(
        partition=part,
        pseudogradient=pseudogradient,
        D=_blocks(doc, "D", [(m, k) for k in dims]),
        b=_blocks(doc, "b", [(m,)] * len(dims)),
        box_lo=_blocks(doc, "box_lo", [(k,) for k in dims], infinite=True),
        box_hi=_blocks(doc, "box_hi", [(k,) for k in dims], infinite=True),
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
        problem, oracle, graph = generate(CournotConfig.from_settings(_require(doc, "config")))
        return problem, graph, oracle
    raise ConfigurationError(f"unknown instance kind {kind!r}", field="kind")
