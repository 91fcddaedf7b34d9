"""Communication graph construction and Laplacian spectral facts."""

import numpy as np
import pytest

from gnes.errors import ConfigurationError
from gnes.graph import CommGraph, generate_graph, laplacian_block, largest_eigenvalue_psd
from gnes.operators import ExtendedOperator

from gnes_test_helpers import random_affine_game


def test_ring_laplacian():
    g = generate_graph("ring", 4)
    expected = np.array([
        [2.0, -1.0, 0.0, -1.0],
        [-1.0, 2.0, -1.0, 0.0],
        [0.0, -1.0, 2.0, -1.0],
        [-1.0, 0.0, -1.0, 2.0],
    ])
    assert np.array_equal(g.laplacian, expected)
    assert g.max_degree == 2.0


def test_star_laplacian():
    g = generate_graph("star", 5)
    assert g.degrees[0] == 4.0
    assert np.all(g.degrees[1:] == 1.0)
    # hub-and-spoke spectrum: largest eigenvalue is n
    assert g.lap_norm == pytest.approx(5.0, rel=1e-9)


def test_complete_graph():
    g = generate_graph("complete", 6)
    assert np.all(g.degrees == 5.0)
    assert g.lap_norm == pytest.approx(6.0, rel=1e-9)


def test_two_node_path_spectrum():
    g = CommGraph(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert g.max_degree == 1.0
    assert g.lap_norm == pytest.approx(2.0, rel=1e-9)


def test_triangle_spectrum():
    g = generate_graph("ring", 3)
    assert g.max_degree == 2.0
    assert g.lap_norm == pytest.approx(3.0, rel=1e-9)


def test_edge_weight_scales_degrees():
    g = generate_graph("ring", 4, weight=2.5)
    assert g.max_degree == 5.0
    assert g.lap_norm == pytest.approx(2.5 * 4.0, rel=1e-9)


def test_degree_bounds_on_named_and_random_graphs():
    graphs = [
        generate_graph("ring", 7),
        generate_graph("star", 9),
        generate_graph("complete", 5),
    ]
    rng = np.random.default_rng(7)
    for t in range(20):
        n = int(rng.integers(2, 13))
        graphs.append(generate_graph("erdos-renyi", n, p=0.5, seed=int(rng.integers(1 << 31))))
    for g in graphs:
        assert g.max_degree <= g.lap_norm * (1 + 1e-9)
        assert g.lap_norm <= 2.0 * g.max_degree * (1 + 1e-9)


def test_largest_eigenvalue_matches_dense_solver():
    # an upper bound: at least the dense solver's value, and above it by
    # no more than the rounding margin n eps ||mat||_inf
    rng = np.random.default_rng(3)
    mats = [a @ a.T for a in (rng.normal(size=(n, n)) for n in rng.integers(2, 9, size=25))]
    for mat in mats + [np.array([[3.5]]), np.zeros((4, 4))]:
        top = float(np.linalg.eigvalsh(mat)[-1])
        margin = mat.shape[0] * np.finfo(np.float64).eps * np.linalg.norm(mat, np.inf)
        assert top <= largest_eigenvalue_psd(mat) <= top + margin


@pytest.mark.parametrize("n", [10, 640])
def test_ring_lap_norm_is_an_upper_bound(n):
    # an even ring's largest Laplacian eigenvalue is 4; a power iteration
    # that stops when its progress stalls reads 3.9999999984708823 at
    # n = 10 and 3.999990832101658 at n = 640
    assert 4.0 <= generate_graph("ring", n).lap_norm <= 4.0 * (1 + 1e-12)


def test_graph_validation():
    with pytest.raises(ConfigurationError):
        CommGraph(np.array([[0.0, 1.0], [0.5, 0.0]]))  # asymmetric
    with pytest.raises(ConfigurationError):
        CommGraph(np.array([[0.0, -1.0], [-1.0, 0.0]]))  # negative weight
    with pytest.raises(ConfigurationError):
        CommGraph(np.array([[1.0, 1.0], [1.0, 0.0]]))  # self loop
    with pytest.raises(ConfigurationError):
        CommGraph(np.zeros((3, 3)))  # disconnected
    with pytest.raises(ConfigurationError):
        CommGraph(np.zeros((2, 3)))  # not square
    # single agent with no edges is the one connected empty graph
    assert CommGraph(np.zeros((1, 1))).num_agents == 1


def test_generator_validation():
    with pytest.raises(ConfigurationError):
        generate_graph("lattice", 4)
    with pytest.raises(ConfigurationError):
        generate_graph("ring", 0)
    with pytest.raises(ConfigurationError):
        generate_graph("ring", 4, weight=0.0)
    with pytest.raises(ConfigurationError):
        generate_graph("erdos-renyi", 5, p=None, seed=1)
    with pytest.raises(ConfigurationError):
        generate_graph("erdos-renyi", 5, p=0.5, seed=None)
    with pytest.raises(ConfigurationError) as info:
        generate_graph("erdos-renyi", 5, p=0.5, seed=-1)
    assert info.value.field == "seed"
    g = generate_graph("erdos-renyi", 8, p=0.4, seed=42)
    assert g.num_agents == 8


def test_laplacian_block_out_matches_plain():
    rng = np.random.default_rng(5)
    for _ in range(200):
        deg = float(rng.random() * 3)
        k = int(rng.integers(0, 5))
        m = int(rng.integers(1, 4))
        w = rng.random(k)
        v = rng.normal(size=m)
        nbr = rng.normal(size=(k, m))
        plain = laplacian_block(deg, w, v, nbr)
        buf = np.empty(m)
        out = laplacian_block(deg, w, v, nbr, out=buf)
        assert out is buf
        assert np.array_equal(plain, buf)


def test_operator_laplacian_blocks_match_kronecker_product():
    # the mu and lambda rows of V's affine part hold L (x) I_m, and
    # applied to a vector they agree with the one-agent formula
    rng = np.random.default_rng(9)
    for _ in range(20):
        m = int(rng.integers(1, 4))
        dims = tuple(int(v) for v in rng.integers(1, 4, size=int(rng.integers(2, 7))))
        problem, _ = random_affine_game(rng, dims=dims, m=m)
        n = len(dims)
        g = generate_graph("erdos-renyi", n, p=0.6, seed=int(rng.integers(1 << 31)))
        w = g.weights * rng.uniform(0.5, 2.0, size=g.weights.shape)
        g = CommGraph(w + w.T)
        op = ExtendedOperator(problem, g)
        d = problem.partition.total_dim
        nm = n * m
        dense = op.affine(np.eye(problem.partition.state_dim))
        kron = np.kron(g.laplacian, np.eye(m))
        mu, lam = slice(d, d + nm), slice(d + nm, None)
        assert np.array_equal(dense[mu, lam], kron)
        assert np.array_equal(dense[lam, lam], kron)
        assert np.array_equal(dense[lam, mu], -kron)
        assert not dense[mu, : d + nm].any()
        x = rng.normal(size=problem.partition.state_dim)
        vals = x[lam].reshape(n, m)
        mu_rows = op.affine(x)[mu].reshape(n, m)
        for i in range(n):
            nbrs = g.neighbors[i]
            block = laplacian_block(g.degrees[i], g.weights[i, nbrs], vals[i], vals[nbrs])
            assert np.allclose(mu_rows[i], block, atol=1e-12)
