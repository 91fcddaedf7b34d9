"""Block structure, state containers, and the diagonal preconditioner."""

import numpy as np
import pytest

from gnes.blockvec import (
    AgentPartition,
    OrderedRows,
    Preconditioner,
    PrimalDualState,
    psi_inner,
    psi_norm,
)
from gnes.errors import ConfigurationError, DimensionMismatchError


PART = AgentPartition((1, 2, 3), 2)


def test_partition_dimensions():
    assert PART.num_agents == 3
    assert PART.total_dim == 6
    assert PART.dual_dim == 6
    assert PART.state_dim == 18


def test_partition_slices():
    assert PART.primal_slice(0) == slice(0, 1)
    assert PART.primal_slice(1) == slice(1, 3)
    assert PART.primal_slice(2) == slice(3, 6)


def test_partition_rejects_bad_shapes():
    with pytest.raises(ConfigurationError):
        AgentPartition((), 1)
    with pytest.raises(ConfigurationError):
        AgentPartition((1, 0), 1)
    with pytest.raises(ConfigurationError):
        AgentPartition((1,), 0)
    with pytest.raises(DimensionMismatchError):
        PART.primal_slice(3)
    with pytest.raises(DimensionMismatchError):
        PART.primal_slice(-1)


def test_state_validation():
    with pytest.raises(DimensionMismatchError):
        PrimalDualState(PART, np.zeros(17))
    with pytest.raises(DimensionMismatchError):
        PrimalDualState(PART, np.zeros((2, 9)))
    assert np.array_equal(PrimalDualState.zeros(PART).data, np.zeros(18))


def test_preconditioner_weights_layout():
    psi = Preconditioner(PART, [0.5, 0.25, 0.125], [1.0, 0.5, 0.25], [0.2, 0.1, 0.05])
    # inverse weights repeat each agent's step over its coordinates
    expected_steps = np.array(
        [0.5, 0.25, 0.25, 0.125, 0.125, 0.125]  # gamma over dims (1, 2, 3)
        + [1.0, 1.0, 0.5, 0.5, 0.25, 0.25]      # sigma over m = 2
        + [0.2, 0.2, 0.1, 0.1, 0.05, 0.05]      # tau over m = 2
    )
    assert np.array_equal(psi.inv_weights, expected_steps)
    assert np.array_equal(psi.weights, 1.0 / expected_steps)
    assert psi.max_step == 1.0


def test_preconditioner_uniform():
    psi = Preconditioner.uniform(PART, 0.25)
    assert np.all(psi.inv_weights == 0.25)
    assert np.all(psi.weights == 4.0)
    assert psi.max_step == 0.25


def test_preconditioner_validation():
    ok = np.ones(3)
    with pytest.raises(DimensionMismatchError):
        Preconditioner(PART, np.ones(2), ok, ok)
    with pytest.raises(ConfigurationError):
        Preconditioner(PART, np.array([1.0, 0.0, 1.0]), ok, ok)
    with pytest.raises(ConfigurationError):
        Preconditioner(PART, ok, -ok, ok)
    with pytest.raises(ConfigurationError):
        Preconditioner(PART, ok, ok, np.array([1.0, np.inf, 1.0]))


def test_psi_inner_hand_value():
    part = AgentPartition((1, 1), 1)
    psi = Preconditioner(part, [0.5, 0.25], [1.0, 0.5], [0.2, 0.1])
    # weights: u (2, 4), mu (1, 2), lambda (5, 10)
    x = PrimalDualState(part, np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0]))
    y = PrimalDualState(part, np.array([1.0, 0.5, 2.0, 1.0, 0.2, 0.1]))
    # 2*1 + 4*0.5 + 1*2 + 2*1 + 5*0.2 + 10*0.1 = 10
    assert psi_inner(x, y, psi) == pytest.approx(10.0, abs=1e-14)
    assert psi_norm(x, psi) == pytest.approx(np.sqrt(24.0), rel=1e-15)


def test_psi_norm_matches_inner():
    rng = np.random.default_rng(11)
    psi = Preconditioner(PART, rng.random(3) + 0.1, rng.random(3) + 0.1, rng.random(3) + 0.1)
    for _ in range(100):
        x = PrimalDualState(PART, rng.normal(size=18))
        assert psi_norm(x, psi) ** 2 == pytest.approx(psi_inner(x, x, psi), rel=1e-12)


def test_psi_inner_rejects_partition_mismatch():
    other = AgentPartition((2, 2, 2), 2)
    psi = Preconditioner.uniform(PART, 1.0)
    x = PrimalDualState.zeros(PART)
    y = PrimalDualState.zeros(other)
    with pytest.raises(DimensionMismatchError):
        psi_inner(x, y, psi)


def test_ordered_rows_matches_dense_product_and_its_own_row_subsets():
    rng = np.random.default_rng(13)
    for _ in range(200):
        rows, cols = (int(v) for v in rng.integers(1, 9, size=2))
        a = rng.normal(size=(rows, cols)) * (rng.random((rows, cols)) < 0.5)
        x = rng.normal(size=cols)
        xs = rng.normal(size=(cols, 3))
        full = OrderedRows.from_dense(a)
        assert np.allclose(full(x), a @ x, atol=1e-12)
        assert np.allclose(full(xs), a @ xs, atol=1e-12)
        # a subset of rows, evaluated on its own, gives the same floats;
        # this is what an agent node evaluating only its rows relies on
        keep = rng.random(rows) < 0.5
        part = OrderedRows.from_dense(a[keep])
        assert np.array_equal(part(x), full(x)[keep])
        assert np.array_equal(part(xs), full(xs)[keep])


def test_ordered_rows_sums_left_to_right_and_empty_rows_are_zero():
    a = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    x = np.array([1.0, 1e-16, 1e-16])
    got = OrderedRows.from_dense(a)(x)
    # (1 + 1e-16) + 1e-16 rounds to 1 twice; another order would not
    assert got[0] == 1.0
    assert got[1] == 0.0
    assert got[2] == 2e-16
    assert np.array_equal(OrderedRows.from_dense(np.zeros((2, 3)))(x), [0.0, 0.0])
