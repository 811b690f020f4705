import numpy as np
import pytest

from hiermpc.errors import ComplexDominantMode, SingularDCGain
from hiermpc.lti import CouplingMap, SubsystemModel, assemble
from hiermpc.reduction import dc_gain_residual, reduce_model, verify_reduction
from hiermpc.sets import BallSet


def single(A, B):
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    sub = SubsystemModel(A=A, B=B, E=np.zeros((A.shape[0], 1)),
                         C_z=np.zeros((1, A.shape[0])),
                         input_set=BallSet(B.shape[1], 1.0))
    return assemble([sub], CouplingMap(((None,),)))


def coupled_pair(rng, n=3, scale=0.6, couple=0.05):
    subs = []
    for _ in range(2):
        A = rng.normal(size=(n, n))
        A = 0.5 * (A + A.T)  # symmetric: real modes
        A *= scale / np.max(np.abs(np.linalg.eigvals(A)))
        subs.append(SubsystemModel(A=A, B=rng.normal(size=(n, 1)),
                                   E=np.eye(n), C_z=np.eye(n),
                                   input_set=BallSet(1, 1.0)))
    L = couple * rng.normal(size=(n, n))
    coupling = CouplingMap(((None, L), (L.T, None)))
    return assemble(subs, coupling)


def test_reduce_diagonal_hand_case():
    # Keep the dominant mode of diag(0.9, 0.2): projection row is e1.
    model = single(np.diag([0.9, 0.2]), [[1.0], [1.0]])
    red = reduce_model(model, [1])
    assert np.allclose(red.A, [[0.9]])
    assert np.allclose(np.abs(red.beta), [[1.0, 0.0]], atol=1e-12)
    assert red.beta[0, 0] > 0  # default sign convention
    # DC match: B_red = (1-0.9) * beta (I-A)^{-1} B = 0.1 * (1/0.1) = 1.
    assert np.allclose(red.B, [[1.0]], atol=1e-12)


def test_reduce_left_eigenvector_rows():
    # Invariant: beta_i A_ii = A_red,i beta_i row by row, rows unit norm.
    rng = np.random.default_rng(15)
    model = coupled_pair(rng)
    red = reduce_model(model, [2, 1])
    for i in range(2):
        blk = red.beta_block(i, model)
        Ai = model.subsystems[i].A
        Ared = red.A[red.block_slice(i), red.block_slice(i)]
        assert np.allclose(blk @ Ai, Ared @ blk, atol=1e-9)
        assert np.allclose(np.linalg.norm(blk, axis=1), 1.0, atol=1e-12)


def test_reduce_dominant_right_eigenvector_not_annihilated():
    rng = np.random.default_rng(16)
    model = coupled_pair(rng)
    red = reduce_model(model, [1, 1])
    for i in range(2):
        Ai = model.subsystems[i].A
        eigvals, vecs = np.linalg.eig(Ai)
        dom = np.argmax(np.abs(eigvals))
        v = vecs[:, dom].real
        assert abs(red.beta_block(i, model) @ v) > 1e-6


def test_dc_gain_matching_collective():
    # Acceptance-style: coupled benchmark-free model, residual <= 1e-8.
    rng = np.random.default_rng(17)
    model = coupled_pair(rng, n=4, couple=0.03)
    red = reduce_model(model, [2, 2])
    assert dc_gain_residual(red, model) <= 1e-8


def test_fixed_point_consistency():
    # Constant input: projected plant equilibrium equals reduced equilibrium.
    rng = np.random.default_rng(18)
    model = coupled_pair(rng)
    red = reduce_model(model, [1, 2])
    u = rng.normal(size=model.n_inputs)
    x_ss = np.linalg.solve(np.eye(model.n_states) - model.A, model.B @ u)
    xr_ss = np.linalg.solve(np.eye(red.n_states) - red.A, red.B @ u)
    assert np.linalg.norm(red.beta @ x_ss - xr_ss) <= 1e-6


def test_complex_dominant_mode_rejected():
    theta = 0.7
    rot = 0.9 * np.array([[np.cos(theta), -np.sin(theta)],
                          [np.sin(theta), np.cos(theta)]])
    model = single(rot, [[1.0], [0.0]])
    with pytest.raises(ComplexDominantMode):
        reduce_model(model, [1])


def test_singular_dc_gain_rejected():
    model = single(np.diag([1.0, 0.2]), [[1.0], [1.0]])
    with pytest.raises(SingularDCGain):
        reduce_model(model, [1])


def test_verify_reduction_report():
    rng = np.random.default_rng(19)
    model = coupled_pair(rng)
    red = reduce_model(model, [2, 2])
    report = verify_reduction(red, model)
    assert report.passed
    assert report.schur_ok and report.full_rank
    assert report.dc_residual <= 1e-8
    assert report.beta_ranks == (2, 2)
