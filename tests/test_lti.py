import numpy as np
import pytest

from hiermpc.errors import DimensionMismatch, NonzeroSelfCoupling
from hiermpc.lti import (CouplingMap, SubsystemModel, assemble,
                         reachability_matrix)
from hiermpc.sets import BallSet


def two_by_two_pair(a11=0.5, a22=0.6, couple=0.1):
    subs = [
        SubsystemModel(A=[[a11]], B=[[1.0]], E=[[1.0]], C_z=[[1.0]],
                       input_set=BallSet(1, 1.0)),
        SubsystemModel(A=[[a22]], B=[[1.0]], E=[[1.0]], C_z=[[1.0]],
                       input_set=BallSet(1, 1.0)),
    ]
    coupling = CouplingMap(((None, [[couple]]), ([[couple]], None)))
    return assemble(subs, coupling)


def test_assemble_two_scalar_subsystems():
    # Hand case: cross blocks are E_i L_ij C_zj = the raw gains here.
    model = two_by_two_pair()
    assert np.allclose(model.A, [[0.5, 0.1], [0.1, 0.6]])
    assert np.allclose(model.B, np.eye(2))
    assert model.state_slice(1) == slice(1, 2)


def test_self_coupling_rejected():
    with pytest.raises(NonzeroSelfCoupling):
        CouplingMap((([[0.2]], [[0.1]]), ([[0.1]], None)))


def test_assemble_dimension_mismatch():
    subs = [
        SubsystemModel(A=np.eye(2) * 0.5, B=[[1.0], [0.0]], E=[[1.0], [0.0]],
                       C_z=[[1.0, 0.0]], input_set=BallSet(1, 1.0)),
        SubsystemModel(A=[[0.6]], B=[[1.0]], E=[[1.0]], C_z=[[1.0]],
                       input_set=BallSet(1, 1.0)),
    ]
    bad = CouplingMap(((None, np.ones((2, 1))), ([[0.1]], None)))
    with pytest.raises(DimensionMismatch):
        assemble(subs, bad)


def test_reachability_matrix_layout():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0], [1.0]])
    R = reachability_matrix(A, B, 2)
    assert np.allclose(R, [[0.0, 1.0], [1.0, 0.0]])
