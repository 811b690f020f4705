import numpy as np
import pytest

from hiermpc.errors import DimensionMismatch, NonzeroSelfCoupling
from hiermpc.lti import (CouplingMap, SubsystemModel, assemble,
                         reachability_matrix)
from hiermpc.sets import BallSet


def scalar_subsystems(a11=0.5, a22=0.6):
    return [SubsystemModel(A=[[a]], B=[[1.0]], E=[[1.0]], C_z=[[1.0]],
                           input_set=BallSet(1, 1.0)) for a in (a11, a22)]


def two_by_two_pair(a11=0.5, a22=0.6, couple=0.1):
    coupling = CouplingMap(((None, [[couple]]), ([[couple]], None)))
    return assemble(scalar_subsystems(a11, a22), coupling)


def test_assemble_two_scalar_subsystems():
    # Hand case: cross blocks are E_i L_ij C_zj = the raw gains here.
    model = two_by_two_pair()
    assert np.allclose(model.A, [[0.5, 0.1], [0.1, 0.6]])
    assert np.allclose(model.B, np.eye(2))
    assert model.state_slice(1) == slice(1, 2)


def test_self_coupling_rejected():
    with pytest.raises(NonzeroSelfCoupling):
        CouplingMap((([[0.2]], [[0.1]]), ([[0.1]], None)))


@pytest.mark.parametrize("block", [[], [[]]])
def test_empty_self_coupling_block_is_refused_by_its_shape(block):
    # An empty block has no nonzero entry, so the map takes it; the model
    # checks every block's shape, the diagonal's too.
    coupling = CouplingMap(((block, [[0.1]]), ([[0.1]], None)))
    with pytest.raises(DimensionMismatch,
                       match=r"coupling block \(0,0\) has shape \(1, 0\)"):
        assemble(scalar_subsystems(), coupling)


def test_zero_self_coupling_block_of_its_shape_is_taken():
    zero = assemble(scalar_subsystems(),
                    CouplingMap((([[0.0]], [[0.1]]), ([[0.1]], None))))
    assert zero.A.tobytes() == two_by_two_pair().A.tobytes()


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
