import math

import numpy as np
import pytest

from hiermpc import solver
from hiermpc.harness import slow_weights
from hiermpc.highlevel import tube_qp


@pytest.fixture
def kkt_solves(monkeypatch):
    """The factors of every `solver._kkt_solve` call the test makes: the
    K0 solves of a `KKTFactors` are the calls with its `lu`."""
    factors = []
    kkt_solve = solver._kkt_solve
    monkeypatch.setattr(solver, "_kkt_solve", lambda factor, rhs:
                        factors.append(factor) or kkt_solve(factor, rhs))
    return factors


def _kkt_certificate(problem, x, tol):
    """Re-derive a KKT certificate of `x` for `problem` from x alone: every
    set holds to `tol`; the rows on their boundary (relative 1e-9) are the
    active ones; least squares over A_eq' and the active rows' normals
    S_j'M_j y_j gives explicit multipliers (lam, mu), whose stationarity
    residual must be <= tol, with mu >= -tol; the equality residual must be
    <= tol.  The inactive rows carry no multiplier, so complementarity holds
    by construction.  Returns mu, one per active row."""
    d = x.shape[0]
    normals = []
    for c in problem.constraints:
        if isinstance(c, solver.EllipsoidConstraint):
            y = x[c.indices]
            rows = [(c.indices, c.shape @ y, math.sqrt(y @ c.shape @ y),
                     math.sqrt(c.level))]
        else:
            idx = np.atleast_2d(c.indices)
            centre = (np.zeros(idx.shape) if c.center is None
                      else np.atleast_2d(c.center))
            rows = [(i, x[i] - ctr, float(np.linalg.norm(x[i] - ctr)), c.radius)
                    for i, ctr in zip(idx, centre)]
        for ind, My, size, bound in rows:
            assert size <= bound + tol, (size, bound)
            if abs(size - bound) <= 1e-9 * bound:
                col = np.zeros(d)
                col[ind] = My
                normals.append(col)
    cols = [] if problem.A_eq is None else [problem.A_eq.T]
    if problem.A_eq is not None:
        assert np.max(np.abs(problem.A_eq @ x - problem.b_eq)) <= tol
    basis = np.column_stack(cols + normals) if cols or normals else np.zeros((d, 0))
    grad = problem.H @ x + problem.g
    z = np.linalg.lstsq(basis, -grad, rcond=None)[0]
    assert np.max(np.abs(basis @ z + grad)) <= tol
    mu = z[basis.shape[1] - len(normals):]
    assert np.all(mu >= -tol), mu
    return mu


@pytest.fixture
def kkt_certificate():
    """`_kkt_certificate`: the checker of an optimum's KKT conditions."""
    return _kkt_certificate


def _infeasibility_bound(problem, certificate):
    """Re-derive the lower bound of an INFEASIBLE result's certificate from
    its dual point y alone: y must vanish on the columns of A_eq that no set
    holds, and then every x with its sets' coordinates in the sets has
    y'(b_eq - A_eq x) >= y'b_eq - sum over the sets of (y'A_j c_j +
    sigma_j(A_j'y)), sigma_j the support function of the set less its
    centre c_j: r ||v|| for a ball of radius r (each row of a stacked
    family), sqrt(level v'P^-1 v) for an ellipsoid.  Returns that bound over
    ||y||, computed here set by set."""
    y = certificate.w
    A, value = problem.A_eq, float(y @ problem.b_eq)
    held = np.zeros(problem.dim, dtype=bool)
    for c in problem.constraints:
        held[c.indices.ravel()] = True
        if isinstance(c, solver.EllipsoidConstraint):
            v = A[:, c.indices].T @ y
            value -= math.sqrt(c.level * v @ np.linalg.solve(c.shape, v))
            continue
        idx = np.atleast_2d(c.indices)
        centre = (np.zeros(idx.shape) if c.center is None
                  else np.atleast_2d(c.center))
        for i, ctr in zip(idx, centre):
            v = A[:, i].T @ y
            value -= float(v @ ctr) + c.radius * float(np.linalg.norm(v))
    scale = float(np.linalg.norm(A)) * float(np.linalg.norm(y))
    assert np.max(np.abs(A[:, ~held].T @ y), initial=0.0) <= 1e-12 * scale
    return value / float(np.linalg.norm(y))


@pytest.fixture
def infeasibility_bound():
    """`_infeasibility_bound`: the checker of an infeasibility certificate."""
    return _infeasibility_bound


def _stepped_prediction(A, B, period):
    """One subsystem's plan predictions, stepped one fast step at a time:
    column c is the rollout x+ = A x + B u from 0 of the unit plan e_c, the
    (period, m) corrections raveled row by row.  Returns the states after
    steps 1..period-1, stacked, and the state after step `period`."""
    n, m = B.shape
    units = np.eye(period * m).reshape(period, m, period * m)
    x, states = np.zeros((n, period * m)), []
    for u in units:
        x = A @ x + B @ u
        states.append(x)
    return np.array(states[:-1]).reshape(-1, period * m), states[-1]


def _own_correction_qp(model, reduced, i, radius, Q_i, R_i, period, rhs):
    """Subsystem i's correction QP on its own, with the target `rhs`: the
    QP a decentralized regulator would solve, its predictions stepped fast
    step by fast step and its weights stacked by dense Kronecker products,
    in its own coordinates (period, m_i)."""
    sub = model.subsystems[i]
    Q_i, R_i = np.atleast_2d(Q_i), np.atleast_2d(R_i)
    Gamma, reach = _stepped_prediction(sub.A, sub.B, period)
    H = 2.0 * (Gamma.T @ np.kron(np.eye(period - 1), Q_i) @ Gamma
               + np.kron(np.eye(period), R_i))
    steps = np.arange(period * sub.n_inputs).reshape(period, sub.n_inputs)
    return solver.QuadraticProgram(
        H, np.zeros(H.shape[0]), reduced.beta_block(i, model) @ reach,
        np.asarray(rhs, dtype=float), (solver.BallConstraint(steps, radius),))


@pytest.fixture
def own_correction_qp():
    """`_own_correction_qp`: one subsystem's correction QP, built alone."""
    return _own_correction_qp


def _slow_qp(bundle):
    """The slow QP of a design bundle as `run_closed_loop` builds it, with
    the weights and the horizon of the bundle's config."""
    cfg = bundle.config
    weights = slow_weights(cfg, bundle.reduced.n_states, bundle.model.n_inputs)
    return tube_qp(bundle.hl, *weights, cfg.horizon)


@pytest.fixture(scope="session")
def slow_qp():
    """`_slow_qp`: a design bundle's slow QP."""
    return _slow_qp
