"""Fast-rate decentralized correction layer.

Between two slow ticks every subsystem independently plans a correction
input sequence that steers its projected deviation onto the slow layer's
one-step-ahead prediction (a hard terminal equality), then applies it with
local feedback on the gap between measured and planned deviations.  All
cross-subsystem information enters through the shared auxiliary simulation,
which is reset to the measured state at every slow tick.

Everything a tick needs that does not depend on the tick is built once per
run: the auxiliary rollout is one product with the stacked maps of
`auxiliary_maps`, and each subsystem's `CorrectionQP` carries the constant
QP data and KKT factors, so per tick only the terminal target changes (a
plan whose budgets do not bind is one solve on the cached rho = 0 factors,
through `solver.equality_first`).  `coupling_error_map` gives the fast
loop's deviation from auxiliary plus plan rollout as a linear map of the
planned corrections, which is what lets the harness run a whole fast block
without stepping it.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import DesignFailed, DimensionMismatch, InfeasibleLL
from .gains import DETUNING_ROUNDS, dlqr
from .lti import InterconnectedModel, impulse_response, matrix_powers
from .reduction import ReducedModel
from .sets import BallSet
from .solver import (BallConstraint, KKTFactors, QuadraticProgram, SolveResult,
                     Status, solve_qp)


@dataclass(frozen=True)
class AuxiliaryMaps:
    """Stacked maps of the constant-input rollout over one slow period:
    states j = 0..period are Phi[j] x + Psi[j] u, with Phi[j] = A^j and
    Psi[j] = sum_{l<j} A^l B, stacked row block by row block."""

    Phi: np.ndarray  # ((period+1) n, n)
    Psi: np.ndarray  # ((period+1) n, m)


def auxiliary_maps(model: InterconnectedModel, period: int) -> AuxiliaryMaps:
    n, m = model.n_states, model.n_inputs
    Psi = np.zeros((period + 1, n, m))
    np.cumsum(impulse_response(model.A, model.B, period), axis=0, out=Psi[1:])
    return AuxiliaryMaps(matrix_powers(model.A, period).reshape(-1, n),
                         Psi.reshape(-1, m))


def simulate_auxiliary(maps: AuxiliaryMaps, x_start: np.ndarray,
                       u_held: np.ndarray) -> np.ndarray:
    """Centralized constant-input rollout from a slow-tick measurement:
    states 0..period, shape (period+1, n)."""
    x_start = np.asarray(x_start, dtype=float)
    u_held = np.asarray(u_held, dtype=float)
    n, m = maps.Phi.shape[1], maps.Psi.shape[1]
    if x_start.shape != (n,) or u_held.shape != (m,):
        raise DimensionMismatch("auxiliary rollout dimensions inconsistent")
    return (maps.Phi @ x_start + maps.Psi @ u_held).reshape(-1, n)


@dataclass(frozen=True)
class LLGain:
    """Decentralized fast gain.  `gain @ rows` applies K to each row of a
    block of full states, (..., n) -> (..., m), one product per subsystem:
    u_i = x_i K_i', which a subsystem computes from its own columns alone
    (a dense product with K would sum the zeros in and may round
    differently)."""

    blocks: tuple[np.ndarray, ...]  # per-subsystem K_i, u_i = K_i x_i
    K: np.ndarray = field(init=False, repr=False)  # block_diag(*blocks)
    rho: float                      # spectral radius of A + B K, below 1
    rounds: int

    def __post_init__(self):
        object.__setattr__(self, "K", scipy.linalg.block_diag(*self.blocks))

    def __matmul__(self, rows: np.ndarray) -> np.ndarray:
        out = np.empty(rows.shape[:-1] + (self.K.shape[0],))
        row = col = 0
        for blk in self.blocks:
            m_i, n_i = blk.shape
            out[..., row:row + m_i] = rows[..., col:col + n_i] @ blk.T
            row, col = row + m_i, col + n_i
        return out


def design_ll_gain(model: InterconnectedModel, Q_blocks, R_blocks) -> LLGain:
    """Per-subsystem Riccati gains, detuned jointly until the coupled
    closed loop A + B diag(K_i) is Schur."""
    Q_blocks = [np.atleast_2d(np.asarray(Q, dtype=float)) for Q in Q_blocks]
    R_blocks = [np.atleast_2d(np.asarray(R, dtype=float)) for R in R_blocks]
    if len(Q_blocks) != model.n_subsystems or len(R_blocks) != model.n_subsystems:
        raise DimensionMismatch("need one weight pair per subsystem")
    scale = 1.0
    for rounds in range(1, DETUNING_ROUNDS + 1):
        blocks = []
        for sub, Q, R in zip(model.subsystems, Q_blocks, R_blocks):
            K_i, _ = dlqr(sub.A, sub.B, Q, scale * R)
            blocks.append(K_i)
        F = model.A + model.B @ scipy.linalg.block_diag(*blocks)
        rho = float(np.max(np.abs(np.linalg.eigvals(F))))
        if rho < 1.0:
            return LLGain(tuple(blocks), rho, rounds)
        scale *= 4.0
    raise DesignFailed(
        f"coupled fast loop not Schur after {DETUNING_ROUNDS} detuning rounds")


@dataclass(frozen=True)
class DeltaPlan:
    subsystem: int
    u_steps: np.ndarray        # (period, m_i) planned corrections
    states: np.ndarray         # (period+1, n_i) planned deviations, start 0
    terminal_residual: float
    iterations: int


def correction_prediction(A: np.ndarray, B: np.ndarray, period: int):
    """Stacked prediction maps: states j=1..period-1 for the cost, the
    period-step reachability row for the terminal equality.  Both are block
    Toeplitz in the responses A^p B, p < period, each a power times B."""
    n, m = B.shape
    response = matrix_powers(A, period - 1) @ B
    Gamma = np.zeros(((period - 1) * n, period * m))
    for j in range(1, period):
        Gamma[(j - 1) * n:j * n, :j * m] = np.hstack(response[j - 1::-1])
    return Gamma, np.hstack(response[::-1])


@dataclass(frozen=True)
class CorrectionQP:
    """The part of subsystem i's correction QP that is fixed for a run.

    Per tick only the terminal target b_eq changes; the cost, the terminal
    map, the per-step budget balls, the plan rollout and the KKT factors are
    built once by `correction_qp`.
    """

    subsystem: int
    rollout: np.ndarray        # [Gamma; reach]: inputs -> states 1..period
    state_slice: slice         # subsystem i's states in the full state
    beta: np.ndarray           # projection block beta_i
    H: np.ndarray
    g: np.ndarray              # the zero linear cost, read-only
    A_eq: np.ndarray           # beta_i times the period-step reachability row
    budget: BallConstraint     # one ball per step, stacked (period, m_i)
    factors: KKTFactors


def correction_qp(model: InterconnectedModel, reduced: ReducedModel, i: int,
                  budget: BallSet, Q_i: np.ndarray, R_i: np.ndarray,
                  period: int) -> CorrectionQP:
    """Build subsystem i's correction QP data for a slow period `period`."""
    sub = model.subsystems[i]
    m_i = sub.n_inputs
    beta_i = reduced.beta_block(i, model)
    Q_i = np.atleast_2d(np.asarray(Q_i, dtype=float))
    R_i = np.atleast_2d(np.asarray(R_i, dtype=float))
    Gamma, reach = correction_prediction(sub.A, sub.B, period)
    Qbar = np.kron(np.eye(period - 1), Q_i)
    Rbar = np.kron(np.eye(period), R_i)
    H = 2.0 * (Gamma.T @ Qbar @ Gamma + Rbar)
    steps = np.arange(period * m_i).reshape(period, m_i)
    A_eq = beta_i @ reach
    g = np.zeros(H.shape[0])
    g.flags.writeable = False
    return CorrectionQP(i, np.vstack([Gamma, reach]), model.state_slice(i),
                        beta_i, H, g, A_eq,
                        BallConstraint(steps, budget.radius),
                        KKTFactors(H, A_eq, (steps,)))


def solve_ll(qp: CorrectionQP, x_bar_pred_i: np.ndarray,
             aux_terminal: np.ndarray,
             tol_primal: float = 1e-8, tol_dual: float = 1e-8,
             max_iters: int = 50_000) -> DeltaPlan:
    """Correction plan for subsystem `qp.subsystem` over one slow period.

    Decision: the per-step correction sequence; the planned deviation starts
    at zero (slow-tick reset), its projection must land exactly on the slow
    layer's prediction gap `x_bar_pred_i - beta_i aux_terminal[i]` (the
    auxiliary terminal is the full state), and each step stays inside the
    budget ball.
    """
    i = qp.subsystem
    aux_term_i = np.asarray(aux_terminal, dtype=float)[qp.state_slice]
    rhs = np.asarray(x_bar_pred_i, dtype=float) - qp.beta @ aux_term_i
    prob = QuadraticProgram(qp.H, qp.g, qp.A_eq, rhs,
                            (qp.budget,), qp.factors)
    res = solve_qp(prob, tol_primal, tol_dual, max_iters)
    if res.status is not Status.OPTIMAL:
        raise _infeasible(qp, rhs, res)
    u_steps = res.x.reshape(qp.budget.indices.shape)
    states = np.zeros((u_steps.shape[0] + 1, qp.beta.shape[1]))
    states[1:] = (qp.rollout @ res.x).reshape(u_steps.shape[0], -1)
    terminal_residual = float(np.abs(qp.beta @ states[-1] - rhs).max())
    return DeltaPlan(i, u_steps, states, terminal_residual, res.iterations)


def _infeasible(qp: CorrectionQP, rhs: np.ndarray,
                res: SolveResult) -> InfeasibleLL:
    """The error for a correction QP whose solve ended without OPTIMAL; the
    message names the solver status it ended with."""
    i = qp.subsystem
    # Smallest-total-energy sequence hitting the target, for diagnosis.
    min_norm = float(np.linalg.norm(np.linalg.pinv(qp.A_eq) @ rhs))
    radius = qp.budget.radius
    cause = ("correction target unreachable within budget"
             if res.status is Status.INFEASIBLE else "correction QP not solved")
    return InfeasibleLL(
        f"subsystem {i}: {cause} (solver status {res.status.value} after "
        f"{res.iterations} iterations, |target|={np.linalg.norm(rhs):.6g}, "
        f"per-step budget={radius:.6g}, least-norm sequence={min_norm:.6g})",
        subsystem=i,
        diagnostics={"status": res.status.value,
                     "target_norm": float(np.linalg.norm(rhs)),
                     "budget": radius,
                     "least_norm_sequence": min_norm})


def coupling_error_map(model: InterconnectedModel, gain: LLGain,
                       period: int) -> np.ndarray:
    """Xi: the fast loop's deviation e = x - xhat - dxhat from the auxiliary
    plus plan rollout at fast steps 0..period, as a linear map of the
    planned corrections duhat (period, m) raveled row by row.

    With du = duhat + K e, the plant x+ = A x + B (u_held + du), the
    auxiliary xhat+ = A xhat + B u_held and the plans dxhat+ = A_d dxhat +
    B duhat (A_d the block-diagonal A; B is block-diagonal by construction),
    e+ = (A + B K) e + (A - A_d) dxhat from e = 0."""
    n, m = model.n_states, model.n_inputs
    A_d = model.block_diagonal_A()
    F, leak = model.A + model.B @ gain.K, model.A - A_d
    dxhat = np.zeros((n, period * m))  # plan rollout map at step j
    Xi = np.zeros((period + 1, n, period * m))
    for j in range(period):
        Xi[j + 1] = F @ Xi[j] + leak @ dxhat
        dxhat = A_d @ dxhat
        dxhat[:, j * m:(j + 1) * m] += model.B
    return Xi.reshape(-1, period * m)


def apply_correction(u_plan: np.ndarray, x_plan: np.ndarray, gain: LLGain,
                     delta_x: np.ndarray) -> np.ndarray:
    """Corrections of a fast block: the planned steps plus feedback on the
    measured-minus-planned deviation gap, u_plan + gain (delta_x - x_plan),
    row by row.  Rows are fast steps; the columns are all subsystems' plans
    side by side, and `gain` applies each subsystem's block K_i to its own
    columns."""
    delta_x = np.asarray(delta_x, dtype=float)
    if x_plan.shape != delta_x.shape or u_plan.shape[0] != delta_x.shape[0]:
        raise DimensionMismatch("correction block dimensions inconsistent")
    return u_plan + gain @ (delta_x - x_plan)
