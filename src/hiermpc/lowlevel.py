"""Fast-rate decentralized correction layer.

Between two slow ticks every subsystem independently plans a correction
input sequence that steers its projected deviation onto the slow layer's
one-step-ahead prediction (a hard terminal equality), then applies it with
local feedback on the gap between measured and planned deviations.  All
cross-subsystem information enters through the shared auxiliary simulation,
which is reset to the measured state at every slow tick.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import DesignFailed, DimensionMismatch, InfeasibleLL
from .gains import DETUNING_ROUNDS, dlqr
from .lti import InterconnectedModel, matrix_powers
from .reduction import ReducedModel
from .sets import BallSet
from .solver import BallConstraint, KKTFactors, QuadraticProgram, Status, solve_qp


@dataclass(frozen=True)
class AuxiliaryState:
    """Centralized constant-input rollout from a slow-tick measurement."""

    states: np.ndarray  # (period+1, n)

    @property
    def terminal(self) -> np.ndarray:
        return self.states[-1]


def simulate_auxiliary(model: InterconnectedModel, x_start: np.ndarray,
                       u_held: np.ndarray, period: int) -> AuxiliaryState:
    x_start = np.asarray(x_start, dtype=float)
    u_held = np.asarray(u_held, dtype=float)
    if x_start.shape != (model.n_states,) or u_held.shape != (model.n_inputs,):
        raise DimensionMismatch("auxiliary rollout dimensions inconsistent")
    states = np.empty((period + 1, model.n_states))
    states[0] = x_start
    Bu = model.B @ u_held
    for j in range(period):
        states[j + 1] = model.A @ states[j] + Bu
    return AuxiliaryState(states)


@dataclass(frozen=True)
class LLGain:
    """Decentralized fast gain.  `gain @ x` is K @ x computed block by block,
    one batched product per block shape, so that each u_i is bitwise the
    K_i @ x_i of subsystem i alone (a dense product with K sums the zeros
    in and may round differently)."""

    blocks: tuple[np.ndarray, ...]  # per-subsystem K_i, u_i = K_i x_i
    K: np.ndarray = field(init=False, repr=False)  # block_diag(*blocks)
    rho: float                      # spectral radius of A + B K, below 1
    rounds: int
    # (state indices, input indices, blocks) per block shape, each stacked
    # over the subsystems of that shape.
    stacks: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "K", scipy.linalg.block_diag(*self.blocks))
        groups = {}
        row = col = 0
        for blk in self.blocks:
            m_i, n_i = blk.shape
            states, inputs, blocks = groups.setdefault(blk.shape, ([], [], []))
            states.append(np.arange(col, col + n_i))
            inputs.append(np.arange(row, row + m_i))
            blocks.append(blk)
            row, col = row + m_i, col + n_i
        object.__setattr__(self, "stacks", tuple(
            (np.array(states), np.array(inputs), np.array(blocks))
            for states, inputs, blocks in groups.values()))

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        out = np.empty(self.K.shape[0])
        for states, inputs, blocks in self.stacks:
            out[inputs] = (blocks @ x[states][..., None])[..., 0]
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
    objective: float
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
    return CorrectionQP(i, np.vstack([Gamma, reach]), model.state_slice(i),
                        beta_i, H, A_eq,
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
    prob = QuadraticProgram(qp.H, np.zeros(qp.H.shape[0]), qp.A_eq, rhs,
                            (qp.budget,), qp.factors)
    res = solve_qp(prob, tol_primal, tol_dual, max_iters)
    if res.status is not Status.OPTIMAL:
        # Smallest-total-energy sequence hitting the target, for diagnosis.
        H_pinv = np.linalg.pinv(qp.A_eq)
        min_norm = float(np.linalg.norm(H_pinv @ rhs))
        radius = qp.budget.radius
        raise InfeasibleLL(
            f"subsystem {i}: correction target unreachable within budget "
            f"(|target|={np.linalg.norm(rhs):.6g}, per-step budget={radius:.6g}, "
            f"least-norm sequence={min_norm:.6g})",
            subsystem=i,
            diagnostics={"status": res.status.value,
                         "target_norm": float(np.linalg.norm(rhs)),
                         "budget": radius,
                         "least_norm_sequence": min_norm})
    u_steps = res.x.reshape(qp.budget.indices.shape)
    states = np.zeros((u_steps.shape[0] + 1, qp.beta.shape[1]))
    states[1:] = (qp.rollout @ res.x).reshape(u_steps.shape[0], -1)
    terminal_residual = float(np.max(np.abs(qp.beta @ states[-1] - rhs)))
    return DeltaPlan(i, u_steps, states, terminal_residual, res.objective,
                     res.iterations)


def apply_correction(u_plan: np.ndarray, x_plan: np.ndarray, gain: np.ndarray,
                     delta_x: np.ndarray, j: int) -> np.ndarray:
    """Correction input at fast offset j: planned step plus feedback on the
    measured-minus-planned deviation gap, u_plan[j] + gain (delta_x - x_plan[j]).

    Takes one subsystem's plan with its gain block K_i, or the plans of all
    subsystems stacked side by side with their `LLGain`; the two are the same
    decentralized law, to the bit."""
    if not 0 <= j < u_plan.shape[0]:
        raise DimensionMismatch(f"fast offset {j} outside the plan horizon")
    return u_plan[j] + gain @ (np.asarray(delta_x, dtype=float) - x_plan[j])
