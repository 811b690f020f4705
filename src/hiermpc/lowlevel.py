"""Fast-rate decentralized correction layer.

Between two slow ticks every subsystem plans a correction input sequence
that steers its projected deviation onto the slow layer's one-step-ahead
prediction (a hard terminal equality), then applies it with local feedback
on the gap between measured and planned deviations.  All cross-subsystem
information enters through the shared auxiliary simulation, which is reset
to the measured state at every slow tick.

The M plans share no variable and no constraint: each subsystem plans
against its own model, weights, target and budget.  `correction_qp` stacks
them into one block-separable QP whose decision is the tick's (period, m)
corrections, each block at its own subsystem's inputs and target rows, so
the plans stay decentralized by construction while a tick makes one solve
(`tests/test_lowlevel.py` checks the stacked plan against each subsystem's
QP solved alone).  Everything a tick needs that does not depend on the tick
is built once per run: the auxiliary rollout is one product with the
stacked maps of `auxiliary_maps`, and the stacked QP carries the constant
QP data and one set of KKT factors, so per tick only the terminal target
changes (a plan whose budgets do not bind is one solve on the cached
rho = 0 factors, through `solver.equality_first`).  `coupling_error_map`
gives the fast loop's deviation from auxiliary plus plan rollout as a
linear map of the planned corrections; with the plan rollouts that
`correction_qp` adds into it, it is what lets the harness run a whole fast
block without stepping it.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import DesignFailed, DimensionMismatch, InfeasibleLL
from .gains import DETUNING_ROUNDS, dlqr
from .lti import InterconnectedModel, impulse_response, matrix_powers
from .reduction import ReducedModel
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
    u_steps: np.ndarray        # (period, m) planned corrections, all subsystems
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
    """The M correction QPs of a run as one block-separable QP.

    The decision is the tick's planned corrections, shape (period, m),
    raveled row by row.  Subsystem i's cost H_i and terminal map
    beta_i reach_i sit at its own (step, input) coordinates and its own
    target rows, and its per-step budget balls are its own constraint, so
    no block touches another subsystem's inputs or target.  Per tick only
    the terminal target b_eq changes; everything here, with one set of KKT
    factors, is built once by `correction_qp`.
    """

    period: int
    beta: np.ndarray           # the block-diagonal projection
    H: np.ndarray
    g: np.ndarray              # the zero linear cost, read-only
    A_eq: np.ndarray           # beta_i times subsystem i's reachability row
    budgets: tuple[BallConstraint, ...]  # subsystem i's balls, (period, m_i)
    target_rows: tuple[slice, ...]       # subsystem i's rows of A_eq
    factors: KKTFactors


def correction_qp(model: InterconnectedModel, reduced: ReducedModel, budgets,
                  Q_blocks, R_blocks, period: int,
                  rollouts: np.ndarray) -> CorrectionQP:
    """Build the stacked correction QP for a slow period `period`; subsystem
    i has the per-step budget `budgets[i]` and the weights Q_blocks[i],
    R_blocks[i].  Each subsystem's plan rollout [0; Gamma_i; reach_i], its
    planned deviations at steps 0..period, is added in place into
    `rollouts`, a ((period+1) n, period m) map of the planned corrections,
    at its own states and inputs."""
    n, m = model.n_states, model.n_inputs
    d = period * m
    H = np.zeros((d, d))
    A_eq = np.zeros((reduced.n_states, d))
    steps = np.arange(d).reshape(period, m)
    plan_map = rollouts.reshape(period + 1, n, period, m)
    balls, target_rows = [], []
    for i, sub in enumerate(model.subsystems):
        n_i, m_i = sub.n_states, sub.n_inputs
        cols = steps[:, model.input_slice(i)]
        at = cols.ravel()
        Q_i = np.atleast_2d(np.asarray(Q_blocks[i], dtype=float))
        R_i = np.atleast_2d(np.asarray(R_blocks[i], dtype=float))
        Gamma, reach = correction_prediction(sub.A, sub.B, period)
        # Gamma' diag(Q_i) Gamma + diag(R_i), one state block at a time.
        H_i = Gamma.T @ (Q_i @ Gamma.reshape(period - 1, n_i, -1)).reshape(
            Gamma.shape)
        for j in range(period):
            H_i[j * m_i:(j + 1) * m_i, j * m_i:(j + 1) * m_i] += R_i
        H[np.ix_(at, at)] = 2.0 * H_i
        rows = reduced.block_slice(i)
        A_eq[rows, at] = reduced.beta_block(i, model) @ reach
        plan_map[1:, model.state_slice(i), :, model.input_slice(i)] += \
            np.vstack([Gamma, reach]).reshape(period, n_i, period, m_i)
        balls.append(BallConstraint(cols, float(budgets[i])))
        target_rows.append(rows)
    g = np.zeros(d)
    g.flags.writeable = False
    factors = KKTFactors(H, A_eq, [b.indices for b in balls])
    # The rho = 0 factors every tick uses, factored now: a run builds this
    # QP before its records, so the KKT matrix, a temporary as large as the
    # factors, is never held next to them.
    factors.factor(0.0)
    return CorrectionQP(period, reduced.beta, H, g, A_eq, tuple(balls),
                        tuple(target_rows), factors)


def solve_ll(qp: CorrectionQP, x_bar_pred: np.ndarray,
             aux_terminal: np.ndarray) -> DeltaPlan:
    """Every subsystem's correction plan over one slow period, in one solve.

    Decision: the per-step corrections; each subsystem's planned deviation
    starts at zero (slow-tick reset), its projection must land exactly on
    its rows of the slow layer's prediction gap `x_bar_pred - beta
    aux_terminal` (the auxiliary terminal is the full state, beta is block
    diagonal), and each of its steps stays inside its budget ball.  Only
    when the stacked solve ends without OPTIMAL is each subsystem's block
    solved alone, in order: the first that fails raises InfeasibleLL naming
    it, and if none fails the plan is theirs.
    """
    rhs = (np.asarray(x_bar_pred, dtype=float)
           - qp.beta @ np.asarray(aux_terminal, dtype=float))
    res = solve_qp(QuadraticProgram(qp.H, qp.g, qp.A_eq, rhs, qp.budgets,
                                    qp.factors))
    if res.status is Status.OPTIMAL:
        return DeltaPlan(res.x.reshape(qp.period, -1), res.iterations)
    x, iterations = np.empty(qp.g.shape[0]), res.iterations
    for i, (ball, rows) in enumerate(zip(qp.budgets, qp.target_rows)):
        at = ball.indices.ravel()
        A_i, rhs_i = qp.A_eq[rows, at], rhs[rows]
        own = BallConstraint(np.arange(at.size).reshape(ball.indices.shape),
                             ball.radius)
        res = solve_qp(QuadraticProgram(qp.H[np.ix_(at, at)], np.zeros(at.size),
                                        A_i, rhs_i, (own,)))
        iterations += res.iterations
        if res.status is not Status.OPTIMAL:
            raise _infeasible(i, A_i, ball.radius, rhs_i, res)
        x[at] = res.x
    return DeltaPlan(x.reshape(qp.period, -1), iterations)


def _infeasible(i: int, A_eq: np.ndarray, radius: float, rhs: np.ndarray,
                res: SolveResult) -> InfeasibleLL:
    """The error for subsystem i's correction QP, A_eq x = rhs within
    per-step balls of `radius`, whose solve ended without OPTIMAL; the
    message names the solver status it ended with."""
    # Smallest-total-energy sequence hitting the target, for diagnosis.
    min_norm = float(np.linalg.norm(np.linalg.pinv(A_eq) @ rhs))
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
