"""Slow-rate reduced-order tube controller.

The reduced model is lifted to the slow clock (one slow step = `period` fast
steps), a disturbance-rejecting gain is designed against both the reduced
and the full lifted loop, and each slow step solves a tube-tightened QP
whose first nominal state is a free variable anchored to the projected
plant state by the invariant-ball constraint.  A tube of radius 0 (no
coupling, so no disturbance on the reduced model) is a single point: the
robust MPC is then nominal MPC from the projected state, and each solve
first tries the optimum with that point pinned by equality rows.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DesignFailed, InfeasibleHL
from .gains import DETUNING_ROUNDS, dlqr, dlyap
from .lti import InterconnectedModel, lifted_closed_loop, lifted_input_matrix
from .reduction import ReducedModel
from .sets import BallSet, EllipsoidSet, RPIApproximation
from .solver import (BallConstraint, EllipsoidConstraint, KKTFactors,
                     QuadraticProgram, Status, equality_first, solve_qp)


@dataclass(frozen=True)
class SlowModel:
    """Reduced dynamics sampled at the slow rate."""

    A: np.ndarray
    B: np.ndarray
    period: int

    @property
    def n_states(self) -> int:
        return self.A.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.B.shape[1]


def lift(reduced: ReducedModel, period: int) -> SlowModel:
    """A_slow = A^period, B_slow = sum_{j<period} A^j B (held input)."""
    if period < 1:
        raise DesignFailed(f"period must be >= 1, got {period}")
    A_slow = np.linalg.matrix_power(reduced.A, period)
    return SlowModel(A_slow, lifted_input_matrix(reduced.A, reduced.B, period),
                     period)


@dataclass(frozen=True)
class GainDesign:
    """Slow feedback u = K x on the reduced model.  The full lifted closed
    loop A^period + (sum A^j B) K beta is not kept: it is rebuilt from the
    model wherever it is needed, and rho_full is its spectral radius."""

    K: np.ndarray
    F_red: np.ndarray
    rho_red: float
    rho_full: float
    rounds: int


def design_gain(slow: SlowModel, model: InterconnectedModel, reduced: ReducedModel,
                Q: np.ndarray, R: np.ndarray) -> GainDesign:
    """Riccati gain on the lifted reduced pair, detuned until the full lifted
    closed loop A^period + (sum A^j B) K beta is Schur as well.

    Detuning multiplies R by 4 each round; a zero input matrix is accepted
    with K = 0 when the open loop is already Schur.
    """
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R_cur = np.atleast_2d(np.asarray(R, dtype=float))

    def full_loop_radius(K):
        return float(np.max(np.abs(np.linalg.eigvals(lifted_closed_loop(
            model.A, model.B, K, reduced.beta, slow.period)))))

    if float(np.max(np.abs(slow.B))) <= 1e-14:
        K = np.zeros((slow.n_inputs, slow.n_states))
        rho_red = float(np.max(np.abs(np.linalg.eigvals(slow.A))))
        if rho_red >= 1.0:
            raise DesignFailed("zero input authority and unstable slow dynamics")
        return GainDesign(K, slow.A.copy(), rho_red, full_loop_radius(K), 0)

    for rounds in range(1, DETUNING_ROUNDS + 1):
        K, _ = dlqr(slow.A, slow.B, Q, R_cur)
        F_red = slow.A + slow.B @ K
        rho_red = float(np.max(np.abs(np.linalg.eigvals(F_red))))
        rho_full = full_loop_radius(K)
        if rho_red < 1.0 and rho_full < 1.0:
            return GainDesign(K, F_red, rho_red, rho_full, rounds)
        R_cur = 4.0 * R_cur
    raise DesignFailed(
        f"no gain made both lifted loops Schur within {DETUNING_ROUNDS} "
        "detuning rounds")


def terminal_cost(F: np.ndarray, K: np.ndarray, Q: np.ndarray,
                  R: np.ndarray) -> np.ndarray:
    """P solving F'PF - P = -(Q + K'RK) for the tube-ancillary loop."""
    K = np.atleast_2d(np.asarray(K, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    return dlyap(np.asarray(F, dtype=float), Q + K.T @ R @ K)


@dataclass(frozen=True)
class HLDesign:
    """The slow layer: a robust tube MPC designed on the reduced model.

    It owns every slow-layer design quantity, each stored once: the lifted
    reduced model, the tube feedback gain, the invariant tube (its ball is
    the tube cross-section), the terminal cost and set, the tightened input
    ball, the stage weights and the horizon.
    """

    slow: SlowModel
    gain: GainDesign
    tube: RPIApproximation
    P: np.ndarray
    terminal: EllipsoidSet
    input_tight: BallSet
    Q: np.ndarray
    R: np.ndarray
    horizon: int


@dataclass(frozen=True)
class HLSolution:
    x_nominal: np.ndarray
    u_nominal_seq: np.ndarray
    u_applied: np.ndarray
    x_nominal_next: np.ndarray
    objective: float
    iterations: int
    primal_residual: float
    dual_residual: float


@dataclass(frozen=True)
class TubeQP:
    """The part of the slow-layer QP that is fixed for a run.

    Decision vector: nominal states x_0..x_N, then inputs u_0..u_{N-1}.  Per
    tick only the centre of the tube ball around x_0 changes; cost, dynamics
    equalities, the stacked input balls, the terminal ellipsoid and the KKT
    factors of the slow solve are built once by `tube_qp`.  `pinned` is set
    only for a tube of radius 0: the factors of the same QP with the tube
    ball written as the equality rows x_0 = x_proj, stacked under the
    dynamics, for the layout (inputs, terminal).
    """

    design: HLDesign
    H: np.ndarray
    A_eq: np.ndarray
    inputs: BallConstraint        # one ball per step, stacked (N, m)
    terminal: EllipsoidConstraint
    factors: KKTFactors           # for the layout (tube, inputs, terminal)
    pinned: KKTFactors | None    # point tube only: layout (inputs, terminal)
    g: np.ndarray                 # the zero linear cost, read-only
    b_dyn: np.ndarray             # the dynamics' zero right-hand side, read-only


def tube_qp(design: HLDesign) -> TubeQP:
    slow = design.slow
    n, m, N = slow.n_states, slow.n_inputs, design.horizon
    d = n * (N + 1) + m * N

    def x_idx(k):
        return np.arange(k * n, (k + 1) * n)

    def u_idx(k):
        return np.arange(n * (N + 1) + k * m, n * (N + 1) + (k + 1) * m)

    H = np.zeros((d, d))
    for k in range(N):
        H[np.ix_(x_idx(k), x_idx(k))] = design.Q
        H[np.ix_(u_idx(k), u_idx(k))] = design.R
    H[np.ix_(x_idx(N), x_idx(N))] = design.P
    H = 2.0 * H + 1e-10 * np.eye(d)

    A_eq = np.zeros((n * N, d))
    for k in range(N):
        rows = slice(k * n, (k + 1) * n)
        A_eq[rows, x_idx(k + 1)] = np.eye(n)
        A_eq[rows, x_idx(k)] = -slow.A
        A_eq[rows, u_idx(k)] = -slow.B

    inputs = BallConstraint(np.arange(n * (N + 1), d).reshape(N, m),
                            design.input_tight.radius)
    terminal = EllipsoidConstraint(x_idx(N), design.terminal.shape,
                                   design.terminal.level)
    factors = KKTFactors(H, A_eq, (x_idx(0), inputs.indices, terminal.indices))
    pinned = None
    if design.tube.ball.radius == 0.0:
        pin = np.zeros((n, d))
        pin[:, x_idx(0)] = np.eye(n)
        pinned = KKTFactors(H, np.vstack([A_eq, pin]),
                            (inputs.indices, terminal.indices))
    g, b_dyn = np.zeros(d), np.zeros(n * N)
    g.flags.writeable = b_dyn.flags.writeable = False
    return TubeQP(design, H, A_eq, inputs, terminal, factors, pinned, g, b_dyn)


def feasibility_gap(qp: TubeQP, x_proj: np.ndarray) -> tuple[float, Status]:
    """Distance from the projected state to the set of admissible first
    nominal states, with the status of the QP that computed it;
    infeasibility means the distance exceeds the tube radius."""
    d, n = qp.H.shape[0], qp.design.slow.n_states
    x0 = np.arange(n)
    H_gap = 1e-12 * np.eye(d)
    H_gap[np.ix_(x0, x0)] += np.eye(n)
    g = np.zeros(d)
    g[x0] = -np.asarray(x_proj, dtype=float)
    res = solve_qp(QuadraticProgram(H_gap, g, qp.A_eq, np.zeros(qp.A_eq.shape[0]),
                                    (qp.inputs, qp.terminal)))
    return float(np.linalg.norm(res.x[x0] - x_proj)), res.status


def solve_hl(qp: TubeQP, x_proj: np.ndarray,
             tol_primal: float = 1e-8, tol_dual: float = 1e-8,
             max_iters: int = 50_000,
             first_step: bool = False) -> HLSolution:
    """One slow-step tube MPC solve from the projected plant state.

    On a point tube (`qp.pinned` set) the solve first tries the optimum of
    the QP with x_0 = x_proj as equality rows and no set active
    (`solver.equality_first`).  If that optimum lies inside the input balls
    and the terminal ellipsoid it is the optimum of the tube QP, whose tube
    is that same point, and it is returned with 0 iterations; otherwise the
    ball-formulation solve below runs as on any other tube.

    Raises InfeasibleHL with a tube-gap diagnostic when no admissible plan
    exists; on the first step the gap is always computed so the failure
    report can say how far the start is from the feasible set.  The status
    of the gap QP is reported beside the gap, since the gap is read from
    that QP's last iterate whether or not it converged.
    """
    design, slow = qp.design, qp.design.slow
    n, m, N = slow.n_states, slow.n_inputs, design.horizon
    x_proj = np.asarray(x_proj, dtype=float)
    res = None
    if qp.pinned is not None:
        pinned = QuadraticProgram(qp.H, qp.g, qp.pinned.A_eq,
                                  np.concatenate([qp.b_dyn, x_proj]),
                                  (qp.inputs, qp.terminal), qp.pinned)
        res = equality_first(pinned, qp.pinned, tol_primal, tol_dual)
    if res is None:
        tube = BallConstraint(qp.factors.layout[0], design.tube.ball.radius,
                              center=x_proj)
        prob = QuadraticProgram(qp.H, qp.g, qp.A_eq, qp.b_dyn,
                                (tube, qp.inputs, qp.terminal), qp.factors)
        res = solve_qp(prob, tol_primal, tol_dual, max_iters)
    if res.status is not Status.OPTIMAL:
        diagnostics = {
            "status": res.status.value,
            "iterations": res.iterations,
            "primal_residual": res.primal_residual,
            "dual_residual": res.dual_residual,
        }
        if first_step or res.status is Status.INFEASIBLE:
            gap, gap_status = feasibility_gap(qp, x_proj)
            diagnostics["tube_gap"] = gap
            diagnostics["tube_gap_status"] = gap_status.value
            diagnostics["tube_radius"] = design.tube.ball.radius
        raise InfeasibleHL(
            f"slow-layer problem not solved ({res.status.value}); "
            f"diagnostics: {diagnostics}", diagnostics)
    x_nom = res.x[:n]
    u_seq = res.x[n * (N + 1):].reshape(N, m)
    u_applied = u_seq[0] + design.gain.K @ (x_proj - x_nom)
    x_next = res.x[n:2 * n]
    return HLSolution(x_nom, u_seq, u_applied, x_next, res.objective,
                      res.iterations, res.primal_residual, res.dual_residual)
