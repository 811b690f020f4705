"""Slow-rate reduced-order tube controller.

The reduced model is lifted to the slow clock (one slow step = `period` fast
steps), a disturbance-rejecting gain is designed against both the reduced
and the full lifted loop, and each slow step solves a tube-tightened QP
whose first nominal state is a free variable anchored to the projected
plant state by the invariant-ball constraint.  A tube of radius 0 (no
coupling, so no disturbance on the reduced model) is a single point: the
robust MPC is then nominal MPC from the projected state, and each solve
first tries the exact optimum with that point pinned by equality rows.
The QP a tick tries first has an equality-only optimum linear in the
tick's data, so a tick whose sets do not bind is one product with a map
built once per run (`TubeQP.free`), accepted by `solver.free_optimum`.
A failed solve brackets how far the projected state lies from the states
that admit a plan (`feasibility_gap`).
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DesignFailed, DimensionMismatch, InfeasibleHL
from .gains import DETUNING_ROUNDS, dlqr, dlyap
from .lti import (InterconnectedModel, lifted_closed_loop, lifted_input_matrix,
                  reachability_matrix)
from .reduction import ReducedModel
from .sets import BallSet, EllipsoidSet, RPIApproximation
from .solver import (DistanceBracket, KKTFactors, QuadraticProgram, Status,
                     free_optimum, minkowski_distance, qp_objective, solve_qp)


@dataclass(frozen=True)
class SlowModel:
    """Reduced dynamics sampled at the slow rate."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        n = self.A.shape[0]
        if self.A.shape != (n, n) or self.B.ndim != 2 or self.B.shape[0] != n:
            raise DimensionMismatch(
                f"SlowModel.A {self.A.shape} must be square and SlowModel.B "
                f"{self.B.shape} must have one row per state")

    @property
    def n_states(self) -> int:
        return self.A.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.B.shape[1]

    def closed_loop(self, K: np.ndarray) -> np.ndarray:
        """A + B K: the slow loop under the tube feedback u = K x."""
        return self.A + self.B @ K


def lift(reduced: ReducedModel, period: int) -> SlowModel:
    """A_slow = A^period, B_slow = sum_{j<period} A^j B (held input)."""
    if period < 1:
        raise DesignFailed(f"period must be >= 1, got {period}")
    A_slow = np.linalg.matrix_power(reduced.A, period)
    return SlowModel(A_slow, lifted_input_matrix(reduced.A, reduced.B, period))


@dataclass(frozen=True)
class GainDesign:
    """Slow feedback u = K x on the reduced model.  Neither closed loop is
    kept: the reduced one is `SlowModel.closed_loop(K)`, with spectral
    radius rho_red, and the full lifted one A^period + (sum A^j B) K beta is
    rebuilt from the model wherever it is needed, with spectral radius
    rho_full."""

    K: np.ndarray
    rho_red: float
    rho_full: float
    rounds: int


def design_gain(slow: SlowModel, model: InterconnectedModel, reduced: ReducedModel,
                Q: np.ndarray, R: np.ndarray, period: int) -> GainDesign:
    """Riccati gain on the lifted reduced pair, detuned until the full lifted
    closed loop A^period + (sum A^j B) K beta is Schur as well.

    Detuning multiplies R by 4 each round; a zero input matrix is accepted
    with K = 0 when the open loop is already Schur.
    """
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R_cur = np.atleast_2d(np.asarray(R, dtype=float))

    def full_loop_radius(K):
        return float(np.max(np.abs(np.linalg.eigvals(lifted_closed_loop(
            model.A, model.B, K, reduced.beta, period)))))

    if float(np.max(np.abs(slow.B))) <= 1e-14:
        K = np.zeros((slow.n_inputs, slow.n_states))
        rho_red = float(np.max(np.abs(np.linalg.eigvals(slow.A))))
        if rho_red >= 1.0:
            raise DesignFailed("zero input authority and unstable slow dynamics")
        return GainDesign(K, rho_red, full_loop_radius(K), 0)

    for rounds in range(1, DETUNING_ROUNDS + 1):
        K, _ = dlqr(slow.A, slow.B, Q, R_cur)
        rho_red = float(np.max(np.abs(np.linalg.eigvals(slow.closed_loop(K)))))
        rho_full = full_loop_radius(K)
        if rho_red < 1.0 and rho_full < 1.0:
            return GainDesign(K, rho_red, rho_full, rounds)
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

    It holds what the design stages compute: the lifted reduced model, the
    tube feedback gain, the invariant tube (its ball is the tube
    cross-section), the terminal set and the tightened input ball.  The
    settings they were computed from (slow period, stage weights, horizon)
    are the design's `RunConfig`, not fields here.  The terminal cost is
    the terminal set's `shape`, and the tube dynamics are
    `slow.closed_loop(gain.K)`; neither is a field of its own.  The gain
    and the terminal shape must fit the slow model's state and input
    counts, and the balls lie at the origin.
    """

    slow: SlowModel
    gain: GainDesign
    tube: RPIApproximation
    terminal: EllipsoidSet
    input_tight: BallSet

    def __post_init__(self):
        n, m = self.slow.n_states, self.slow.n_inputs
        for name, shape, expected in (
                ("gain.K", self.gain.K.shape, (m, n)),
                ("terminal.shape", self.terminal.shape.shape, (n, n))):
            if shape != expected:
                raise DimensionMismatch(
                    f"HLDesign.{name} has shape {shape}; the slow model with "
                    f"{n} states and {m} inputs needs {expected}")
        if self.tube.ball.center is not None or self.input_tight.center is not None:
            raise DimensionMismatch("HLDesign.tube.ball and HLDesign.input_tight "
                                    "must be centred at the origin")


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
    equalities, the design's sets placed on the decision vector and the KKT
    factors of the slow solve are built once by `tube_qp`.  `pinned` is set
    only for a tube of radius 0: the factors of the same QP with the tube
    ball written as the equality rows x_0 = x_proj, stacked under the
    dynamics, for the layout (inputs, terminal).

    `free` is the equality-only optimum, with its multipliers, of the
    formulation a tick tries first, as a map of the tick's data, built with
    one K0 solve.  On a point tube it is the pinned QP's solves
    against the unit vectors of the rows x_0 = x_proj, (d + r, n): a
    tick's optimum is free @ x_proj.  Otherwise the tick moves only the
    tube centre, so the ball formulation's optimum is one vector, (d + r,),
    the same on every tick, and so is all that `solver.free_optimum` checks
    of it but the tube ball: `fixed` holds its equality residual,
    stationarity and objective if the rule accepts it on the input balls
    and the terminal set, and is None otherwise (and on a point tube).
    """

    design: HLDesign
    horizon: int                  # N, the number of plan steps
    H: np.ndarray
    A_eq: np.ndarray
    tube: BallSet                 # at x_0, centred at the origin
    inputs: BallSet               # one ball per step, stacked (N, m)
    terminal: EllipsoidSet        # at x_N
    factors: KKTFactors           # for the layout (tube, inputs, terminal)
    pinned: KKTFactors | None    # point tube only: layout (inputs, terminal)
    g: np.ndarray                 # the zero linear cost, read-only
    b_dyn: np.ndarray             # the dynamics' zero right-hand side, read-only
    free: np.ndarray              # the first formulation's free map, read-only
    fixed: tuple[float, float, float] | None  # ball formulation, see above


def tube_qp(design: HLDesign, Q: np.ndarray, R: np.ndarray,
            horizon: int) -> TubeQP:
    """The run-constant slow QP of `design` with stage weights Q and R over
    `horizon` steps."""
    slow = design.slow
    n, m, N = slow.n_states, slow.n_inputs, horizon
    d = n * (N + 1) + m * N

    def x_idx(k):
        return np.arange(k * n, (k + 1) * n)

    # One block slice per step: the stage costs Q and R on the diagonal,
    # the dynamics row x_{k+1} - A x_k - B u_k.
    H = np.zeros((d, d))
    A_eq = np.zeros((n * N, d))
    for k in range(N):
        x, x_next = slice(k * n, (k + 1) * n), slice((k + 1) * n, (k + 2) * n)
        u = slice(n * (N + 1) + k * m, n * (N + 1) + (k + 1) * m)
        H[x, x] = Q
        H[u, u] = R
        A_eq[x, x_next] = np.eye(n)
        A_eq[x, x] = -slow.A
        A_eq[x, u] = -slow.B
    x_end = slice(N * n, (N + 1) * n)
    H[x_end, x_end] = design.terminal.shape
    H = 2.0 * H + 1e-10 * np.eye(d)

    tube = replace(design.tube.ball, indices=x_idx(0))
    inputs = replace(design.input_tight,
                     indices=np.arange(n * (N + 1), d).reshape(N, m))
    terminal = replace(design.terminal, indices=x_idx(N))
    factors = KKTFactors(H, A_eq, (tube.indices, inputs.indices, terminal.indices))
    g, b_dyn = np.zeros(d), np.zeros(n * N)
    g.flags.writeable = b_dyn.flags.writeable = False
    pinned = None
    if tube.radius == 0.0:
        pin = np.zeros((n, d))
        pin[:, :n] = np.eye(n)
        pinned = KKTFactors(H, np.vstack([A_eq, pin]),
                            (inputs.indices, terminal.indices))
        rhs = np.zeros((d + n * (N + 1), n))
        rhs[-n:] = np.eye(n)
        free, fixed = pinned.equality_solve(rhs), None
    else:
        free = factors.equality_solve(np.concatenate([-g, b_dyn]))
        residuals = free_optimum(free, H, g, A_eq, b_dyn, (inputs, terminal))
        fixed = (None if residuals is None
                 else (*residuals, qp_objective(H, g, free[:d])))
    return TubeQP(design, N, H, A_eq, tube, inputs, terminal, factors, pinned,
                  g, b_dyn, free, fixed)


def horizon_inverse(slow: SlowModel, horizon: int) -> np.ndarray:
    """A_slow^-horizon; DesignFailed unless it exists to working precision,
    with the Skeel condition number || |A^-N| |A^N| ||_inf at most 1e12
    (not the normwise one: a diagonal A^N has 1 at any spread)."""
    A_N = np.linalg.matrix_power(slow.A, horizon)
    try:
        A_inv = np.linalg.inv(A_N)
        skeel = float(np.max(np.abs(A_inv) @ np.abs(A_N).sum(axis=1)))
    except np.linalg.LinAlgError:
        skeel = np.inf
    if not skeel <= 1e12:
        raise DesignFailed(f"A_slow^{horizon} is singular to working "
                           f"precision (Skeel condition number {skeel:.3g})")
    return A_inv


def feasibility_gap(qp: TubeQP, x_proj: np.ndarray) -> DistanceBracket:
    """`solver.minkowski_distance` from x_proj to the first nominal states
    that admit a plan, X = {x_0 : A^N x_0 + sum_k S_k u_k in the terminal
    ellipsoid, ||u_k|| <= r}, S_k = A^(N-1-k) B: X = sum_j G_j B with G_0 =
    sqrt(level) A^-N chol(P^-1) and G_k = r A^-N S_k (`horizon_inverse`).
    The tube QP is infeasible exactly when the distance exceeds the tube
    radius."""
    slow, N = qp.design.slow, qp.horizon
    n, m = slow.n_states, slow.n_inputs
    L = np.linalg.cholesky(np.linalg.inv(qp.terminal.shape))
    sizes = np.repeat([np.sqrt(qp.terminal.level), qp.inputs.radius],
                      [n, N * m])
    G = horizon_inverse(slow, N) @ np.hstack(
        [L, reachability_matrix(slow.A, slow.B, N)]) * sizes
    return minkowski_distance(x_proj, G, np.repeat(np.arange(N + 1),
                                                   [n] + [m] * N))


def solve_hl(qp: TubeQP, x_proj: np.ndarray) -> HLSolution:
    """One slow-step tube MPC solve from the projected plant state.

    A tick first takes the equality-only optimum of the formulation it
    tries first from the run-constant map `qp.free`, and returns it, with 0
    iterations and its own residuals and objective, when the rule of
    `solver.free_optimum` accepts it; no QP is built.  On a point tube
    (`qp.pinned` set) that formulation is the QP with x_0 = x_proj as
    equality rows, whose sets are the input balls and the terminal
    ellipsoid, and its optimum is free @ x_proj.  Otherwise it is the ball
    formulation, whose optimum is the same on every tick, so that only the
    tube ball around x_proj is checked per tick (`qp.fixed` holds the
    rest).  Any other tick passes the same solve as the start of the exact
    path, with no second solve: `solve_qp` on the ball formulation, or on a
    point tube on the pinned QP (whose optimum is that of the tube QP, whose
    tube is that same point).  Its equality-first try declines as the free
    rule did, so the active-set step decides the tick, or the certificate.

    `iterations` of the solution is 0 when the equality-only optimum
    decided the tick, and the active-set step's Newton steps otherwise.

    Raises InfeasibleHL when the solve does not end OPTIMAL.  The
    diagnostics name the status and carry the `feasibility_gap` of x_proj:
    `tube_gap_bracket` (lower, upper), `tube_gap` (the lower bound),
    `tube_gap_dual` (the dual point) and `tube_radius`.
    """
    x_proj = np.asarray(x_proj, dtype=float)
    d = qp.H.shape[0]
    if qp.pinned is None:
        # The tube ball around x_proj holds x_0 exactly when the ball at the
        # origin holds x_0 - x_proj, the difference its violation takes.
        if (qp.fixed is not None
                and qp.tube.violation(qp.free[qp.tube.indices] - x_proj) == 0.0):
            eq_res, dual_res, objective = qp.fixed
            return _solution(qp, x_proj, qp.free[:d], objective, 0, eq_res,
                             dual_res)
        tube = replace(qp.tube, center=x_proj)
        res = solve_qp(QuadraticProgram(qp.H, qp.g, qp.A_eq, qp.b_dyn,
                                        (tube, qp.inputs, qp.terminal),
                                        qp.factors), start=qp.free)
    else:
        cons = (qp.inputs, qp.terminal)
        b_eq, sol = np.concatenate([qp.b_dyn, x_proj]), qp.free @ x_proj
        residuals = free_optimum(sol, qp.H, qp.g, qp.pinned.A_eq, b_eq, cons)
        if residuals is not None:
            x = sol[:d]
            return _solution(qp, x_proj, x, qp_objective(qp.H, qp.g, x), 0,
                             *residuals)
        res = solve_qp(QuadraticProgram(qp.H, qp.g, qp.pinned.A_eq, b_eq, cons,
                                        qp.pinned), start=sol)
    if res.status is not Status.OPTIMAL:
        gap = feasibility_gap(qp, x_proj)
        diagnostics = {"status": res.status.value, "iterations": res.iterations,
                       "primal_residual": res.primal_residual,
                       "dual_residual": res.dual_residual, "tube_gap": gap.lower,
                       "tube_gap_bracket": [gap.lower, gap.upper],
                       "tube_gap_dual": gap.w.tolist(),
                       "tube_radius": qp.tube.radius}
        raise InfeasibleHL(
            f"slow-layer problem not solved ({res.status.value}); "
            f"diagnostics: {diagnostics}", diagnostics)
    return _solution(qp, x_proj, res.x, res.objective, res.iterations,
                     res.primal_residual, res.dual_residual)


def _solution(qp: TubeQP, x_proj: np.ndarray, x: np.ndarray, objective: float,
              iterations: int, primal_residual: float,
              dual_residual: float) -> HLSolution:
    """The tick's solution from the slow QP's optimum x: the nominal plan
    and the held input with the tube feedback on x_proj."""
    design = qp.design
    n, m, N = design.slow.n_states, design.slow.n_inputs, qp.horizon
    x_nom = x[:n]
    u_seq = x[n * (N + 1):].reshape(N, m)
    u_applied = u_seq[0] + design.gain.K @ (x_proj - x_nom)
    return HLSolution(x_nom, u_seq, u_applied, x[n:2 * n], objective,
                      iterations, primal_residual, dual_residual)
