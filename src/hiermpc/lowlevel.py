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
the plans stay decentralized by construction while a tick whose budgets do
not bind is decided at once (`tests/test_lowlevel.py` checks the stacked
plan against each subsystem's QP solved alone).  Everything a tick needs
that does not depend on the tick is built once per run: the stacked maps
of the auxiliary rollout, `auxiliary_maps`, of which a tick reads only the
last block row (the terminal state its target needs; the other states are
rolled out from the trace by `harness.periods`, when read), and the stacked
QP with the
constant QP data, each subsystem's QP alone and the free map.  Each block
is factored once, with the run: its factors give its columns of the free
map, the K0 solves against the unit vectors of its target rows, and its
exact path, for the ticks whose budgets bind.  No stacked KKT matrix is
factored, so the map's bits do not depend on how the LU of a large matrix
is split over BLAS threads.  Per tick only the terminal target changes, so
a plan whose budgets do not bind is one product with that map, accepted by
`solver.free_optimum`'s rule with the budgets checked in one reduction: no
QP is built.

The regulators are LTI within a slow period, so every map from a tick's
planned corrections to its fast block is block lower-triangular Toeplitz
in (fast step, plan step): block (j, l) depends only on the lag j - l.
`lag_response` is the response to one unit plan step at lag 0, lags
0..period, an O(period) recursion on n x m blocks: the plan rollout and
the measured deviation from the auxiliary rollout.  `block_toeplitz`
gathers a lag table into the map; the plan predictions of `correction_qp`
are such a gather, and the harness's map W_N of the period's end state is
its last block row.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import DesignFailed, DimensionMismatch, InfeasibleLL
from .gains import DETUNING_ROUNDS, dlqr
from .lti import InterconnectedModel, impulse_response, matrix_powers
from .reduction import ReducedModel
from .sets import BallSet
from .solver import (KKTFactors, QuadraticProgram, SolveResult, Status,
                     free_optimum, solve_qp)


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
    """Centralized constant-input rollout from a slow-tick measurement: the
    states of the maps' block rows, shape (rows, n); states 0..period on the
    maps of `auxiliary_maps`, the terminal state alone on their last block
    row."""
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


def lag_response(model: InterconnectedModel, gain: LLGain,
                 period: int) -> tuple[np.ndarray, np.ndarray]:
    """The fast block's response to a unit plan step at lag 0, at lags
    p = 0..period: two (period+1, n, m) tables of n x m blocks, column c of
    each the response to input c.

    dx is the plan rollout, dx_1 = B and dx_{p+1} = A_d dx_p (A_d the
    block-diagonal A; B is block-diagonal by construction).  omega is the
    measured deviation from the auxiliary rollout, omega_p = dx_p + e_p:
    with du = duhat + K e, the plant x+ = A x + B (u_held + du), the
    auxiliary xhat+ = A xhat + B u_held and the plans dxhat+ = A_d dxhat +
    B duhat, the coupling error e = x - xhat - dxhat steps as
    e_{p+1} = (A + B K) e_p + (A - A_d) dx_p from e_0 = 0."""
    n, m = model.n_states, model.n_inputs
    A_d = model.block_diagonal_A()
    F, leak = model.A + model.B @ gain.K, model.A - A_d
    dx, e = np.zeros((2, period + 1, n, m))
    dx[1] = model.B
    for p in range(1, period):
        dx[p + 1] = A_d @ dx[p]
        e[p + 1] = F @ e[p] + leak @ dx[p]
    return dx, dx + e


def block_toeplitz(lags: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """The block lower-triangular Toeplitz matrix of a (>= rows, r, c) lag
    table, (rows r, cols c): block (j, l) is lags[j - l] for j >= l and zero
    above.  A strided window over the zero-padded lags, copied once: each
    row of the result is one contiguous read, where a loop over the plan
    steps writes c-wide columns across the whole matrix (several times
    slower on the workloads' W)."""
    _, r, c = lags.shape
    # line[a] is row a of the blocks of lags rows-1, ..., 1, 0 and then of
    # cols-1 zero blocks, side by side: row a of block row j is the stretch
    # of cols blocks that starts at block rows-1-j.
    line = np.zeros((r, rows + cols - 1, c))
    line[:, :rows] = lags[rows - 1::-1].transpose(1, 0, 2)
    stretches = np.lib.stride_tricks.sliding_window_view(
        line.reshape(r, -1), cols * c, axis=1)[:, ::c]  # (r, rows, cols c)
    return stretches[:, ::-1].transpose(1, 0, 2).copy().reshape(rows * r,
                                                                cols * c)


@dataclass(frozen=True)
class CorrectionQP:
    """The M correction QPs of a run as one block-separable QP.

    The decision is the tick's planned corrections, shape (period, m),
    raveled row by row.  Subsystem i's cost H_i and terminal map
    beta_i reach_i sit at its own (step, input) coordinates and its own
    target rows, and its per-step budget balls are its own constraint, so
    no block touches another subsystem's inputs or target.  When every
    subsystem has `width` inputs, subsystem i's balls are the i-th run of
    `width` columns of the plan, so `within_budgets` checks them all in one
    reduction.  Per tick only the terminal target b_eq changes, and g is
    zero: the equality-only optimum with its multipliers is free @ b_eq,
    where `free`, (d + r, r), is the K0 solves against the unit vectors of
    the r target rows.  Everything here is built once by `correction_qp`,
    with one factorization per block: each subsystem's QP alone (`blocks`,
    with a zero target and its own KKT factors) is factored when it is
    built, and its K0 solves against the unit vectors of its own target
    rows are its columns of `free`, at its inputs and multiplier rows; the
    rest of `free` is zero.  A tick whose budgets bind solves, on the same
    factors, each block whose balls the stacked equality-only plan leaves.
    """

    period: int
    beta: np.ndarray           # the block-diagonal projection
    H: np.ndarray
    g: np.ndarray              # the zero linear cost, read-only
    A_eq: np.ndarray           # beta_i times subsystem i's reachability row
    budgets: tuple[BallSet, ...]  # subsystem i's balls, (period, m_i)
    radii: np.ndarray          # subsystem i's budget, (M,)
    width: int                 # inputs per subsystem; 0 if they differ
    target_rows: tuple[slice, ...]       # subsystem i's rows of A_eq
    free: np.ndarray           # (d + r, r) K0 solves, read-only
    blocks: tuple[QuadraticProgram, ...]  # subsystem i's QP alone

    def within_budgets(self, plan: np.ndarray) -> np.ndarray:
        """Whether each subsystem's steps of a finite (period, m) plan keep
        to its budget, (M,): each ball's `violation` == 0.0.  With a common
        width, every step's squared norms come from one reduction over the
        plan's runs of `width` inputs, summed in the order `violation` sums
        them (a segment sum, `np.add.reduceat`, adds the first square to
        the sum of the rest, which can differ in the last bit from three
        inputs on); the root of the largest is compared with the radius."""
        if not self.width:
            return np.array([b.violation(plan.ravel()[b.indices]) == 0.0
                             for b in self.budgets])
        sq = np.add.reduce((plan * plan).reshape(len(plan), -1, self.width),
                           axis=-1)
        return np.sqrt(sq.max(axis=0)) <= self.radii


def correction_qp(model: InterconnectedModel, reduced: ReducedModel, budgets,
                  Q_blocks, R_blocks, period: int,
                  plan_lags: np.ndarray) -> CorrectionQP:
    """Build the stacked correction QP for a slow period `period`; subsystem
    i has the per-step budget `budgets[i]` and the weights Q_blocks[i],
    R_blocks[i].  `plan_lags` is the plan rollout dx of `lag_response`:
    gathered by `block_toeplitz`, its diagonal block i is subsystem i's
    planned deviations [0; Gamma_i; reach_i] at steps 0..period."""
    m = model.n_inputs
    d = period * m
    r = reduced.n_states
    H, A_eq, free = np.zeros((d, d)), np.zeros((r, d)), np.zeros((d + r, r))
    steps = np.arange(d).reshape(period, m)
    balls, target_rows, blocks = [], [], []
    for i, sub in enumerate(model.subsystems):
        n_i, su = sub.n_states, model.input_slice(i)
        cols = steps[:, su]
        at = cols.ravel()
        Q_i = np.atleast_2d(np.asarray(Q_blocks[i], dtype=float))
        R_i = np.atleast_2d(np.asarray(R_blocks[i], dtype=float))
        rollout = block_toeplitz(plan_lags[:, model.state_slice(i), su],
                                 period + 1, period)
        Gamma, reach = rollout[n_i:period * n_i], rollout[period * n_i:]
        # Gamma' diag(Q_i) Gamma + diag(R_i), one state block at a time.
        H_i = 2.0 * (Gamma.T @ (Q_i @ Gamma.reshape(period - 1, n_i, -1))
                     .reshape(Gamma.shape) + np.kron(np.eye(period), R_i))
        H[np.ix_(at, at)] = H_i
        rows = reduced.block_slice(i)
        A_i = reduced.beta_block(i, model) @ reach
        A_eq[rows, at] = A_i
        balls.append(BallSet(cols, float(budgets[i])))
        target_rows.append(rows)
        own = BallSet(np.arange(at.size).reshape(cols.shape), float(budgets[i]))
        blocks.append(QuadraticProgram(
            H_i, np.zeros(at.size), A_i, np.zeros(A_i.shape[0]), (own,),
            KKTFactors(H_i, A_i, [own.indices])))
        # Block i's columns of `free`: its K0 solves against the unit
        # vectors of its target rows, at its inputs and multiplier rows.
        r_i = A_i.shape[0]
        sol = blocks[-1].factors.equality_solve(
            np.eye(at.size + r_i, r_i, -at.size))
        free[at, rows], free[d:][rows, rows] = sol[:at.size], sol[at.size:]
    g = np.zeros(d)
    g.flags.writeable = free.flags.writeable = False
    widths = {sub.n_inputs for sub in model.subsystems}
    return CorrectionQP(period, reduced.beta, H, g, A_eq, tuple(balls),
                        np.array([b.radius for b in balls]),
                        widths.pop() if len(widths) == 1 else 0,
                        tuple(target_rows), free, tuple(blocks))


def solve_ll(qp: CorrectionQP, x_bar_pred: np.ndarray,
             aux_terminal: np.ndarray) -> DeltaPlan:
    """Every subsystem's correction plan over one slow period.

    Decision: the per-step corrections; each subsystem's planned deviation
    starts at zero (slow-tick reset), its projection must land exactly on
    its rows of the slow layer's prediction gap `x_bar_pred - beta
    aux_terminal` (the auxiliary terminal is the full state, beta is block
    diagonal), and each of its steps stays inside its budget ball.  A tick
    whose budgets do not bind is one product with the stacked QP's
    run-constant map, `qp.free @ target`, accepted by the rule of
    `solver.free_optimum` (0 iterations), with no QP built: the residuals
    there, the budgets by `qp.within_budgets`.  Otherwise the
    same solve goes on to the exact path: the QP being block-separable,
    block i of it is subsystem i's own equality-only optimum, so it stays
    subsystem i's plan wherever it keeps to subsystem i's balls (unless
    the solve is not finite or misses the rule's tolerances); each block
    that leaves them is solved alone, in order, by `solve_qp` on its cached
    block QP, so a block whose optimum the active-set step certifies is
    exact whatever the other blocks need, and the blocks that do not bind
    are the bits of the stacked solve.  The first block that fails raises
    InfeasibleLL naming it, with the certified target gap when its solve
    ends INFEASIBLE.
    """
    rhs = (np.asarray(x_bar_pred, dtype=float)
           - qp.beta @ np.asarray(aux_terminal, dtype=float))
    sol = qp.free @ rhs
    stacked = sol[:qp.g.shape[0]].reshape(qp.period, -1)
    # The rule without the balls, then each block on its own balls.
    kept = free_optimum(sol, qp.H, qp.g, qp.A_eq, rhs, ()) is not None
    inside = qp.within_budgets(stacked) if kept else np.zeros(qp.radii.size,
                                                              dtype=bool)
    if inside.all():
        return DeltaPlan(stacked, 0)
    x, iterations = stacked.ravel().copy(), 0
    for i, (ball, rows, block) in enumerate(zip(qp.budgets, qp.target_rows,
                                                qp.blocks)):
        if inside[i]:
            continue
        res = solve_qp(dataclasses.replace(block, b_eq=rhs[rows]))
        iterations += res.iterations
        if res.status is not Status.OPTIMAL:
            raise _infeasible(i, ball.radius, rhs[rows], res)
        x[ball.indices.ravel()] = res.x
    return DeltaPlan(x.reshape(qp.period, -1), iterations)


def _infeasible(i: int, radius: float, rhs: np.ndarray,
                res: SolveResult) -> InfeasibleLL:
    """The error for subsystem i's correction QP, target `rhs` within
    per-step balls of `radius`, whose solve ended `res`, not OPTIMAL.  Every
    variable of a block QP is in a ball, so the certificate of an
    INFEASIBLE solve brackets the target's distance from the budget's reach,
    in target units: `target_gap` is its lower bound."""
    diagnostics = {"status": res.status.value,
                   "target_norm": float(np.linalg.norm(rhs)), "budget": radius}
    cause = "correction QP not solved"
    if res.status is Status.INFEASIBLE:
        gap = res.certificate
        diagnostics.update(target_gap=gap.lower,
                           target_gap_bracket=[gap.lower, gap.upper])
        cause = f"correction target unreachable within budget by {gap.lower:.6g}"
    return InfeasibleLL(
        f"subsystem {i}: {cause} (solver status {res.status.value} after "
        f"{res.iterations} iterations, |target|={diagnostics['target_norm']:.6g}, "
        f"per-step budget={radius:.6g})", subsystem=i, diagnostics=diagnostics)


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
