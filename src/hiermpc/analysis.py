"""Offline certificate constants and the radius-allocation program.

Everything here is norm bookkeeping on matrix powers: how far the lifted
reduced response drifts from the projected full response (kappa and the
projection defect), how much correction authority a subsystem has through
its projected reachability row (sigma), how the corrections of one
subsystem leak into the input budget of another (the interaction matrix),
and the resulting disturbance, input-leakage and state-tail radii.  All
norms are spectral; the powers, impulse responses and lifts come from `lti`.

The radius LP and the certificate read the same tables: kappa, sigma, the
leakage norms ||L F^p A_c|| for the rows K_i S_i and beta, the unit
step-norm table and A^N.  `certificate_tables` computes them once per design
(`harness.certify` passes them to both); `tune_radii`,
`certificate_constants` and `interaction_matrix` compute them themselves
only when called without them, with the same bits either way.  On a plant
without coupling, kappa and the projection defect are exactly 0.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleTuning, RankDeficient
from .lowlevel import LLGain
from .lti import (InterconnectedModel, impulse_response, lifted_input_matrix,
                  matrix_powers, reachability_matrix)
from .reduction import ReducedModel
from .solver import Status, solve_lp

_SIGMA_FLOOR = 1e-12


def _uncoupled(model: InterconnectedModel) -> bool:
    """Every coupling block of A is exactly zero.  The rows of
    `reduce_model`'s beta are then left eigenvectors of the diagonal blocks
    and B_red = beta B, so the reduction commutes with the dynamics: kappa
    and the projection defect are 0, and their formulas give roundoff."""
    return not np.any(model.A - model.block_diagonal_A())


def lifted_input_mismatch(model: InterconnectedModel, reduced: ReducedModel,
                          period: int) -> float:
    """kappa: norm of (held-input response of the reduced lift) minus the
    projected held-input response of the full lift; exactly 0.0 for a plant
    without coupling (`_uncoupled`)."""
    if _uncoupled(model):
        return 0.0
    lift_red = lifted_input_matrix(reduced.A, reduced.B, period)
    lift_full = lifted_input_matrix(model.A, model.B, period)
    return float(np.linalg.norm(lift_red - reduced.beta @ lift_full, 2))


def kappa_exponential_bound(model: InterconnectedModel, reduced: ReducedModel,
                            period: int, A_pow: np.ndarray | None = None) -> float:
    """Series-tail bound: kappa <= ||A_red^N|| ||G_red(1)|| + ||beta|| ||A^N|| ||G(1)||.
    `A_pow`, A^N, is computed when not given."""
    if A_pow is None:
        A_pow = np.linalg.matrix_power(model.A, period)
    g_red = np.linalg.solve(np.eye(reduced.n_states) - reduced.A, reduced.B)
    g_full = np.linalg.solve(np.eye(model.n_states) - model.A, model.B)
    t1 = float(np.linalg.norm(np.linalg.matrix_power(reduced.A, period), 2)
               * np.linalg.norm(g_red, 2))
    t2 = float(np.linalg.norm(reduced.beta, 2) * np.linalg.norm(A_pow, 2)
               * np.linalg.norm(g_full, 2))
    return t1 + t2


def projection_defect(model: InterconnectedModel, reduced: ReducedModel,
                      period: int, A_pow: np.ndarray | None = None) -> np.ndarray:
    """A_red^N beta - beta A^N: how far the projection fails to commute with
    the N-step transition; exactly 0 for a plant without coupling
    (`_uncoupled`).  `A_pow`, A^N, is computed when not given."""
    if _uncoupled(model):
        return np.zeros_like(reduced.beta)
    if A_pow is None:
        A_pow = np.linalg.matrix_power(model.A, period)
    return (np.linalg.matrix_power(reduced.A, period) @ reduced.beta
            - reduced.beta @ A_pow)


def projected_reachability_sigma(model: InterconnectedModel, reduced: ReducedModel,
                                 period: int, i: int) -> float:
    """Smallest singular value of beta_i [A_ii^{N-1} B_ii ... B_ii]."""
    sub = model.subsystems[i]
    reach = reachability_matrix(sub.A, sub.B, period)
    H_i = reduced.beta_block(i, model) @ reach
    sigma = float(np.linalg.svd(H_i, compute_uv=False)[-1])
    if sigma <= _SIGMA_FLOOR:
        raise RankDeficient(
            f"subsystem {i}: projected reachability row is rank deficient "
            f"(sigma = {sigma:.3e}); the correction layer cannot hit its target")
    return sigma


def spectral_norms(stack: np.ndarray) -> np.ndarray:
    """||M||_2 of each matrix M of a stack, in one LAPACK call per stack;
    bitwise what `np.linalg.norm(M, 2)` computes for each."""
    return np.linalg.svd(stack, compute_uv=False)[:, 0]


def _fast_loop(model: InterconnectedModel, ll_gain: LLGain) -> np.ndarray:
    """The coupled fast closed loop F = A + B K, formed as `design_ll_gain`
    forms it; nothing stores F."""
    return model.A + model.B @ ll_gain.K


def _leakage_norms(model: InterconnectedModel, ll_gain: LLGain, left_maps,
                   period: int) -> np.ndarray:
    """Row l, column p: ||L_l F^p A_c|| for p = 0..period-2, with A_c the
    coupling part of A.  Every leakage bound is a sum over this table, so
    each norm is evaluated once."""
    A_c = model.A - model.block_diagonal_A()
    F_pows = matrix_powers(_fast_loop(model, ll_gain), period - 2)[:period - 1]
    return np.array([spectral_norms(L @ F_pows @ A_c) for L in left_maps]
                    ).reshape(len(left_maps), len(F_pows))


def _feedback_maps(model: InterconnectedModel, ll_gain: LLGain) -> list:
    """K_i S_i: the full state to subsystem i's feedback correction."""
    return [ll_gain.blocks[i] @ model.state_selector(i)
            for i in range(model.n_subsystems)]


def delta_state_bounds(model: InterconnectedModel, rho_delta_u_hat: np.ndarray,
                       period: int) -> np.ndarray:
    """Per-subsystem deviation bounds: row i, column j holds the worst-case
    norm of subsystem i's planned deviation after j fast steps,
    rho_i sum_{r<j} ||A_ii^r B_ii||."""
    out = np.zeros((model.n_subsystems, period + 1))
    for i, sub in enumerate(model.subsystems):
        out[i, 1:] = np.cumsum(spectral_norms(
            impulse_response(sub.A, sub.B, period)))
    return rho_delta_u_hat[:, None] * out


@dataclass(frozen=True)
class CertificateTables:
    """What the radius LP and the certificate both read, computed once per
    design by `certificate_tables`."""

    kappa: float
    sigma: np.ndarray
    # Row l, column p: ||L_l F^p A_c||, rows K_i S_i (i < M), then beta.
    leakage: np.ndarray
    # delta_state_bounds at unit step budgets.
    unit_steps: np.ndarray
    A_pow: np.ndarray  # A^N


def certificate_tables(model: InterconnectedModel, reduced: ReducedModel,
                       ll_gain: LLGain, period: int) -> CertificateTables:
    """Each table by the formula the certificate defines it with; raises
    RankDeficient as `projected_reachability_sigma` does."""
    M = model.n_subsystems
    kappa = lifted_input_mismatch(model, reduced, period)
    sigma = np.array([projected_reachability_sigma(model, reduced, period, i)
                      for i in range(M)])
    leakage = _leakage_norms(model, ll_gain, _feedback_maps(model, ll_gain)
                             + [reduced.beta], period)
    return CertificateTables(kappa, sigma, leakage,
                             delta_state_bounds(model, np.ones(M), period),
                             np.linalg.matrix_power(model.A, period))


def interaction_matrix(model: InterconnectedModel, ll_gain: LLGain,
                       period: int, *,
                       tables: CertificateTables | None = None) -> np.ndarray:
    """Lambda[i, j]: worst-case leakage of subsystem j's planned deviations
    into subsystem i's feedback correction, per unit of j's step budget."""
    M = model.n_subsystems
    if tables is None:
        front = _leakage_norms(model, ll_gain, _feedback_maps(model, ll_gain),
                               period)
        inner = delta_state_bounds(model, np.ones(M), period)
    else:
        front, inner = tables.leakage[:M], tables.unit_steps
    lam = np.zeros((M, M))
    for r in range(2, period):
        lam += front[:, period - r - 1, None] * inner[None, :, r - 1]
    return lam


def _leakage_sums(front: np.ndarray, state_tbl: np.ndarray,
                  period: int) -> np.ndarray:
    """Row l, column j: sum_{r=2..j} front[l, j-r] d(r-1), summed in r
    order, where front[l, p] = ||L_l F^p A_c|| and d is the collective
    deviation bound (root sum of squares of the rows of `state_tbl`)."""
    rss = np.sqrt(np.sum(state_tbl ** 2, axis=0))
    out = np.zeros((front.shape[0], period + 1))
    for r in range(2, period + 1):
        out[:, r:] += front[:, :period - r + 1] * rss[r - 1]
    return out


def correction_gain_norm(model: InterconnectedModel, ll_gain: LLGain,
                         period: int) -> float:
    """Norm of the map from stacked planned corrections to the slow-step
    state increment they cause, feedback loop included.

    The map is [H_{period-1} ... H_0]: a unit correction planned t steps
    before the period ends moves the slow step by H_t = A^t B + Q_t, where
    the planned deviation A_d^s B leaks through the coupling A_c into the
    fast loop F as the tracking error P_s, which the feedback returns:
        P_s = F P_{s-1} + A_c A_d^s B,  P_0 = A_c B,
        Q_t = A Q_{t-1} + B K P_{t-2},  Q_0 = Q_1 = 0."""
    A, B = model.A, model.B
    A_d = model.block_diagonal_A()
    F = _fast_loop(model, ll_gain)
    leak = (A - A_d) @ impulse_response(A_d, B, max(period - 2, 0))
    H = impulse_response(A, B, period)
    P, Q = np.zeros_like(B), np.zeros_like(B)
    for t in range(2, period):
        P = F @ P + leak[t - 2]
        Q = A @ Q + B @ (ll_gain.K @ P)
        H[t] += Q
    return float(np.linalg.norm(np.hstack(H[::-1]), 2))


@dataclass(frozen=True)
class RadiusAllocation:
    """Input-budget split between the held slow inputs and the fast
    corrections, per subsystem."""

    rho_delta_u_hat: np.ndarray
    rho_u_bar: np.ndarray
    objective: float
    slack: float

    @property
    def rho_u_bar_outer(self) -> float:
        return float(np.sqrt(np.sum(self.rho_u_bar ** 2)))


def tune_radii(model: InterconnectedModel, reduced: ReducedModel, ll_gain: LLGain,
               period: int, gamma1: float = 1.0, gamma2: float = 1.0,
               u_bar_min: float | np.ndarray = 0.0, *,
               tables: CertificateTables | None = None) -> RadiusAllocation:
    """Allocate per-subsystem input budgets by linear programming.

    max gamma1 * sum(correction radii) + gamma2 * sum(held radii), subject to
    the strict small-gain inequality and the total per-subsystem budget with
    interaction leakage.  Both rows are tightened by the same slack (scaled
    to the budget) so that re-substituting the returned radii leaves a
    strictly positive margin in every constraint, not just the strict one.
    For a decoupled plant the program degenerates to
        correction_i >= slack,  correction_i + held_i <= budget_i - slack
    and the held radii absorb the budget.

    `u_bar_min` reserves held-input authority: with a correction-heavy
    objective the optimum would otherwise drain the held radii to zero and
    leave the slow layer nothing to steer with.
    """
    M = model.n_subsystems
    if tables is None:
        tables = certificate_tables(model, reduced, ll_gain, period)
    kappa, sigma = tables.kappa, tables.sigma
    lam = interaction_matrix(model, ll_gain, period, tables=tables)
    rho_u = model.input_radii()
    slack = 1e-9 * max(1.0, float(np.max(rho_u)))
    floor = np.broadcast_to(np.asarray(u_bar_min, dtype=float), (M,))

    c = np.concatenate([np.full(M, gamma1), np.full(M, gamma2)])
    # Rows 1..M: -delta_i + (kappa / (sqrt(N) sigma_i)) * sum(u_bar) <= -slack
    A1 = np.hstack([-np.eye(M),
                    np.tile((kappa / (np.sqrt(period) * sigma))[:, None], (1, M))])
    b1 = np.full(M, -slack)
    # Rows M+1..2M: (I + Lambda) delta + u_bar <= rho_u - slack
    A2 = np.hstack([np.eye(M) + lam, np.eye(M)])
    b2 = rho_u.astype(float) - slack
    res = solve_lp(c, np.vstack([A1, A2]), np.concatenate([b1, b2]),
                   np.concatenate([np.zeros(M), floor]))
    if res.status is not Status.OPTIMAL:
        extra = " with the requested held-input floor" if np.any(floor > 0) else ""
        raise InfeasibleTuning(
            f"no budget split satisfies the strict small-gain inequality{extra}; "
            "increase the slow period or the input limits")
    return RadiusAllocation(res.x[:M].copy(), res.x[M:].copy(),
                            float(res.objective), slack)


@dataclass(frozen=True)
class CertificateReport:
    """All constants the convergence argument needs, with pass flags."""

    period: int
    kappa: float
    kappa_bound: float
    defect_norm: float
    reach_norm: float
    al_power_norm: float
    sigma: np.ndarray
    chi: np.ndarray
    # +inf where the projection defect is exactly 0: no start is too far.
    lambda_margins: np.ndarray = field(metadata={"unbounded": True})
    rho_w: float
    rho_x: float
    delta_state_table: np.ndarray
    delta_input_table: np.ndarray
    clauses: dict[str, bool]
    radii: RadiusAllocation
    x0_bound_ok: bool | None

    @property
    def assumptions_ok(self) -> bool:
        return all(self.clauses.values())


def certificate_constants(model: InterconnectedModel, reduced: ReducedModel,
                          ll_gain: LLGain, radii: RadiusAllocation, period: int,
                          x0: np.ndarray | None = None, *,
                          tables: CertificateTables | None = None
                          ) -> CertificateReport:
    M = model.n_subsystems
    if tables is None:
        tables = certificate_tables(model, reduced, ll_gain, period)
    kappa, sigma, A_pow = tables.kappa, tables.sigma, tables.A_pow
    kappa_bnd = kappa_exponential_bound(model, reduced, period, A_pow)
    defect = projection_defect(model, reduced, period, A_pow)
    defect_norm = float(np.linalg.norm(defect, 2))
    reach_norm = float(np.linalg.norm(
        reachability_matrix(model.A, model.B, period), 2))
    al_pow = float(np.linalg.norm(A_pow, 2))
    rho_du = radii.rho_delta_u_hat
    rho_ub_out = radii.rho_u_bar_outer
    rho_u = model.input_radii()
    rho_u_outer = float(np.sqrt(np.sum(rho_u ** 2)))

    margins_num = np.sqrt(period) * sigma * rho_du - kappa * rho_ub_out
    with np.errstate(divide="ignore"):
        lambda_margins = np.where(
            defect_norm > 0, margins_num / max(defect_norm, 1e-300),
            np.inf)
    denom = (1.0 - al_pow) * margins_num
    chi = np.where(
        (al_pow < 1.0) & (margins_num > 0),
        np.sqrt(period) * rho_u_outer * reach_norm * defect_norm
        / np.where(denom > 0, denom, 1.0),
        np.inf)

    state_tbl = rho_du[:, None] * tables.unit_steps
    leak = _leakage_sums(tables.leakage, state_tbl, period)
    input_tbl, rho_w = leak[:M], float(leak[M, period])
    kd = correction_gain_norm(model, ll_gain, period)
    rho_x = kd * float(np.sqrt(period)) * float(np.sqrt(np.sum(rho_du ** 2)))

    clauses = {
        "open_loop_contraction": bool(al_pow < 1.0),
        "projected_reachability": bool(np.all(sigma > _SIGMA_FLOOR)),
        "small_gain_strict": bool(np.all(margins_num > 0)),
        "leakage_contraction": bool(np.all(chi <= 1.0)),
        "budget_inclusion": bool(np.all(
            radii.rho_u_bar + rho_du + input_tbl[:, period - 1] <= rho_u + 1e-12)),
    }
    x0_ok = None
    if x0 is not None:
        x0_ok = bool(np.linalg.norm(np.asarray(x0, dtype=float))
                     <= float(np.min(lambda_margins)))
    return CertificateReport(period, kappa, kappa_bnd, defect_norm, reach_norm,
                             al_pow, sigma, chi, lambda_margins, rho_w, rho_x,
                             state_tbl, input_tbl, clauses, radii, x0_ok)


def sweep_constants(model: InterconnectedModel, reduced: ReducedModel,
                    ll_gain_factory, radii: RadiusAllocation, periods) -> list:
    """Re-evaluate the certificate constants over a grid of slow periods with
    the radii held fixed; `ll_gain_factory(period)` supplies the fast gain
    (it does not depend on the period for Riccati designs, but the caller
    decides)."""
    rows = []
    for period in periods:
        gain = ll_gain_factory(period)
        rep = certificate_constants(model, reduced, gain, radii, int(period))
        rows.append(rep)
    return rows
