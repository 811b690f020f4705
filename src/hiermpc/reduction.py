"""Modal order reduction with exact DC-gain matching.

Each subsystem keeps its dominant real modes: the reduced block is the
diagonal of retained eigenvalues and the projection rows are the matching
unit-norm left eigenvectors.  The reduced input matrix is then chosen as

    B_red = (I - A_red) beta (I - A)^{-1} B

which makes the slow model's DC gain equal the projected full DC gain by
construction, the property the upper layer's offset-free reasoning needs.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import ComplexDominantMode, DimensionMismatch, SingularDCGain
from .lti import InterconnectedModel

_REAL_TOL = 1e-9
# `verify_reduction`: largest DC-gain residual, and the singular-value cut
# (relative to max(1, largest)) below which a projection row counts as lost.
_DC_TOL = 1e-8
_RANK_TOL = 1e-10


@dataclass(frozen=True)
class ReducedModel:
    """Reduced collective model plus the projection beta (block diagonal).

    The block offsets are built from the retained orders, which must be
    positive and sum to the size of A; B and beta need one row per
    reduced state.
    """

    A: np.ndarray
    B: np.ndarray
    beta: np.ndarray
    orders: tuple[int, ...]
    offsets: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        n_red = self.A.shape[0]
        if self.A.shape != (n_red, n_red):
            raise DimensionMismatch(
                f"ReducedModel.A must be square, got shape {self.A.shape}")
        for name in ("B", "beta"):
            shape = getattr(self, name).shape
            if len(shape) != 2 or shape[0] != n_red:
                raise DimensionMismatch(
                    f"ReducedModel.{name} has shape {shape}; it needs one row "
                    f"per reduced state ({n_red})")
        if any(o < 1 for o in self.orders) or sum(self.orders) != n_red:
            raise DimensionMismatch(
                f"ReducedModel.orders {self.orders} must be positive and sum "
                f"to the {n_red} reduced states")
        offsets = np.concatenate([[0], np.cumsum(self.orders)])
        object.__setattr__(self, "offsets", tuple(int(v) for v in offsets))

    @property
    def n_states(self) -> int:
        return self.A.shape[0]

    def block_slice(self, i: int) -> slice:
        return slice(self.offsets[i], self.offsets[i + 1])

    def beta_block(self, i: int, model: InterconnectedModel) -> np.ndarray:
        return self.beta[self.block_slice(i), model.state_slice(i)]


@dataclass(frozen=True)
class ReductionValidation:
    spectral_radius: float
    schur_ok: bool
    beta_ranks: tuple
    full_rank: bool
    dc_residual: float
    dc_ok: bool

    @property
    def passed(self) -> bool:
        return self.schur_ok and self.full_rank and self.dc_ok


def _dominant_real_left_eigenvectors(A: np.ndarray, order: int, sub_index: int):
    eigvals, left = scipy.linalg.eig(A, left=True, right=False)
    # Dominance order: modulus first, then real part, then angle for a
    # deterministic total order on conjugate pairs.
    rank = np.lexsort((-eigvals.real, -np.abs(eigvals)))
    chosen = rank[:order]
    lams = []
    rows = []
    for idx in chosen:
        lam = eigvals[idx]
        if abs(lam.imag) > _REAL_TOL * max(1.0, abs(lam)):
            raise ComplexDominantMode(
                f"subsystem {sub_index}: dominant mode {lam:.6g} is complex; "
                "reduce the retained order or shift the split")
        vec = left[:, idx]
        # Rotate a numerically complex eigenvector of a real eigenvalue back
        # onto the real axis before discarding the imaginary part.
        pivot = vec[np.argmax(np.abs(vec))]
        vec = (vec * np.conj(pivot / abs(pivot))).real
        residual = float(np.linalg.norm(vec @ A - lam.real * vec))
        if residual > 1e-7 * max(1.0, abs(lam)):
            raise ComplexDominantMode(
                f"subsystem {sub_index}: defective dominant eigenvalue {lam.real:.6g}")
        lams.append(lam.real)
        rows.append(vec / np.linalg.norm(vec))
    return np.array(lams), np.array(rows)


def reduce_model(model: InterconnectedModel, orders) -> ReducedModel:
    """Project each subsystem onto its `orders[i]` dominant real modes.

    Row signs: the largest-magnitude entry of each projection row is made
    positive.
    """
    orders = tuple(int(o) for o in orders)
    if len(orders) != model.n_subsystems:
        raise DimensionMismatch("need one retained order per subsystem")
    for o, sub in zip(orders, model.subsystems):
        if not 1 <= o <= sub.n_states:
            raise DimensionMismatch(
                f"retained order {o} out of range for subsystem of size {sub.n_states}")
    offsets = np.concatenate([[0], np.cumsum(orders)])
    n_red = int(offsets[-1])
    A_red = np.zeros((n_red, n_red))
    beta = np.zeros((n_red, model.n_states))
    for i, sub in enumerate(model.subsystems):
        lams, rows = _dominant_real_left_eigenvectors(sub.A, orders[i], i)
        for k in range(orders[i]):
            if rows[k, np.argmax(np.abs(rows[k]))] < 0:
                rows[k] = -rows[k]
        sl = slice(offsets[i], offsets[i + 1])
        A_red[sl, sl] = np.diag(lams)
        beta[sl, model.state_slice(i)] = rows

    I_full = np.eye(model.n_states)
    try:
        dc_full = np.linalg.solve(I_full - model.A, model.B)
    except np.linalg.LinAlgError as exc:
        raise SingularDCGain("full model has an eigenvalue at 1") from exc
    if np.any(np.isclose(np.diag(A_red), 1.0, atol=1e-12)):
        raise SingularDCGain("a retained mode sits at 1; DC matching impossible")
    B_red = (np.eye(n_red) - A_red) @ beta @ dc_full
    return ReducedModel(A_red, B_red, beta, orders)


def dc_gain_residual(reduced: ReducedModel, model: InterconnectedModel) -> float:
    """Max-abs difference between reduced and projected full static gains."""
    g_full = reduced.beta @ np.linalg.solve(np.eye(model.n_states) - model.A, model.B)
    g_red = np.linalg.solve(np.eye(reduced.n_states) - reduced.A, reduced.B)
    return float(np.max(np.abs(g_full - g_red)))


def verify_reduction(reduced: ReducedModel,
                     model: InterconnectedModel) -> ReductionValidation:
    eigvals = np.linalg.eigvals(reduced.A)
    spectral_radius = float(np.max(np.abs(eigvals)))
    ranks = []
    for i in range(model.n_subsystems):
        blk = reduced.beta_block(i, model)
        sv = np.linalg.svd(blk, compute_uv=False)
        scale = sv[0] if sv.size and sv[0] > 0 else 1.0
        ranks.append(int(np.sum(sv > _RANK_TOL * max(1.0, scale))))
    full_rank = all(r == o for r, o in zip(ranks, reduced.orders))
    residual = dc_gain_residual(reduced, model)
    return ReductionValidation(spectral_radius, spectral_radius < 1.0,
                               tuple(ranks), full_rank, residual,
                               residual <= _DC_TOL)
