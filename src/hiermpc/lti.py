"""Interconnected discrete-time LTI models.

A plant is a set of subsystems
    x_i(h+1) = A_ii x_i(h) + B_ii u_i(h) + E_i s_i(h)
coupled through outputs z_j = C_zj x_j and s_i = sum_j L_ij z_j with zero
self-coupling.  `assemble` builds the collective matrices; everything
downstream (reduction, gain design, analysis) works on both views.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NonzeroSelfCoupling
from .sets import BallSet


def _as_matrix(value, rows: int | None = None, cols: int | None = None,
               name: str = "matrix") -> np.ndarray:
    out = np.atleast_2d(np.asarray(value, dtype=float))
    if rows is not None and out.shape[0] != rows:
        raise DimensionMismatch(f"{name}: expected {rows} rows, got {out.shape[0]}")
    if cols is not None and out.shape[1] != cols:
        raise DimensionMismatch(f"{name}: expected {cols} columns, got {out.shape[1]}")
    return out


@dataclass(frozen=True)
class SubsystemModel:
    """One subsystem: local dynamics, coupling input/output maps, input set."""

    A: np.ndarray
    B: np.ndarray
    E: np.ndarray
    C_z: np.ndarray
    input_set: BallSet

    def __post_init__(self):
        A = _as_matrix(self.A, name="A")
        n = A.shape[0]
        if A.shape[1] != n:
            raise DimensionMismatch(f"A must be square, got {A.shape}")
        B = _as_matrix(self.B, rows=n, name="B")
        E = _as_matrix(self.E, rows=n, name="E")
        C_z = _as_matrix(self.C_z, cols=n, name="C_z")
        m = self.input_set.indices.size
        if m != B.shape[1] or self.input_set.center is not None:
            raise DimensionMismatch(f"SubsystemModel.input_set must be a ball at the "
                                    f"origin of dimension {B.shape[1]}, got {m}")
        for attr, value in (("A", A), ("B", B), ("E", E), ("C_z", C_z)):
            object.__setattr__(self, attr, value)

    @property
    def n_states(self) -> int:
        return self.A.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.B.shape[1]

    @property
    def n_coupling_in(self) -> int:
        return self.E.shape[1]

    @property
    def n_coupling_out(self) -> int:
        return self.C_z.shape[0]


@dataclass(frozen=True)
class CouplingMap:
    """Block matrix L: blocks[i][j] multiplies subsystem j's coupling output.

    Diagonal blocks must be zero (no self-coupling through the network).
    """

    blocks: tuple[tuple[np.ndarray | None, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(None if blk is None else np.atleast_2d(np.asarray(blk, dtype=float))
                           for blk in row) for row in self.blocks)
        m = len(rows)
        for row in rows:
            if len(row) != m:
                raise DimensionMismatch("coupling blocks must form a square grid")
        for i in range(m):
            blk = rows[i][i]
            if blk is not None and float(np.max(np.abs(blk))) > 0.0:
                raise NonzeroSelfCoupling(f"self-coupling block ({i},{i}) must be zero")
        object.__setattr__(self, "blocks", rows)

    @property
    def n_subsystems(self) -> int:
        return len(self.blocks)

    def block(self, i: int, j: int) -> np.ndarray | None:
        return self.blocks[i][j]


@dataclass(frozen=True)
class InterconnectedModel:
    """Assembled collective model with per-subsystem block bookkeeping.

    Only the subsystems and the coupling map are constructor arguments; the
    collective (A, B) and the block offsets are built from them, with cross
    blocks A_ij = E_i L_ij C_zj and a block-diagonal B.
    """

    subsystems: tuple[SubsystemModel, ...]
    coupling: CouplingMap
    A: np.ndarray = field(init=False, repr=False)
    B: np.ndarray = field(init=False, repr=False)
    state_offsets: tuple[int, ...] = field(init=False)
    input_offsets: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        subsystems = tuple(self.subsystems)
        m = len(subsystems)
        if self.coupling.n_subsystems != m:
            raise DimensionMismatch(
                f"coupling grid is {self.coupling.n_subsystems}x"
                f"{self.coupling.n_subsystems}, model has {m} subsystems")
        state_offsets = np.concatenate([[0], np.cumsum([s.n_states for s in subsystems])])
        input_offsets = np.concatenate([[0], np.cumsum([s.n_inputs for s in subsystems])])
        n = int(state_offsets[-1])
        p = int(input_offsets[-1])
        A = np.zeros((n, n))
        B = np.zeros((n, p))
        for i, sub in enumerate(subsystems):
            si = slice(state_offsets[i], state_offsets[i + 1])
            A[si, si] = sub.A
            B[si, input_offsets[i]:input_offsets[i + 1]] = sub.B
            for j, other in enumerate(subsystems):
                if j == i:
                    continue
                blk = self.coupling.block(i, j)
                if blk is None:
                    continue
                if blk.shape != (sub.n_coupling_in, other.n_coupling_out):
                    raise DimensionMismatch(
                        f"coupling block ({i},{j}) has shape {blk.shape}, expected "
                        f"({sub.n_coupling_in},{other.n_coupling_out})")
                sj = slice(state_offsets[j], state_offsets[j + 1])
                A[si, sj] = sub.E @ blk @ other.C_z
        for attr, value in (("subsystems", subsystems), ("A", A), ("B", B),
                            ("state_offsets", tuple(int(v) for v in state_offsets)),
                            ("input_offsets", tuple(int(v) for v in input_offsets))):
            object.__setattr__(self, attr, value)

    @property
    def n_subsystems(self) -> int:
        return len(self.subsystems)

    @property
    def n_states(self) -> int:
        return self.A.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.B.shape[1]

    def state_slice(self, i: int) -> slice:
        return slice(self.state_offsets[i], self.state_offsets[i + 1])

    def input_slice(self, i: int) -> slice:
        return slice(self.input_offsets[i], self.input_offsets[i + 1])

    def state_selector(self, i: int) -> np.ndarray:
        """Selector S_i with x_i = S_i x."""
        S = np.zeros((self.subsystems[i].n_states, self.n_states))
        S[:, self.state_slice(i)] = np.eye(self.subsystems[i].n_states)
        return S

    def block_diagonal_A(self) -> np.ndarray:
        """Collective A with every cross block zeroed."""
        out = np.zeros_like(self.A)
        for i, sub in enumerate(self.subsystems):
            sl = self.state_slice(i)
            out[sl, sl] = sub.A
        return out

    def input_radii(self) -> np.ndarray:
        return np.array([sub.input_set.radius for sub in self.subsystems])


def assemble(subsystems, coupling: CouplingMap) -> InterconnectedModel:
    """Build the collective (A, B) from subsystem data and the coupling map."""
    return InterconnectedModel(tuple(subsystems), coupling)


def impulse_response(A: np.ndarray, B: np.ndarray, steps: int) -> np.ndarray:
    """[B, AB, ..., A^{steps-1}B] stacked, each term A times the last."""
    out = np.empty((steps, *B.shape))
    for k in range(steps):
        out[k] = A @ out[k - 1] if k else B
    return out


def matrix_powers(A: np.ndarray, k: int) -> np.ndarray:
    """[I, A, A^2, ..., A^k] stacked: the impulse response of (A, I), each
    power A times the last."""
    return impulse_response(A, np.eye(A.shape[0]), k + 1)


def reachability_matrix(A: np.ndarray, B: np.ndarray, steps: int) -> np.ndarray:
    """[B, AB, ..., A^{steps-1}B] side by side."""
    return np.hstack(impulse_response(A, B, steps))


def lifted_input_matrix(A: np.ndarray, B: np.ndarray, period: int) -> np.ndarray:
    """sum_{j<period} A^j B, the response to an input held over the period."""
    out = B.copy()
    for _ in range(period - 1):
        out = A @ out + B
    return out


def lifted_closed_loop(A: np.ndarray, B: np.ndarray, K: np.ndarray,
                       beta: np.ndarray, period: int) -> np.ndarray:
    """A^period + (sum_{j<period} A^j B) K beta: the full plant over one slow
    period under the slow feedback K on the projected state beta x."""
    return (np.linalg.matrix_power(A, period)
            + lifted_input_matrix(A, B, period) @ K @ beta)
