"""Two-apartment thermal benchmark plant.

Each room is a lumped air mass exchanging heat with its neighbours through
interior walls, with the outside through exterior walls, and (for one pair
of rooms) with the other apartment through a shared wall.  Heaters sit in
one room per apartment.  States are temperature deviations from a working
point, inputs are heater power deviations, and the discrete-time model is
the zero-order-hold sampling of the continuous heat balance.

Room volumes and wall areas are calibrated against reference steady-state
data and per-apartment eigenvalue targets by scripts/fit_geometry.py; the
fitted values are frozen in default_building().
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConfigInvalid, UnstableDiscretization
from .lti import CouplingMap, InterconnectedModel, SubsystemModel, assemble
from .model_io import from_json
from .sets import BallSet

# Reference calibration data: steady-state room temperatures (deg C above
# an exterior at 0 deg C), heater powers (W) that hold them, and the target
# spectra of the per-apartment blocks of the sampled dynamics.
CALIBRATION_TEMPERATURES = (
    (19.6, 20.3, 20.2, 21.7, 18.2),
    (17.2, 21.2, 21.7, 19.6, 19.4),
)
CALIBRATION_HEAT = (354.2, 320.8)
EIGENVALUE_TARGETS = (
    (0.73, 0.97, 0.90, 0.85, 0.88),
    (0.97, 0.76, 0.82, 0.91, 0.87),
)
ROOM_NAMES = (("A1", "B1", "C1", "D1", "E1"), ("A2", "B2", "C2", "D2", "E2"))
HEATER_ROOMS = (3, 2)  # D1 and C2, the warmest room of each apartment
HEATER_LIMIT = 50.0    # W, symmetric deviation bound per heater


@dataclass(frozen=True)
class RoomSpec:
    name: str
    volume: float               # m^3
    exterior_wall_area: float   # m^2
    heater: bool = False

    def __post_init__(self):
        if self.volume <= 0 or self.exterior_wall_area < 0:
            raise ConfigInvalid(f"room {self.name}: volume must be positive "
                                "and wall areas nonnegative")


@dataclass(frozen=True)
class ApartmentSpec:
    rooms: tuple[RoomSpec, ...]
    walls: tuple[tuple[int, int, float], ...]  # (room, room, area in m^2)

    def __post_init__(self):
        n = len(self.rooms)
        for a, b, area in self.walls:
            if not (0 <= a < n and 0 <= b < n) or a == b or area <= 0:
                raise ConfigInvalid(f"bad interior wall ({a}, {b}, {area})")


@dataclass(frozen=True)
class BuildingConfig:
    apartments: tuple[ApartmentSpec, ...]
    # (apt, room, apt, room, area in m^2)
    shared_walls: tuple[tuple[int, int, int, int, float], ...] = ()
    conductance_interior: float = 2.5   # W / m^2 K
    conductance_shared: float = 1.0
    conductance_exterior: float = 0.5
    exterior_temp: float = 0.0          # deg C
    air_density: float = 1.225          # kg / m^3
    heat_capacity: float = 1005.0       # J / kg K
    sample_time: float = 90.0           # s

    def __post_init__(self):
        for a, ra, b, rb, area in self.shared_walls:
            if a == b or area <= 0:
                raise ConfigInvalid(f"bad shared wall ({a},{ra},{b},{rb},{area})")
        if self.sample_time <= 0:
            raise ConfigInvalid("sample time must be positive")

    @property
    def n_rooms(self) -> int:
        return sum(len(apt.rooms) for apt in self.apartments)

    def room_offset(self, apt: int) -> int:
        return sum(len(a.rooms) for a in self.apartments[:apt])


def heat_balance(cfg: BuildingConfig):
    """Continuous-time matrices: C dT/dt = -L T + S q (+ exterior term,
    zero here because the working point measures temperature above it).
    Returns (A_cont, B_cont, capacitances, L)."""
    n = cfg.n_rooms
    L = np.zeros((n, n))
    caps = np.zeros(n)
    heater_cols = []
    for ai, apt in enumerate(cfg.apartments):
        off = cfg.room_offset(ai)
        for ri, room in enumerate(apt.rooms):
            caps[off + ri] = cfg.air_density * cfg.heat_capacity * room.volume
            L[off + ri, off + ri] += cfg.conductance_exterior * room.exterior_wall_area
            if room.heater:
                heater_cols.append(off + ri)
        for a, b, area in apt.walls:
            g = cfg.conductance_interior * area
            L[off + a, off + a] += g
            L[off + b, off + b] += g
            L[off + a, off + b] -= g
            L[off + b, off + a] -= g
    for a, ra, b, rb, area in cfg.shared_walls:
        g = cfg.conductance_shared * area
        ia = cfg.room_offset(a) + ra
        ib = cfg.room_offset(b) + rb
        L[ia, ia] += g
        L[ib, ib] += g
        L[ia, ib] -= g
        L[ib, ia] -= g
    S = np.zeros((n, len(heater_cols)))
    for col, row in enumerate(heater_cols):
        S[row, col] = 1.0
    A_cont = -L / caps[:, None]
    B_cont = S / caps[:, None]
    return A_cont, B_cont, caps, L


def equilibrium_temperatures(cfg: BuildingConfig, heat: np.ndarray) -> np.ndarray:
    """Steady state above the exterior temperature for constant heater power."""
    _, _, _, L = heat_balance(cfg)
    S = np.zeros((cfg.n_rooms, len(heat)))
    col = 0
    for ai, apt in enumerate(cfg.apartments):
        for ri, room in enumerate(apt.rooms):
            if room.heater:
                S[cfg.room_offset(ai) + ri, col] = 1.0
                col += 1
    return np.linalg.solve(L, S @ np.asarray(heat, dtype=float))


def discretize(A_cont: np.ndarray, B_cont: np.ndarray, dt: float):
    """Zero-order hold through the augmented exponential."""
    n, m = B_cont.shape
    aug = np.zeros((n + m, n + m))
    aug[:n, :n] = A_cont * dt
    aug[:n, n:] = B_cont * dt
    E = scipy.linalg.expm(aug)
    return E[:n, :n], E[:n, n:]


def build_thermal_model(cfg: BuildingConfig) -> InterconnectedModel:
    """Sample the building and partition it into one subsystem per apartment.

    The sampled input matrix picks up tiny cross-apartment blocks (a heater
    reaches the other apartment only through the shared wall within one
    sample); those fall outside the block-diagonal input structure and are
    dropped.  Their relative size is recorded in the returned model's
    coupling map construction and checked in the tests.
    """
    A_cont, B_cont, _, _ = heat_balance(cfg)
    A_d, B_d = discretize(A_cont, B_cont, cfg.sample_time)
    if np.max(np.abs(np.linalg.eigvals(A_d))) >= 1.0:
        raise UnstableDiscretization("sampled building dynamics are not Schur")

    n_apts = len(cfg.apartments)
    subs = []
    input_col = 0
    state_slices = []
    input_slices = []
    for ai, apt in enumerate(cfg.apartments):
        off = cfg.room_offset(ai)
        n_i = len(apt.rooms)
        m_i = sum(room.heater for room in apt.rooms)
        state_slices.append(slice(off, off + n_i))
        input_slices.append(slice(input_col, input_col + m_i))
        input_col += m_i
    for ai, apt in enumerate(cfg.apartments):
        sl, su = state_slices[ai], input_slices[ai]
        n_i = sl.stop - sl.start
        subs.append(SubsystemModel(
            A=A_d[sl, sl],
            B=B_d[sl, su],
            E=np.eye(n_i),
            C_z=np.eye(n_i),
            input_set=BallSet(su.stop - su.start, HEATER_LIMIT),
        ))
    blocks = []
    for ai in range(n_apts):
        row = []
        for aj in range(n_apts):
            if ai == aj:
                row.append(None)
            else:
                blk = A_d[state_slices[ai], state_slices[aj]]
                row.append(None if not np.any(blk) else blk)
        blocks.append(tuple(row))
    return assemble(tuple(subs), CouplingMap(tuple(blocks)))


def building_from_dict(data: dict) -> BuildingConfig:
    return from_json(BuildingConfig, data)


def default_building(decoupled: bool = False) -> BuildingConfig:
    """Calibrated two-apartment geometry; decoupled=True removes the shared
    wall (used to exercise the no-interconnection corner of the scheme).

    Volumes and areas below are the output of scripts/fit_geometry.py and
    reproduce the reference equilibrium and both per-apartment spectra to
    machine precision.  They are effective thermal parameters, not literal
    room dimensions: the reference data pins the ratio of exterior loss to
    stored heat, which forces small air masses for most rooms (fast wall
    and furniture dynamics folded into the lumped state).
    """
    volumes = (
        (3.586896582660849, 5.434603676260682, 3.048714593999808,
         7.086065388151832, 0.4174624990525582),
        (0.3917023587244916, 4.664439697233559, 26.3752627921201,
         6.383063708573674, 3.746781481031171),
    )
    exterior_areas = (
        (0.15673586838983045, 0.770797535214571, 0.050000000000403194,
         31.408207568731783, 0.09615384615387552),
        (0.2907031695726506, 0.38557940384139655, 27.490152438879715,
         1.5504527915348898, 0.3537691885234175),
    )
    interior_walls = (
        ((3, 1, 2.9241732836138574), (3, 2, 0.8496910364297771),
         (1, 0, 1.377720862983199), (0, 4, 0.25000000000007555)),
        ((2, 1, 5.269751151234898), (2, 3, 3.0370775426878973),
         (3, 4, 1.5004394841390518), (1, 0, 0.2500047258324835)),
    )
    shared_area = 3.3516767332595117
    apartments = []
    for ai in range(2):
        rooms = tuple(
            RoomSpec(ROOM_NAMES[ai][ri], volumes[ai][ri], exterior_areas[ai][ri],
                     heater=(ri == HEATER_ROOMS[ai]))
            for ri in range(5))
        apartments.append(ApartmentSpec(rooms, interior_walls[ai]))
    shared = () if decoupled else ((0, 2, 1, 4, shared_area),)
    return BuildingConfig(tuple(apartments), shared)
