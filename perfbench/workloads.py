"""Benchmark workloads: plant, run config and seeded start state.

Each workload is a config in the format `hiermpc --config` reads (optional
"run" and "building" sections).  The seed only chooses the direction of the
start state: every room starts below its working point by 1.5 to 2.5 K
before rescaling, and the norm is always that of the default start
(-2, ..., -2).  Keeping every room on the cold side keeps the amount of
solver work nearly the same from seed to seed, so the spread between seeds
measures the machine, not the inputs.
"""
from __future__ import annotations

import dataclasses
import json
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Relative per-room spread of the start state around the default start.
START_SPREAD = 0.25
START_TEMPERATURE = -2.0

# name -> config in the `hiermpc --config` format.  chain4_n40 is shipped as
# a file so the CLI can load the same plant.
CONFIGS = {
    "coupled_n20": {"run": {}},
    "decoupled_n20": {"run": {"decoupled": True}},
    "chain4_n40": HERE / "chain4_n40.json",
}


def use_checkout_source() -> None:
    """Import `hiermpc` from the checkout's `src`, never from an installed
    copy, so the benchmark always measures the code next to it."""
    src = ROOT / "src"
    if not (src / "hiermpc" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no hiermpc package under {src}")
    sys.path.insert(0, str(src))
    import hiermpc

    if Path(hiermpc.__file__).resolve().parent != src / "hiermpc":
        raise SystemExit(f"perfbench: hiermpc imported from {hiermpc.__file__}, "
                         f"not from {src}")


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    building: object      # hiermpc.thermal.BuildingConfig
    cfg: object           # hiermpc.harness.RunConfig, x0 set from the seed
    config: dict          # the same run as a `hiermpc --config` document


def start_state(seed: int, n_states: int) -> tuple:
    import numpy as np

    rng = np.random.default_rng(seed)
    direction = 1.0 + START_SPREAD * rng.uniform(-1.0, 1.0, n_states)
    scale = abs(START_TEMPERATURE) * np.sqrt(n_states)
    return tuple(float(v) for v in -scale * direction / np.linalg.norm(direction))


def load(name: str, seed: int) -> Workload:
    from hiermpc.harness import config_from_dict, config_to_dict
    from hiermpc.thermal import building_from_dict, default_building

    if name not in CONFIGS:
        raise SystemExit(f"perfbench: unknown workload {name!r}; "
                         f"choose from {sorted(CONFIGS)}")
    source = CONFIGS[name]
    data = json.loads(source.read_text()) if isinstance(source, Path) else source
    cfg = config_from_dict(data.get("run", {}))
    if "building" in data:
        building = building_from_dict(data["building"])
    else:
        building = default_building(cfg.decoupled)
    cfg = dataclasses.replace(cfg, x0=start_state(seed, building.n_rooms))
    config = dict(data, run=config_to_dict(cfg))
    return Workload(name, seed, building, cfg, config)
