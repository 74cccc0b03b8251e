"""The four benchmark workloads and their pinned experiment configs.

Every config field is written out here instead of being inherited from
``terasec.harness.default_config()``: a later change to a default cannot
quietly redefine a workload, and a change to the set of config fields makes
the benchmark fail (see ``check_fields``).

The source set, and with it the involved graph, is part of the workload.
``build_environment`` seeds source selection with
``source_selection.seed + run_seed``; the pinned configs set
``source_selection.seed = SCENARIO_SOURCE_SEED - run_seed``, so every run
seed sees the same graph while traffic, network initialisation and
exploration noise follow the run seed.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass

#: seed used when ``--seed`` is not given, and the seed the golden outputs
#: were first pinned on
DEFAULT_SEED = 1
#: documented held-out seed: no benchmark setting was tuned on it, so a
#: claimed gain can be re-checked there
HELD_OUT_SEED = 1009
#: source-selection seed shared by every run seed of a workload
SCENARIO_SOURCE_SEED = 1_000_000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str              # "train" -> run_experiment, "bands" -> compare_bands
    policy: str
    n_sources: int
    slots: int             # slots per episode (train.steps)
    #: sensitivity of the workload's host time to host speed, as a power of
    #: the HostClock speed; fitted on 15 runs per workload, as the exponent
    #: that left the scaled slot_ms_p50 uncorrelated with host speed
    host_exponent: float
    #: seconds one episode process and one set-up probe take at the
    #: reference host speed; they fix how many episodes a run holds
    episode_s: float
    setup_s: float


WORKLOADS = {w.name: w for w in (
    Workload("paper_grant_s10",
             "the paper's operating point: GCN learner and simulator each "
             "about half of a slot; crosses the slot-50 checkpoint",
             "train", "grant", 10, 60, 1.0, 6.5, 0.35),
    Workload("gcn_grant_s200",
             "GCN learner at 200 sources, dominated by dense n x n "
             "propagation over ~1.4k involved nodes",
             "train", "grant", 200, 8, 0.8, 8.0, 0.9),
    Workload("bands_uniform_s50",
             "simulator only: thz/ka/ku replays of uniform allocations on "
             "the fixed-allocation replay path, no autodiff",
             "bands", "uniform", 50, 12, 1.1, 6.0, 0.45),
    Workload("dense_maddpg_s10",
             "dense MADDPG baseline: ~20M parameters, Adam and large Dense "
             "matmuls dominate; no GCN",
             "train", "maddpg_fc", 10, 8, 0.75, 10.5, 0.75),
)}

_BASE_CONFIG = {
    "constellation": {
        "planes": 72,
        "sats_per_plane": 22,
        "inclination_deg": 53.0,
        "altitude_km": 550.0,
        "phasing_factor": 0,
        "epoch_s": 0.0,
    },
    "ground_station": {
        "latitude_deg": 31.2,
        "longitude_deg": 121.4,
        "min_elevation_deg": 15.0,
    },
    "traffic": {
        "mean_tasks_per_slot": 122.0,
        "hurst": 0.8,
        "relative_std": 0.2,
        "slot_duration_s": 0.05,
        "task_size_bytes": 2500,
        "seed": 0,
    },
    "link": {
        "array": {
            "m_x": 4,
            "m_y": 4,
            "d0_wavelengths": 0.5,
            "element_gain_dbi": 10.0,
            "s_max": 64,
            "rx_subarrays_per_isl": 1,
        },
        "budget": {
            "p_max_w": 10.0,
            "noise_temperature_k": 290.0,
            "interference_mean_w": 0.0,
            "gain_interpretation": "amplitude",
        },
    },
    "band": {"offloading": "thz", "outcome": "thz"},
    "compute": {
        "cycles_per_byte": 330.0,
        "cpu_rate_hz": 2e9,
        "outcome_ratio": 0.1,
    },
    "reward": {
        "chi1": 3.0,
        "latency_threshold_s": 0.1,
        "w_below": 10.0,
        "w_above": 50.0,
        "kappa": 0.5,
    },
    "train": {
        "kappa": 0.5,
        "steps": 0,
        "actor_lr": 0.02,
        "critic_lr": 0.01,
        "actor_lr_decay": 0.95,
        "decay_every_steps": 3,
        "noise_std": 0.3,
        "hidden_width": 128,
        "seed": 0,
    },
    "policy": "",
    "n_sources": 0,
    "source_selection": {"method": "random_nonadjacent", "seed": 0},
    "routing_eta": 0.5,
    "output_dir": "",
}


def check_seed(seed: int) -> None:
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")


def config(workload: Workload, seed: int, output_dir: str,
           slots: int | None = None) -> dict:
    """The full nested config of one workload episode at one run seed."""
    check_seed(seed)
    cfg = copy.deepcopy(_BASE_CONFIG)
    cfg["train"]["steps"] = workload.slots if slots is None else slots
    cfg["policy"] = workload.policy
    cfg["n_sources"] = workload.n_sources
    cfg["source_selection"]["seed"] = SCENARIO_SOURCE_SEED - seed
    cfg["output_dir"] = output_dir
    return cfg


def _field_paths(tree: dict, prefix: str = "") -> set:
    paths = set()
    for key, value in tree.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            paths |= _field_paths(value, path + ".")
        else:
            paths.add(path)
    return paths


def check_fields(pinned: dict, defaults: dict) -> None:
    """Fail when the program's config fields differ from the pinned ones."""
    ours, theirs = _field_paths(pinned), _field_paths(defaults)
    if ours != theirs:
        raise ValueError(
            "pinned config fields differ from default_config(): missing "
            f"{sorted(theirs - ours)}, unknown {sorted(ours - theirs)}")
