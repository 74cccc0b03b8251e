"""Experiment orchestration: JSON configs, scenario construction, per-seed
runs with CSV/JSON/checkpoint outputs, metric aggregation, and band
comparison by allocation replay.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import time

import numpy as np

from .agent import GrantAgent, TrainConfig, TrainingError
from .autodiff import (CheckpointMismatchError, load_checkpoint,
                       save_checkpoint, write_json)
from .baselines import (FullResourcePolicy, MaddpgFcAgent, UniformPolicy,
                        rollout_policy)
from .constellation import (GroundStation, VisibilityError, WalkerConfig,
                            build_walker)
from .env import SecWindow, SourceSelectionError
from .sec_sim import ComputeParams, RewardParams
from .thz_link import ArrayConfig, LinkBudgetParams, band_preset
from .traffic import TrafficConfig

METRICS_HEADER = "step,U,U_P,U_S,T_avg_ms,T_max_ms,reward,power_W_mean,subarrays_mean"
LOSS_HEADER = "step,critic_loss,q_value,actor_lr"
CHECKPOINT_EVERY = 50
CONVERGED_WINDOW = 50

POLICY_NAMES = ("grant", "maddpg_fc", "uniform", "full")
BAND_NAMES = ("thz", "ka", "ku")


class ConfigError(ValueError):
    pass


def default_config() -> dict:
    """Nested configuration dict with every tunable at its default."""
    return {
        "constellation": dataclasses.asdict(WalkerConfig()),
        "ground_station": dataclasses.asdict(GroundStation()),
        "traffic": dataclasses.asdict(TrafficConfig()),
        "link": {
            "array": dataclasses.asdict(ArrayConfig()),
            "budget": dataclasses.asdict(LinkBudgetParams()),
        },
        "band": {"offloading": "thz", "outcome": "thz"},
        "compute": dataclasses.asdict(ComputeParams()),
        "reward": dataclasses.asdict(RewardParams()),
        "train": dataclasses.asdict(TrainConfig()),
        "policy": "grant",
        "n_sources": 10,
        "source_selection": {"method": "random_nonadjacent", "seed": 0},
        "routing_eta": 0.5,
        "output_dir": "runs",
    }


def _build_section(section: str, cls, values: dict):
    try:
        return cls(**values)
    except (TypeError, ValueError, TrainingError) as exc:
        raise ConfigError(f"config section {section!r}: {exc}") from None


def _overlay(merged: dict, raw: dict, section: str | None = None) -> None:
    """Write raw over the defaults in merged, table by table.  A value keeps
    its default's kind: an int field takes an int, a float field a finite
    int or float, a str field a str; a bool is never a number."""
    for key, value in raw.items():
        where = (f"config section {section!r} field {key!r}" if section
                 else f"config section {key!r}")
        if key not in merged:
            raise ConfigError(f"unknown {where}")
        default = merged[key]
        if isinstance(default, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{where} must be a table")
            _overlay(default, value, f"{section}.{key}" if section else key)
            continue
        kind = (int, float) if isinstance(default, float) else type(default)
        if (isinstance(value, bool) or not isinstance(value, kind)
                or isinstance(value, float) and not math.isfinite(value)):
            noun = {int: "an integer", float: "a finite number",
                    str: "a string"}[type(default)]
            raise ConfigError(f"{where} must be {noun}, got {value!r}")
        merged[key] = value


@dataclasses.dataclass
class ExperimentConfig:
    """Validated experiment configuration assembled from the nested dict."""

    raw: dict
    walker: WalkerConfig
    ground_station: GroundStation
    traffic: TrafficConfig
    array: ArrayConfig
    budget: LinkBudgetParams
    band_to_name: str
    band_ot_name: str
    compute: ComputeParams
    reward: RewardParams
    train: TrainConfig
    policy: str
    n_sources: int
    source_seed: int
    routing_eta: float
    output_dir: str

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        merged = default_config()
        _overlay(merged, raw)
        policy = merged["policy"]
        if policy not in POLICY_NAMES:
            raise ConfigError(f"config section 'policy': unknown policy {policy!r}")
        for phase in ("offloading", "outcome"):
            if merged["band"][phase] not in BAND_NAMES:
                raise ConfigError(
                    f"config section 'band': unknown band {merged['band'][phase]!r}")
        if merged["n_sources"] < 1:
            raise ConfigError("config section 'n_sources': must be >= 1, "
                              f"got {merged['n_sources']!r}")
        if merged["routing_eta"] < 0:
            raise ConfigError("config section 'routing_eta': must be >= 0, "
                              f"got {merged['routing_eta']!r}")
        if merged["constellation"]["planes"] < 3:
            raise ConfigError("config section 'constellation': planes must be "
                              ">= 3 for the 4-ISL topology")
        sel = merged["source_selection"]
        if sel["method"] != "random_nonadjacent":
            raise ConfigError(
                f"config section 'source_selection': unknown method {sel['method']!r}")
        return cls(
            raw=merged,
            walker=_build_section("constellation", WalkerConfig,
                                  merged["constellation"]),
            ground_station=_build_section("ground_station", GroundStation,
                                          merged["ground_station"]),
            traffic=_build_section("traffic", TrafficConfig, merged["traffic"]),
            array=_build_section("link.array", ArrayConfig,
                                 merged["link"]["array"]),
            budget=_build_section("link.budget", LinkBudgetParams,
                                  merged["link"]["budget"]),
            band_to_name=merged["band"]["offloading"],
            band_ot_name=merged["band"]["outcome"],
            compute=_build_section("compute", ComputeParams, merged["compute"]),
            reward=_build_section("reward", RewardParams, merged["reward"]),
            train=_build_section("train", TrainConfig, merged["train"]),
            policy=policy,
            n_sources=merged["n_sources"],
            source_seed=sel["seed"],
            routing_eta=float(merged["routing_eta"]),
            output_dir=merged["output_dir"],
        )

    def config_hash(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:12]


def load_config(path: str | None) -> ExperimentConfig:
    if path is None:
        return ExperimentConfig.from_dict({})
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return ExperimentConfig.from_dict(raw)


def build_environment(cfg: ExperimentConfig, seed: int) -> SecWindow:
    """Construct the frozen window for one run seed.

    The run seed drives traffic, source selection and network init so that
    each seed is an independent scenario reproducible from (config, seed).
    """
    constellation = build_walker(cfg.walker)
    traffic = dataclasses.replace(cfg.traffic, seed=seed)
    try:
        return SecWindow(
            constellation, cfg.ground_station, traffic, cfg.array, cfg.budget,
            band_preset(cfg.band_to_name, "offloading"),
            band_preset(cfg.band_ot_name, "outcome"),
            cfg.compute, cfg.reward,
            n_sources=cfg.n_sources, steps=cfg.train.steps,
            source_seed=cfg.source_seed + seed, routing_eta=cfg.routing_eta)
    except VisibilityError as exc:
        raise ConfigError("config sections 'constellation' and "
                          f"'ground_station': {exc}") from None
    except SourceSelectionError as exc:
        raise ConfigError(f"config section 'n_sources': {exc}") from None


def make_policy(name: str, env: SecWindow, cfg: ExperimentConfig, seed: int):
    train = dataclasses.replace(cfg.train, seed=seed)
    if name == "grant":
        return GrantAgent(env, train)
    if name == "maddpg_fc":
        return MaddpgFcAgent(env, train)
    if name == "uniform":
        return UniformPolicy(env)
    if name == "full":
        return FullResourcePolicy(env)
    raise ConfigError(f"unknown policy {name!r}")


def restored_policy(cfg: ExperimentConfig, seed: int,
                    checkpoint: str | None = None):
    """(env, policy) for one seed, with learner parameters optionally loaded
    from a checkpoint (a ConfigError if they do not fit its tensors)."""
    env = build_environment(cfg, seed)
    policy = make_policy(cfg.policy, env, cfg, seed)
    if checkpoint is not None:
        if not isinstance(policy, GrantAgent):
            raise ConfigError(
                f"policy {cfg.policy!r} has no parameters to restore")
        try:
            load_checkpoint(checkpoint, policy.parameters())
        except CheckpointMismatchError as exc:
            raise ConfigError(
                f"checkpoint {checkpoint!r} (policy {exc.meta.get('policy')!r}, "
                f"seed {exc.meta.get('seed')}) does not fit policy "
                f"{cfg.policy!r} at seed {seed}: {exc}") from None
    return env, policy


# -- output files --------------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{float(x):.10g}"


def _metrics_row(step: int, outcome) -> str:
    return ",".join([str(step), _fmt(outcome.u_total), _fmt(outcome.u_power),
                     _fmt(outcome.u_subarray), _fmt(outcome.t_avg * 1e3),
                     _fmt(outcome.t_max * 1e3), _fmt(outcome.reward),
                     _fmt(outcome.power_w_mean), _fmt(outcome.subarrays_mean)])


def _loss_row(record: dict) -> str:
    return ",".join([str(record["step"]), _fmt(record["critic_loss"]),
                     _fmt(record["q_value"]), _fmt(record["actor_lr"])])


@dataclasses.dataclass
class RunSummary:
    seed: int
    policy: str
    config_hash: str
    metrics_csv: str
    loss_csv: str | None
    converged_u: float
    converged_t_avg_ms: float
    converged_t_max_ms: float
    wall_clock_per_step_s: float
    parameter_count: int

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def summarize_metrics(metrics_csv: str, window: int = CONVERGED_WINDOW):
    """Converged metrics from the emitted CSV alone (mean of last rows)."""
    rows = []
    with open(metrics_csv) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("step"):
                continue
            rows.append([float(v) for v in line.split(",")])
    if not rows:
        raise ConfigError(f"metrics file {metrics_csv!r} contains no data rows")
    tail = np.asarray(rows[-window:])
    return (float(tail[:, 1].mean()), float(tail[:, 4].mean()),
            float(tail[:, 5].mean()))


def run_experiment(cfg: ExperimentConfig, seeds, on_progress=None):
    """Run the configured policy once per seed; returns (summaries, aggregate).

    Each seed writes a metrics CSV (plus loss CSV and periodic checkpoints
    for learning policies) and a summary JSON into cfg.output_dir.  A failure
    mid-run leaves the partial CSV terminated by a '# FAILED' marker row.
    """
    chash = cfg.config_hash()
    summaries = []
    for seed in seeds:
        env = build_environment(cfg, seed)
        policy = make_policy(cfg.policy, env, cfg, seed)
        # after the set-up, so a config it rejects leaves no output behind
        os.makedirs(cfg.output_dir, exist_ok=True)
        learning = isinstance(policy, GrantAgent)
        base = os.path.join(cfg.output_dir, f"{cfg.policy}_seed{seed}")
        metrics_path = base + "_metrics.csv"
        loss_path = base + "_loss.csv" if learning else None
        header = (f"# config_hash={chash} seed={seed} policy={cfg.policy}"
                  f" band_to={cfg.band_to_name} band_ot={cfg.band_ot_name}")
        n_params = policy.parameter_count() if learning else 0

        with open(metrics_path, "w") as mfh:
            mfh.write(header + "\n" + METRICS_HEADER + "\n")
            lfh = open(loss_path, "w") if loss_path else None
            if lfh:
                lfh.write(header + "\n" + LOSS_HEADER + "\n")
            t_start = time.perf_counter()
            steps_done = 0

            def on_step(agent, record):
                nonlocal steps_done
                step = record["step"]
                mfh.write(_metrics_row(step, record["outcome"]) + "\n")
                steps_done = step + 1
                if lfh:
                    lfh.write(_loss_row(record) + "\n")
                    if steps_done % CHECKPOINT_EVERY == 0:
                        save_checkpoint(
                            f"{base}_step{steps_done}.ckpt.json",
                            agent.parameters(),
                            meta={"config_hash": chash, "seed": seed,
                                  "policy": cfg.policy, "step": steps_done})

            try:
                if learning:
                    policy.run_training(on_step=on_step)
                else:
                    for record in rollout_policy(env, policy, cfg.train.steps):
                        on_step(policy, record)
            except Exception as exc:
                marker = f"# FAILED step={steps_done} error={type(exc).__name__}"
                mfh.write(marker + "\n")
                if lfh:
                    lfh.write(marker + "\n")
                    lfh.close()
                raise
            if lfh:
                lfh.close()
        wall = (time.perf_counter() - t_start) / max(steps_done, 1)

        u, t_avg_ms, t_max_ms = summarize_metrics(metrics_path)
        summary = RunSummary(
            seed=seed, policy=cfg.policy, config_hash=chash,
            metrics_csv=metrics_path, loss_csv=loss_path,
            converged_u=u, converged_t_avg_ms=t_avg_ms,
            converged_t_max_ms=t_max_ms, wall_clock_per_step_s=wall,
            parameter_count=n_params)
        write_json(base + "_summary.json", summary.to_dict(), indent=2)
        summaries.append(summary)
        if on_progress is not None:
            on_progress(summary)

    us = np.array([s.converged_u for s in summaries])
    ts = np.array([s.converged_t_avg_ms for s in summaries])
    aggregate = {
        "config_hash": chash, "policy": cfg.policy,
        "seeds": list(seeds),
        "converged_u_mean": float(us.mean()),
        "converged_u_std": float(us.std()),
        "converged_t_avg_ms_mean": float(ts.mean()),
        "converged_t_avg_ms_std": float(ts.std()),
    }
    write_json(os.path.join(cfg.output_dir, f"{cfg.policy}_aggregate.json"),
               aggregate, indent=2)
    return summaries, aggregate


# -- band comparison -----------------------------------------------------------


def compare_bands(cfg: ExperimentConfig, seed: int,
                  checkpoint: str | None = None,
                  bands=BAND_NAMES, steps: int | None = None) -> dict:
    """Replay identical allocations and offload decisions under each band.

    The policy (optionally restored from a checkpoint) acts on the reference
    band environment; every band then rates the exact same quantized
    allocations.  Latencies are raw path-delay means, uncapped, so slow
    bands report their true multi-second queueing delays.
    """
    env, policy = restored_policy(cfg, seed, checkpoint)
    steps = steps if steps is not None else min(cfg.train.steps, 20)
    band_plans = {name: (band_preset(name, "offloading"),
                         band_preset(name, "outcome")) for name in bands}
    delays = {name: [] for name in bands}
    maxima = {name: [] for name in bands}
    unreachable = dict.fromkeys(bands, 0)
    for _ in range(steps):
        bundle, _, _ = policy.act(env.snapshot())
        allocations = env._quantize_allocations(bundle)
        for name, (b_to, b_ot) in band_plans.items():
            outcome, _, _ = env.step(bundle, band_to=b_to, band_ot=b_ot,
                                     advance=False, allocations=allocations)
            overall = list(outcome.overall_delay.values())
            finite = [d for d in overall if np.isfinite(d)]
            unreachable[name] += len(finite) < len(overall)
            if finite:
                delays[name].append(float(np.mean(finite)))
                maxima[name].append(float(np.max(finite)))
        # advance once on the configured reference band
        env.step(bundle, advance=True, allocations=allocations)
    table = {}
    for name in bands:
        # a band with no finite path delay in any slot has no mean to report
        table[name] = {
            "t_avg_s": float(np.mean(delays[name])) if delays[name] else None,
            "t_max_s": float(np.max(maxima[name])) if maxima[name] else None,
            "unreachable_slots": unreachable[name]}
    return table
