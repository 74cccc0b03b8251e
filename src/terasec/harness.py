"""Experiment orchestration: JSON configs, scenario construction, per-seed
runs with CSV/JSON/checkpoint outputs, metric aggregation, and band
comparison by allocation replay.
"""
from __future__ import annotations

import bisect
import collections
import contextlib
import dataclasses
import hashlib
import json
import os
import resource
import signal
import sys
import time

import numpy as np

from .agent import GrantAgent, TrainConfig, TrainingError, require_finite
from .autodiff import (CheckpointMismatchError, load_checkpoint,
                       save_checkpoint, write_json)
from .baselines import (ActorSizeError, FullResourcePolicy, MaddpgFcAgent,
                        UniformPolicy, rollout_policy)
from .constellation import (Constellation, GroundStation, RoutingError,
                            VisibilityError, WalkerConfig)
from .env import SecWindow, SourceSelectionError
from .sec_sim import ComputeParams, RewardParams
from .thz_link import ArrayConfig, LinkBudgetParams, band_preset
from .traffic import TrafficConfig, TrafficConfigError

METRICS_HEADER = "step,U,U_P,U_S,T_avg_ms,T_max_ms,reward,power_W_mean,subarrays_mean"
LOSS_HEADER = "step,critic_loss,q_value,actor_lr"
CHECKPOINT_EVERY = 50
CONVERGED_WINDOW = 50

#: held back while a step's rows are written, so both CSVs end on one step
ROW_SIGNALS = {signal.SIGINT, signal.SIGTERM}

#: a run draws its [n_sources, steps] traffic matrix whole, at about 130
#: bytes per task count while drawn: about 260 MB at this many counts
MAX_TASK_COUNTS = 2 * 10**6

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
    """cls(**values) with each float field's value as a float: an int given
    for one would reach numpy as a Python int (raw keeps it as given)."""
    floats = {f.name for f in dataclasses.fields(cls)
              if isinstance(f.default, float)}
    try:
        return cls(**{key: float(value) if key in floats else value
                      for key, value in values.items()})
    except (TypeError, ValueError, TrainingError) as exc:
        raise ConfigError(f"config section {section!r}: {exc}") from None


class _Table(dict):
    """object_pairs_hook: a JSON object naming its repeated keys for _overlay."""

    def __init__(self, pairs):
        super().__init__(pairs)
        counts = collections.Counter(key for key, _ in pairs)
        self.repeated = {key for key, n in counts.items() if n > 1}


def _overlay(merged: dict, raw: dict, section: str | None = None) -> None:
    """Write raw over the defaults in merged, table by table.  A value keeps
    its default's kind: an int field takes an int, a float field an int or
    float finite as a float (an int compares exactly, with no overflow), a
    str field a str; a bool is never a number.  Values are stored as given."""
    for key, value in raw.items():
        where = (f"config section {section!r} field {key!r}" if section
                 else f"config section {key!r}")
        if key in getattr(raw, "repeated", ()):
            raise ConfigError(f"{where} is given twice")
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
                or isinstance(default, float)
                and not abs(value) <= sys.float_info.max):
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
    def from_dict(cls, raw: dict, overrides=None) -> "ExperimentConfig":
        """Validate raw over the defaults, then overrides (the CLI's) over both."""
        merged = default_config()
        _overlay(merged, raw)
        _overlay(merged, overrides or {})
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
        if merged["n_sources"] * merged["train"]["steps"] > MAX_TASK_COUNTS:
            raise ConfigError("config sections 'n_sources' and 'train': "
                              f"n_sources x steps must be <= {MAX_TASK_COUNTS}")
        if merged["routing_eta"] < 0:
            raise ConfigError("config section 'routing_eta': must be >= 0, "
                              f"got {merged['routing_eta']!r}")
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


def load_config(path: str | None, overrides=None) -> ExperimentConfig:
    """The config file at path (the defaults for None), under overrides."""
    if path is None:
        return ExperimentConfig.from_dict({}, overrides)
    try:
        with open(path) as fh:
            raw = json.load(fh, object_pairs_hook=_Table)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    except ValueError as exc:   # JSONDecodeError, or an int of too many digits
        raise ConfigError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return ExperimentConfig.from_dict(raw, overrides)


def build_environment(cfg: ExperimentConfig, seed: int) -> SecWindow:
    """Construct the frozen window for one run seed.

    The run seed drives traffic, source selection and network init so that
    each seed is an independent scenario reproducible from (config, seed).
    """
    if min(seed, cfg.source_seed + seed) < 0:
        raise ConfigError("config section 'source_selection': the run seed and "
                          f"seed + run seed must be >= 0, got {cfg.source_seed}"
                          f" + {seed}")
    traffic = dataclasses.replace(cfg.traffic, seed=seed)
    try:
        env = SecWindow(
            Constellation(cfg.walker), cfg.ground_station, traffic,
            cfg.array, cfg.budget,
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
    except RoutingError as exc:
        raise ConfigError(f"config section 'routing_eta': {exc}") from None
    except TrafficConfigError as exc:
        raise ConfigError(f"config section 'traffic': {exc}") from None
    if not np.isfinite(cfg.budget.p_max_w * (len(env.sources) + len(env.involved))):
        raise ConfigError("config section 'link.budget': p_max_w summed over "
                          "the window's transmitting rows overflows a float")
    return env


def make_policy(name: str, env: SecWindow, cfg: ExperimentConfig, seed: int):
    """Policy `name` on env; ExperimentConfig.from_dict has checked it."""
    train = dataclasses.replace(cfg.train, seed=seed)
    if name == "grant":
        return GrantAgent(env, train)
    if name == "maddpg_fc":
        try:
            return MaddpgFcAgent(env, train)
        except ActorSizeError as exc:
            raise ConfigError(
                f"config sections 'n_sources' and 'train': {exc}") from None
    if name == "uniform":
        return UniformPolicy(env)
    if name == "full":
        return FullResourcePolicy(env)


def restored_policy(cfg: ExperimentConfig, seed: int,
                    checkpoint: str | None = None):
    """(env, policy) for one seed, with learner parameters optionally loaded
    from a checkpoint (a ConfigError if it is no checkpoint or does not fit)."""
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
        except ValueError as exc:
            raise ConfigError(f"checkpoint {checkpoint!r}: {exc}") from None
    return env, policy


# -- output files --------------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{float(x):.10g}"


def _csv_row(header: str, step: int, values) -> str:
    """One CSV row; a non-finite value raises TrainingError naming its
    column instead of being written."""
    for name, value in zip(header.split(",")[1:], values):
        require_finite(name, value)
    return ",".join([str(step)] + [_fmt(v) for v in values])


def _metrics_row(step: int, outcome) -> str:
    return _csv_row(METRICS_HEADER, step, [
        outcome.u_total, outcome.u_power, outcome.u_subarray,
        outcome.t_avg * 1e3, outcome.t_max * 1e3, outcome.reward,
        outcome.power_w_mean, outcome.subarrays_mean])


def _loss_row(record: dict) -> str:
    return _csv_row(LOSS_HEADER, record["step"], [
        record["critic_loss"], record["q_value"], record["actor_lr"]])


def _end_failed_csvs(files, ends, error: str) -> None:
    """End a failed run's CSVs on the last step that all of them hold whole,
    then a '# FAILED step=N' marker row where it fits.

    A failed write or flush can leave part of a row, or one file a step
    ahead of the other.  So each file is closed, flushing what it can, and
    cut back to its offset in `ends` (after its header, then after each
    step's row) at the last step that every file holds whole."""
    paths = [fh.name for fh in files]
    for fh in files:
        with contextlib.suppress(OSError):
            fh.close()
    try:
        whole = min(bisect.bisect_right(at, os.path.getsize(path))
                    for path, at in zip(paths, ends)) - 1
    except OSError:             # a file gone: nothing left to end
        return
    marker = f"# FAILED step={max(whole, 0)} error={error}\n".encode()
    for path, at in zip(paths, ends):
        keep = at[whole] if whole >= 0 else 0
        with contextlib.suppress(OSError):
            fd = os.open(path, os.O_WRONLY | os.O_APPEND)
            try:
                os.ftruncate(fd, keep)
                if os.write(fd, marker) < len(marker):
                    os.ftruncate(fd, keep)     # no partial marker row
            finally:
                os.close(fd)


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
    minor_faults_per_step: float   # over the steps after the first
    peak_rss_mb: float             # ru_maxrss: the whole process's so far


def run_experiment(cfg: ExperimentConfig, seeds, on_progress=None,
                   on_setup=None):
    """Run the configured policy once per seed; returns (summaries, aggregate).

    Each seed writes a metrics CSV (plus loss CSV and periodic checkpoints
    for learning policies) and a summary JSON into cfg.output_dir, flushing
    the CSVs at every checkpoint.  A failure or stop mid-run, or in the
    summary's write, ends the CSVs on the last step that both hold whole,
    with a '# FAILED' marker row where it fits, and leaves no summary.
    on_setup(seed, env) runs once the seed's set-up has succeeded and the
    output directory exists.
    """
    if len(set(seeds)) < len(seeds):
        raise ConfigError(f"a run seed repeats in {list(seeds)}")
    chash = cfg.config_hash()
    summaries = []
    for seed in seeds:
        env, policy = restored_policy(cfg, seed)
        # after the set-up, so a config it rejects leaves no output behind
        os.makedirs(cfg.output_dir, exist_ok=True)
        if on_setup is not None:
            on_setup(seed, env)
        learning = isinstance(policy, GrantAgent)
        base = os.path.join(cfg.output_dir, f"{cfg.policy}_seed{seed}")
        metrics_path = base + "_metrics.csv"
        loss_path = base + "_loss.csv" if learning else None
        header = (f"# config_hash={chash} seed={seed} policy={cfg.policy}"
                  f" band_to={cfg.band_to_name} band_ot={cfg.band_ot_name}")
        n_params = policy.parameter_count() if learning else 0

        with contextlib.ExitStack() as stack:
            files = [stack.enter_context(open(path, "w"))
                     for path in (metrics_path, loss_path) if path]
            # each file's byte offset after its header, then after each
            # step's row
            ends = []
            for fh, columns in zip(files, (METRICS_HEADER, LOSS_HEADER)):
                text = header + "\n" + columns + "\n"
                fh.write(text)
                ends.append([len(text.encode())])
            t_start = time.perf_counter()
            steps_done = first_faults = 0
            # the parsed values of the last rows written, for the summary
            converged = collections.deque(maxlen=CONVERGED_WINDOW)

            def on_step(agent, record):
                nonlocal steps_done, first_faults
                step = record["step"]
                rows = [_metrics_row(step, record["outcome"])]
                if learning:
                    rows.append(_loss_row(record))
                held = signal.pthread_sigmask(signal.SIG_BLOCK, ROW_SIGNALS)
                try:
                    for fh, row in zip(files, rows):
                        fh.write(row + "\n")
                    for at, row in zip(ends, rows):
                        at.append(at[-1] + len(row.encode()) + 1)
                    steps_done = step + 1
                finally:
                    signal.pthread_sigmask(signal.SIG_SETMASK, held)
                converged.append([float(v) for v in rows[0].split(",")])
                if step == 0:
                    first_faults = resource.getrusage(
                        resource.RUSAGE_SELF).ru_minflt
                if learning and steps_done % CHECKPOINT_EVERY == 0:
                    save_checkpoint(
                        f"{base}_step{steps_done}.ckpt.npz",
                        agent.parameters(),
                        meta={"config_hash": chash, "seed": seed,
                              "policy": cfg.policy, "step": steps_done})
                    for fh in files:
                        fh.flush()

            try:
                if learning:
                    policy.run_training(on_step=on_step)
                else:
                    for record in rollout_policy(env, policy, cfg.train.steps):
                        on_step(policy, record)
                # here, so that a failed last flush or summary write ends
                # the CSVs as above
                for fh in files:
                    fh.flush()
                wall = (time.perf_counter() - t_start) / max(steps_done, 1)
                usage = resource.getrusage(resource.RUSAGE_SELF)
                tail = np.asarray(converged)
                summary = RunSummary(
                    seed=seed, policy=cfg.policy, config_hash=chash,
                    metrics_csv=metrics_path, loss_csv=loss_path,
                    converged_u=float(tail[:, 1].mean()),
                    converged_t_avg_ms=float(tail[:, 4].mean()),
                    converged_t_max_ms=float(tail[:, 5].mean()),
                    wall_clock_per_step_s=wall,
                    parameter_count=n_params,
                    minor_faults_per_step=((usage.ru_minflt - first_faults)
                                           / max(steps_done - 1, 1)),
                    peak_rss_mb=usage.ru_maxrss / 1024.0)
                write_json(base + "_summary.json", dataclasses.asdict(summary))
            except BaseException as exc:
                _end_failed_csvs(files, ends, type(exc).__name__)
                raise
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
               aggregate)
    return summaries, aggregate


# -- band comparison -----------------------------------------------------------


def compare_bands(cfg: ExperimentConfig, seed: int,
                  checkpoint: str | None = None,
                  steps: int | None = None) -> dict:
    """Replay identical allocations and offload decisions under each band.

    The policy (optionally restored from a checkpoint) acts on the reference
    band environment; every band then rates the exact same quantized
    allocations.  Latencies are raw path-delay means, uncapped, so slow
    bands report their true multi-second queueing delays.  Each band pair is
    evaluated once per slot (the advancing step reuses the matching replay).
    """
    env, policy = restored_policy(cfg, seed, checkpoint)
    steps = steps if steps is not None else min(cfg.train.steps, 20)
    band_plans = {name: (band_preset(name, "offloading"),
                         band_preset(name, "outcome")) for name in BAND_NAMES}
    delays = {name: [] for name in BAND_NAMES}
    maxima = {name: [] for name in BAND_NAMES}
    unreachable = dict.fromkeys(BAND_NAMES, 0)
    for _ in range(steps):
        bundle = policy.act(env.snapshot())
        for name, (b_to, b_ot) in band_plans.items():
            outcome = env.step(bundle, b_to, b_ot, advance=False)[0]
            overall = np.fromiter(outcome.overall_delay.values(), float,
                                  len(outcome.overall_delay))
            finite = overall[np.isfinite(overall)]
            unreachable[name] += finite.size < overall.size
            if finite.size:
                delays[name].append(float(np.mean(finite)))
                maxima[name].append(float(np.max(finite)))
        # advance once on the configured reference band
        env.step(bundle, advance=True)
    # a band with no finite path delay in any slot has no mean to report
    return {name: {
        "t_avg_s": float(np.mean(delays[name])) if delays[name] else None,
        "t_max_s": float(np.max(maxima[name])) if maxima[name] else None,
        "unreachable_slots": unreachable[name]} for name in BAND_NAMES}
