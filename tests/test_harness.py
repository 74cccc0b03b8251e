import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from terasec import harness
from terasec.autodiff import save_checkpoint
from terasec.baselines import rollout_policy
from terasec.env import ActionBundle
from terasec.harness import (CONVERGED_WINDOW, ConfigError, ExperimentConfig,
                             compare_bands, default_config, load_config,
                             restored_policy, run_experiment,
                             summarize_metrics)


# -- configuration ------------------------------------------------------------

def test_default_config_is_valid():
    cfg = ExperimentConfig.from_dict({})
    assert cfg.policy == "grant"
    assert cfg.n_sources == 10
    assert cfg.band_to_name == "thz"
    assert cfg.raw == default_config()


def test_unknown_section_and_field_errors():
    with pytest.raises(ConfigError, match="unknown config section"):
        ExperimentConfig.from_dict({"nope": {}})
    with pytest.raises(ConfigError, match="'traffic'"):
        ExperimentConfig.from_dict({"traffic": {"nope": 1}})
    with pytest.raises(ConfigError, match="must be a table"):
        ExperimentConfig.from_dict({"traffic": 5})
    with pytest.raises(ConfigError, match="'link.array' field 'nope'"):
        ExperimentConfig.from_dict({"link": {"array": {"nope": 1}}})
    with pytest.raises(ConfigError, match="must be a table"):
        ExperimentConfig.from_dict({"link": {"array": 5}})
    with pytest.raises(ConfigError, match="unknown policy"):
        ExperimentConfig.from_dict({"policy": "dqn"})
    with pytest.raises(ConfigError, match="unknown band"):
        ExperimentConfig.from_dict({"band": {"offloading": "xband"}})
    with pytest.raises(ConfigError, match="unknown method"):
        ExperimentConfig.from_dict({"source_selection": {"method": "grid"}})
    with pytest.raises(ConfigError, match="'link.budget'"):
        ExperimentConfig.from_dict({"link": {"budget": {"p_max_w": -1.0}}})


def test_config_hash_stability():
    a = ExperimentConfig.from_dict({"n_sources": 10})
    b = ExperimentConfig.from_dict({})
    assert a.config_hash() == b.config_hash()
    assert len(a.config_hash()) == 12
    c = ExperimentConfig.from_dict({"n_sources": 12})
    assert c.config_hash() != a.config_hash()


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(bad))
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="root must be"):
        load_config(str(arr))
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"policy": "uniform", "train": {"steps": 3}}))
    cfg = load_config(str(good))
    assert cfg.policy == "uniform"
    assert cfg.train.steps == 3
    assert load_config(None).policy == "grant"


def _leaf_paths(table, prefix=()):
    for key, value in table.items():
        if isinstance(value, dict):
            yield from _leaf_paths(value, prefix + (key,))
        else:
            yield prefix + (key,)


@settings(max_examples=200, deadline=None)
@given(path=st.sampled_from(sorted(_leaf_paths(default_config()))),
       value=st.sampled_from([-1, 0, float("nan"), float("inf"), "x", True]))
def test_one_bad_field_runs_or_is_a_config_error(path, value):
    """A default config with one field set to an adversarial value either
    runs or is rejected as a config error, never failing another way."""
    raw = default_config()
    raw["policy"], raw["train"]["steps"] = "uniform", 2
    table = raw
    for key in path[:-1]:
        table = table[key]
    table[path[-1]] = value
    try:
        env, policy = restored_policy(ExperimentConfig.from_dict(raw), 1)
    except ConfigError:
        return
    assert len(rollout_policy(env, policy, 2)) == 2


# -- metric summaries ---------------------------------------------------------

def _write_metrics(path, n_rows):
    with open(path, "w") as fh:
        fh.write("# config_hash=abc seed=0 policy=uniform\n")
        fh.write(harness.METRICS_HEADER + "\n")
        for i in range(n_rows):
            fh.write(f"{i},{i/10},0.5,0.5,{100+i},{200+i},-3,5,32\n")


def test_summarize_metrics_window(tmp_path):
    path = str(tmp_path / "m.csv")
    _write_metrics(path, 120)
    u, t_avg, t_max = summarize_metrics(path)
    last = np.arange(120 - CONVERGED_WINDOW, 120)
    assert abs(u - (last / 10).mean()) < 1e-12
    assert abs(t_avg - (100 + last).mean()) < 1e-12
    assert abs(t_max - (200 + last).mean()) < 1e-12
    # shorter file than the window: every row counts
    _write_metrics(path, 5)
    u5, _, _ = summarize_metrics(path)
    assert abs(u5 - np.mean([0.0, 0.1, 0.2, 0.3, 0.4])) < 1e-12


def test_summarize_metrics_empty_error(tmp_path):
    path = str(tmp_path / "e.csv")
    with open(path, "w") as fh:
        fh.write(harness.METRICS_HEADER + "\n")
    with pytest.raises(ConfigError, match="no data rows"):
        summarize_metrics(path)


# -- experiment runs ----------------------------------------------------------

def test_run_experiment_uniform_outputs(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "policy": "uniform", "train": {"steps": 3},
        "output_dir": str(tmp_path)})
    summaries, aggregate = run_experiment(cfg, [1, 2])
    assert len(summaries) == 2
    for seed in (1, 2):
        mpath = os.path.join(str(tmp_path), f"uniform_seed{seed}_metrics.csv")
        lines = open(mpath).read().splitlines()
        assert lines[0].startswith(f"# config_hash={cfg.config_hash()}")
        assert f"seed={seed}" in lines[0]
        assert lines[1] == harness.METRICS_HEADER
        assert len(lines) == 2 + 3
        for row in lines[2:]:
            fields = row.split(",")
            assert len(fields) == 9
            float(fields[1])  # parses
        spath = os.path.join(str(tmp_path), f"uniform_seed{seed}_summary.json")
        summary = json.load(open(spath))
        assert summary["policy"] == "uniform"
        assert summary["parameter_count"] == 0
        assert summary["loss_csv"] is None
    agg = json.load(open(os.path.join(str(tmp_path), "uniform_aggregate.json")))
    assert agg["seeds"] == [1, 2]
    assert agg == aggregate
    us = [s.converged_u for s in summaries]
    assert abs(aggregate["converged_u_mean"] - np.mean(us)) < 1e-12


def test_run_experiment_learning_outputs(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "policy": "grant", "train": {"steps": 3},
        "output_dir": str(tmp_path)})
    summaries, _ = run_experiment(cfg, [1])
    s = summaries[0]
    assert s.parameter_count == 96_092
    lines = open(s.loss_csv).read().splitlines()
    assert lines[1] == harness.LOSS_HEADER
    assert len(lines) == 2 + 3
    for row in lines[2:]:
        assert len(row.split(",")) == 4
    # no checkpoint before CHECKPOINT_EVERY steps
    assert not [f for f in os.listdir(str(tmp_path)) if f.endswith(".ckpt.json")]


def test_run_experiment_failure_marker(tmp_path, monkeypatch):
    cfg = ExperimentConfig.from_dict({
        "policy": "uniform", "train": {"steps": 5},
        "output_dir": str(tmp_path)})

    class Boom(RuntimeError):
        pass

    def exploding_rollout(env, policy, steps):
        for step in range(steps):
            if step == 2:
                raise Boom("mid-run failure")
            outcome, _, _ = env.step(policy.act(env.snapshot())[0])
            yield {"step": step, "outcome": outcome, "critic_loss": 0.0,
                   "q_value": 0.0, "actor_lr": 0.0}

    monkeypatch.setattr(harness, "rollout_policy", exploding_rollout)
    with pytest.raises(Boom):
        run_experiment(cfg, [1])
    lines = open(os.path.join(
        str(tmp_path), "uniform_seed1_metrics.csv")).read().splitlines()
    assert lines[-1] == "# FAILED step=2 error=Boom"
    assert len(lines) == 2 + 2 + 1  # header, columns, 2 rows, marker


# -- the policy protocol ------------------------------------------------------

@pytest.mark.parametrize("name", harness.POLICY_NAMES)
def test_every_policy_acts_and_rolls_out(name):
    cfg = ExperimentConfig.from_dict({"policy": name, "train": {"steps": 2}})
    env, policy = harness.restored_policy(cfg, 1)
    action = policy.act(env.snapshot())
    assert isinstance(action, tuple) and len(action) == 3
    assert isinstance(action[0], ActionBundle)
    history = harness.rollout_policy(env, policy, 2)
    assert [rec["step"] for rec in history] == [0, 1]
    for rec in history:
        assert np.isfinite(rec["outcome"].reward)
        assert np.isfinite(rec["outcome"].t_avg)


# -- band comparison ----------------------------------------------------------

def test_compare_bands_ordering(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "policy": "uniform", "train": {"steps": 5},
        "output_dir": str(tmp_path)})
    table = compare_bands(cfg, seed=1, steps=2)
    assert set(table) == {"thz", "ka", "ku"}
    for row in table.values():
        assert row["t_avg_s"] > 0.0
        assert row["t_max_s"] >= row["t_avg_s"]
    assert table["thz"]["t_avg_s"] < table["ka"]["t_avg_s"] < table["ku"]["t_avg_s"]


def test_compare_bands_reference_band_matches_plain_run(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "policy": "uniform", "train": {"steps": 4},
        "output_dir": str(tmp_path)})
    table = compare_bands(cfg, seed=2, bands=("thz",), steps=2)
    # replaying the reference band must reproduce the plain rollout's delays
    env = harness.build_environment(cfg, 2)
    policy = harness.make_policy("uniform", env, cfg, 2)
    raw = []
    for _ in range(2):
        outcome, _, _ = env.step(policy.act(env.snapshot())[0])
        raw.append(float(np.mean(list(outcome.overall_delay.values()))))
    assert abs(table["thz"]["t_avg_s"] - np.mean(raw)) < 1e-12


def test_compare_bands_checkpoint_restriction(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "policy": "uniform", "train": {"steps": 2},
        "output_dir": str(tmp_path)})
    with pytest.raises(ConfigError, match="no parameters"):
        compare_bands(cfg, seed=1, checkpoint="whatever.json", steps=1)


def test_compare_bands_grant_checkpoint(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "policy": "grant", "train": {"steps": 2},
        "output_dir": str(tmp_path)})
    table = compare_bands(cfg, seed=1, steps=2)
    assert table["thz"]["t_avg_s"] < table["ka"]["t_avg_s"] < table["ku"]["t_avg_s"]
    # restoring the seed's own initial parameters reproduces the table
    env = harness.build_environment(cfg, 1)
    agent = harness.make_policy("grant", env, cfg, 1)
    ckpt = str(tmp_path / "init.ckpt.json")
    save_checkpoint(ckpt, agent.parameters())
    assert compare_bands(cfg, seed=1, checkpoint=ckpt, steps=2) == table
