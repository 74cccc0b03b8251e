import json
import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from terasec import harness
from terasec.agent import GrantAgent, TrainConfig
from terasec.autodiff import Parameter, load_checkpoint, save_checkpoint
from terasec.baselines import MaddpgFcAgent, rollout_policy
from terasec.env import ActionBundle, SecWindow
from terasec.harness import (CONVERGED_WINDOW, ConfigError, ExperimentConfig,
                             compare_bands, default_config, load_config,
                             restored_policy, run_experiment)

import checkpoint_reference as json_ckpt
from conftest import counted_quantizations, counted_simulations, make_env


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


def test_a_real_field_given_as_an_integer_is_held_as_a_float(tmp_path):
    """The section dataclass gets the float, so numpy never meets a Python
    int there; raw, and with it the config hash, keeps the value as given,
    and the run writes the float spelling's rows."""
    rows, hashes = [], set()
    for value in (330, 330.0):
        cfg = ExperimentConfig.from_dict({
            "compute": {"cycles_per_byte": value}, "policy": "uniform",
            "train": {"steps": 3, "actor_lr": 1}, "output_dir": str(tmp_path)})
        assert type(cfg.compute.cycles_per_byte) is float
        assert type(cfg.train.actor_lr) is float and cfg.train.actor_lr == 1.0
        assert cfg.raw["compute"]["cycles_per_byte"] is value
        hashes.add(cfg.config_hash())
        (summary,), _ = run_experiment(cfg, [1])
        with open(summary.metrics_csv) as fh:
            rows.append(fh.read().splitlines()[1:])
    assert rows[0] == rows[1] and len(hashes) == 2


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(bad))
    # more digits than Python converts to an int
    bad.write_text('{"n_sources": ' + "1" * 5000 + "}")
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
       value=st.sampled_from([-1, 0, float("nan"), float("inf"), "x", True,
                              2**62, 1e300, -1e300, 10**400]))
def test_one_bad_field_runs_or_is_a_config_error(path, value):
    """A default config with one field set to an adversarial value either
    runs to finite outcomes in their ranges or is rejected as a config
    error, never failing another way."""
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
    records = list(rollout_policy(env, policy, 2))
    assert len(records) == 2
    for o in (r["outcome"] for r in records):
        assert np.all(np.isfinite([
            o.t_avg, o.t_max, o.reward, o.u_total, o.u_power, o.u_subarray,
            o.power_w_mean, o.subarrays_mean]))
        assert o.t_avg >= 0 and o.t_max >= 0 and o.reward <= 0
        assert 0 <= o.u_total <= 1


@pytest.mark.parametrize("raw,section", [
    ({"constellation": {"planes": 10**9}}, "'constellation'"),
    ({"constellation": {"sats_per_plane": 10**9}}, "'constellation'"),
    ({"constellation": {"planes": 512, "sats_per_plane": 513}},
     "'constellation'"),
    ({"train": {"hidden_width": 10**9}}, "'train'"),
    ({"train": {"hidden_width": 513}}, "'train'"),
    ({"train": {"steps": 10**9}}, "'train'"),
    ({"n_sources": 200, "train": {"steps": 10**4 + 1}}, "'train'")])
def test_sizes_past_their_memory_bound_are_config_errors(raw, section):
    with pytest.raises(ConfigError, match=section):
        ExperimentConfig.from_dict(raw)


@pytest.mark.parametrize("source_seed,seed", [(-1, 0), (5, -1), (-3, 2)])
def test_negative_seeds_are_config_errors(source_seed, seed):
    cfg = ExperimentConfig.from_dict(
        {"source_selection": {"seed": source_seed}})
    with pytest.raises(ConfigError, match="'source_selection'"):
        harness.build_environment(cfg, seed)


def test_sizes_at_their_memory_bound_are_accepted():
    cfg = ExperimentConfig.from_dict({
        "constellation": {"planes": 512, "sats_per_plane": 512},
        "n_sources": 200, "train": {"steps": 10**4, "hidden_width": 512}})
    assert cfg.walker.planes * cfg.walker.sats_per_plane == 2**18
    assert cfg.n_sources * cfg.train.steps == harness.MAX_TASK_COUNTS


# -- metric summaries ---------------------------------------------------------

@pytest.mark.parametrize("steps", [60, 5])
def test_the_converged_fields_are_the_means_of_the_last_rows_written(
        tmp_path, steps):
    """A run's converged U, T_avg and T_max are the means of its metrics
    CSV's last CONVERGED_WINDOW rows, bit for bit; a run shorter than the
    window averages every row."""
    cfg = ExperimentConfig.from_dict({
        "policy": "uniform", "train": {"steps": steps},
        "output_dir": str(tmp_path)})
    (summary,), _ = run_experiment(cfg, [1])
    with open(summary.metrics_csv) as fh:
        rows = [[float(v) for v in line.split(",")]
                for line in fh.read().splitlines()[2:]]
    assert len(rows) == steps
    tail = np.asarray(rows[-CONVERGED_WINDOW:])
    want = [float(tail[:, c].mean()).hex() for c in (1, 4, 5)]
    assert [summary.converged_u.hex(), summary.converged_t_avg_ms.hex(),
            summary.converged_t_max_ms.hex()] == want


def test_a_metrics_row_holds_each_value_under_its_column():
    """_metrics_row writes each outcome field under its METRICS_HEADER
    column; the values differ, so two swapped columns show."""
    outcome = SimpleNamespace(
        u_total=0.5, u_power=0.25, u_subarray=0.125, t_avg=0.0625,
        t_max=0.09375, reward=-3.0, power_w_mean=7.5, subarrays_mean=12.0)
    row = harness._metrics_row(4, outcome).split(",")
    assert dict(zip(harness.METRICS_HEADER.split(","), row, strict=True)) == {
        "step": "4", "U": "0.5", "U_P": "0.25", "U_S": "0.125",
        "T_avg_ms": "62.5", "T_max_ms": "93.75", "reward": "-3",
        "power_W_mean": "7.5", "subarrays_mean": "12"}


def test_a_loss_row_holds_each_value_under_its_column():
    """_loss_row writes each record field under its LOSS_HEADER column; the
    values differ, so two swapped columns show."""
    row = harness._loss_row({"step": 3, "critic_loss": 0.25, "q_value": -1.5,
                             "actor_lr": 0.125}).split(",")
    assert dict(zip(harness.LOSS_HEADER.split(","), row, strict=True)) == {
        "step": "3", "critic_loss": "0.25", "q_value": "-1.5",
        "actor_lr": "0.125"}


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
    # no checkpoint, of any suffix, before CHECKPOINT_EVERY steps
    assert not [f for f in os.listdir(str(tmp_path)) if ".ckpt" in f]


def test_run_experiment_failure_marker(tmp_path, monkeypatch):
    """A rollout that fails at step 2 keeps the rows of steps 0 and 1."""
    cfg = ExperimentConfig.from_dict({
        "policy": "uniform", "train": {"steps": 5},
        "output_dir": str(tmp_path)})

    class Boom(RuntimeError):
        pass

    step = SecWindow.step

    def exploding_step(env, *args, **kwargs):
        if env.step_idx == 2:
            raise Boom("mid-run failure")
        return step(env, *args, **kwargs)

    monkeypatch.setattr(SecWindow, "step", exploding_step)
    with pytest.raises(Boom):
        run_experiment(cfg, [1])
    lines = open(os.path.join(
        str(tmp_path), "uniform_seed1_metrics.csv")).read().splitlines()
    assert lines[-1] == "# FAILED step=2 error=Boom"
    assert len(lines) == 2 + 2 + 1  # header, columns, 2 rows, marker
    assert [line.split(",")[0] for line in lines[2:4]] == ["0", "1"]


# -- the policy protocol ------------------------------------------------------

@pytest.mark.parametrize("name", harness.POLICY_NAMES)
def test_every_policy_acts_and_rolls_out(name):
    cfg = ExperimentConfig.from_dict({"policy": name, "train": {"steps": 2}})
    env, policy = harness.restored_policy(cfg, 1)
    action = policy.act(env.snapshot())
    assert isinstance(action, ActionBundle)
    n_src, n_tx = len(env.sources), len(env.involved)
    k = env.band_to.n_subbands
    assert [a.shape for a in vars(action).values()] == [
        (n_src, 5), (n_src, 4), (n_src, 4 * k), (n_tx, 1), (n_tx, k)]
    history = list(harness.rollout_policy(env, policy, 2))
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
        assert row["unreachable_slots"] == 0
    assert table["thz"]["t_avg_s"] < table["ka"]["t_avg_s"] < table["ku"]["t_avg_s"]


def test_compare_bands_reference_band_matches_plain_run(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "policy": "uniform", "train": {"steps": 4},
        "output_dir": str(tmp_path)})
    table = compare_bands(cfg, seed=2, steps=2)
    # replaying the reference band must reproduce the plain rollout's delays
    env = harness.build_environment(cfg, 2)
    policy = harness.make_policy("uniform", env, cfg, 2)
    raw = []
    for _ in range(2):
        outcome, _, _ = env.step(policy.act(env.snapshot()))
        raw.append(float(np.mean(list(outcome.overall_delay.values()))))
    assert abs(table["thz"]["t_avg_s"] - np.mean(raw)) < 1e-12


@pytest.mark.parametrize("outcome_band,per_slot", [("thz", 3), ("ka", 4)])
def test_compare_bands_evaluates_each_band_pair_once_per_slot(
        tmp_path, monkeypatch, outcome_band, per_slot):
    """The advancing step reuses the thz/thz replay; a configured ka outcome
    band matches no replay, so the advancing step evaluates again.  Either
    way a slot quantizes its bundle once, after the window's set-up has
    quantized the reference bundle."""
    cfg = ExperimentConfig.from_dict({
        "policy": "uniform", "train": {"steps": 4},
        "band": {"outcome": outcome_band}, "output_dir": str(tmp_path)})
    calls = counted_simulations(monkeypatch)
    quantized = counted_quantizations(monkeypatch)
    compare_bands(cfg, seed=1, steps=3)
    assert len(calls) == 3 * per_slot
    assert len(quantized) == 1 + 3


def test_a_training_step_evaluates_once_and_keeps_no_replay(tmp_path,
                                                            monkeypatch):
    cfg = ExperimentConfig.from_dict({
        "policy": "grant", "train": {"steps": 2, "hidden_width": 8},
        "output_dir": str(tmp_path)})
    windows = []
    calls = counted_simulations(monkeypatch)
    quantized = counted_quantizations(monkeypatch)
    run_experiment(cfg, [1], on_setup=lambda seed, env: windows.append(env))
    assert len(calls) == 2
    assert len(quantized) == 1 + 2          # the set-up's, then one a slot
    assert windows[0].step_idx == 2 and windows[0]._slot is None


def _zero_power_compare_bands(tmp_path, monkeypatch, zero):
    """compare_bands on the uniform policy, with zero(bundle, slot) applied
    to each slot's bundle before it is replayed."""
    cfg = ExperimentConfig.from_dict({
        "policy": "uniform", "train": {"steps": 4},
        "output_dir": str(tmp_path)})
    restored = harness.restored_policy
    acted = []

    class ZeroPower:
        def __init__(self, policy):
            self.policy = policy

        def act(self, snapshot=None):
            bundle = self.policy.act(snapshot)
            zero(bundle, len(acted))
            acted.append(bundle)
            return bundle

    def zero_power_policy(*args):
        env, policy = restored(*args)
        return env, ZeroPower(policy)

    monkeypatch.setattr(harness, "restored_policy", zero_power_policy)
    table = compare_bands(cfg, seed=1, steps=4)
    assert len(acted) == 4
    json.dumps(table, allow_nan=False)   # no NaN or inf reaches the table
    return table


def test_compare_bands_counts_unreachable_slots(tmp_path, monkeypatch):
    """A slot with an unreachable path is counted, and the band's delays
    come from the finite path delays alone."""

    def first_source_silent(bundle, slot):
        # every other slot, the first source's offloaded tasks never arrive
        if slot % 2 == 0:
            bundle.to_power[0] = 0.0

    table = _zero_power_compare_bands(tmp_path, monkeypatch,
                                      first_source_silent)
    for row in table.values():
        assert row["unreachable_slots"] == 2
        assert np.isfinite(row["t_avg_s"]) and np.isfinite(row["t_max_s"])
        assert 0.0 < row["t_avg_s"] <= row["t_max_s"]
    assert table["thz"]["t_avg_s"] < table["ka"]["t_avg_s"] < table["ku"]["t_avg_s"]


def test_compare_bands_with_no_finite_delay(tmp_path, monkeypatch):
    def silent(bundle, slot):
        bundle.to_power[:] = 0.0
        bundle.ot_power[:] = 0.0

    table = _zero_power_compare_bands(tmp_path, monkeypatch, silent)
    for row in table.values():
        assert row == {"t_avg_s": None, "t_max_s": None,
                       "unreachable_slots": 4}


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
    ckpt = str(tmp_path / "init.ckpt.npz")
    save_checkpoint(ckpt, agent.parameters())
    assert compare_bands(cfg, seed=1, checkpoint=ckpt, steps=2) == table


def _trained_agent(policy, seed):
    """A GRANT agent at 10 sources or a width-8 dense baseline at 1 source,
    after two training steps."""
    if policy == "grant":
        agent = GrantAgent(make_env(seed=seed, steps=3),
                           TrainConfig(steps=2, seed=seed))
    else:
        agent = MaddpgFcAgent(make_env(seed=seed, steps=3, n_sources=1),
                              TrainConfig(steps=2, seed=seed, hidden_width=8),
                              critic_width=8)
    agent.run_training()
    return agent


@pytest.mark.parametrize("policy,seed", [
    ("grant", 1), ("grant", 2), ("grant", 3), ("maddpg_fc", 1)])
def test_the_archive_holds_the_bits_of_the_json_checkpoint(tmp_path, policy,
                                                           seed):
    """Trained parameters saved as an .npz archive and in the JSON format it
    replaced: each tensor has the bits of the JSON round-trip, and the meta
    and the parameters loaded back are equal."""
    params = _trained_agent(policy, seed).parameters()
    meta = {"config_hash": "0123456789ab", "seed": seed, "policy": policy,
            "step": 2}
    npz, js = str(tmp_path / "ck.ckpt.npz"), str(tmp_path / "ck.ckpt.json")
    save_checkpoint(npz, params, meta=meta)
    json_ckpt.save_checkpoint(js, params, meta=meta)

    from_json = [Parameter(np.zeros(p.shape), p.name) for p in params]
    assert json_ckpt.load_checkpoint(js, from_json) == meta
    with np.load(npz, allow_pickle=False) as archive:
        assert json.loads(str(archive["meta"])) == meta
        assert sorted(archive.files) == sorted(
            ["format", "meta"] + [f"tensor/{p.name}" for p in params])
        for p in from_json:
            data = archive[f"tensor/{p.name}"]
            assert data.dtype == p.data.dtype == np.float64
            assert data.shape == p.data.shape
            assert data.tobytes() == p.data.tobytes(), p.name

    from_npz = [Parameter(np.zeros(p.shape), p.name) for p in params]
    assert load_checkpoint(npz, from_npz) == meta
    for a, b in zip(from_json, from_npz):
        assert a.data.tobytes() == b.data.tobytes(), a.name
