import json
import os

import numpy as np
import pytest

from terasec import harness
from terasec.autodiff import save_checkpoint
from terasec.cli import (EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_RUNTIME, main)


def write_cfg(tmp_path, extra=None):
    cfg = {"policy": "uniform", "train": {"steps": 3}}
    cfg.update(extra or {})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_train_uniform(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    code = main(["train", "--config", cfg, "--seed", "1",
                 "--out", str(tmp_path / "runs")])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "seed 1:" in out
    aggregate = json.loads(out[out.index("{"):])
    assert aggregate["policy"] == "uniform"
    assert aggregate["seeds"] == [1]
    assert os.path.exists(tmp_path / "runs" / "uniform_seed1_metrics.csv")


def test_train_dump_traffic(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    code = main(["train", "--config", cfg, "--seed", "2", "--dump-traffic",
                 "--out", str(tmp_path / "runs")])
    assert code == EXIT_OK
    tpath = tmp_path / "runs" / "traffic_seed2.csv"
    lines = tpath.read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1].startswith("source,slot0")
    assert len(lines) == 2 + 10  # one row per source
    counts = np.array([[int(v) for v in ln.split(",")[1:]] for ln in lines[2:]])
    assert counts.shape[1] == 3
    assert np.all(counts >= 0)


def test_eval_outputs_json(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    code = main(["eval", "--config", cfg, "--seed", "1", "--steps", "2"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    report = json.loads(out)
    assert report["policy"] == "uniform"
    assert report["steps"] == 2
    assert report["U"] > 0.0
    assert report["T_avg_ms"] > 0.0


@pytest.mark.parametrize("policy", harness.POLICY_NAMES)
def test_eval_every_policy(tmp_path, capsys, policy):
    cfg = write_cfg(tmp_path)
    code = main(["eval", "--config", cfg, "--policy", policy, "--steps", "1"])
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["policy"] == policy
    assert np.isfinite(report["T_avg_ms"])


def test_eval_policy_override(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    code = main(["eval", "--config", cfg, "--policy", "full", "--steps", "1"])
    assert code == EXIT_OK
    assert json.loads(capsys.readouterr().out)["policy"] == "full"


def test_compare_bands_cli(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    code = main(["compare-bands", "--config", cfg, "--seed", "1",
                 "--steps", "1"])
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    bands = report["bands"]
    assert set(bands) == {"thz", "ka", "ku"}
    assert abs(bands["thz"]["t_avg_vs_thz"] - 1.0) < 1e-12
    assert bands["ka"]["t_avg_vs_thz"] > 1.0
    assert bands["ku"]["t_avg_vs_thz"] > bands["ka"]["t_avg_vs_thz"]


def test_compare_bands_cli_prints_strict_json(tmp_path, capsys,
                                              monkeypatch):
    """A band with no finite delay has no ratio; nothing prints as
    Infinity or NaN."""
    table = {"thz": {"t_avg_s": None, "t_max_s": None, "unreachable_slots": 1},
             "ka": {"t_avg_s": 2.0, "t_max_s": 3.0, "unreachable_slots": 0}}
    monkeypatch.setattr(harness, "compare_bands", lambda *a, **k: table)
    code = main(["compare-bands", "--config", write_cfg(tmp_path)])
    assert code == EXIT_OK

    def strict(token):
        raise ValueError(f"non-JSON token {token}")

    report = json.loads(capsys.readouterr().out, parse_constant=strict)
    assert [row["t_avg_vs_thz"] for row in report["bands"].values()] == [
        None, None]


def test_dump_topology(tmp_path, capsys):
    out_csv = str(tmp_path / "topology.csv")
    code = main(["dump-topology", "--out", out_csv])
    assert code == EXIT_OK
    lines = open(out_csv).read().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1] == "sat_a,sat_b,distance_km"
    edges = lines[2:]
    # 4-regular graph over 1584 satellites: 3168 undirected edges
    assert len(edges) == 1584 * 4 // 2
    intra = [float(e.split(",")[2]) for e in edges
             if int(e.split(",")[1]) - int(e.split(",")[0]) in (1, 21)]
    assert min(intra) > 1969.0 and max(intra) < 1971.0


def test_linkbudget(capsys):
    code = main(["linkbudget"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "band,subband,center_ghz,bandwidth_ghz,noise_w,sinr_db,rate_gbps"
    totals = {}
    for ln in lines[2:]:
        fields = ln.split(",")
        if fields[1] == "total":
            totals[fields[0]] = float(fields[-1])
    assert set(totals) == {"thz", "ka", "ku"}
    assert totals["thz"] > totals["ka"] > totals["ku"] > 0.0


# -- exit codes ---------------------------------------------------------------

def test_exit_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"policy": "dqn"}')
    assert main(["eval", "--config", str(bad)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_exit_io_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"policy": "grant", "train": {"steps": 1}})
    code = main(["eval", "--config", cfg, "--steps", "1",
                 "--checkpoint", str(tmp_path / "missing.ckpt.json")])
    assert code == EXIT_IO
    assert "io error" in capsys.readouterr().err


def _saved_checkpoint(tmp_path, cfg_path, seed):
    """A checkpoint of the configured policy's fresh parameters at `seed`,
    with the meta a training run writes."""
    cfg = harness.load_config(cfg_path)
    _, policy = harness.restored_policy(cfg, seed)
    path = str(tmp_path / f"{cfg.policy}_seed{seed}_step50.ckpt.json")
    save_checkpoint(path, policy.parameters(),
                    meta={"config_hash": cfg.config_hash(), "seed": seed,
                          "policy": cfg.policy, "step": 50})
    return path


@pytest.mark.parametrize("command", ["eval", "compare-bands"])
def test_a_dense_checkpoint_for_another_seed_is_a_config_error(
        tmp_path, capsys, command):
    """The dense baseline's parameters belong to its seed's window."""
    cfg = write_cfg(tmp_path, {"policy": "maddpg_fc", "n_sources": 1,
                               "train": {"steps": 1, "hidden_width": 8}})
    ckpt = _saved_checkpoint(tmp_path, cfg, seed=1)
    args = [command, "--config", cfg, "--steps", "1", "--checkpoint", ckpt]
    assert main([*args, "--seed", "2"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error" in captured.err
    assert "'maddpg_fc', seed 1)" in captured.err
    assert "policy 'maddpg_fc' at seed 2" in captured.err
    assert main([*args, "--seed", "1"]) == EXIT_OK


def test_a_grant_checkpoint_evaluates_at_another_seed(tmp_path, capsys):
    """GRANT's parameters do not depend on the window."""
    cfg = write_cfg(tmp_path, {"policy": "grant", "n_sources": 1,
                               "train": {"steps": 1, "hidden_width": 8}})
    ckpt = _saved_checkpoint(tmp_path, cfg, seed=1)
    assert main(["eval", "--config", cfg, "--steps", "1", "--seed", "2",
                 "--checkpoint", ckpt]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["seed"] == 2


@pytest.mark.parametrize("section,field,value", [
    ("train", "kappa", 1.5),
    ("train", "decay_every_steps", 0),
    ("train", "steps", 0),
    ("train", "noise_std", -1.0),
    ("traffic", "hurst", 1.5),
    ("traffic", "task_size_bytes", 0),
    ("traffic", "slot_duration_s", 0.0),
    ("constellation", "planes", 0),
    ("ground_station", "min_elevation_deg", 0.0),
    ("n_sources", None, 0),
    ("n_sources", None, 2.5),
    ("n_sources", None, "ten"),
    ("n_sources", None, True),
    ("routing_eta", None, -1),
    ("routing_eta", None, float("nan")),
    ("routing_eta", None, "x"),
    ("routing_eta", None, True),
    ("source_selection", "seed", "x"),
    ("constellation", "planes", 2),
    ("train", "hidden_width", 0),
    ("reward", "latency_threshold_s", 0.0),
    ("reward", "chi1", -1.0),
    # more nonadjacent sources than the default 72 x 22 shell can hold
    ("n_sources", None, 72 * 22),
])
def test_exit_config_error_before_any_output(tmp_path, capsys, section,
                                             field, value):
    cfg = write_cfg(tmp_path, {section: {field: value} if field else value})
    out = tmp_path / "runs"
    assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert f"'{section}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "eval", "compare-bands"])
def test_steps_zero_is_a_config_error(tmp_path, capsys, command):
    out = tmp_path / "runs"
    assert main([command, "--config", write_cfg(tmp_path), "--steps", "0",
                 "--out", str(out)]) == EXIT_CONFIG
    assert "'train'" in capsys.readouterr().err
    assert not out.exists()


def test_exit_runtime_error(tmp_path, capsys, monkeypatch):
    def failing_rollout(env, policy, steps):
        raise RuntimeError("simulated mid-run failure")

    monkeypatch.setattr(harness, "rollout_policy", failing_rollout)
    cfg = write_cfg(tmp_path)
    assert main(["eval", "--config", cfg]) == EXIT_RUNTIME
    assert "runtime error" in capsys.readouterr().err


def test_exit_bad_arguments():
    with pytest.raises(SystemExit) as exc:
        main(["train", "--policy", "bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main([])
