import dataclasses
import json
import math
import os
import resource
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from terasec import agent, harness
from terasec.autodiff import save_checkpoint
from terasec.cli import (EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_RUNTIME, main)
from terasec.thz_link import band_preset

import checkpoint_reference as json_ckpt
from maddpg_reference import FullWidthMaddpgAgent, PerActorMaddpgAgent


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


@pytest.mark.parametrize("distance_km", [1969.9, 500.0])
def test_linkbudget_rows_match_the_closed_form(capsys, distance_km):
    """Each row's SINR and rate, at print precision, from Friis spreading,
    full 4x4 arrays (64 transmit sub-arrays, 1 receive sub-array, 10 dBi
    elements in the amplitude reading, so each end's element gain counts
    twice) and Shannon capacity, with 10 W split evenly over the sub-bands."""
    assert main(["linkbudget", "--distance-km", str(distance_km)]) == EXIT_OK
    rows = [ln.split(",") for ln in capsys.readouterr().out.splitlines()[2:]]
    for name in ("thz", "ka", "ku"):
        band = band_preset(name, "offloading")
        total = 0.0
        for ki, f_hz in enumerate(band.centers_hz):
            g_elem = 10.0 * band.element_gain_scale
            alpha2 = (299792458.0 / (4 * math.pi * f_hz * distance_km * 1e3)) ** 2
            h2 = (64 * 16) * (1 * 16) * g_elem ** 4 * alpha2
            sigma2 = 1.380649e-23 * 290.0 * band.bandwidth_hz
            gamma = (10.0 / band.n_subbands) * h2 / sigma2
            rate = band.bandwidth_hz * math.log2(1.0 + gamma)
            total += rate
            row = rows.pop(0)
            assert row[:2] == [name, str(ki)]
            assert float(row[5]) == pytest.approx(10 * math.log10(gamma),
                                                  abs=1e-4)
            assert float(row[6]) == pytest.approx(rate / 1e9, rel=1e-5)
        row = rows.pop(0)
        assert row[:2] == [name, "total"]
        assert float(row[6]) == pytest.approx(total / 1e9, rel=1e-5)
    assert rows == []


@pytest.mark.parametrize("distance_km", ["0", "-1000", "nan", "inf"])
def test_linkbudget_rejects_a_distance_that_is_not_positive_and_finite(
        capsys, distance_km):
    with pytest.raises(SystemExit) as exc:
        main(["linkbudget", "--distance-km", distance_km])
    assert exc.value.code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--distance-km" in captured.err


@pytest.mark.parametrize("argv", [
    ["linkbudget", "--seed", "3"], ["linkbudget", "--steps", "5"],
    ["linkbudget", "--out", "nowhere"], ["linkbudget", "--policy", "grant"],
    ["dump-topology", "--seed", "3"], ["dump-topology", "--steps", "5"],
    ["dump-topology", "--policy", "grant"]])
def test_a_diagnostic_command_rejects_an_option_it_does_not_read(capsys,
                                                                 argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert argv[1] in captured.err


def test_diagnostic_headers_hash_the_plain_config(tmp_path, capsys):
    """dump-topology's --out names its CSV and linkbudget's --distance-km its
    link; neither is a config value, so both headers carry the hash of the
    config without them."""
    plain = f"config_hash={harness.load_config(None).config_hash()} "
    out_csv = tmp_path / "topology.csv"
    assert main(["dump-topology", "--out", str(out_csv)]) == EXIT_OK
    assert capsys.readouterr().out.startswith(f"wrote {out_csv} ")
    assert out_csv.read_text().startswith(f"# {plain}")
    assert main(["linkbudget", "--distance-km", "500"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[0].startswith(f"# {plain}")


# -- exit codes ---------------------------------------------------------------

def test_exit_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"policy": "dqn"}')
    assert main(["eval", "--config", str(bad)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_exit_io_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"policy": "grant", "train": {"steps": 1}})
    code = main(["eval", "--config", cfg, "--steps", "1",
                 "--checkpoint", str(tmp_path / "missing.ckpt.npz")])
    assert code == EXIT_IO
    assert "io error" in capsys.readouterr().err


def _saved_checkpoint(tmp_path, cfg_path, seed):
    """A checkpoint of the configured policy's fresh parameters at `seed`,
    with the meta a training run writes."""
    cfg = harness.load_config(cfg_path)
    _, policy = harness.restored_policy(cfg, seed)
    path = str(tmp_path / f"{cfg.policy}_seed{seed}_step50.ckpt.npz")
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


def _rejected_dense_checkpoint(tmp_path, capsys, agent_class) -> str:
    """Evaluate a maddpg_fc checkpoint written by agent_class at the run's
    window and seed; it must be a config error: returns the error text."""
    cfg_path = write_cfg(tmp_path, {"policy": "maddpg_fc", "n_sources": 1,
                                    "train": {"steps": 1, "hidden_width": 8}})
    cfg = harness.load_config(cfg_path)
    env, _ = harness.restored_policy(cfg, 1)
    old = agent_class(env, cfg.train)
    ckpt = str(tmp_path / "maddpg_fc_seed1_step50.ckpt.npz")
    save_checkpoint(ckpt, old.parameters(),
                    meta={"config_hash": cfg.config_hash(), "seed": 1,
                          "policy": "maddpg_fc", "step": 50})
    assert main(["eval", "--config", cfg_path, "--steps", "1", "--seed", "1",
                 "--checkpoint", ckpt]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error" in captured.err
    return captured.err


def test_a_per_actor_dense_checkpoint_is_a_config_error(tmp_path, capsys):
    """A checkpoint of the per-actor dense baseline (one `actor_to{i}.*`
    tensor set per actor) does not fit the stacked actors."""
    err = _rejected_dense_checkpoint(tmp_path, capsys, PerActorMaddpgAgent)
    assert "no tensor 'actor_to.fc1.w'" in err


def test_a_full_width_critic_checkpoint_is_a_config_error(tmp_path, capsys):
    """A checkpoint whose flat critic has an fc1 row for every input column
    does not fit the critic over its live input columns."""
    err = _rejected_dense_checkpoint(tmp_path, capsys, FullWidthMaddpgAgent)
    assert "shape mismatch for 'fc_critic.fc1.w'" in err


def test_a_grant_checkpoint_evaluates_at_another_seed(tmp_path, capsys):
    """GRANT's parameters do not depend on the window."""
    cfg = write_cfg(tmp_path, {"policy": "grant", "n_sources": 1,
                               "train": {"steps": 1, "hidden_width": 8}})
    ckpt = _saved_checkpoint(tmp_path, cfg, seed=1)
    assert main(["eval", "--config", cfg, "--steps", "1", "--seed", "2",
                 "--checkpoint", ckpt]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["seed"] == 2


def _garbage(path, _):
    with open(path, "w") as fh:
        fh.write("not a checkpoint\n")


def _empty(path, _):
    open(path, "w").close()


def _bare_array(path, params):
    np.save(path, params[0].data)


def _truncated(path, params):
    save_checkpoint(path, params)
    with open(path, "rb") as fh:
        data = fh.read()
    with open(path, "wb") as fh:
        fh.write(data[:len(data) // 2])


def _untagged(path, params):
    np.savez(path, meta=np.array("{}"),
             **{f"tensor/{p.name}": p.data for p in params})


def _old_json(path, params):
    json_ckpt.save_checkpoint(path, params)


@pytest.mark.parametrize("make,name,message", [
    (_garbage, "x.ckpt.npz", "terasec-params-v2 .npz archive"),
    (_empty, "x.ckpt.npz", "terasec-params-v2 .npz archive"),
    (_bare_array, "x.npy", "terasec-params-v2 .npz archive: a bare .npy array"),
    (_truncated, "x.ckpt.npz", "terasec-params-v2 .npz archive: File is not a zip"),
    (_untagged, "x.npz", "no format tag"),
    (_old_json, "x.ckpt.json", "old JSON format terasec-params-v1"),
], ids=["not-a-zip", "empty", "bare-npy", "truncated", "untagged",
        "old-json"])
def test_a_file_that_is_no_checkpoint_is_a_config_error(
        tmp_path, capsys, make, name, message):
    cfg_path = write_cfg(tmp_path, {"policy": "grant", "n_sources": 1,
                                    "train": {"steps": 1, "hidden_width": 8}})
    _, policy = harness.restored_policy(harness.load_config(cfg_path), 1)
    path = str(tmp_path / name)
    make(path, policy.parameters())
    assert main(["eval", "--config", cfg_path, "--steps", "1",
                 "--checkpoint", path]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: checkpoint {path!r}: ")
    assert message in captured.err


def test_a_training_run_checkpoint_restores_for_eval(tmp_path, monkeypatch,
                                                     capsys):
    """A 50-step run writes one archive, holding the agent's parameters after
    step 50, and eval restores it."""
    out = tmp_path / "runs"
    cfg_path = write_cfg(tmp_path, {"policy": "grant", "n_sources": 1,
                                    "train": {"steps": 50, "hidden_width": 8}})
    agents = []
    make_policy = harness.make_policy

    def keep_policy(*args):
        agents.append(make_policy(*args))
        return agents[-1]

    monkeypatch.setattr(harness, "make_policy", keep_policy)
    assert main(["train", "--config", cfg_path, "--seed", "1",
                 "--out", str(out)]) == EXIT_OK
    assert [f for f in os.listdir(out) if ".ckpt" in f] == [
        "grant_seed1_step50.ckpt.npz"]
    ckpt = str(out / "grant_seed1_step50.ckpt.npz")
    with np.load(ckpt, allow_pickle=False) as archive:
        for p in agents[0].parameters():
            assert np.array_equal(archive[f"tensor/{p.name}"], p.data), p.name
    capsys.readouterr()
    assert main(["eval", "--config", cfg_path, "--steps", "1", "--seed", "1",
                 "--checkpoint", ckpt]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["steps"] == 1


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
    # the routing weights once overflowed to inf, and the run exited 4 with
    # a false 'next_link has a cycle'
    ("routing_eta", None, 1e308),
    ("source_selection", "seed", "x"),
    ("constellation", "planes", 2),
    ("train", "hidden_width", 0),
    # the critic's skip rate once overflowed to inf (exit 4), and the actor
    # once ran at the delay cap with every value finite (exit 0)
    ("train", "critic_lr", 1e308),
    ("train", "actor_lr", 1e308),
    ("train", "actor_lr", 2**70),
    # the scaled exploration noise once overflowed, which withdrew every
    # row's noise and wrote the noise_std = 0 run's CSV (exit 0)
    ("train", "noise_std", 1e308),
    ("reward", "latency_threshold_s", 0.0),
    ("reward", "chi1", -1.0),
    # more nonadjacent sources than the default 72 x 22 shell can hold
    ("n_sources", None, 72 * 22),
    # tasks x task_size_bytes once wrapped in int64 into negative delays
    ("traffic", "task_size_bytes", 2**62),
    # task counts once wrapped in their int64 cast
    ("traffic", "mean_tasks_per_slot", 1e300),
    ("traffic", "relative_std", 1e300),
    # the orbit radius cubed once overflowed
    ("constellation", "altitude_km", 1e300),
    # satellite positions once lost all precision, so two coincided
    ("constellation", "phasing_factor", 2**62),
    ("traffic", "slot_duration_s", 1e300),
    # a negative source-selection seed at run seed 0
    ("source_selection", "seed", -1),
    # an int too large for a float once overflowed after the output
    # directory was made
    pytest.param("compute", "cycles_per_byte", 10**400,
                 id="compute-cycles_per_byte-10**400"),
])
def test_exit_config_error_before_any_output(tmp_path, capsys, section,
                                             field, value):
    cfg = write_cfg(tmp_path, {section: {field: value} if field else value})
    out = tmp_path / "runs"
    assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"'{section}'" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("text,where", [
    ('{"n_sources": 10, "n_sources": 5}', "config section 'n_sources'"),
    ('{"train": {"steps": 2, "noise_std": 0.1}, "train": {"steps": 3}}',
     "config section 'train'"),
    ('{"train": {"steps": 2, "steps": 3}}',
     "config section 'train' field 'steps'"),
    ('{"link": {"array": {"s_max": 64, "s_max": 32}}}',
     "config section 'link.array' field 's_max'"),
], ids=["n_sources", "train", "train.steps", "link.array.s_max"])
def test_a_repeated_config_key_exits_2_before_any_output(tmp_path, capsys,
                                                         text, where):
    """JSON keeps a repeated key's last value: a repeated table would
    replace the first one whole, without a word."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    out = tmp_path / "runs"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{where} is given twice" in captured.err
    assert not out.exists()


def test_command_line_overrides_hash_like_the_same_values_in_a_file(
        tmp_path, capsys):
    """--policy, --steps and --out are one layer over the file's tables, so
    the merged config, and its hash, equal a file that holds their values."""
    out = str(tmp_path / "runs")
    overridden = write_cfg(tmp_path, {"policy": "full",
                                      "train": {"steps": 7, "noise_std": 0.1}})
    same = tmp_path / "same.json"
    same.write_text(json.dumps({"policy": "uniform", "output_dir": out,
                                "train": {"steps": 1, "noise_std": 0.1}}))
    hashes = []
    for argv in (["--config", overridden, "--policy", "uniform",
                  "--steps", "1", "--out", out], ["--config", str(same)]):
        assert main(["eval", *argv]) == EXIT_OK
        hashes.append(json.loads(capsys.readouterr().out)["config_hash"])
    assert hashes[0] == hashes[1]


def test_a_negative_run_seed_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "runs"
    with pytest.raises(SystemExit) as exc:
        main(["train", "--config", write_cfg(tmp_path), "--seed", "-1",
              "--out", str(out)])
    assert exc.value.code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--seed" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    # train would run seed 1 twice into the same files
    ["train", "--seed", "1", "--seed", "1"],
    ["train", "--seed", "1", "--seed", "2", "--seed", "1"],
    # eval and compare-bands would use the first seed only
    ["eval", "--seed", "1", "--seed", "2"],
    ["compare-bands", "--seed", "1", "--seed", "1"],
])
def test_a_repeated_or_ignored_seed_exits_2_before_any_output(tmp_path, capsys,
                                                             argv):
    out = tmp_path / "runs"
    try:
        code = main([*argv, "--config", write_cfg(tmp_path), "--out", str(out)])
    except SystemExit as exc:               # an argparse usage error
        code = exc.code
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "seed" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("extra", [
    # the dense actors are refused once the window is built
    {"policy": "maddpg_fc", "n_sources": 200,
     "train": {"steps": 2, "hidden_width": 512}},
    # the window refuses the sources
    {"n_sources": 5000},
], ids=["dense_actors", "sources"])
def test_dump_traffic_writes_nothing_for_a_config_the_setup_rejects(
        tmp_path, capsys, extra):
    cfg = write_cfg(tmp_path, extra)
    out = tmp_path / "runs"
    assert main(["train", "--config", cfg, "--dump-traffic",
                 "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().out == ""
    assert not out.exists()


def _train_under_2_gib(cfg, out):
    """`terasec train` on cfg in a subprocess whose address space is
    limited to 2 GiB."""

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 * 2**30, 2 * 2**30))

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run(
        [sys.executable, "-m", "terasec.cli", "train", "--config", cfg,
         "--out", str(out)], env=env, preexec_fn=limit_memory,
        capture_output=True, text=True, timeout=120)


def test_a_huge_constellation_exits_2_under_a_memory_limit(tmp_path):
    """10**9 satellites per plane once asked for a 536 GiB table; now the
    config is refused before any allocation, even under a 2 GiB limit."""
    cfg = write_cfg(tmp_path,
                    {"constellation": {"sats_per_plane": 10**9}})
    out = tmp_path / "runs"
    proc = _train_under_2_gib(cfg, out)
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert "'constellation'" in proc.stderr
    assert not out.exists()


def test_dense_actors_too_large_for_memory_exit_2_under_a_memory_limit(
        tmp_path):
    """maddpg_fc at 200 sources (about 1,400 involved nodes) and width 512
    would stack 2.7 GiB of actor weights in one layer; the window's node
    count refuses it before any actor is built, under a 2 GiB limit."""
    cfg = write_cfg(tmp_path, {"policy": "maddpg_fc", "n_sources": 200,
                               "train": {"steps": 2, "hidden_width": 512}})
    out = tmp_path / "runs"
    proc = _train_under_2_gib(cfg, out)
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert "'n_sources' and 'train'" in proc.stderr
    assert proc.stdout == ""
    assert not out.exists()


def _default_sigint():
    """SIGINT at its default in a child, as a shell sets it for a foreground
    job: a child of a process that ignores SIGINT would ignore it too, and
    Python would then install no KeyboardInterrupt handler."""
    signal.signal(signal.SIGINT, signal.SIG_DFL)


def test_a_stopped_run_ends_both_csvs_on_the_same_step(tmp_path):
    """`terasec train` stopped by SIGINT or SIGTERM once its metrics CSV
    holds 50 rows exits 130 or 143 with one line on stderr; both CSVs hold
    whole rows of the same steps and end in the '# FAILED' marker, and no
    summary is written."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(sys.path))
    runs = {}
    try:
        for sig in (signal.SIGINT, signal.SIGTERM):
            out = tmp_path / sig.name
            runs[sig] = out, subprocess.Popen(
                [sys.executable, "-m", "terasec.cli", "train", "--steps",
                 "1000", "--seed", "1", "--out", str(out)], env=env,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                preexec_fn=_default_sigint)
        deadline = time.monotonic() + 120
        for sig, (out, proc) in runs.items():
            metrics = out / "grant_seed1_metrics.csv"
            while not (metrics.exists()
                       and metrics.read_text().count("\n") >= 2 + 50):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.05)
            proc.send_signal(sig)
        for sig, (out, proc) in runs.items():
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == {signal.SIGINT: 130,
                                       signal.SIGTERM: 143}[sig], err
            assert err == f"stopped by {sig.name}\n"
            assert not any(f.endswith("_summary.json") for f in os.listdir(out))
            steps = []
            for name, width in (("metrics", 9), ("loss", 4)):
                lines = (out / f"grant_seed1_{name}.csv").read_text().split("\n")
                rows, marker = lines[2:-2], lines[-2]
                assert lines[-1] == ""
                assert all(len(row.split(",")) == width for row in rows)
                assert marker == (f"# FAILED step={len(rows)} "
                                  "error=KeyboardInterrupt")
                steps.append([int(row.split(",")[0]) for row in rows])
            assert steps[0] == steps[1] == list(range(len(steps[0])))
            assert len(steps[0]) >= 50
    finally:
        for _, proc in runs.values():
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def _cli_with_file_size_limit(args, limit, stdout=subprocess.PIPE):
    """`terasec ARGS` in a child whose file size limit (RLIMIT_FSIZE) is
    set in the child alone; a write past it raises EFBIG, as Python ignores
    SIGXFSZ."""

    def limit_file_size():
        resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run(
        [sys.executable, "-m", "terasec.cli", *args], env=env,
        preexec_fn=limit_file_size, stdout=stdout, stderr=subprocess.PIPE,
        text=True, timeout=120)


@pytest.mark.parametrize("policy,limit", [
    ("grant", 3000),      # a limit inside a metrics row, met before step 50
    ("uniform", 5000),    # a limit inside a row, met by the last flush
])
def test_a_file_size_limit_ends_the_csvs_on_whole_rows_of_one_step(
        tmp_path, policy, limit):
    """`terasec train` for 120 steps in a child whose file size limit
    (RLIMIT_FSIZE, set in the child alone) stops a write or a flush inside
    a row: it exits 3, its CSVs hold whole rows of the same steps, each CSV
    with room for it ends in the '# FAILED' marker, and the run leaves no
    temporary checkpoint and no summary."""
    out = tmp_path / "runs"
    proc = _cli_with_file_size_limit(
        ["train", "--policy", policy, "--seed", "1", "--steps", "120",
         "--out", str(out)], limit)
    assert proc.returncode == EXIT_IO, proc.stderr
    assert "File too large" in proc.stderr
    widths = {"metrics": 9, "loss": 4} if policy == "grant" else {"metrics": 9}
    assert sorted(os.listdir(out)) == sorted(
        f"{policy}_seed1_{name}.csv" for name in widths)
    steps, markers = [], []
    for name, width in widths.items():
        text = (out / f"{policy}_seed1_{name}.csv").read_text()
        assert text.endswith("\n") and len(text) <= limit
        lines = text.split("\n")[:-1]
        markers.append(lines.pop() if lines[-1].startswith("#") else None)
        assert lines[0].startswith("# config_hash=")
        rows = [row.split(",") for row in lines[2:]]
        assert all(len(row) == width for row in rows)
        assert all(math.isfinite(float(v)) for row in rows for v in row)
        steps.append([int(row[0]) for row in rows])
        # the marker is left out only where it would pass the limit
        marker = f"# FAILED step={len(rows)} error=OSError"
        assert markers[-1] in (marker, None)
        whole = len(text) - (len(marker) + 1 if markers[-1] else 0)
        assert (markers[-1] is None) == (whole + len(marker) + 1 > limit)
    assert all(s == list(range(len(steps[0]))) for s in steps)
    assert 0 < len(steps[0]) < 120


def test_a_file_size_limit_inside_the_step_50_checkpoint_ends_both_csvs_there(
        tmp_path):
    """A 60-step `grant` run whose 40,000-byte limit is met by the step-50
    checkpoint: it exits 3, both CSVs hold the rows of steps 0 to 49 and end
    on the marker, and the failed checkpoint leaves no temporary file."""
    out = tmp_path / "runs"
    proc = _cli_with_file_size_limit(
        ["train", "--policy", "grant", "--seed", "1", "--steps", "60",
         "--out", str(out)], 40_000)
    assert proc.returncode == EXIT_IO, proc.stderr
    assert "File too large" in proc.stderr
    assert sorted(os.listdir(out)) == ["grant_seed1_loss.csv",
                                       "grant_seed1_metrics.csv"]
    for name, width in (("metrics", 9), ("loss", 4)):
        lines = (out / f"grant_seed1_{name}.csv").read_text().split("\n")
        assert lines[-2:] == ["# FAILED step=50 error=OSError", ""]
        rows = [row.split(",") for row in lines[2:-2]]
        assert all(len(row) == width for row in rows)
        assert [int(row[0]) for row in rows] == list(range(50))


def test_a_file_size_limit_inside_the_summary_leaves_no_summary(tmp_path):
    """A 3-step `uniform` run whose limit lies between its metrics CSV's 294
    bytes and its summary's size: it exits 3, and its whole CSV ends on the
    '# FAILED' marker, which fits under the limit, so the run does not read
    as finished; it leaves no summary, no aggregate and no temporary
    file."""
    out = tmp_path / "runs"
    proc = _cli_with_file_size_limit(
        ["train", "--policy", "uniform", "--seed", "1", "--steps", "3",
         "--out", str(out)], 340)
    assert proc.returncode == EXIT_IO, proc.stderr
    assert "File too large" in proc.stderr
    assert os.listdir(out) == ["uniform_seed1_metrics.csv"]
    text = (out / "uniform_seed1_metrics.csv").read_text()
    marker = "# FAILED step=3 error=OSError\n"
    assert text.endswith(marker) and len(text) == 294 + len(marker) <= 340
    rows = [row.split(",") for row in text[:294].split("\n")[2:-1]]
    assert [row[0] for row in rows] == ["0", "1", "2"]
    assert all(len(row) == 9 for row in rows)


@pytest.mark.parametrize("command", ["eval", "compare-bands"])
def test_a_file_size_limit_on_redirected_output_exits_3(tmp_path, command):
    """`eval` and `compare-bands` with stdout redirected into a file under a
    100-byte limit exit 3 and say why; the JSON stream is cut at the
    limit, and neither command writes an output directory."""
    path, out = tmp_path / "stdout.json", tmp_path / "runs"
    with open(path, "w") as fh:
        proc = _cli_with_file_size_limit(
            [command, "--policy", "uniform", "--seed", "1", "--steps", "3",
             "--out", str(out)], 100, stdout=fh)
    assert proc.returncode == EXIT_IO, proc.stderr
    assert "File too large" in proc.stderr
    assert path.read_text().startswith("{\n")
    assert path.stat().st_size == 100
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


@pytest.mark.parametrize("gain_dbi", [1e12, 1000])
def test_an_overflowing_array_gain_exits_2_before_any_output(tmp_path, capsys,
                                                            gain_dbi):
    """1e12 dBi once overflowed in the link budget; 1000 dBi once made
    infinite SINR features and NaN actions at step 0, after the metrics CSV
    had been opened."""
    cfg = write_cfg(tmp_path,
                    {"link": {"array": {"element_gain_dbi": gain_dbi}}})
    out = tmp_path / "runs"
    for command in ("train", "eval", "compare-bands"):
        assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert "'link.array'" in capsys.readouterr().err
        assert not out.exists()


def test_a_power_budget_that_overflows_over_the_window_exits_2(tmp_path,
                                                               capsys):
    """p_max_w = 1e308 once passed the config check, then exited 4 at step 0
    with a non-finite power_W_mean and both CSVs ending in '# FAILED'."""
    cfg = write_cfg(tmp_path, {"link": {"budget": {"p_max_w": 1e308}}})
    out = tmp_path / "runs"
    for command in ("train", "eval", "compare-bands"):
        assert main([command, "--config", cfg, "--seed", "1",
                     "--out", str(out)]) == EXIT_CONFIG
        assert "'link.budget'" in capsys.readouterr().err
        assert not out.exists()


def test_the_largest_power_budget_the_window_admits_trains_to_finite_rows(
        tmp_path, capsys):
    env = harness.build_environment(harness.load_config(write_cfg(tmp_path)), 1)
    rows = len(env.sources) + len(env.involved)
    p_max = 0.999 * np.finfo(float).max / rows
    cfg = write_cfg(tmp_path, {"train": {"steps": 2},
                               "link": {"budget": {"p_max_w": p_max}}})
    out = tmp_path / "runs"
    assert main(["train", "--config", cfg, "--seed", "1",
                 "--out", str(out)]) == EXIT_OK
    rows = (out / "uniform_seed1_metrics.csv").read_text().splitlines()[2:]
    assert len(rows) == 2
    assert np.all(np.isfinite([[float(v) for v in row.split(",")]
                               for row in rows]))


@pytest.mark.parametrize("field", ["s_max", "rx_subarrays_per_isl"])
def test_an_element_count_past_2_53_exits_2_before_any_output(tmp_path,
                                                             capsys, field):
    """s_max = 2**70 once wrapped in the int64 sub-array cast and exited 4
    with 'at least one sub-array per link end'."""
    cfg = write_cfg(tmp_path, {"link": {"array": {field: 2**70}}})
    out = tmp_path / "runs"
    assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and "'link.array'" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("extra", [
    {"compute": {"cycles_per_byte": 2**70}},
    {"policy": "grant", "train": {"steps": 2, "actor_lr": 1}},
    {"link": {"array": {"s_max": 2**53 // 16}}},
    {"routing_eta": 1e200},
], ids=["cycles_per_byte", "actor_lr", "s_max", "routing_eta"])
def test_a_config_at_the_edge_of_its_range_trains_to_finite_rows(
        tmp_path, capsys, extra):
    """cycles_per_byte = 2**70 once overflowed a C long against the int64
    server bytes and actor_lr = 2**70 met np.isfinite as a Python int, both
    exiting 4 after the metrics CSV was written; s_max at its bound,
    routing_eta = 1e200 and actor_lr at its bound as an int (2**70 is now
    over it and exits 2) run."""
    cfg = write_cfg(tmp_path, extra)
    out = tmp_path / "runs"
    assert main(["train", "--config", cfg, "--seed", "1",
                 "--out", str(out)]) == EXIT_OK
    for path in out.glob("*.csv"):
        rows = path.read_text().splitlines()[2:]
        assert rows and not any(row.startswith("#") for row in rows)
        assert np.all(np.isfinite([[float(v) for v in row.split(",")]
                                   for row in rows]))


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"non-finite JSON number {constant}")
    return json.loads(text, parse_constant=refuse)


def test_a_huge_array_trains_and_evaluates_to_finite_numbers(tmp_path,
                                                              capsys):
    """At m_x = 10**9 an int64 element-count product once wrapped and made
    every delay NaN; now each metrics row and the eval report are finite."""
    cfg = write_cfg(tmp_path, {"train": {"steps": 2},
                               "link": {"array": {"m_x": 10**9}}})
    out = tmp_path / "runs"
    assert main(["train", "--config", cfg, "--seed", "1",
                 "--out", str(out)]) == EXIT_OK
    rows = (out / "uniform_seed1_metrics.csv").read_text().splitlines()[2:]
    assert len(rows) == 2
    assert np.all(np.isfinite([[float(v) for v in row.split(",")]
                               for row in rows]))
    capsys.readouterr()
    assert main(["eval", "--config", cfg, "--seed", "1"]) == EXIT_OK
    report = _strict_json(capsys.readouterr().out)
    assert report["T_avg_ms"] > 0.0 and report["T_max_ms"] > 0.0


def _nan_rollout(env, policy, steps):
    """rollout_policy whose third slot comes out NaN."""
    for step in range(steps):
        outcome, _, _ = env.step(policy.act(env.snapshot()))
        if step == 2:
            outcome = dataclasses.replace(outcome, t_avg=math.nan)
        yield {"step": step, "outcome": outcome, "critic_loss": 0.0,
               "q_value": 0.0, "actor_lr": 0.0}


def test_a_non_finite_outcome_fails_the_run_instead_of_being_written(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(harness, "rollout_policy", _nan_rollout)
    cfg = write_cfg(tmp_path, {"train": {"steps": 4}})
    out = tmp_path / "runs"
    assert main(["train", "--config", cfg, "--seed", "1",
                 "--out", str(out)]) == EXIT_RUNTIME
    captured = capsys.readouterr()
    assert "non-finite T_avg_ms" in captured.err
    text = (out / "uniform_seed1_metrics.csv").read_text()
    assert "nan" not in text.lower()
    assert text.splitlines()[-1] == "# FAILED step=2 error=TrainingError"
    assert sorted(os.listdir(out)) == ["uniform_seed1_metrics.csv"]

    assert main(["eval", "--config", cfg, "--seed", "1"]) == EXIT_RUNTIME
    captured = capsys.readouterr()
    assert "non-finite T_avg_ms" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("policy, steps, failed, head", [
    ("maddpg_fc", 6, 1, "actor_to.head_offload"),
    ("grant", 4, 3, "actor_ot.head_subarray"),
])
def test_a_diverged_actor_fails_the_run_naming_its_head(
        tmp_path, capsys, monkeypatch, policy, steps, failed, head):
    """actor_lr = 1e308 overflows the actor parameters in the first ascent
    steps; the NaN ratios once reached the simulator and exited 4 with an
    ActionError about the ratio simplex.  TrainConfig now rejects that rate
    (MAX_LR); the bound is lifted here to reach the run's own check."""
    monkeypatch.setattr(agent, "MAX_LR", math.inf)
    cfg = write_cfg(tmp_path, {"policy": policy, "train": {
        "steps": steps, "actor_lr": 1e308}})
    out = tmp_path / "runs"
    with np.errstate(all="ignore"):
        code = main(["train", "--config", cfg, "--seed", "1",
                     "--out", str(out)])
    assert code == EXIT_RUNTIME
    assert f"TrainingError: non-finite ratios from {head}" in (
        capsys.readouterr().err)
    for kind in ("metrics", "loss"):
        text = (out / f"{policy}_seed1_{kind}.csv").read_text()
        assert text.splitlines()[-1] == (f"# FAILED step={failed} "
                                         f"error=TrainingError")


def test_exit_bad_arguments():
    with pytest.raises(SystemExit) as exc:
        main(["train", "--policy", "bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main([])
