"""End-to-end acceptance suite.

Each test exercises one release criterion and prints a single
``criterion N: PASS/FAIL`` line with the measured values.
"""
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from terasec.agent import (OFFLOAD_FEATURES, OUTCOME_FEATURES, CentralCritic,
                           GcnActor, GrantAgent, TrainConfig, explore_group,
                           head_specs)
from terasec.autodiff import (Dense, GcnLayer, Tensor, normalized_adjacency,
                              sub_graph)
from terasec.baselines import MaddpgFcAgent
from terasec.constellation import Constellation, WalkerConfig
from terasec.harness import ExperimentConfig, compare_bands, run_experiment
from terasec.sec_sim import (quantize_offload, quantize_power,
                             quantize_subarrays)
from terasec.traffic import TrafficConfig, fgn_rows, generate_counts

from backward_reference import tensor_sum
from conftest import make_env, random_simplex
from test_autodiff import check_gradient
import test_sec_sim
import topology_reference as topo


def report(n: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {n}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


# -- criterion 1: constraint soundness ----------------------------------------

def check_constraints(env, violations: list) -> None:
    """Wrap env.step so that each step appends its violations of task
    conservation and of every link's power and sub-array budgets to
    violations."""
    p_max = env.budget.p_max_w
    s_max = env.array_cfg.s_max
    outcome_links = topo.window_views(env).outcome_links
    orig_step = env.step

    def checked_step(bundle, **kw):
        idx = env.step_idx
        outcome, tasks, allocs = orig_step(bundle, **kw)
        (subs_to, power_to), (subs_ot, power_ot) = allocs
        for i, src in enumerate(env.sources):
            if tasks[i].sum() != int(env.counts[i, idx]):
                violations.append(f"task conservation src {src} step {idx}")
            if np.any(tasks[i] < 0):
                violations.append(f"negative task count src {src}")
            if power_to[i].sum() > p_max + 1e-9 or np.any(power_to[i] < 0):
                violations.append(f"offload power src {src} step {idx}")
            if subs_to[i].sum() > s_max:
                violations.append(f"offload subarrays src {src} step {idx}")
        for link, subs, power in zip(outcome_links, subs_ot, power_ot):
            if power.sum() > p_max + 1e-9 or np.any(power < 0):
                violations.append(f"outcome power {link} step {idx}")
            if subs.sum() > s_max:
                violations.append(f"outcome subarrays {link} step {idx}")
        return outcome, tasks, allocs

    env.step = checked_step


def test_criterion_1_constraint_soundness(seed1_rerun):
    """Every training step of seed1_rerun, and fuzzed actions."""
    violations, env = seed1_rerun.violations, seed1_rerun.env
    p_max, s_max = env.budget.p_max_w, env.array_cfg.s_max

    # the draws of one fuzzed action after another, quantized row-wise
    rng = np.random.default_rng(0)
    n_fuzz = 100_000
    r5, n_tasks = np.empty((n_fuzz, 5)), np.empty(n_fuzz, dtype=int)
    r5b, r21 = np.empty((n_fuzz, 5)), np.empty((n_fuzz, 21))
    for i in range(n_fuzz):
        r5[i] = random_simplex(rng, 5)
        n_tasks[i] = rng.integers(0, 400)
        r5b[i] = random_simplex(rng, 5)
        r21[i] = random_simplex(rng, 21)
    tasks = quantize_offload(r5, n_tasks)
    subs = quantize_subarrays(r5b[:, :4], s_max)
    power = quantize_power(r21[:, :20], p_max)
    fuzz_bad = int(np.sum((tasks.sum(axis=1) != n_tasks)
                          | np.any(tasks < 0, axis=1)))
    fuzz_bad += int(np.sum((subs.sum(axis=1) > s_max)
                           | np.any(subs < 1, axis=1)))
    fuzz_bad += int(np.sum((power.sum(axis=1) > p_max + 1e-9)
                           | np.any(power < 0, axis=1)))
    ok = not violations and fuzz_bad == 0
    report(1, ok, f"{env.step_idx} training steps + 100000 fuzzed actions: "
                  f"{len(violations)} step violations, {fuzz_bad} fuzz "
                  f"violations (required: 0)")


# -- criterion 2: gradient correctness ----------------------------------------

def test_criterion_2_gradient_correctness():
    rng = np.random.default_rng(1)
    n, k, width = 5, 1, 4
    table = normalized_adjacency(n, [(i, (i + 1) % n) for i in range(n)])
    sub_to, sub_ot = (sub_graph(table, rows) for rows in ([0, 2], [1, 3]))

    def make_proj(cols):
        v = Tensor(rng.standard_normal((cols, 1)))
        return lambda t: tensor_sum((t @ v).tanh())

    checked = 0
    for i in range(20):
        dense = Dense(rng, 6, 3, f"d{i}")
        x = rng.standard_normal((4, 6))
        proj3 = make_proj(3)
        check_gradient(lambda: proj3(dense(Tensor(x))), dense.parameters())

        gcn = GcnLayer(rng, 4, 3, f"g{i}")
        feats = rng.standard_normal((n, 4))
        proj3b = make_proj(3)
        check_gradient(lambda: proj3b(gcn(Tensor(feats), table)),
                       gcn.parameters())

        spec_to, spec_ot = head_specs(k)
        actor_to = GcnActor(np.random.default_rng(100 + i), OFFLOAD_FEATURES,
                            width, spec_to, "actor_to")
        f_to = rng.standard_normal((n, 9))
        projs_to = [make_proj(5), make_proj(5), make_proj(4 * k + 1)]
        check_gradient(
            lambda: sum_proj(actor_to.forward(f_to, table, sub_to), projs_to),
            actor_to.parameters(), rtol=1e-4)

        actor_ot = GcnActor(np.random.default_rng(200 + i), OUTCOME_FEATURES,
                            width, spec_ot, "actor_ot")
        f_ot = rng.standard_normal((n, 8))
        projs_ot = [make_proj(1), make_proj(k + 1)]
        check_gradient(
            lambda: sum_proj(actor_ot.forward(f_ot, table, sub_ot), projs_ot),
            actor_ot.parameters(), rtol=1e-4)

        critic = CentralCritic(np.random.default_rng(300 + i), k, width)
        c_in = Tensor(np.hstack([f_to, f_ot, rng.random((n, 5 + 4 + 4 * k)),
                                 rng.random((n, 1 + k))]))
        check_gradient(lambda: tensor_sum(critic.forward(c_in, table)),
                       critic.parameters(), rtol=1e-4)
        checked += 5
    report(2, True, f"{checked} random layer/actor/critic instances matched "
                    f"central finite differences (eps=1e-5, rel err < 1e-4)")


def sum_proj(outputs, projections):
    total = None
    for out, proj in zip(outputs, projections):
        term = proj(out)
        total = term if total is None else total + term
    return total


# -- criterion 3: delay oracles ------------------------------------------------

def test_criterion_3_delay_oracles():
    test_sec_sim.test_slot_single_path_closed_form()
    test_sec_sim.test_slot_shared_fifo_relay()
    test_sec_sim.test_slot_self_compute_only()
    report(3, True, "single-path, shared-FIFO-relay and self-compute-only "
                    "micro-topologies match closed forms to < 1e-9 s")


# -- criteria 1/4/5/8 share three full training runs and one rerun -----------

@pytest.fixture(scope="module")
def grant_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("grant_runs")
    cfg = ExperimentConfig.from_dict({"policy": "grant",
                                      "output_dir": str(out)})
    summaries, aggregate = run_experiment(cfg, [1, 2, 3])
    return cfg, summaries, aggregate


@pytest.fixture(scope="module")
def seed1_rerun(grant_runs):
    """grant_runs' seed 1 run again into the same directory, its window's
    step wrapped by check_constraints: grant_runs' metrics and loss CSV
    bytes (read before the rerun), the rerun's, its window and its
    constraint violations."""
    cfg, summaries, _ = grant_runs
    before = [open(path, "rb").read()
              for path in (summaries[0].metrics_csv, summaries[0].loss_csv)]
    envs, violations = [], []

    def on_setup(_, env):
        envs.append(env)
        check_constraints(env, violations)

    rerun, _ = run_experiment(cfg, [1], on_setup=on_setup)
    after = [open(path, "rb").read()
             for path in (rerun[0].metrics_csv, rerun[0].loss_csv)]
    return SimpleNamespace(before=before, after=after, env=envs[0],
                           violations=violations)


def test_criterion_4_learning_improvement(grant_runs, tmp_path):
    cfg, summaries, aggregate = grant_runs
    uni_cfg = ExperimentConfig.from_dict({
        "policy": "uniform", "train": {"steps": 100},
        "output_dir": str(tmp_path)})
    _, uni_agg = run_experiment(uni_cfg, [1, 2, 3])
    full_cfg = ExperimentConfig.from_dict({
        "policy": "full", "train": {"steps": 60},
        "output_dir": str(tmp_path)})
    _, full_agg = run_experiment(full_cfg, [1])

    u = aggregate["converged_u_mean"]
    t_avg = aggregate["converged_t_avg_ms_mean"]
    u_full = full_agg["converged_u_mean"]
    u_uni = uni_agg["converged_u_mean"]
    per_seed = ", ".join(f"seed {s.seed}: U={s.converged_u:.3f} "
                         f"T={s.converged_t_avg_ms:.0f}ms" for s in summaries)
    ok = (u <= 0.65 * u_full) and (u < u_uni) and (t_avg <= 200.0)
    report(4, ok,
           f"converged U={u:.3f} (full-resource {u_full:.3f}, uniform "
           f"{u_uni:.3f}; need <= {0.65 * u_full:.3f} and < uniform), "
           f"T_avg={t_avg:.0f}ms (need <= 200ms); {per_seed} "
           f"[reference context: 40% occupation, 105 ms]")


def test_criterion_5_size_and_speed(grant_runs):
    cfg, summaries, _ = grant_runs
    env = make_env(seed=1, steps=3)
    dense = MaddpgFcAgent(env, TrainConfig(seed=1, steps=3))
    n_dense = dense.parameter_count()
    n_grant = summaries[0].parameter_count
    t0 = time.perf_counter()
    dense.run_training()
    dense_wall = (time.perf_counter() - t0) / 3
    grant_wall = float(np.mean([s.wall_clock_per_step_s for s in summaries]))
    ok = (n_grant * 10 <= n_dense) and (grant_wall <= dense_wall)
    report(5, ok,
           f"parameters {n_grant} vs {n_dense} (need <= 1/10), per-step wall "
           f"{grant_wall * 1e3:.0f}ms vs {dense_wall * 1e3:.0f}ms (need <=) "
           f"[reference context: 1.3e5 vs 1.3e7 params; 0.044 s vs 0.414 s]")


def test_criterion_8_determinism(seed1_rerun):
    ok = seed1_rerun.before == seed1_rerun.after
    report(8, ok, f"re-running seed 1 reproduced metric and loss CSVs "
                  f"byte-identically ({len(seed1_rerun.before[0])} bytes)")


# -- criterion 6: band comparison ---------------------------------------------

def test_criterion_6_band_comparison(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "policy": "uniform", "train": {"steps": 10},
        "output_dir": str(tmp_path)})
    table = compare_bands(cfg, seed=1, steps=10)
    thz = table["thz"]["t_avg_s"]
    ka_ratio = table["ka"]["t_avg_s"] / thz
    ku_ratio = table["ku"]["t_avg_s"] / thz
    ok = ka_ratio >= 10.0 and ku_ratio >= 40.0
    report(6, ok,
           f"replayed allocations: T_avg ka/thz={ka_ratio:.0f}x (need >= 10), "
           f"ku/thz={ku_ratio:.0f}x (need >= 40) "
           f"[reference context: 43x, 197x]")


# -- criterion 7: safe mechanisms ---------------------------------------------

def test_criterion_7_safe_mechanisms():
    rng = np.random.default_rng(2)
    bad_sum = bad_neg = 0
    for _ in range(10_000):
        r = random_simplex(rng, int(rng.integers(2, 22)))
        out = explore_group(r, 0.3, rng)
        if abs(out.sum() - r.sum()) > 1e-12:
            bad_sum += 1
        if np.any(out < 0.0):
            bad_neg += 1
    env = make_env(seed=1, steps=2)
    agent = GrantAgent(env, TrainConfig(seed=1))
    bundle = agent.act(env.snapshot())
    budgets = {
        "to_subarrays": float(bundle.to_subarrays.sum(axis=1).min()),
        "to_power": float(bundle.to_power.sum(axis=1).min()),
        "ot_subarray": float(bundle.ot_subarray.min()),
        "ot_power": float(bundle.ot_power.sum(axis=1).min()),
    }
    min_budget = min(budgets.values())
    ok = bad_sum == 0 and bad_neg == 0 and min_budget >= 0.9
    report(7, ok,
           f"10000 exploration draws: {bad_sum} non-zero-sum, {bad_neg} "
           f"negative; safe-init budget floor {min_budget:.3f} (need >= 0.9)")


# -- criterion 9: traffic generator -------------------------------------------

def test_criterion_9_traffic_statistics():
    counts = generate_counts(TrafficConfig(seed=0), 1, 10_000)[0]
    mean_err = abs(counts.mean() / 122.0 - 1.0)

    def rho1(x):
        x = x - x.mean()
        return float(np.sum(x[:-1] * x[1:]) / np.sum(x * x))

    rho_half = rho1(fgn_rows(0.5, 10_000, 1, np.random.default_rng(1))[0])
    rho_08 = rho1(fgn_rows(0.8, 10_000, 1, np.random.default_rng(1))[0])
    ok = mean_err < 0.05 and abs(rho_half) < 0.05 and rho_08 > 0.0
    report(9, ok,
           f"10000 samples: mean error {mean_err * 100:.2f}% (need < 5%), "
           f"rho1(H=0.5)={rho_half:.3f} (need |.| < 0.05), "
           f"rho1(H=0.8)={rho_08:.3f} (need > 0)")


# -- criterion 10: topology sanity --------------------------------------------

def test_criterion_10_topology_sanity():
    c = Constellation(WalkerConfig())
    adj = {}
    regular = True
    for idx in range(c.n_sats):
        nbrs = set(c.neighbors[idx].tolist())
        regular &= len(nbrs) == 4
        adj[idx] = nbrs
    seen, frontier = {0}, [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    connected = len(seen) == c.n_sats
    env = make_env(seed=1, steps=2)
    n_involved = len(env.involved)
    ok = regular and connected and 20 <= n_involved <= 600
    report(10, ok,
           f"ISL graph 4-regular={regular}, connected={connected} over "
           f"{c.n_sats} nodes; involved set {n_involved} (need in [20, 600]) "
           f"[reference context: 315]")
