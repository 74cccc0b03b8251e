import numpy as np
import pytest

from terasec.agent import GrantAgent, TrainConfig
from terasec.baselines import (FullResourcePolicy, MaddpgFcAgent,
                               ReconfigurationError, UniformPolicy,
                               rollout_policy)

from conftest import make_env


def test_uniform_bundle_values(small_env):
    policy = UniformPolicy(small_env)
    k = small_env.band_to.n_subbands
    b, ratios, states = policy.act()
    assert ratios is None and states is None
    assert np.allclose(b.offload, 0.2)
    assert np.allclose(b.to_subarrays, 0.25)
    assert np.allclose(b.to_power, 1.0 / (4 * k))
    assert np.allclose(b.ot_subarray, 1.0)
    assert np.allclose(b.ot_power, 1.0 / k)
    # stateless: identical bundle regardless of snapshot
    b2, _, _ = policy.act(small_env.snapshot())
    assert np.array_equal(b.offload, b2.offload)


def test_uniform_quantizes_to_equal_split(small_env):
    env = small_env
    b, _, _ = UniformPolicy(env).act()
    outcome, _, (alloc_to, alloc_ot) = env.step(b, advance=False)
    s_max = env.array_cfg.s_max
    p_max = env.budget.p_max_w
    for (src, _nbr), alloc in alloc_to.items():
        assert alloc.subarrays == s_max // 4  # 16 each across 4 links
    for i, src in enumerate(env.sources):
        total = sum(alloc_to[(src, n)].power_w.sum()
                    for n in env.neighbor_order[src])
        assert abs(total - p_max) < 1e-9
    for alloc in alloc_ot.values():
        assert alloc.subarrays == s_max
        assert abs(alloc.power_w.sum() - p_max) < 1e-9
    # zero slack saturates both budgets exactly
    assert abs(outcome.u_total - 1.0) < 1e-12


def test_full_resource_policy(small_env):
    env = small_env
    b, _, _ = FullResourcePolicy(env).act()
    assert np.allclose(b.offload[:, 0], 1.0)
    outcome, assignment, _ = env.step(b, advance=False)
    assert outcome.u_total > 0.95
    # every task stays local
    assert all(sum(to.values()) == 0 for to in assignment.tasks_to.values())
    assert all(assignment.tasks_self[s] >= 0 for s in env.sources)


def test_rollout_policy_records():
    env = make_env(seed=3, steps=4, n_sources=10)
    history = rollout_policy(env, UniformPolicy(env), 4)
    assert len(history) == 4
    for i, rec in enumerate(history):
        assert rec["step"] == i
        assert rec["critic_loss"] == 0.0
        assert rec["q_value"] == 0.0
        assert rec["actor_lr"] == 0.0
        assert np.isfinite(rec["outcome"].reward)


def test_rollout_deterministic_per_seed():
    r1 = rollout_policy(*(lambda e: (e, UniformPolicy(e)))(make_env(seed=5, steps=3)), 3)
    r2 = rollout_policy(*(lambda e: (e, UniformPolicy(e)))(make_env(seed=5, steps=3)), 3)
    for a, b in zip(r1, r2):
        assert a["outcome"].reward == b["outcome"].reward
        assert a["outcome"].t_avg == b["outcome"].t_avg


def test_maddpg_parameter_count_decade_above(small_env):
    dense = MaddpgFcAgent(small_env, TrainConfig())
    gcn = GrantAgent(small_env, TrainConfig())
    assert dense.parameter_count() >= 10 * gcn.parameter_count()


def test_maddpg_safe_init_spends_budgets(small_env):
    agent = MaddpgFcAgent(small_env, TrainConfig())
    bundle, _, _ = agent.act(small_env.snapshot())
    assert np.all(bundle.to_subarrays.sum(axis=1) >= 0.9)
    assert np.all(bundle.to_power.sum(axis=(1, 2)) >= 0.9)
    assert np.all(bundle.ot_subarray >= 0.9)
    assert np.all(bundle.ot_power.sum(axis=1) >= 0.9)
    assert np.all(bundle.offload[:, 0] >= 0.5)


def test_maddpg_same_seed_determinism(small_env):
    a = MaddpgFcAgent(small_env, TrainConfig(seed=4))
    b = MaddpgFcAgent(small_env, TrainConfig(seed=4))
    snap = small_env.snapshot()
    ra = a.act(snap, explore=True)[1]
    rb = b.act(snap, explore=True)[1]
    for x, y in zip(ra, rb):
        assert np.array_equal(x, y)


def test_maddpg_rejects_reconfiguration(small_env):
    agent = MaddpgFcAgent(small_env, TrainConfig())
    other = make_env(seed=2, steps=2, n_sources=8)
    with pytest.raises(ReconfigurationError):
        agent.encode(other.snapshot())
