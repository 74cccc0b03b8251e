import copy
import gc
import math
import tracemalloc

import numpy as np
import pytest

from terasec.agent import (CentralCritic, GrantAgent, OffloadActor,
                           OutcomeActor, PhaseState, TrainConfig,
                           TrainingError, bound_logits, explore_group,
                           logit_bias, safe_init, td_target)
from terasec.autodiff import (Adam, GcnLayer, Tensor, mse,
                              normalized_adjacency)
from terasec.baselines import MaddpgFcAgent
from terasec.env import GS_NODE, SecWindow, prune_involved
from terasec.harness import _metrics_row

from conftest import make_env, random_simplex
import gcn_reference
from gcn_reference import (dense_adjacency, dense_gcn_call, dense_matrix,
                           permuted_table)
from train_reference import reference_run_training


# -- logit bounding -----------------------------------------------------------

def test_bound_logits_limits_and_bias_roundtrip():
    z = Tensor(np.array([[1000.0, -1000.0, 0.0]]))
    out = bound_logits(z).data
    assert abs(out[0, 0] - 8.0) < 1e-9
    assert abs(out[0, 1] + 8.0) < 1e-9
    assert out[0, 2] == 0.0
    for target in (2.0, -4.0, 4.0, 0.5):
        got = bound_logits(Tensor(np.array([[logit_bias(target)]]))).data
        assert abs(got[0, 0] - target) < 1e-12


# -- state encoding -----------------------------------------------------------

def test_encode_state_shapes_and_flags(small_env):
    s_to, s_ot = GrantAgent(small_env, TrainConfig()).encode(
        small_env.snapshot())
    n = len(small_env.involved)
    assert s_to.features.shape == (n, 9)
    assert s_ot.features.shape == (n, 8)
    # both phases share one read-only neighbor table of the normalized
    # adjacency, at most 4 ISLs plus the self-loop wide
    assert s_to.table is s_ot.table
    for part in s_to.table:
        assert part.shape[0] == n and part.shape[1] <= 5
        assert not part.flags.writeable
    # normalized plane/slot indices stay in [0, 1]
    assert np.all(s_to.features[:, :2] >= 0.0)
    assert np.all(s_to.features[:, :2] <= 1.0)
    # membership flags are binary and mark exactly the sources / GS satellite
    phi_off = s_to.features[:, 7]
    assert set(np.unique(phi_off)) <= {0.0, 1.0}
    assert int(phi_off.sum()) == len(small_env.sources)
    phi_gs = s_to.features[:, 8]
    assert int(phi_gs.sum()) == 1
    assert small_env.involved[int(np.argmax(phi_gs))] == small_env.gs_flat
    assert np.array_equal(s_ot.features[:, 7], phi_gs)
    # expected offload demand normalizes to 1 at the sources
    demand = s_to.features[:, 2]
    assert np.allclose(np.sort(np.unique(demand)), [0.0, 1.0])


def test_window_and_agent_set_up_allocate_no_n_by_n_matrix():
    """The graph goes from the involved edges to the neighbor table with no
    dense matrix: building a 500-source window and its agent peaks below
    one n x n float64 array (the dense path peaked at about 4 of them)."""
    tracemalloc.start()
    try:
        env = make_env(seed=1, steps=1, n_sources=500)
        GrantAgent(env, TrainConfig(seed=1, steps=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = len(env.involved)
    assert n > 1500
    assert peak < n * n * 8


# -- the per-slot observation path the window-frozen one replaced -----------

def reference_snapshot(env):
    """Every observable rebuilt from the window, as each slot once did."""
    n = len(env.involved)
    n_sp = env.c.cfg.sats_per_plane
    phi_off = np.zeros(n)
    expected_off = np.zeros(n)
    for s in env.sources:
        phi_off[env.node_index[s]] = 1.0
        expected_off[env.node_index[s]] = env.traffic_cfg.mean_bytes_per_slot
    phi_gs = np.zeros(n)
    phi_gs[env.node_index[env.gs_flat]] = 1.0
    return {
        "adjacency": dense_adjacency(n, env.edges),
        "planes": np.array([v // n_sp for v in env.involved], dtype=float),
        "slots": np.array([v % n_sp for v in env.involved], dtype=float),
        "phi_off": phi_off, "phi_gs": phi_gs,
        "expected_offload_bytes": expected_off,
        "expected_outcome_bytes": env._expected_outcome.copy(),
        "sinr_to_db": env._sinr_to_db.copy(),
        "sinr_ot_db": env._sinr_ot_db.copy()}


def reference_encode_state(snap, phase, planes, sats_per_plane, mean_bytes):
    """(features, a_norm) for one phase, the adjacency normalized anew."""
    plane_norm = snap["planes"] / max(planes - 1, 1)
    slot_norm = snap["slots"] / max(sats_per_plane - 1, 1)
    if phase == "offloading":
        l_e = snap["expected_offload_bytes"] / mean_bytes
        sinr = snap["sinr_to_db"] / 60.0
        flags = [snap["phi_off"], snap["phi_gs"]]
    else:
        l_e = snap["expected_outcome_bytes"] / mean_bytes
        sinr = snap["sinr_ot_db"] / 60.0
        flags = [snap["phi_gs"]]
    cols = [plane_norm, slot_norm, l_e, sinr[:, 0], sinr[:, 1], sinr[:, 2],
            sinr[:, 3], *flags]
    return (np.stack(cols, axis=1),
            gcn_reference.normalized_adjacency(snap["adjacency"]))


@pytest.mark.parametrize("cls", [GrantAgent, MaddpgFcAgent])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_encode_equals_the_per_slot_rebuild(cls, seed):
    """Every state a training run encodes equals the per-slot rebuild."""
    env = make_env(seed=seed, steps=3)
    agent = cls(env, TrainConfig(seed=seed, steps=3))
    c = env.c.cfg
    mean = env.traffic_cfg.mean_bytes_per_slot
    encode = agent.encode
    checked = []

    def checked_encode(snapshot):
        states = encode(snapshot)
        ref = reference_snapshot(env)
        for state, phase in zip(states, ("offloading", "outcome")):
            features, a_norm = reference_encode_state(
                ref, phase, c.planes, c.sats_per_plane, mean)
            assert np.array_equal(state.features, features)
            assert np.array_equal(dense_matrix(state.table), a_norm)
        checked.append(env.step_idx)
        return states

    agent.encode = checked_encode
    agent.run_training()
    assert checked == [0, 1, 2, 3]


# -- safe initialization ------------------------------------------------------

def test_safe_init_zero_input_oracles():
    rng = np.random.default_rng(0)
    actor_to = OffloadActor(rng, 5, width=8)
    actor_ot = OutcomeActor(rng, 5, width=8)
    safe_init(actor_to, actor_ot)
    # with zero embeddings the heads output exactly their biases
    e2, e4 = math.exp(2.0), math.exp(-4.0)
    self_share = e2 / (e2 + 4.0)
    slack5 = e4 / (4.0 + e4)
    zero = Tensor(np.zeros((1, 8)))
    off = bound_logits(actor_to.head_offload(zero)).softmax_rows().data
    assert abs(off[0, 0] - self_share) < 1e-12
    sub = bound_logits(actor_to.head_subarray(zero)).softmax_rows().data
    assert abs(sub[0, -1] - slack5) < 1e-12
    pw = bound_logits(actor_to.head_power(zero)).softmax_rows().data
    assert abs(pw[0, -1] - e4 / (20.0 + e4)) < 1e-12
    ot_sub = bound_logits(actor_ot.head_subarray(zero)).sigmoid().data
    assert abs(ot_sub[0, 0] - 1.0 / (1.0 + e4)) < 1e-12


def test_safe_init_full_forward_spends_budgets(small_env):
    agent = GrantAgent(small_env, TrainConfig())
    bundle, ratios, _ = agent.act(small_env.snapshot())
    assert np.all(bundle.to_subarrays.sum(axis=1) >= 0.9)
    assert np.all(bundle.to_power.sum(axis=(1, 2)) >= 0.9)
    assert np.all(bundle.ot_subarray >= 0.9)
    assert np.all(bundle.ot_power.sum(axis=1) >= 0.9)
    # tasks start mostly local
    assert np.all(bundle.offload[:, 0] >= 0.5)


# -- exploration --------------------------------------------------------------

def test_explore_group_zero_sum():
    rng = np.random.default_rng(1)
    for _ in range(100):
        r = rng.dirichlet(np.ones(6))
        out = explore_group(r, 0.3, rng)
        assert abs(out.sum() - r.sum()) < 1e-12
        assert np.all(out >= 0.0)


def test_explore_group_withdraws_on_negative():
    rng = np.random.default_rng(2)
    corner = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
    withdrawn = 0
    for _ in range(200):
        out = explore_group(corner, 0.3, rng)
        # noise that would push any component negative is withdrawn entirely;
        # otherwise the zero-sum perturbation keeps the total at 1
        if np.array_equal(out, corner):
            withdrawn += 1
        else:
            assert np.all(out >= 0.0)
            assert abs(out.sum() - 1.0) < 1e-12
    assert withdrawn > 100  # most draws violate the corner and are withdrawn


def test_explore_group_zero_std_identity():
    rng = np.random.default_rng(3)
    r = np.array([0.2, 0.3, 0.5])
    assert np.array_equal(explore_group(r, 0.0, rng), r)


def reference_explore_group(ratios, noise_std, rng):
    """explore_group as it was: one 1-D ratio group per call."""
    g = rng.standard_normal(ratios.size)
    if noise_std <= 0.0:
        return ratios.copy()
    noise = (g - g.mean()) * (noise_std * float(np.max(ratios)))
    out = ratios + noise
    if np.any(out < 0.0):
        return ratios.copy()
    return out


def reference_explore(agent, ratios):
    """GrantAgent.explore as it was: one draw per row."""
    offload, subarray, power, ot_sub, ot_power = ratios
    std, rng = agent.cfg.noise_std, agent.noise_rng

    def rows(group):
        return np.stack([reference_explore_group(r, std, rng) for r in group])

    offload, subarray, power = rows(offload), rows(subarray), rows(power)
    pairs = rows([np.array([s, 1.0 - s]) for s in ot_sub[:, 0]])
    return offload, subarray, power, pairs[:, :1], rows(ot_power)


def _same_bits(a, b):
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


@pytest.mark.parametrize("width", [2, 5, 6, 21, 26])
def test_batched_explore_group_equals_the_per_row_loop(width):
    """Values, signs of zero and the generator's next draw all match."""
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n_rows = int(rng.integers(1, 401))
        ratios = np.stack([random_simplex(rng, width) for _ in range(n_rows)])
        ratios[::7] = 0.0
        ratios[::7, 0] = 1.0          # corner rows: noise mostly withdrawn
        ratios[3::11, -1] = 0.0       # exact zeros inside spread rows
        for std in (0.3, 0.0):
            batch_rng = np.random.default_rng(1000 + seed)
            loop_rng = np.random.default_rng(1000 + seed)
            got = explore_group(ratios, std, batch_rng)
            want = np.stack([reference_explore_group(r, std, loop_rng)
                             for r in ratios])
            assert _same_bits(got, want)
            assert batch_rng.standard_normal() == loop_rng.standard_normal()


def test_agent_explore_equals_the_per_row_loop(small_env):
    agent = GrantAgent(small_env, TrainConfig(noise_std=0.3, seed=4))
    _, ratios, _ = agent.act(small_env.snapshot())
    ratios = list(ratios)
    ratios[3] = ratios[3].copy()
    ratios[3][::2] = 1.0              # (1, 0) pairs withdraw most noise
    reference = copy.deepcopy(agent)
    for _ in range(3):
        got = agent.explore(ratios)
        want = reference_explore(reference, ratios)
        for a, b in zip(got, want):
            assert _same_bits(a, b)
    assert (agent.noise_rng.standard_normal()
            == reference.noise_rng.standard_normal())


def test_agent_explore_shapes_and_budgets(small_env):
    agent = GrantAgent(small_env, TrainConfig(noise_std=0.3))
    _, ratios, _ = agent.act(small_env.snapshot())
    noisy = agent.explore(ratios)
    for i, (clean, pert) in enumerate(zip(ratios, noisy)):
        assert pert.shape == clean.shape
        assert np.all(pert >= 0.0)
        if i == 3:
            # the scalar explores as the pair (s, 1-s): stays in [0, 1]
            assert np.all(pert <= 1.0)
        else:
            assert np.allclose(pert.sum(axis=-1), clean.sum(axis=-1), atol=1e-9)


# -- TD target ----------------------------------------------------------------

def test_td_target_oracle():
    assert td_target(-10.0, 6.0, 0.5) == -7.0
    assert td_target(-3.0, 100.0, 0.0) == -3.0


def test_train_config_validation():
    with pytest.raises(TrainingError):
        TrainConfig(kappa=1.5)
    with pytest.raises(TrainingError):
        TrainConfig(actor_lr=0.0)
    with pytest.raises(TrainingError):
        TrainConfig(critic_lr=-1.0)
    with pytest.raises(TrainingError):
        TrainConfig(actor_lr_decay=0.0)
    with pytest.raises(TrainingError):
        TrainConfig(hidden_width=0)


# -- permutation structure ----------------------------------------------------

def _ring_state(rng, n, n_feats):
    edges = [(i, (i + 1) % n) for i in range(n)]
    feats = rng.standard_normal((n, n_feats))
    return PhaseState(features=feats, table=normalized_adjacency(n, edges))


def _permute_state(state, perm):
    return PhaseState(features=state.features[perm],
                      table=permuted_table(state.table, perm))


def test_offload_actor_permutation_equivariance():
    rng = np.random.default_rng(4)
    actor = OffloadActor(np.random.default_rng(0), 2, width=8)
    state = _ring_state(rng, 7, 9)
    perm = rng.permutation(7)
    permuted = _permute_state(state, perm)
    sources = [1, 4, 6]
    out_a = actor.forward(state, sources)
    inv = np.argsort(perm)
    out_b = actor.forward(permuted, [int(inv[s]) for s in sources])
    for a, b in zip(out_a, out_b):
        assert np.max(np.abs(a.data - b.data)) < 1e-10


def test_critic_permutation_invariance():
    rng = np.random.default_rng(5)
    k = 2
    critic = CentralCritic(np.random.default_rng(1), k, width=8)
    n = 6
    s_to = _ring_state(rng, n, 9)
    s_ot = PhaseState(features=rng.standard_normal((n, 8)),
                      table=s_to.table)
    act_to = rng.random((n, 5 + 4 + 4 * k))
    act_ot = rng.random((n, 1 + k))
    q = critic.forward(s_to, s_ot, Tensor(act_to), Tensor(act_ot)).data.item()
    perm = rng.permutation(n)
    p_to = _permute_state(s_to, perm)
    p_ot = PhaseState(features=s_ot.features[perm], table=p_to.table)
    q_p = (critic.forward(p_to, p_ot, Tensor(act_to[perm]),
                               Tensor(act_ot[perm])).data)
    assert abs(q - q_p) < 1e-10


def test_critic_usage_slope_prior():
    rng = np.random.default_rng(6)
    k = 2
    critic = CentralCritic(np.random.default_rng(2), k, width=8)
    n = 4
    s_to = _ring_state(rng, n, 9)
    s_ot = PhaseState(features=rng.standard_normal((n, 8)),
                      table=s_to.table)
    zero_to = Tensor(np.zeros((n, 5 + 4 * k + 4)))
    zero_ot = Tensor(np.zeros((n, 1 + k)))

    def q(a_to, a_ot):
        return critic.forward(s_to, s_ot, a_to, a_ot).data.item()

    # deep output and state skip weights start at zero, so Q is exactly the
    # negative usage prior over the action columns
    base = q(zero_to, zero_ot)
    assert abs(base) < 1e-12
    full_to = np.zeros((n, 5 + 4 + 4 * k))
    full_to[:, 5:] = 1.0
    full_ot = np.ones((n, 1 + k))
    q_full = q(Tensor(full_to), Tensor(full_ot))
    expected = -(4 * critic.SUBARRAY_SLOPE + 4 * k * critic.POWER_SLOPE
                 + critic.SUBARRAY_SLOPE + k * critic.POWER_SLOPE)
    assert abs(q_full - expected) < 1e-12
    # offload shares carry no usage and do not move Q
    off_only = np.zeros((n, 5 + 4 + 4 * k))
    off_only[:, :5] = 1.0
    assert abs(q(Tensor(off_only), zero_ot)) < 1e-12
    # linear in the allocation level
    half_to = full_to * 0.5
    assert abs(q(Tensor(half_to), Tensor(full_ot * 0.5)) - expected / 2) < 1e-12


# -- critic learning on a synthetic fixed point -------------------------------

def test_critic_converges_to_geometric_fixed_point():
    rng = np.random.default_rng(7)
    k = 2
    critic = CentralCritic(np.random.default_rng(3), k, width=8)
    n = 5
    s_to = _ring_state(rng, n, 9)
    s_ot = PhaseState(features=rng.standard_normal((n, 8)),
                      table=s_to.table)
    a_to = Tensor(rng.random((n, 5 + 4 + 4 * k)))
    a_ot = Tensor(rng.random((n, 1 + k)))
    params = critic.parameters()
    opt = Adam(params, lr=0.02)
    c, kappa = -2.0, 0.5
    target = c / (1.0 - kappa)  # geometric series: -4
    q = 0.0
    for _ in range(2000):
        for p in params:
            p.grad = None
        q_t = critic.forward(s_to, s_ot, a_to, a_ot)
        y = td_target(c, q_t.data.item(), kappa)
        loss = mse(q_t, Tensor(np.array([[y]])))
        loss.backward()
        opt.step()
        q = q_t.data.item()
        if abs(q / target - 1.0) < 0.01:
            break
    assert abs(q / target - 1.0) < 0.01


# -- actor ascent probe -------------------------------------------------------

def test_actor_step_increases_q(small_env):
    agent = GrantAgent(small_env, TrainConfig(actor_lr=1e-7, noise_std=0.0))
    snap = small_env.snapshot()
    s_to, s_ot = agent.encode(snap)
    n = s_to.features.shape[0]

    def q_pi():
        tensors = agent.actor_tensors(s_to, s_ot)
        a_to, a_ot = agent._action_node_tensors(tensors, n)
        return agent.q_value(s_to, s_ot, a_to, a_ot)

    before = q_pi()
    for p in agent.actor_params + agent.critic_params:
        p.grad = None
    before.backward()
    agent.actor_opt.step(maximize=True)
    after = q_pi().data.item()
    assert after >= before.data.item() - 1e-9


def test_train_step_rejects_incomplete_transition(small_env):
    agent = GrantAgent(small_env, TrainConfig())
    with pytest.raises(TrainingError):
        agent.train_step(None, None, -1.0, None, None)


def _transition(agent, env):
    states = agent.encode(env.snapshot())
    _, ratios, _ = agent.act(env.snapshot(), explore=True)
    return states, ratios, agent.actor_tensors(*states)


def test_train_step_rejects_a_nan_reward_before_any_update(small_env):
    agent = GrantAgent(small_env, TrainConfig(seed=1))
    states, ratios, tensors = _transition(agent, small_env)
    before = [p.data.copy() for p in agent.parameters()]
    with pytest.raises(TrainingError, match="TD target"):
        agent.train_step(states, ratios, float("nan"), states, tensors)
    for p, b in zip(agent.parameters(), before):
        assert np.array_equal(p.data, b), p.name


def _frozen_call(agent):
    """True inside train_step's actor-ascent pass."""
    return not any(p.requires_grad for p in agent.critic_params)


def test_train_step_rejects_a_nan_policy_value_before_the_actor_step(
        small_env, monkeypatch):
    agent = GrantAgent(small_env, TrainConfig(seed=1))
    states, ratios, tensors = _transition(agent, small_env)
    q_value = agent.q_value

    def nan_q_pi(*args):
        q = q_value(*args)
        return q * float("nan") if _frozen_call(agent) else q

    monkeypatch.setattr(agent, "q_value", nan_q_pi)
    before = [p.data.copy() for p in agent.actor_params]
    with pytest.raises(TrainingError, match="pi"):
        agent.train_step(states, ratios, -50.0, states, tensors)
    for p, b in zip(agent.actor_params, before):
        assert np.array_equal(p.data, b), p.name
    assert all(p.requires_grad for p in agent.critic_params)


def test_train_step_restores_the_critic_when_the_policy_value_raises(
        small_env, monkeypatch):
    agent = GrantAgent(small_env, TrainConfig(seed=1))
    states, ratios, tensors = _transition(agent, small_env)
    q_value = agent.q_value

    def failing_q_pi(*args):
        if _frozen_call(agent):
            raise RuntimeError("q_pi")
        return q_value(*args)

    monkeypatch.setattr(agent, "q_value", failing_q_pi)
    with pytest.raises(RuntimeError, match="q_pi"):
        agent.train_step(states, ratios, -50.0, states, tensors)
    assert all(p.requires_grad for p in agent.critic_params)


def _lean_agent(cls, steps):
    cfg = TrainConfig(seed=1, steps=steps)
    if cls is MaddpgFcAgent:
        return cls(make_env(seed=1, steps=steps + 1), cfg, actor_width=16,
                   critic_width=32)
    return cls(make_env(seed=1, steps=steps + 1), cfg)


@pytest.mark.parametrize("cls", [GrantAgent, MaddpgFcAgent])
def test_lean_training_equals_the_reference_step(cls, monkeypatch):
    """The reused policy forward and the frozen critic change no bit of the
    parameters or the (critic_loss, q_value) history."""
    steps = 4
    ref = _lean_agent(cls, steps)
    ref_history = reference_run_training(ref)

    agent = _lean_agent(cls, steps)
    forwards, critic_grads = [], []
    actor_tensors, actor_step = agent.actor_tensors, agent.actor_opt.step

    def spy_forward(*states):
        forwards.append(states)
        return actor_tensors(*states)

    def spy_step(**kwargs):
        critic_grads.extend(p.grad for p in agent.critic_params)
        return actor_step(**kwargs)

    monkeypatch.setattr(agent, "actor_tensors", spy_forward)
    monkeypatch.setattr(agent.actor_opt, "step", spy_step)
    history = [(r["critic_loss"], r["q_value"]) for r in agent.run_training()]

    assert np.array_equal(history, ref_history)
    for p, q in zip(agent.parameters(), ref.parameters()):
        assert p.name == q.name
        assert np.array_equal(p.data, q.data), p.name
    assert len(forwards) == 2 * steps
    assert len(critic_grads) == steps * len(agent.critic_params)
    assert all(g is None for g in critic_grads)
    assert all(p.requires_grad for p in agent.critic_params)


# -- sizing -------------------------------------------------------------------

def test_parameter_count(small_env):
    agent = GrantAgent(small_env, TrainConfig())
    count = agent.parameter_count()
    assert count == 96_092
    assert 5e4 <= count <= 5e5


def test_determinism_same_seed(small_env):
    a = GrantAgent(small_env, TrainConfig(seed=9))
    b = GrantAgent(small_env, TrainConfig(seed=9))
    snap = small_env.snapshot()
    ba, ra, _ = a.act(snap, explore=True)
    bb, rb, _ = b.act(snap, explore=True)
    for x, y in zip(ra, rb):
        assert np.array_equal(x, y)
    assert np.array_equal(ba.offload, bb.offload)


# -- involved-set pruning -----------------------------------------------------

def test_prune_involved_toy():
    sources = [10]
    neighbor_order = {10: [2, 11, 30, 40]}
    route_hops = {10: ((10, 5),), 2: ((2, 10), (10, 5)), 5: ((5, GS_NODE),)}
    involved, node_index, edges = prune_involved(sources, neighbor_order,
                                                 route_hops, 5)
    adj = dense_adjacency(len(involved), edges)
    assert involved == [2, 5, 10, 11, 30, 40]
    assert node_index[10] == involved.index(10)
    assert adj.shape == (6, 6)
    assert np.array_equal(adj, adj.T)
    # source-neighbor and route-hop edges exist; GS pseudo node adds none
    for nbr in (2, 11, 30, 40):
        assert adj[node_index[10], node_index[nbr]] == 1.0
    assert adj[node_index[10], node_index[5]] == 1.0
    assert adj[node_index[2], node_index[10]] == 1.0
    assert adj[node_index[11], node_index[30]] == 0.0


def test_prune_involved_minimal():
    involved, node_index, edges = prune_involved([], {}, {}, 7)
    assert involved == [7]
    assert node_index == {7: 0}
    assert np.array_equal(dense_adjacency(1, edges), np.zeros((1, 1)))


@pytest.mark.parametrize("cls", [GrantAgent, MaddpgFcAgent])
def test_training_leaves_no_cyclic_garbage(cls):
    """Each step's autodiff graph is freed by reference counting alone, so
    no step graph waits in memory for the cyclic collector."""
    agent = cls(make_env(seed=1, steps=3), TrainConfig(seed=1, steps=2))
    gc.collect()
    gc.disable()
    try:
        agent.run_training()
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- the dense propagation path the neighbor table replaced ------------------

#: relative bound on a parameter's drift from the dense GCN path after a few
#: training steps; only the summation order of A_norm @ F differs
DENSE_PATH_PARAM_RTOL = 1e-8


def _train(seed, steps, dense, monkeypatch):
    agent = GrantAgent(make_env(seed=seed, steps=steps),
                       TrainConfig(seed=seed, steps=steps))
    rows = []
    with monkeypatch.context() as m:
        if dense:
            m.setattr(GcnLayer, "__call__", dense_gcn_call)
        agent.run_training(on_step=lambda _, rec: rows.append(
            _metrics_row(rec["step"], rec["outcome"])))
    return rows, agent.parameters()


@pytest.mark.parametrize("seed", [1, 2])
def test_training_matches_the_dense_gcn_path(seed, monkeypatch):
    rows, params = _train(seed, 4, False, monkeypatch)
    dense_rows, dense_params = _train(seed, 4, True, monkeypatch)
    assert rows == dense_rows
    for p, q in zip(params, dense_params):
        assert p.name == q.name
        assert np.all(np.abs(p.data - q.data)
                      <= DENSE_PATH_PARAM_RTOL * np.abs(q.data)), p.name


def _arrays(obj, seen=None):
    """Every ndarray reachable from obj through terasec objects, lists,
    tuples and dicts; the window (SecWindow) is not the agent's own state."""
    seen = set() if seen is None else seen
    if id(obj) in seen or isinstance(obj, SecWindow):
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
        return
    if isinstance(obj, dict):
        children = list(obj.values())
    elif isinstance(obj, (list, tuple)):
        children = list(obj)
    elif type(obj).__module__.startswith("terasec"):
        children = list(getattr(obj, "__dict__", {}).values())
        children += [getattr(obj, name) for cls in type(obj).__mro__
                     for name in getattr(cls, "__slots__", ())
                     if hasattr(obj, name)]
    else:
        return
    for child in children:
        yield from _arrays(child, seen)


def test_no_dense_graph_matrix_is_kept():
    """Neither the agent nor its encoded states hold an n x n array."""
    env = make_env(seed=1, steps=3)
    agent = GrantAgent(env, TrainConfig(seed=1, steps=2))
    agent.run_training()
    states = agent.encode(env.snapshot())
    n = len(env.involved)
    sizes = [a.size for a in _arrays((agent, states))]
    assert len(sizes) > len(agent.parameters())
    assert max(sizes) < n * n
