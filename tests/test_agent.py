import copy
import functools
import gc
import math
import tracemalloc

import numpy as np
import pytest

from terasec import autodiff
from terasec.agent import (LOGIT_BOUND, OFFLOAD_FEATURES, OUTCOME_FEATURES,
                           CentralCritic, GcnActor, GrantAgent, TrainConfig,
                           TrainingError, bound_logits, explore_group, frozen,
                           head_specs, logit_bias, read_heads, safe_init,
                           td_target, zero_grads)
from terasec.autodiff import (Adam, Dense, GcnLayer, Tensor, _neighbor_sum,
                              normalized_adjacency, sub_graph)
from terasec.baselines import MaddpgFcAgent
from terasec.env import GS_NODE, SecWindow, tree_closure
from terasec.harness import _metrics_row

from conftest import loss_history, make_env, policy_ratios, random_simplex
import gcn_reference
from gcn_reference import (PerPhaseGrantAgent, dense_adjacency,
                           dense_gcn_call, dense_matrix, permuted_table)
from backward_reference import (chain_critic_input, graph_nodes, mse, scale,
                                walk_from)
from train_reference import reference_run_training, reference_train_step


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


def _bits(a):
    return a.shape, a.tobytes()


def _signed_logits(rng, rows, cols):
    """Logits wide enough to saturate tanh(z / L) in places, with whole rows
    of -0.0 and +0.0."""
    z = rng.standard_normal((rows, cols)) * (3 * LOGIT_BOUND)
    z[rng.random(rows) < 0.2] = -0.0
    z[rng.random(rows) < 0.1] = 0.0
    return z


@pytest.mark.parametrize("case", ["leaf", "head", "shared"])
def test_bound_logits_has_the_bits_of_the_three_op_chain(case):
    """bound_logits as one op and as the scale, tanh and scale-back chain
    it replaced, on a leaf, behind a Dense head read through a softmax, and
    on logits that also reach the output unbounded: the output and every
    leaf's .grad have the same bits, signed zeros in the logits, the input
    and the seed included."""
    results = []
    for bound in (bound_logits, gcn_reference.chain_bound_logits):
        rng = np.random.default_rng(3)
        seed = _signed_logits(rng, 40, 17)
        if case == "leaf":
            z = Tensor(_signed_logits(rng, 40, 17), requires_grad=True)
            leaves, out = [z], bound(z)
        else:
            x = Tensor(_signed_logits(rng, 40, 9), requires_grad=True)
            head = Dense(rng, 9, 17, "head", 3.0)
            leaves, z = [x, head.w, head.b], head(x)
            out = (bound(z).softmax_rows() if case == "head"
                   else bound(z) + z)
        out.backward(seed)
        assert all(t.grad is not None for t in leaves)
        results.append([_bits(a) for a in (out.data,
                                           *(t.grad for t in leaves))])
    assert results[0] == results[1]


# -- state encoding -----------------------------------------------------------

def test_encode_state_shapes_and_flags(small_env):
    agent = GrantAgent(small_env, TrainConfig())
    f_to, f_ot = agent.encode(small_env.snapshot())
    n = len(small_env.involved)
    assert f_to.shape == (n, 9)
    assert f_ot.shape == (n, 8)
    # both phases' actors read the agent's one read-only neighbor table of
    # the normalized adjacency, at most 4 ISLs plus the self-loop wide
    tables = []
    for actor in (agent.actor_to, agent.actor_ot):
        def spy(features, table, *sub, forward=actor.forward):
            tables.append(table)
            return forward(features, table, *sub)
        actor.forward = spy
    agent.actor_tensors(f_to, f_ot)
    assert len(tables) == 2 and tables[0] is tables[1] is agent.table
    for part in agent.table:
        assert part.shape[0] == n and part.shape[1] <= 5
        assert not part.flags.writeable
    # normalized plane/slot indices stay in [0, 1]
    assert np.all(f_to[:, :2] >= 0.0)
    assert np.all(f_to[:, :2] <= 1.0)
    # membership flags are binary and mark exactly the sources / GS satellite
    phi_off = f_to[:, 7]
    assert set(np.unique(phi_off)) <= {0.0, 1.0}
    assert int(phi_off.sum()) == len(small_env.sources)
    phi_gs = f_to[:, 8]
    assert int(phi_gs.sum()) == 1
    assert small_env.involved[int(np.argmax(phi_gs))] == small_env.gs_flat
    assert np.array_equal(f_ot[:, 7], phi_gs)
    # expected offload demand normalizes to 1 at the sources
    demand = f_to[:, 2]
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
    row = {v: i for i, v in enumerate(env.involved.tolist())}
    phi_off = np.zeros(n)
    expected_off = np.zeros(n)
    for s in env.sources:
        phi_off[row[s]] = 1.0
        expected_off[row[s]] = env.traffic_cfg.mean_bytes_per_slot
    phi_gs = np.zeros(n)
    phi_gs[row[env.gs_flat]] = 1.0
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
            assert np.array_equal(state, features)
            assert np.array_equal(dense_matrix(agent.table), a_norm)
        checked.append(env.step_idx)
        return states

    agent.encode = checked_encode
    agent.run_training()
    assert checked == [0, 1, 2, 3]


@pytest.mark.parametrize("n_sources,seed", [(10, 1), (50, 2), (200, 3)])
def test_static_features_equal_the_per_satellite_rebuild(n_sources, seed):
    """The static columns the agent lays out at set-up (plane, slot, L_e
    over the mean demand, zero SINRs, phi_off, phi_gs) equal the per-slot
    rebuild's, value and sign bit."""
    env = make_env(seed=seed, steps=1, n_sources=n_sources)
    agent = GrantAgent(env, TrainConfig(seed=seed, steps=1, hidden_width=8))
    ref = reference_snapshot(env)
    c = env.c.cfg
    zero = np.zeros(len(env.involved))
    want = np.stack(
        [ref["planes"] / max(c.planes - 1, 1),
         ref["slots"] / max(c.sats_per_plane - 1, 1),
         ref["expected_offload_bytes"] / env.traffic_cfg.mean_bytes_per_slot,
         zero, zero, zero, zero, ref["phi_off"], ref["phi_gs"]], axis=1)
    got = agent.static_features
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert not got.flags.writeable


# -- safe initialization ------------------------------------------------------

def test_safe_init_zero_input_oracles():
    rng = np.random.default_rng(0)
    spec_to, spec_ot = head_specs(5)
    actor_to = GcnActor(rng, OFFLOAD_FEATURES, 8, spec_to, "actor_to")
    actor_ot = GcnActor(rng, OUTCOME_FEATURES, 8, spec_ot, "actor_ot")
    safe_init(actor_to.heads, actor_ot.heads)
    # with zero embeddings the heads output exactly their biases
    e2, e4 = math.exp(2.0), math.exp(-4.0)
    self_share = e2 / (e2 + 4.0)
    slack5 = e4 / (4.0 + e4)
    zero = Tensor(np.zeros((1, 8)))
    off = bound_logits(actor_to.heads[0](zero)).softmax_rows().data
    assert abs(off[0, 0] - self_share) < 1e-12
    sub = bound_logits(actor_to.heads[1](zero)).softmax_rows().data
    assert abs(sub[0, -1] - slack5) < 1e-12
    pw = bound_logits(actor_to.heads[2](zero)).softmax_rows().data
    assert abs(pw[0, -1] - e4 / (20.0 + e4)) < 1e-12
    ot_sub = bound_logits(actor_ot.heads[0](zero)).sigmoid().data
    assert abs(ot_sub[0, 0] - 1.0 / (1.0 + e4)) < 1e-12


def test_safe_init_full_forward_spends_budgets(small_env):
    agent = GrantAgent(small_env, TrainConfig())
    bundle = agent.act(small_env.snapshot())
    assert np.all(bundle.to_subarrays.sum(axis=1) >= 0.9)
    assert np.all(bundle.to_power.sum(axis=1) >= 0.9)
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
    ratios = list(policy_ratios(agent, small_env.snapshot()))
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
    ratios = policy_ratios(agent, small_env.snapshot())
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
    # an overflowing critic skip rate, and an actor that reaches the delay
    # cap with every value finite
    with pytest.raises(TrainingError, match="<= 1"):
        TrainConfig(critic_lr=1e308)
    with pytest.raises(TrainingError, match="<= 1"):
        TrainConfig(actor_lr=1e308)
    TrainConfig(actor_lr=1.0, critic_lr=1.0)
    # 1e308's scaled noise once overflowed and withdrew every row's noise
    for std in (-1.0, 1e308, float("nan")):
        with pytest.raises(TrainingError, match=r"noise_std must be in \[0, 1"):
            TrainConfig(noise_std=std)
    TrainConfig(noise_std=1.0)


# -- permutation structure ----------------------------------------------------

def _ring_state(rng, n, n_feats):
    """(features, table) of a ring graph with random features."""
    edges = [(i, (i + 1) % n) for i in range(n)]
    feats = rng.standard_normal((n, n_feats))
    return feats, normalized_adjacency(n, edges)


def _permute_state(state, perm):
    feats, table = state
    return feats[perm], permuted_table(table, perm)


def test_offload_actor_permutation_equivariance():
    rng = np.random.default_rng(4)
    actor = GcnActor(np.random.default_rng(0), OFFLOAD_FEATURES, 8,
                     head_specs(2)[0], "actor_to")
    state = _ring_state(rng, 7, 9)
    perm = rng.permutation(7)
    permuted = _permute_state(state, perm)
    sources = [1, 4, 6]
    out_a = actor.forward(*state, sub_graph(state[1], sources))
    inv = np.argsort(perm)
    out_b = actor.forward(*permuted, sub_graph(permuted[1],
                                               [int(inv[s]) for s in sources]))
    for a, b in zip(out_a, out_b):
        assert np.max(np.abs(a.data - b.data)) < 1e-10


def _laid_out(*columns):
    """A per-node critic input: the column blocks side by side, constant."""
    return Tensor(np.hstack(columns))


def test_critic_permutation_invariance():
    rng = np.random.default_rng(5)
    k = 2
    critic = CentralCritic(np.random.default_rng(1), k, width=8)
    n = 6
    f_to, table = _ring_state(rng, n, 9)
    f_ot = rng.standard_normal((n, 8))
    act_to = rng.random((n, 5 + 4 + 4 * k))
    act_ot = rng.random((n, 1 + k))
    q = critic.forward(_laid_out(f_to, f_ot, act_to, act_ot),
                       table).data.item()
    perm = rng.permutation(n)
    p_to, p_table = _permute_state((f_to, table), perm)
    q_p = critic.forward(_laid_out(p_to, f_ot[perm], act_to[perm],
                                   act_ot[perm]), p_table).data
    assert abs(q - q_p) < 1e-10


def test_critic_usage_slope_prior():
    rng = np.random.default_rng(6)
    k = 2
    critic = CentralCritic(np.random.default_rng(2), k, width=8)
    n = 4
    f_to, table = _ring_state(rng, n, 9)
    f_ot = rng.standard_normal((n, 8))
    zero_to = np.zeros((n, 5 + 4 * k + 4))
    zero_ot = np.zeros((n, 1 + k))

    def q(a_to, a_ot):
        return critic.forward(_laid_out(f_to, f_ot, a_to, a_ot),
                              table).data.item()

    # deep output and state skip weights start at zero, so Q is exactly the
    # negative usage prior over the action columns
    base = q(zero_to, zero_ot)
    assert abs(base) < 1e-12
    full_to = np.zeros((n, 5 + 4 + 4 * k))
    full_to[:, 5:] = 1.0
    full_ot = np.ones((n, 1 + k))
    q_full = q(full_to, full_ot)
    expected = -(4 * critic.SUBARRAY_SLOPE + 4 * k * critic.POWER_SLOPE
                 + critic.SUBARRAY_SLOPE + k * critic.POWER_SLOPE)
    assert abs(q_full - expected) < 1e-12
    # offload shares carry no usage and do not move Q
    off_only = np.zeros((n, 5 + 4 + 4 * k))
    off_only[:, :5] = 1.0
    assert abs(q(off_only, zero_ot)) < 1e-12
    # linear in the allocation level
    half_to = full_to * 0.5
    assert abs(q(half_to, full_ot * 0.5) - expected / 2) < 1e-12


# -- critic learning on a synthetic fixed point -------------------------------

def test_critic_converges_to_geometric_fixed_point():
    rng = np.random.default_rng(7)
    k = 2
    critic = CentralCritic(np.random.default_rng(3), k, width=8)
    n = 5
    f_to, table = _ring_state(rng, n, 9)
    f_ot = rng.standard_normal((n, 8))
    feats = _laid_out(f_to, f_ot, rng.random((n, 5 + 4 + 4 * k)),
                      rng.random((n, 1 + k)))
    params = critic.parameters()
    opt = Adam(params, lr=0.02)
    c, kappa = -2.0, 0.5
    target = c / (1.0 - kappa)  # geometric series: -4
    q = 0.0
    for _ in range(2000):
        for p in params:
            p.grad = None
        q_t = critic.forward(feats, table)
        y = td_target(c, q_t.data.item(), kappa)
        loss = mse(q_t, Tensor(np.array([[y]])))
        loss.backward(np.ones((1, 1)))
        opt.step()
        q = q_t.data.item()
        if abs(q / target - 1.0) < 0.01:
            break
    assert abs(q / target - 1.0) < 0.01


# -- actor ascent probe -------------------------------------------------------

def test_actor_step_increases_q(small_env):
    agent = GrantAgent(small_env, TrainConfig(actor_lr=1e-7, noise_std=0.0))
    snap = small_env.snapshot()
    f_to, f_ot = agent.encode(snap)

    def q_pi():
        return agent.q_value(f_to, f_ot, agent.actor_tensors(f_to, f_ot))

    before = q_pi()
    for p in agent.actor_params + agent.critic_params:
        p.grad = None
    before.backward(np.array([[-1.0]]))   # descent on -Q
    agent.actor_opt.step()
    after = q_pi().data.item()
    assert after >= before.data.item() - 1e-9


# -- the critic's input layout ----------------------------------------------

def _layout_agent(kind, n_sources):
    env = make_env(seed=1, steps=2, n_sources=n_sources)
    if kind == "maddpg_fc":
        return MaddpgFcAgent(env, TrainConfig(seed=1, hidden_width=8),
                             critic_width=8)
    return GrantAgent(env, TrainConfig(seed=1))


@pytest.mark.parametrize("kind, n_sources", [("grant", 10), ("grant", 200),
                                             ("maddpg_fc", 10)])
def test_critic_input_equals_the_chain_it_replaced(kind, n_sources):
    """critic_input against the nine generic ops it replaced (five
    slice_cols, two concat_cols, one scatter_rows, one concat_cols): the
    input's bits, and each head tensor's gradient's bits for an incoming
    gradient holding -0.0s, NaNs and a nonzero value at each head's slack
    position (the column after its action columns)."""
    agent = _layout_agent(kind, n_sources)
    f_to, f_ot = agent.encode(agent.env.snapshot())
    n, n_src = f_to.shape[0], len(agent.sub.rows)
    rng = np.random.default_rng(n_sources)
    heads = [rng.random((rows, width))
             for rows, spec in ((n_src, agent.spec_to), (n, agent.spec_ot))
             for _, width, _, _ in spec]
    slack = np.cumsum([f_to.shape[1] + f_ot.shape[1]] + [
        cols for _, _, cols, _ in agent.spec_to + agent.spec_ot])[1:]
    g = rng.standard_normal((n, slack[-1]))
    g[::3, ::2] = -0.0
    g[1::4, 1::3] = np.nan
    g[:, slack[:-1]] = 7.0   # the last head's slack position is past the end
    runs = []
    for build in (agent.critic_input, functools.partial(chain_critic_input,
                                                        agent)):
        tensors = [Tensor(h, requires_grad=True) for h in heads]
        out = build(f_to, f_ot, tensors)
        out.grad = g.copy()
        walk_from(out)
        runs.append([out.data.tobytes()]
                    + [t.grad.tobytes() for t in tensors])
    assert runs[0] == runs[1]


def test_an_ascent_graph_lays_out_the_critic_input_in_one_op(small_env):
    """Between the five head tensors and critic.gcn1 the actor-ascent graph
    holds one op, whose parents are the head tensors themselves."""
    agent = GrantAgent(small_env, TrainConfig(seed=1))
    states = agent.encode(small_env.snapshot())
    tensors = agent.actor_tensors(*states)
    with frozen(agent.critic_params):
        q_pi = agent.q_value(*states, tensors)
    gcn1 = [t for t in graph_nodes(q_pi)
            if any(p is agent.critic.gcn1.w for p in t._parents)]
    assert len(gcn1) == 1
    layout = gcn1[0]._parents[0]
    assert len(layout._parents) == 5
    assert all(p is t for p, t in zip(layout._parents, tensors))


def _transition(agent, env):
    states = agent.encode(env.snapshot())
    ratios = agent.explore(policy_ratios(agent, env.snapshot()))
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
    """True inside train_step's actor-ascent pass: the critic frozen and the
    actors live (the TD-target pass freezes both)."""
    return (not any(p.requires_grad for p in agent.critic_params)
            and all(p.requires_grad for p in agent.actor_params))


def test_train_step_rejects_a_nan_policy_value_before_the_actor_step(
        small_env, monkeypatch):
    agent = GrantAgent(small_env, TrainConfig(seed=1))
    states, ratios, tensors = _transition(agent, small_env)
    q_value = agent.q_value

    def nan_q_pi(*args):
        q = q_value(*args)
        return scale(q, float("nan")) if _frozen_call(agent) else q

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


def _lean_agent(cls, steps, n_sources=10):
    env = make_env(seed=1, steps=steps + 1, n_sources=n_sources)
    if cls is MaddpgFcAgent:
        return cls(env, TrainConfig(seed=1, steps=steps, hidden_width=16),
                   critic_width=32)
    return cls(env, TrainConfig(seed=1, steps=steps))


def _same_values(a, b) -> bool:
    """Equal values with equal sign bits, so -0.0 differs from +0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return (np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


@pytest.mark.parametrize("cls, n_sources", [
    pytest.param(GrantAgent, 10, id="GrantAgent"),
    pytest.param(GrantAgent, 200, id="GrantAgent-200"),
    pytest.param(MaddpgFcAgent, 10, id="MaddpgFcAgent")])
def test_lean_training_equals_the_reference_step(cls, n_sources, monkeypatch):
    """The reused policy forward, the frozen critic and the seeded backward
    passes (2 (Q - y) for the critic's descent, -1 for the actors' ascent)
    change no bit, zero signs included, of the (critic_loss, q_value)
    history, the parameters or either optimizer's Adam moments, against the
    reference's mse loss and negated actor gradient."""
    steps = 4
    ref = _lean_agent(cls, steps, n_sources)
    ref_history = reference_run_training(ref)

    agent = _lean_agent(cls, steps, n_sources)
    forwards, critic_grads = [], []
    actor_tensors, actor_step = agent.actor_tensors, agent.actor_opt.step

    def spy_forward(*states):
        forwards.append(states)
        return actor_tensors(*states)

    def spy_step():
        critic_grads.extend(p.grad for p in agent.critic_params)
        return actor_step()

    monkeypatch.setattr(agent, "actor_tensors", spy_forward)
    monkeypatch.setattr(agent.actor_opt, "step", spy_step)
    history = loss_history(agent)

    assert _same_values(history, ref_history)
    for p, q in zip(agent.parameters(), ref.parameters()):
        assert p.name == q.name
        assert _same_values(p.data, q.data), p.name
    for name in ("critic_opt", "actor_opt"):
        opt, ref_opt = getattr(agent, name), getattr(ref, name)
        assert opt.step_count == ref_opt.step_count == steps
        for p, m, v, ref_m, ref_v in zip(opt.params, opt.m, opt.v,
                                         ref_opt.m, ref_opt.v):
            assert _same_values(m, ref_m), (name, p.name)
            assert _same_values(v, ref_v), (name, p.name)
    assert len(forwards) == 2 * steps
    assert len(critic_grads) == steps * len(agent.critic_params)
    assert all(g is None for g in critic_grads)
    assert all(p.requires_grad for p in agent.critic_params)


# -- one actor class against the per-phase reference -------------------------

@pytest.mark.parametrize("width", [8, 128])
@pytest.mark.parametrize("seed", [1, 2])
def test_gcn_actors_equal_the_per_phase_reference(seed, width):
    """GcnActor over the shared head spec, the shared safe_init, and the
    executed action laid out through critic_input change no bit
    against OffloadActor, OutcomeActor, their safe_init and
    action_node_constants: parameter names, initial parameters, the actor
    forward, and one TD step on an explored action."""
    _check_against_the_per_phase_reference(seed, width, 10)


def test_gcn_actors_equal_the_per_phase_reference_at_200_sources():
    """At about 1,400 nodes, where BLAS splits a full-height weight
    gradient's sum over rows into blocks: the offloading actor's layers
    computed on the sources' sub-graph have the bits of the reference's
    propagate, matmul and tanh chains on the same rows (the first at hop,
    scattered to full height, the last at the sources)."""
    _check_against_the_per_phase_reference(1, 128, 200)


def _check_against_the_per_phase_reference(seed, width, n_sources):
    cfg = TrainConfig(seed=seed, steps=1, hidden_width=width)
    ref, agent = (cls(make_env(seed=seed, steps=2, n_sources=n_sources), cfg)
                  for cls in (PerPhaseGrantAgent, GrantAgent))

    def bits(params):
        return [(p.name, p.data.shape, p.data.tobytes()) for p in params]

    assert bits(agent.parameters()) == bits(ref.parameters())
    def transition(a):
        """(states, explored ratios, reward, next states, policy tensors)."""
        states = a.encode(a.env.snapshot())
        tensors = a.actor_tensors(*states)
        noisy = a.explore(a._ratios_from_tensors(tensors))
        outcome, _, _ = a.env.step(a.to_bundle(noisy))
        next_states = a.encode(a.env.snapshot())
        return states, noisy, outcome.reward, next_states, tensors

    ref_step, step = transition(ref), transition(agent)
    assert len(step[4]) == len(ref_step[4]) == 5
    for t, r in zip(step[4], ref_step[4]):
        assert t.data.tobytes() == r.data.tobytes()
    for x, y in zip(step[1], ref_step[1]):
        assert x.tobytes() == y.tobytes()
    assert step[2] == ref_step[2]
    assert agent.train_step(*step) == reference_train_step(ref, *ref_step[:4])
    assert bits(agent.parameters()) == bits(ref.parameters())


# -- the offloading actor's sub-graph against the row path it replaced ------

def _tap(t: Tensor, sink: dict, key) -> Tensor:
    """t as an identity op that keeps the gradient it passes on in
    sink[key]."""
    def vjp(g):
        sink[key] = np.array(g)
        return (g,)

    return Tensor._make(t.data, (t,), vjp)


def _offloading_pass(agent, states, sub_path):
    """The offloading actor's heads at the sources, over their sub-graph or
    along the row path (gcn_reference.row_gcn_call: the first layer at
    every row, the last at the sources), and Q of them, with the critic and
    the outcome actor frozen, backward.  Returns the heads, the gradient
    into each head, into the features and into the first layer's output,
    the first layer's output, and the offloading actor's weight gradients
    by name."""
    f_to, f_ot = states
    actor, table, grads = agent.actor_to, agent.table, {}
    x = Tensor(f_to.copy(), requires_grad=True)
    zero_grads(agent.parameters())
    with frozen(agent.critic_params + agent.actor_ot.parameters()):
        if sub_path:
            h1 = _tap(actor.gcn1(x, *agent.sub.first), grads, "h1")
            emb = actor.gcn2(h1, *agent.sub.last)
        else:
            h1 = _tap(gcn_reference.row_gcn_call(actor.gcn1, x, table),
                      grads, "h1")
            emb = gcn_reference.row_gcn_call(actor.gcn2, h1, table,
                                             agent.sub.rows)
        heads = [_tap(t, grads, i) for i, t in
                 enumerate(read_heads(emb, actor.heads, actor.spec))]
        agent.q_value(f_to, f_ot, [*heads, *agent.actor_ot.forward(
            f_ot, table)]).backward(np.ones((1, 1)))
    return ([t.data for t in heads], [grads[i] for i in range(len(heads))],
            x.grad, grads["h1"], h1.data,
            {p.name: p.grad.copy() for p in actor.parameters()})


@pytest.mark.parametrize("n_sources", [10, 200])
def test_the_offloading_sub_graph_has_the_bits_of_the_row_path(n_sources):
    """The heads, the gradients into them and into the first layer's
    output, and every weight gradient but the first layer's have the row
    path's bits.  The first layer's weight gradient is the product over
    hop's rows alone: at 10 sources it has the row path's bits; at 200,
    where BLAS splits the row path's full-height sum into blocks, it
    matches it to rounding.  The features' gradient, which no run forms
    (the actor's features are constants), has the row path's bits at 200
    sources; at 10, BLAS forms the rows of the 9-wide product d @ W.T for
    50 hop rows in another order than for all 261, so it matches to
    rounding.  The row path's gradient into the first layer is zero
    outside hop."""
    agent = GrantAgent(make_env(seed=1, steps=2, n_sources=n_sources),
                       TrainConfig(seed=1, steps=1))
    states = agent.encode(agent.env.snapshot())
    hop = agent.sub.hop
    assert len(hop) < len(agent.env.involved)
    heads, head_grads, gx, g1, out1, gw = _offloading_pass(agent, states, True)
    (ref_heads, ref_head_grads, ref_gx, ref_g1, ref_out1,
     ref_gw) = _offloading_pass(agent, states, False)
    for got, want in ((heads, ref_heads), (head_grads, ref_head_grads),
                      ([g1, out1], [ref_g1[hop], ref_out1[hop]])):
        assert [_bits(a) for a in got] == [_bits(a) for a in want]
    assert not np.delete(ref_g1, hop, axis=0).any()
    if n_sources == 200:
        assert _bits(gx) == _bits(ref_gx)
    np.testing.assert_allclose(gx, ref_gx, rtol=1e-12,
                               atol=1e-15 * np.abs(ref_gx).max())
    first = "actor_to.gcn1.w"
    assert sorted(gw) == sorted(ref_gw)
    for name in gw:
        if name != first or n_sources == 10:
            assert _bits(gw[name]) == _bits(ref_gw[name]), name
    d = g1 * (1.0 - out1**2) + 0.0
    agg = _neighbor_sum(states[0], agent.table)[hop]
    assert _bits(gw[first]) == _bits(agg.T @ d)
    np.testing.assert_allclose(gw[first], ref_gw[first], rtol=1e-11, atol=0)


# -- rows computed per training step ----------------------------------------

def test_the_offloading_actor_computes_its_last_layer_at_the_sources(
        monkeypatch):
    """Every hidden-width neighbor sum of one training step on a 50-source
    window: the offloading actor's second layer reads the sources only, in
    both of its forwards, and the step sums those two forwards' rows, its
    backward's hop rows and eight full-height sums: the outcome actor's two
    forwards and one backward, and the critic's three forwards and two
    backwards."""
    env = make_env(seed=1, steps=2, n_sources=50)
    agent = GrantAgent(env, TrainConfig(seed=1, steps=1))
    n, n_src = len(env.involved), len(env.sources)
    width = agent.cfg.hidden_width
    assert n_src < n
    calls, layer = [], []
    neighbor_sum = autodiff._neighbor_sum

    def spy(x, table, out=None):
        out = neighbor_sum(x, table, out=out)
        calls.append((tuple(layer), out.shape))
        return out

    class Tagged:
        """actor_to.gcn2, tagging the neighbor sums of its forward."""

        def __init__(self, inner):
            self.inner = inner

        def __call__(self, *args):
            layer.append("actor_to.gcn2")
            try:
                return self.inner(*args)
            finally:
                layer.pop()

    monkeypatch.setattr(autodiff, "_neighbor_sum", spy)
    monkeypatch.setattr(agent.actor_to, "gcn2", Tagged(agent.actor_to.gcn2))
    agent.run_training()
    tagged = [shape for tags, shape in calls if tags]
    assert tagged == [(n_src, width)] * 2
    wide = [rows for _, (rows, cols) in calls if cols == width]
    assert len(agent.sub.hop) < n
    assert sum(wide) == 2 * n_src + len(agent.sub.hop) + 8 * n


def _has_negative_zero(a: np.ndarray) -> bool:
    return bool(np.any(np.signbit(a) & (a == 0.0)))


@pytest.mark.parametrize("n_sources,steps", [(10, 5), (200, 2)])
def test_every_neighbor_sum_of_a_run_has_the_bits_of_the_first_term_loop(
        monkeypatch, n_sources, steps):
    """The kernel adds each row's terms to a zero buffer, so a row whose
    terms are all -0.0 sums to +0.0, where the k-loop it replaced, which
    started from the first term, gave -0.0.  No run reaches such a row:
    every neighbor sum of a grant run, forward and backward, has that
    loop's bits, and no call's input or output holds -0.0."""
    agent = GrantAgent(make_env(seed=1, steps=steps + 1, n_sources=n_sources),
                       TrainConfig(seed=1, steps=steps))
    calls = []
    neighbor_sum = autodiff._neighbor_sum

    def checked(x, table, out=None):
        want = gcn_reference.first_term_neighbor_sum(x, table)
        assert not _has_negative_zero(x)
        got = neighbor_sum(x, table, out=out)
        assert got.tobytes() == want.tobytes()
        assert not _has_negative_zero(got)
        calls.append(table.idx.shape[0])
        return got

    monkeypatch.setattr(autodiff, "_neighbor_sum", checked)
    agent.run_training()
    assert len(calls) == 19 * steps


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
    ra = a.explore(policy_ratios(a, snap))
    rb = b.explore(policy_ratios(b, snap))
    for x, y in zip(ra, rb):
        assert np.array_equal(x, y)
    assert np.array_equal(a.to_bundle(ra).offload, b.to_bundle(rb).offload)


# -- involved set -------------------------------------------------------------

def test_tree_closure_toy():
    # root 5; 2 and 11 hang off 10, 30 and 41 off 31, 40 off 41, and every
    # other node off the root
    parent = np.full(50, 5)
    parent[5] = GS_NODE
    parent[[2, 11, 30, 40, 41]] = [10, 10, 31, 41, 31]
    # the server rows of two sources, 10 and 3, that share the server 2
    involved = tree_closure(parent, np.array([[10, 2, 11, 30, 40],
                                              [3, 2, 4, 6, 7]]))
    assert involved.tolist() == [2, 3, 4, 5, 6, 7, 10, 11, 30, 31, 40, 41]
    assert tree_closure(parent, [[40]]).tolist() == [5, 31, 40, 41]


def test_tree_closure_minimal():
    parent = np.full(8, 7)
    parent[7] = GS_NODE
    assert tree_closure(parent, [[7]]).tolist() == [7]
    assert tree_closure(parent, np.zeros((0, 5), dtype=int)).tolist() == []


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
