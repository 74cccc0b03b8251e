import tracemalloc

import numpy as np
import pytest

from terasec.agent import GrantAgent, TrainConfig, frozen
from terasec.autodiff import RankOneGrad, Tensor, xavier_uniform
from terasec.baselines import (DeadInputError, FullResourcePolicy,
                               MaddpgFcAgent, UniformPolicy, _FlatCritic,
                               rollout_policy)
from terasec.env import ActionBundle
from terasec.harness import (ExperimentConfig, build_environment,
                             make_policy)

from backward_reference import graph_nodes, reshape, slice_cols, walk_from
from conftest import loss_history, make_env, policy_ratios
from maddpg_reference import (FullWidthMaddpgAgent, PerActorMaddpgAgent,
                              stacked_slice)
from optim_reference import reference_first_grad, reference_rank_one_product
from train_reference import reference_run_training, with_reference_adam


def test_uniform_bundle_values(small_env):
    policy = UniformPolicy(small_env)
    k = small_env.band_to.n_subbands
    b = policy.act()
    assert isinstance(b, ActionBundle)
    n_src, n_tx = len(small_env.sources), len(small_env.involved)
    assert [a.shape for a in vars(b).values()] == [
        (n_src, 5), (n_src, 4), (n_src, 4 * k), (n_tx, 1), (n_tx, k)]
    assert np.allclose(b.offload, 0.2)
    assert np.allclose(b.to_subarrays, 0.25)
    assert np.allclose(b.to_power, 1.0 / (4 * k))
    assert np.allclose(b.ot_subarray, 1.0)
    assert np.allclose(b.ot_power, 1.0 / k)
    # stateless: identical bundle regardless of snapshot
    b2 = policy.act(small_env.snapshot())
    assert np.array_equal(b.offload, b2.offload)


def test_uniform_quantizes_to_equal_split(small_env):
    env = small_env
    b = UniformPolicy(env).act()
    outcome, _, ((subs_to, power_to), (subs_ot, power_ot)) = env.step(
        b, advance=False)
    s_max = env.array_cfg.s_max
    p_max = env.budget.p_max_w
    assert subs_to.shape == (len(env.sources), 4)
    assert np.all(subs_to == s_max // 4)  # 16 each across 4 links
    for total in power_to.sum(axis=(1, 2)):
        assert abs(total - p_max) < 1e-9
    assert subs_ot.shape == (len(env.involved), 1)
    assert np.all(subs_ot == s_max)
    for total in power_ot.sum(axis=(1, 2)):
        assert abs(total - p_max) < 1e-9
    # zero slack saturates both budgets exactly
    assert abs(outcome.u_total - 1.0) < 1e-12


def test_full_resource_policy(small_env):
    env = small_env
    b = FullResourcePolicy(env).act()
    assert np.allclose(b.offload[:, 0], 1.0)
    outcome, tasks, _ = env.step(b, advance=False)
    assert outcome.u_total > 0.95
    # every task stays local
    assert np.all(tasks[:, 1:] == 0)
    assert np.all(tasks[:, 0] >= 0)


def test_rollout_policy_records():
    env = make_env(seed=3, steps=4, n_sources=10)
    history = list(rollout_policy(env, UniformPolicy(env), 4))
    assert len(history) == 4
    for i, rec in enumerate(history):
        # no learning, so no loss, Q value or lr fields
        assert set(rec) == {"step", "outcome"}
        assert rec["step"] == i
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
    bundle = agent.act(small_env.snapshot())
    assert np.all(bundle.to_subarrays.sum(axis=1) >= 0.9)
    assert np.all(bundle.to_power.sum(axis=1) >= 0.9)
    assert np.all(bundle.ot_subarray >= 0.9)
    assert np.all(bundle.ot_power.sum(axis=1) >= 0.9)
    assert np.all(bundle.offload[:, 0] >= 0.5)


def test_maddpg_same_seed_determinism(small_env):
    a = MaddpgFcAgent(small_env, TrainConfig(seed=4))
    b = MaddpgFcAgent(small_env, TrainConfig(seed=4))
    snap = small_env.snapshot()
    ra = a.explore(policy_ratios(a, snap))
    rb = b.explore(policy_ratios(b, snap))
    for x, y in zip(ra, rb):
        assert np.array_equal(x, y)


def test_maddpg_rejects_reconfiguration(small_env):
    agent = MaddpgFcAgent(small_env, TrainConfig())
    other = make_env(seed=2, steps=2, n_sources=8)
    # the window's tables are fixed-width: another window's snapshot does
    # not fit them
    with pytest.raises(ValueError, match="could not broadcast"):
        agent.encode(other.snapshot())


# -- the flat critic's live input columns ------------------------------------

def _observed_inputs(agent):
    """Train the agent; returns (live-column mask, mask of the critic input
    columns seen nonzero in any critic forward)."""
    critic = agent.critic
    seen = np.zeros(critic.live.size + critic.dead.size, dtype=bool)
    forward = critic.forward

    def spy(feats, table):
        seen[:] |= feats.data.ravel() != 0.0
        return forward(feats, table)

    agent.critic.forward = spy
    agent.run_training()
    live = np.zeros_like(seen)
    live[critic.live] = True
    return live, seen


@pytest.mark.parametrize("bands", [("thz", "thz"), ("ka", "ku")])
@pytest.mark.parametrize("n_sources", [10, 50])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_observed_critic_input_is_live(seed, n_sources, bands):
    steps = 6
    env = make_env(seed=seed, steps=steps + 1, n_sources=n_sources,
                   bands=bands)
    agent = MaddpgFcAgent(env, TrainConfig(seed=seed, steps=steps,
                                           hidden_width=8), critic_width=8)
    live, seen = _observed_inputs(agent)
    assert not np.any(seen & ~live), np.flatnonzero(seen & ~live)[:10]
    assert live.sum() < 0.5 * live.size


def _bench_window(steps):
    """The dense_maddpg_s10 benchmark window at seed 1."""
    cfg = ExperimentConfig.from_dict({
        "policy": "maddpg_fc", "n_sources": 10, "train": {"steps": steps},
        "source_selection": {"seed": 999_999}})
    return build_environment(cfg, 1)


def test_live_critic_inputs_equal_the_observed_ones_at_the_bench_window():
    """The dense_maddpg_s10 benchmark window at seed 1: 3,594 of 15,132
    input columns are live, and every one of them is seen nonzero."""
    steps = 8
    agent = MaddpgFcAgent(_bench_window(steps),
                          TrainConfig(seed=1, steps=steps, hidden_width=16),
                          critic_width=16)
    live, seen = _observed_inputs(agent)
    assert live.size == 15_132
    assert live.sum() == 3_594
    assert np.array_equal(seen, live)


def test_a_nonzero_dead_input_raises_before_any_optimizer_step(monkeypatch):
    env = make_env(seed=1, steps=4)
    agent = MaddpgFcAgent(env, TrainConfig(seed=1, steps=3, hidden_width=8),
                          critic_width=8)
    row = int(np.flatnonzero(agent.static_features[:, 0] == 0)[0])
    critic = agent.critic
    col = row * ((critic.live.size + critic.dead.size) // len(env.involved))
    assert col in critic.dead
    encode = agent.encode

    def leaky_encode(snapshot):
        f_to, f_ot = encode(snapshot)
        f_to[row, 0] = 0.5   # a plane-0 node's plane feature
        return f_to, f_ot

    monkeypatch.setattr(agent, "encode", leaky_encode)
    before = [p.data.copy() for p in agent.parameters()]
    with pytest.raises(DeadInputError, match=f"column {col} "):
        agent.run_training()
    assert agent.critic_opt.step_count == agent.actor_opt.step_count == 0
    for p, data in zip(agent.parameters(), before):
        assert np.array_equal(p.data, data), p.name


def test_the_live_input_critic_tracks_the_full_width_reference():
    """Against the full-width critic (an fc1 row for every input column) and
    whole-array Adam: fc1 starts as the reference's live rows and the other
    parameters equal, bit for bit; after 4 steps every parameter and the
    (critic_loss, q_value) history agree within rel 1e-9 (the lean fc1
    product sums only its live terms); the reference's dead fc1 rows end
    with their initial bits."""
    steps = 4

    def build(cls):
        return cls(make_env(seed=1, steps=steps + 1),
                   TrainConfig(seed=1, steps=steps, hidden_width=16),
                   critic_width=32)

    ref = with_reference_adam(build(FullWidthMaddpgAgent))
    lean = build(MaddpgFcAgent)
    live, dead = lean.critic.live, lean.critic.dead
    assert ref.critic.dead.size == 0 < dead.size
    ref_w, lean_w = ref.critic.fc1.w, lean.critic.fc1.w
    assert ref_w.shape == (live.size + dead.size, 32)
    assert np.array_equal(lean_w.data, ref_w.data[live])
    for p, q in zip(lean.parameters(), ref.parameters()):
        assert p.name == q.name
        if p is not lean_w:
            assert np.array_equal(p.data, q.data), p.name
    dead_init = ref_w.data[dead].copy()

    ref_history = reference_run_training(ref)
    history = loss_history(lean)
    np.testing.assert_allclose(history, ref_history, rtol=1e-9, atol=0)
    for p, q in zip(lean.parameters(), ref.parameters()):
        want = q.data[live] if p is lean_w else q.data
        np.testing.assert_allclose(p.data, want, rtol=1e-9, atol=0,
                                   err_msg=p.name)
    assert np.array_equal(ref_w.data[dead].view(np.uint64),
                          dead_init.view(np.uint64))


def _live_entry_masks():
    """Masks over a [291, 52] critic input, the dense_maddpg_s10 window's
    shape, by which entries are live: every one, one, a dead first entry
    with a live last one, and that window's own."""
    n = 291 * 52
    one = np.zeros(n, dtype=bool)
    one[n // 3] = True
    edges = np.random.default_rng(42).random(n) < 0.4
    edges[[0, -1]] = [False, True]
    agent = MaddpgFcAgent(_bench_window(steps=2),
                          TrainConfig(seed=1, steps=2, hidden_width=8),
                          critic_width=8)
    window = np.zeros(n, dtype=bool)
    window[agent.critic.live] = True
    return {"every entry": np.ones(n, dtype=bool), "one entry": one,
            "dead first, live last": edges, "bench window": window}


def _chain_live_row(critic, feats):
    """critic.live_row(feats) as the two generic ops it replaced."""
    return slice_cols(reshape(feats, 1, feats.data.size), critic.live)


def test_the_live_row_has_the_bits_of_the_chain_it_replaced():
    """_FlatCritic.live_row against slice_cols(reshape(feats, 1, size),
    live): the row's bits, and feats' gradient's bits for an incoming
    gradient holding -0.0s and NaNs, at each mask of _live_entry_masks."""
    rng = np.random.default_rng(43)
    for name, live in _live_entry_masks().items():
        critic = _FlatCritic(np.random.default_rng(0), live, 2)
        data = np.where(live, rng.standard_normal(live.size), 0.0)
        g = rng.standard_normal((1, critic.live.size))
        g[0, 1::3] = -0.0
        g[0, 2::4] = np.nan
        runs = []
        for op in (critic.live_row,
                   lambda t, c=critic: _chain_live_row(c, t)):
            feats = Tensor(data.reshape(291, 52), requires_grad=True)
            out = op(feats)
            out.grad = g.copy()
            walk_from(out)
            runs.append((out.data, feats.grad))
        for got, want in zip(*runs):
            assert got.shape == want.shape, name
            assert np.array_equal(got.view(np.uint64),
                                  want.view(np.uint64)), name


def test_an_ascent_graph_reads_the_critic_input_through_one_op(small_env):
    """Between GrantAgent.critic_input's op and the flat critic's fc1 the
    actor-ascent graph holds one op, the live row."""
    agent = MaddpgFcAgent(small_env, TrainConfig(seed=1, hidden_width=8),
                          critic_width=8)
    states = agent.encode(small_env.snapshot())
    tensors = agent.actor_tensors(*states)
    with frozen(agent.critic_params):
        q_pi = agent.q_value(*states, tensors)
    fc1 = [t for t in graph_nodes(q_pi)
           if any(p is agent.critic.fc1.w for p in t._parents)]
    assert len(fc1) == 1
    row = fc1[0]._parents[0]
    assert len(row._parents) == 1
    layout = row._parents[0]
    assert all(p is t for p, t in zip(layout._parents, tensors, strict=True))


def _run_edge_masks(n=301):
    """Live-row masks over n rows, by what they put at run edges."""
    rng = np.random.default_rng(40)
    dead_first = rng.random(n) < 0.3
    dead_first[:97] = False
    dead_first[97] = True
    live_last = rng.random(n) < 0.5
    live_last[-2:] = [False, True]
    single_rows = np.arange(n) % 2 == 1
    one_live = np.zeros(n, dtype=bool)
    one_live[n // 3] = True
    return {"dead first run": dead_first, "live last row": live_last,
            "single-row runs": single_rows,
            "all live": np.ones(n, dtype=bool), "one live row": one_live}


def _built_with_its_generator(cls, env, cfg):
    """(agent, its network-init generator once the agent is built)."""
    kept = []

    class Kept(cls):
        def _bind(self, env, cfg):
            kept.append(super()._bind(env, cfg))
            return kept[0]

    return Kept(env, cfg, critic_width=16), kept[0]


def test_the_agent_build_has_the_full_width_draws_bits_at_the_bench_window():
    """At the dense_maddpg_s10 window, where fc1's rows fall into 1,721 runs
    of live and dead rows, every parameter of the built agent has the bits
    of the full-width reference's (fc1 those of its live rows), and the
    network-init generator ends in the reference's state."""
    env = _bench_window(steps=2)
    cfg = TrainConfig(seed=1, steps=2, hidden_width=16)
    lean, lean_rng = _built_with_its_generator(MaddpgFcAgent, env, cfg)
    ref, ref_rng = _built_with_its_generator(FullWidthMaddpgAgent, env, cfg)
    live = np.zeros(ref.critic.live.size, dtype=bool)
    live[lean.critic.live] = True
    assert 1 + np.count_nonzero(np.diff(live)) == 1_721
    assert lean_rng.bit_generator.state == ref_rng.bit_generator.state
    for p, q in zip(lean.parameters(), ref.parameters(), strict=True):
        assert p.name == q.name
        want = q.data[live] if p is lean.critic.fc1.w else q.data
        assert np.array_equal(p.data.view(np.uint64),
                              want.view(np.uint64)), p.name


@pytest.mark.parametrize("width", [1, 8])
def test_fc1_is_the_full_draws_live_rows_drawn_by_runs(width):
    """fc1 has the bits of the live rows of one full-width xavier draw, over
    masks with a dead first run, a live last row, single-row runs, no dead
    row and one live row; the generator is left in the full draw's state,
    so fc2 and out are drawn as before."""
    for name, live in _run_edge_masks().items():
        drawn = np.random.default_rng(41)
        critic = _FlatCritic(drawn, live, width)
        rng = np.random.default_rng(41)
        full = xavier_uniform(rng, live.size, width)
        fc2 = xavier_uniform(rng, width, width)
        xavier_uniform(rng, width, 1)  # out, zeroed after its draw
        assert drawn.bit_generator.state == rng.bit_generator.state, name
        for got, want in ((critic.fc1.w.data, full[live]),
                          (critic.fc2.w.data, fc2),
                          (drawn.random(4), rng.random(4))):
            assert np.array_equal(got.view(np.uint64),
                                  want.view(np.uint64)), name


def test_building_the_critic_holds_no_dead_fc1_rows():
    """Building a flat critic over a mask of many short runs peaks below its
    live fc1 rows plus fc2 plus 1 MB: no full-width draw is held, nor a
    draw of 1,024 rows at a time (2 MB at this width)."""
    width = 256
    rng = np.random.default_rng(42)
    runs = rng.integers(1, 40, size=400)
    live = np.repeat(np.arange(runs.size) % 2 == 1, runs)
    tracemalloc.start()
    try:
        critic = _FlatCritic(rng, live, width)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held = critic.fc1.w.data.nbytes + critic.fc2.w.data.nbytes
    assert critic.fc1.w.shape == (np.count_nonzero(live), width)
    assert peak < held + 2**20, (peak, held)


def test_train_step_allocates_nothing_the_size_of_the_critic_fc1(monkeypatch):
    """Nothing the size of a full-width fc1 weight (input columns x width)
    is allocated, and the fc1 weight's gradient is held as its factors: one
    train_step peaks below a quarter of an fc1 gradient (1.1 of one when it
    was formed as the product), and every first gradient, once formed,
    still has the bits of a zero buffer plus the product."""
    env = make_env(seed=1, steps=3)
    agent = MaddpgFcAgent(env, TrainConfig(seed=1, steps=2, hidden_width=16),
                          critic_width=256)
    states = agent.encode(env.snapshot())
    tensors = agent.actor_tensors(*states)
    ratios = agent._ratios_from_tensors(tensors)
    outcome, _, _ = env.step(agent.to_bundle(ratios))
    next_states = agent.encode(env.snapshot())
    critic, w = agent.critic, agent.critic.fc1.w
    full_nbytes = (critic.live.size + critic.dead.size) * w.shape[1] * 8
    grad_nbytes = w.data.nbytes
    tracemalloc.start()
    try:
        agent.train_step(states, ratios, outcome.reward, next_states, tensors)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert agent.critic_opt.step_count == 1
    assert peak < full_nbytes
    assert peak < 0.25 * grad_nbytes, (peak, grad_nbytes)

    firsts, factored = [], []
    accumulate = Tensor._accumulate

    def spy(self, g, owned=False):
        product = g
        if isinstance(g, RankOneGrad):
            factored.append(self)
            product = reference_rank_one_product(g, self.data.shape)
        want = (None if self.grad is not None
                else reference_first_grad(np.zeros(self.data.shape), product))
        accumulate(self, g, owned)
        if want is not None:
            firsts.append((self, want, self.grad.copy()))

    monkeypatch.setattr(Tensor, "_accumulate", spy)
    agent.train_step(next_states, ratios, outcome.reward, next_states,
                     agent.actor_tensors(*next_states))
    assert any(t is w for t, _, _ in firsts)
    assert any(t is w for t in factored)
    for _, want, got in firsts:
        assert np.array_equal(want.view(np.uint64), got.view(np.uint64))


# -- stacked private actors against the per-actor reference ----------------

@pytest.mark.parametrize("n_sources", [1, 10])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_stacked_actors_equal_the_per_actor_reference(seed, n_sources):
    """Row i of every stacked actor layer is actor i of the per-actor
    baseline: initial weights, actor outputs, and after 4 training steps the
    parameters and the (critic_loss, q_value) history, bit for bit."""
    steps = 4

    def build(cls):
        env = make_env(seed=seed, steps=steps + 1, n_sources=n_sources)
        return cls(env, TrainConfig(seed=seed, steps=steps), critic_width=32)

    ref, agent = build(PerActorMaddpgAgent), build(MaddpgFcAgent)
    assert len(ref.actors_to) == agent.actor_to.fc1.w.shape[0] == n_sources
    assert ref.parameter_count() == agent.parameter_count()
    for p in ref.parameters():
        assert np.array_equal(p.data, stacked_slice(agent.parameters(),
                                                    p.name)), p.name
    states = agent.encode(agent.env.snapshot())
    for r, t in zip(ref.actor_tensors(*states), agent.actor_tensors(*states)):
        assert np.array_equal(r.data, t.data)
    ref_history = loss_history(ref)
    assert np.array_equal(loss_history(agent), ref_history)
    for p in ref.parameters():
        assert np.array_equal(p.data, stacked_slice(agent.parameters(),
                                                    p.name)), p.name


def test_actor_graph_size_does_not_grow_with_the_actor_count(monkeypatch):
    """One actor_tensors records as many tensors at 1 source as at 10."""
    made = []
    make = Tensor._make

    def counting(data, parents, vjp, owned=False):
        made.append(1)
        return make(data, parents, vjp, owned)

    counts = []
    for n_sources in (1, 10):
        env = make_env(seed=1, steps=2, n_sources=n_sources)
        agent = MaddpgFcAgent(env, TrainConfig(seed=1, hidden_width=8),
                              critic_width=8)
        states = agent.encode(env.snapshot())
        monkeypatch.setattr(Tensor, "_make", staticmethod(counting))
        made.clear()
        agent.actor_tensors(*states)
        counts.append(len(made))
        monkeypatch.undo()
    assert counts[0] == counts[1] > 0


def test_a_checkpoint_holds_one_stacked_tensor_per_layer(small_env):
    agent = MaddpgFcAgent(small_env, TrainConfig(hidden_width=16),
                          critic_width=8)
    shapes = {p.name: p.data.shape for p in agent.actor_params}
    n_src, n_tx = len(small_env.sources), len(small_env.involved)
    k = agent.k
    assert shapes == {
        "actor_to.fc1.w": (n_src, 9, 16), "actor_to.fc1.b": (n_src, 16),
        "actor_to.fc2.w": (n_src, 16, 16), "actor_to.fc2.b": (n_src, 16),
        "actor_to.head_offload.w": (n_src, 16, 5),
        "actor_to.head_offload.b": (n_src, 5),
        "actor_to.head_subarray.w": (n_src, 16, 5),
        "actor_to.head_subarray.b": (n_src, 5),
        "actor_to.head_power.w": (n_src, 16, 4 * k + 1),
        "actor_to.head_power.b": (n_src, 4 * k + 1),
        "actor_ot.fc1.w": (n_tx, 8, 16), "actor_ot.fc1.b": (n_tx, 16),
        "actor_ot.fc2.w": (n_tx, 16, 16), "actor_ot.fc2.b": (n_tx, 16),
        "actor_ot.head_subarray.w": (n_tx, 16, 1),
        "actor_ot.head_subarray.b": (n_tx, 1),
        "actor_ot.head_power.w": (n_tx, 16, k + 1),
        "actor_ot.head_power.b": (n_tx, k + 1),
    }


def test_the_dense_actor_width_follows_hidden_width():
    """make_policy builds maddpg_fc actors train.hidden_width wide and the
    critic 1024 wide, so the default network keeps its size: 2,509,740
    parameters at full width, less the 781 dead fc1 rows of 1024."""
    def build(train):
        cfg = ExperimentConfig.from_dict({"policy": "maddpg_fc",
                                          "n_sources": 1, "train": train})
        return make_policy("maddpg_fc", build_environment(cfg, 1), cfg, 1)

    narrow = build({"steps": 1, "hidden_width": 8})
    assert narrow.actor_to.fc1.w.shape == (1, 9, 8)
    assert narrow.actor_ot.fc2.w.shape[1:] == (8, 8)
    assert narrow.critic.fc2.w.shape == (1024, 1024)
    assert build({"steps": 1}).parameter_count() == 1_709_996
