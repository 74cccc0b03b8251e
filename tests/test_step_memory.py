"""What a training step holds on to: Tensor.backward frees the graph as it
walks it (against the whole-graph sweep it replaced), a GCN layer keeps
its output and no more than the aggregation its weight gradient reads, its
backward holds one hidden-width transient, the TD-target pass records no
graph, the dense baseline forms no whole actor weight gradient, the process
keeps the heap a step frees, and a run's summary reports its page faults
and peak resident set."""
import copy
import json
import math
import os
import subprocess
import sys
import tracemalloc
import types

import numpy as np
import pytest

from terasec import agent as agent_module
from terasec.agent import GrantAgent, TrainConfig, frozen, keep_freed_heap
from terasec.autodiff import GraphStateError, Parameter, Tensor
from terasec.baselines import MaddpgFcAgent
from terasec.harness import ExperimentConfig, run_experiment

from backward_reference import (graph_nodes, reference_backward, scale,
                                tensor_sum)
from conftest import loss_history, make_env


def _agent(cls, steps):
    """A 10-source learner; the dense one narrow enough to train quickly."""
    env = make_env(seed=1, steps=steps + 1)
    if cls is MaddpgFcAgent:
        return cls(env, TrainConfig(seed=1, steps=steps, hidden_width=16),
                   critic_width=32)
    return cls(env, TrainConfig(seed=1, steps=steps))


def _bits(a):
    return None if a is None else (a.shape, a.tobytes())


# -- the walk that frees -------------------------------------------------------

@pytest.mark.parametrize("cls", [GrantAgent, MaddpgFcAgent])
def test_the_freeing_walk_gives_every_leaf_the_reference_gradient(
        cls, monkeypatch):
    """Each graph train_step walks (critic descent, then actor ascent) is
    walked by Tensor.backward, and the same graph of an identical agent (a
    deep copy taken before the step, its policy tensors recomputed) by the
    reference sweep: every leaf's .grad has the same bits, and afterwards
    every walked op output holds no grad, closure or parents and cannot be
    walked again."""
    steps = 3
    agent = _agent(cls, steps)
    backward = Tensor.backward
    step = cls.train_step
    want, walked = [], []

    def reference(root, seed):
        nodes = graph_nodes(root)
        reference_backward(root, seed)
        want.append([_bits(t.grad) for t in nodes if t._vjp is None])

    def freeing(root, seed):
        nodes = graph_nodes(root)
        leaves = [t for t in nodes if t._vjp is None]
        inner = [t for t in nodes if t._vjp is not None]
        backward(root, seed)
        got = [_bits(t.grad) for t in leaves]
        assert got == want[len(walked)]
        assert any(g is not None for g in got)
        for t in inner:
            assert t.grad is None and t._vjp is None and not t._parents
        with pytest.raises(GraphStateError, match="walked"):
            backward(root, seed)
        walked.append(len(inner))

    def paired(states, ratios, reward, next_states, policy_tensors):
        twin = copy.deepcopy(agent, {id(agent.env): agent.env})
        monkeypatch.setattr(Tensor, "backward", reference)
        expected = step(twin, states, ratios, reward, next_states,
                        twin.actor_tensors(*states))
        monkeypatch.setattr(Tensor, "backward", freeing)
        result = step(agent, states, ratios, reward, next_states,
                      policy_tensors)
        assert result == expected
        return result

    monkeypatch.setattr(agent, "train_step", paired)
    loss_history(agent)
    assert len(want) == len(walked) == 2 * steps and min(walked) > 0


def test_a_graph_that_meets_a_walked_tensor_cannot_be_walked():
    """An op output that was walked lost its parents: a second root built
    on it raises instead of silently sending no gradient past it."""
    w = Parameter(np.ones((2, 2)), "w")
    h = (Tensor(np.ones((1, 2))) @ w).tanh()
    tensor_sum(h).backward(np.ones((1, 1)))
    grad = w.grad.copy()
    with pytest.raises(GraphStateError, match="walked"):
        tensor_sum(scale(h, 2.0)).backward(np.ones((1, 1)))
    assert np.array_equal(w.grad, grad)
    assert h._parents is None and h.data.shape == (1, 2)


# -- what a GCN layer keeps ----------------------------------------------------

#: bytes a graph may hold beyond its arrays: tensors, closures, row indices
GRAPH_SLACK = 64 << 10


def _held(build):
    """(result of build(), bytes it holds once built), by tracemalloc."""
    tracemalloc.start()
    try:
        out = build()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, held


@pytest.fixture(scope="module")
def agent200():
    agent = GrantAgent(make_env(seed=1, steps=2, n_sources=200),
                       TrainConfig(seed=1))
    return agent, agent.encode(agent.env.snapshot())


def test_a_gcn_layer_is_one_op_on_its_input_and_weight(agent200):
    """At 200 sources, each layer of the offloading actor's stack over the
    sources' sub-graph records one op whose parents are (features,
    weight)."""
    agent, (f_to, _) = agent200
    actor = agent.actor_to
    features = Tensor(f_to)
    h = actor.gcn1(features, *agent.sub.first)
    out = actor.gcn2(h, *agent.sub.last)
    assert len(h._parents) == 2
    assert h._parents[0] is features and h._parents[1] is actor.gcn1.w
    assert len(out._parents) == 2
    assert out._parents[0] is h and out._parents[1] is actor.gcn2.w


def test_the_actor_graph_keeps_outputs_and_aggregations_only(agent200):
    """At 200 sources, the graph of one actor_tensors call holds each GCN
    layer's output and aggregation (the offloading actor's at hop's rows
    and the sources) and each head's four activations, with no
    pre-activation buffer beside them."""
    agent, states = agent200
    width, n = agent.cfg.hidden_width, states[0].shape[0]
    m, hop = len(agent.sub.rows), len(agent.sub.hop)
    gcn = sum(rows * (d_in + width) for rows, d_in in (
        (hop, states[0].shape[1]), (m, width), (n, states[1].shape[1]),
        (n, width)))
    # matmul, bias, bounded logits and the activation of each head
    heads = sum(4 * rows * d_out
                for rows, spec in ((m, agent.spec_to), (n, agent.spec_ot))
                for _, d_out, _, _ in spec)
    tensors, held = _held(lambda: agent.actor_tensors(*states))
    assert all(t.requires_grad for t in tensors)
    assert held <= 8 * (gcn + heads) + GRAPH_SLACK


@pytest.mark.parametrize("weight", ["frozen", "live"])
def test_a_frozen_gcn_layer_keeps_no_aggregation(agent200, weight):
    """A layer whose weight needs no gradient keeps its output alone, as
    the critic's layers do in the actor-ascent pass; a live one keeps the
    aggregation its weight gradient reads, too."""
    agent, _ = agent200
    layer, table = agent.critic.gcn2, agent.table
    n = table.idx.shape[0]
    x = Tensor(np.random.default_rng(0).standard_normal(
        (n, layer.w.shape[0])), requires_grad=True)
    if weight == "frozen":
        with frozen([layer.w]):
            out, held = _held(lambda: layer(x, table))
        agg = 0
    else:
        out, held = _held(lambda: layer(x, table))
        agg = x.data.nbytes
    assert out.requires_grad
    assert held <= out.data.nbytes + agg + GRAPH_SLACK


def test_the_critic_descent_backward_holds_one_transient_per_layer(
        agent200, monkeypatch):
    """At 200 sources, the critic-descent backward of one train_step peaks
    at most two [n, width] buffers above what its graphs hold: 1.5 here,
    3.5 when the mean's gradient was made full height, the aggregation kept
    to the end and the neighbor sum written to a fresh buffer."""
    agent, states = agent200
    agent = copy.deepcopy(agent, {id(agent.env): agent.env})
    buffer = 8 * states[0].shape[0] * agent.cfg.hidden_width
    backward = Tensor.backward
    peaks = []

    def measured(root, seed):
        tracemalloc.reset_peak()
        held, _ = tracemalloc.get_traced_memory()
        backward(root, seed)
        peaks.append(tracemalloc.get_traced_memory()[1] - held)

    monkeypatch.setattr(Tensor, "backward", measured)
    tensors = agent.actor_tensors(*states)
    ratios = agent.explore(agent._ratios_from_tensors(tensors))
    tracemalloc.start()
    try:
        agent.train_step(states, ratios, -50.0, states,
                         agent.actor_tensors(*states))
    finally:
        tracemalloc.stop()
    assert len(peaks) == 2
    assert peaks[0] <= 2 * buffer


def test_a_dense_training_step_forms_no_stacked_actor_gradient():
    """A dense train_step at 10 sources and hidden width 128 allocates less
    than one stacked actor_ot.fc2 weight above what it held before the
    step: each actor and critic weight gradient is held as a RankOneGrad
    and formed by Adam a block at a time (1.6 MB here; 40.7 MB when the
    [involved, 128, 128] gradients were formed whole)."""
    agent = MaddpgFcAgent(make_env(seed=1, steps=2), TrainConfig(seed=1))
    assert agent.cfg.hidden_width == 128
    transition = _transition(agent)
    tracemalloc.start()
    try:
        agent.train_step(*transition)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert agent.actor_opt.step_count == 1
    assert peak < agent.actor_ot.fc2.w.data.nbytes, peak


# -- the TD-target pass --------------------------------------------------------

def _target_pass(agent):
    """True inside train_step's TD-target pass: every parameter frozen."""
    return not any(p.requires_grad for p in agent.parameters())


def _transition(agent):
    env = agent.env
    states = agent.encode(env.snapshot())
    tensors = agent.actor_tensors(*states)
    ratios = agent.explore(agent._ratios_from_tensors(tensors))
    return states, ratios, -50.0, states, tensors


@pytest.mark.parametrize("cls", [GrantAgent, MaddpgFcAgent])
def test_the_td_target_pass_records_no_graph(cls, monkeypatch):
    agent = _agent(cls, 1)
    made = []
    make = Tensor._make

    def spy(data, parents, vjp, owned=False):
        out = make(data, parents, vjp, owned)
        if _target_pass(agent):
            made.append(out)
        return out

    monkeypatch.setattr(Tensor, "_make", staticmethod(spy))
    agent.train_step(*_transition(agent))
    assert made
    assert not any(t.requires_grad or t._vjp or t._parents for t in made)
    assert all(p.requires_grad for p in agent.parameters())


@pytest.mark.parametrize("where", ["actor_tensors", "q_value"])
@pytest.mark.parametrize("cls", [GrantAgent, MaddpgFcAgent])
def test_an_error_in_the_td_target_pass_unfreezes_every_parameter(
        cls, where, monkeypatch):
    agent = _agent(cls, 1)
    transition = _transition(agent)
    call = getattr(agent, where)

    def failing(*args):
        if _target_pass(agent):
            raise RuntimeError("target pass")
        return call(*args)

    monkeypatch.setattr(agent, where, failing)
    before = [p.data.copy() for p in agent.parameters()]
    with pytest.raises(RuntimeError, match="target pass"):
        agent.train_step(*transition)
    assert all(p.requires_grad for p in agent.parameters())
    for p, b in zip(agent.parameters(), before):
        assert np.array_equal(p.data, b), p.name


# -- the heap a step frees ------------------------------------------------------

FAULT_PROBE = """
import resource, sys
from conftest import make_env
from terasec.agent import GrantAgent, TrainConfig, keep_freed_heap
from terasec.baselines import MaddpgFcAgent
cls = {c.__name__: c for c in (GrantAgent, MaddpgFcAgent)}[sys.argv[1]]
agent = cls(make_env(seed=1, steps=9), TrainConfig(seed=1, steps=8))
faults = []
agent.run_training(on_step=lambda *_: faults.append(
    resource.getrusage(resource.RUSAGE_SELF).ru_minflt))
print(keep_freed_heap(), (faults[7] - faults[2]) / 5)
"""


def _faults_per_step(cls):
    """Minor page faults per step over steps 4 to 8 of a fresh process
    training cls at 10 sources; skips where the C library has no mallopt."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", FAULT_PROBE, cls.__name__],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    kept, per_step = proc.stdout.split()
    if kept != "True":
        pytest.skip("the C library has no mallopt")
    return float(per_step)


def test_a_training_step_reuses_the_heap_the_last_one_freed():
    """A fresh process training `grant` at 10 sources faults in at most 20
    pages per step over steps 4 to 8 (about 300 with glibc's default
    thresholds, which hand the freed heap back each step)."""
    assert _faults_per_step(GrantAgent) <= 20


def test_a_dense_training_step_reuses_the_heap_the_last_one_freed():
    """The same for the dense baseline, whose weight gradients Adam forms a
    block at a time, so a step allocates no array near the 64 MiB mmap
    threshold (when it formed its stacked [involved, 128, 128] gradients,
    over 32 MiB, a 32 MiB threshold mapped each afresh: about 180 faults
    per step)."""
    assert _faults_per_step(MaddpgFcAgent) <= 20


def test_set_up_succeeds_where_the_c_library_has_no_mallopt(monkeypatch):
    no_mallopt = types.SimpleNamespace(CDLL=lambda name: object())
    monkeypatch.setattr(agent_module, "ctypes", no_mallopt)
    keep_freed_heap.cache_clear()
    try:
        agent = GrantAgent(make_env(seed=1, steps=2), TrainConfig(seed=1))
        assert keep_freed_heap() is False
        assert agent.parameter_count() > 0
    finally:
        keep_freed_heap.cache_clear()


# -- what a run reports -----------------------------------------------------------

@pytest.mark.parametrize("policy", ["grant", "uniform"])
def test_the_summary_reports_faults_and_peak_rss(tmp_path, policy):
    cfg = ExperimentConfig.from_dict({
        "policy": policy, "train": {"steps": 3},
        "output_dir": str(tmp_path)})
    run_experiment(cfg, [1])
    path = os.path.join(str(tmp_path), f"{policy}_seed1_summary.json")
    with open(path) as fh:
        summary = json.load(fh)
    for key in ("minor_faults_per_step", "peak_rss_mb"):
        value = summary[key]
        assert isinstance(value, float) and math.isfinite(value)
        assert value >= 0.0, key
    assert summary["peak_rss_mb"] > 1.0
