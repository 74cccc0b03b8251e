"""Deterministic counts of one GRANT training step, pinned as exact values:
graph ops recorded, FIFO arrivals served by the simulator's outcome walk,
neighbor-sum row terms, tensors built through the public Tensor
constructor, nodes pushed by the backward walks and the numpy calls of
the neighbor sums; the graph ops of one dense-baseline step and the numpy
calls that form its rank-one weight gradients; and the simulator calls of
one compare_bands slot.
Unlike a step's time, a count does not move with the host's speed, so a
change that removes work shows here as a changed count (record the old and
new counts with it)."""
import math
import os
import threading
import types

import numpy as np
import pytest

from terasec import autodiff, harness, sec_sim, thz_link
from terasec.agent import GrantAgent, TrainConfig
from terasec.autodiff import RankOneGrad, Tensor
from terasec.baselines import MaddpgFcAgent

from conftest import make_env, set_cpus

#: n_sources -> (graph ops, FIFO arrivals served, neighbor-sum row terms,
#: Tensor() calls, nodes pushed by the backward walks)
COUNTS = {10: (54, 1_205, 19_120, 9, 54),
          200: (54, 21_495, 109_965, 9, 54)}
#: graph ops of one maddpg_fc training step at 10 sources
MADDPG_FC_OPS = 50
#: (RankOneGrad.fill calls, numpy calls inside them) of one maddpg_fc
#: training step at the dense_maddpg_s10 window, Adam split in 2 shares;
#: with 16,384-element blocks and one call per matrix they were (634, 2_174)
DENSE_FILL_CALLS = (322, 665)
#: n_sources -> (neighbor-sum calls, numpy calls inside them) of one GRANT
#: training step on one CPU: the numpy functions a sum looks up through
#: autodiff.np and the methods it calls on its input, not its views.  A row
#: block gathers its terms with one take and sums them with one einsum;
#: with the k-loop of 14 calls per row block (5 takes, 5 multiplies, 4
#: adds) they were (19, 301) and (19, 833), in 19 and 57 row blocks of at
#: most 32,768 output elements; now the blocks are 35 and 140 of at most
#: 65,536 terms
NEIGHBOR_SUM_CALLS = {10: (19, 105), 200: (19, 315)}
#: the same on 2 CPUs: a sum of GCN_SHARE_MIN output elements walks each
#: share's rows in the whole sum's row blocks, cut at the share edge, with
#: one term buffer per share; none splits at 10 sources, and 13 of the 19
#: sums at 200, 12 of which walk one block more in their two shares than
#: whole, a take and an einsum.  When each share of a split layer was a
#: call of its own, with blocks of its own height, and 16 sums split, they
#: were (35, 318)
SPLIT_NEIGHBOR_SUM_CALLS = {10: (19, 105), 200: (19, 339)}
#: calls per compare_bands slot, after the set-up: what no band changes
#: once per slot record (the propagation delays once per phase, the GS
#: downlink's path samples once), the link gains once per phase of each of
#: 3 bands and the GS downlink's absorption once per band; no route check,
#: since the window checked its RouteTree once.  When each band replay
#: converted its own delays, sampled its own downlink path and checked the
#: route order, those three counts were 6, 3 and 3 per slot
BANDS_SLOT_CALLS = {(sec_sim, "quantize_offload"): 1,
                    (sec_sim, "slot_loads"): 1,
                    (sec_sim, "resource_usage"): 1,
                    (sec_sim, "propagation_delay"): 2,
                    (thz_link, "absorption_path"): 1,
                    (sec_sim.RouteTree, "__init__"): 0,
                    (thz_link, "path_gain"): 6,
                    (thz_link, "absorption_factor"): 3}


def fifo_arrivals(release, flows, next_link, rates_ot) -> int:
    """Arrivals outcome_spans serves: each flow with bytes and a finite
    release is served once by every link of its route to the GS, up to a
    zero-rate link, which serves none."""
    served = 0
    for k in flows:
        link = -1 if math.isinf(release[k]) else k
        while link >= 0 and rates_ot[link] > 0.0:
            served += 1
            link = next_link[link]
    return served


def step_counts(monkeypatch, agent):
    """(graph ops, FIFO arrivals, neighbor-sum row terms, Tensor() calls,
    walk pushes) of one training step of agent.  The backward walk makes one
    iterator over a node's parents for each node it pushes, so the pushes
    are counted as the walk's calls of iter."""
    ops, arrivals, terms, inits, pushes = [0], [0], [0], [0], [0]
    make, spans, neighbor_sum, init = (Tensor._make, sec_sim.outcome_spans,
                                       autodiff._neighbor_sum, Tensor.__init__)

    def counted_make(data, parents, vjp, owned=False):
        out = make(data, parents, vjp, owned)
        ops[0] += out.requires_grad
        return out

    def counted_spans(release, flows, out_bytes, routes, rates_ot,
                      prop_ot_s):
        arrivals[0] += fifo_arrivals(release, flows, routes.next_list,
                                     rates_ot)
        return spans(release, flows, out_bytes, routes, rates_ot, prop_ot_s)

    def counted_sum(x, table, out=None):
        terms[0] += table.idx.size
        return neighbor_sum(x, table, out)

    def counted_init(self, data, requires_grad=False):
        inits[0] += 1
        init(self, data, requires_grad)

    def counted_iter(parents):
        pushes[0] += 1
        return iter(parents)

    monkeypatch.setattr(Tensor, "_make", staticmethod(counted_make))
    monkeypatch.setattr(sec_sim, "outcome_spans", counted_spans)
    monkeypatch.setattr(autodiff, "_neighbor_sum", counted_sum)
    monkeypatch.setattr(Tensor, "__init__", counted_init)
    monkeypatch.setattr(autodiff, "iter", counted_iter, raising=False)
    agent.run_training()
    return ops[0], arrivals[0], terms[0], inits[0], pushes[0]


@pytest.mark.parametrize("n_sources", sorted(COUNTS))
def test_one_training_step_does_the_pinned_amount_of_work(monkeypatch,
                                                          n_sources):
    """Graph ops, FIFO arrivals, neighbor-sum row terms, Tensor() calls and
    walk pushes of one step.  The critic's descent pass seeds its backward
    at Q, with no loss op.  An op builds its output without the public
    constructor, so Tensor() runs only for the step's outside input: both
    phases' features in the acting and in the TD-target forward, and the
    five executed ratios.  The backward walks push op outputs only, never a
    parameter or a constant.  The
    offloading actor runs on the sources' sub-graph: in its acting and its
    TD-target forward, its second layer reads only the source rows and its
    first layer only hop's rows, and so does its one backward.  At 200
    sources, reading the whole 1,360-node graph would add 1,160 table rows
    to each second-layer forward, and 509 (the rows outside hop's 851) to
    each first-layer forward and to the backward."""
    agent = GrantAgent(make_env(seed=1, steps=2, n_sources=n_sources),
                       TrainConfig(seed=1, steps=1))
    assert step_counts(monkeypatch, agent) == COUNTS[n_sources]


class CountingNumpy:
    """autodiff.np, counting into `calls` the names looked up while
    `inside.flag` is set: in the looking thread for a threading.local,
    in any thread for a shared namespace."""

    def __init__(self, calls, inside):
        self.calls, self.inside = calls, inside

    def __getattr__(self, name):
        if getattr(self.inside, "flag", False):
            self.calls.append(name)
        return getattr(np, name)


class CountingArray:
    """An array whose method calls are counted into `calls`."""

    def __init__(self, data, calls):
        self.data, self.calls = data, calls

    def __getattr__(self, name):
        attr = getattr(self.data, name)
        if callable(attr):
            self.calls.append(name)
        return attr


def neighbor_sum_calls(monkeypatch, n_sources, cpus):
    """(neighbor-sum calls, numpy calls inside them) of one GRANT training
    step at n_sources on `cpus` CPUs.  The flag is shared, since a split
    sum's shares look up numpy on the pool's workers too."""
    set_cpus(monkeypatch, cpus)
    agent = GrantAgent(make_env(seed=1, steps=2, n_sources=n_sources),
                       TrainConfig(seed=1, steps=1))
    sums, calls, inside = [], [], types.SimpleNamespace(flag=False)
    neighbor_sum = autodiff._neighbor_sum

    def counted_sum(x, table, out=None):
        sums.append(table.idx.shape)
        inside.flag = True
        try:
            return neighbor_sum(CountingArray(x, calls), table, out)
        finally:
            inside.flag = False

    monkeypatch.setattr(autodiff, "np", CountingNumpy(calls, inside))
    monkeypatch.setattr(autodiff, "_neighbor_sum", counted_sum)
    agent.run_training()
    return len(sums), len(calls)


@pytest.mark.parametrize("n_sources", sorted(NEIGHBOR_SUM_CALLS))
def test_one_training_step_makes_the_pinned_neighbor_sum_calls(monkeypatch,
                                                               n_sources):
    """Each neighbor-sum row block makes two numpy calls, a take of its
    terms and their einsum, beside one or two buffers per sum."""
    assert (neighbor_sum_calls(monkeypatch, n_sources, 1)
            == NEIGHBOR_SUM_CALLS[n_sources])


@pytest.mark.parametrize("n_sources", sorted(SPLIT_NEIGHBOR_SUM_CALLS))
def test_a_split_training_step_makes_the_pinned_neighbor_sum_calls(
        monkeypatch, n_sources):
    """On 2 CPUs a split sum is still one call; its shares cut a row block
    at their edge and allocate no buffer of their own."""
    assert (neighbor_sum_calls(monkeypatch, n_sources, 2)
            == SPLIT_NEIGHBOR_SUM_CALLS[n_sources])


def test_one_dense_training_step_records_the_pinned_graph_ops(monkeypatch):
    """The flat critic reads its input through one op, _FlatCritic.live_row,
    recorded in the actor-ascent pass alone: the critic descent's input is
    constant, and that pass seeds its backward at Q, with no loss op.  The
    count does not depend on the layers' widths."""
    agent = MaddpgFcAgent(make_env(seed=1, steps=2),
                          TrainConfig(seed=1, steps=1, hidden_width=8),
                          critic_width=8)
    assert step_counts(monkeypatch, agent)[0] == MADDPG_FC_OPS


def test_a_compare_bands_slot_makes_the_pinned_simulator_calls(monkeypatch,
                                                               tmp_path):
    """Each slot's replays share its record: the task table, the server
    loads, the resource usage, the propagation delays and the GS downlink's
    path samples are made once per slot, and only the link rating and the
    simulation run per band."""
    calls = dict.fromkeys(BANDS_SLOT_CALLS, 0)

    def counting(key, fn):
        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return counted

    for owner, name in BANDS_SLOT_CALLS:
        monkeypatch.setattr(owner, name,
                            counting((owner, name), getattr(owner, name)))
    at_setup = {}
    restored = harness.restored_policy

    def setup(*args):
        out = restored(*args)
        at_setup.update(calls)
        return out

    monkeypatch.setattr(harness, "restored_policy", setup)
    cfg = harness.ExperimentConfig.from_dict({
        "policy": "uniform", "n_sources": 50, "train": {"steps": 4},
        "output_dir": str(tmp_path)})
    harness.compare_bands(cfg, seed=1, steps=3)
    assert {key: (calls[key] - at_setup[key]) / 3
            for key in calls} == BANDS_SLOT_CALLS


def test_one_dense_training_step_forms_its_rank_one_gradients_in_few_calls(
        monkeypatch):
    """At the dense_maddpg_s10 window, with Adam split across 2 CPUs, the
    fills of one step's rank-one gradients (the stacked private actors'
    fc1, fc2 and heads, 291 or 10 matrices each) form each run of whole
    matrices in a block with one numpy call.  A fill makes at most two
    calls at each edge of its block (a partial row, then the partial
    matrix's whole rows), one for the run of whole matrices between them
    and one for the closing + 0.0, however many matrices the block holds."""
    cfg = harness.ExperimentConfig.from_dict({
        "policy": "maddpg_fc", "n_sources": 10, "train": {"steps": 1},
        "source_selection": {"seed": 999_999}})
    env = harness.build_environment(cfg, 1)
    agent = harness.make_policy("maddpg_fc", env, cfg, 1)
    fills, calls, inside = [], [], threading.local()
    fill = RankOneGrad.fill

    def counted_fill(self, lo, out):
        fills.append(lo)
        inside.flag = True
        try:
            return fill(self, lo, out)
        finally:
            inside.flag = False

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(autodiff, "np", CountingNumpy(calls, inside))
    monkeypatch.setattr(RankOneGrad, "fill", counted_fill)
    agent.run_training()
    assert (len(fills), len(calls)) == DENSE_FILL_CALLS
