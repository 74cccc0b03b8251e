"""Span tracing around terasec's public functions, from outside the package.

Class methods are patched on the class; module functions are patched in the
namespace that calls them (``terasec.agent.normalized_adjacency`` is the name
``encode_state`` looks up, not ``terasec.autodiff.normalized_adjacency``).
Each span's inclusive and self time is added, as it ends, to a per-slot
table keyed by the current slot index; ``keep_spans`` also keeps the raw
spans so their nesting can be checked.
"""
from __future__ import annotations

import functools
import os
from time import perf_counter

#: slot index used for spans that end before the first env step
SETUP_SLOT = -1


def _targets(terasec):
    """(owner, attribute, span name) for every traced entry point."""
    agent, autodiff, baselines = terasec.agent, terasec.autodiff, terasec.baselines
    constellation, env, harness = terasec.constellation, terasec.env, terasec.harness
    sec_sim, thz_link = terasec.sec_sim, terasec.thz_link
    Grant, Maddpg = agent.GrantAgent, baselines.MaddpgFcAgent
    Const = constellation.Constellation
    return [
        (Const, "positions_at", "constellation.positions_at"),
        (Const, "isl_neighbors", "constellation.isl_neighbors"),
        (Const, "shortest_path_tree", "constellation.shortest_path_tree"),
        (thz_link, "path_gain", "thz_link.path_gain"),
        (thz_link, "absorption_factor", "thz_link.absorption_factor"),
        (thz_link, "link_gain", "thz_link.link_gain"),
        (thz_link, "sinr", "thz_link.sinr"),
        (thz_link, "link_rate", "thz_link.link_rate"),
        (env, "generate_counts", "traffic.generate_counts"),
        (sec_sim, "quantize_offload", "sec_sim.quantize"),
        (sec_sim, "quantize_subarrays", "sec_sim.quantize"),
        (sec_sim, "quantize_power", "sec_sim.quantize"),
        (sec_sim, "simulate_slot", "sec_sim.simulate_slot"),
        (sec_sim, "resource_usage", "sec_sim.resource_usage"),
        (env.SecWindow, "__init__", "env.init"),
        (env.SecWindow, "step", "env.step"),
        (env.SecWindow, "snapshot", "env.snapshot"),
        (Grant, "encode", "agent.encode"),
        (Maddpg, "encode", "agent.encode"),
        (Grant, "actor_tensors", "agent.actor_forward"),
        (Grant, "q_value", "agent.critic_forward"),
        (Grant, "train_step", "agent.train_step"),
        (Maddpg, "train_step", "agent.train_step"),
        (Grant, "explore", "agent.explore"),
        (Maddpg, "explore", "agent.explore"),
        (agent, "normalized_adjacency", "autodiff.normalized_adjacency"),
        (autodiff.GcnLayer, "__call__", "autodiff.gcn"),
        (autodiff.Dense, "__call__", "autodiff.dense"),
        (autodiff.Adam, "step", "autodiff.adam"),
        (autodiff.Tensor, "backward", "autodiff.backward"),
        (harness, "save_checkpoint", "autodiff.save_checkpoint"),
        (Maddpg, "actor_tensors", "baselines.actor_forward"),
        (Maddpg, "q_value", "baselines.critic_forward"),
        (baselines.UniformPolicy, "act", "baselines.policy_act"),
        (baselines.FullResourcePolicy, "act", "baselines.policy_act"),
    ]


class Tracer:
    """Per-slot span accounting for one episode in one thread."""

    def __init__(self, keep_spans: bool = False):
        self.slot = SETUP_SLOT
        #: slot -> {span name: [calls, inclusive s, self s]}
        self.per_slot = {}
        #: (name, start, end, parent index or None, slot) when keep_spans
        self.spans = [] if keep_spans else None
        self.checkpoint_bytes = 0
        self._stack = []          # open spans: [child seconds, span index]
        self._patched = []

    def _bucket(self, name):
        table = self.per_slot.get(self.slot)
        if table is None:
            table = self.per_slot[self.slot] = {}
        rec = table.get(name)
        if rec is None:
            rec = table[name] = [0, 0.0, 0.0]
        return rec

    def wrap(self, fn, name):
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, None]
            if spans is not None:
                parent = stack[-1][1] if stack else None
                frame[1] = len(spans)
                spans.append([name, 0.0, 0.0, parent, 0])
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                dur = end - start
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                rec = self._bucket(name)
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[0]
                if spans is not None:
                    spans[frame[1]][1:] = [start, end, spans[frame[1]][3],
                                           self.slot]
        return traced

    def _patch(self, owner, attr, replacement):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self, terasec) -> None:
        for owner, attr, name in _targets(terasec):
            self._patch(owner, attr, self.wrap(getattr(owner, attr), name))
        harness = terasec.harness
        self._patch(harness, "save_checkpoint",
                    self._sizing_checkpoint(harness.save_checkpoint))
        for cls in (terasec.agent.GrantAgent, terasec.baselines.MaddpgFcAgent):
            self._patch(cls, "run_training",
                        self._tracing_callback(cls.run_training))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _sizing_checkpoint(self, save):
        @functools.wraps(save)
        def sized(path, *args, **kwargs):
            out = save(path, *args, **kwargs)
            self.checkpoint_bytes += os.path.getsize(path)
            return out
        return sized

    def _tracing_callback(self, run_training):
        """Time harness's per-slot callback (CSV rows and checkpoints)."""
        @functools.wraps(run_training)
        def run(agent, on_step=None):
            if on_step is not None:
                on_step = self.wrap(on_step, "harness.on_step")
            return run_training(agent, on_step=on_step)
        return run

    def totals(self, first_slot: int = 0) -> dict:
        """{name: [calls, inclusive s, self s]} summed over slots >= first."""
        out = {}
        for slot, table in self.per_slot.items():
            if slot < first_slot:
                continue
            for name, rec in table.items():
                acc = out.setdefault(name, [0, 0.0, 0.0])
                acc[0] += rec[0]
                acc[1] += rec[1]
                acc[2] += rec[2]
        return out

    def setup_totals(self) -> dict:
        return {name: list(rec) for name, rec in
                self.per_slot.get(SETUP_SLOT, {}).items()}
