"""Benchmark policies: stateless uniform and full-resource heuristics, and a
dense multi-agent actor-critic (private fully-connected actors per acting
satellite, stacked so one forward serves them all, and one flat
fully-connected critic over all involved satellites).
"""
from __future__ import annotations

import numpy as np

from .agent import (OFFLOAD_FEATURES, OUTCOME_FEATURES, GrantAgent,
                    TrainConfig, bound_logits, logit_bias)
from .autodiff import (Adam, Dense, StackedDense, Tensor, concat_cols,
                       xavier_uniform)
from .env import SecWindow, Snapshot


class ReconfigurationError(RuntimeError):
    """The involved set changed mid-window, which fixed-width dense
    networks cannot absorb."""


class UniformPolicy:
    """Uniform offloading (1/5 each way) with the reference bundle's
    resource split: each budget shared equally, zero slack."""

    def __init__(self, env: SecWindow):
        self.env = env

    def act(self, snapshot=None):
        """(bundle, None, None): a stateless policy has no ratios or states."""
        bundle = self.env.reference_bundle()
        bundle.offload = np.full_like(bundle.offload, 0.2)
        return bundle, None, None


class FullResourcePolicy:
    """Safe-init operating point: all tasks local, budgets nearly saturated."""

    def __init__(self, env: SecWindow):
        self.env = env

    def act(self, snapshot=None):
        """(bundle, None, None): a stateless policy has no ratios or states."""
        return self.env.reference_bundle(), None, None


def rollout_policy(env: SecWindow, policy, steps: int):
    """Act and step without learning; history records match the trained
    agents'."""
    history = []
    for step in range(steps):
        outcome, _, _ = env.step(policy.act(env.snapshot())[0])
        history.append({"step": step, "outcome": outcome,
                        "critic_loss": 0.0, "q_value": 0.0, "actor_lr": 0.0})
    return history


# -- dense multi-agent actor-critic -------------------------------------------


class _PrivateActors:
    """One phase's private dense actors as stacked layers, actor i owning
    row i of each: a tanh trunk (fc1, fc2) and linear heads (name, width).
    Each actor's matrices are drawn in turn, layer by layer, as separate
    actors would draw them."""

    def __init__(self, rng, n, d_in, width, heads, name):
        dims = [("fc1", d_in, width, 1.0), ("fc2", width, width, 1.0),
                *((head, width, d_out, 0.1) for head, d_out in heads)]
        ws = [np.empty((n, d, o)) for _, d, o, _ in dims]
        for i in range(n):
            for w, (_, d, o, scale) in zip(ws, dims):
                w[i] = xavier_uniform(rng, d, o, scale)
        self.fc1, self.fc2, *self.heads = (
            StackedDense(w, f"{name}.{key}") for w, (key, *_) in zip(ws, dims))

    def __call__(self, x: Tensor):
        """Each head's bounded logits, one row per actor, for the actors'
        stacked states x."""
        h = self.fc2(self.fc1(x).tanh()).tanh()
        return [bound_logits(head(h)) for head in self.heads]

    def parameters(self):
        return [p for layer in (self.fc1, self.fc2, *self.heads)
                for p in layer.parameters()]


class _FlatCritic:
    """Fully-connected critic over the concatenation of every involved
    satellite's state and action."""

    def __init__(self, rng, d_in, width, name="fc_critic"):
        self.fc1 = Dense(rng, d_in, width, f"{name}.fc1")
        self.fc2 = Dense(rng, width, width, f"{name}.fc2")
        self.out = Dense(rng, width, 1, f"{name}.out")
        self.out.w.data[:] = 0.0

    def forward(self, flat: Tensor) -> Tensor:
        h = self.fc1(flat).tanh()
        h = self.fc2(h).tanh()
        return self.out(h)

    def parameters(self):
        return (self.fc1.parameters() + self.fc2.parameters()
                + self.out.parameters())


class MaddpgFcAgent(GrantAgent):
    """Dense multi-agent DDPG: private per-satellite actors, flat critic.

    Same heads, quantizers, safe initialization, exploration and TD update
    as the GCN agent, but every acting satellite owns its own dense
    parameters (one row of each phase's stacked layers) and the critic
    consumes one flat vector, so the parameter count scales with the
    involved-set size.
    """

    def __init__(self, env: SecWindow, cfg: TrainConfig,
                 actor_width: int = 128, critic_width: int = 1024):
        rng = self._bind(env, cfg)
        self.n_nodes = len(env.involved)
        self.actors_to = _PrivateActors(
            rng, len(env.sources), OFFLOAD_FEATURES, actor_width,
            [("head_offload", 5), ("head_subarray", 5),
             ("head_power", 4 * self.k + 1)], "actor_to")
        self.actors_ot = _PrivateActors(
            rng, len(env.outcome_transmitters), OUTCOME_FEATURES, actor_width,
            [("head_subarray", 1), ("head_power", self.k + 1)], "actor_ot")
        d_state = OFFLOAD_FEATURES + OUTCOME_FEATURES
        d_act = (5 + 4 + 4 * self.k) + (1 + self.k)
        self.critic = _FlatCritic(rng, self.n_nodes * (d_state + d_act),
                                  critic_width)
        self.critic.fc1.w.set_live_rows(self._live_critic_inputs())
        offload, subarray, power = self.actors_to.heads
        offload.b.data[:, 0] = logit_bias(2.0)
        subarray.b.data[:, -1] = logit_bias(-4.0)
        power.b.data[:, -1] = logit_bias(-4.0)
        subarray, power = self.actors_ot.heads
        subarray.b.data[:] = logit_bias(4.0)
        power.b.data[:, -1] = logit_bias(-4.0)
        self.actor_params = (self.actors_to.parameters()
                             + self.actors_ot.parameters())
        self.critic_params = self.critic.parameters()
        self.actor_opt = Adam(self.actor_params, cfg.actor_lr)
        self.critic_opt = Adam(self.critic_params, cfg.critic_lr)

    def encode(self, snapshot):
        if len(snapshot.expected_outcome_bytes) != self.n_nodes:
            raise ReconfigurationError(
                "involved set changed mid-window; dense networks are "
                "fixed-width")
        return super().encode(snapshot)

    def actor_tensors(self, s_to, s_ot):
        offload, subarray, power = (z.softmax_rows() for z in self.actors_to(
            Tensor(s_to.features[self.source_rows])))
        ot_sub, ot_power = self.actors_ot(Tensor(s_ot.features[self.tx_rows]))
        return offload, subarray, power, ot_sub.sigmoid(), ot_power.softmax_rows()

    def _critic_input(self, s_to, s_ot, act_to, act_ot) -> Tensor:
        feats = concat_cols([Tensor(s_to.features), Tensor(s_ot.features),
                             act_to, act_ot])
        return feats.reshape(1, feats.data.size)

    def _live_critic_inputs(self) -> np.ndarray:
        """The critic input columns that can be nonzero in this window, from
        its tables alone: nonzero static features, SINRs at the rated cells,
        expected outcome inflow at servers, and actions at sources and
        outcome transmitters.  They are the nonzeros of the critic input for
        a snapshot and actions of ones in exactly those places."""
        env, n = self.env, self.n_nodes
        sinr = [np.zeros((n, 4)), np.zeros((n, 4))]
        for table, (_, rows, cols) in zip(sinr, env._sinr_cells):
            table[rows, cols] = 1.0
        inflow = np.zeros(n)
        inflow[env._offload_rows] = 1.0
        states = self.encode(Snapshot(inflow, *sinr))
        n_src, n_tx = len(self.source_rows), len(self.tx_rows)
        ones = (np.ones((n_src, 5)), np.ones((n_src, 4)),
                np.ones((n_src, 4 * self.k)), np.ones((n_tx, 1)),
                np.ones((n_tx, self.k)))
        actions = self._action_node_constants(ones, n)
        return np.flatnonzero(self._critic_input(*states, *actions).data)

    def q_value(self, s_to, s_ot, act_to, act_ot) -> Tensor:
        return self.critic.forward(self._critic_input(s_to, s_ot, act_to,
                                                      act_ot))

    # inherited unchanged; bound in this class's own namespace because the
    # benchmark's tracer (bench/spans.py) patches each class's __dict__
    explore = GrantAgent.explore
    train_step = GrantAgent.train_step
    run_training = GrantAgent.run_training
