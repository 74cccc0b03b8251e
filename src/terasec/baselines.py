"""Benchmark policies: stateless uniform and full-resource heuristics, and a
dense multi-agent actor-critic (private fully-connected actors per acting
satellite, one flat fully-connected critic over all involved satellites).
"""
from __future__ import annotations

import numpy as np

from .agent import (OFFLOAD_FEATURES, OUTCOME_FEATURES, GrantAgent,
                    TrainConfig, bound_logits, logit_bias)
from .autodiff import Adam, Dense, Tensor, concat_cols
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


class _DenseTrunk:
    def __init__(self, rng, d_in, width, name):
        self.fc1 = Dense(rng, d_in, width, f"{name}.fc1")
        self.fc2 = Dense(rng, width, width, f"{name}.fc2")

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(self.fc1(x).tanh()).tanh()

    def parameters(self):
        return self.fc1.parameters() + self.fc2.parameters()


class _PrivateOffloadActor:
    """One source satellite's dense actor with the shared head layout."""

    def __init__(self, rng, k, width, name):
        self.trunk = _DenseTrunk(rng, OFFLOAD_FEATURES, width, name)
        self.head_offload = Dense(rng, width, 5, f"{name}.head_offload", 0.1)
        self.head_subarray = Dense(rng, width, 5, f"{name}.head_subarray", 0.1)
        self.head_power = Dense(rng, width, 4 * k + 1, f"{name}.head_power", 0.1)

    def forward(self, x: Tensor):
        h = self.trunk(x)
        return (bound_logits(self.head_offload(h)).softmax_rows(),
                bound_logits(self.head_subarray(h)).softmax_rows(),
                bound_logits(self.head_power(h)).softmax_rows())

    def parameters(self):
        return (self.trunk.parameters() + self.head_offload.parameters()
                + self.head_subarray.parameters() + self.head_power.parameters())


class _PrivateOutcomeActor:
    def __init__(self, rng, k, width, name):
        self.trunk = _DenseTrunk(rng, OUTCOME_FEATURES, width, name)
        self.head_subarray = Dense(rng, width, 1, f"{name}.head_subarray", 0.1)
        self.head_power = Dense(rng, width, k + 1, f"{name}.head_power", 0.1)

    def forward(self, x: Tensor):
        h = self.trunk(x)
        return (bound_logits(self.head_subarray(h)).sigmoid(),
                bound_logits(self.head_power(h)).softmax_rows())

    def parameters(self):
        return (self.trunk.parameters() + self.head_subarray.parameters()
                + self.head_power.parameters())


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
    parameters and the critic consumes one flat vector, so the parameter
    count scales with the involved-set size.
    """

    def __init__(self, env: SecWindow, cfg: TrainConfig,
                 actor_width: int = 128, critic_width: int = 1024):
        rng = self._bind(env, cfg)
        self.n_nodes = len(env.involved)
        self.actors_to = [
            _PrivateOffloadActor(rng, self.k, actor_width, f"actor_to{i}")
            for i in range(len(env.sources))]
        self.actors_ot = [
            _PrivateOutcomeActor(rng, self.k, actor_width, f"actor_ot{i}")
            for i in range(len(env.outcome_transmitters))]
        d_state = OFFLOAD_FEATURES + OUTCOME_FEATURES
        d_act = (5 + 4 + 4 * self.k) + (1 + self.k)
        self.critic = _FlatCritic(rng, self.n_nodes * (d_state + d_act),
                                  critic_width)
        self.critic.fc1.w.set_live_rows(self._live_critic_inputs())
        for a in self.actors_to:
            a.head_offload.b.data[0, 0] = logit_bias(2.0)
            a.head_subarray.b.data[0, -1] = logit_bias(-4.0)
            a.head_power.b.data[0, -1] = logit_bias(-4.0)
        for a in self.actors_ot:
            a.head_subarray.b.data[:] = logit_bias(4.0)
            a.head_power.b.data[0, -1] = logit_bias(-4.0)
        self.actor_params = [p for a in self.actors_to + self.actors_ot
                             for p in a.parameters()]
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
        to = [a.forward(Tensor(s_to.features[row:row + 1]))
              for a, row in zip(self.actors_to, self.source_rows)]
        ot = [a.forward(Tensor(s_ot.features[row:row + 1]))
              for a, row in zip(self.actors_ot, self.tx_rows)]
        # one row per satellite: [1, n*cols] reshaped row-major to [n, cols]
        return tuple(concat_cols(rows).reshape(len(rows), rows[0].shape[1])
                     for rows in (*zip(*to), *zip(*ot)))

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
