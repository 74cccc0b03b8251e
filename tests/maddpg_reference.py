"""The dense MADDPG baseline's per-actor networks, which the stacked private
actors of terasec.baselines replaced, kept as the reference for the
differential tests: one Python-level forward per acting satellite, each
actor's parameters named `actor_to{i}.*` / `actor_ot{i}.*`, its safe-init
biases set head by head, and the critic fed a flat input built outside it.
Also the full-width flat critic, which the critic over its live input
columns replaced: an fc1 weight row for every input column.
"""
import re

import numpy as np

from terasec.agent import (OFFLOAD_FEATURES, OUTCOME_FEATURES, TrainConfig,
                           bound_logits, logit_bias)
from terasec.autodiff import Adam, Dense, Tensor
from terasec.baselines import MaddpgFcAgent, _FlatCritic
from terasec.env import SecWindow

from backward_reference import (chain_critic_input, concat_cols, reshape,
                                slice_cols)


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


class PerActorMaddpgAgent(MaddpgFcAgent):
    """MaddpgFcAgent with a list of private actor objects per phase."""

    def __init__(self, env: SecWindow, cfg: TrainConfig,
                 critic_width: int = 1024):
        actor_width = cfg.hidden_width
        rng = self._bind(env, cfg)
        self.actors_to = [
            _PrivateOffloadActor(rng, self.k, actor_width, f"actor_to{i}")
            for i in range(len(env.sources))]
        self.actors_ot = [
            _PrivateOutcomeActor(rng, self.k, actor_width, f"actor_ot{i}")
            for i in range(len(env.involved))]
        self.critic = _FlatCritic(rng, self._live_critic_inputs(),
                                  critic_width)
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

    def actor_tensors(self, f_to, f_ot):
        to = [a.forward(Tensor(f_to[row:row + 1]))
              for a, row in zip(self.actors_to, self.sub.rows)]
        ot = [a.forward(Tensor(f_ot[row:row + 1]))
              for row, a in enumerate(self.actors_ot)]
        # one row per satellite: [1, n*cols] reshaped row-major to [n, cols]
        return tuple(reshape(concat_cols(rows), len(rows), rows[0].shape[1])
                     for rows in (*zip(*to), *zip(*ot)))

    def q_value(self, f_to, f_ot, tensors) -> Tensor:
        feats = chain_critic_input(self, f_to, f_ot, tensors)
        c = self.critic
        flat = reshape(feats, 1, feats.data.size)
        h = c.fc1(slice_cols(flat, c.live)).tanh()
        return c.out(c.fc2(h).tanh())


class FullWidthMaddpgAgent(MaddpgFcAgent):
    """MaddpgFcAgent whose flat critic reads every input column, its fc1
    drawn from the same generator stream: MaddpgFcAgent's fc1 is this fc1's
    rows at the live columns."""

    def _live_critic_inputs(self):
        return np.ones_like(super()._live_critic_inputs())


def stacked_slice(stacked_params, name):
    """The per-actor parameter `name` (e.g. 'actor_ot3.fc1.w') as a view of
    its row of the stacked parameters ('actor_ot.fc1.w'[3]); other names
    map to themselves."""
    by_name = {p.name: p.data for p in stacked_params}
    m = re.fullmatch(r"(actor_to|actor_ot)(\d+)\.(.+)", name)
    if m is None:
        return by_name[name]
    prefix, i, rest = m.groups()
    row = by_name[f"{prefix}.{rest}"][int(i)]
    # a per-actor bias is one [1, o] row
    return row if row.ndim == 2 else row[None, :]
