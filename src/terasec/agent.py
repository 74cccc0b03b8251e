"""GCN actor-critic allocator: pruned state encoding, multi-task actors for
the two transmission phases, a centralized critic, safe initialization and
exploration, and the on-policy TD training loop.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (Adam, Dense, GcnLayer, NeighborTable, Tensor,
                       concat_cols, mse, normalized_adjacency)
from .env import ActionBundle, SecWindow

SINR_DB_SCALE = 60.0
OFFLOAD_FEATURES = 9     # plane, slot, L_e, 4 x SINR, phi_off, phi_gs
OUTCOME_FEATURES = 8     # phi_off is dropped after offloading ends

#: actor head logits are soft-bounded to +/- LOGIT_BOUND via L*tanh(z/L) so
#: softmax/sigmoid heads can never saturate irrecoverably
LOGIT_BOUND = 8.0

#: rewards are divided by this inside the critic regression; the raw reward
#: spans [-500, -2] (delay-capped slots) and unscaled targets condition the
#: squared loss poorly
REWARD_SCALE = 100.0


def bound_logits(z: Tensor, bound: float = LOGIT_BOUND) -> Tensor:
    return (z * (1.0 / bound)).tanh() * bound if bound > 0 else z


def logit_bias(target: float, bound: float = LOGIT_BOUND) -> float:
    """Pre-tanh bias whose bounded output equals the target logit."""
    return bound * float(np.arctanh(target / bound))


class TrainingError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    kappa: float = 0.5
    steps: int = 390
    actor_lr: float = 2e-2
    critic_lr: float = 1e-2
    actor_lr_decay: float = 0.95
    decay_every_steps: int = 3
    noise_std: float = 0.3
    hidden_width: int = 128
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.kappa <= 1.0:
            raise TrainingError("kappa must be in [0, 1]")
        if min(self.actor_lr, self.critic_lr, self.actor_lr_decay) <= 0:
            raise TrainingError("learning rates and their decay must be positive")
        if min(self.steps, self.decay_every_steps, self.hidden_width) < 1:
            raise TrainingError(
                "steps, decay_every_steps and hidden_width must be >= 1")
        if self.noise_std < 0:
            raise TrainingError("noise_std must be nonnegative")


#: per-parameter-group learning-rate multipliers for the actors.  Head biases
#: move at full rate (they shift the policy homogeneously across acting
#: satellites, which is the safe descent direction); head weights and the
#: shared GCN trunk move slower so high-dimensional drift cannot starve an
#: individual link; the offload head carries no resource budget and its drift
#: can only concentrate tasks, so it is slowed with the trunk.
TRUNK_LR_SCALE = 0.02
HEAD_WEIGHT_LR_SCALE = 0.1
OFFLOAD_HEAD_LR_SCALE = 0.02

#: the critic's linear skip is tiny (one weight per pooled input column) and
#: is the pathway that has to re-learn the action slope near the latency
#: threshold, so it trains faster than the deep pathway
SKIP_LR_SCALE = 10.0


@dataclass
class PhaseState:
    """Pruned graph state for one phase: per-node features and the neighbor
    table of the normalized adjacency, built once per window from the
    involved edges and shared by both phases."""

    features: np.ndarray
    table: NeighborTable


# -- networks ----------------------------------------------------------------


class OffloadActor:
    """Shared GCN stack with offload / sub-array / power heads per source."""

    def __init__(self, rng, k_subbands, width=128):
        self.k = k_subbands
        self.gcn1 = GcnLayer(rng, OFFLOAD_FEATURES, width, "actor_to.gcn1")
        self.gcn2 = GcnLayer(rng, width, width, "actor_to.gcn2")
        self.head_offload = Dense(rng, width, 5, "actor_to.head_offload", 0.1)
        self.head_subarray = Dense(rng, width, 5, "actor_to.head_subarray", 0.1)
        self.head_power = Dense(rng, width, 4 * k_subbands + 1,
                                "actor_to.head_power", 0.1)

    def forward(self, state: PhaseState, source_rows):
        emb = self.gcn2(self.gcn1(Tensor(state.features), state.table),
                        state.table)
        src = emb.gather_rows(source_rows)
        offload = bound_logits(self.head_offload(src)).softmax_rows()
        subarray = bound_logits(self.head_subarray(src)).softmax_rows()  # 4 used + slack
        power = bound_logits(self.head_power(src)).softmax_rows()        # 4K used + slack
        return offload, subarray, power

    def parameters(self):
        return (self.gcn1.parameters() + self.gcn2.parameters()
                + self.head_offload.parameters() + self.head_subarray.parameters()
                + self.head_power.parameters())


class OutcomeActor:
    """Shared GCN stack with sub-array scalar and power heads per transmitter."""

    def __init__(self, rng, k_subbands, width=128):
        self.k = k_subbands
        self.gcn1 = GcnLayer(rng, OUTCOME_FEATURES, width, "actor_ot.gcn1")
        self.gcn2 = GcnLayer(rng, width, width, "actor_ot.gcn2")
        self.head_subarray = Dense(rng, width, 1, "actor_ot.head_subarray", 0.1)
        self.head_power = Dense(rng, width, k_subbands + 1,
                                "actor_ot.head_power", 0.1)

    def forward(self, state: PhaseState, tx_rows):
        emb = self.gcn2(self.gcn1(Tensor(state.features), state.table),
                        state.table)
        tx = emb.gather_rows(tx_rows)
        subarray = bound_logits(self.head_subarray(tx)).sigmoid()
        power = bound_logits(self.head_power(tx)).softmax_rows()  # K used + slack
        return subarray, power

    def parameters(self):
        return (self.gcn1.parameters() + self.gcn2.parameters()
                + self.head_subarray.parameters() + self.head_power.parameters())


class CentralCritic:
    """GCN over node features concatenated with zero-padded action ratios,
    mean-pooled into a scalar Q, plus a linear skip from the pooled raw
    input.

    The skip weights on the action columns are initialized to a usage-slope
    prior (usage is linear in the allocated ratios, so lowering any resource
    ratio raises the reward until latency bites), giving the critic a
    meaningful action gradient from step 0; TD updates reshape it from data.
    The power slope is steeper than the sub-array slope because link rate
    degrades only logarithmically in power but quadratically in sub-array
    count, so power is the safe dimension to descend first.  The deep
    pathway's output weights start at zero for the same reason.
    """

    SUBARRAY_SLOPE = 0.05
    POWER_SLOPE = 0.3

    def __init__(self, rng, k_subbands, width=128):
        self.k = k_subbands
        d_in = (OFFLOAD_FEATURES + OUTCOME_FEATURES
                + (5 + 4 + 4 * k_subbands) + (1 + k_subbands))
        self.d_in = d_in
        self.gcn1 = GcnLayer(rng, d_in, width, "critic.gcn1")
        self.gcn2 = GcnLayer(rng, width, width, "critic.gcn2")
        self.dense1 = Dense(rng, width, width, "critic.dense1")
        self.dense2 = Dense(rng, width, width, "critic.dense2")
        self.out = Dense(rng, width, 1, "critic.out")
        self.skip = Dense(rng, d_in, 1, "critic.skip")
        self.out.w.data[:] = 0.0
        self.skip.w.data[:] = 0.0
        k4 = 4 * k_subbands
        state_w = OFFLOAD_FEATURES + OUTCOME_FEATURES
        # action columns: offload shares carry no usage and stay at zero
        sw = self.skip.w.data
        sw[state_w + 5:state_w + 9, 0] = -self.SUBARRAY_SLOPE
        sw[state_w + 9:state_w + 9 + k4, 0] = -self.POWER_SLOPE
        sw[state_w + 9 + k4, 0] = -self.SUBARRAY_SLOPE
        sw[state_w + 10 + k4:, 0] = -self.POWER_SLOPE

    def forward(self, state_to: PhaseState, state_ot: PhaseState,
                action_to: Tensor, action_ot: Tensor):
        feats = concat_cols([Tensor(state_to.features),
                             Tensor(state_ot.features), action_to, action_ot])
        h = self.gcn2(self.gcn1(feats, state_to.table), state_to.table)
        pooled = h.mean_rows()
        h = self.dense1(pooled).tanh()
        h = self.dense2(h).tanh()
        return self.out(h) + self.skip(feats.mean_rows())

    def parameters(self):
        return (self.gcn1.parameters() + self.gcn2.parameters()
                + self.dense1.parameters() + self.dense2.parameters()
                + self.out.parameters() + self.skip.parameters())


def safe_init(actor_to: OffloadActor, actor_ot: OutcomeActor) -> None:
    """Bias output heads so the initial policy spends nearly all resources
    and keeps tasks mostly local: slack logits at -4, self-offload logit +2,
    outcome sub-array sigmoid logit +4.  Biases are set in pre-bound space
    so the bounded logits hit the targets exactly at zero input."""
    actor_to.head_offload.b.data[:] = 0.0
    actor_to.head_offload.b.data[0, 0] = logit_bias(2.0)
    actor_to.head_subarray.b.data[:] = 0.0
    actor_to.head_subarray.b.data[0, -1] = logit_bias(-4.0)
    actor_to.head_power.b.data[:] = 0.0
    actor_to.head_power.b.data[0, -1] = logit_bias(-4.0)
    actor_ot.head_subarray.b.data[:] = logit_bias(4.0)
    actor_ot.head_power.b.data[:] = 0.0
    actor_ot.head_power.b.data[0, -1] = logit_bias(-4.0)


def explore_group(ratios: np.ndarray, noise_std: float,
                  rng: np.random.Generator) -> np.ndarray:
    """Zero-sum Gaussian perturbation of each row of a ratio group ([rows,
    size], or one 1-D row), scaled by the row's largest ratio; a row's noise
    is withdrawn entirely if it would drive any component negative."""
    g = rng.standard_normal(ratios.shape)
    if noise_std <= 0.0:
        return ratios.copy()
    rows = np.atleast_2d(ratios)
    g = g.reshape(rows.shape)
    noise = ((g - g.mean(axis=1, keepdims=True))
             * (noise_std * rows.max(axis=1, keepdims=True)))
    out = rows + noise
    out = np.where(np.any(out < 0.0, axis=1, keepdims=True), rows, out)
    return out.reshape(ratios.shape)


def td_target(reward: float, q_next: float, kappa: float) -> float:
    return reward + kappa * q_next


def _require_finite(what: str, value: float) -> None:
    if not np.isfinite(value):
        raise TrainingError(f"non-finite {what}: {value}")


def zero_grads(params):
    for p in params:
        p.grad = None


def _actor_lr_scale(p) -> float:
    if "head_offload" in p.name:
        return OFFLOAD_HEAD_LR_SCALE
    if "gcn" in p.name:
        return TRUNK_LR_SCALE
    return 1.0 if p.name.endswith(".b") else HEAD_WEIGHT_LR_SCALE


class GrantAgent:
    """Two GCN actors plus a centralized GCN critic trained on-policy."""

    def __init__(self, env: SecWindow, cfg: TrainConfig):
        rng = self._bind(env, cfg)
        self.actor_to = OffloadActor(rng, self.k, cfg.hidden_width)
        self.actor_ot = OutcomeActor(rng, self.k, cfg.hidden_width)
        self.critic = CentralCritic(rng, self.k, cfg.hidden_width)
        safe_init(self.actor_to, self.actor_ot)
        self.actor_params = self.actor_to.parameters() + self.actor_ot.parameters()
        self.critic_params = self.critic.parameters()
        self.actor_opt = Adam(self.actor_params, cfg.actor_lr,
                              lr_scales=[_actor_lr_scale(p)
                                         for p in self.actor_params])
        self.critic_opt = Adam(self.critic_params, cfg.critic_lr,
                               lr_scales=[SKIP_LR_SCALE if "skip" in p.name
                                          else 1.0
                                          for p in self.critic_params])

    def _bind(self, env: SecWindow, cfg: TrainConfig):
        """Attach the window and config; returns the network-init generator."""
        self.env = env
        self.cfg = cfg
        self.k = env.band_to.n_subbands
        self.noise_rng = np.random.default_rng(
            np.random.SeedSequence(cfg.seed).spawn(1)[0])
        self.source_rows = [env.node_index[s] for s in env.sources]
        self.tx_rows = [env.node_index[t] for t in env.outcome_transmitters]
        # the window's graph is frozen: normalize it into a neighbor table
        # and lay out the static feature columns once; encode fills the
        # per-slot ones
        c = env.c.cfg
        self.mean_bytes = env.traffic_cfg.mean_bytes_per_slot
        zero = np.zeros(len(env.involved))
        self.static_features = np.stack(
            [env.node_plane / max(c.planes - 1, 1),
             env.node_slot / max(c.sats_per_plane - 1, 1),
             env.expected_offload_bytes / self.mean_bytes,
             zero, zero, zero, zero, env.phi_off, env.phi_gs], axis=1)
        self.table = normalized_adjacency(len(env.involved), env.edges)
        return np.random.default_rng(cfg.seed)

    # -- state and actions --------------------------------------------------

    def encode(self, snapshot):
        """Both phases' states: the snapshot's SINRs (columns 3-6) and, for
        the outcome phase, expected outcome load (column 2) written over the
        window's static columns."""
        f_to = self.static_features.copy()
        f_to[:, 3:7] = snapshot.sinr_to_db / SINR_DB_SCALE
        f_ot = np.delete(self.static_features, 7, axis=1)  # no phi_off
        f_ot[:, 2] = snapshot.expected_outcome_bytes / self.mean_bytes
        f_ot[:, 3:7] = snapshot.sinr_ot_db / SINR_DB_SCALE
        return PhaseState(f_to, self.table), PhaseState(f_ot, self.table)

    def actor_tensors(self, s_to: PhaseState, s_ot: PhaseState):
        offload, subarray, power = self.actor_to.forward(s_to, self.source_rows)
        ot_sub, ot_power = self.actor_ot.forward(s_ot, self.tx_rows)
        return offload, subarray, power, ot_sub, ot_power

    def _ratios_from_tensors(self, tensors):
        offload, subarray, power, ot_sub, ot_power = tensors
        return (offload.data.copy(), subarray.data.copy(), power.data.copy(),
                ot_sub.data.copy(), ot_power.data.copy())

    def act(self, snapshot, explore: bool = False):
        """The policy protocol: (ActionBundle, ratios, encoded states)."""
        s_to, s_ot = self.encode(snapshot)
        ratios = self._ratios_from_tensors(self.actor_tensors(s_to, s_ot))
        if explore:
            ratios = self.explore(ratios)
        return self.to_bundle(ratios), ratios, (s_to, s_ot)

    def explore(self, ratios):
        offload, subarray, power, ot_sub, ot_power = ratios
        std = self.cfg.noise_std
        rng = self.noise_rng
        offload = explore_group(offload, std, rng)
        subarray = explore_group(subarray, std, rng)
        power = explore_group(power, std, rng)
        # the sub-array scalar explores as the pair (s, 1 - s)
        s = ot_sub[:, 0]
        ot_sub = explore_group(np.column_stack([s, 1.0 - s]), std, rng)[:, :1]
        ot_power = explore_group(ot_power, std, rng)
        return offload, subarray, power, ot_sub, ot_power

    def to_bundle(self, ratios) -> ActionBundle:
        offload, subarray, power, ot_sub, ot_power = ratios
        n_src = len(self.env.sources)
        return ActionBundle(
            offload=offload,
            to_subarrays=subarray[:, :4],
            to_power=power[:, :4 * self.k].reshape(n_src, 4, self.k),
            ot_subarray=ot_sub[:, 0],
            ot_power=ot_power[:, :self.k])

    def _action_node_tensors(self, tensors, n_nodes):
        """Zero-padded per-node action matrices for the critic input."""
        offload, subarray, power, ot_sub, ot_power = tensors
        act_to = concat_cols([offload, subarray.slice_cols(0, 4),
                              power.slice_cols(0, 4 * self.k)])
        act_ot = concat_cols([ot_sub, ot_power.slice_cols(0, self.k)])
        return (act_to.scatter_rows(self.source_rows, n_nodes),
                act_ot.scatter_rows(self.tx_rows, n_nodes))

    def _action_node_constants(self, ratios, n_nodes):
        offload, subarray, power, ot_sub, ot_power = ratios
        act_to = np.zeros((n_nodes, 5 + 4 + 4 * self.k))
        act_to[self.source_rows] = np.concatenate(
            [offload, subarray[:, :4], power[:, :4 * self.k]], axis=1)
        act_ot = np.zeros((n_nodes, 1 + self.k))
        act_ot[self.tx_rows] = np.concatenate(
            [ot_sub, ot_power[:, :self.k]], axis=1)
        return Tensor(act_to), Tensor(act_ot)

    def q_value(self, s_to, s_ot, act_to, act_ot) -> Tensor:
        return self.critic.forward(s_to, s_ot, act_to, act_ot)

    # -- training -------------------------------------------------------------

    def train_step(self, states, exec_ratios, reward, next_states,
                   policy_tensors):
        """One TD step; returns (critic_loss, q_value) for the executed action.

        `policy_tensors` is actor_tensors(*states) under the current actor
        parameters: the acting forward, reused for the actor-ascent pass.
        Raises TrainingError, before the optimizer step that would apply it,
        on a non-finite TD target, critic loss or Q(s, pi(s)).
        """
        if (states is None or next_states is None or exec_ratios is None
                or policy_tensors is None):
            raise TrainingError("incomplete transition")
        s_to, s_ot = states
        ns_to, ns_ot = next_states
        n = s_to.features.shape[0]

        # bootstrapped target under the current deterministic policy; the
        # critic regresses rewards in REWARD_SCALE units
        next_tensors = self.actor_tensors(ns_to, ns_ot)
        na_to, na_ot = self._action_node_tensors(next_tensors, n)
        q_next = self.q_value(ns_to, ns_ot, na_to, na_ot).data.item()
        y = td_target(reward / REWARD_SCALE, q_next, self.cfg.kappa)
        _require_finite("TD target", y)

        # critic descent on the TD error for the executed (noisy) action
        zero_grads(self.actor_params + self.critic_params)
        a_to, a_ot = self._action_node_constants(exec_ratios, n)
        q = self.q_value(s_to, s_ot, a_to, a_ot)
        loss = mse(q, Tensor(np.array([[y]])))
        critic_loss = loss.data.item()
        _require_finite("critic loss", critic_loss)
        loss.backward()
        self.critic_opt.step()
        q_val = q.data.item() * REWARD_SCALE

        # actor ascent on Q(s, pi(s)) with the critic frozen: its weights
        # build no gradients in this forward and backward pass
        zero_grads(self.actor_params + self.critic_params)
        pa_to, pa_ot = self._action_node_tensors(policy_tensors, n)
        for p in self.critic_params:
            p.requires_grad = False
        try:
            q_pi = self.q_value(s_to, s_ot, pa_to, pa_ot)
            _require_finite("Q(s, pi(s))", q_pi.data.item())
            q_pi.backward()
        finally:
            for p in self.critic_params:
                p.requires_grad = True
        self.actor_opt.step(maximize=True)
        zero_grads(self.actor_params + self.critic_params)
        return critic_loss, q_val

    def run_training(self, on_step=None):
        """Algorithm: act with exploration noise, step the environment, TD-update
        the critic and ascend both actors; decay the actor lr on schedule."""
        env = self.env
        history = []
        states = self.encode(env.snapshot())
        for step in range(self.cfg.steps):
            tensors = self.actor_tensors(*states)
            ratios = self._ratios_from_tensors(tensors)
            noisy = self.explore(ratios) if self.cfg.noise_std > 0 else ratios
            bundle = self.to_bundle(noisy)
            outcome, _, _ = env.step(bundle)
            next_states = self.encode(env.snapshot())
            critic_loss, q_val = self.train_step(states, noisy, outcome.reward,
                                                 next_states, tensors)
            if (step + 1) % self.cfg.decay_every_steps == 0:
                self.actor_opt.lr *= self.cfg.actor_lr_decay
            record = {"step": step, "outcome": outcome,
                      "critic_loss": critic_loss, "q_value": q_val,
                      "actor_lr": self.actor_opt.lr}
            history.append(record)
            if on_step is not None:
                on_step(self, record)
            states = next_states
        return history

    def parameters(self):
        return self.actor_params + self.critic_params

    def parameter_count(self) -> int:
        return int(sum(p.data.size for p in self.parameters()))
