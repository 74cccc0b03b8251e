"""GCN actor-critic allocator: pruned state encoding, multi-task actors for
the two transmission phases, a centralized critic, safe initialization and
exploration, and the on-policy TD training loop.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
from dataclasses import dataclass

import numpy as np

from .autodiff import (Adam, Dense, GcnLayer, NeighborTable, SubGraph, Tensor,
                       normalized_adjacency, sub_graph)
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


def _bounded_tanh(z: np.ndarray) -> np.ndarray:
    """tanh(z / L) as the chain computed it: z * (1 / L), then tanh."""
    t = z * (1.0 / LOGIT_BOUND)
    return np.tanh(t, out=t)


def bound_logits(z: Tensor) -> Tensor:
    """L * tanh(z / L) as one graph op that keeps its output alone: backward
    recomputes tanh(z / L) from z, which the graph holds anyway, and has the
    bits of the scale, tanh and scale-back ops it replaced."""

    def vjp(g):
        # the chain's backward: g * L plus a first gradient's zero buffer,
        # then * (1 - t**2) plus the next one, then * (1 / L)
        a = g * LOGIT_BOUND
        np.add(a, 0.0, out=a)
        d = _bounded_tanh(z.data)
        np.square(d, out=d)
        np.subtract(1.0, d, out=d)
        np.multiply(a, d, out=d)
        np.add(d, 0.0, out=d)
        return (np.multiply(d, 1.0 / LOGIT_BOUND, out=d),)

    out = _bounded_tanh(z.data)
    return Tensor._make(np.multiply(out, LOGIT_BOUND, out=out), (z,), vjp,
                        owned=True)


def logit_bias(target: float) -> float:
    """Pre-tanh bias whose bounded output equals the target logit."""
    return LOGIT_BOUND * float(np.arctanh(target / LOGIT_BOUND))


#: the dense baseline stacks one [width, width] float64 matrix per acting
#: satellite, 2 MiB each at this width
MAX_HIDDEN_WIDTH = 512

#: no useful run reaches this learning rate: at seed 1, over 20 steps, T_avg
#: stays near 92 ms at actor_lr 0.1 but reaches 6.9 s at 1 and the delay cap
#: at 10, all finite; critic_lr 1e308 overflows its skip's scaled rate to inf
MAX_LR = 1.0

#: a row's noise is withdrawn when it drives a ratio negative, so larger
#: noise perturbs fewer rows: at seed 1 about half of them at 0.3, 0.28 at 1
#: and 0.03 at 10; at 1e308 the scaled noise overflows and none is perturbed
MAX_NOISE_STD = 1.0


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
        if max(self.actor_lr, self.critic_lr) > MAX_LR:
            raise TrainingError(f"learning rates must be <= {MAX_LR:g}")
        if min(self.steps, self.decay_every_steps, self.hidden_width) < 1:
            raise TrainingError(
                "steps, decay_every_steps and hidden_width must be >= 1")
        if self.hidden_width > MAX_HIDDEN_WIDTH:
            raise TrainingError(f"hidden_width must be <= {MAX_HIDDEN_WIDTH}")
        if not 0.0 <= self.noise_std <= MAX_NOISE_STD:
            raise TrainingError(f"noise_std must be in [0, {MAX_NOISE_STD:g}]")


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


# -- networks ----------------------------------------------------------------


def head_specs(k_subbands):
    """Both phases' actor heads as (name, width, action width, activation),
    shared by the GCN and the dense agent: the one statement of the action
    layout.  A head's first `action width` columns are its ActionBundle
    field; each resource share head has one slack column after them."""
    k4 = 4 * k_subbands        # 4 offload links x K sub-bands per source
    return ([("head_offload", 5, 5, Tensor.softmax_rows),
             ("head_subarray", 5, 4, Tensor.softmax_rows),
             ("head_power", k4 + 1, k4, Tensor.softmax_rows)],
            [("head_subarray", 1, 1, Tensor.sigmoid),
             ("head_power", k_subbands + 1, k_subbands, Tensor.softmax_rows)])


def read_heads(x: Tensor, heads, spec):
    """Each head's activated bounded logits for the trunk output x."""
    return [act(bound_logits(head(x))) for head, (*_, act) in zip(heads, spec)]


class GcnActor:
    """One phase's actor: a shared GCN stack read out at the acting rows
    through the phase's heads."""

    def __init__(self, rng, d_in, width, spec, name):
        self.spec = spec
        self.gcn1 = GcnLayer(rng, d_in, width, f"{name}.gcn1")
        self.gcn2 = GcnLayer(rng, width, width, f"{name}.gcn2")
        self.heads = [Dense(rng, width, d_out, f"{name}.{key}", 0.1)
                      for key, d_out, _, _ in spec]

    def forward(self, features: np.ndarray, table: NeighborTable,
                sub: SubGraph | None = None):
        """The heads at every row of table's graph, or at sub's rows alone
        (a SubGraph of that graph)."""
        first = last = (table,)
        if sub is not None:
            first, last = sub.first, sub.last
        emb = self.gcn2(self.gcn1(Tensor(features), *first), *last)
        return read_heads(emb, self.heads, self.spec)

    def parameters(self):
        return [p for layer in (self.gcn1, self.gcn2, *self.heads)
                for p in layer.parameters()]


class CentralCritic:
    """GCN over the per-node input GrantAgent.critic_input lays out (node
    features beside zero-padded action ratios), mean-pooled into a scalar
    Q, plus a linear skip from the pooled raw input.

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
        spec = sum(head_specs(k_subbands), [])
        state_w = OFFLOAD_FEATURES + OUTCOME_FEATURES
        d_in = state_w + sum(cols for _, _, cols, _ in spec)
        self.gcn1 = GcnLayer(rng, d_in, width, "critic.gcn1")
        self.gcn2 = GcnLayer(rng, width, width, "critic.gcn2")
        self.dense1 = Dense(rng, width, width, "critic.dense1")
        self.dense2 = Dense(rng, width, width, "critic.dense2")
        self.out = Dense(rng, width, 1, "critic.out")
        self.skip = Dense(rng, d_in, 1, "critic.skip")
        self.out.w.data[:] = 0.0
        self.skip.w.data[:] = 0.0
        # the action columns' prior, head by head: offload shares carry no
        # usage and stay at zero
        slopes = {"head_subarray": -self.SUBARRAY_SLOPE,
                  "head_power": -self.POWER_SLOPE}
        self.skip.w.data[state_w:, 0] = np.repeat(
            [slopes.get(name, 0.0) for name, *_ in spec],
            [cols for _, _, cols, _ in spec])

    def forward(self, feats: Tensor, table: NeighborTable):
        h = self.gcn2(self.gcn1(feats, table), table)
        pooled = h.mean_rows()
        h = self.dense1(pooled).tanh()
        h = self.dense2(h).tanh()
        return self.out(h) + self.skip(feats.mean_rows())

    def parameters(self):
        return (self.gcn1.parameters() + self.gcn2.parameters()
                + self.dense1.parameters() + self.dense2.parameters()
                + self.out.parameters() + self.skip.parameters())


def safe_init(heads_to, heads_ot) -> None:
    """Bias output heads so the initial policy spends nearly all resources
    and keeps tasks mostly local: slack logits at -4, self-offload logit +2,
    outcome sub-array sigmoid logit +4.  Biases are set in pre-bound space
    so the bounded logits hit the targets exactly at zero input; b[:, col]
    sets a Dense head's bias and every row of a stacked head's alike."""
    offload, subarray, power = heads_to
    offload.b.data[:, 0] = logit_bias(2.0)
    subarray.b.data[:, -1] = logit_bias(-4.0)
    power.b.data[:, -1] = logit_bias(-4.0)
    subarray, power = heads_ot
    subarray.b.data[:] = logit_bias(4.0)
    power.b.data[:, -1] = logit_bias(-4.0)


def explore_group(ratios: np.ndarray, noise_std: float,
                  rng: np.random.Generator) -> np.ndarray:
    """Zero-sum Gaussian perturbation of each row of a ratio group ([rows,
    size], or one 1-D row), scaled by the row's largest ratio; a row's noise
    is withdrawn entirely if it would drive any component negative."""
    g = rng.standard_normal(ratios.shape)
    rows = np.atleast_2d(ratios)
    g = g.reshape(rows.shape)
    noise = ((g - np.add.reduce(g, axis=1, keepdims=True) / rows.shape[1])
             * (noise_std * np.maximum.reduce(rows, axis=1, keepdims=True)))
    out = rows + noise
    out = np.where(np.logical_or.reduce(out < 0.0, axis=1, keepdims=True),
                   rows, out)
    return out.reshape(ratios.shape)


def td_target(reward: float, q_next: float, kappa: float) -> float:
    return reward + kappa * q_next


def require_finite(what: str, value: float) -> None:
    """Raise TrainingError naming `what` if value is NaN or infinite."""
    if not np.isfinite(value):
        raise TrainingError(f"non-finite {what}: {value}")


def zero_grads(params):
    for p in params:
        p.grad = None


@contextlib.contextmanager
def frozen(params):
    """No graph records params inside the block; they require gradients
    again when it ends, by an exception too."""
    for p in params:
        p.requires_grad = False
    try:
        yield
    finally:
        for p in params:
            p.requires_grad = True


@functools.cache
def keep_freed_heap() -> bool:
    """Once per process, let glibc's malloc keep the heap a training step
    frees (M_MMAP_THRESHOLD and M_TRIM_THRESHOLD 64 MiB, above the arrays a
    step allocates), so the next step reuses it instead of faulting it in;
    False without mallopt."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    # M_MMAP_THRESHOLD is -3 and M_TRIM_THRESHOLD -1; each call returns 1
    return mallopt(-3, 64 << 20) + mallopt(-1, 64 << 20) == 2


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
        self.actor_to = GcnActor(rng, OFFLOAD_FEATURES, cfg.hidden_width,
                                 self.spec_to, "actor_to")
        self.actor_ot = GcnActor(rng, OUTCOME_FEATURES, cfg.hidden_width,
                                 self.spec_ot, "actor_ot")
        self.critic = CentralCritic(rng, self.k, cfg.hidden_width)
        safe_init(self.actor_to.heads, self.actor_ot.heads)
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
        """Attach the window, config and head specs; returns the
        network-init generator."""
        keep_freed_heap()
        self.env = env
        self.cfg = cfg
        self.k = env.band_to.n_subbands
        self.spec_to, self.spec_ot = head_specs(self.k)
        self.noise_rng = np.random.default_rng(
            np.random.SeedSequence(cfg.seed).spawn(1)[0])
        # the window's graph is frozen: normalize it into a neighbor table,
        # take its sub-graph at the sources (the servers' first column) and
        # lay out the static feature columns once, read-only; encode fills
        # the rest.  L_e over the mean demand is the source flag: a source
        # expects the mean m, (1.0 * m) / m == 1.0, others 0.0 / m == 0.0
        c = env.c.cfg
        self.mean_bytes = env.traffic_cfg.mean_bytes_per_slot
        plane, slot = np.divmod(env.involved, c.sats_per_plane)
        phi_off = np.isin(env.involved, env.sources).astype(float)
        zero = np.zeros(len(env.involved))
        self.static_features = np.stack(
            [plane / max(c.planes - 1, 1), slot / max(c.sats_per_plane - 1, 1),
             phi_off, zero, zero, zero, zero, phi_off,
             (env.involved == env.gs_flat).astype(float)], axis=1)
        self.static_features.setflags(write=False)
        self.table = normalized_adjacency(len(env.involved), env.edges)
        self.sub = sub_graph(self.table, env._offload_rows[:, 0])
        return np.random.default_rng(cfg.seed)

    # -- state and actions --------------------------------------------------

    def encode(self, snapshot):
        """Both phases' feature matrices (f_to, f_ot), over self.table: the
        snapshot's SINRs (columns 3-6) and, for the outcome phase, expected
        outcome load (column 2) written over the window's static columns."""
        f_to = self.static_features.copy()
        f_to[:, 3:7] = snapshot.sinr_to_db / SINR_DB_SCALE
        f_ot = np.delete(self.static_features, 7, axis=1)  # no phi_off
        f_ot[:, 2] = snapshot.expected_outcome_bytes / self.mean_bytes
        f_ot[:, 3:7] = snapshot.sinr_ot_db / SINR_DB_SCALE
        return f_to, f_ot

    def actor_tensors(self, f_to: np.ndarray, f_ot: np.ndarray):
        """(offload, subarray, power, ot_sub, ot_power): the activated heads
        at the sources (over their sub-graph) and at every involved node's
        outcome link."""
        return (*self.actor_to.forward(f_to, self.table, self.sub),
                *self.actor_ot.forward(f_ot, self.table))

    def _ratios_from_tensors(self, tensors):
        return tuple(t.data.copy() for t in tensors)

    def act(self, snapshot) -> ActionBundle:
        """The policy protocol: the deterministic action at the snapshot."""
        tensors = self.actor_tensors(*self.encode(snapshot))
        return self.to_bundle(self._ratios_from_tensors(tensors))

    def explore(self, ratios):
        """Each head's ratios perturbed in head order; a sigmoid head's
        share s explores as the pair (s, 1 - s)."""
        std, rng = self.cfg.noise_std, self.noise_rng
        return tuple(
            explore_group(np.hstack([r, 1.0 - r]), std, rng)[:, :1]
            if act is Tensor.sigmoid else explore_group(r, std, rng)
            for r, (*_, act) in zip(ratios, self.spec_to + self.spec_ot))

    def to_bundle(self, ratios) -> ActionBundle:
        """The heads' action columns of ratios: each head's slack dropped."""
        spec = self.spec_to + self.spec_ot
        return ActionBundle(*(r[:, :cols]
                              for r, (_, _, cols, _) in zip(ratios, spec)))

    def critic_input(self, f_to: np.ndarray, f_ot: np.ndarray,
                     tensors) -> Tensor:
        """The critic's per-node input as one graph op: both phases'
        features, then each head's action columns (its slack dropped), the
        offloading heads' at the source rows and zeros elsewhere.  tensors
        are actor tensors or executed constant Tensors; a head's gradient is
        a zero buffer holding its columns' gradient at its rows."""
        spec, n_to = self.spec_to + self.spec_ot, len(self.spec_to)
        w_to, at = f_to.shape[1], f_to.shape[1] + f_ot.shape[1]
        out = np.zeros((f_to.shape[0], at + sum(c for _, _, c, _ in spec)))
        out[:, :w_to], out[:, w_to:at] = f_to, f_ot
        place = []
        for i, (t, (_, _, cols, _)) in enumerate(zip(tensors, spec)):
            rows = self.sub.rows if i < n_to else slice(None)
            out[rows, at:at + cols] = t.data[:, :cols]
            place.append((t.shape, rows, at, cols))
            at += cols

        def vjp(g):
            grads = []
            for shape, rows, lo, cols in place:
                buf = np.zeros(shape)
                buf[:, :cols] = g[rows, lo:lo + cols]
                grads.append(buf)
            return grads

        return Tensor._make(out, tuple(tensors), vjp, owned=True)

    def q_value(self, f_to, f_ot, tensors) -> Tensor:
        """Q of both phases' features and the five heads' tensors."""
        return self.critic.forward(self.critic_input(f_to, f_ot, tensors),
                                   self.table)

    # -- training -------------------------------------------------------------

    def train_step(self, states, exec_ratios, reward, next_states,
                   policy_tensors):
        """One TD step; returns (critic_loss, q_value) for the executed action.

        `policy_tensors` is actor_tensors(*states) under the current actor
        parameters: the acting forward, reused for the actor-ascent pass.
        Raises TrainingError, before the optimizer step that would apply it,
        on a non-finite TD target, critic loss or Q(s, pi(s)).
        """

        # bootstrapped target under the current deterministic policy, with
        # no graph recorded; the critic regresses rewards in REWARD_SCALE units
        with frozen(self.parameters()):
            next_tensors = self.actor_tensors(*next_states)
            q_next = self.q_value(*next_states, next_tensors).data.item()
            del next_tensors
        y = td_target(reward / REWARD_SCALE, q_next, self.cfg.kappa)
        require_finite("TD target", y)

        # critic descent on (Q - y)**2 for the executed (noisy) action
        zero_grads(self.actor_params + self.critic_params)
        q = self.q_value(*states, [Tensor(r) for r in exec_ratios])
        diff = q.data.item() - y
        critic_loss = diff * diff
        require_finite("critic loss", critic_loss)
        q.backward(np.array([[2.0 * diff]]))
        self.critic_opt.step()
        q_val = q.data.item() * REWARD_SCALE

        # actor ascent on Q(s, pi(s)), as descent on -Q, with the critic
        # frozen: its weights build no gradients in this forward and backward
        zero_grads(self.actor_params + self.critic_params)
        with frozen(self.critic_params):
            q_pi = self.q_value(*states, policy_tensors)
            require_finite("Q(s, pi(s))", q_pi.data.item())
            q_pi.backward(np.array([[-1.0]]))
        self.actor_opt.step()
        zero_grads(self.actor_params + self.critic_params)
        return critic_loss, q_val

    def run_training(self, on_step=None):
        """Act with exploration noise, step, TD-update the critic and ascend both
        actors, decaying the actor lr on schedule; records go to on_step only.
        Raises TrainingError naming the head, before it explores, when an
        actor (diverged by its last ascent step) gives non-finite ratios."""
        env = self.env
        heads = [f"{phase}.{key}" for phase, spec in (
            ("actor_to", self.spec_to), ("actor_ot", self.spec_ot))
            for key, *_ in spec]
        states = self.encode(env.snapshot())
        for step in range(self.cfg.steps):
            tensors = self.actor_tensors(*states)
            ratios = self._ratios_from_tensors(tensors)
            for head, r in zip(heads, ratios):
                # ratios lie in [0, 1]: the sum is non-finite only if one is
                require_finite(f"ratios from {head}", r.sum())
            noisy = self.explore(ratios)
            outcome, _, _ = env.step(self.to_bundle(noisy))
            next_states = self.encode(env.snapshot())
            critic_loss, q_val = self.train_step(states, noisy, outcome.reward,
                                                 next_states, tensors)
            if (step + 1) % self.cfg.decay_every_steps == 0:
                self.actor_opt.lr *= self.cfg.actor_lr_decay
            if on_step is not None:
                on_step(self, {"step": step, "outcome": outcome,
                               "critic_loss": critic_loss, "q_value": q_val,
                               "actor_lr": self.actor_opt.lr})
            states = next_states

    def parameters(self):
        return self.actor_params + self.critic_params

    def parameter_count(self) -> int:
        return int(sum(p.data.size for p in self.parameters()))
