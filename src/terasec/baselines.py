"""Benchmark policies: stateless uniform and full-resource heuristics, and a
dense multi-agent actor-critic (private fully-connected actors per acting
satellite, stacked so one forward serves them all, and one flat
fully-connected critic over all involved satellites).
"""
from __future__ import annotations

import numpy as np

from .agent import (OFFLOAD_FEATURES, OUTCOME_FEATURES, GrantAgent,
                    TrainConfig, read_heads, safe_init)
from .autodiff import Adam, Dense, StackedDense, Tensor, xavier_uniform
from .env import ActionBundle, SecWindow, Snapshot


class ActorSizeError(ValueError):
    """The stacked private actors would not fit in memory."""


class DeadInputError(RuntimeError):
    """A flat critic input column outside its live inputs is nonzero: the
    critic holds no weight row for it."""


#: the outcome phase's stacked fc2 holds one [width, width] float64 matrix
#: per involved node and Adam's two moments two more arrays of its size (its
#: gradient is held as factors); set-up refuses a window whose fc2 would
#: exceed this
MAX_STACKED_LAYER_BYTES = 2**30


class UniformPolicy:
    """Uniform offloading (1/5 each way) with the reference bundle's
    resource split: each budget shared equally, zero slack."""

    def __init__(self, env: SecWindow):
        self.env = env

    def act(self, snapshot=None) -> ActionBundle:
        """The same bundle at every snapshot."""
        bundle = self.env.reference_bundle()
        bundle.offload = np.full_like(bundle.offload, 0.2)
        return bundle


class FullResourcePolicy:
    """Safe-init operating point: all tasks local, budgets nearly saturated."""

    def __init__(self, env: SecWindow):
        self.env = env

    def act(self, snapshot=None) -> ActionBundle:
        """The same bundle at every snapshot."""
        return self.env.reference_bundle()


def rollout_policy(env: SecWindow, policy, steps: int):
    """Act and step without learning, yielding each step's record, its
    index and SlotOutcome, as soon as it is stepped."""
    for step in range(steps):
        outcome, _, _ = env.step(policy.act(env.snapshot()))
        yield {"step": step, "outcome": outcome}


# -- dense multi-agent actor-critic -------------------------------------------


class _PrivateActors:
    """One phase's private dense actors as stacked layers, actor i owning
    row i of each: a tanh trunk (fc1, fc2) and the phase's heads.  Each
    actor's matrices are drawn in turn, layer by layer, as separate actors
    would draw them."""

    def __init__(self, rng, n, d_in, width, spec, name):
        self.spec = spec
        dims = [("fc1", d_in, width, 1.0), ("fc2", width, width, 1.0),
                *((head, width, d_out, 0.1) for head, d_out, _, _ in spec)]
        ws = [np.empty((n, d, o)) for _, d, o, _ in dims]
        for i in range(n):
            for w, (_, d, o, scale) in zip(ws, dims):
                w[i] = xavier_uniform(rng, d, o, scale)
        self.fc1, self.fc2, *self.heads = (
            StackedDense(w, f"{name}.{key}") for w, (key, *_) in zip(ws, dims))

    def forward(self, features: np.ndarray, table, sub=None):
        """Actor i reads features row sub.rows[i] (row i for sub=None), the
        rows of a SubGraph; no graph."""
        feats = features if sub is None else features[sub.rows]
        h = self.fc1(Tensor(feats)).tanh()
        return read_heads(self.fc2(h).tanh(), self.heads, self.spec)

    def parameters(self):
        return [p for layer in (self.fc1, self.fc2, *self.heads)
                for p in layer.parameters()]


class _LiveRowDraw:
    """The generator for the flat critic's fc1 draw: of a uniform [rows, cols]
    draw from rng, it draws only the rows `live` (a mask over them) selects,
    one run of live rows at a time, and advances rng's PCG64 over each run
    of dead rows (a float64 uniform takes one 64-bit output), so rng ends
    where the whole draw leaves it."""

    def __init__(self, rng, live):
        self.rng, self.live = rng, live

    def uniform(self, low, high, size):
        rows, cols = size
        edges = [0, *(np.flatnonzero(np.diff(self.live)) + 1).tolist(), rows]
        out = np.empty((np.count_nonzero(self.live), cols))
        at = 0
        for lo, hi in zip(edges[:-1], edges[1:]):
            if self.live[lo]:
                out[at:at + hi - lo] = self.rng.uniform(
                    low, high, size=(hi - lo, cols))
                at += hi - lo
            else:
                self.rng.bit_generator.advance((hi - lo) * cols)
        return out


class _FlatCritic:
    """Fully-connected critic over GrantAgent.critic_input's per-node input
    flattened row by row (every involved satellite's state and action) that
    reads only the live columns of that flat input (a boolean mask over
    it).  fc1 holds the live columns' rows of a full-width draw, drawn
    alone; every other column must be zero."""

    def __init__(self, rng, live, width, name="fc_critic"):
        self.live, self.dead = np.flatnonzero(live), np.flatnonzero(~live)
        self.fc1 = Dense(_LiveRowDraw(rng, live), live.size, width,
                         f"{name}.fc1")
        self.fc2 = Dense(rng, width, width, f"{name}.fc2")
        self.out = Dense(rng, width, 1, f"{name}.out")
        self.out.w.data[:] = 0.0

    def live_row(self, feats: Tensor) -> Tensor:
        """feats' live entries, row by row, as one [1, live] graph op."""
        flat = feats.data.reshape(-1)
        hit = flat[self.dead] != 0.0
        if hit.any():
            raise DeadInputError(
                f"critic input column {self.dead[np.argmax(hit)]} is "
                f"nonzero, but it is not a live input")

        def vjp(g):
            buf = np.zeros(flat.size)
            buf[self.live] = g[0]
            return (buf.reshape(feats.shape),)

        return Tensor._make(flat[None, self.live], (feats,), vjp, owned=True)

    def forward(self, feats: Tensor, table) -> Tensor:
        h = self.fc1(self.live_row(feats)).tanh()
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
    involved-set size.  The actors are train.hidden_width wide, the critic
    critic_width.
    """

    def __init__(self, env: SecWindow, cfg: TrainConfig,
                 critic_width: int = 1024):
        layer_bytes = len(env.involved) * cfg.hidden_width**2 * 8
        if layer_bytes > MAX_STACKED_LAYER_BYTES:
            raise ActorSizeError(
                f"{len(env.involved)} involved nodes x hidden_width "
                f"{cfg.hidden_width}^2 stack {layer_bytes / 2**30:.2f} GiB of "
                f"private actor weights in one layer, over the "
                f"{MAX_STACKED_LAYER_BYTES / 2**30:g} GiB bound")
        rng = self._bind(env, cfg)
        self.actor_to = _PrivateActors(rng, len(env.sources), OFFLOAD_FEATURES,
                                       cfg.hidden_width, self.spec_to,
                                       "actor_to")
        self.actor_ot = _PrivateActors(rng, len(env.involved),
                                       OUTCOME_FEATURES, cfg.hidden_width,
                                       self.spec_ot, "actor_ot")
        self.critic = _FlatCritic(rng, self._live_critic_inputs(),
                                  critic_width)
        safe_init(self.actor_to.heads, self.actor_ot.heads)
        self.actor_params = (self.actor_to.parameters()
                             + self.actor_ot.parameters())
        self.critic_params = self.critic.parameters()
        self.actor_opt = Adam(self.actor_params, cfg.actor_lr)
        self.critic_opt = Adam(self.critic_params, cfg.critic_lr)

    def _live_critic_inputs(self) -> np.ndarray:
        """A mask of the flat critic input columns that can be nonzero in
        this window, from its tables alone: nonzero static features, SINRs
        at the rated cells, expected outcome inflow at servers, and actions
        at sources and at every node (each transmits its outcome link).
        They are the nonzeros of the critic input for a snapshot and actions
        of ones in exactly those places."""
        env, n = self.env, len(self.env.involved)
        sinr = [np.zeros_like(env._sinr_to_db), np.zeros_like(env._sinr_ot_db)]
        for table, (_, rows, cols) in zip(sinr, env._sinr_cells):
            table[rows, cols] = 1.0
        inflow = np.zeros(n)
        inflow[env._offload_rows] = 1.0
        states = self.encode(Snapshot(inflow, *sinr))
        ones = [Tensor(np.ones((rows, cols)))
                for rows, spec in ((len(self.sub.rows), self.spec_to),
                                   (n, self.spec_ot))
                for _, _, cols, _ in spec]
        return self.critic_input(*states, ones).data.reshape(-1) != 0.0

    # inherited unchanged; bound in this class's own namespace because the
    # benchmark's tracer (bench/spans.py) patches each class's __dict__
    encode = GrantAgent.encode
    actor_tensors = GrantAgent.actor_tensors
    q_value = GrantAgent.q_value
    explore = GrantAgent.explore
    train_step = GrantAgent.train_step
    run_training = GrantAgent.run_training
