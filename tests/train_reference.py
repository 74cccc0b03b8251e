"""The TD step and training loop that GrantAgent's lean versions replaced,
kept as the reference for the differential tests: the actor-ascent pass
recomputes the policy forward and builds gradients for the frozen critic,
the executed action is laid out for the critic in numpy
(action_node_constants), and the policy's through the chain of generic ops
(chain_critic_input) rather than through GrantAgent.critic_input.
The critic regresses its target through the mse op, and the actors ascend
Q by stepping its negated gradient, where GrantAgent seeds each backward
pass with its own gradient.  `with_reference_adam` swaps an agent's
optimizers for the whole-array ReferenceAdam.
"""
import numpy as np

from backward_reference import chain_critic_input, concat_cols, mse
from optim_reference import ReferenceAdam
from terasec.agent import REWARD_SCALE, td_target, zero_grads
from terasec.autodiff import Tensor


def with_reference_adam(agent):
    """Swap the agent's optimizers for ReferenceAdam at the same settings."""
    for name in ("actor_opt", "critic_opt"):
        opt = getattr(agent, name)
        setattr(agent, name, ReferenceAdam(opt.params, opt.lr, opt.beta1,
                                           opt.beta2, opt.eps, opt.lr_scales))
    return agent


def action_node_constants(agent, ratios, n_nodes):
    """Zero-padded per-node matrices of executed action ratios, as constant
    Tensors."""
    offload, subarray, power, ot_sub, ot_power = ratios
    act_to = np.zeros((n_nodes, 5 + 4 + 4 * agent.k))
    act_to[agent.sub.rows] = np.concatenate(
        [offload, subarray[:, :4], power[:, :4 * agent.k]], axis=1)
    act_ot = np.zeros((n_nodes, 1 + agent.k))
    act_ot[np.arange(n_nodes)] = np.concatenate(
        [ot_sub, ot_power[:, :agent.k]], axis=1)
    return Tensor(act_to), Tensor(act_ot)


def chain_q_value(agent, f_to, f_ot, tensors):
    """agent.q_value over the chain of generic ops."""
    return agent.critic.forward(chain_critic_input(agent, f_to, f_ot, tensors),
                                agent.table)


def reference_train_step(agent, states, exec_ratios, reward, next_states):
    """One TD step; returns (critic_loss, q_value) for the executed action."""
    s_to, s_ot = states
    ns_to, ns_ot = next_states
    n = s_to.shape[0]

    next_tensors = agent.actor_tensors(ns_to, ns_ot)
    q_next = chain_q_value(agent, ns_to, ns_ot, next_tensors).data.item()
    y = td_target(reward / REWARD_SCALE, q_next, agent.cfg.kappa)

    zero_grads(agent.actor_params + agent.critic_params)
    a_to, a_ot = action_node_constants(agent, exec_ratios, n)
    q = agent.critic.forward(
        concat_cols([Tensor(s_to), Tensor(s_ot), a_to, a_ot]), agent.table)
    loss = mse(q, Tensor(np.array([[y]])))
    loss.backward(np.ones((1, 1)))
    agent.critic_opt.step()
    critic_loss = loss.data.item()
    q_val = q.data.item() * REWARD_SCALE

    zero_grads(agent.actor_params + agent.critic_params)
    tensors = agent.actor_tensors(s_to, s_ot)
    q_pi = chain_q_value(agent, s_to, s_ot, tensors)
    q_pi.backward(np.ones((1, 1)))
    for p in agent.actor_params:
        if p.grad is not None:
            p.grad = -p.grad
    agent.actor_opt.step()
    zero_grads(agent.actor_params + agent.critic_params)
    return critic_loss, q_val


def reference_run_training(agent):
    """agent.run_training's loop over reference_train_step; returns the
    (critic_loss, q_value) history."""
    env = agent.env
    history = []
    states = agent.encode(env.snapshot())
    for step in range(agent.cfg.steps):
        ratios = agent._ratios_from_tensors(agent.actor_tensors(*states))
        noisy = agent.explore(ratios) if agent.cfg.noise_std > 0 else ratios
        outcome, _, _ = env.step(agent.to_bundle(noisy))
        next_states = agent.encode(env.snapshot())
        history.append(reference_train_step(agent, states, noisy,
                                            outcome.reward, next_states))
        if (step + 1) % agent.cfg.decay_every_steps == 0:
            agent.actor_opt.lr *= agent.cfg.actor_lr_decay
        states = next_states
    return history
