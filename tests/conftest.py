import numpy as np
import pytest

from terasec import sec_sim
from terasec.constellation import Constellation, GroundStation, WalkerConfig
from terasec.env import SecWindow
from terasec.sec_sim import ComputeParams, RewardParams
from terasec.thz_link import ArrayConfig, LinkBudgetParams, band_preset
from terasec.traffic import TrafficConfig

#: the routing tree's eta of every make_env window
ROUTING_ETA = 0.5


def make_env(seed: int = 1, steps: int = 10, n_sources: int = 10,
             walker: WalkerConfig = WalkerConfig(),
             bands: tuple = ("thz", "thz")) -> SecWindow:
    """Default-scenario window used across the test suite; `bands` names the
    offloading and outcome bands."""
    c = Constellation(walker)
    return SecWindow(
        c, GroundStation(), TrafficConfig(seed=seed),
        ArrayConfig(), LinkBudgetParams(),
        band_preset(bands[0], "offloading"), band_preset(bands[1], "outcome"),
        ComputeParams(), RewardParams(),
        n_sources=n_sources, steps=steps, source_seed=seed,
        routing_eta=ROUTING_ETA)


def loss_history(agent) -> list:
    """(critic_loss, q_value) of each step of agent.run_training(), read
    from the records it passes to on_step."""
    history = []
    agent.run_training(on_step=lambda _, record: history.append(
        (record["critic_loss"], record["q_value"])))
    return history


def policy_ratios(agent, snapshot) -> tuple:
    """A learning agent's deterministic head ratios at the snapshot, slack
    columns included; its act returns their action columns."""
    return agent._ratios_from_tensors(
        agent.actor_tensors(*agent.encode(snapshot)))


def counted_quantizations(monkeypatch) -> list:
    """The bundle of every SecWindow._quantize_allocations call from here on."""
    calls = []
    quantize = SecWindow._quantize_allocations

    def spy(env, bundle):
        calls.append(bundle)
        return quantize(env, bundle)

    monkeypatch.setattr(SecWindow, "_quantize_allocations", spy)
    return calls


def counted_simulations(monkeypatch) -> list:
    """The keyword arguments of every sec_sim.simulate_slot call from here on
    (env.py calls it through the module)."""
    calls = []
    simulate = sec_sim.simulate_slot

    def spy(**kwargs):
        calls.append(kwargs)
        return simulate(**kwargs)

    monkeypatch.setattr(sec_sim, "simulate_slot", spy)
    return calls


@pytest.fixture(scope="session")
def default_constellation():
    return Constellation(WalkerConfig())


@pytest.fixture(scope="session")
def small_env():
    """One shared short default-scenario window (read-mostly tests only)."""
    return make_env(seed=1, steps=10)


def random_simplex(rng: np.random.Generator, n: int) -> np.ndarray:
    x = rng.exponential(size=n)
    return x / x.sum()
