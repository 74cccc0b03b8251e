import numpy as np
import pytest

from terasec import sec_sim
from terasec.baselines import UniformPolicy
from terasec.constellation import SatId
from terasec.env import GS_NODE, ActionBundle
from terasec.thz_link import (band_preset, link_gain, link_rate, noise_power,
                              path_gain, sinr)

from conftest import make_env, random_simplex


# -- the per-link loop the array pass replaced, kept as the reference ---------

def reference_rates(env, alloc_to, alloc_ot, t, band_to, band_ot):
    """Per-link, per-sub-band scalar rating of both phases at time t."""
    pos = env.c.positions_at(t)

    def node_pos(node):
        return env.c.gs_position(env.gs, t) if node == GS_NODE else pos[node]

    def gammas(alloc, band, tx_pos, rx_pos, to_ground):
        sigma2 = noise_power(env.budget.noise_temperature_k, band.bandwidth_hz)
        out = np.zeros(band.n_subbands)
        for k, f in enumerate(band.centers_hz):
            p = alloc.power_w[k]
            if p <= 0.0:
                continue
            alpha2 = path_gain(f, tx_pos, rx_pos,
                               band.absorption if to_ground else None)
            h2 = link_gain(alloc.subarrays, env.array_cfg.rx_subarrays_per_isl,
                           env.array_cfg, alpha2,
                           gain_interpretation=env.budget.gain_interpretation,
                           element_gain_scale=band.element_gain_scale)
            out[k] = sinr(p, h2, env.budget.interference_mean_w, sigma2)
        return out

    rates, all_gammas = [], []
    for allocs, band in ((alloc_to, band_to), (alloc_ot, band_ot)):
        r, g = {}, []
        for (tx, rx), alloc in allocs.items():
            g.append(gammas(alloc, band, pos[tx], node_pos(rx), rx == GS_NODE))
            r[(tx, rx)] = float(link_rate(alloc.psi, g[-1], band.bandwidth_hz))
        rates.append(r)
        all_gammas.append(np.array(g))
    return rates[0], rates[1], all_gammas[0], all_gammas[1]


def reference_sinr_features(env, gammas_to, gammas_ot):
    """Mean active-sub-band SINR (dB) per (node row, ISL direction)."""
    n_sp = env.c.cfg.sats_per_plane
    tables = []
    for links, gammas in ((env._offload_link_list, gammas_to),
                          (env._outcome_link_list, gammas_ot)):
        table = np.zeros((len(env.involved), 4))
        for (tx, rx), g in zip(links, gammas):
            nbrs = sorted(nb.flat(n_sp) for nb in
                          env.c.isl_neighbors(SatId.from_flat(tx, n_sp)))
            active = g[g > 0.0]
            if rx in nbrs and active.size:
                table[env.node_index[tx], nbrs.index(rx)] = float(
                    np.mean(10.0 * np.log10(active)))
        tables.append(table)
    return tables


def random_bundle(env, rng):
    """Random feasible ratios with about a third of the power entries zero."""
    n_src, n_tx = len(env.sources), len(env.outcome_transmitters)
    k = env.band_to.n_subbands

    def sparse_simplex(shape):
        x = rng.exponential(size=shape) * (rng.random(shape) > 0.3)
        x.flat[0] += 1e-3
        return x / x.sum()

    return ActionBundle(
        offload=np.array([random_simplex(rng, 5) for _ in range(n_src)]),
        to_subarrays=np.array([random_simplex(rng, 4) for _ in range(n_src)]),
        to_power=np.array([sparse_simplex((4, k)) for _ in range(n_src)]),
        ot_subarray=rng.random(n_tx),
        ot_power=np.array([sparse_simplex(k) for _ in range(n_tx)]))


@pytest.mark.parametrize("seed,bands", [(1, ("thz", "thz")), (2, ("thz", "thz")),
                                        (3, ("thz", "thz")), (1, ("ka", "ku")),
                                        (2, ("ku", "ka"))])
def test_array_pass_equals_the_per_link_loop(seed, bands, monkeypatch):
    env = make_env(seed=seed, steps=4)
    b_to = band_preset(bands[0], "offloading")
    b_ot = band_preset(bands[1], "outcome")
    rng = np.random.default_rng(seed)
    seen = {}
    simulate = sec_sim.simulate_slot

    def spy(**kwargs):
        seen.update(kwargs)
        return simulate(**kwargs)

    monkeypatch.setattr(sec_sim, "simulate_slot", spy)
    for _ in range(3):
        t = env.time_at(env.step_idx)
        alloc_to, alloc_ot = env._quantize_allocations(random_bundle(env, rng))
        ref = reference_rates(env, alloc_to, alloc_ot, t, b_to, b_ot)
        got = env._rates(alloc_to, alloc_ot, env._positions(t), b_to, b_ot)
        assert got[0] == ref[0] and got[1] == ref[1]
        assert list(got[0]) == list(ref[0]) and list(got[1]) == list(ref[1])
        assert np.array_equal(got[2], ref[2]) and np.array_equal(got[3], ref[3])
        assert np.any(ref[2] == 0.0) and np.any(ref[3] == 0.0)

        # an advancing step: distances per hop and the next-slot features
        bundle = random_bundle(env, rng)
        env.step(bundle, band_to=b_to, band_ot=b_ot)
        pos = env.c.positions_at(t)

        def node_pos(node):
            return env.c.gs_position(env.gs, t) if node == GS_NODE else pos[node]

        assert seen["offload_dist_km"] == {
            (s, nb): float(np.linalg.norm(pos[s] - pos[nb]))
            for s, nb in env._offload_link_list}
        assert seen["routes"] == {
            server: [(tx, rx, float(np.linalg.norm(pos[tx] - node_pos(rx))))
                     for tx, rx in hops]
            for server, hops in env.route_hops.items()}
        _, _, g_to, g_ot = reference_rates(env, seen["alloc_to"],
                                           seen["alloc_ot"], t, b_to, b_ot)
        sinr_to, sinr_ot = reference_sinr_features(env, g_to, g_ot)
        assert np.array_equal(env._sinr_to_db, sinr_to)
        assert np.array_equal(env._sinr_ot_db, sinr_ot)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_next_slot_sinrs_reuse_the_slot_rating(seed):
    """The SINR features recorded by an advancing step equal those from
    rating the slot a second time, as the step once did."""
    env = make_env(seed=seed, steps=3)
    policy = UniformPolicy(env)
    for _ in range(2):
        pos = env._positions(env.time_at(env.step_idx))
        _, _, (alloc_to, alloc_ot) = env.step(policy.act()[0])
        reused = env.snapshot()
        _, _, g_to, g_ot = env._rates(alloc_to, alloc_ot, pos)
        env._record_sinrs(g_to, g_ot)
        assert np.array_equal(reused.sinr_to_db, env._sinr_to_db)
        assert np.array_equal(reused.sinr_ot_db, env._sinr_ot_db)
        assert np.any(reused.sinr_to_db != 0.0)
        assert np.any(reused.sinr_ot_db != 0.0)


# -- the per-source loops the inflow helper replaced, kept as the reference ---

def reference_expected_outcome(env, offload):
    """Expected outcome inflow as the advancing step's loop summed it."""
    mean_bytes = env.traffic_cfg.mean_bytes_per_slot
    out = np.zeros(len(env.involved))
    for i, src in enumerate(env.sources):
        ratios = offload[i]
        out[env.node_index[src]] += (
            env.compute.outcome_ratio * mean_bytes * ratios[0])
        for j, nbr in enumerate(env.neighbor_order[src]):
            out[env.node_index[nbr]] += (
                env.compute.outcome_ratio * mean_bytes * ratios[j + 1])
    return out


def reference_initial_outcome(env):
    """Expected outcome inflow before any action, as the window set it."""
    out = np.zeros(len(env.involved))
    for s in env.sources:
        out[env.node_index[s]] = (env.compute.outcome_ratio
                                  * env.traffic_cfg.mean_bytes_per_slot)
    return out


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_expected_outcome_inflow_equals_the_per_source_loops(seed):
    env = make_env(seed=seed, steps=2, n_sources=50)
    # some nodes neighbor two sources, so the summation order is exercised
    assert len(env.servers) < 5 * len(env.sources)
    initial = env._expected_outcome_inflow(env.reference_bundle().offload)
    assert np.array_equal(initial, reference_initial_outcome(env))
    assert np.array_equal(env.snapshot().expected_outcome_bytes, initial)
    rng = np.random.default_rng(seed)
    for _ in range(3):
        bundle = random_bundle(env, rng)
        assert np.array_equal(env._expected_outcome_inflow(bundle.offload),
                              reference_expected_outcome(env, bundle.offload))
    env.step(bundle)
    assert np.array_equal(env.snapshot().expected_outcome_bytes,
                          reference_expected_outcome(env, bundle.offload))


def test_static_observables_are_read_only(small_env):
    for name in ("adjacency", "node_plane", "node_slot", "phi_off", "phi_gs",
                 "expected_offload_bytes"):
        with pytest.raises(ValueError):
            getattr(small_env, name)[0] = 1.0
