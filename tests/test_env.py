import math

import numpy as np
import pytest

import slot_reference as ref
import topology_reference as topo
from terasec import sec_sim
from terasec.baselines import UniformPolicy
from terasec.constellation import Constellation, SatId, WalkerConfig
from terasec.env import GS_NODE, ActionBundle
from terasec.thz_link import (band_preset, link_gain, link_rate, noise_power,
                              path_gain, sinr)

from conftest import make_env, random_simplex
from gcn_reference import dense_adjacency


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


def link_allocs(env, alloc_to, alloc_ot):
    """Array allocations as the (tx, rx) -> LinkAlloc dicts they replaced."""
    out = []
    for links, (subarrays, power) in ((env._offload_link_list, alloc_to),
                                      (env._outcome_link_list, alloc_ot)):
        out.append({link: ref.LinkAlloc(int(s), p) for link, s, p in zip(
            links, subarrays.ravel(), power.reshape(-1, power.shape[-1]))})
    return out


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
        want = reference_rates(env, *link_allocs(env, alloc_to, alloc_ot), t,
                               b_to, b_ot)
        got = env._rates(alloc_to, alloc_ot, env._positions(t), b_to, b_ot)
        assert list(want[0]) == env._offload_link_list
        assert list(want[1]) == env._outcome_link_list
        assert got[0].tolist() == list(want[0].values())
        assert got[1].tolist() == list(want[1].values())
        assert np.array_equal(got[2], want[2]) and np.array_equal(got[3], want[3])
        assert np.any(want[2] == 0.0) and np.any(want[3] == 0.0)

        # an advancing step: distances per hop and the next-slot features
        bundle = random_bundle(env, rng)
        env.step(bundle, band_to=b_to, band_ot=b_ot)
        pos = env.c.positions_at(t)

        def node_pos(node):
            return env.c.gs_position(env.gs, t) if node == GS_NODE else pos[node]

        assert seen["dist_to_km"].shape == (len(env.sources), 4)
        assert seen["dist_to_km"].ravel().tolist() == [
            float(np.linalg.norm(pos[s] - pos[nb]))
            for s, nb in env._offload_link_list]
        assert seen["dist_ot_km"].tolist() == [
            float(np.linalg.norm(pos[tx] - node_pos(rx)))
            for tx, rx in env._outcome_link_list]
        first = dict(zip(env._server_table.ravel().tolist(),
                         seen["first_link"].ravel().tolist()))
        assert {server: [env._outcome_link_list[i] for i in links]
                for server, links in ref.tree_routes(
                    first, seen["next_link"]).items()} == env.route_hops
        _, _, g_to, g_ot = reference_rates(
            env, *link_allocs(env, seen["alloc_to"], seen["alloc_ot"]), t,
            b_to, b_ot)
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


# -- the dict-keyed slot path the array path replaced, kept as the reference --

def reference_slot(env, bundle, band_to, band_ot):
    """One slot through the per-source quantizer calls, the per-link
    LinkAllocs and the (tx, rx)-keyed tables, at the env's current step.
    Returns (SlotOutcome, OffloadAssignment, alloc_to, alloc_ot)."""
    t = env.time_at(env.step_idx)
    counts = env.counts[:, min(env.step_idx, env.counts.shape[1] - 1)]
    s_max, p_max = env.array_cfg.s_max, env.budget.p_max_w
    k = env.band_to.n_subbands
    alloc_to, tasks_self, tasks_to = {}, {}, {}
    for i, src in enumerate(env.sources):
        subs = ref.quantize_subarrays(bundle.to_subarrays[i], s_max)
        power = ref.quantize_power(bundle.to_power[i].ravel(), p_max)
        power = power.reshape(4, k)
        for j, nbr in enumerate(env.neighbor_order[src]):
            alloc_to[(src, nbr)] = ref.LinkAlloc(int(subs[j]), power[j].copy())
        tasks_self[src], tasks_to[src] = ref.quantize_offload(
            bundle.offload[i], int(counts[i]), env.neighbor_order[src])
    alloc_ot = {}
    for i, link in enumerate(env._outcome_link_list):
        subs = ref.quantize_subarrays(np.array([bundle.ot_subarray[i]]), s_max)
        power = ref.quantize_power(bundle.ot_power[i], p_max)
        alloc_ot[link] = ref.LinkAlloc(int(subs[0]), power)
    assignment = ref.OffloadAssignment(tasks_self=tasks_self, tasks_to=tasks_to)

    rates_to, rates_ot, _, _ = reference_rates(env, alloc_to, alloc_ot, t,
                                               band_to, band_ot)
    pos = env.c.positions_at(t)

    def node_pos(node):
        return env.c.gs_position(env.gs, t) if node == GS_NODE else pos[node]

    offload_dist = {(s, nb): float(np.linalg.norm(pos[s] - pos[nb]))
                    for s, nb in env._offload_link_list}
    routes = {server: [(tx, rx, float(np.linalg.norm(pos[tx] - node_pos(rx))))
                       for tx, rx in hops]
              for server, hops in env.route_hops.items()}
    outcome = ref.simulate_slot(
        assignment=assignment, neighbor_order=env.neighbor_order,
        routes=routes, offload_dist_km=offload_dist,
        rates_to=rates_to, rates_ot=rates_ot,
        alloc_to=alloc_to, alloc_ot=alloc_ot,
        compute=env.compute, task_size_bytes=env.traffic_cfg.task_size_bytes,
        reward_params=env.reward_params, p_max_w=env.budget.p_max_w,
        s_max=env.array_cfg.s_max,
        outcome_transmitters=env.outcome_transmitters)
    return outcome, assignment, alloc_to, alloc_ot


def harsh_bundle(env, rng, dead_links):
    """random_bundle with some all-local offload rows and, when dead_links,
    whole zero-power offload and outcome links."""
    bundle = random_bundle(env, rng)
    bundle.offload[rng.random(len(env.sources)) < 0.2] = [1.0, 0, 0, 0, 0]
    if dead_links:
        bundle.to_power[rng.random(bundle.to_power.shape[:2]) < 0.2] = 0.0
        bundle.ot_power[rng.random(len(bundle.ot_power)) < 0.1] = 0.0
    return bundle


SLOT_FIELDS = ("t_avg", "t_max", "reward", "u_total", "u_power", "u_subarray",
               "power_w_mean", "subarrays_mean", "unreachable")


@pytest.mark.parametrize("bands", [("thz", "thz"), ("ka", "ku"), ("ku", "ka")])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_array_slot_equals_the_dict_path(seed, bands):
    env = make_env(seed=seed, steps=4)
    b_to = band_preset(bands[0], "offloading")
    b_ot = band_preset(bands[1], "outcome")
    rng = np.random.default_rng(seed)
    reachable, offload_inf = set(), False
    for step in range(4):
        # zero-task rows, at least one per slot
        idle = rng.random(len(env.sources)) < 0.2
        idle[step] = True
        env.counts[idle, env.step_idx] = 0
        bundle = harsh_bundle(env, rng, dead_links=step % 2 == 1)
        want, assignment, want_to, want_ot = reference_slot(env, bundle,
                                                            b_to, b_ot)
        got, tasks, (alloc_to, alloc_ot) = env.step(bundle, band_to=b_to,
                                                    band_ot=b_ot)
        # the row-wise quantizers equal the per-row calls
        assert np.array_equal(tasks, [
            [assignment.tasks_self[s],
             *(assignment.tasks_to[s][n] for n in env.neighbor_order[s])]
            for s in env.sources])
        for (subarrays, power), want_links in ((alloc_to, want_to),
                                               (alloc_ot, want_ot)):
            links = list(want_links.values())
            assert np.array_equal(subarrays.ravel(),
                                  [a.subarrays for a in links])
            assert np.array_equal(power.reshape(len(links), -1),
                                  [a.power_w for a in links])
        for name in SLOT_FIELDS:
            assert getattr(got, name) == getattr(want, name), name
        assert got.overall_delay == want.overall_delay
        assert list(got.overall_delay) == list(want.overall_delay)
        assert got.path_delays == want.path_delays
        assert {env._outcome_link_list[i]: b for i, b in
                got.queue_backlog_bytes.items()} == want.queue_backlog_bytes
        assert np.any(tasks == 0) and np.any(tasks.sum(axis=1) == 0)
        reachable.add(not got.unreachable)
        offload_inf |= any(math.isinf(d) for (src, server), d in
                           got.path_delays.items() if src != server)
    assert reachable == {True, False} and offload_inf


def test_resource_usage_sums_as_the_per_link_loop():
    """Single-transmitter draws with powers over 20 decades, so that any
    other summation order over sub-bands or links shows in U_P."""
    rng = np.random.default_rng(0)
    for _ in range(300):
        power = 10.0 ** rng.uniform(-20, 1, size=(1, 4, 5))
        power[rng.random(power.shape) < 0.3] = 0.0
        subarrays = rng.integers(1, 17, size=(1, 4))
        alloc_to = (subarrays, power)
        no_alloc = (np.zeros((0, 1), dtype=int), np.zeros((0, 1, 5)))
        want = ref.resource_usage(
            {(0, j): ref.LinkAlloc(int(subarrays[0, j]), power[0, j])
             for j in range(4)}, {}, 10.0, 64)
        assert sec_sim.resource_usage(alloc_to, no_alloc, 10.0, 64) == want[1:]


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
    for name in ("edges", "node_plane", "node_slot", "phi_off", "phi_gs",
                 "expected_offload_bytes"):
        with pytest.raises(ValueError):
            getattr(small_env, name)[0] = 1.0


# -- window set-up against the per-satellite topology code --------------------

@pytest.mark.parametrize("n_sources,seed", [(10, 1), (50, 2), (200, 1)])
def test_window_setup_equals_the_per_satellite_reference(n_sources, seed):
    env = make_env(seed=seed, steps=2, n_sources=n_sources)
    c = env.c
    assert env.sources == topo.select_sources(c, env.gs_flat, n_sources, seed)
    assert env.neighbor_order == {s: sorted(topo.isl_neighbors(c, s))
                                  for s in env.sources}
    _, parent = topo.shortest_path_tree(c, env.gs_flat, env.t0, env.routing_eta)
    for server, hops in env.route_hops.items():
        route = topo.route(parent, server, env.gs_flat)
        assert hops == [*zip(route[:-1], route[1:]), (env.gs_flat, GS_NODE)]
    involved, node_index, adj = topo.prune_involved(
        env.sources, env.neighbor_order, env.route_hops, env.gs_flat)
    assert env.involved == involved and env.node_index == node_index
    assert np.array_equal(dense_adjacency(len(involved), env.edges), adj)


def test_window_setup_reads_positions_a_fixed_number_of_times(monkeypatch):
    calls = []
    positions_at = Constellation.positions_at

    def counted(self, t):
        calls.append(t)
        return positions_at(self, t)

    monkeypatch.setattr(Constellation, "positions_at", counted)
    counts = []
    for n_sources in (10, 200):
        calls.clear()
        env = make_env(seed=1, steps=2, n_sources=n_sources)
        counts.append(len(calls))
    # no per-server or per-hop geometry: the count does not grow with sources
    assert counts[0] == counts[1]
    with pytest.raises(ValueError):
        env.c.neighbors[0, 0] = 0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sources_are_nonadjacent_at_half_slot_phasing(seed):
    # F = P/2 puts the next plane exactly half a slot ahead
    env = make_env(seed=seed, steps=2, n_sources=50,
                   walker=WalkerConfig(phasing_factor=36))
    n_sp = env.c.cfg.sats_per_plane
    sources = set(env.sources)
    neighbors = {s: {nb.flat(n_sp) for nb in
                     env.c.isl_neighbors(SatId.from_flat(s, n_sp))}
                 for s in env.sources}
    for a in env.sources:
        for b in env.sources:
            assert b not in neighbors[a] and a not in neighbors[b], (a, b)
    assert env.gs_flat not in sources
