import dataclasses
import math

import numpy as np
import pytest

import slot_reference as ref
import topology_reference as topo
from terasec import sec_sim
from terasec.agent import GrantAgent, TrainConfig
from terasec.baselines import UniformPolicy
from terasec.constellation import Constellation, WalkerConfig
from terasec.env import GS_NODE, ActionBundle, Snapshot
from terasec.autodiff import normalized_adjacency
from terasec.thz_link import (band_preset, link_gain, link_rate, noise_power,
                              path_gain, sinr)

from conftest import (ROUTING_ETA, counted_quantizations, counted_simulations,
                      make_env, random_simplex)
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
            alpha2 = path_gain(f, np.linalg.norm(rx_pos - tx_pos))
            if to_ground:
                alpha2 *= ref.absorption_factor(tx_pos, rx_pos,
                                                band.absorption)
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
    views = topo.window_views(env)
    out = []
    for links, (subarrays, power) in ((views.offload_links, alloc_to),
                                      (views.outcome_links, alloc_ot)):
        out.append({link: ref.LinkAlloc(int(s), p) for link, s, p in zip(
            links, subarrays.ravel(), power.reshape(-1, power.shape[-1]))})
    return out


def reference_sinr_features(env, gammas_to, gammas_ot):
    """Mean active-sub-band SINR (dB) per (node row, ISL direction)."""
    views = topo.window_views(env)
    tables = []
    for links, gammas in ((views.offload_links, gammas_to),
                          (views.outcome_links, gammas_ot)):
        table = np.zeros((len(env.involved), 4))
        for (tx, rx), g in zip(links, gammas):
            nbrs = sorted(env.c.neighbors[tx].tolist())
            active = g[g > 0.0]
            if rx in nbrs and active.size:
                table[views.node_index[tx], nbrs.index(rx)] = float(
                    np.mean(10.0 * np.log10(active)))
        tables.append(table)
    return tables


def random_bundle(env, rng):
    """Random feasible ratios with about a third of the power entries zero."""
    n_src, n_tx = len(env.sources), len(env.involved)
    k = env.band_to.n_subbands

    def sparse_simplex(shape):
        x = rng.exponential(size=shape) * (rng.random(shape) > 0.3)
        x.flat[0] += 1e-3
        return x / x.sum()

    return ActionBundle(
        offload=np.array([random_simplex(rng, 5) for _ in range(n_src)]),
        to_subarrays=np.array([random_simplex(rng, 4) for _ in range(n_src)]),
        to_power=np.array([sparse_simplex(4 * k) for _ in range(n_src)]),
        ot_subarray=rng.random((n_tx, 1)),
        ot_power=np.array([sparse_simplex(k) for _ in range(n_tx)]))


@pytest.mark.parametrize("seed,bands", [(1, ("thz", "thz")), (2, ("thz", "thz")),
                                        (3, ("thz", "thz")), (1, ("ka", "ku")),
                                        (2, ("ku", "ka"))])
def test_array_pass_equals_the_per_link_loop(seed, bands, monkeypatch):
    env = make_env(seed=seed, steps=4)
    views = topo.window_views(env)
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
        geometry = env._geometry(t)
        rates_to, g_to = env._rate_phase(0, alloc_to, b_to, geometry)
        rates_ot, g_ot = env._rate_phase(1, alloc_ot, b_ot, geometry)
        assert list(want[0]) == views.offload_links
        assert list(want[1]) == views.outcome_links
        assert rates_to.tolist() == list(want[0].values())
        assert rates_ot.tolist() == list(want[1].values())
        assert np.array_equal(g_to, want[2]) and np.array_equal(g_ot, want[3])
        assert np.any(want[2] == 0.0) and np.any(want[3] == 0.0)

        # an advancing step: distances per hop and the next-slot features
        bundle = random_bundle(env, rng)
        _, _, (alloc_to, alloc_ot) = env.step(bundle, band_to=b_to,
                                              band_ot=b_ot)
        pos = env.c.positions_at(t)

        def node_pos(node):
            return env.c.gs_position(env.gs, t) if node == GS_NODE else pos[node]

        assert seen["prop_to_s"].shape == (len(env.sources), 4)
        assert seen["prop_to_s"].ravel().tolist() == [
            sec_sim.propagation_delay(float(np.linalg.norm(pos[s] - pos[nb])))
            for s, nb in views.offload_links]
        assert seen["prop_ot_s"] == [
            sec_sim.propagation_delay(float(np.linalg.norm(pos[tx]
                                                           - node_pos(rx))))
            for tx, rx in views.outcome_links]
        servers = env.involved[seen["loads"].rows]
        assert seen["loads"].sources == env.sources
        first = dict(zip(servers.ravel().tolist(),
                         seen["loads"].rows.ravel().tolist()))
        routes = ref.tree_routes(first, seen["routes"].next_link)
        assert {server: [views.outcome_links[i] for i in links]
                for server, links in routes.items()} == views.route_hops
        _, _, g_to, g_ot = reference_rates(
            env, *link_allocs(env, alloc_to, alloc_ot), t, b_to, b_ot)
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
        geometry = env._geometry(env.time_at(env.step_idx))
        _, _, (alloc_to, alloc_ot) = env.step(policy.act())
        reused = env.snapshot()
        _, g_to = env._rate_phase(0, alloc_to, env.band_to, geometry)
        _, g_ot = env._rate_phase(1, alloc_ot, env.band_ot, geometry)
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
    views = topo.window_views(env)
    t = env.time_at(env.step_idx)
    counts = env.counts[:, min(env.step_idx, env.counts.shape[1] - 1)]
    s_max, p_max = env.array_cfg.s_max, env.budget.p_max_w
    k = env.band_to.n_subbands
    alloc_to, tasks_self, tasks_to = {}, {}, {}
    for i, src in enumerate(env.sources):
        subs = ref.quantize_subarrays(bundle.to_subarrays[i], s_max)
        power = ref.quantize_power(bundle.to_power[i].ravel(), p_max)
        power = power.reshape(4, k)
        for j, nbr in enumerate(views.neighbor_order[src]):
            alloc_to[(src, nbr)] = ref.LinkAlloc(int(subs[j]), power[j].copy())
        tasks_self[src], tasks_to[src] = ref.quantize_offload(
            bundle.offload[i], int(counts[i]), views.neighbor_order[src])
    alloc_ot = {}
    for i, link in enumerate(views.outcome_links):
        subs = ref.quantize_subarrays(bundle.ot_subarray[i], s_max)
        power = ref.quantize_power(bundle.ot_power[i], p_max)
        alloc_ot[link] = ref.LinkAlloc(int(subs[0]), power)
    assignment = ref.OffloadAssignment(tasks_self=tasks_self, tasks_to=tasks_to)

    rates_to, rates_ot, _, _ = reference_rates(env, alloc_to, alloc_ot, t,
                                               band_to, band_ot)
    pos = env.c.positions_at(t)

    def node_pos(node):
        return env.c.gs_position(env.gs, t) if node == GS_NODE else pos[node]

    offload_dist = {(s, nb): float(np.linalg.norm(pos[s] - pos[nb]))
                    for s, nb in views.offload_links}
    routes = {server: [(tx, rx, float(np.linalg.norm(pos[tx] - node_pos(rx))))
                       for tx, rx in hops]
              for server, hops in views.route_hops.items()}
    outcome = ref.simulate_slot(
        assignment=assignment, neighbor_order=views.neighbor_order,
        routes=routes, offload_dist_km=offload_dist,
        rates_to=rates_to, rates_ot=rates_ot,
        alloc_to=alloc_to, alloc_ot=alloc_ot,
        compute=env.compute, task_size_bytes=env.traffic_cfg.task_size_bytes,
        reward_params=env.reward_params, p_max_w=env.budget.p_max_w,
        s_max=env.array_cfg.s_max,
        outcome_transmitters=views.outcome_transmitters)
    return outcome, assignment, alloc_to, alloc_ot


def harsh_bundle(env, rng, dead_links):
    """random_bundle with some all-local offload rows and, when dead_links,
    whole zero-power offload and outcome links."""
    bundle = random_bundle(env, rng)
    bundle.offload[rng.random(len(env.sources)) < 0.2] = [1.0, 0, 0, 0, 0]
    if dead_links:
        power = bundle.to_power.reshape(len(env.sources), 4, -1)  # a view
        power[rng.random(power.shape[:2]) < 0.2] = 0.0
        bundle.ot_power[rng.random(len(bundle.ot_power)) < 0.1] = 0.0
    return bundle


SLOT_FIELDS = ("t_avg", "t_max", "reward", "u_total", "u_power", "u_subarray",
               "power_w_mean", "subarrays_mean", "unreachable")


def assert_equals_the_dict_path(env, got, want):
    """An array SlotOutcome against the dict path's: every field equal, the
    per-source delays in the same key order, and the backlog by (tx, rx)
    link."""
    for name in SLOT_FIELDS:
        assert getattr(got, name) == getattr(want, name), name
    assert got.overall_delay == want.overall_delay
    assert list(got.overall_delay) == list(want.overall_delay)
    assert got.path_delays == want.path_delays
    links = topo.window_views(env).outcome_links
    assert {links[i]: b for i, b in got.queue_backlog_bytes.items()
            } == want.queue_backlog_bytes


@pytest.mark.parametrize("bands", [("thz", "thz"), ("ka", "ku"), ("ku", "ka")])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_array_slot_equals_the_dict_path(seed, bands):
    env = make_env(seed=seed, steps=4)
    views = topo.window_views(env)
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
             *(assignment.tasks_to[s][n] for n in views.neighbor_order[s])]
            for s in env.sources])
        for (subarrays, power), want_links in ((alloc_to, want_to),
                                               (alloc_ot, want_ot)):
            links = list(want_links.values())
            assert np.array_equal(subarrays.ravel(),
                                  [a.subarrays for a in links])
            assert np.array_equal(power.reshape(len(links), -1),
                                  [a.power_w for a in links])
        assert_equals_the_dict_path(env, got, want)
        assert np.any(tasks == 0) and np.any(tasks.sum(axis=1) == 0)
        reachable.add(not got.unreachable)
        offload_inf |= any(math.isinf(d) for (src, server), d in
                           got.path_delays.items() if src != server)
    assert reachable == {True, False} and offload_inf


@pytest.mark.parametrize("n_sources,seed", [(10, 1), (50, 2)])
def test_every_band_replay_equals_the_full_per_band_reference(n_sources,
                                                              seed):
    """A slot's replays share its record's task table, server loads,
    resource usage and link distances; each thz, ka and ku replay equals
    the dict path's full computation of that band pair, before and after
    the bundle's offload and outcome power are changed in place."""
    env = make_env(seed=seed, steps=3, n_sources=n_sources)
    rng = np.random.default_rng(seed)
    bands = [(band_preset(name, "offloading"), band_preset(name, "outcome"))
             for name in ("thz", "ka", "ku")]
    unreachable = set()
    for slot in range(3):
        bundle = harsh_bundle(env, rng, dead_links=slot == 1)
        for changed in (False, True):
            if changed:
                bundle.offload[:] = bundle.offload[::-1].copy()
                bundle.ot_power *= 0.5
            for b_to, b_ot in bands:
                got = env.step(bundle, band_to=b_to, band_ot=b_ot,
                               advance=False)[0]
                want = reference_slot(env, bundle, b_to, b_ot)[0]
                assert_equals_the_dict_path(env, got, want)
                unreachable.add(got.unreachable)
        env.step(bundle)
    assert unreachable == {True, False}


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
    views = topo.window_views(env)
    out = np.zeros(len(env.involved))
    for i, src in enumerate(env.sources):
        ratios = offload[i]
        out[views.node_index[src]] += (
            env.compute.outcome_ratio * mean_bytes * ratios[0])
        for j, nbr in enumerate(views.neighbor_order[src]):
            out[views.node_index[nbr]] += (
                env.compute.outcome_ratio * mean_bytes * ratios[j + 1])
    return out


def reference_initial_outcome(env):
    """Expected outcome inflow before any action, as the window set it."""
    out = np.zeros(len(env.involved))
    row = topo.window_views(env).node_index
    for s in env.sources:
        out[row[s]] = (env.compute.outcome_ratio
                                  * env.traffic_cfg.mean_bytes_per_slot)
    return out


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_expected_outcome_inflow_equals_the_per_source_loops(seed):
    env = make_env(seed=seed, steps=2, n_sources=50)
    # some nodes neighbor two sources, so the summation order is exercised
    assert len(topo.window_views(env).servers) < 5 * len(env.sources)
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
    agent = GrantAgent(small_env, TrainConfig(seed=1, steps=1, hidden_width=8))
    for array in (small_env.involved, small_env.edges, agent.static_features):
        with pytest.raises(ValueError):
            array[0] = 1.0


# -- window set-up against the per-satellite topology code --------------------

WINDOWS = [(10, 1), (50, 2), (200, 1)]


@pytest.mark.parametrize("n_sources,seed,walker", [
    *(pytest.param(n, seed, WalkerConfig(), id=f"{n}-{seed}")
      for n, seed in WINDOWS),
    # a half-slot phasing tie between every pair of planes
    pytest.param(10, 1, WalkerConfig(phasing_factor=36), id="10-1-P72S22F36")])
def test_window_setup_equals_the_per_satellite_reference(n_sources, seed,
                                                         walker):
    """The tables built from the routing tree's parent array equal those of
    one route walk per server over the per-satellite topology code."""
    env = make_env(seed=seed, steps=2, n_sources=n_sources, walker=walker)
    want = topo.window_reference(env.c, env.gs_flat, env.t0, ROUTING_ETA,
                                 n_sources, seed)
    got = topo.window_views(env)
    for name in ("sources", "neighbor_order", "servers", "route_hops",
                 "outcome_transmitters", "offload_links", "outcome_links",
                 "node_index"):
        assert getattr(got, name) == getattr(want, name), name
    assert env.sources == want.sources
    assert env.involved.tolist() == want.involved
    assert want.outcome_transmitters == want.involved
    for got_table, want_table in (
            (env._to_ends, want.to_ends), (env._ot_ends, want.ot_ends),
            (env._routes.next_link, want.next_link),
            (env._offload_rows, want.first_link),
            *zip(env._sinr_cells, want.sinr_cells)):
        assert np.array_equal(got_table, want_table)
    # the one GS downlink, an outcome link; no offload link reaches the GS
    assert env._downlinks == [[], [
        (i, tx) for i, (tx, rx) in enumerate(want.outcome_links)
        if rx == GS_NODE]]
    assert len(env._downlinks[1]) == 1
    n = len(want.involved)
    assert np.array_equal(dense_adjacency(n, env.edges), want.adj)
    got_norm = normalized_adjacency(n, env.edges)
    want_norm = normalized_adjacency(n, np.argwhere(want.adj))
    assert np.array_equal(got_norm.idx, want_norm.idx)
    assert got_norm.weight.tobytes() == want_norm.weight.tobytes()


@pytest.mark.parametrize("n_sources,seed", WINDOWS)
def test_edges_list_each_isl_once(n_sources, seed):
    """The edges are the offload ISLs and the tree ISLs, and no unordered
    pair repeats."""
    env = make_env(seed=seed, steps=2, n_sources=n_sources)
    views = topo.window_views(env)
    row = views.node_index
    want = {frozenset((row[a], row[b]))
            for a, b in views.offload_links + views.outcome_links
            if b != GS_NODE}
    got = [frozenset(pair) for pair in env.edges.tolist()]
    assert len(set(got)) == len(got) == len(want)
    assert set(got) == want


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
    sources = set(env.sources)
    neighbors = {s: set(env.c.neighbors[s].tolist()) for s in env.sources}
    for a in env.sources:
        for b in env.sources:
            assert b not in neighbors[a] and a not in neighbors[b], (a, b)
    assert env.gs_flat not in sources


# -- an advancing step reuses the slot's replay on its band pair ----------------

BAND_PAIRS = [(band_preset(name, "offloading"), band_preset(name, "outcome"))
              for name in ("thz", "ka", "ku")]


def assert_same_step(got, want):
    """Two step results: == on every SlotOutcome field, np.array_equal on the
    task table and the allocations."""
    (outcome, tasks, (to, ot)), (w_outcome, w_tasks, (w_to, w_ot)) = got, want
    for field in dataclasses.fields(outcome):
        assert getattr(outcome, field.name) == getattr(w_outcome, field.name)
    assert np.array_equal(tasks, w_tasks)
    for a, b in zip((*to, *ot), (*w_to, *w_ot)):
        assert np.array_equal(a, b)


def assert_same_snapshot(a, b):
    for field in dataclasses.fields(Snapshot):
        assert getattr(a, field.name).tobytes() == getattr(b, field.name).tobytes()


@pytest.mark.parametrize("seed", [1, 2])
def test_an_advancing_step_after_replays_equals_a_plain_step(seed, monkeypatch):
    """Twin windows: one replays every band pair before it advances, as
    compare_bands does, the other only advances; their steps and next
    snapshots agree, and the first evaluates each band pair once."""
    replayed, plain = make_env(seed=seed, steps=5), make_env(seed=seed, steps=5)
    rng = np.random.default_rng(seed)
    calls = counted_simulations(monkeypatch)
    quantized = counted_quantizations(monkeypatch)
    for slot in range(5):
        bundle = random_bundle(replayed, rng)
        replays = [replayed.step(bundle, band_to=b_to, band_ot=b_ot,
                                 advance=False)
                   for b_to, b_ot in BAND_PAIRS]
        got = replayed.step(bundle)
        assert got[0] is replays[0][0]            # the thz/thz replay's
        assert len(calls) == 4 * slot + 3
        assert len(quantized) == 2 * slot + 1     # once per slot and window
        assert_same_step(got, plain.step(bundle))
        assert_same_snapshot(replayed.snapshot(), plain.snapshot())
        assert replayed._slot is None


@pytest.mark.parametrize("change", ["offload", "allocations", "band", "slot"])
def test_a_replay_is_not_reused_for_other_inputs(change, monkeypatch):
    """Offload ratios or resource ratios (so the allocations) changed in
    place after the replay, another band pair, or the next slot: the
    advancing step evaluates, and quantizes again unless only the band
    pair changed."""
    env, plain = make_env(seed=3, steps=4), make_env(seed=3, steps=4)
    rng = np.random.default_rng(3)
    bundle = random_bundle(env, rng)
    b_to, b_ot = BAND_PAIRS[1 if change == "band" else 0]
    env.step(bundle, band_to=b_to, band_ot=b_ot, advance=False)
    if change == "offload":
        bundle.offload[0] = bundle.offload[0, ::-1].copy()
    elif change == "allocations":
        bundle.ot_power[0] *= 0.5
    calls = counted_simulations(monkeypatch)
    quantized = counted_quantizations(monkeypatch)
    if change == "slot":
        # the replay's own slot reuses it; the next slot does not
        env.step(bundle)
        assert not calls and not quantized
        plain.step(bundle)
        calls.clear()
        quantized.clear()
    got = env.step(bundle)
    assert len(calls) == 1
    assert len(quantized) == (0 if change == "band" else 1)
    assert_same_step(got, plain.step(bundle))
    assert_same_snapshot(env.snapshot(), plain.snapshot())


def outcome_bits(outcome) -> list:
    """Every SlotOutcome field, each float as its hex form and each dict as
    its items in order, so that == compares bits and dict order."""
    def bits(value):
        if isinstance(value, dict):
            return [(key, bits(v)) for key, v in value.items()]
        return value.hex() if isinstance(value, float) else value
    return [(field.name, bits(getattr(outcome, field.name)))
            for field in dataclasses.fields(outcome)]


def test_each_replay_of_a_shared_record_equals_a_fresh_record():
    """Six slots of a 50-source window, replayed as compare_bands does: every
    band pair's replay of the slot's shared record (its geometry, with the
    propagation delays and the GS downlink's path samples, and its loads,
    with the outcome flows and bytes as lists) has the bits of a fresh
    record's evaluation of that band pair alone, dict order included.  At
    slots 2 and 4 zero-rate outcome links cut local paths and zero-rate
    offload hops cut offloaded ones, so the walk reads the shared inputs
    on inf paths too."""
    env = make_env(seed=2, steps=6, n_sources=50)
    rng = np.random.default_rng(2)
    cut = {"outcome": set(), "offload": set()}
    for slot in range(6):
        bundle = harsh_bundle(env, rng, dead_links=slot in (2, 4))
        for b_to, b_ot in BAND_PAIRS:
            shared = env.step(bundle, band_to=b_to, band_ot=b_ot,
                              advance=False)[0]
            fresh = env._record(bundle, list(vars(bundle).values()),
                                env._geometry(env.time_at(env.step_idx)))
            (want, _, _), _ = env._evaluate(fresh, b_to, b_ot)
            assert outcome_bits(shared) == outcome_bits(want)
            # a local path has no offload hop, so only its route cuts it
            if any(math.isinf(d) for (src, server), d
                   in shared.path_delays.items() if src == server):
                cut["outcome"].add(slot)
            rates_to, _ = env._rate_phase(0, fresh.allocations[0], b_to,
                                          fresh.geometry)
            if np.any(fresh.loads.has_path[:, 1:]
                      & (rates_to.reshape(len(env.sources), -1) <= 0.0)):
                cut["offload"].add(slot)
        env.step(bundle)
    assert cut["outcome"] >= {2, 4} and cut["offload"] >= {2, 4}
