"""Frozen-window environment: source selection, route freezing, per-slot
action application and state bookkeeping for the learning agents.

Within one GS access window the GS-connected satellite, the source set and
all routes are fixed; satellite positions (hence distances, delays and
SINRs) advance every slot.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sec_sim, thz_link
from .constellation import Constellation, GroundStation, SatId, VisibilityError
from .sec_sim import ComputeParams, LinkAlloc, OffloadAssignment, RewardParams
from .thz_link import ArrayConfig, BandPlan, LinkBudgetParams
from .traffic import TrafficConfig, generate_counts

#: pseudo node id for the ground station in link dictionaries
GS_NODE = -1


def prune_involved(sources, neighbor_order, route_hops, gs_flat):
    """Involved node set and induced adjacency for the learning agents.

    Nodes: sources, their ISL neighbors, every route hop and the
    GS-connected satellite.  A_{ij} = 1 iff i and j are adjacent hops in
    any offload or outcome route (undirected); the GS itself is not a node.
    Returns (sorted node list, node -> row map, adjacency matrix).
    """
    nodes = set(sources) | {gs_flat}
    for s in sources:
        nodes.update(neighbor_order[s])
    for hops in route_hops.values():
        for tx, rx in hops:
            nodes.add(tx)
            if rx != GS_NODE:
                nodes.add(rx)
    involved = sorted(nodes)
    node_index = {n: i for i, n in enumerate(involved)}
    adj = np.zeros((len(involved), len(involved)))
    for s in sources:
        for nb in neighbor_order[s]:
            adj[node_index[s], node_index[nb]] = 1.0
            adj[node_index[nb], node_index[s]] = 1.0
    for hops in route_hops.values():
        for tx, rx in hops:
            if rx == GS_NODE:
                continue
            adj[node_index[tx], node_index[rx]] = 1.0
            adj[node_index[rx], node_index[tx]] = 1.0
    return involved, node_index, adj


@dataclass
class ActionBundle:
    """Continuous post-softmax ratios for one slot, before quantization.

    Row order follows env.sources for the offloading phase and
    env.outcome_transmitters for the outcome phase.
    """

    offload: np.ndarray       # [n_src, 5]; column 0 = self share
    to_subarrays: np.ndarray  # [n_src, 4]; sum <= 1 per row
    to_power: np.ndarray      # [n_src, 4, K]; sum <= 1 per source
    ot_subarray: np.ndarray   # [n_tx]; scalar in [0, 1]
    ot_power: np.ndarray      # [n_tx, K]; sum <= 1 per transmitter


@dataclass
class Snapshot:
    """Raw observables handed to the state encoders."""

    step: int
    nodes: list               # involved flat indices, ascending
    node_index: dict          # flat -> row
    adjacency: np.ndarray     # binary symmetric over involved nodes
    planes: np.ndarray        # per node
    slots: np.ndarray
    phi_off: np.ndarray
    phi_gs: np.ndarray
    expected_offload_bytes: np.ndarray
    expected_outcome_bytes: np.ndarray
    sinr_to_db: np.ndarray    # [n, 4] previous-slot SINR per ISL direction
    sinr_ot_db: np.ndarray


class SecWindow:
    """One GS access window of the satellite-edge-computing network."""

    def __init__(self,
                 constellation: Constellation,
                 gs: GroundStation,
                 traffic_cfg: TrafficConfig,
                 array_cfg: ArrayConfig,
                 budget: LinkBudgetParams,
                 band_to: BandPlan,
                 band_ot: BandPlan,
                 compute: ComputeParams,
                 reward_params: RewardParams,
                 n_sources: int = 10,
                 steps: int = 390,
                 source_seed: int = 0,
                 routing_eta: float = 0.5):
        self.c = constellation
        self.gs = gs
        self.traffic_cfg = traffic_cfg
        self.array_cfg = array_cfg
        self.budget = budget
        self.band_to = band_to
        self.band_ot = band_ot
        self.compute = compute
        self.reward_params = reward_params
        self.routing_eta = routing_eta
        self.steps = steps
        n_sp = constellation.cfg.sats_per_plane

        self.t0 = self._find_window_start()
        self.gs_sat = constellation.gs_access_satellite(gs, self.t0)
        self.gs_flat = self.gs_sat.flat(n_sp)

        self.sources = self._select_sources(n_sources, source_seed)
        self.neighbor_order = {
            s: sorted(nb.flat(n_sp) for nb in
                      constellation.isl_neighbors(SatId.from_flat(s, n_sp)))
            for s in self.sources
        }
        self.servers = sorted({s for s in self.sources}
                              | {n for s in self.sources
                                 for n in self.neighbor_order[s]})

        # frozen routing tree and per-server routes (hop node pairs only;
        # distances are re-evaluated per step)
        tree = constellation.shortest_path_tree(self.gs_sat, self.t0, routing_eta)
        self.route_hops = {}
        for server in self.servers:
            route = constellation.route_to_gs(
                SatId.from_flat(server, n_sp), self.gs_sat,
                eta=routing_eta, t=self.t0, tree=tree)
            hops = [(a.flat(n_sp), b.flat(n_sp))
                    for a, b in zip(route.hops[:-1], route.hops[1:])]
            hops.append((self.gs_flat, GS_NODE))
            self.route_hops[server] = hops

        self.outcome_transmitters = sorted({tx for hops in self.route_hops.values()
                                            for tx, _ in hops})
        self.next_hop = {}
        for hops in self.route_hops.values():
            for tx, rx in hops:
                self.next_hop[tx] = rx

        self._build_involved()
        self.counts = generate_counts(traffic_cfg, len(self.sources), max(steps, 1))
        self.step_idx = 0
        self._offload_link_list = [(s, n) for s in self.sources
                                   for n in self.neighbor_order[s]]
        self._outcome_link_list = [(tx, self.next_hop[tx])
                                   for tx in self.outcome_transmitters]
        # previous-slot SINR features, seeded by the near-full reference allocation
        self._init_prev_state()

    # -- construction helpers ----------------------------------------------

    def _find_window_start(self):
        t = self.c.cfg.epoch_s
        for _ in range(10000):
            try:
                self.c.gs_access_satellite(self.gs, t)
                return t
            except VisibilityError:
                t += 10.0
        raise VisibilityError("no GS access found within the search horizon")

    def _select_sources(self, n_sources, seed):
        rng = np.random.default_rng(seed)
        n_sp = self.c.cfg.sats_per_plane
        chosen = []
        blocked = {self.gs_flat}
        attempts = 0
        while len(chosen) < n_sources:
            attempts += 1
            if attempts > 100000:
                raise RuntimeError("could not select nonadjacent sources")
            cand = int(rng.integers(self.c.n_sats))
            if cand in blocked:
                continue
            chosen.append(cand)
            blocked.add(cand)
            for nb in self.c.isl_neighbors(SatId.from_flat(cand, n_sp)):
                blocked.add(nb.flat(n_sp))
        return sorted(chosen)

    def _build_involved(self):
        self.involved, self.node_index, self.adjacency = prune_involved(
            self.sources, self.neighbor_order, self.route_hops, self.gs_flat)

    def _init_prev_state(self):
        n = len(self.involved)
        self._sinr_to_db = np.zeros((n, 4))
        self._sinr_ot_db = np.zeros((n, 4))
        # expected inflow before any action: everything is computed locally
        self._expected_outcome = np.zeros(n)
        mean_bytes = self.traffic_cfg.mean_bytes_per_slot
        for s in self.sources:
            self._expected_outcome[self.node_index[s]] = (
                self.compute.outcome_ratio * mean_bytes)
        bundle = self.reference_bundle()
        alloc_to, alloc_ot = self._quantize_allocations(bundle)
        pos = self.c.positions_at(self.t0)
        _, _, gammas_to, gammas_ot = self._rates(alloc_to, alloc_ot, pos, self.t0)
        self._record_sinrs(gammas_to, gammas_ot)

    # -- per-step geometry ---------------------------------------------------

    def time_at(self, step: int) -> float:
        return self.t0 + step * self.traffic_cfg.slot_duration_s

    def _node_pos(self, pos: np.ndarray, node: int, t: float) -> np.ndarray:
        if node == GS_NODE:
            return self.c.gs_position(self.gs, t)
        return pos[node]

    # -- allocations and rates -------------------------------------------------

    def _quantize_allocations(self, bundle: ActionBundle):
        s_max = self.array_cfg.s_max
        p_max = self.budget.p_max_w
        k = self.band_to.n_subbands
        alloc_to = {}
        for i, src in enumerate(self.sources):
            subs = sec_sim.quantize_subarrays(bundle.to_subarrays[i], s_max)
            power = sec_sim.quantize_power(bundle.to_power[i].ravel(), p_max)
            power = power.reshape(4, k)
            for j, nbr in enumerate(self.neighbor_order[src]):
                alloc_to[(src, nbr)] = LinkAlloc(int(subs[j]), power[j].copy())
        alloc_ot = {}
        for i, tx in enumerate(self.outcome_transmitters):
            subs = sec_sim.quantize_subarrays(
                np.array([bundle.ot_subarray[i]]), s_max)
            power = sec_sim.quantize_power(bundle.ot_power[i], p_max)
            alloc_ot[(tx, self.next_hop[tx])] = LinkAlloc(int(subs[0]), power)
        return alloc_to, alloc_ot

    def _link_gammas(self, alloc: LinkAlloc, band: BandPlan,
                     tx_pos: np.ndarray, rx_pos: np.ndarray,
                     to_ground: bool) -> np.ndarray:
        sigma2 = thz_link.noise_power(self.budget.noise_temperature_k,
                                      band.bandwidth_hz)
        gammas = np.zeros(band.n_subbands)
        for ki, f in enumerate(band.centers_hz):
            p = alloc.power_w[ki]
            if p <= 0.0:
                continue
            profile = band.absorption if to_ground else None
            alpha2 = thz_link.path_gain(f, tx_pos, rx_pos, profile)
            h2 = thz_link.link_gain(
                alloc.subarrays, self.array_cfg.rx_subarrays_per_isl,
                self.array_cfg, alpha2,
                gain_interpretation=self.budget.gain_interpretation,
                element_gain_scale=band.element_gain_scale)
            gammas[ki] = thz_link.sinr(p, h2, self.budget.interference_mean_w,
                                       sigma2)
        return gammas

    def _rates(self, alloc_to: dict, alloc_ot: dict, pos: np.ndarray, t: float,
               band_to: BandPlan | None = None, band_ot: BandPlan | None = None):
        band_to = band_to or self.band_to
        band_ot = band_ot or self.band_ot
        rates_to, rates_ot = {}, {}
        gammas_to, gammas_ot = {}, {}
        for (tx, rx), alloc in alloc_to.items():
            g = self._link_gammas(alloc, band_to, pos[tx], pos[rx], False)
            gammas_to[(tx, rx)] = g
            rates_to[(tx, rx)] = thz_link.link_rate(alloc.psi, g,
                                                    band_to.bandwidth_hz)
        for (tx, rx), alloc in alloc_ot.items():
            rx_pos = self._node_pos(pos, rx, t)
            g = self._link_gammas(alloc, band_ot, pos[tx], rx_pos, rx == GS_NODE)
            gammas_ot[(tx, rx)] = g
            rates_ot[(tx, rx)] = thz_link.link_rate(alloc.psi, g,
                                                    band_ot.bandwidth_hz)
        return rates_to, rates_ot, gammas_to, gammas_ot

    def _mean_db(self, gammas: np.ndarray) -> float:
        active = gammas[gammas > 0.0]
        if active.size == 0:
            return 0.0
        return float(np.mean(10.0 * np.log10(active)))

    def _record_sinrs(self, gammas_to: dict, gammas_ot: dict):
        """Next-slot SINR features from the per-link gammas of a rated slot."""
        n = len(self.involved)
        self._sinr_to_db = np.zeros((n, 4))
        self._sinr_ot_db = np.zeros((n, 4))
        n_sp = self.c.cfg.sats_per_plane
        for (tx, rx), g in gammas_to.items():
            row = self.node_index[tx]
            slot = self.neighbor_order[tx].index(rx)
            self._sinr_to_db[row, slot] = self._mean_db(g)
        for (tx, rx), g in gammas_ot.items():
            if rx == GS_NODE:
                continue  # the GS downlink has no ISL direction slot
            row = self.node_index[tx]
            nbrs = sorted(nb.flat(n_sp) for nb in
                          self.c.isl_neighbors(SatId.from_flat(tx, n_sp)))
            if rx in nbrs:
                self._sinr_ot_db[row, nbrs.index(rx)] = self._mean_db(g)

    # -- reference (near-full) action ------------------------------------------

    def reference_bundle(self) -> ActionBundle:
        """Full-resource reference: all tasks local, budgets nearly saturated."""
        n_src = len(self.sources)
        n_tx = len(self.outcome_transmitters)
        k = self.band_to.n_subbands
        offload = np.zeros((n_src, 5))
        offload[:, 0] = 1.0
        return ActionBundle(
            offload=offload,
            to_subarrays=np.full((n_src, 4), 0.25),
            to_power=np.full((n_src, 4, k), 1.0 / (4 * k)),
            ot_subarray=np.ones(n_tx),
            ot_power=np.full((n_tx, k), 1.0 / k),
        )

    # -- snapshot and step -------------------------------------------------------

    def snapshot(self) -> Snapshot:
        n = len(self.involved)
        n_sp = self.c.cfg.sats_per_plane
        planes = np.array([node // n_sp for node in self.involved], dtype=float)
        slots = np.array([node % n_sp for node in self.involved], dtype=float)
        phi_off = np.zeros(n)
        for s in self.sources:
            phi_off[self.node_index[s]] = 1.0
        phi_gs = np.zeros(n)
        phi_gs[self.node_index[self.gs_flat]] = 1.0
        expected_off = np.zeros(n)
        mean_bytes = self.traffic_cfg.mean_bytes_per_slot
        for s in self.sources:
            expected_off[self.node_index[s]] = mean_bytes
        return Snapshot(
            step=self.step_idx, nodes=list(self.involved),
            node_index=dict(self.node_index), adjacency=self.adjacency.copy(),
            planes=planes, slots=slots, phi_off=phi_off, phi_gs=phi_gs,
            expected_offload_bytes=expected_off,
            expected_outcome_bytes=self._expected_outcome.copy(),
            sinr_to_db=self._sinr_to_db.copy(),
            sinr_ot_db=self._sinr_ot_db.copy())

    def step(self, bundle: ActionBundle,
             band_to: BandPlan | None = None,
             band_ot: BandPlan | None = None,
             advance: bool = True,
             allocations: tuple | None = None):
        """Apply one slot of actions; returns (SlotOutcome, assignment, allocs)."""
        t = self.time_at(self.step_idx)
        pos = self.c.positions_at(t)
        if allocations is None:
            alloc_to, alloc_ot = self._quantize_allocations(bundle)
        else:
            alloc_to, alloc_ot = allocations
        counts = self.counts[:, min(self.step_idx, self.counts.shape[1] - 1)]
        tasks_self, tasks_to = {}, {}
        for i, src in enumerate(self.sources):
            kept, to = sec_sim.quantize_offload(bundle.offload[i],
                                                int(counts[i]),
                                                self.neighbor_order[src])
            tasks_self[src] = kept
            tasks_to[src] = to
        assignment = OffloadAssignment(tasks_self=tasks_self, tasks_to=tasks_to)

        rates_to, rates_ot, gammas_to, gammas_ot = self._rates(
            alloc_to, alloc_ot, pos, t, band_to, band_ot)
        offload_dist = {(s, nb): float(np.linalg.norm(pos[s] - pos[nb]))
                        for s, nb in self._offload_link_list}
        routes = {}
        for server, hops in self.route_hops.items():
            routes[server] = [
                (tx, rx, float(np.linalg.norm(
                    pos[tx] - self._node_pos(pos, rx, t))))
                for tx, rx in hops]
        outcome = sec_sim.simulate_slot(
            assignment=assignment, neighbor_order=self.neighbor_order,
            routes=routes, offload_dist_km=offload_dist,
            rates_to=rates_to, rates_ot=rates_ot,
            alloc_to=alloc_to, alloc_ot=alloc_ot,
            compute=self.compute, task_size_bytes=self.traffic_cfg.task_size_bytes,
            reward_params=self.reward_params, p_max_w=self.budget.p_max_w,
            s_max=self.array_cfg.s_max,
            outcome_transmitters=self.outcome_transmitters)

        if advance:
            # next-slot state: realized SINRs and expected outcome inflow
            self._record_sinrs(gammas_to, gammas_ot)
            mean_bytes = self.traffic_cfg.mean_bytes_per_slot
            self._expected_outcome = np.zeros(len(self.involved))
            for i, src in enumerate(self.sources):
                ratios = bundle.offload[i]
                self._expected_outcome[self.node_index[src]] += (
                    self.compute.outcome_ratio * mean_bytes * ratios[0])
                for j, nbr in enumerate(self.neighbor_order[src]):
                    self._expected_outcome[self.node_index[nbr]] += (
                        self.compute.outcome_ratio * mean_bytes * ratios[j + 1])
            self.step_idx += 1
        return outcome, assignment, (alloc_to, alloc_ot)
