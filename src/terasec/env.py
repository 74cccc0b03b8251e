"""Frozen-window environment: source selection, route freezing, per-slot
action application and state bookkeeping for the learning agents.

Within one GS access window the GS-connected satellite, the source set and
all routes are fixed, so the link tables, the involved node set and its
static observables are built once per window;
satellite positions (hence distances, delays and SINRs) advance every slot
and each phase's links are rated in one array pass.
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
    edges = [(s, nb) for s in sources for nb in neighbor_order[s]]
    edges += [hop for hops in route_hops.values() for hop in hops]
    involved = sorted({gs_flat, *sources, *(n for e in edges for n in e)}
                      - {GS_NODE})
    node_index = {n: i for i, n in enumerate(involved)}
    adj = np.zeros((len(involved), len(involved)))
    for a, b in edges:
        if b != GS_NODE:
            adj[node_index[a], node_index[b]] = adj[node_index[b], node_index[a]] = 1.0
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
    """Per-slot observables; the static per-node ones are SecWindow attributes."""

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
            for s in self.sources}
        self.servers = sorted(set(self.sources).union(*self.neighbor_order.values()))

        # frozen routing tree and per-server routes (hop node pairs only)
        tree = constellation.shortest_path_tree(self.gs_sat, self.t0, routing_eta)
        self.route_hops = {}
        for server in self.servers:
            route = constellation.route_to_gs(
                SatId.from_flat(server, n_sp), self.gs_sat,
                eta=routing_eta, t=self.t0, tree=tree)
            self.route_hops[server] = [
                (a.flat(n_sp), b.flat(n_sp)) for a, b in
                zip(route.hops[:-1], route.hops[1:])] + [(self.gs_flat, GS_NODE)]

        next_hop = {tx: rx for hops in self.route_hops.values() for tx, rx in hops}
        self.outcome_transmitters = sorted(next_hop)

        self.involved, self.node_index, self.adjacency = prune_involved(
            self.sources, self.neighbor_order, self.route_hops, self.gs_flat)
        # static per-node observables, read-only so encoders may share them
        nodes = np.array(self.involved)
        self.node_plane, self.node_slot = (
            a.astype(float) for a in np.divmod(nodes, n_sp))
        self.phi_off = np.isin(nodes, self.sources).astype(float)
        self.phi_gs = (nodes == self.gs_flat).astype(float)
        self.expected_offload_bytes = (self.phi_off
                                       * traffic_cfg.mean_bytes_per_slot)
        for a in (self.adjacency, self.node_plane, self.node_slot,
                  self.phi_off, self.phi_gs, self.expected_offload_bytes):
            a.setflags(write=False)
        # [n_src, 5] rows receiving each source's offload shares (self first)
        self._offload_rows = np.array(
            [[self.node_index[n] for n in [s, *self.neighbor_order[s]]]
             for s in self.sources], dtype=int).reshape(-1, 5)
        self.counts = generate_counts(traffic_cfg, len(self.sources), max(steps, 1))
        self.step_idx = 0

        # frozen link tables: per phase, the links and their [2, links] end
        # rows into _positions(t) (GS_NODE indexes the GS in its last row);
        # each route as outcome-link indices; and the (link, node row, ISL
        # direction) cell of every rated link that has a SINR feature
        self._offload_link_list = [(s, n) for s in self.sources
                                   for n in self.neighbor_order[s]]
        self._outcome_link_list = [(tx, next_hop[tx])
                                   for tx in self.outcome_transmitters]
        self._to_ends, self._ot_ends = (
            np.array(links, dtype=int).reshape(-1, 2).T
            for links in (self._offload_link_list, self._outcome_link_list))
        outcome_link = {link: i for i, link in enumerate(self._outcome_link_list)}
        self._route_links = {server: [outcome_link[hop] for hop in hops]
                             for server, hops in self.route_hops.items()}
        self._sinr_cells = []
        for links in (self._offload_link_list, self._outcome_link_list):
            cells = []
            for i, (tx, rx) in enumerate(links):
                nbrs = sorted(nb.flat(n_sp) for nb in
                              constellation.isl_neighbors(SatId.from_flat(tx, n_sp)))
                if rx in nbrs:   # the GS downlink has no ISL direction
                    cells.append((i, self.node_index[tx], nbrs.index(rx)))
            self._sinr_cells.append(np.array(cells, dtype=int).reshape(-1, 3).T)
        # previous-slot state, seeded by the near-full reference action: all
        # tasks local, budgets nearly saturated
        bundle = self.reference_bundle()
        self._expected_outcome = self._expected_outcome_inflow(bundle.offload)
        alloc_to, alloc_ot = self._quantize_allocations(bundle)
        _, _, gammas_to, gammas_ot = self._rates(alloc_to, alloc_ot,
                                                 self._positions(self.t0))
        self._record_sinrs(gammas_to, gammas_ot)

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

    def _expected_outcome_inflow(self, offload: np.ndarray) -> np.ndarray:
        """Expected outcome bytes per involved node when each source splits
        one slot of mean demand by its offload shares ([n_src, 5])."""
        inflow = np.zeros(len(self.involved))
        per_slot = (self.compute.outcome_ratio
                    * self.traffic_cfg.mean_bytes_per_slot)
        # unbuffered, in row-major order: a node shared by two sources sums
        # their shares in source order
        np.add.at(inflow, self._offload_rows, per_slot * offload)
        return inflow

    # -- per-step geometry ---------------------------------------------------

    def time_at(self, step: int) -> float:
        return self.t0 + step * self.traffic_cfg.slot_duration_s

    def _positions(self, t: float) -> np.ndarray:
        """[n_sats + 1, 3] positions at t; the last row is the GS (GS_NODE)."""
        return np.vstack([self.c.positions_at(t), self.c.gs_position(self.gs, t)])

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
        for i, link in enumerate(self._outcome_link_list):
            subs = sec_sim.quantize_subarrays(
                np.array([bundle.ot_subarray[i]]), s_max)
            power = sec_sim.quantize_power(bundle.ot_power[i], p_max)
            alloc_ot[link] = LinkAlloc(int(subs[0]), power)
        return alloc_to, alloc_ot

    def _rates(self, alloc_to: dict, alloc_ot: dict, pos: np.ndarray,
               band_to: BandPlan | None = None, band_ot: BandPlan | None = None):
        """Rates and per-sub-band SINRs of both phases at `pos` (from
        _positions), one thz_link chain call per phase over a [links x
        sub-bands] grid.  Returns (rates_to, rates_ot, gammas_to, gammas_ot):
        rates keyed by link, gammas as arrays in link-list order."""
        out = []
        for allocs, links, ends, band in (
                (alloc_to, self._offload_link_list, self._to_ends,
                 band_to or self.band_to),
                (alloc_ot, self._outcome_link_list, self._ot_ends,
                 band_ot or self.band_ot)):
            alpha2 = thz_link.path_gain(band.centers_hz,
                                        pos[ends[0], None], pos[ends[1], None])
            for i in np.flatnonzero(ends[1] == GS_NODE):
                # molecular absorption on the GS downlink only
                alpha2[i] *= thz_link.absorption_factor(
                    pos[ends[0, i]], pos[GS_NODE], band.absorption)
            link_allocs = [allocs[link] for link in links]
            power = np.array([a.power_w for a in link_allocs])
            h2 = thz_link.link_gain(
                np.array([[a.subarrays] for a in link_allocs]),
                self.array_cfg.rx_subarrays_per_isl, self.array_cfg, alpha2,
                gain_interpretation=self.budget.gain_interpretation,
                element_gain_scale=band.element_gain_scale)
            sigma2 = thz_link.noise_power(self.budget.noise_temperature_k,
                                          band.bandwidth_hz)
            gammas = thz_link.sinr(power, h2, self.budget.interference_mean_w,
                                   sigma2)
            rates = thz_link.link_rate(power > 0.0, gammas, band.bandwidth_hz)
            out.append((dict(zip(links, rates.tolist())), gammas))
        (rates_to, gammas_to), (rates_ot, gammas_ot) = out
        return rates_to, rates_ot, gammas_to, gammas_ot

    def _record_sinrs(self, gammas_to: np.ndarray, gammas_ot: np.ndarray):
        """Next-slot SINR features: each rated ISL's mean SINR in dB over its
        active sub-bands (0 when none is active) in its feature cell."""
        tables = []
        for gammas, (links, rows, cols) in zip((gammas_to, gammas_ot),
                                               self._sinr_cells):
            g = gammas[links]
            active = g > 0.0
            n_active = active.sum(axis=1)
            db_sum = np.sum(10.0 * np.log10(np.where(active, g, 1.0)), axis=1)
            table = np.zeros((len(self.involved), 4))
            table[rows, cols] = np.divide(db_sum, n_active, where=n_active > 0,
                                          out=np.zeros_like(db_sum))
            tables.append(table)
        self._sinr_to_db, self._sinr_ot_db = tables

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
        return Snapshot(expected_outcome_bytes=self._expected_outcome.copy(),
                        sinr_to_db=self._sinr_to_db.copy(),
                        sinr_ot_db=self._sinr_ot_db.copy())

    def step(self, bundle: ActionBundle,
             band_to: BandPlan | None = None,
             band_ot: BandPlan | None = None,
             advance: bool = True,
             allocations: tuple | None = None):
        """Apply one slot of actions; returns (SlotOutcome, assignment, allocs)."""
        pos = self._positions(self.time_at(self.step_idx))
        alloc_to, alloc_ot = allocations or self._quantize_allocations(bundle)
        counts = self.counts[:, min(self.step_idx, self.counts.shape[1] - 1)]
        tasks_self, tasks_to = {}, {}
        for i, src in enumerate(self.sources):
            tasks_self[src], tasks_to[src] = sec_sim.quantize_offload(
                bundle.offload[i], int(counts[i]), self.neighbor_order[src])
        assignment = OffloadAssignment(tasks_self=tasks_self, tasks_to=tasks_to)

        rates_to, rates_ot, gammas_to, gammas_ot = self._rates(
            alloc_to, alloc_ot, pos, band_to, band_ot)
        # one distance array per phase; vecdot keeps np.linalg.norm's bits
        d_to, d_ot = (np.sqrt(np.vecdot(v, v)).tolist()
                      for v in (np.subtract(*pos[self._to_ends]),
                                np.subtract(*pos[self._ot_ends])))
        offload_dist = dict(zip(self._offload_link_list, d_to))
        routes = {server: [(*self._outcome_link_list[i], d_ot[i]) for i in idx]
                  for server, idx in self._route_links.items()}
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
            self._expected_outcome = self._expected_outcome_inflow(
                bundle.offload)
            self.step_idx += 1
        return outcome, assignment, (alloc_to, alloc_ot)
