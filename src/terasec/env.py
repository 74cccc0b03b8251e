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
from .constellation import Constellation, GroundStation, VisibilityError
from .sec_sim import ComputeParams, RewardParams
from .thz_link import ArrayConfig, BandPlan, LinkBudgetParams
from .traffic import TrafficConfig, generate_counts

#: pseudo node id for the ground station in link tables
GS_NODE = -1


class SourceSelectionError(RuntimeError):
    """The requested number of nonadjacent sources does not fit the shell."""


def prune_involved(sources, neighbor_order, route_hops, gs_flat):
    """Involved node set and its edges for the learning agents.

    Nodes: sources, their ISL neighbors, every route hop and the
    GS-connected satellite.  i and j share an (undirected) edge iff they are
    adjacent hops in any offload or outcome route; the GS is not a node.
    Returns (sorted node list, node -> row map, [E, 2] row-pair edges).
    """
    edges = np.array([(s, nb) for s in sources for nb in neighbor_order[s]]
                     + [hop for hops in route_hops.values() for hop in hops],
                     dtype=int).reshape(-1, 2)
    involved = sorted({gs_flat, *sources, *edges.ravel().tolist()} - {GS_NODE})
    node_index = {n: i for i, n in enumerate(involved)}
    return (involved, node_index,
            np.searchsorted(involved, edges[edges[:, 1] != GS_NODE]))


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
        self.gs_flat = constellation.gs_access_satellite(gs, self.t0)
        # frozen routing tree (this also rejects a shell with no ISL graph)
        tree = constellation.shortest_path_tree(self.gs_flat, self.t0, routing_eta)

        self.sources = self._select_sources(n_sources, source_seed)
        # each satellite's ISL neighbors in ascending flat order
        sorted_neighbors = np.sort(constellation.neighbors, axis=1)
        self.neighbor_order = dict(zip(
            self.sources, sorted_neighbors[self.sources].tolist()))
        self.servers = sorted(set(self.sources).union(*self.neighbor_order.values()))

        # per-server routes (hop node pairs only)
        self.route_hops = {}
        for server in self.servers:
            hops = constellation.route_to_gs(server, self.gs_flat, tree=tree).hops
            self.route_hops[server] = [*zip(hops[:-1], hops[1:]),
                                       (self.gs_flat, GS_NODE)]

        next_hop = {tx: rx for hops in self.route_hops.values() for tx, rx in hops}
        self.outcome_transmitters = sorted(next_hop)

        self.involved, self.node_index, self.edges = prune_involved(
            self.sources, self.neighbor_order, self.route_hops, self.gs_flat)
        # static per-node observables, read-only so encoders may share them
        nodes = np.array(self.involved)
        self.node_plane, self.node_slot = (
            a.astype(float) for a in np.divmod(nodes, n_sp))
        self.phi_off = np.isin(nodes, self.sources).astype(float)
        self.phi_gs = (nodes == self.gs_flat).astype(float)
        self.expected_offload_bytes = (self.phi_off
                                       * traffic_cfg.mean_bytes_per_slot)
        for a in (self.edges, self.node_plane, self.node_slot,
                  self.phi_off, self.phi_gs, self.expected_offload_bytes):
            a.setflags(write=False)
        # [n_src, 5] servers of each source's offload shares (self first),
        # as flat ids and as involved-node rows
        self._server_table = np.column_stack(
            [self.sources, sorted_neighbors[self.sources]])
        self._offload_rows = np.searchsorted(nodes, self._server_table)
        self.counts = generate_counts(traffic_cfg, len(self.sources), max(steps, 1))
        self.step_idx = 0

        # frozen link tables: per phase, the links and their [2, links] end
        # rows into _positions(t) (GS_NODE indexes the GS in its last row);
        # the routes as one tree over the outcome links; and the (link, node
        # row, ISL direction) cell of every rated link that has a SINR feature
        self._offload_link_list = [(s, n) for s in self.sources
                                   for n in self.neighbor_order[s]]
        self._outcome_link_list = [(tx, next_hop[tx])
                                   for tx in self.outcome_transmitters]
        self._to_ends, self._ot_ends = (
            np.array(links, dtype=int).reshape(-1, 2).T
            for links in (self._offload_link_list, self._outcome_link_list))
        # outcome link i is the i-th transmitter's (ascending flat id), so a
        # link's next link is its receiver's (-1 into the GS) and a server's
        # first link is its own
        tx, rx = self._ot_ends
        self._next_link = np.where(rx == GS_NODE, -1, np.searchsorted(tx, rx))
        self._first_link = np.searchsorted(tx, self._server_table)
        self._sinr_cells = []
        for tx, rx in (self._to_ends, self._ot_ends):
            # the GS downlink has no ISL direction, so it matches no column
            links, cols = np.nonzero(sorted_neighbors[tx] == rx[:, None])
            self._sinr_cells.append(np.stack(
                [links, np.searchsorted(nodes, tx[links]), cols]))
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
        chosen = []
        blocked = {self.gs_flat}
        while len(chosen) < n_sources:
            if len(blocked) == self.c.n_sats:
                raise SourceSelectionError(
                    f"{n_sources} requested, but only {len(chosen)} "
                    f"nonadjacent sources fit in this draw: every other "
                    f"satellite neighbors one or is the GS-connected one")
            cand = int(rng.integers(self.c.n_sats))
            if cand in blocked:
                continue
            chosen.append(cand)
            blocked.add(cand)
            blocked.update(self.c.neighbors[cand].tolist())
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
        """Quantized (alloc_to, alloc_ot), each (subarrays [tx, links],
        power_w [tx, links, K]) with rows in env.sources order (4 links each,
        in neighbor order) and env.outcome_transmitters order (1 link each);
        flattened, the links are in link-list order."""
        s_max = self.array_cfg.s_max
        p_max = self.budget.p_max_w
        n_src = len(self.sources)
        k = self.band_to.n_subbands
        # one budget per source over its 4 links x K sub-bands
        power_to = sec_sim.quantize_power(
            bundle.to_power.reshape(n_src, 4 * k), p_max).reshape(n_src, 4, k)
        alloc_to = (sec_sim.quantize_subarrays(bundle.to_subarrays, s_max),
                    power_to)
        alloc_ot = (sec_sim.quantize_subarrays(bundle.ot_subarray[:, None],
                                               s_max),
                    sec_sim.quantize_power(bundle.ot_power, p_max)[:, None])
        return alloc_to, alloc_ot

    def _rates(self, alloc_to: tuple, alloc_ot: tuple, pos: np.ndarray,
               band_to: BandPlan | None = None, band_ot: BandPlan | None = None):
        """Rates and per-sub-band SINRs of both phases at `pos` (from
        _positions), one thz_link chain call per phase over a [links x
        sub-bands] grid.  Returns (rates_to, rates_ot, gammas_to, gammas_ot)
        as arrays in link-list order."""
        out = []
        for (subarrays, power), ends, band in (
                (alloc_to, self._to_ends, band_to or self.band_to),
                (alloc_ot, self._ot_ends, band_ot or self.band_ot)):
            alpha2 = thz_link.path_gain(band.centers_hz,
                                        pos[ends[0], None], pos[ends[1], None])
            for i in np.flatnonzero(ends[1] == GS_NODE):
                # molecular absorption on the GS downlink only
                alpha2[i] *= thz_link.absorption_factor(
                    pos[ends[0, i]], pos[GS_NODE], band.absorption)
            power = power.reshape(-1, power.shape[-1])
            h2 = thz_link.link_gain(
                subarrays.reshape(-1, 1),
                self.array_cfg.rx_subarrays_per_isl, self.array_cfg, alpha2,
                gain_interpretation=self.budget.gain_interpretation,
                element_gain_scale=band.element_gain_scale)
            sigma2 = thz_link.noise_power(self.budget.noise_temperature_k,
                                          band.bandwidth_hz)
            gammas = thz_link.sinr(power, h2, self.budget.interference_mean_w,
                                   sigma2)
            rates = thz_link.link_rate(power > 0.0, gammas, band.bandwidth_hz)
            out.append((rates, gammas))
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
        """Apply one slot of actions; returns (SlotOutcome, task table,
        (alloc_to, alloc_ot)), the task table in env.sources x server-table
        order."""
        pos = self._positions(self.time_at(self.step_idx))
        alloc_to, alloc_ot = allocations or self._quantize_allocations(bundle)
        counts = self.counts[:, min(self.step_idx, self.counts.shape[1] - 1)]
        tasks = sec_sim.quantize_offload(bundle.offload, counts)
        rates_to, rates_ot, gammas_to, gammas_ot = self._rates(
            alloc_to, alloc_ot, pos, band_to, band_ot)
        # one distance array per phase; vecdot keeps np.linalg.norm's bits
        d_to, d_ot = (np.sqrt(np.vecdot(v, v))
                      for v in (np.subtract(*pos[self._to_ends]),
                                np.subtract(*pos[self._ot_ends])))
        n_src = len(self.sources)
        outcome = sec_sim.simulate_slot(
            tasks=tasks, servers=self._server_table,
            rates_to=rates_to.reshape(n_src, -1),
            dist_to_km=d_to.reshape(n_src, -1),
            first_link=self._first_link, next_link=self._next_link,
            rates_ot=rates_ot, dist_ot_km=d_ot,
            alloc_to=alloc_to, alloc_ot=alloc_ot,
            compute=self.compute, task_size_bytes=self.traffic_cfg.task_size_bytes,
            reward_params=self.reward_params, p_max_w=self.budget.p_max_w,
            s_max=self.array_cfg.s_max)

        if advance:
            # next-slot state: realized SINRs and expected outcome inflow
            self._record_sinrs(gammas_to, gammas_ot)
            self._expected_outcome = self._expected_outcome_inflow(
                bundle.offload)
            self.step_idx += 1
        return outcome, tasks, (alloc_to, alloc_ot)
