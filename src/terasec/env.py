"""Frozen-window environment: source selection, the routing tree's link
tables, per-slot action application and state bookkeeping for the learning
agents.

Within one GS access window the GS-connected satellite, the source set and
the routing tree are fixed, so the link tables and the involved node set are
built once per window;
satellite positions (hence distances, delays and SINRs) advance every slot
and each phase's links are rated in one array pass from one distance each.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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


def tree_closure(parent: np.ndarray, servers) -> np.ndarray:
    """The servers and all of their ancestors in a routing tree's `parent`
    array (GS_NODE above the root), in ascending flat id."""
    inside = np.zeros(len(parent), dtype=bool)
    frontier = np.ravel(servers)
    while frontier.size:
        inside[frontier] = True
        frontier = parent[frontier]
        frontier = frontier[frontier != GS_NODE]
        frontier = frontier[~inside[frontier]]
    return np.flatnonzero(inside)


@dataclass
class ActionBundle:
    """Continuous post-softmax ratios for one slot, before quantization: the
    actor heads' action columns, in their order and shapes.

    Row order follows env.sources for the offloading phase and env.involved
    (each node's link to its routing-tree parent) for the outcome phase.
    """

    offload: np.ndarray       # [n_src, 5]; column 0 = self share
    to_subarrays: np.ndarray  # [n_src, 4]; sum <= 1 per row
    to_power: np.ndarray      # [n_src, 4K], link-major; sum <= 1 per row
    ot_subarray: np.ndarray   # [n_tx, 1]; in [0, 1]
    ot_power: np.ndarray      # [n_tx, K]; sum <= 1 per transmitter


class _Geometry(NamedTuple):
    """What a slot's positions fix on every band pair: per phase
    (offloading, outcome), the link lengths in km and their propagation
    delays in s (the offload hops' as an [n_src, 4] array, the outcome
    links' as the list sec_sim.outcome_spans reads); and the GS downlink's
    path samples (thz_link.absorption_path's)."""

    distances: list
    delays: list
    downlink: tuple


class _SlotRecord(NamedTuple):
    """One slot's bundle and what follows from it on every band pair; see
    SecWindow.step."""

    geometry: _Geometry
    arrays: list             # copies of the bundle's arrays
    allocations: tuple       # (alloc_to, alloc_ot)
    tasks: np.ndarray
    loads: sec_sim.SlotLoads
    usage: tuple             # sec_sim.resource_usage's
    evaluations: dict        # band pair -> (step's result, gammas)


@dataclass
class Snapshot:
    """Per-slot observables; the agents build the static per-node ones."""

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
                 n_sources: int,
                 steps: int,
                 source_seed: int,
                 routing_eta: float):
        self.c = constellation
        self.gs = gs
        self.traffic_cfg = traffic_cfg
        self.array_cfg = array_cfg
        self.budget = budget
        self.band_to = band_to
        self.band_ot = band_ot
        self.compute = compute
        self.reward_params = reward_params

        self.t0, self.gs_flat = self._find_window_start()
        # frozen routing tree
        parent = constellation.shortest_path_tree(self.gs_flat, self.t0,
                                                  routing_eta)

        self.sources = self._select_sources(n_sources, source_seed)
        # [n_src, 5] servers of each source's offload shares: itself, then
        # its ISL neighbors in ascending flat order
        sorted_neighbors = np.sort(constellation.neighbors, axis=1)
        servers = np.column_stack([self.sources,
                                   sorted_neighbors[self.sources]])
        # the involved nodes: the servers and their routing-tree ancestors
        self.involved = nodes = tree_closure(parent, servers)
        self.counts = generate_counts(traffic_cfg, len(self.sources), steps)
        self.step_idx = 0

        # frozen link tables: per phase, the links' [2, links] end rows into
        # _positions(t) (GS_NODE indexes the GS in its last row).  Offload
        # link 4i + j is source i's to its j-th neighbor; outcome link i is
        # node i's to its tree parent, so a link's next link is its
        # receiver's (-1 into the GS) and a server's first link is its own
        self._to_ends = np.stack([np.repeat(self.sources, 4),
                                  servers[:, 1:].ravel()])
        self._ot_ends = np.stack([nodes, parent[nodes]])
        self._offload_rows = np.searchsorted(nodes, servers)
        rx = self._ot_ends[1]
        self._routes = sec_sim.RouteTree(
            np.where(rx == GS_NODE, -1, np.searchsorted(nodes, rx)))
        # the one link into the GS, the only one that molecular absorption
        # reaches: the GS-connected satellite's outcome link (offload links
        # join two satellites)
        (self._downlink,) = np.flatnonzero(rx == GS_NODE).tolist()
        # the graph's edges as node-row pairs, each offload ISL and each tree
        # ISL once: every ISL at a source is an offload ISL, so the tree
        # adds those between two other nodes
        up = self._routes.next_link
        is_source = np.isin(nodes, self.sources)
        tree = np.flatnonzero((up != -1) & ~is_source & ~is_source[up])
        self.edges = np.concatenate([np.searchsorted(nodes, self._to_ends).T,
                                     np.column_stack([tree, up[tree]])])
        for a in (self.involved, self.edges):
            a.setflags(write=False)
        # the (link, node row, ISL direction) cell of every rated link that
        # has a SINR feature
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
        geometry = self._geometry(self.t0)
        _, gammas_to = self._rate_phase(0, alloc_to, band_to, geometry)
        _, gammas_ot = self._rate_phase(1, alloc_ot, band_ot, geometry)
        self._record_sinrs(gammas_to, gammas_ot)
        self._slot = None       # this slot's record; see step

    # -- construction helpers ----------------------------------------------

    def _find_window_start(self):
        """(t0, gs_flat): the first instant with GS access, and its satellite."""
        t = self.c.cfg.epoch_s
        for _ in range(10000):
            try:
                return t, self.c.gs_access_satellite(self.gs, t)
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

    def _geometry(self, t: float) -> _Geometry:
        """The _Geometry of the slot at t, links in link-table order."""
        pos = self._positions(t)
        distances = []
        for ends in (self._to_ends, self._ot_ends):
            v = np.subtract(*pos[ends])
            distances.append(np.sqrt(np.vecdot(v, v)))  # bit-identical to norm
        prop_to, prop_ot = map(sec_sim.propagation_delay, distances)
        return _Geometry(distances, [prop_to.reshape(len(self.sources), -1),
                                     prop_ot.tolist()],
                         thz_link.absorption_path(pos[self.gs_flat],
                                                  pos[GS_NODE]))

    # -- allocations and rates -------------------------------------------------

    def _quantize_allocations(self, bundle: ActionBundle):
        """Quantized (alloc_to, alloc_ot), each (subarrays [tx, links],
        power_w [tx, links, K]) with rows in env.sources order (4 links each,
        in neighbor order) and env.involved order (1 link each, to the
        node's tree parent); flattened, the links are in link-table order."""
        s_max = self.array_cfg.s_max
        p_max = self.budget.p_max_w
        # one budget per source over its 4 links x K sub-bands
        power_to = sec_sim.quantize_power(bundle.to_power, p_max).reshape(
            len(self.sources), 4, self.band_to.n_subbands)
        alloc_to = (sec_sim.quantize_subarrays(bundle.to_subarrays, s_max),
                    power_to)
        alloc_ot = (sec_sim.quantize_subarrays(bundle.ot_subarray, s_max),
                    sec_sim.quantize_power(bundle.ot_power, p_max)[:, None])
        return alloc_to, alloc_ot

    def _rate_phase(self, phase: int, alloc: tuple, band: BandPlan,
                    geometry: _Geometry):
        """The links of phase 0 (offloading) or 1 (outcome) at `geometry`,
        rated by one thz_link.rate_links call over a [links x sub-bands]
        grid.  Returns (rates, gammas) as arrays in link-table order."""
        subarrays, power = alloc
        alpha2 = thz_link.path_gain(band.centers_hz,
                                    geometry.distances[phase][:, None])
        if phase:
            # molecular absorption on the GS downlink only
            alpha2[self._downlink] *= thz_link.absorption_factor(
                geometry.downlink, band.absorption)
        return thz_link.rate_links(subarrays.reshape(-1, 1),
                                   power.reshape(-1, power.shape[-1]), alpha2,
                                   self.array_cfg, self.budget, band)

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
        n_tx = len(self.involved)
        k = self.band_to.n_subbands
        offload = np.zeros((n_src, 5))
        offload[:, 0] = 1.0
        return ActionBundle(
            offload=offload,
            to_subarrays=np.full((n_src, 4), 0.25),
            to_power=np.full((n_src, 4 * k), 1.0 / (4 * k)),
            ot_subarray=np.ones((n_tx, 1)),
            ot_power=np.full((n_tx, k), 1.0 / k),
        )

    # -- snapshot and step -------------------------------------------------------

    def snapshot(self) -> Snapshot:
        return Snapshot(expected_outcome_bytes=self._expected_outcome.copy(),
                        sinr_to_db=self._sinr_to_db.copy(),
                        sinr_ot_db=self._sinr_ot_db.copy())

    def _record(self, bundle: ActionBundle, arrays: list,
                geometry: _Geometry) -> _SlotRecord:
        """The current slot's record of `bundle` at `geometry`: what no band
        pair changes, computed once."""
        allocations = self._quantize_allocations(bundle)
        tasks = sec_sim.quantize_offload(bundle.offload,
                                         self.counts[:, self.step_idx])
        loads = sec_sim.slot_loads(tasks, self._offload_rows, self.involved,
                                   self.compute,
                                   self.traffic_cfg.task_size_bytes)
        usage = sec_sim.resource_usage(*allocations, self.budget.p_max_w,
                                       self.array_cfg.s_max)
        return _SlotRecord(geometry, [a.copy() for a in arrays], allocations,
                           tasks, loads, usage, {})

    def _evaluate(self, slot: _SlotRecord, band_to: BandPlan,
                  band_ot: BandPlan):
        """(step's result, (gammas_to, gammas_ot)) of the slot's record on
        one band pair: rates and simulates, and changes no state."""
        alloc_to, alloc_ot = slot.allocations
        rates_to, gammas_to = self._rate_phase(0, alloc_to, band_to,
                                               slot.geometry)
        rates_ot, gammas_ot = self._rate_phase(1, alloc_ot, band_ot,
                                               slot.geometry)
        prop_to, prop_ot = slot.geometry.delays
        outcome = sec_sim.simulate_slot(
            loads=slot.loads, rates_to=rates_to.reshape(prop_to.shape),
            prop_to_s=prop_to, routes=self._routes, rates_ot=rates_ot,
            prop_ot_s=prop_ot, usage=slot.usage,
            reward_params=self.reward_params)
        return (outcome, slot.tasks, slot.allocations), (gammas_to, gammas_ot)

    def step(self, bundle: ActionBundle,
             band_to: BandPlan | None = None,
             band_ot: BandPlan | None = None,
             advance: bool = True):
        """Apply one slot of actions on a band pair (the window's by
        default); returns (SlotOutcome, task table, (alloc_to, alloc_ot)),
        the task table in env.sources x server order (the source itself,
        then its ISL neighbors in ascending flat order).  The slot's record
        holds what no band pair changes (its _Geometry, a copy of the
        bundle's arrays, their allocations, task table, server loads and
        resource usage) and each band pair's evaluation, so a
        bundle is quantized once and evaluated once per band pair, and an
        advancing step returns the very result of its replay (advance=False,
        which changes nothing else); a bundle whose arrays differ from the
        record's copies in shape, dtype or a byte (-0.0 against +0.0 too),
        or were changed in place, starts a new record with the same
        geometry."""
        bands = (band_to or self.band_to, band_ot or self.band_ot)
        arrays = list(vars(bundle).values())
        slot = self._slot
        if slot is None:
            slot = self._slot = self._record(
                bundle, arrays, self._geometry(self.time_at(self.step_idx)))
        elif not all(a.shape == b.shape and a.dtype == b.dtype
                     and a.tobytes() == b.tobytes()
                     for a, b in zip(slot.arrays, arrays)):
            slot = self._slot = self._record(bundle, arrays, slot.geometry)
        if bands not in slot.evaluations:
            slot.evaluations[bands] = self._evaluate(slot, *bands)
        result, gammas = slot.evaluations[bands]
        if not advance:
            return result
        # next-slot state: realized SINRs and expected outcome inflow
        self._record_sinrs(*gammas)
        self._expected_outcome = self._expected_outcome_inflow(bundle.offload)
        self.step_idx += 1
        self._slot = None
        return result
