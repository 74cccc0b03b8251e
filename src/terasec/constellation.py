"""Walker-Delta constellation geometry, ISL topology, GS visibility and routing.

All positions are Earth-centered inertial, in km.  The constellation is
immutable after construction; every operation here is a pure function of
(constellation, time).
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

EARTH_RADIUS_KM = 6371.0
MU_EARTH_KM3_S2 = 398600.4418
SIDEREAL_RATE_RAD_S = 7.2921150e-5
SPEED_OF_LIGHT_KM_S = 299792.458


class ConfigurationError(ValueError):
    """Invalid constellation or ground-station configuration."""


class TopologyError(RuntimeError):
    """ISL topology cannot be derived (e.g. fewer than 3 planes)."""


class VisibilityError(RuntimeError):
    """No satellite above the minimum elevation angle."""


class RoutingError(RuntimeError):
    """No route exists on the ISL graph."""


@dataclass(frozen=True)
class SatId:
    """Satellite identified by (orbital plane, slot within plane)."""

    plane: int
    slot: int

    def flat(self, sats_per_plane: int) -> int:
        return self.plane * sats_per_plane + self.slot

    @staticmethod
    def from_flat(idx: int, sats_per_plane: int) -> "SatId":
        return SatId(idx // sats_per_plane, idx % sats_per_plane)


@dataclass(frozen=True)
class WalkerConfig:
    planes: int = 72
    sats_per_plane: int = 22
    inclination_deg: float = 53.0
    altitude_km: float = 550.0
    phasing_factor: int = 0
    epoch_s: float = 0.0

    def __post_init__(self):
        if self.planes < 1:
            raise ConfigurationError("planes must be >= 1")
        if self.sats_per_plane < 3:
            raise ConfigurationError("sats_per_plane must be >= 3")
        if not 0.0 <= self.inclination_deg <= 90.0:
            raise ConfigurationError("inclination_deg must be in [0, 90]")
        if self.altitude_km <= 0:
            raise ConfigurationError("altitude_km must be > 0")


@dataclass(frozen=True)
class GroundStation:
    latitude_deg: float = 31.2
    longitude_deg: float = 121.4
    min_elevation_deg: float = 15.0

    def __post_init__(self):
        if abs(self.latitude_deg) > 90.0:
            raise ConfigurationError("latitude_deg must be in [-90, 90]")
        if not 0.0 < self.min_elevation_deg < 90.0:
            raise ConfigurationError("min_elevation_deg must be in (0, 90)")


@dataclass(frozen=True)
class Route:
    """Hop sequence from a source satellite to the GS-connected satellite.

    ``hops`` starts at the source and ends at the GS-connected satellite;
    ``hop_distances_km`` has one entry per edge (len(hops) - 1 entries).
    """

    hops: tuple
    hop_distances_km: tuple

    @property
    def n_hops(self) -> int:
        return len(self.hops) - 1


class Constellation:
    """Walker-Delta shell: positions, ISL neighbors, GS access, routing."""

    def __init__(self, cfg: WalkerConfig):
        self.cfg = cfg
        self.n_sats = cfg.planes * cfg.sats_per_plane
        self.orbit_radius_km = EARTH_RADIUS_KM + cfg.altitude_km
        self.angular_rate = math.sqrt(MU_EARTH_KM3_S2 / self.orbit_radius_km**3)
        self.inclination = math.radians(cfg.inclination_deg)
        # plane spacing over full 360 deg; inter-plane phase offset per Walker Delta
        self._raan = 2.0 * math.pi * np.arange(cfg.planes) / cfg.planes
        self._phase_step = 2.0 * math.pi / cfg.sats_per_plane
        self._plane_phase = (2.0 * math.pi * cfg.phasing_factor
                             / (cfg.planes * cfg.sats_per_plane))
        # base true anomaly per flat index
        planes = np.repeat(np.arange(cfg.planes), cfg.sats_per_plane)
        slots = np.tile(np.arange(cfg.sats_per_plane), cfg.planes)
        self._base_anomaly = slots * self._phase_step + planes * self._plane_phase
        self._raan_flat = self._raan[planes]
        self._neighbor_cache = {}

    # -- geometry ---------------------------------------------------------

    def intra_plane_chord_km(self) -> float:
        return 2.0 * self.orbit_radius_km * math.sin(math.pi / self.cfg.sats_per_plane)

    def _check_id(self, sat: SatId) -> None:
        if not (0 <= sat.plane < self.cfg.planes
                and 0 <= sat.slot < self.cfg.sats_per_plane):
            raise ConfigurationError(f"invalid satellite id {sat}")

    def positions_at(self, t: float) -> np.ndarray:
        """ECI positions of all satellites at time t, shape [n_sats, 3] km."""
        u = self._base_anomaly + self.angular_rate * (t - self.cfg.epoch_s)
        cos_u, sin_u = np.cos(u), np.sin(u)
        cos_o, sin_o = np.cos(self._raan_flat), np.sin(self._raan_flat)
        cos_i, sin_i = math.cos(self.inclination), math.sin(self.inclination)
        x = cos_o * cos_u - sin_o * sin_u * cos_i
        y = sin_o * cos_u + cos_o * sin_u * cos_i
        z = sin_u * sin_i
        return self.orbit_radius_km * np.stack([x, y, z], axis=1)

    def position_at(self, sat: SatId, t: float) -> np.ndarray:
        self._check_id(sat)
        return self.positions_at(t)[sat.flat(self.cfg.sats_per_plane)]

    def distance_km(self, a: SatId, b: SatId, t: float) -> float:
        pos = self.positions_at(t)
        s = self.cfg.sats_per_plane
        return float(np.linalg.norm(pos[a.flat(s)] - pos[b.flat(s)]))

    # -- ISL topology -----------------------------------------------------

    def isl_neighbors(self, sat: SatId) -> list:
        """The 4 ISL neighbors: 2 intra-plane and 2 inter-plane (closest phasing)."""
        self._check_id(sat)
        if self.cfg.planes < 3:
            raise TopologyError("inter-plane ISLs require at least 3 planes")
        key = (sat.plane, sat.slot)
        cached = self._neighbor_cache.get(key)
        if cached is not None:
            return list(cached)
        p, s = sat.plane, sat.slot
        n_s = self.cfg.sats_per_plane
        out = [SatId(p, (s + 1) % n_s), SatId(p, (s - 1) % n_s)]
        my_anom = s * self._phase_step + p * self._plane_phase
        for dp in (1, -1):
            q = (p + dp) % self.cfg.planes
            best_slot, best_diff = 0, float("inf")
            for s2 in range(n_s):
                anom = s2 * self._phase_step + q * self._plane_phase
                diff = abs(math.remainder(anom - my_anom, 2.0 * math.pi))
                # deterministic tie-break: lower slot index wins
                if diff < best_diff - 1e-12:
                    best_slot, best_diff = s2, diff
            out.append(SatId(q, best_slot))
        self._neighbor_cache[key] = tuple(out)
        return out

    def isl_edges(self, t: float | None = None) -> list:
        """All undirected ISL edges as (flat_a, flat_b, distance_km), a < b."""
        if t is None:
            t = self.cfg.epoch_s
        pos = self.positions_at(t)
        n_sp = self.cfg.sats_per_plane
        edges = set()
        for idx in range(self.n_sats):
            sat = SatId.from_flat(idx, n_sp)
            for nb in self.isl_neighbors(sat):
                j = nb.flat(n_sp)
                edges.add((min(idx, j), max(idx, j)))
        out = []
        for a, b in sorted(edges):
            out.append((a, b, float(np.linalg.norm(pos[a] - pos[b]))))
        return out

    # -- ground station ---------------------------------------------------

    def gs_position(self, gs: GroundStation, t: float) -> np.ndarray:
        """GS position in ECI; Earth rotates at the sidereal rate."""
        lat = math.radians(gs.latitude_deg)
        lon = math.radians(gs.longitude_deg) + SIDEREAL_RATE_RAD_S * t
        return EARTH_RADIUS_KM * np.array(
            [math.cos(lat) * math.cos(lon),
             math.cos(lat) * math.sin(lon),
             math.sin(lat)])

    def elevation_deg(self, sat: SatId, gs: GroundStation, t: float) -> float:
        gs_pos = self.gs_position(gs, t)
        up = gs_pos / np.linalg.norm(gs_pos)
        v = self.position_at(sat, t) - gs_pos
        return math.degrees(math.asin(float(np.dot(v, up)) / float(np.linalg.norm(v))))

    def gs_access_satellite(self, gs: GroundStation, t: float,
                            previous: SatId | None = None) -> SatId:
        """Sticky GS access: keep `previous` while visible, else nearest visible."""
        if previous is not None:
            if self.elevation_deg(previous, gs, t) >= gs.min_elevation_deg:
                return previous
        gs_pos = self.gs_position(gs, t)
        up = gs_pos / np.linalg.norm(gs_pos)
        pos = self.positions_at(t)
        rel = pos - gs_pos
        slant = np.linalg.norm(rel, axis=1)
        elev = np.degrees(np.arcsin(rel @ up / slant))
        visible = np.flatnonzero(elev >= gs.min_elevation_deg)
        if visible.size == 0:
            raise VisibilityError(f"no satellite above {gs.min_elevation_deg} deg at t={t}")
        # minimum slant range, ties broken by flat index (argmin picks first)
        best = visible[int(np.argmin(slant[visible]))]
        return SatId.from_flat(int(best), self.cfg.sats_per_plane)

    # -- routing ----------------------------------------------------------

    def shortest_path_tree(self, gs_sat: SatId, t: float,
                           eta: float = 0.5) -> tuple:
        """Dijkstra tree rooted at gs_sat under w(i,j) = 1 + eta*d(i,j)/d_ref.

        Returns (dist, parent) arrays over flat indices; parent[root] = -1.
        Parent choice is deterministic: among optimal predecessors the lowest
        flat index wins, which makes every hop sequence lexicographically
        minimal.
        """
        if self.cfg.planes < 3:
            raise TopologyError("routing requires the 4-ISL topology")
        pos = self.positions_at(t)
        d_ref = self.intra_plane_chord_km()
        n_sp = self.cfg.sats_per_plane
        nbrs = []
        for idx in range(self.n_sats):
            sat = SatId.from_flat(idx, n_sp)
            row = []
            for nb in self.isl_neighbors(sat):
                j = nb.flat(n_sp)
                w = 1.0 + eta * float(np.linalg.norm(pos[idx] - pos[j])) / d_ref
                row.append((j, w))
            nbrs.append(row)
        root = gs_sat.flat(n_sp)
        dist = np.full(self.n_sats, np.inf)
        dist[root] = 0.0
        heap = [(0.0, root)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in nbrs[u]:
                nd = d + w
                if nd < dist[v] - 1e-12:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        if not np.all(np.isfinite(dist)):
            raise RoutingError("ISL graph is disconnected")
        parent = np.full(self.n_sats, -1, dtype=int)
        for idx in range(self.n_sats):
            if idx == root:
                continue
            best, best_cost = -1, float("inf")
            for j, w in nbrs[idx]:
                cost = w + dist[j]
                if cost < best_cost - 1e-9 or (cost < best_cost + 1e-9 and j < best):
                    best, best_cost = j, cost
            parent[idx] = best
        return dist, parent

    def route_to_gs(self, src: SatId, gs_sat: SatId, eta: float = 0.5,
                    t: float | None = None,
                    tree: tuple | None = None) -> Route:
        """Shortest route from src to the GS-connected satellite."""
        self._check_id(src)
        self._check_id(gs_sat)
        if t is None:
            t = self.cfg.epoch_s
        if tree is None:
            tree = self.shortest_path_tree(gs_sat, t, eta)
        _, parent = tree
        n_sp = self.cfg.sats_per_plane
        pos = self.positions_at(t)
        hops = [src]
        dists = []
        cur = src.flat(n_sp)
        root = gs_sat.flat(n_sp)
        while cur != root:
            nxt = int(parent[cur])
            if nxt < 0:
                raise RoutingError(f"no route from {src} to {gs_sat}")
            dists.append(float(np.linalg.norm(pos[cur] - pos[nxt])))
            hops.append(SatId.from_flat(nxt, n_sp))
            cur = nxt
        return Route(hops=tuple(hops), hop_distances_km=tuple(dists))


def build_walker(cfg: WalkerConfig) -> Constellation:
    """Construct the Walker-Delta shell described by cfg."""
    return Constellation(cfg)
