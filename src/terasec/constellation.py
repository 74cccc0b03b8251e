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
    """Hop sequence, as flat satellite indices, from a source satellite to the
    GS-connected satellite (both included)."""

    hops: tuple


class Constellation:
    """Walker-Delta shell: positions, ISL neighbors, GS access, routing.

    ``neighbors`` is the read-only ``[n_sats, 4]`` ISL graph over flat
    indices (``plane * sats_per_plane + slot``), columns slot+1, slot-1,
    plane+1, plane-1; it is None below 3 planes, where the inter-plane
    neighbors are not defined.
    """

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
        self.neighbors = (self._neighbor_table(planes, slots)
                          if cfg.planes >= 3 else None)

    def _neighbor_table(self, planes: np.ndarray, slots: np.ndarray) -> np.ndarray:
        """The 4-ISL graph: 2 intra-plane and 2 inter-plane (closest phasing).

        Slot j of the next plane leads slot j of this one by F/P slot
        spacings (by (1 - P) * F / P from the last plane to plane 0), so the
        closest slot in the next plane is j + k for one shift k per plane
        pair: the integer nearest to minus that lead, modulo S.  On an exact
        half-slot tie (F = P/2 mod P) the smaller forward shift wins, which
        keeps k one shift; the plane-1 column is the inverse of the plane+1
        column, so the graph is symmetric and 4-regular.
        """
        n_p, n_s = self.cfg.planes, self.cfg.sats_per_plane
        plane_step = np.where(np.arange(n_p) == n_p - 1, 1 - n_p, 1)
        low, rem = np.divmod(-plane_step * self.cfg.phasing_factor, n_p)
        shift = np.where(2 * rem == n_p,
                         np.minimum(low % n_s, (low + 1) % n_s),
                         (low + (2 * rem > n_p)) % n_s)
        up, down = (planes + 1) % n_p, (planes - 1) % n_p
        table = np.stack([planes * n_s + (slots + 1) % n_s,
                          planes * n_s + (slots - 1) % n_s,
                          up * n_s + (slots + shift[planes]) % n_s,
                          down * n_s + (slots - shift[down]) % n_s], axis=1)
        table.setflags(write=False)
        return table

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

    # -- ISL topology -----------------------------------------------------

    def _isl_table(self) -> np.ndarray:
        if self.neighbors is None:
            raise TopologyError("inter-plane ISLs require at least 3 planes")
        return self.neighbors

    def isl_neighbors(self, sat: SatId) -> list:
        """The 4 ISL neighbors of sat, in the ``neighbors`` column order."""
        self._check_id(sat)
        n_sp = self.cfg.sats_per_plane
        return [SatId.from_flat(j, n_sp)
                for j in self._isl_table()[sat.flat(n_sp)].tolist()]

    def isl_edges(self, t: float | None = None) -> list:
        """All undirected ISL edges as (flat_a, flat_b, distance_km), a < b."""
        if t is None:
            t = self.cfg.epoch_s
        table = self._isl_table()
        pos = self.positions_at(t)
        own = np.repeat(np.arange(self.n_sats), table.shape[1])
        pairs = np.unique(np.sort(np.stack([own, table.ravel()], axis=1), axis=1),
                          axis=0)
        v = pos[pairs[:, 0]] - pos[pairs[:, 1]]
        # vecdot keeps np.linalg.norm's bits
        dist = np.sqrt(np.vecdot(v, v))
        return [(a, b, d) for (a, b), d in zip(pairs.tolist(), dist.tolist())]

    # -- ground station ---------------------------------------------------

    def gs_position(self, gs: GroundStation, t: float) -> np.ndarray:
        """GS position in ECI; Earth rotates at the sidereal rate."""
        lat = math.radians(gs.latitude_deg)
        lon = math.radians(gs.longitude_deg) + SIDEREAL_RATE_RAD_S * t
        return EARTH_RADIUS_KM * np.array(
            [math.cos(lat) * math.cos(lon),
             math.cos(lat) * math.sin(lon),
             math.sin(lat)])

    def gs_access_satellite(self, gs: GroundStation, t: float) -> int:
        """Flat index of the nearest satellite above the GS's minimum elevation."""
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
        return int(visible[int(np.argmin(slant[visible]))])

    # -- routing ----------------------------------------------------------

    def shortest_path_tree(self, gs_sat: int, t: float,
                           eta: float = 0.5) -> tuple:
        """Dijkstra tree rooted at flat index gs_sat under
        w(i,j) = 1 + eta*d(i,j)/d_ref.

        Returns (dist, parent) arrays over flat indices; parent[root] = -1.
        Parent choice is deterministic: among optimal predecessors the lowest
        flat index wins, which makes every hop sequence lexicographically
        minimal.
        """
        table = self._isl_table()
        # a negative weight keeps Dijkstra from ever settling
        if not (math.isfinite(eta) and eta >= 0):
            raise ValueError(f"eta must be a finite number >= 0, got {eta!r}")
        pos = self.positions_at(t)
        v = pos[:, None, :] - pos[table]
        weights = 1.0 + eta * np.sqrt(np.vecdot(v, v)) / self.intra_plane_chord_km()
        nbrs = [list(zip(js, ws))
                for js, ws in zip(table.tolist(), weights.tolist())]
        root = gs_sat
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

    def route_to_gs(self, src: int, gs_sat: int, eta: float = 0.5,
                    t: float | None = None,
                    tree: tuple | None = None) -> Route:
        """Shortest route from flat index src to the GS-connected satellite:
        the parent walk of `tree`, or of a fresh shortest-path tree."""
        for sat in (src, gs_sat):
            if not 0 <= sat < self.n_sats:
                raise ConfigurationError(f"invalid satellite index {sat}")
        if tree is None:
            tree = self.shortest_path_tree(
                gs_sat, self.cfg.epoch_s if t is None else t, eta)
        _, parent = tree
        hops = [src]
        while hops[-1] != gs_sat:
            nxt = int(parent[hops[-1]])
            if nxt < 0:
                raise RoutingError(f"no route from {src} to {gs_sat}")
            hops.append(nxt)
        return Route(hops=tuple(hops))


def build_walker(cfg: WalkerConfig) -> Constellation:
    """Construct the Walker-Delta shell described by cfg."""
    return Constellation(cfg)
