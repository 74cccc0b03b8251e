"""Walker-Delta constellation geometry, ISL topology, GS visibility and routing.

All positions are Earth-centered inertial, in km.  The constellation is
immutable after construction; every operation here is a pure function of
(constellation, time).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EARTH_RADIUS_KM = 6371.0
MU_EARTH_KM3_S2 = 398600.4418
SIDEREAL_RATE_RAD_S = 7.2921150e-5
SPEED_OF_LIGHT_KM_S = 299792.458


class ConfigurationError(ValueError):
    """Invalid constellation or ground-station configuration."""


class RoutingError(ValueError):
    """No routing tree under the given weights."""


class VisibilityError(RuntimeError):
    """No satellite above the minimum elevation angle."""


#: bounds planes x sats_per_plane: the [n_sats, 4] ISL and [n_sats, 3] position
#: tables (8 and 6 MiB here) and the routing tree's relaxation grow with it
MAX_SATELLITES = 2**18

#: bounds altitude_km: beyond Earth's Hill sphere (about 1.5 million km) a
#: satellite is not in Earth orbit; the orbit radius cubed stays finite
MAX_ALTITUDE_KM = 1.5e6


@dataclass(frozen=True)
class WalkerConfig:
    planes: int = 72
    sats_per_plane: int = 22
    inclination_deg: float = 53.0
    altitude_km: float = 550.0
    phasing_factor: int = 0
    epoch_s: float = 0.0

    def __post_init__(self):
        if self.planes < 3:
            raise ConfigurationError(
                "planes must be >= 3 for the 4-ISL topology")
        if self.sats_per_plane < 3:
            raise ConfigurationError("sats_per_plane must be >= 3")
        if self.planes * self.sats_per_plane > MAX_SATELLITES:
            raise ConfigurationError(
                f"planes x sats_per_plane must be <= {MAX_SATELLITES}")
        if not 0.0 <= self.inclination_deg <= 90.0:
            raise ConfigurationError("inclination_deg must be in [0, 90]")
        if not 0 < self.altitude_km <= MAX_ALTITUDE_KM:
            raise ConfigurationError(
                f"altitude_km must be in (0, {MAX_ALTITUDE_KM:g}]")
        # the plane phase 2 pi F / (P S) repeats with period P S
        if abs(self.phasing_factor) >= self.planes * self.sats_per_plane:
            raise ConfigurationError(
                "|phasing_factor| must be < planes x sats_per_plane")


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


class Constellation:
    """Walker-Delta shell: positions, ISL neighbors, GS access, routing.

    ``neighbors`` is the read-only ``[n_sats, 4]`` ISL graph over flat
    indices (``plane * sats_per_plane + slot``), columns slot+1, slot-1,
    plane+1, plane-1.
    """

    def __init__(self, cfg: WalkerConfig):
        self.cfg = cfg
        self.n_sats = cfg.planes * cfg.sats_per_plane
        self.orbit_radius_km = EARTH_RADIUS_KM + cfg.altitude_km
        self.angular_rate = math.sqrt(MU_EARTH_KM3_S2 / self.orbit_radius_km**3)
        self.inclination = math.radians(cfg.inclination_deg)
        # plane spacing over full 360 deg; inter-plane phase offset per Walker Delta
        raan = 2.0 * math.pi * np.arange(cfg.planes) / cfg.planes
        self._phase_step = 2.0 * math.pi / cfg.sats_per_plane
        self._plane_phase = (2.0 * math.pi * cfg.phasing_factor
                             / (cfg.planes * cfg.sats_per_plane))
        # base true anomaly per flat index
        planes = np.repeat(np.arange(cfg.planes), cfg.sats_per_plane)
        slots = np.tile(np.arange(cfg.sats_per_plane), cfg.planes)
        self._base_anomaly = slots * self._phase_step + planes * self._plane_phase
        # each satellite's RAAN cosine and sine, which no instant changes
        raan_flat = raan[planes]
        self._cos_raan, self._sin_raan = np.cos(raan_flat), np.sin(raan_flat)
        self.neighbors = self._neighbor_table(planes, slots)

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

    def positions_at(self, t: float) -> np.ndarray:
        """ECI positions of all satellites at time t, shape [n_sats, 3] km."""
        u = self._base_anomaly + self.angular_rate * (t - self.cfg.epoch_s)
        cos_u, sin_u = np.cos(u), np.sin(u)
        cos_o, sin_o = self._cos_raan, self._sin_raan
        cos_i, sin_i = math.cos(self.inclination), math.sin(self.inclination)
        x = cos_o * cos_u - sin_o * sin_u * cos_i
        y = sin_o * cos_u + cos_o * sin_u * cos_i
        z = sin_u * sin_i
        return self.orbit_radius_km * np.stack([x, y, z], axis=1)

    # -- ISL topology -----------------------------------------------------

    def isl_neighbors(self, sat: int) -> list:
        """The 4 ISL neighbors of flat index sat, in ``neighbors`` order."""
        if not 0 <= sat < self.n_sats:
            raise ConfigurationError(f"invalid satellite id {sat}")
        return self.neighbors[sat].tolist()

    def isl_edges(self, t: float) -> list:
        """All undirected ISL edges as (flat_a, flat_b, distance_km), a < b,
        sorted, each read off its lower end's row of the symmetric table."""
        own = np.repeat(np.arange(self.n_sats), self.neighbors.shape[1])
        other = self.neighbors.ravel()
        lower = own < other
        # already sorted: a row's higher neighbors come in column order, the
        # next slot, the wrapped previous slot, the next plane, plane P-1
        a, b = own[lower], other[lower]
        pos = self.positions_at(t)
        v = pos[a] - pos[b]
        # vecdot keeps np.linalg.norm's bits
        dist = np.sqrt(np.vecdot(v, v))
        return list(zip(a.tolist(), b.tolist(), dist.tolist()))

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
                           eta: float = 0.5) -> np.ndarray:
        """Parent array (-1 at the root) of the shortest-path tree rooted at
        flat index gs_sat under w(i,j) = 1 + eta*d(i,j)/d_ref.

        A pass relaxes only the neighbors of the satellites the last pass
        lowered (the graph is symmetric).  A neighbor replaces the best parent
        so far when its cost is lower by more than 1e-9, or within 1e-9 with a
        lower flat index: every hop sequence is lexicographically minimal.
        """
        table = self.neighbors
        # a negative weight would keep lowering distances around a cycle
        if not (math.isfinite(eta) and eta >= 0):
            raise RoutingError(f"eta must be a finite number >= 0, got {eta!r}")
        pos = self.positions_at(t)
        v = pos[:, None, :] - pos[table]
        dist = np.full(self.n_sats, np.inf)
        dist[gs_sat] = 0.0
        changed = np.array([gs_sat])
        # a weight or a path cost that overflows leaves a satellite at inf
        with np.errstate(over="ignore"):
            weights = (1.0 + eta * np.sqrt(np.vecdot(v, v))
                       / self.intra_plane_chord_km())
            while changed.size:
                # deduplicated by sort (np.unique would import numpy.ma)
                near = np.sort(table[changed], axis=None)
                near = near[np.diff(near, prepend=-1) > 0]
                relaxed = np.min(dist[table[near]] + weights[near], axis=1)
                lower = relaxed < dist[near]
                changed = near[lower]
                dist[changed] = relaxed[lower]
            cost = dist[table] + weights
        if not np.isfinite(dist).all():
            raise RoutingError(f"eta={eta!r} makes a path cost overflow a float")
        parent, best = table[:, 0], cost[:, 0]
        for j, c in zip(table.T[1:], cost.T[1:]):
            wins = (c < best - 1e-9) | ((c < best + 1e-9) & (j < parent))
            parent, best = np.where(wins, j, parent), np.where(wins, c, best)
        parent[gs_sat] = -1
        return parent
