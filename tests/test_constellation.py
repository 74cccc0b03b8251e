import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import topology_reference as ref
from terasec.constellation import (MAX_ALTITUDE_KM, ConfigurationError,
                                   Constellation, GroundStation,
                                   RoutingError, SIDEREAL_RATE_RAD_S,
                                   VisibilityError, WalkerConfig)

R_ORBIT = 6371.0 + 550.0


def test_default_shell_size(default_constellation):
    assert default_constellation.n_sats == 72 * 22


def test_orbit_radius(default_constellation):
    pos = default_constellation.positions_at(0.0)
    radii = np.linalg.norm(pos, axis=1)
    assert np.allclose(radii, R_ORBIT, atol=1e-6)


def test_single_plane_equal_spacing():
    c = Constellation(WalkerConfig(planes=3, sats_per_plane=4))
    pos = c.positions_at(0.0)[:4]   # plane 0
    # four satellites 90 degrees apart: consecutive dot products are zero
    for i in range(4):
        a, b = pos[i], pos[(i + 1) % 4]
        assert abs(float(np.dot(a, b))) < 1e-6 * R_ORBIT**2


def test_orbital_periodicity(default_constellation):
    c = default_constellation
    # independent Kepler period for a 6921 km circular orbit
    period = 2.0 * math.pi * math.sqrt(R_ORBIT**3 / 398600.4418)
    idx = 3 * c.cfg.sats_per_plane + 7
    p0 = c.positions_at(100.0)[idx]
    p1 = c.positions_at(100.0 + period)[idx]
    assert np.linalg.norm(p0 - p1) < 1e-6


def test_intra_plane_chord_oracle(default_constellation):
    # closed-form chord between adjacent satellites on a 6921 km circle
    expected = 2.0 * R_ORBIT * math.sin(math.pi / 22.0)
    assert abs(expected - 1969.9) < 0.1  # sanity on the oracle itself
    pos = default_constellation.positions_at(321.5)
    d = float(np.linalg.norm(pos[5 * 22 + 0] - pos[5 * 22 + 1]))
    assert abs(d - expected) < 1e-9


def test_positions_have_the_bits_of_the_per_call_formula():
    """positions_at reads each satellite's RAAN cosine and sine, computed
    once per shell; its positions have the bits of the formula that
    computed them on every call."""
    for cfg in (WalkerConfig(), WalkerConfig(planes=5, sats_per_plane=7,
                                             inclination_deg=87.0,
                                             phasing_factor=3,
                                             epoch_s=12.5)):
        c = Constellation(cfg)
        planes = np.repeat(np.arange(cfg.planes), cfg.sats_per_plane)
        raan = (2.0 * math.pi * np.arange(cfg.planes) / cfg.planes)[planes]
        for t in (cfg.epoch_s, 321.5, 86400.0):
            u = c._base_anomaly + c.angular_rate * (t - cfg.epoch_s)
            cos_u, sin_u = np.cos(u), np.sin(u)
            cos_o, sin_o = np.cos(raan), np.sin(raan)
            cos_i, sin_i = math.cos(c.inclination), math.sin(c.inclination)
            want = c.orbit_radius_km * np.stack(
                [cos_o * cos_u - sin_o * sin_u * cos_i,
                 sin_o * cos_u + cos_o * sin_u * cos_i,
                 sin_u * sin_i], axis=1)
            assert c.positions_at(t).tobytes() == want.tobytes()


def test_invalid_config_errors():
    with pytest.raises(ConfigurationError):
        Constellation(WalkerConfig(planes=0))
    with pytest.raises(ConfigurationError):
        Constellation(WalkerConfig(sats_per_plane=2))
    with pytest.raises(ConfigurationError):
        Constellation(WalkerConfig(inclination_deg=120.0))
    with pytest.raises(ConfigurationError):
        Constellation(WalkerConfig(altitude_km=-1.0))
    with pytest.raises(ConfigurationError, match="altitude_km"):
        WalkerConfig(altitude_km=MAX_ALTITUDE_KM * 2)
    assert WalkerConfig(altitude_km=MAX_ALTITUDE_KM)


def test_phasing_factor_is_bounded_by_its_period():
    """|F| < P x S keeps every factor of a distinct plane phase, negative
    ones included."""
    for f in (-34, -1, 0, 17, 34):
        WalkerConfig(planes=5, sats_per_plane=7, phasing_factor=f)
    for f in (-35, 35, 2**62):
        with pytest.raises(ConfigurationError, match="phasing_factor"):
            WalkerConfig(planes=5, sats_per_plane=7, phasing_factor=f)


def test_isl_neighbors_ring(default_constellation):
    # flat id = plane * 22 + slot
    nbrs = default_constellation.neighbors[0].tolist()
    assert 1 in nbrs and 21 in nbrs


def test_isl_neighbors_zero_phasing(default_constellation):
    # zero inter-plane phase offset aligns slots across planes
    for k in (0, 5, 21):
        nbrs = default_constellation.neighbors[k].tolist()
        assert 22 + k in nbrs and 71 * 22 + k in nbrs


def test_isl_neighbors_is_the_checked_table_row(default_constellation):
    c = default_constellation
    for idx in (0, 1, c.n_sats // 2, c.n_sats - 1):
        assert c.isl_neighbors(idx) == c.neighbors[idx].tolist()
    for idx in (-1, c.n_sats):
        with pytest.raises(ConfigurationError, match="invalid satellite id"):
            c.isl_neighbors(idx)


def test_isl_symmetry_and_regularity(default_constellation):
    c = default_constellation
    adj = {}
    for idx in range(c.n_sats):
        nbrs = c.neighbors[idx].tolist()
        assert len(nbrs) == 4
        assert len(set(nbrs)) == 4
        adj[idx] = set(nbrs)
    for i, nbrs in adj.items():
        for j in nbrs:
            assert i in adj[j], f"asymmetric edge {i}-{j}"
    # connectivity by BFS
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    assert len(seen) == c.n_sats


def test_isl_requires_three_planes():
    for planes in (1, 2):
        with pytest.raises(ConfigurationError, match="planes must be >= 3"):
            WalkerConfig(planes=planes, sats_per_plane=4)


def test_gs_sidereal_rotation(default_constellation):
    c = default_constellation
    gs = GroundStation()
    day = 2.0 * math.pi / SIDEREAL_RATE_RAD_S
    p0 = c.gs_position(gs, 0.0)
    p1 = c.gs_position(gs, day)
    assert np.linalg.norm(p0 - p1) < 1e-6
    # quarter turn moves the GS substantially
    assert np.linalg.norm(p0 - c.gs_position(gs, day / 4)) > 1000.0


def test_gs_no_visibility_error():
    c = Constellation(WalkerConfig())
    gs = GroundStation(min_elevation_deg=89.9)
    with pytest.raises(VisibilityError):
        c.gs_access_satellite(gs, 0.0)


def test_route_identity_and_neighbor(default_constellation):
    c = default_constellation
    gs_sat = 10 * c.cfg.sats_per_plane + 3
    parent = c.shortest_path_tree(gs_sat, c.cfg.epoch_s)
    assert parent[gs_sat] == -1
    assert ref.route(parent, gs_sat, gs_sat) == (gs_sat,)
    nb = int(c.neighbors[gs_sat, 0])
    assert ref.route(parent, nb, gs_sat) == (nb, gs_sat)


def _bfs_distance(c, src_flat, dst_flat):
    dist = {src_flat: 0}
    frontier = [src_flat]
    while frontier:
        nxt = []
        for u in frontier:
            for v in c.neighbors[u].tolist():
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist[dst_flat]


def test_route_eta_zero_matches_bfs(default_constellation):
    c = default_constellation
    rng = np.random.default_rng(0)
    gs_sat = 0
    parent = c.shortest_path_tree(gs_sat, 0.0, eta=0.0)
    for _ in range(20):
        src_flat = int(rng.integers(c.n_sats))
        hops = ref.route(parent, src_flat, gs_sat)
        assert len(hops) - 1 == _bfs_distance(c, src_flat, gs_sat)


@pytest.mark.parametrize("eta", [-1.0, math.nan, math.inf])
def test_shortest_path_tree_rejects_bad_eta(default_constellation, eta):
    # raised before the search: with a negative weight it never settles
    with pytest.raises(ValueError):
        default_constellation.shortest_path_tree(0, 0.0, eta=eta)


def test_an_eta_whose_path_costs_overflow_is_rejected(default_constellation):
    """eta = 1e308 makes every link weight inf, which once left the tree a
    cycle; 1e304 keeps every path cost finite and gives a tree."""
    with pytest.raises(RoutingError, match="overflow"):
        default_constellation.shortest_path_tree(0, 0.0, eta=1e308)
    parent = default_constellation.shortest_path_tree(0, 0.0, eta=1e304)
    assert parent[0] == -1 and np.all(parent[1:] >= 0)


def test_route_never_revisits(default_constellation):
    c = default_constellation
    gs_sat = 7 * c.cfg.sats_per_plane + 11
    parent = c.shortest_path_tree(gs_sat, 50.0)
    rng = np.random.default_rng(3)
    for _ in range(10):
        src = int(rng.integers(c.n_sats))
        hops = ref.route(parent, src, gs_sat)
        assert len(set(hops)) == len(hops)
        assert hops[-1] == gs_sat


@settings(max_examples=25, deadline=None)
@given(plane=st.integers(0, 71), slot=st.integers(0, 21),
       t=st.floats(0.0, 1e5, allow_nan=False))
def test_position_on_sphere_property(plane, slot, t):
    c = Constellation(WalkerConfig())
    p = c.positions_at(t)[plane * c.cfg.sats_per_plane + slot]
    assert abs(np.linalg.norm(p) - R_ORBIT) < 1e-6


# -- the neighbor table against the per-satellite code it replaced ------------

#: (planes, sats_per_plane, phasing_factor) shells with no half-slot phasing
#: tie, and shells with one (F = P/2 mod P), where the scan breaks the tie by
#: the smaller forward shift; the table must equal the phasing scan on both
UNTIED_SHELLS = [(72, 22, 0), (72, 22, 1), (5, 7, 17), (40, 11, 39), (3, 3, 2)]
TIED_SHELLS = [(72, 22, 36), (12, 10, 6), (4, 3, 2), (40, 30, 20), (6, 5, -3)]

#: the shells with F = P/2, where the inter-plane offset is exactly half a
#: slot spacing
HALF_SLOT_SHELLS = [(p, s, p // 2) for p in (4, 6, 8, 10, 12, 72)
                    for s in (3, 4, 11, 22)]


def _shell_id(shell):
    return "P{}S{}F{}".format(*shell)


def _shell(planes, sats_per_plane, phasing_factor):
    return Constellation(WalkerConfig(planes=planes, sats_per_plane=sats_per_plane,
                                     phasing_factor=phasing_factor))


@pytest.mark.parametrize("shell", UNTIED_SHELLS + TIED_SHELLS, ids=_shell_id)
def test_neighbor_table_equals_the_phasing_scan(shell):
    c = _shell(*shell)
    assert np.array_equal(c.neighbors, ref.neighbor_table(c))
    for idx in (0, c.n_sats // 2, c.n_sats - 1):
        assert c.isl_neighbors(idx) == ref.isl_neighbors(c, idx)


#: shells checked against the edge loop and the np.unique dedupe of the table
EDGE_SHELLS = [(72, 22, 0), (5, 7, 17), (3, 3, 2), (3, 3, 0), (72, 22, 36),
               (12, 10, 6), (4, 3, 2)]


@pytest.mark.parametrize("shell", EDGE_SHELLS, ids=_shell_id)
def test_isl_edges_equal_the_edge_loop(shell):
    c = _shell(*shell)
    for t in (0.0, 1234.5):
        edges = c.isl_edges(t)
        assert edges == ref.unique_isl_edges(c, t)
        assert edges == ref.isl_edges(c, t)


#: shells for the routing differential test; (72, 22, 36) and (12, 10, 6)
#: have the half-slot phasing tie
ROUTING_SHELLS = [(72, 22, 0), (72, 22, 36), (5, 7, 17), (3, 3, 2),
                  (12, 10, 6), (40, 30, 3)]


# 0.3 is not a power of two, so a reordered weight formula rounds differently
@pytest.mark.parametrize("eta", [0.0, 0.5, 2.0, 0.3])
def test_shortest_path_tree_equals_the_per_satellite_build(small_env, eta):
    """The relaxed tree's parents equal the reference Dijkstra's: 5 random
    (root, t) draws per shell at each eta, 20 per shell in all, and the
    window's own GS root at its start time."""
    rng = np.random.default_rng(int(eta * 10))
    cases = [(small_env.c, small_env.gs_flat, small_env.t0)]
    for shell in ROUTING_SHELLS:
        c = _shell(*shell)
        cases += [(c, int(rng.integers(c.n_sats)), float(rng.uniform(0, 1e4)))
                  for _ in range(5)]
    for c, root, t in cases:
        _, want = ref.shortest_path_tree(c, root, t, eta)
        assert np.array_equal(c.shortest_path_tree(root, t, eta), want)


def test_routes_equal_the_reference_walk(default_constellation):
    c = default_constellation
    root = 30 * 22 + 4
    parent = c.shortest_path_tree(root, 75.0)
    _, want_parent = ref.shortest_path_tree(c, root, 75.0, 0.5)
    rng = np.random.default_rng(5)
    for src in rng.integers(c.n_sats, size=50).tolist():
        hops = ref.route(parent, src, root)
        assert hops == ref.route(want_parent, src, root)
        # every hop is an ISL
        assert all(b in ref.isl_neighbors(c, a)
                   for a, b in zip(hops[:-1], hops[1:]))


@pytest.mark.parametrize("shell", HALF_SLOT_SHELLS, ids=_shell_id)
def test_half_slot_phasing_is_symmetric(shell):
    c = _shell(*shell)
    nbrs = c.neighbors
    # 4-regular: 4 distinct neighbors, none of them the satellite itself
    assert all(len(set(row)) == 4 for row in nbrs.tolist())
    assert not np.any(nbrs == np.arange(c.n_sats)[:, None])
    # symmetric: every neighbor lists the satellite back
    assert np.all(np.any(nbrs[nbrs] == np.arange(c.n_sats)[:, None, None],
                         axis=2))
    # connected
    seen = np.zeros(c.n_sats, dtype=bool)
    seen[0] = True
    while True:
        grown = seen.copy()
        grown[nbrs[seen].ravel()] = True
        if np.array_equal(grown, seen):
            break
        seen = grown
    assert seen.all()
