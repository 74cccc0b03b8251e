import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import topology_reference as ref
from terasec.constellation import (ConfigurationError, GroundStation, SatId,
                                   SIDEREAL_RATE_RAD_S, TopologyError,
                                   VisibilityError, WalkerConfig, build_walker)

R_ORBIT = 6371.0 + 550.0


def test_default_shell_size(default_constellation):
    assert default_constellation.n_sats == 72 * 22


def test_orbit_radius(default_constellation):
    pos = default_constellation.positions_at(0.0)
    radii = np.linalg.norm(pos, axis=1)
    assert np.allclose(radii, R_ORBIT, atol=1e-6)


def test_single_plane_equal_spacing():
    c = build_walker(WalkerConfig(planes=1, sats_per_plane=4))
    pos = c.positions_at(0.0)
    assert pos.shape == (4, 3)
    # four satellites 90 degrees apart: consecutive dot products are zero
    for i in range(4):
        a, b = pos[i], pos[(i + 1) % 4]
        assert abs(float(np.dot(a, b))) < 1e-6 * R_ORBIT**2


def test_orbital_periodicity(default_constellation):
    c = default_constellation
    # independent Kepler period for a 6921 km circular orbit
    period = 2.0 * math.pi * math.sqrt(R_ORBIT**3 / 398600.4418)
    idx = SatId(3, 7).flat(c.cfg.sats_per_plane)
    p0 = c.positions_at(100.0)[idx]
    p1 = c.positions_at(100.0 + period)[idx]
    assert np.linalg.norm(p0 - p1) < 1e-6


def test_intra_plane_chord_oracle(default_constellation):
    # closed-form chord between adjacent satellites on a 6921 km circle
    expected = 2.0 * R_ORBIT * math.sin(math.pi / 22.0)
    assert abs(expected - 1969.9) < 0.1  # sanity on the oracle itself
    pos = default_constellation.positions_at(321.5)
    d = float(np.linalg.norm(pos[SatId(5, 0).flat(22)] - pos[SatId(5, 1).flat(22)]))
    assert abs(d - expected) < 1e-9


def test_invalid_config_errors():
    with pytest.raises(ConfigurationError):
        build_walker(WalkerConfig(planes=0))
    with pytest.raises(ConfigurationError):
        build_walker(WalkerConfig(sats_per_plane=2))
    with pytest.raises(ConfigurationError):
        build_walker(WalkerConfig(inclination_deg=120.0))
    with pytest.raises(ConfigurationError):
        build_walker(WalkerConfig(altitude_km=-1.0))


def test_isl_neighbors_ring(default_constellation):
    nbrs = default_constellation.isl_neighbors(SatId(0, 0))
    assert SatId(0, 1) in nbrs and SatId(0, 21) in nbrs


def test_isl_neighbors_zero_phasing(default_constellation):
    # zero inter-plane phase offset aligns slots across planes
    for k in (0, 5, 21):
        nbrs = default_constellation.isl_neighbors(SatId(0, k))
        assert SatId(1, k) in nbrs and SatId(71, k) in nbrs


def test_isl_symmetry_and_regularity(default_constellation):
    c = default_constellation
    n_sp = c.cfg.sats_per_plane
    adj = {}
    for idx in range(c.n_sats):
        sat = SatId.from_flat(idx, n_sp)
        nbrs = c.isl_neighbors(sat)
        assert len(nbrs) == 4
        assert len(set(nbrs)) == 4
        adj[idx] = {nb.flat(n_sp) for nb in nbrs}
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
    c = build_walker(WalkerConfig(planes=2, sats_per_plane=4))
    assert c.neighbors is None
    with pytest.raises(TopologyError):
        c.isl_neighbors(SatId(0, 0))
    with pytest.raises(TopologyError):
        c.isl_edges()
    with pytest.raises(TopologyError):
        c.shortest_path_tree(0, 0.0)


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
    c = build_walker(WalkerConfig())
    gs = GroundStation(min_elevation_deg=89.9)
    with pytest.raises(VisibilityError):
        c.gs_access_satellite(gs, 0.0)


def test_route_identity_and_neighbor(default_constellation):
    c = default_constellation
    n_sp = c.cfg.sats_per_plane
    gs_sat = SatId(10, 3).flat(n_sp)
    r = c.route_to_gs(gs_sat, gs_sat)
    assert len(r.hops) - 1 == 0
    nb = c.isl_neighbors(SatId(10, 3))[0].flat(n_sp)
    r1 = c.route_to_gs(nb, gs_sat)
    assert len(r1.hops) - 1 == 1
    assert r1.hops == (nb, gs_sat)


def _bfs_distance(c, src_flat, dst_flat):
    n_sp = c.cfg.sats_per_plane
    dist = {src_flat: 0}
    frontier = [src_flat]
    while frontier:
        nxt = []
        for u in frontier:
            for nb in c.isl_neighbors(SatId.from_flat(u, n_sp)):
                v = nb.flat(n_sp)
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist[dst_flat]


def test_route_eta_zero_matches_bfs(default_constellation):
    c = default_constellation
    rng = np.random.default_rng(0)
    n_sp = c.cfg.sats_per_plane
    gs_sat = SatId(0, 0).flat(n_sp)
    tree = c.shortest_path_tree(gs_sat, 0.0, eta=0.0)
    for _ in range(20):
        src_flat = int(rng.integers(c.n_sats))
        route = c.route_to_gs(src_flat, gs_sat, eta=0.0, t=0.0, tree=tree)
        assert len(route.hops) - 1 == _bfs_distance(c, src_flat, gs_sat)


@pytest.mark.parametrize("eta", [-1.0, math.nan, math.inf])
def test_shortest_path_tree_rejects_bad_eta(default_constellation, eta):
    # raised before the search: with a negative weight it never settles
    with pytest.raises(ValueError):
        default_constellation.shortest_path_tree(0, 0.0, eta=eta)


def test_route_never_revisits(default_constellation):
    c = default_constellation
    n_sp = c.cfg.sats_per_plane
    gs_sat = SatId(7, 11).flat(n_sp)
    tree = c.shortest_path_tree(gs_sat, 50.0)
    rng = np.random.default_rng(3)
    for _ in range(10):
        src = int(rng.integers(c.n_sats))
        route = c.route_to_gs(src, gs_sat, t=50.0, tree=tree)
        assert len(set(route.hops)) == len(route.hops)
        assert route.hops[-1] == gs_sat


@settings(max_examples=25, deadline=None)
@given(plane=st.integers(0, 71), slot=st.integers(0, 21),
       t=st.floats(0.0, 1e5, allow_nan=False))
def test_position_on_sphere_property(plane, slot, t):
    c = build_walker(WalkerConfig())
    p = c.positions_at(t)[SatId(plane, slot).flat(c.cfg.sats_per_plane)]
    assert abs(np.linalg.norm(p) - R_ORBIT) < 1e-6


# -- the neighbor table against the per-satellite code it replaced ------------

#: (planes, sats_per_plane, phasing_factor) shells with no half-slot phasing
#: tie, where the table must equal the phasing scan
UNTIED_SHELLS = [(72, 22, 0), (72, 22, 1), (5, 7, 17), (40, 11, 39), (3, 3, 2)]

#: the shells with F = P/2, where the inter-plane offset is exactly half a
#: slot spacing
HALF_SLOT_SHELLS = [(p, s, p // 2) for p in (4, 6, 8, 10, 12, 72)
                    for s in (3, 4, 11, 22)]


def _shell_id(shell):
    return "P{}S{}F{}".format(*shell)


def _shell(planes, sats_per_plane, phasing_factor):
    return build_walker(WalkerConfig(planes=planes, sats_per_plane=sats_per_plane,
                                     phasing_factor=phasing_factor))


@pytest.mark.parametrize("shell", UNTIED_SHELLS, ids=_shell_id)
def test_neighbor_table_equals_the_phasing_scan(shell):
    c = _shell(*shell)
    assert np.array_equal(c.neighbors, ref.neighbor_table(c))
    n_sp = c.cfg.sats_per_plane
    for idx in (0, c.n_sats // 2, c.n_sats - 1):
        assert [nb.flat(n_sp) for nb in c.isl_neighbors(
            SatId.from_flat(idx, n_sp))] == ref.isl_neighbors(c, idx)


@pytest.mark.parametrize("shell", [(72, 22, 0), (5, 7, 17), (3, 3, 2)],
                         ids=_shell_id)
def test_isl_edges_equal_the_edge_loop(shell):
    c = _shell(*shell)
    for t in (0.0, 1234.5):
        assert c.isl_edges(t) == ref.isl_edges(c, t)


# 0.3 is not a power of two, so a reordered weight formula rounds differently
@pytest.mark.parametrize("eta", [0.0, 0.5, 2.0, 0.3])
def test_shortest_path_tree_equals_the_per_satellite_build(default_constellation,
                                                           eta):
    c = default_constellation
    for root, t in ((SatId(7, 11).flat(22), 50.0), (1000, 4321.0)):
        dist, parent = c.shortest_path_tree(root, t, eta)
        want_dist, want_parent = ref.shortest_path_tree(c, root, t, eta)
        assert np.array_equal(dist, want_dist)
        assert np.array_equal(parent, want_parent)


def test_routes_equal_the_reference_walk(default_constellation):
    c = default_constellation
    root = SatId(30, 4).flat(22)
    tree = c.shortest_path_tree(root, 75.0)
    _, want_parent = ref.shortest_path_tree(c, root, 75.0, 0.5)
    rng = np.random.default_rng(5)
    for src in rng.integers(c.n_sats, size=50).tolist():
        assert (c.route_to_gs(src, root, tree=tree).hops
                == ref.route(want_parent, src, root))
    assert c.route_to_gs(src, root, t=75.0).hops == ref.route(want_parent, src,
                                                              root)


@pytest.mark.parametrize("shell", HALF_SLOT_SHELLS, ids=_shell_id)
def test_half_slot_phasing_is_symmetric(shell):
    c = _shell(*shell)
    n_sp = c.cfg.sats_per_plane
    nbrs = np.array([[nb.flat(n_sp) for nb in
                      c.isl_neighbors(SatId.from_flat(idx, n_sp))]
                     for idx in range(c.n_sats)])
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
