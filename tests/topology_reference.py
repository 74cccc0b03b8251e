"""The per-satellite ISL topology code that the neighbor table replaced, kept
as the reference for differential tests.

``isl_neighbors`` is the phasing scan (the closest inter-plane phasing
toward plane+1, the smaller forward slot shift winning a tie, and plane-1
its inverse), ``isl_edges`` the per-satellite edge loop,
``unique_isl_edges`` the np.unique dedupe of the neighbor table, and
``shortest_path_tree`` the Dijkstra tree over a per-satellite weight build;
``route`` walks a parent array.  ``window_reference`` builds an access
window's topology by one route walk per server, as the window once did, and
``window_views`` reads the same dict and list views off a window's arrays.
All work on flat satellite indices.
"""
from __future__ import annotations

import functools
import heapq
import math
from types import SimpleNamespace

import numpy as np

#: pseudo node id for the ground station in link lists
GS_NODE = -1


def closest_slot(c, p: int, s: int, q: int) -> int:
    """The slot of plane q closest in phase to slot s of plane p; on a tie
    (a half-slot offset) the smaller forward shift (s2 - s) mod S wins."""
    n_s = c.cfg.sats_per_plane
    my_anom = s * c._phase_step + p * c._plane_phase
    best_slot, best_diff = 0, float("inf")
    for s2 in range(n_s):
        anom = s2 * c._phase_step + q * c._plane_phase
        diff = abs(math.remainder(anom - my_anom, 2.0 * math.pi))
        if diff < best_diff - 1e-12 or (
                diff < best_diff + 1e-12
                and (s2 - s) % n_s < (best_slot - s) % n_s):
            best_slot, best_diff = s2, diff
    return best_slot


@functools.lru_cache(maxsize=None)
def up_slots(c, p: int) -> tuple:
    """closest_slot in plane p+1 of every slot of plane p."""
    return tuple(closest_slot(c, p, s, (p + 1) % c.cfg.planes)
                 for s in range(c.cfg.sats_per_plane))


def isl_neighbors(c, idx: int) -> list:
    """Flat ids of the 4 ISL neighbors: slot+1, slot-1, plane+1 (the closest
    phasing there) and plane-1 (the one satellite there whose plane+1
    neighbor this is)."""
    n_s, n_p = c.cfg.sats_per_plane, c.cfg.planes
    p, s = divmod(idx, n_s)
    up, down = (p + 1) % n_p, (p - 1) % n_p
    (below,) = [s2 for s2, above in enumerate(up_slots(c, down)) if above == s]
    return [p * n_s + (s + 1) % n_s, p * n_s + (s - 1) % n_s,
            up * n_s + up_slots(c, p)[s], down * n_s + below]


def neighbor_table(c) -> np.ndarray:
    """[n_sats, 4] table of the phasing scan, one row per satellite."""
    return np.array([isl_neighbors(c, idx) for idx in range(c.n_sats)],
                    dtype=int)


def isl_edges(c, t: float) -> list:
    """All undirected edges as (flat_a, flat_b, distance_km), a < b."""
    pos = c.positions_at(t)
    edges = set()
    for idx in range(c.n_sats):
        for j in isl_neighbors(c, idx):
            edges.add((min(idx, j), max(idx, j)))
    return [(a, b, float(np.linalg.norm(pos[a] - pos[b])))
            for a, b in sorted(edges)]


def unique_isl_edges(c, t: float) -> list:
    """isl_edges deduplicated by np.unique over the table's sorted rows, the
    formula Constellation.isl_edges used before its sort."""
    table = c.neighbors
    pos = c.positions_at(t)
    own = np.repeat(np.arange(c.n_sats), table.shape[1])
    pairs = np.unique(np.sort(np.stack([own, table.ravel()], axis=1), axis=1),
                      axis=0)
    v = pos[pairs[:, 0]] - pos[pairs[:, 1]]
    dist = np.sqrt(np.vecdot(v, v))
    return [(a, b, d) for (a, b), d in zip(pairs.tolist(), dist.tolist())]


def shortest_path_tree(c, root: int, t: float, eta: float) -> tuple:
    """(dist, parent) of the Dijkstra tree rooted at `root` under
    w(i, j) = 1 + eta * d(i, j) / d_ref, weights built per satellite over the
    phasing scan's neighbors."""
    pos = c.positions_at(t)
    d_ref = c.intra_plane_chord_km()
    nbrs = []
    for idx in range(c.n_sats):
        row = []
        for j in isl_neighbors(c, idx):
            w = 1.0 + eta * float(np.linalg.norm(pos[idx] - pos[j])) / d_ref
            row.append((j, w))
        nbrs.append(row)
    dist = np.full(c.n_sats, np.inf)
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
    parent = np.full(c.n_sats, -1, dtype=int)
    for idx in range(c.n_sats):
        if idx == root:
            continue
        best, best_cost = -1, float("inf")
        for j, w in nbrs[idx]:
            cost = w + dist[j]
            if cost < best_cost - 1e-9 or (cost < best_cost + 1e-9 and j < best):
                best, best_cost = j, cost
        parent[idx] = best
    return dist, parent


def route(parent: np.ndarray, src: int, root: int) -> tuple:
    """Hop sequence from src to root along the parent array."""
    hops = [src]
    while hops[-1] != root:
        hops.append(int(parent[hops[-1]]))
    return tuple(hops)


def select_sources(c, gs_flat: int, n_sources: int, seed: int) -> list:
    """Random nonadjacent sources, blocking each pick's scanned neighbors."""
    rng = np.random.default_rng(seed)
    chosen, blocked = [], {gs_flat}
    while len(chosen) < n_sources:
        cand = int(rng.integers(c.n_sats))
        if cand in blocked:
            continue
        chosen.append(cand)
        blocked.add(cand)
        blocked.update(isl_neighbors(c, cand))
    return sorted(chosen)


def prune_involved(sources, neighbor_order, route_hops, gs_flat, gs_node=GS_NODE):
    """Involved node list, node -> row map and adjacency, edge by edge."""
    edges = [(s, nb) for s in sources for nb in neighbor_order[s]]
    edges += [hop for hops in route_hops.values() for hop in hops]
    involved = sorted({gs_flat, *sources, *(n for e in edges for n in e)}
                      - {gs_node})
    node_index = {n: i for i, n in enumerate(involved)}
    adj = np.zeros((len(involved), len(involved)))
    for a, b in edges:
        if b != gs_node:
            adj[node_index[a], node_index[b]] = adj[node_index[b], node_index[a]] = 1.0
    return involved, node_index, adj


def window_reference(c, gs_flat: int, t0: float, eta: float, n_sources: int,
                     seed: int) -> SimpleNamespace:
    """A window's topology from one route walk per server: the dict and
    list views, the involved set and adjacency, and the link tables and
    SINR cells as the window's arrays hold them."""
    sources = select_sources(c, gs_flat, n_sources, seed)
    neighbor_order = {s: sorted(isl_neighbors(c, s)) for s in sources}
    servers = sorted(set(sources).union(*neighbor_order.values()))
    _, parent = shortest_path_tree(c, gs_flat, t0, eta)
    route_hops = {}
    for server in servers:
        hops = route(parent, server, gs_flat)
        route_hops[server] = [*zip(hops[:-1], hops[1:]), (gs_flat, GS_NODE)]
    next_hop = {tx: rx for hops in route_hops.values() for tx, rx in hops}
    transmitters = sorted(next_hop)
    involved, node_index, adj = prune_involved(sources, neighbor_order,
                                               route_hops, gs_flat)
    offload_links = [(s, nb) for s in sources for nb in neighbor_order[s]]
    outcome_links = [(tx, next_hop[tx]) for tx in transmitters]
    sinr_cells = []
    for links in (offload_links, outcome_links):
        cells = [(i, node_index[tx], sorted(isl_neighbors(c, tx)).index(rx))
                 for i, (tx, rx) in enumerate(links)
                 if rx in isl_neighbors(c, tx)]
        sinr_cells.append(np.array(cells, dtype=int).reshape(-1, 3).T)
    return SimpleNamespace(
        sources=sources, neighbor_order=neighbor_order, servers=servers,
        route_hops=route_hops, outcome_transmitters=transmitters,
        offload_links=offload_links, outcome_links=outcome_links,
        involved=involved, node_index=node_index, adj=adj,
        to_ends=np.array(offload_links).T, ot_ends=np.array(outcome_links).T,
        next_link=np.array([-1 if rx == GS_NODE else transmitters.index(rx)
                            for _, rx in outcome_links]),
        first_link=np.array([[transmitters.index(n)
                              for n in (s, *neighbor_order[s])]
                             for s in sources]),
        sinr_cells=sinr_cells)


def window_views(env) -> SimpleNamespace:
    """The dict and list views of window_reference, read off the window's
    involved nodes, server rows and link tables: outcome link i is
    transmitted by node i, and a server's route follows next links from its
    first link, its own row."""
    server_table = env.involved[env._offload_rows].tolist()
    neighbor_order = {row[0]: row[1:] for row in server_table}
    offload_links = list(zip(*env._to_ends.tolist()))
    outcome_links = list(zip(*env._ot_ends.tolist()))
    route_hops = {}
    for server, link in zip(np.ravel(server_table).tolist(),
                            env._offload_rows.ravel().tolist()):
        route_hops[server] = []
        while link >= 0:
            route_hops[server].append(outcome_links[link])
            link = env._routes.next_list[link]
    return SimpleNamespace(
        sources=list(neighbor_order), neighbor_order=neighbor_order,
        servers=sorted(route_hops), route_hops=route_hops,
        outcome_transmitters=[tx for tx, _ in outcome_links],
        offload_links=offload_links, outcome_links=outcome_links,
        node_index={n: i for i, n in enumerate(env.involved.tolist())})
