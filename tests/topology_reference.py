"""The per-satellite ISL topology code that the neighbor table replaced, kept
as the reference for differential tests.

``isl_neighbors`` is the phasing scan (closest inter-plane phasing, lower
slot index wins a tie), ``isl_edges`` the per-satellite edge loop, and
``shortest_path_tree`` the Dijkstra tree over a per-satellite weight build;
``route`` walks a parent array.  All work on flat satellite indices.
"""
from __future__ import annotations

import heapq
import math

import numpy as np


def isl_neighbors(c, idx: int) -> list:
    """Flat ids of the 4 ISL neighbors: slot+1, slot-1, plane+1, plane-1."""
    n_s = c.cfg.sats_per_plane
    p, s = divmod(idx, n_s)
    out = [p * n_s + (s + 1) % n_s, p * n_s + (s - 1) % n_s]
    my_anom = s * c._phase_step + p * c._plane_phase
    for dp in (1, -1):
        q = (p + dp) % c.cfg.planes
        best_slot, best_diff = 0, float("inf")
        for s2 in range(n_s):
            anom = s2 * c._phase_step + q * c._plane_phase
            diff = abs(math.remainder(anom - my_anom, 2.0 * math.pi))
            # deterministic tie-break: lower slot index wins
            if diff < best_diff - 1e-12:
                best_slot, best_diff = s2, diff
        out.append(q * n_s + best_slot)
    return out


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


def shortest_path_tree(c, root: int, t: float, eta: float) -> tuple:
    """(dist, parent) of the Dijkstra tree rooted at `root` under
    w(i, j) = 1 + eta * d(i, j) / d_ref, weights built per satellite."""
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


def prune_involved(sources, neighbor_order, route_hops, gs_flat, gs_node=-1):
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
