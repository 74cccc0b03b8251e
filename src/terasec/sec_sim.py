"""One-slot simulation: action quantization, compute/transmit/propagation and
FIFO queueing delays along all paths, resource-usage ratios and the reward.

The simulator is a pure function of its inputs: identical arguments yield a
bit-identical SlotOutcome.  Satellites are node rows, and node row i is also
outcome link i, the node's link toward the GS; the outcome routes arrive as
one RouteTree over those links (each link's next link toward the GS), built
and checked once per window.  A server's outcome flow enters at its own
row's link.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constellation import SPEED_OF_LIGHT_KM_S

#: delay substituted for unreachable paths when computing the reward
DELAY_CAP_S = 10.0


class ActionError(ValueError):
    """Raw action violates its simplex/budget precondition."""


@dataclass(frozen=True)
class ComputeParams:
    cycles_per_byte: float = 330.0
    cpu_rate_hz: float = 2e9
    outcome_ratio: float = 0.1           # outcome size / input size

    def __post_init__(self):
        if self.cycles_per_byte <= 0 or self.cpu_rate_hz <= 0:
            raise ValueError("cycles_per_byte and cpu_rate_hz must be positive")
        if not 0.0 < self.outcome_ratio <= 1.0:
            raise ValueError("outcome_ratio must be in (0, 1]")


@dataclass(frozen=True)
class RewardParams:
    chi1: float = 3.0
    latency_threshold_s: float = 0.1
    w_below: float = 10.0
    w_above: float = 50.0
    kappa: float = 0.5                   # not read: training reads train.kappa

    def __post_init__(self):
        if not self.w_above >= self.w_below > 0:
            raise ValueError("penalty weights must satisfy w_above >= w_below > 0")
        if not self.latency_threshold_s > 0:
            raise ValueError("latency_threshold_s must be positive")
        if not self.chi1 >= 0:
            raise ValueError("chi1 must be nonnegative")


@dataclass(frozen=True)
class SlotOutcome:
    path_delays: dict         # (src, server) -> seconds (may be inf)
    overall_delay: dict       # src -> seconds (max over its paths)
    t_avg: float
    t_max: float
    u_power: float
    u_subarray: float
    u_total: float
    reward: float
    queue_backlog_bytes: dict  # outcome link -> total bytes that waited on it
    unreachable: bool         # a required link had zero rate with pending data
    power_w_mean: float
    subarrays_mean: float


# -- quantization ----------------------------------------------------------

def quantize_offload(ratios: np.ndarray, n_tasks: np.ndarray) -> np.ndarray:
    """Split each row's n_tasks by its simplex row ([rows, 1 + m]).

    Column 0 is the kept share; columns 1.. each receive, in order,
    min(remaining, ceil(ratio * n_tasks)), and the source keeps the
    remainder, so every row conserves its tasks exactly.  Returns the int
    task table, shaped like `ratios`.
    """
    ratios = np.asarray(ratios, dtype=float)
    n_tasks = np.asarray(n_tasks)
    if ratios.ndim != 2 or n_tasks.shape != ratios.shape[:1]:
        raise ActionError("offload ratios need one row per task count")
    # a NaN anywhere in a row fails the comparison, so it is rejected
    off_simplex = ~(np.abs(ratios.sum(axis=1) - 1.0) <= 1e-6)
    if np.any(ratios < -1e-9) or np.any(off_simplex):
        raise ActionError("offload ratios must lie on the simplex")
    if np.any(n_tasks < 0):
        raise ActionError("task count must be nonnegative")
    tasks = np.empty(ratios.shape, dtype=np.int64)
    remaining = n_tasks.astype(np.int64)
    for j in range(1, ratios.shape[1]):
        tasks[:, j] = np.minimum(remaining, np.ceil(ratios[:, j] * n_tasks))
        remaining = remaining - tasks[:, j]
    tasks[:, 0] = remaining
    return tasks


def quantize_subarrays(ratios: np.ndarray, s_max: int) -> np.ndarray:
    """Integer sub-array counts per row of links: 1 pre-allocated per active
    link plus floor(ratio * remaining budget).  No row exceeds s_max."""
    ratios = np.asarray(ratios, dtype=float)
    n_links = ratios.shape[-1]
    if n_links > s_max:
        raise ActionError("more active links than available sub-arrays")
    if not np.all(ratios.sum(axis=-1) <= 1.0 + 1e-6) or np.any(ratios < -1e-9):
        raise ActionError("sub-array ratios must be nonnegative with sum <= 1")
    rest = s_max - n_links
    return (1 + np.floor(np.clip(ratios, 0.0, None) * rest)).astype(int)


def quantize_power(ratios: np.ndarray, p_max_w: float) -> np.ndarray:
    """Per-(link, sub-band) transmit power from budget ratios; each row
    (last axis) spends at most one budget."""
    ratios = np.asarray(ratios, dtype=float)
    if not np.all(ratios.sum(axis=-1) <= 1.0 + 1e-6) or np.any(ratios < -1e-9):
        raise ActionError("power ratios must be nonnegative with sum <= 1")
    return np.clip(ratios, 0.0, None) * p_max_w


# -- elementary delays -----------------------------------------------------

def computation_delay(l_bytes, p: ComputeParams):
    return l_bytes * p.cycles_per_byte / p.cpu_rate_hz


def outcome_size(l_bytes, p: ComputeParams):
    return np.ceil(p.outcome_ratio * np.asarray(l_bytes)).astype(np.int64)


def propagation_delay(distance_km):
    return distance_km / SPEED_OF_LIGHT_KM_S


# -- the slot --------------------------------------------------------------

def route_tree_order(next_link: np.ndarray) -> np.ndarray:
    """Outcome links ordered so that each comes before the link it feeds.

    next_link[i] is the link after link i on every route through it, -1
    when link i reaches the GS.  Links are sorted by descending hop count
    to the GS, found by pointer doubling.  Raises ActionError for an index
    out of range or a cycle (a self-loop included).
    """
    next_link = np.asarray(next_link)
    n = next_link.size
    if next_link.ndim != 1 or np.any((next_link < -1) | (next_link >= n)):
        raise ActionError("next_link entries must be -1 or a link index")
    # the GS is node n, its own parent; hops[i] counts links from i to parent[i]
    parent = np.append(np.where(next_link < 0, n, next_link), n)
    hops = np.append(np.ones(n, dtype=np.int64), 0)
    for _ in range(n.bit_length()):
        hops = hops + hops[parent]
        parent = parent[parent]
    if np.any(parent != n):
        raise ActionError("next_link has a cycle")
    return np.argsort(-hops[:n], kind="stable")


class RouteTree:
    """A window's outcome route tree, checked once and read by every slot.

    next_link[i] is the link after link i on every route through it, -1
    when link i reaches the GS.  It is kept as a read-only array and as the
    lists outcome_spans walks: next_list, and order_list, which is
    route_tree_order(next_link).  Raises ActionError for a bad tree, as
    route_tree_order does.
    """

    def __init__(self, next_link):
        next_link = np.array(next_link)
        order = route_tree_order(next_link)
        next_link.setflags(write=False)
        self.next_link = next_link
        self.next_list, self.order_list = next_link.tolist(), order.tolist()


def outcome_spans(release: np.ndarray, flows: list, out_bytes: list,
                  routes: RouteTree, rates_ot: np.ndarray,
                  prop_ot_s: list) -> tuple:
    """FIFO traversal of the outcome route tree, one flow per link.

    Flow k sends out_bytes[k] bytes, released at release[k], from link k
    along the routes to the GS; `flows` lists the flows with bytes, in
    ascending k, and no other flow sends anything.  Every link serves its
    arrivals in arrival order, ties by ascending flow k, and passes each on
    after its transmission delay (rates_ot, bit/s) and its propagation
    delay (prop_ot_s, s).  Links are served in routes.order_list, so a
    link's arrivals are all known when it is served.

    Returns (span [links]: release to GS arrival, inf for a flow released
    at inf or stopped by a zero-rate link; backlog: link -> bytes that
    waited on it; unreachable: a flow reached a zero-rate link).
    """
    release = release.tolist()
    next_link = routes.next_list
    link_rate = rates_ot.tolist()
    span = [0.0] * len(release)
    # link -> [(arrival time, flow)]; the extra last list is the GS, which
    # next_link's -1 indexes
    arrivals = [[] for _ in range(len(next_link) + 1)]
    for k in flows:
        if math.isinf(release[k]):         # an unreachable offload hop feeds it
            span[k] = math.inf
        else:
            arrivals[k].append((release[k], k))
    backlog = {}
    unreachable = False
    for link in routes.order_list:
        # every feeder is served by now; dropping the served list keeps one
        # pending arrival per flow alive
        queue, arrivals[link] = arrivals[link], None
        if not queue:
            continue
        rate = link_rate[link]
        if rate <= 0.0:
            unreachable = True
            for _, k in queue:
                span[k] = math.inf
            continue
        queue.sort()
        prop = prop_ot_s[link]
        after = arrivals[next_link[link]]
        free = 0.0
        for t, k in queue:
            # service starts at max(t, free); a flow that finds the link
            # busy waits, and its bytes count as backlog
            if free > t:
                backlog[link] = backlog.get(link, 0.0) + out_bytes[k]
            else:
                free = t
            free += out_bytes[k] / rate
            after.append((free + prop, k))
    for t, k in arrivals[-1]:
        span[k] = t - release[k]
    return np.array(span), backlog, unreachable


@dataclass(frozen=True)
class SlotLoads:
    """What a slot's task table puts on its servers, on any band.

    Per (source, server) cell: has_path (the cell carries tasks, or is a
    source's local path when it offloads nothing) and data (its input
    bytes).  Per link, each server's row: t_cp (computation delay) and
    out_bytes (outcome size, a list) of the input its paths bring; flows
    lists the links whose out_bytes are positive, the outcome flows, in
    ascending order.  path_rows are the rows of the cells with a path, in
    row-major order; path_keys their (source, server) flat ids and sources
    the sources' flat ids, the keys of SlotOutcome.path_delays and
    overall_delay.
    """

    rows: np.ndarray
    has_path: np.ndarray
    data: np.ndarray
    t_cp: np.ndarray
    out_bytes: list
    flows: list
    path_rows: np.ndarray
    path_keys: list
    sources: list


def slot_loads(tasks: np.ndarray,
               rows: np.ndarray,
               nodes: np.ndarray,
               compute: ComputeParams,
               task_size_bytes: int) -> SlotLoads:
    """The band-independent part of a slot.

    tasks           [n_src, 1 + m] int task table from quantize_offload
    rows            [n_src, 1 + m] node rows of the servers of those
                    columns, column 0 the source itself; a server's row is
                    also its first outcome link
    nodes           [links] flat id of each node row
    """
    if tasks.shape != rows.shape or np.any((rows < 0) | (rows >= len(nodes))):
        raise ActionError("server rows do not match the task or link table")
    # a path carries tasks; a source that offloads nothing keeps its local
    # path, even an empty one
    has_path = tasks > 0
    has_path[:, 0] |= tasks[:, 1:].sum(axis=1) == 0
    data = tasks * task_size_bytes
    path_rows = rows[has_path]
    server_bytes = np.zeros(len(nodes), dtype=np.int64)
    np.add.at(server_bytes, path_rows, data[has_path])
    out_bytes = outcome_size(server_bytes, compute)
    servers = nodes[rows]
    src, col = np.nonzero(has_path)
    return SlotLoads(
        rows=rows, has_path=has_path, data=data,
        t_cp=computation_delay(server_bytes, compute),
        out_bytes=out_bytes.tolist(),
        flows=np.flatnonzero(out_bytes > 0).tolist(), path_rows=path_rows,
        path_keys=list(zip(servers[src, 0].tolist(),
                           servers[src, col].tolist())),
        sources=servers[:, 0].tolist())


def simulate_slot(loads: SlotLoads,
                  rates_to: np.ndarray,
                  prop_to_s: np.ndarray,
                  routes: RouteTree,
                  rates_ot: np.ndarray,
                  prop_ot_s: list,
                  usage: tuple,
                  reward_params: RewardParams) -> SlotOutcome:
    """Simulate one slot of slot_loads' servers on one band pair.

    rates_to        [n_src, m] bit/s of each offload hop (columns 1..)
    prop_to_s       [n_src, m] propagation delay of each offload hop
    routes          the window's RouteTree over the outcome links
    rates_ot        [links] bit/s of each outcome link
    prop_ot_s       [links] propagation delay of each outcome link, a list
    usage           resource_usage's tuple of the slot's allocations

    Per-path delay = offload hop (transmission + propagation) + computation
    at the server + the server's outcome flow traversal of its route, with
    FIFO contention on shared links (arrival order, ties by ascending node
    row).  Rows are reported in the order given, keyed by flat id.
    """
    n_links = len(loads.t_cp)
    if (routes.next_link.shape != rates_ot.shape
            or rates_ot.shape != (n_links,)):
        raise ActionError("outcome links do not match the link table")
    has_path = loads.has_path
    unreachable = bool(np.any(has_path[:, 1:] & (rates_to <= 0.0)))

    # offload hop delays, and each server's release after its last arrival
    offload_delay = np.zeros(has_path.shape)
    hop = np.full(rates_to.shape, math.inf)
    np.divide(loads.data[:, 1:], rates_to, out=hop, where=rates_to > 0.0)
    offload_delay[:, 1:] = hop + prop_to_s
    arrival = np.zeros(n_links)
    np.maximum.at(arrival, loads.path_rows, offload_delay[has_path])
    span, backlog, cut = outcome_spans(
        arrival + loads.t_cp, loads.flows, loads.out_bytes, routes, rates_ot,
        prop_ot_s)
    unreachable |= cut

    # per-path and per-source delays
    rows = loads.rows
    delay = offload_delay + loads.t_cp[rows] + span[rows]
    path_delays = dict(zip(loads.path_keys, delay[has_path].tolist()))
    worst = np.max(np.where(has_path, delay, 0.0), axis=1)
    overall = dict(zip(loads.sources, worst.tolist()))
    capped = np.minimum(worst, DELAY_CAP_S)
    t_avg = float(np.mean(capped)) if capped.size else 0.0
    t_max = float(np.max(capped)) if capped.size else 0.0

    u_p, u_s, u_tot, p_mean, s_mean = usage
    r = reward(u_tot, t_avg, reward_params)
    return SlotOutcome(
        path_delays=path_delays, overall_delay=overall, t_avg=t_avg, t_max=t_max,
        u_power=u_p, u_subarray=u_s, u_total=u_tot,
        reward=r, queue_backlog_bytes=backlog, unreachable=unreachable,
        power_w_mean=p_mean, subarrays_mean=s_mean)


def resource_usage(alloc_to: tuple, alloc_ot: tuple, p_max_w: float,
                   s_max: int) -> tuple:
    """Power/sub-array usage ratios averaged over transmitting satellites.

    Each phase's allocation is (subarrays [tx, links], power_w [tx, links,
    K]) with one row per transmitting satellite; a row of zeros is an idle
    transmitter and counts in the means.  Satellites that only receive have
    no row.  Returns (U_P, U_S, U, mean power W, mean sub-arrays) over the
    offloading rows followed by the outcome rows.
    """
    power_used, subarrays_used = [], []
    for subarrays, power in (alloc_to, alloc_ot):
        # per link over its active sub-bands, then per transmitter over its
        # links; with fewer than 8 terms numpy sums sequentially, as the
        # per-link loop this replaced did
        link_w = np.sum(np.where(power > 0.0, power, 0.0), axis=-1)
        power_used.append(np.sum(link_w, axis=-1))
        subarrays_used.append(np.sum(subarrays, axis=-1, dtype=np.int64))
    p_used = np.concatenate(power_used)
    s_used = np.concatenate(subarrays_used)
    if not p_used.size:
        return 0.0, 0.0, 0.0, 0.0, 0.0
    u_p = p_used / p_max_w
    u_s = s_used / s_max
    return (float(np.mean(u_p)), float(np.mean(u_s)),
            float(np.mean(0.5 * (u_p + u_s))), float(np.mean(p_used)),
            float(np.mean(s_used)))


def reward(u_total: float, t_avg: float, rp: RewardParams) -> float:
    """Negative of scaled usage plus a piecewise-linear latency penalty."""
    penalty = (rp.w_below * min(t_avg, rp.latency_threshold_s)
               + rp.w_above * max(0.0, t_avg - rp.latency_threshold_s))
    return -(rp.chi1 * u_total + penalty)
