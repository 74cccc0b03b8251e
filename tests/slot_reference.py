"""The dict-keyed slot path that the array path in terasec.sec_sim replaced,
and the heap FIFO that its route-tree pass replaced, kept as the references
for the differential tests.

Per-link LinkAlloc records, a dict-of-dicts OffloadAssignment, per-source
quantizer calls and (tx, rx)-keyed rate and distance tables.  The code is
as it was, with one fix: a path through a server that an unreachable
offload hop feeds has delay inf, not NaN.  The heap FIFO at the end is the
array path's outcome-flow block as it was, on per-server route lists,
absorption_factor is terasec.thz_link's as it was before a slot sampled
its GS downlink once for every band, and phase_rating is the chain that
SecWindow rated a phase with before thz_link.rate_links.
"""
import heapq
import math
from dataclasses import dataclass

import numpy as np

from terasec.constellation import EARTH_RADIUS_KM, SPEED_OF_LIGHT_KM_S
from terasec.sec_sim import (DELAY_CAP_S, ActionError, ComputeParams,
                             RewardParams, reward)
from terasec.thz_link import link_gain, link_rate, noise_power, sinr


@dataclass
class LinkAlloc:
    """Per-link allocation: integer sub-array count and per-sub-band power (W)."""

    subarrays: int
    power_w: np.ndarray

    @property
    def psi(self) -> np.ndarray:
        return self.power_w > 0.0


@dataclass
class OffloadAssignment:
    """Integer task split per source: kept locally plus per ISL neighbor."""

    tasks_self: dict          # src -> int
    tasks_to: dict            # src -> {neighbor: int}

    def total(self, src: int) -> int:
        return self.tasks_self[src] + sum(self.tasks_to[src].values())


@dataclass
class SlotOutcome:
    path_delays: dict         # (src, server) -> seconds (may be inf)
    overall_delay: dict       # src -> seconds (max over its paths)
    t_avg: float
    t_max: float
    usage_per_sat: dict       # (sat, phase) -> (U_P, U_S, U)
    u_power: float
    u_subarray: float
    u_total: float
    reward: float
    queue_backlog_bytes: dict  # (tx, rx) -> total bytes that waited on the link
    unreachable: bool         # a required link had zero rate with pending data
    power_w_mean: float
    subarrays_mean: float


# -- quantization ----------------------------------------------------------

def quantize_offload(ratios: np.ndarray, n_tasks: int,
                     neighbor_order: list) -> tuple:
    """Split n_tasks into (kept, {neighbor: count}) from a 5-point simplex.

    ratios[0] is the self share; ratios[1:] follow neighbor_order.  Each
    neighbor receives min(remaining, ceil(ratio * n_tasks)); the source keeps
    the remainder, so conservation holds exactly.
    """
    ratios = np.asarray(ratios, dtype=float)
    if ratios.shape != (len(neighbor_order) + 1,):
        raise ActionError("offload ratio vector has wrong length")
    if np.any(ratios < -1e-9) or abs(float(ratios.sum()) - 1.0) > 1e-6:
        raise ActionError("offload ratios must lie on the simplex")
    if n_tasks < 0:
        raise ActionError("task count must be nonnegative")
    remaining = int(n_tasks)
    to = {}
    for j, nbr in enumerate(neighbor_order):
        take = min(remaining, math.ceil(ratios[j + 1] * n_tasks))
        to[nbr] = int(take)
        remaining -= take
    return remaining, to


def quantize_subarrays(ratios: np.ndarray, s_max: int) -> np.ndarray:
    """Integer sub-array counts: 1 pre-allocated per active link plus
    floor(ratio * remaining budget).  Total never exceeds s_max."""
    ratios = np.asarray(ratios, dtype=float)
    n_links = ratios.size
    if n_links > s_max:
        raise ActionError("more active links than available sub-arrays")
    if float(ratios.sum()) > 1.0 + 1e-6 or np.any(ratios < -1e-9):
        raise ActionError("sub-array ratios must be nonnegative with sum <= 1")
    rest = s_max - n_links
    return (1 + np.floor(np.clip(ratios, 0.0, None) * rest)).astype(int)


def quantize_power(ratios: np.ndarray, p_max_w: float) -> np.ndarray:
    """Per-(link, sub-band) transmit power from budget ratios."""
    ratios = np.asarray(ratios, dtype=float)
    if float(ratios.sum()) > 1.0 + 1e-6 or np.any(ratios < -1e-9):
        raise ActionError("power ratios must be nonnegative with sum <= 1")
    return np.clip(ratios, 0.0, None) * p_max_w


# -- elementary delays -----------------------------------------------------

def computation_delay(l_bytes: float, p: ComputeParams) -> float:
    return l_bytes * p.cycles_per_byte / p.cpu_rate_hz


def outcome_size(l_bytes: float, p: ComputeParams) -> int:
    return int(math.ceil(p.outcome_ratio * l_bytes))


def propagation_delay(distance_km: float) -> float:
    return distance_km / SPEED_OF_LIGHT_KM_S


# -- the slot --------------------------------------------------------------

def simulate_slot(assignment: OffloadAssignment,
                  neighbor_order: dict,
                  routes: dict,
                  offload_dist_km: dict,
                  rates_to: dict,
                  rates_ot: dict,
                  alloc_to: dict,
                  alloc_ot: dict,
                  compute: ComputeParams,
                  task_size_bytes: int,
                  reward_params: RewardParams,
                  p_max_w: float,
                  s_max: int,
                  outcome_transmitters: list | None = None) -> SlotOutcome:
    """Simulate one slot.

    assignment      integer task split per source
    neighbor_order  src -> ordered ISL neighbor list (ascending flat index)
    routes          server -> list of (tx, rx, distance_km) hops to the GS
    offload_dist_km (src, nbr) -> km
    rates_to/ot     (tx, rx) -> bit/s for the two phases
    alloc_to/ot     (tx, rx) -> LinkAlloc for the two phases

    Per-path delay = offload hop (transmission + propagation) + computation
    at the server + the server's outcome flow traversal of its route, with
    FIFO contention on shared links (arrival order, ties by ascending server
    flat index).
    """
    sources = sorted(assignment.tasks_self)
    unreachable = False

    # offload hop delays and per-server input bytes
    offload_delay = {}                 # (src, server) -> seconds
    server_bytes = {}                  # server -> input bytes
    for src in sources:
        kept = assignment.tasks_self[src] * task_size_bytes
        if kept > 0 or assignment.tasks_self[src] == assignment.total(src):
            server_bytes[src] = server_bytes.get(src, 0) + kept
            offload_delay[(src, src)] = 0.0
        for nbr in neighbor_order[src]:
            n_tasks = assignment.tasks_to[src].get(nbr, 0)
            if n_tasks <= 0:
                continue
            data = n_tasks * task_size_bytes
            rate = rates_to.get((src, nbr), 0.0)
            if rate <= 0.0:
                delay = math.inf
                unreachable = True
            else:
                delay = data / rate + propagation_delay(offload_dist_km[(src, nbr)])
            offload_delay[(src, nbr)] = delay
            server_bytes[nbr] = server_bytes.get(nbr, 0) + data

    # computation and outcome flows
    flows = {}                         # server -> (release_time, outcome_bytes)
    for server in sorted(server_bytes):
        l_in = server_bytes[server]
        if l_in <= 0:
            continue
        t_cp = computation_delay(l_in, compute)
        arrivals = [offload_delay[(s, server)] for s in sources
                    if (s, server) in offload_delay]
        release = max(arrivals) + t_cp if arrivals else t_cp
        flows[server] = (release, outcome_size(l_in, compute))

    # FIFO event simulation over the outcome routes
    link_free = {}
    backlog = {}
    outcome_span = {}                  # server -> route traversal time (or inf)
    heap = []
    for server, (release, bytes_) in sorted(flows.items()):
        if bytes_ <= 0:
            outcome_span[server] = 0.0
            continue
        heapq.heappush(heap, (release, server, 0))
    while heap:
        t_arr, server, hop_idx = heapq.heappop(heap)
        hops = routes[server]
        if hop_idx >= len(hops):
            outcome_span[server] = t_arr - flows[server][0]
            continue
        tx, rx, dist = hops[hop_idx]
        rate = rates_ot.get((tx, rx), 0.0)
        bytes_ = flows[server][1]
        if rate <= 0.0:
            unreachable = True
            outcome_span[server] = math.inf
            continue
        start = max(t_arr, link_free.get((tx, rx), 0.0))
        if start > t_arr:
            backlog[(tx, rx)] = backlog.get((tx, rx), 0.0) + bytes_
        done = start + bytes_ / rate
        link_free[(tx, rx)] = done
        heapq.heappush(heap, (done + propagation_delay(dist), server, hop_idx + 1))

    for server, (release, bytes_) in flows.items():
        if bytes_ > 0 and server not in outcome_span:
            outcome_span[server] = math.inf
    # the one change: a server fed by an unreachable offload hop releases
    # at inf, and its route span is inf (it was inf - inf = NaN)
    for server, (release, _) in flows.items():
        if math.isinf(release):
            outcome_span[server] = math.inf

    # per-path and per-source delays
    path_delays = {}
    overall = {}
    for src in sources:
        worst = 0.0
        for server in sorted(server_bytes):
            key = (src, server)
            if key not in offload_delay:
                continue
            t_cp = computation_delay(server_bytes[server], compute)
            span = outcome_span.get(server, 0.0)
            delay = offload_delay[key] + t_cp + span
            path_delays[key] = delay
            worst = max(worst, delay)
        overall[src] = worst
    capped = [min(overall[s], DELAY_CAP_S) for s in sources]
    t_avg = float(np.mean(capped)) if capped else 0.0
    t_max = float(np.max(capped)) if capped else 0.0

    usage = resource_usage(alloc_to, alloc_ot, p_max_w, s_max,
                           outcome_transmitters=outcome_transmitters)
    usage_per_sat, u_p, u_s, u_tot, p_mean, s_mean = usage
    r = reward(u_tot, t_avg, reward_params)
    return SlotOutcome(
        path_delays=path_delays, overall_delay=overall, t_avg=t_avg, t_max=t_max,
        usage_per_sat=usage_per_sat, u_power=u_p, u_subarray=u_s, u_total=u_tot,
        reward=r, queue_backlog_bytes=backlog, unreachable=unreachable,
        power_w_mean=p_mean, subarrays_mean=s_mean)


def resource_usage(alloc_to: dict, alloc_ot: dict, p_max_w: float, s_max: int,
                   outcome_transmitters: list | None = None) -> tuple:
    """Per-(satellite, phase) power/sub-array usage ratios and network means.

    The network mean averages over the transmitting satellites of both
    phases; satellites that only receive are excluded.
    """
    per_sat = {}
    powers = []
    subarrays = []
    for phase, alloc in (("offloading", alloc_to), ("outcome", alloc_ot)):
        by_tx = {}
        for (tx, _rx), la in alloc.items():
            by_tx.setdefault(tx, []).append(la)
        for tx in sorted(by_tx):
            p_used = sum(float(np.sum(la.power_w[la.psi])) for la in by_tx[tx])
            s_used = sum(la.subarrays for la in by_tx[tx])
            u_p = p_used / p_max_w
            u_s = s_used / s_max
            per_sat[(tx, phase)] = (u_p, u_s, 0.5 * (u_p + u_s))
            powers.append(p_used)
            subarrays.append(s_used)
    if outcome_transmitters is not None:
        # transmitters with a route but no allocation this slot count as idle
        for tx in outcome_transmitters:
            if (tx, "outcome") not in per_sat:
                per_sat[(tx, "outcome")] = (0.0, 0.0, 0.0)
                powers.append(0.0)
                subarrays.append(0)
    if not per_sat:
        return {}, 0.0, 0.0, 0.0, 0.0, 0.0
    u_p = float(np.mean([v[0] for v in per_sat.values()]))
    u_s = float(np.mean([v[1] for v in per_sat.values()]))
    u = float(np.mean([v[2] for v in per_sat.values()]))
    return per_sat, u_p, u_s, u, float(np.mean(powers)), float(np.mean(subarrays))


# -- the heap FIFO that the route-tree pass in terasec.sec_sim replaced ----

def route_tree(routes: dict, n_links: int) -> tuple:
    """The tree form of a {key: [outcome links]} route table: (first, next_link)
    with first[key] the route's first link (-1 when empty) and next_link[i]
    the link after link i (-1 after a route's last link).  The routes must
    agree on the link after every link they share."""
    after = {}
    for links in routes.values():
        for a, b in zip(links, [*links[1:], -1]):
            assert after.setdefault(a, b) == b, "routes disagree after a link"
    next_link = np.full(n_links, -1)
    next_link[list(after)] = list(after.values())
    return {key: links[0] if links else -1 for key, links in routes.items()}, next_link


def tree_routes(first: dict, next_link) -> dict:
    """The route table of a tree: key -> outcome links from first[key] on."""
    routes = {}
    for key, link in first.items():
        routes[key] = []
        while link >= 0:
            routes[key].append(link)
            link = int(next_link[link])
    return routes


def heap_outcome_spans(release, out_bytes, routes, rates_ot, dist_ot_km):
    """Outcome flows by one event heap over all links, as simulate_slot ran
    them: server k (flows in ascending k) sends out_bytes[k] > 0 bytes from
    release[k] along routes[k].  Returns (span [servers], backlog,
    unreachable), as terasec.sec_sim.outcome_spans does."""
    flows = {k: (r, b) for k, (r, b) in
             enumerate(zip(release.tolist(), out_bytes.tolist())) if b > 0}
    unreachable = False
    link_rate = rates_ot.tolist()
    link_prop = (np.asarray(dist_ot_km) / SPEED_OF_LIGHT_KM_S).tolist()
    link_free = {}
    backlog = {}
    outcome_span = {}                  # server -> route traversal time (or inf)
    heap = []
    for server, (r, _) in flows.items():
        if math.isinf(r):              # an unreachable offload hop feeds it
            outcome_span[server] = math.inf
        else:
            heap.append((r, server, 0))
    heapq.heapify(heap)
    while heap:
        t_arr, server, hop_idx = heapq.heappop(heap)
        route = routes[server]
        if hop_idx >= len(route):
            outcome_span[server] = t_arr - flows[server][0]
            continue
        link = route[hop_idx]
        rate = link_rate[link]
        if rate <= 0.0:
            unreachable = True
            outcome_span[server] = math.inf
            continue
        bytes_ = flows[server][1]
        start = max(t_arr, link_free.get(link, 0.0))
        if start > t_arr:
            backlog[link] = backlog.get(link, 0.0) + bytes_
        done = start + bytes_ / rate
        link_free[link] = done
        heapq.heappush(heap, (done + link_prop[link], server, hop_idx + 1))
    span = np.array([outcome_span.get(k, 0.0) for k in range(len(release))])
    return span, backlog, unreachable


def absorption_factor(tx_pos_km, rx_pos_km, profile) -> float:
    """exp(-integral of g_abs along one path); trapezoidal quadrature over
    64 segments, the path sampled on every call."""
    p0 = np.asarray(tx_pos_km, dtype=float)
    p1 = np.asarray(rx_pos_km, dtype=float)
    s = np.linspace(0.0, 1.0, 65)[:, None]
    alts = np.linalg.norm(p0 + s * (p1 - p0), axis=1) - EARTH_RADIUS_KM
    g = np.array([profile.coefficient(h) for h in alts])
    length = float(np.linalg.norm(p1 - p0))
    integral = float(np.trapezoid(g, dx=length / 64))
    return math.exp(-integral)


def phase_rating(subarrays, power, alpha2, array_cfg, budget, band) -> tuple:
    """(rates, gammas) of one phase's links from their quantized allocation
    (subarrays [tx, links], power [tx, links, K]) and path gains alpha2
    ([tx * links, K]), as SecWindow._rate_phase chained it."""
    power = power.reshape(-1, power.shape[-1])
    h2 = link_gain(
        subarrays.reshape(-1, 1),
        array_cfg.rx_subarrays_per_isl, array_cfg, alpha2,
        gain_interpretation=budget.gain_interpretation,
        element_gain_scale=band.element_gain_scale)
    sigma2 = noise_power(budget.noise_temperature_k, band.bandwidth_hz)
    gammas = sinr(power, h2, budget.interference_mean_w, sigma2)
    rates = link_rate(power > 0.0, gammas, band.bandwidth_hz)
    return rates, gammas
