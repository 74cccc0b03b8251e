import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from terasec.sec_sim import (ActionError, ComputeParams, DELAY_CAP_S,
                             RewardParams, RouteTree, computation_delay,
                             outcome_size, outcome_spans, propagation_delay,
                             quantize_offload, quantize_power,
                             quantize_subarrays, reward, resource_usage,
                             route_tree_order, simulate_slot, slot_loads)

from slot_reference import heap_outcome_spans, route_tree, tree_routes

C_KM_S = 299792.458


# -- quantizers ---------------------------------------------------------------

def test_offload_all_self():
    tasks = quantize_offload(np.array([[1, 0, 0, 0, 0.0]]), np.array([122]))
    assert tasks.tolist() == [[122, 0, 0, 0, 0]]


def test_offload_uniform_oracle():
    # ceil(0.2 * 122) = 25 per neighbor, remainder 22 kept
    tasks = quantize_offload(np.full((1, 5), 0.2), np.array([122]))
    assert tasks.tolist() == [[22, 25, 25, 25, 25]]


def test_offload_zero_tasks():
    tasks = quantize_offload(np.full((1, 5), 0.2), np.array([0]))
    assert tasks.tolist() == [[0, 0, 0, 0, 0]]


def test_offload_conservation_never_negative():
    rng = np.random.default_rng(0)
    ratios, n = [], []
    for _ in range(200):
        x = rng.exponential(size=5)
        ratios.append(x / x.sum())
        n.append(int(rng.integers(0, 400)))
    tasks = quantize_offload(np.array(ratios), np.array(n))
    assert np.all(tasks >= 0)
    assert tasks.sum(axis=1).tolist() == n


def test_offload_simplex_error():
    with pytest.raises(ActionError):
        quantize_offload(np.array([[0.2] * 5, [0.5, 0.5, 0.5, 0, 0.0]]),
                         np.array([10, 10]))
    with pytest.raises(ActionError):
        quantize_offload(np.array([[math.nan, 0.5, 0.5, 0, 0]]), np.array([10]))
    with pytest.raises(ActionError):      # one ratio row per task count
        quantize_offload(np.full((1, 5), 0.2), np.array([10, 10]))
    with pytest.raises(ActionError):      # one task column per server
        _slot(quantize_offload(np.full((1, 4), 0.25), np.array([10])),
              servers=[[0, 1, 2, 3, 4]], routes={s: [s] for s in range(5)},
              rates_ot=[1e9] * 5, dist_ot=[1000.0] * 5)


def test_subarrays_equal_split_oracle():
    # 1 + floor(0.25 * (64 - 4)) = 16 per link
    out = quantize_subarrays(np.full(4, 0.25), 64)
    assert list(out) == [16, 16, 16, 16]
    assert out.sum() == 64


def test_subarrays_floor_and_full():
    assert list(quantize_subarrays(np.zeros(4), 64)) == [1, 1, 1, 1]
    assert list(quantize_subarrays(np.array([1.0]), 64)) == [64]


def test_subarrays_budget_never_exceeded():
    rng = np.random.default_rng(1)
    for _ in range(200):
        x = rng.exponential(size=5)
        ratios = x / x.sum() * rng.uniform(0.0, 1.0)
        out = quantize_subarrays(ratios[:4], 64)
        assert out.sum() <= 64 and np.all(out >= 1)


def test_subarrays_take_as_many_links_as_sub_arrays():
    """n_links == s_max is the edge of the budget: one sub-array each."""
    assert quantize_subarrays(np.zeros(64), 64).tolist() == [1] * 64


def test_subarrays_errors():
    with pytest.raises(ActionError):
        quantize_subarrays(np.full(4, 0.3), 64)       # sum > 1
    with pytest.raises(ActionError):
        quantize_subarrays(np.zeros(65), 64)          # more links than budget
    with pytest.raises(ActionError):                  # each row has a budget
        quantize_subarrays(np.array([[0.25] * 4, [0.3] * 4]), 64)
    with pytest.raises(ActionError):
        quantize_subarrays(np.array([0.25, math.nan]), 64)


def test_power_quantizer():
    out = quantize_power(np.array([0.5, 0.25, 0.0]), 10.0)
    assert np.allclose(out, [5.0, 2.5, 0.0])
    with pytest.raises(ActionError):
        quantize_power(np.array([0.9, 0.2]), 10.0)
    rows = quantize_power(np.array([[0.5, 0.5], [0.0, 0.25]]), 10.0)
    assert rows.tolist() == [[5.0, 5.0], [0.0, 2.5]]
    with pytest.raises(ActionError):
        quantize_power(np.array([[0.5, 0.5], [0.9, 0.2]]), 10.0)
    with pytest.raises(ActionError):
        quantize_power(np.array([0.5, math.nan]), 10.0)


def test_power_quantizer_clips_tiny_negative_ratios():
    """A ratio within the -1e-9 tolerance of zero, as a float sum's
    rounding leaves one, spends no power: +0.0, never a negative watt."""
    out = quantize_power(np.array([[0.5, -1e-12, 0.5]]), 10.0)
    assert out.tolist() == [[5.0, 0.0, 5.0]]
    assert not np.signbit(out).any()


# -- elementary delays -------------------------------------------------------

def test_computation_delay_oracle():
    p = ComputeParams()
    assert abs(computation_delay(1e6, p) - 0.165) < 1e-12
    assert computation_delay(0.0, p) == 0.0


def test_outcome_size_oracle():
    p = ComputeParams()
    assert outcome_size(2000, p) == 200
    assert outcome_size(0, p) == 0
    assert outcome_size(1, p) == 1          # ceil keeps at least one byte


def test_propagation_delay_oracle():
    assert abs(propagation_delay(1969.9) - 1969.9 / C_KM_S) < 1e-15
    assert abs(propagation_delay(1969.9) * 1e3 - 6.571) < 0.01


def test_compute_params_validation():
    with pytest.raises(ValueError):
        ComputeParams(cycles_per_byte=0.0)
    with pytest.raises(ValueError):
        ComputeParams(outcome_ratio=0.0)
    with pytest.raises(ValueError):
        ComputeParams(cpu_rate_hz=0.0)


def test_compute_params_accept_an_outcome_as_large_as_its_input():
    assert ComputeParams(outcome_ratio=1.0).outcome_ratio == 1.0


# -- reward ------------------------------------------------------------------

def test_reward_oracle():
    rp = RewardParams()
    assert reward(0.0, 0.0, rp) == 0.0
    # -(3*0.4 + 10*0.1 + 50*0.005) = -2.45
    assert abs(reward(0.4, 0.105, rp) - (-2.45)) < 1e-12


def test_reward_continuity_at_threshold():
    rp = RewardParams()
    below = reward(0.2, rp.latency_threshold_s - 1e-12, rp)
    at = reward(0.2, rp.latency_threshold_s, rp)
    assert abs(below - at) < 1e-9


def test_reward_monotone_and_slope_ratio():
    rp = RewardParams()
    assert reward(0.5, 0.05, rp) < reward(0.4, 0.05, rp)
    assert reward(0.4, 0.06, rp) < reward(0.4, 0.05, rp)
    slope_below = (reward(0, 0.01, rp) - reward(0, 0.02, rp)) / 0.01
    slope_above = (reward(0, 0.2, rp) - reward(0, 0.21, rp)) / 0.01
    assert abs(slope_above / slope_below - rp.w_above / rp.w_below) < 1e-9


def test_reward_params_validation():
    for bad in (dict(w_below=50.0, w_above=10.0), dict(latency_threshold_s=0.0),
                dict(latency_threshold_s=-1.0), dict(chi1=-1.0),
                dict(w_below=0.0)):
        with pytest.raises(ValueError):
            RewardParams(**bad)


def test_reward_params_accept_their_edges():
    """Equal penalty weights (one slope) and chi1 = 0 (usage unpriced)."""
    flat = RewardParams(w_below=20.0, w_above=20.0)
    assert reward(0.0, 0.3, flat) == pytest.approx(-6.0)
    assert reward(0.7, 0.05, RewardParams(chi1=0.0)) == pytest.approx(-0.5)


# -- resource usage ----------------------------------------------------------

def _alloc(subs, powers):
    """One phase: subarrays [tx, links] and power [tx, links, K]."""
    return np.array(subs, dtype=int), np.array(powers, dtype=float)


#: a phase with no transmitters
NO_ALLOC = _alloc(np.zeros((0, 1)), np.zeros((0, 1, 1)))


def test_resource_usage_saturation():
    alloc = _alloc([[64]], [[[10.0]]])
    u_p, u_s, u, _, _ = resource_usage(alloc, NO_ALLOC, 10.0, 64)
    assert u_p == u_s == u == 1.0


def test_resource_usage_minimum_oracle():
    alloc = _alloc([[1]], [[[0.0]]])
    u_p, u_s, u, _, _ = resource_usage(alloc, NO_ALLOC, 10.0, 64)
    assert u_p == 0.0
    assert abs(u_s - 1.0 / 64.0) < 1e-15
    assert abs(u - 0.5 / 64.0) < 1e-15


def test_resource_usage_power_linearity():
    a1 = _alloc([[4]], [[[4.0, 2.0]]])
    a2 = _alloc([[4]], [[[2.0, 1.0]]])
    up1, _, _, _, _ = resource_usage(a1, NO_ALLOC, 10.0, 64)
    up2, _, _, _, _ = resource_usage(a2, NO_ALLOC, 10.0, 64)
    assert abs(up1 / up2 - 2.0) < 1e-12


def test_resource_usage_idle_transmitters_counted():
    # satellite 8 has a route but nothing allocated: its all-zero row
    # counts as zero usage in the mean
    alloc_ot = _alloc([[32], [0]], [[[5.0]], [[0.0]]])
    u_p, u_s, _, _, _ = resource_usage(NO_ALLOC, alloc_ot, 10.0, 64)
    assert abs(u_p - 0.25) < 1e-12
    assert abs(u_s - 0.25) < 1e-12


# -- slot simulation micro-topologies ----------------------------------------

COMPUTE = ComputeParams()
RP = RewardParams()
TASK_B = 2500


def _slot(tasks, servers, routes, rates_to=None, dist_to=None, rates_ot=(),
          dist_ot=()):
    """Outcome links are indices into rates_ot/dist_ot; offload hops are the
    server columns 1.. of each row.  `routes` (server -> its outcome links)
    becomes the RouteTree simulate_slot takes, each server's node row being
    its route's first link (a row that only relays has node id -1)."""
    tasks = np.asarray(tasks)
    hops = (tasks.shape[0], tasks.shape[1] - 1)
    first, tree = route_tree(routes, len(rates_ot))
    nodes = np.full(len(rates_ot), -1)
    nodes[list(first.values())] = list(first)
    loads = slot_loads(
        tasks, np.array([[first[s] for s in row] for row in servers]), nodes,
        COMPUTE, TASK_B)
    dist_to = np.zeros(hops) if dist_to is None else np.asarray(dist_to)
    return simulate_slot(
        loads,
        rates_to=np.zeros(hops) if rates_to is None else np.asarray(rates_to),
        prop_to_s=propagation_delay(dist_to), routes=RouteTree(tree),
        rates_ot=np.asarray(rates_ot, dtype=float),
        prop_ot_s=propagation_delay(np.asarray(dist_ot, dtype=float)).tolist(),
        usage=resource_usage(NO_ALLOC, NO_ALLOC, 10.0, 64), reward_params=RP)


def test_slot_single_path_closed_form():
    n, rate, d = 10, 1e9, 1969.9
    out = _slot([[n]], [[0]], routes={0: [0]}, rates_ot=[rate], dist_ot=[d])
    l_in = n * TASK_B
    t_cp = l_in * COMPUTE.cycles_per_byte / COMPUTE.cpu_rate_hz
    l_out = math.ceil(COMPUTE.outcome_ratio * l_in)
    expected = t_cp + l_out / rate + d / C_KM_S
    assert abs(out.overall_delay[0] - expected) < 1e-9
    assert abs(out.t_avg - expected) < 1e-9
    assert not out.unreachable


def test_slot_self_compute_only():
    # an infinitely fast link of zero length adds nothing to the delay
    n = 40
    out = _slot([[n]], [[0]], routes={0: [0]}, rates_ot=[math.inf],
                dist_ot=[0.0])
    t_cp = n * TASK_B * COMPUTE.cycles_per_byte / COMPUTE.cpu_rate_hz
    assert abs(out.overall_delay[0] - t_cp) < 1e-9


def test_slot_shared_fifo_relay():
    # two equal flows merge at relay 9; the second in tie-break order waits
    # exactly one service time extra on the shared link
    n, rate, d1, d2 = 8, 5e8, 1200.0, 900.0
    # outcome links: 0 = (1, 9), 1 = (2, 9), 2 = (9, GS)
    out = _slot([[n], [n]], [[1], [2]],
                routes={1: [0, 2], 2: [1, 2]},
                rates_ot=[rate, rate, rate], dist_ot=[d1, d1, d2])
    l_out = math.ceil(COMPUTE.outcome_ratio * n * TASK_B)
    service = l_out / rate
    assert abs((out.overall_delay[2] - out.overall_delay[1]) - service) < 1e-9
    assert abs(out.queue_backlog_bytes[2] - l_out) < 1e-9
    # first flow's closed form: compute + 2 transmissions + 2 propagations
    t_cp = n * TASK_B * COMPUTE.cycles_per_byte / COMPUTE.cpu_rate_hz
    expected1 = t_cp + 2 * service + (d1 + d2) / C_KM_S
    assert abs(out.overall_delay[1] - expected1) < 1e-9


def _offload_hop_slot(n, m, r_to, r_ot, d05, d5g):
    """Source 0 sends m of its n tasks to neighbor 5 and keeps the rest;
    outcome links 0 = (0, GS), 1 = (5, GS)."""
    return _slot([[n - m, m]], [[0, 5]], routes={0: [0], 5: [1]},
                 rates_to=[[r_to]], dist_to=[[d05]],
                 rates_ot=[r_ot, r_ot], dist_ot=[d5g, d5g])


def test_slot_offload_hop_closed_form():
    # source 0 sends m tasks to neighbor 5 and keeps the rest locally
    n, m, r_to, r_ot, d05, d5g = 10, 4, 2e9, 1e9, 1969.9, 603.8
    out = _offload_hop_slot(n, m, r_to, r_ot, d05, d5g)
    z, q, beta = COMPUTE.cycles_per_byte, COMPUTE.cpu_rate_hz, COMPUTE.outcome_ratio
    # path through the neighbor
    data = m * TASK_B
    off = data / r_to + d05 / C_KM_S
    t_cp5 = data * z / q
    span5 = math.ceil(beta * data) / r_ot + d5g / C_KM_S
    expect_5 = off + t_cp5 + span5
    assert abs(out.path_delays[(0, 5)] - expect_5) < 1e-9
    # local path
    kept = (n - m) * TASK_B
    expect_0 = kept * z / q + math.ceil(beta * kept) / r_ot + d5g / C_KM_S
    assert abs(out.path_delays[(0, 0)] - expect_0) < 1e-9
    assert abs(out.overall_delay[0] - max(expect_0, expect_5)) < 1e-9


def test_slot_server_shared_by_two_sources_closed_form():
    # sources 0 and 2 send all their tasks to their common neighbor 1, which
    # computes both inputs as one outcome flow
    n0, n2, r_to, r_ot, d01, d21, d1g = 6, 10, 2e9, 1e9, 1500.0, 900.0, 700.0
    out = _slot([[0, n0], [0, n2]], [[0, 1], [2, 1]],
                routes={0: [0], 1: [1], 2: [2]},
                rates_to=[[r_to], [r_to]], dist_to=[[d01], [d21]],
                rates_ot=[r_ot] * 3, dist_ot=[d1g] * 3)
    z, q, beta = COMPUTE.cycles_per_byte, COMPUTE.cpu_rate_hz, COMPUTE.outcome_ratio
    off0 = n0 * TASK_B / r_to + d01 / C_KM_S
    off2 = n2 * TASK_B / r_to + d21 / C_KM_S
    l_in = (n0 + n2) * TASK_B
    t_cp = l_in * z / q
    span = math.ceil(beta * l_in) / r_ot + d1g / C_KM_S
    assert abs(out.path_delays[(0, 1)] - (off0 + t_cp + span)) < 1e-9
    assert abs(out.path_delays[(2, 1)] - (off2 + t_cp + span)) < 1e-9
    assert set(out.path_delays) == {(0, 1), (2, 1)}


def test_slot_unreachable_offload_hop_is_inf():
    # the same topology with a zero-rate offload hop: the path through the
    # neighbor never delivers, so the source's delay is inf, capped in T_avg
    out = _offload_hop_slot(10, 4, 0.0, 1e9, 1969.9, 603.8)
    assert out.unreachable
    assert out.path_delays[(0, 5)] == math.inf
    assert out.overall_delay[0] == math.inf
    assert out.t_avg == DELAY_CAP_S
    assert not any(math.isnan(d) for d in out.path_delays.values())


def test_a_zero_rate_offload_hop_is_never_divided_by():
    """A zero-rate hop, one carrying tasks and one carrying none, takes inf
    without a division: no floating-point error is raised."""
    with np.errstate(all="raise"):
        out = _slot([[4, 6, 0]], [[0, 5, 6]], routes={0: [0], 5: [1], 6: [2]},
                    rates_to=[[0.0, 0.0]], dist_to=[[1000.0, 1000.0]],
                    rates_ot=[1e9] * 3, dist_ot=[700.0] * 3)
    assert out.unreachable
    assert out.path_delays[(0, 5)] == math.inf
    assert set(out.path_delays) == {(0, 0), (0, 5)}


def test_slot_zero_rate_unreachable_capped():
    out = _slot([[5]], [[0]], routes={0: [0]},
                rates_ot=[0.0], dist_ot=[1000.0])     # no rate on the link
    assert out.unreachable
    assert math.isinf(out.overall_delay[0])
    assert out.t_avg == DELAY_CAP_S                    # capped in the reward path
    assert np.isfinite(out.reward)


def test_slot_determinism():
    # outcome links: 0 = (1, 9), 1 = (2, 9), 2 = (9, GS)
    args = dict(tasks=[[3], [7]], servers=[[1], [2]],
                routes={1: [0, 2], 2: [1, 2]},
                rates_ot=[1e9, 1e9, 7e8], dist_ot=[800.0, 850.0, 700.0])
    a = _slot(**args)
    b = _slot(**args)
    assert a.overall_delay == b.overall_delay
    assert a.reward == b.reward


@settings(max_examples=30, deadline=None)
@given(r=st.floats(1e6, 1e10), boost=st.floats(1.0, 100.0))
def test_slot_delay_monotone_in_rate(r, boost):
    def run(rate):
        return _slot([[12]], [[0]], routes={0: [0]}, rates_ot=[rate],
                     dist_ot=[1000.0]).overall_delay[0]
    assert run(r * boost) <= run(r) + 1e-12


# -- the outcome route tree ---------------------------------------------------

@pytest.mark.parametrize("next_link", [[1, 0, -1],      # 0 -> 1 -> 0
                                       [-1, 1],         # self-loop
                                       [3, -1, -1],     # past the last link
                                       [-2, -1, -1]])   # below -1
def test_bad_route_tree_is_rejected(next_link):
    """route_tree_order and the RouteTree built from it reject the tree with
    route_tree_order's message."""
    cycle = next_link in ([1, 0, -1], [-1, 1])
    message = "has a cycle" if cycle else "must be -1 or a link index"
    with pytest.raises(ActionError, match=message):
        route_tree_order(np.array(next_link))
    with pytest.raises(ActionError, match=message):
        RouteTree(next_link)


def test_a_route_tree_holds_its_arrays_read_only_and_as_lists():
    """The tree copies its input; its array is read-only, and the lists are
    its values and its route order (2 -> 1 -> 0 -> GS: [2, 1, 0])."""
    next_link = np.array([-1, 0, 0, 2])
    tree = RouteTree(next_link)
    next_link[0] = 3
    assert tree.next_link.tolist() == tree.next_list == [-1, 0, 0, 2]
    assert tree.order_list == route_tree_order(tree.next_link).tolist()
    assert sorted(tree.order_list) == [0, 1, 2, 3]
    with pytest.raises(ValueError):
        tree.next_link[0] = 1
    assert RouteTree([-1, 0, 1]).order_list == [2, 1, 0]


@pytest.mark.parametrize("first_link", [[[2, 1], [1, 2]],    # past the end
                                        [[-2, 1], [1, -2]],  # below -1
                                        [[0, -1], [1, 0]]])  # an empty route
def test_bad_first_link_is_rejected(first_link):
    """A server's row is its first outcome link, so a row out of the link
    table's range is rejected; [[0, 1], [1, 0]] is valid (servers 0 and 1
    offload to each other)."""
    with pytest.raises(ActionError):
        slot_loads(np.array([[5, 0], [5, 0]]), np.array(first_link),
                   np.array([0, 1]), COMPUTE, TASK_B)


def test_route_tree_order_feeds_forward():
    """A random tree, and a chain through every link (the deepest tree),
    of n links in shuffled link order."""
    rng = np.random.default_rng(3)
    for n in (0, 1, 2, 7, 64, 300):
        random_tree = np.array([-1 if i == 0 else int(rng.integers(i))
                                for i in range(n)], dtype=int)
        for next_link in (random_tree, np.arange(n) - 1):
            perm = rng.permutation(n)
            tree = np.full(n, -1)
            tree[perm] = np.where(next_link < 0, -1, perm[next_link])
            position = np.empty(n, dtype=int)
            position[route_tree_order(tree)] = np.arange(n)
            fed = tree >= 0
            assert np.all(position[fed] < position[tree[fed]])


def _random_tree_case(rng):
    """A random outcome route forest of 1-60 links over few distinct rates,
    distances, releases and sizes, so that arrivals tie at merges; some
    links have no rate, some releases are inf.  Flow k enters at link k."""
    n_links = int(rng.integers(1, 61))
    feeds = [-1 if i == 0 or rng.random() < 0.1 else int(rng.integers(i))
             for i in range(n_links)]
    perm = rng.permutation(n_links)       # depth says nothing of link index
    next_link = np.full(n_links, -1)
    next_link[perm] = [-1 if f < 0 else perm[f] for f in feeds]
    release = rng.choice([0.0, 1e-3, 1e-3, 2e-3, math.inf], n_links)
    out_bytes = rng.choice([0, 1000, 1000, 1000, 2500], n_links)
    rates_ot = rng.choice([0.0, 1e6, 1e6, 1e6, 4e6], n_links)
    dist_ot = rng.choice([0.0, 300.0, 300.0, 1200.0], n_links)
    return release, out_bytes, next_link, rates_ot, dist_ot


def test_route_tree_pass_equals_the_heap():
    rng = np.random.default_rng(9)
    # exact tie at the merge into link 0: flow 1 (links 1, 3) and flow 2,
    # released one hop later (link 2); flow 2's feeder is served before
    # flow 1's (link 3), but flow 1 goes first
    cases = [(np.array([0.0, 0.0, 1e-3 + propagation_delay(300.0), 0.0]),
              np.array([0, 1000, 1000, 0]), np.array([-1, 3, 0, 0]),
              np.full(4, 1e6), np.full(4, 300.0))]
    cases += [_random_tree_case(rng) for _ in range(300)]
    seen = dict(unreachable=0, inf_release=0, backlog=0)
    for release, out_bytes, next_link, rates_ot, dist_ot in cases:
        routes = tree_routes({k: k for k in range(len(next_link))}, next_link)
        want = heap_outcome_spans(release, out_bytes, routes, rates_ot, dist_ot)
        got = outcome_spans(release, np.flatnonzero(out_bytes > 0).tolist(),
                            out_bytes.tolist(), RouteTree(next_link), rates_ot,
                            propagation_delay(dist_ot).tolist())
        assert got[0].tolist() == want[0].tolist()
        assert got[1] == want[1]
        assert got[2] == want[2]
        flows = out_bytes > 0
        seen["unreachable"] += want[2]
        seen["inf_release"] += bool(np.any(flows & np.isinf(release)))
        seen["backlog"] += bool(want[1])
    assert min(seen.values()) >= 20, seen
