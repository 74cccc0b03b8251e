"""terasec benchmark runner.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Runs one workload for about ``--seconds`` seconds of reference host speed
(a fixed number of episodes, see ``episodes_per_run``) as a closed loop with
one caller: a sequence of single-threaded episode processes (``episode.py``),
each of which starts a slot only when the previous one is done.  Every
episode of a run is the same (config, seed), so its simulated outputs must
repeat exactly; they are also checked against the golden outputs pinned in
``golden.json``.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Host times are scaled to a reference host speed by the ``HostClock`` pass
each episode times next to every slot (see ``HostScale``); the raw wall
times are in the record.  With ``--trace 0`` the metrics are the end-to-end
ones, measured without tracing; with ``--trace 1`` they are the per-layer
ones, from traced episodes, plus the tracing overhead against untraced
episodes of the same run.
The line before it is a JSON record of the machine, the config hash, the
graph size and the golden check.  Exit code 2 means the benchmark could not
run (e.g. the terasec sources are missing) and nothing was printed as a
result.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

#: the end-to-end limit on a slot's simulated T_avg
LATENCY_THRESHOLD_MS = 100.0
#: golden comparison: |x - golden| <= REL_TOL * |golden| + ABS_TOL per value
REL_TOL = 1e-6
ABS_TOL = 1e-9
#: set-up probes per untraced run, on top of one set-up per episode
SETUP_PROBES = 3
#: a run must end within this many seconds of its start
RUN_LIMIT_S = 170.0
#: BLAS threads of every episode process (at most nproc)
BLAS_THREADS = 1
TAIL_BEYOND = 10
#: seconds of one ``episode.HostClock`` pass at the reference host speed:
#: the median pass on the 2-vCPU x86-64 VM the benchmark was built on
CLOCK_REF_S = 0.0044
#: work directory, relative to the repository root.  It is part of the
#: config (output_dir), hence of the config hash in every output header.
WORK_DIR = ".bench_run"
EPISODE_DIR = os.path.join(WORK_DIR, "episode")

END_TO_END = {
    "setup_s": "s", "slot_ms_p50": "ms", "slot_ms_tail": "ms",
    "slots_per_s": "1/s", "peak_rss_mb": "MB", "sim_u_mean": "ratio",
    "sim_t_avg_ms": "ms", "sim_t_max_ms": "ms",
}

#: per-slot span metrics: (metric name, span name, field), where field is
#: 0 = calls, 1 = inclusive ms, 2 = self ms
SPAN_METRICS = [
    ("constellation.positions_at.calls_per_slot", "constellation.positions_at", 0),
    ("constellation.positions_at.ms_per_slot", "constellation.positions_at", 1),
    ("constellation.isl_neighbors.calls_per_slot", "constellation.isl_neighbors", 0),
    *[(f"thz_link.{fn}.{kind}", f"thz_link.{fn}", field)
      for fn in ("path_gain", "absorption_factor", "link_gain", "sinr", "link_rate")
      for kind, field in (("calls_per_slot", 0), ("ms_per_slot", 1))],
    ("sec_sim.quantize.calls_per_slot", "sec_sim.quantize", 0),
    ("sec_sim.quantize.ms_per_slot", "sec_sim.quantize", 1),
    ("sec_sim.simulate_slot.self_ms_per_slot", "sec_sim.simulate_slot", 2),
    ("sec_sim.resource_usage.ms_per_slot", "sec_sim.resource_usage", 1),
    ("env.step.calls_per_slot", "env.step", 0),
    ("env.step.self_ms_per_slot", "env.step", 2),
    ("env.snapshot.ms_per_slot", "env.snapshot", 1),
    ("agent.encode.ms_per_slot", "agent.encode", 1),
    ("agent.actor_forward.ms_per_slot", "agent.actor_forward", 1),
    ("agent.actor_forward.calls_per_slot", "agent.actor_forward", 0),
    ("agent.critic_forward.ms_per_slot", "agent.critic_forward", 1),
    ("agent.train_step.self_ms_per_slot", "agent.train_step", 2),
    ("agent.explore.ms_per_slot", "agent.explore", 1),
    ("autodiff.normalized_adjacency.ms_per_slot", "autodiff.normalized_adjacency", 1),
    ("autodiff.gcn.ms_per_slot", "autodiff.gcn", 1),
    ("autodiff.dense.ms_per_slot", "autodiff.dense", 1),
    ("autodiff.adam.ms_per_slot", "autodiff.adam", 1),
    ("autodiff.backward.ms_per_slot", "autodiff.backward", 1),
    ("baselines.actor_forward.ms_per_slot", "baselines.actor_forward", 1),
    ("baselines.critic_forward.ms_per_slot", "baselines.critic_forward", 1),
    ("baselines.policy_act.ms_per_slot", "baselines.policy_act", 1),
    ("harness.self_ms_per_slot", "harness.on_step", 2),
]
#: set-up span metrics, inclusive ms of the set-up phase
SETUP_SPAN_METRICS = [
    ("constellation.shortest_path_tree.ms", "constellation.shortest_path_tree"),
    ("traffic.generate_counts.ms", "traffic.generate_counts"),
    ("env.init.ms", "env.init"),
]
PER_LAYER_UNITS = {
    **{name: ("count" if field == 0 else "ms") for name, _, field in SPAN_METRICS},
    **{name: "ms" for name, _ in SETUP_SPAN_METRICS},
    "sec_sim.paths_per_slot": "count",
    "sec_sim.backlog_links_per_slot": "count",
    "sec_sim.backlog_bytes_per_slot": "bytes",
    "sec_sim.t_max_largest_ms": "ms",
    "sec_sim.violation_share": "ratio",
    "sec_sim.unreachable_share": "ratio",
    "env.links_per_slot": "count",
    "env.step.us_per_link": "us",
    "agent.parameter_count": "count",
    "autodiff.save_checkpoint.ms": "ms",
    "autodiff.checkpoint_bytes": "bytes",
    "harness.setup.ms": "ms",
    "harness.replays_per_slot": "count",
    "harness.output_bytes": "bytes",
    "unattributed_ms_per_slot": "ms",
    "trace.overhead_ms_per_slot": "ms",
    "trace.traced_slot_ms_p50": "ms",
    "trace.untraced_slot_ms_p50": "ms",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


# -- episodes ------------------------------------------------------------------


def run_episode(workload, seed, trace, deadline, setup_only=False):
    """One episode process; its outputs go to EPISODE_DIR, emptied after."""
    out_dir = os.path.join(ROOT, EPISODE_DIR)
    shutil.rmtree(out_dir, ignore_errors=True)
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    cmd = [sys.executable, os.path.join(HERE, "episode.py"),
           "--workload", workload.name, "--seed", str(seed),
           "--trace", str(trace), "--out", EPISODE_DIR]
    if setup_only:
        cmd.append("--setup-only")
    timeout = max(1.0, deadline - time.monotonic())
    t0 = time.monotonic()
    try:
        # --t0 is a CLOCK_MONOTONIC reading, comparable across processes
        proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
        if trace and proc.returncode == 0:
            # keep the last traced episode's per-slot span table
            os.replace(os.path.join(out_dir, "spans_by_slot.json"),
                       os.path.join(ROOT, WORK_DIR,
                                    f"spans-{workload.name}-seed{seed}.json"))
    except subprocess.TimeoutExpired:
        raise BenchError(f"episode of {workload.name} exceeded the run limit")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"episode process failed ({proc.returncode}):\n"
                         + proc.stderr[-2000:])
    return json.loads(lines[-1])


# -- output checks -------------------------------------------------------------


def _close(x, ref) -> bool:
    return abs(x - ref) <= REL_TOL * abs(ref) + ABS_TOL


GOLDEN_PATH = os.path.join(HERE, "golden.json")


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def _finite_row(row) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in row)


def _sane(ep, i) -> bool:
    s = ep["sim"][i]
    values = [s["u"], s["t_avg"], s["t_max"], *s["delay"], s["backlog_bytes"]]
    return (_finite_row(values) and _finite_row(ep["rows"][i])
            and -1e-12 <= s["u"] <= 1.0 + 1e-12 and s["t_avg"] <= s["t_max"])


def check_episode(ep, reference, golden) -> list:
    """Per planned slot: None if it passed, else the reason it failed.

    A slot fails if the episode raised before finishing it, if any value it
    reports is NaN or inf (or outside its range), if it differs from the
    golden output beyond REL_TOL/ABS_TOL, or, for seeds without a golden
    output, if it differs from the run's first episode.
    """
    planned = ep["slots_planned"]
    done = min(len(ep["sim"]), len(ep.get("rows") or []))
    status = []
    ref_rows = golden["rows"] if golden else (reference or {}).get("rows")
    if golden and ep["config_hash"] != golden["config_hash"]:
        return ["config hash differs from golden"] * planned
    for i in range(planned):
        if i >= done:
            status.append("not completed: " + (ep["error"] or "missing")[-200:])
        elif not _sane(ep, i):
            status.append("non-finite or out-of-range output")
        elif ref_rows is not None and (
                i >= len(ref_rows) or len(ref_rows[i]) != len(ep["rows"][i])
                or not all(map(_close, ep["rows"][i], ref_rows[i]))):
            status.append("differs from golden" if golden
                          else "differs from the run's first episode")
        else:
            status.append(None)
    return status


# -- metrics -------------------------------------------------------------------


def _tail(samples):
    """Highest percentile with at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    idx = max(n - 1 - TAIL_BEYOND, 0)
    pct = 100.0 * idx / (n - 1) if n > 1 else 100.0
    return ordered[idx], pct, n - 1 - idx


def _slot_latency_ms(workload, slot):
    """Simulated T_avg / T_max of one slot.

    For band runs these are the uncapped path-delay mean and max of the
    advancing THz step, which rates the same allocations at the same time as
    the THz replay and so equals it.
    """
    if workload.kind == "bands":
        return 1e3 * slot["delay"][0], 1e3 * slot["delay"][1]
    return 1e3 * slot["t_avg"], 1e3 * slot["t_max"]


def simulated(workload, episodes, ok):
    slots = [s for ep, flags in zip(episodes, ok)
             for s, good in zip(ep["sim"], flags) if good]
    if not slots:
        return None
    lat = [_slot_latency_ms(workload, s) for s in slots]
    n = len(slots)
    return {
        "sim_u_mean": sum(s["u"] for s in slots) / n,
        "sim_t_avg_ms": sum(t for t, _ in lat) / n,
        "sim_t_max_ms": sum(m for _, m in lat) / n,
        "t_max_largest_ms": max(m for _, m in lat),
        "violation_share": sum(t > LATENCY_THRESHOLD_MS for t, _ in lat) / n,
        "unreachable_share": sum(s["unreachable"] for s in slots) / n,
        "paths_per_slot": sum(s["paths"] for s in slots) / n,
        "backlog_links_per_slot": sum(s["backlog_links"] for s in slots) / n,
        "backlog_bytes_per_slot": sum(s["backlog_bytes"] for s in slots) / n,
    }


def host_speed(clock_s) -> float:
    """CLOCK_REF_S over the median of some clock passes: 1 at reference."""
    return CLOCK_REF_S / statistics.median(clock_s)


class HostScale:
    """Scales one workload's host times to the reference host speed.

    A time measured while the host speed is v (``host_speed``) becomes
    ``time * v ** exponent``.  The exponent is the workload's sensitivity to
    host speed (``Workload.host_exponent``): below 1 for workloads that
    wait on memory more than the clock pass does, which a faster host
    speeds up less.
    """

    def __init__(self, exponent: float):
        self.exponent = exponent

    def factor(self, clock_s) -> float:
        return host_speed(clock_s) ** self.exponent

    def slots(self, ep) -> list:
        """Slot seconds at the reference speed.

        Slot j runs between the clock passes j and j + 1 and is scaled by
        their mean.  Scaling each slot by the passes next to it, not a run
        by its average pass, is what removes the host's drift.
        """
        c = ep["clock_s"]
        return [s * self.factor([0.5 * (c[j] + c[j + 1])])
                for j, s in enumerate(ep["slot_s"])]

    def stepping(self, ep) -> float:
        """Stepping-phase seconds: the slots as in ``slots``, the rest
        (first step, summary files) by the episode's median pass."""
        rest = ep["stepping_s"] - sum(ep["slot_s"])
        return sum(self.slots(ep)) + rest * self.factor(ep["clock_s"])

    def setup(self, ep) -> float:
        return ep["setup_s"] * self.factor(ep["setup_clock_s"])


def end_to_end(episodes, probes, sim, scale):
    slot_ms = [1e3 * s for ep in episodes for s in scale.slots(ep)]
    tail, pct, beyond = _tail(slot_ms)
    setups = [scale.setup(ep) for ep in episodes + probes]
    speeds = [host_speed(ep["clock_s"]) for ep in episodes]
    metrics = {
        "setup_s": statistics.median(setups),
        "slot_ms_p50": statistics.median(slot_ms),
        "slot_ms_tail": tail,
        "slots_per_s": (sum(len(ep["sim"]) for ep in episodes)
                        / sum(scale.stepping(ep) for ep in episodes)),
        "peak_rss_mb": statistics.median(ep["peak_rss_mb"] for ep in episodes),
        "sim_u_mean": sim["sim_u_mean"],
        "sim_t_avg_ms": sim["sim_t_avg_ms"],
        "sim_t_max_ms": sim["sim_t_max_ms"],
    }
    detail = {"slot_samples": len(slot_ms), "tail_percentile": round(pct, 2),
              "tail_slots_beyond": beyond, "setup_samples": len(setups),
              "host_speed_min_median_max": [min(speeds),
                                            statistics.median(speeds),
                                            max(speeds)],
              "wall_slot_ms_p50": statistics.median(
                  1e3 * s for ep in episodes for s in ep["slot_s"]),
              "wall_setup_s": statistics.median(
                  ep["setup_s"] for ep in episodes + probes)}
    return metrics, detail


def per_layer(traced, untraced, sim, scale):
    n_slots = sum(len(ep["sim"]) for ep in traced)
    totals = {}
    for ep in traced:
        factor = scale.factor(ep["clock_s"])
        for name, rec in ep["spans"].items():
            acc = totals.setdefault(name, [0, 0.0, 0.0])
            acc[0] += rec[0]
            acc[1] += rec[1] * factor
            acc[2] += rec[2] * factor
    out = {}
    for metric, span, field in SPAN_METRICS:
        value = totals.get(span, [0, 0.0, 0.0])[field]
        out[metric] = value / n_slots * (1.0 if field == 0 else 1e3)
    for metric, span in SETUP_SPAN_METRICS:
        out[metric] = statistics.median(
            1e3 * ep["setup_spans"].get(span, [0, 0.0, 0.0])[1]
            * scale.factor(ep["setup_clock_s"]) for ep in traced)
    links = totals.get("thz_link.link_rate", [0])[0] / n_slots
    step_ms = 1e3 * totals.get("env.step", [0, 0.0])[1] / n_slots
    # span times are scaled per episode, so the stepping phase is too
    stepping_s = sum(ep["stepping_s"] * scale.factor(ep["clock_s"])
                     for ep in traced)
    self_s = sum(rec[2] for rec in totals.values())
    traced_p50 = statistics.median(
        1e3 * s for ep in traced for s in scale.slots(ep))
    untraced_p50 = statistics.median(
        1e3 * s for ep in untraced for s in scale.slots(ep))
    out.update({
        "sec_sim.paths_per_slot": sim["paths_per_slot"],
        "sec_sim.backlog_links_per_slot": sim["backlog_links_per_slot"],
        "sec_sim.backlog_bytes_per_slot": sim["backlog_bytes_per_slot"],
        "sec_sim.t_max_largest_ms": sim["t_max_largest_ms"],
        "sec_sim.violation_share": sim["violation_share"],
        "sec_sim.unreachable_share": sim["unreachable_share"],
        "env.links_per_slot": links,
        "env.step.us_per_link": 1e3 * step_ms / links if links else 0.0,
        "agent.parameter_count": traced[0]["parameter_count"],
        "autodiff.save_checkpoint.ms": statistics.median(
            1e3 * ep["spans"].get("autodiff.save_checkpoint", [0, 0.0])[1]
            * scale.factor(ep["clock_s"]) for ep in traced),
        "autodiff.checkpoint_bytes": statistics.median(
            ep["checkpoint_bytes"] for ep in traced),
        "harness.setup.ms": statistics.median(
            1e3 * ep["harness_setup_s"] * scale.factor(ep["setup_clock_s"])
            for ep in traced),
        "harness.replays_per_slot": (totals.get("env.step", [0])[0] / n_slots
                                     - 1.0),
        "harness.output_bytes": statistics.median(
            ep["output_bytes"] for ep in traced),
        "unattributed_ms_per_slot": 1e3 * (stepping_s - self_s) / n_slots,
        "trace.overhead_ms_per_slot": traced_p50 - untraced_p50,
        "trace.traced_slot_ms_p50": traced_p50,
        "trace.untraced_slot_ms_p50": untraced_p50,
    })
    return out


# -- the run -------------------------------------------------------------------


def machine_record(first_episode) -> dict:
    import numpy as np  # the launcher's numpy is the episodes' numpy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": first_episode["numpy"],
        "blas": blas.get("openblas configuration") or blas.get("name"),
        "blas_threads": first_episode["blas_threads"],
        "platform": platform.platform(),
    }


def episodes_per_run(workload, seconds, trace) -> int:
    """Episodes that fill a run of ``seconds`` at the reference host speed.

    The count depends on the workload and ``seconds`` alone, not on how
    fast the host runs just then, so every run of a workload takes the same
    number of slot samples and its tail is the same percentile from run to
    run.  A traced run alternates untraced and traced episodes, two or more.
    """
    probes = 0.0 if trace else SETUP_PROBES * workload.setup_s
    fits = int((seconds - probes) / workload.episode_s)
    return max(fits, 2 if trace else 1)


def run(workload, seed, seconds, trace) -> tuple:
    if not os.path.isfile(os.path.join(ROOT, "src", "terasec", "__init__.py")):
        raise BenchError("terasec sources not found under src/terasec")
    limit = time.monotonic() + RUN_LIMIT_S
    golden = load_golden()["runs"].get(workload.name, {}).get(str(seed))
    probes = [run_episode(workload, seed, 0, limit, setup_only=True)
              for _ in range(0 if trace else SETUP_PROBES)]
    traced_flags = [bool(trace) and i % 2 == 1
                    for i in range(episodes_per_run(workload, seconds, trace))]
    episodes = [run_episode(workload, seed, int(t), limit)
                for t in traced_flags]

    status = []
    for ep in episodes:
        status.append(check_episode(ep, episodes[0], golden))
    ok = [[s is None for s in st] for st in status]
    attempted = sum(len(st) for st in status)
    failed = sum(not good for flags in ok for good in flags)
    digests = {ep.get("digest") for ep in episodes}
    sim = simulated(workload, episodes, ok)
    sim_matches = sim is not None and (not golden or all(
        _close(sim[k], v) for k, v in golden["sim"].items()))
    correct = failed == 0 and len(digests) == 1 and sim_matches

    record = {
        "workload": workload.name, "seed": seed,
        "held_out_seed": workloads.HELD_OUT_SEED, "trace": trace,
        "config_hash": episodes[0]["config_hash"],
        "involved_nodes": episodes[0]["nodes"],
        "slots_per_episode": workload.slots,
        "episodes": len(episodes), "traced_episodes": sum(traced_flags),
        "checkpoints_per_episode": workload.slots // 50
        if workload.kind == "train" else 0,
        "golden": ("pinned" if golden else "not pinned for this seed; checked "
                   "against the run's first episode"),
        "golden_exact": bool(golden) and digests == {golden["digest"]},
        "outputs_identical_across_episodes": len(digests) == 1,
        "sim_matches_golden": sim_matches if golden else None,
        "failures": sorted({s for st in status for s in st if s}),
        "machine": machine_record(episodes[0]),
        "tolerance": {"rel": REL_TOL, "abs": ABS_TOL},
    }
    scale = HostScale(workload.host_exponent)
    # episodes that failed before their first slot have no timings
    traced = [ep for ep, t in zip(episodes, traced_flags) if t and ep["slot_s"]]
    untraced = [ep for ep, t in zip(episodes, traced_flags)
                if not t and ep["slot_s"]]
    if sim is None or not untraced or (trace and not traced):
        return record, correct, attempted, failed, {}
    if trace:
        values = per_layer(traced, untraced, sim, scale)
        units = PER_LAYER_UNITS
    else:
        values, detail = end_to_end(untraced, probes, sim, scale)
        record.update(detail)
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}
    return record, correct, attempted, failed, metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="terasec benchmark runner")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED,
                   help=f"run seed (default {workloads.DEFAULT_SEED}; held-out "
                        f"seed {workloads.HELD_OUT_SEED})")
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        workloads.check_seed(args.seed)
        record, correct, attempted, failed, metrics = run(
            workloads.WORKLOADS[args.workload], args.seed, args.seconds,
            args.trace)
    except (BenchError, ValueError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
