"""Run one episode of one benchmark workload in this process.

    python3 bench/episode.py --workload NAME --seed N --out DIR
        [--trace 0|1] [--t0 MONOTONIC] [--setup-only] [--slots N]

Prints one JSON line with the slot stamps, the per-slot simulated outputs,
the output digest and, when traced, the per-span totals.  ``bench/run.py``
starts one of these processes per episode; ``--t0`` is its CLOCK_MONOTONIC
reading just before the start, so set-up time includes interpreter start and
imports.  The only per-slot hook of an untraced episode is the stamp taken
around ``SecWindow.step``: the first call's entry ends set-up, and every
advancing call's exit ends a slot.  After each of these stamps the episode
times one pass of ``HostClock``; that time is cut out of the slot intervals
and of the stepping phase, and ``run.py`` uses it to scale the slot times to
a reference host speed.  A set-up hook on ``harness.make_policy``
keeps the environment and policy for the graph size and parameter count.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _csv_rows(path: str) -> list:
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#") and not line.startswith("step"):
                rows.append([float(v) for v in line.split(",")])
    return rows


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def _blas_threads(np) -> int | None:
    """Thread count reported by numpy's bundled OpenBLAS, if it is found."""
    import ctypes
    import glob
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _delay_summary(outcome) -> list:
    delays = list(outcome.overall_delay.values())
    return [sum(delays) / len(delays), max(delays)]


class HostClock:
    """A fixed mix of work, timed between slots to tell how fast the host runs.

    The mix holds what a slot holds: pure-Python arithmetic, small numpy
    calls and a BLAS matmul.  On a shared host the speed of all three drifts
    by 20-40 % within minutes; timed right next to each slot, one pass tracks
    that drift closely enough that the ratio of slot time to pass time is
    steady from run to run.  Nothing in it depends on terasec.
    """

    def __init__(self, np):
        self.np = np
        self.x = np.arange(64.0)
        self.m = np.random.default_rng(0).standard_normal((160, 160))

    def measure(self) -> float:
        """Seconds taken by one pass (about 4.4 ms on a 2-vCPU x86-64 VM)."""
        np, x, m = self.np, self.x, self.m
        t0 = time.perf_counter()
        acc = 0
        for i in range(20000):
            acc += i * i % 7
        for _ in range(400):
            acc += float(np.dot(x, x[::-1])) + np.sqrt(x).sum()
        for _ in range(4):
            m @ m
        return time.perf_counter() - t0


class SetupDone(BaseException):
    """Raised at the first step of a set-up probe; not a program error."""


class Stamps:
    """Slot clock: one perf_counter stamp per advancing ``SecWindow.step``."""

    #: clock passes taken at the end of set-up
    SETUP_PASSES = 3

    def __init__(self, clock: HostClock, setup_only: bool = False,
                 tracer=None):
        self.clock = clock
        self.setup_only = setup_only
        self.tracer = tracer       # told the slot index as slots end
        self.setup_end = None      # monotonic time of the first step entry
        self.first_entry = None    # perf_counter once set-up passes are done
        self.setup_clock = []      # clock passes at the end of set-up
        self.clock_s = []          # clock pass after each slot end
        self.clock_total = 0.0     # seconds of clock passes after first_entry
        self.slot_ends = []        # slot end stamps, clock passes cut out
        self.slots = []            # per advancing step: simulated outputs
        self.replays = []          # per slot: delay summaries of replays
        self._pending = []

    def install(self, window_cls) -> None:
        step = window_cls.step

        def stamped(env, bundle, *args, **kwargs):
            if self.first_entry is None:
                self.setup_end = time.monotonic()
                self.setup_clock = [self.clock.measure()
                                    for _ in range(self.SETUP_PASSES)]
                self.first_entry = time.perf_counter()
                if self.setup_only:
                    raise SetupDone
                if self.tracer is not None:
                    self.tracer.slot = 0
            result = step(env, bundle, *args, **kwargs)
            if not kwargs.get("advance", True):
                self._pending.append(_delay_summary(result[0]))
                return result
            end = time.perf_counter()
            self.slot_ends.append(end - self.clock_total)
            self.clock_s.append(self.clock.measure())
            self.clock_total += time.perf_counter() - end
            if self.tracer is not None:
                self.tracer.slot = len(self.slot_ends)
            outcome = result[0]
            self.slots.append({
                "u": outcome.u_total, "t_avg": outcome.t_avg,
                "t_max": outcome.t_max,
                "delay": _delay_summary(outcome),
                "unreachable": bool(outcome.unreachable),
                "paths": len(outcome.path_delays),
                "backlog_links": sum(1 for b in outcome.queue_backlog_bytes.values()
                                     if b > 0),
                "backlog_bytes": float(sum(outcome.queue_backlog_bytes.values())),
            })
            self.replays.append(self._pending)
            self._pending = []
            return result

        window_cls.step = stamped


def run(args) -> dict:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np
    import terasec
    from terasec import harness  # imports every module that spans.py traces

    workload = workloads.WORKLOADS[args.workload]
    raw = workloads.config(workload, args.seed, args.out, args.slots)
    workloads.check_fields(raw, harness.default_config())
    cfg = harness.ExperimentConfig.from_dict(raw)
    slots = cfg.train.steps

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install(terasec)
    stamps = Stamps(HostClock(np), args.setup_only, tracer)
    stamps.install(terasec.env.SecWindow)
    env_holder = {}
    make_policy = harness.make_policy

    def keep_policy(name, env, *rest):
        policy = make_policy(name, env, *rest)
        env_holder["env"], env_holder["policy"] = env, policy
        return policy

    harness.make_policy = keep_policy

    record = {"workload": workload.name, "seed": args.seed,
              "config_hash": cfg.config_hash(), "slots_planned": slots,
              "error": None}
    harness_entry = time.perf_counter()
    try:
        if workload.kind == "train":
            summaries, _ = harness.run_experiment(cfg, [args.seed])
            csv_path = summaries[0].metrics_csv
            record["digest"] = _digest(csv_path)
            record["rows"] = _csv_rows(csv_path)
        else:
            table = harness.compare_bands(cfg, args.seed, steps=slots)
            record["digest"] = hashlib.sha256(
                json.dumps(table, sort_keys=True).encode()).hexdigest()
            record["rows"] = [sum(r, []) + [s["u"]] for r, s in
                              zip(stamps.replays, stamps.slots)]
    except SetupDone:
        return {"setup_s": stamps.setup_end - args.t0,
                "setup_clock_s": stamps.setup_clock}
    except Exception:  # reported as failed slots, never as a result
        record["error"] = traceback.format_exc(limit=4)
    run_end = time.perf_counter()

    env, policy = env_holder.get("env"), env_holder.get("policy")
    record.update({
        "setup_s": (stamps.setup_end - args.t0) if stamps.setup_end else None,
        "setup_clock_s": stamps.setup_clock,
        "clock_s": stamps.clock_s,
        # slot k >= 1 runs from the end of step k-1 to the end of step k;
        # the interval before the first step's end holds only that step
        "slot_s": [b - a for a, b in zip(stamps.slot_ends, stamps.slot_ends[1:])],
        "stepping_s": ((run_end - stamps.first_entry - stamps.clock_total)
                       if stamps.first_entry else None),
        "sim": stamps.slots,
        "nodes": len(env.involved) if env else None,
        "parameter_count": (int(policy.parameter_count())
                            if hasattr(policy, "parameter_count") else 0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "output_bytes": _dir_bytes(args.out),
        "numpy": np.__version__,
        "blas_threads": _blas_threads(np),
    })
    if tracer is not None:
        tracer.uninstall()
        record["spans"] = tracer.totals(0)
        record["setup_spans"] = tracer.setup_totals()
        record["harness_setup_s"] = (
            (stamps.first_entry - harness_entry - sum(stamps.setup_clock))
            if stamps.first_entry else None)
        record["checkpoint_bytes"] = tracer.checkpoint_bytes
        with open(os.path.join(args.out, "spans_by_slot.json"), "w") as fh:
            json.dump({str(k): v for k, v in sorted(tracer.per_slot.items())}, fh)
    return record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, default=None)
    p.add_argument("--setup-only", action="store_true",
                   help="stop at the first step: a set-up time probe")
    p.add_argument("--slots", type=int, default=None,
                   help="override the episode length (self-test only)")
    args = p.parse_args(argv)
    if args.t0 is None:
        args.t0 = time.monotonic()
    os.makedirs(args.out, exist_ok=True)
    print(json.dumps(run(args), allow_nan=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
