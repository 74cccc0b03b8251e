"""Pin the golden outputs that ``run.py`` checks every episode against.

    python3 bench/pin_golden.py [--seeds 0-20,1009] [--workload NAME ...]

Runs one untraced episode per (workload, seed) on the current code and
stores its config hash, output digest, per-slot output rows and simulated
metrics in ``bench/golden.json``.  Pin on the commit a benchmark is first
measured on; a change that is meant to keep outputs must then match them.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

import run
import workloads


def _seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default=f"0-20,{workloads.HELD_OUT_SEED}")
    p.add_argument("--workload", action="append",
                   choices=sorted(workloads.WORKLOADS))
    args = p.parse_args(argv)
    golden = run.load_golden() if os.path.exists(run.GOLDEN_PATH) else {}
    golden.setdefault("tolerance", {"rel": run.REL_TOL, "abs": run.ABS_TOL})
    runs = golden.setdefault("runs", {})
    for name in args.workload or sorted(workloads.WORKLOADS):
        workload = workloads.WORKLOADS[name]
        for seed in _seeds(args.seeds):
            ep = run.run_episode(workload, seed, 0,
                                  time.monotonic() + run.RUN_LIMIT_S)
            if ep["error"] or len(ep["rows"]) != workload.slots:
                print(f"{name} seed {seed}: episode failed\n{ep['error']}",
                      file=sys.stderr)
                return 1
            sim = run.simulated(workload, [ep], [[True] * workload.slots])
            runs.setdefault(name, {})[str(seed)] = {
                "config_hash": ep["config_hash"], "digest": ep["digest"],
                "nodes": ep["nodes"],
                "sim": {k: sim[k] for k in
                        ("sim_u_mean", "sim_t_avg_ms", "sim_t_max_ms")},
                "rows": ep["rows"],
            }
            print(f"{name} seed {seed}: {runs[name][str(seed)]['sim']}",
                  flush=True)
    with open(run.GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
