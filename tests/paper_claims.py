"""The paper's headline comparison, seed by seed: GRANT against the dense
MADDPG baseline and the two fixed allocations.

    python tests/paper_claims.py [--seeds 1 2 3]

runs `terasec train` at the default config for `grant`, `maddpg_fc`,
`uniform` and `full`, one process per policy and seed, into a temporary
directory that is removed afterwards.  It prints each run's converged U,
T_avg and T_max, its parameter count and its ms per step, then says for
each seed whether GRANT's U is the lowest of the four.  It exits 1 if a
seed does not hold that ordering, and 2 if a run fails.  The suite does
not collect this script: a seed takes about a minute on a 2-core host, most
of it the dense baseline.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
POLICIES = ("grant", "maddpg_fc", "uniform", "full")


def run(policy: str, seed: int, out: str) -> dict:
    """The summary JSON of one default-config training run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run(
        [sys.executable, "-m", "terasec.cli", "train", "--policy", policy,
         "--seed", str(seed), "--out", out],
        env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{policy} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    with open(os.path.join(out, f"{policy}_seed{seed}_summary.json")) as fh:
        return json.load(fh)


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args(argv)
    print("| seed | policy | U | T_avg ms | T_max ms | parameters | ms/step |")
    print("|---|---|---|---|---|---|---|")
    verdicts = []
    with tempfile.TemporaryDirectory(prefix="terasec-claims-") as out:
        for seed in args.seeds:
            us = {}
            for policy in POLICIES:
                try:
                    s = run(policy, seed, out)
                except RuntimeError as exc:
                    print(exc, file=sys.stderr)
                    return 2
                us[policy] = s["converged_u"]
                print(f"| {seed} | `{policy}` | {s['converged_u']:.3f} | "
                      f"{s['converged_t_avg_ms']:.1f} | "
                      f"{s['converged_t_max_ms']:.1f} | "
                      f"{s['parameter_count']:,} | "
                      f"{s['wall_clock_per_step_s'] * 1e3:.1f} |", flush=True)
            lowest = all(us["grant"] < u for p, u in us.items() if p != "grant")
            verdicts.append((seed, lowest))
    for seed, lowest in verdicts:
        print(f"seed {seed}: GRANT's U is "
              f"{'the lowest' if lowest else 'NOT the lowest'}")
    return 0 if all(lowest for _, lowest in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
