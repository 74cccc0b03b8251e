"""In-process A/B of training steps: a revision against this checkout.

    python tests/ab_steps.py REV WORKLOAD STEPS [--procs 3] [--seed 1]

checks REV out into a temporary `git worktree` (or reads REV as a checkout
directory if it holds src/terasec), imports its src/ and this checkout's
under two package names, and builds both sides' agents from the benchmark
workload's pinned config (bench/workloads.py `config`; nothing under bench/
is written).  Both agents train STEPS steps in one process, their steps
taken in turn and the order swapped at every step, so both sides see the
same host speed.  Each process prints the median of this checkout's
per-step time over REV's, its quartiles, the steps this checkout was
faster, and whether every
step's critic loss, Q value, learning rate and slot metrics were equal on
both sides, bit for bit; the last line is one JSON record of all the
processes.  The processes run one after another at one BLAS thread.  Only
the `train` workloads can be run.  It exits 1 if a step's outputs differ
and 2 on a bad argument or a failed process.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: leading steps of each side left out of the timing (first-touch work)
WARMUP = 2
LIMITS = ("both sides share one heap, so this measures time, not memory",
          "each side's Adam split starts its own worker threads in the "
          "one process",
          "the ratio holds only while the two sides' steps interleave")
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}


def load_package(name: str, src: str):
    """The terasec package under src/, imported as `name`."""
    path = os.path.join(src, "terasec")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(path, "__init__.py"),
        submodule_search_locations=[path])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def load_workloads():
    """bench/workloads.py, read as the module ab_workloads."""
    spec = importlib.util.spec_from_file_location(
        "ab_workloads", os.path.join(ROOT, "bench", "workloads.py"))
    module = sys.modules["ab_workloads"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Side(threading.Thread):
    """One revision's agent, training in its own thread one step at a time:
    `go` starts a step, `done` is set at its end with its time and its
    outputs recorded."""

    def __init__(self, package: str, src: str, cfg: dict, seed: int):
        super().__init__(daemon=True)
        load_package(package, src)
        harness = importlib.import_module(f"{package}.harness")
        exp = harness.ExperimentConfig.from_dict(cfg)
        env = harness.build_environment(exp, seed)
        self.agent = harness.make_policy(exp.policy, env, exp, seed)
        self.steps = exp.train.steps
        self.go, self.done = threading.Semaphore(0), threading.Semaphore(0)
        self.times, self.outputs, self.error = [], [], None

    def on_step(self, agent, record):
        self.times.append(time.perf_counter() - self.t0)
        outcome = record["outcome"]
        self.outputs.append(tuple(float(v).hex() for v in (
            record["critic_loss"], record["q_value"], record["actor_lr"],
            outcome.t_avg, outcome.t_max, outcome.u_total, outcome.reward)))
        self.done.release()
        if record["step"] + 1 < self.steps:
            self.go.acquire()
            self.t0 = time.perf_counter()

    def run(self):
        self.go.acquire()
        self.t0 = time.perf_counter()
        try:
            self.agent.run_training(on_step=self.on_step)
        except BaseException as exc:        # handed to the main thread
            self.error = exc
            self.done.release()

    def step(self):
        self.go.release()
        self.done.acquire()
        if self.error is not None:
            raise self.error


def one_process(rev_src: str, this_src: str, workload: str, steps: int,
                seed: int) -> dict:
    """Both sides' steps in turn in this process; the reading as a dict."""
    wl = load_workloads()
    with tempfile.TemporaryDirectory() as out:
        cfg = wl.config(wl.WORKLOADS[workload], seed, out, slots=steps)
        rev = Side("ab_rev_terasec", rev_src, cfg, seed)
        this = Side("ab_this_terasec", this_src, cfg, seed)
        for side in (rev, this):
            side.start()
        for k in range(steps):
            for side in ((rev, this) if k % 2 else (this, rev)):
                side.step()
        for side in (rev, this):
            side.join()
    ratios = [t / r for t, r in zip(this.times[WARMUP:], rev.times[WARMUP:])]
    q1, _, q3 = (statistics.quantiles(ratios, n=4) if len(ratios) > 1
                 else ratios * 3)
    return {"ratio": statistics.median(ratios), "iqr": [q1, q3],
            "this_faster": sum(r < 1.0 for r in ratios), "timed": len(ratios),
            "this_ms": statistics.median(this.times[WARMUP:]) * 1e3,
            "rev_ms": statistics.median(rev.times[WARMUP:]) * 1e3,
            "equal": this.outputs == rev.outputs}


def worktree(rev: str, tmp: str) -> str:
    """A git worktree of rev under tmp, detached; its path."""
    path = os.path.join(tmp, "tree")
    subprocess.run(["git", "-C", ROOT, "worktree", "add", "--detach", "-q",
                    path, rev], check=True)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0].strip())
    parser.add_argument("rev")
    parser.add_argument("workload")
    parser.add_argument("steps", type=int)
    parser.add_argument("--procs", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--one", metavar="REV_SRC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.one:
        print(json.dumps(one_process(args.one, os.path.join(ROOT, "src"), args.workload,
                                     args.steps, args.seed)))
        return 0
    if args.procs < 1 or args.steps <= WARMUP:
        parser.error(f"--procs must be at least 1 and STEPS above {WARMUP}")
    workloads = load_workloads().WORKLOADS
    if getattr(workloads.get(args.workload), "kind", None) != "train":
        parser.error(f"WORKLOAD must be one of bench/'s train workloads: "
                     f"{[w for w in workloads if workloads[w].kind == 'train']}")
    tree = None
    if os.path.isdir(os.path.join(args.rev, "src", "terasec")):
        rev_src = os.path.join(os.path.abspath(args.rev), "src")
    else:
        tree = worktree(args.rev, tempfile.mkdtemp(prefix="ab_steps_"))
        rev_src = os.path.join(tree, "src")
    try:
        readings = []
        for k in range(args.procs):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), args.rev,
                 args.workload, str(args.steps), "--seed", str(args.seed),
                 "--one", rev_src],
                env=dict(os.environ, **SINGLE_THREAD), capture_output=True,
                text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return 2
            r = json.loads(proc.stdout.strip().splitlines()[-1])
            readings.append(r)
            print(f"process {k + 1}: step time, this checkout over "
                  f"{args.rev}: {r['ratio']:.3f} (quartiles "
                  f"{r['iqr'][0]:.3f}-{r['iqr'][1]:.3f}), {r['this_ms']:.2f}"
                  f" against {r['rev_ms']:.2f} ms, this checkout faster in "
                  f"{r['this_faster']} of {r['timed']} steps, outputs "
                  f"{'equal' if r['equal'] else 'DIFFERENT'}")
    finally:
        if tree is not None:
            subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force",
                            tree], check=False)
            shutil.rmtree(os.path.dirname(tree), ignore_errors=True)
    for limit in LIMITS:
        print(f"limit: {limit}")
    print(json.dumps({"rev": args.rev, "workload": args.workload,
                      "steps": args.steps, "seed": args.seed,
                      "readings": readings}))
    return 0 if all(r["equal"] for r in readings) else 1


if __name__ == "__main__":
    sys.exit(main())
