"""In-process A/B of training steps or band-replay slots: a revision
against this checkout.

    python tests/ab_steps.py REV WORKLOAD STEPS [--procs 3] [--seed 1]

checks REV out into a temporary `git worktree` (or reads REV as a checkout
directory if it holds src/terasec), imports its src/ and this checkout's
under two package names, and builds both sides' windows and policies from
the benchmark workload's pinned config (bench/workloads.py `config`;
nothing under bench/ is written).  Both sides run STEPS steps in one
process, taken in turn and the order swapped at every step, so both sides
see the same host speed.  A step of a `train` workload is a training step;
a step of a `bands` workload is one slot of harness.compare_bands: the
policy's act, the replay on each band pair and the advancing step.  Each
process prints the median of this checkout's per-step time over REV's,
its quartiles, the steps this checkout was faster, and whether every
step's outputs were equal on both sides, bit for bit: the critic loss, Q
value, learning rate and slot metrics of a training step, and each band's
slot metrics and per-source delays of a bands slot, compared band by band.
The last line is one JSON record of all the processes.  The processes run
one after another at one BLAS thread.  It exits 1 if a step's outputs
differ and 2 on a bad argument or a failed process.
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
#: workload kind -> leading steps of each side left out of the timing
#: (first-touch work: a training step's optimizer state, a window's first
#: slot record)
WARMUP = {"train": 2, "bands": 1}
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
        self.harness = importlib.import_module(f"{package}.harness")
        exp = self.harness.ExperimentConfig.from_dict(cfg)
        self.env, self.agent = self.harness.restored_policy(exp, seed)
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


class BandSide(Side):
    """One revision's window replaying harness.compare_bands' slots in its
    own thread, one slot per step; a step's outputs are one tuple per band,
    in harness.BAND_NAMES order."""

    def run(self):
        bands = [(self.harness.band_preset(name, "offloading"),
                  self.harness.band_preset(name, "outcome"))
                 for name in self.harness.BAND_NAMES]
        try:
            for _ in range(self.steps):
                self.go.acquire()
                t0 = time.perf_counter()
                bundle = self.agent.act(self.env.snapshot())
                outcomes = [self.env.step(bundle, b_to, b_ot, advance=False)[0]
                            for b_to, b_ot in bands]
                self.env.step(bundle, advance=True)
                self.times.append(time.perf_counter() - t0)
                self.outputs.append([tuple(float(v).hex() for v in (
                    o.t_avg, o.t_max, o.u_total, o.reward,
                    *o.overall_delay.values())) for o in outcomes])
                self.done.release()
        except BaseException as exc:        # handed to the main thread
            self.error = exc
            self.done.release()


def one_process(rev_src: str, this_src: str, workload: str, steps: int,
                seed: int) -> dict:
    """Both sides' steps in turn in this process; the reading as a dict."""
    wl = load_workloads()
    kind = wl.WORKLOADS[workload].kind
    with tempfile.TemporaryDirectory() as out:
        cfg = wl.config(wl.WORKLOADS[workload], seed, out, slots=steps)
        cls = BandSide if kind == "bands" else Side
        rev = cls("ab_rev_terasec", rev_src, cfg, seed)
        this = cls("ab_this_terasec", this_src, cfg, seed)
        for side in (rev, this):
            side.start()
        for k in range(steps):
            for side in ((rev, this) if k % 2 else (this, rev)):
                side.step()
        for side in (rev, this):
            side.join()
    warmup = WARMUP[kind]
    ratios = [t / r for t, r in zip(this.times[warmup:], rev.times[warmup:])]
    q1, _, q3 = (statistics.quantiles(ratios, n=4) if len(ratios) > 1
                 else ratios * 3)
    reading = {"ratio": statistics.median(ratios), "iqr": [q1, q3],
               "this_faster": sum(r < 1.0 for r in ratios),
               "timed": len(ratios),
               "this_ms": statistics.median(this.times[warmup:]) * 1e3,
               "rev_ms": statistics.median(rev.times[warmup:]) * 1e3,
               "equal": this.outputs == rev.outputs}
    if kind == "bands":
        reading["equal_by_band"] = {
            name: [t[i] for t in this.outputs] == [r[i] for r in rev.outputs]
            for i, name in enumerate(this.harness.BAND_NAMES)}
    return reading


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
    workloads = load_workloads().WORKLOADS
    if args.workload not in workloads:
        parser.error(f"WORKLOAD must be one of bench/'s workloads: "
                     f"{list(workloads)}")
    warmup = WARMUP[workloads[args.workload].kind]
    if args.procs < 1 or args.steps <= warmup:
        parser.error(f"--procs must be at least 1 and STEPS above {warmup}")
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
                  f"{'equal' if r['equal'] else 'DIFFERENT'}"
                  + "".join(f", {name} {'equal' if same else 'DIFFERENT'}"
                            for name, same in
                            r.get("equal_by_band", {}).items()))
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
