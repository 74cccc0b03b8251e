"""The learner's output bits, pinned: what a short `grant` and `maddpg_fc`
run write at 10 sources, what `grant` at 200 sources and `uniform` at 50
write, what `eval` prints from the `grant` step-50 checkpoint and what
`compare-bands` prints for `uniform` and from that checkpoint, the
`maddpg_fc` agent's parameters and its flat critic's live input columns
after 3 steps at 10 sources, and the `grant` agent's parameters after 3
steps at 200 sources.  CSV rows carry 10 digits, so only the tensors show a
change in the low bits of the dense baseline or of GRANT at 200 sources.

    PYTHONPATH=src python tests/learner_pin.py      # re-pin learner_pin.json

Re-pinning prints each entry it changes before it writes: a digest-only
change (within the tolerance), one beyond the tolerance, a tensor shape
change, a new entry or a gone one.

`test_learner_pin.py` recomputes `outputs()` and compares it with the pin:
digest for digest on the numpy and BLAS build the pin was made on, and at
the benchmark's tolerance (rel 1e-6, abs 1e-9) on any other build.
`outputs()` runs at the pin's BLAS thread count, whatever
OPENBLAS_NUM_THREADS says, and restores the caller's count afterwards.  Every
CSV is pinned from line 2 on, because line 1's config_hash covers the
output directory.  Re-pin only with a change that must move bits, and state
its tolerance in CHANGES.md.
"""
from __future__ import annotations

import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import tempfile

import numpy as np

from terasec.cli import main
from terasec.harness import load_config, restored_policy

PIN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "learner_pin.json")
REL_TOL, ABS_TOL = 1e-6, 1e-9
#: evenly spaced elements of each checkpoint tensor kept for the
#: cross-build comparison
SAMPLES = 16


#: the BLAS thread count learner_pin.json was made with: OpenBLAS splits
#: the dense baseline's larger products by thread count
PIN_BLAS_THREADS = 2


def _openblas(stem):
    """OpenBLAS's function `stem` ("get_corename", ...) in numpy's bundled
    build, under any of the names such builds export it by, or None."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in (f"scipy_openblas_{stem}64_", f"openblas_{stem}64_",
                     f"openblas_{stem}"):
            fn = getattr(lib, name, None)
            if fn is not None:
                return fn
    return None


def _blas_core():
    """The CPU kernel set numpy's bundled OpenBLAS chose, if it is found."""
    fn = _openblas("get_corename")
    if fn is None:
        return None
    fn.restype = ctypes.c_char_p
    return fn().decode()


@contextlib.contextmanager
def _blas_threads(n):
    """Run the block with numpy's bundled OpenBLAS at n threads, whatever
    OPENBLAS_NUM_THREADS set, and restore the caller's count after it; where
    that OpenBLAS is not found, run it as it is."""
    get = _openblas("get_num_threads")
    set_threads = _openblas("set_num_threads")
    if get is None or set_threads is None:
        yield
        return
    set_threads.restype = None
    before = get()
    set_threads(n)
    try:
        yield
    finally:
        set_threads(before)


def build_id() -> dict:
    """What the output bits may depend on besides the code."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "machine": platform.machine(),
            "blas": blas.get("openblas configuration") or blas.get("name"),
            "blas_core": _blas_core()}


def _csv(path) -> dict:
    with open(path) as fh:
        lines = fh.read().splitlines()[1:]
    text = "\n".join(lines) + "\n"
    return {"sha256": hashlib.sha256(text.encode()).hexdigest(),
            "rows": lines}


def _tensor(data: np.ndarray) -> dict:
    flat = data.reshape(-1)
    picks = np.linspace(0, flat.size - 1, min(SAMPLES, flat.size)).astype(int)
    return {"sha256": hashlib.sha256(data.tobytes()).hexdigest(),
            "shape": list(data.shape),
            "abs_sum": float(np.abs(flat).sum()),
            "sample": flat[picks].tolist()}


def _cli(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    if code != 0:
        raise RuntimeError(f"terasec {' '.join(argv)} exited {code}")
    return out.getvalue()


def _printed(*argv) -> dict:
    """A command's printed JSON without config_hash, nested keys joined by
    dots."""
    def flat(tree, prefix=""):
        for key, value in tree.items():
            if isinstance(value, dict):
                yield from flat(value, f"{prefix}{key}.")
            else:
                yield prefix + key, value
    printed = dict(flat(json.loads(_cli(*argv))))
    del printed["config_hash"]
    return printed


def _config(out_dir, n_sources) -> str:
    path = os.path.join(out_dir, f"s{n_sources}.json")
    with open(path, "w") as fh:
        json.dump({"n_sources": n_sources}, fh)
    return path


def _trained_tensors(out_dir, prefix, **config) -> dict:
    """The parameter tensors of the agent `config` sets (and a flat
    critic's live input columns) after 3 training steps in this process at
    seed 1, each named under prefix + "/"."""
    cfg = load_config(None, {**config, "train": {"steps": 3},
                             "output_dir": out_dir})
    _, agent = restored_policy(cfg, 1)
    agent.run_training()
    tensors = {p.name: p.data for p in agent.parameters()}
    if config["policy"] == "maddpg_fc":
        tensors["fc_critic.fc1.w.live_rows"] = agent.critic.live
    return {f"{prefix}/{name}": _tensor(data)
            for name, data in tensors.items()}


def outputs(out_dir) -> dict:
    """Run `grant` at 10 sources for 55 steps (crossing the step-50
    checkpoint), `maddpg_fc` at 10 sources for 3 steps, `grant` at 200
    sources for 3 steps and `uniform` at 50 sources for 5 steps (each in its
    own subdirectory), `eval` and a 5-slot `compare-bands` of the `grant`
    step-50 checkpoint, a 3-slot `compare-bands` of `uniform` at 50 sources,
    and 3 `maddpg_fc` steps at 10 sources and 3 `grant` steps at 200 in this
    process, all at PIN_BLAS_THREADS BLAS threads; return their pinned
    outputs."""
    with _blas_threads(PIN_BLAS_THREADS):
        return _outputs(out_dir)


def _outputs(out_dir) -> dict:
    for policy, steps in (("grant", 55), ("maddpg_fc", 3)):
        _cli("train", "--policy", policy, "--steps", str(steps),
             "--seed", "1", "--out", out_dir)
    config = _config(out_dir, 50)
    for policy, steps, n_sources in (("grant", 3, 200), ("uniform", 5, 50)):
        _cli("train", "--config", _config(out_dir, n_sources), "--policy",
             policy, "--steps", str(steps), "--seed", "1", "--out",
             os.path.join(out_dir, f"s{n_sources}"))
    ckpt = os.path.join(out_dir, "grant_seed1_step50.ckpt.npz")
    restored = ("--policy", "grant", "--seed", "1", "--checkpoint", ckpt,
                "--out", out_dir)
    printed = {
        "eval": _printed("eval", *restored),
        "compare_bands_grant_s10": _printed("compare-bands", *restored,
                                            "--steps", "5"),
        "compare_bands_uniform_s50": _printed(
            "compare-bands", "--config", config, "--policy", "uniform",
            "--seed", "1", "--steps", "3", "--out", out_dir),
    }
    with np.load(ckpt) as archive:
        tensors = {key: _tensor(archive[key]) for key in archive.files
                   if key.startswith("tensor/")}
    tensors.update(_trained_tensors(out_dir, "maddpg_fc", policy="maddpg_fc"))
    tensors.update(_trained_tensors(out_dir, "grant_s200", policy="grant",
                                    n_sources=200))
    return {
        "csv": {name: _csv(os.path.join(out_dir, name)) for name in (
            "grant_seed1_metrics.csv", "grant_seed1_loss.csv",
            "maddpg_fc_seed1_metrics.csv", "maddpg_fc_seed1_loss.csv",
            "s200/grant_seed1_metrics.csv", "s200/grant_seed1_loss.csv",
            "s50/uniform_seed1_metrics.csv")},
        "tensors": tensors,
        "printed": printed,
    }


def load_pin() -> dict:
    with open(PIN_PATH) as fh:
        return json.load(fh)


def _close(want, got, where) -> list:
    """Mismatches between two equal-length number lists at the tolerance."""
    if len(want) != len(got):
        return [f"{where}: {len(got)} values, pinned {len(want)}"]
    want, got = np.asarray(want, float), np.asarray(got, float)
    bad = ~np.isclose(got, want, rtol=REL_TOL, atol=ABS_TOL)
    return [f"{where}[{i}]: {got[i]!r}, pinned {want[i]!r}"
            for i in np.flatnonzero(bad)]


def _rows(lines) -> list:
    """A CSV's rows after its column header, as numbers."""
    return [float(v) for line in lines[1:] for v in line.split(",")]


def differences(pin: dict, got: dict, exact: bool) -> list:
    """Where got departs from pin: by digest (exact) or at the tolerance."""
    bad = []
    if sorted(pin["csv"]) != sorted(got["csv"]) or (
            sorted(pin["tensors"]) != sorted(got["tensors"])):
        return ["the pinned files or tensors differ by name"]
    for name, want in pin["csv"].items():
        have = got["csv"][name]
        if exact:
            if have["sha256"] != want["sha256"]:
                bad += [f"{name} line {i + 2}: {h!r}, pinned {w!r}"
                        for i, (w, h) in enumerate(zip(want["rows"],
                                                       have["rows"])) if w != h]
                bad.append(f"{name}: digest differs")
        elif have["rows"][0] != want["rows"][0]:
            bad.append(f"{name}: column header differs")
        else:
            bad += _close(_rows(want["rows"]), _rows(have["rows"]), name)
    for name, want in pin["tensors"].items():
        have = got["tensors"][name]
        if exact:
            if have["sha256"] != want["sha256"]:
                bad.append(f"{name}: digest differs")
        elif have["shape"] != want["shape"]:
            bad.append(f"{name}: shape {have['shape']}, pinned {want['shape']}")
        else:
            bad += _close([want["abs_sum"], *want["sample"]],
                          [have["abs_sum"], *have["sample"]], name)
    if sorted(pin["printed"]) != sorted(got["printed"]):
        return bad + ["the pinned commands differ by name"]
    for command, want in pin["printed"].items():
        have = got["printed"][command]
        if sorted(have) != sorted(want):
            bad.append(f"{command}: the printed keys differ")
            continue
        # exact: every value; else the floats at the tolerance, the rest exact
        close = [] if exact else [k for k in want if isinstance(want[k], float)]
        bad += [f"{command} {k}: {have[k]!r}, pinned {want[k]!r}"
                for k in sorted(want) if k not in close and have[k] != want[k]]
        bad += _close([want[k] for k in close], [have[k] for k in close],
                      command)
    return bad


def changes(pin: dict, got: dict) -> list:
    """Each pinned entry got changes, with how: "digest only" (within the
    tolerance), "beyond tolerance", "shape change", "new" or "gone"."""
    found = []
    for section in ("csv", "tensors", "printed"):
        old, new = pin.get(section, {}), got[section]
        for name in sorted(old.keys() | new.keys()):
            where = f"{section} {name}"
            if name not in old or name not in new:
                found.append(f"{where}: {'new' if name in new else 'gone'}")
                continue
            one = [{key: {name: d[section][name]} if key == section else {}
                    for key in ("csv", "tensors", "printed")}
                   for d in (pin, got)]
            if not differences(*one, exact=True):
                continue
            shapes = [d[name].get("shape") for d in (old, new)]
            if section == "tensors" and shapes[0] != shapes[1]:
                how = f"shape change {shapes[0]} -> {shapes[1]}"
            else:
                how = ("beyond tolerance" if differences(*one, exact=False)
                       else "digest only")
            found.append(f"{where}: {how}")
    return found


def repin() -> None:
    with tempfile.TemporaryDirectory() as out_dir:
        pin = {"build": build_id(),
               "tolerance": {"rel": REL_TOL, "abs": ABS_TOL},
               **outputs(out_dir)}
    found = changes(load_pin() if os.path.exists(PIN_PATH) else {}, pin)
    print(f"{len(found)} pinned entries change:", *found, sep="\n  ")
    with open(PIN_PATH, "w") as fh:
        json.dump(pin, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"pinned {len(pin['csv'])} CSVs, {len(pin['tensors'])} checkpoint "
          f"tensors and {len(pin['printed'])} printed JSONs on {pin['build']}"
          f" -> {PIN_PATH}")


if __name__ == "__main__":
    repin()
