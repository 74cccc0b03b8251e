"""One-edit config fuzz for ``terasec train``.

Each config is ``default_config()`` with one leaf set to one value of
VALUES, run in-process through ``cli.main`` for STEPS steps: as ``grant``
when the leaf is a ``train.*`` field, as ``uniform`` otherwise.  A config
passes if it exits 2 (a config error) with nothing under ``--out``, or
exits 0 with only finite values in its CSV rows.  Every other outcome is
printed, one line per config.

    python tests/fuzz_configs.py [--only train.]

exits 1 if a config is flagged.  The suite does not collect this script
(the 700 configs take about 15 s on one core).  It needs the standard
library and numpy only.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from terasec import cli, harness  # noqa: E402

VALUES = (None, "x", [], {}, -1, 0, 0.5, 1, True, 1e308, -1e308, math.nan,
          math.inf, 2**70)
STEPS = 2


def leaves(table: dict, path: tuple = ()):
    """The dotted path of every non-table value of a nested config."""
    for key, value in table.items():
        if isinstance(value, dict):
            yield from leaves(value, path + (key,))
        else:
            yield path + (key,)


def edited(path: tuple, value) -> dict:
    """The fuzz's base config with the leaf at path set to value."""
    raw = harness.default_config()
    raw["policy"] = "grant" if path[0] == "train" else "uniform"
    raw["train"]["steps"] = STEPS
    table = raw
    for key in path[:-1]:
        table = table[key]
    table[path[-1]] = value
    return raw


def flaw(code: int, out: str) -> str | None:
    """What is wrong with a run that exited with code and wrote into out, or
    None if it passes."""
    names = sorted(os.listdir(out)) if os.path.isdir(out) else []
    if code == cli.EXIT_CONFIG:
        return f"exit 2 but wrote {names}" if names else None
    if code != cli.EXIT_OK:
        return f"exit {code}"
    for name in names:
        if not name.endswith(".csv"):
            continue
        with open(os.path.join(out, name)) as fh:
            for line in fh:
                if line.startswith(("#", "step")):
                    continue
                if not all(math.isfinite(float(v)) for v in line.split(",")):
                    return f"a non-finite value in {name}: {line.strip()}"
    return None


def run(raw: dict) -> tuple:
    """(exit code, flaw or None, last stderr line) of one config."""
    with tempfile.TemporaryDirectory() as root:
        path, out = os.path.join(root, "config.json"), os.path.join(root, "out")
        with open(path, "w") as fh:
            json.dump(raw, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli.main(["train", "--config", path, "--out", out,
                             "--seed", "1"])
        lines = err.getvalue().strip().splitlines()
        return code, flaw(code, out), lines[-1] if lines else ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", default="",
                        help="fuzz only the leaves whose dotted path starts "
                             "with this prefix")
    args = parser.parse_args(argv)
    paths = [p for p in leaves(harness.default_config())
             if ".".join(p).startswith(args.only)]
    flagged = total = 0
    for path in paths:
        for value in VALUES:
            total += 1
            code, problem, last = run(edited(path, value))
            if problem is not None:
                flagged += 1
                print(f"{'.'.join(path)} = {value!r}: {problem}; {last}",
                      flush=True)
    print(f"{flagged} of {total} configs flagged")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
