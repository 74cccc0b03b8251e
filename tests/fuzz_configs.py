"""Config fuzz for ``terasec train``: one-edit and structural edits.

Each one-edit config is ``default_config()`` with one leaf set to one value
of VALUES, run in-process through ``cli.main`` for STEPS steps: as
``grant`` when the leaf is a ``train.*`` field, as ``uniform`` otherwise.
Each structural config makes one edit of KINDS to the same base: a key
dropped, a key given twice in the JSON text, an unknown key added to a
table, or a section emptied; it runs with ``--steps STEPS``, so a dropped
or emptied step count does not fall back to the default's.  A config
passes if it exits 2 (a config error) with nothing under ``--out``, or
exits 0 with only finite values in its CSV rows.  Every other outcome is
printed, one line per config.

    python tests/fuzz_configs.py [--only train.]

exits 1 if a config is flagged.  The suite does not collect this script
(the 700 one-edit and 145 structural configs take about 15 s on one
core).  It needs the standard library and numpy only.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
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
KINDS = ("drop", "repeat", "unknown", "empty")
#: a key no config section has
UNKNOWN = "fuzz_unknown_key"
#: the placeholder written for a repeated key, then replaced by its name
_REPEAT = "fuzz_repeated_key"


def leaves(table: dict, path: tuple = ()):
    """The dotted path of every non-table value of a nested config."""
    for key, value in table.items():
        if isinstance(value, dict):
            yield from leaves(value, path + (key,))
        else:
            yield path + (key,)


def key_paths(table: dict, path: tuple = ()):
    """The dotted path of every key of a nested config, a table's before
    its own keys'."""
    for key, value in table.items():
        yield path + (key,)
        if isinstance(value, dict):
            yield from key_paths(value, path + (key,))


def base(path: tuple) -> dict:
    """The fuzz's base config for an edit at path: run as grant for a
    train.* path, as uniform otherwise, for STEPS steps."""
    raw = harness.default_config()
    raw["policy"] = "grant" if path[:1] == ("train",) else "uniform"
    raw["train"]["steps"] = STEPS
    return raw


def edited(path: tuple, value) -> dict:
    """The fuzz's base config with the leaf at path set to value."""
    raw = base(path)
    table = raw
    for key in path[:-1]:
        table = table[key]
    table[path[-1]] = value
    return raw


def structural_edits() -> list:
    """(kind, path) of each structural edit: every key dropped, every key
    repeated, an unknown key added to the root and to every section, and
    every section emptied."""
    raw = harness.default_config()
    paths = list(key_paths(raw))
    sections = [p for p in paths
                if isinstance(functools.reduce(dict.get, p, raw), dict)]
    return ([("drop", p) for p in paths] + [("repeat", p) for p in paths]
            + [("unknown", p) for p in [(), *sections]]
            + [("empty", p) for p in sections])


def restructured(kind: str, path: tuple) -> str:
    """JSON text of the base config for path with the structural edit kind:
    path's key dropped or given twice, UNKNOWN added to the table at path,
    or the table at path emptied."""
    raw = base(path)
    keyed = kind in ("drop", "repeat")
    table = functools.reduce(dict.get, path[:-1] if keyed else path, raw)
    if kind == "drop":
        del table[path[-1]]
    elif kind == "repeat":
        table[_REPEAT] = table[path[-1]]
    elif kind == "unknown":
        table[UNKNOWN] = 0
    else:
        table.clear()
    text = json.dumps(raw)
    return (text.replace(json.dumps(_REPEAT), json.dumps(path[-1]))
            if kind == "repeat" else text)


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


def run(raw, *args) -> tuple:
    """(exit code, flaw or None, last stderr line) of one config, a dict or
    JSON text, run with the extra command-line args."""
    with tempfile.TemporaryDirectory() as root:
        path, out = os.path.join(root, "config.json"), os.path.join(root, "out")
        with open(path, "w") as fh:
            fh.write(raw if isinstance(raw, str) else json.dumps(raw))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli.main(["train", "--config", path, "--out", out,
                             "--seed", "1", *args])
        lines = err.getvalue().strip().splitlines()
        return code, flaw(code, out), lines[-1] if lines else ""


def run_structural(kind: str, path: tuple) -> tuple:
    """run() of the structural edit kind at path, for STEPS steps."""
    return run(restructured(kind, path), "--steps", str(STEPS))


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
    for kind, path in structural_edits():
        if not ".".join(path).startswith(args.only):
            continue
        total += 1
        code, problem, last = run_structural(kind, path)
        if problem is not None:
            flagged += 1
            print(f"{kind} {'.'.join(path) or '<root>'}: {problem}; {last}",
                  flush=True)
    print(f"{flagged} of {total} configs flagged")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
