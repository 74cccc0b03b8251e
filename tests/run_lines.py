"""Line trace of the command-line interface over src/, with the standard
library only.

    python tests/run_lines.py

runs every command of `commands` through `terasec.cli.main` in this one
process, under `sys.settrace` and `threading.settrace` (so the optimizer's
worker threads are traced too), writing only into a temporary directory.
It then prints, grouped by file and function, every line of a function in
src/terasec that no command ran.  Module and class bodies run at import
and are not counted.  Tier-1 does not run this file;
tests/test_run_lines.py traces one short command through it.
"""
from __future__ import annotations

import contextlib
import inspect
import io
import json
import os
import sys
import tempfile
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "terasec")


def commands(tmp: str) -> list:
    """The traced commands' argument lists, writing under tmp: each policy's
    training run (grant past its step-50 checkpoint, uniform with
    --dump-traffic), grant at 200 sources, a 1-step run at another seed, an
    evaluation from the checkpoint, a band comparison of uniform and of
    grant, the topology dump to stdout and to a file, and the link budget
    at a given distance."""
    runs = os.path.join(tmp, "runs")
    wide = os.path.join(tmp, "s200.json")
    with open(wide, "w") as fh:
        json.dump({"n_sources": 200}, fh)
    return [
        ["train", "--policy", "grant", "--steps", "60", "--out", runs],
        ["train", "--policy", "maddpg_fc", "--steps", "3", "--out", runs],
        ["train", "--policy", "uniform", "--steps", "3", "--out", runs,
         "--dump-traffic"],
        ["train", "--policy", "full", "--steps", "3", "--out", runs],
        ["train", "--config", wide, "--steps", "2", "--out", runs],
        ["train", "--steps", "1", "--seed", "1", "--out",
         os.path.join(tmp, "one")],
        ["eval", "--steps", "3", "--checkpoint",
         os.path.join(runs, "grant_seed0_step50.ckpt.npz")],
        ["compare-bands", "--policy", "uniform", "--steps", "3"],
        ["compare-bands", "--policy", "grant", "--steps", "3"],
        ["dump-topology"],
        ["dump-topology", "--out", os.path.join(tmp, "topology.csv")],
        ["linkbudget", "--distance-km", "1500"],
    ]


def trace(argvs) -> set:
    """(file, line) of every line under SRC that running each argument list
    through terasec.cli.main ran; each command must exit 0.  The trace
    functions in place before are restored."""
    from terasec import cli

    reached = set()

    def local(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(SRC) else None

    previous = sys.gettrace(), threading.gettrace()
    sys.settrace(tracer)
    threading.settrace(tracer)
    try:
        for argv in argvs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"{argv} exited {code}: {out.getvalue()[-500:]}")
    finally:
        sys.settrace(previous[0])
        threading.settrace(previous[1])
    return reached


def _function_lines(code, qualname=None):
    """(line, qualname) of every line of a function's code (its def line
    aside), nested functions and comprehensions included; a module's or a
    class's body is walked but not counted."""
    name = code.co_name
    is_function = (code.co_flags & inspect.CO_NEWLOCALS
                   and (name == "<lambda>" or not name.startswith("<")))
    if is_function:
        qualname = code.co_qualname
    if qualname is not None:
        for _, _, line in code.co_lines():
            if line is not None and line != code.co_firstlineno:
                yield line, qualname
    for const in code.co_consts:
        if inspect.iscode(const):
            yield from _function_lines(const, qualname)


def unreached(reached: set) -> dict:
    """{path: {function qualname: [(line, text), ...]}} of the function
    lines of each module under SRC that are not in reached."""
    out = {}
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        with open(path) as fh:
            text = fh.read()
        lines = text.splitlines()
        missed = {}
        for line, qualname in sorted(set(_function_lines(
                compile(text, path, "exec")))):
            if (path, line) not in reached:
                missed.setdefault(qualname, []).append(
                    (line, lines[line - 1].strip()))
        if missed:
            out[path] = missed
    return out


def main() -> int:
    sys.path.insert(0, os.path.dirname(SRC))
    with tempfile.TemporaryDirectory(prefix="terasec-lines-") as tmp:
        missed = unreached(trace(commands(tmp)))
    for path, functions in missed.items():
        print(os.path.relpath(path, ROOT))
        for qualname, lines in functions.items():
            print(f"  {qualname}")
            for line, text in lines:
                print(f"    {line}: {text}")
    print(f"{sum(len(v) for f in missed.values() for v in f.values())} "
          f"unreached lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
