"""tests/run_lines.py's tracer over one short command."""
import inspect
import sys
import threading

from terasec import cli

import run_lines


def test_the_tracer_reports_what_linkbudget_ran_and_restores_the_trace():
    def outer(frame, event, arg):
        return None

    before = sys.gettrace(), threading.gettrace()
    sys.settrace(outer)
    threading.settrace(outer)
    try:
        reached = run_lines.trace([["linkbudget", "--distance-km", "1500"]])
        assert sys.gettrace() is outer and threading.gettrace() is outer
    finally:
        sys.settrace(before[0])
        threading.settrace(before[1])
    path = cli.__file__
    assert (path, inspect.getsourcelines(cli.cmd_linkbudget)[1] + 1) in reached
    missed = run_lines.unreached(reached)[path]
    assert "cmd_linkbudget" not in missed
    # the distance parsed: its error line unreached, its return reached
    lines, first = inspect.getsourcelines(cli._distance_km)
    at = {text.split()[0]: first + i for i, text in enumerate(lines)
          if text.strip()}
    unreached = [line for line, _ in missed["_distance_km"]]
    assert at["raise"] in unreached and at["return"] not in unreached
