"""tests/ab_steps.py with this checkout on both sides: a smoke test of the
A/B and of its check that both sides' outputs are equal, on training steps
and on band-replay slots.  It makes no timing assertion."""
import json
import math
import subprocess
import sys

import ab_steps


def _ab(*args):
    return subprocess.run([sys.executable, ab_steps.__file__, *args],
                          capture_output=True, text=True, timeout=300)


def test_this_checkout_against_itself_is_equal_with_a_finite_ratio():
    """3 steps at paper_grant_s10 in one process, no worktree: the one
    timed step after the warm-up gives a finite ratio, every step's outputs
    are equal, and the output states the A/B's limits."""
    proc = _ab(ab_steps.ROOT, "paper_grant_s10", "3", "--procs", "1")
    assert proc.returncode == 0, proc.stderr
    (reading,) = json.loads(proc.stdout.splitlines()[-1])["readings"]
    assert reading["equal"]
    assert reading["timed"] == 3 - ab_steps.WARMUP["train"]
    assert math.isfinite(reading["ratio"]) and reading["ratio"] > 0.0
    assert all(f"limit: {limit}" in proc.stdout for limit in ab_steps.LIMITS)


def test_the_band_replays_against_themselves_are_equal_band_by_band():
    """2 slots of bands_uniform_s50, each the policy's act, the thz, ka and
    ku replays and the advancing step: the one slot timed after the warm-up
    gives a finite ratio, and each band's outputs are equal."""
    proc = _ab(ab_steps.ROOT, "bands_uniform_s50", "2", "--procs", "1")
    assert proc.returncode == 0, proc.stderr
    (reading,) = json.loads(proc.stdout.splitlines()[-1])["readings"]
    assert reading["equal"]
    assert reading["timed"] == 2 - ab_steps.WARMUP["bands"]
    assert reading["equal_by_band"] == {"thz": True, "ka": True, "ku": True}
    assert math.isfinite(reading["ratio"]) and reading["ratio"] > 0.0
    assert "ka equal" in proc.stdout


def test_an_unknown_workload_is_refused():
    proc = _ab(ab_steps.ROOT, "bands_uniform_s51", "3")
    assert proc.returncode == 2
    assert "bench/'s workloads" in proc.stderr
