"""Self-test of the benchmark: tracing only observes, spans nest, self times
add up, names are well formed, and bad outputs count as failures.

    python3 -m pytest bench/tests -q
"""
from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SELFTEST_DIR = os.path.join(run.WORK_DIR, "selftest")


def _episode(workload: str, trace: int, slots: int) -> dict:
    out = os.path.join(ROOT, SELFTEST_DIR)
    shutil.rmtree(out, ignore_errors=True)
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "episode.py"), "--workload",
         workload, "--seed", "3", "--trace", str(trace), "--slots", str(slots),
         "--out", SELFTEST_DIR],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    assert proc.returncode == 0, proc.stderr
    files = {}
    for name in sorted(os.listdir(out)):
        if name.endswith(".csv"):
            with open(os.path.join(out, name), "rb") as fh:
                files[name] = fh.read()
    shutil.rmtree(out, ignore_errors=True)
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["csv_files"] = files
    return record


@pytest.mark.parametrize("workload,slots", [("paper_grant_s10", 4),
                                            ("bands_uniform_s50", 2)])
def test_tracing_only_observes(workload, slots):
    plain = _episode(workload, 0, slots)
    traced = _episode(workload, 1, slots)
    assert plain["error"] is None and traced["error"] is None
    assert plain["sim"] == traced["sim"]
    assert plain["rows"] == traced["rows"]
    assert plain["digest"] == traced["digest"]
    assert plain["csv_files"] == traced["csv_files"]
    assert len(traced["sim"]) == slots and len(traced["slot_s"]) == slots - 1
    # self times plus the unattributed residual make up the stepping phase
    self_s = sum(rec[2] for rec in traced["spans"].values())
    residual = traced["stepping_s"] - self_s
    assert 0.0 <= residual <= 0.2 * traced["stepping_s"]
    for calls, total, own in traced["spans"].values():
        assert calls > 0 and total >= own >= -1e-9


def test_spans_nest_and_self_times_add_up(tmp_path):
    import terasec
    from terasec import harness

    raw = workloads.config(workloads.WORKLOADS["paper_grant_s10"], 2,
                           str(tmp_path), slots=3)
    cfg = harness.ExperimentConfig.from_dict(raw)
    tracer = Tracer(keep_spans=True)
    tracer.install(terasec)
    try:
        harness.run_experiment(cfg, [2])
    finally:
        tracer.uninstall()
    spans = tracer.spans
    assert spans
    child_time = [0.0] * len(spans)
    for i, (name, start, end, parent, _slot) in enumerate(spans):
        assert end >= start
        if parent is not None:
            p_start, p_end = spans[parent][1], spans[parent][2]
            assert p_start <= start and end <= p_end, (name, spans[parent][0])
            assert parent < i
            child_time[parent] += end - start
    self_by_name = {}
    for (name, start, end, _, _), kids in zip(spans, child_time):
        self_by_name[name] = self_by_name.get(name, 0.0) + (end - start - kids)
    totals = {**tracer.setup_totals()}
    for name, rec in tracer.totals(0).items():
        totals.setdefault(name, [0, 0.0, 0.0])
        totals[name] = [a + b for a, b in zip(totals[name], rec)]
    for name, own in self_by_name.items():
        assert totals[name][2] == pytest.approx(own, abs=1e-9)
    roots = sum(end - start for _, start, end, parent, _ in spans if parent is None)
    assert sum(self_by_name.values()) == pytest.approx(roots, abs=1e-9)


def test_uninstall_restores_every_patch():
    import terasec
    import terasec.harness  # noqa: F401  (imports every traced module)

    from spans import _targets
    before = [(o, a, o.__dict__[a]) for o, a, _ in _targets(terasec)]
    tracer = Tracer()
    tracer.install(terasec)
    tracer.uninstall()
    for owner, attr, original in before:
        assert owner.__dict__[attr] is original


def test_names_match_the_benchmark_file():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END
    assert layers == run.PER_LAYER_UNITS
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()}
    for name in [*e2e, *layers, *workloads.WORKLOADS]:
        assert NAME.fullmatch(name), name


def test_tail_keeps_ten_samples_beyond():
    samples = list(range(100))
    value, pct, beyond = run._tail(samples)
    assert value == 89 and beyond == 10
    assert pct == pytest.approx(100 * 89 / 99)


def test_slots_scale_by_the_clock_passes_around_them():
    ref = run.CLOCK_REF_S
    # the host runs at reference speed, then at half of it
    ep = {"slot_s": [0.1, 0.2], "clock_s": [ref, ref, 2 * ref],
          "stepping_s": 0.4, "setup_s": 1.0, "setup_clock_s": [2 * ref]}
    scale = run.HostScale(1.0)
    slots = scale.slots(ep)
    assert slots == pytest.approx([0.1, 0.2 / 1.5])
    assert scale.factor(ep["clock_s"]) == pytest.approx(1.0)
    assert scale.stepping(ep) == pytest.approx(sum(slots) + 0.1)
    assert run.HostScale(0.5).setup(ep) == pytest.approx(0.5 ** 0.5)


def test_episode_count_does_not_depend_on_host_speed():
    w = workloads.WORKLOADS["paper_grant_s10"]
    probes = run.SETUP_PROBES * w.setup_s
    assert run.episodes_per_run(w, probes + 3.5 * w.episode_s, 0) == 3
    assert run.episodes_per_run(w, 1.0, 0) == 1
    assert run.episodes_per_run(w, 1.0, 1) == 2


def test_any_non_negative_seed_is_accepted():
    workloads.check_seed(2**40)
    with pytest.raises(ValueError):
        workloads.check_seed(-1)


def test_golden_drift_counts_as_failed():
    rows = [[float(i), 0.9, 0.8, 0.7, 90.0, 120.0, -5.0, 1.0, 2.0]
            for i in range(3)]
    sim = [{"u": 0.9, "t_avg": 0.09, "t_max": 0.12, "delay": [0.09, 0.12],
            "unreachable": False, "paths": 5, "backlog_links": 0,
            "backlog_bytes": 0.0}] * 3
    ep = {"slots_planned": 4, "sim": sim, "rows": rows, "error": "boom",
          "config_hash": "abc"}
    golden = {"config_hash": "abc", "rows": [list(r) for r in rows]}
    golden["rows"][1][4] *= 1.0 + 10 * run.REL_TOL
    status = run.check_episode(ep, ep, golden)
    assert status[0] is None and status[2] is None
    assert status[1] == "differs from golden"
    assert status[3].startswith("not completed")
    nan_ep = {**ep, "rows": [rows[0], [float("nan")] * 9, rows[2]]}
    assert run.check_episode(nan_ep, nan_ep, None)[1] is not None


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "paper_grant_s10",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
