"""The learner's outputs keep the bits pinned in learner_pin.json (see
learner_pin.py, which also re-pins)."""
import os

import pytest

from learner_pin import (PIN_BLAS_THREADS, _blas_threads, _openblas,
                         build_id, changes, differences, load_pin, outputs)


@pytest.mark.parametrize("cpus", ["all", "one"])
def test_learner_outputs_match_the_pin(tmp_path, monkeypatch, cpus):
    """The bits do not depend on how many CPUs the process may run on, and
    so on how many shares the dense baseline's Adam step splits into."""
    if cpus == "one":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    pin = load_pin()
    exact = build_id() == pin["build"]
    if not exact:
        print(f"\nlearner pin: this build {build_id()} is not the pin's "
              f"{pin['build']}; comparing rows, tensor samples and printed "
              f"numbers at rel {pin['tolerance']['rel']}, "
              f"abs {pin['tolerance']['abs']}")
    bad = differences(pin, outputs(str(tmp_path)), exact)
    assert not bad, "\n".join(bad[:20])


def test_the_pin_runs_at_its_blas_thread_count_and_restores_the_callers():
    get = _openblas("get_num_threads")
    if get is None:
        pytest.skip("numpy's bundled OpenBLAS is not found")
    before = get()
    with _blas_threads(PIN_BLAS_THREADS):
        assert get() == PIN_BLAS_THREADS
    assert get() == before


def test_a_repin_names_each_entry_it_changes_and_how():
    def tensor(sha, shape, value):
        return {"sha256": sha, "shape": shape, "abs_sum": value,
                "sample": [value]}

    def csv(sha, value):
        return {"sha256": sha, "rows": ["a,b", f"1.0,{value!r}"]}

    pin = {"csv": {"m.csv": csv("a", 2.0)}, "printed": {"eval": {"x": 1.0}},
           "tensors": {"same": tensor("a", [1], 1.0),
                       "low_bits": tensor("b", [1], 1.0),
                       "moved": tensor("c", [1], 1.0),
                       "reshaped": tensor("d", [2], 1.0),
                       "gone": tensor("e", [1], 1.0)}}
    got = {"csv": {"m.csv": csv("A", 2.0 + 1e-12)},
           "printed": {"eval": {"x": 1.5}},
           "tensors": {"same": tensor("a", [1], 1.0),
                       "low_bits": tensor("B", [1], 1.0 + 1e-12),
                       "moved": tensor("C", [1], 1.1),
                       "reshaped": tensor("D", [1], 1.0),
                       "new": tensor("f", [1], 1.0)}}
    assert changes(pin, got) == [
        "csv m.csv: digest only", "tensors gone: gone",
        "tensors low_bits: digest only", "tensors moved: beyond tolerance",
        "tensors new: new", "tensors reshaped: shape change [2] -> [1]",
        "printed eval: beyond tolerance"]
