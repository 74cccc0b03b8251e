"""The learner's outputs keep the bits pinned in learner_pin.json (see
learner_pin.py, which also re-pins)."""
import pytest

from learner_pin import (PIN_BLAS_THREADS, _blas_threads, _openblas,
                         build_id, differences, load_pin, outputs)


def test_learner_outputs_match_the_pin(tmp_path):
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
