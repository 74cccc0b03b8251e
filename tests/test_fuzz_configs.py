"""The train.* slice of the one-edit config fuzz in tests/fuzz_configs.py:
each of the 9 train fields set to each of the 14 fuzz values, run as grant
for two steps in-process."""
import warnings

from terasec import harness

import fuzz_configs


def test_each_one_edit_train_config_is_rejected_or_runs_finite():
    """Every config exits 2 with nothing under --out, or exits 0 with only
    finite CSV values (fuzz_configs.flaw).  The configs run as the command
    runs them, numpy's warnings printed rather than raised, as in
    `python tests/fuzz_configs.py`."""
    paths = [p for p in fuzz_configs.leaves(harness.default_config())
             if p[0] == "train"]
    flagged = []
    for path in paths:
        for value in fuzz_configs.VALUES:
            with warnings.catch_warnings():
                warnings.simplefilter("default")
                code, problem, last = fuzz_configs.run(
                    fuzz_configs.edited(path, value))
            if problem is not None:
                flagged.append(f"{'.'.join(path)} = {value!r}: {problem}; "
                               f"{last}")
    assert len(paths) * len(fuzz_configs.VALUES) == 126
    assert flagged == []
