"""Slices of the config fuzz in tests/fuzz_configs.py, run in-process under
the suite's warning filter, so a RuntimeWarning (an overflow, say) fails
its config: the one-edit train.* slice whole, a sample of the other
sections' one-edit configs, and a sample of the structural edits."""
from terasec import harness

import fuzz_configs


def _edits(train: bool) -> list:
    """(path, value) of each one-edit config of the train.* leaves, or of
    the other leaves, in the order of `python tests/fuzz_configs.py`."""
    return [(path, value)
            for path in fuzz_configs.leaves(harness.default_config())
            if (path[0] == "train") == train
            for value in fuzz_configs.VALUES]


def _flagged(edits) -> list:
    """One line for each config that neither exits 2 with nothing under
    --out nor exits 0 with only finite CSV values (fuzz_configs.flaw)."""
    flagged = []
    for path, value in edits:
        code, problem, last = fuzz_configs.run(fuzz_configs.edited(path, value))
        if problem is not None:
            flagged.append(f"{'.'.join(path)} = {value!r}: {problem}; {last}")
    return flagged


def test_each_one_edit_train_config_is_rejected_or_runs_finite():
    """Each of the 9 train fields set to each of the 14 fuzz values, run as
    grant for two steps."""
    edits = _edits(train=True)
    assert len(edits) == 126
    assert _flagged(edits) == []


def test_a_sample_of_the_other_one_edit_configs_is_rejected_or_runs_finite():
    """Every 11th edit of the other sections' leaves, run as uniform for two
    steps: 11 is prime to the 14 values, so the sample walks through each
    value and over every section."""
    edits = _edits(train=False)[::11]
    assert len(edits) == 53
    assert {path[0] for path, _ in edits} == {
        path[0] for path, _ in _edits(train=False)}
    assert _flagged(edits) == []


def test_a_sample_of_the_structural_edits_is_rejected_or_runs_finite():
    """Every 3rd structural edit: each kind is among them, and so are
    train.* fields dropped, which run as grant.  A repeated or unknown key
    is a config error; a dropped key or an emptied section runs on the
    defaults."""
    edits = fuzz_configs.structural_edits()[::3]
    assert len(edits) == 49
    assert {kind for kind, _ in edits} == set(fuzz_configs.KINDS)
    assert ("drop", ("train", "noise_std")) in edits
    for kind, path in edits:
        code, problem, last = fuzz_configs.run_structural(kind, path)
        assert problem is None, (kind, path, problem, last)
        assert code == (2 if kind in ("repeat", "unknown") else 0), (
            kind, path, last)
