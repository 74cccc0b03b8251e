"""The mutant list of tests/mutants.py against this checkout: cheap checks
that run no mutant."""
import importlib
import inspect
import os

from terasec import autodiff

import mutants


def test_each_mutant_edit_targets_one_place_in_its_file():
    assert mutants.stale_targets() == []
    for m in mutants.MUTANTS:
        assert m.old != m.new, m.name


def test_each_mutant_names_tests_that_exist():
    for m in mutants.MUTANTS:
        assert m.tests, m.name
        for node in m.tests:
            path, _, func = node.partition("::")
            with open(os.path.join(mutants.ROOT, path)) as fh:
                text = fh.read()
            assert not func or f"def {func}(" in text, node


def test_known_survivors_are_listed_mutants_with_a_reason():
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)
    for name, reason in mutants.KNOWN_SURVIVORS.items():
        assert name in names and reason, name


def test_the_sub_graph_mutants_edit_its_tables():
    """Each names an edit inside autodiff.sub_graph or the layer tables it
    builds."""
    code = (inspect.getsource(autodiff.sub_graph)
            + inspect.getsource(autodiff._layer_tables))
    by_name = {m.name: m for m in mutants.MUTANTS}
    for name in mutants.SUB_GRAPH_MUTANTS:
        assert by_name[name].path == "autodiff.py"
        assert by_name[name].old in code, name


def test_each_listed_mutant_edits_its_function():
    """Each mutant of TARGET_FUNCTIONS edits its file inside the named
    function."""
    by_name = {m.name: m for m in mutants.MUTANTS}
    for name, (module, qualname) in mutants.TARGET_FUNCTIONS.items():
        assert by_name[name].path == f"{module}.py", name
        obj = importlib.import_module(f"terasec.{module}")
        for part in qualname.split("."):
            obj = getattr(obj, part)
        assert by_name[name].old in inspect.getsource(obj), name
