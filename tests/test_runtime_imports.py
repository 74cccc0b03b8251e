"""The package stays numpy-only at runtime: every module of src/terasec
imports only numpy, the standard library and terasec itself."""
import ast
import glob
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src", "terasec")
ALLOWED = {"numpy", "terasec"} | set(sys.stdlib_module_names)


def foreign_imports(source: str) -> list:
    """Top-level names of the modules `source` imports from outside ALLOWED;
    a relative import stays inside the package."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name for name in names if name.split(".")[0] not in ALLOWED]


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(SRC, "*.py"))),
                         ids=os.path.basename)
def test_the_package_imports_only_numpy_and_the_standard_library(path):
    with open(path) as fh:
        assert foreign_imports(fh.read()) == []


def test_a_foreign_import_is_found_wherever_it_is():
    source = """
from __future__ import annotations
import os.path, numpy.linalg
from . import agent
from .autodiff import Tensor
from terasec.env import SecWindow

def f():
    import scipy.sparse
    from torch import nn
"""
    assert foreign_imports(source) == ["scipy.sparse", "torch"]


def test_no_command_imports_numpy_ma(tmp_path):
    """np.unique imports numpy.ma on its first call, about 18 ms of a fresh
    process's set-up; no command needs it, checked in one fresh interpreter
    for a training step of each policy, among others."""
    script = f"""
import sys
from terasec.cli import main
out = {str(tmp_path)!r}
for argv in (*(["train", "--policy", policy, "--steps", "1",
               "--out", out + "/runs"]
              for policy in ("uniform", "grant", "maddpg_fc")),
             ["compare-bands", "--policy", "uniform", "--steps", "1"],
             ["dump-topology", "--out", out + "/topology.csv"]):
    assert main(argv) == 0, argv
    assert "numpy.ma" not in sys.modules, argv
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
