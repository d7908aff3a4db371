"""The runtime needs numpy only: scipy and networkx are test/extra deps.

scipy survives only as a test oracle (``tests/oracles.py`` and a few
cross-checks); networkx only behind ``to_networkx``, installed with the
``networkx`` extra.
"""

import ast
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_importing_the_package_and_cli_leaves_scipy_and_networkx_out():
    code = (
        "import sys, repro, repro.cli; "
        "assert 'scipy' not in sys.modules, 'scipy imported'; "
        "assert 'networkx' not in sys.modules, 'networkx imported'"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    completed = subprocess.run([sys.executable, "-c", code], env=env,
                               capture_output=True, text=True, timeout=60)
    assert completed.returncode == 0, completed.stderr


def test_no_source_file_imports_scipy():
    offenders = []
    for root, _, files in os.walk(os.path.join(SRC, "repro")):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, name)
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), path)
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                else:
                    continue
                if any(module.split(".")[0] == "scipy" for module in modules):
                    offenders.append(os.path.relpath(path, SRC))
    assert offenders == []


def test_to_networkx_names_the_extra_when_networkx_is_missing(monkeypatch, tiny_graph):
    from repro.graphs.builders import to_networkx

    monkeypatch.setitem(sys.modules, "networkx", None)
    with pytest.raises(ImportError, match=r"'networkx' extra"):
        to_networkx(tiny_graph)
