"""Module layering: every physproj module imports on its own, and no function imports physproj."""

import ast
import os
import subprocess
import sys

import pytest

import physproj

SRC = os.path.dirname(os.path.dirname(physproj.__file__))


@pytest.mark.parametrize(
    "module",
    [
        "physproj.springmass",
        "physproj.constraints.sets",
        "physproj.nn.losses",
        "physproj.nn.network",
        "physproj.projector",
        "physproj.cli",
    ],
)
def test_module_imports_first_in_a_fresh_interpreter(module):
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run([sys.executable, "-c", f"import {module}"], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_no_function_level_physproj_import():
    found = []
    for root, _, files in os.walk(os.path.join(SRC, "physproj")):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, name)
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), path)
            for fn in ast.walk(tree):
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for node in ast.walk(fn):
                    if isinstance(node, ast.ImportFrom):
                        modules = [node.module or ""] if node.level == 0 else ["physproj"]  # relative: inside the package
                    elif isinstance(node, ast.Import):
                        modules = [alias.name for alias in node.names]
                    else:
                        continue
                    if any(m == "physproj" or m.startswith("physproj.") for m in modules):
                        found.append(f"{os.path.relpath(path, SRC)}:{node.lineno}")
    assert not found, found
