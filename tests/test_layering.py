"""Module layering: every physproj module imports on its own, no function imports physproj,
and no module imports a name it never uses."""

import ast
import os
import subprocess
import sys

import pytest

import physproj

SRC = os.path.dirname(os.path.dirname(physproj.__file__))


def _modules():
    """(path, source) of every physproj source file."""
    for root, _, files in os.walk(os.path.join(SRC, "physproj")):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path, encoding="utf-8") as fh:
                    yield path, fh.read()


def _module_name(path):
    """The dotted name of the physproj source file ``path``; a package's ``__init__.py`` names the package."""
    name = os.path.splitext(os.path.relpath(path, SRC))[0].replace(os.sep, ".")
    return name.removesuffix(".__init__")


@pytest.mark.parametrize("module", sorted(_module_name(path) for path, _ in _modules()))
def test_module_imports_first_in_a_fresh_interpreter(module):
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run([sys.executable, "-c", f"import {module}"], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_no_function_level_physproj_import():
    found = []
    for path, source in _modules():
        tree = ast.parse(source, path)
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


def test_no_unused_import():
    """A module other than a package's __init__ references every name it imports; `# noqa: F401` exempts a line."""
    found = []
    for path, source in _modules():
        if os.path.basename(path) == "__init__.py":
            continue
        tree = ast.parse(source, path)
        lines = source.splitlines()
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                continue
            found.extend(f"{os.path.relpath(path, SRC)}:{node.lineno} {name}" for name in names if name not in used)
    assert not found, found
