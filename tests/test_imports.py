"""The pipeline's module-level imports, read statically with ast.

Everything a pipeline module imports when it is loaded is on a short
allow-list.  The references (``.oracle``), ``fractions`` (the pipeline's
scalars are ints), ``dataclasses``, ``typing`` and ``inspect`` (the
records are plain slotted classes) and ``json`` (``to_json()`` writes
the report itself) stay out.  The row kernels (``weyl``) import no
module of the package, and the twist (``twist``) does not import them.
An import inside a function runs
only when it is called, so it is not counted; one in a class body runs at
load time, so it is.  No subprocess: the subprocess tests in
test_report.py check the modules a run really loads.
"""

import ast
from pathlib import Path

import pytest

import twistloop

PACKAGE = Path(twistloop.__file__).parent
PIPELINE = ("__init__", "__main__", "cli", "exact", "report", "rootsys", "twist", "weyl")
ALLOWED = {"__future__", "argparse", "collections.abc", "functools", "itertools", "math",
           "operator", "sys", ".cli", ".exact", ".report", ".rootsys", ".twist", ".weyl"}
FORBIDDEN = {"fractions", "dataclasses", "typing", "inspect", "json", ".oracle"}
# per module, the package modules it may import, where fewer than all
PACKAGE_IMPORTS = {"weyl": set(), "twist": {".exact", ".rootsys"}}


def load_time_imports(tree):
    """Names of the modules imported outside function bodies, relative ones
    with their leading dots."""
    found = []
    stack = [tree]
    while stack:
        node = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                found.extend(alias.name for alias in child.names)
            elif isinstance(child, ast.ImportFrom):
                dots = "." * child.level
                if child.module is None:  # from . import x
                    found.extend(dots + alias.name for alias in child.names)
                else:
                    found.append(dots + child.module)
            stack.append(child)
    return found


def test_the_walker_sees_load_time_imports_only():
    tree = ast.parse("import fractions\n"
                     "from . import oracle\n"
                     "if True:\n    from json import dumps\n"
                     "class A:\n    import typing\n"
                     "def f():\n    import inspect\n"
                     "g = lambda: __import__('dataclasses')\n")
    assert sorted(load_time_imports(tree)) == [".oracle", "fractions", "json", "typing"]
    assert not ALLOWED & FORBIDDEN


@pytest.mark.parametrize("name", PIPELINE)
def test_pipeline_module_imports_are_allowed(name):
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    imports = load_time_imports(tree)
    assert imports, name
    assert not set(imports) & FORBIDDEN, name
    assert set(imports) <= ALLOWED, (name, sorted(set(imports) - ALLOWED))
    if name in PACKAGE_IMPORTS:
        package = {i for i in imports if i.startswith(".")}
        assert package <= PACKAGE_IMPORTS[name], (name, sorted(package))
