import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import wishart_esf

# importing __main__ runs the command line
MODULES = ["wishart_esf"] + [
    f"wishart_esf.{info.name}"
    for info in pkgutil.iter_modules(wishart_esf.__path__)
    if info.name != "__main__"
]

# Defined in the package and named nowhere in it, each for a reason of its own.
CALLED_FROM_OUTSIDE = {
    # argparse calls it on a usage problem
    "cli._Parser.error",
    # wrapped by name by the benchmark tracer (perfbench/tracing.py); no route calls them
    "linalg.inverse",
    "linalg.principal_minor_sum",
    "linalg.rational_eigenvalues",
    "linalg.singular_values",
    "linalg.sym_inv_sqrt",
}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_no_definition_only_tests_use():
    # a function or method that no code of the package names, and that the
    # package does not export, is surface that only tests keep alive
    package = Path(wishart_esf.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in package.glob("*.py")}
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    unnamed = set()
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, functions):
                defs = [(node.name, f"{module}.{node.name}")]
            elif isinstance(node, ast.ClassDef):
                methods = [f for f in node.body if isinstance(f, functions)]
                defs = [(f.name, f"{module}.{node.name}.{f.name}") for f in methods]
            else:
                continue
            for name, label in defs:
                # dunder methods are called by the interpreter's protocols
                if not name.startswith("__") and name not in named and name not in wishart_esf.__all__:
                    unnamed.add(label)
    assert sorted(unnamed - CALLED_FROM_OUTSIDE) == []
    # an entry whose reason is gone leaves the list
    assert sorted(CALLED_FROM_OUTSIDE - unnamed) == []
