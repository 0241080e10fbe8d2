import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import wishart_esf

# importing __main__ runs the command line
MODULES = ["wishart_esf"] + [
    f"wishart_esf.{info.name}"
    for info in pkgutil.iter_modules(wishart_esf.__path__)
    if info.name != "__main__"
]

# wrapped by name by the benchmark tracer (perfbench/tracing.py); no route calls them
WRAPPED_BY_TRACER = {
    "linalg.inverse",
    "linalg.principal_minor_sum",
    "linalg.rational_eigenvalues",
    "linalg.singular_values",
    "linalg.sym_inv_sqrt",
}

# Defined in the package and named nowhere in it, each for a reason of its own.
CALLED_FROM_OUTSIDE = {
    # argparse calls it on a usage problem
    "cli._Parser.error",
    *WRAPPED_BY_TRACER,
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


@pytest.mark.parametrize("entry", ["wishart_esf", "wishart_esf.cli"])
def test_benchmark_tracer_installs_after_importing_one_entry(entry):
    # perfbench/tracing.py reads each module it wraps from sys.modules, so
    # importing the package or its command line alone must load them all
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join([str(root / "src"), str(root / "perfbench")])
    code = f"import {entry}, tracing\ntracer = tracing.Tracer()\ntracer.install()\ntracer.uninstall()"
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr


def test_entries_kept_for_the_tracer_are_wrapped_by_it():
    # an entry the tracer no longer wraps has no caller left: delete it
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join([str(root / "src"), str(root / "perfbench")])
    code = (
        "import wishart_esf, tracing\n"
        "tracer = tracing.Tracer()\n"
        "tracer.install()\n"
        "for owner, attr, _ in tracer._restore:\n"
        "    name = getattr(owner, '__qualname__', None)\n"
        "    print(owner.__name__ if name is None else f'{owner.__module__}.{name}', attr)\n"
        "tracer.uninstall()"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    wrapped = {
        f"{owner.removeprefix('wishart_esf.')}.{attr}"
        for owner, attr in (line.split() for line in result.stdout.splitlines())
    }
    assert sorted(WRAPPED_BY_TRACER - wrapped) == []


def test_cli_import_leaves_out_dataclasses():
    # dataclasses (and the inspect module it loads) cost every command's
    # start-up; only the self-test battery, imported when it runs, uses them
    root = Path(__file__).resolve().parents[1]
    code = "import sys, wishart_esf.cli\nprint(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
