import importlib
import pkgutil

import pytest

import wishart_esf

# importing __main__ runs the command line
MODULES = ["wishart_esf"] + [
    f"wishart_esf.{info.name}"
    for info in pkgutil.iter_modules(wishart_esf.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
