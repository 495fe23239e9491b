"""The public names of the package stay in step with its modules."""

import ast
import importlib
import pkgutil
from pathlib import Path

import varopt


def test_public_names_stay_in_step():
    # Every module's __all__ star-imports: each name it lists exists.
    modules = [varopt] + [importlib.import_module(info.name)
                          for info in pkgutil.walk_packages(varopt.__path__, "varopt.")]
    for module in modules:
        if hasattr(module, "__all__"):
            exec(f"from {module.__name__} import *", {})
    # Every name a package __init__ re-exports is public in its home module.
    for package in (m for m in modules if Path(m.__file__).name == "__init__.py"):
        for node in ast.parse(Path(package.__file__).read_text()).body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                home = importlib.import_module(f"{package.__name__}.{node.module}")
                missing = [a.name for a in node.names if a.name not in home.__all__]
                assert not missing, f"{home.__name__}.__all__ lacks {missing}"
