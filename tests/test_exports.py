import ast
import importlib
import inspect
import pkgutil

import gossip_sim


def test_every_export_exists():
    """Each module's ``__all__`` names only what the module defines, and each
    name the package re-exports is exported by the module it comes from."""
    for info in pkgutil.iter_modules(gossip_sim.__path__):
        module = importlib.import_module(f"gossip_sim.{info.name}")
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{info.name}.__all__ lists undefined {missing}"
    tree = ast.parse(inspect.getsource(gossip_sim))
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            module = importlib.import_module(f"gossip_sim.{node.module}")
            for alias in node.names:
                assert alias.name in module.__all__, f"{node.module}.{alias.name}"
                assert hasattr(gossip_sim, alias.name)
