import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys

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


def _loaded_after_importing_the_package(names):
    """Which of ``names`` a fresh interpreter has in ``sys.modules`` after
    ``import gossip_sim, gossip_sim.cli``."""
    code = (
        "import sys, gossip_sim, gossip_sim.cli; "
        f"print(sorted(set(sys.modules) & {set(names)!r}))"
    )
    src = os.path.dirname(os.path.dirname(gossip_sim.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_importing_the_package_loads_neither_numpy_nor_scipy():
    """NumPy alone adds about 14 MB of resident memory to a run; only the
    functions that need SciPy import it, when they are called."""
    assert _loaded_after_importing_the_package(["numpy", "scipy"]) == "[]"


def test_importing_the_package_loads_no_process_pool():
    """``run_sweep`` imports its process pool only when it starts one, so a
    serial run does not pay for ``multiprocessing`` and its imports."""
    names = ["multiprocessing", "concurrent.futures.process"]
    assert _loaded_after_importing_the_package(names) == "[]"
