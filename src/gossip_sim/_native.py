"""The compiled kernel rounds of ``_kernel.c``, or None.

The package builds the extension by the system C compiler the first time
it is imported without a current build, into its ``__pycache__``: written
under a temporary name and moved into place, so that interpreters building
at once each load a whole file.  A build is keyed by the source's size
and mtime and the interpreter's extension suffix, so that a warm import
costs one ``stat`` and one extension load; a new build removes the builds
of earlier sources for the same suffix.  Where the directory cannot be
written or no compiler is found, nothing is built and ``kernel`` is None:
``process`` then runs its Python kernels alone.
"""

from __future__ import annotations

import os
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, ModuleSpec

__all__: list[str] = []


def _load(src: str):
    """The extension built from ``src``, built first where its build is not
    current, or None."""
    try:
        st = os.stat(src)
    except OSError:
        return None
    out = os.path.join(
        os.path.dirname(src), "__pycache__",
        f"_kernel.{st.st_size}-{st.st_mtime_ns}{EXTENSION_SUFFIXES[0]}",
    )
    loader = ExtensionFileLoader("gossip_sim._kernel", out)
    spec = ModuleSpec(loader.name, loader, origin=out)
    try:
        return loader.create_module(spec)
    except ImportError:  # not built yet
        if not _build(src, out):
            return None
    try:
        return loader.create_module(spec)
    except ImportError:
        return None


def _build(src: str, out: str) -> bool:
    """Compile ``src`` into the extension ``out``; False where the compiler
    fails, and False without starting it where ``out``'s directory cannot
    be written or no compiler is found."""
    cache = os.path.dirname(out)
    try:
        os.makedirs(cache, exist_ok=True)
    except OSError:
        return False
    if not os.access(cache, os.W_OK):
        return False
    import contextlib
    import glob
    import shutil
    import sysconfig

    cc = (sysconfig.get_config_var("LDSHARED") or "cc -shared").split()
    if shutil.which(cc[0]) is None:
        return False
    import subprocess

    tmp = f"{out}.{os.getpid()}.tmp"
    try:
        done = subprocess.run(
            [*cc, "-O2", "-fPIC", "-I", sysconfig.get_paths()["include"], src, "-lm", "-o", tmp],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=300,
        ).returncode == 0
        if done:
            os.replace(tmp, out)
            # earlier sources' builds for this suffix go; other suffixes' builds
            # and the temporary files other interpreters may be writing stay
            for old in glob.glob(os.path.join(glob.escape(cache), "_kernel.*" + EXTENSION_SUFFIXES[0])):
                if old != out:
                    with contextlib.suppress(OSError):
                        os.remove(old)
        return done
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


kernel = _load(os.path.join(os.path.dirname(__file__), "_kernel.c"))
