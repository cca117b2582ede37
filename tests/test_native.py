"""The loader of the compiled kernel rounds: it builds the extension once,
into the package's ``__pycache__``, and where it cannot build the package
imports all the same and runs its Python kernels."""

import os
import random
import shutil
import subprocess
import sys
from importlib.machinery import EXTENSION_SUFFIXES

import pytest

import gossip_sim
from gossip_sim import _native, process
from test_kernel_stream import PINNED_ROUNDS

PACKAGE = os.path.dirname(gossip_sim.__file__)
SOURCE = os.path.join(PACKAGE, "_kernel.c")


def _python(code, *args, cwd=None):
    """Start a fresh interpreter on ``code`` with the package's own
    ``src`` first on its path, or ``cwd`` where it holds a copy."""
    path = os.pathsep.join(filter(None, [cwd or os.path.dirname(PACKAGE), os.environ.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-c", code, *args], cwd=cwd, env=dict(os.environ, PYTHONPATH=path),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def _no_compiler_started(monkeypatch):
    def run(*args, **kwargs):
        raise AssertionError("a compiler was started")

    monkeypatch.setattr(subprocess, "run", run)


def test_no_compiler_builds_nothing(tmp_path, monkeypatch):
    src = shutil.copy(SOURCE, tmp_path)
    _no_compiler_started(monkeypatch)
    monkeypatch.setattr(shutil, "which", lambda name: None)
    assert _native._load(src) is None
    assert os.listdir(tmp_path / "__pycache__") == []


def test_an_unwritable_cache_builds_nothing(tmp_path, monkeypatch):
    # a file where the cache directory would be: no user may write into it
    src = shutil.copy(SOURCE, tmp_path)
    (tmp_path / "__pycache__").write_text("")
    _no_compiler_started(monkeypatch)
    assert _native._load(src) is None


PINNED = [pin for pin in PINNED_ROUNDS if pin[1] <= 64]


def test_the_package_runs_its_kernels_where_it_cannot_build(tmp_path):
    # a copy of the package whose cache directory cannot be made
    copy = tmp_path / "gossip_sim"
    shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    (copy / "__pycache__").write_text("")
    code = (
        "import sys\n"
        "from gossip_sim import process\n"
        "from gossip_sim.generators import generate\n"
        "from gossip_sim.process import ProcessConfig, ProcessKind, run_to_convergence, trial_seed\n"
        "assert process.__file__.startswith(sys.argv[1]) and process._compiled is None\n"
        "assert 'subprocess' not in sys.modules\n"
        f"for family, n, kind, _ in {PINNED!r}:\n"
        "    print([run_to_convergence(generate(family, n), ProcessConfig(ProcessKind(kind), trial_seed(1, i)))[0]\n"
        "           for i in range(3)])\n"
    )
    run = _python(code, str(tmp_path), cwd=str(tmp_path))
    out, err = run.communicate(timeout=120)
    assert run.returncode == 0, err
    assert out.splitlines() == [str(expected) for *_, expected in PINNED]


@pytest.mark.skipif(process._compiled is None, reason="the compiled kernel is not built")
def test_interpreters_building_at_once_each_load_a_whole_module(tmp_path):
    src = shutil.copy(SOURCE, tmp_path)
    code = (
        "import random, sys\n"
        "from gossip_sim import _native, process\n"
        "from gossip_sim.generators import generate\n"
        "kernel = _native._load(sys.argv[1])\n"
        "assert kernel is not None and kernel.__file__ != process._compiled.__file__\n"
        "g = generate('cycle', 64)\n"
        "print(kernel.rounds(g, random.Random(1), True, False, 10**7, 0.0, 2016))\n"
    )
    runs = [_python(code, src) for _ in range(2)]
    outs = [run.communicate(timeout=300) for run in runs]
    assert [run.returncode for run in runs] == [0, 0], [err for _, err in outs]
    g = gossip_sim.generate("cycle", 64)
    expected = process._compiled.rounds(g, random.Random(1), True, False, 10**7, 0.0, 2016)
    assert [out.strip() for out, _ in outs] == [str(expected)] * 2
    # one build, and no temporary file left behind
    assert len(os.listdir(tmp_path / "__pycache__")) == 1


@pytest.mark.skipif(process._compiled is None, reason="the compiled kernel is not built")
def test_a_build_removes_the_builds_of_earlier_sources(tmp_path):
    # an earlier source's build for this interpreter goes; another
    # interpreter's build and a temporary file another interpreter may be
    # writing stay
    src = shutil.copy(SOURCE, tmp_path)
    cache = tmp_path / "__pycache__"
    cache.mkdir()
    stale = cache / f"_kernel.1-2{EXTENSION_SUFFIXES[0]}"
    other = cache / "_kernel.1-2.cpython-399-other.so"
    writing = cache / f"_kernel.1-2{EXTENSION_SUFFIXES[0]}.99.tmp"
    for path in (stale, other, writing):
        path.write_bytes(b"")
    kernel = _native._load(src)
    assert kernel is not None
    assert sorted(os.listdir(cache)) == sorted([os.path.basename(kernel.__file__), other.name, writing.name])
