"""The package's export list, its import cost and its build script."""

import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import turantools

ROOT = Path(__file__).resolve().parent.parent


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from turantools import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(turantools.__all__)


def test_all_is_sorted():
    assert turantools.__all__ == sorted(turantools.__all__)


# Runs in a fresh interpreter, since this one has numpy loaded already.
_NUMPY_PROBE = """
import sys
import turantools
from turantools import cli

assert "numpy" not in sys.modules, "import turantools"
for argv, code in [
    (["gen", "--n", "5"], 0),
    (["gen", "--n", "6", "--forbid", "K3", "--jobs", "2"], 0),
    (["turan", "--n", "7", "--r", "3"], 0),
    (["secular", "--parts", "3,2,2"], 0),
    (["gen", "--n", "5", "--forbid", "g6:!!"], 3),
    (["spectral", "--g6", "D~{", "--tol", "nan"], 2),
]:
    assert cli.main(argv) == code, argv
    assert "numpy" not in sys.modules, argv
assert cli.main(["spectral", "--g6", "D~{"]) == 0
assert "numpy" in sys.modules, "spectral"
"""


def test_numpy_loads_only_for_spectral_work():
    # the last step loads numpy, so the probe cannot pass without running
    proc = subprocess.run([sys.executable, "-c", _NUMPY_PROBE], cwd=ROOT,
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr


_HINTS_PROBE = """
import importlib
import inspect
import pkgutil
import sys
import typing

import turantools

checked, failures = 0, []
for info in pkgutil.iter_modules(turantools.__path__):
    if info.name == "__main__":  # importing it runs the CLI
        continue
    module = importlib.import_module(f"turantools.{info.name}")
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        funcs = [(name, obj)] if inspect.isfunction(obj) else []
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                # methods, static and class methods, property getters
                member = getattr(member, "__func__", getattr(member, "fget", member))
                if inspect.isfunction(member):
                    funcs.append((f"{name}.{attr}", member))
        for qualname, func in funcs:
            checked += 1
            try:
                typing.get_type_hints(func)
            except Exception as exc:
                failures.append(f"{module.__name__}.{qualname}: {exc!r}")
assert not failures, failures
assert "numpy" not in sys.modules, "resolving annotations"
print(checked)
"""


def test_every_annotation_resolves_without_numpy():
    # numpy is imported on first use, so no signature may name it
    proc = subprocess.run([sys.executable, "-c", _HINTS_PROBE], cwd=ROOT,
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 100  # functions and methods checked


def _copy_tree(tmp_path):
    """Copy what the build script reads into ``tmp_path``, without builds."""
    pytest.importorskip("setuptools")
    for name in ("setup.py", "pyproject.toml", "README.md"):
        shutil.copy(ROOT / name, tmp_path)
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("*.so", "__pycache__"))


def test_build_without_compiler_warns_and_succeeds(tmp_path):
    # the extension is optional: the pure twin serves when it cannot build
    _copy_tree(tmp_path)
    proc = subprocess.run([sys.executable, "setup.py", "build_ext", "--inplace"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120,
                          env={**os.environ, "CC": "/nonexistent/cc"})
    assert proc.returncode == 0, proc.stderr
    assert 'building extension "turantools._core" failed' in proc.stdout + proc.stderr
    assert not list(tmp_path.rglob("_core*.so"))


def test_distribution_version_is_the_package_version(tmp_path):
    # pyproject.toml reads the version from turantools.__version__
    _copy_tree(tmp_path)
    proc = subprocess.run([sys.executable, "setup.py", "--version"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == turantools.__version__


def _readme_commands():
    """The ``turantools ...`` lines of README's "Command line" block, split
    as the shell would; every other line of the block is blank or a comment."""
    section = (ROOT / "README.md").read_text().split("## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line and not line.startswith("#")]
    assert all(line.startswith("turantools ") for line in lines), lines
    return [shlex.split(line)[1:] for line in lines]


def test_readme_command_lines_run(tmp_path):
    # each example runs as printed, from an empty directory, and exits 0
    commands = _readme_commands()
    assert commands
    for argv in commands:
        proc = subprocess.run([sys.executable, "-m", "turantools", *argv], cwd=tmp_path,
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
        assert proc.returncode == 0, (argv, proc.stderr)
