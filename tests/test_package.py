"""The package's export list and its build script."""

import os
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
