"""The package's export list."""

import turantools


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from turantools import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(turantools.__all__)


def test_all_is_sorted():
    assert turantools.__all__ == sorted(turantools.__all__)
