"""Build script: compiles the optional bit-kernel extension.

The package is fully functional without the extension (a pure-Python
twin is selected at import time), so a failed build is only a warning.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension("turantools._core", sources=["src/turantools/_core.c"],
                  extra_compile_args=["-O3"], optional=True)
    ],
)
