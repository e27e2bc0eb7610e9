"""Build script: compiles the optional bit-kernel extension.

The package is fully functional without the extension (a pure-Python
twin is selected at import time), so any failure here downgrades to a
warning instead of aborting the install.
"""

import sys

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class optional_build_ext(build_ext):
    def run(self):
        try:
            super().run()
        except Exception as exc:  # missing compiler, etc.
            self._warn(exc)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            self._warn(exc)

    @staticmethod
    def _warn(exc):
        print(
            "WARNING: building turantools._core failed (%s); "
            "falling back to the pure-Python kernels" % exc,
            file=sys.stderr,
        )


setup(
    ext_modules=[
        Extension(
            "turantools._core",
            sources=["src/turantools/_core.c"],
            extra_compile_args=["-O3"],
        )
    ],
    cmdclass={"build_ext": optional_build_ext},
)
