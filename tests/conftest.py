import importlib.util
import shutil
import subprocess
import sysconfig
from pathlib import Path

import pytest
from hypothesis import settings

from turantools import _core_py

# Property tests draw the same examples on every run, with no time limit
# per example: a failure is reproducible and never a slow machine's.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")

CORE_C = Path(_core_py.__file__).with_name("_core.c")


@pytest.fixture
def announce(capsys):
    """Print a line straight to the terminal, bypassing capture.

    The acceptance tests use this for their one pass/fail line per
    criterion.
    """

    def emit(text):
        with capsys.disabled():
            print(text)

    return emit


@pytest.fixture
def pool_starts(monkeypatch):
    """Run enumeration pools in-process on a 3-CPU machine whose three
    CPUs this process may all run on; the list records the worker count
    of every pool started."""
    from turantools import enumeration

    started = []

    class InProcessPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

        def shutdown(self):
            pass

    monkeypatch.setattr(enumeration, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 3)
    monkeypatch.setattr(enumeration.os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    return started


@pytest.fixture(params=["python", "c"])
def backend(request):
    """Each kernel twin in turn: the pure one, then the compiled ``core``."""
    return _core_py if request.param == "python" else request.getfixturevalue("core")


def _linker():
    """The command that links a shared object; skips without a C compiler."""
    link = (sysconfig.get_config_var("LDSHARED") or "cc -shared").split()
    if shutil.which(link[0]) is None:
        pytest.skip(f"no C compiler ({link[0]})")
    return [*link, *(sysconfig.get_config_var("CCSHARED") or "-fPIC").split()]


def _build_core(directory, *flags):
    """Compile _core.c with ``flags`` and the warnings as errors into
    ``directory``; returns the .so path."""
    so = directory / ("_core" + sysconfig.get_config_var("EXT_SUFFIX"))
    # -Werror: a warning in _core.c fails the parity tests, not just the log
    cmd = [*_linker(), *flags, "-Wall", "-Wextra", "-Wno-unused-parameter",
           "-Wshadow", "-Wcast-qual", "-Wvla", "-Wformat=2", "-Werror",
           "-I", sysconfig.get_paths()["include"], str(CORE_C), "-o", str(so)]
    build = subprocess.run(cmd, capture_output=True, text=True)
    assert build.returncode == 0, build.stderr
    return so


@pytest.fixture(scope="session")
def core(tmp_path_factory):
    """turantools._core compiled from source, not entered in sys.modules."""
    so = _build_core(tmp_path_factory.mktemp("core"), "-O3")
    spec = importlib.util.spec_from_file_location("turantools._core", so)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


UBSAN = ("-O1", "-g", "-fsanitize=undefined", "-fno-sanitize-recover=undefined")


@pytest.fixture(scope="session")
def core_ubsan(tmp_path_factory):
    """Path of _core.c built under UBSan, which aborts on the first report,
    so callers load it in a child process.  Skips when the compiler
    cannot link -fsanitize=undefined."""
    directory = tmp_path_factory.mktemp("core_ubsan")
    probe = directory / "probe.c"
    probe.write_text("int probe(void) { return 0; }\n")
    if subprocess.run([*_linker(), *UBSAN, str(probe), "-o", str(directory / "probe.so")],
                      capture_output=True).returncode:
        pytest.skip("the C compiler cannot link -fsanitize=undefined")
    return _build_core(directory, *UBSAN)
