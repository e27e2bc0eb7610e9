"""Byte-for-byte parity between the compiled and pure-Python kernels.

The compiled twin is built from ``_core.c`` once per session into a
temporary directory, so these tests run wherever a C compiler exists,
whether or not the installed package carries the extension.
"""

import importlib.util
import random
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from turantools import _core_py
from turantools.graphs import complete_graph, empty_graph, turan_graph

from oracles import random_graph

CORE_C = Path(_core_py.__file__).with_name("_core.c")

# Label K_n with a compiled module loaded from argv[1]; prints the form
# in hex, then the order.
LABEL_COMPLETE = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("turantools._core", sys.argv[1])
core = importlib.util.module_from_spec(spec)
spec.loader.exec_module(core)
n = int(sys.argv[2])
form, order = core.canonical_labeling(n, tuple(((1 << n) - 1) ^ (1 << v) for v in range(n)))
print(form.hex(), *order)
"""


@pytest.fixture(scope="session")
def core(tmp_path_factory):
    """turantools._core compiled from source, not entered in sys.modules."""
    link = (sysconfig.get_config_var("LDSHARED") or "cc -shared").split()
    if shutil.which(link[0]) is None:
        pytest.skip(f"no C compiler ({link[0]})")
    so = tmp_path_factory.mktemp("core") / ("_core" + sysconfig.get_config_var("EXT_SUFFIX"))
    cmd = [*link, *(sysconfig.get_config_var("CCSHARED") or "-fPIC").split(), "-O3",
           "-I", sysconfig.get_paths()["include"], str(CORE_C), "-o", str(so)]
    build = subprocess.run(cmd, capture_output=True, text=True)
    assert build.returncode == 0, build.stderr
    spec = importlib.util.spec_from_file_location("turantools._core", so)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(params=["python", "c"])
def backend(request):
    return _core_py if request.param == "python" else request.getfixturevalue("core")


def test_backend_names(core):
    assert _core_py.BACKEND == "python"
    assert core.BACKEND == "c"
    assert sys.modules.get("turantools._core") is not core


def test_canonical_parity_random(core):
    rng = random.Random(1234)
    for _ in range(300):
        n = rng.randint(0, 9)
        g = random_graph(rng, n, p=rng.choice([0.2, 0.5, 0.8]))
        bc, oc = core.canonical_labeling(n, g.adj)
        bp, op = _core_py.canonical_labeling(n, g.adj)
        assert bc == bp
        assert sorted(oc) == sorted(op) == list(range(n))


def test_canonical_parity_symmetric_families(core):
    for g in [
        complete_graph(9),
        empty_graph(9),
        turan_graph(10, 2),
        turan_graph(10, 5),
        turan_graph(9, 3),
    ]:
        assert core.canonical_bytes(g.n, g.adj) == _core_py.canonical_bytes(g.n, g.adj)


def test_containment_parity(core):
    rng = random.Random(99)
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 9))
        f = random_graph(rng, rng.randint(1, 6))
        assert core.contains_subgraph(
            g.n, g.adj, f.n, f.adj
        ) == _core_py.contains_subgraph(g.n, g.adj, f.n, f.adj)
        anchor = rng.randrange(g.n)
        assert core.contains_subgraph_anchored(
            g.n, g.adj, f.n, f.adj, anchor
        ) == _core_py.contains_subgraph_anchored(g.n, g.adj, f.n, f.adj, anchor)


def test_augment_parity(core):
    rng = random.Random(5)
    k3 = complete_graph(3)
    for _ in range(80):
        n = rng.randint(1, 6)
        g = random_graph(rng, n)
        canon = core.canonical_bytes(n, g.adj)
        assert core.augment_children(n, g.adj, canon, 0, ()) == _core_py.augment_children(
            n, g.adj, canon, 0, ()
        )
        assert core.augment_children(
            n, g.adj, canon, k3.n, k3.adj
        ) == _core_py.augment_children(n, g.adj, canon, k3.n, k3.adj)


@pytest.mark.parametrize("n", [24, 40])
def test_complete_graph_labels_in_bounded_time(core, n):
    # K_n has n(n-1)/2 automorphism generators; a search that stops
    # storing them stops pruning and runs for minutes.  A C loop cannot
    # be interrupted in-process, hence the subprocess and its timeout.
    proc = subprocess.run([sys.executable, "-c", LABEL_COMPLETE, core.__file__, str(n)],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    form_hex, *order = proc.stdout.split()
    pairs = n * (n - 1) // 2
    nbytes = (pairs + 7) // 8
    form = bytes.fromhex(form_hex)
    assert form == (((1 << pairs) - 1) << (8 * nbytes - pairs)).to_bytes(nbytes, "big")
    if n == 24:
        k24 = complete_graph(24)
        assert (form, tuple(map(int, order))) == _core_py.canonical_labeling(24, k24.adj)


def test_labeling_reconstructs_graph(backend):
    # the packed triangle under the returned order must reproduce the form
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(2, 8)
        g = random_graph(rng, n)
        form, order = backend.canonical_labeling(n, g.adj)
        perm = [0] * n
        for pos, v in enumerate(order):
            perm[v] = pos
        relabeled = g.relabel(perm)
        assert backend.canonical_bytes(n, relabeled.adj) == form
        # and the canonical graph packs exactly to the form
        bits = []
        for j in range(1, n):
            for i in range(j):
                bits.append(relabeled.has_edge(i, j))
        packed = bytearray((len(bits) + 7) // 8)
        for t, b in enumerate(bits):
            if b:
                packed[t >> 3] |= 0x80 >> (t & 7)
        assert bytes(packed) == form


def test_size_guard(backend):
    with pytest.raises(ValueError):
        backend.augment_children(64, tuple([0] * 64), b"", 0, ())


def test_short_adjacency_raises(backend):
    with pytest.raises(IndexError):
        backend.canonical_labeling(3, (0, 0))
