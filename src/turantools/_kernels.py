"""Select the bit-kernel backend at import time.

The compiled extension ``turantools._core`` (built from ``_core.c``)
is preferred; the pure-Python twin ``turantools._core_py`` is used when
the extension is missing.
"""

from __future__ import annotations

try:
    from . import _core as _impl  # type: ignore[attr-defined]
except ImportError:
    from . import _core_py as _impl

BACKEND: str = _impl.BACKEND

canonical_labeling = _impl.canonical_labeling
canonical_bytes = _impl.canonical_bytes
contains_subgraph_anchored = _impl.contains_subgraph_anchored
augment_children = _impl.augment_children
