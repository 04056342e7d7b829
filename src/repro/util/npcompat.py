"""Optional numpy acceleration, with an environment kill-switch.

The repo must run (and produce byte-identical results) without numpy:
the vectorized owner-side BM25 path is an *acceleration* of the scalar
reference implementation, never a behavioural fork.  Import ``np`` from
here instead of importing numpy directly:

* ``np`` is the numpy module when it is importable, else ``None``;
* setting ``REPRO_PURE_PYTHON=1`` forces ``np = None`` even when numpy
  is installed — how CI exercises the pure-Python fallback.

Callers must keep a scalar fallback behind ``if np is None``.
"""

from __future__ import annotations

import os

__all__ = ["np", "HAVE_NUMPY"]

np = None
if os.environ.get("REPRO_PURE_PYTHON", "").lower() not in ("1", "true",
                                                           "yes"):
    try:  # pragma: no cover - exercised via the no-numpy CI leg
        import numpy as np  # type: ignore[no-redef]
    except ImportError:
        np = None

HAVE_NUMPY = np is not None
