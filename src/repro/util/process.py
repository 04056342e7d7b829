"""Process-level resource accounting for benchmarks and monitoring.

The scale-out benchmarks (E13, E14, the 100k-peer sweep) report peak
resident set size next to their throughput numbers; this module holds
the one portable-enough way to read it.
"""

from __future__ import annotations

import sys

__all__ = ["peak_rss_kb"]


def peak_rss_kb() -> int:
    """Peak resident set size of this process, in kilobytes.

    ``ru_maxrss`` is kilobytes on Linux but *bytes* on macOS; normalize
    to KB.  Returns 0 on platforms without :mod:`resource` (Windows),
    so callers can stamp it unconditionally.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - Windows
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - macOS only
        peak //= 1024
    return int(peak)
