"""repro-lint: AST-based invariant checkers for this repository.

The repo's load-bearing guarantees — deterministic seeded runs,
byte-identical sim/UDP backends, off-by-default knobs — are
otherwise enforced only by runtime equivalence tests, which catch
violations late and only on exercised paths.  This package turns those
invariants into machine-checked rules at review time:

=========  ==============================================================
checker    invariant
=========  ==============================================================
RPL01x     **determinism** — sim-reachable modules read no wall clocks,
           global/unseeded RNG streams or environment variables; all
           randomness flows through explicitly seeded
           :class:`random.Random` instances (``util/rng.py``).
RPL02x     **proc purity** — event-kernel generator procs never block
           (``time.sleep``, file/socket I/O) and only yield the types
           the kernel understands (numbers, ``None``, futures, procs).
RPL03x     **wire-schema sync** — ``net/wire.py``'s kind order and field
           tables, ``net/protocol.py``'s kind constants and
           ``core/peer.py``'s handler dispatch stay mutually consistent,
           so an unregistered kind or field drift is a lint error
           instead of a runtime ``WireError``.
RPL04x     **hot-path hygiene** — classes in designated hot modules
           carry ``__slots__``; no per-instance bound-method dispatch
           dicts anywhere.
RPL05x     **layering** — the import DAG (util -> sim -> ir -> net ->
           dht -> core -> corpus -> baselines/eval/cluster -> cli) has
           no upward edges.
RPL06x     **config discipline** — every ``core/config.py`` knob
           defaults to its reviewed off/legacy value, pinned by a
           declared table.
=========  ==============================================================

Each finding carries a stable ``RPLxxx`` code.  A finding can be
silenced inline with::

    something_flagged()  # repro-lint: disable=RPL010 (reason here)

(the reason is mandatory — a bare suppression is itself a finding,
RPL000 — and a suppression that silences nothing is RPL009), or
grandfathered in a committed baseline file (``lint_baseline.json``).

Run it as ``repro lint`` (see ``repro lint --list-codes``) or through
:func:`run_lint`.
"""

from repro.lint.findings import Finding, format_findings
from repro.lint.runner import run_lint
from repro.lint.baseline import (Baseline, compare_with_baseline,
                                 load_baseline, write_baseline)
from repro.lint.codes import CODES

__all__ = ["Finding", "format_findings", "run_lint", "Baseline",
           "compare_with_baseline", "load_baseline", "write_baseline",
           "CODES"]
