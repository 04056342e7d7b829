"""RPL06x — config discipline: every knob defaults to off / legacy.

The seed comparison baseline (and every A/B experiment since PR 1)
assumes ``AlvisConfig()`` reproduces the paper's cold query path:
feature knobs off, costs-free legacy models, the paper's Section 4
parameter values.  A default silently flipped in a feature PR changes
every benchmark at once and invalidates the committed baselines, so the
defaults are pinned here.  Changing a default is allowed — but it must
be changed *in both places*, which makes it a visible, reviewable event
(RPL060).  New knobs must be added to the pinned table (RPL061), and
removed knobs must leave it (RPL062).
"""

from __future__ import annotations

import ast
from typing import Any, Dict, Iterator

from repro.lint.findings import Finding
from repro.lint.source import Project, SourceFile

NAME = "config-discipline"

CONFIG_PATH = "core/config.py"
CONFIG_CLASS = "AlvisConfig"

#: knob -> pinned default.  Feature switches are pinned off; numeric
#: parameters are pinned to the paper's values (Section 4 / the HDK and
#: QDI companion papers) or to the seed's legacy behaviour.
PINNED_DEFAULTS: Dict[str, Any] = {
    # posting-list truncation / HDK / QDI parameters (paper values)
    "truncation_k": 20,
    "df_max": 40,
    "s_max": 3,
    "proximity_window": 12,
    "max_expansions_per_key": 20,
    "expansion_min_df": 2,
    "qdi_activation_threshold": 3,
    "qdi_decay": 0.5,
    "qdi_eviction_threshold": 0.25,
    "qdi_maintenance_interval": 50,
    "qdi_harvest_fanout": 16,
    # retrieval
    "result_k": 10,
    "prune_on_truncated": True,
    "refine_with_local_engines": False,
    "refine_pool_factor": 3,
    # query-engine feature switches (off = seed-comparable traces)
    "cache_lookups": False,
    "lookup_cache_size": 4096,
    "cache_bytes": 0,
    "cache_ttl": 0,
    # the one switch pinned on: frontier-batched wire format (off = the
    # paper's per-probe traffic, which E1-E13 pin explicitly)
    "batch_lookups": True,
    "topk_early_stop": False,
    # query-engine dispatch (off = one flush per instant, no pipelining)
    "dispatch_window": 0.0,
    "pipeline_levels": False,
    "request_timeout": 0.0,
    # congestion control (off = unthrottled runtime, E8 baseline)
    "congestion_control": False,
    "congestion_initial_window": 4.0,
    "congestion_max_window": 64.0,
    "congestion_max_retransmits": 20,
    "congestion_retransmit_timeout": 0.25,
    # service-queue model (0 = infinite capacity, the legacy transport)
    "service_rate": 0.0,
    "queue_capacity": 64,
    "service_reject_cost": 0.5,
}


def check(project: Project) -> Iterator[Finding]:
    source = project.find(CONFIG_PATH)
    if source is None:
        return
    config = _find_class(source)
    if config is None:
        return
    declared = _declared_defaults(config)
    for name, (default, node) in declared.items():
        if name not in PINNED_DEFAULTS:
            yield Finding(
                path=source.rel, line=node.lineno, col=node.col_offset,
                code="RPL061", symbol=name,
                message=(f"config knob {name!r} is not in the pinned "
                         f"defaults table (repro.lint.checkers."
                         f"config_defaults.PINNED_DEFAULTS) — declare "
                         f"its off/legacy default there"))
        elif not _defaults_equal(default, PINNED_DEFAULTS[name]):
            yield Finding(
                path=source.rel, line=node.lineno, col=node.col_offset,
                code="RPL060", symbol=name,
                message=(f"config knob {name!r} defaults to {default!r} "
                         f"but is pinned to {PINNED_DEFAULTS[name]!r} — "
                         f"a changed default silently changes every "
                         f"benchmark; update the pinned table in the "
                         f"same change if this is intentional"))
    for name in sorted(set(PINNED_DEFAULTS) - set(declared)):
        yield Finding(
            path=source.rel, line=config.lineno, col=config.col_offset,
            code="RPL062", symbol=name,
            message=(f"pinned knob {name!r} no longer exists on "
                     f"{CONFIG_CLASS} — drop it from the pinned table"))


def _find_class(source: SourceFile):
    for node in source.tree.body:
        if isinstance(node, ast.ClassDef) and node.name == CONFIG_CLASS:
            return node
    return None


def _declared_defaults(config: ast.ClassDef):
    declared = {}
    for child in config.body:
        if isinstance(child, ast.AnnAssign) \
                and isinstance(child.target, ast.Name) \
                and child.value is not None:
            try:
                default = ast.literal_eval(child.value)
            except ValueError:
                continue  # non-literal default (factory etc.)
            declared[child.target.id] = (default, child)
    return declared


def _defaults_equal(declared: Any, pinned: Any) -> bool:
    # bool is an int subclass; don't let True == 1 mask a type change.
    if isinstance(declared, bool) != isinstance(pinned, bool):
        return False
    return declared == pinned and type(declared) is type(pinned)
