"""RPL06x config-discipline checker: defaults stay pinned."""

from __future__ import annotations

import dataclasses

from repro.core.config import AlvisConfig
from repro.lint.checkers import config_defaults


def run(project):
    return list(config_defaults.check(project))


def by_code(findings, code):
    return [f for f in findings if f.code == code]


def test_pinned_table_matches_live_config():
    # The authoritative assertion: the pinned table IS the dataclass's
    # default surface, field for field, value for value.
    declared = {f.name: f.default
                for f in dataclasses.fields(AlvisConfig)
                if f.default is not dataclasses.MISSING}
    assert declared == config_defaults.PINNED_DEFAULTS


def test_flipped_default_is_rpl060(lint_project):
    project = lint_project({"core/config.py": """\
        class AlvisConfig:
            topk_early_stop: bool = True
        """})
    flipped = by_code(run(project), "RPL060")
    assert [f.symbol for f in flipped] == ["topk_early_stop"]


def test_bool_int_confusion_is_rpl060(lint_project):
    # cache_bytes is pinned to 0; `False` satisfies == but changes the
    # declared type — still a drift.
    project = lint_project({"core/config.py": """\
        class AlvisConfig:
            cache_bytes: bool = False
        """})
    assert [f.symbol for f in by_code(run(project), "RPL060")] == \
        ["cache_bytes"]


def test_unpinned_knob_is_rpl061(lint_project):
    project = lint_project({"core/config.py": """\
        class AlvisConfig:
            brand_new_knob: int = 7
        """})
    assert [f.symbol for f in by_code(run(project), "RPL061")] == \
        ["brand_new_knob"]


def test_removed_knob_is_rpl062(lint_project):
    project = lint_project({"core/config.py": """\
        class AlvisConfig:
            truncation_k: int = 20
        """})
    removed = {f.symbol for f in by_code(run(project), "RPL062")}
    assert "truncation_k" not in removed
    assert removed == set(config_defaults.PINNED_DEFAULTS) - \
        {"truncation_k"}


def test_matching_defaults_are_clean(lint_project):
    knobs = "\n".join(
        f"    {name}: {type(value).__name__} = {value!r}"
        for name, value in config_defaults.PINNED_DEFAULTS.items())
    project = lint_project({
        "core/config.py": "class AlvisConfig:\n" + knobs + "\n"})
    assert run(project) == []


def test_non_literal_defaults_are_skipped(lint_project):
    project = lint_project({"core/config.py": """\
        import dataclasses

        class AlvisConfig:
            truncation_k: int = 20
            derived: list = dataclasses.field(default_factory=list)
        """})
    assert by_code(run(project), "RPL061") == []


def test_projects_without_the_config_are_skipped(lint_project):
    project = lint_project({"core/x.py": "VALUE = 1\n"})
    assert run(project) == []
