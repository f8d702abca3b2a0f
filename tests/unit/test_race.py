"""Unit tests for the REPRO3xx concurrency rule under repro-check.

The rule gets a positive fixture (the violation fires) and negative
fixtures (the sanctioned idioms pass).  The sweep test at the bottom
encodes the acceptance criterion: the real source tree is clean under
every rule.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

from repro.checks.concurrency import CONCURRENCY_RULES, concurrency_rules
from repro.checks.engine import lint_paths
from repro.checks.runner import main as check_main
from tests.conftest import knob_env_offences

REPO_ROOT = Path(__file__).resolve().parents[2]


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def race_source(tmp_path: Path, source: str, rel: str = "repro/parallel/mod.py"):
    """Write ``source`` under ``tmp_path`` and run the REPRO3xx rules."""
    target = tmp_path / rel
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source))
    return lint_paths([target], concurrency_rules(), root=tmp_path)


def rules_of(findings):
    return sorted({f.rule for f in findings})


# ----------------------------------------------------------------------
# REPRO307: fork-inherited-state
# ----------------------------------------------------------------------
class TestForkInheritedState:
    def test_flags_runtime_mutated_global_without_hook(self, tmp_path):
        findings = race_source(
            tmp_path,
            """
            _CACHE = None

            def set_cache(value):
                global _CACHE
                _CACHE = value
            """,
        )
        assert "REPRO307" in rules_of(findings)

    def test_reset_named_hook_passes(self, tmp_path):
        findings = race_source(
            tmp_path,
            """
            _CACHE = None

            def set_cache(value):
                global _CACHE
                _CACHE = value

            def reset_cache():
                global _CACHE
                _CACHE = None
            """,
        )
        assert "REPRO307" not in rules_of(findings)

    def test_env_derived_state_passes(self, tmp_path):
        findings = race_source(
            tmp_path,
            """
            from repro import knobs

            _HARNESS = None

            def current_harness():
                global _HARNESS
                if not knobs.get_flag("REPRO_CHAOS"):
                    return None
                if _HARNESS is None:
                    _HARNESS = object()
                return _HARNESS
            """,
        )
        assert "REPRO307" not in rules_of(findings)

    def test_constant_table_is_not_state(self, tmp_path):
        findings = race_source(
            tmp_path,
            """
            TABLE = {"a": 1}

            def lookup(key):
                return TABLE[key]
            """,
        )
        assert "REPRO307" not in rules_of(findings)


# ----------------------------------------------------------------------
# Suppressions, registry metadata, CLI
# ----------------------------------------------------------------------
class TestSuppression:
    def test_allow_comment_silences_by_id_and_name(self, tmp_path):
        findings = race_source(
            tmp_path,
            """
            A = None  # repro: allow[REPRO307] set once, before any fork
            # repro: allow[fork-inherited-state] rebuilt by its readers
            B = None

            def remember(a, b):
                global A, B
                A = a
                B = b
            """,
        )
        assert findings == []


class TestRuleRegistry:
    def test_metadata_matches_instances(self):
        rules = concurrency_rules()
        assert [(r.rule_id, r.name, r.summary) for r in rules] == list(
            CONCURRENCY_RULES
        )
        ids = [r.rule_id for r in rules]
        assert ids == sorted(ids)
        assert all(rid.startswith("REPRO30") for rid in ids)


class TestRaceCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert check_main([str(tmp_path), "--root", str(tmp_path)]) == 0
        assert "repro-check: 0 finding(s)" in capsys.readouterr().out

    def test_finding_exits_one_and_json_is_stable(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "parallel" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("A = None\n\n\ndef remember(a):\n    global A\n    A = a\n")
        assert check_main([str(tmp_path), "--root", str(tmp_path)]) == 1
        capsys.readouterr()
        argv = [str(tmp_path), "--root", str(tmp_path), "--json"]
        assert check_main(argv) == 1
        first = capsys.readouterr().out
        assert check_main(argv) == 1
        assert capsys.readouterr().out == first
        payload = json.loads(first)
        assert payload["format"] == "repro-check/v1"
        assert payload["count"] == 1
        assert payload["findings"][0]["rule"] == "REPRO307"

    def test_list_rules(self, capsys):
        assert check_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "REPRO307" in out and "fork-inherited-state" in out


# ----------------------------------------------------------------------
# Knob registry: the knob drift scan over fixture sources
# ----------------------------------------------------------------------
def knob_source(source: str):
    return knob_env_offences(textwrap.dedent(source))


class TestKnobRegistry:
    def test_flags_undeclared_env_read(self):
        undeclared, reads = knob_source(
            """
            import os

            FLAG = os.environ.get("REPRO_UNDECLARED", "")
            """
        )
        assert undeclared == ["REPRO_UNDECLARED"]
        assert reads == [4]

    def test_flags_undeclared_getenv_and_subscript(self):
        undeclared, reads = knob_source(
            """
            import os

            A = os.getenv("REPRO_ALSO_MISSING")
            B = os.environ["REPRO_MISSING_TOO"]
            """
        )
        assert undeclared == ["REPRO_ALSO_MISSING", "REPRO_MISSING_TOO"]
        assert reads == [4, 5]

    def test_flags_default_mismatch(self):
        """A declared knob read past the registry may carry its own
        default, so the read itself is the offence."""
        undeclared, reads = knob_source(
            """
            import os

            SEED = os.environ.get("REPRO_CHAOS_SEED", "7")
            """
        )
        assert undeclared == []
        assert reads == [4]

    def test_non_repro_env_ignored(self):
        assert knob_source(
            """
            import os

            HOME = os.environ.get("HOME", "/")
            """
        ) == ([], [])


class TestRepoSweep:
    def test_source_tree_is_clean(self):
        """The acceptance criterion: the REPRO3xx rules find nothing in src/."""
        findings = lint_paths([REPO_ROOT / "src"], concurrency_rules(), root=REPO_ROOT)
        assert findings == [], "\n".join(
            f"{f.path}:{f.line}: {f.rule} {f.message}" for f in findings
        )
