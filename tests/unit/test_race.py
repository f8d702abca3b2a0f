"""Unit tests for the REPRO3xx concurrency rules under repro-check.

Each rule gets a positive fixture (the violation fires) and a negative
fixture (the sanctioned idiom passes).  The sweep test at the bottom
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
# REPRO306: pool-boundary-args
# ----------------------------------------------------------------------
class TestPoolBoundaryArgs:
    def test_flags_rich_object_argument(self, tmp_path):
        findings = race_source(
            tmp_path,
            """
            def fan(pool, task, graph):
                return pool.submit(task, graph)
            """,
        )
        assert "REPRO306" in rules_of(findings)

    def test_flags_rich_attribute_argument(self, tmp_path):
        findings = race_source(
            tmp_path,
            """
            import multiprocessing as mp

            def spawn(main, self_like):
                return mp.Process(target=main, args=(self_like.engine,))
            """,
        )
        assert "REPRO306" in rules_of(findings)

    def test_compact_payloads_pass(self, tmp_path):
        findings = race_source(
            tmp_path,
            """
            def fan(pool, task, blob, descriptor, rows):
                return pool.submit(task, blob, descriptor, rows)
            """,
        )
        assert "REPRO306" not in rules_of(findings)


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
# REPRO308: knob-registry
# ----------------------------------------------------------------------
class TestKnobRegistry:
    def test_flags_undeclared_env_read(self, tmp_path):
        findings = race_source(
            tmp_path,
            """
            import os

            FLAG = os.environ.get("REPRO_UNDECLARED", "")
            """,
            rel="repro/analysis/tool.py",
        )
        assert "REPRO308" in rules_of(findings)

    def test_flags_undeclared_getenv_and_subscript(self, tmp_path):
        findings = race_source(
            tmp_path,
            """
            import os

            A = os.getenv("REPRO_ALSO_MISSING")
            B = os.environ["REPRO_MISSING_TOO"]
            """,
        )
        assert rules_of(findings) == ["REPRO308"]
        assert len(findings) == 2

    def test_declared_read_passes(self, tmp_path):
        findings = race_source(
            tmp_path,
            """
            import os

            VALUE = os.environ.get("REPRO_SANITIZE", "")
            """,
        )
        assert "REPRO308" not in rules_of(findings)

    def test_flags_default_mismatch(self, tmp_path):
        findings = race_source(
            tmp_path,
            """
            import os

            SEED = os.environ.get("REPRO_CHAOS_SEED", "7")
            """,
        )
        assert "REPRO308" in rules_of(findings)
        assert "default mismatch" in findings[0].message

    def test_matching_default_passes(self, tmp_path):
        findings = race_source(
            tmp_path,
            """
            import os

            SEED = os.environ.get("REPRO_CHAOS_SEED", "0")
            """,
        )
        assert "REPRO308" not in rules_of(findings)

    def test_non_repro_env_ignored(self, tmp_path):
        findings = race_source(
            tmp_path,
            """
            import os

            HOME = os.environ.get("HOME", "/")
            """,
        )
        assert findings == []


# ----------------------------------------------------------------------
# Suppressions, registry metadata, CLI
# ----------------------------------------------------------------------
class TestSuppression:
    def test_allow_comment_silences_by_id_and_name(self, tmp_path):
        findings = race_source(
            tmp_path,
            """
            import os

            A = os.environ.get("REPRO_SECRET")  # repro: allow[REPRO308] legacy
            # repro: allow[knob-registry] migrating
            B = os.environ.get("REPRO_OTHER")
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
        bad.write_text('import os\nA = os.environ.get("REPRO_NOPE")\n')
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
        assert payload["findings"][0]["rule"] == "REPRO308"

    def test_list_rules(self, capsys):
        assert check_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "REPRO306" in out and "knob-registry" in out


class TestRepoSweep:
    def test_source_tree_is_clean(self):
        """The acceptance criterion: the REPRO3xx rules find nothing in src/."""
        findings = lint_paths([REPO_ROOT / "src"], concurrency_rules(), root=REPO_ROOT)
        assert findings == [], "\n".join(
            f"{f.path}:{f.line}: {f.rule} {f.message}" for f in findings
        )
