"""Unit tests for the knob table (repro.knobs).

The table is the single source of truth for every ``REPRO_*``
environment variable: the accessors read through it, and the drift
tests here keep the source tree and the README/EXPERIMENTS knob tables
in step with it.
"""

from __future__ import annotations

import re
import textwrap
from pathlib import Path

import pytest

from repro import knobs
from tests.conftest import knob_env_offences

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestRegistry:
    def test_sorted_unique_names(self):
        names = list(knobs.knob_names())
        assert names == sorted(names)
        assert len(names) == len(set(names))

    def test_every_entry_is_complete(self):
        for name, default in knobs.KNOBS.items():
            assert name.startswith("REPRO_")
            assert isinstance(default, str)

    def test_lookup_and_unknown_hint(self):
        assert knobs.KNOBS["REPRO_CHAOS"] == ""
        with pytest.raises(KeyError, match="REPRO_NOPE"):
            knobs.get_str("REPRO_NOPE")


class TestAccessors:
    def test_flag_false_words(self, monkeypatch):
        for word in ("", "0", "false", "off", "no", "False", "OFF"):
            monkeypatch.setenv("REPRO_CHAOS", word)
            assert knobs.get_flag("REPRO_CHAOS") is False
        monkeypatch.delenv("REPRO_CHAOS")
        assert knobs.get_flag("REPRO_CHAOS") is False
        for word in ("1", "true", "yes", "warn"):
            monkeypatch.setenv("REPRO_CHAOS", word)
            assert knobs.get_flag("REPRO_CHAOS") is True

    def test_str_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert knobs.get_str("REPRO_SANITIZE") == ""
        monkeypatch.setenv("REPRO_SANITIZE", "warn")
        assert knobs.get_str("REPRO_SANITIZE") == "warn"


class TestDrift:
    def test_every_env_token_in_tree_is_declared(self):
        """No REPRO_* env name appears in src/benchmarks undeclared, and
        only repro.knobs reads one from the environment, so the table
        holds the one default."""
        undeclared = {}
        direct_reads = []
        for base in ("src", "benchmarks"):
            for path in sorted((REPO_ROOT / base).rglob("*.py")):
                names, lines = knob_env_offences(path.read_text())
                for name in names:
                    undeclared.setdefault(name, path.name)
                if path != Path(knobs.__file__).resolve():
                    direct_reads += [f"{path.name}:{line}" for line in lines]
        assert not undeclared, f"undeclared knob tokens: {undeclared}"
        assert not direct_reads, (
            f"REPRO_* read outside repro.knobs (use knobs.get_*): {direct_reads}"
        )

    def test_docs_tables_are_current(self):
        """The README/EXPERIMENTS knob tables name exactly the declared
        knobs, once each."""
        row = re.compile(r"^\| `(REPRO_[A-Z_]+)` \|", re.MULTILINE)
        for name in ("README.md", "EXPERIMENTS.md"):
            rows = row.findall((REPO_ROOT / name).read_text())
            assert sorted(rows) == list(knobs.knob_names()), (
                f"{name} knob table names {rows}, "
                f"repro.knobs declares {list(knobs.knob_names())}"
            )


# ----------------------------------------------------------------------
# The knob drift scan over fixture sources
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
        """A declared knob read past the table may carry its own
        default, so the read itself is the offence."""
        undeclared, reads = knob_source(
            """
            import os

            MODE = os.environ.get("REPRO_SANITIZE", "warn")
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
