"""Unit tests for the declared knob registry (repro.knobs).

The registry is the single source of truth for every ``REPRO_*``
environment variable: the accessors parse through it, the
README/EXPERIMENTS table is generated from it, and the drift tests here
keep both in sync with the source tree.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import knobs
from tests.conftest import knob_env_offences

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestRegistry:
    def test_sorted_unique_names(self):
        names = [k.name for k in knobs.KNOBS]
        assert names == sorted(names)
        assert len(names) == len(set(names))

    def test_every_entry_is_complete(self):
        for k in knobs.KNOBS:
            assert k.name.startswith("REPRO_")
            assert k.kind in ("flag", "int", "str")
            assert k.layer
            assert k.description

    def test_lookup_and_unknown_hint(self):
        assert knobs.knob("REPRO_CHAOS").kind == "flag"
        with pytest.raises(KeyError, match="declare it in repro.knobs.KNOBS"):
            knobs.knob("REPRO_NOPE")

    def test_knob_names_filters(self):
        assert knobs.knob_names() == tuple(k.name for k in knobs.KNOBS)
        assert knobs.knob_names(layer="parallel") == (
            "REPRO_CHAOS",
            "REPRO_CHAOS_SEED",
        )


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

    def test_int_default_and_parse(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHAOS_SEED", raising=False)
        assert knobs.get_int("REPRO_CHAOS_SEED") == 0
        monkeypatch.setenv("REPRO_CHAOS_SEED", "17")
        assert knobs.get_int("REPRO_CHAOS_SEED") == 17

    def test_int_malformed_value_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS_SEED", "x")
        with pytest.raises(ValueError, match="REPRO_CHAOS_SEED='x'"):
            knobs.get_int("REPRO_CHAOS_SEED")

    def test_str_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert knobs.get_str("REPRO_SANITIZE") == ""
        monkeypatch.setenv("REPRO_SANITIZE", "warn")
        assert knobs.get_str("REPRO_SANITIZE") == "warn"


class TestDrift:
    def test_every_env_token_in_tree_is_declared(self):
        """No REPRO_* env name appears in src/benchmarks undeclared, and
        only repro.knobs reads one from the environment, so the registry
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
        """README/EXPERIMENTS carry the generated table verbatim."""
        block = knobs.docs_block()
        for name in ("README.md", "EXPERIMENTS.md"):
            text = (REPO_ROOT / name).read_text()
            assert block in text, (
                f"{name} knob table is stale: run `python -m repro.knobs "
                "--write`"
            )
        assert (
            knobs.update_docs(
                [REPO_ROOT / "README.md", REPO_ROOT / "EXPERIMENTS.md"],
                check=True,
            )
            == []
        )

    def test_update_docs_requires_markers(self, tmp_path):
        target = tmp_path / "DOC.md"
        target.write_text("no markers here\n")
        with pytest.raises(ValueError):
            knobs.update_docs([target])

    def test_update_docs_rewrites_stale_block(self, tmp_path):
        target = tmp_path / "DOC.md"
        target.write_text(
            f"prefix\n{knobs.DOCS_BEGIN}\nstale\n{knobs.DOCS_END}\nsuffix\n"
        )
        assert knobs.update_docs([target]) == [target]
        assert knobs.docs_block() in target.read_text()
        assert knobs.update_docs([target], check=True) == []

    def test_cli_check_mode(self, tmp_path, capsys):
        target = tmp_path / "DOC.md"
        target.write_text(f"{knobs.DOCS_BEGIN}\nstale\n{knobs.DOCS_END}\n")
        assert knobs.main(["--check", str(target)]) == 1
        assert knobs.main(["--write", str(target)]) == 0
        assert knobs.main(["--check", str(target)]) == 0
