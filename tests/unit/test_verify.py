"""Unit tests for the protocol and locality rules and their repro-check report."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.checks.engine import LintEngine
from repro.checks.locality import default_locality_rules
from repro.checks.protocol import extract_contract
from repro.checks.runner import main as check_main

REPO_ROOT = Path(__file__).resolve().parents[2]
RUNTIME = REPO_ROOT / "src" / "repro" / "runtime"


# ----------------------------------------------------------------------
# Fixture source: a minimal, *correct* one-kind flood protocol
# ----------------------------------------------------------------------
CLEAN_PROTO = '''
from dataclasses import dataclass
from enum import Enum


class MessageKind(Enum):
    PING = "ping"


@dataclass(frozen=True)
class PingPayload:
    origin: int
    ttl: int


def flood(sim, nodes, k, seen):
    for v in nodes:
        sim.send(Message(MessageKind.PING, src=v,
                         payload=PingPayload(origin=v, ttl=k - 1)))
    for __ in range(k):
        sim.step()
        for node in nodes:
            for msg in sim.inbox(node):
                if msg.kind is not MessageKind.PING:
                    sim.stats.record_drop(msg.kind.value)
                    continue
                payload = msg.payload
                if payload.ttl > 0 and payload.origin not in seen:
                    sim.send(Message(MessageKind.PING, src=node,
                                     payload=PingPayload(origin=payload.origin,
                                                         ttl=payload.ttl - 1)))
'''


def extract_source(tmp_path: Path, source: str, rel: str = "repro/runtime/proto.py"):
    target = tmp_path / rel
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source))
    return extract_contract([target], root=tmp_path)


def rules_of(findings):
    return sorted({f.rule for f in findings})


# ----------------------------------------------------------------------
# Contract extraction on the real runtime
# ----------------------------------------------------------------------
class TestRealRuntimeContract:
    @pytest.fixture(scope="class")
    def extracted(self):
        return extract_contract([RUNTIME], root=REPO_ROOT)

    def test_extraction_is_clean(self, extracted):
        __, findings = extracted
        assert findings == []

    def test_matrix_is_total(self, extracted):
        contract, __ = extracted
        assert set(contract.kinds) == {"TOPOLOGY", "PRIORITY", "DELETE"}
        for kind, cell in contract.matrix().items():
            assert cell["sent"] >= 1, kind
            assert cell["handled"] >= 1, kind

# ----------------------------------------------------------------------
# REPRO20x on synthetic fixtures
# ----------------------------------------------------------------------
class TestProtocolRules:
    def test_clean_fixture_has_no_findings(self, tmp_path):
        contract, findings = extract_source(tmp_path, CLEAN_PROTO)
        assert findings == []
        assert contract.matrix() == {"PING": {"sent": 2, "handled": 1}}

    def test_dead_kind_is_handled_unsent(self, tmp_path):
        source = CLEAN_PROTO.replace(
            '    PING = "ping"',
            '    PING = "ping"\n    DEAD = "dead"',
        )
        __, findings = extract_source(tmp_path, source)
        assert rules_of(findings) == ["REPRO202"]
        assert "DEAD" in findings[0].message

    def test_handler_for_unsent_kind(self, tmp_path):
        source = CLEAN_PROTO.replace(
            '    PING = "ping"',
            '    PING = "ping"\n    PONG = "pong"',
        ).replace(
            "                payload = msg.payload",
            "                if msg.kind is MessageKind.PONG:\n"
            "                    pass\n"
            "                payload = msg.payload",
        )
        __, findings = extract_source(tmp_path, source)
        assert "REPRO202" in rules_of(findings)

    def test_silent_drop(self, tmp_path):
        source = CLEAN_PROTO.replace(
            "                    sim.stats.record_drop(msg.kind.value)\n", ""
        )
        __, findings = extract_source(tmp_path, source)
        assert "REPRO205" in rules_of(findings)

    def test_silent_drop_suppressible(self, tmp_path):
        source = CLEAN_PROTO.replace(
            "                    sim.stats.record_drop(msg.kind.value)\n", ""
        ).replace(
            "                if msg.kind is not MessageKind.PING:",
            "                # repro: allow[silent-drop] fixture\n"
            "                if msg.kind is not MessageKind.PING:",
        )
        __, findings = extract_source(tmp_path, source)
        assert "REPRO205" not in rules_of(findings)


# ----------------------------------------------------------------------
# REPRO21x locality rules
# ----------------------------------------------------------------------
class TestLocalityRules:
    def lint(self, tmp_path: Path, source: str, rel="repro/runtime/logic.py"):
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
        engine = LintEngine(list(default_locality_rules()), root=tmp_path)
        return engine.lint([target])

    def test_real_runtime_is_clean(self):
        engine = LintEngine(list(default_locality_rules()), root=REPO_ROOT)
        assert engine.lint([RUNTIME]) == []

    def test_global_graph_read_flagged(self, tmp_path):
        findings = self.lint(
            tmp_path,
            """
            def decide(sim):
                for node in sim.active:
                    if sim.graph.degree(node) > 1:
                        pass
            """,
        )
        assert rules_of(findings) == ["REPRO210"]

    def test_allow_comment_suppresses(self, tmp_path):
        findings = self.lint(
            tmp_path,
            """
            def bootstrap(self, sim, node):
                # repro: allow[global-graph-read] bootstrap only
                return sim.graph.neighbors(node)
            """,
        )
        assert findings == []

    def test_foreign_view_access_flagged(self, tmp_path):
        findings = self.lint(
            tmp_path,
            """
            def peek(self, sim):
                for node in sim.active:
                    other = self.views[node + 1]
                    gone = self.views.pop(3, None)
            """,
        )
        assert rules_of(findings) == ["REPRO211"]
        assert len(findings) == 2

    def test_own_view_access_is_fine(self, tmp_path):
        findings = self.lint(
            tmp_path,
            """
            def read(self, sim, winner):
                for node in sim.active:
                    view = self.views[node]
                self.views.pop(winner, None)
            """,
        )
        assert findings == []

    def test_inbox_confinement_flagged(self, tmp_path):
        findings = self.lint(
            tmp_path,
            """
            def eavesdrop(sim):
                for node in sim.active:
                    for msg in sim.inbox(0):
                        pass
            """,
        )
        assert rules_of(findings) == ["REPRO212"]

    def test_substrate_files_are_exempt(self, tmp_path):
        findings = self.lint(
            tmp_path,
            """
            def deliver(sim):
                return sim.graph
            """,
            rel="repro/runtime/simulator.py",
        )
        assert findings == []

    def test_non_runtime_files_are_exempt(self, tmp_path):
        findings = self.lint(
            tmp_path,
            """
            def analyse(sim):
                return sim.graph
            """,
            rel="repro/analysis/report.py",
        )
        assert findings == []


# ----------------------------------------------------------------------
# The CLI
# ----------------------------------------------------------------------
class TestVerifyCli:
    def test_list_rules(self, capsys):
        assert check_main(["--list-rules"]) == 0
        ids = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        assert ids == sorted(ids)
        for rule_id in ("REPRO202", "REPRO205", "REPRO210", "REPRO211", "REPRO212"):
            assert rule_id in ids

    def test_repo_verifies_clean(self, capsys):
        code = check_main(["src/repro/runtime", "--root", str(REPO_ROOT)])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 finding(s)" in out
        assert "contract DELETE(" in out

    def test_json_report_shape(self, capsys):
        code = check_main(
            ["src/repro/runtime", "--root", str(REPO_ROOT), "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["format"] == "repro-check/v1"
        assert payload["count"] == 0
        matrix = payload["contract"]["matrix"]
        assert set(matrix) == {"TOPOLOGY", "PRIORITY", "DELETE"}

    def test_json_contract_is_kinds_and_matrix(self, capsys):
        check_main(["src/repro/runtime", "--root", str(REPO_ROOT), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"format", "count", "findings", "contract"}
        assert set(payload["contract"]) == {"kinds", "matrix"}

    def test_violations_fail(self, tmp_path, capsys):
        target = tmp_path / "repro" / "runtime" / "proto.py"
        target.parent.mkdir(parents=True)
        target.write_text(
            CLEAN_PROTO.replace(
                "                    sim.stats.record_drop(msg.kind.value)\n", ""
            )
        )
        assert check_main([str(target), "--root", str(tmp_path)]) == 1
        assert "REPRO205" in capsys.readouterr().out
