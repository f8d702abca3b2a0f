"""Unit tests for the command-line front end."""

import hashlib
import json
import re

import pytest

from repro.checks.sanitizer import disable_sanitizer, enable_sanitizer
from repro.cli import build_parser, main
from repro.obs import strip_volatile


class TestParser:
    def test_requires_experiment(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_rejects_unknown_experiment(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["fig99"])

    def test_defaults_are_unset(self):
        args = build_parser().parse_args(["fig3"])
        assert args.nodes is None
        assert args.degree is None
        assert args.runs is None
        assert args.seed is None
        assert not args.paper_scale

    def test_overrides_parse(self):
        args = build_parser().parse_args(
            ["fig3", "--nodes", "99", "--degree", "7.5", "--runs", "4"]
        )
        assert (args.nodes, args.degree, args.runs) == (99, 7.5, 4)


class TestMain:
    def test_fig1_runs(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "Moebius" in out
        assert "false negative" in out

    def test_timeline_draws_one_lane_per_pool_task(self, tmp_path, capsys):
        path = tmp_path / "lanes.svg"
        argv = ["fig2", "--nodes", "40", "--degree", "8", "--workers", "1"]
        assert main(argv + ["--timeline", str(path)]) == 0
        svg = path.read_text()
        # One pool task per tau cell, each on its own lane.
        assert all(f"task{i}" in svg for i in range(4))
        assert "aligned wall-clock seconds" in svg

    def test_attribution_reports_one_run_per_schedule(self, capsys):
        argv = ["fig2", "--nodes", "80", "--degree", "10", "--workers", "2"]
        assert main(argv + ["--seed", "0", "--attribute"]) == 0
        out = capsys.readouterr().out
        runs = re.findall(r"run \d+: (\d+) round\(s\), (\d+) deleting", out)
        # One run per tau cell; each lists its deletion rounds and the
        # closing round that finds no winner.
        assert [int(deleting) for __, deleting in runs] == [11, 11, 8, 13]
        assert [int(rounds) for rounds, __ in runs] == [12, 12, 9, 14]
        assert "rounds=47" in out


class TestPinnedReports:
    """The stripped run-report of the CLI smoke run, pinned by digest.

    ``strip_volatile`` leaves the span names and call counts, every
    deterministic metric and the histogram observation counts, so a
    digest change means the report says something else about the run.
    The worker count is a volatile meta key: a report must not depend
    on it, which is why ``--workers 1`` and ``--workers 2`` share a pin.
    """

    SMOKE = ["fig2", "--nodes", "80", "--degree", "10", "--seed", "0"]
    PLAIN = "0046bec8a8c8669f301a6d81fdb5d49302444e2fcd598240f60bd81cec9109b8"
    ATTRIBUTED = (
        "91ee5b2f7a0f0c6a49aa8280e07e2a5316ee055f75288efa50f4fc087e5c48df"
    )
    SANITIZED = (
        "9d07b091de18d5adaaf612fe962163372db8c3e218577a51673d764385908b2a"
    )

    def _digest(self, tmp_path, extra):
        path = tmp_path / "report.json"
        assert main(self.SMOKE + extra + ["--report", str(path)]) == 0
        report = json.loads(path.read_text())
        text = json.dumps(strip_volatile(report), sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()

    @pytest.mark.parametrize(
        "extra, digest",
        [
            (["--workers", "1"], PLAIN),
            (["--workers", "2"], PLAIN),
            (["--workers", "1", "--attribute"], ATTRIBUTED),
        ],
        ids=["workers1", "workers2", "attribute"],
    )
    def test_report_is_pinned(self, tmp_path, capsys, extra, digest):
        assert self._digest(tmp_path, extra) == digest

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_sanitized_report_is_pinned(self, tmp_path, capsys, workers):
        enable_sanitizer()
        try:
            got = self._digest(tmp_path, ["--workers", workers])
        finally:
            disable_sanitizer()
        assert got == self.SANITIZED
