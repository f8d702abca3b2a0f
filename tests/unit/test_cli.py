"""Unit tests for the command-line front end."""

import re

import pytest

from repro.cli import build_parser, main


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
