"""Unit tests for the observability layer: tracer, export.

The layer's contracts, each pinned here:

* spans record at *exit* in child-before-parent order (the nesting
  invariant every consumer relies on);
* the ring buffer drops the *oldest* spans and counts the drops;
* the null tracer is free-ish and structurally inert;
* a run-report's metrics are read off the spans the run recorded;
* run-reports are schema-stable and, after :func:`strip_volatile`,
  deterministic.
"""

import json
import time

import pytest

from repro.network.graph import NetworkGraph
from repro.obs import (
    ATTRIBUTION_SCHEMA,
    NULL_TRACER,
    RUN_REPORT_SCHEMA,
    SchemaError,
    TRACE_SCHEMA,
    Tracer,
    attribute_spans,
    attribution_from_tracer,
    attribution_summary,
    build_run_report,
    current_tracer,
    load_run_report,
    observe,
    phase_aggregates,
    profile_summary,
    read_trace_jsonl,
    render_lane_timeline,
    render_timeline,
    span_metrics,
    strip_volatile,
    validate_run_report,
    write_run_report,
    write_trace_jsonl,
)
from repro.obs.export import ROUND_COUNTERS
from repro.obs.tracer import Span
from repro.runtime.stats import RuntimeStats
from repro.topology import TopologyCounters


def _span(name, depth, wall_s, start_s=0.0, cpu_s=0.0, **attrs):
    return Span(name, depth, start_s, wall_s, cpu_s, attrs)


class TestTracer:
    def test_exit_order_nesting(self):
        tracer = Tracer()
        with tracer.trace("outer"):
            with tracer.trace("inner"):
                pass
            with tracer.trace("inner"):
                pass
        names = [(s.name, s.depth) for s in tracer.spans()]
        assert names == [("inner", 1), ("inner", 1), ("outer", 0)]

    def test_attrs_at_open_and_via_set(self):
        tracer = Tracer()
        with tracer.trace("phase", fixed=1) as handle:
            handle.set(discovered=2)
        (span,) = tracer.spans()
        assert span.attrs == {"fixed": 1, "discovered": 2}

    def test_wall_time_measures_the_block(self):
        tracer = Tracer()
        with tracer.trace("sleep"):
            time.sleep(0.01)
        (span,) = tracer.spans()
        assert span.wall_s >= 0.009

    def test_depth_property_tracks_open_spans(self):
        tracer = Tracer()
        assert tracer.depth == 0
        with tracer.trace("a"):
            assert tracer.depth == 1
            with tracer.trace("b"):
                assert tracer.depth == 2
        assert tracer.depth == 0

    def test_ring_buffer_drops_oldest(self):
        tracer = Tracer(capacity=3)
        for i in range(5):
            tracer.add_span(f"s{i}", 0.0)
        assert [s.name for s in tracer.spans()] == ["s2", "s3", "s4"]
        assert tracer.dropped == 2
        assert tracer.last_span().name == "s4"

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_add_span_records_at_current_depth(self):
        tracer = Tracer()
        with tracer.trace("round"):
            tracer.add_span("leaf", 0.5, cpu_s=0.25, round=3)
        leaf, parent = tracer.spans()
        assert (leaf.name, leaf.depth, leaf.wall_s, leaf.cpu_s) == (
            "leaf",
            1,
            0.5,
            0.25,
        )
        assert leaf.attrs == {"round": 3}
        assert parent.depth == 0

    def test_clear_resets_everything(self):
        tracer = Tracer(capacity=2)
        for i in range(4):
            tracer.add_span(f"s{i}", 0.0)
        tracer.clear()
        assert tracer.spans() == []
        assert tracer.dropped == 0
        assert tracer.last_span() is None

    def test_export_import_round_trip_offsets_depth(self):
        worker = Tracer()
        with worker.trace("work", task=1):
            worker.add_span("step", 0.1)
        payload = worker.export_payload()

        merged = Tracer()
        with merged.trace("fanout.task"):
            merged.import_spans(payload)
        spans = merged.spans()
        # Imported spans nest under the open fanout.task span.
        assert [(s.name, s.depth) for s in spans] == [
            ("step", 2),
            ("work", 1),
            ("fanout.task", 0),
        ]
        assert spans[1].attrs == {"task": 1}

    def test_import_accumulates_dropped(self):
        source = Tracer(capacity=1)
        source.add_span("a", 0.0)
        source.add_span("b", 0.0)
        sink = Tracer()
        sink.import_spans(source.export_payload())
        assert sink.dropped == 1

    def test_span_verdict_records_ball_and_core_size(self):
        # A wheel: the hub dominates every rim vertex, so the 7-vertex
        # ball collapses to a single vertex before the rank test.
        graph = NetworkGraph(range(7))
        for v in range(1, 7):
            graph.add_edge(0, v)
            graph.add_edge(v, v % 6 + 1)
        csr = graph.csr()
        tracer = Tracer()
        csr.tracer = tracer
        assert csr.span_connected_verdict(csr.member_slots(range(7)), 3)
        (span,) = tracer.spans()
        assert span.name == "kernel.span_verdict"
        assert span.attrs == {
            "members": 7,
            "tau": 3,
            "core": 1,
            "nu": 0,
            "closed": 0,
            "stage": "none",
        }

    def test_cop_win_ball_takes_the_one_vertex_exit(self, trigrid6):
        # A border vertex of a triangulated grid: its punctured 2-ball,
        # 11 vertices in the BFS order the engine passes, is dismantlable
        # down to a single vertex.
        csr = trigrid6.graph.csr()
        tracer = Tracer()
        csr.tracer = tracer
        ball = csr.ball_slots(2, 2)[1:]
        tracer.clear()
        assert csr.span_connected_verdict(ball, 4)
        (span,) = tracer.spans()
        assert span.attrs == {
            "members": len(ball),
            "tau": 4,
            "core": 1,
            "nu": 0,
            "closed": 0,
            "stage": "none",
        }
        assert not any(csr._bit) and not any(csr._closed)

    @pytest.mark.parametrize(
        "length, tau, verdict, closed, stage",
        [(4, 4, True, 1, "closure"), (5, 4, False, 0, "none"), (5, 5, True, 1, "closure")],
    )
    def test_span_verdict_records_how_the_rank_was_decided(
        self, length, tau, verdict, closed, stage
    ):
        # A bare cycle has no dominated vertex, so the core is the whole
        # cycle: one chord, solved by the tree closure iff length <= tau.
        graph = NetworkGraph(range(length))
        for v in range(length):
            graph.add_edge(v, (v + 1) % length)
        csr = graph.csr()
        tracer = Tracer()
        csr.tracer = tracer
        assert csr.span_connected_verdict(csr.member_slots(range(length)), tau) is verdict
        (span,) = tracer.spans()
        assert span.attrs == {
            "members": length,
            "tau": tau,
            "core": length,
            "nu": 1,
            "closed": closed,
            "stage": stage,
        }


class TestNullTracer:
    def test_disabled_and_inert(self):
        assert NULL_TRACER.enabled is False
        with NULL_TRACER.trace("anything", key=1) as handle:
            handle.set(more=2)
        NULL_TRACER.add_span("leaf", 1.0)
        assert NULL_TRACER.spans() == []
        assert NULL_TRACER.last_span() is None
        assert NULL_TRACER.export_payload()["spans"] == []

    def test_shared_handle(self):
        # One no-op handle is shared; trace() allocates nothing per call.
        assert NULL_TRACER.trace("a") is NULL_TRACER.trace("b")


class TestHotPathGuards:
    """A disabled tracer costs a hot path one ``enabled`` probe, no call.

    Coarse sites (one span per round or per figure) may call a disabled
    tracer; the kernel, the engine and the shard runtime may not.
    """

    def test_disabled_tracer_is_never_called_from_a_hot_path(
        self, trigrid6, monkeypatch
    ):
        from repro.core.criterion import is_tau_partitionable
        from repro.core.scheduler import dcc_schedule
        from repro.obs.tracer import NullTracer

        calls = []

        class CountingNullTracer(NullTracer):
            def trace(self, name, **attrs):
                calls.append(name)
                return super().trace(name, **attrs)

            def add_span(self, name, wall_s, cpu_s=0.0, **attrs):
                calls.append(name)

        counting = CountingNullTracer()
        monkeypatch.setattr("repro.shard.runtime.NULL_TRACER", counting)
        boundary = trigrid6.outer_boundary
        with observe(counting):
            dcc_schedule(trigrid6.graph, boundary, 4)
            dcc_schedule(trigrid6.graph, boundary, 4, shards=2)
            is_tau_partitionable(trigrid6.graph, [boundary], 4)
        assert "scheduler.round" in calls
        # The shard runtime's spans; the coordinator's barrier, merge and
        # config spans are per round.
        shard_local = ("shard.subround", "shard.verdicts", "shard.apply")
        hot = {n for n in calls if n.startswith(("kernel.", "engine.", *shard_local))}
        assert hot == set()


class TestAmbientObservation:
    def test_defaults(self):
        assert current_tracer() is NULL_TRACER

    def test_observe_installs_and_restores(self):
        tracer = Tracer()
        with observe(tracer):
            assert current_tracer() is tracer
            inner = Tracer()
            with observe(inner):
                assert current_tracer() is inner
            with observe(None):
                assert current_tracer() is NULL_TRACER
            assert current_tracer() is tracer
        assert current_tracer() is NULL_TRACER

    def test_observe_restores_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with observe(tracer):
                raise RuntimeError("boom")
        assert current_tracer() is NULL_TRACER

    def test_energy_aware_engine_observes_ambiently(self):
        """An engine built inside an observation records its verdicts."""
        import random

        from repro.core.lifetime import energy_aware_schedule
        from repro.network.topologies import triangulated_grid

        mesh = triangulated_grid(5, 5)
        residual = {v: 1.0 for v in mesh.graph.vertices()}
        tracer = Tracer()
        with observe(tracer):
            energy_aware_schedule(
                mesh.graph, set(mesh.outer_boundary), 4, residual,
                rng=random.Random(0),
            )
        names = {span.name for span in tracer.spans()}
        assert "engine.verdict" in names

    def test_fork_keeps_the_parents_observers(self):
        from repro.network.topologies import triangulated_grid
        from repro.topology import LocalTopologyEngine

        tracer = Tracer()
        with observe(tracer):
            engine = LocalTopologyEngine(triangulated_grid(4, 4).graph, 4)
        assert engine.fork().tracer is tracer
        with observe(Tracer()):
            assert engine.fork().tracer is tracer

    def test_protocol_views_observe_through_the_tracer(self):
        import random

        from repro.network.topologies import triangulated_grid
        from repro.runtime.protocol import DistributedDCC

        mesh = triangulated_grid(4, 4)
        tracer = Tracer()
        with observe(tracer):
            protocol = DistributedDCC(
                mesh.graph, set(mesh.outer_boundary), 3, rng=random.Random(0)
            )
        result = protocol.run()
        metrics = span_metrics(tracer.spans())
        # Every view engine's fresh verdicts, and every simulator round.
        assert (
            metrics["engine.verdict_wall_s"]["count"]
            == result.stats.topology.deletability_tests
        )
        assert metrics["runtime.messages_per_round"]["count"] == result.stats.rounds
        assert (
            metrics["runtime.delivered_per_round"]["total"]
            == result.stats.messages_delivered
        )


def _deployment():
    """A 60-node unit-disk deployment whose schedules delete at tau 3 and 4."""
    from repro.network.deployment import Rectangle, build_network

    net = build_network(60, Rectangle(0, 0, 4.2, 4.2), 1.0, 1.0, seed=1)
    return net.graph, net.boundary_nodes


def _round(round_no, depth=0, deleted=0, wall_s=0.1, **counters):
    """One scheduler round in exit order: its deletion span, then itself."""
    spans = []
    if deleted:
        spans.append(_span("scheduler.deletion", depth + 1, 0.01,
                           round=round_no, deletions=deleted))
    spans.append(_span("scheduler.round", depth, wall_s, round=round_no,
                       mode="parallel", **counters))
    return spans


class TestSpanMetrics:
    def test_round_counters_are_the_topology_counters(self):
        assert set(ROUND_COUNTERS) == set(TopologyCounters().as_dict())

    def test_scheduler_metrics_from_round_spans(self):
        spans = (
            _round(0, deleted=3, wall_s=0.5)
            + _round(1, deleted=1, wall_s=0.25)
            + _round(2)
            + _round(0)
        )
        metrics = span_metrics(spans)
        assert metrics["scheduler.runs"] == {"type": "counter", "value": 2}
        assert metrics["scheduler.rounds"]["value"] == 2
        assert metrics["scheduler.deletions"]["value"] == 4
        # Only the rounds that deleted are timed.
        walls = metrics["scheduler.round_wall_s"]
        assert walls["volatile"] and walls["count"] == 2 and walls["total"] == 0.75

    def test_histogram_stats(self):
        spans = []
        for round_no, deleted in enumerate((4, 1, 3, 2)):
            spans += _round(round_no, deleted=deleted)
        out = span_metrics(spans)["scheduler.deletions_per_round"]
        assert out["count"] == 4 and out["volatile"] is False
        assert out["min"] == 1 and out["max"] == 4
        assert out["mean"] == 2.5 and out["total"] == 10
        assert out["p50"] in (2, 3)

    def test_round_counters_skip_zeros(self):
        spans = _round(0, deletability_tests=3, invalidations=0) + _round(
            1, deletability_tests=2
        )
        topology = {
            name: metric["value"]
            for name, metric in span_metrics(spans).items()
            if name.startswith("topology.")
        }
        assert topology == {"topology.deletability_tests": 5}

    def test_sanitizer_account(self):
        metrics = span_metrics([], sanitizer=({"ball": 2, "delaunay": 1}, []))
        assert sorted(metrics) == ["sanitizer.checks.ball", "sanitizer.checks.delaunay"]
        assert metrics["sanitizer.checks.ball"]["value"] == 2
        metrics = span_metrics([], sanitizer=({}, ["one", "two"]))
        assert metrics == {"sanitizer.violations": {"type": "counter", "value": 2}}

    def test_schedule_report_matches_its_result(self):
        """A traced schedule's report restates its result's accounting."""
        from repro.core.scheduler import dcc_schedule

        graph, protected = _deployment()
        tracer = Tracer()
        with observe(tracer):
            first = dcc_schedule(graph, protected, 4)
            second = dcc_schedule(graph, protected, 3)
        assert first.rounds and second.rounds
        metrics = span_metrics(tracer.spans())
        assert metrics["scheduler.runs"]["value"] == 2
        assert metrics["scheduler.rounds"]["value"] == first.rounds + second.rounds
        assert (
            metrics["scheduler.deletions"]["value"]
            == first.num_removed + second.num_removed
        )
        totals = TopologyCounters()
        totals.merge(first.counters)
        totals.merge(second.counters)
        expected = {
            f"topology.{name}": value
            for name, value in totals.as_dict().items()
            if value
        }
        got = {
            name: metric["value"]
            for name, metric in metrics.items()
            if name.startswith("topology.")
        }
        assert got == expected
        assert metrics["engine.verdict_wall_s"]["count"] == totals.deletability_tests
        walls = metrics["scheduler.round_wall_s"]
        assert walls["count"] == first.rounds + second.rounds

    def test_sharded_schedule_report_matches_its_result(self):
        """Sharded rounds give the same scheduler metrics; their counters
        merge from the shards after the last round, so none ride along."""
        from repro.core.scheduler import dcc_schedule

        graph, protected = _deployment()
        tracer = Tracer()
        with observe(tracer):
            result = dcc_schedule(graph, protected, 4, shards=2)
        assert result.rounds
        metrics = span_metrics(tracer.spans())
        assert metrics["scheduler.runs"]["value"] == 1
        assert metrics["scheduler.rounds"]["value"] == result.rounds
        assert metrics["scheduler.deletions"]["value"] == result.num_removed
        assert metrics["scheduler.round_wall_s"]["count"] == result.rounds
        assert not any(name.startswith("topology.") for name in metrics)


class TestRuntimeStatsSemantics:
    def test_record_send_counts_broadcasts_and_receptions(self):
        stats = RuntimeStats()
        stats.record_send("probe", deliveries=4)
        stats.record_send("probe", deliveries=0, count=2)
        assert stats.messages_sent == 3
        assert stats.messages_delivered == 4
        assert stats.messages_by_kind == {"probe": 3}

    def test_summary_omits_empty_breakdown(self):
        stats = RuntimeStats()
        assert "[]" not in stats.summary()
        stats.record_send("probe", deliveries=1)
        assert "[probe=1]" in stats.summary()


class TestPhaseAggregates:
    def test_exclusive_time_subtracts_children(self):
        spans = [
            _span("child", 1, 0.3),
            _span("child", 1, 0.2),
            _span("parent", 0, 1.0),
        ]
        out = phase_aggregates(spans)
        assert out["parent"]["calls"] == 1
        assert out["parent"]["wall_s"] == pytest.approx(1.0)
        assert out["parent"]["exclusive_s"] == pytest.approx(0.5)
        assert out["child"]["calls"] == 2
        assert out["child"]["exclusive_s"] == pytest.approx(0.5)

    def test_deep_nesting_attributes_to_direct_parent(self):
        spans = [
            _span("leaf", 2, 0.1),
            _span("mid", 1, 0.4),
            _span("root", 0, 1.0),
        ]
        out = phase_aggregates(spans)
        assert out["mid"]["exclusive_s"] == pytest.approx(0.3)
        assert out["root"]["exclusive_s"] == pytest.approx(0.6)

    def test_names_sorted(self):
        spans = [_span("b", 0, 0.1), _span("a", 0, 0.1)]
        assert list(phase_aggregates(spans)) == ["a", "b"]


class TestExport:
    def test_trace_jsonl_round_trip(self, tmp_path):
        tracer = Tracer()
        with tracer.trace("outer", key="v"):
            tracer.add_span("inner", 0.25)
        path = tmp_path / "trace.jsonl"
        count = write_trace_jsonl(tracer, str(path))
        assert count == 2
        header, records = read_trace_jsonl(str(path))
        assert header == {"schema": TRACE_SCHEMA, "spans": 2, "dropped": 0}
        assert [r["name"] for r in records] == ["inner", "outer"]
        assert records[1]["attrs"] == {"key": "v"}

    def test_read_trace_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"schema": "nope"}) + "\n")
        with pytest.raises(SchemaError):
            read_trace_jsonl(str(path))

    def test_build_run_report_shape(self):
        tracer = Tracer()
        tracer.add_span("phase", 0.1)
        report = build_run_report("unit", tracer, meta={"seed": 0})
        assert report["schema"] == RUN_REPORT_SCHEMA
        assert set(report) == {
            "schema",
            "name",
            "meta",
            "phases",
            "metrics",
            "spans_dropped",
        }
        assert report["meta"] == {"seed": 0}
        validate_run_report(report)

    def test_validate_rejects_drift(self):
        tracer = Tracer()
        tracer.add_span("phase", 0.1)
        report = build_run_report("unit", tracer)
        validate_run_report(report)
        for mutate in (
            lambda r: r.pop("phases"),
            lambda r: r.update(schema="repro.run_report/v2"),
            lambda r: r["phases"]["phase"].pop("calls"),
            lambda r: r.update(metrics={"m": {"type": "mystery"}}),
            lambda r: r.update(spans_dropped="0"),
        ):
            broken = json.loads(json.dumps(report))
            mutate(broken)
            with pytest.raises(SchemaError):
                validate_run_report(broken)

    def test_write_and_load_run_report(self, tmp_path):
        tracer = Tracer()
        tracer.add_span("phase", 0.1)
        report = build_run_report("unit", tracer)
        path = tmp_path / "report.json"
        write_run_report(report, str(path))
        assert load_run_report(str(path)) == report

    def test_strip_volatile(self):
        tracer = Tracer()
        with tracer.trace("scheduler.round", round=0):
            tracer.add_span("engine.verdict", 0.123)
            tracer.add_span("scheduler.deletion", 0.5, deletions=7)
        report = build_run_report(
            "unit", tracer, meta={"seed": 0, "workers": 4, "wall_s": 1.0}
        )
        stripped = strip_volatile(report)
        assert stripped["meta"] == {"seed": 0}
        assert stripped["phases"]["engine.verdict"] == {"calls": 1}
        assert stripped["metrics"]["engine.verdict_wall_s"] == {
            "type": "histogram",
            "count": 1,
            "volatile": True,
        }
        # Deterministic metrics keep their full statistics.
        assert stripped["metrics"]["scheduler.deletions_per_round"]["mean"] == 7
        assert stripped["metrics"]["scheduler.runs"] == {"type": "counter", "value": 1}
        # The original report is untouched.
        assert report["meta"]["workers"] == 4

    def test_profile_summary(self):
        tracer = Tracer()
        with tracer.trace("outer"):
            with tracer.trace("inner"):
                pass
        text = profile_summary(tracer)
        assert "outer" in text and "inner" in text
        assert "top" in text
        assert profile_summary(Tracer()) == "profile: no spans recorded"

    def test_profile_summary_reports_drops(self):
        tracer = Tracer(capacity=1)
        tracer.add_span("a", 0.1)
        tracer.add_span("b", 0.1)
        assert "dropped" in profile_summary(tracer)


class TestTimeline:
    def test_round_attributed_spans_render(self):
        tracer = Tracer()
        for rnd in range(3):
            tracer.add_span("scheduler.round", 0.1 * (rnd + 1), round=rnd)
            tracer.add_span(
                "runtime.round", 0.05, round=rnd, messages=10 * (rnd + 1)
            )
        canvas = render_timeline(tracer.spans(), title="unit")
        svg = canvas.render()
        assert svg.startswith("<?xml") or "<svg" in svg
        assert "scheduler.round" in svg
        assert "messages/round" in svg

    def test_no_round_spans_still_renders(self):
        canvas = render_timeline([_span("loose", 0, 0.1)])
        assert "no round-attributed spans" in canvas.render()


# ----------------------------------------------------------------------
# v2 aligned payloads
# ----------------------------------------------------------------------
class TestAlignedPayload:
    def test_export_payload_shape(self):
        tracer = Tracer()
        tracer.add_span("work", 0.1)
        payload = tracer.export_payload(process="shard1")
        assert payload["version"] == 2
        assert payload["process"] == "shard1"
        assert payload["dropped"] == 0
        assert len(payload["spans"]) == 1
        assert isinstance(payload["epoch_unix"], float)

    def test_import_aligns_epochs_and_tags_proc(self):
        worker = Tracer()
        worker.add_span("shard.subround", 0.1, shard=0, round=0, subround=0)
        payload = worker.export_payload(process="shard0")
        worker_start = payload["spans"][0][2]

        coordinator = Tracer()
        # Pretend the worker's clock origin is 5s later than ours: the
        # importer must shift its spans forward by exactly that much.
        payload["epoch_unix"] = coordinator._epoch_unix + 5.0
        coordinator.import_spans(payload)
        (span,) = coordinator.spans()
        assert span.attrs["proc"] == "shard0"
        assert span.attrs["shard"] == 0
        assert span.start_s == pytest.approx(worker_start + 5.0)

    def test_import_preserves_existing_proc_tag(self):
        worker = Tracer()
        worker.add_span("step", 0.1, proc="original")
        sink = Tracer()
        sink.import_spans(worker.export_payload(process="relay"))
        assert sink.spans()[0].attrs["proc"] == "original"

    def test_unlabelled_payload_has_no_proc(self):
        worker = Tracer()
        worker.add_span("step", 0.1)
        sink = Tracer()
        sink.import_spans(worker.export_payload())
        assert "proc" not in sink.spans()[0].attrs

    def test_payload_import_accumulates_dropped(self):
        source = Tracer(capacity=1)
        source.add_span("a", 0.0)
        source.add_span("b", 0.0)
        sink = Tracer()
        sink.import_spans(source.export_payload(process="w"))
        assert sink.dropped == 1

    def test_null_tracer_payload_is_empty_v2(self):
        payload = NULL_TRACER.export_payload(process="w")
        assert payload["version"] == 2
        assert payload["spans"] == []
        assert payload["dropped"] == 0


# ----------------------------------------------------------------------
# Wall-clock attribution
# ----------------------------------------------------------------------
def _sharded_segment():
    """A synthetic one-round sharded trace with known lane quantities."""
    return [
        _span(
            "shard.config", 0, 0.0, shards=2, workers=2, assignment=[[0], [1]]
        ),
        _span(
            "shard.subround", 1, 0.3,
            start_s=0.05, shard=0, round=0, subround=0, proc="shard0",
        ),
        _span(
            "shard.subround", 1, 0.4,
            start_s=0.05, shard=1, round=0, subround=0, proc="shard1",
        ),
        _span("shard.barrier", 1, 0.5, start_s=0.02, round=0, subround=0),
        _span(
            "halo.route", 1, 0.05,
            start_s=0.52, round=0, kind="status", rows=10, bytes=100,
        ),
        _span("scheduler.round", 0, 0.65, start_s=0.0, round=0, mode="sharded"),
    ]


class TestAttribution:
    def test_sharded_lane_decomposition(self):
        attribution = attribute_spans(_sharded_segment())
        assert attribution["schema"] == ATTRIBUTION_SCHEMA
        assert attribution["mode"] == "sharded"
        (run,) = attribution["runs"]
        (row,) = run["rounds"]
        # Two single-shard workers: compute is the straggler's busy time.
        assert row["compute_s"] == pytest.approx(0.4)
        assert row["barrier_wait_s"] == pytest.approx(0.1)
        assert row["halo_s"] == pytest.approx(0.05)
        assert row["merge_s"] == pytest.approx(0.1)
        lanes = (
            row["compute_s"]
            + row["barrier_wait_s"]
            + row["halo_s"]
            + row["merge_s"]
        )
        assert lanes == pytest.approx(row["wall_s"])
        assert row["straggler_spread_s"] == pytest.approx(0.1)
        assert (row["halo_rows"], row["halo_bytes"]) == (10, 100)
        assert run["critical_path_s"] == pytest.approx(0.4)
        assert run["per_shard"][0]["busy_s"] == pytest.approx(0.3)
        assert run["per_shard"][1]["busy_s"] == pytest.approx(0.4)

    def test_single_worker_compute_is_summed_busy(self):
        spans = _sharded_segment()
        spans[0] = _span(
            "shard.config", 0, 0.0, shards=2, workers=1, assignment=[[0, 1]]
        )
        (run,) = attribute_spans(spans)["runs"]
        (row,) = run["rounds"]
        # One worker hosts both shards: their busy times serialise.
        assert row["compute_s"] == pytest.approx(0.7)
        assert row["barrier_wait_s"] == pytest.approx(0.0)

    def test_apply_folds_into_subround_zero(self):
        spans = _sharded_segment()
        spans.insert(
            1,
            _span(
                "shard.apply", 1, 0.2,
                shard=0, round=0, deletions=3, proc="shard0",
            ),
        )
        (run,) = attribute_spans(spans)["runs"]
        (row,) = run["rounds"]
        # Worker 0's lane grows to 0.5 and overtakes worker 1's 0.4.
        assert row["compute_s"] == pytest.approx(0.5)

    def test_multiple_runs_split_on_config_markers(self):
        spans = _sharded_segment() + _sharded_segment()
        attribution = attribute_spans(spans)
        assert len(attribution["runs"]) == 2
        assert attribution["totals"]["rounds"] == 2
        assert attribution["totals"]["wall_s"] == pytest.approx(1.3)

    def test_unsharded_fallback(self):
        spans = [
            _span("scheduler.candidates", 1, 0.2, round=0),
            _span("scheduler.mis_draw", 1, 0.1, round=0),
            _span("scheduler.deletion", 1, 0.05, round=0),
            _span("scheduler.round", 0, 0.4, round=0, mode="parallel"),
        ]
        attribution = attribute_spans(spans)
        assert attribution["mode"] == "parallel"
        (row,) = attribution["runs"][0]["rounds"]
        # The monolithic loop has no barrier: the phases are compute,
        # the round remainder is merge.
        assert row["barrier_wait_s"] == pytest.approx(0.0)
        assert row["compute_s"] == pytest.approx(0.35)
        assert row["merge_s"] == pytest.approx(0.05)
        assert row["wall_s"] == pytest.approx(
            row["compute_s"]
            + row["barrier_wait_s"]
            + row["halo_s"]
            + row["merge_s"]
        )

    def test_unsharded_schedules_split_into_runs(self):
        def schedule(rounds, **tag):
            spans = []
            for rnd in range(rounds):
                spans += [
                    _span("scheduler.mis_draw", 1, 0.1, round=rnd, **tag),
                    _span("scheduler.deletion", 1, 0.1, round=rnd, **tag),
                    _span("scheduler.round", 0, 0.3, round=rnd, **tag),
                ]
            # The closing round draws no winner and deletes nothing.
            return spans + [
                _span("scheduler.mis_draw", 1, 0.1, round=rounds, **tag),
                _span("scheduler.round", 0, 0.1, round=rounds, **tag),
            ]

        # Back to back in one process, then two pool tasks' imports.
        spans = (
            schedule(2)
            + schedule(3)
            + schedule(0, proc="task0")
            + [_span("fanout.task", 0, 0.01, task=0)]
            + schedule(1, proc="task1")
        )
        attribution = attribute_spans(spans)
        runs = attribution["runs"]
        assert [len(run["rounds"]) for run in runs] == [3, 4, 1, 2]
        assert [run["deletion_rounds"] for run in runs] == [2, 3, 0, 1]
        assert attribution["totals"]["rounds"] == 10
        assert attribution["totals"]["wall_s"] == pytest.approx(
            sum(0.3 * n + 0.1 for n in (2, 3, 0, 1))
        )

    def test_no_rounds_returns_none(self):
        assert attribute_spans([_span("loose", 0, 0.1)]) is None
        assert attribute_spans([]) is None

    def test_attribution_from_tracer_respects_null(self):
        assert attribution_from_tracer(NULL_TRACER) is None

    def test_summary_renders(self):
        text = attribution_summary(attribute_spans(_sharded_segment()))
        assert "wall-clock attribution" in text
        assert "barrier-wait" in text
        assert "per-shard busy" in text
        assert "critical path" in text

    def test_report_embeds_and_strips(self):
        tracer = Tracer()
        tracer.add_span("phase", 0.1)
        attribution = attribute_spans(_sharded_segment())
        report = build_run_report(
            "unit", tracer, attribution=attribution, meta={"seed": 0}
        )
        validate_run_report(report)
        assert report["attribution"]["totals"]["rounds"] == 1
        stripped = strip_volatile(report)
        run = stripped["attribution"]["runs"][0]
        # Every *_s field and the worker count are gone; the structural
        # skeleton survives for worker-invariance comparisons.
        assert "workers" not in run
        assert run["rounds"] == [
            {"round": 0, "subrounds": 1, "halo_rows": 10, "halo_bytes": 100}
        ]
        assert run["per_shard"] == [
            {"shard": 0, "subrounds": 1},
            {"shard": 1, "subrounds": 1},
        ]
        # Reports without the analysis keep the exact v1 key set.
        bare = build_run_report("unit", tracer)
        assert "attribution" not in bare

    def test_validate_rejects_bad_attribution(self):
        tracer = Tracer()
        tracer.add_span("phase", 0.1)
        report = build_run_report(
            "unit", tracer, attribution=attribute_spans(_sharded_segment())
        )
        for mutate in (
            lambda r: r["attribution"].pop("runs"),
            lambda r: r["attribution"].update(schema="repro.attribution/v0"),
            lambda r: r.update(attribution=[1, 2]),
        ):
            broken = json.loads(json.dumps(report))
            mutate(broken)
            with pytest.raises(SchemaError):
                validate_run_report(broken)

    def test_metrics_absorb_attribution(self):
        metrics = span_metrics([], attribution=attribute_spans(_sharded_segment()))
        assert metrics["attribution.rounds"]["value"] == 1
        walls = metrics["attribution.wall_s"]
        assert walls["volatile"] and walls["count"] == 1


# ----------------------------------------------------------------------
# Multi-lane timeline
# ----------------------------------------------------------------------
def _pooled_figure():
    """A pooled figure run's spans: each task's schedule round, imported
    with its task label, under the figure span of this process."""
    spans = []
    for index in range(2):
        label = f"task{index}"
        spans += [
            _span(
                "scheduler.mis_draw", 1, 0.2,
                start_s=0.01, round=0, proc=label,
            ),
            _span(
                "scheduler.round", 0, 0.3,
                start_s=0.0, round=0, mode="parallel", proc=label,
            ),
            _span("fanout.task", 1, 0.01, start_s=0.4 + 0.02 * index, task=index),
        ]
    spans.append(_span("figure.fig2", 0, 0.5, experiment="fig2"))
    return spans


class TestLaneTimeline:
    def test_lanes_render_one_per_pool_task(self):
        svg = render_lane_timeline(_pooled_figure(), title="unit").render()
        assert "task0" in svg and "task1" in svg
        assert "aligned wall-clock seconds" in svg
        # The background and one bar per task's top-level round; the
        # nested MIS draw and this process's spans are not drawn.
        assert svg.count("<rect") == 1 + 2

    def test_no_distributed_spans_message(self):
        canvas = render_lane_timeline([])
        assert "no distributed spans" in canvas.render()

    def test_many_spans_coalesce(self):
        spans = [
            _span("engine.verdict", 0, 0.002, start_s=i * 0.002, proc="chunk0")
            for i in range(500)
        ]
        svg = render_lane_timeline(spans).render()
        # Contiguous spans coalesce into busy blocks: far fewer rects.
        assert svg.count("<rect") < 50
        assert "chunk0" in svg


# ----------------------------------------------------------------------
# Attribution edge cases: degenerate schedules and skewed clocks
# ----------------------------------------------------------------------
class TestAttributionEdgeCases:
    def test_zero_round_sharded_stream_returns_none(self):
        # A run that configured shards but never scheduled a round
        # (e.g. every vertex protected before round 0 opened) carries a
        # config marker and setup spans but no lanes to attribute.
        spans = [
            _span(
                "shard.config", 0, 0.0,
                shards=2, workers=2, assignment=[[0], [1]],
            ),
            _span("shm.attach", 1, 0.01, proc="shard0"),
        ]
        assert attribute_spans(spans) is None

    def test_zero_round_run_does_not_poison_siblings(self):
        # Two back-to-back runs where the first is empty: the empty one
        # is filtered, the real one attributes normally.
        empty = [
            _span(
                "shard.config", 0, 0.0,
                shards=2, workers=2, assignment=[[0], [1]],
            )
        ]
        attribution = attribute_spans(empty + _sharded_segment())
        assert attribution is not None
        assert len(attribution["runs"]) == 1
        assert attribution["totals"]["rounds"] == 1

    def test_single_shard_run_has_no_halo_or_wait(self):
        spans = [
            _span("shard.config", 0, 0.0, shards=1, workers=1, assignment=[[0]]),
            _span(
                "shard.subround", 1, 0.3,
                start_s=0.05, shard=0, round=0, subround=0, proc="shard0",
            ),
            _span("shard.barrier", 1, 0.35, start_s=0.02, round=0, subround=0),
            _span("scheduler.round", 0, 0.4, start_s=0.0, round=0, mode="sharded"),
        ]
        attribution = attribute_spans(spans)
        (run,) = attribution["runs"]
        (row,) = run["rounds"]
        assert row["compute_s"] == pytest.approx(0.3)
        assert row["barrier_wait_s"] == pytest.approx(0.05)
        assert row["halo_s"] == 0.0
        assert (row["halo_rows"], row["halo_bytes"]) == (0, 0)
        assert row["straggler_spread_s"] == 0.0
        assert run["per_shard"] == [
            {"shard": 0, "busy_s": pytest.approx(0.3), "subrounds": 1}
        ]
        lanes = (
            row["compute_s"]
            + row["barrier_wait_s"]
            + row["halo_s"]
            + row["merge_s"]
        )
        assert lanes == pytest.approx(row["wall_s"])

    def test_clock_skewed_epochs_keep_lanes_nonnegative(self):
        # A worker whose per-process epoch ran fast reports busy time
        # exceeding the coordinator's barrier (and even round) wall.
        # The clamps absorb the skew: wait and merge floor at zero, no
        # lane ever goes negative.
        spans = [
            _span(
                "shard.config", 0, 0.0,
                shards=2, workers=2, assignment=[[0], [1]],
            ),
            _span(
                "shard.subround", 1, 9.0,
                start_s=0.05, shard=0, round=0, subround=0, proc="shard0",
            ),
            _span(
                "shard.subround", 1, 0.4,
                start_s=0.05, shard=1, round=0, subround=0, proc="shard1",
            ),
            _span("shard.barrier", 1, 0.5, start_s=0.02, round=0, subround=0),
            _span(
                "halo.route", 1, 0.05,
                start_s=0.52, round=0, kind="status", rows=10, bytes=100,
            ),
            _span("scheduler.round", 0, 0.65, start_s=0.0, round=0, mode="sharded"),
        ]
        (run,) = attribute_spans(spans)["runs"]
        (row,) = run["rounds"]
        assert row["compute_s"] == pytest.approx(9.0)
        assert row["barrier_wait_s"] == 0.0
        assert row["merge_s"] == pytest.approx(0.1)
        for lane in ("compute_s", "barrier_wait_s", "halo_s", "merge_s"):
            assert row[lane] >= 0.0
        assert row["straggler_spread_s"] == pytest.approx(8.6)

    def test_end_to_end_fully_protected_schedule(self):
        # A real sharded schedule in which every vertex is protected:
        # zero deletions, one empty-draw round.  Attribution must not
        # crash and every lane it reports must be non-negative.
        import random

        from repro.network.graph import NetworkGraph
        from repro.shard import sharded_dcc_schedule

        rng = random.Random(3)
        graph = NetworkGraph(range(20))
        for u in range(20):
            for v in range(u + 1, 20):
                if rng.random() < 0.25:
                    graph.add_edge(u, v)
        tracer = Tracer()
        with observe(tracer):
            result = sharded_dcc_schedule(
                graph, set(graph.vertices()), 3, random.Random(0), shards=2
            )
        assert result.removed == []
        attribution = attribution_from_tracer(tracer)
        if attribution is not None:
            for run in attribution["runs"]:
                for row in run["rounds"]:
                    for lane in (
                        "compute_s", "barrier_wait_s", "halo_s", "merge_s"
                    ):
                        assert row[lane] >= 0.0
