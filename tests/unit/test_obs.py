"""Unit tests for the observability layer: tracer, metrics, export.

The layer's contracts, each pinned here:

* spans record at *exit* in child-before-parent order (the nesting
  invariant every consumer relies on);
* the ring buffer drops the *oldest* spans and counts the drops;
* the null tracer is free-ish and structurally inert;
* metric merging is associative and submission-ordered;
* run-reports are schema-stable and, after :func:`strip_volatile`,
  deterministic.
"""

import json
import time

import pytest

from repro.network.graph import NetworkGraph
from repro.obs import (
    ATTRIBUTION_SCHEMA,
    MetricsRegistry,
    NULL_TRACER,
    RUN_REPORT_SCHEMA,
    SchemaError,
    TRACE_SCHEMA,
    Tracer,
    attribute_spans,
    attribution_from_tracer,
    attribution_summary,
    build_run_report,
    current_metrics,
    current_tracer,
    load_run_report,
    observe,
    phase_aggregates,
    profile_summary,
    read_trace_jsonl,
    render_lane_timeline,
    render_timeline,
    strip_volatile,
    validate_run_report,
    write_run_report,
    write_trace_jsonl,
)
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
        with observe(counting, MetricsRegistry()):
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
        assert current_metrics() is None

    def test_observe_installs_and_restores(self):
        tracer, metrics = Tracer(), MetricsRegistry()
        with observe(tracer, metrics):
            assert current_tracer() is tracer
            assert current_metrics() is metrics
            inner = Tracer()
            with observe(inner):
                assert current_tracer() is inner
                assert current_metrics() is None
            assert current_tracer() is tracer
        assert current_tracer() is NULL_TRACER
        assert current_metrics() is None

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

        tracer, metrics = Tracer(), MetricsRegistry()
        with observe(tracer, metrics):
            engine = LocalTopologyEngine(triangulated_grid(4, 4).graph, 4)
        fork = engine.fork()
        assert fork.tracer is tracer and fork.metrics is metrics
        with observe(Tracer()):
            assert engine.fork().tracer is tracer

    def test_protocol_views_receive_the_metrics_registry(self):
        import random

        from repro.network.topologies import triangulated_grid
        from repro.runtime.protocol import DistributedDCC

        mesh = triangulated_grid(4, 4)
        tracer, metrics = Tracer(), MetricsRegistry()
        with observe(tracer, metrics):
            protocol = DistributedDCC(
                mesh.graph, set(mesh.outer_boundary), 3, rng=random.Random(0)
            )
        protocol.run()
        assert "engine.verdict_wall_s" in metrics.names()
        assert "engine.verdict" in {span.name for span in tracer.spans()}


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.inc("c")
        reg.inc("c", 4)
        reg.set_gauge("g", 1.0)
        reg.set_gauge("g", 2.5)
        reg.observe("h", 1.0)
        reg.observe("h", 3.0)
        assert reg.counter("c").value == 5
        assert reg.gauge("g").value == 2.5
        assert reg.histogram("h").count == 2
        assert reg.names() == ["c", "g", "h"]
        assert "c" in reg and "missing" not in reg
        assert len(reg) == 3

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.inc("x")
        with pytest.raises(TypeError):
            reg.observe("x", 1.0)
        with pytest.raises(TypeError):
            reg.set_gauge("x", 1.0)

    def test_histogram_stats(self):
        reg = MetricsRegistry()
        for v in (4.0, 1.0, 3.0, 2.0):
            reg.observe("h", v)
        out = reg.as_dict()["h"]
        assert out["min"] == 1.0 and out["max"] == 4.0
        assert out["mean"] == 2.5 and out["total"] == 10.0
        assert out["p50"] in (2.0, 3.0)

    def test_volatile_flag_sticks(self):
        reg = MetricsRegistry()
        reg.observe("h", 1.0)
        reg.observe("h", 2.0, volatile=True)
        assert reg.histogram("h").volatile is True

    def test_merge_is_associative(self):
        def make(seed_values):
            reg = MetricsRegistry()
            for v in seed_values:
                reg.inc("count", v)
                reg.observe("dist", float(v))
            reg.set_gauge("last", seed_values[-1])
            return reg

        a, b, c = make([1, 2]), make([3]), make([4, 5])
        left = MetricsRegistry()
        left.merge(a)
        left.merge(b)
        left.merge(c)

        bc = make([3])
        bc.merge(make([4, 5]))
        right = MetricsRegistry()
        right.merge(make([1, 2]))
        right.merge(bc)
        assert left.as_dict() == right.as_dict()

    def test_merge_kind_mismatch_raises(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("x")
        b.observe("x", 1.0)
        with pytest.raises(TypeError):
            a.merge(b)

    def test_gauge_merge_is_last_write_wins(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.set_gauge("g", 1.0)
        b.gauge("g")  # present but never set: must not clobber
        a.merge(b)
        assert a.gauge("g").value == 1.0
        c = MetricsRegistry()
        c.set_gauge("g", 9.0)
        a.merge(c)
        assert a.gauge("g").value == 9.0

    def test_payload_round_trip(self):
        reg = MetricsRegistry()
        reg.inc("c", 2)
        reg.set_gauge("g", 7.0)
        reg.observe("h", 1.5, volatile=True)
        other = MetricsRegistry()
        other.merge_payload(reg.to_payload())
        assert other.as_dict() == reg.as_dict()

    def test_payload_merge_matches_registry_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("c")
        a.observe("h", 1.0)
        b.inc("c", 2)
        b.observe("h", 2.0)
        via_merge = MetricsRegistry()
        via_merge.merge(a)
        via_merge.merge(b)
        via_payload = MetricsRegistry()
        via_payload.merge_payload(a.to_payload())
        via_payload.merge_payload(b.to_payload())
        assert via_merge.as_dict() == via_payload.as_dict()

    def test_absorb_topology_skips_zeros(self):
        reg = MetricsRegistry()
        reg.absorb_topology(TopologyCounters(deletability_tests=3))
        assert reg.names() == ["topology.deletability_tests"]
        assert reg.counter("topology.deletability_tests").value == 3

    def test_absorb_runtime(self):
        stats = RuntimeStats()
        stats.rounds = 2
        stats.record_send("hello", deliveries=3)
        stats.topology.span_computations = 5
        reg = MetricsRegistry()
        reg.absorb_runtime(stats)
        out = reg.as_dict()
        assert out["runtime.rounds"]["value"] == 2
        assert out["runtime.messages_sent"]["value"] == 1
        assert out["runtime.messages_delivered"]["value"] == 3
        assert out["runtime.messages_by_kind.hello"]["value"] == 1
        assert out["topology.span_computations"]["value"] == 5


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
        tracer, metrics = Tracer(), MetricsRegistry()
        tracer.add_span("phase", 0.1)
        metrics.inc("c")
        report = build_run_report("unit", tracer, metrics, meta={"seed": 0})
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
        tracer, metrics = Tracer(), MetricsRegistry()
        tracer.add_span("phase", 0.123)
        metrics.observe("walls", 0.5, volatile=True)
        metrics.observe("sizes", 7.0)
        metrics.inc("count")
        report = build_run_report(
            "unit", tracer, metrics, meta={"seed": 0, "workers": 4, "wall_s": 1.0}
        )
        stripped = strip_volatile(report)
        assert stripped["meta"] == {"seed": 0}
        assert stripped["phases"] == {"phase": {"calls": 1}}
        assert stripped["metrics"]["walls"] == {
            "type": "histogram",
            "count": 1,
            "volatile": True,
        }
        # Deterministic metrics keep their full statistics.
        assert stripped["metrics"]["sizes"]["mean"] == 7.0
        assert stripped["metrics"]["count"] == {"type": "counter", "value": 1}
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
        metrics = MetricsRegistry()
        metrics.absorb_attribution(attribute_spans(_sharded_segment()))
        assert metrics.get("attribution.rounds").value == 1
        walls = metrics.get("attribution.wall_s")
        assert walls.volatile and walls.count == 1


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
