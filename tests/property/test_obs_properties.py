"""Property tests for the observability layer's determinism contract.

The headline guarantee (DESIGN.md section 6): at a fixed seed, a fan-out's
or a figure driver's run-report is identical at any worker count once
:func:`repro.obs.export.strip_volatile` removes the wall-clock fields —
span structure, call counts, and the counters and histogram contents
derived from the spans all survive the serial-to-fanned-out transition byte-for-byte.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import run_trace_confine
from repro.core.scheduler import dcc_schedule
from repro.network.deployment import Rectangle, build_network
from repro.parallel import parallel_starmap
from repro.traces.greenorbs import GreenOrbsConfig
from repro.obs import (
    Tracer,
    build_run_report,
    load_run_report,
    observe,
    span_metrics,
    strip_volatile,
    validate_run_report,
    write_run_report,
)


def _schedule_cell(count, seed):
    """Module-level (picklable) cell: one small DCC schedule."""
    net = build_network(count, Rectangle(0, 0, 4.2, 4.2), 1.0, 1.0, seed=seed)
    result = dcc_schedule(
        net.graph, set(net.boundary_nodes), 4, rng=random.Random(seed)
    )
    return {"num_active": result.num_active, "rounds": result.rounds}


def _report_for(workers, counts, seeds, tmp_path):
    """Run-report of ``parallel_starmap`` over a count x seed grid."""
    tracer = Tracer()
    tasks = [(count, seed) for count in counts for seed in seeds]
    with observe(tracer):
        parallel_starmap(_schedule_cell, tasks, workers=workers)
    report = build_run_report("cells", tracer, meta={"cells": len(tasks)})
    path = tmp_path / f"workers{workers}.json"
    write_run_report(report, str(path))
    report = load_run_report(str(path))
    validate_run_report(report)
    return report


def _trace_driver_report(workers):
    """Run-report of the Figure 6/7 driver on a small trace."""
    config = GreenOrbsConfig(
        node_count=120, clusters=6, epochs=24,
        strip_width=220.0, strip_height=80.0,
    )
    tracer = Tracer()
    with observe(tracer):
        run_trace_confine(
            taus=(3, 4, 5), config=config, seed=4, workers=workers
        )
    report = build_run_report("trace", tracer, meta={"workers": workers})
    validate_run_report(report)
    return report


def _assert_reports_agree(serial, fanned):
    # Wall-clock aside, the observations must be indistinguishable.
    assert strip_volatile(serial) == strip_volatile(fanned)
    # The raw reports differ only in the volatile fields: the span
    # structure itself (names, call counts) already agrees.
    assert sorted(serial["phases"]) == sorted(fanned["phases"])
    for phase in serial["phases"]:
        assert serial["phases"][phase]["calls"] == fanned["phases"][phase]["calls"]


class TestReportWorkerInvariance:
    @given(
        counts=st.lists(
            st.integers(min_value=25, max_value=45),
            min_size=1,
            max_size=2,
            unique=True,
        ),
        seeds=st.lists(
            st.integers(min_value=0, max_value=10),
            min_size=1,
            max_size=2,
            unique=True,
        ),
    )
    @settings(max_examples=5, deadline=None)
    def test_serial_and_fanned_reports_agree(self, counts, seeds, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("obs-reports")
        _assert_reports_agree(
            _report_for(1, counts, tuple(seeds), tmp_path),
            _report_for(2, counts, tuple(seeds), tmp_path),
        )

    def test_trace_driver_reports_agree(self):
        """The figure 6/7 driver: one prepared trace, any worker count."""
        serial = _trace_driver_report(1)
        _assert_reports_agree(serial, _trace_driver_report(2))
        assert serial["metrics"]["scheduler.runs"]["value"] == 3

    def test_ambient_merge_preserves_structure(self):
        """A fan-out inside an observation leaves its tasks' spans behind."""
        for workers in (1, 2):
            tracer = Tracer()
            with observe(tracer):
                parallel_starmap(
                    _schedule_cell, [(30, 0), (30, 1)], workers=workers
                )
            spans = tracer.spans()
            tasks = [span for span in spans if span.name == "fanout.task"]
            assert [span.attrs["task"] for span in tasks] == [0, 1]
            assert "scheduler.round" in {span.name for span in spans}
            assert span_metrics(spans)["scheduler.runs"]["value"] == 2


class TestSpanStreamProperties:
    @given(
        shape=st.recursive(
            st.just([]),
            lambda children: st.lists(children, min_size=1, max_size=3),
            max_leaves=12,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_exit_order_invariant_for_any_nesting(self, shape):
        """However spans nest, children always precede their parent."""
        tracer = Tracer()

        def walk(nodes):
            for i, node in enumerate(nodes):
                with tracer.trace(f"span{tracer.depth}.{i}"):
                    walk(node)

        walk(shape)
        spans = tracer.spans()
        # Scanning backwards, depth may rise by at most one per step —
        # exactly the property the profile tree and phase aggregation
        # reconstruction rely on.
        for later, earlier in zip(spans[::-1], spans[-2::-1]):
            assert earlier.depth <= later.depth + 1

    @given(
        walls=st.lists(
            st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=20
        ),
        capacity=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=50, deadline=None)
    def test_ring_buffer_conserves_span_count(self, walls, capacity):
        tracer = Tracer(capacity=capacity)
        for i, wall in enumerate(walls):
            tracer.add_span(f"s{i}", wall)
        assert len(tracer.spans()) == min(len(walls), capacity)
        assert len(tracer.spans()) + tracer.dropped == len(walls)
        # The survivors are exactly the newest spans, oldest first.
        expect = [f"s{i}" for i in range(len(walls))][-capacity:]
        assert [s.name for s in tracer.spans()] == expect


class TestShardedReportInvariance:
    """Sharded runs join the worker-invariance contract (DESIGN.md §11).

    At a fixed seed and shard count, the run-report — including the
    attribution block's deterministic skeleton — is identical after
    :func:`strip_volatile` whether the shards are hosted inline
    (``workers=1``) or in worker processes, and the deletion schedule
    matches the unsharded engine's exactly.
    """

    @staticmethod
    def _network(count, seed):
        net = build_network(
            count, Rectangle(0, 0, 4.2, 4.2), 1.0, 1.0, seed=seed
        )
        return net.graph, set(net.boundary_nodes)

    @staticmethod
    def _sharded_report(graph, protected, tau, shards, workers):
        from repro.obs import attribution_from_tracer, build_run_report
        from repro.shard import sharded_dcc_schedule

        tracer = Tracer()
        with observe(tracer):
            result = sharded_dcc_schedule(
                graph,
                protected,
                tau,
                random.Random(7),
                shards=shards,
                workers=workers,
            )
        attribution = attribution_from_tracer(tracer)
        assert attribution is not None
        report = build_run_report("sharded", tracer, attribution=attribution)
        validate_run_report(report)
        return result, report

    @given(
        count=st.integers(min_value=28, max_value=55),
        tau=st.integers(min_value=3, max_value=5),
        shards=st.integers(min_value=2, max_value=3),
        seed=st.integers(min_value=0, max_value=10),
    )
    @settings(max_examples=5, deadline=None)
    def test_inline_and_pooled_reports_agree(self, count, tau, shards, seed):
        graph, protected = self._network(count, seed)
        serial = dcc_schedule(
            graph, protected, tau, rng=random.Random(7), workers=1
        )
        inline_result, inline_report = self._sharded_report(
            graph, protected, tau, shards, workers=1
        )
        pooled_result, pooled_report = self._sharded_report(
            graph, protected, tau, shards, workers=2
        )
        # Identity: the sharded schedule is the serial schedule.
        assert inline_result.removed == serial.removed
        assert pooled_result.removed == serial.removed
        # Observation: reports (attribution skeleton included) are
        # byte-identical at any worker count once volatile is stripped.
        assert strip_volatile(inline_report) == strip_volatile(pooled_report)
        assert "attribution" in strip_volatile(inline_report)
        for phase, entry in inline_report["phases"].items():
            assert entry["calls"] == pooled_report["phases"][phase]["calls"]
        # Exactness: per round, the four lanes cover the coordinator
        # round wall (the --attribute acceptance bound, here at 0%).
        for run in inline_report["attribution"]["runs"]:
            for row in run["rounds"]:
                lanes = (
                    row["compute_s"]
                    + row["barrier_wait_s"]
                    + row["halo_s"]
                    + row["merge_s"]
                )
                assert abs(lanes - row["wall_s"]) <= 0.05 * row["wall_s"] + 1e-9
