"""Per-layer metrics of one traced repetition.

The benchmark's own stage spans (``bench.*``, opened in pipeline.py) sit
around the calls into each layer; inside ``dcc_schedule`` the spans are
the ones the program already records.  Self times come from
:func:`repro.obs.export.phase_aggregates`, the shard lanes from
:func:`repro.obs.attribution.attribution_from_tracer`.

Spans imported from shard workers carry a ``proc`` attribute and overlap
the coordinator's barrier waits in time, so they are aggregated per
process and never enter the lane sum, which covers the coordinator's
(this process's) wall clock only.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence

from repro.obs.attribution import attribution_from_tracer
from repro.obs.export import phase_aggregates

#: confine sizes with a per-cell span-verdict entry
TAU_CELLS = (3, 4, 5, 6, 7, 8)
#: the layer self times must cover the end-to-end wall within this share
LANE_SUM_TOLERANCE = 0.05


def split_streams(spans: Sequence) -> List[List]:
    """This process's spans first, then one stream per worker process."""
    streams: Dict[str, List] = {}
    local = []
    for span in spans:
        proc = span.attrs.get("proc")
        if proc is None:
            local.append(span)
        else:
            streams.setdefault(proc, []).append(span)
    return [local] + [streams[proc] for proc in sorted(streams)]


def self_times(streams: Sequence[Sequence]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, inclusive wall and self (exclusive) time."""
    total: Dict[str, Dict[str, float]] = {}
    for stream in streams:
        for name, entry in phase_aggregates(stream).items():
            acc = total.setdefault(
                name, {"calls": 0, "wall_s": 0.0, "exclusive_s": 0.0}
            )
            for key in acc:
                acc[key] += entry[key]
    return total


def lane_sum_s(spans: Sequence) -> float:
    """Summed self time of this process's spans: the covered wall."""
    local = split_streams(spans)[0]
    return sum(e["exclusive_s"] for e in phase_aggregates(local).values())


def _schedule_startup_s(local: Sequence) -> float:
    """Per ``dcc_schedule`` call, the wall before its first round starts:
    the shard plan, the worker pool's start and the partition shipping."""
    total = 0.0
    rounds = [s.start_s for s in local if s.name == "scheduler.round"]
    for span in local:
        if span.name != "bench.schedule":
            continue
        end = span.start_s + span.wall_s
        inside = [t for t in rounds if span.start_s <= t <= end]
        if inside:
            total += min(inside) - span.start_s
    return total


def layer_metrics(workload, inputs, cells, setup_tracer, rep_tracer,
                  serial_tests: Dict[int, int]) -> Dict[str, float]:
    """Every per-layer metric of one traced repetition (0 where a layer
    does not run on this workload)."""
    setup = self_times([split_streams(setup_tracer.spans())[0]])
    streams = split_streams(rep_tracer.spans())
    times = self_times(streams)

    def wall(table, name):
        return table.get(name, {}).get("wall_s", 0.0)

    def own(name):
        return times.get(name, {}).get("exclusive_s", 0.0)

    def calls(name):
        return int(times.get(name, {}).get("calls", 0))

    counters: Dict[str, int] = {}
    for cell in cells:
        for key, value in cell.result.counters.as_dict().items():
            counters[key] = counters.get(key, 0) + value
    queries = counters["deletability_queries"]

    verdict_by_tau = {tau: 0.0 for tau in TAU_CELLS}
    for stream in streams:
        for span in stream:
            if span.name == "kernel.span_verdict":
                tau = span.attrs.get("tau")
                if tau in verdict_by_tau:
                    verdict_by_tau[tau] += span.wall_s

    metrics: Dict[str, float] = {
        "network.build_s": wall(setup, "bench.network"),
        "network.nodes": len(inputs.graph),
        "network.edges": inputs.graph.num_edges(),
        "boundary.outer_cycle_s": wall(setup, "bench.boundary"),
        "criterion.calls": calls("bench.criterion"),
        "criterion.wall_s": wall(times, "bench.criterion"),
        "scheduler.rounds": sum(c.result.rounds for c in cells),
        "scheduler.deletions": sum(len(c.result.removed) for c in cells),
        "scheduler.candidates.self_s": own("scheduler.candidates"),
        "scheduler.mis_draw.self_s": own("scheduler.mis_draw"),
        "scheduler.deletion.self_s": own("scheduler.deletion"),
        "engine.deletability_queries": queries,
        "engine.deletability_tests": counters["deletability_tests"],
        "engine.invalidations": counters["invalidations"],
        "engine.ball_computations": counters["ball_computations"],
        "engine.cache_hit_ratio": (
            counters["deletability_cache_hits"] / queries if queries else 0.0
        ),
        "engine.verdict.self_s": own("engine.verdict"),
        "kernel.span_verdict.calls": calls("kernel.span_verdict"),
        "kernel.span_verdict.self_s": own("kernel.span_verdict"),
        "kernel.span_verdict.us_per_call": (
            1e6 * own("kernel.span_verdict") / calls("kernel.span_verdict")
            if calls("kernel.span_verdict")
            else 0.0
        ),
        "kernel.ball_bfs.calls": calls("kernel.ball_bfs"),
        "kernel.ball_bfs.self_s": own("kernel.ball_bfs"),
        "kernel.bfs_expansions": counters["bfs_expansions"],
        "kernel.batch_verdict.calls": calls("kernel.batch_verdict"),
        "kernel.batch_verdict.self_s": own("kernel.batch_verdict"),
        "coverage_eval.wall_s": wall(times, "bench.coverage_eval"),
    }
    for tau, seconds in verdict_by_tau.items():
        metrics[f"kernel.span_verdict.self_s.tau{tau}"] = seconds

    shard = {
        "shard.compute_s": 0.0,
        "shard.barrier_wait_s": 0.0,
        "shard.halo_s": 0.0,
        "shard.merge_s": 0.0,
        "shard.busy_s.max": 0.0,
        "shard.busy_s.min": 0.0,
        "shard.halo_rows": 0,
        "shard.halo_bytes": 0,
        "shard.redundant_tests": 0,
        "parallel.startup_s": 0.0,
        "parallel.shm_attach_s": 0.0,
    }
    if workload.shards is not None:
        attribution = attribution_from_tracer(rep_tracer)
        totals = attribution["totals"]
        for lane in ("compute_s", "barrier_wait_s", "halo_s", "merge_s"):
            shard[f"shard.{lane}"] = totals[lane]
        busy: Dict[int, float] = {}
        for run in attribution["runs"]:
            for row in run["per_shard"]:
                busy[row["shard"]] = busy.get(row["shard"], 0.0) + row["busy_s"]
            shard["parallel.shm_attach_s"] += run["setup"]["shm_attach_s"]
        shard["shard.busy_s.max"] = max(busy.values())
        shard["shard.busy_s.min"] = min(busy.values())
        shard["shard.halo_rows"] = sum(
            c.result.shard_stats.halo_rows_total for c in cells
        )
        shard["shard.halo_bytes"] = sum(
            c.result.shard_stats.halo_bytes_total for c in cells
        )
        shard["shard.redundant_tests"] = counters["deletability_tests"] - sum(
            serial_tests.values()
        )
        shard["parallel.startup_s"] = _schedule_startup_s(streams[0])
    metrics.update(shard)
    return metrics



def traced_metrics(workload, inputs, setup_tracer, setup_wall, reps,
                   serial_tests: Dict[int, int], problems: List[str]):
    """Layer metrics of the median traced repetition, plus what observing
    cost and whether the layers cover the end-to-end wall.

    ``setup_wall`` runs from process start to the ready network;
    ``problems`` collects lane-sum and dropped-span failures."""
    untraced = [rep.solve_s for rep in reps if rep.tracer is None]
    traced = sorted((rep for rep in reps if rep.tracer is not None),
                    key=lambda rep: rep.solve_s)
    chosen = traced[(len(traced) - 1) // 2]
    metrics = layer_metrics(workload, inputs, chosen.cells, setup_tracer,
                            chosen.tracer, serial_tests)
    base = statistics.median(untraced)
    metrics["obs.trace_overhead_pct"] = 100.0 * (
        statistics.median(rep.solve_s for rep in traced) - base
    ) / base
    spans = setup_tracer.spans() + chosen.tracer.spans()
    dropped = setup_tracer.dropped + sum(rep.tracer.dropped for rep in traced)
    metrics["obs.spans"] = len(spans)
    metrics["obs.dropped_spans"] = dropped
    covered = lane_sum_s(setup_tracer.spans()) + lane_sum_s(
        chosen.tracer.spans()
    )
    share = covered / (setup_wall + chosen.solve_s)
    metrics["obs.lane_sum_pct"] = 100.0 * share
    if dropped:
        problems.append(f"tracer dropped {dropped} spans")
    if abs(share - 1.0) > LANE_SUM_TOLERANCE:
        problems.append(
            f"layer self times cover {100 * share:.1f}% of the end-to-end "
            f"wall (allowed: 100% +- {100 * LANE_SUM_TOLERANCE:.0f}%)"
        )
    return metrics
