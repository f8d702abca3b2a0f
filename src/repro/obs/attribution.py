"""Distributed wall-clock attribution over aligned span streams.

The sharded scheduler's round loop is a sequence of coordinator-side
waits (``shard.barrier``), halo routing calls (``halo.route``) and
bookkeeping, while the shards' own busy intervals (``shard.subround``,
``shard.apply``) arrive on the same timeline via the v2 aligned span
payloads (:meth:`~repro.obs.tracer.Tracer.export_payload`).  This module
classifies each round's coordinator wall clock into **lanes**:

``compute_s``
    The pool-limited parallel compute time: per sub-round, the maximum
    over workers of the summed busy time of the shards that worker
    hosts (the shard-to-worker assignment is recorded in the
    ``shard.config`` span).  With one worker this degenerates to the
    serial sum; with per-shard workers to the straggler's busy time.
``barrier_wait_s``
    Coordinator barrier time *not* covered by shard compute — scheduling
    slack, IPC latency and straggler spread:
    ``max(0, barrier_s - compute_s)``.
``halo_s``
    Time inside :func:`halo route <repro.shard.scheduler._route_traced>`
    calls (serialisation-and-routing of boundary-band rows), with the
    routed ``rows``/``bytes`` carried alongside.
``merge_s``
    The unexplained remainder of the round
    (``round_wall - barrier - halo``): priority draw, batch commit and
    coordinator bookkeeping.

The lanes sum to the coordinator round wall by construction, so the
decomposition is exact rather than approximate.  Sub-round straggler
spread (max - min shard busy), per-shard busy totals and the compute
critical path ride along.  Everything here is volatile timing — in run
reports the attribution block is stripped down to its deterministic
skeleton (round/sub-round/row counts) by
:func:`repro.obs.export.strip_volatile`.

Unsharded runs get a coarse fallback: the monolithic loop never waits
on a barrier, so its phase spans make up the compute lane and the round
remainder is merge.  Each schedule is one run, whether the schedules ran
one after another in this process or as pool tasks.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set

ATTRIBUTION_SCHEMA = "repro.attribution/v1"

#: lane keys of one attributed round, in presentation order
LANES = ("compute_s", "barrier_wait_s", "halo_s", "merge_s")

#: rounds per run that ``attribution_summary`` lists before eliding
_SUMMARY_MAX_ROUNDS = 40


def _new_totals() -> Dict[str, float]:
    return dict.fromkeys(LANES + ("wall_s",), 0.0)


def _accumulate(total: Dict[str, float], part: Dict[str, Any]) -> None:
    for lane in LANES:
        total[lane] += part[lane]
    total["wall_s"] += part["wall_s"]


def _run(
    mode: str,
    shards: int,
    workers: int,
    rounds: List[Dict[str, Any]],
    deleting: Set[int],
    per_shard: List[Dict[str, Any]],
    span_import_s: float,
) -> Dict[str, Any]:
    """One schedule's attribution entry; its totals sum the rounds."""
    totals = _new_totals()
    for row in rounds:
        _accumulate(totals, row)
    return {
        "mode": mode,
        "shards": shards,
        "workers": workers,
        "rounds": rounds,
        "deletion_rounds": len(deleting),
        "totals": totals,
        "per_shard": per_shard,
        # Partitions ship pickled, so no worker attaches shared memory;
        # the key stays (at zero) for consumers of the attribution block.
        "setup": {"shm_attach_s": 0.0, "span_import_s": span_import_s},
        "critical_path_s": totals["compute_s"],
    }


# ----------------------------------------------------------------------
# Sharded attribution
# ----------------------------------------------------------------------
def _split_sharded(spans: Sequence[Any]) -> List[List[Any]]:
    """Split a record-ordered span stream into per-schedule segments.

    Each sharded schedule run stamps exactly one ``shard.config`` span
    before its first round; spans are recorded in exit order and the
    shard payloads merge before the run returns, so the slice between
    consecutive ``shard.config`` records holds everything the run
    produced.
    """
    marks = [i for i, span in enumerate(spans) if span.name == "shard.config"]
    if not marks:
        return []
    bounds = marks + [len(spans)]
    return [list(spans[a:b]) for a, b in zip(bounds, bounds[1:])]


def _attribute_sharded(segment: Sequence[Any]) -> Dict[str, Any]:
    config = segment[0].attrs
    shard_count = int(config.get("shards", 1))
    assignment = config.get("assignment") or [list(range(shard_count))]
    deleting: Set[int] = set()

    round_wall: Dict[int, float] = {}
    barrier: Dict[int, Dict[int, float]] = {}
    halo: Dict[int, Dict[str, float]] = {}
    busy: Dict[int, Dict[int, Dict[int, float]]] = {}
    span_import_s = 0.0

    for span in segment:
        attrs = span.attrs
        name = span.name
        if name == "scheduler.round":
            rnd = attrs["round"]
            round_wall[rnd] = round_wall.get(rnd, 0.0) + span.wall_s
        elif name == "shard.barrier":
            per = barrier.setdefault(attrs["round"], {})
            sub = attrs["subround"]
            per[sub] = per.get(sub, 0.0) + span.wall_s
        elif name == "halo.route":
            lane = halo.setdefault(
                attrs["round"], {"wall_s": 0.0, "rows": 0, "bytes": 0}
            )
            lane["wall_s"] += span.wall_s
            lane["rows"] += attrs.get("rows", 0)
            lane["bytes"] += attrs.get("bytes", 0)
        elif name == "shard.subround":
            per = busy.setdefault(attrs["round"], {}).setdefault(
                attrs["subround"], {}
            )
            shard = attrs["shard"]
            per[shard] = per.get(shard, 0.0) + span.wall_s
        elif name == "shard.apply":
            # Deletions ride the next round's begin barrier (sub-round 0).
            per = busy.setdefault(attrs["round"], {}).setdefault(0, {})
            shard = attrs["shard"]
            per[shard] = per.get(shard, 0.0) + span.wall_s
        elif name == "shard.merge":
            span_import_s += span.wall_s
        elif name == "scheduler.deletion":
            deleting.add(attrs["round"])

    per_shard_busy = {s: 0.0 for s in range(shard_count)}
    per_shard_subrounds = {s: 0 for s in range(shard_count)}
    rounds: List[Dict[str, Any]] = []
    for rnd in sorted(round_wall):
        wall = round_wall[rnd]
        barrier_s = sum(barrier.get(rnd, {}).values())
        halo_lane = halo.get(rnd, {"wall_s": 0.0, "rows": 0, "bytes": 0})
        subround_busy = busy.get(rnd, {})
        compute_s = 0.0
        spread_s = 0.0
        for sub in sorted(subround_busy):
            shard_busy = subround_busy[sub]
            compute_s += max(
                (
                    sum(shard_busy.get(s, 0.0) for s in worker_shards)
                    for worker_shards in assignment
                ),
                default=0.0,
            )
            if shard_busy:
                spread_s = max(
                    spread_s, max(shard_busy.values()) - min(shard_busy.values())
                )
            for shard, busy_s in shard_busy.items():
                per_shard_busy[shard] = per_shard_busy.get(shard, 0.0) + busy_s
                per_shard_subrounds[shard] = (
                    per_shard_subrounds.get(shard, 0) + 1
                )
        row = {
            "round": rnd,
            "wall_s": wall,
            "compute_s": compute_s,
            "barrier_wait_s": max(0.0, barrier_s - compute_s),
            "halo_s": halo_lane["wall_s"],
            "merge_s": max(0.0, wall - barrier_s - halo_lane["wall_s"]),
            "subrounds": len(subround_busy),
            "halo_rows": int(halo_lane["rows"]),
            "halo_bytes": int(halo_lane["bytes"]),
            "straggler_spread_s": spread_s,
        }
        # Exactness: barrier splits into compute + wait, so the four
        # lanes cover the round wall (up to the merge-lane clamp).
        rounds.append(row)

    per_shard = [
        {
            "shard": s,
            "busy_s": per_shard_busy.get(s, 0.0),
            "subrounds": per_shard_subrounds.get(s, 0),
        }
        for s in range(shard_count)
    ]
    workers = int(config.get("workers", 1))
    return _run(
        "sharded", shard_count, workers, rounds, deleting, per_shard, span_import_s
    )


# ----------------------------------------------------------------------
# Unsharded (coarse) attribution
# ----------------------------------------------------------------------
_COMPUTE_PHASES = (
    "scheduler.candidates",
    "scheduler.mis_draw",
    "scheduler.deletion",
)
_ROUND_SPANS = ("scheduler.round",) + _COMPUTE_PHASES


def _split_unsharded(spans: Sequence[Any]) -> List[List[Any]]:
    """Split a record-ordered span stream into one segment per schedule.

    A schedule numbers its rounds from 0, and each round's phase spans
    close before its ``scheduler.round`` span.  Pool tasks' spans are
    imported task by task.  So a span of a round no later than the last
    closed one opens the next schedule.
    """
    segments: List[List[Any]] = []
    last_round: Optional[int] = None
    for span in spans:
        rnd = span.attrs.get("round")
        if rnd is None or span.name not in _ROUND_SPANS:
            continue
        if not segments or (last_round is not None and rnd <= last_round):
            segments.append([])
            last_round = None
        segments[-1].append(span)
        if span.name == "scheduler.round":
            last_round = rnd
    return segments


def _attribute_unsharded(segment: Sequence[Any]) -> Optional[Dict[str, Any]]:
    round_wall: Dict[int, float] = {}
    phase_s: Dict[int, float] = {}
    deleting: Set[int] = set()
    for span in segment:
        rnd = span.attrs["round"]
        if span.name == "scheduler.round":
            round_wall[rnd] = round_wall.get(rnd, 0.0) + span.wall_s
        else:
            phase_s[rnd] = phase_s.get(rnd, 0.0) + span.wall_s
            if span.name == "scheduler.deletion":
                deleting.add(rnd)
    if not round_wall:
        return None
    rounds: List[Dict[str, Any]] = []
    for rnd in sorted(round_wall):
        wall = round_wall[rnd]
        compute = phase_s.get(rnd, 0.0)
        row = {
            "round": rnd,
            "wall_s": wall,
            "compute_s": compute,
            "barrier_wait_s": 0.0,
            "halo_s": 0.0,
            "merge_s": max(0.0, wall - compute),
            "subrounds": 0,
            "halo_rows": 0,
            "halo_bytes": 0,
            "straggler_spread_s": 0.0,
        }
        rounds.append(row)
    return _run("parallel", 1, 1, rounds, deleting, [], 0.0)


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def attribute_spans(spans: Sequence[Any]) -> Optional[Dict[str, Any]]:
    """Classify an aligned span stream into per-round wall-clock lanes.

    Returns ``None`` when the stream carries no scheduling rounds.  Each
    schedule run becomes one entry of ``runs``: sharded runs split on
    their ``shard.config`` markers, unsharded ones where the round
    numbers start over.  ``totals`` aggregates the lanes across runs.
    """
    segments = _split_sharded(spans)
    if segments:
        runs = [_attribute_sharded(segment) for segment in segments]
        runs = [run for run in runs if run["rounds"]]
    else:
        runs = [
            run
            for run in map(_attribute_unsharded, _split_unsharded(spans))
            if run is not None
        ]
    if not runs:
        return None
    totals = _new_totals()
    round_count = 0
    for run in runs:
        _accumulate(totals, run["totals"])
        round_count += len(run["rounds"])
    totals["rounds"] = round_count
    return {
        "schema": ATTRIBUTION_SCHEMA,
        "mode": runs[0]["mode"],
        "runs": runs,
        "totals": totals,
    }


def attribution_from_tracer(tracer: Any) -> Optional[Dict[str, Any]]:
    """Attribution for everything a tracer has recorded so far."""
    if not getattr(tracer, "enabled", False):
        return None
    return attribute_spans(tracer.spans())


def _pct(part: float, whole: float) -> str:
    return f"{100.0 * part / whole:.1f}%" if whole > 0.0 else "0.0%"


#: ``(label, lane)`` of the summary's total line
_SUMMARY_LANES = (
    ("compute", "compute_s"),
    ("barrier-wait", "barrier_wait_s"),
    ("halo", "halo_s"),
    ("merge", "merge_s"),
)


def attribution_summary(attribution: Dict[str, Any]) -> str:
    """Human-readable attribution table (the ``--attribute`` output)."""
    totals = attribution["totals"]
    wall = totals["wall_s"]
    lanes = " + ".join(
        f"{label} {totals[lane]:.4f}s ({_pct(totals[lane], wall)})"
        for label, lane in _SUMMARY_LANES
    )
    lines = [
        f"wall-clock attribution ({attribution['schema']}, "
        f"mode={attribution['mode']}, rounds={totals['rounds']})",
        f"  total {wall:.4f}s = {lanes}",
    ]
    for index, run in enumerate(attribution["runs"]):
        lines.append(
            f"  run {index}: {len(run['rounds'])} round(s), "
            f"{run['deletion_rounds']} deleting; {run['shards']} shard(s) x "
            f"{run['workers']} worker(s), wall {run['totals']['wall_s']:.4f}s, "
            f"critical path {run['critical_path_s']:.4f}s"
        )
        lines.append(
            "    round     wall  compute     wait     halo    merge  "
            "sub   spread  halo rows/bytes"
        )
        shown = run["rounds"][:_SUMMARY_MAX_ROUNDS]
        for row in shown:
            times = " ".join(f"{row[key]:8.4f}" for key in ("wall_s",) + LANES)
            lines.append(
                f"    {row['round']:5d} {times}  {row['subrounds']:3d} "
                f"{row['straggler_spread_s']:8.4f}  "
                f"{row['halo_rows']}/{row['halo_bytes']}"
            )
        hidden = len(run["rounds"]) - len(shown)
        if hidden > 0:
            lines.append(f"    ... {hidden} more round(s)")
        if run["per_shard"]:
            busy = ", ".join(
                f"shard{entry['shard']} {entry['busy_s']:.4f}s"
                f"/{entry['subrounds']}sub"
                for entry in run["per_shard"]
            )
            lines.append(f"    per-shard busy: {busy}")
        lines.append(f"    setup: span import {run['setup']['span_import_s']:.4f}s")
    return "\n".join(lines)
