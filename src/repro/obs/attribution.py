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
remainder is merge.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

ATTRIBUTION_SCHEMA = "repro.attribution/v1"

#: lane keys of one attributed round, in presentation order
LANES = ("compute_s", "barrier_wait_s", "halo_s", "merge_s")


def _new_lanes() -> Dict[str, float]:
    return {lane: 0.0 for lane in LANES}


def _accumulate(total: Dict[str, float], part: Dict[str, Any]) -> None:
    for lane in LANES:
        total[lane] += part[lane]
    total["wall_s"] += part["wall_s"]


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
    marks = [
        i for i, span in enumerate(spans) if span.name == "shard.config"
    ]
    if not marks:
        return []
    bounds = marks + [len(spans)]
    return [list(spans[a:b]) for a, b in zip(bounds, bounds[1:])]


def _attribute_sharded(segment: Sequence[Any]) -> Dict[str, Any]:
    config = segment[0].attrs
    shard_count = int(config.get("shards", 1))
    assignment = config.get("assignment") or [list(range(shard_count))]

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

    per_shard_busy = {s: 0.0 for s in range(shard_count)}
    per_shard_subrounds = {s: 0 for s in range(shard_count)}
    rounds: List[Dict[str, Any]] = []
    totals = _new_lanes()
    totals["wall_s"] = 0.0

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
        _accumulate(totals, row)

    return {
        "mode": "sharded",
        "shards": shard_count,
        "workers": int(config.get("workers", 1)),
        "rounds": rounds,
        "totals": totals,
        "per_shard": [
            {
                "shard": s,
                "busy_s": per_shard_busy.get(s, 0.0),
                "subrounds": per_shard_subrounds.get(s, 0),
            }
            for s in range(shard_count)
        ],
        # Partitions ship pickled, so no worker attaches shared memory;
        # the key stays (at zero) for consumers of the attribution block.
        "setup": {
            "shm_attach_s": 0.0,
            "span_import_s": span_import_s,
        },
        "critical_path_s": totals["compute_s"],
    }


# ----------------------------------------------------------------------
# Unsharded (coarse) attribution
# ----------------------------------------------------------------------
_COMPUTE_PHASES = (
    "scheduler.candidates",
    "scheduler.mis_draw",
    "scheduler.deletion",
)


def _attribute_unsharded(spans: Sequence[Any]) -> Optional[Dict[str, Any]]:
    round_wall: Dict[int, float] = {}
    phase_s: Dict[int, float] = {}
    for span in spans:
        rnd = span.attrs.get("round")
        if rnd is None:
            continue
        if span.name == "scheduler.round":
            round_wall[rnd] = round_wall.get(rnd, 0.0) + span.wall_s
        elif span.name in _COMPUTE_PHASES:
            phase_s[rnd] = phase_s.get(rnd, 0.0) + span.wall_s
    if not round_wall:
        return None
    rounds: List[Dict[str, Any]] = []
    totals = _new_lanes()
    totals["wall_s"] = 0.0
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
        _accumulate(totals, row)
    return {
        "mode": "parallel",
        "shards": 1,
        "workers": 1,
        "rounds": rounds,
        "totals": totals,
        "per_shard": [],
        "setup": {"shm_attach_s": 0.0, "span_import_s": 0.0},
        "critical_path_s": totals["compute_s"],
    }


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def attribute_spans(spans: Sequence[Any]) -> Optional[Dict[str, Any]]:
    """Classify an aligned span stream into per-round wall-clock lanes.

    Returns ``None`` when the stream carries no scheduling rounds.  With
    ``shard.config`` markers present, each sharded schedule run becomes
    one entry of ``runs``; otherwise a single coarse unsharded run is
    attributed.  ``totals`` aggregates the lanes across runs.
    """
    segments = _split_sharded(spans)
    if segments:
        runs = [_attribute_sharded(segment) for segment in segments]
        runs = [run for run in runs if run["rounds"]]
    else:
        run = _attribute_unsharded(spans)
        runs = [run] if run is not None else []
    if not runs:
        return None
    totals = _new_lanes()
    totals["wall_s"] = 0.0
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
    if whole <= 0.0:
        return "  0.0%"
    return f"{100.0 * part / whole:5.1f}%"


def attribution_summary(
    attribution: Dict[str, Any], max_rounds: int = 40
) -> str:
    """Human-readable attribution table (the ``--attribute`` output)."""
    lines: List[str] = []
    totals = attribution["totals"]
    lines.append(
        f"wall-clock attribution ({attribution['schema']}, "
        f"mode={attribution['mode']}, rounds={totals['rounds']})"
    )
    wall = totals["wall_s"]
    lines.append(
        "  total %.4fs = compute %.4fs (%s) + barrier-wait %.4fs (%s) "
        "+ halo %.4fs (%s) + merge %.4fs (%s)"
        % (
            wall,
            totals["compute_s"],
            _pct(totals["compute_s"], wall).strip(),
            totals["barrier_wait_s"],
            _pct(totals["barrier_wait_s"], wall).strip(),
            totals["halo_s"],
            _pct(totals["halo_s"], wall).strip(),
            totals["merge_s"],
            _pct(totals["merge_s"], wall).strip(),
        )
    )
    for index, run in enumerate(attribution["runs"]):
        run_totals = run["totals"]
        lines.append(
            f"  run {index}: {run['shards']} shard(s) x "
            f"{run['workers']} worker(s), wall {run_totals['wall_s']:.4f}s, "
            f"critical path {run['critical_path_s']:.4f}s"
        )
        header = (
            "    round     wall  compute     wait     halo    merge  "
            "sub   spread  halo rows/bytes"
        )
        lines.append(header)
        shown = run["rounds"][:max_rounds]
        for row in shown:
            lines.append(
                "    %5d %8.4f %8.4f %8.4f %8.4f %8.4f  %3d %8.4f  %d/%d"
                % (
                    row["round"],
                    row["wall_s"],
                    row["compute_s"],
                    row["barrier_wait_s"],
                    row["halo_s"],
                    row["merge_s"],
                    row["subrounds"],
                    row["straggler_spread_s"],
                    row["halo_rows"],
                    row["halo_bytes"],
                )
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
        setup = run["setup"]
        lines.append(
            "    setup: span import %.4fs" % setup["span_import_s"]
        )
    return "\n".join(lines)
