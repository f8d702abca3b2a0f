"""A synthetic GreenOrbs-like forest deployment and its RSSI trace.

The paper's Section VI-B evaluates DCC on a topology extracted from two
days of GreenOrbs packets — roughly three hundred sensors scattered in a
forest, a long-narrow overall shape, and radio links that deviate strongly
from the unit disk model.  The raw traces are not public, so this module
synthesises an equivalent workload (see DESIGN.md, substitution 1):

* ~296 nodes in a long-narrow strip, placed as a jittered cluster mixture
  (forest deployments are not uniform);
* log-distance path loss with log-normal shadowing per link (a static
  shadowing offset per node pair plus per-packet fading), which yields
  both long links and missing short links — the non-UDG irregularity the
  experiment exercises;
* every epoch each node emits a packet carrying its <= 10 best-RSSI
  neighbours of that moment;
* records accumulate over the window, directed edges are dropped, and the
  threshold keeps ~80% of undirected edges.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.network.deployment import Network, Rectangle
from repro.network.graph import NetworkGraph
from repro.network.node import Position, distance
from repro.network.topologies import grid_neighbor_pairs
from repro.traces.rssi import (
    RssiRecord,
    RssiTrace,
    graph_from_trace,
    threshold_for_fraction,
)

if TYPE_CHECKING:
    import numpy as np


_TWOPI = 2.0 * math.pi  # random.TWOPI


@dataclass
class GreenOrbsConfig:
    """Knobs of the synthetic trace generator (defaults mirror the paper)."""

    node_count: int = 296
    strip_width: float = 400.0
    strip_height: float = 90.0
    clusters: int = 12
    cluster_sigma: float = 20.0
    epochs: int = 80
    records_per_packet: int = 10
    tx_power_dbm: float = -48.0
    path_loss_exponent: float = 3.2
    pair_shadowing_sigma_db: float = 2.5
    fading_sigma_db: float = 5.0
    max_range: float = 75.0
    edge_keep_fraction: float = 0.8
    boundary_band: float = 18.0


@dataclass
class GreenOrbsTrace:
    """The generated deployment, raw trace, threshold and final topology."""

    positions: Dict[int, Position]
    trace: RssiTrace
    threshold_dbm: float
    graph: NetworkGraph
    region: Rectangle
    boundary_band: float

    def as_network(self, rc: float, rs: float) -> Network:
        """Wrap the trace topology as a :class:`Network` for scheduling."""
        giant = max(self.graph.connected_components(), key=len)
        graph = self.graph.induced_subgraph(giant)
        network = Network(
            graph=graph,
            positions={v: self.positions[v] for v in giant},
            region=self.region,
            rc=rc,
            rs=rs,
            boundary_band=self.boundary_band,
        )
        network.classify_boundary()
        return network


def _cluster_positions(
    config: GreenOrbsConfig, rng: random.Random
) -> Dict[int, Position]:
    """Forest-like placement: clusters strung along a long-narrow strip."""
    region = Rectangle(0.0, 0.0, config.strip_width, config.strip_height)
    centers = [
        (
            (i + 0.5) * config.strip_width / config.clusters,
            rng.uniform(0.25 * config.strip_height, 0.75 * config.strip_height),
        )
        for i in range(config.clusters)
    ]
    positions: Dict[int, Position] = {}
    for node in range(config.node_count):
        cx, cy = centers[node % config.clusters]
        for __ in range(64):
            x = rng.gauss(cx, config.cluster_sigma)
            y = rng.gauss(cy, config.cluster_sigma * 0.6)
            if region.contains((x, y)):
                positions[node] = (x, y)
                break
        else:
            positions[node] = region.sample(rng)
    return positions


def random_bulk(rng: random.Random, n: int) -> np.ndarray:
    """The next ``n`` values of ``rng.random()``, from one ``getrandbits`` call.

    ``random()`` is ``(a * 2**26 + b) * 2**-53`` with ``a = w0 >> 5`` and
    ``b = w1 >> 6`` over two consecutive 32-bit Mersenne Twister words;
    ``getrandbits(64 * n)`` returns those words least significant first,
    so its little-endian bytes are the stream in draw order.  Every step
    is exact in float64, and the generator ends in the same state.
    """
    import numpy as np

    words = np.frombuffer(
        rng.getrandbits(64 * n).to_bytes(8 * n, "little"), dtype="<u4"
    ).reshape(n, 2)
    return ((words[:, 0] >> 5) * 67108864.0 + (words[:, 1] >> 6)) * 2.0**-53


def gauss_bulk(rng: random.Random, n: int, sigma: float) -> np.ndarray:
    """The next ``n`` values of ``rng.gauss(0.0, sigma)``, bit for bit.

    ``Random.gauss`` is Box–Muller over ``random()`` pairs: it returns
    ``cos(u0 * 2π) * sqrt(-2 log(1 - u1))`` and keeps the matching sine
    term in ``rng.gauss_next`` for the next call.  The carry is honoured
    on entry and left as the scalar calls would leave it.  NumPy does
    only the correctly rounded steps (multiply, subtract, add, sqrt);
    log, cos and sin are libm's, called through ``math`` as ``gauss``
    calls them, because NumPy's own may differ in the last bit.
    """
    import numpy as np

    out = np.empty(n)
    fresh = n
    if n and rng.gauss_next is not None:
        out[0] = rng.gauss_next
        rng.gauss_next = None
        fresh -= 1
    pairs = (fresh + 1) // 2
    if pairs:
        u = random_bulk(rng, 2 * pairs)
        x2pi = (u[0::2] * _TWOPI).tolist()
        log = np.fromiter(map(math.log, (1.0 - u[1::2]).tolist()), float, pairs)
        g2rad = np.sqrt(-2.0 * log)
        z = np.empty(2 * pairs)
        z[0::2] = np.fromiter(map(math.cos, x2pi), float, pairs) * g2rad
        z[1::2] = np.fromiter(map(math.sin, x2pi), float, pairs) * g2rad
        out[n - fresh :] = z[:fresh]
        rng.gauss_next = float(z[-1]) if fresh % 2 else None
    return 0.0 + out * sigma


def _mean_rssi(config: GreenOrbsConfig, d: float) -> float:
    d = max(d, 0.1)
    return config.tx_power_dbm - 10.0 * config.path_loss_exponent * math.log10(d)


def generate_greenorbs_trace(
    config: Optional[GreenOrbsConfig] = None, seed: int = 0
) -> GreenOrbsTrace:
    """Synthesize the deployment, run the epochs, threshold the edges."""
    import numpy as np

    config = config or GreenOrbsConfig()
    rng = random.Random(seed)
    positions = _cluster_positions(config, rng)
    region = Rectangle(0.0, 0.0, config.strip_width, config.strip_height)

    # Static per-pair shadowing: the forest between two nodes does not
    # change across packets, only fast fading does.
    pair_shadow: Dict[Tuple[int, int], float] = {}

    def shadow(u: int, v: int) -> float:
        key = (u, v) if u < v else (v, u)
        value = pair_shadow.get(key)
        if value is None:
            value = rng.gauss(0.0, config.pair_shadowing_sigma_db)
            pair_shadow[key] = value
        return value

    # Grid-bucketed range search; appending both directions of the
    # sorted pair list leaves each adjacency list in ascending order —
    # exactly the order the old all-pairs scan produced, so the rng
    # draws below consume the stream identically.
    nodes = sorted(positions)
    neighbors_in_range: Dict[int, List[int]] = {v: [] for v in nodes}
    for u, v in grid_neighbor_pairs(positions, config.max_range):
        neighbors_in_range[u].append(v)
        neighbors_in_range[v].append(u)

    trace = RssiTrace()
    gauss = rng.gauss
    fading = config.fading_sigma_db
    top = config.records_per_packet
    # Epoch 1 is drawn scalar: the lazy shadow() draws stay interleaved
    # with the fading draws, as the rng stream requires.  It also fixes
    # each link's static mean RSSI + shadowing; later epochs redraw only
    # the fading.
    bases: List[float] = []
    packets: List[Tuple[int, int, float]] = []
    for receiver in nodes:
        heard: List[Tuple[float, int]] = []
        for sender in neighbors_in_range[receiver]:
            d = distance(positions[receiver], positions[sender])
            base = _mean_rssi(config, d) + shadow(receiver, sender)
            bases.append(base)
            heard.append((base + gauss(0.0, fading), sender))
        heard.sort(reverse=True)
        packets.extend((receiver, sender, rssi) for rssi, sender in heard[:top])
    trace.extend(RssiRecord(*packet) for packet in packets)

    # Epochs 2..E, one epoch at a time: links laid out as a
    # (receiver, slot) block, slots in ascending sender order and unused
    # slots at -inf.  A stable ascending argsort per row, read backwards,
    # orders each packet by (RSSI, sender) descending — the tuple sort's
    # order, ties included.
    degree = np.array([len(neighbors_in_range[v]) for v in nodes], dtype=np.int64)
    width = int(degree.max()) if len(nodes) else 0
    in_row = np.arange(width) < degree[:, None]
    sender_block = np.zeros((len(nodes), width), dtype=np.int64)
    sender_block[in_row] = [s for v in nodes for s in neighbors_in_range[v]]
    base_block = np.full((len(nodes), width), -np.inf)
    base_block[in_row] = bases
    kept = min(top, width)
    picked = np.arange(kept) < np.minimum(degree, top)[:, None]
    receiver_column = np.repeat(np.asarray(nodes, dtype=np.int64), np.minimum(degree, top))
    rows = np.arange(len(nodes))[:, None]
    for __ in range(1, config.epochs):
        heard_block = base_block.copy()
        heard_block[in_row] += gauss_bulk(rng, len(bases), fading)
        best = np.argsort(heard_block, axis=1, kind="stable")[:, ::-1][:, :kept]
        trace.extend_columns(
            receiver_column,
            sender_block[rows, best][picked],
            heard_block[rows, best][picked],
        )

    values = trace.edge_rssi_values()
    threshold = threshold_for_fraction(values, config.edge_keep_fraction)
    graph = graph_from_trace(trace, threshold)
    return GreenOrbsTrace(
        positions=positions,
        trace=trace,
        threshold_dbm=threshold,
        graph=graph,
        region=region,
        boundary_band=config.boundary_band,
    )
