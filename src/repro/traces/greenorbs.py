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
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple, Union

from repro.network.deployment import Network, Rectangle
from repro.network.graph import NetworkGraph
from repro.network.node import Position, distance
from repro.network.topologies import grid_neighbor_pairs
from repro.traces.rssi import (
    RssiTrace,
    graph_from_trace,
    threshold_for_fraction,
)

if TYPE_CHECKING:
    import numpy as np


_TWOPI = 2.0 * math.pi  # random.TWOPI

#: how far (dB) below a receiver's ``records_per_packet``-th approximate
#: RSSI a link must fall before the exact evaluation skips it
_FILTER_MARGIN_DB = 1e-6


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


class _GaussDraws:
    """The next ``n`` ``rng.gauss`` draws, taken from the stream at once.

    ``Random.gauss`` is Box–Muller over ``random()`` pairs: it returns
    ``cos(u0 * 2π) * sqrt(-2 log(1 - u1))`` and keeps the matching sine
    term in ``rng.gauss_next`` for the next call.  A pending term is
    draw 0 (``carry``); the ``fresh`` draws from ``start`` on are
    numbered from 0 in (cosine, sine) order.  The generator is left as
    the scalar calls would leave it, with the last pair's sine term
    pending when ``fresh`` is odd.
    """

    def __init__(self, rng: random.Random, n: int) -> None:
        self.n = n
        self.carry: Optional[float] = None
        if n and rng.gauss_next is not None:
            self.carry, rng.gauss_next = rng.gauss_next, None
        self.start = int(self.carry is not None)
        self.fresh = n - self.start
        u = random_bulk(rng, 2 * ((self.fresh + 1) // 2))
        self.x2pi = u[0::2] * _TWOPI
        self.one_minus_u1 = 1.0 - u[1::2]
        if self.fresh % 2:
            rng.gauss_next = float(self.exact([self.fresh])[0])

    def exact(self, fresh: Union[Sequence[int], np.ndarray]) -> np.ndarray:
        """Fresh draws number ``fresh``, bit for bit as ``gauss`` makes them.

        NumPy does only the correctly rounded steps (multiply, subtract,
        sqrt); log, cos and sin are libm's, called through ``math`` as
        ``gauss`` calls them, because NumPy's own may differ in the last
        bit.
        """
        import numpy as np

        index = np.asarray(fresh, dtype=np.int64)
        pair = index >> 1
        log = np.fromiter(
            map(math.log, self.one_minus_u1[pair].tolist()), float, len(pair)
        )
        z = np.sqrt(-2.0 * log)
        sine = (index & 1).astype(bool)
        x2pi = self.x2pi[pair]
        z[~sine] *= np.fromiter(map(math.cos, x2pi[~sine].tolist()), float)
        z[sine] *= np.fromiter(map(math.sin, x2pi[sine].tolist()), float)
        return z

    def approximate(self) -> np.ndarray:
        """All ``n`` draws through NumPy's own log, cos and sin.

        Close to the exact draws (a few units in the last place) but not
        always equal; the generator uses them only to rule links out.
        """
        import numpy as np

        g2rad = np.sqrt(-2.0 * np.log(self.one_minus_u1))
        z = np.empty(2 * len(g2rad))
        z[0::2] = np.cos(self.x2pi) * g2rad
        z[1::2] = np.sin(self.x2pi) * g2rad
        out = np.empty(self.n)
        if self.carry is not None:
            out[0] = self.carry
        out[self.start :] = z[: self.fresh]
        return out


def gauss_bulk(
    rng: random.Random, n: int, sigma: Union[float, np.ndarray]
) -> np.ndarray:
    """The next ``n`` values of ``rng.gauss(0.0, sigma)``, bit for bit.

    ``sigma`` may be one scale or one per draw.  The ``gauss_next``
    carry is honoured on entry and left as the scalar calls would leave
    it, so bulk and scalar calls chain in any mix.
    """
    import numpy as np

    draws = _GaussDraws(rng, n)
    z = np.empty(n)
    if draws.carry is not None:
        z[0] = draws.carry
    z[draws.start :] = draws.exact(np.arange(draws.fresh))
    return 0.0 + z * sigma


def _mean_rssi(config: GreenOrbsConfig, d: float) -> float:
    d = max(d, 0.1)
    return config.tx_power_dbm - 10.0 * config.path_loss_exponent * math.log10(d)


def generate_greenorbs_trace(
    config: Optional[GreenOrbsConfig] = None, seed: int = 0
) -> GreenOrbsTrace:
    """Synthesize the deployment, run the epochs, threshold the edges."""
    config = config or GreenOrbsConfig()
    rng = random.Random(seed)
    positions = _cluster_positions(config, rng)
    trace = RssiTrace()
    trace.extend_columns(*_packet_columns(config, positions, rng))
    values = trace.edge_rssi_values()
    threshold = threshold_for_fraction(values, config.edge_keep_fraction)
    graph = graph_from_trace(trace, threshold)
    return GreenOrbsTrace(
        positions=positions,
        trace=trace,
        threshold_dbm=threshold,
        graph=graph,
        region=Rectangle(0.0, 0.0, config.strip_width, config.strip_height),
        boundary_band=config.boundary_band,
    )


def _packet_columns(
    config: GreenOrbsConfig, positions: Dict[int, Position], rng: random.Random
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every epoch's packets as ``(receiver, sender, rssi)`` columns."""
    import numpy as np

    # Both directions of every in-range pair, ordered by (receiver,
    # sender): the order in which every epoch draws the links' fading.
    # Node ids are 0..node_count-1.
    count = len(positions)
    pairs = grid_neighbor_pairs(positions, config.max_range)
    ends = np.array(pairs, dtype=np.int64).reshape(len(pairs), 2)
    receivers = np.concatenate((ends[:, 0], ends[:, 1]))
    senders = np.concatenate((ends[:, 1], ends[:, 0]))
    order = np.lexsort((senders, receivers))
    receivers, senders = receivers[order], senders[order]
    pair_of = order - len(pairs) * (order >= len(pairs))
    degree = np.bincount(receivers, minlength=count)
    links = len(receivers)

    # Epoch 1 draws each pair's static shadowing (the forest between two
    # nodes does not change across packets) on its lower-id endpoint's
    # turn, just before that link's fading.  So one bulk draw of
    # links + pairs values, each scaled by its own sigma, is the stream
    # of the scalar loop.  Distance is symmetric, so each pair's mean
    # RSSI is computed once.
    opens = receivers < senders
    fading_draw = np.arange(links) + np.cumsum(opens)
    shadow_draw = fading_draw[opens] - 1
    sigma = np.full(links + len(pairs), config.fading_sigma_db)
    sigma[shadow_draw] = config.pair_shadowing_sigma_db
    first = gauss_bulk(rng, len(sigma), sigma)
    shadow = np.empty(len(pairs))
    shadow[pair_of[opens]] = first[shadow_draw]
    mean = np.array(
        [_mean_rssi(config, distance(positions[u], positions[v])) for u, v in pairs]
    )
    bases = mean[pair_of] + shadow[pair_of]

    # Each receiver's links lie in one row of a (receiver, slot) block,
    # slots in ascending sender order and unused slots at -inf.  A
    # stable ascending argsort per row, read backwards, orders each
    # packet by (RSSI, sender) descending — the scalar tuple sort's
    # order, ties included.  The picked records go straight into one
    # preallocated column set, epoch after epoch.
    top = config.records_per_packet
    fading = config.fading_sigma_db
    epochs = max(config.epochs, 1)
    width = int(degree.max()) if count else 0
    in_row = np.arange(width) < degree[:, None]
    sender_block = np.zeros((count, width), dtype=np.int64)
    sender_block[in_row] = senders
    base_block = np.full((count, width), -np.inf)
    base_block[in_row] = bases
    kept = min(top, width)
    per_packet = np.minimum(degree, top)
    per_epoch = int(per_packet.sum())
    picked = np.arange(kept) < per_packet[:, None]
    rows = np.arange(count)[:, None]
    record_sender = np.empty(epochs * per_epoch, dtype=np.int64)
    record_rssi = np.empty(epochs * per_epoch)

    def record(epoch: int, heard: np.ndarray) -> None:
        best = np.argsort(heard, axis=1, kind="stable")[:, ::-1][:, :kept]
        span = slice(epoch * per_epoch, (epoch + 1) * per_epoch)
        record_sender[span] = sender_block[rows, best][picked]
        record_rssi[span] = heard[rows, best][picked]

    heard = base_block.copy()
    heard[in_row] += first[fading_draw]
    record(0, heard)

    # Epochs 2..E redraw only the fading.  NumPy's log/cos/sin rank the
    # links; a link more than the margin below its receiver's
    # ``kept``-th approximate value cannot make the packet, and only
    # the rest are evaluated exactly (see DESIGN.md).  With no packet
    # slot (kept == 0) there is nothing to rank or record.
    floor_slot = width - kept
    for epoch in range(1, epochs if kept else 1):
        draws = _GaussDraws(rng, links)
        normals = draws.approximate()
        approx = base_block.copy()
        approx[in_row] += 0.0 + normals * fading
        floor = np.partition(approx, floor_slot, axis=1)[:, floor_slot]
        candidate = in_row & (approx >= (floor - _FILTER_MARGIN_DB)[:, None])
        link = np.flatnonzero(candidate[in_row])
        own = link >= draws.start
        z = normals[link]
        z[own] = draws.exact(link[own] - draws.start)
        exact = bases[link] + (0.0 + z * fading)
        deviation = float(np.abs(exact - approx[candidate]).max(initial=0.0))
        if not deviation <= _FILTER_MARGIN_DB / 4:
            raise ArithmeticError(
                f"NumPy's log/cos/sin are {deviation!r} dB off libm in epoch "
                f"{epoch + 1}, more than the {_FILTER_MARGIN_DB / 4!r} dB "
                "the candidate filter allows"
            )
        heard = np.full_like(approx, -np.inf)
        heard[candidate] = exact
        record(epoch, heard)

    return (
        np.tile(np.repeat(np.arange(count), per_packet), epochs),
        record_sender,
        record_rssi,
    )
