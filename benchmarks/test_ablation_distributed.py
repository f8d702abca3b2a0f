"""Ablation bench: distributed protocol vs centralized scheduler.

DESIGN.md calls out MIS-parallel deletion as a design choice; this bench
quantifies the distributed execution (rounds, messages) against the
centralized oracle on the same deployment, and checks both land on valid
fixpoints of comparable size.
"""

import random

from repro.core.scheduler import dcc_schedule
from repro.core.vpt import deletable_vertices
from repro.network.deployment import Rectangle, build_network
from repro.runtime.protocol import distributed_dcc_schedule


def _run_both():
    net = build_network(130, Rectangle(0, 0, 5.2, 5.2), 1.0, 1.0, seed=21)
    protected = set(net.boundary_nodes)
    central = dcc_schedule(net.graph, protected, 3, rng=random.Random(0))
    distributed = distributed_dcc_schedule(
        net.graph, protected, 3, rng=random.Random(0)
    )
    return net, protected, central, distributed


def test_ablation_distributed_vs_central(benchmark):
    net, protected, central, distributed = benchmark.pedantic(
        _run_both, rounds=1, iterations=1
    )
    print()
    print("Ablation (distributed execution of DCC, tau=3):")
    print(
        f"  centralized : active={central.num_active} "
        f"tests={central.counters.deletability_tests}"
    )
    print(
        f"  distributed : active={distributed.num_active} "
        f"iterations={distributed.iterations} {distributed.stats.summary()}"
    )
    for graph in (central.active, distributed.active):
        assert deletable_vertices(graph, 3, exclude=protected) == []
    assert abs(central.num_active - distributed.num_active) <= 0.1 * len(
        net.graph
    )
    # the protocol actually exchanged messages in all three phases
    assert set(distributed.stats.messages_by_kind) == {
        "topology",
        "priority",
        "delete",
    }
