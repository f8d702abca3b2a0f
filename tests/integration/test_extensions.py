"""Integration tests for the extension subsystems.

Barrier scheduling and lifetime rotation compose with the same deployment/boundary/criterion pipeline as the core scheduler.
"""

import random

import pytest

from repro.core.barrier import barrier_strength, schedule_barrier
from repro.core.lifetime import rotation_simulation
from repro.network.deployment import Rectangle, build_network
from repro.network.energy import EnergyModel
from repro.network.topologies import triangulated_grid


class TestBarrierOnDeployment:
    @pytest.fixture(scope="class")
    def belt(self):
        network = build_network(
            130, Rectangle(0, 0, 6, 1.6), rc=1.0, rs=0.6, seed=13,
            boundary_band=0.25,
        )
        left = {v for v, (x, __) in network.positions.items() if x <= 0.5}
        right = {
            v
            for v, (x, __) in network.positions.items()
            if x >= network.region.x1 - 0.5
        }
        return network, left, right

    def test_strength_positive_on_dense_belt(self, belt):
        network, left, right = belt
        result = barrier_strength(network.graph, left, right, network.gamma)
        assert result.strength >= 2

    def test_scheduled_chains_form_sensing_walls(self, belt):
        """Every chain is an unbroken wall of overlapping sensing disks."""
        from repro.network.node import distance

        network, left, right = belt
        result = barrier_strength(network.graph, left, right, network.gamma)
        for chain in result.chains:
            for a, b in zip(chain, chain[1:]):
                gap = distance(network.positions[a], network.positions[b])
                assert gap <= 2 * network.rs + 1e-9

    def test_schedule_is_sparse(self, belt):
        network, left, right = belt
        active = schedule_barrier(
            network.graph, left, right, network.gamma, k=1
        )
        assert active is not None
        assert len(active) < 0.4 * len(network.graph)


class TestLifetimeOnDeployment:
    def test_rotation_on_mesh_preserves_criterion_while_alive(self):
        mesh = triangulated_grid(8, 8)
        boundary = mesh.outer_boundary
        model = EnergyModel(
            battery_capacity=6.0, active_cost=1.0, sleep_cost=0.1
        )
        report = rotation_simulation(
            mesh.graph,
            [boundary],
            boundary,
            tau=6,
            model=model,
            rng=random.Random(0),
            record_every=1,
        )
        assert report.shifts_survived >= model.always_on_shifts
        assert all(record.criterion_holds for record in report.records)

