"""Unit tests for energy-aware scheduling and rotation lifetime."""

import random

import pytest

from repro.core.criterion import is_tau_partitionable
from repro.core.lifetime import (
    energy_aware_schedule,
    rotation_simulation,
)
from repro.core.vpt import deletable_vertices
from repro.network.energy import EnergyModel
from repro.network.topologies import triangulated_grid


class TestEnergyAwareSchedule:
    def test_reaches_valid_fixpoint(self):
        mesh = triangulated_grid(7, 7)
        boundary = set(mesh.outer_boundary)
        residual = {v: 1.0 for v in mesh.graph.vertices()}
        result = energy_aware_schedule(
            mesh.graph, boundary, 6, residual, rng=random.Random(0)
        )
        assert deletable_vertices(result.active, 6, exclude=boundary) == []
        assert is_tau_partitionable(result.active, [mesh.outer_boundary], 6)

    def test_low_energy_nodes_rest_first(self):
        """With two redundant apexes, the tired one sleeps."""
        from repro.network.graph import NetworkGraph

        g = NetworkGraph(range(3), [(0, 1), (1, 2), (2, 0)])
        for apex in (3, 4):
            g.add_vertex(apex)
            for v in (0, 1, 2):
                g.add_edge(apex, v)
        residual = {0: 9.0, 1: 9.0, 2: 9.0, 3: 1.0, 4: 9.0}
        result = energy_aware_schedule(
            g, [0, 1, 2], 3, residual, rng=random.Random(1)
        )
        assert 3 in result.removed  # the tired apex rests

    def test_missing_protected_raises(self):
        mesh = triangulated_grid(4, 4)
        with pytest.raises(KeyError):
            energy_aware_schedule(mesh.graph, [999], 4, {})


class TestRotation:
    @pytest.fixture
    def mesh(self):
        return triangulated_grid(7, 7)

    def test_rotation_beats_always_on(self, mesh):
        model = EnergyModel(battery_capacity=8.0, active_cost=1.0, sleep_cost=0.1)
        report = rotation_simulation(
            mesh.graph,
            [mesh.outer_boundary],
            mesh.outer_boundary,
            tau=6,
            model=model,
            rng=random.Random(2),
        )
        assert report.shifts_survived >= report.always_on_shifts
        assert report.lifetime_gain >= 1.0
        assert report.cause_of_death in (
            "criterion lost",
            "protected node depleted",
            "max shifts reached",
        )

    def test_mortal_boundary_ends_at_capacity(self, mesh):
        model = EnergyModel(battery_capacity=5.0, active_cost=1.0, sleep_cost=0.0)
        report = rotation_simulation(
            mesh.graph,
            [mesh.outer_boundary],
            mesh.outer_boundary,
            tau=6,
            model=model,
            rng=random.Random(3),
            boundary_immortal=False,
        )
        # boundary is always active, so it dies exactly at capacity
        assert report.shifts_survived == model.always_on_shifts
        assert report.cause_of_death == "protected node depleted"

    def test_dead_unprotected_boundary_loses_the_criterion(self, mesh):
        # Sleeping costs as much as sensing, so every node dies at capacity;
        # nothing is protected, so the boundary nodes leave the graph.
        model = EnergyModel(battery_capacity=2.0, active_cost=1.0, sleep_cost=1.0)
        report = rotation_simulation(
            mesh.graph,
            [mesh.outer_boundary],
            [],
            tau=6,
            model=model,
            rng=random.Random(6),
            boundary_immortal=False,
            max_shifts=10,
        )
        assert report.shifts_survived == 2
        assert report.cause_of_death == "criterion lost"

    def test_max_shifts_cap(self, mesh):
        model = EnergyModel(battery_capacity=100.0, active_cost=1.0)
        report = rotation_simulation(
            mesh.graph,
            [mesh.outer_boundary],
            mesh.outer_boundary,
            tau=6,
            model=model,
            rng=random.Random(4),
            max_shifts=3,
        )
        assert report.shifts_survived == 3
        assert report.cause_of_death == "max shifts reached"

    def test_records_and_formatting(self, mesh):
        model = EnergyModel(battery_capacity=4.0, active_cost=1.0, sleep_cost=0.1)
        report = rotation_simulation(
            mesh.graph,
            [mesh.outer_boundary],
            mesh.outer_boundary,
            tau=6,
            model=model,
            rng=random.Random(5),
            record_every=2,
        )
        assert report.records
        table = report.format_table()
        assert "Lifetime:" in table
        assert "shift" in table
