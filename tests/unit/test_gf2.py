"""Unit tests for GF(2) linear algebra on bitmask integers."""


from repro.cycles.gf2 import GF2Basis, gf2_rank, gf2_solve


class TestGF2Basis:
    def test_empty_basis(self):
        basis = GF2Basis()
        assert basis.rank == 0
        assert basis.contains(0)
        assert not basis.contains(1)

    def test_add_independent_vectors(self):
        basis = GF2Basis()
        assert basis.add(0b001)
        assert basis.add(0b010)
        assert basis.add(0b100)
        assert basis.rank == 3

    def test_add_dependent_vector(self):
        basis = GF2Basis([0b011, 0b101])
        assert not basis.add(0b110)  # xor of the two
        assert basis.rank == 2

    def test_zero_vector_never_added(self):
        basis = GF2Basis()
        assert not basis.add(0)
        assert basis.rank == 0

    def test_reduce_returns_residue(self):
        basis = GF2Basis([0b011])
        assert basis.reduce(0b011) == 0
        assert basis.reduce(0b010) in (0b010, 0b001)

    def test_contains_span(self):
        basis = GF2Basis([0b011, 0b110])
        assert basis.contains(0b101)
        assert not basis.contains(0b111)

    def test_copy_is_independent(self):
        basis = GF2Basis([0b01])
        clone = basis.copy()
        clone.add(0b10)
        assert basis.rank == 1 and clone.rank == 2

    def test_vectors_are_reduced_rows(self):
        basis = GF2Basis([0b11, 0b10])
        rows = basis.vectors()
        assert len(rows) == 2
        assert gf2_rank(rows) == 2


class TestHelpers:
    def test_gf2_rank(self):
        assert gf2_rank([0b1, 0b10, 0b11]) == 2
        assert gf2_rank([]) == 0



class TestSolve:
    def test_solve_exact_subset(self):
        vectors = [0b001, 0b010, 0b100]
        chosen = gf2_solve(0b101, vectors)
        assert chosen is not None
        total = 0
        for i in chosen:
            total ^= vectors[i]
        assert total == 0b101

    def test_solve_unreachable_target(self):
        assert gf2_solve(0b100, [0b001, 0b010]) is None

    def test_solve_zero_target_is_empty(self):
        assert gf2_solve(0, [0b1, 0b10]) == []

    def test_solve_with_dependent_vectors(self):
        vectors = [0b011, 0b101, 0b110, 0b011]
        chosen = gf2_solve(0b110, vectors)
        assert chosen is not None
        total = 0
        for i in chosen:
            total ^= vectors[i]
        assert total == 0b110
