"""NoC cost models: structural properties of each topology."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.arch import NocSpec, htree, matrix_noc, mesh, shared_bus
from repro.arch.noc import htree_hops, mesh_hops, shared_bus_hops
from repro.errors import ArchitectureError


class TestMesh:
    def test_adjacent_cost_one(self):
        hops = mesh_hops(4, grid=(2, 2))
        assert hops[0][1] == 1
        assert hops[0][3] == 2  # diagonal

    def test_diameter(self):
        hops = mesh_hops(16, grid=(4, 4))
        assert max(max(row) for row in hops) == 6  # (4-1)+(4-1)

    def test_grid_too_small_rejected(self):
        with pytest.raises(ArchitectureError):
            mesh_hops(10, grid=(3, 3))


class TestHTree:
    def test_siblings_cost_two(self):
        hops = htree_hops(8)
        assert hops[0][1] == 2

    def test_opposite_halves_cost_most(self):
        hops = htree_hops(8)
        assert hops[0][7] == 2 * 3


class TestSharedBus:
    def test_uniform_single_hop(self):
        hops = shared_bus_hops(5)
        for i in range(5):
            for j in range(5):
                assert hops[i][j] == (0 if i == j else 1)


@pytest.mark.parametrize("spec", [mesh(), htree(), shared_bus()])
@given(n=st.integers(1, 24))
def test_hop_matrix_properties(spec, n):
    """Every topology yields a symmetric, zero-diagonal, non-negative
    cost matrix."""
    matrix = spec.hop_matrix(n)
    assert len(matrix) == n
    for i in range(n):
        assert matrix[i][i] == 0
        for j in range(n):
            assert matrix[i][j] == matrix[j][i]
            assert matrix[i][j] >= 0


class TestNocSpec:
    def test_ideal_is_free(self):
        spec = NocSpec("ideal")
        assert spec.average_cost(16) == 0.0
        assert spec.max_cost(16) == 0.0

    def test_unknown_topology_rejected(self):
        with pytest.raises(ArchitectureError):
            NocSpec("torus")

    def test_matrix_requires_costs(self):
        with pytest.raises(ArchitectureError):
            NocSpec("matrix")

    def test_matrix_noc(self):
        spec = matrix_noc([[0, 5], [5, 0]])
        assert spec.hop_matrix(2)[0][1] == 5
        assert spec.average_cost(2) == 5

    def test_matrix_too_small_rejected(self):
        spec = matrix_noc([[0, 1], [1, 0]])
        with pytest.raises(ArchitectureError):
            spec.hop_matrix(3)

    def test_cycles_per_hop_scales(self):
        assert mesh(cycles_per_hop=2.0).hop_matrix(4)[0][1] == 2.0

    def test_average_cost_single_unit(self):
        assert mesh().average_cost(1) == 0.0

    def test_negative_hop_cost_rejected(self):
        with pytest.raises(ArchitectureError):
            NocSpec("mesh", cycles_per_hop=-1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_hop_cost_rejected(self, value):
        # Unchecked, a NaN hop cost compiles to a NaN total_cycles, and
        # an infinite one ends in a misleading CapacityError.
        with pytest.raises(ArchitectureError, match="cycles_per_hop"):
            mesh(value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_bad_matrix_entries_rejected(self, value):
        with pytest.raises(ArchitectureError, match="cost_matrix"):
            matrix_noc([[0.0, value], [1.0, 0.0]])


class TestFree:
    """``is_free``: every pairwise transfer costs exactly 0."""

    @pytest.mark.parametrize("spec", [
        NocSpec("ideal"), NocSpec("ideal", cycles_per_hop=3.0), mesh(0.0),
        htree(0.0), shared_bus(0.0), matrix_noc([[0, 0], [0, 0]])])
    def test_zero_cost_nocs_are_free(self, spec):
        assert spec.is_free
        assert spec.max_cost(2) == 0.0

    @pytest.mark.parametrize("spec", [
        mesh(), mesh(0.5), htree(), shared_bus(),
        matrix_noc([[0, 0.5], [0, 0]])])
    def test_costly_nocs_are_not_free(self, spec):
        assert not spec.is_free
        assert spec.max_cost(2) > 0.0
