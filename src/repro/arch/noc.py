"""Network-on-chip cost models.

Both the chip tier (``core_noc``/``core_noc_cost``, Fig. 5) and the core tier
(``xb_noc``/``xb_noc_cost``, Fig. 6) abstract their interconnect as a type
plus a transfer-cost matrix.  We provide the named topologies the paper
mentions ('Mesh', 'H-tree', shared-buffer switch) as hop-count generators; a
raw matrix can also be supplied for measured hardware.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ArchitectureError
from ..perf.kernels import (
    htree_hop_array,
    mesh_hop_array,
    seq_sum,
    shared_bus_hop_array,
)

#: NoC topology names accepted by :class:`NocSpec`.
TOPOLOGIES = ("mesh", "h-tree", "shared-bus", "ideal", "matrix")


def _mesh_grid(n: int, grid: Optional[Tuple[int, int]]) -> Tuple[int, int]:
    """(rows, cols) of the mesh layout: given, or near-square for ``n``.

    Shared by the list-form :func:`mesh_hops` and the vectorized
    :meth:`NocSpec.cost_array`, so the two can never disagree on the
    geometry.
    """
    if grid is None:
        rows = int(math.sqrt(n)) or 1
        return rows, (n + rows - 1) // rows
    rows, cols = grid
    if rows * cols < n:
        raise ArchitectureError(f"grid {grid} too small for {n} units")
    return rows, cols


def mesh_hops(n: int, grid: Optional[Tuple[int, int]] = None) -> List[List[int]]:
    """Manhattan hop counts on a (near-)square 2-D mesh of ``n`` units."""
    rows, cols = _mesh_grid(n, grid)
    coords = [(i // cols, i % cols) for i in range(n)]
    return [
        [abs(ra - rb) + abs(ca - cb) for (rb, cb) in coords]
        for (ra, ca) in coords
    ]


def htree_hops(n: int) -> List[List[int]]:
    """Hop counts on an H-tree: distance = 2 * (levels above deepest common
    ancestor) in a balanced binary tree over unit indices."""
    def depth_of_lca(a: int, b: int) -> int:
        # Leaves are at depth ceil(log2 n); walk up until indices merge.
        hops = 0
        while a != b:
            a //= 2
            b //= 2
            hops += 1
        return hops

    return [[2 * depth_of_lca(i, j) if i != j else 0 for j in range(n)]
            for i in range(n)]


def shared_bus_hops(n: int) -> List[List[int]]:
    """Uniform single-hop cost: every pair communicates via one shared
    buffer/bus (the Section 3.4 example uses shared-memory communication)."""
    return [[0 if i == j else 1 for j in range(n)] for i in range(n)]


@dataclass(frozen=True)
class NocSpec:
    """Interconnect abstraction for one tier.

    Parameters
    ----------
    topology:
        One of :data:`TOPOLOGIES`.  ``"ideal"`` means transfers are free
        (the paper marks unconstrained parameters with ``\\``).
    cycles_per_hop:
        Latency multiplier applied to the hop-count matrix.
    cost_matrix:
        Explicit per-pair cost (required iff ``topology == "matrix"``).
    grid:
        Optional (rows, cols) layout for mesh hop generation.
    """

    topology: str = "ideal"
    cycles_per_hop: float = 1.0
    cost_matrix: Optional[Tuple[Tuple[float, ...], ...]] = None
    grid: Optional[Tuple[int, int]] = None

    def __post_init__(self) -> None:
        if self.topology not in TOPOLOGIES:
            raise ArchitectureError(
                f"unknown NoC topology {self.topology!r}; choose {TOPOLOGIES}"
            )
        if self.topology == "matrix" and self.cost_matrix is None:
            raise ArchitectureError("topology 'matrix' requires cost_matrix")
        if self.cycles_per_hop < 0:
            raise ArchitectureError("cycles_per_hop must be non-negative")

    def hop_matrix(self, n: int) -> List[List[float]]:
        """Pairwise transfer cost (cycles per unit payload) for ``n`` units."""
        if self.topology == "ideal":
            return [[0.0] * n for _ in range(n)]
        if self.topology == "matrix":
            matrix = [list(row) for row in self.cost_matrix]  # type: ignore[union-attr]
            if len(matrix) < n or any(len(row) < n for row in matrix):
                raise ArchitectureError(
                    f"cost_matrix smaller than unit count {n}"
                )
            return [[matrix[i][j] for j in range(n)] for i in range(n)]
        if self.topology == "mesh":
            hops = mesh_hops(n, self.grid)
        elif self.topology == "h-tree":
            hops = htree_hops(n)
        else:  # shared-bus
            hops = shared_bus_hops(n)
        return [[h * self.cycles_per_hop for h in row] for row in hops]

    def cost_array(self, n: int) -> np.ndarray:
        """Vectorized :meth:`hop_matrix`: the n x n pairwise cost as a
        float64 array, entry-for-entry identical to the list form (each
        entry is the same single ``hop * cycles_per_hop`` multiply)."""
        if self.topology == "ideal":
            return np.zeros((n, n), dtype=np.float64)
        if self.topology == "matrix":
            return np.array(self.hop_matrix(n), dtype=np.float64)
        if self.topology == "mesh":
            rows, cols = _mesh_grid(n, self.grid)
            hops = mesh_hop_array(n, rows, cols)
        elif self.topology == "h-tree":
            hops = htree_hop_array(n)
        else:  # shared-bus
            hops = shared_bus_hop_array(n)
        return hops.astype(np.float64) * self.cycles_per_hop

    def average_cost(self, n: int) -> float:
        """Mean pairwise cost between distinct units (0 for n <= 1).

        Computed through the vectorized hop kernels and memoized per
        ``(spec, n)`` — this is the single hottest quantity of the whole
        compiler (``CostModel._mov_cycles`` asks for it once per
        operator, and a naive evaluation walks all ``n**2`` unit pairs
        each time).
        """
        if n <= 1:
            return 0.0
        return _average_cost(self, n)

    def max_cost(self, n: int) -> float:
        """Worst-case pairwise cost (network diameter in cycles)."""
        return _max_cost(self, n)


@lru_cache(maxsize=None)
def _average_cost(spec: NocSpec, n: int) -> float:
    """Memoized vectorized :meth:`NocSpec.average_cost`.

    Entries are the per-pair ``hop * cycles_per_hop`` multiplies, the
    diagonal contributes exact zeros, and
    :func:`~repro.perf.kernels.seq_sum` adds left to right, so the value
    equals a Python double loop over the distinct pairs.  Keyed by the
    frozen spec *value*, so every preset sharing a topology shares the
    entry.
    """
    costs = spec.cost_array(n)
    np.fill_diagonal(costs, 0.0)
    return seq_sum(costs.ravel()) / (n * (n - 1))


@lru_cache(maxsize=None)
def _max_cost(spec: NocSpec, n: int) -> float:
    """Memoized vectorized :meth:`NocSpec.max_cost`."""
    if n <= 0:
        return 0.0
    return float(spec.cost_array(n).max())


@lru_cache(maxsize=None)
def hop_cost_array(spec: NocSpec, n: int) -> np.ndarray:
    """Memoized, *read-only* :meth:`NocSpec.cost_array`.

    The greedy placer asks for the same n x n hop geometry once per
    segment; rebuilding it from Python lists dominated the placement
    wall-clock.  The array is marked read-only because it is shared
    across callers (consumers that need to mutate — like
    :func:`_average_cost`'s diagonal fill — must keep calling
    :meth:`~NocSpec.cost_array` for a private copy).
    """
    costs = spec.cost_array(n)
    costs.setflags(write=False)
    return costs


#: Convenience instances.
IDEAL_NOC = NocSpec("ideal")


def mesh(cycles_per_hop: float = 1.0,
         grid: Optional[Tuple[int, int]] = None) -> NocSpec:
    """A 2-D mesh NoC."""
    return NocSpec("mesh", cycles_per_hop, grid=grid)


def htree(cycles_per_hop: float = 1.0) -> NocSpec:
    """An H-tree NoC."""
    return NocSpec("h-tree", cycles_per_hop)


def shared_bus(cycles_per_hop: float = 1.0) -> NocSpec:
    """A shared-buffer / bus interconnect."""
    return NocSpec("shared-bus", cycles_per_hop)


def matrix_noc(costs: Sequence[Sequence[float]]) -> NocSpec:
    """A NoC defined by an explicit measured cost matrix."""
    frozen = tuple(tuple(float(c) for c in row) for row in costs)
    return NocSpec("matrix", 1.0, cost_matrix=frozen)
