"""Tier architecture parameters (Abs-arch, Figs. 5/6/8).

Three frozen dataclasses mirror the paper's parameter tables:

* :class:`ChipTier`   — Fig. 5: ``core_number``, ``ALU``, ``core_noc``,
  ``core_noc_cost``, ``L0 size``, ``L0 BW``.
* :class:`CoreTier`   — Fig. 6: ``xb_number``, ``ALU``, ``xb_noc``,
  ``xb_noc_cost``, ``L1 size``, ``L1 BW``.
* :class:`CrossbarTier` — Fig. 8: ``xb_size``, ``parallel row``, ``DAC``,
  ``ADC``, ``Type``, ``Precision``.

Parameters the paper marks ideal ("\\") default to ``None`` / unconstrained
values: an ideal buffer has infinite bandwidth, an ideal ALU is infinitely
fast, an ideal NoC is free.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..errors import ArchitectureError
from .noc import IDEAL_NOC, NocSpec


class CellType(enum.Enum):
    """Memory-cell technology of the crossbar (Fig. 8 ``Type``).

    The cell type determines write behaviour: SRAM rewrites cheaply
    (weights may be streamed), while ReRAM / FLASH / PCM / STT-MRAM writes
    are expensive and weights stay frozen during inference (Section 2.1).
    """

    SRAM = "SRAM"
    RERAM = "ReRAM"
    FLASH = "FLASH"
    PCM = "PCM"
    STT_MRAM = "STT-MRAM"

    @property
    def cheap_writes(self) -> bool:
        """True when in-computation weight rewrites are practical."""
        return self is CellType.SRAM

    #: Relative write cost vs. a read, used by the performance simulator.
    @property
    def write_cost_ratio(self) -> float:
        return _WRITE_COST_RATIO[self]


_WRITE_COST_RATIO = {
    CellType.SRAM: 1.0,
    CellType.RERAM: 20.0,
    CellType.FLASH: 100.0,
    CellType.PCM: 40.0,
    CellType.STT_MRAM: 8.0,
}


def _check_positive(name: str, value) -> None:
    if value is not None and value <= 0:
        raise ArchitectureError(f"{name} must be positive, got {value}")


@dataclass(frozen=True)
class ChipTier:
    """Chip-tier parameters (Fig. 5).

    ``core_number`` may be given as a total or as a (rows, cols) grid via
    ``core_grid``; ``alu_ops`` is digit-computing capacity in operations per
    cycle (``None`` = ideal); ``l0_size_bits``/``l0_bw_bits`` describe the
    global buffer (``None`` = ideal).
    """

    core_number: int
    core_grid: Optional[Tuple[int, int]] = None
    alu_ops: Optional[float] = None
    core_noc: NocSpec = field(default=IDEAL_NOC)
    l0_size_bits: Optional[int] = None
    l0_bw_bits: Optional[float] = None

    def __post_init__(self) -> None:
        _check_positive("core_number", self.core_number)
        _check_positive("alu_ops", self.alu_ops)
        _check_positive("l0_size_bits", self.l0_size_bits)
        _check_positive("l0_bw_bits", self.l0_bw_bits)
        if self.core_grid is not None:
            r, c = self.core_grid
            if r * c != self.core_number:
                raise ArchitectureError(
                    f"core_grid {self.core_grid} does not match "
                    f"core_number {self.core_number}"
                )


@dataclass(frozen=True)
class CoreTier:
    """Core-tier parameters (Fig. 6): crossbar count/grid, core-local ALU,
    intra-core NoC, and L1 buffer."""

    xb_number: int
    xb_grid: Optional[Tuple[int, int]] = None
    alu_ops: Optional[float] = None
    xb_noc: NocSpec = field(default=IDEAL_NOC)
    l1_size_bits: Optional[int] = None
    l1_bw_bits: Optional[float] = None

    def __post_init__(self) -> None:
        _check_positive("xb_number", self.xb_number)
        _check_positive("alu_ops", self.alu_ops)
        _check_positive("l1_size_bits", self.l1_size_bits)
        _check_positive("l1_bw_bits", self.l1_bw_bits)
        if self.xb_grid is not None:
            r, c = self.xb_grid
            if r * c != self.xb_number:
                raise ArchitectureError(
                    f"xb_grid {self.xb_grid} does not match "
                    f"xb_number {self.xb_number}"
                )


@dataclass(frozen=True)
class CrossbarTier:
    """Crossbar-tier parameters (Fig. 8).

    ``xb_size`` is (rows, cols) of memory cells; ``parallel_row`` is the
    maximum number of wordlines activated simultaneously; ``dac_bits`` /
    ``adc_bits`` are converter precisions; ``cell_type`` / ``cell_bits`` are
    the storage-cell technology and per-cell precision.
    """

    xb_size: Tuple[int, int]
    parallel_row: Optional[int] = None
    dac_bits: int = 1
    adc_bits: int = 8
    cell_type: CellType = CellType.RERAM
    cell_bits: int = 1

    def __post_init__(self) -> None:
        rows, cols = self.xb_size
        _check_positive("xb rows", rows)
        _check_positive("xb cols", cols)
        _check_positive("dac_bits", self.dac_bits)
        _check_positive("adc_bits", self.adc_bits)
        _check_positive("cell_bits", self.cell_bits)
        if self.parallel_row is not None:
            if not 1 <= self.parallel_row <= rows:
                raise ArchitectureError(
                    f"parallel_row {self.parallel_row} outside [1, {rows}]"
                )

    @property
    def rows(self) -> int:
        """Wordline count."""
        return self.xb_size[0]

    @property
    def cols(self) -> int:
        """Bitline count."""
        return self.xb_size[1]

    @property
    def effective_parallel_row(self) -> int:
        """Rows activated per cycle (defaults to all rows when unset)."""
        return self.parallel_row if self.parallel_row is not None else self.rows

    @property
    def capacity_bits(self) -> int:
        """Weight storage capacity of one crossbar."""
        return self.rows * self.cols * self.cell_bits

    def bit_slices(self, weight_bits: int) -> int:
        """Adjacent cells needed to hold one ``weight_bits`` value
        (dimension B spread along XBC, Fig. 7)."""
        if weight_bits <= 0:
            raise ArchitectureError(f"weight_bits must be positive, got {weight_bits}")
        return math.ceil(weight_bits / self.cell_bits)

    def input_passes(self, activation_bits: int) -> int:
        """Bit-serial DAC passes to present one ``activation_bits`` input."""
        if activation_bits <= 0:
            raise ArchitectureError(
                f"activation_bits must be positive, got {activation_bits}"
            )
        return math.ceil(activation_bits / self.dac_bits)

    def row_waves(self, rows_used: int) -> int:
        """Sequential activation waves to cover ``rows_used`` wordlines at
        ``parallel_row`` rows per wave (WLM view; 1 when all rows fire)."""
        if rows_used <= 0:
            return 0
        if not 1 <= rows_used <= self.rows:
            raise ArchitectureError(
                f"rows_used {rows_used} outside [1, {self.rows}]"
            )
        return math.ceil(rows_used / self.effective_parallel_row)
