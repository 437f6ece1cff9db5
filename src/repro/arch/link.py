"""Inter-chip link model: the first-class ``arch`` component for scaling
beyond one die.

One CIM chip tops out at ``chip_capacity_bits`` of resident weights and
``core_number`` cores of duplication headroom; past that the model must be
*sharded* across chips connected by board-level links (SerDes lanes,
chiplet bridges, PCB traces).  This module abstracts those links the same
way :mod:`repro.arch.noc` abstracts the on-die interconnect:

* :class:`ChipLink` — one point-to-point channel: bandwidth (bits/cycle),
  per-hop latency, and a serialization overhead factor for
  packetization/flit framing.
* :class:`MultiChipSystem` — N identical chips plus a link and a topology
  (``ring`` / ``fully-connected`` / ``mesh``) with a chip-to-chip hop
  metric; the single object :func:`repro.scale.shard` consumes.

The scheduling consequence mirrors the paper's Section 2.1 argument one
level up: weights stay resident *per chip*, activations stream *between*
chips, so the inter-chip pipeline pays serialization and hop latency but
never weight reprogramming.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Tuple

from ..errors import ArchitectureError
from .architecture import CIMArchitecture
from .noc import mesh_hops

#: Multi-chip topologies accepted by :class:`MultiChipSystem`.
#: ``chain`` is a ring without the wraparound link — the geometry of a
#: contiguous chip block carved out of a larger system.
CHIP_TOPOLOGIES = ("ring", "fully-connected", "mesh", "chain")


@dataclass(frozen=True)
class ChipLink:
    """One inter-chip channel as seen by the shard planner.

    Parameters
    ----------
    bandwidth_bits:
        Payload bits accepted per chip cycle (a 128 Gb/s SerDes lane on a
        1 GHz chip clock is 128 bits/cycle).
    latency_cycles:
        Fixed head latency per hop (driver + flight + sync), in cycles.
    serialization_overhead:
        Multiplier >= 1 on the serialization term for framing/packet
        overhead (1.0 = ideal wire).
    energy_per_bit:
        Energy moving one payload bit across one hop (same arbitrary
        units as :mod:`repro.sim.power`; the default is 100x the on-die
        :data:`~repro.sim.power.E_MOVE_PER_BIT` — board-level SerDes
        costs roughly two orders of magnitude more per bit than an
        on-die wire).

    Example
    -------
    >>> link = ChipLink(bandwidth_bits=128.0, latency_cycles=50.0)
    >>> link.transfer_cycles(1280)        # 50 + 1280/128
    60.0
    >>> link.serialization_cycles(1280)   # occupancy, latency excluded
    10.0
    >>> link.transfer_energy(1000, hops=2)  # 1000 * 0.015 * 2
    30.0
    """

    bandwidth_bits: float = 512.0
    latency_cycles: float = 100.0
    serialization_overhead: float = 1.0
    energy_per_bit: float = 0.015

    def __post_init__(self) -> None:
        """Validate finite parameters: bandwidth > 0, latency and energy
        per bit >= 0, serialization overhead >= 1 (NaN passes every sign
        test, so finiteness is checked explicitly)."""
        if not (math.isfinite(self.bandwidth_bits)
                and self.bandwidth_bits > 0):
            raise ArchitectureError(
                f"link bandwidth must be finite and positive, got "
                f"{self.bandwidth_bits}")
        if not (math.isfinite(self.latency_cycles)
                and self.latency_cycles >= 0):
            raise ArchitectureError(
                f"link latency must be finite and >= 0, got "
                f"{self.latency_cycles}")
        if not (math.isfinite(self.serialization_overhead)
                and self.serialization_overhead >= 1.0):
            raise ArchitectureError(
                f"serialization_overhead must be finite and >= 1, got "
                f"{self.serialization_overhead}")
        if not (math.isfinite(self.energy_per_bit)
                and self.energy_per_bit >= 0):
            raise ArchitectureError(
                f"energy_per_bit must be finite and >= 0, got "
                f"{self.energy_per_bit}")

    def serialization_cycles(self, bits: float) -> float:
        """Cycles the channel is *occupied* pushing ``bits`` through one
        link — the steady-state (throughput) cost of a transfer."""
        if bits <= 0:
            return 0.0
        return bits * self.serialization_overhead / self.bandwidth_bits

    def transfer_cycles(self, bits: float, hops: int = 1) -> float:
        """End-to-end cycles for one ``bits`` message over ``hops`` links
        (wormhole-style: head latency per hop, serialization paid once) —
        the latency (fill) cost of a transfer."""
        if hops < 0:
            raise ArchitectureError(f"hops must be >= 0, got {hops}")
        if hops == 0 or bits <= 0:
            return 0.0
        return hops * self.latency_cycles + self.serialization_cycles(bits)

    def transfer_energy(self, bits: float, hops: int = 1) -> float:
        """Energy for one ``bits`` message over ``hops`` links — every
        hop re-drives the wire, so energy (unlike serialization) scales
        with the hop count."""
        if hops < 0:
            raise ArchitectureError(f"hops must be >= 0, got {hops}")
        if hops == 0 or bits <= 0:
            return 0.0
        return bits * self.energy_per_bit * hops

    def roundtrip_cycles(self, request_bits: float, response_bits: float,
                         hops: int = 1) -> float:
        """Cycles for a request/response pair over this link — how the
        fleet front end prices the hop to a replica and back
        (:mod:`repro.fleet`).  The two directions are independent
        transfers: each pays head latency and its own serialization."""
        return (self.transfer_cycles(request_bits, hops)
                + self.transfer_cycles(response_bits, hops))

    def roundtrip_energy(self, request_bits: float, response_bits: float,
                         hops: int = 1) -> float:
        """Energy twin of :meth:`roundtrip_cycles` — the per-request link
        charge in the fleet energy ledger."""
        return (self.transfer_energy(request_bits, hops)
                + self.transfer_energy(response_bits, hops))


@dataclass(frozen=True)
class MultiChipSystem:
    """N identical CIM chips joined by :class:`ChipLink` channels.

    The compiler-facing contract matches :class:`CIMArchitecture` one tier
    up: ``chip`` describes every die, ``num_chips`` how many, ``link`` the
    channel, ``topology`` the wiring (:data:`CHIP_TOPOLOGIES`).

    Example
    -------
    >>> from repro.arch import isaac_baseline
    >>> sys2 = MultiChipSystem(isaac_baseline(), num_chips=2)
    >>> sys2.hops(0, 1)
    1
    >>> sys2.total_capacity_bits == 2 * isaac_baseline().chip_capacity_bits
    True
    """

    chip: CIMArchitecture
    num_chips: int
    link: ChipLink = ChipLink()
    topology: str = "ring"

    def __post_init__(self) -> None:
        """Validate chip count and topology name."""
        if self.num_chips < 1:
            raise ArchitectureError(
                f"num_chips must be >= 1, got {self.num_chips}")
        if self.topology not in CHIP_TOPOLOGIES:
            raise ArchitectureError(
                f"unknown chip topology {self.topology!r}; "
                f"choose one of {CHIP_TOPOLOGIES}")

    # -- derived capacities -------------------------------------------

    @property
    def name(self) -> str:
        """Display name, e.g. ``"isaac-baseline x4 (ring)"``."""
        return f"{self.chip.name} x{self.num_chips} ({self.topology})"

    @property
    def total_cores(self) -> int:
        """Cores across the whole system."""
        return self.num_chips * self.chip.chip.core_number

    @property
    def total_capacity_bits(self) -> int:
        """Weight storage across the whole system."""
        return self.num_chips * self.chip.chip_capacity_bits

    # -- geometry ------------------------------------------------------

    def hop_matrix(self) -> List[List[int]]:
        """Chip-to-chip hop counts under ``topology``."""
        n = self.num_chips
        if self.topology == "fully-connected":
            return [[0 if i == j else 1 for j in range(n)] for i in range(n)]
        if self.topology == "mesh":
            return mesh_hops(n)
        if self.topology == "chain":
            return [[abs(i - j) for j in range(n)] for i in range(n)]
        # ring: shorter way around
        return [[min(abs(i - j), n - abs(i - j)) for j in range(n)]
                for i in range(n)]

    def hops(self, src: int, dst: int) -> int:
        """Hop count between two chip ids."""
        for chip_id in (src, dst):
            if not 0 <= chip_id < self.num_chips:
                raise ArchitectureError(
                    f"chip id {chip_id} outside [0, {self.num_chips})")
        return self.hop_matrix()[src][dst]

    def transfer_cycles(self, src: int, dst: int, bits: float) -> float:
        """End-to-end cycles moving ``bits`` from chip ``src`` to ``dst``."""
        return self.link.transfer_cycles(bits, self.hops(src, dst))

    def transfer_energy(self, src: int, dst: int, bits: float) -> float:
        """Energy moving ``bits`` from chip ``src`` to ``dst``."""
        return self.link.transfer_energy(bits, self.hops(src, dst))

    # -- variation helpers (sweep axes) --------------------------------

    def with_chips(self, num_chips: int) -> "MultiChipSystem":
        """Same chips and link, different chip count (sweep axis)."""
        return replace(self, num_chips=num_chips)

    def block(self, num_chips: int) -> "MultiChipSystem":
        """A contiguous ``num_chips`` sub-block of this system.

        The geometry a tenant spanning part of the system actually sees:
        a block of a fully-connected system stays fully connected; a
        block of a ring or mesh is priced as a ``chain`` (no wraparound
        link, no shortcuts through other tenants' chips — conservative
        for mesh blocks).
        """
        topology = ("fully-connected" if self.topology == "fully-connected"
                    else "chain")
        return replace(self, num_chips=num_chips, topology=topology)

    def with_link(self, link: ChipLink) -> "MultiChipSystem":
        """Same chips and count, different link (bandwidth sweeps)."""
        return replace(self, link=link)

    def describe(self) -> dict:
        """JSON-able abstraction dictionary (Fig. 17-19 style, one tier up).

        Example
        -------
        >>> from repro.arch import isaac_baseline
        >>> MultiChipSystem(isaac_baseline(), 2).describe()["num_chips"]
        2
        """
        return {
            "chip": self.chip.name,
            "num_chips": self.num_chips,
            "topology": self.topology,
            "link": {
                "bandwidth_bits": self.link.bandwidth_bits,
                "latency_cycles": self.link.latency_cycles,
                "serialization_overhead": self.link.serialization_overhead,
                "energy_per_bit": self.link.energy_per_bit,
            },
            "total_cores": self.total_cores,
            "total_capacity_bits": self.total_capacity_bits,
        }

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (f"{self.name} link={self.link.bandwidth_bits:g}b/cyc"
                f"+{self.link.latency_cycles:g}cyc")
