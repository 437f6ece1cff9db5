"""Fault models: dead cores, crossbar defects, drift, link derating,
and mid-trace chip death.

A :class:`FaultModel` is a frozen, canonical description of everything
that is wrong with the hardware.  It is *declarative*: planners consume
it to mask resources at plan time (:mod:`repro.faults.degrade`), the
fleet engine consumes it to inject drift rewrites and a chip-death
event at run time, and reports embed ``to_dict()`` so every degraded
result names the fault that produced it.

The house invariant extends here: a zero fault model (``is_zero()``)
must leave every code path bit-identical to the fault-free build —
callers gate on it and fall through to the original code verbatim.

Example
-------
>>> from repro.arch import functional_testbed
>>> f = FaultModel(dead_cores=(3, 7))
>>> f.surviving_cores(functional_testbed())[:4]
(0, 1, 2, 4)
>>> f.degrade_arch(functional_testbed()).chip.core_number
30
>>> FaultModel().is_zero()
True
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Dict, Optional, Tuple

from ..arch import ChipLink, CIMArchitecture
from ..errors import CapacityError, CIMError


@dataclass(frozen=True)
class FaultModel:
    """Canonical description of injected hardware faults.

    Parameters
    ----------
    dead_cores:
        Physical core ids (die coordinates) that are entirely dead.
    dead_crossbars:
        ``(core, crossbar)`` pairs with a defective crossbar region.  A
        core whose every crossbar is dead counts as a dead core; partial
        losses shrink the *uniform* per-core crossbar budget the
        compiler may use (conservative: bounded by the worst survivor).
    drift_interval:
        Cycles between drift-forced full weight rewrites (finite and
        > 0), or ``None`` for no drift.  Each rewrite stalls the
        executor for its resident tenant's deploy cycles and pays the
        deploy (write) energy.
    link_derate:
        Multiplier in ``(0, 1]`` on inter-chip / front-end link
        bandwidth (1.0 = healthy link).
    chip_death_time:
        Cycle at which one fleet replica dies mid-trace, or ``None``.
    chip_death_rid:
        Which replica dies (only meaningful with ``chip_death_time``).
    """

    dead_cores: Tuple[int, ...] = ()
    dead_crossbars: Tuple[Tuple[int, int], ...] = ()
    drift_interval: Optional[float] = None
    link_derate: float = 1.0
    chip_death_time: Optional[float] = None
    chip_death_rid: int = 0

    def __post_init__(self) -> None:
        """Normalise to sorted unique tuples and validate every field."""
        cores = tuple(sorted({int(c) for c in self.dead_cores}))
        if cores and cores[0] < 0:
            raise CIMError(f"dead core ids must be >= 0, got {cores[0]}")
        xbs = tuple(sorted({(int(c), int(x)) for c, x in self.dead_crossbars}))
        if xbs and (xbs[0][0] < 0 or min(x for _, x in xbs) < 0):
            raise CIMError(f"dead crossbar ids must be >= 0, got {xbs}")
        object.__setattr__(self, "dead_cores", cores)
        object.__setattr__(self, "dead_crossbars", xbs)
        if self.drift_interval is not None and not (
                math.isfinite(self.drift_interval)
                and self.drift_interval > 0):
            raise CIMError(
                f"drift_interval must be finite and > 0 cycles, got "
                f"{self.drift_interval}")
        if not 0.0 < self.link_derate <= 1.0:
            raise CIMError(
                f"link_derate must be in (0, 1], got {self.link_derate}")
        if self.chip_death_time is not None and not (
                math.isfinite(self.chip_death_time)
                and self.chip_death_time >= 0):
            raise CIMError(
                f"chip_death_time must be finite and >= 0, got "
                f"{self.chip_death_time}")
        if self.chip_death_rid < 0:
            raise CIMError(
                f"chip_death_rid must be >= 0, got {self.chip_death_rid}")

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        """True when no fault is injected at all (bit-identity gate)."""
        return (not self.dead_cores and not self.dead_crossbars
                and self.drift_interval is None
                and self.link_derate == 1.0
                and self.chip_death_time is None)

    def masks_cores(self) -> bool:
        """True when the model removes plan-time compute resources."""
        return bool(self.dead_cores or self.dead_crossbars)

    # -- plan-time masking ---------------------------------------------

    def _dead_xb_counts(self) -> Dict[int, int]:
        """Dead crossbars per core (only cores with at least one)."""
        counts: Dict[int, int] = {}
        for core, _ in self.dead_crossbars:
            counts[core] = counts.get(core, 0) + 1
        return counts

    def surviving_cores(self, arch: CIMArchitecture) -> Tuple[int, ...]:
        """Physical ids of cores still usable on ``arch``'s die.

        A core survives unless it is listed dead or has lost *every*
        crossbar.  Ids at or beyond the die size are ignored (a mask
        generated for a larger die degrades a smaller one gracefully).
        """
        n = arch.chip.core_number
        dead = set(self.dead_cores)
        per_core = self._dead_xb_counts()
        xb_total = arch.core.xb_number
        return tuple(c for c in range(n)
                     if c not in dead and per_core.get(c, 0) < xb_total)

    def usable_xb_number(self, arch: CIMArchitecture) -> int:
        """Uniform per-core crossbar budget over the surviving cores.

        Conservative: the compiler sees every surviving core as having
        the *worst* survivor's crossbar count, so a plan that fits the
        degraded arch fits every physical core it may land on.
        """
        survivors = self.surviving_cores(arch)
        per_core = self._dead_xb_counts()
        worst = max((per_core.get(c, 0) for c in survivors), default=0)
        return arch.core.xb_number - worst

    def degrade_arch(self, arch: CIMArchitecture) -> CIMArchitecture:
        """The architecture the compiler may actually use.

        Shrinks the core count to the survivors and, if crossbar
        regions died, the uniform per-core crossbar budget.  Raises
        :class:`~repro.errors.CapacityError` (carrying the mask) when
        nothing survives.
        """
        survivors = self.surviving_cores(arch)
        if not survivors:
            raise CapacityError(
                f"fault model leaves no usable cores on {arch.name} "
                f"[{self.mask_note(arch)}]")
        out = arch.with_cores(len(survivors))
        xb = self.usable_xb_number(arch)
        if xb < arch.core.xb_number:
            out = out.with_xb_number(xb)
        return out

    def degrade_link(self, link: ChipLink) -> ChipLink:
        """``link`` with its bandwidth derated by :attr:`link_derate`."""
        if self.link_derate == 1.0:
            return link
        return replace(link,
                       bandwidth_bits=link.bandwidth_bits * self.link_derate)

    def mask_note(self, arch: Optional[CIMArchitecture] = None) -> str:
        """Short diagnostic naming the resource mask, for error text."""
        parts = []
        if self.dead_cores:
            parts.append(f"dead_cores={list(self.dead_cores)}")
        if self.dead_crossbars:
            parts.append(
                f"dead_xbs={[list(p) for p in self.dead_crossbars]}")
        if self.link_derate != 1.0:
            parts.append(f"link_derate={self.link_derate}")
        if arch is not None:
            n = arch.chip.core_number
            parts.append(
                f"survivors={len(self.surviving_cores(arch))}/{n}")
        return ", ".join(parts) if parts else "no resource mask"

    # -- canonical export ----------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able canonical form (embedded in degraded reports)."""
        return {
            "dead_cores": list(self.dead_cores),
            "dead_crossbars": [list(p) for p in self.dead_crossbars],
            "drift_interval": self.drift_interval,
            "link_derate": self.link_derate,
            "chip_death_time": self.chip_death_time,
            "chip_death_rid": self.chip_death_rid,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultModel":
        """Inverse of :meth:`to_dict`."""
        return cls(
            dead_cores=tuple(data.get("dead_cores", ())),
            dead_crossbars=tuple(
                tuple(p) for p in data.get("dead_crossbars", ())),
            drift_interval=data.get("drift_interval"),
            link_derate=data.get("link_derate", 1.0),
            chip_death_time=data.get("chip_death_time"),
            chip_death_rid=data.get("chip_death_rid", 0),
        )

    def describe(self) -> str:
        """One-line human description, e.g. for report tables."""
        if self.is_zero():
            return "no faults"
        parts = []
        if self.dead_cores:
            parts.append(f"{len(self.dead_cores)} dead cores")
        if self.dead_crossbars:
            parts.append(f"{len(self.dead_crossbars)} dead crossbars")
        if self.drift_interval is not None:
            parts.append(f"drift every {self.drift_interval:,.0f} cyc")
        if self.link_derate != 1.0:
            parts.append(f"link x{self.link_derate:g}")
        if self.chip_death_time is not None:
            parts.append(
                f"replica {self.chip_death_rid} dies at "
                f"{self.chip_death_time:,.0f} cyc")
        return ", ".join(parts)


def spread_mask(core_number: int, dead: int) -> Tuple[int, ...]:
    """``dead`` core ids spread evenly across a ``core_number``-core die.

    Deterministic and strictly increasing for ``dead <= core_number``;
    the standard mask for degradation sweeps (kills are spaced out, the
    hardest case for contiguous region placement).

    >>> spread_mask(16, 4)
    (0, 4, 8, 12)
    """
    if dead < 0 or dead > core_number:
        raise CIMError(
            f"cannot kill {dead} of {core_number} cores")
    return tuple(i * core_number // dead for i in range(dead))
