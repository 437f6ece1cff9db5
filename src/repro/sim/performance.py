"""Performance simulator: latency of a scheduled inference.

Extends the structure of the open simulators the paper builds on (ISAAC /
PUMA latency models, NeuroSim / NVSim array timing): per-operator compute
cycles from the cost model, an inter-operator pipeline within each segment,
and weight-reconfiguration stalls between segments (a segment swap rewrites
crossbars, which is expensive on ReRAM/FLASH — Section 2.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..arch import CIMArchitecture
from ..perf.kernels import segment_cycles
from ..sched.cg import pipelined_latency
from ..sched.costs import reconfiguration_cycles
from ..sched.schedule import OpDecision, Schedule
from .power import PowerModel, PowerReport


@dataclass(frozen=True)
class SegmentTiming:
    """Latency detail of one segment."""

    index: int
    cycles: float
    reconfiguration: float
    bottleneck: str            # slowest operator name
    bottleneck_cycles: float


@dataclass(frozen=True)
class PerformanceReport:
    """Complete latency + power result of one scheduled inference."""

    schedule_levels: Tuple[str, ...]
    pipelined: bool
    total_cycles: float
    compute_cycles: float
    reconfiguration_cycles: float
    segments: Tuple[SegmentTiming, ...]
    op_latency: Dict[str, float]
    power: PowerReport
    #: Cycles to program *every* segment's weights into crossbars from
    #: scratch — the cost a serving system pays to (re)deploy this model
    #: onto the chip, e.g. when a time-multiplexed chip switches tenants.
    weight_load_cycles: float = 0.0
    #: Energy of that full weight (re)program — the energy twin of
    #: ``weight_load_cycles``, charged by serving on tenant switches.
    weight_write_energy: float = 0.0

    def speedup_over(self, other: "PerformanceReport") -> float:
        """``other.total / self.total`` — how much faster this run is."""
        return other.total_cycles / self.total_cycles

    @property
    def energy_per_inference(self) -> float:
        """Energy one inference consumes end to end.

        The power model's four components summed (crossbar activation,
        ADC/DAC conversion, data movement, and — for multi-segment
        schedules — the per-inference segment-swap weight rewrites).
        Invariant under streaming: pipelining changes *power*, not the
        energy each inference pays.
        """
        return self.power.total_energy

    @property
    def segment_intervals(self) -> Tuple[float, ...]:
        """Per-segment steady-state service interval under streaming.

        Pipelined: each segment re-admits an input every
        ``max(bottleneck, reconfiguration)`` cycles.  Sequential: a segment
        holds the chip for its full latency (plus its swap-in stall).
        """
        if not self.pipelined:
            return tuple(seg.cycles + seg.reconfiguration
                         for seg in self.segments)
        return tuple(max(seg.bottleneck_cycles, seg.reconfiguration)
                     for seg in self.segments)

    @property
    def steady_state_interval(self) -> float:
        """Cycles between consecutive completed inferences when images
        stream through the pipeline (batch throughput mode).

        Pipelined: the slowest stage paces the stream.  Sequential: each
        image occupies the whole chip for its full latency.
        """
        if not self.pipelined:
            return self.total_cycles
        return max(1.0, *self.segment_intervals) if self.segments else 1.0

    @property
    def throughput(self) -> float:
        """Inferences per cycle in steady state."""
        return 1.0 / self.steady_state_interval

    def summary(self) -> str:
        """Readable one-block summary."""
        lines = [
            f"levels={'+'.join(self.schedule_levels)} "
            f"pipelined={self.pipelined}",
            f"total cycles: {self.total_cycles:,.0f} "
            f"(compute {self.compute_cycles:,.0f} + reconf "
            f"{self.reconfiguration_cycles:,.0f})",
            f"peak active crossbars: {self.power.peak_active_crossbars:,} "
            f"peak power: {self.power.peak_power:,.1f}",
            f"energy/inference: {self.power.total_energy:,.1f} "
            f"(avg power {self.power.avg_power:,.3f})",
        ]
        for seg in self.segments:
            lines.append(
                f"  segment {seg.index}: {seg.cycles:,.0f} cycles, "
                f"bottleneck {seg.bottleneck} "
                f"({seg.bottleneck_cycles:,.0f})"
            )
        return "\n".join(lines)


def _segment_latencies(decisions: Sequence[OpDecision], pipelined: bool
                       ) -> Tuple[List[float], int, float]:
    """(per-operator latencies, bottleneck index, segment cycles).

    :func:`~repro.perf.kernels.segment_cycles` evaluates the segment in
    one vectorized pass — the same kernel behind
    :func:`~repro.sched.cg.pipelined_latency` — keeping first-wins
    bottleneck tie-breaking and left-to-right summation.
    """
    lats, b_idx, cycles = segment_cycles(decisions, pipelined)
    return lats.tolist(), b_idx, cycles


class PerformanceSimulator:
    """Evaluates a :class:`Schedule` into a :class:`PerformanceReport`."""

    def __init__(self, arch: CIMArchitecture) -> None:
        self.arch = arch
        self.power_model = PowerModel(arch)

    def run(self, schedule: Schedule,
            recorder=None) -> PerformanceReport:
        """Simulate one inference under ``schedule``.

        Each segment's operator latencies, bottleneck, and cycles come
        from :func:`_segment_latencies` (one vectorized pass per
        segment).

        ``recorder`` (a :class:`repro.trace.TraceRecorder`) optionally
        captures the run as a span timeline — per-segment
        reconfiguration stalls, compute waves, overlapped NoC demand,
        and per-operator detail.  ``None`` (the default) records
        nothing and adds no work.
        """
        segments: List[SegmentTiming] = []
        op_latency: Dict[str, float] = {}
        compute_total = 0.0
        reconf_total = 0.0
        multi_segment = len(schedule.segments) > 1
        weight_load = 0.0
        for seg_idx in range(len(schedule.segments)):
            decisions = schedule.segment_decisions(seg_idx)
            lats, b_idx, cycles = _segment_latencies(decisions,
                                                     schedule.pipelined)
            for d, lat in zip(decisions, lats):
                op_latency[d.profile.name] = lat
            seg_profiles = {d.profile.name: d.profile for d in decisions}
            weight_load += reconfiguration_cycles(seg_profiles, self.arch)
            reconf = 0.0
            if multi_segment:
                reconf = reconfiguration_cycles(seg_profiles, self.arch)
                if schedule.pipelined and self.arch.xb.cell_type.cheap_writes:
                    # SRAM chips stream the next segment's weights into
                    # idle cores while the current segment computes; only
                    # the non-hidden part of the reload stalls.
                    reconf = max(0.0, reconf - cycles)
            bottleneck = decisions[b_idx]
            segments.append(SegmentTiming(
                index=seg_idx,
                cycles=cycles,
                reconfiguration=reconf,
                bottleneck=bottleneck.profile.name,
                bottleneck_cycles=op_latency[bottleneck.profile.name],
            ))
            compute_total += cycles
            reconf_total += reconf
        total = compute_total + reconf_total
        power = self.power_model.evaluate(schedule, total)
        report = PerformanceReport(
            schedule_levels=tuple(schedule.levels),
            pipelined=schedule.pipelined,
            total_cycles=total,
            compute_cycles=compute_total,
            reconfiguration_cycles=reconf_total,
            segments=tuple(segments),
            op_latency=op_latency,
            power=power,
            weight_load_cycles=weight_load,
            weight_write_energy=self.power_model.weight_write_energy(
                schedule),
        )
        if recorder is not None:
            from ..trace.capture import emit_sim, sim_model_from_report

            noc = sum(d.profile.mov_cycles
                      for i in range(len(schedule.segments))
                      for d in schedule.segment_decisions(i))
            emit_sim(sim_model_from_report(report, schedule), recorder)
            recorder.configure(
                kind="sim", pipelined=report.pipelined,
                levels=list(report.schedule_levels),
                arch=self.arch.name,
                total_cycles=report.total_cycles,
                compute_cycles=report.compute_cycles,
                reconfiguration_cycles=report.reconfiguration_cycles,
                noc_cycles=noc,
                steady_state_interval=report.steady_state_interval)
        return report


# ---------------------------------------------------------------------------
# Multi-chip pipelined estimation (repro.scale)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinkTransfer:
    """One inter-chip activation transfer per inference.

    ``cycles`` is the end-to-end latency of the message (head latency per
    hop plus serialization) — the *fill* cost; ``occupancy`` is the cycles
    the channel is busy — the *throughput* cost.  Built by
    :func:`repro.scale.shard` from the stage-boundary tensors and the
    system's :class:`~repro.arch.ChipLink`.
    """

    src_stage: int
    dst_stage: int
    src_chip: int
    dst_chip: int
    bits: int
    hops: int
    cycles: float
    occupancy: float
    #: Energy of this transfer per inference
    #: (:meth:`repro.arch.ChipLink.transfer_energy`).
    energy: float = 0.0


@dataclass(frozen=True)
class MultiChipReport:
    """Latency/throughput of one model pipelined across several chips.

    Stage ``i`` runs on chip ``chips[i]`` with the single-chip
    :class:`PerformanceReport` ``stages[i]``; activations cross chips via
    ``transfers``.  The pipeline model: one inference traverses all stages
    and consecutive-boundary links in order (fill), while in steady state
    the slowest stage or link channel paces admissions (drain overlaps the
    next inference's fill).

    Example
    -------
    >>> from repro.arch import MultiChipSystem, isaac_baseline
    >>> from repro.models import resnet18
    >>> from repro.scale import shard
    >>> plan = shard(resnet18(), MultiChipSystem(isaac_baseline(), 2))
    >>> plan.report.throughput > 0
    True
    """

    stages: Tuple[PerformanceReport, ...]
    chips: Tuple[int, ...]
    transfers: Tuple[LinkTransfer, ...]

    @property
    def num_chips(self) -> int:
        """Chips the pipeline spans (max chip id + 1)."""
        return max(self.chips) + 1 if self.chips else 0

    @property
    def stage_intervals(self) -> Tuple[float, ...]:
        """Per-stage steady-state admission intervals (compute only)."""
        return tuple(r.steady_state_interval for r in self.stages)

    @property
    def link_intervals(self) -> Tuple[float, ...]:
        """Per-transfer channel occupancies (the link pipeline stages)."""
        return tuple(t.occupancy for t in self.transfers)

    @property
    def channel_occupancies(self) -> Dict[Tuple[int, int], float]:
        """Busy cycles per inference of each *physical* link channel.

        Several transfers can share one wire — adjacent-stage traffic
        plus multi-hop relays — so per-channel occupancy sums them.
        The relay path follows the routing the transfer's hop count was
        priced with: a single-hop transfer uses the direct ``(src, dst)``
        channel; a multi-hop transfer steps around the ring in whichever
        direction matches ``t.hops`` (so wraparound-routed traffic loads
        the wrap wires, not the unused forward ones).  Topologies whose
        hop count fits neither ring direction (mesh) fall back to the
        forward chain — conservative for their shortcut wires.
        """
        n = self.num_chips
        busy: Dict[Tuple[int, int], float] = {}

        def charge(src: int, dst: int, step: int, modular: bool,
                   occupancy: float) -> None:
            c = src
            while c != dst:
                nxt = (c + step) % n if modular else c + step
                busy[(c, nxt)] = busy.get((c, nxt), 0.0) + occupancy
                c = nxt

        for t in self.transfers:
            if t.hops <= 1:
                key = (t.src_chip, t.dst_chip)
                busy[key] = busy.get(key, 0.0) + t.occupancy
            elif t.hops == (t.dst_chip - t.src_chip) % n:
                charge(t.src_chip, t.dst_chip, +1, True, t.occupancy)
            elif t.hops == (t.src_chip - t.dst_chip) % n:
                charge(t.src_chip, t.dst_chip, -1, True, t.occupancy)
            else:
                charge(t.src_chip, t.dst_chip,
                       1 if t.dst_chip >= t.src_chip else -1, False,
                       t.occupancy)
        return busy

    @property
    def total_cycles(self) -> float:
        """One inference end to end: every stage's latency plus the head
        latency of each consecutive-stage link on the critical path (skip
        transfers overlap the chain and never dominate a shortest path)."""
        compute = sum(r.total_cycles for r in self.stages)
        chain = sum(t.cycles for t in self.transfers
                    if t.dst_stage == t.src_stage + 1)
        return compute + chain

    @property
    def steady_state_interval(self) -> float:
        """Cycles between completed inferences when images stream through
        the chip pipeline: the slowest compute stage or physical link
        channel (transfers sharing a wire pace it together — see
        :attr:`channel_occupancies`)."""
        paced = list(self.stage_intervals) \
            + list(self.channel_occupancies.values())
        return max(paced) if paced else 1.0

    @property
    def throughput(self) -> float:
        """Inferences per cycle in steady state."""
        return 1.0 / self.steady_state_interval

    def batch_cycles(self, n: int) -> float:
        """Cycles to push ``n`` inferences through: pipeline fill (one full
        traversal) plus ``n - 1`` steady-state intervals."""
        if n < 1:
            return 0.0
        return self.total_cycles + (n - 1) * self.steady_state_interval

    def speedup_over(self, other: "PerformanceReport") -> float:
        """Throughput gain over a single-chip report (interval ratio)."""
        return other.steady_state_interval / self.steady_state_interval

    @property
    def peak_power(self) -> float:
        """Chips compute concurrently, so peak power sums over stages."""
        return sum(r.power.peak_power for r in self.stages)

    @property
    def chip_peak_powers(self) -> Tuple[float, ...]:
        """Per-stage (= per-chip) peak power, in stage order."""
        return tuple(r.power.peak_power for r in self.stages)

    @property
    def link_energy(self) -> float:
        """Energy of all inter-chip activation transfers per inference."""
        return sum(t.energy for t in self.transfers)

    @property
    def total_energy(self) -> float:
        """Energy of one inference across the whole pipeline: every
        stage's on-die energy plus every inter-chip transfer."""
        return sum(r.power.total_energy for r in self.stages) \
            + self.link_energy

    @property
    def energy_per_inference(self) -> float:
        """Alias of :attr:`total_energy` (energy is per-inference
        invariant under streaming, matching the single-chip report)."""
        return self.total_energy

    @property
    def weight_write_energy(self) -> float:
        """Energy to program every chip's resident weights from scratch
        (the multi-chip deployment cost; stages sum)."""
        return sum(r.weight_write_energy for r in self.stages)

    def summary(self) -> str:
        """Readable per-stage + per-link block."""
        lines = [
            f"{len(self.stages)} stages on {self.num_chips} chips: "
            f"latency {self.total_cycles:,.0f} cycles, interval "
            f"{self.steady_state_interval:,.0f} cycles",
            f"energy/inference {self.total_energy:,.1f} "
            f"(links {self.link_energy:,.1f}), peak power "
            f"{self.peak_power:,.1f}",
        ]
        for i, (chip, rep) in enumerate(zip(self.chips, self.stages)):
            lines.append(
                f"  stage {i} @ chip {chip}: latency {rep.total_cycles:,.0f} "
                f"interval {rep.steady_state_interval:,.0f}")
        for t in self.transfers:
            lines.append(
                f"  link {t.src_chip}->{t.dst_chip} "
                f"(stage {t.src_stage}->{t.dst_stage}): {t.bits:,} bits, "
                f"{t.cycles:,.0f} cycles, occupancy {t.occupancy:,.1f}")
        return "\n".join(lines)


def pipeline_multichip(stages: Sequence[PerformanceReport],
                       chips: Sequence[int],
                       transfers: Sequence[LinkTransfer]) -> MultiChipReport:
    """Assemble a :class:`MultiChipReport` from per-stage reports.

    ``stages[i]`` must be the report of the subgraph running on chip
    ``chips[i]``; ``transfers`` carry the inter-stage activation traffic.
    """
    if len(stages) != len(chips):
        raise ValueError(
            f"{len(stages)} stage reports but {len(chips)} chip ids")
    return MultiChipReport(stages=tuple(stages), chips=tuple(chips),
                           transfers=tuple(transfers))


def activity_timeline(schedule: Schedule) -> List[Tuple[float, float, int]]:
    """Coarse (start, end, active_crossbars) intervals for plotting.

    Within a pipelined segment operators overlap after their upstream fill;
    the timeline stacks per-operator active-crossbar counts over the
    segment's duration.
    """
    timeline: List[Tuple[float, float, int]] = []
    clock = 0.0
    for seg_idx in range(len(schedule.segments)):
        decisions = schedule.segment_decisions(seg_idx)
        if schedule.pipelined:
            duration = pipelined_latency(decisions)
            fill = 0.0
            for d in decisions:
                start = clock + fill
                end = min(clock + duration, start + d.latency())
                if d.active_crossbars() > 0 and end > start:
                    timeline.append((start, end, d.active_crossbars()))
                fill += d.fill()
        else:
            for d in decisions:
                end = clock + d.latency()
                if d.active_crossbars() > 0:
                    timeline.append((clock, end, d.active_crossbars()))
                clock = end
            continue
        clock += duration
    return timeline
