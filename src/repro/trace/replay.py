"""What-if replay: re-price a recorded trace under mutated parameters.

A recorded trace stores the exact magnitudes every interval was priced
from (cycles, bits, hops, switch/service costs, batching readiness),
so re-evaluating a scenario under different hardware or policy knobs
does not need the DES: :func:`replay` regenerates the timeline through
the same emitters capture used, with the magnitudes re-priced.

Fidelity contract (pinned by ``tests/test_trace.py``):

* The **identity** mutation reproduces the recorded trace bit for bit
  (same digest) — replay re-runs the capture arithmetic, never
  transforms timestamps.
* **Link bandwidth/latency** mutations of shard traces are *exact*
  versus ground-truth re-simulation: stage structure is link-invariant
  (:func:`repro.scale.shard` partitions without link parameters), so
  re-pricing each transfer through a rescaled
  :class:`~repro.arch.ChipLink` reproduces the full pipeline numbers.
  This exactness is what lets ``repro sweep --prefilter replay`` prune
  link axes from one anchor evaluation per group.
* **Batching-timeout / compute-speed / hop** mutations of serving
  traces hold batch composition and per-executor dispatch order fixed
  and re-solve each executor's dispatch chain
  (``dispatch' = max(executor_free, ready', filled')``) — near-exact
  at moderate load, validated <5% on the pinned scenario set.
* **±chips** mutations of shard traces use an ideal-rebalance estimate
  (total compute split evenly, mean-boundary-traffic links) — a coarse
  screening signal, not an exact re-price.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

from ..arch import ChipLink
from ..errors import ScheduleError
from .capture import (
    emit_batch_spans,
    emit_shard,
    emit_sim,
    shard_model_from_trace,
    shard_totals,
    sim_model_from_trace,
)
from .recorder import TraceRecorder
from .span import Trace

#: CLI mutation keys → :class:`Mutation` fields (scales are speedups:
#: ``compute=2`` halves compute durations; ``link_latency=2`` doubles
#: per-hop latency — it is a raw multiplier; ``timeout`` replaces the
#: batching timeout in cycles; ``chips`` is a signed replica delta).
MUTATION_KEYS = ("compute", "reconf", "link_bw", "link_latency",
                 "timeout", "chips")


@dataclass(frozen=True)
class Mutation:
    """One what-if: parameter changes to re-price a trace under.

    ``compute_scale`` / ``reconfiguration_scale`` / ``link_bandwidth_scale``
    are speed multipliers (durations divide by them);
    ``link_latency_scale`` multiplies per-hop latency;
    ``link_bandwidth`` / ``link_latency`` are absolute overrides (used
    by the sweep prefilter to land on exact grid values);
    ``batch_timeout`` replaces the batching timeout (cycles);
    ``chips_delta`` adds/removes pipeline chips (shard traces only).
    """

    compute_scale: float = 1.0
    reconfiguration_scale: float = 1.0
    link_bandwidth_scale: float = 1.0
    link_latency_scale: float = 1.0
    link_bandwidth: Optional[float] = None
    link_latency: Optional[float] = None
    batch_timeout: Optional[float] = None
    chips_delta: int = 0

    def is_identity(self) -> bool:
        """Whether this mutation changes nothing."""
        return (self.compute_scale == 1.0
                and self.reconfiguration_scale == 1.0
                and self.link_bandwidth_scale == 1.0
                and self.link_latency_scale == 1.0
                and self.link_bandwidth is None
                and self.link_latency is None
                and self.batch_timeout is None
                and self.chips_delta == 0)

    def describe(self) -> str:
        """CLI-style rendering of the non-identity fields."""
        parts = []
        if self.compute_scale != 1.0:
            parts.append(f"compute={self.compute_scale:g}")
        if self.reconfiguration_scale != 1.0:
            parts.append(f"reconf={self.reconfiguration_scale:g}")
        if self.link_bandwidth_scale != 1.0:
            parts.append(f"link_bw={self.link_bandwidth_scale:g}")
        if self.link_latency_scale != 1.0:
            parts.append(f"link_latency={self.link_latency_scale:g}")
        if self.link_bandwidth is not None:
            parts.append(f"link_bw_abs={self.link_bandwidth:g}")
        if self.link_latency is not None:
            parts.append(f"link_latency_abs={self.link_latency:g}")
        if self.batch_timeout is not None:
            parts.append(f"timeout={self.batch_timeout:g}")
        if self.chips_delta:
            parts.append(f"chips={self.chips_delta:+d}")
        return ",".join(parts) or "identity"

    def scaled_link(self, link: ChipLink) -> ChipLink:
        """``link`` with this mutation's bandwidth/latency applied."""
        bw = (self.link_bandwidth if self.link_bandwidth is not None
              else link.bandwidth_bits * self.link_bandwidth_scale)
        lat = (self.link_latency if self.link_latency is not None
               else link.latency_cycles * self.link_latency_scale)
        return replace(link, bandwidth_bits=bw, latency_cycles=lat)


def parse_mutation(text: str) -> Mutation:
    """Parse a CLI mutation spec: ``key=value[,key=value...]``.

    Keys: ``compute`` / ``reconf`` (speed multipliers), ``link_bw``
    (bandwidth multiplier), ``link_latency`` (latency multiplier),
    ``timeout`` (absolute cycles), ``chips`` (signed delta, e.g.
    ``+1``).  An empty string is the identity.
    """
    fields: Dict[str, Any] = {}
    for part in filter(None, (p.strip() for p in text.split(","))):
        if "=" not in part:
            raise ScheduleError(
                f"bad mutation {part!r}; expected key=value with keys "
                f"{'/'.join(MUTATION_KEYS)}")
        key, value = part.split("=", 1)
        key = key.strip()
        try:
            if key == "compute":
                fields["compute_scale"] = float(value)
            elif key == "reconf":
                fields["reconfiguration_scale"] = float(value)
            elif key == "link_bw":
                fields["link_bandwidth_scale"] = float(value)
            elif key == "link_latency":
                fields["link_latency_scale"] = float(value)
            elif key == "timeout":
                fields["batch_timeout"] = float(value)
            elif key == "chips":
                fields["chips_delta"] = int(value)
            else:
                raise ScheduleError(
                    f"unknown mutation key {key!r}; expected one of "
                    f"{', '.join(MUTATION_KEYS)}")
        except ValueError:
            raise ScheduleError(
                f"bad mutation value {value!r} for key {key!r}")
    for key in ("compute_scale", "reconfiguration_scale",
                "link_bandwidth_scale", "link_latency_scale"):
        if key in fields and fields[key] <= 0:
            raise ScheduleError(f"mutation {key} must be positive")
    return Mutation(**fields)


@dataclass(frozen=True)
class ReplayResult:
    """A replayed trace plus its headline metrics."""

    trace: Trace
    metrics: Dict[str, Any]
    mutation: Mutation


def _scaled(value: float, scale: float) -> float:
    """``value / scale`` — except the identity scale returns ``value``
    unchanged, so identity replay is bit-exact (float division by 1.0
    is exact anyway; this also skips it for speed and clarity)."""
    return value if scale == 1.0 else value / scale


def replay(trace: Trace, mutation: Optional[Mutation] = None
           ) -> ReplayResult:
    """Re-price ``trace`` under ``mutation`` without re-simulation."""
    mutation = mutation or Mutation()
    if trace.kind == "sim":
        return _replay_sim(trace, mutation)
    if trace.kind == "shard":
        return _replay_shard(trace, mutation)
    if trace.kind in ("serve", "fleet"):
        return _replay_serving(trace, mutation)
    raise ScheduleError(f"cannot replay trace kind {trace.kind!r}")


# ---------------------------------------------------------------------------
# Single-chip performance traces
# ---------------------------------------------------------------------------


def _replay_sim(trace: Trace, m: Mutation) -> ReplayResult:
    if m.chips_delta:
        raise ScheduleError(
            "chips mutations apply to shard traces, not single-chip sim "
            "traces")
    cs, rs = m.compute_scale, m.reconfiguration_scale
    model = sim_model_from_trace(trace)
    for seg in model["segments"]:
        seg["cycles"] = _scaled(seg["cycles"], cs)
        seg["reconfiguration"] = _scaled(seg["reconfiguration"], rs)
        seg["bottleneck_cycles"] = _scaled(seg["bottleneck_cycles"], cs)
        seg["noc"] = _scaled(seg["noc"], cs)
        seg["ops"] = tuple((name, _scaled(off, cs), _scaled(lat, cs))
                           for name, off, lat in seg["ops"])
    rec = TraceRecorder()
    emit_sim(model, rec)
    compute_total = 0.0
    reconf_total = 0.0
    for seg in model["segments"]:
        compute_total += seg["cycles"]
        reconf_total += seg["reconfiguration"]
    total = compute_total + reconf_total
    if model["pipelined"]:
        intervals = [max(seg["bottleneck_cycles"], seg["reconfiguration"])
                     for seg in model["segments"]]
        interval = max(1.0, *intervals) if intervals else 1.0
    else:
        interval = total
    meta = dict(trace.meta)
    meta.update(
        total_cycles=total, compute_cycles=compute_total,
        reconfiguration_cycles=reconf_total,
        noc_cycles=_scaled(meta.get("noc_cycles", 0.0), cs),
        steady_state_interval=interval)
    rec.configure(kind="sim", **meta)
    return ReplayResult(
        trace=rec.finish(),
        metrics={"total_cycles": total,
                 "steady_state_interval": interval,
                 "throughput": 1.0 / interval},
        mutation=m)


# ---------------------------------------------------------------------------
# Multi-chip shard traces
# ---------------------------------------------------------------------------


def _replay_shard(trace: Trace, m: Mutation) -> ReplayResult:
    cs = m.compute_scale
    model = shard_model_from_trace(trace)
    model["stage_latencies"] = [_scaled(v, cs)
                                for v in model["stage_latencies"]]
    model["stage_intervals"] = [_scaled(v, cs)
                                for v in model["stage_intervals"]]
    link_meta = trace.meta["link"]
    link = m.scaled_link(ChipLink(
        bandwidth_bits=link_meta["bandwidth_bits"],
        latency_cycles=link_meta["latency_cycles"],
        serialization_overhead=link_meta["serialization_overhead"],
        energy_per_bit=link_meta["energy_per_bit"]))
    if m.chips_delta:
        model = _rebalance_chips(model, m.chips_delta, link)
    else:
        for t in model["transfers"]:
            t["cycles"] = link.transfer_cycles(t["bits"], t["hops"])
            t["occupancy"] = link.serialization_cycles(t["bits"])
    rec = TraceRecorder()
    emit_shard(model, rec)
    totals = shard_totals(model)
    meta = dict(trace.meta)
    meta.update(
        num_chips=model["num_chips"],
        link={"bandwidth_bits": link.bandwidth_bits,
              "latency_cycles": link.latency_cycles,
              "serialization_overhead": link.serialization_overhead,
              "energy_per_bit": link.energy_per_bit},
        **totals)
    rec.configure(kind="shard", **meta)
    metrics = dict(totals)
    metrics["throughput"] = 1.0 / totals["steady_state_interval"]
    return ReplayResult(trace=rec.finish(), metrics=metrics, mutation=m)


def _rebalance_chips(model: Dict[str, Any], delta: int,
                     link: ChipLink) -> Dict[str, Any]:
    """Ideal-rebalance ±chips estimate: total compute split evenly
    across the new chip count, one mean-boundary-traffic transfer per
    consecutive pair.  A screening signal (monotone in the right
    direction), not an exact re-price — pipeline stages cannot always
    be split this evenly."""
    n = model["num_chips"] + delta
    if n < 1:
        raise ScheduleError(
            f"chips mutation leaves {n} chips; need at least 1")
    compute = sum(model["stage_latencies"])
    interval_sum = sum(model["stage_intervals"])
    chain_bits = [t["bits"] for t in model["transfers"]
                  if t["dst_stage"] == t["src_stage"] + 1]
    mean_bits = (int(round(sum(chain_bits) / len(chain_bits)))
                 if chain_bits else 0)
    transfers = []
    for i in range(n - 1):
        transfers.append({
            "seq": i, "src_stage": i, "dst_stage": i + 1,
            "src_chip": i, "dst_chip": i + 1, "bits": mean_bits,
            "hops": 1, "cycles": link.transfer_cycles(mean_bits, 1),
            "occupancy": link.serialization_cycles(mean_bits),
            "energy": link.transfer_energy(mean_bits, 1)})
    return {
        "num_chips": n,
        "chips": list(range(n)),
        "stage_latencies": [compute / n] * n,
        "stage_intervals": [interval_sum / n] * n,
        "transfers": transfers,
    }


# ---------------------------------------------------------------------------
# Serving traces (serve DES / fleet engine)
# ---------------------------------------------------------------------------


def _replay_serving(trace: Trace, m: Mutation) -> ReplayResult:
    if m.chips_delta:
        raise ScheduleError(
            "chips mutations apply to shard traces, not serving traces")
    meta = dict(trace.meta)
    fleet = trace.kind == "fleet"
    cs, rs = m.compute_scale, m.reconfiguration_scale

    hop_in = hop_out = 0.0
    link = None
    if fleet:
        link_meta = meta["link"]
        link = m.scaled_link(ChipLink(
            bandwidth_bits=link_meta["bandwidth_bits"],
            latency_cycles=link_meta["latency_cycles"],
            serialization_overhead=link_meta["serialization_overhead"],
            energy_per_bit=link_meta["energy_per_bit"]))
        hop_in = link.transfer_cycles(meta["request_bits"], 1)
        hop_out = link.transfer_cycles(meta["response_bits"], 1)
        meta.update(
            hop_in=hop_in, hop_out=hop_out,
            link={"bandwidth_bits": link.bandwidth_bits,
                  "latency_cycles": link.latency_cycles,
                  "serialization_overhead":
                      link_meta["serialization_overhead"],
                  "energy_per_bit": link_meta["energy_per_bit"]})
    timeout = (m.batch_timeout if m.batch_timeout is not None
               else meta.get("batch_timeout"))
    if m.batch_timeout is not None:
        meta["batch_timeout"] = m.batch_timeout
        if meta.get("policy", "").startswith("timeout:"):
            max_size = meta["policy"].split(":")[1]
            meta["policy"] = f"timeout:{max_size}:{m.batch_timeout:g}"

    # Recorded batches per executor track, in dispatch order.  Fault
    # spans on executor tracks (drift-forced weight rewrites) join the
    # per-track chain; fault spans elsewhere (chip-death markers) pass
    # through verbatim like deployments.
    tracks: Dict[str, List] = {}
    exec_faults: Dict[str, List] = {}
    deploys = []
    passthrough_faults = []
    for s in trace.spans:
        if s.cat == "batch":
            tracks.setdefault(s.track, []).append(s)
        elif s.cat == "reconfiguration" and s.track.endswith("/deploy"):
            deploys.append(s)
        elif s.cat == "fault":
            if "ex:" in s.track:
                exec_faults.setdefault(s.track, []).append(s)
            else:
                passthrough_faults.append(s)
    for batch_spans in tracks.values():
        batch_spans.sort(key=lambda s: s.arg("dispatch"))
    for fault_spans in exec_faults.values():
        fault_spans.sort(key=lambda s: s.begin)

    fmeta = meta.get("fault") if fleet else None
    death_time = fmeta.get("chip_death_time") if fmeta else None
    death_rid = fmeta.get("chip_death_rid") if fmeta else None

    rec = TraceRecorder()
    latencies: Dict[str, List[Tuple[int, float]]] = {}
    horizon = 0.0
    for track in set(tracks) | set(exec_faults):
        batch_spans = tracks.get(track, [])
        prefix = track[:track.rindex("ex:")]
        rid = (int(prefix.split(":", 1)[1].split("/", 1)[0])
               if prefix.startswith("replica:") else 0)
        # Merge the batch chain with the track's fault stalls by
        # recorded time (a stall beginning exactly at a dispatch time
        # happened first — it is what delayed the dispatch).
        items = [("batch", s, s.arg("dispatch")) for s in batch_spans]
        items += [("fault", s, s.begin) for s in exec_faults.get(track, [])]
        items.sort(key=lambda it: (it[2], 0 if it[0] == "fault" else 1))
        exec_free = 0.0
        for what, s, _ in items:
            if what == "fault":
                start = max(exec_free, s.arg("deadline"))
                dur = _scaled(s.dur, rs)
                rec.span(s.name, "fault", start, dur, track,
                         **dict(s.args))
                exec_free = start + dur
                horizon = max(horizon, exec_free)
                continue
            members = s.arg("members")
            arrivals = s.arg("arrivals")
            tenant = s.arg("tenant")
            oldest = s.arg("oldest")
            ready = s.arg("ready")
            filled = arrivals[-1] + hop_in
            if ready == "deadline" and timeout is not None:
                t_ready = oldest + timeout
            else:
                t_ready = filled
            dispatch = max(exec_free, t_ready, filled)
            switch = _scaled(s.arg("switch"), rs)
            service = _scaled(s.arg("service"), cs)
            emit_batch_spans(
                rec, prefix, s.arg("executor"), tenant, members,
                arrivals, hop_in, dispatch, switch, service,
                t_ready, filled, oldest, ready)
            complete = dispatch + switch + service
            exec_free = complete
            horizon = max(horizon, complete + hop_out)
            # A batch completing at/after the chip-death instant on the
            # dead replica was lost in flight: its requests landed (the
            # inbound hop happened) but never finished.
            lost = (death_time is not None and rid == death_rid
                    and complete >= death_time)
            rows = latencies.setdefault(tenant, [])
            for idx, arrival in zip(members, arrivals):
                if fleet:
                    rec.span(f"hop_in:{idx}", "link", arrival, hop_in,
                             f"replica:{rid}/link", index=idx,
                             tenant=tenant, rid=rid)
                    if lost:
                        continue
                    rec.span(f"hop_out:{idx}", "link", complete, hop_out,
                             f"replica:{rid}/link", index=idx,
                             tenant=tenant, rid=rid)
                if not lost:
                    rows.append((idx, complete + hop_out - arrival))
    for s in deploys:
        rec.span(s.name, s.cat, s.begin, _scaled(s.dur, rs), s.track,
                 **dict(s.args))
    for s in passthrough_faults:
        rec.span(s.name, s.cat, s.begin, _scaled(s.dur, rs), s.track,
                 **dict(s.args))
    if fmeta:
        # Requests flushed off the dead replica's queues re-routed and
        # (maybe) completed elsewhere — their *first* landing's inbound
        # hop is not derivable from any batch, so it rides the meta.
        for idx, tenant, arrival in fmeta.get("rerouted_hops", []):
            rec.span(f"hop_in:{idx}", "link", arrival, hop_in,
                     f"replica:{death_rid}/link", index=idx,
                     tenant=tenant, rid=death_rid)
    rec.configure(kind=trace.kind, **meta)
    return ReplayResult(trace=rec.finish(),
                        metrics=_serving_metrics(latencies, horizon),
                        mutation=m)


def _serving_metrics(latencies: Dict[str, List[Tuple[int, float]]],
                     horizon: float) -> Dict[str, Any]:
    """Latency percentiles per tenant + overall, from replayed chains."""
    from ..serve.report import sorted_percentile

    def stats(values: List[float]) -> Dict[str, float]:
        ordered = sorted(values)
        return {
            "completed": len(values),
            "p50": sorted_percentile(ordered, 50),
            "p95": sorted_percentile(ordered, 95),
            "p99": sorted_percentile(ordered, 99),
            "mean": sum(values) / len(values) if values else 0.0,
            "max": max(values) if values else 0.0,
        }

    tenants = {t: stats([lat for _, lat in rows])
               for t, rows in sorted(latencies.items())}
    everything = [lat for rows in latencies.values() for _, lat in rows]
    out = stats(everything)
    out["horizon"] = horizon
    out["tenants"] = tenants
    return out
