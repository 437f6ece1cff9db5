"""Seeded request-trace generators over mixed model populations.

A *trace* is a list of :class:`Request` in arrival order — the open-loop
input of the serving engine.  Four arrival processes cover the classic
serving regimes:

* :func:`poisson_trace` — memoryless arrivals at a constant rate (the
  M/·/1 baseline every capacity study starts from).
* :func:`bursty_trace` — a two-state Markov-modulated Poisson process
  (MMPP-2): calm stretches punctuated by bursts, the shape that stresses
  queues and tail latency.
* :func:`diurnal_trace` — a sinusoidally ramped rate (thinning sampler),
  the day/night envelope of user-facing traffic.
* :func:`diurnal_bursty_trace` — the MMPP riding the diurnal envelope:
  the datacenter-fleet shape (day/night swing *and* bursts), what
  ``repro fleet`` autoscales against.

All generators are pure functions of their arguments: the same seed and
config yield the bit-identical trace on every run.  Generation is
*vectorized*: the CPython ``random.Random(seed)`` Mersenne-Twister state
is transplanted into a pair of ``numpy.random.RandomState`` clones
(``set_state``) that materialize the identical underlying uniform stream
in numpy batches — once as raw uniforms (``random_sample``) and once
exp-transformed (``standard_exponential``, the same ``-log(1 - u)`` that
``Random.expovariate`` computes, through the same C ``log``).  Arrival
clocks come from sequential ``np.cumsum`` accumulation, so every float
matches the scalar reference generators (``_*_trace_scalar`` in
:mod:`repro.perf.reference`, pinned bit-identical by the equality tests)
while fleet-scale traces (10^6+ requests) generate in seconds.

Each generator walks the stream in fixed buffers of :data:`_BUFFER`
positions, whatever the trace length, so generating a trace needs at
most a few MiB on top of the trace it returns.  Rates are expressed in
requests per cycle; the CLI converts from the friendlier requests per
mega-cycle.
"""

from __future__ import annotations

import hashlib
import math
import random
import struct
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence

import numpy as np

from ..errors import ScheduleError

#: Stream positions a generator views at a time.  Generation memory
#: beyond the returned trace is bounded by this, not by the trace
#: length; the positions a trace consumes do not depend on it.
_BUFFER = 4096


def _require_positive(what: str, value: float) -> None:
    """Raise :class:`ScheduleError` unless ``value`` is finite and > 0:
    a zero, negative, NaN or infinite SLO, tenant weight, arrival rate,
    diurnal period, burst/calm factor, mean dwell, autoscaler tick or
    admission SLO budget gives no meaningful run (a NaN period never
    ends a diurnal trace, and a NaN tick never scales)."""
    if not (math.isfinite(value) and value > 0):
        raise ScheduleError(f"{what} must be finite and > 0, got {value}")


@dataclass(frozen=True)
class TenantSpec:
    """One co-resident model population.

    ``weight`` is the tenant's share of request traffic; ``slo_cycles``
    optionally pins an absolute latency SLO (otherwise the engine derives
    one from the tenant's isolated latency).
    """

    name: str
    model: str
    weight: float = 1.0
    slo_cycles: Optional[float] = None

    def __post_init__(self) -> None:
        _require_positive(f"tenant {self.name!r}: weight", self.weight)
        if self.slo_cycles is not None:
            _require_positive(f"tenant {self.name!r}: slo_cycles",
                              self.slo_cycles)


class Request(NamedTuple):
    """One inference request: global index, tenant, arrival cycle.

    (A ``NamedTuple`` rather than a dataclass: construction cost and
    footprint dominate fleet-scale traces of millions of requests.)
    """

    index: int
    tenant: str
    arrival: float


def _validate(tenants: Sequence[TenantSpec], rate: float,
              num_requests: int) -> None:
    if not tenants:
        raise ScheduleError("trace needs at least one tenant")
    if len({t.name for t in tenants}) != len(tenants):
        raise ScheduleError("tenant names must be unique")
    _require_positive("arrival rate", rate)
    if num_requests < 0:
        raise ScheduleError(f"num_requests must be >= 0, got {num_requests}")


# ---------------------------------------------------------------------------
# Vectorized uniform-stream machinery
# ---------------------------------------------------------------------------


class _TwinStream:
    """The ``random.Random(seed)`` uniform stream, materialized in numpy
    batches under two synchronized views.

    Both views consume the *same* Mersenne-Twister positions: ``u[i]`` is
    the raw ``Random.random()`` draw at stream position ``i`` and ``e[i]``
    is its exponential transform ``-log(1 - u[i])`` (what
    ``Random.expovariate(lambd)`` returns, pre-division) — so a caller can
    interpret each position as either kind after the fact, which is what
    makes interleaved gap/choice streams batchable.
    """

    def __init__(self, seed: int, block: int = 1 << 15) -> None:
        py_state = random.Random(seed).getstate()[1]
        key = np.array(py_state[:-1], dtype=np.uint32)
        pos = py_state[-1]
        self._exp = np.random.RandomState()
        self._exp.set_state(("MT19937", key, pos))
        self._uni = np.random.RandomState()
        self._uni.set_state(("MT19937", key, pos))
        self._block = block
        self._e = np.empty(0)
        self._u = np.empty(0)
        self._off = 0

    def peek(self, n: int):
        """Views of the next ``n`` stream entries, without consuming."""
        avail = len(self._e) - self._off
        if avail < n:
            draw = max(self._block, n - avail)
            self._e = np.concatenate(
                (self._e[self._off:], self._exp.standard_exponential(draw)))
            self._u = np.concatenate(
                (self._u[self._off:], self._uni.random_sample(draw)))
            self._off = 0
        return (self._e[self._off:self._off + n],
                self._u[self._off:self._off + n])

    def consume(self, n: int) -> None:
        """Advance past ``n`` peeked entries."""
        self._off += n

    def take(self, n: int):
        """Peek and consume ``n`` entries in one step."""
        e, u = self.peek(n)
        self._off += n
        return e, u


def _pick_batch(u: np.ndarray,
                tenants: Sequence[TenantSpec]) -> List[int]:
    """Vectorized weighted tenant choice: tenant indices for a batch of
    uniforms, reproducing the scalar inverse-CDF sequential subtraction
    (``repro.perf.reference._pick``) bit for bit."""
    total = sum(t.weight for t in tenants)
    x = u * total
    idx = np.full(len(u), len(tenants) - 1, dtype=np.intp)
    open_ = np.ones(len(u), dtype=bool)
    for k, t in enumerate(tenants[:-1]):
        x = x - t.weight
        hit = open_ & (x < 0)
        idx[hit] = k
        open_ &= ~hit
    return idx.tolist()


def _emit(out: List[Request], tenants: Sequence[TenantSpec],
          picks: np.ndarray, clocks: List[float]) -> None:
    """Append one batch of requests to ``out``: arrivals at ``clocks``,
    tenants chosen by the uniforms ``picks`` (one per clock)."""
    names = [t.name for t in tenants]
    base = len(out)
    out.extend(map(Request, range(base, base + len(clocks)),
                   [names[k] for k in _pick_batch(picks, tenants)],
                   clocks))


# ---------------------------------------------------------------------------
# Public generators
# ---------------------------------------------------------------------------


def poisson_trace(tenants: Sequence[TenantSpec], rate: float,
                  num_requests: int, seed: int = 0) -> List[Request]:
    """Constant-rate Poisson arrivals, tenants drawn by weight.

    Vectorized per buffer: the stream alternates gap/choice draws, so
    one twin-view buffer yields ``_BUFFER / 2`` gaps (even positions,
    exp view) and their tenant choices (odd positions, raw view) at
    once; each buffer's cumsum continues from the last clock.
    """
    _validate(tenants, rate, num_requests)
    stream = _TwinStream(seed)
    clock = 0.0
    out: List[Request] = []
    while len(out) < num_requests:
        k = min(num_requests - len(out), _BUFFER // 2)
        e, u = stream.take(2 * k)
        clocks = np.cumsum(np.concatenate(((clock,), e[0::2] / rate)))[1:]
        _emit(out, tenants, u[1::2], clocks.tolist())
        clock = float(clocks[-1])
    return out


def bursty_trace(tenants: Sequence[TenantSpec], rate: float,
                 num_requests: int, seed: int = 0,
                 burst_factor: float = 1.75, calm_factor: float = 0.25,
                 mean_dwell_requests: float = 16.0) -> List[Request]:
    """Two-state MMPP: bursts at ``rate * burst_factor`` alternating with
    calm stretches at ``rate * calm_factor``.

    With the default factors (averaging to 1) and equal mean dwell times
    the long-run rate stays ``rate``, so bursty and Poisson traces are
    directly comparable at the same nominal load.

    Vectorized per dwell period: within one state the stream is a regular
    gap/choice alternation, so each dwell is one batched cumsum plus a
    crossing search (in chunks of at most ``_BUFFER`` positions); only
    the state flips (one per ``mean_dwell_requests`` arrivals) run in
    Python.
    """
    _validate(tenants, rate, num_requests)
    _require_positive("burst_factor", burst_factor)
    _require_positive("calm_factor", calm_factor)
    _require_positive("mean_dwell_requests", mean_dwell_requests)
    stream = _TwinStream(seed)
    clock = 0.0
    bursting = False
    mean_dwell = mean_dwell_requests / rate
    dwell_rate = 1.0 / mean_dwell
    e0, _ = stream.take(1)
    state_ends = e0[0] / dwell_rate
    out: List[Request] = []
    chunk = min(_BUFFER // 2, max(64, int(4 * mean_dwell_requests)))
    while len(out) < num_requests:
        state_rate = rate * (burst_factor if bursting else calm_factor)
        need = num_requests - len(out)
        k = min(need, chunk)
        e, u = stream.peek(2 * k)
        gaps = e[0::2] / state_rate
        clocks = np.cumsum(np.concatenate(((clock,), gaps)))[1:]
        crossed = clocks > state_ends
        cross_at = int(np.argmax(crossed)) if crossed.any() else k
        emit = min(cross_at, need)
        if emit:
            _emit(out, tenants, u[1:2 * emit:2], clocks[:emit].tolist())
            stream.consume(2 * emit)
            clock = float(clocks[emit - 1])
        if len(out) >= num_requests:
            break
        if cross_at < k and emit == cross_at:
            # The next gap overshoots the dwell: its draw is discarded,
            # the state flips, and a fresh dwell length is drawn.
            e2, _ = stream.take(2)
            clock = state_ends
            bursting = not bursting
            state_ends = clock + e2[1] / dwell_rate
    return out


def diurnal_trace(tenants: Sequence[TenantSpec], rate: float,
                  num_requests: int, seed: int = 0,
                  period: float = 2_000_000.0,
                  depth: float = 0.8) -> List[Request]:
    """Sinusoidal rate ramp: ``rate * (1 + depth * sin(2 pi t / period))``
    sampled by thinning a Poisson process at the peak rate.

    ``depth`` in [0, 1) sets the peak-to-trough swing; the long-run mean
    stays ``rate``.

    The thinning decision stream is data-dependent (an accepted candidate
    consumes one extra choice draw), so candidates run through a fixed
    buffer of ``_BUFFER`` positions at a time: uniforms and their
    exponential transforms are materialized in numpy blocks, and only
    the clock walk runs as plain Python floats.  It records each
    accepted candidate's clock and the stream position of its choice
    draw; the buffer's tenants are then picked in one vectorized step.
    """
    _validate(tenants, rate, num_requests)
    _require_positive("period", period)
    if not 0 <= depth < 1:
        raise ScheduleError(f"depth must be in [0, 1), got {depth}")
    stream = _TwinStream(seed)
    peak = rate * (1.0 + depth)
    two_pi = 2 * math.pi
    sin = math.sin
    clock = 0.0
    out: List[Request] = []
    left = num_requests
    while left > 0:
        e_v, u_v = stream.peek(_BUFFER)
        e, u = e_v.tolist(), u_v.tolist()
        last = len(e) - 3        # the last position a candidate may start
        chosen: List[int] = []
        clocks: List[float] = []
        i = 0
        while i <= last and left > 0:
            clock += e[i] / peak
            if u[i + 1] * peak <= \
                    rate * (1.0 + depth * sin(two_pi * clock / period)):
                chosen.append(i + 2)
                clocks.append(clock)
                left -= 1
                i += 3
            else:
                i += 2
        _emit(out, tenants, u_v[chosen], clocks)
        stream.consume(i)
    return out


def diurnal_bursty_trace(tenants: Sequence[TenantSpec], rate: float,
                         num_requests: int, seed: int = 0,
                         period: float = 2_000_000.0, depth: float = 0.8,
                         burst_factor: float = 1.75,
                         calm_factor: float = 0.25,
                         mean_dwell_requests: float = 16.0
                         ) -> List[Request]:
    """The fleet-headline shape: an MMPP-2 riding the diurnal envelope.

    Candidates come from the :func:`bursty_trace` state machine run at
    ``(1 + depth)`` times its nominal rates and are thinned by the
    sinusoidal envelope (accept probability
    ``(1 + depth sin) / (1 + depth)``), so the long-run rate stays
    ``rate`` while the trace carries *both* the day/night swing an
    autoscaler tracks and the bursts that stress routing and admission.
    Same fixed-buffer scheme as :func:`diurnal_trace`.
    """
    _validate(tenants, rate, num_requests)
    _require_positive("period", period)
    if not 0 <= depth < 1:
        raise ScheduleError(f"depth must be in [0, 1), got {depth}")
    _require_positive("burst_factor", burst_factor)
    _require_positive("calm_factor", calm_factor)
    _require_positive("mean_dwell_requests", mean_dwell_requests)
    stream = _TwinStream(seed)
    peak = rate * (1.0 + depth)
    two_pi = 2 * math.pi
    sin = math.sin
    clock = 0.0
    bursting = False
    cand_rate = peak * calm_factor
    mean_dwell = mean_dwell_requests / rate
    dwell_rate = 1.0 / mean_dwell
    e0, _ = stream.take(1)
    state_ends = e0[0] / dwell_rate
    out: List[Request] = []
    left = num_requests
    while left > 0:
        e_v, u_v = stream.peek(_BUFFER)
        e, u = e_v.tolist(), u_v.tolist()
        last = len(e) - 4        # the last position a candidate may start
        chosen: List[int] = []
        clocks: List[float] = []
        i = 0
        while i <= last and left > 0:
            gap = e[i] / cand_rate
            if clock + gap > state_ends:
                # Dwell boundary: discard the gap, flip, draw a new dwell.
                clock = state_ends
                bursting = not bursting
                cand_rate = peak * (burst_factor if bursting
                                    else calm_factor)
                state_ends = clock + e[i + 1] / dwell_rate
                i += 2
                continue
            clock += gap
            if u[i + 1] * peak <= \
                    rate * (1.0 + depth * sin(two_pi * clock / period)):
                chosen.append(i + 2)
                clocks.append(clock)
                left -= 1
                i += 3
            else:
                i += 2
        _emit(out, tenants, u_v[chosen], clocks)
        stream.consume(i)
    return out


#: Trace kinds the CLI exposes.
TRACES = {
    "poisson": poisson_trace,
    "bursty": bursty_trace,
    "diurnal": diurnal_trace,
    "diurnal-bursty": diurnal_bursty_trace,
}


def make_trace(kind: str, tenants: Sequence[TenantSpec], rate: float,
               num_requests: int, seed: int = 0, **kwargs) -> List[Request]:
    """Dispatch on trace ``kind`` (:data:`TRACES`)."""
    try:
        gen = TRACES[kind]
    except KeyError:
        raise ScheduleError(
            f"unknown trace kind {kind!r}; choose one of {sorted(TRACES)}"
        ) from None
    return gen(tenants, rate, num_requests, seed=seed, **kwargs)


def trace_digest(trace: Sequence[Request]) -> str:
    """Content hash of a trace (index, tenant, exact arrival bits).

    The pinned-determinism currency: two traces digest equal iff every
    request matches bit for bit, without hauling megabytes of floats
    into a test expectation.
    """
    h = hashlib.sha256()
    for req in trace:
        h.update(req.tenant.encode())
        h.update(struct.pack("<qd", req.index, req.arrival))
    return h.hexdigest()


def tenant_counts(trace: Sequence[Request]) -> Dict[str, int]:
    """Requests per tenant (insertion order follows first appearance)."""
    counts: Dict[str, int] = {}
    for req in trace:
        counts[req.tenant] = counts.get(req.tenant, 0) + 1
    return counts
