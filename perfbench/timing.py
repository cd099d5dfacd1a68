"""Host-time measurement: a sliced, calibrated event loop.

On a shared host the same repetition can take 40% longer from one
minute to the next. The slowdown comes from contention the guest cannot
see: steal stays flat, and process CPU time rises with wall time. Its
level drifts over minutes, so no minimum over a few repetitions reaches
the unloaded floor. So the event loop runs in slices of simulated time,
and a fixed pure-Python calibration segment runs between slices. Each
slice's time is divided by the time of the segments around it, which
cancels the slowdown of that moment, and multiplied by a constant
reference segment time to read in seconds. README.md holds the
measurements behind this choice.
"""

from __future__ import annotations

import statistics
import time
from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Dict, List, Sequence

from repro.network import Network

# Simulated ns per event-loop slice: 4-110 ms of host time per slice
# across the workloads, against a ~0.5 ms calibration segment.
SLICE_NS = 50e3
# The calibration segment's unloaded time on the host the benchmark was
# built on (2-vCPU Intel Xeon VM, Python 3.11). Calibrated times are
# host seconds on a host where a segment takes this long.
REFERENCE_SEGMENT_S = 0.45e-3


class _Port:
    __slots__ = ("queue", "credit", "sent")

    def __init__(self) -> None:
        self.queue: deque = deque()
        self.credit = 0.0
        self.sent = 0

    def on_event(self, nbytes: float) -> None:
        self.queue.append(nbytes)
        self.credit += nbytes
        if len(self.queue) > 8:
            self.credit -= self.queue.popleft()
            self.sent += 1


def calibration_segment() -> float:
    """Seconds one fixed kernel takes: the simulator's mix of heap
    events, bound-method dispatch, slotted attributes and deques."""
    started = time.perf_counter()
    ports = [_Port() for _ in range(16)]
    heap: list = []
    for i in range(600):
        heappush(heap, ((i * 7919) % 1009 * 1.0, i, ports[i & 15].on_event, float(i)))
    while heap:
        _, _, fn, arg = heappop(heap)
        fn(arg)
    return time.perf_counter() - started


@dataclass
class Rep:
    """Host time of one complete repetition of a workload.

    ``wall_s`` is the call into ``repro.experiments`` and ``loop_s`` the
    runner's own event-loop timers (``ExperimentResult.wall_seconds``),
    both without the calibration segments run inside them. ``slices``
    holds ``(slice_s, segment_before_s, segment_after_s)`` for every
    event-loop slice; ``segments`` every calibration segment, starting
    with one run just before the repetition.
    """

    wall_s: float = 0.0
    loop_s: float = 0.0
    slices: List[tuple] = field(default_factory=list)
    segments: List[float] = field(default_factory=list)
    calib_s: float = 0.0  # time of the segments run inside the repetition


class SlicedLoop:
    """Context manager that runs every ``Network.run`` slice by slice.

    Slicing only stops the event loop at slice boundaries and resumes
    it; the events executed, and their order, are those of one
    uninterrupted run (the seed-7 golden digest check guards this).
    """

    def __init__(self, rep: Rep, slice_ns: float = SLICE_NS) -> None:
        self.rep = rep
        self.slice_ns = slice_ns
        self._original = None

    def __enter__(self) -> "SlicedLoop":
        rep, slice_ns = self.rep, self.slice_ns

        def segment() -> float:
            seconds = calibration_segment()
            rep.segments.append(seconds)
            rep.calib_s += seconds
            return seconds

        def run(network: Network, until: float) -> None:
            sim = network.sim
            t = sim.now
            before = segment()
            while t < until:
                t = min(t + slice_ns, until)
                started = time.perf_counter()
                sim.run(until=t)
                elapsed = time.perf_counter() - started
                after = segment()
                rep.slices.append((elapsed, before, after))
                before = after

        rep.segments.append(calibration_segment())  # the set-up's "before"
        self._original = Network.run
        Network.run = run
        return self

    def __exit__(self, *exc) -> None:
        Network.run = self._original


def calibrated(rep: Rep) -> Dict[str, float]:
    """One repetition's times in reference seconds.

    A slice is scaled by the two segments around it; the time outside
    slices (set-up, and the runner's own work around the loop) by the
    repetition's mean segment.
    """
    mean_scale = REFERENCE_SEGMENT_S / statistics.fmean(rep.segments)
    sliced = sum(s for s, _, _ in rep.slices)
    loop = sum(
        s * 2.0 * REFERENCE_SEGMENT_S / (before + after) for s, before, after in rep.slices
    )
    loop += (rep.loop_s - sliced) * mean_scale
    setup = (rep.wall_s - rep.loop_s) * mean_scale
    return {"loop_s": loop, "setup_s": setup, "wall_s": loop + setup}


def estimate(reps: Sequence[Rep], setups: Sequence[Rep], sim_ms: float) -> Dict[str, float]:
    """Host-time metrics of one invocation: medians of calibrated repetitions.

    ``wall_s`` and ``host_s_per_sim_ms`` come from the full repetitions;
    ``setup_s`` from ``setups``, repetitions cut to a near-zero horizon,
    because one set-up of a quick workload takes milliseconds and a few
    of them are too few to hold still. What noise the calibration leaves
    is as likely to flatter a repetition as to hurt it, so the median is
    steadier than the minimum, which would pick the repetition the
    calibration over-corrected most.
    """
    if not reps or not setups or not all(r.slices for r in (*reps, *setups)):
        raise ValueError("no timed event-loop slices to estimate from")
    cal = [calibrated(r) for r in reps]
    return {
        "wall_s": statistics.median(c["wall_s"] for c in cal),
        "host_s_per_sim_ms": statistics.median(c["loop_s"] for c in cal) / sim_ms,
        "setup_s": statistics.median(calibrated(r)["setup_s"] for r in setups),
    }
