"""Workloads, output checks, timed repetitions and the profiled run.

The simulator is driven only through its public entry points
(``run_experiment``, ``run_table2(run_fn=...)``, ``three_stage_fat_tree``,
``Network``) and timed from outside them; timing.py slices the event
loop by swapping ``Network.run``. See README.md in this directory for
why each workload exists and how the estimator was chosen.
"""

from __future__ import annotations

import contextlib
import cProfile
import dataclasses
import gc
import hashlib
import json
import os
import pstats
import resource
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.engine import Simulator
from repro.experiments import SCALES, ExperimentConfig, ExperimentResult, run_experiment, run_table2
from repro.experiments.runner import TracedRun, config_slug
from repro.network import HcaConfig, Network, NetworkConfig
from repro.topology import three_stage_fat_tree

import layers
import timing

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
GOLDEN_DIGESTS = os.path.join(ROOT, "tests", "golden", "digests.json")
EXPECTED = os.path.join(BENCH_DIR, "expected-seed7.json")
PROFILE_OUT = os.path.join(BENCH_DIR, "out")

RunFn = Callable[[ExperimentConfig], ExperimentResult]


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    """One named input set: which cells run, at which default horizon."""

    name: str
    radix: int
    horizon_ms: float  # simulated ms per cell by default
    n_cells: int
    run: Callable[[int, float, RunFn], List[ExperimentResult]]
    # Per-cell failures of the output checks; ``pinned`` is True at seed 7
    # and the default horizon, where the expected outputs are recorded.
    check_cells: Callable[[List[ExperimentResult], bool], Dict[int, str]]
    cell_fn: RunFn = run_experiment  # how each cell is run
    golden: Optional[str] = None  # golden digest key of the seed-7 cell


def _paper_cfg(seed: int, horizon_ms: float) -> ExperimentConfig:
    # Table II's hotspot CC-on phase (run_table2's fourth cell) on the
    # paper's radix-36 fabric, cut to a short horizon.
    return ExperimentConfig(
        scale=SCALES["paper"], b_fraction=0.0, c_fraction_of_rest=0.8, seed=seed,
        name="table2", cc=True, sim_time_ns=horizon_ms * 1e6,
    )


def _windy_cfg(seed: int, horizon_ms: float) -> ExperimentConfig:
    # The golden cell windy-x1.00-p0.60-seed7-cc, as run_windy_figure builds it.
    return ExperimentConfig(
        scale=SCALES["quick"], b_fraction=1.0, p=0.6, c_fraction_of_rest=0.8, seed=seed,
        name="windy-x1.00-p0.60", cc=True, sim_time_ns=horizon_ms * 1e6,
    )


def _run_paper(seed, horizon_ms, run_fn):
    return [run_fn(_paper_cfg(seed, horizon_ms))]


def _run_table2(seed, horizon_ms, run_fn):
    scale = dataclasses.replace(SCALES["quick"], sim_time_ns=horizon_ms * 1e6)
    t = run_table2(scale, seed=seed, jobs=1, run_fn=run_fn)
    return [t.baseline_no_cc, t.baseline_cc, t.hotspots_no_cc, t.hotspots_cc]


def _run_windy(seed, horizon_ms, run_fn):
    return [run_fn(_windy_cfg(seed, horizon_ms))]


def _check_paper(cells, pinned):
    # Eight hotspots fed by 80% of the hosts saturate their 13.6 Gbit/s
    # sinks within the first simulated ms, with or without throttling.
    r = cells[0]
    if not r.hotspot > 12.0:
        return {0: f"hotspot avg {r.hotspot:.3f} Gbit/s is not saturated"}
    return {}


def table2_shape_failures(rows: Dict[str, float], improvement: float, full: bool = True) -> Dict[int, str]:
    """Table II's shape criteria, keyed by the cell each one judges.

    These are the criteria of benchmarks/test_bench_table2.py. With
    ``full=False`` only those that hold at every seed remain: at quick
    scale some hotspot placements leave the victims' paths uncongested
    (seeds 1 and 10 of 1-10), so there is no collapse for CC to recover.
    Cells are ordered as run_table2 runs them: 0 silent CC off, 1 silent
    CC on, 2 hotspots CC off, 3 hotspots CC on.
    """
    base = rows["no_hotspots_no_cc_avg"]
    criteria = [
        (1, rows["no_hotspots_cc_avg"] > 0.97 * base, "CC harms the uniform baseline"),
        (2, rows["hotspots_no_cc_hotspot_avg"] > 12.0, "hotspots not saturated without CC"),
        (3, rows["hotspots_cc_hotspot_avg"] > 0.85 * rows["hotspots_no_cc_hotspot_avg"],
         "CC costs the hotspots more than 15%"),
        (3, rows["hotspots_cc_non_hotspot_avg"] > 0.8 * base, "recovery below 80% of baseline"),
        (3, improvement >= 1.0, "CC lowers total throughput"),
    ]
    if full:
        criteria += [
            (2, rows["hotspots_no_cc_non_hotspot_avg"] < 0.5 * base, "no collapse without CC"),
            (3, rows["hotspots_cc_non_hotspot_avg"] > 2.0 * rows["hotspots_no_cc_non_hotspot_avg"],
             "no recovery with CC"),
            (3, improvement > 1.3, "total throughput improves by less than 1.3x"),
        ]
    failures: Dict[int, str] = {}
    for cell, ok, why in criteria:
        if not ok:
            failures.setdefault(cell, why)
    return failures


def _check_table2(cells, pinned):
    no_cc_silent, cc_silent, no_cc, cc = cells
    rows = {
        "no_hotspots_no_cc_avg": no_cc_silent.all_nodes,
        "no_hotspots_cc_avg": cc_silent.all_nodes,
        "hotspots_no_cc_hotspot_avg": no_cc.hotspot,
        "hotspots_no_cc_non_hotspot_avg": no_cc.non_hotspot,
        "hotspots_cc_hotspot_avg": cc.hotspot,
        "hotspots_cc_non_hotspot_avg": cc.non_hotspot,
    }
    return table2_shape_failures(rows, cc.total / no_cc.total, full=pinned)


def _check_windy(cells, pinned):
    r = cells[0]
    if r.trace_digest is None or r.trace_violations:
        return {0: f"trace auditor: {r.trace_violations} violation(s), digest {r.trace_digest}"}
    return {}


WORKLOADS: Dict[str, Workload] = {
    wl.name: wl
    for wl in (
        Workload("paper_hotspot_cc", 36, 2.0, 1, _run_paper, _check_paper),
        Workload("quick_table2", 8, SCALES["quick"].sim_time_ns / 1e6, 4, _run_table2, _check_table2),
        Workload("quick_windy_traced", 8, SCALES["quick"].sim_time_ns / 1e6, 1, _run_windy,
                 _check_windy, cell_fn=TracedRun(), golden="windy-x1.00-p0.60-seed7-cc"),
    )
}


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def cell_summary(r: ExperimentResult) -> dict:
    """The simulated outputs of one cell that the checks pin."""
    return {
        "slug": config_slug(r.config),
        "events": r.events,
        "fecn_marks": r.fecn_marks,
        "becns": r.becns,
        "groups": dict(sorted(r.groups.items())),
    }


def fingerprint(r: ExperimentResult) -> str:
    """Everything a repetition of the same cell must reproduce exactly."""
    h = hashlib.sha256()
    for part in (r.events, r.fecn_marks, r.becns, r.trace_digest, r.trace_records,
                 r.trace_violations, r.hotspots, r.rates_gbps):
        h.update(repr(part).encode())
    return h.hexdigest()


def _matches(want: dict, got: dict) -> bool:
    """Counts equal and group rates equal up to float summation order."""
    rates_match = all(
        abs(got["groups"][k] - v) <= 1e-9 * max(abs(v), 1.0) for k, v in want["groups"].items()
    )
    return rates_match and {**want, "groups": None} == {**got, "groups": None}


class Checker:
    """Checks every repetition of one invocation; counts failed cell runs."""

    def __init__(self, wl: Workload, seed: int, horizon_ms: float) -> None:
        self.wl = wl
        self.pinned = seed == 7 and horizon_ms == wl.horizon_ms
        self.reference: Optional[List[str]] = None
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []
        self.expected: Optional[List[dict]] = None
        self.golden: Optional[str] = None
        if self.pinned:
            with open(EXPECTED) as fh:
                self.expected = json.load(fh)[wl.name]
            if wl.golden:
                with open(GOLDEN_DIGESTS) as fh:
                    self.golden = json.load(fh)[wl.golden]

    def raised(self, exc: BaseException) -> None:
        self.attempted += self.wl.n_cells
        self.failed += self.wl.n_cells
        self.messages.append(f"repetition raised {type(exc).__name__}: {exc}")

    def check(self, cells: Sequence[ExperimentResult]) -> None:
        self.attempted += self.wl.n_cells
        failures = self.wl.check_cells(list(cells), self.pinned)
        prints = [fingerprint(c) for c in cells]
        if self.reference is None:
            self.reference = prints
        for i, cell in enumerate(cells):
            if prints[i] != self.reference[i]:
                failures.setdefault(i, "differs from the first repetition")
            if self.expected is not None:
                want, got = self.expected[i], cell_summary(cell)
                if not _matches(want, got):
                    failures.setdefault(i, f"seed-7 outputs {got} != expected {want}")
            if self.golden is not None and cell.trace_digest != self.golden:
                failures.setdefault(i, f"digest {cell.trace_digest} != golden {self.golden}")
        self.failed += len(failures)
        self.messages.extend(f"cell {i}: {why}" for i, why in sorted(failures.items()))


# ----------------------------------------------------------------------
# Timed repetitions
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_rep(wl: Workload, seed: int, horizon_ms: float, run_fn: RunFn, sliced: bool = True):
    """One repetition; sliced and calibrated unless ``sliced`` is False."""
    rep = timing.Rep()
    gc.collect()  # garbage of the previous repetition is not this one's cost
    with timing.SlicedLoop(rep) if sliced else contextlib.nullcontext():
        started = time.perf_counter()
        cells = wl.run(seed, horizon_ms, run_fn)
        rep.wall_s = time.perf_counter() - started - rep.calib_s
    rep.loop_s = sum(c.wall_seconds for c in cells) - rep.calib_s
    return rep, cells


# Set-up repetitions per invocation, and their horizon: 1 simulated ns
# runs only the events due at time 0.
SETUP_REPS = 7
SETUP_HORIZON_MS = 1e-6


def measure(wl: Workload, seed: int, horizon_ms: float, seconds: float):
    """Time set-up repetitions, then repeat the workload for about
    ``seconds`` in all, checking every full repetition.

    A full repetition starts only while the previous one would still fit
    in the budget, and at least one always runs. Returns the full
    repetitions, the set-up repetitions and the checker.
    """
    reps: List[timing.Rep] = []
    setups: List[timing.Rep] = []
    checker = Checker(wl, seed, horizon_ms)
    deadline = time.perf_counter() + seconds
    for _ in range(SETUP_REPS):
        try:
            setups.append(_timed_rep(wl, seed, SETUP_HORIZON_MS, wl.cell_fn)[0])
        except Exception as exc:  # counted as failed cells, reported by the caller
            checker.raised(exc)
    while True:
        started = time.perf_counter()
        try:
            rep, cells = _timed_rep(wl, seed, horizon_ms, wl.cell_fn)
        except Exception as exc:
            checker.raised(exc)
        else:
            reps.append(rep)
            checker.check(cells)
            del cells
        last = time.perf_counter() - started
        if time.perf_counter() + last > deadline:
            return reps, setups, checker


# ----------------------------------------------------------------------
# Profiled run (per-layer metrics)
# ----------------------------------------------------------------------
class CellTimer:
    """``run_fn`` that times, and optionally profiles, each cell call."""

    def __init__(self, inner: RunFn, profile: bool) -> None:
        self.inner = inner
        self.profile = profile
        self.call_s: List[float] = []
        self.profiles: List[cProfile.Profile] = []

    def __call__(self, cfg: ExperimentConfig) -> ExperimentResult:
        prof = cProfile.Profile() if self.profile else None
        started = time.perf_counter()
        if prof is not None:
            prof.enable()
        try:
            return self.inner(cfg)
        finally:
            if prof is not None:
                prof.disable()
                self.profiles.append(prof)
            self.call_s.append(time.perf_counter() - started)


def best_build_s(radix: int, k: int = 3) -> Dict[str, float]:
    """Best-of-k times of the two set-up calls run_experiment makes first."""
    topo_s, net_s = [], []
    net_cfg = NetworkConfig(hca=HcaConfig(inj_rate_gbps=13.5, sink_rate_gbps=13.6))
    for _ in range(k):
        gc.collect()
        t0 = time.perf_counter()
        topo = three_stage_fat_tree(radix)
        t1 = time.perf_counter()
        Network(Simulator(), topo, net_cfg)
        t2 = time.perf_counter()
        topo_s.append(t1 - t0)
        net_s.append(t2 - t1)
    return {"topology.build_s": min(topo_s), "network.build_s": min(net_s)}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def profile_run(wl: Workload, seed: int, horizon_ms: float):
    """One unprofiled and one profiled repetition, both checked.

    Returns ``(per_layer_metrics, report, checker)``; ``report`` is the
    diffable per-cell layer breakdown written to ``out/``.
    """
    checker = Checker(wl, seed, horizon_ms)
    builds = best_build_s(wl.radix)
    plain = CellTimer(wl.cell_fn, profile=False)
    rep_plain, cells = _timed_rep(wl, seed, horizon_ms, plain, sliced=False)
    checker.check(cells)

    profiled = CellTimer(wl.cell_fn, profile=True)
    rep_prof, cells = _timed_rep(wl, seed, horizon_ms, profiled, sliced=False)
    checker.check(cells)

    per_cell = []
    for cell, prof in zip(cells, profiled.profiles):
        stats = pstats.Stats(prof).stats
        per_cell.append({**cell_summary(cell), "trace_records": cell.trace_records,
                         **layers.attribute(stats, cell.events)})
    combined = pstats.Stats(*profiled.profiles).stats
    events = sum(c.events for c in cells)
    total = layers.attribute(combined, events)
    calls, shares, kinds = total["calls"], total["self_share"], total["events_by_kind"]

    metrics = {
        "engine.events": (events, "count"),
        "engine.events_per_packet": (_ratio(events, calls["packets_delivered"]), "events/packet"),
        "engine.ns_per_event": (_ratio(rep_plain.loop_s, events) * 1e9, "ns"),
        "engine.self_share": (shares["engine"], "share"),
        **{f"engine.event_share.{k}": (_ratio(kinds[k], events), "share") for k in layers.EVENT_KINDS},
        "network.ports.try_send_calls": (calls["try_send_calls"], "count"),
        "network.ports.transmissions": (calls["transmissions"], "count"),
        "network.ports.try_send_yield": (_ratio(calls["transmissions"], calls["try_send_calls"]), "ratio"),
        "network.ports.self_share": (shares["network.ports"], "share"),
        "network.arbiter.kicks": (calls["kicks"], "count"),
        "network.arbiter.grants": (calls["grants"], "count"),
        "network.arbiter.grant_yield": (_ratio(calls["grants"], calls["kicks"]), "ratio"),
        "network.arbiter.self_share": (shares["network.arbiter"], "share"),
        "network.hca.pulls": (calls["pulls"], "count"),
        "network.hca.wakes": (calls["wakes"], "count"),
        "network.hca.packets_delivered": (calls["packets_delivered"], "count"),
        "network.hca.self_share": (shares["network.hca"], "share"),
        "network.self_share": (shares["network"], "share"),
        "traffic.packets_generated": (calls["packets_generated"], "count"),
        "traffic.self_share": (shares["traffic"], "share"),
        "core.fecn_marks": (sum(c.fecn_marks for c in cells), "count"),
        "core.becns": (sum(c.becns for c in cells), "count"),
        "core.self_share": (shares["core"], "share"),
        "trace.records": (sum(c.trace_records for c in cells), "count"),
        "trace.self_share": (shares["trace"], "share"),
        "topology.build_s": (builds["topology.build_s"], "s"),
        "network.build_s": (builds["network.build_s"], "s"),
        "parallel.overhead_s": (rep_plain.wall_s - sum(plain.call_s), "s"),
        "stdlib.self_share": (shares["stdlib"], "share"),
        "metrics.self_share": (shares["metrics"], "share"),
        "profile.overhead_ratio": (_ratio(rep_prof.wall_s, rep_plain.wall_s), "ratio"),
    }
    report = {
        "workload": wl.name,
        "seed": seed,
        "horizon_ms_per_cell": horizon_ms,
        "total": {"events": events, **total},
        "cells": per_cell,
    }
    return metrics, report, checker


def write_report(report: dict) -> str:
    """Write the per-layer report as sorted, indented JSON; return its path."""
    os.makedirs(PROFILE_OUT, exist_ok=True)
    path = os.path.join(PROFILE_OUT, f"layers-{report['workload']}-seed{report['seed']}.json")
    with open(path, "w") as fh:
        json.dump(_rounded(report), fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def _rounded(obj):
    # Shares to 4 decimals keep diffs to the layers that really moved.
    if isinstance(obj, float):
        return round(obj, 4)
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_rounded(v) for v in obj]
    return obj
