"""Tests of the benchmark itself: estimator, layer map, checks, smoke runs.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import heapq
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys

import numpy
import pytest

import bench
import layers
import timing

ROOT = os.path.dirname(bench.BENCH_DIR)
SRC = os.path.join(ROOT, "src")
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


# ----------------------------------------------------------------------
# calibrated estimator
# ----------------------------------------------------------------------
def _rep(slices, setup_s=0.01):
    """A repetition whose slices each took (seconds, calibration segment)."""
    triples = []
    for i, (t, c) in enumerate(slices):
        before = slices[i - 1][1] if i else c
        triples.append((t, before, c))
    loop = sum(t for t, _ in slices)
    segments = [slices[0][1]] + [c for _, c in slices]
    return timing.Rep(wall_s=loop + setup_s, loop_s=loop, slices=triples, segments=segments)


REF = timing.REFERENCE_SEGMENT_S


def test_estimate_takes_the_median_of_each_quantity():
    reps = [_rep([(5.0, REF)], setup_s=0.3), _rep([(4.0, REF)], setup_s=0.5),
            _rep([(9.0, REF)], setup_s=0.4)]
    setups = [_rep([(0.01, REF)], setup_s=s) for s in (0.2, 0.1, 0.6)]
    est = timing.estimate(reps, setups, sim_ms=2.0)
    assert est["host_s_per_sim_ms"] == pytest.approx(5.0 / 2.0)
    assert est["wall_s"] == pytest.approx(5.3)
    assert est["setup_s"] == pytest.approx(0.2)


def test_slices_are_scaled_by_the_segments_around_them():
    # Half the loop ran twice as slow, and so did the calibration beside it.
    rep = _rep([(1.0, REF), (1.0, REF), (2.0, 2 * REF), (2.0, 2 * REF)], setup_s=0.0)
    # Slice 2 is bracketed by a fast and a slow segment: 2 * 2/(1+2).
    assert timing.calibrated(rep)["loop_s"] == pytest.approx(1 + 1 + 4 / 3 + 1)


def test_estimate_needs_timed_slices():
    rep = _rep([(1.0, REF)])
    with pytest.raises(ValueError):
        timing.estimate([], [rep], sim_ms=1.0)
    with pytest.raises(ValueError):
        timing.estimate([rep], [], sim_ms=1.0)
    with pytest.raises(ValueError):
        timing.estimate([timing.Rep(wall_s=1.0, loop_s=1.0)], [rep], sim_ms=1.0)


def _spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _invocations(rng, fast_share, k=4, n_slices=100):
    """Invocations of k repetitions on a host whose load comes in bursts
    lasting several slices; ``fast_share`` of the time it runs at the floor.
    Calibration segments see the slowdown of their moment, with jitter."""
    invocations = []
    for _ in range(10):
        reps = []
        for _ in range(k):
            slices, slow = [], 1.0
            for _ in range(n_slices):
                if rng.random() < 0.2:  # a new burst level every ~5 slices
                    slow = 1.0 if rng.random() < fast_share else rng.uniform(1.2, 1.9)
                jitter = rng.uniform(1.0, 1.05)
                slices.append((0.05 * slow * rng.uniform(0.98, 1.02), 0.0005 * slow * jitter))
            reps.append(_rep(slices))
        invocations.append(reps)
    return invocations


def test_calibrated_median_holds_still_when_the_host_load_drifts():
    rng = random.Random(12)
    light, heavy = _invocations(rng, fast_share=0.4), _invocations(rng, fast_share=0.05)

    def medians(estimate):
        return [statistics.median(estimate(inv) for inv in s) for s in (light, heavy)]

    raw_best = medians(lambda inv: min(r.loop_s for r in inv))
    cal = medians(lambda inv: timing.estimate(inv, inv, sim_ms=1.0)["host_s_per_sim_ms"])
    # Even the best of k raw repetitions moves with the host's load;
    # the calibrated estimate does not.
    assert raw_best[1] / raw_best[0] > 1.15
    assert abs(cal[1] / cal[0] - 1) < 0.03
    for s in (light, heavy):
        assert _spread([timing.estimate(inv, inv, 1.0)["wall_s"] for inv in s]) < 0.03


def test_sliced_loop_executes_the_same_events():
    from repro.experiments import ExperimentConfig, ScaleProfile, run_experiment

    micro = ScaleProfile(name="micro", radix=4, n_hotspots=2, sim_time_ns=1e6, warmup_ns=3e5,
                         cct_slope=0.5, moving_sim_time_ns=1e6, moving_lifetimes_ns=(5e5,),
                         marking_rate=3)
    cfg = ExperimentConfig(scale=micro, b_fraction=1.0, p=0.6, seed=5, name="micro")
    plain = run_experiment(cfg, trace=True)
    rep = timing.Rep()
    with timing.SlicedLoop(rep, slice_ns=7e3):
        sliced = run_experiment(cfg, trace=True)
    assert len(rep.slices) == 143
    assert sliced.trace_digest == plain.trace_digest
    assert sliced.rates_gbps == plain.rates_gbps


# ----------------------------------------------------------------------
# layer map
# ----------------------------------------------------------------------
def test_every_repro_module_maps_to_exactly_one_known_layer():
    modules = sorted(layers.repro_modules(SRC))
    assert "network/ports.py" in modules
    mapped = {m: layers.layer_of_module(m) for m in modules}
    unknown = {m: layer for m, layer in mapped.items() if layer not in layers.REPRO_LAYERS}
    assert not unknown, f"add these modules' layers to layers.REPRO_LAYERS: {unknown}"
    assert set(mapped.values()) == set(layers.REPRO_LAYERS), "stale layer names"
    assert set(layers.SPLIT_MODULES) <= set(modules), "stale split modules"


def test_counted_functions_exist():
    # A renamed handler would silently read as zero calls.
    wanted = set(layers.EVENT_HANDLERS) | set(layers.COUNTED_CALLS.values())
    for relpath, func in sorted(wanted):
        with open(os.path.join(SRC, "repro", relpath)) as fh:
            assert re.search(rf"^\s+def {func}\(", fh.read(), re.M), (relpath, func)


def test_layer_of_file_covers_code_outside_the_simulator():
    assert layers.layer_of_file("~") == "stdlib"
    assert layers.layer_of_file("<frozen importlib._bootstrap>") == "stdlib"
    assert layers.layer_of_file(heapq.__file__) == "stdlib"
    assert layers.layer_of_file(numpy.__file__) == "thirdparty"
    assert layers.layer_of_file(bench.__file__) == "benchmark"
    assert layers.layer_of_file(os.path.join(SRC, "repro", "cc", "ib.py")) == "core"
    assert layers.layer_of_file(os.path.join(SRC, "repro", "__main__.py")) == "experiments"


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
PAPER_TABLE2 = {
    "no_hotspots_no_cc_avg": 2.699,
    "no_hotspots_cc_avg": 2.701,
    "hotspots_no_cc_hotspot_avg": 13.602,
    "hotspots_no_cc_non_hotspot_avg": 0.168,
    "hotspots_cc_hotspot_avg": 13.279,
    "hotspots_cc_non_hotspot_avg": 2.246,
}


def test_table2_shape_accepts_the_paper_and_blames_the_right_cell():
    assert bench.table2_shape_failures(PAPER_TABLE2, 7.1) == {}
    no_recovery = dict(PAPER_TABLE2, hotspots_cc_non_hotspot_avg=0.2)
    assert set(bench.table2_shape_failures(no_recovery, 7.1)) == {3}
    harmed = dict(PAPER_TABLE2, no_hotspots_cc_avg=2.0)
    assert set(bench.table2_shape_failures(harmed, 7.1)) == {1}


def test_table2_collapse_is_checked_only_where_it_is_pinned():
    # Quick scale, seed 1: the hotspots leave the victims' paths uncongested.
    seed1 = dict(PAPER_TABLE2, no_hotspots_no_cc_avg=2.531, no_hotspots_cc_avg=2.531,
                 hotspots_no_cc_non_hotspot_avg=1.813, hotspots_cc_non_hotspot_avg=2.544)
    assert set(bench.table2_shape_failures(seed1, 1.174)) == {2, 3}
    assert bench.table2_shape_failures(seed1, 1.174, full=False) == {}


def test_spec_names_the_shipped_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert SPEC["paths"] == ["perfbench"]


# ----------------------------------------------------------------------
# smoke runs: one repetition of each workload at a short horizon
# ----------------------------------------------------------------------
SMOKE_HORIZON_MS = "1.5"


def _run(*args, cwd=ROOT):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return out


def _result(out):
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_smoke_end_to_end(workload):
    res = _result(_run("--workload", workload, "--seed", "3", "--seconds", "0",
                       "--trace", "0", "--horizon-ms", SMOKE_HORIZON_MS))
    assert res["correct"] and res["failed"] == 0
    assert res["attempted"] == bench.WORKLOADS[workload].n_cells
    assert list(res["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert res["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_smoke_per_layer_counts_repeat(workload):
    runs = [
        _result(_run("--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", "1", "--horizon-ms", SMOKE_HORIZON_MS))
        for _ in range(2)
    ]
    names = [m["name"] for m in SPEC["per_layer"]]
    for res in runs:
        assert res["correct"] and res["attempted"] == 2 * bench.WORKLOADS[workload].n_cells
        assert list(res["metrics"]) == names
    counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"} for r in runs]
    assert counts[0] == counts[1]
    report_path = os.path.join(bench.PROFILE_OUT, f"layers-{workload}-seed3.json")
    with open(report_path) as fh:
        report = json.load(fh)
    assert sum(report["total"]["self_share"].values()) == pytest.approx(1.0, abs=1e-3)


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(bench.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = _run("--workload", "quick_table2", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
