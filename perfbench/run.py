"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload quick_table2 --seed 7 --seconds 36 --trace 0

``--trace 0`` repeats the workload for about ``--seconds`` seconds and
prints the end-to-end metrics, each the median over the repetitions of
host time calibrated against the host's load of the moment (timing.py).
``--trace 1`` runs one plain and one cProfile'd repetition instead and
prints the per-layer metrics; it also writes the per-cell layer
breakdown to ``perfbench/out/``. Every repetition's simulated outputs
are checked. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")


def _import_bench():
    """Import the simulator from this checkout's ``src``, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: no simulator sources at {SRC}")
    sys.path.insert(0, SRC)
    import bench
    import repro

    if os.path.realpath(os.path.dirname(os.path.dirname(repro.__file__))) != os.path.realpath(SRC):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not from {SRC}")
    return bench


def main(argv=None) -> int:
    bench = _import_bench()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--horizon-ms", type=float, default=None,
                        help="simulated ms per cell (default: the workload's; "
                             "seed-7 expected outputs are checked only at the default)")
    args = parser.parse_args(argv)
    wl = bench.WORKLOADS[args.workload]
    horizon_ms = args.horizon_ms if args.horizon_ms is not None else wl.horizon_ms

    if args.trace:
        per_layer, report, checker = bench.profile_run(wl, args.seed, horizon_ms)
        print(f"layer report: {bench.write_report(report)}")
        metrics = per_layer
    else:
        reps, setups, checker = bench.measure(wl, args.seed, horizon_ms, args.seconds)
        if not reps or not setups:
            print("\n".join(checker.messages), file=sys.stderr)
            return 1
        for kind, group in (("setup", setups), ("rep", reps)):
            for i, rep in enumerate(group):
                cal = bench.timing.calibrated(rep)
                print(f"{kind} {i}: raw wall_s {rep.wall_s:.4f} loop_s {rep.loop_s:.4f} | "
                      f"calibrated wall_s {cal['wall_s']:.4f} loop_s {cal['loop_s']:.4f} "
                      f"setup_s {cal['setup_s']:.5f} | calibration segment min "
                      f"{min(rep.segments) * 1e3:.4f} ms median "
                      f"{statistics.median(rep.segments) * 1e3:.4f} ms")
        est = bench.timing.estimate(reps, setups, horizon_ms * wl.n_cells)
        metrics = {
            "wall_s": (est["wall_s"], "s"),
            "host_s_per_sim_ms": (est["host_s_per_sim_ms"], "s/ms"),
            "setup_s": (est["setup_s"], "s"),
            "peak_rss_mb": (bench.peak_rss_mb(), "MB"),
        }

    for msg in checker.messages:
        print(f"check failed: {msg}")
    cells_failed = checker.failed / checker.attempted
    print(f"cells_failed {cells_failed:g} share ({checker.failed} of {checker.attempted} cell runs)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
