"""Attribute a cProfile run of the simulator to named layers.

Every module under ``src/repro`` maps to exactly one layer by the rule
in :func:`layer_of_module`: its top-level package, except that the three
per-hop network modules are layers of their own and ``repro.cc`` is
counted with ``repro.core`` (the CC model and its pluggable scaffold).
Code outside ``src/repro`` is ``stdlib`` (the interpreter's builtins and
standard library), ``thirdparty`` (site-packages) or ``benchmark`` (this
directory), so all profiled self time lands in some layer.

Counts come from cProfile's exact call counts of named functions, so
they repeat exactly between runs of a deterministic simulation; self
times do not, and are reported only as shares of the profiled total.
"""

from __future__ import annotations

import os
import sysconfig
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Tuple

# Modules that are layers of their own (path relative to src/repro).
SPLIT_MODULES = {
    "network/ports.py": "network.ports",
    "network/arbiter.py": "network.arbiter",
    "network/hca.py": "network.hca",
}
# Packages counted under another package's layer.
MERGED_PACKAGES = {"cc": "core"}
# Modules directly under src/repro (package init, ``python -m repro``).
TOP_LEVEL_LAYER = "experiments"

# Every layer a module of src/repro may map to. A new package is
# unattributed until it is added here (perfbench/test_perfbench.py).
REPRO_LAYERS = (
    "engine",
    "network",
    "network.ports",
    "network.arbiter",
    "network.hca",
    "traffic",
    "core",
    "trace",
    "topology",
    "metrics",
    "experiments",
    "parallel",
    "faults",
    "transport",
    "serve",
    "lint",
    "validation",
)
OTHER_LAYERS = ("stdlib", "thirdparty", "benchmark")
LAYERS = REPRO_LAYERS + OTHER_LAYERS

# Event handlers the kernel dispatches, keyed by (module, function).
EVENT_HANDLERS = {
    ("network/ports.py", "_tx_done"): "tx_done",
    ("network/ports.py", "on_credit"): "credit",
    ("network/ports.py", "deliver"): "switch_deliver",
    ("network/hca.py", "_wake"): "hca_wake",
    ("network/hca.py", "_service_done"): "sink_service",
}
EVENT_KINDS = ("tx_done", "credit", "switch_deliver", "hca_wake", "sink_service", "other")

# Functions whose call counts are layer work counters.
COUNTED_CALLS = {
    "try_send_calls": ("network/ports.py", "try_send"),
    "transmissions": ("network/ports.py", "_tx_done"),
    "kicks": ("network/arbiter.py", "kick"),
    "grants": ("network/ports.py", "grant"),
    "pulls": ("network/hca.py", "pull"),
    "wakes": ("network/hca.py", "_wake"),
    "packets_delivered": ("network/hca.py", "on_packet_received"),
    "packets_generated": ("traffic/generators.py", "_emit"),
}

_BENCH_DIR = os.path.dirname(os.path.realpath(__file__))
_SITE_DIRS = tuple(
    {os.path.realpath(sysconfig.get_paths()[k]) for k in ("purelib", "platlib")}
)


def layer_of_module(relpath: str) -> str:
    """The layer of a module given by its path relative to ``src/repro``."""
    relpath = relpath.replace(os.sep, "/")
    if relpath in SPLIT_MODULES:
        return SPLIT_MODULES[relpath]
    if "/" not in relpath:
        return TOP_LEVEL_LAYER
    package = relpath.split("/", 1)[0]
    return MERGED_PACKAGES.get(package, package)


def repro_relpath(filename: str) -> Optional[str]:
    """``filename`` relative to the ``repro`` package, or None if outside it."""
    parts = filename.replace(os.sep, "/").split("/src/repro/", 1)
    return parts[1] if len(parts) == 2 else None


def layer_of_file(filename: str) -> str:
    """The layer of any code object's file as cProfile records it."""
    rel = repro_relpath(filename)
    if rel is not None:
        return layer_of_module(rel)
    if not filename or filename == "~" or filename.startswith("<"):
        return "stdlib"  # builtins, frozen importlib, exec'd strings
    real = os.path.realpath(filename)
    if real.startswith(_BENCH_DIR + os.sep):
        return "benchmark"
    if real.startswith(_SITE_DIRS):
        return "thirdparty"
    return "stdlib"


Key = Tuple[str, int, str]


def _entries(stats: Dict[Key, tuple], relpath: str, func: str) -> List[tuple]:
    """The pstats entries of function ``func`` in module ``relpath``."""
    return [
        entry for key, entry in stats.items()
        if key[2] == func and repro_relpath(key[0]) == relpath
    ]


def attribute(stats: Dict[Key, tuple], events: int) -> dict:
    """Per-layer self-time shares and counts from ``pstats.Stats(...).stats``.

    ``events`` is the kernel's own executed-event count; handler calls
    made by ``engine`` code are split out of it by kind and the rest is
    ``other``.
    """
    self_s: Dict[str, float] = defaultdict(float)
    for (filename, _, _), (_, _, tottime, _, _) in stats.items():
        self_s[layer_of_file(filename)] += tottime
    total = sum(self_s.values())
    shares = {layer: (self_s[layer] / total if total else 0.0) for layer in LAYERS}

    counts = {
        name: sum(entry[1] for entry in _entries(stats, *where))
        for name, where in COUNTED_CALLS.items()
    }
    by_kind = dict.fromkeys(EVENT_KINDS, 0)
    for (relpath, func), kind in EVENT_HANDLERS.items():
        for entry in _entries(stats, relpath, func):
            # pstats keeps (ncalls, primitive calls, ...) per caller.
            by_kind[kind] += sum(
                c[0] for caller, c in entry[4].items() if layer_of_file(caller[0]) == "engine"
            )
    by_kind["other"] = events - sum(by_kind.values())
    return {"self_share": shares, "calls": counts, "events_by_kind": by_kind}


def repro_modules(src_root: str) -> Iterable[str]:
    """Every module file under ``src_root/repro``, relative to it."""
    base = os.path.join(src_root, "repro")
    for dirpath, _, files in os.walk(base):
        for name in files:
            if name.endswith(".py"):
                yield os.path.relpath(os.path.join(dirpath, name), base).replace(os.sep, "/")
