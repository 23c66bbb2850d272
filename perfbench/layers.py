"""Layer map and the profile grouping of the traced run.

A *layer* is a subpackage of ``src/repro``; the event engine is split
in two (``sim.core`` for the core selector and both engine builds,
``sim.resources`` for the resource pools).  Every source module of the
package maps to exactly one layer through :data:`RULES`; a module that
maps to none (a new subpackage, or a new file under ``sim/``) is an
error, so a new module can never hide its time in another layer's row.
Frames outside the package — stdlib, numpy, builtins and the
benchmark's own driver loop — go to ``host``.

The traced run is one ``cProfile`` pass started from the benchmark's
own file; self time (``tottime``) and call counts are summed per layer.
Under ``cProfile`` every generator resume counts as a call.
"""

from __future__ import annotations

import fnmatch
import os
import pstats

#: (glob over the path relative to the ``repro`` package dir, layer).
#: ``*`` also matches ``/``, so a directory glob covers nested packages.
RULES: tuple = (
    ("__init__.py", "api"),
    ("sim/__init__.py", "sim.core"),
    ("sim/core.py", "sim.core"),
    ("sim/_base.py", "sim.core"),
    ("sim/_engine.py", "sim.core"),
    ("sim/_compiled.py", "sim.core"),
    ("sim/_ccore.c", "sim.core"),
    ("sim/resources.py", "sim.resources"),
    ("memory/*", "memory"),
    ("cluster/*", "cluster"),
    ("rdma/*", "rdma"),
    ("locks/*", "locks"),
    ("locktable/*", "locktable"),
    ("workload/*", "workload"),
    ("obs/*", "obs"),
    ("schedcheck/*", "schedcheck"),
    ("parallel/*", "parallel"),
    ("common/*", "common"),
    ("faults/*", "faults"),
    ("analysis/*", "analysis"),
    ("experiments/*", "experiments"),
    ("kvstore/*", "kvstore"),
    ("lint/*", "lint"),
    ("verification/*", "verification"),
)

HOST = "host"

#: every layer, in report order
LAYERS: tuple = tuple(dict.fromkeys(layer for _glob, layer in RULES)) + (HOST,)

#: source files that count as modules (the C twin of the engine too)
SOURCE_SUFFIXES = (".py", ".c")


class UnmappedModule(LookupError):
    """A package module matched no layer rule, or more than one."""


def layer_of_module(rel: str) -> str:
    """The layer of one package module, by its ``/``-separated path
    relative to the package dir.  Raises :class:`UnmappedModule`
    unless exactly one rule matches."""
    hits = [layer for glob, layer in RULES if fnmatch.fnmatchcase(rel, glob)]
    if len(hits) != 1:
        raise UnmappedModule(
            f"module {rel!r} matches {len(hits)} layer rules {hits}; "
            f"add it to perfbench/layers.py RULES")
    return hits[0]


def package_modules(package_dir: str) -> list[str]:
    """Every source module under ``package_dir``, sorted, as relative
    ``/``-separated paths."""
    out = []
    for root, dirs, files in os.walk(package_dir):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in files:
            if name.endswith(SOURCE_SUFFIXES):
                rel = os.path.relpath(os.path.join(root, name), package_dir)
                out.append(rel.replace(os.sep, "/"))
    return sorted(out)


def check_module_map(package_dir: str) -> dict[str, str]:
    """Map every module of the package; raises on the first unmapped
    one.  Returns ``{module: layer}``."""
    return {rel: layer_of_module(rel) for rel in package_modules(package_dir)}


#: functions whose exact call count is itself a per-layer counter:
#: ``(module, function) -> counter name``
COUNTED_FUNCTIONS: dict = {
    ("obs/flight.py", "note"): "flight_notes",  # FlightRecorder.note
}


def group_profile(profile, package_dir: str) -> tuple[dict, dict]:
    """Self time (s) and call count per layer from a finished
    ``cProfile.Profile`` (every layer of :data:`LAYERS` present), plus
    the call count of each :data:`COUNTED_FUNCTIONS` entry."""
    package_dir = os.path.abspath(package_dir)
    per_layer = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    counted = {name: 0 for name in COUNTED_FUNCTIONS.values()}
    for (filename, _line, funcname), (_cc, nc, tt, _ct, _callers) in (
            pstats.Stats(profile).stats.items()):
        module = None
        if filename == "~":
            # builtins and C methods: the compiled engine's own types
            # carry their module in the qualified name
            layer = "sim.core" if "_ccore" in funcname else HOST
        else:
            path = os.path.abspath(filename)
            if path.startswith(package_dir + os.sep):
                module = os.path.relpath(path, package_dir).replace(os.sep, "/")
                layer = layer_of_module(module)
            else:
                layer = HOST
        row = per_layer[layer]
        row["self_s"] += tt
        row["calls"] += nc
        counter = COUNTED_FUNCTIONS.get((module, funcname))
        if counter is not None:
            counted[counter] += nc
    return per_layer, counted
