"""Explain the difference between two benchmark reports.

Usage (reports written by ``perfbench/run.py --out``)::

    python3 perfbench/compare.py before.json after.json

For every workload in both reports it prints each end-to-end metric's
change, with whether it moved past the metric's bound, and each layer's
self-time change from the traced run.  Deterministic values (simulated
metrics, layer counters, call counts, the output digest) must not move
at all between two runs of the same seed on the same event core; any
that did is flagged ``CHANGED`` and the exit code is 1.  Host-layer call
counts are not compared: builtin and stdlib calls vary with
``PYTHONHASHSEED`` and garbage-collector timing.
"""

from __future__ import annotations

import argparse
import json
import sys

import catalog


def _pct(a: float, b: float) -> str:
    return f"{100.0 * (b - a) / a:+8.2f}%" if a else "     n/a"


def compare_workload(name: str, a: dict, b: dict, exact: bool) -> int:
    """Print one workload's deltas; returns the number of changed exact
    values (0 when ``exact`` is False)."""
    print(f"{name}:")
    for metric, (unit, better, bound) in catalog.END_TO_END.items():
        if metric not in a["metrics"] or metric not in b["metrics"]:
            continue
        va, vb = a["metrics"][metric]["value"], b["metrics"][metric]["value"]
        worse = (vb - va) / va if better == "lower" else (va - vb) / va
        flag = "  past bound" if va and worse > bound else ""
        print(f"  {metric:<24} {va:>12.6g} -> {vb:<12.6g} {unit:<5} "
              f"{_pct(va, vb)}{flag}")
    for metric in sorted(set(a["detail"]) & set(b["detail"])):
        va, vb = a["detail"][metric]["value"], b["detail"][metric]["value"]
        print(f"  {metric:<24} {va:>12.6g} -> {vb:<12.6g} "
              f"{a['detail'][metric]['unit']:<5} {_pct(va, vb)}")
    layers = [layer for layer in a["layers"] if layer in b["layers"]]
    if layers:
        print(f"  {'layer':<16} {'self us/op':>24} {'change':>9} {'share %':>15}")
    for layer in layers:
        ra, rb = a["layers"][layer], b["layers"][layer]
        ua, ub = ra["self_us_per_op"], rb["self_us_per_op"]
        if ua == ub == 0.0:
            continue
        print(f"  {layer:<16} {ua:>11.3f} -> {ub:<10.3f} {_pct(ua, ub)} "
              f"{ra['self_share']:>6.2f} -> {rb['self_share']:<6.2f}")
    if not exact:
        return 0
    changed = 0
    shared = sorted(set(a["exact"]) & set(b["exact"]))
    for key in shared:
        if a["exact"][key] != b["exact"][key]:
            changed += 1
            print(f"  CHANGED {key}: {a['exact'][key]!r} -> {b['exact'][key]!r}")
    # package call counts are exact; host calls (builtins, stdlib) move
    # with hash seeds and collector timing
    for layer in layers:
        if layer == "host":
            continue
        ca, cb = a["layers"][layer]["calls_per_op"], b["layers"][layer]["calls_per_op"]
        if ca != cb:
            changed += 1
            print(f"  CHANGED {layer}.calls_per_op: {ca!r} -> {cb!r}")
    if changed == 0:
        print(f"  exact: all {len(shared)} deterministic values unchanged")
    return changed


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("before")
    p.add_argument("after")
    args = p.parse_args(argv)
    with open(args.before) as f:
        before = json.load(f)
    with open(args.after) as f:
        after = json.load(f)
    cores = (before["env"]["core"]["kind"], after["env"]["core"]["kind"])
    print(f"before: core={cores[0]} python={before['env']['python']}")
    print(f"after:  core={cores[1]} python={after['env']['python']}")
    changed = 0
    for name, a in before["workloads"].items():
        b = after["workloads"].get(name)
        if b is None:
            print(f"{name}: missing from {args.after}")
            continue
        exact = a["seed"] == b["seed"] and cores[0] == cores[1]
        if not exact:
            print(f"{name}: different seed or core; exact values not compared")
        changed += compare_workload(name, a, b, exact)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
