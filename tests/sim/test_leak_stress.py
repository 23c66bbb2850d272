"""Leak stress: repeated tiny cells must not grow the heap of live objects.

Runs on whichever event core ``ALOCK_SIM_CORE`` selected, so the pure
and compiled CI legs each check their own engine.  The first cells fill
per-process caches (spinlock grows by ~200 objects over its first few
cells), hence the warm-up before the baseline count.
"""

import gc

import pytest

from repro import WorkloadSpec, run_workload

WARMUP_CELLS = 30
CHECKED_CELLS = 30


@pytest.mark.parametrize("lock_kind", ["alock", "mcs", "spinlock"])
def test_repeated_cells_leak_no_objects(lock_kind):
    spec = WorkloadSpec(
        n_nodes=2, threads_per_node=2, n_locks=4, locality_pct=90.0,
        lock_kind=lock_kind, warmup_ns=5_000.0, measure_ns=20_000.0,
        audit="off")
    for _ in range(WARMUP_CELLS):
        run_workload(spec)
    gc.collect()
    baseline = len(gc.get_objects())
    for _ in range(CHECKED_CELLS):
        result = run_workload(spec)
    assert result.measured_ops > 0
    del result
    gc.collect()
    grown = len(gc.get_objects()) - baseline
    assert grown <= 0, (
        f"{lock_kind}: {grown} objects survived {CHECKED_CELLS} cells")
