"""Metric catalogue: every metric the benchmark reports, with its unit.

``END_TO_END`` and ``PER_LAYER`` are exactly the metrics of the last
output line (untraced and traced run respectively) and of
``BENCHMARK.json``; ``DETAIL`` metrics are printed and written to the
report but have no bound: they are workload-specific or exact.
"""

from __future__ import annotations

#: name -> (unit, better, bound)
END_TO_END: dict = {
    "sim_ops_per_host_s": ("1/s", "higher", 0.25),
    "schedules_per_s": ("1/s", "higher", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "sim_mops": ("Mops", "higher", 0.15),
    "sim_lat_p99_us": ("us", "lower", 0.2),
}

#: name -> unit; reported where they apply, never bounded
DETAIL: dict = {
    "failed_pct": "%",
    "sim_lat_p50_us": "us",
    "lat_samples": "count",
    "sim_mops.alock": "Mops",
    "sim_mops.mcs": "Mops",
    "sim_mops.spinlock": "Mops",
    "alock_advantage_x": "x",
    "timed_repeats": "count",
}

#: the layers whose profile share and calls the traced run reports
LAYERS: tuple = (
    "sim.core", "sim.resources", "memory", "cluster", "rdma", "locks",
    "locktable", "workload", "obs", "schedcheck", "parallel", "common",
    "faults", "host",
)
#: the layers that run on every workload also report self time; an idle
#: layer's time would read 0 on every run (the report still has it)
TIMED_LAYERS: tuple = tuple(
    layer for layer in LAYERS
    if layer not in ("workload", "schedcheck", "parallel", "faults"))

#: per-layer profile metrics, suffix -> unit
LAYER_SUFFIXES: dict = {
    "self_us_per_op": "us/op",
    "self_share": "%",
    "calls_per_op": "calls/op",
}

#: counters the layers own: metric name -> (counter key, unit,
#: normaliser).  The normaliser is "unit" (ops, or schedules on the
#: fleet), "world" (cells or schedules) or None (taken as is).
COUNTERS: dict = {
    "sim.core.events_per_op": ("events", "events/op", "unit"),
    "sim.core.host_ns_per_event": ("host_ns_per_event", "ns", None),
    "memory.local_reads_per_op": ("local_reads", "count/op", "unit"),
    "memory.local_writes_per_op": ("local_writes", "count/op", "unit"),
    "memory.local_rmws_per_op": ("local_rmws", "count/op", "unit"),
    "memory.remote_landed_per_op": ("remote_landed", "count/op", "unit"),
    "cluster.local_ops_per_op": ("ctx_local_ops", "count/op", "unit"),
    "cluster.remote_ops_per_op": ("ctx_remote_ops", "count/op", "unit"),
    "cluster.build_ms": ("build_ms", "ms", None),
    "rdma.rRead_per_op": ("rRead", "verbs/op", "unit"),
    "rdma.rWrite_per_op": ("rWrite", "verbs/op", "unit"),
    "rdma.rCAS_per_op": ("rCAS", "verbs/op", "unit"),
    "rdma.loopback_per_op": ("loopback", "verbs/op", "unit"),
    "rdma.rx_util_max": ("rx_util_max", "share", None),
    "rdma.rx_peak_queue": ("rx_peak_queue", "count", None),
    "rdma.qpc_miss_rate": ("qpc_miss_rate", "share", None),
    "obs.flight_notes_per_op": ("flight_notes", "notes/op", "unit"),
    "schedcheck.decisions_per_schedule": ("choice_points", "count", "world"),
    "schedcheck.distinct_ratio": ("distinct", "share", "world"),
    "trace_overhead_x": ("trace_overhead_x", "x", None),
}


def per_layer() -> dict:
    """name -> unit for every per-layer metric, in report order."""
    out = {f"{layer}.{suffix}": unit
           for layer in LAYERS for suffix, unit in LAYER_SUFFIXES.items()
           if suffix != "self_us_per_op" or layer in TIMED_LAYERS}
    out.update({name: unit for name, (_key, unit, _norm) in COUNTERS.items()})
    return out
