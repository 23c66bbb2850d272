"""The repository benchmark: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload local_hot --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seconds 5 --out report.json
    python3 perfbench/compare.py before.json after.json

``--trace 0`` times the workload untraced and reports the end-to-end
metrics; ``--trace 1`` adds one ``cProfile`` run and reports the
per-layer metrics.  ``--workload all`` runs every workload both ways,
each in a fresh process, and merges the reports.  Every run checks the
simulated outputs (see :func:`run_checks`) and exits 1 if a check fails;
the last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

Host time is CPU time of the main thread, which runs the whole job
(``setup_s`` and the traced run use process CPU time): ``gc.collect()``
before each repeat, one untimed warm-up (which also reads the layers'
counters), then repeats until ``--seconds`` have passed.  Every repeat does identical work, and
the job's host time is the sum over its segments (a few tens of
milliseconds each: one schedule of the fleet, or a sixteenth of a cell)
of each segment's fastest repeat.  On the shared 2-core hosts this was
built on, CPU speed drifts by up to ~1.5x for seconds to minutes at a
time, which moves a median of repeats by ~20% from run to run; short
segments, each sampled many times over the window, catch its fast
moments.  ``setup_s`` is the fastest of several fresh interpreters, spread
over the timed window, importing the package and building the
workload's first world.
"""

from __future__ import annotations

import argparse
import bisect
import cProfile
import gc
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import time

import catalog
from layers import check_module_map, group_profile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE_DIR = os.path.join(SRC, "repro")
WORKLOAD_NAMES = ("local_hot", "mixed_panel", "fleet_explore")
SCHEMA = "perfbench/1"
#: fresh interpreters timed for ``setup_s`` (after one untimed warm-up)
SETUP_SAMPLES = 7
MIN_REPEATS = 3
#: CPU seconds between position samples of a cell (the kernel's CPU
#: timers tick at 4 ms on the hosts this was built on)
TICK_S = 0.002
#: segments each cell is split into for timing
BINS_PER_CELL = 16
#: in-process builds of the first world timed for ``cluster.build_ms``
BUILD_SAMPLES = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="length of the timed section of one run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=None,
                   help="0: end-to-end metrics, 1: per-layer metrics "
                        "(default 0; 'all' runs both)")
    p.add_argument("--out", help="write the full report JSON here")
    return p.parse_args(argv)


def environment(seed: int) -> dict:
    from repro.sim.core import core_info

    return {"core": core_info(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "seed": seed,
            "machine": platform.machine()}


class SetupProbe:
    """Times fresh interpreters that import the package and build the
    workload's first world: CPU seconds from interpreter start."""

    def __init__(self, workload, seed: int):
        self.code = ("import time\n" + workload.setup_code(seed)
                     + "print(repr(time.process_time()))\n")
        self.samples: list = []
        self.sample()  # untimed: fills the bytecode cache
        self.samples.clear()

    def sample(self) -> None:
        proc = subprocess.run(
            [sys.executable, "-c", self.code], cwd=ROOT,
            env={**os.environ, "PYTHONPATH": SRC}, capture_output=True,
            text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup child failed:\n{proc.stderr}")
        self.samples.append(float(proc.stdout.split()[-1]))


class Probe:
    """Splits one repeat of a job into segments of identical work and
    returns each segment's CPU seconds.

    The fleet calls :meth:`mark` as each schedule starts: its segments
    are exact.  A cell is one long engine run, so the cell workloads
    hand :meth:`follow` a function giving the job's work position (the
    simulated clock, offset per cell); a CPU-time interval timer samples
    (CPU time, position) every :data:`TICK_S` and the CPU time at each
    of :data:`BINS_PER_CELL` equal position steps per cell is
    interpolated between the samples around it.  The sampler only
    appends to a list: the simulation is untouched.  Times are the main
    thread's CPU clock, which runs the whole job: while a process-wide
    CPU timer is armed, Linux advances the process clock only at timer
    ticks."""

    def __init__(self, extent: float = 0.0, bins: int = 0):
        self.extent, self.bins = extent, bins
        self.marks: list = []
        self.samples: list = []
        self.position = lambda: 0.0

    def follow(self, position) -> None:
        self.position = position

    def mark(self) -> None:
        self.marks.append(time.thread_time())

    def _tick(self, _signum, _frame) -> None:
        self.samples.append((time.thread_time(), self.position()))

    def run(self, workload, seed: int):
        """One repeat of the job: (Repeat, per-segment CPU seconds)."""
        previous = signal.signal(signal.SIGPROF, self._tick)
        start = time.thread_time()
        self.samples.append((start, 0.0))
        signal.setitimer(signal.ITIMER_PROF, TICK_S, TICK_S)
        try:
            rep = workload.run(seed, probe=self)
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)
        end = time.thread_time()
        if self.marks:
            bounds = [start] + self.marks + [end]
        else:
            self.samples.append((end, self.extent))
            bounds = [start] + self._interpolate() + [end]
        return rep, [b - a for a, b in zip(bounds, bounds[1:])]

    def _interpolate(self) -> list:
        """CPU time at which the position first reached each inner bin
        boundary, linear between the two samples around it."""
        cpu = [c for c, _p in self.samples]
        pos = [p for _c, p in self.samples]
        out = []
        for j in range(1, self.bins):
            target = self.extent * j / self.bins
            i = bisect.bisect_left(pos, target)  # pos[i-1] < target <= pos[i]
            frac = (target - pos[i - 1]) / (pos[i] - pos[i - 1])
            out.append(cpu[i - 1] + frac * (cpu[i] - cpu[i - 1]))
        return out


def timed_repeats(workload, seed: int, seconds: float, setup=None) -> list:
    """Per-segment CPU seconds of each untraced repeat of the job (see
    :class:`Probe`).  Set-up probes, when given, are spread evenly over
    the timed window."""
    out = []
    cells = getattr(workload, "extent", None)
    start = time.monotonic()
    while len(out) < MIN_REPEATS or time.monotonic() < start + seconds:
        gc.collect()
        if cells is None:
            probe = Probe()
        else:
            extent = cells(seed)
            probe = Probe(extent, round(BINS_PER_CELL * extent / workload.cell_span))
        out.append(probe.run(workload, seed))
        if setup is not None:
            due = SETUP_SAMPLES * (time.monotonic() - start) / seconds
            while len(setup.samples) < min(due, SETUP_SAMPLES):
                setup.sample()
    while setup is not None and len(setup.samples) < SETUP_SAMPLES:
        setup.sample()
    return out


def fastest_cpu(segments: list) -> float:
    """CPU seconds of the job at its fastest: the sum over segments of
    each segment's fastest repeat (every repeat does identical work)."""
    if len({len(row) for row in segments}) != 1:
        raise RuntimeError("repeats split into different segment counts")
    return sum(min(column) for column in zip(*segments))


def build_ms(workload, seed: int) -> float:
    """Fastest CPU milliseconds to build the workload's first world, in
    this (warm) process."""
    samples = []
    for _ in range(BUILD_SAMPLES):
        t0 = time.process_time()
        workload.build_first(seed)
        samples.append((time.process_time() - t0) * 1e3)
    return min(samples)


def traced_repeat(workload, seed: int):
    """One repeat under ``cProfile``: (Repeat, cpu s, per-layer, counted)."""
    prof = cProfile.Profile()
    gc.collect()
    t0 = time.process_time()
    prof.enable()
    rep = workload.run(seed)
    prof.disable()
    cpu = time.process_time() - t0
    per_layer, counted = group_profile(prof, PACKAGE_DIR)
    return rep, cpu, per_layer, counted


def run_checks(workload, seed: int, reference, repeats) -> list:
    """The correctness gate: (name, ok, detail) triples."""
    from repro.workload import run_workload

    checks = []
    digests = {rep.digest for rep in repeats}
    checks.append(("repeats identical", digests == {reference.digest},
                   f"{len(repeats) + 1} runs, digest {reference.digest}"))
    failed = reference.failed + sum(rep.failed for rep in repeats)
    failed += reference.sim.get("sim_failed", 0)  # the fleet's larger run
    checks.append(("no failed ops or schedules", failed == 0,
                   f"{failed} failed of {reference.attempted} per run"))
    for spec in workload.check_specs(seed):
        try:
            r = run_workload(spec)
            ok = r.atomicity_violations == 0
            detail = (f"{r.completed_ops} ops, counters checked, "
                      f"{r.atomicity_violations} atomicity violations")
        except Exception as exc:  # the run raised: counters or audit
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        checks.append((f"strict count-mode {spec.lock_kind}", ok, detail))
    return checks


def layer_values(workload, seed: int, reference, best_cpu: float,
                 traced_cpu: float, per_layer: dict, counted: dict) -> tuple:
    """Per-layer rows of the traced run, and every per-layer metric's
    value by name."""
    total = sum(row["self_s"] for row in per_layer.values())
    rows = {layer: {"self_us_per_op": row["self_s"] * 1e6 / reference.units,
                    "self_share": 100.0 * row["self_s"] / total,
                    "calls_per_op": row["calls"] / reference.units}
            for layer, row in per_layer.items()}
    counts = {**reference.counts, **counted,
              "build_ms": build_ms(workload, seed),
              "trace_overhead_x": traced_cpu / best_cpu,
              "host_ns_per_event": best_cpu * 1e9 / reference.counts["events"]}
    divisor = {"unit": reference.units, "world": reference.worlds, None: 1}
    values = {}
    for metric in catalog.per_layer():
        if metric in catalog.COUNTERS:
            key, _unit, norm = catalog.COUNTERS[metric]
            values[metric] = counts[key] / divisor[norm]
        else:
            layer, suffix = metric.rsplit(".", 1)
            values[metric] = rows[layer][suffix]
    return rows, values


def measure(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload; returns its report."""
    from workloads import WORKLOADS  # imports the package: needs SRC on the path

    workload = WORKLOADS[name]
    setup = None if trace else SetupProbe(workload, seed)
    reference = workload.count(seed)  # the untimed warm-up
    timed = timed_repeats(workload, seed, seconds / 2 if trace else seconds, setup)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    repeats = [rep for rep, _segments in timed]
    best_cpu = fastest_cpu([segments for _rep, segments in timed])
    cpu = [sum(segments) for _rep, segments in timed]
    exact = {"digest": reference.digest, **reference.sim, **reference.counts}
    rows: dict = {}
    if trace:
        traced, traced_cpu, per_layer, counted = traced_repeat(workload, seed)
        repeats.append(traced)
        exact.update(counted)
        rows, values = layer_values(workload, seed, reference, best_cpu,
                                    traced_cpu, per_layer, counted)
        units = catalog.per_layer()
    else:
        values = {
            "sim_ops_per_host_s": reference.ops / best_cpu,
            "schedules_per_s": reference.worlds / best_cpu,
            "setup_s": min(setup.samples),
            "peak_rss_mb": peak_rss_mb,
            "sim_mops": reference.sim["sim_mops"],
            "sim_lat_p99_us": reference.sim["sim_lat_p99_us"],
        }
        units = {m: unit for m, (unit, _b, _bound) in catalog.END_TO_END.items()}
    detail = {"failed_pct": 100.0 * reference.failed / reference.attempted,
              "timed_repeats": len(cpu),
              **{m: v for m, v in reference.sim.items() if m in catalog.DETAIL}}

    checks = run_checks(workload, seed, reference, repeats)
    if trace:
        share_sum = sum(row["self_share"] for row in rows.values())
        checks.append(("layer shares sum to 100%", abs(share_sum - 100.0) < 1e-6,
                       f"{share_sum:.9f}%"))
    return {
        "seed": seed, "seconds": seconds, "trace": [trace],
        "correct": all(ok for _n, ok, _d in checks),
        "attempted": reference.attempted, "failed": reference.failed,
        "metrics": {m: {"value": values[m], "unit": unit} for m, unit in units.items()},
        "detail": {m: {"value": v, "unit": catalog.DETAIL[m]} for m, v in detail.items()},
        "layers": rows, "exact": exact,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
        "repeats": {"n": len(cpu), "cpu_s": cpu, "fastest_cpu_s": best_cpu,
                    "setup_cpu_s": setup.samples if setup else []},
    }


def print_report(name: str, result: dict, env: dict) -> None:
    core = env["core"]
    print(f"perfbench {name}: seed={result['seed']} seconds={result['seconds']:g} "
          f"trace={result['trace']}")
    print(f"  env: core={core['kind']} (requested {core['requested']}"
          + (f"; fallback: {core['fallback_reason']}" if core["fallback_reason"] else "")
          + f") python={env['python']} nproc={env['nproc']}")
    for section in ("metrics", "detail"):
        for metric, m in result[section].items():
            if metric.rsplit(".", 1)[-1] not in catalog.LAYER_SUFFIXES:
                print(f"  {metric:<36} {m['value']:>14.6g} {m['unit']}")
    if result["layers"]:
        print(f"  {'layer':<16} {'self us/op':>12} {'share %':>9} {'calls/op':>10}")
        for layer, row in result["layers"].items():
            print(f"  {layer:<16} {row['self_us_per_op']:>12.4f} "
                  f"{row['self_share']:>9.2f} {row['calls_per_op']:>10.2f}")
        print("  (traced shares are approximate; counts are exact)")
    for check in result["checks"]:
        print(f"  check {'ok  ' if check['ok'] else 'FAIL'} {check['name']}: "
              f"{check['detail']}")


def run_all(args) -> int:
    """Every workload untraced and traced, each in a fresh process."""
    tmp = os.environ["TMPDIR"]
    merged: dict = {}
    env = None
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            out = os.path.join(tmp, f"{name}-{trace}.json")
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed",
                 str(args.seed), "--seconds", str(args.seconds), "--trace",
                 str(trace), "--out", out], cwd=ROOT, text=True,
                stdout=subprocess.PIPE, timeout=600)
            print("\n".join(proc.stdout.splitlines()[:-1]), flush=True)
            if not os.path.exists(out):
                print(f"perfbench: {name} trace={trace} produced no report",
                      file=sys.stderr)
                return 1
            with open(out) as f:
                report = json.load(f)
            env = report["env"]
            part = report["workloads"][name]
            if name not in merged:
                merged[name] = part
                continue
            base = merged[name]
            base["trace"] += part["trace"]
            base["correct"] = base["correct"] and part["correct"]
            base["checks"] += part["checks"]
            for key in ("metrics", "detail", "layers", "exact"):
                base[key].update(part[key])
    return finish({"schema": SCHEMA, "env": env, "workloads": merged}, args.out)


def finish(report: dict, out_path) -> int:
    if out_path:
        with open(out_path, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
    parts = report["workloads"].values()
    many = len(report["workloads"]) > 1
    metrics = {(f"{name}.{metric}" if many else metric): m
               for name, part in report["workloads"].items()
               for metric, m in part["metrics"].items()}
    correct = all(part["correct"] for part in parts)
    print(json.dumps({"correct": correct,
                      "attempted": sum(p["attempted"] for p in parts),
                      "failed": sum(p["failed"] for p in parts),
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(PACKAGE_DIR, "__init__.py")):
        print(f"perfbench: no package at {PACKAGE_DIR}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    check_module_map(PACKAGE_DIR)  # raises on a module with no layer
    # Anything the program writes (post-mortem dumps, temp files) lands
    # in a scratch dir inside the checkout, removed on exit.
    tmp = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(tmp)
    os.environ.update({"ALOCK_POSTMORTEM_DIR": tmp, "TMPDIR": tmp})
    sys.path.insert(0, SRC)
    try:
        if args.workload == "all":
            return run_all(args)
        trace = args.trace or 0
        result = measure(args.workload, args.seed, args.seconds, trace)
        env = environment(args.seed)
        print_report(args.workload, result, env)
        return finish({"schema": SCHEMA, "env": env,
                       "workloads": {args.workload: result}}, args.out)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass  # another run's scratch dir is still there


if __name__ == "__main__":
    sys.exit(main())
