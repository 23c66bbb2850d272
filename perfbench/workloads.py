"""The benchmark's workloads, run through the package's public API.

Each workload is one closed-loop simulation job run in this process on
one OS thread (the 20 simulated clients are generators; the fleet runs
with ``workers=1``).  The seed given to the benchmark is the only input:
it seeds the cells' clusters and the fleet's walk policies.

* ``local_hot`` — ALock, 5 nodes x 4 threads, 20 locks, 100% locality:
  the paper's majority-local headline regime (Fig. 5d / 6a).  No verbs.
* ``mixed_panel`` — the Fig. 5(a) slice: ``alock``, ``mcs`` and
  ``spinlock`` at the same shape with 90% locality, one
  ``run_workload`` cell per lock (loopback and remote verb paths).
* ``fleet_explore`` — a coverage-steered ``run_fleet`` over the correct
  twins of the three seeded-bug scenarios: hundreds of tiny worlds, so
  cluster construction, the engine's policy path and schedcheck.

An *op* is one lock+unlock pair completed (inside the measurement
window, for cells); the per-layer counters of ``fleet_explore`` are
normalised per explored schedule instead.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from repro.schedcheck import fleet as fleet_mod
from repro.schedcheck.fleet import SEEDED_BUGS, FleetConfig, correct_twin, run_fleet
from repro.schedcheck.scenario import LockScenario
from repro.workload import WorkloadSpec, run_workload
from repro.workload import runner as runner_mod
from repro.workload.runner import build_cluster

#: the paper's shape for every cell: 5 nodes x 4 threads, 20 locks
SHAPE = {"n_nodes": 5, "threads_per_node": 4, "n_locks": 20}
WARMUP_NS = 100_000.0
#: ops each client runs in the count-mode strict-audit check
CHECK_OPS_PER_THREAD = 12
#: a percentile is reported only with at least this many samples beyond it
TAIL_SAMPLES = 10
#: schedules per scenario of the untimed exploration the fleet's
#: simulated metrics come from: p99 of the per-schedule makespan needs
#: 1000 schedules, five times the timed job
SIM_BUDGET = 336
VERBS = ("rRead", "rWrite", "rCAS")


@dataclass
class Repeat:
    """One execution of a workload's whole job."""

    ops: int            # lock+unlock pairs completed
    worlds: int         # cells or schedules run
    units: int          # the per-layer normaliser: ops, or schedules
    attempted: int      # ops (cells) or schedules (fleet) attempted
    failed: int
    digest: str         # over every simulated output of the job
    sim: dict = field(default_factory=dict)   # simulated metrics
    counts: dict = field(default_factory=dict)  # per-layer counters


@contextmanager
def _patched(owner, name: str, make):
    """Temporarily replace ``owner.name`` with ``make(original)``."""
    original = getattr(owner, name)
    setattr(owner, name, make(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


def cluster_counts(cluster) -> Counter:
    """The counters the layers own, read off one finished cluster
    through its metrics registry."""
    tree = cluster.obs.metrics.collect()
    c: Counter = Counter()
    c["events"] = cluster.env.event_count
    for region in tree["memory"]:
        c["local_reads"] += region["local_reads"]
        c["local_writes"] += region["local_writes"]
        c["local_rmws"] += region["local_rmws"]
        c["remote_landed"] += region["remote_ops_landed"]
    for thread in tree["threads"]:
        c["ctx_local_ops"] += thread["local_ops"]
        c["ctx_remote_ops"] += thread["remote_ops"]
    net = tree["network"]
    for verb in VERBS:
        c[verb] += net["verbs"].get(verb, 0)
    c["loopback"] += net["loopback_verbs"]
    return c


def nic_maxima(cluster, into: dict) -> None:
    """Fold one cluster's per-NIC simulated figures into running maxima."""
    for nic in cluster.network.stats()["nics"]:
        into["rx_util_max"] = max(into.get("rx_util_max", 0.0), nic["rx_utilization"])
        into["rx_peak_queue"] = max(into.get("rx_peak_queue", 0), nic["rx_peak_queue"])
        into["qpc_miss_rate"] = max(into.get("qpc_miss_rate", 0.0), nic["qpc_miss_rate"])


def tail_percentile(samples, pct: float) -> float:
    """``np.percentile`` after checking the tail holds enough samples."""
    beyond = len(samples) * (100.0 - pct) / 100.0
    if beyond < TAIL_SAMPLES:
        raise ValueError(f"p{pct:g} over {len(samples)} samples has only "
                         f"{beyond:g} beyond it (need {TAIL_SAMPLES})")
    return float(np.percentile(samples, pct))


class CellWorkload:
    """One ``run_workload`` duration-mode cell per lock kind."""

    def __init__(self, name: str, kinds: tuple, locality_pct: float,
                 measure_ns: float):
        self.name = name
        self.kinds = kinds
        self.locality_pct = locality_pct
        self.measure_ns = measure_ns

    def specs(self, seed: int) -> list:
        return [WorkloadSpec(**SHAPE, locality_pct=self.locality_pct,
                             lock_kind=kind, warmup_ns=WARMUP_NS,
                             measure_ns=self.measure_ns, audit="off",
                             seed=seed)
                for kind in self.kinds]

    def setup_code(self, seed: int) -> str:
        """Python source that imports the package and builds the first
        world — what a fresh interpreter does before its first op."""
        spec = self.specs(seed)[0]
        return ("from repro.workload import WorkloadSpec\n"
                "from repro.workload.runner import build_cluster\n"
                f"build_cluster({spec!r})\n")

    @property
    def cell_span(self) -> float:
        """Simulated nanoseconds one cell runs: warm-up plus window."""
        return WARMUP_NS + self.measure_ns

    def extent(self, seed: int) -> float:
        """The job's length in work positions (see :meth:`run`)."""
        return len(self.specs(seed)) * self.cell_span

    def run(self, seed: int, probe=None) -> Repeat:
        """The job.  Given a ``probe``, the job's work position — cells
        done times :attr:`cell_span` plus the running cell's simulated
        clock — is handed to ``probe.follow`` as each cell is built."""
        results = []
        if probe is None:
            for spec in self.specs(seed):
                results.append(run_workload(spec))
            return self._repeat(results)
        span = self.cell_span

        def make(original):
            def follow(spec, **kwargs):
                pair = original(spec, **kwargs)
                env, base = pair[0].env, len(results) * span
                probe.follow(lambda: base + min(env.now, span))
                return pair
            return follow

        with _patched(runner_mod, "build_cluster", make):
            for spec in self.specs(seed):
                results.append(run_workload(spec))
        return self._repeat(results)

    def build_first(self, seed: int) -> None:
        build_cluster(self.specs(seed)[0])

    def count(self, seed: int) -> Repeat:
        """A run that also reads every layer's counters off the built
        clusters (captured by wrapping ``build_cluster`` from outside)."""
        built = []

        def make(original):
            def capture(spec, **kwargs):
                pair = original(spec, **kwargs)
                built.append(pair[0])
                return pair
            return capture

        with _patched(runner_mod, "build_cluster", make):
            results = [run_workload(s) for s in self.specs(seed)]
        rep = self._repeat(results)
        counts: Counter = Counter(choice_points=0, distinct=0)
        nic: dict = {}
        for cluster in built:
            counts.update(cluster_counts(cluster))
            nic_maxima(cluster, nic)
        rep.counts = {**counts, **nic}
        rep.sim = self._sim(results)
        return rep

    def _repeat(self, results: list) -> Repeat:
        h = hashlib.blake2b(digest_size=16)
        for r in results:
            h.update(r.latencies_ns.tobytes())
            h.update(r.local_mask.tobytes())
            h.update(json.dumps([r.completed_ops, r.measured_ops,
                                 sorted(r.verb_counts.items()),
                                 r.loopback_verbs,
                                 sorted(r.per_thread_ops.items()),
                                 r.atomicity_violations]).encode())
        ops = sum(r.measured_ops for r in results)
        aborted = sum(r.fault_stats.get("aborted_clients", 0) for r in results)
        return Repeat(ops=ops, worlds=len(results), units=ops,
                      attempted=ops + aborted, failed=aborted,
                      digest=h.hexdigest())

    def _sim(self, results: list) -> dict:
        by_kind = {r.spec.lock_kind: r for r in results}
        alock = by_kind["alock"].latencies_ns
        sim = {f"sim_mops.{k}": r.throughput_ops_per_sec / 1e6
               for k, r in by_kind.items()}
        sim["sim_mops"] = sim["sim_mops.alock"]
        sim["sim_lat_p50_us"] = tail_percentile(alock, 50) / 1e3
        sim["sim_lat_p99_us"] = tail_percentile(alock, 99) / 1e3
        sim["lat_samples"] = len(alock)
        rivals = [v for k, v in sim.items()
                  if k.startswith("sim_mops.") and k != "sim_mops.alock"]
        if rivals:
            sim["alock_advantage_x"] = sim["sim_mops.alock"] / max(rivals)
        return sim

    def check_specs(self, seed: int) -> list:
        """Count-mode, strict-audit twins of the cells (guarded counters
        on): every op's increment must land and no Table-1 race occur."""
        return [s.with_(ops_per_thread=CHECK_OPS_PER_THREAD, cs_counter=True,
                        audit="strict") for s in self.specs(seed)]


class FleetWorkload:
    """A bounded coverage-steered fleet over the seeded-bug twins."""

    def __init__(self, name: str, budget: int):
        self.name = name
        self.budget = budget
        self.scenarios = tuple((name, correct_twin(sc))
                               for name, sc, _budget in SEEDED_BUGS)

    def config(self, seed: int) -> FleetConfig:
        return FleetConfig(scenarios=self.scenarios, budget=self.budget,
                           seed=seed, cells_per_round=1,
                           stop_on_find=False, shrink=False)

    def setup_code(self, seed: int) -> str:
        return ("from repro.schedcheck.fleet import SEEDED_BUGS, correct_twin\n"
                "correct_twin(SEEDED_BUGS[0][1]).build()\n")

    def build_first(self, seed: int) -> None:
        self.scenarios[0][1].build()

    def run(self, seed: int, probe=None) -> Repeat:
        """The job.  Given a ``probe``, ``probe.mark()`` is called as
        each schedule starts."""
        if probe is None:
            return self._repeat(run_fleet(self.config(seed), workers=1))

        def make(original):
            def run_schedule(*args, **kwargs):
                probe.mark()
                return original(*args, **kwargs)
            return run_schedule

        with _patched(fleet_mod, "run_schedule", make):
            return self._repeat(run_fleet(self.config(seed), workers=1))

    def count(self, seed: int) -> Repeat:
        """A run of the job that also reads each schedule's world after
        it ends (layer counters, choice points); the simulated metrics
        come from a larger exploration (see :data:`SIM_BUDGET`)."""
        report, counts, nic, _spans = self._observe(self.config(seed))
        rep = self._repeat(report)
        counts["distinct"] = sum(s.distinct_executions for s in report.scenarios)
        rep.counts = {**counts, **nic}
        big = replace(self.config(seed), budget=SIM_BUDGET)
        report, _counts, _nic, spans = self._observe(big)
        explored = self._repeat(report, SIM_BUDGET)
        spans = np.asarray(spans, dtype=np.float64)
        rep.sim = {
            "sim_mops": explored.ops / float(spans.sum()) * 1e3,
            "sim_lat_p50_us": tail_percentile(spans, 50) / 1e3,
            "sim_lat_p99_us": tail_percentile(spans, 99) / 1e3,
            "lat_samples": len(spans),
            "sim_failed": explored.failed,
        }
        return rep

    @staticmethod
    def _observe(config: FleetConfig) -> tuple:
        """Run a fleet, reading each schedule's world after it ends:
        layer counters, choice points, NIC maxima and the simulated
        makespan (time of the world's last protocol step)."""
        built, makespans = [], []
        counts: Counter = Counter()
        nic: dict = {}

        def make_build(original):
            def build(scenario):
                run = original(scenario)
                built.append(run)
                return run
            return build

        def make_run_schedule(original):
            def run_schedule(scenario, policy, *args, **kwargs):
                result = original(scenario, policy, *args, **kwargs)
                cluster = built.pop().cluster
                counts.update(cluster_counts(cluster))
                counts["choice_points"] += result.n_choice_points
                nic_maxima(cluster, nic)
                makespans.append(list(cluster.tracer)[-1].time)
                return result
            return run_schedule

        with _patched(LockScenario, "build", make_build), \
                _patched(fleet_mod, "run_schedule", make_run_schedule):
            report = run_fleet(config, workers=1)
        return report, counts, nic, makespans

    def _repeat(self, report, budget: int = 0) -> Repeat:
        scenarios = dict(self.scenarios)
        attempted = (budget or self.budget) * len(self.scenarios)
        failed = attempted - report.total_schedules
        ops = 0
        for s in report.scenarios:
            failed += sum(s.failure_counts.values())
            ops += s.ok_count * scenarios[s.name].expected_ops
        digest = hashlib.blake2b(report.to_json_bytes(), digest_size=16)
        return Repeat(ops=ops, worlds=report.total_schedules,
                      units=report.total_schedules, attempted=attempted,
                      failed=failed, digest=digest.hexdigest())

    def check_specs(self, seed: int) -> list:
        """Count-mode, strict-audit cells of the fleet's lock kinds at
        the paper's shape (every schedule already checks its counters)."""
        kinds = sorted({sc.lock_kind for _n, sc in self.scenarios})
        return [WorkloadSpec(**SHAPE, locality_pct=90.0, lock_kind=kind,
                             ops_per_thread=CHECK_OPS_PER_THREAD,
                             cs_counter=True, audit="strict", seed=seed)
                for kind in kinds]


WORKLOADS: dict = {
    "local_hot": CellWorkload("local_hot", ("alock",), 100.0, 200_000.0),
    "mixed_panel": CellWorkload("mixed_panel", ("alock", "mcs", "spinlock"),
                                90.0, 600_000.0),
    "fleet_explore": FleetWorkload("fleet_explore", budget=64),
}
