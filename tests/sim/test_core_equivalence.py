"""Randomized equivalence: the compiled core's calendar queue vs a
reference heapq, and the pure heapq engine vs the compiled core.

Two layers:

* **Queue stream** — the compiled ``CalendarQueue`` driven through
  adversarial push/pop interleavings must emit the exact ``(time, seq)``
  batch stream of a reference ``heapq`` model (the pure engine's
  semantics: ascending ``(time, seq)``, same-time entries batched).
  Mixes cover dense same-tick bursts, tight clusters, uniform spreads,
  and far-future (ladder-spill) timestamps.  The queue comes from
  :func:`tests.sim.ccore_build.load_ccore` (in-tree build, else a
  standalone test build); skipped without a C compiler.

* **Environment trace** — the same randomized process workload (sleeps,
  bursts, succeed/fail wakeups, interrupts/cancellations) run on the
  pure and compiled ``Environment`` must produce byte-identical event
  traces.  Skipped when the compiled extension is not built in place.

The direct `_engine`/`_compiled` imports below are the *point* of this
suite — it pins one core against the other, bypassing the selector on
purpose (tests are outside simlint's engine-chokepoint scope).
"""

import heapq
import random

import pytest

from repro.sim import _engine
from tests.sim.ccore_build import load_ccore

try:
    from repro.sim import _compiled
except ImportError:
    _compiled = None

needs_compiled = pytest.mark.skipif(
    _compiled is None, reason="compiled core not built")

_ccore = load_ccore()
#: the cores with a calendar queue — only the compiled one
QUEUE_CORES = [pytest.param(_ccore, id="compiled", marks=pytest.mark.skipif(
    _ccore is None, reason="compiled core cannot be built"))]


# -- reference model -------------------------------------------------------
class HeapqReference:
    """The old scheduler's exact contract: a heap of (time, seq) with
    pop_batch returning every entry at the minimum time in seq order."""

    def __init__(self):
        self._heap = []

    def push(self, time, seq, payload):
        heapq.heappush(self._heap, (time, seq, payload))

    def __len__(self):
        return len(self._heap)

    def pop_batch(self):
        t = self._heap[0][0]
        batch = []
        while self._heap and self._heap[0][0] == t:
            batch.append(heapq.heappop(self._heap))
        return (t, batch)


def _time_mixes(rng):
    """Generators of inter-push times, one per adversarial shape."""
    return {
        "dense_ticks": lambda now: now + rng.choice([0.0, 0.0, 0.0, 1000.0]),
        "clustered": lambda now: now + abs(rng.gauss(50.0, 10.0)),
        "uniform": lambda now: now + rng.uniform(0.001, 1e6),
        "bimodal": lambda now: now + (rng.uniform(0.5, 2.0) if rng.random() < 0.9
                                      else rng.uniform(1e7, 1e9)),
        "far_future": lambda now: (now + rng.uniform(1.0, 100.0)
                                   if rng.random() < 0.7 else 1e308),
    }


_MIXES = list(_time_mixes(random.Random(0)))


class TestQueueStreamEquivalence:
    @pytest.mark.parametrize("core", QUEUE_CORES)
    @pytest.mark.parametrize("mix", _MIXES)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_pop_stream_matches_heapq(self, core, mix, seed):
        # the mix's index, not hash(mix): str hashes vary per process
        rng = random.Random(seed * 1000 + _MIXES.index(mix))
        make_time = _time_mixes(rng)[mix]
        cal = core.CalendarQueue()
        ref = HeapqReference()
        seq = 0
        now = 0.0
        for _round in range(60):
            for _ in range(rng.randrange(1, 25)):
                seq += 1
                t = make_time(now)
                if t <= now:
                    t = now  # same-tick burst
                ev = object()  # payloads are opaque to the queue
                cal.push(t, seq, ev)
                ref.push(t, seq, ev)
            pops = rng.randrange(1, 4)
            for _ in range(pops):
                if not len(ref):
                    break
                t_ref, batch_ref = ref.pop_batch()
                t_cal, batch_cal = cal.pop_batch()
                assert t_cal == t_ref
                assert [(e[0], e[1]) for e in batch_cal] \
                    == [(e[0], e[1]) for e in batch_ref]
                assert [e[2] for e in batch_cal] == [e[2] for e in batch_ref]
                now = t_ref
        # drain both to empty
        while len(ref):
            t_ref, batch_ref = ref.pop_batch()
            t_cal, batch_cal = cal.pop_batch()
            assert t_cal == t_ref
            assert [(e[0], e[1]) for e in batch_cal] \
                == [(e[0], e[1]) for e in batch_ref]
        assert len(cal) == 0

    @pytest.mark.parametrize("core", QUEUE_CORES)
    def test_empty_pop_raises(self, core):
        from repro.common.errors import SimulationError
        with pytest.raises(SimulationError, match="empty calendar"):
            core.CalendarQueue().pop_batch()


# -- environment-level trace equivalence -----------------------------------
def _run_random_workload(core, seed: int) -> list:
    """A randomized mix of sleeps, same-tick bursts, wakeup events,
    failures, and interrupts (cancellations); returns the full trace."""
    rng = random.Random(0xA10C ^ seed)
    env = core.Environment()
    trace = []
    gates = [core.Event(env) for _ in range(4)]

    def sleeper(pid, rounds):
        for i in range(rounds):
            delay = rng.choice([0.0, 1.0, 1.0, 7.5, 1000.0, 1e308])
            try:
                yield env.timeout(delay, value=(pid, i))
                trace.append(("tick", pid, i, env.now))
            except core.Interrupt as intr:
                trace.append(("intr", pid, i, env.now, str(intr.cause)))
                return

    def waiter(pid, gate):
        try:
            value = yield gate
            trace.append(("woke", pid, value, env.now))
        except RuntimeError as exc:
            trace.append(("failed", pid, str(exc), env.now))

    def driver():
        procs = [env.process(sleeper(pid, rng.randrange(2, 6)), name=f"s{pid}")
                 for pid in range(6)]
        for pid, gate in enumerate(gates):
            env.process(waiter(pid, gate), name=f"w{pid}")
        yield env.timeout(3.0)
        gates[0].succeed("early")
        gates[1].fail(RuntimeError("boom"))
        yield env.timeout(2.0)
        procs[0].interrupt("cancelled")
        procs[1].interrupt("cancelled")
        gates[2].succeed("mid")
        yield env.timeout(10.0)
        gates[3].succeed("late")
        trace.append(("driver-done", env.now))

    env.process(driver(), name="driver")
    env.run()
    trace.append(("final", env.now, env.event_count))
    return trace


@needs_compiled
class TestEnvironmentTraceEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_traces_identical(self, seed):
        assert _run_random_workload(_engine, seed) \
            == _run_random_workload(_compiled, seed)

    def test_condition_combinators_identical(self):
        def scenario(core):
            env = core.Environment()
            out = []

            def worker(i):
                yield env.timeout(i * 2.0)
                return i * 10

            def main():
                procs = [env.process(worker(i)) for i in range(4)]
                got = yield env.all_of(procs)
                out.append(("all", sorted(got.values()), env.now))
                fast = env.timeout(1.0, value="t")
                slow = env.timeout(9.0, value="s")
                first = yield env.any_of([fast, slow])
                out.append(("any", sorted(map(str, first.values())), env.now))

            env.process(main())
            env.run()
            return out

        assert scenario(_engine) == scenario(_compiled)
