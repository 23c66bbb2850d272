"""Python shell around the compiled event core (:mod:`repro.sim._ccore`).

The C extension implements the hot surface — ``Event``/``Timeout``/
``Process``/``Environment`` with a calendar-queue scheduler and drain
loop — and this module adds everything that is cold by construction and
therefore not worth a C transliteration:

* the :class:`AnyOf`/:class:`AllOf` condition combinators,
* the schedule-policy step (``_step_policy``) used only by schedcheck
  exploration and replay,
* the deadlock diagnostics (``describe_alive``/``alive_processes``,
  shared with the pure engine through :mod:`repro.sim._base`).

Importing this module raises :class:`ImportError` when the extension
has not been built — :mod:`repro.sim.core` catches that and falls back
to the pure engine (see its module docstring for the selection rules).

Everything observable is identical to the heapq reference engine
(:mod:`repro.sim._engine`): event order, decision strings, flight notes,
reprs, and error messages.  The equivalence and byte-identity suites pin
that down.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from repro.common.errors import SimulationError
from repro.sim._base import PENDING, Interrupt, SchedulePolicyLike, describe_alive
from repro.sim import _ccore

CORE_KIND = "compiled"

Event = _ccore.Event
Timeout = _ccore.Timeout
Process = _ccore.Process
_Echo = _ccore._Echo

__all__ = [
    "PENDING", "Interrupt", "Event", "Timeout", "Process", "AnyOf", "AllOf",
    "Environment", "CORE_KIND",
]


class _Condition(Event):
    """Base for AnyOf/AllOf combinators."""

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events = list(events)
        self._n_done = 0
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            if ev.env is not env:
                raise SimulationError("all events in a condition must share an environment")
            ev._add_callback(self._check)

    def _check(self, event: Event) -> None:
        raise NotImplementedError

    def _collect(self) -> dict[Event, Any]:
        return {ev: ev._value for ev in self.events if ev.triggered and ev._ok}


class AnyOf(_Condition):
    """Triggers when the first constituent event triggers.

    Value: dict of the triggered events and their values at that moment.
    A failed constituent fails the condition.
    """

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            self.fail(event._value)
        else:
            self.succeed(self._collect())


class AllOf(_Condition):
    """Triggers when every constituent event has triggered."""

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._n_done += 1
        if self._n_done == len(self.events):
            self.succeed(self._collect())


class Environment(_ccore.Environment):
    """Compiled event loop with the Python-side cold paths attached."""

    # -- factories (condition combinators live Python-side) ----------
    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- process registry diagnostics ---------------------------------
    def alive_processes(self) -> list[Process]:
        """Processes that have not finished, in creation order."""
        return [p for p in self._procs if p.is_alive]

    def describe_alive(self, limit: int = 8) -> str:
        """One-line diagnostic of the still-alive processes (see
        :func:`repro.sim._base.describe_alive`)."""
        return describe_alive(self.alive_processes(), limit)

    # -- schedule-exploration hook ------------------------------------
    def set_schedule_policy(self, policy: Optional[SchedulePolicyLike]) -> None:
        """Install (or with ``None`` remove) a same-time tie-break policy.

        See :meth:`repro.sim._engine.Environment.set_schedule_policy`;
        the contract is identical across cores.
        """
        self._policy = policy

    def _step_policy(self) -> None:
        """One step with a schedule policy installed — the exploration
        path, deliberately kept in Python: schedcheck runs trade speed
        for introspection.  The ready set is the rest of the current
        calendar batch followed by the now-queue: batch entries were
        scheduled before the clock reached this tick, so their seqs
        predate every now-queue entry, and the list is in ascending
        ``seq`` order — the same list the heapq reference
        (:meth:`repro.sim._engine.Environment._step_policy`) collects
        by popping every entry at the minimum time."""
        policy = self._policy
        assert policy is not None
        batch = self._batch
        bh = self._batch_head
        nowq = self._nowq
        nh = self._now_head
        if bh >= len(batch) and nh >= len(nowq):
            if len(self._cal) == 0:
                raise SimulationError("step() on an empty schedule")
            self._pull_batch()
            batch = self._batch
            bh = 0
            nowq = self._nowq
            nh = 0
        ready = batch[bh:]
        if nh < len(nowq):
            ready += nowq[nh:]
        n_batch = len(batch) - bh  # ready[:n_batch] came from the batch
        if len(ready) == 1:
            chosen = ready[0]
            if n_batch:
                self._batch_head = bh + 1
            else:
                self._now_head = nh + 1
        else:
            idx = policy.choose(ready)
            if not 0 <= idx < len(ready):
                raise SimulationError(
                    f"schedule policy chose index {idx} out of "
                    f"{len(ready)} ready events")
            self._sched_log.append(idx)
            self._sched_fanout.append(len(ready))
            chosen = ready[idx]
            fl = self.flight
            if fl is not None:
                fl.note("sched", "sched.tiebreak", idx, len(ready))
            if idx < n_batch:
                del batch[bh + idx]
            else:
                del nowq[nh + idx - n_batch]
        event = chosen[2]
        self._event_count += 1
        if isinstance(event, _Echo):
            event._process()
            return
        if isinstance(event, Timeout):
            event._value = event._pending_value
            event._ok = True
        callbacks = event.callbacks
        event.callbacks = None
        if callbacks:
            for fn in callbacks:
                fn(event)
