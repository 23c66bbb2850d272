"""Pieces of the event core shared by every engine implementation.

The simulator ships two interchangeable event cores — the pure-Python
heapq reference engine (:mod:`repro.sim._engine`) and the optional
compiled C extension with its calendar-queue scheduler
(:mod:`repro.sim._ccore`, wrapped by :mod:`repro.sim._compiled`).
Anything whose *object identity* crosses the engine boundary must live
here, exactly once:

* :data:`PENDING` — client code tests ``ev._value is PENDING``; both
  engines must hand out the very same sentinel object.
* :class:`Interrupt` — scenario code catches it; an ``isinstance``
  check must succeed regardless of which engine threw it.
* :class:`FlightLike` / :class:`SchedulePolicyLike` — the structural
  types of the flight-recorder and schedule-policy hooks, referenced by
  both engines' policy steps.
* :func:`_describe_wait` / :func:`describe_alive` — the deadlock
  diagnostics, pure functions of process state and event ``info``
  labels.

This module must stay dependency-free (stdlib + ``repro.common`` only)
so the C extension can import it during its own module init without
creating a cycle through :mod:`repro.sim.core`.
"""

from __future__ import annotations

from typing import Any, Optional, Protocol, Sequence


class FlightLike(Protocol):
    """Sink for flight-recorder notes (see :mod:`repro.obs.flight`).

    The engine stays ignorant of the recorder's implementation; it only
    needs somewhere to note schedule tie-breaks, which exist solely on
    the policy path, so the default dispatch loop never pays for it.
    """

    def note(self, actor: str, kind: str, *detail: object) -> None: ...


class SchedulePolicyLike(Protocol):
    """Structural type of the same-time tie-break hook (see
    :mod:`repro.schedcheck`): ``ready`` holds the ``(time, seq, event)``
    entries at the minimum time in ascending ``seq`` order."""

    def choose(self, ready: list[tuple[float, int, Any]]) -> int: ...


class _Pending:
    """Sentinel for an event value that has not been produced yet."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<PENDING>"


PENDING = _Pending()


class Interrupt(Exception):
    """Thrown into a process that another process interrupted.

    The ``cause`` is whatever the interrupter passed — by convention a
    short string or the interrupting object.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class _WaitInfoLike(Protocol):
    """The slice of the Event surface :func:`_describe_wait` touches —
    structural so it accepts events from either engine."""

    info: Optional[tuple]


def _describe_wait(event: Optional[_WaitInfoLike]) -> str:
    """Human-readable description of what a parked process waits on,
    using :attr:`Event.info` labels when the issuer set one."""
    if event is None:
        return "nothing (never parked or mid-interrupt)"
    if event.info is not None:
        kind, *detail = event.info
        return f"{kind}({', '.join(str(d) for d in detail)})"
    return type(event).__name__


def describe_alive(alive: Sequence[Any], limit: int = 8) -> str:
    """One-line diagnostic of still-alive processes — what each is named,
    when it last ran, and what event it is parked on.  ``alive`` holds
    either engine's processes; both ``Environment.describe_alive``
    methods delegate here."""
    if not alive:
        return "no processes alive"
    parts = []
    for p in alive[:limit]:
        parts.append(f"{p.name} (pid {p.pid}, last resumed at "
                     f"{p.last_resumed_at:.1f} ns, waiting on "
                     f"{_describe_wait(p._waiting_on)})")
    if len(alive) > limit:
        parts.append(f"... and {len(alive) - limit} more")
    return "; ".join(parts)


__all__ = [
    "PENDING", "Interrupt", "FlightLike", "SchedulePolicyLike",
    "_describe_wait", "describe_alive",
]
