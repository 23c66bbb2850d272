"""Core of the discrete-event engine — implementation selector.

Two interchangeable event cores implement the engine contract:

* :mod:`repro.sim._engine` — the pure-Python reference: one ``heapq``
  of ``(time, seq, event)``, kept obviously correct because it is the
  oracle the compiled core is checked against.
* :mod:`repro.sim._ccore` — an optional compiled C twin with a
  calendar-queue scheduler (built by ``scripts/build_compiled_core.py``
  / ``pip install -e .``), wrapped by :mod:`repro.sim._compiled`.

Selection happens once, at first import, via ``ALOCK_SIM_CORE``:

* ``auto`` (default, also the empty string) — compiled if the extension
  imports, else pure.  Silent fallback by design.
* ``pure`` — always the pure-Python engine.
* ``compiled`` — the compiled engine; if it cannot be imported this
  *warns* (``RuntimeWarning``) and falls back to pure, so a missing
  build never bricks a dev checkout.  CI's compiled leg turns that
  fallback into a hard failure by asserting ``core_info()["kind"] ==
  "compiled"`` (see ``.github/workflows/ci.yml``).

:func:`core_info` reports what was requested, what actually loaded, and
why a fallback happened, so harnesses (CI, ``repro.parallel`` workers,
benchmarks) can verify or propagate the selection.  Everything observable
— event order, decision strings, flight notes, error messages — is
identical across cores; ``tests/sim/test_core_equivalence.py`` and
``tests/ci/test_core_identity.py`` enforce that.

Downstream code keeps importing names from here (``repro.sim.core``);
which engine serves them is an environment concern, never a code-level
one — simlint confines scheduler internals to the engine modules.
"""

from __future__ import annotations

import os
import warnings
from typing import Optional, TYPE_CHECKING

from repro.common.errors import ConfigError
from repro.sim._base import PENDING, FlightLike, Interrupt, SchedulePolicyLike, _describe_wait

__all__ = [
    "PENDING", "Interrupt", "FlightLike", "SchedulePolicyLike", "_describe_wait",
    "Event", "Timeout", "Process", "AnyOf", "AllOf", "Environment",
    "CORE_KIND", "core_info",
]

_VALID = ("auto", "pure", "compiled")
_requested = os.environ.get("ALOCK_SIM_CORE", "auto").strip().lower() or "auto"
if _requested not in _VALID:
    raise ConfigError(
        f"ALOCK_SIM_CORE={_requested!r} is not one of {'/'.join(_VALID)}")

_fallback_reason: Optional[str] = None

if TYPE_CHECKING:
    # The pure engine is the typed reference contract; the compiled
    # twin is checked against it dynamically (equivalence suite).
    from repro.sim._engine import (
        AllOf,
        AnyOf,
        Environment,
        Event,
        Process,
        Timeout,
        _Condition,
        _Echo,
    )

    CORE_KIND = "pure"
else:
    _impl = None
    if _requested in ("auto", "compiled"):
        try:
            from repro.sim import _compiled as _impl
        except ImportError as _exc:
            _fallback_reason = str(_exc)
            if _requested == "compiled":
                warnings.warn(
                    "ALOCK_SIM_CORE=compiled but the compiled event core is "
                    f"unavailable ({_fallback_reason}); falling back to the "
                    "pure-Python engine",
                    RuntimeWarning,
                    stacklevel=2,
                )
    if _impl is None:
        from repro.sim import _engine as _impl

    CORE_KIND = _impl.CORE_KIND
    Environment = _impl.Environment
    Event = _impl.Event
    Timeout = _impl.Timeout
    Process = _impl.Process
    AnyOf = _impl.AnyOf
    AllOf = _impl.AllOf
    _Condition = _impl._Condition
    _Echo = _impl._Echo


def core_info() -> dict[str, Optional[str]]:
    """How the event core was selected for this process.

    Returns ``{"requested": ..., "kind": ..., "fallback_reason": ...}``
    where ``kind`` is the engine actually serving this process ("pure"
    or "compiled") and ``fallback_reason`` is the import error message
    when a requested/auto compiled core could not be loaded (else None).
    """
    return {
        "requested": _requested,
        "kind": CORE_KIND,
        "fallback_reason": _fallback_reason,
    }
