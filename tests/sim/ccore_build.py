"""The compiled event core for the calendar-queue unit tests.

The pure engine schedules with a plain heap, so the only calendar queue
is the C one in :mod:`repro.sim._ccore`.  :func:`load_ccore` returns the
in-tree build when there is one (the compiled CI leg); otherwise it
compiles ``_ccore.c`` once per source digest into ``build/ccore-test/``
(the system temp directory when the checkout is read-only) and loads
that copy standalone, never as ``repro.sim._ccore``, so the process keeps
the core ``ALOCK_SIM_CORE`` selected.  That keeps the calendar tests
running in the default (pure) tier-1 run too.  ``None`` when no C
compiler is available; the calendar tests then skip.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import pathlib
import tempfile
from types import ModuleType
from typing import Optional

REPO = pathlib.Path(__file__).resolve().parents[2]


@functools.cache
def load_ccore() -> Optional[ModuleType]:
    try:
        from repro.sim import _ccore
        return _ccore
    except ImportError:
        pass
    spec = importlib.util.spec_from_file_location(
        "build_compiled_core", REPO / "scripts" / "build_compiled_core.py")
    assert spec is not None and spec.loader is not None
    builder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(builder)
    name = builder.so_path().name
    for root in (REPO / "build", pathlib.Path(tempfile.gettempdir())):
        so = root / "ccore-test" / builder.source_digest()[:16] / name
        tmp = so.with_name(f"{name}.{os.getpid()}.tmp")
        try:
            if not so.exists():
                so.parent.mkdir(parents=True, exist_ok=True)
                builder.build(force=True, out=tmp)
                os.replace(tmp, so)  # concurrent sessions never see half a file
        except (OSError, SystemExit):
            continue
        loader = importlib.machinery.ExtensionFileLoader("_ccore", str(so))
        mod_spec = importlib.util.spec_from_file_location("_ccore", so, loader=loader)
        assert mod_spec is not None
        module = importlib.util.module_from_spec(mod_spec)
        loader.exec_module(module)
        return module
    return None
