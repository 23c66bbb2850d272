"""Core selection via ``ALOCK_SIM_CORE``: env-var plumbing, fallback
warning, invalid values, ``core_info()`` shape, and the negative-delay
``schedule()`` guard on whichever core is serving this process.

Selection happens at first import of ``repro.sim.core``, so every
selection test runs a fresh interpreter via subprocess.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.common.errors import ConfigError
from repro.sim import Environment, core_info

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

try:
    from repro.sim import _compiled  # noqa: F401 - availability probe
    HAVE_COMPILED = True
except ImportError:
    HAVE_COMPILED = False


def _probe(core_value, extra_code=""):
    """Run core_info() in a fresh interpreter with ALOCK_SIM_CORE set."""
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    if core_value is None:
        env.pop("ALOCK_SIM_CORE", None)
    else:
        env["ALOCK_SIM_CORE"] = core_value
    code = (
        "import json, warnings\n"
        "warnings.simplefilter('always')\n"
        "with warnings.catch_warnings(record=True) as caught:\n"
        "    from repro.sim import core_info\n"
        "    info = core_info()\n"
        "info['warnings'] = [str(w.message) for w in caught]\n"
        + extra_code +
        "print(json.dumps(info))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env,
        capture_output=True, text=True, timeout=120)
    return proc


class TestSelection:
    def test_pure_always_available(self):
        proc = _probe("pure")
        assert proc.returncode == 0, proc.stderr
        info = json.loads(proc.stdout)
        assert info["requested"] == "pure"
        assert info["kind"] == "pure"
        assert info["fallback_reason"] is None
        assert info["warnings"] == []

    def test_default_is_auto(self):
        proc = _probe(None)
        assert proc.returncode == 0, proc.stderr
        info = json.loads(proc.stdout)
        assert info["requested"] == "auto"
        assert info["kind"] in ("pure", "compiled")
        assert info["warnings"] == []  # auto fallback is silent by design

    def test_empty_and_mixed_case_normalize(self):
        for raw in ("", "  PURE  ", "Auto"):
            proc = _probe(raw)
            assert proc.returncode == 0, proc.stderr
            info = json.loads(proc.stdout)
            assert info["requested"] == (raw.strip().lower() or "auto")

    def test_invalid_value_raises_config_error(self):
        proc = _probe("turbo")
        assert proc.returncode != 0
        assert "ConfigError" in proc.stderr
        assert "ALOCK_SIM_CORE='turbo'" in proc.stderr
        assert "auto/pure/compiled" in proc.stderr

    @pytest.mark.skipif(not HAVE_COMPILED, reason="compiled core not built")
    def test_compiled_selected_when_built(self):
        proc = _probe(
            "compiled",
            "env_mod = __import__('repro.sim', fromlist=['Environment'])\n"
            "info['env_module'] = env_mod.Environment.__module__\n")
        assert proc.returncode == 0, proc.stderr
        info = json.loads(proc.stdout)
        assert info["kind"] == "compiled"
        assert info["fallback_reason"] is None
        assert info["warnings"] == []
        assert info["env_module"] == "repro.sim._compiled"

    def test_compiled_request_warns_on_fallback(self):
        # simulate an unbuilt extension: a None entry in sys.modules
        # makes `import repro.sim._ccore` raise ImportError
        proc = subprocess.run(
            [sys.executable, "-c", (
                "import json, sys, warnings\n"
                "sys.modules['repro.sim._ccore'] = None  # force ImportError\n"
                "with warnings.catch_warnings(record=True) as caught:\n"
                "    warnings.simplefilter('always')\n"
                "    from repro.sim import core_info\n"
                "    info = core_info()\n"
                "info['warnings'] = [str(w.message) for w in caught]\n"
                "print(json.dumps(info))\n")],
            env=dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"),
                     ALOCK_SIM_CORE="compiled"),
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        info = json.loads(proc.stdout)
        assert info["requested"] == "compiled"
        assert info["kind"] == "pure"
        assert info["fallback_reason"]
        warning_blob = "\n".join(info["warnings"])
        assert "falling back to the pure-Python engine" in warning_blob

    def test_core_info_shape(self):
        info = core_info()
        assert set(info) == {"requested", "kind", "fallback_reason"}
        assert info["kind"] in ("pure", "compiled")


class TestNegativeDelayGuard:
    """``schedule()`` must reject negative delays on every core: the
    clock never runs backwards."""

    def test_schedule_rejects_negative_delay(self):
        env = Environment()
        with pytest.raises(ConfigError, match="negative delay"):
            env.schedule(env.event(), delay=-1.0)

    def test_message_names_delay_and_now(self):
        env = Environment()
        ev = env.event()
        with pytest.raises(ConfigError, match=r"-0\.5.*in the past"):
            env.schedule(ev, delay=-0.5)

    def test_zero_and_positive_still_fine(self):
        env = Environment()
        env.schedule(env.event(), delay=0.0)
        env.schedule(env.event(), delay=2.5)
        assert env.peek() == 0.0
        env.run()
        assert env.now == 2.5
        assert env.event_count == 2

    def test_timeout_rejects_negative_delay(self):
        from repro.common.errors import SimulationError
        env = Environment()
        with pytest.raises(SimulationError, match="negative timeout delay"):
            env.timeout(-3)
