#!/usr/bin/env python3
"""Build the compiled event core (``repro.sim._ccore``) in place.

Compiles ``src/repro/sim/_ccore.c`` into ``src/repro/sim/_ccore.<abi>.so``
with the interpreter's own compiler flags, no setuptools invocation —
the extension is a single translation unit with no dependencies beyond
the CPython headers, so a direct ``gcc`` call keeps the build fast and
the failure modes legible.  ``pip install -e .`` builds the same
extension through ``setup.py``; this script is what CI and dev loops
use (it is idempotent and skips the compile when the .so is newer than
the source).

Exit codes: 0 built (or fresh), 1 compile failed, 2 import self-check
failed.  ``--force`` rebuilds unconditionally; ``--check`` only
verifies that the built extension imports and reports its digest.
"""

from __future__ import annotations

import argparse
import hashlib
import subprocess
import sys
import sysconfig
from pathlib import Path
from typing import Optional

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro" / "sim" / "_ccore.c"


def so_path() -> Path:
    ext = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    return SRC.with_name("_ccore" + ext)


def source_digest() -> str:
    """Digest of the core source + Python ABI — CI's cache key."""
    h = hashlib.sha256()
    h.update(SRC.read_bytes())
    h.update(sys.version.encode())
    h.update((sysconfig.get_config_var("EXT_SUFFIX") or "").encode())
    return h.hexdigest()


def build(force: bool = False, out: Optional[Path] = None) -> Path:
    """Compile the extension to ``out`` (default: in place, see
    :func:`so_path`) and return its path.  The test suite passes a
    private ``out`` to build a standalone copy."""
    out = out or so_path()
    if not force and out.exists() and out.stat().st_mtime >= SRC.stat().st_mtime:
        print(f"fresh: {out.name}")
        return out
    include = sysconfig.get_paths()["include"]
    cc = sysconfig.get_config_var("CC") or "cc"
    cmd = [
        *cc.split(),
        "-shared", "-fPIC", "-O2", "-fno-strict-aliasing",
        "-Wall", "-Wextra", "-Wno-unused-parameter",
        "-Wno-cast-function-type",  # PyCFunctionWithKeywords casts are idiom
        f"-I{include}",
        str(SRC), "-o", str(out),
    ]
    print(" ".join(cmd))
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(1)
    if proc.stderr.strip():
        sys.stderr.write(proc.stderr)
    return out


def self_check() -> None:
    """Import the extension in a subprocess and confirm it serves."""
    code = (
        "import os; os.environ['ALOCK_SIM_CORE'] = 'compiled';\n"
        "from repro.sim.core import core_info\n"
        "info = core_info()\n"
        "assert info['kind'] == 'compiled', info\n"
        "from repro.sim import Environment\n"
        "env = Environment()\n"
        "def p(env):\n"
        "    yield env.timeout(5)\n"
        "    return env.now\n"
        "assert env.run(env.process(p(env))) == 5.0\n"
        "print('compiled core ok:', type(env).__module__)\n"
    )
    env = {"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(2)
    print(proc.stdout.strip())


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--force", action="store_true",
                    help="rebuild even when the .so is newer than the source")
    ap.add_argument("--check", action="store_true",
                    help="only run the import self-check on the existing build")
    ap.add_argument("--digest", action="store_true",
                    help="print the source+ABI digest (CI cache key) and exit")
    args = ap.parse_args()
    if args.digest:
        print(source_digest())
        return
    if not args.check:
        build(force=args.force)
    self_check()


if __name__ == "__main__":
    main()
