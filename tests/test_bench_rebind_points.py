"""The repo benchmark's rebind points exist.

``benchmarks/e2e/layers.py`` measures each layer by rebinding public
callables of ``repro`` by name (``install``), so deleting or renaming
one breaks the benchmark at import or install time.  This runs
``install`` in a child process, since it rebinds for good, so that such
a change fails here and not only in the harness's own smoke test.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_layers_install_finds_every_rebind_point():
    path = os.pathsep.join(str(ROOT / part) for part in
                           ("benchmarks/e2e", "src"))
    proc = subprocess.run(
        [sys.executable, "-c", "import layers; layers.install(None)"],
        capture_output=True, text=True, cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
