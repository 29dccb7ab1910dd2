"""Outputs stay bit-identical unless a change means to alter them.

``golden.py`` trains every variant and the lambda switches on small
synthetic inputs, plus one ``dagrl run`` cell, in a subprocess pinned
to one BLAS thread and one OpenBLAS kernel. Its digests must equal the
committed ``golden_digests.json``.
"""

import json
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent


def _dynamic_openblas() -> bool:
    config = getattr(np.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


@pytest.mark.skipif(
    platform.machine() not in ("x86_64", "AMD64") or not _dynamic_openblas(),
    reason="the digests hold for a DYNAMIC_ARCH OpenBLAS on x86-64 forced to its Haswell "
           "kernel; other BLAS builds round differently")
def test_outputs_match_golden_digests():
    proc = subprocess.run([sys.executable, str(HERE / "golden.py")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    expected = json.loads((HERE / "golden_digests.json").read_text())
    assert json.loads(proc.stdout) == expected
