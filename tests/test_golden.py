"""Outputs stay bit-identical unless a change means to alter them.

``golden.py`` trains every variant and the lambda switches on small
synthetic inputs, plus one ``dagrl run`` cell, in a subprocess pinned
to one BLAS thread and one OpenBLAS kernel. Its digests must equal the
committed ``golden_digests.json``. They also depend on numpy's SIMD
dispatch level, which is not pinned: the test runs only where numpy
dispatches to ``X86_V4``, as on the machine that wrote the table.
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


def _x86_v4_dispatch() -> bool:
    # numpy's exp, log and log1p give other bits below its X86_V4 (AVX-512) dispatch.
    umath = getattr(getattr(np, "_core", None), "_multiarray_umath", None)
    return bool(getattr(umath, "__cpu_features__", {}).get("X86_V4"))


@pytest.mark.skipif(
    platform.machine() not in ("x86_64", "AMD64") or not _dynamic_openblas()
    or not _x86_v4_dispatch(),
    reason="the digests hold for a DYNAMIC_ARCH OpenBLAS on x86-64 forced to its Haswell "
           "kernel, with numpy dispatching to X86_V4 (AVX-512); other BLAS builds and "
           "dispatch levels round differently")
def test_outputs_match_golden_digests():
    proc = subprocess.run([sys.executable, str(HERE / "golden.py")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    expected = json.loads((HERE / "golden_digests.json").read_text())
    assert json.loads(proc.stdout) == expected
