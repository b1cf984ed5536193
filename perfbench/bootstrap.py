"""Single-threaded BLAS and the checkout's own `payload_mpc`, set up before numpy loads.

Import this module first.  The benchmark runs from the root of a source
checkout and must measure that tree: an installed `payload_mpc` elsewhere, or
none at all, is an error (exit 1), never a silent fallback.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

try:
    import payload_mpc
except ImportError as error:
    sys.exit(f"perfbench: cannot import payload_mpc from {SRC}: {error}")
if Path(payload_mpc.__file__).resolve().parent.parent != SRC:
    sys.exit(f"perfbench: payload_mpc was imported from {payload_mpc.__file__}, not from {SRC}")
