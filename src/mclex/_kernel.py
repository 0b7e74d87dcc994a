"""Kernel selection: compiled extension when available, pure Python otherwise.

Set MCLEX_PURE_PYTHON=1 to force the fallback (used by the parity tests and
the benchmark).
"""

from __future__ import annotations

import os

from . import _closure_py

if os.environ.get("MCLEX_PURE_PYTHON", "0") not in ("", "0"):
    _impl = _closure_py
else:
    try:
        from . import _closure_c as _impl  # type: ignore[attr-defined]
    except ImportError:
        _impl = _closure_py

BACKEND = _impl.BACKEND

# the compiled closure kernel keeps per-coordinate state in idx[16] and the
# partial left columns in pcols[17][64]; wider or taller inputs go to Python
C_MAX_N = 16
C_MAX_M = 64


def closure_mask(n, k, mats, r0, stop=-1):
    impl = _impl
    if n > C_MAX_N or any(m > C_MAX_M for m, _rows in mats):
        impl = _closure_py
    return impl.closure_mask(n, k, mats, r0, stop)


sharp_bits = _impl.sharp_bits
