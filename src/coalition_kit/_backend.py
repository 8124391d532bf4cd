"""Kernel backend selection.

Prefers the compiled extension; falls back to the pure-Python kernel when
the extension is missing or COALITION_KIT_PURE is set. Both backends emit
byte-identical canonical codes.
"""

from __future__ import annotations

import os

if os.environ.get("COALITION_KIT_PURE"):
    from . import kernel as impl
else:
    try:
        from . import _fastkernel as impl  # type: ignore[no-redef]
    except ImportError:
        from . import kernel as impl  # type: ignore[no-redef]

canonical_code = impl.canonical_code
IS_COMPILED: bool = bool(impl.IS_COMPILED)
BACKEND_NAME: str = "compiled" if IS_COMPILED else "pure"
