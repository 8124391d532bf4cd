"""The layers ``claimbench/layertrace.py`` traces all exist in the package,
so that a rename or a removal fails here instead of turning the layer's
per-layer metrics into an ``absent`` entry."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

LAYERTRACE = Path(__file__).parent.parent / "claimbench" / "layertrace.py"


def _layers() -> tuple:
    # executed without registering it as a module, so nothing is installed
    spec = importlib.util.spec_from_file_location("_layertrace_under_test", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PACKAGE, module.LAYERS


def test_every_traced_layer_is_a_callable_of_its_module():
    package, layers = _layers()
    assert layers
    missing = [
        prefix
        for prefix, home, name, _ in layers
        if not callable(getattr(importlib.import_module(f"{package}.{home}"), name, None))
    ]
    assert missing == []
