"""Every function the traced benchmark wraps must exist in the package.

``perfbench/tracing.py`` resolves each ``<layer>.<function>`` key of its
``QUANTITIES`` table by attribute lookup on ``mctwist.<layer>``.  A refactor
that deletes or renames one of those functions fails here, instead of
crashing the traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    keys = [k for k in _load_tracing().QUANTITIES if "." in k]
    assert keys
    for key in keys:
        layer, function = key.split(".")
        module = importlib.import_module("mctwist." + layer)
        assert callable(getattr(module, function, None)), key
