"""Every span hook of the benchmark tracer names a function or method that exists."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_tracing_hook_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for name, mod, cls, attr, count in tracing.HOOKS:
        module = importlib.import_module("algebroidlab." + mod)
        if cls is not None:
            # install() replaces the entry in the class's own namespace
            target = vars(getattr(module, cls, object)).get(attr)
        else:
            target = getattr(module, attr, None)
        if not callable(target) or not (count is None or callable(count)):
            missing.append(f"{name}: {mod}.{cls + '.' if cls else ''}{attr}")
    assert not missing, missing
