"""The benchmark tracer wraps spin5 functions by name; they must all exist."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"spin5.{mod}.{fn}" for mod, fns in tracer.TARGETS.items()
               for fn in fns
               if not callable(getattr(importlib.import_module(f"spin5.{mod}"),
                                       fn, None))]
    assert missing == []
