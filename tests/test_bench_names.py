"""The benchmark's tracer wraps conegeo functions by name from outside the
library, so a renamed or deleted function would break its traced runs.
Every name it lists must still resolve, as its install step looks it up."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _traced_names():
    spec = importlib.util.spec_from_file_location("bench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.NAMES


@pytest.mark.parametrize("name", _traced_names())
def test_traced_name_resolves(name):
    layer, qual = name.split(".", 1)
    home = importlib.import_module(f"conegeo.{layer}")
    if "." in qual:
        cls_name, attr = qual.split(".")
        raw = vars(getattr(home, cls_name))[attr]
        assert callable(getattr(raw, "__func__", raw)), name
    else:
        assert callable(getattr(home, qual)), name
