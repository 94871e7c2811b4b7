"""The benchmark's tracer patches functions by name; these tests fail when a
refactor renames or drops one of them, instead of the traced run reading 0."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from bettibounds.verifier import CHECKS

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_function_exists(tracer):
    for modname, funcs in tracer.WRAPPED.items():
        mod = importlib.import_module(f"bettibounds.{modname}")
        for fname in funcs:
            assert callable(getattr(mod, fname, None)), f"bettibounds.{modname}.{fname}"


def test_every_registry_check_is_traced(tracer):
    assert set(CHECKS) <= set(tracer.CHECKS)
