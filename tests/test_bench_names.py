"""Every callable the per-layer tracer in bench/trace_call.py wraps must
exist under the name it is listed by, so that moving or renaming a function
cannot silently break a traced benchmark run."""

import importlib.util
import os

import pytest

TRACE_CALL = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                          "bench", "trace_call.py")


@pytest.fixture(scope="module")
def trace_call():
    spec = importlib.util.spec_from_file_location("trace_call", TRACE_CALL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve(trace_call):
    names = [*trace_call.TIMED, *trace_call.COUNTED]
    assert names
    for name in names:
        _, original = trace_call._lookup(name)
        assert callable(original), name
