"""The benchmark's own answer checks, run in process on its seed-0 and
seed-13 inputs: a change that would fail a benchmark call, by a wrong
answer or by output that differs between two calls on one file, fails
here first.  bench/run.py and bench/inputs.py are loaded read-only, the
way tests/test_bench_names.py loads bench/trace_call.py."""

import importlib.util
import json
import os
import sys

import pytest

from orbikt.cli import main

BENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        "bench_" + name, os.path.join(BENCH, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    return _load("run"), _load("inputs")


@pytest.mark.parametrize("seed", (0, 13))
@pytest.mark.parametrize("workload",
                         ("ktheory-z4-torus", "chartable", "prim-d4-torus"))
def test_benchmark_answers_hold(bench, workload, seed, tmp_path, capsys,
                                monkeypatch):
    run, inputs = bench
    assert workload in run.WORKLOADS
    # make_cases imports the generator as a sibling module
    monkeypatch.setitem(sys.modules, "inputs", inputs)
    cases = run.make_cases(workload, seed, str(tmp_path))
    assert cases
    for case in cases:
        outputs = []
        for _ in range(2):
            code = main(list(case.argv))
            out, err = capsys.readouterr()
            assert (code, err) == (0, ""), case.label
            outputs.append(out)
        assert outputs[0] == outputs[1], case.label
        assert case.check(json.loads(outputs[0])) == [], case.label
