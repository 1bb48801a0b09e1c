"""Every jamsim name the benchmark calls still exists and works.

perfbench's tracer skips a target it cannot find, so a renamed or deleted
function would silently leave its per-layer span at zero calls.  The
benchmark's set-up code, its worker's pipeline config and its sweep's
check pass call jamsim directly, and its tracer counts the samples of a
`run_scenario` report: a name gone from there fails the benchmark run, not
the tests, so each is run here once on a tiny input.
"""

import ast
import importlib
import runpy
import sys
from pathlib import Path

import pytest

from jamsim import Pipeline, PipelineConfig, builtin_scenarios, run_scenario

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
#: (defining module, function, span name, sample counter) per traced function.
TRACING = runpy.run_path(str(PERFBENCH / "tracing.py"), run_name="perfbench_tracing")
TARGETS = TRACING["TARGETS"]


@pytest.fixture(scope="module")
def worker():
    """perfbench/worker.py as a module, with its sibling modules importable."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("worker")
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("module,function", [t[:2] for t in TARGETS], ids=[t[2] for t in TARGETS])
def test_traced_function_exists(module, function):
    assert callable(getattr(importlib.import_module(module), function, None))


def test_the_set_up_code_runs():
    tree = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    code, = [ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
             and [getattr(t, "id", None) for t in node.targets] == ["SETUP_CODE"]]
    exec(code, {})


def test_the_workers_config_matches_the_oracles_defaults(worker):
    config = worker._pipeline_config(7, 4096)  # SystemExit if a default moved
    assert config.n_samples == 4096


def test_a_sweep_check_pass_over_a_tiny_pool_passes(worker):
    counter = worker.Counter()
    sweep = worker.Sweep({"n": 4096, "round": 4, "seed": 7, "per_cell": 1}, counter)
    sweep.check_pass()
    assert (counter.attempted, counter.failed, counter.errors) == (4, 0, [])
    assert None not in sweep.fingerprints


def test_the_tracer_counts_the_samples_of_a_real_report():
    report = run_scenario(Pipeline(PipelineConfig(n_samples=256)), builtin_scenarios()[3])
    assert TRACING["_run_scenario_samples"]((), {}, report) == 256
