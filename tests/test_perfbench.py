"""The benchmark's tracer contract, checked on one operation per workload.

``perfbench/layers.py`` wraps uwbsim functions by name in the module whose
namespace resolves each call, and a traced benchmark run fails when a span
listed for its workload records no call.  Each test runs the workload's
default-seed operation (the benchmark's warm-up) under the tracer, so a
renamed function or a call moved to another namespace fails here rather
than in the benchmark.  The perfbench files are only imported, never changed.
"""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = _load("layers")
workloads = _load("workloads")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_operation_records_every_span(name, tmp_path):
    cfg = workloads.make_config(name, workloads.op_seed(workloads.DEFAULT_SEED, 0))
    tracer = layers.Tracer()
    with tracer.operation(0):
        workloads.run_operation(cfg, str(tmp_path))
    assert tracer.missing_spans(0, workloads.WORKLOADS[name].spans) == []
    assert workloads.check_outputs(workloads.expected(cfg), str(tmp_path)) == []
    with open(os.path.join(BENCH, "digests.json")) as f:
        assert workloads.csv_digests(str(tmp_path)) == json.load(f)[name]

    metrics = tracer.metrics(0, [0], 0.0, 0.0)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = {m["name"] for m in json.load(f)["per_layer"]}
    assert set(metrics) == declared
    assert json.loads(json.dumps(metrics)) == metrics
