"""Tests of the benchmark harness itself: smoke runs, determinism, tracing."""

import dataclasses
import gc
import importlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
import types

import numpy as np
import pytest

import run
import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def assert_only_statistical_checks_failed(result):
    """At smoke-test size one epoch is a few steps, too few to require a falling loss."""
    failed = [name for name, ok in result.checks.items() if not ok]
    assert set(failed) <= {"loss_decreases"}, result.notes
    assert result.failed == len(failed), result.notes


def tiny(name):
    """The workload at a size that runs in about a second, without the AUC floor."""
    workload = workloads.WORKLOADS[name]
    return dataclasses.replace(workload, n_patients=max(40, workload.n_patients // 25),
                               batch=8, auc_floor=None)


def patched_originals():
    names = [(module, attr) for _, module, attr, _ in spans.LAYERS]
    names += [(spans.OPS_MODULE, kind) for kind in spans.OPS]
    return {(m, a): getattr(importlib.import_module(m), a) for m, a in names}


def test_spec_lists_what_the_harness_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(workloads.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(workloads.PER_LAYER)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_untraced(name, tmp_path):
    result = workloads.run_untraced(tiny(name), seed=3, seconds=0.0, workdir=str(tmp_path))
    assert_only_statistical_checks_failed(result)
    assert list(result.metrics) == [m["name"] for m in SPEC["end_to_end"]]
    for value, _ in result.metrics.values():
        assert math.isfinite(value) and value > 0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_traced_separates_layers(name, tmp_path):
    workload = tiny(name)
    result = workloads.run_traced(workload, seed=3, workdir=str(tmp_path))
    values = {k: v for k, (v, _) in result.metrics.items()}
    assert list(values) == [m["name"] for m in SPEC["per_layer"]]
    assert values["trace.missing_layers"] == 0
    assert values["trace.zero_call_layers"] == 0, result.notes
    assert_only_statistical_checks_failed(result)
    if workload.kind == "predict":
        assert values["autodiff.backward.self_s"] == 0.0
        assert values["bench.optimizer.self_s"] == 0.0
    else:
        assert values["autodiff.backward.self_s"] > 0.0
    assert values["attention.attend.calls"] == values["time_kernel.time_embed.interval.calls"]
    assert os.path.exists(tmp_path / f"trace-{workload.name}-seed3.jsonl")


def test_workload_generation_is_deterministic(tmp_path):
    workload = tiny("train-med-aware")

    def fingerprint(seed, subdir):
        os.makedirs(tmp_path / subdir)
        inputs = workloads.setup(workload, seed, str(tmp_path / subdir))
        return [(inst.patient_id, inst.target.tolist(), inst.delta_prev.tolist(),
                 [v.codes for v in inst.visits]) for inst in inputs.loop + inputs.held_out]

    assert fingerprint(5, "a") == fingerprint(5, "b")
    assert fingerprint(5, "a2") != fingerprint(6, "c")


def test_wrappers_restored_after_traced_run(tmp_path):
    before = patched_originals()
    workloads.run_traced(tiny("train-med-aware"), seed=1, workdir=str(tmp_path))
    after = patched_originals()
    assert all(after[key] is fn for key, fn in before.items())


def test_wrappers_restored_after_error():
    before = patched_originals()
    with pytest.raises(RuntimeError):
        with spans.Tracer().patched():
            assert patched_originals() != before
            raise RuntimeError("boom")
    after = patched_originals()
    assert all(after[key] is fn for key, fn in before.items())


def test_missing_layer_is_reported_not_fatal():
    tracer = spans.Tracer()
    layers = (("network.gone", "catnet.network", "no_such_function", None),
              ("nowhere.gone", "catnet.no_such_module", "f", None))
    with tracer.patched(layers=layers, ops=()):
        pass
    assert tracer.missing == ["network.gone", "nowhere.gone"]
    assert not hasattr(importlib.import_module("catnet.network"), "no_such_function")


def test_counter_that_stops_fitting_reports_no_partial_total(monkeypatch):
    module = types.ModuleType("fake_layers")
    module.layer = lambda result: result
    monkeypatch.setitem(sys.modules, "fake_layers", module)

    def counter(counts, prefix, args, result):
        counts[prefix + ".items"] += len(result)

    tracer = spans.Tracer()
    with tracer.patched(layers=(("fake.layer", "fake_layers", "layer", counter),), ops=()):
        module.layer([1, 2, 3])
        module.layer(None)     # len(None) raises TypeError: the counter no longer fits
        module.layer([1])
    assert tracer.uncounted == {"fake.layer"}
    assert tracer.counts["fake.layer.items"] == 0
    assert tracer.self_times()["fake.layer"][0] == 3


def test_host_probe_restores_collector_state():
    host = workloads.HostSpeed()
    assert gc.isenabled()
    host.probe()
    assert gc.isenabled()
    gc.disable()
    try:
        host.probe()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_span_self_times_sum_to_at_most_wall_time(tmp_path):
    workload = tiny("train-med-unaware")
    tracer = spans.Tracer()
    begin = time.perf_counter()
    with tracer.patched():
        with tracer.span("bench.run"):
            inputs = workloads.setup(workload, 2, str(tmp_path))
            workloads.measure(workload, inputs, 2, None, tracer.span)
    wall = time.perf_counter() - begin
    totals = tracer.self_times()
    assert len(totals) > 10
    assert all(self_s >= -1e-9 for _, self_s in totals.values())
    assert sum(self_s for _, self_s in totals.values()) <= wall


def test_cli_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "train-med-aware",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_adam_first_step_moves_each_weight_by_lr():
    from catnet import autodiff as ad
    p = ad.parameter(np.array([1.0, -2.0, 3.0]))
    p.grad = np.array([0.5, -4.0, 0.0])
    workloads.Adam({"p": p}, lr=0.1).step()
    np.testing.assert_allclose(p.data, [0.9, -1.9, 3.0], rtol=1e-6)
    assert p.grad is None
