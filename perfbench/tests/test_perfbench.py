"""Tests of the benchmark itself, on the tiny smoke configuration."""

import json
import os
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import SPECS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def run_smoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout.splitlines()


@pytest.fixture
def smoke_batch(tmp_path):
    return worker.Batch("ex51-sweep", 3, True, worker.import_package(), str(tmp_path))


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(SPECS)
    assert sorted(run.WORKLOADS) == sorted(SPECS)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", sorted(SPECS))
def test_every_metric_is_printed_with_its_unit(workload, trace, section):
    lines = run_smoke(workload, trace)
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for name, unit in want.items():
        assert any(line.split()[:1] == [name] and line.endswith(unit) for line in lines)


def test_tail_percentile_does_not_depend_on_pass_count():
    three_passes = list(range(1, 49))
    value, pct = run.tail(three_passes, guaranteed=48)
    assert value == 38 and pct == pytest.approx(100 * 38 / 48)
    value, pct2 = run.tail(three_passes + three_passes, guaranteed=48)
    assert pct2 == pct and value == 38
    assert run.tail([3.0, 1.0, 2.0], guaranteed=3) == (3.0, 100.0)


def test_clean_batch_has_no_failures(smoke_batch):
    tally = worker.Tally(len(smoke_batch))
    tally.run_pass(smoke_batch)
    assert tally.attempted == len(smoke_batch) and tally.failures == []


@pytest.mark.parametrize("field,corrupt", [
    ("eta", lambda ref: ref["eta"] * (1 + 1e-5) + 1e-5),
    ("status", lambda ref: "NotExact" if ref["status"] != "NotExact" else "ExactCertified"),
])
def test_corrupted_reference_is_counted_as_failed(smoke_batch, field, corrupt):
    smoke_batch.refs[0] = dict(smoke_batch.refs[0], **{field: corrupt(smoke_batch.refs[0])})
    tally = worker.Tally(len(smoke_batch))
    tally.run_pass(smoke_batch)
    assert len(tally.failures) == 1 and field in tally.failures[0]
    assert tally.attempted == len(smoke_batch)


def test_diverged_reference_pins_the_reason(smoke_batch):
    i = smoke_batch.keys.index("infeasible")
    assert smoke_batch.refs[i]["eta"] is None
    smoke_batch.refs[i] = dict(smoke_batch.refs[i], reason="solver status MaxIter")
    tally = worker.Tally(len(smoke_batch))
    tally.run_pass(smoke_batch)
    assert len(tally.failures) == 1 and "reason" in tally.failures[0]


def test_missing_wrapped_attribute_fails_loudly():
    modules = worker.import_package()
    fake_cli = types.SimpleNamespace(**{
        name: getattr(modules["cli"], name)
        for _, name, _ in tracing.WRAPS if hasattr(modules["cli"], name)
    })
    del fake_cli.parse
    with pytest.raises(tracing.TraceSetupError, match=r"sepqcqp\.cli\.parse"):
        tracing.Tracer(dict(modules, cli=fake_cli))


def test_tracer_restores_wrapped_attributes():
    modules = worker.import_package()
    before = modules["connection"].solve, modules["symkernel"].SymMatrix.to_dense
    with tracing.Tracer(modules) as tracer:
        assert modules["connection"].solve is not before[0]
    assert (modules["connection"].solve, modules["symkernel"].SymMatrix.to_dense) == before
    assert tracer.spans == []
