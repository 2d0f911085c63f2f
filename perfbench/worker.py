"""One workload process: set up, then judge the batch in a closed loop.

Started by ``run.py``, which measures set-up time from the moment it
starts this process until the ``READY`` line, and reads the result from
the last line of standard output. The ``READY`` line carries two runs of
the calibration kernel, one right after the package import and one at
the end of set-up, by which the set-up time is scaled. A single caller judges one instance at
a time, each only after the previous one has finished.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

from calibrate import kernel, scale
from tracing import Tracer, coverage, layer_metrics, silent_layers
from workloads import batch_keys, load_references, make_instance

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

EXACT = ("ExactCertified", "ExactWitnessed")
ETA_RTOL = 1e-6


def mismatch(ref: dict, status: str, eta: float, reason: str) -> str | None:
    """Why a verdict disagrees with its reference, or None if it agrees.

    The status must match. eta must match to a relative tolerance of 1e-6
    when the reference records one; a reference without eta is a solver
    failure, whose eta is the last iterate's objective rather than the
    relaxation value, so its reason is compared instead.
    """
    if status != ref["status"]:
        return f"status {status}, reference {ref['status']}"
    if ref["eta"] is None:
        if reason != ref["reason"]:
            return f"reason {reason!r}, reference {ref['reason']!r}"
        return None
    want = float(ref["eta"])
    if not abs(float(eta) - want) <= ETA_RTOL * (1.0 + abs(want)):
        return f"eta {eta!r}, reference {want!r}"
    return None


def import_package() -> dict:
    """The package modules, imported from this checkout's src/."""
    import sepqcqp
    import sepqcqp.cli
    import sepqcqp.connection
    import sepqcqp.symkernel

    where = os.path.dirname(os.path.abspath(sepqcqp.__file__))
    if where != os.path.join(ROOT, "src", "sepqcqp"):
        raise SystemExit(f"sepqcqp was imported from {where}, not from {ROOT}/src")
    return {
        "cli": sepqcqp.cli,
        "connection": sepqcqp.connection,
        "symkernel": sepqcqp.symkernel,
    }


class Batch:
    """The workload's fixed batch of instances and their reference verdicts."""

    def __init__(self, workload, seed, smoke, modules, workdir):
        self.workload = workload
        self.modules = modules
        self.keys = batch_keys(workload, seed, smoke)
        refs = load_references(workload, smoke)
        self.refs = [refs[str(k)] for k in self.keys]
        self.instances = [make_instance(workload, k, smoke) for k in self.keys]
        self.paths = []
        self.raised = 0
        self.out_path = os.path.join(workdir, "report.json")
        if workload == "ex52-cli":
            for k, inst in zip(self.keys, self.instances):
                path = os.path.join(workdir, f"problem-{k}.txt")
                modules["cli"].write_problem(inst, path)
                self.paths.append(path)

    def __len__(self):
        return len(self.keys)

    def judge(self, i):
        """(seconds, status, failure): one verdict, timed, then checked.

        A verdict that raises, exits the CLI with code 1 or disagrees with
        its reference is a failure; seconds is nan when the call raised.
        """
        t0 = time.perf_counter()
        try:
            if self.paths:
                code = self.modules["cli"].run(
                    ["judge", self.paths[i], "--format", "json",
                     "--no-timestamp", "--out", self.out_path])
            else:
                v = self.modules["connection"].judge(self.instances[i])
        except Exception as exc:  # a raise is a failed verdict, not a crash
            if not self.raised:
                traceback.print_exc(file=sys.stderr)
            self.raised += 1
            return math.nan, None, f"raised {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if self.paths:
            if code == 1:
                return dt, None, "cli exit code 1"
            with open(self.out_path, encoding="utf-8") as fh:
                d = json.load(fh)["report"]["verdict"]
            status, eta, reason = d["status"], d["eta"], d["reason"]
        else:
            status, eta, reason = v.status.value, v.eta, v.reason
        return dt, status, mismatch(self.refs[i], status, eta, reason)


class Tally:
    """Verdict samples and outcomes accumulated over batch passes.

    samples_ms, instance_ms and pass_s are nominal times (see
    calibrate.py): the calibration kernel runs between consecutive
    verdicts, and each verdict is scaled by the two kernel runs around it.
    raw_ms keeps the times as measured.
    """

    def __init__(self, size: int):
        self.samples_ms = []
        self.instance_ms = [[] for _ in range(size)]  # samples_ms by instance
        self.raw_ms = []
        self.pass_s = []
        self.attempted = 0
        self.exact = 0
        self.failures = []

    def run_pass(self, batch, tracer=None, verdict_scale=None):
        """Judge the batch once and return the seconds it took as measured,
        calibration included; with a tracer, record each verdict's time
        and scale factor under its span identifier."""
        start = time.perf_counter()
        total = 0.0
        k_prev = kernel()
        for i in range(len(batch)):
            if tracer is not None:
                tracer.verdict = len(verdict_scale)
            dt, status, failure = batch.judge(i)
            k_next = kernel()
            factor = scale(k_prev, k_next)
            k_prev = k_next
            if tracer is not None:
                verdict_scale[tracer.verdict] = (dt, factor)
            self.attempted += 1
            self.exact += status in EXACT
            if failure is not None:
                self.failures.append(f"{batch.workload} key {batch.keys[i]}: {failure}")
            if not math.isnan(dt):
                self.raw_ms.append(1000.0 * dt)
                self.samples_ms.append(1000.0 * dt * factor)
                self.instance_ms[i].append(1000.0 * dt * factor)
                total += dt * factor
        self.pass_s.append(total)
        return time.perf_counter() - start


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": _blas_threads(np),
    }


def _blas_threads(np):
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def timed_run(batch, seconds, min_passes):
    """Untraced passes until another pass would overrun the budget."""
    tally = Tally(len(batch))
    start = time.perf_counter()
    while True:
        last = tally.run_pass(batch)
        elapsed = time.perf_counter() - start
        if len(tally.pass_s) >= min_passes and elapsed + last > seconds:
            return tally, {}


def traced_run(batch, seconds, min_passes, modules, spans_path):
    """Untraced and traced passes in turn; per-layer metrics from the latter."""
    tracer = Tracer(modules)
    plain, traced = Tally(len(batch)), Tally(len(batch))
    verdict_scale = {}
    start = time.perf_counter()
    while True:
        plain.run_pass(batch)
        with tracer:
            last = traced.run_pass(batch, tracer, verdict_scale)
        elapsed = time.perf_counter() - start
        if len(traced.pass_s) >= min_passes and elapsed + 2 * last > seconds:
            break
    tracer.write(spans_path)
    factors = {v: f for v, (_, f) in verdict_scale.items()}
    layers = layer_metrics(tracer.spans, tracer.counts, len(traced.pass_s), factors)
    layers["trace.coverage"] = (coverage(tracer.spans, verdict_scale), "ratio")
    plain_s = statistics.median(plain.pass_s)
    layers["trace.overhead_frac"] = (
        statistics.median(traced.pass_s) / plain_s - 1.0 if plain_s else math.nan,
        "ratio",
    )
    plain.attempted += traced.attempted
    plain.exact += traced.exact
    plain.failures += traced.failures
    extra = {
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
        "silent_layers": silent_layers(tracer.spans),
        "spans_file": os.path.relpath(spans_path, ROOT),
        "traced_passes": len(traced.pass_s),
    }
    return plain, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    modules = import_package()
    k_start = kernel()
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        batch = Batch(args.workload, args.seed, args.smoke, modules, workdir)
        batch.judge(0)  # untimed warm-up
        print(f"READY {k_start} {kernel()}", flush=True)
        if args.setup_only:
            return 0
        min_passes = 1 if args.smoke else 3
        if args.trace:
            spans = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
            tally, extra = traced_run(
                batch, args.seconds, 1 if args.smoke else 2, modules, spans)
        else:
            tally, extra = timed_run(batch, args.seconds, min_passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "keys": batch.keys,
        "samples_ms": tally.samples_ms,
        "instance_ms": tally.instance_ms,
        "raw_ms": tally.raw_ms,
        "pass_s": tally.pass_s,
        "min_passes": min_passes,
        "attempted": tally.attempted,
        "exact": tally.exact,
        "failures": tally.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
        **extra,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
