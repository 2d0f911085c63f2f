"""sepqcqp benchmark: judge one seeded workload and print its metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload ex52-cli --seed 1 --seconds 20 --trace 0

Each workload runs in its own process as a single closed-loop caller:
one instance at a time, the next only after the previous verdict. With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of
a traced run instead. Every verdict is checked against the reference in
``perfbench/references``; a run with a failed verdict exits with code 1.
See perfbench/README.md for the workloads, metrics and seeds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

from calibrate import scale

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ex52-cli", "ex51-sweep", "wide-connection", "deep-blocks")
SETUP_SAMPLES = 7  # set-ups per run; setup_s is their median
DEADLINE_S = 170.0  # the whole run, set-ups included
TAIL_ABOVE = 10  # samples required above the reported tail percentile


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument(
        "--smoke", action="store_true",
        help="tiny batches and shapes, one set-up (used by the tests)",
    )
    return p.parse_args(argv)


def child_env() -> dict:
    """Environment of the workload process: the checkout's src first, and
    BLAS pinned to one thread, so scheduler noise stays out of the timings."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), HERE]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def launch(args, setup_only: bool, deadline: float):
    """Start a workload process; return (setup time in nominal seconds,
    result or None)."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    cmd += ["--smoke"] * args.smoke + ["--setup-only"] * setup_only
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(),
                          cwd=ROOT) as proc:
        try:
            ready = proc.stdout.readline().split()
            setup_s = time.perf_counter() - t0
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if ready[:1] != ["READY"] or proc.returncode != 0:
        raise SystemExit(f"workload process failed (exit code {proc.returncode})")
    setup_s *= scale(float(ready[1]), float(ready[2]))
    if setup_only:
        return setup_s, None
    return setup_s, json.loads(out.strip().splitlines()[-1])


def tail(samples: list, guaranteed: int) -> tuple:
    """(value, percentile) at the highest percentile that has TAIL_ABOVE
    samples above it in every run, that is in `guaranteed` samples, by the
    nearest-rank method; the maximum when `guaranteed` is too small.

    The percentile depends on the workload only, not on how many passes
    the machine's speed allowed, so that runs stay comparable."""
    s = sorted(samples)
    if guaranteed <= TAIL_ABOVE:
        return s[-1], 100.0
    q = 1.0 - TAIL_ABOVE / guaranteed
    return s[max(1, math.ceil(q * len(s))) - 1], 100.0 * q


def end_to_end(res: dict, setups: list) -> dict:
    samples = res["samples_ms"] or [math.nan]  # no verdict returned at all
    value, pct = tail(samples, res["min_passes"] * len(res["keys"]))
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(statistics.median(t or [math.nan])
                       for t in res["instance_ms"]) / 1000.0, "s"),
        "verdict_p50_ms": (statistics.median(samples), "ms"),
        "verdict_tail_ms": (value, "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "exact_frac": (res["exact"] / res["attempted"], "ratio"),
    }, pct


def main(argv=None) -> int:
    args = parse_args(argv)
    # on SIGTERM, unwind through launch(), which kills the workload process
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "sepqcqp", "__init__.py")):
        print(f"error: no sepqcqp sources under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    probes = 0 if args.smoke or args.trace else SETUP_SAMPLES - 1
    setups = [launch(args, True, deadline)[0] for _ in range(probes)]
    setup_s, res = launch(args, False, deadline)
    setups.append(setup_s)

    env = res["env"]
    n = res["attempted"]
    failed = len(res["failures"])
    print(f"workload {args.workload}  seed {args.seed}  keys {res['keys']}")
    print("closed loop, 1 caller; " + ", ".join(f"{k}={v}" for k, v in env.items()))
    if args.trace:
        metrics = {k: (m["value"], m["unit"]) for k, m in res["per_layer"].items()}
        print(f"traced run: {res['traced_passes']} traced passes, spans in "
              f"{res['spans_file']}")
        print("layers with no spans: " + (", ".join(res["silent_layers"]) or "none"))
        if metrics["trace.coverage"][0] < 0.9:
            print(f"FLAG: trace.coverage {metrics['trace.coverage'][0]:.3f} < 0.9")
    else:
        metrics, pct = end_to_end(res, setups)
        print(f"passes of {len(res['keys'])} instances (s): "
              + " ".join(f"{t:.3f}" for t in res["pass_s"]) + "; "
              f"verdict_tail_ms is p{pct:.1f} of {len(res['samples_ms'])} verdicts; "
              f"setup_s is the median of {len(setups)} set-ups")
        print(f"as measured, before scaling to nominal seconds: verdict_p50_ms "
              f"{statistics.median(res['raw_ms'] or [math.nan]):.6g}")
    print(f"failed_frac {failed / n:.6g} ratio ({failed} of {n})")
    for msg in res["failures"][:20]:
        print(f"FAILED: {msg}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}")

    correct = failed == 0 and all(math.isfinite(v) for v, _ in metrics.values())
    print(json.dumps({
        "correct": correct,
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
