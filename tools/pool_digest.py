"""Print a digest of library ``judge`` on every benchmark pool instance.

Run from the root of a checkout:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 tools/pool_digest.py [workload ... | cli] > digest.txt

One line per pool instance (all four workloads by default, 1003 lines):
the workload and key, the verdict status, ``repr(eta)``, the reason, the
relaxation's IPM iterations, the number of solver results the verdict
rests on, a SHA-1 over every array of every ``SdpSolution`` the verdict's
solves returned (blocks, dual blocks, slacks, multipliers, value,
residuals, gap, iterations, status and mu history, in call order) and a
SHA-1 over the rest of the verdict (certificates, gaps, allocation,
witness, oracle value and rank-reduction report). Floats are hashed by
their bytes, so the digest changes with any bit of any result.

After the pool lines (when no workload is named, or when ``cli`` is),
one line per command-line report: a SHA-1 over the exit code, standard
output and standard error of ``sepqcqp judge``, ``solve`` and ``reduce``
with ``--format json --no-timestamp`` on the problem file of
``make_example52(k)`` for k in 0..19, and of ``sepqcqp example51 --table
--no-timestamp`` in JSON and in text.

A change that must leave the solver's arithmetic as it is passes when
the digest at the parent commit and at the change are identical:

    diff parent-digest.txt change-digest.txt

The instances come from ``perfbench/workloads.py``, imported read-only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))

import sepqcqp.cli as cli  # noqa: E402
import sepqcqp.connection as connection  # noqa: E402
import sepqcqp.sdp_solver as sdp_solver  # noqa: E402
from workloads import HARD_CASES, SPECS, make_instance  # noqa: E402


def _floats(h, values) -> None:
    h.update(np.asarray(values, dtype=float).tobytes())


def _hash_solution(h, sol) -> None:
    h.update(f"{sol.status.value}|{sol.iterations}|".encode())
    _floats(h, [sol.value, sol.primal_residual, sol.dual_residual, sol.gap])
    _floats(h, sol.slacks)
    _floats(h, sol.dual_multipliers)
    for m in sol.blocks + sol.dual_blocks:
        _floats(h, m.to_dense())
    _floats(h, sol.mu_history)


def _hash_verdict(h, v) -> None:
    h.update(repr([v.zeta_witness, v.oracle_value, v.delta_decomposition]).encode())
    for pb in v.per_block:
        h.update(repr(pb).encode())
    for x in v.witness or []:
        _floats(h, x)
    r = v.reduction
    if r is not None:
        h.update(repr((r.iterations, r.final_ranks, r.pataki_sum, r.bound_m)).encode())
        for x in r.extracted or []:
            _floats(h, x)


def digest(instance) -> str:
    sols = []
    real = sdp_solver.solve_many

    def recorded(bs, opts=None):
        out = real(bs, opts)
        sols.extend(r for r in out if not isinstance(r, Exception))
        return out

    # solve is solve_many of one problem, so every result passes here once
    sdp_solver.solve_many = connection.solve_many = recorded
    try:
        v = connection.judge(instance)
    finally:
        sdp_solver.solve_many = connection.solve_many = real
    hs, hv = hashlib.sha1(), hashlib.sha1()
    for sol in sols:
        _hash_solution(hs, sol)
    _hash_verdict(hv, v)
    iters = v.relaxation.iterations if v.relaxation is not None else None
    return (
        f"{v.status.value} {v.eta!r} {v.reason!r} iters={iters} "
        f"solves={len(sols)} sol={hs.hexdigest()} verdict={hv.hexdigest()}"
    )


#: seeds of make_example52 whose problem files the CLI lines judge
CLI_SEEDS = range(20)


def cli_digest(argv) -> str:
    """SHA-1 over the exit code, stdout and stderr of one sepqcqp run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    h = hashlib.sha1(f"{code}|".encode())
    h.update(out.getvalue().encode())
    h.update(b"|")
    h.update(err.getvalue().encode())
    return h.hexdigest()


def cli_lines() -> None:
    flags = ["--format", "json", "--no-timestamp"]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "problem.sdpq")
        for seed in CLI_SEEDS:
            cli.write_problem(connection.make_example52(seed), path)
            for cmd in ("judge", "solve", "reduce"):
                print("cli", cmd, seed, cli_digest([cmd, path, *flags]), flush=True)
    for fmt in ("json", "text"):
        argv = ["example51", "--table", "--format", fmt, "--no-timestamp"]
        print("cli example51-table", fmt, cli_digest(argv), flush=True)


def main(names) -> None:
    for name in names or sorted(SPECS):
        if name == "cli":
            continue
        keys = list(range(SPECS[name].pool))
        if name == "ex51-sweep":
            keys += list(HARD_CASES)
        for k in keys:
            print(name, k, digest(make_instance(name, k)), flush=True)
    if not names or "cli" in names:
        cli_lines()


if __name__ == "__main__":
    main(sys.argv[1:])
