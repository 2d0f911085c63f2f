"""Print a digest of library ``judge`` on every benchmark pool instance.

Run from the root of a checkout:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 tools/pool_digest.py [workload ... | cli | routes] > digest.txt

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
output and standard error of ``sepqcqp judge``, ``solve``, ``reduce`` and
``certify`` with ``--format json --no-timestamp`` on the problem file of
``make_example52(k)`` for k in 0..19, and of ``sepqcqp example51 --table
--no-timestamp`` in JSON and in text. Each seed's command lines follow a
``cli emit`` line, the SHA-1 of ``cli.emit(make_example52(k))``: the
problem file itself, which FORMAT.md promises is written byte for byte
the same.

After those (when no workload is named, or when ``routes`` is), one line
per instance of the witness routes the pools never take: the 81 joins of
two ``make_example51`` entries over the alpha grid ``ALPHAS`` (certified,
witnessed by rank reduction, and undetermined with too many variables
for the oracle), the 40 joins of ``make_example52(2k)`` and ``(2k + 1)``
with their right-hand sides summed (witnessed by rank reduction, and
one undetermined), one convex entry whose joint rank reduction ends
at rank 2, witnessed by the last column of its block, and one sign
entry whose extracted point misses eta, witnessed by the gauge-signed
square root of its block's diagonal. Three more lines hash the value
and point of direct ``brute_force`` calls: one over four variables whose
round is too long to list whole, so the oracle walks it slab by slab,
and two over two variables whose points sit on a row's band, so the
oracle re-checks them exactly.

Three more route sections follow. ``routes hom-steps`` judges 4, 8, 16
and 32 copies of example 5.1 at alpha = 2 joined into one connection,
whose joint rank reduction steps copies - 1 times (no pool instance
steps it). ``routes walk`` runs ``rank_reduction.reduce`` on
``walk_instance(seed)`` for seeds 0..499, one line each: the step count,
the final ranks and a SHA-1 over the reduced solution, or the type and
message of the error the walk ends in (seeds 20, 249, 385 and 412 stall
with "invariants broken"). ``routes random`` judges
``random_connection(seed)`` for seeds 0..149, whose relaxations end in
every solver stop (MaxIter, Diverged, NumericalFailure) and in
structural failures as well as in exact verdicts.

A change that must leave the solver's arithmetic as it is passes when
the digest at the parent commit and at the change are identical:

    diff parent-digest.txt change-digest.txt

The pool instances come from ``perfbench/workloads.py``, the examples
from ``sepqcqp.examples`` and the other route instances from
``tests/instances.py`` (the builders the tests check), all imported
read-only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile

import numpy as np

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.path.insert(0, os.path.join(ROOT, "tests"))

import sepqcqp.cli as cli  # noqa: E402
import sepqcqp.connection as connection  # noqa: E402
from sepqcqp import rank_reduction  # noqa: E402
from sepqcqp.errors import SepqcqpError  # noqa: E402
from sepqcqp.examples import make_example51, make_example52  # noqa: E402
from sepqcqp.qcqp_model import Qcqp, QuadFunc, Relation, SeparableQcqp, brute_force  # noqa: E402
from instances import (  # noqa: E402
    convex_rank_two,
    family,
    random_connection,
    sign_salvage,
    walk_instance,
)
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
    real = connection.solve

    def recorded(*args, **kwargs):
        sol = real(*args, **kwargs)
        sols.append(sol)
        return sol

    # judge solves through connection.solve, so every result passes here
    connection.solve = recorded
    try:
        v = connection.judge(instance)
    finally:
        connection.solve = real
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


def emit_digest(seed) -> str:
    """SHA-1 of the problem file text of make_example52(seed)."""
    return hashlib.sha1(cli.emit(make_example52(seed)).encode()).hexdigest()


def cli_lines() -> None:
    flags = ["--format", "json", "--no-timestamp"]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "problem.sdpq")
        for seed in CLI_SEEDS:
            print("cli emit", seed, emit_digest(seed), flush=True)
            cli.write_problem(make_example52(seed), path)
            for cmd in ("judge", "solve", "reduce", "certify"):
                print("cli", cmd, seed, cli_digest([cmd, path, *flags]), flush=True)
    for fmt in ("json", "text"):
        argv = ["example51", "--table", "--format", fmt, "--no-timestamp"]
        print("cli example51-table", fmt, cli_digest(argv), flush=True)


#: the alpha grid of the example-5.1 joins
ALPHAS = (0.5, 1.0, 1.5, 2.0, 2.2, 2.5, 2.8, 3.0, 3.5)

#: the example-5.2 joins pair make_example52(2k) with (2k + 1)
JOINS52 = range(40)

#: copies of example 5.1 at alpha = 2 in the hom-steps connections: the
#: joint rank reduction steps copies - 1 times
HOM_STEPS = (4, 8, 16, 32)

#: seeds of the walk_instance reductions and of the random_connection judges
WALK_SEEDS = range(500)
RANDOM_SEEDS = range(150)


def oracle_searches():
    """(name, Qcqp, grid points, refinement rounds) of the direct oracle
    calls, each over the box (-2, 2)."""
    ring4 = [(QuadFunc.from_parts(np.eye(4)), Relation.LE)]
    obj4 = QuadFunc.from_parts(np.zeros((4, 4)), [1.0, 0.5, -0.25, 0.125])
    obj2 = QuadFunc.from_parts(np.zeros((2, 2)), [1.0, 0.0])
    ring2 = QuadFunc.from_parts(np.eye(2))
    return [
        ("slabs", Qcqp(4, obj4, ring4, [4.0]), 41, 1),
        ("band-le", Qcqp(2, obj2, [(ring2, Relation.LE)], [4.0 - 1e-6]), 21, 0),
        ("band-eq", Qcqp(2, obj2, [(ring2, Relation.EQ)], [4.0 + 1e-6]), 21, 0),
    ]


def oracle_digest(q, grid, rounds) -> str:
    """SHA-1 over the value and point brute_force returns."""
    value, point = brute_force(q, (-2.0, 2.0), grid_points=grid, refine_rounds=rounds)
    h = hashlib.sha1()
    _floats(h, [value])
    _floats(h, [] if point is None else point)
    return f"{float(value)!r} {h.hexdigest()}"


def walk_digest(b, sol) -> str:
    """rank_reduction.reduce from sol: the step count, the final ranks and
    a SHA-1 over the reduced solution, or the exception's type and
    message."""
    try:
        red, rep = rank_reduction.reduce(b, sol)
    except SepqcqpError as e:
        return f"{type(e).__name__} {str(e)!r}"
    h = hashlib.sha1()
    _hash_solution(h, red)
    return f"steps={rep.iterations} ranks={rep.final_ranks} sol={h.hexdigest()}"


def route_lines() -> None:
    for a in ALPHAS:
        for b in ALPHAS:
            h1, h2 = make_example51(a), make_example51(b)
            s = SeparableQcqp([h1, h2], h1.rhs + h2.rhs)
            print("routes ex51-join", a, b, digest(s), flush=True)
    for k in JOINS52:
        s1, s2 = make_example52(2 * k), make_example52(2 * k + 1)
        s = SeparableQcqp(s1.blocks + s2.blocks, s1.gamma + s2.gamma)
        print("routes ex52-join", k, digest(s), flush=True)
    print("routes convex-rank-two", digest(convex_rank_two()), flush=True)
    print("routes sign-salvage", digest(sign_salvage()), flush=True)
    for name, q, grid, rounds in oracle_searches():
        print("routes oracle", name, oracle_digest(q, grid, rounds), flush=True)
    for copies in HOM_STEPS:
        print("routes hom-steps", copies, digest(family(2.0, copies)), flush=True)
    for seed in WALK_SEEDS:
        print("routes walk", seed, walk_digest(*walk_instance(seed)), flush=True)
    for seed in RANDOM_SEEDS:
        print("routes random", seed, digest(random_connection(seed)[0]), flush=True)


def main(names) -> None:
    for name in names or sorted(SPECS):
        if name in ("cli", "routes"):
            continue
        keys = list(range(SPECS[name].pool))
        if name == "ex51-sweep":
            keys += list(HARD_CASES)
        for k in keys:
            print(name, k, digest(make_instance(name, k)), flush=True)
    if not names or "cli" in names:
        cli_lines()
    if not names or "routes" in names:
        route_lines()


if __name__ == "__main__":
    main(sys.argv[1:])
