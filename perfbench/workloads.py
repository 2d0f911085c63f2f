"""Seeded instance sets for the four benchmark workloads.

Every workload draws its batch from a fixed pool of instances whose
reference verdicts are stored in ``references/<workload>.json``; the
``--seed`` argument only chooses which pool members form the batch, so
any seed yields instances with a known reference. Pools are described by
integer keys:

* ``ex52-cli``        key k -> ``make_example52(k)``
* ``ex51-sweep``      key k -> ``make_example51(k / 100)``, k in 0..399,
                      plus the hard cases ``"alpha4"``, ``"infeasible"``
                      and ``"unbounded"`` in every batch
* ``wide-connection`` key k -> ``convex_connection(k, P=16, n=3, m=3)``
* ``deep-blocks``     key k -> ``convex_connection(k, P=2, n=20, m=3)``

The smoke configuration the tests run uses batches of one or two, and
for the two synthetic workloads a tiny shape with its own reference
keys (``smoke_keys`` in the reference file).

Batches are stratified (see ``batch_keys``), so that every seed draws a
batch of the same make-up: the same number of instances of each
reference status, spread evenly over alpha or over the IPM iterations
the reference verdict took. Timings and the share of exact verdicts
then move little between seeds while the instances differ.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from sepqcqp import (
    Qcqp,
    QuadFunc,
    Relation,
    SeparableQcqp,
    make_example51,
    make_example52,
)

REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references")


@dataclass(frozen=True)
class Spec:
    pool: int  # number of integer keys with a stored reference
    batch: int  # keys drawn per batch (hard cases come on top)
    smoke_batch: int  # batch size of the tiny configuration the tests run
    shape: tuple = ()  # (entries P, variables n per entry, coupled rows m)
    smoke_shape: tuple = ()  # tiny shape with a pool of its own, if any


SMOKE_POOL = 4  # keys of each tiny smoke shape

SPECS = {
    "ex52-cli": Spec(pool=400, batch=16, smoke_batch=1),
    "ex51-sweep": Spec(pool=400, batch=40, smoke_batch=2),
    "wide-connection": Spec(
        pool=120, batch=8, smoke_batch=1, shape=(16, 3, 3), smoke_shape=(3, 3, 3)
    ),
    "deep-blocks": Spec(
        pool=80, batch=10, smoke_batch=1, shape=(2, 20, 3), smoke_shape=(2, 6, 3)
    ),
}

HARD_CASES = ("alpha4", "infeasible", "unbounded")


def load_references(workload: str, smoke: bool = False) -> dict:
    """Reference verdict of every pool key, keyed by str(key)."""
    with open(os.path.join(REF_DIR, f"{workload}.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    return data["smoke_keys"] if smoke and "smoke_keys" in data else data["keys"]


def batch_keys(workload: str, seed: int, smoke: bool = False) -> list:
    """Pool keys of one batch; the same (workload, seed) gives the same keys.

    The pool is split by reference status, each status into strata (one
    at least, the rest in proportion to its size), ordered by alpha on
    the example-5.1 grid and by reference IPM iterations elsewhere; the
    seed draws one key from each stratum.
    """
    spec = SPECS[workload]
    size = spec.smoke_batch if smoke else spec.batch
    refs = load_references(workload, smoke)
    groups: dict[str, list] = {}
    for k in range(SMOKE_POOL if smoke and spec.smoke_shape else spec.pool):
        groups.setdefault(refs[str(k)]["status"], []).append(k)
    if workload != "ex51-sweep":
        for keys in groups.values():
            keys.sort(key=lambda k: (refs[str(k)]["iters"], k))
    rng = np.random.default_rng([seed, sorted(SPECS).index(workload)])
    batch = []
    shares = _shares(size, [len(keys) for keys in groups.values()])
    for keys, n in zip(groups.values(), shares):
        if n:
            batch += [int(rng.choice(stratum)) for stratum in np.array_split(keys, n)]
    return batch + list(HARD_CASES) if workload == "ex51-sweep" else batch


def _shares(size: int, sizes: list) -> list:
    """Strata per group: one for each group, largest groups first while
    they last, the rest in proportion to group size (largest remainder)."""
    order = sorted(range(len(sizes)), key=lambda g: -sizes[g])
    out = [0] * len(sizes)
    for g in order[:size]:
        out[g] = 1
    rest = size - sum(out)
    quota = [rest * n / sum(sizes) for n in sizes]
    for g in range(len(sizes)):
        out[g] += int(quota[g])
    left = size - sum(out)
    for g in sorted(order, key=lambda g: int(quota[g]) - quota[g])[:left]:
        out[g] += 1
    return out


def _rand_psd(rng, n, ridge):
    g = rng.standard_normal((n, n))
    return (g @ g.T) / n + ridge * np.eye(n)


def convex_connection(key: int, entries: int, n: int, m: int) -> SeparableQcqp:
    """Connection of `entries` strictly convex QCQPs sharing m <= rows.

    Each entry has n variables, a strictly convex objective and m convex
    quadratic constraints. The shared right-hand sides are the row values
    at a random reference point plus a positive margin, so the point is
    strictly feasible and every entry lands in the convex class.
    """
    rng = np.random.default_rng([key, entries, n, m])
    rows = [Relation.LE] * m
    values = np.zeros(m)
    parts = []
    for _ in range(entries):
        x = rng.standard_normal(n) / np.sqrt(n)
        obj = QuadFunc.from_parts(_rand_psd(rng, n, 0.5), rng.standard_normal(n))
        cons = [
            QuadFunc.from_parts(_rand_psd(rng, n, 0.1), rng.standard_normal(n))
            for _ in range(m)
        ]
        values += [float(f.eval_many(x[None, :])[0]) for f in cons]
        parts.append((obj, cons))
    gamma = values + rng.uniform(0.5, 1.5, size=m) * entries
    return SeparableQcqp(
        [Qcqp(n, obj, list(zip(cons, rows)), gamma) for obj, cons in parts],
        gamma,
    )


def _hard_case(key: str) -> SeparableQcqp:
    if key == "alpha4":  # no strictly feasible point
        h = make_example51(4.0)
        return SeparableQcqp([h], h.rhs)
    if key == "infeasible":  # x'x <= -1
        q = Qcqp(
            2,
            QuadFunc.from_parts(np.eye(2)),
            [(QuadFunc.from_parts(np.eye(2)), Relation.LE)],
            [-1.0],
        )
        return SeparableQcqp([q], q.rhs)
    if key == "unbounded":  # min -x^2 s.t. 2x <= 1
        q = Qcqp(
            1,
            QuadFunc.from_parts(-np.eye(1)),
            [(QuadFunc.from_parts(np.zeros((1, 1)), [1.0]), Relation.LE)],
            [1.0],
        )
        return SeparableQcqp([q], q.rhs)
    raise KeyError(key)


def make_instance(workload: str, key, smoke: bool = False) -> SeparableQcqp:
    """The connection a pool key stands for."""
    spec = SPECS[workload]
    if isinstance(key, str):
        return _hard_case(key)
    if workload == "ex52-cli":
        return make_example52(key)
    if workload == "ex51-sweep":
        h = make_example51(key / 100.0)
        return SeparableQcqp([h], h.rhs)
    return convex_connection(key, *(spec.smoke_shape if smoke else spec.shape))
