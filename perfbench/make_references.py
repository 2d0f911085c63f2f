"""Write the reference verdict of every pool instance to perfbench/references.

Run from the root of a checkout, on the commit whose verdicts are the
reference:

    PYTHONPATH=src:perfbench OPENBLAS_NUM_THREADS=1 python3 perfbench/make_references.py [workload ...]

Each record holds the verdict status, eta and reason of library ``judge``
on the instance, and the IPM iterations the verdict took over all its
solves, by which batches are stratified. A verdict that rests on a
failed relaxation solve stores eta as null: its eta is the solver's last
iterate, not the relaxation value, so the benchmark compares its reason
instead.
"""

from __future__ import annotations

import json
import math
import os
import sys

import sepqcqp.connection as connection
from workloads import HARD_CASES, REF_DIR, SMOKE_POOL, SPECS, make_instance

FAILED_SOLVE = ("solver status ", "relaxation failed")


def record(instance) -> dict:
    iters = 0
    solve = connection.solve

    def counted(*args, **kwargs):
        nonlocal iters
        sol = solve(*args, **kwargs)
        iters += sol.iterations
        return sol

    connection.solve = counted
    try:
        v = connection.judge(instance)
    finally:
        connection.solve = solve
    failed_solve = v.reason.startswith(FAILED_SOLVE) or not math.isfinite(v.eta)
    return {
        "status": v.status.value,
        "eta": None if failed_solve else float(v.eta),
        "reason": v.reason,
        "iters": iters,
    }


def references(workload: str) -> dict:
    spec = SPECS[workload]
    keys = list(range(spec.pool))
    if workload == "ex51-sweep":
        keys += list(HARD_CASES)
    out = {"workload": workload,
           "keys": {str(k): record(make_instance(workload, k)) for k in keys}}
    if spec.smoke_shape:
        out["smoke_keys"] = {
            str(k): record(make_instance(workload, k, smoke=True))
            for k in range(SMOKE_POOL)
        }
    return out


def main(names) -> None:
    os.makedirs(REF_DIR, exist_ok=True)
    for name in names or sorted(SPECS):
        data = references(name)
        with open(os.path.join(REF_DIR, f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(name, len(data["keys"]), "references", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
