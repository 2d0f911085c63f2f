"""Print what each once-per-verdict stage of ``judge`` costs on a workload.

Run from the root of a checkout:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 tools/stage_costs.py [--base OTHER] [ex52-cli | ex51-sweep] [seed] [rounds]

Each stage around the interior-point loop (and the loop itself, and the
whole verdict) is timed alone on every instance of the workload's
benchmark batch (``perfbench/workloads.py``; the example-5.1 grid points
only, not the hard cases): a timed loop per instance, in microseconds
per call, averaged over the batch. The CLI stages (``cli.parse``,
``_provenance``, ``_render``, ``cli.run``) run on ``ex52-cli`` only, on
problem files written to a temporary directory.

With ``--base OTHER``, the package of the checkout at OTHER is loaded
into the same process under another name and timed too, stage by stage
and in alternating order, so that the drift of a shared host's speed
falls on both alike; the table then gives both and their ratio. Each
reading is the minimum over ``rounds`` rounds (default 5). The stages
are called by their names in the package, so any two checkouts that
have them compare.
"""

from __future__ import annotations

import importlib
import importlib.util
import os
import sys
import tempfile
import timeit

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402

_MODULES = (
    "cli", "connection", "errors", "examples", "rank_reduction", "sdp_solver", "sdpr_builder",
)


def load(src: str, name: str) -> dict:
    """The package under src (a checkout's src directory) imported as
    name: {module: module object}."""
    if name != "sepqcqp":
        path = os.path.join(src, "sepqcqp")
        spec = importlib.util.spec_from_file_location(
            name, os.path.join(path, "__init__.py"), submodule_search_locations=[path]
        )
        package = importlib.util.module_from_spec(spec)
        sys.modules[name] = package
        spec.loader.exec_module(package)
    return {m: importlib.import_module(f"{name}.{m}") for m in _MODULES}


def stages(pkg: dict, workload: str, key, tmp: str) -> dict:
    """{stage: zero-argument call} for one instance; each call runs the
    stage once on inputs prepared here."""
    cli, con, sdp = pkg["cli"], pkg["connection"], pkg["sdp_solver"]
    builder, red = pkg["sdpr_builder"], pkg["rank_reduction"]
    if workload == "ex52-cli":
        s = pkg["examples"].make_example52(key)
    else:
        h = pkg["examples"].make_example51(key / 100.0)
        s = con.SeparableQcqp([h], h.rhs)
    b = builder.build_block(s)
    p = sdp._Problem(b)
    ipm = sdp._Ipm(p, 200)
    rec = ipm.run()
    sol = sdp._solution(p, rec, ipm.history)
    stacks = con._EntryStacks(s)
    achieved = stacks.at_blocks(sol.blocks)

    def compile_():
        b._standard = None  # the standard form is part of every compile
        sdp._Problem(b)

    def reduce():
        try:
            red.reduce(builder.to_standard_form(b), sol, tol=1e-6, rank_tol=1e-6)
        except pkg["errors"].SepqcqpError:  # a stall or a stale solution
            pass

    out = {}
    if workload == "ex52-cli":
        path = os.path.join(tmp, f"{len(os.listdir(tmp))}.sdpq")
        cli.write_problem(s, path)
        out["cli.parse"] = lambda: cli.parse(path)
    out["build_block"] = lambda: builder.build_block(s)
    out["_Problem.__init__"] = compile_
    out["_Ipm.run"] = lambda: sdp._Ipm(p, 200).run()
    out["_solution"] = lambda: sdp._solution(p, rec, ipm.history)
    out["_EntryStacks"] = lambda: con._EntryStacks(s)
    out["at_blocks"] = lambda: stacks.at_blocks(sol.blocks)
    out["_entry_reports"] = lambda: con._entry_reports(stacks, b, sol, achieved, 1e-6)
    if sol.status.value == "Optimal":
        out["rank_reduction.reduce"] = reduce
    out["judge"] = lambda: con.judge(s)
    if workload == "ex52-cli":
        argv = ["judge", path, "--format", "json", "--no-timestamp", "--out", path + ".out"]
        ns = cli._arg_parser().parse_args(argv)
        payload = cli._judge_payload(s, ns)[1]
        out["cli._provenance"] = lambda: cli._provenance(sol, 1e-6)
        out["cli._render"] = lambda: cli._render(ns, payload)
        out["cli.run"] = lambda: cli.run(argv)
    return out


#: stages that run the interior-point loop, timed with fewer calls
_LONG = {"_Ipm.run", "judge", "cli.run"}


def main(argv) -> None:
    base = None
    if argv[:1] == ["--base"]:
        base, argv = argv[1], argv[2:]
    workload = argv[0] if argv else "ex52-cli"
    seed = int(argv[1]) if len(argv) > 1 else 1
    rounds = int(argv[2]) if len(argv) > 2 else 5
    keys = [k for k in workloads.batch_keys(workload, seed) if isinstance(k, int)]
    sides = {"this": load(os.path.join(ROOT, "src"), "sepqcqp")}
    if base is not None:
        sides["base"] = load(os.path.join(base, "src"), "sepqcqp_base")
    best: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        calls = {
            side: [stages(pkg, workload, k, tmp) for k in keys] for side, pkg in sides.items()
        }
        names = list(dict.fromkeys(stage for one in calls["this"] for stage in one))
        for r in range(rounds):
            for stage in names:
                order = list(sides) if r % 2 == 0 else list(sides)[::-1]
                for side in order:
                    number = 2 if stage in _LONG else 10
                    per = [
                        min(timeit.repeat(one[stage], number=number, repeat=2)) / number
                        for one in calls[side]
                        if stage in one
                    ]
                    us = sum(per) / len(per) * 1e6
                    best[stage, side] = min(best.get((stage, side), us), us)
    print(f"{workload} seed {seed}: {len(keys)} instances, {rounds} rounds, µs per call")
    if base is None:
        for stage in names:
            print(f"{stage:24s} {best[stage, 'this']:10.1f}")
        return
    print(f"{'stage':24s} {'base':>10s} {'this':>10s} {'this/base':>10s}")
    for stage in names:
        a, b = best[stage, "base"], best[stage, "this"]
        print(f"{stage:24s} {a:10.1f} {b:10.1f} {b / a:10.2f}")


if __name__ == "__main__":
    main(sys.argv[1:])
