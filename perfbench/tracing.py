"""Span recorder that reaches the package's modules from outside.

The benchmark wraps the public functions the pipeline calls, at the name
under which the caller looks them up (the modules import them into their
own namespaces), records one span per call and keeps every span in
memory until the run ends. Nothing under ``src/`` is modified; a wrapped
attribute that no longer exists stops the run with a message naming it,
so a rename shows up as an error instead of as a layer reading zero.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

LAYERS = (
    "symkernel",
    "qcqp_model",
    "sdpr_builder",
    "sdp_solver",
    "certificates",
    "rank_reduction",
    "connection",
    "cli",
)

#: (module, attribute, layer) for every wrapped call site
WRAPS = (
    ("connection", "judge", "connection"),
    ("connection", "solve", "sdp_solver"),
    ("connection", "reduce", "rank_reduction"),
    ("connection", "brute_force", "qcqp_model"),
    ("connection", "build_block", "sdpr_builder"),
    ("connection", "build_shor", "sdpr_builder"),
    ("connection", "build_hom", "sdpr_builder"),
    ("connection", "to_standard_form", "sdpr_builder"),
    ("connection", "check_convex", "certificates"),
    ("connection", "check_sign_pattern", "certificates"),
    ("connection", "check_m_le_2", "certificates"),
    ("connection", "check_assumption_A", "certificates"),
    ("connection", "aggregated_graph", "certificates"),
    ("connection", "reduce_homogeneous_rows", "certificates"),
    ("connection", "extract_convex_solution", "certificates"),
    ("cli", "run", "cli"),
    ("cli", "parse", "cli"),
    ("cli", "judge", "connection"),
    ("cli", "solve", "sdp_solver"),
    ("cli", "build_block", "sdpr_builder"),
    ("symkernel", "eigen", "symkernel"),
)

#: calls that are counted, not timed: (module, class, method)
COUNTS = (("symkernel", "SymMatrix", "to_dense"),)

CHECKS = {
    "connection.check_convex",
    "connection.check_sign_pattern",
    "connection.check_m_le_2",
    "connection.check_assumption_A",
}


class TraceSetupError(RuntimeError):
    """A wrapped attribute is missing from the package."""


@dataclass
class Span:
    name: str
    layer: str
    verdict: int
    parent: int
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _describe(name, result, args, kwargs) -> dict:
    """Facts about one call that the per-layer metrics need."""
    if name.endswith(".solve"):
        return {"status": result.status.value, "iters": int(result.iterations)}
    if name == "connection.reduce":
        rep = result[1]
        return {"steps": int(rep.iterations), "extracted": rep.extracted is not None}
    if name == "connection.brute_force":
        q = args[0]
        grid = kwargs.get("grid_points", args[2] if len(args) > 2 else 11)
        rounds = kwargs.get("refine_rounds", args[3] if len(args) > 3 else 4)
        return {"points": int(grid) ** q.n * (int(rounds) + 1)}
    if name == "connection.check_assumption_A":
        return {"holds": bool(result[0])}
    if name in CHECKS:
        return {"holds": bool(result.holds)}
    return {}


class Tracer:
    """Records spans for calls into the wrapped functions while installed."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[Span] = []
        self.counts = {f"{cls}.{meth}": 0 for _, cls, meth in COUNTS}
        self.verdict = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._check()

    def _check(self):
        missing = [
            f"sepqcqp.{mod}.{attr}"
            for mod, attr, _ in WRAPS
            if not callable(getattr(self.modules[mod], attr, None))
        ]
        missing += [
            f"sepqcqp.{mod}.{cls}.{meth}"
            for mod, cls, meth in COUNTS
            if not callable(getattr(getattr(self.modules[mod], cls, None), meth, None))
        ]
        if missing:
            raise TraceSetupError(
                "traced attributes no longer exist: "
                + ", ".join(missing)
                + "; update WRAPS/COUNTS in perfbench/tracing.py"
            )

    def _wrapper(self, name, layer, orig):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(name, layer, self.verdict, stack[-1] if stack else -1,
                        time.perf_counter())
            stack.append(len(spans))
            spans.append(span)
            try:
                result = orig(*args, **kwargs)
            except BaseException as exc:
                span.info = {"raised": type(exc).__name__}
                report = getattr(exc, "report", None)
                if report is not None:
                    span.info["steps"] = int(report.iterations)
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            span.info = _describe(name, result, args, kwargs)
            return result

        return traced

    def _counter(self, key, orig):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return orig(*args, **kwargs)

        return counted

    def install(self):
        for mod, attr, layer in WRAPS:
            module = self.modules[mod]
            orig = getattr(module, attr)
            self._undo.append((module, attr, orig))
            setattr(module, attr, self._wrapper(f"{mod}.{attr}", layer, orig))
        for mod, cls, meth in COUNTS:
            owner = getattr(self.modules[mod], cls)
            orig = owner.__dict__[meth]
            self._undo.append((owner, meth, orig))
            setattr(owner, meth, self._counter(f"{cls}.{meth}", orig))

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write(self, path: str):
        """Write the spans, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "layer": s.layer,
                    "verdict": s.verdict, "parent": s.parent,
                    "start": s.start, "end": s.end, **s.info,
                }) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


def layer_metrics(spans: list[Span], counts: dict, passes: int, factors: dict) -> dict:
    """Per-layer metrics per batch pass, keyed by metric name; times are
    scaled to nominal seconds by their verdict's factor."""
    own = [t * factors[s.verdict] for s, t in zip(spans, self_times(spans))]
    by_layer = {layer: 0.0 for layer in LAYERS}
    for s, t in zip(spans, own):
        by_layer[s.layer] += t

    def named(*names):
        return [s for s in spans if s.name in names]

    def self_s(name):
        return sum(t for s, t in zip(spans, own) if s.name == name)

    def frac(num, den):
        return num / den if den else 0.0

    solves = named("connection.solve", "cli.solve")
    iters = sum(s.info.get("iters", 0) for s in solves)
    reduces = named("connection.reduce")
    checks = named(*CHECKS)
    oracles = named("connection.brute_force")
    builds = [s for s in spans if s.layer == "sdpr_builder"]

    # entry re-solves: every solve of a judge call after its first, which
    # is the block relaxation of the whole connection
    first_seen, resolves = set(), []
    for s in named("connection.solve"):
        if s.parent in first_seen:
            resolves.append(s)
        first_seen.add(s.parent)

    per_pass = {
        "sdp_solver.solve_calls": (len(solves), "count"),
        "sdp_solver.iters": (iters, "count"),
        "sdp_solver.solve_s": (by_layer["sdp_solver"], "s"),
        "symkernel.eigen_calls": (len(named("symkernel.eigen")), "count"),
        "symkernel.eigen_s": (by_layer["symkernel"], "s"),
        "symkernel.to_dense_calls": (counts["SymMatrix.to_dense"], "count"),
        "certificates.check_calls": (len(checks), "count"),
        "certificates.check_s": (by_layer["certificates"], "s"),
        "rank_reduction.reduce_calls": (len(reduces), "count"),
        "rank_reduction.reduce_s": (by_layer["rank_reduction"], "s"),
        "rank_reduction.steps": (sum(s.info.get("steps", 0) for s in reduces), "count"),
        "rank_reduction.stall_calls": (
            sum(s.info.get("raised") == "ReductionStallError" for s in reduces), "count"),
        "qcqp_model.oracle_calls": (len(oracles), "count"),
        "qcqp_model.oracle_s": (by_layer["qcqp_model"], "s"),
        "qcqp_model.oracle_points": (sum(s.info.get("points", 0) for s in oracles), "count"),
        "sdpr_builder.build_calls": (len(builds), "count"),
        "sdpr_builder.build_s": (by_layer["sdpr_builder"], "s"),
        "connection.judge_self_s": (by_layer["connection"], "s"),
        "cli.run_self_s": (self_s("cli.run"), "s"),
        "cli.parse_s": (self_s("cli.parse"), "s"),
        "cli.extra_solves": (len(named("cli.solve")), "count"),
    }
    out = {name: (value / passes, unit) for name, (value, unit) in per_pass.items()}
    out["sdp_solver.ms_per_iter"] = (
        frac(1000.0 * by_layer["sdp_solver"], iters), "ms")
    out["sdp_solver.optimal_frac"] = (
        frac(sum(s.info.get("status") == "Optimal" for s in solves), len(solves)), "ratio")
    out["certificates.holds_frac"] = (
        frac(sum(bool(s.info.get("holds")) for s in checks), len(checks)), "ratio")
    out["rank_reduction.extract_frac"] = (
        frac(sum(bool(s.info.get("extracted")) for s in reduces), len(reduces)), "ratio")
    out["connection.resolve_optimal_frac"] = (
        frac(sum(s.info.get("status") == "Optimal" for s in resolves), len(resolves)), "ratio")
    return out


def silent_layers(spans: list[Span]) -> list[str]:
    seen = {s.layer for s in spans}
    return [layer for layer in LAYERS if layer not in seen]


def coverage(spans: list[Span], verdicts: dict) -> float:
    """Smallest share, over verdicts, of the verdict's time inside spans;
    verdicts maps each verdict id to (seconds, scale factor)."""
    covered: dict[int, float] = {}
    for s in spans:
        if s.parent < 0:
            covered[s.verdict] = covered.get(s.verdict, 0.0) + s.duration
    shares = [covered.get(v, 0.0) / t for v, (t, _) in verdicts.items() if t > 0]
    return min(shares) if shares else 0.0
