"""Command-line front end: problem file I/O, command dispatch, and
machine- or human-readable reports.

Problem files use a line-oriented plain-text format (full grammar in
FORMAT.md at the repository root): whitespace-separated tokens, `#`
comments, top-level key/value fields, and block sections listing sparse
upper-triangular matrix entries. A `matrix k` section describes one dense
frame, laid out by block kind: the homogenized (n+1) frame QuadFunc.B of
a `qcqp` block, the n x n matrix C of one group of a `homogeneous` file,
the block-diagonal sum(dims) frame of a `hom` block. Models are built
from a block's filled frames and emit renders the frames straight from
the model; ProblemFile is the parse tree validation reads. Reports
render either as indented text or as stable-keyed JSON; exit codes
separate "ran and concluded" (0), "ran but not exact / not definitive"
(2), and genuine failures (1).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import warnings
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .certificates import Certificate, CertificateKind, SignCase, pataki_count
from .connection import (
    ExactnessVerdict,
    JudgeOptions,
    PerBlockReport,
    VerdictStatus,
    bilevel_report,
    judge,
)
from .errors import (
    ParseError,
    ReductionStallError,
    SepqcqpError,
    ValidationError,
)
from .examples import make_example51, make_example52
from .qcqp_model import HomSepQcqp, Qcqp, QuadFunc, Relation, SeparableQcqp
from .rank_reduction import reduce as reduce_solution
from .sdp_solver import solve
from .sdpr_builder import SolveStatus, build_block, to_standard_form
from .symkernel import HALF_MAX, SymMatrix, numeric_rank

SCHEMA_VERSION = 1

_KINDS = ("qcqp", "separable", "homogeneous")
_RELATION_NAMES = tuple(r.value for r in Relation)
_TABLE_ALPHAS = (0.0, 1.0, 2.0, 2.5, 3.0, 3.5, 4.0)


# ---------------------------------------------------------------------------
# problem file model


@dataclass(frozen=True)
class MatrixTriples:
    """One coefficient matrix as sparse upper-triangular (i, j, value)
    entries, 1-based with i <= j. k = 0 is the objective, k >= 1 row k."""

    k: int
    entries: tuple


@dataclass(frozen=True)
class FileBlock:
    """One block section. tag is None or an explicit 'qcqp' / 'hom' marker;
    size_key records whether the block gave 'n' or 'dims'."""

    tag: str | None
    size_key: str | None
    dims: tuple
    matrices: tuple


@dataclass(frozen=True)
class ProblemFile:
    """Raw structured content of a problem file, before semantic checks."""

    schema_version: int | None
    kind: str | None
    blocks: tuple
    relations: tuple
    rhs: tuple | None
    gamma: tuple | None


def _int_tok(tok: str, lineno: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"expected an integer {what}, got {tok!r}", line=lineno) from None


def _float_tok(tok: str, lineno: int, what: str) -> float:
    try:
        return float(tok)
    except ValueError:
        raise ParseError(f"expected a number {what}, got {tok!r}", line=lineno) from None


def read_problem_text(text: str) -> ProblemFile:
    """Structure pass only: split the file into fields, blocks and matrix
    sections. All semantic checks live in validate_problem_file."""
    fields: dict = {}
    blocks: list = []
    cur_block: dict | None = None
    cur_matrix: list | None = None
    lineno = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        cut = raw.find("#")
        toks = (raw if cut < 0 else raw[:cut]).split()
        if not toks:
            continue
        key = toks[0]

        if cur_matrix is not None:
            if key == "end" and len(toks) == 1:
                cur_block["matrices"].append(
                    MatrixTriples(k=cur_matrix[0], entries=tuple(cur_matrix[1]))
                )
                cur_matrix = None
            elif len(toks) == 3:
                try:
                    entry = int(toks[0]), int(toks[1]), float(toks[2])
                except ValueError:
                    # the same conversions again, to name the bad token
                    entry = (
                        _int_tok(toks[0], lineno, "row index"),
                        _int_tok(toks[1], lineno, "column index"),
                        _float_tok(toks[2], lineno, "matrix entry"),
                    )
                cur_matrix[1].append(entry)
            else:
                raise ParseError("expected 'i j value' or 'end'", line=lineno)
            continue

        if cur_block is not None:
            if key == "matrix":
                if len(toks) != 2:
                    raise ParseError("expected 'matrix K'", line=lineno)
                cur_matrix = [_int_tok(toks[1], lineno, "matrix index"), []]
            elif key in ("n", "dims"):
                if cur_block["size_key"] is not None:
                    raise ParseError("block size given twice", line=lineno)
                if key == "n" and len(toks) != 2:
                    raise ParseError("expected 'n N'", line=lineno)
                if key == "dims" and len(toks) < 2:
                    raise ParseError("expected 'dims d1 d2 ...'", line=lineno)
                cur_block["size_key"] = key
                cur_block["dims"] = tuple(
                    _int_tok(t, lineno, "block dimension") for t in toks[1:]
                )
            elif key == "end" and len(toks) == 1:
                blocks.append(
                    FileBlock(
                        tag=cur_block["tag"],
                        size_key=cur_block["size_key"],
                        dims=cur_block["dims"],
                        matrices=tuple(cur_block["matrices"]),
                    )
                )
                cur_block = None
            else:
                raise ParseError(
                    f"unexpected {key!r} inside a block section", line=lineno
                )
            continue

        if key == "block":
            if len(toks) == 1:
                tag = None
            elif len(toks) == 2:
                tag = toks[1]
            else:
                raise ParseError("expected 'block' or 'block TYPE'", line=lineno)
            cur_block = {"tag": tag, "size_key": None, "dims": (), "matrices": []}
        elif key in ("schema_version", "kind", "relations", "rhs", "gamma"):
            if key in fields:
                raise ParseError(f"duplicate field {key!r}", line=lineno)
            if key == "schema_version":
                if len(toks) != 2:
                    raise ParseError("expected 'schema_version N'", line=lineno)
                fields[key] = _int_tok(toks[1], lineno, "schema version")
            elif key == "kind":
                if len(toks) != 2:
                    raise ParseError("expected 'kind NAME'", line=lineno)
                fields[key] = toks[1]
            elif key == "relations":
                fields[key] = tuple(toks[1:])
            else:
                fields[key] = tuple(
                    _float_tok(t, lineno, f"{key} value") for t in toks[1:]
                )
        elif key == "end":
            raise ParseError("'end' outside any section", line=lineno)
        else:
            raise ParseError(f"unknown keyword {key!r}", line=lineno)

    if cur_matrix is not None or cur_block is not None:
        raise ParseError("file ended inside an open section", line=lineno)
    return ProblemFile(
        schema_version=fields.get("schema_version"),
        kind=fields.get("kind"),
        blocks=tuple(blocks),
        relations=fields.get("relations", ()),
        rhs=fields.get("rhs"),
        gamma=fields.get("gamma"),
    )


def _block_type(pf_kind: str, blk: FileBlock, path: str) -> str:
    """Resolve a block's effective type and police the tag against the
    file kind. Returns 'qcqp' (homogenized frame n+1), 'group' (one
    variable group of a homogeneous problem, frame n) or 'hom' (a whole
    homogeneous entry of a connection, block-diagonal frame sum(dims))."""
    tag = blk.tag
    if pf_kind == "qcqp":
        if tag not in (None, "qcqp"):
            raise ValidationError(
                f"kind qcqp allows only untagged or 'qcqp' blocks, got {tag!r}",
                field=path,
            )
        return "qcqp"
    if pf_kind == "homogeneous":
        if tag not in (None, "hom"):
            raise ValidationError(
                f"kind homogeneous allows only untagged or 'hom' blocks, got {tag!r}",
                field=path,
            )
        return "group"
    if tag in (None, "qcqp"):
        return "qcqp"
    if tag == "hom":
        return "hom"
    raise ValidationError(
        f"unknown block tag {tag!r} (use 'qcqp' or 'hom')", field=path
    )


def _frame_of(btype: str, blk: FileBlock) -> int:
    if btype == "qcqp":
        return blk.dims[0] + 1
    return sum(blk.dims)


def validate_problem_file(pf: ProblemFile) -> None:
    """Semantic checks; raises ValidationError with a field path."""
    if pf.schema_version is None:
        raise ValidationError("missing", field="schema_version")
    if pf.schema_version != SCHEMA_VERSION:
        raise ValidationError(
            f"unsupported version {pf.schema_version}, expected {SCHEMA_VERSION}",
            field="schema_version",
        )
    if pf.kind is None:
        raise ValidationError("missing", field="kind")
    if pf.kind not in _KINDS:
        raise ValidationError(
            f"unknown kind {pf.kind!r}, expected one of {', '.join(_KINDS)}",
            field="kind",
        )
    for i, r in enumerate(pf.relations):
        if r not in _RELATION_NAMES:
            raise ValidationError(
                f"unknown relation {r!r}, expected le, eq or ge",
                field=f"relations[{i}]",
            )
    m = len(pf.relations)

    if pf.kind != "separable" and pf.gamma is not None:
        raise ValidationError("only meaningful for kind separable", field="gamma")
    # each vector under its own name, before the two are compared
    for name in ("rhs", "gamma"):
        for i, v in enumerate(getattr(pf, name) or ()):
            if not math.isfinite(v):
                raise ValidationError("value must be finite", field=f"{name}[{i}]")
    if pf.kind == "separable":
        if pf.rhs is None and pf.gamma is None and m > 0:
            raise ValidationError(
                "a separable file needs a budget vector (rhs or gamma)",
                field="rhs",
            )
        if pf.rhs is not None and pf.gamma is not None and pf.rhs != pf.gamma:
            raise ValidationError(
                "gamma and rhs disagree; a connection carries one budget vector",
                field="gamma",
            )
    elif pf.rhs is None and m > 0:
        raise ValidationError("missing", field="rhs")

    budget = (pf.gamma if pf.rhs is None else pf.rhs) or ()
    if len(budget) != m:
        raise ValidationError(
            f"{len(budget)} values for {m} relations",
            field="gamma" if pf.rhs is None else "rhs",
        )

    if not pf.blocks:
        raise ValidationError("at least one block is required", field="blocks")
    if pf.kind == "qcqp" and len(pf.blocks) != 1:
        raise ValidationError(
            f"kind qcqp takes exactly one block, got {len(pf.blocks)}",
            field="blocks",
        )

    for bi, blk in enumerate(pf.blocks):
        path = f"blocks[{bi}]"
        btype = _block_type(pf.kind, blk, path)
        if blk.size_key is None:
            raise ValidationError(
                "missing size ('n N' or 'dims d1 d2 ...')", field=path
            )
        if btype in ("qcqp", "group") and blk.size_key != "n":
            raise ValidationError(
                "this block takes 'n N', not 'dims'", field=path
            )
        if btype == "hom" and blk.size_key != "dims":
            raise ValidationError(
                "a homogeneous entry takes 'dims d1 d2 ...', not 'n'", field=path
            )
        for di, d in enumerate(blk.dims):
            if d < 1:
                raise ValidationError(
                    "dimensions must be positive", field=f"{path}.dims[{di}]"
                )
        frame = _frame_of(btype, blk)
        # the diagonal block of each frame index of a hom block
        owner = [q for q, d in enumerate(blk.dims) for _ in range(d)]
        seen_k: set = set()
        for mi, mt in enumerate(blk.matrices):
            mpath = f"{path}.matrices[{mi}]"
            if mt.k in seen_k:
                raise ValidationError(
                    f"duplicate matrix index {mt.k}", field=mpath
                )
            seen_k.add(mt.k)
            if not 0 <= mt.k <= m:
                raise ValidationError(
                    f"matrix index {mt.k} outside 0..{m}", field=mpath
                )
            seen_ij: set = set()
            for ei, (i, j, v) in enumerate(mt.entries):
                if not (1 <= i <= frame and 1 <= j <= frame):
                    msg = f"index ({i},{j}) outside the {frame}x{frame} frame"
                elif i > j:
                    msg = f"lower-triangle entry ({i},{j}); give i <= j"
                elif (i, j) in seen_ij:
                    msg = f"duplicate entry ({i},{j})"
                # v is the Python float _float_tok read
                elif not math.isfinite(v):
                    msg = "value must be finite"
                elif abs(v) > HALF_MAX:
                    msg = "value overflows when the matrix is symmetrized"
                elif btype == "qcqp" and i == frame and j == frame and v != 0.0:
                    msg = "homogenization corner entry must be absent or zero"
                elif btype == "hom" and owner[i - 1] != owner[j - 1]:
                    msg = f"entry ({i},{j}) couples two diagonal blocks"
                else:
                    seen_ij.add((i, j))
                    continue
                raise ValidationError(msg, field=f"{mpath}.entries[{ei}]")


def _frames_of(blk: FileBlock, size: int, m: int) -> np.ndarray:
    """The block's matrices k = 0..m as dense size x size frames, one
    (m+1, size, size) array; a matrix the block leaves out is zero."""
    frames = np.zeros((m + 1, size, size))
    for mt in blk.matrices:
        a = frames[mt.k]
        for i, j, v in mt.entries:
            a[i - 1, j - 1] = v
            a[j - 1, i - 1] = v
    return frames


def _matrices(frames: np.ndarray) -> list:
    """A C-contiguous stack of validated frames as SymMatrix views of it,
    one per frame: validate_problem_file checked every entry finite, so
    the views are adopted without a copy or a second check."""
    frames.flags.writeable = False
    return [SymMatrix._adopt(a) for a in frames]


def _groups(frames: np.ndarray, dims) -> list:
    """Block-diagonal frames cut into one [C_0, ..., C_m] list per group."""
    groups = []
    ofs = 0
    for d in dims:
        group = np.ascontiguousarray(frames[:, ofs : ofs + d, ofs : ofs + d])
        groups.append(_matrices(group))
        ofs += d
    return groups


def problem_file_to_model(pf: ProblemFile):
    """Validated ProblemFile -> model object of the matching kind. The
    frames' SymMatrix objects share one array per block or group
    (_matrices)."""
    validate_problem_file(pf)
    relations = [Relation(r) for r in pf.relations]
    budget = list((pf.gamma if pf.rhs is None else pf.rhs) or ())
    entries, groups = [], []
    for blk in pf.blocks:
        btype = _block_type(pf.kind, blk, "")
        frames = _frames_of(blk, _frame_of(btype, blk), len(relations))
        if btype == "qcqp":
            n = blk.dims[0]
            frames[:, n, n] = 0.0  # an explicit -0.0 corner reads as +0.0
            f = [QuadFunc(n, a) for a in _matrices(frames)]
            entries.append(Qcqp(n, f[0], zip(f[1:], relations), budget))
        elif btype == "hom":
            entries.append(HomSepQcqp(_groups(frames, blk.dims), relations, budget))
        else:
            groups += _groups(frames, blk.dims)
    if pf.kind == "qcqp":
        return entries[0]
    if pf.kind == "homogeneous":
        return HomSepQcqp(groups, relations, budget)
    return SeparableQcqp(entries, budget)


def parse_text(text: str):
    """Problem file text -> validated model."""
    return problem_file_to_model(read_problem_text(text))


def parse(path: str):
    """Problem file on disk (UTF-8 text) -> validated model."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(
            f"not UTF-8 text: {e.reason} at byte {e.start}",
            line=data.count(b"\n", 0, e.start) + 1,
        ) from None
    return parse_text(text)


# ---------------------------------------------------------------------------
# emission


def _qcqp_block(q: Qcqp, head: str) -> tuple:
    funcs = [q.objective] + [f for f, _ in q.constraints]
    return head, f"n {q.n}", [f.B.array for f in funcs]


def _hom_block(h: HomSepQcqp) -> tuple:
    """A homogeneous entry as one block: its groups' matrices on the
    diagonal of each sum(dims) frame."""
    total = sum(h.dims)
    frames = np.zeros((h.m + 1, total, total))
    ofs = 0
    for mats in h.blocks:
        d = mats[0].dim
        frames[:, ofs : ofs + d, ofs : ofs + d] = [c.array for c in mats]
        ofs += d
    return "block hom", "dims " + " ".join(str(d) for d in h.dims), frames


def emit(model) -> str:
    """Model object -> problem file text (parse(emit(x)) rebuilds x).
    Each block is rendered from its (block line, size line, frames): the
    upper triangle's nonzero entries of every frame k = 0..m."""
    if isinstance(model, Qcqp):
        kind, budget = "qcqp", model.rhs
        blocks = [_qcqp_block(model, "block")]
    elif isinstance(model, HomSepQcqp):
        kind, budget = "homogeneous", model.rhs
        blocks = [
            ("block", f"n {mats[0].dim}", [c.array for c in mats])
            for mats in model.blocks
        ]
    elif isinstance(model, SeparableQcqp):
        kind, budget = "separable", model.gamma
        blocks = [
            _hom_block(e) if isinstance(e, HomSepQcqp) else _qcqp_block(e, "block qcqp")
            for e in model.blocks
        ]
    else:
        raise ValidationError(f"cannot serialize {type(model).__name__}", field="kind")
    lines = [f"schema_version {SCHEMA_VERSION}", f"kind {kind}"]
    if model.relations:
        lines.append("relations " + " ".join(r.value for r in model.relations))
        lines.append("rhs " + " ".join(repr(v) for v in budget.tolist()))
    for head, size, frames in blocks:
        lines += ["", head, size]
        for k, a in enumerate(frames):
            lines.append(f"matrix {k}")
            # rows as Python floats: indexing numpy scalars is far slower
            for i, row in enumerate(a.tolist(), start=1):
                for j, v in enumerate(row[i - 1 :], start=i):
                    if v != 0.0:
                        lines.append(f"{i} {j} {v!r}")
            lines.append("end")
        lines.append("end")
    return "\n".join(lines) + "\n"


def write_problem(model, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(emit(model))


# ---------------------------------------------------------------------------
# report plumbing


def _certificate_to_dict(c: Certificate) -> dict:
    return {
        "kind": c.kind.value,
        "case": None if c.case is None else c.case.value,
        "details": c.details,
        "depends_on_solution": bool(c.depends_on_solution),
        "holds": c.holds,
    }


def _certificate_from_dict(d: dict) -> Certificate:
    return Certificate(
        kind=CertificateKind(d["kind"]),
        details=d["details"],
        depends_on_solution=bool(d["depends_on_solution"]),
        case=None if d["case"] is None else SignCase(d["case"]),
    )


def _finite_or_null(x) -> float | None:
    """x as a float, or None where it is NaN or infinite (strict JSON has
    no such numbers)."""
    x = float(x)
    return x if math.isfinite(x) else None


def _null_as_nan(x) -> float:
    return math.nan if x is None else float(x)


def verdict_to_dict(v: ExactnessVerdict) -> dict:
    """JSON-ready form of a verdict; eta and the per-entry values are null
    where they are not finite (no relaxation value, no dual bound)."""
    return {
        "status": v.status.value,
        "eta": _finite_or_null(v.eta),
        "zeta_witness": None if v.zeta_witness is None else float(v.zeta_witness),
        "oracle_value": None if v.oracle_value is None else float(v.oracle_value),
        "reason": v.reason,
        "delta": [np.asarray(d, dtype=float).tolist() for d in v.delta_decomposition],
        "witness": None
        if v.witness is None
        else [np.asarray(w, dtype=float).tolist() for w in v.witness],
        "per_block": [
            {
                "certificate": _certificate_to_dict(pb.certificate),
                "sub_sdpr_value": _finite_or_null(pb.sub_sdpr_value),
                "optimality_gap": _finite_or_null(pb.optimality_gap),
            }
            for pb in v.per_block
        ],
    }


def verdict_from_dict(d: dict) -> ExactnessVerdict:
    """Inverse of verdict_to_dict, so JSON reports load back as verdicts."""
    return ExactnessVerdict(
        status=VerdictStatus(d["status"]),
        eta=_null_as_nan(d["eta"]),
        zeta_witness=None if d["zeta_witness"] is None else float(d["zeta_witness"]),
        delta_decomposition=[np.asarray(x, dtype=float) for x in d["delta"]],
        per_block=[
            PerBlockReport(
                certificate=_certificate_from_dict(pb["certificate"]),
                sub_sdpr_value=_null_as_nan(pb["sub_sdpr_value"]),
                optimality_gap=_null_as_nan(pb["optimality_gap"]),
            )
            for pb in d["per_block"]
        ],
        witness=None
        if d["witness"] is None
        else [np.asarray(w, dtype=float) for w in d["witness"]],
        oracle_value=None if d["oracle_value"] is None else float(d["oracle_value"]),
        reason=d["reason"],
    )


def _provenance(sol, rank_tol: float) -> dict:
    ranks = [numeric_rank(x, rank_tol) for x in sol.blocks]
    return {
        "status": sol.status.value,
        "iterations": int(sol.iterations),
        "value": float(sol.value),
        "primal_residual": float(sol.primal_residual),
        "dual_residual": float(sol.dual_residual),
        "gap": float(sol.gap),
        "block_ranks": ranks,
        "pataki_sum": pataki_count(ranks, sol.slacks, rank_tol),
    }


def _as_connection(model) -> SeparableQcqp:
    if isinstance(model, SeparableQcqp):
        return model
    return SeparableQcqp([model], model.rhs)


def _kind_name(model) -> str:
    if isinstance(model, Qcqp):
        return "qcqp"
    if isinstance(model, HomSepQcqp):
        return "homogeneous"
    return "separable"


def _judge_options(ns) -> JudgeOptions:
    return JudgeOptions(tol=ns.tol, rank_tol=ns.rank_tol, max_iter=ns.max_iter)


def _exit_for(v: ExactnessVerdict) -> int:
    return 0 if v.exact else 2


# ---------------------------------------------------------------------------
# commands


def _cmd_solve(ns):
    model = parse(ns.file)
    sol = solve(build_block(_as_connection(model)), ns.max_iter)
    payload = {"kind": _kind_name(model), "solver": _provenance(sol, ns.rank_tol)}
    return (0 if sol.status is SolveStatus.OPTIMAL else 2), payload


def _cmd_certify(ns):
    model = parse(ns.file)
    conn = _as_connection(model)
    v = judge(conn, _judge_options(ns))
    payload = {
        "eta": _finite_or_null(v.eta),
        "verdict": v.status.value,
        "certificates": [
            {
                "index": p,
                **_certificate_to_dict(pb.certificate),
                "sub_sdpr_value": _finite_or_null(pb.sub_sdpr_value),
                "optimality_gap": _finite_or_null(pb.optimality_gap),
            }
            for p, pb in enumerate(v.per_block)
        ],
    }
    return _exit_for(v), payload


def _judge_payload(conn: SeparableQcqp, ns) -> tuple[int, dict]:
    v = judge(conn, _judge_options(ns))
    sol = v.relaxation
    payload = {
        "verdict": verdict_to_dict(v),
        "solver": None if sol is None else _provenance(sol, ns.rank_tol),
    }
    if sol is None or sol.status is not SolveStatus.OPTIMAL:
        # no allocation to read: the verdict covers no entries
        payload["bilevel"] = None
        return _exit_for(v), payload
    rep = bilevel_report(conn, v)
    payload["bilevel"] = {
        "identity_gap": float(rep.identity_gap),
        "rows": [
            {
                "index": int(r.index),
                "allocation": np.asarray(r.allocation, dtype=float).tolist(),
                "value": float(r.value),
                "certified": bool(r.certified),
            }
            for r in rep.rows
        ],
    }
    return _exit_for(v), payload


def _cmd_judge(ns):
    model = parse(ns.file)
    return _judge_payload(_as_connection(model), ns)


def _cmd_reduce(ns):
    model = parse(ns.file)
    b = build_block(_as_connection(model))
    sol = solve(b, ns.max_iter)
    prov = _provenance(sol, ns.rank_tol)
    if sol.status is not SolveStatus.OPTIMAL:
        return 2, {
            "kind": _kind_name(model),
            "solver": prov,
            "stalled": False,
            "note": "solver did not reach Optimal, nothing to reduce",
        }
    std = to_standard_form(b)
    stalled = False
    note = ""
    try:
        red, rep = reduce_solution(std, sol, tol=ns.tol, rank_tol=ns.rank_tol)
        drift = abs(float(red.value) - float(sol.value))
    except ReductionStallError as e:
        rep = e.report
        stalled, note, drift = True, str(e), None
    payload = {
        "kind": _kind_name(model),
        "solver": prov,
        "stalled": stalled,
        "note": note,
        "ranks_before": prov["block_ranks"],
    }
    if rep is not None:
        payload.update(
            {
                "final_ranks": list(rep.final_ranks),
                "pataki_sum": int(rep.pataki_sum),
                "bound_m": int(rep.bound_m),
                "iterations": int(rep.iterations),
                "extracted": rep.extracted is not None,
                "points": None
                if rep.extracted is None
                else [np.asarray(p, dtype=float).tolist() for p in rep.extracted],
            }
        )
    if drift is not None:
        payload["value_drift"] = drift
    return (2 if stalled else 0), payload


def _example51_row(alpha: float, ns) -> tuple[dict, bool]:
    v = judge(_as_connection(make_example51(alpha)), _judge_options(ns))
    sol = v.relaxation
    if sol is None:
        raise SepqcqpError(v.reason)
    prov = _provenance(sol, ns.rank_tol)
    rank = prov["block_ranks"][0]
    pataki = prov["pataki_sum"]
    # judge rank-reduces an Optimal solution; a missing reduction is how a
    # stall (or a solution found stale) shows
    stalled = sol.status is SolveStatus.OPTIMAL and v.reduction is None
    if v.reduction is not None:
        rank = int(v.reduction.final_ranks[0])
        pataki = int(v.reduction.pataki_sum)
    zeta = v.zeta_witness if v.zeta_witness is not None else v.oracle_value
    row = {
        "alpha": float(alpha),
        "eta": float(v.eta),
        "zeta": None if zeta is None else float(zeta),
        "rank": rank,
        "verdict": v.status.value,
        "reason": v.reason,
        "reduction_stalled": stalled,
        "pataki_sum": pataki,
        "solver": prov,
    }
    return row, v.exact


def _cmd_example51(ns):
    if not ns.table and ns.alpha is None:
        raise SepqcqpError("example51 needs --alpha A or --table")
    if ns.table:
        rows = [_example51_row(a, ns)[0] for a in _TABLE_ALPHAS]
        return 0, {"rows": rows}
    row, exact = _example51_row(ns.alpha, ns)
    return (0 if exact else 2), row


def _cmd_example52(ns):
    s = make_example52(ns.seed)
    code, payload = _judge_payload(s, ns)
    payload = {"seed": int(ns.seed), **payload}
    return code, payload


# ---------------------------------------------------------------------------
# rendering and dispatch


def _fmt_scalar(v) -> str:
    if v is None:
        return "none"
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


def _text_lines(obj, indent: int = 0) -> list:
    pad = "  " * indent
    lines = []
    for k, v in obj.items():
        if isinstance(v, dict):
            lines.append(f"{pad}{k}:")
            lines.extend(_text_lines(v, indent + 1))
        elif isinstance(v, list) and v and isinstance(v[0], dict):
            for i, item in enumerate(v):
                lines.append(f"{pad}{k}[{i}]:")
                lines.extend(_text_lines(item, indent + 1))
        elif isinstance(v, list) and v and isinstance(v[0], (list, tuple)):
            for i, item in enumerate(v):
                inner = ", ".join(_fmt_scalar(x) for x in item)
                lines.append(f"{pad}{k}[{i}]: [{inner}]")
        elif isinstance(v, list):
            lines.append(f"{pad}{k}: [{', '.join(_fmt_scalar(x) for x in v)}]")
        else:
            lines.append(f"{pad}{k}: {_fmt_scalar(v)}")
    return lines


def _table_text(rows: list) -> str:
    cols = ("alpha", "eta", "zeta", "rank", "verdict")
    cells = [cols] + [
        tuple(_fmt_scalar(row[c]) for c in cols) for row in rows
    ]
    widths = [max(len(r[i]) for r in cells) for i in range(len(cols))]
    out = [
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)).rstrip()
        for line in cells
    ]
    return "\n".join(out) + "\n"


def _render(ns, payload: dict) -> str:
    env = {"command": ns.command, "report": payload}
    # the flags the command has: solve has no --tol
    names = ("tol", "rank_tol", "max_iter", "format")
    env["flags"] = {name: getattr(ns, name) for name in names if name in ns}
    if not ns.no_timestamp:
        env["generated_at"] = datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        )
    if ns.format == "json":
        return json.dumps(env, sort_keys=True, indent=2) + "\n"
    if ns.command == "example51" and "rows" in payload:
        head = f"command: {ns.command}\n"
        return head + _table_text(payload["rows"])
    return "\n".join(_text_lines(env)) + "\n"


class _ArgParser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; remap to 1 so exit 2 keeps its
    'ran but not exact / not definitive' meaning."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


class _Subcommand(_ArgParser):
    """A subcommand's parser reports the arguments it does not take
    itself, so the usage printed is the subcommand's, not the top-level
    parser's."""

    def parse_known_args(self, args=None, namespace=None):
        ns, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return ns, extras


def _positive_float(text: str) -> float:
    """argparse type of a tolerance: a finite number > 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be a positive finite number, got {text!r}"
        )
    return value


def _int_at_least(low: int):
    """argparse type of an integer >= low (an iteration cap, a seed)."""

    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text!r}")
        return value

    return convert


def build_arg_parser() -> argparse.ArgumentParser:
    # every command but solve, which has no tolerance to read
    with_tol = argparse.ArgumentParser(add_help=False)
    with_tol.add_argument(
        "--tol", type=_positive_float, default=1e-6,
        help="verification tolerance of the verdict and of rank reduction",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--rank-tol",
        dest="rank_tol",
        type=_positive_float,
        default=1e-6,
        help="numeric rank threshold",
    )
    common.add_argument(
        "--max-iter",
        dest="max_iter",
        type=_int_at_least(1),
        default=200,
        help="interior-point iteration cap",
    )
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--out", default=None, help="write the report here")
    common.add_argument(
        "--no-timestamp",
        dest="no_timestamp",
        action="store_true",
        help="omit the generated_at field (byte-stable reports)",
    )

    p = _ArgParser(
        prog="sepqcqp",
        description=(
            "Model separable QCQPs, solve their SDP relaxations, certify "
            "exactness, and recover rank-one solutions."
        ),
    )
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Subcommand)

    sp = sub.add_parser(
        "solve", parents=[common], help="solve the relaxation of a problem file"
    )
    sp.add_argument("file")
    sp.set_defaults(handler=_cmd_solve)

    sp = sub.add_parser(
        "certify", parents=[with_tol, common], help="per-block exactness certificates"
    )
    sp.add_argument("file")
    sp.set_defaults(handler=_cmd_certify)

    sp = sub.add_parser(
        "judge", parents=[with_tol, common], help="full exactness pipeline and verdict"
    )
    sp.add_argument("file")
    sp.set_defaults(handler=_cmd_judge)

    sp = sub.add_parser(
        "reduce", parents=[with_tol, common], help="rank reduction report"
    )
    sp.add_argument("file")
    sp.set_defaults(handler=_cmd_reduce)

    sp = sub.add_parser(
        "example51",
        parents=[with_tol, common],
        help="two-group benchmark family: report one alpha or sweep a grid",
    )
    pick = sp.add_mutually_exclusive_group()
    pick.add_argument("--alpha", type=float, default=None)
    pick.add_argument(
        "--table", action="store_true", help="sweep the built-in alpha grid"
    )
    sp.set_defaults(handler=_cmd_example51)

    sp = sub.add_parser(
        "example52",
        parents=[with_tol, common],
        help="seeded three-entry mixed-class instance: generate and judge",
    )
    sp.add_argument("--seed", type=_int_at_least(0), required=True)
    sp.set_defaults(handler=_cmd_example52)

    return p


@functools.cache
def _arg_parser() -> argparse.ArgumentParser:
    """build_arg_parser's tree, built once per process: parsing reads the
    parser and never changes it."""
    return build_arg_parser()


def _handle(ns):
    """The command's (exit code, payload). Each warning it raises (a
    dropped zero row, say) is printed as one 'warning: <message>' line on
    stderr, raised or not."""
    with warnings.catch_warnings(record=True) as caught:
        try:
            return ns.handler(ns)
        finally:
            for w in caught:
                print(f"warning: {w.message}", file=sys.stderr)


def run(argv=None) -> int:
    """Parse arguments, dispatch, print or write the report, return the
    exit code (0 done, 2 not exact / not definitive, 1 failure, a usage
    error included)."""
    parser = _arg_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (None, 0) else int(e.code)
    try:
        code, payload = _handle(ns)
        text = _render(ns, payload)
        if ns.out:
            with open(ns.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (SepqcqpError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
