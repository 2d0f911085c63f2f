"""Command-line front end: problem file I/O, command dispatch, and
machine- or human-readable reports.

Problem files use a line-oriented plain-text format (full grammar in
FORMAT.md at the repository root): whitespace-separated tokens, `#`
comments, top-level key/value fields, and block sections listing sparse
upper-triangular matrix entries. Reports render either as indented text
or as stable-keyed JSON; exit codes separate "ran and concluded" (0),
"ran but not exact / not definitive" (2), and genuine failures (1).
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
    make_example51,
    make_example52,
)
from .errors import (
    ParseError,
    ReductionStallError,
    SepqcqpError,
    ValidationError,
)
from .qcqp_model import HomSepQcqp, Qcqp, QuadFunc, Relation, SeparableQcqp
from .rank_reduction import reduce as reduce_solution
from .sdp_solver import SolverOptions, solve
from .sdpr_builder import SolveStatus, build_block, to_standard_form
from .symkernel import SymMatrix, numeric_rank

SCHEMA_VERSION = 1

_KINDS = ("qcqp", "separable", "homogeneous")
_RELATION_NAMES = tuple(r.value for r in Relation)
_TABLE_ALPHAS = (0.0, 1.0, 2.0, 2.5, 3.0, 3.5, 4.0)
#: largest |entry| a problem file may give: building its matrix forms
#: (A + A^T) / 2, whose sum doubles every entry before halving it
_SYMMETRIZABLE_MAX = float(np.finfo(np.float64).max) / 2.0


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
                i = _int_tok(toks[0], lineno, "row index")
                j = _int_tok(toks[1], lineno, "column index")
                v = _float_tok(toks[2], lineno, "matrix entry")
                cur_matrix[1].append((i, j, v))
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


def _owner_of(index0: int, dims: tuple) -> int:
    ofs = 0
    for q, d in enumerate(dims):
        if index0 < ofs + d:
            return q
        ofs += d
    return -1


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

    if pf.kind == "separable":
        if pf.rhs is None and pf.gamma is None:
            raise ValidationError(
                "a separable file needs a budget vector (rhs or gamma)",
                field="rhs",
            )
        if pf.rhs is not None and pf.gamma is not None and pf.rhs != pf.gamma:
            raise ValidationError(
                "gamma and rhs disagree; a connection carries one budget vector",
                field="gamma",
            )
    else:
        if pf.gamma is not None:
            raise ValidationError(
                "only meaningful for kind separable", field="gamma"
            )
        if pf.rhs is None and m > 0:
            raise ValidationError("missing", field="rhs")

    budget = pf.gamma if pf.rhs is None else pf.rhs
    if budget is None:
        budget = ()
    if len(budget) != m:
        raise ValidationError(
            f"{len(budget)} values for {m} relations",
            field="gamma" if pf.rhs is None else "rhs",
        )
    for i, v in enumerate(budget):
        if not np.isfinite(v):
            raise ValidationError("value must be finite", field=f"rhs[{i}]")

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
                epath = f"{mpath}.entries[{ei}]"
                if not (1 <= i <= frame and 1 <= j <= frame):
                    raise ValidationError(
                        f"index ({i},{j}) outside the {frame}x{frame} frame",
                        field=epath,
                    )
                if i > j:
                    raise ValidationError(
                        f"lower-triangle entry ({i},{j}); give i <= j",
                        field=epath,
                    )
                if (i, j) in seen_ij:
                    raise ValidationError(
                        f"duplicate entry ({i},{j})", field=epath
                    )
                seen_ij.add((i, j))
                if not np.isfinite(v):
                    raise ValidationError("value must be finite", field=epath)
                if abs(v) > _SYMMETRIZABLE_MAX:
                    raise ValidationError(
                        "value overflows when the matrix is symmetrized",
                        field=epath,
                    )
                if btype == "qcqp" and i == frame and j == frame and v != 0.0:
                    raise ValidationError(
                        "homogenization corner entry must be absent or zero",
                        field=epath,
                    )
                if btype == "hom":
                    if _owner_of(i - 1, blk.dims) != _owner_of(j - 1, blk.dims):
                        raise ValidationError(
                            f"entry ({i},{j}) couples two diagonal blocks",
                            field=epath,
                        )


def _dense_of(frame: int, mt: MatrixTriples | None) -> np.ndarray:
    a = np.zeros((frame, frame))
    if mt is not None:
        for i, j, v in mt.entries:
            a[i - 1, j - 1] = v
            a[j - 1, i - 1] = v
    return a


def _matrices_by_k(blk: FileBlock) -> dict:
    return {mt.k: mt for mt in blk.matrices}


def _qcqp_of_block(blk: FileBlock, relations, rhs) -> Qcqp:
    n = blk.dims[0]
    by_k = _matrices_by_k(blk)
    funcs = []
    for k in range(len(relations) + 1):
        full = _dense_of(n + 1, by_k.get(k))
        funcs.append(QuadFunc.from_parts(full[:n, :n], full[:n, n]))
    cons = [(funcs[k + 1], rel) for k, rel in enumerate(relations)]
    return Qcqp(n, funcs[0], cons, rhs)


def _hom_entry_of_block(blk: FileBlock, relations, rhs) -> HomSepQcqp:
    total = sum(blk.dims)
    by_k = _matrices_by_k(blk)
    dense = [_dense_of(total, by_k.get(k)) for k in range(len(relations) + 1)]
    qblocks = []
    ofs = 0
    for d in blk.dims:
        qblocks.append(
            [SymMatrix.from_dense(a[ofs : ofs + d, ofs : ofs + d]) for a in dense]
        )
        ofs += d
    return HomSepQcqp(qblocks, list(relations), rhs)


def problem_file_to_model(pf: ProblemFile):
    """Validated ProblemFile -> model object of the matching kind."""
    validate_problem_file(pf)
    relations = [Relation(r) for r in pf.relations]
    budget = list(pf.gamma if pf.rhs is None else pf.rhs)
    if pf.kind == "qcqp":
        return _qcqp_of_block(pf.blocks[0], relations, budget)
    if pf.kind == "homogeneous":
        m = len(relations)
        qblocks = []
        for blk in pf.blocks:
            by_k = _matrices_by_k(blk)
            n = blk.dims[0]
            qblocks.append(
                [
                    SymMatrix.from_dense(_dense_of(n, by_k.get(k)))
                    for k in range(m + 1)
                ]
            )
        return HomSepQcqp(qblocks, relations, budget)
    entries = []
    for blk in pf.blocks:
        if _block_type("separable", blk, "") == "qcqp":
            entries.append(_qcqp_of_block(blk, relations, budget))
        else:
            entries.append(_hom_entry_of_block(blk, relations, budget))
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


def _triples_of_dense(a: np.ndarray) -> tuple:
    out = []
    d = a.shape[0]
    for i in range(d):
        for j in range(i, d):
            if a[i, j] != 0.0:
                out.append((i + 1, j + 1, float(a[i, j])))
    return tuple(out)


def _file_block_of_qcqp(q: Qcqp, tag: str | None) -> FileBlock:
    mats = [q.objective] + [f for f, _ in q.constraints]
    return FileBlock(
        tag=tag,
        size_key="n",
        dims=(q.n,),
        matrices=tuple(
            MatrixTriples(k=k, entries=_triples_of_dense(f.B.to_dense()))
            for k, f in enumerate(mats)
        ),
    )


def _file_block_of_hom_entry(h: HomSepQcqp) -> FileBlock:
    total = sum(h.dims)
    mats = []
    for k in range(h.m + 1):
        full = np.zeros((total, total))
        ofs = 0
        for q, d in enumerate(h.dims):
            full[ofs : ofs + d, ofs : ofs + d] = h.blocks[q][k].to_dense()
            ofs += d
        mats.append(MatrixTriples(k=k, entries=_triples_of_dense(full)))
    return FileBlock(tag="hom", size_key="dims", dims=tuple(h.dims), matrices=tuple(mats))


def problem_file_of(model) -> ProblemFile:
    """Model object -> ProblemFile ready for rendering."""
    if isinstance(model, Qcqp):
        return ProblemFile(
            schema_version=SCHEMA_VERSION,
            kind="qcqp",
            blocks=(_file_block_of_qcqp(model, None),),
            relations=tuple(r.value for _, r in model.constraints),
            rhs=tuple(float(v) for v in model.rhs),
            gamma=None,
        )
    if isinstance(model, HomSepQcqp):
        blocks = []
        for q in range(model.q_hat):
            blocks.append(
                FileBlock(
                    tag=None,
                    size_key="n",
                    dims=(model.dims[q],),
                    matrices=tuple(
                        MatrixTriples(
                            k=k, entries=_triples_of_dense(model.blocks[q][k].to_dense())
                        )
                        for k in range(model.m + 1)
                    ),
                )
            )
        return ProblemFile(
            schema_version=SCHEMA_VERSION,
            kind="homogeneous",
            blocks=tuple(blocks),
            relations=tuple(r.value for r in model.relations),
            rhs=tuple(float(v) for v in model.rhs),
            gamma=None,
        )
    if isinstance(model, SeparableQcqp):
        blocks = []
        for entry in model.blocks:
            if isinstance(entry, HomSepQcqp):
                blocks.append(_file_block_of_hom_entry(entry))
            else:
                blocks.append(_file_block_of_qcqp(entry, "qcqp"))
        return ProblemFile(
            schema_version=SCHEMA_VERSION,
            kind="separable",
            blocks=tuple(blocks),
            relations=tuple(r.value for r in model.relations),
            rhs=tuple(float(v) for v in model.gamma),
            gamma=None,
        )
    raise ValidationError(f"cannot serialize {type(model).__name__}", field="kind")


def emit(model) -> str:
    """Model object -> problem file text (parse(emit(x)) rebuilds x)."""
    pf = problem_file_of(model)
    lines = [f"schema_version {pf.schema_version}", f"kind {pf.kind}"]
    if pf.relations:
        lines.append("relations " + " ".join(pf.relations))
        lines.append("rhs " + " ".join(repr(v) for v in pf.rhs))
    for blk in pf.blocks:
        lines.append("")
        lines.append("block" if blk.tag is None else f"block {blk.tag}")
        lines.append(
            f"n {blk.dims[0]}"
            if blk.size_key == "n"
            else "dims " + " ".join(str(d) for d in blk.dims)
        )
        for mt in blk.matrices:
            lines.append(f"matrix {mt.k}")
            for i, j, v in mt.entries:
                lines.append(f"{i} {j} {repr(v)}")
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
    where they are not finite (no relaxation value, no re-solve)."""
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


def _solver_options(ns) -> SolverOptions:
    return SolverOptions(max_iter=ns.max_iter)


def _judge_options(ns) -> JudgeOptions:
    return JudgeOptions(
        tol=ns.tol, rank_tol=ns.rank_tol, solver=_solver_options(ns)
    )


def _exit_for(v: ExactnessVerdict) -> int:
    return 0 if v.exact else 2


# ---------------------------------------------------------------------------
# commands


def _cmd_solve(ns):
    model = parse(ns.file)
    sol = solve(build_block(_as_connection(model)), _solver_options(ns))
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
    sol = solve(b, _solver_options(ns))
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
        red, rep = reduce_solution(std, sol, rank_tol=ns.rank_tol)
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
    conn = _as_connection(make_example51(alpha))
    b = build_block(conn)
    v = judge(conn, _judge_options(ns))
    # judge's relaxation solution is that of b
    sol = v.relaxation
    if sol is None:
        sol = solve(b, _solver_options(ns))
    prov = _provenance(sol, ns.rank_tol)
    rank = prov["block_ranks"][0]
    pataki = prov["pataki_sum"]
    stalled = False
    # judge has rank-reduced that solution already; reduce here only when
    # its reduction is missing, which is how a stall shows
    if v.reduction is not None:
        rank = int(v.reduction.final_ranks[0])
        pataki = int(v.reduction.pataki_sum)
    elif sol.status is SolveStatus.OPTIMAL:
        try:
            _, rep = reduce_solution(
                to_standard_form(b), sol, rank_tol=ns.rank_tol
            )
            rank = int(rep.final_ranks[0])
            pataki = int(rep.pataki_sum)
        except ReductionStallError:
            stalled = True
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
    env["flags"] = {
        "tol": ns.tol,
        "rank_tol": ns.rank_tol,
        "max_iter": ns.max_iter,
        "format": ns.format,
    }
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
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--tol", type=_positive_float, default=1e-6,
        help="verification tolerance",
    )
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
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser(
        "solve", parents=[common], help="solve the relaxation of a problem file"
    )
    sp.add_argument("file")
    sp.set_defaults(handler=_cmd_solve)

    sp = sub.add_parser(
        "certify", parents=[common], help="per-block exactness certificates"
    )
    sp.add_argument("file")
    sp.set_defaults(handler=_cmd_certify)

    sp = sub.add_parser(
        "judge", parents=[common], help="full exactness pipeline and verdict"
    )
    sp.add_argument("file")
    sp.set_defaults(handler=_cmd_judge)

    sp = sub.add_parser(
        "reduce", parents=[common], help="rank reduction report"
    )
    sp.add_argument("file")
    sp.set_defaults(handler=_cmd_reduce)

    sp = sub.add_parser(
        "example51",
        parents=[common],
        help="two-group benchmark family: report one alpha or sweep a grid",
    )
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument(
        "--table", action="store_true", help="sweep the built-in alpha grid"
    )
    sp.set_defaults(handler=_cmd_example51)

    sp = sub.add_parser(
        "example52",
        parents=[common],
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
