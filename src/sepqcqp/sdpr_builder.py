"""Builders turning QCQP data into block semidefinite programs.

Every relaxation here replaces a rank-one lifted point with a free PSD
matrix per block. Inhomogeneous blocks get one extra normalization row
pinning their corner entry to 1; homogeneous blocks get none. Inequality
rows carry a signed scalar slack so the solver can work with equalities
plus nonnegative slacks only.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, StructureError
from .qcqp_model import HomSepQcqp, Qcqp, Relation, SeparableQcqp
from .symkernel import SymMatrix, frob_inner

#: slack coefficient per relation: <A,X> + c*s = rhs with s >= 0
_SLACK_COEFF = {Relation.LE: 1, Relation.EQ: 0, Relation.GE: -1}


@dataclass(frozen=True)
class Row:
    """One linear constraint row: sum_b <mats[b], X_b> + slack_coeff * s = rhs.

    origin is the 0-based index of the QCQP constraint the row encodes, or
    -1 for a normalization row.
    """

    mats: tuple
    slack_coeff: int
    rhs: float
    origin: int = -1


class BlockSdp:
    """Linear SDP over a product of PSD blocks plus per-row scalar slacks.

    minimize   sum_b <objective[b], X_b>
    subject to sum_b <row.mats[b], X_b> + row.slack_coeff * s_row = row.rhs
               X_b PSD, s_row >= 0 where present.

    normalization_rows indexes the corner-pinning equality rows; slack_signs
    holds 1 for rows carrying a nonnegative slack and 0 for equalities.
    dropped_rows records original constraint indices removed because both
    their matrices and rhs were identically zero.
    """

    __slots__ = (
        "block_dims",
        "objective",
        "rows",
        "normalization_rows",
        "slack_signs",
        "block_owner",
        "dropped_rows",
    )

    def __init__(self, block_dims, objective, rows, normalization_rows=(),
                 block_owner=None, dropped_rows=()):
        block_dims = tuple(int(d) for d in block_dims)
        objective = tuple(objective)
        rows = tuple(rows)
        if len(objective) != len(block_dims):
            raise DimensionError(
                f"{len(objective)} objective blocks for {len(block_dims)} dims"
            )
        for b, (mat, d) in enumerate(zip(objective, block_dims)):
            if mat.dim != d:
                raise DimensionError(f"objective block {b} dim {mat.dim} != {d}")
        for i, row in enumerate(rows):
            if len(row.mats) != len(block_dims):
                raise DimensionError(f"row {i} has {len(row.mats)} blocks")
            for b, (mat, d) in enumerate(zip(row.mats, block_dims)):
                if mat.dim != d:
                    raise DimensionError(f"row {i} block {b} dim {mat.dim} != {d}")
            if row.slack_coeff not in (-1, 0, 1):
                raise StructureError(f"row {i} slack coefficient {row.slack_coeff}")
        normalization_rows = frozenset(int(i) for i in normalization_rows)
        for i in normalization_rows:
            if not 0 <= i < len(rows):
                raise StructureError(f"normalization row index {i} out of range")
            if rows[i].slack_coeff != 0:
                raise StructureError(f"normalization row {i} carries a slack")
        if block_owner is None:
            block_owner = (0,) * len(block_dims)
        block_owner = tuple(int(p) for p in block_owner)
        if len(block_owner) != len(block_dims):
            raise DimensionError("block_owner length mismatch")
        self.block_dims = block_dims
        self.objective = objective
        self.rows = rows
        self.normalization_rows = normalization_rows
        self.slack_signs = tuple(1 if r.slack_coeff != 0 else 0 for r in rows)
        self.block_owner = block_owner
        self.dropped_rows = tuple(int(k) for k in dropped_rows)

    @property
    def n_blocks(self) -> int:
        return len(self.block_dims)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def coupled_rows(self) -> list[int]:
        """Indices of the non-normalization rows, in original constraint order."""
        return [i for i in range(len(self.rows)) if i not in self.normalization_rows]

    def __repr__(self) -> str:
        return (
            f"BlockSdp(dims={list(self.block_dims)}, rows={len(self.rows)}, "
            f"norm={sorted(self.normalization_rows)})"
        )


class SolveStatus(enum.Enum):
    OPTIMAL = "Optimal"
    MAX_ITER = "MaxIter"
    DIVERGED = "Diverged"
    NUMERICAL_FAILURE = "NumericalFailure"


@dataclass
class SdpSolution:
    """Primal-dual iterate returned by the solver.

    slacks and dual_multipliers are indexed by row; rows without a slack
    hold 0 there. When status is OPTIMAL the recorded primal_residual,
    dual_residual and gap all passed the solver's tolerance tests.
    """

    blocks: list
    slacks: np.ndarray
    dual_multipliers: np.ndarray
    dual_blocks: list
    status: SolveStatus
    value: float
    primal_residual: float = float("nan")
    dual_residual: float = float("nan")
    gap: float = float("nan")
    iterations: int = 0
    mu_history: list = field(default_factory=list)


class RowOperator:
    """The rows of a block SDP compiled once into per-block stacks.

    For every block b, active[b] lists (ascending) the rows whose matrix on
    b is not identically zero and stacks[b] holds those matrices densely as
    one (k, d, d) array, as SDPT3 keeps one stacked constraint matrix per
    block. Row sums run over the active blocks in block order, one
    np.sum(A * X) per (row, block) pair, so their roundoff is that of the
    plain double loop.
    """

    __slots__ = ("dims", "n_rows", "active", "stacks", "slack_coeffs", "rhs")

    def __init__(self, rows, dims):
        self.dims = tuple(dims)
        self.n_rows = len(rows)
        self.active, self.stacks = [], []
        for bi, d in enumerate(self.dims):
            mats = [row.mats[bi].to_dense() for row in rows]
            act = [i for i, a in enumerate(mats) if np.any(a)]
            self.active.append(np.array(act, dtype=np.intp))
            self.stacks.append(
                np.stack([mats[i] for i in act]) if act else np.zeros((0, d, d))
            )
        self.slack_coeffs = np.array([float(r.slack_coeff) for r in rows])
        self.rhs = np.array([float(r.rhs) for r in rows])

    def take(self, keep) -> "RowOperator":
        """The operator of the rows keep (ascending), renumbered 0.."""
        keep = np.asarray(keep, dtype=np.intp)
        pos = np.full(self.n_rows, -1, dtype=np.intp)
        pos[keep] = np.arange(len(keep))
        out = object.__new__(RowOperator)
        out.dims, out.n_rows = self.dims, len(keep)
        out.active, out.stacks = [], []
        for act, stack in zip(self.active, self.stacks):
            sel = pos[act] >= 0
            out.active.append(pos[act[sel]])
            out.stacks.append(stack[sel])
        out.slack_coeffs = self.slack_coeffs[keep]
        out.rhs = self.rhs[keep]
        return out

    def apply(self, blocks) -> np.ndarray:
        """sum_b <mats[b], X_b> for every row, slack not included; blocks
        are dense arrays."""
        out = np.zeros(self.n_rows)
        for act, stack, x in zip(self.active, self.stacks, blocks):
            if len(act):
                out[act] += (stack * x).reshape(len(act), -1).sum(axis=1)
        return out

    def dense(self) -> np.ndarray:
        """Every row as one vector over (all block entries, block by block)
        followed by one column per slack-carrying row."""
        slack_rows = np.flatnonzero(self.slack_coeffs)
        widths = [d * d for d in self.dims]
        mat = np.zeros((self.n_rows, sum(widths) + len(slack_rows)))
        ofs = 0
        for act, stack, w in zip(self.active, self.stacks, widths):
            mat[act, ofs : ofs + w] = stack.reshape(len(act), w)
            ofs += w
        mat[slack_rows, ofs + np.arange(len(slack_rows))] = self.slack_coeffs[slack_rows]
        return mat


def eval_rows(b: BlockSdp, blocks) -> np.ndarray:
    """Left-hand sides sum_b <mats, X_b> for every row (slack not included)."""
    if len(blocks) != b.n_blocks:
        raise DimensionError(f"{len(blocks)} blocks given, expected {b.n_blocks}")
    out = np.zeros(b.n_rows)
    for i, row in enumerate(b.rows):
        out[i] = sum(frob_inner(m, x) for m, x in zip(row.mats, blocks))
    return out


def objective_value(b: BlockSdp, blocks) -> float:
    return float(sum(frob_inner(m, x) for m, x in zip(b.objective, blocks)))


def _corner_matrix(dim: int) -> SymMatrix:
    e = np.zeros((dim, dim))
    e[dim - 1, dim - 1] = 1.0
    return SymMatrix.from_dense(e)


def _drop_zero_rows(mats_per_row, relations, rhs):
    """Split rows into (kept k-indices, dropped k-indices).

    A row whose matrices are all identically zero and whose rhs is exactly
    0 is vacuous under any relation; keeping it would make the solver's
    linear algebra needlessly singular.
    """
    kept, dropped = [], []
    for k, mats in enumerate(mats_per_row):
        if float(rhs[k]) == 0.0 and all(m.is_zero() for m in mats):
            dropped.append(k)
        else:
            kept.append(k)
    if dropped:
        warnings.warn(
            f"dropping identically-zero rows with zero rhs: {dropped}",
            stacklevel=3,
        )
    return kept, dropped


def build_shor(q: Qcqp) -> BlockSdp:
    """Relaxation of one inhomogeneous QCQP: a single (n+1)-dim PSD block.

    Row k reads <B_k, X> (+/- slack) = rhs_k; the final row pins the corner
    X_{n+1,n+1} to 1 so rank-one feasible X are exactly lifted points.
    """
    dim = q.n + 1
    mats_per_row = [[f.B] for f, _ in q.constraints]
    kept, dropped = _drop_zero_rows(mats_per_row, q.relations, q.rhs)
    rows = [
        Row((q.constraints[k][0].B,), _SLACK_COEFF[q.constraints[k][1]],
            float(q.rhs[k]), origin=k)
        for k in kept
    ]
    rows.append(Row((_corner_matrix(dim),), 0, 1.0, origin=-1))
    return BlockSdp(
        (dim,),
        (q.objective.B,),
        rows,
        normalization_rows={len(rows) - 1},
        dropped_rows=dropped,
    )


def build_hom(h: HomSepQcqp) -> BlockSdp:
    """Relaxation of a homogeneous separable QCQP: one PSD block per q,
    coupled rows only, no normalization."""
    dims = h.dims
    mats_per_row = [
        [h.blocks[q][k + 1] for q in range(h.q_hat)] for k in range(h.m)
    ]
    kept, dropped = _drop_zero_rows(mats_per_row, h.relations, h.rhs)
    rows = [
        Row(tuple(mats_per_row[k]), _SLACK_COEFF[h.relations[k]],
            float(h.rhs[k]), origin=k)
        for k in kept
    ]
    return BlockSdp(
        tuple(dims),
        tuple(h.blocks[q][0] for q in range(h.q_hat)),
        rows,
        dropped_rows=dropped,
    )


def build_block(s: SeparableQcqp) -> BlockSdp:
    """Relaxation of a connected QCQP.

    Each inhomogeneous entry contributes one (n^p+1)-dim block plus a
    normalization row; each homogeneous entry contributes its q blocks and
    no normalization rows. Coupled row k sums every block's inner product
    against the shared rhs gamma_k.
    """
    dims: list[int] = []
    owner: list[int] = []
    obj: list[SymMatrix] = []
    norm_mats: list[tuple] = []  # one per inhomogeneous block, built below
    per_entry_row_mats: list[list[list[SymMatrix]]] = []

    for p, blk in enumerate(s.blocks):
        if isinstance(blk, Qcqp):
            dims.append(blk.n + 1)
            owner.append(p)
            obj.append(blk.objective.B)
            per_entry_row_mats.append([[f.B] for f, _ in blk.constraints])
        else:
            for q in range(blk.q_hat):
                dims.append(blk.blocks[q][0].dim)
                owner.append(p)
                obj.append(blk.blocks[q][0])
            per_entry_row_mats.append(
                [
                    [blk.blocks[q][k + 1] for q in range(blk.q_hat)]
                    for k in range(blk.m)
                ]
            )

    m = s.m
    mats_per_row = [
        [mat for entry in per_entry_row_mats for mat in entry[k]]
        for k in range(m)
    ]
    kept, dropped = _drop_zero_rows(mats_per_row, s.relations, s.gamma)
    rows = [
        Row(tuple(mats_per_row[k]), _SLACK_COEFF[s.relations[k]],
            float(s.gamma[k]), origin=k)
        for k in kept
    ]

    norm_indices = set()
    b0 = 0
    for p, blk in enumerate(s.blocks):
        if isinstance(blk, Qcqp):
            mats = [SymMatrix.zeros(d) for d in dims]
            mats[b0] = _corner_matrix(dims[b0])
            norm_indices.add(len(rows))
            rows.append(Row(tuple(mats), 0, 1.0, origin=-1))
            b0 += 1
        else:
            b0 += blk.q_hat

    return BlockSdp(
        tuple(dims),
        tuple(obj),
        rows,
        normalization_rows=norm_indices,
        block_owner=tuple(owner),
        dropped_rows=dropped,
    )


def to_standard_form(b: BlockSdp) -> BlockSdp:
    """Rewrite every inequality row as an equality with a nonnegative slack.

    Rows with slack coefficient -1 (originally >=) are negated so all
    slacks enter with +1. Idempotent; block structure, row count, row
    order, and the optimal value are preserved.
    """
    rows = []
    for row in b.rows:
        if row.slack_coeff == -1:
            rows.append(
                Row(
                    tuple(m.scaled(-1.0) for m in row.mats),
                    1,
                    -row.rhs,
                    origin=row.origin,
                )
            )
        else:
            rows.append(row)
    return BlockSdp(
        b.block_dims,
        b.objective,
        rows,
        normalization_rows=b.normalization_rows,
        block_owner=b.block_owner,
        dropped_rows=b.dropped_rows,
    )


def lift_blocks(s: SeparableQcqp, parts) -> list[SymMatrix]:
    """Lift per-entry feasible points into the block layout of build_block.

    parts[p] is the point for entry p: a vector for a Qcqp entry, and the
    concatenation of the q-block coordinates for a homogeneous entry. The
    result satisfies every coupled row of build_block(s) exactly when the
    points satisfy the QCQP rows, with equal objective value.
    """
    from .qcqp_model import lift  # local import avoids cycle at module load

    if len(parts) != len(s.blocks):
        raise DimensionError(f"{len(parts)} points for {len(s.blocks)} entries")
    out: list[SymMatrix] = []
    for blk, u in zip(s.blocks, parts):
        u = np.asarray(u, dtype=np.float64).reshape(-1)
        if isinstance(blk, Qcqp):
            if u.shape != (blk.n,):
                raise DimensionError(f"point shape {u.shape}, expected ({blk.n},)")
            out.append(lift(u))
        else:
            ofs = 0
            for d in blk.dims:
                v = u[ofs : ofs + d]
                out.append(SymMatrix.from_dense(np.outer(v, v)))
                ofs += d
            if ofs != u.shape[0]:
                raise DimensionError(
                    f"point has {u.shape[0]} coords, expected {ofs}"
                )
    return out
