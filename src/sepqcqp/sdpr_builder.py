"""Builders turning QCQP data into block semidefinite programs.

Every relaxation here is that of a horizontal connection (build_block):
a single QCQP (build_shor) or homogeneous separable QCQP (build_hom) is
the connection of one entry. Each replaces a rank-one lifted point with
a free PSD matrix per block. Inhomogeneous blocks get one extra
normalization row pinning their corner entry to 1; homogeneous blocks
get none. Inequality rows carry a signed scalar slack so the solver can
work with equalities plus nonnegative slacks only.
"""

from __future__ import annotations

import enum
import functools
import os
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, StructureError
from .qcqp_model import HomSepQcqp, Qcqp, Relation, SeparableQcqp
from .symkernel import SymMatrix

#: the package's directory, which dropped-row warnings look past
_HERE = os.path.dirname(__file__)

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

    An instance is treated as immutable: its compiled rows (operator) and
    its standard form (to_standard_form) are computed once and kept on it.
    """

    __slots__ = (
        "block_dims",
        "objective",
        "rows",
        "normalization_rows",
        "slack_signs",
        "block_owner",
        "dropped_rows",
        "_operator",
        "_standard",
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
        self._operator = None
        self._standard = None

    @property
    def operator(self) -> "RowOperator":
        """The rows compiled into a RowOperator, once per instance."""
        if self._operator is None:
            self._operator = RowOperator(self.rows, self.block_dims)
        return self._operator

    @property
    def n_blocks(self) -> int:
        return len(self.block_dims)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

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
    plain double loop. Only the nonzero matrices are densified, and a
    matrix object shared by many pairs (the zeros of build_block's
    normalization rows) is tested once. The compiled arrays are
    read-only: one operator is shared by everyone who reads the same
    BlockSdp (BlockSdp.operator).
    """

    __slots__ = ("dims", "n_rows", "active", "stacks", "slack_coeffs", "rhs")

    def __init__(self, rows, dims):
        self.dims = tuple(dims)
        self.n_rows = len(rows)
        self.active, self.stacks = [], []
        # rows may share one matrix object (build_block's zeros): test each once
        nonzero: dict[int, bool] = {}
        for bi, d in enumerate(self.dims):
            act = []
            for i, row in enumerate(rows):
                mat = row.mats[bi]
                hit = nonzero.get(id(mat))
                if hit is None:
                    hit = nonzero[id(mat)] = not mat.is_zero()
                if hit:
                    act.append(i)
            stack = np.array([rows[i].mats[bi].to_dense() for i in act])
            self.active.append(_frozen(np.array(act, dtype=np.intp)))
            self.stacks.append(_frozen(stack.reshape(len(act), d, d)))
        self.slack_coeffs = _frozen(np.array([float(r.slack_coeff) for r in rows]))
        self.rhs = _frozen(np.array([float(r.rhs) for r in rows]))

    def with_row(self, mats) -> "RowOperator":
        """This operator plus one equality row (index n_rows, rhs 0) whose
        matrix on block b is mats[b]; the other rows' arrays are shared."""
        out = object.__new__(RowOperator)
        out.dims, out.n_rows = self.dims, self.n_rows + 1
        out.active, out.stacks = [], []
        for act, stack, mat in zip(self.active, self.stacks, mats):
            if not mat.is_zero():
                act = _frozen(np.append(act, self.n_rows))
                stack = _frozen(np.concatenate([stack, mat.to_dense()[None]]))
            out.active.append(act)
            out.stacks.append(stack)
        out.slack_coeffs = _frozen(np.append(self.slack_coeffs, 0.0))
        out.rhs = _frozen(np.append(self.rhs, 0.0))
        return out

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


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.cache
def _corner_matrix(dim: int) -> SymMatrix:
    """The unit corner matrix of one dimension (immutable, so shared)."""
    e = np.zeros((dim, dim))
    e[dim - 1, dim - 1] = 1.0
    return SymMatrix.from_dense(e)


def _warn_dropped(b: BlockSdp) -> BlockSdp:
    """Warn about b's dropped rows at the innermost line outside this
    package on the call stack: the caller of the public builder, or of
    judge when judge built the relaxation."""
    if b.dropped_rows:
        level, frame = 1, sys._getframe()
        while frame is not None and os.path.dirname(frame.f_code.co_filename) == _HERE:
            level, frame = level + 1, frame.f_back
        warnings.warn(
            f"dropping identically-zero rows with zero rhs: {list(b.dropped_rows)}",
            stacklevel=level,
        )
    return b


def build_shor(q: Qcqp) -> BlockSdp:
    """Relaxation of one inhomogeneous QCQP, built as the connection of its
    single entry: one (n+1)-dim PSD block, row k reading
    <B_k, X> (+/- slack) = rhs_k, and a last row pinning the corner
    X_{n+1,n+1} to 1, so rank-one feasible X are exactly lifted points."""
    return _warn_dropped(_relax(SeparableQcqp([q], q.rhs)))


def build_hom(h: HomSepQcqp) -> BlockSdp:
    """Relaxation of a homogeneous separable QCQP, built as the connection
    of its single entry: one PSD block per q, coupled rows only, no
    normalization."""
    return _warn_dropped(_relax(SeparableQcqp([h], h.rhs)))


def build_block(s: SeparableQcqp) -> BlockSdp:
    """Relaxation of a connected QCQP.

    Each inhomogeneous entry contributes one (n^p+1)-dim block plus a
    normalization row; each homogeneous entry contributes its q blocks and
    no normalization rows. Coupled row k sums every block's inner product
    against the shared rhs gamma_k. A coupled row whose matrices are all
    identically zero and whose rhs is exactly 0 is vacuous under any
    relation; it is dropped (with a warning), since keeping it would make
    the solver's linear algebra needlessly singular.
    """
    return _warn_dropped(_relax(s))


def _relax(s: SeparableQcqp) -> BlockSdp:
    """build_block's relaxation, without the warning.

    A normalization row is zero on every block but its own. SymMatrix is
    immutable, so those zeros are one matrix per block dimension, shared
    by all P rows, and the unit corner one per dimension too.
    """
    dims: list[int] = []
    owner: list[int] = []
    obj: list[SymMatrix] = []
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

    rows, dropped = [], []
    for k, rel in enumerate(s.relations):
        mats = [mat for entry in per_entry_row_mats for mat in entry[k]]
        rhs = float(s.gamma[k])
        if rhs == 0.0 and all(m.is_zero() for m in mats):
            dropped.append(k)
        else:
            rows.append(Row(tuple(mats), _SLACK_COEFF[rel], rhs, origin=k))

    norm_indices = set()
    zero_row = None
    b0 = 0
    for p, blk in enumerate(s.blocks):
        if isinstance(blk, Qcqp):
            if zero_row is None:
                zero = {d: SymMatrix.zeros(d) for d in set(dims)}
                zero_row = [zero[d] for d in dims]
            mats = list(zero_row)
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
    slacks enter with +1. Block structure, row count, row order, and the
    optimal value are preserved.

    A standard-form input is returned unchanged, and any other input
    gets its standard form built once and kept, so every caller (the
    solver, rank reduction, judge) reads the same BlockSdp and with it
    the same compiled operator.
    """
    if b._standard is not None:
        return b._standard
    if all(row.slack_coeff != -1 for row in b.rows):
        return b
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
    std = BlockSdp(
        b.block_dims,
        b.objective,
        rows,
        normalization_rows=b.normalization_rows,
        block_owner=b.block_owner,
        dropped_rows=b.dropped_rows,
    )
    b._standard = std
    return std
