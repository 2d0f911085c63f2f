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
import os
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, RangeError, StructureError
from .qcqp_model import HomSepQcqp, Qcqp, Relation, SeparableQcqp, _check_finite

#: the package's directory, which dropped-row warnings look past
_HERE = os.path.dirname(__file__)

#: slack coefficient per relation: <A,X> + c*s = rhs with s >= 0
_SLACK_COEFF = {Relation.LE: 1.0, Relation.EQ: 0.0, Relation.GE: -1.0}


class BlockSdp:
    """Linear SDP over a product of PSD blocks plus per-row scalar slacks.

    minimize   sum_b <objective[b], X_b>
    subject to sum_b <A_ib, X_b> + c_i * s_i = rhs_i,
               X_b PSD, s_i >= 0 where c_i is not 0.

    The rows are operator, a RowOperator: per block, the rows whose matrix
    there is not identically zero and those matrices stacked, plus each
    row's slack coefficient c_i (-1, 0 or 1), rhs and origin (the 0-based
    index of the QCQP constraint the row encodes, or -1 for a
    normalization row and for every row of a hand-built problem, which
    from_rows compiles). normalization_rows indexes the corner-pinning
    equality rows. dropped_rows records original constraint indices
    removed because both their matrices and rhs were identically zero.

    An instance is treated as immutable: its standard form
    (to_standard_form) is computed once and kept on it.
    """

    __slots__ = (
        "block_dims",
        "objective",
        "operator",
        "normalization_rows",
        "dropped_rows",
        "_standard",
    )

    def __init__(self, block_dims, objective, operator, normalization_rows=(),
                 dropped_rows=()):
        block_dims = tuple(int(d) for d in block_dims)
        objective = tuple(objective)
        if len(objective) != len(block_dims):
            raise DimensionError(
                f"{len(objective)} objective blocks for {len(block_dims)} dims"
            )
        for b, (mat, d) in enumerate(zip(objective, block_dims)):
            if d < 1:
                raise DimensionError(f"block {b} dim {d}: dimensions must be positive")
            if mat.dim != d:
                raise DimensionError(f"objective block {b} dim {mat.dim} != {d}")
        if operator.dims != block_dims:
            raise DimensionError(f"rows over dims {list(operator.dims)}")
        coeffs = operator.slack_coeffs
        for i in np.flatnonzero((coeffs != 0.0) & (np.abs(coeffs) != 1.0)):
            raise StructureError(f"row {i} slack coefficient {coeffs[i]:g}")
        _check_finite("rhs", operator.rhs)
        for b, (act, stack) in enumerate(zip(operator.active, operator.stacks)):
            if not np.isfinite(stack).all():
                i = act[~np.isfinite(stack).all(axis=(1, 2))][0]
                raise RangeError(f"row {i} block {b}: matrix entries must be finite")
        normalization_rows = frozenset(int(i) for i in normalization_rows)
        for i in normalization_rows:
            if not 0 <= i < operator.n_rows:
                raise StructureError(f"normalization row index {i} out of range")
            if coeffs[i] != 0:
                raise StructureError(f"normalization row {i} carries a slack")
        self.block_dims = block_dims
        self.objective = objective
        self.operator = operator
        self.normalization_rows = normalization_rows
        self.dropped_rows = tuple(int(k) for k in dropped_rows)
        self._standard = None

    @classmethod
    def from_rows(cls, block_dims, objective, rows, **kw) -> "BlockSdp":
        """A hand-built problem: rows lists (mats, slack_coeff, rhs) with one
        SymMatrix per block in mats, compiled pair by pair. The keywords
        are __init__'s."""
        dims = tuple(int(d) for d in block_dims)
        rows = list(rows)
        for i, (mats, _, _) in enumerate(rows):
            if len(mats) != len(dims):
                raise DimensionError(f"row {i} has {len(mats)} blocks")
            for b, (mat, d) in enumerate(zip(mats, dims)):
                if mat.dim != d:
                    raise DimensionError(f"row {i} block {b} dim {mat.dim} != {d}")
        active = [
            [i for i, (mats, _, _) in enumerate(rows) if not mats[b].is_zero()]
            for b in range(len(dims))
        ]
        stacks = [
            np.array([rows[i][0][b].array for i in act]).reshape(len(act), d, d)
            for b, (act, d) in enumerate(zip(active, dims))
        ]
        op = RowOperator(
            dims, active, stacks, [float(c) for _, c, _ in rows],
            [float(r) for _, _, r in rows], [-1] * len(rows),
        )
        return cls(dims, objective, op, **kw)

    @property
    def n_blocks(self) -> int:
        return len(self.block_dims)

    @property
    def n_rows(self) -> int:
        return self.operator.n_rows

    def __repr__(self) -> str:
        return (
            f"BlockSdp(dims={list(self.block_dims)}, rows={self.n_rows}, "
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
    """The rows of a block SDP as per-block stacks.

    For every block b, active[b] lists (ascending) the rows whose matrix on
    b is not identically zero and stacks[b] holds those matrices densely as
    one (k, d, d) array, as SDPT3 keeps one stacked constraint matrix per
    block. slack_coeffs, rhs and origins hold one entry per row. Row sums
    run over the active blocks in block order, one np.sum(A * X) per (row,
    block) pair, so their roundoff is that of the plain double loop. The
    arrays are read-only: one operator is shared by everyone who reads the
    same BlockSdp.
    """

    __slots__ = ("dims", "n_rows", "active", "stacks", "slack_coeffs", "rhs", "origins")

    def __init__(self, dims, active, stacks, slack_coeffs, rhs, origins):
        self.dims = tuple(dims)
        self.active = [_frozen(np.asarray(a, dtype=np.intp)) for a in active]
        self.stacks = [_frozen(np.asarray(s, dtype=np.float64)) for s in stacks]
        self.slack_coeffs = _frozen(np.asarray(slack_coeffs, dtype=np.float64))
        self.rhs = _frozen(np.asarray(rhs, dtype=np.float64))
        self.origins = _frozen(np.asarray(origins, dtype=np.intp))
        self.n_rows = len(self.rhs)

    def with_row(self, mats) -> "RowOperator":
        """This operator plus one equality row (index n_rows, rhs 0, origin
        -1) whose matrix on block b is mats[b]; the other rows' arrays are
        shared."""
        active, stacks = list(self.active), list(self.stacks)
        for b, mat in enumerate(mats):
            if not mat.is_zero():
                active[b] = np.concatenate((active[b], (self.n_rows,)))
                stacks[b] = np.concatenate((stacks[b], mat.array[None]))
        return RowOperator(
            self.dims, active, stacks, np.append(self.slack_coeffs, 0.0),
            np.append(self.rhs, 0.0), np.append(self.origins, -1),
        )

    def take(self, keep) -> "RowOperator":
        """The operator of the rows keep (ascending), renumbered 0..;
        the operator itself where keep is every row."""
        keep = np.asarray(keep, dtype=np.intp)
        if len(keep) == self.n_rows:
            return self
        pos = np.full(self.n_rows, -1, dtype=np.intp)
        pos[keep] = np.arange(len(keep))
        sel = [pos[act] >= 0 for act in self.active]
        return RowOperator(
            self.dims,
            [pos[act[s]] for act, s in zip(self.active, sel)],
            [stack[s] for stack, s in zip(self.stacks, sel)],
            self.slack_coeffs[keep], self.rhs[keep], self.origins[keep],
        )

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

    Entries share only the right-hand sides, so every row's matrix on a
    block is a matrix of the entry that owns the block. Each block's stack
    is written from that entry alone: the matrices of its coupled rows
    that are not identically zero, then, on an inhomogeneous entry's
    block, the unit corner of the entry's normalization row. The coupled
    rows come first, the normalization rows after them in entry order.
    """
    m = s.m
    objective, by_row, pinned = [], [], []
    for entry in s.blocks:
        pin = isinstance(entry, Qcqp)
        if pin:
            groups = [[entry.objective.B] + [f.B for f, _ in entry.constraints]]
        else:
            groups = entry.blocks
        for mats in groups:
            d = mats[0].dim
            objective.append(mats[0])
            # row k's matrix on this block at k
            by_row.append(np.array([c.array for c in mats[1:]]).reshape(m, d, d))
            pinned.append(pin)
    live = np.array([a.any(axis=(1, 2)) for a in by_row]).reshape(len(by_row), m)
    vacuous = (s.gamma == 0.0) & ~live.any(axis=0)
    kept = np.flatnonzero(~vacuous)
    row_of = np.cumsum(~vacuous) - 1
    n_norm = sum(pinned)
    norm_of = len(kept) + np.cumsum(pinned) - 1

    active, stacks = [], []
    for a, hit, pin, norm in zip(by_row, live, pinned, norm_of):
        act, stack = row_of[hit], a[hit]
        if pin:
            d = a.shape[-1]
            corner = np.zeros((1, d, d))
            corner[0, d - 1, d - 1] = 1.0
            act, stack = np.append(act, norm), np.concatenate((stack, corner))
        active.append(act)
        stacks.append(stack)
    slack = np.array([_SLACK_COEFF[rel] for rel in s.relations])
    op = RowOperator(
        [mat.dim for mat in objective],
        active,
        stacks,
        np.concatenate((slack[kept], np.zeros(n_norm))),
        np.concatenate((s.gamma[kept], np.ones(n_norm))),
        np.concatenate((kept, np.full(n_norm, -1))),
    )
    return BlockSdp(
        op.dims,
        objective,
        op,
        normalization_rows=range(len(kept), len(kept) + n_norm),
        dropped_rows=np.flatnonzero(vacuous),
    )


def to_standard_form(b: BlockSdp) -> BlockSdp:
    """Rewrite every inequality row as an equality with a nonnegative slack.

    Rows with slack coefficient -1 (originally >=) are negated so all
    slacks enter with +1: their rhs, and their matrices in every stack as
    -1.0 * A. Block structure, row count, row order, origins and the
    optimal value are preserved.

    A standard-form input is returned unchanged, and any other input
    gets its standard form built once and kept, so every caller (the
    solver, rank reduction, judge) reads the same BlockSdp and with it
    the same operator.
    """
    if b._standard is not None:
        return b._standard
    op = b.operator
    flip = op.slack_coeffs == -1.0
    if not flip.any():
        return b
    stacks = []
    for act, stack in zip(op.active, op.stacks):
        neg = flip[act]
        if neg.any():
            stack = stack.copy()
            stack[neg] = -1.0 * stack[neg]
        stacks.append(stack)
    std = BlockSdp(
        b.block_dims,
        b.objective,
        RowOperator(
            op.dims, op.active, stacks, np.where(flip, 1.0, op.slack_coeffs),
            np.where(flip, -op.rhs, op.rhs), op.origins,
        ),
        normalization_rows=b.normalization_rows,
        dropped_rows=b.dropped_rows,
    )
    b._standard = std
    return std
