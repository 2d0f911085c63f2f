"""Primal-dual interior-point solver for batches of block SDPs.

Solves min sum_b <C_b, X_b> over PSD blocks plus nonnegative row slacks,
subject to the equality rows of a standardized BlockSdp. The method is an
infeasible-start path follower using the Nesterov-Todd scaling point, with
an adaptive centering weight chosen from an affine probe step (the probe
and the centering step share one factorization of the Schur complement).

solve_many runs a batch of problems in lockstep, one iteration of every
unfinished problem at a time. Each problem's rows are the RowOperator of
its standard form (BlockSdp.operator, compiled once and read again by
rank reduction), and the blocks of one dimension, over all problems of
the batch, live in one (g, d, d) stack (X and S of a group in one
(2g, d, d) stack). Step lengths, mu, the centering weight and the
stopping tests stay per problem, and a finished problem leaves the
stacks. Every sum is taken in the order of the one-problem loops (a row's
pairs in block order, a block's rows in row order) and every LAPACK call
factors one matrix at a time, so a problem's iterates do not depend on
the batch around it. solve is solve_many of a single problem. Slacks are
scalar cones with their own vectors.

Call budget of one iteration. Per dimension group: 2 eigh (NT scaling),
1 inv (S^-1), 1 Cholesky of the (X, S) stack, and 2 x (2 solve + 1
eigvalsh) for the affine and the centering step lengths. Per run of
problems with equal row and slack counts: 1 Schur Cholesky and 2 x 2
solve for the two directions. Around these, each group writes straight
into the shared row-sum, Schur, block-sum and step-length tables, and one
scan of each new iterate serves both the non-finite test and the next
divergence test.

Bit-identity rule. The iteration is pinned to its loop-shaped form
(tests/test_sdp_iteration.py keeps it as the reference): a change that
trims numpy calls keeps every floating-point operation, its operands and
their order, so every SdpSolution stays the same bit for bit. Rewrites
that only hold in exact arithmetic are out, such as reusing an inverted
Cholesky factor or summing in another order. A stacked dot product
(np.matmul of (n, 1, k) rows by a (k, 1) column) equals np.dot of each
row only when the rows are C-contiguous: matmul then hands each row to
BLAS's dot, and otherwise sums it in its own loop, in another order.
Rows gathered by fancy indexing can come out in Fortran order (take()
along the last axis, or np.ascontiguousarray, keeps them C), and a
matrix-vector product (prod @ w) goes through gemv, which sums in
another order too. Dropping a symmetrization of an exactly symmetric
matrix is allowed only where the overflow it would cause (an entry
beyond half the largest double) keeps its outcome: the new X and S skip
it, and the scan counts such an entry as non-finite.
tools/pool_digest.py checks every benchmark pool instance and the
command-line reports.

The centering weight min(1, max((mu_aff / mu)^3, 0)) is clamped before
the cube where the ratio leaves [-1, 1], so a wildly scaled problem
stops with a status instead of overflowing a Python float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InfeasibleStructureError, SepqcqpError
from .sdpr_builder import (
    BlockSdp,
    RowOperator,
    SdpSolution,
    SolveStatus,
    to_standard_form,
)
from .symkernel import SymMatrix

#: iterate magnitude cap; beyond this the run is flagged Diverged
_DIVERGE_CAP = 1e10

#: half the largest double: symmetrizing an entry beyond it overflows
_HALF_MAX = np.finfo(float).max / 2

_LinAlgError = np.linalg.LinAlgError


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-8
    max_iter: int = 200
    initial_scale: float = 10.0
    step_fraction: float = 0.98

    def __post_init__(self):
        # written so that a NaN fails them
        if not 0.0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")
        if not 0.0 < self.step_fraction < 1.0:
            raise ValueError("step_fraction must lie in (0, 1)")
        if isinstance(self.max_iter, bool) or not isinstance(self.max_iter, int):
            raise ValueError("max_iter must be an integer")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not 0.0 < self.initial_scale < math.inf:
            raise ValueError("initial_scale must be positive and finite")


def _presolve(op: RowOperator) -> list[int]:
    """Return indices of a maximal independent row subset.

    Raises InfeasibleStructureError when the equality system is rank-
    inconsistent (a dependent row with a conflicting rhs). Dependent but
    consistent rows are dropped; they are implied by the kept ones and
    receive zero dual multipliers.
    """
    mat, rhs = op.dense(), op.rhs
    if mat.shape[0] == 0:
        return []
    rank_a = np.linalg.matrix_rank(mat)
    if rank_a == mat.shape[0]:
        # full row rank: no rhs can contradict the rows
        return list(range(mat.shape[0]))
    if np.linalg.matrix_rank(np.hstack([mat, rhs[:, None]])) > rank_a:
        raise InfeasibleStructureError(
            "equality rows are contradictory (rank test on [rows | rhs])"
        )
    kept: list[int] = []
    stack = np.zeros((0, mat.shape[1]))
    for i in range(mat.shape[0]):
        trial = np.vstack([stack, mat[i]])
        if np.linalg.matrix_rank(trial) > stack.shape[0]:
            kept.append(i)
            stack = trial
    return kept


# ---------------------------------------------------------------------------
# stacked matrix kernels; every argument is a (..., d, d) stack


def _tr(a: np.ndarray) -> np.ndarray:
    return a.swapaxes(-1, -2)


def _sym(a: np.ndarray, out=None) -> np.ndarray:
    return np.multiply(0.5, a + _tr(a), out=out)


def _nt_scaling(x: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Nesterov-Todd scaling points W with W S W = X, all arguments PD.
    u * r[..., None, :] scales the columns of u: the product u @ diag(r)."""
    lam, u = np.linalg.eigh(s)
    root = np.sqrt(np.maximum(lam, 1e-300))
    rt = (u * root[..., None, :]) @ _tr(u)
    irt = (u * (1.0 / root)[..., None, :]) @ _tr(u)
    om, v = np.linalg.eigh(_sym(rt @ x @ rt))
    om = np.maximum(om, 1e-300)
    return irt @ ((v * np.sqrt(om)[..., None, :]) @ _tr(v)) @ irt


def _psd_factor(x: np.ndarray) -> np.ndarray:
    """Cholesky factor of one PSD matrix, with a trace-scaled ridge when
    it is singular to working precision."""
    try:
        return np.linalg.cholesky(x)
    except _LinAlgError:
        ridge = 1e-12 * max(1.0, np.trace(x).real)
        return np.linalg.cholesky(x + ridge * np.eye(len(x)))


def _boundary_eig(chol: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of chol^-1 dx chol^-T (symmetrized), from which
    _boundary_steps reads the largest t with x + t*dx still PSD, for
    x = chol chol^T. h is that matrix transposed, and _sym(h) is the same
    either way round."""
    h = np.linalg.solve(chol, _tr(np.linalg.solve(chol, dx)))
    return np.linalg.eigvalsh(_sym(h))[..., 0]


def _boundary_steps(lam_min: np.ndarray) -> np.ndarray:
    """The step lengths of smallest eigenvalues (inf when dx points
    inward); an inf eigenvalue gives an inf step."""
    return np.where(lam_min >= -1e-14, np.inf, -1.0 / lam_min)


def _guarded(fn, owner, failed, *stacks, one=None):
    """fn over stacks of matrices. When LAPACK rejects the stack, retry
    slot by slot (with one, if given) and mark the owners of the slots
    that still fail; their results are those of identity inputs."""
    try:
        return fn(*stacks)
    except _LinAlgError:
        pass
    one = one or fn
    out = []
    for j, p in enumerate(owner):
        args = [a[j] for a in stacks]
        try:
            out.append(one(*args))
        except _LinAlgError:
            failed[p] = True
            out.append(fn(*[np.eye(*a.shape) for a in args]))
    return np.stack(out)


def _schur_factor(m: np.ndarray) -> np.ndarray | None:
    """Cholesky factor of one Schur complement, ridged in three widening
    steps when it is not numerically positive definite; None on failure."""
    reg = 0.0
    base = 1e-12 * (1.0 + np.abs(np.diag(m)).max(initial=0.0))
    for attempt in range(4):
        try:
            return np.linalg.cholesky(m + reg * np.eye(len(m)))
        except _LinAlgError:
            reg = base * (100.0 ** attempt) if reg else base
    return None


def _left_sum(table: np.ndarray) -> np.ndarray:
    """Row sums of a table added left to right from +0.0, as Python's sum
    adds a generator."""
    if table.shape[1] > 1:
        table = np.add.accumulate(table, axis=1)
    return table[:, -1] + 0.0


def _first_or(reduce, table: np.ndarray) -> np.ndarray:
    """Python's min/max over each row (reduce is np.fmin or np.fmax): NaN
    when the first entry is NaN, later NaNs skipped."""
    out = reduce.reduce(table, axis=1)
    out[np.isnan(table[:, 0])] = np.nan
    return out


def _py_min(a: np.ndarray, b) -> np.ndarray:
    """Python's min(a, b), elementwise."""
    return np.where(b < a, b, a)


# ---------------------------------------------------------------------------
# compiled problems and the batch layout


class _Problem:
    """One BlockSdp standardized, presolved and compiled for the iteration
    (full is the standard form's shared, read-only operator)."""

    def __init__(self, index: int, b: BlockSdp):
        self.index = index
        self.b = b
        std = to_standard_form(b)
        self.full = std.operator
        self.kept = _presolve(self.full)
        op = self.full.take(self.kept)
        self.dims = std.block_dims
        self.C = [mat.to_dense() for mat in std.objective]
        self.active, self.stacks = op.active, op.stacks
        self.m = op.n_rows
        self.d_vec = op.rhs
        self.slack_rows = np.flatnonzero(op.slack_coeffs)
        self.n_slack = len(self.slack_rows)
        self.n_tot = max(sum(self.dims) + self.n_slack, 1)
        self.d_scale = 1.0 + np.abs(self.d_vec).max(initial=0.0)
        self.c_scale = 1.0 + max((np.linalg.norm(c) for c in self.C), default=0.0)


class _Group:
    """The blocks of one dimension over the batch, one slot per block.

    owner[j] and block[j] name slot j's problem and its block index there
    (owner_col is owner as an (n, 1, 1) index); the group's X and S live
    in one (2n, d, d) stack, X slots first, whose slots belong to owner2
    and take their step length from entry step_at of the (primal, dual)
    step lengths. A[k, j] is the k-th active row matrix of slot j (zero
    padding past its count), rows[k, j, 0, 0] that row's global index
    (padding points at the zero past the multipliers). row_at, schur_at,
    blk_at and cell_blk are slot j's cells of the row-sum, Schur, block-sum
    and per-problem tables (padding lands in a spare last row); blk_at2
    and cell_xs are the X and S slots' cells of the two-halved block-sum
    and step-length tables.
    """

    __slots__ = (
        "dim", "n", "owner", "owner_col", "owner2", "step_at", "block", "C",
        "A", "rows", "row_at", "schur_at", "blk_at", "blk_at2", "cell_blk",
        "cell_xs",
    )


class _Layout:
    """Where each problem of a batch lives in the stacked arrays.

    Problems are ordered by (rows, slacks), so the rows, slacks and Schur
    matrices of a run of equal shapes are contiguous and stack as
    (count, m, ...) arrays. Sums over a problem's blocks go through
    tables with one column per block index, summed left to right. The
    vector part of an iterate is one array [s | sig | y | 0]; its
    sections start at 0, NS and 2 NS.
    """

    def __init__(self, probs: list):
        self.probs = probs
        P = self.P = len(probs)
        m = np.array([p.m for p in probs], dtype=np.intp)
        ns = np.array([p.n_slack for p in probs], dtype=np.intp)
        self.row_off = np.concatenate(([0], np.cumsum(m)))
        self.slk_off = np.concatenate(([0], np.cumsum(ns)))
        sq_off = np.concatenate(([0], np.cumsum(m * m)))
        R = self.R = int(self.row_off[-1])
        NS = self.NS = int(self.slk_off[-1])
        NM = self.NM = int(sq_off[-1])
        nb = self.nb = max([1] + [len(p.dims) for p in probs])
        # runs of equal (rows, slacks): (first, end, rows, slacks, their
        # rows, slacks and Schur cells)
        self.runs = []
        start = 0
        for i in range(1, P + 1):
            if i == P or m[i] != m[start] or ns[i] != ns[start]:
                self.runs.append((
                    start, i, int(m[start]), int(ns[start]),
                    slice(self.row_off[start], self.row_off[i]),
                    slice(self.slk_off[start], self.slk_off[i]),
                    slice(sq_off[start], sq_off[i]),
                ))
                start = i

        self.d_vec = np.concatenate([p.d_vec for p in probs])
        self.slack_row = np.concatenate(
            [self.row_off[i] + p.slack_rows for i, p in enumerate(probs)]
        ).astype(np.intp)
        self.slack_diag = np.concatenate(
            [sq_off[i] + p.slack_rows * (p.m + 1) for i, p in enumerate(probs)]
        ).astype(np.intp)
        self.row_owner = np.repeat(np.arange(P), m)
        self.slack_owner = np.repeat(np.arange(P), ns)
        # entries of the (primal, dual) step lengths that move s, sig, y
        # and the zero past y
        self.vec_step_at = np.concatenate(
            (self.slack_owner, self.slack_owner + P, self.row_owner + P, [0])
        )
        # per-problem tables: block columns, then slack columns (at least
        # one), then rows; two-halved tables stack an X (s, y) half on an
        # S (sig) half
        wide_s = max(1, int(ns.max()))
        W = self.W = nb + wide_s + int(m.max())
        self.slk_cols = slice(nb, nb + wide_s)
        self.row_cols = slice(nb + wide_s, W)
        self.cell_slk = self.slack_owner * W + nb + (
            np.arange(NS) - self.slk_off[self.slack_owner]
        )
        self.cell_row = self.row_owner * W + nb + wide_s + (
            np.arange(R) - self.row_off[self.row_owner]
        )
        self.cell_slk2 = np.concatenate((self.cell_slk, self.cell_slk + P * W))
        self.cell_vec = np.concatenate((self.cell_slk2, self.cell_row))
        self.n_tot = np.array([float(p.n_tot) for p in probs])
        self.d_scale = np.array([p.d_scale for p in probs])
        self.c_scale = np.array([p.c_scale for p in probs])

        by_dim: dict[int, list] = {}
        for i, p in enumerate(probs):
            for bi, d in enumerate(p.dims):
                by_dim.setdefault(d, []).append((i, bi))
        self.where = [[None] * len(p.dims) for p in probs]
        self.groups = []
        for d in sorted(by_dim):
            slots = by_dim[d]
            g = len(slots)
            acts = [probs[i].active[bi] for i, bi in slots]
            ks = np.array([len(act) for act in acts], dtype=np.intp)
            kmax = int(ks.max())
            grp = _Group()
            grp.dim, grp.n = d, g
            grp.owner = np.array([i for i, _ in slots], dtype=np.intp)
            grp.owner_col = grp.owner[:, None, None]
            grp.owner2 = np.concatenate((grp.owner, grp.owner))
            grp.step_at = np.concatenate((grp.owner, grp.owner + P))[:, None, None]
            grp.block = np.array([bi for _, bi in slots], dtype=np.intp)
            grp.C = np.stack([probs[i].C[bi] for i, bi in slots])
            for j, (i, bi) in enumerate(slots):
                self.where[i][bi] = (len(self.groups), j)
            # every slot's active rows at once: pair t is row kk[t] of slot
            # jj[t]; act_at[j, k] is slot j's k-th active row
            jj = np.repeat(np.arange(g), ks)
            kk = np.arange(len(jj)) - np.repeat(np.cumsum(ks) - ks, ks)
            act_at = np.zeros((g, kmax), dtype=np.intp)
            act_at[jj, kk] = np.concatenate(acts)
            rows = self.row_off[grp.owner][jj] + act_at[jj, kk]
            grp.A = np.zeros((kmax, g, d, d))
            grp.A[kk, jj] = np.concatenate([probs[i].stacks[bi] for i, bi in slots])
            grp.rows = np.full((kmax, g, 1, 1), R, dtype=np.intp)
            grp.rows[kk, jj, 0, 0] = rows
            grp.row_at = np.full((kmax, g), R * nb, dtype=np.intp)
            grp.row_at[kk, jj] = rows * nb + grp.block[jj]
            # (row a, row b) cells of each slot's Schur block
            col = (
                sq_off[grp.owner][:, None, None]
                + act_at[:, :, None] * m[grp.owner][:, None, None]
                + act_at[:, None, :]
            ) * nb + grp.block[:, None, None]
            live = np.arange(kmax) < ks[:, None]
            grp.schur_at = np.where(
                live[:, :, None] & live[:, None, :], col, NM * nb
            )
            grp.blk_at = grp.owner * nb + grp.block
            grp.blk_at2 = np.concatenate((grp.blk_at, grp.blk_at + P * nb))
            grp.cell_blk = grp.owner * W + grp.block
            grp.cell_xs = np.concatenate((grp.cell_blk, grp.cell_blk + P * W))
            self.groups.append(grp)

    # -- sums and extremes in the order of the one-problem loops ------------

    def row_sums(self, parts) -> np.ndarray:
        """sum over blocks of the (row, block) pair values, per row."""
        table = np.zeros((self.R + 1) * self.nb)
        for g, part in zip(self.groups, parts):
            table[g.row_at] = part
        return _left_sum(table.reshape(self.R + 1, self.nb))[: self.R]

    def schur(self, parts) -> np.ndarray:
        """Every problem's Schur matrix, flat, summed over blocks in order."""
        table = np.zeros((self.NM + 1) * self.nb)
        for g, part in zip(self.groups, parts):
            table[g.schur_at] = part
        return _left_sum(table.reshape(self.NM + 1, self.nb))[: self.NM]

    def block_sums(self, parts, halves: int = 1) -> np.ndarray:
        """sum over blocks of the per-slot values, per problem: (halves, P).
        With two halves, each group's part holds its X slots' values, then
        its S slots'."""
        table = np.zeros(halves * self.P * self.nb)
        for g, part in zip(self.groups, parts):
            table[g.blk_at2 if halves == 2 else g.blk_at] = part
        return _left_sum(table.reshape(halves * self.P, self.nb)).reshape(halves, self.P)

    def dots(self, a: np.ndarray, b: np.ndarray, slack: bool) -> np.ndarray:
        """Per-problem a @ b over its slacks (or rows), one BLAS dot each."""
        out = np.empty(self.P)
        for p0, p1, m, ns, rows, slk, _ in self.runs:
            n, seg = (ns, slk) if slack else (m, rows)
            out[p0:p1] = np.matmul(
                a[seg].reshape(p1 - p0, 1, n), b[seg].reshape(p1 - p0, n, 1)
            )[:, 0, 0]
        return out


def _pairs(grp: _Group, z: np.ndarray) -> np.ndarray:
    """np.sum(A_i * Z) for every (active row, slot) pair of a group."""
    k, g, d = grp.A.shape[:3]
    return (grp.A * z).reshape(k, g, d * d).sum(axis=-1)


def _subtract_rows(grp: _Group, base: np.ndarray, yx: np.ndarray) -> np.ndarray:
    """base - y_i A_i over each slot's active rows, one row at a time
    (subtract.reduce over axis 0 subtracts the terms in order)."""
    terms = np.concatenate((base[None], yx[grp.rows] * grp.A))
    return np.subtract.reduce(terms, axis=0)


# ---------------------------------------------------------------------------
# the batched iteration


class _Batch:
    """Lockstep IPM state of the unfinished problems of one solve_many call.

    XS holds each group's (X, S) stack, vec the vector part [s | sig | y |
    0] (the zero is the multiplier padded rows read), and large marks the
    problems whose iterate has an entry beyond _DIVERGE_CAP.
    """

    def __init__(self, probs: list, opts: SolverOptions):
        self.opts = opts
        lay = self.lay = _Layout(sorted(probs, key=lambda p: (p.m, p.n_slack)))
        scale = opts.initial_scale
        self.XS = [
            np.repeat((scale * np.eye(g.dim))[None], 2 * g.n, axis=0)
            for g in lay.groups
        ]
        self.vec = np.concatenate(
            (scale * np.ones(2 * lay.NS), np.zeros(lay.R + 1))
        )
        self.large = self._scan(self.XS, self.vec)[1]
        self.history = {p.index: [] for p in probs}
        self.done: dict = {}

    def _record(self, mask, status, iterations, report):
        """Store the current iterate of the problems in mask as final."""
        lay, XS, vec, NS = self.lay, self.XS, self.vec, self.lay.NS
        for i in np.flatnonzero(mask):
            rows = slice(2 * NS + lay.row_off[i], 2 * NS + lay.row_off[i + 1])
            slk = slice(lay.slk_off[i], lay.slk_off[i + 1])
            self.done[lay.probs[i].index] = dict(
                status=status,
                iterations=iterations,
                X=[XS[gi][j].copy() for gi, j in lay.where[i]],
                S=[XS[gi][lay.groups[gi].n + j].copy() for gi, j in lay.where[i]],
                s=vec[slk].copy(),
                sig=vec[NS:][slk].copy(),
                y=vec[rows].copy(),
                value=report[0][i],
                dres=report[1][i],
                gap=report[2][i],
            )

    def _drop(self, keep):
        """Remove the problems outside keep from the state; returns the
        masks (rows, slacks, slots per group) that cut arrays laid out the
        old way, or None when nothing is left."""
        lay = self.lay
        rows, slk = keep[lay.row_owner], keep[lay.slack_owner]
        slots = [keep[g.owner] for g in lay.groups]
        self.XS = _cut(self.XS, [np.concatenate((k, k)) for k in slots])
        self.vec = self.vec[np.concatenate((slk, slk, rows, [True]))]
        self.large = self.large[keep]
        if not keep.any():
            self.lay = None
            return None
        self.lay = _Layout([p for p, k in zip(lay.probs, keep) if k])
        return rows, slk, slots

    def residuals(self):
        """Residuals, objectives and stopping tests at the current iterate:
        (report, mu, optimal, diverged, (r_p, rd, rds)), per problem, with
        report = (primal objective, dual residual, relative gap)."""
        lay, opts, XS, NS = self.lay, self.opts, self.XS, self.lay.NS
        s, sig, yx = self.vec[:NS], self.vec[NS : 2 * NS], self.vec[2 * NS :]
        y = yx[: lay.R]
        lhs = lay.row_sums([_pairs(g, xs[: g.n]) for g, xs in zip(lay.groups, XS)])
        lhs[lay.slack_row] += s
        r_p = lay.d_vec - lhs
        rd = [
            _subtract_rows(g, g.C, yx) - xs[g.n :] for g, xs in zip(lay.groups, XS)
        ]
        rds = -y[lay.slack_row] - sig

        # <C, X> and <X, S> of every slot as one stack [X; S] * [C; X]
        pobj, compl = lay.block_sums(
            [
                _inner(xs, np.concatenate((g.C, xs[: g.n])))
                for g, xs in zip(lay.groups, XS)
            ],
            halves=2,
        )
        dobj = lay.dots(lay.d_vec, y, slack=False)
        compl = compl + lay.dots(s, sig, slack=True)
        mu = compl / lay.n_tot
        # one table: |rd|^2 per slot, |rds| per slack, |r_p| per row
        table = np.zeros(lay.P * lay.W)
        for g, r in zip(lay.groups, rd):
            flat = r.reshape(len(r), 1, -1)
            table[g.cell_blk] = np.matmul(flat, _tr(flat))[:, 0, 0]
        table[lay.cell_slk] = np.abs(rds)
        table[lay.cell_row] = np.abs(r_p)
        table = table.reshape(lay.P, lay.W)
        pres = table[:, lay.row_cols].max(axis=1, initial=0.0)
        dres = _first_or(np.fmax, np.sqrt(table[:, : lay.nb]))
        dres_s = table[:, lay.slk_cols].max(axis=1)
        dres = np.where(dres_s > dres, dres_s, dres)
        gap = np.abs(pobj - dobj)
        gap = np.where(compl > gap, compl, gap) / (1.0 + np.abs(pobj) + np.abs(dobj))
        optimal = (
            (pres <= lay.d_scale * opts.tol)
            & (dres <= lay.c_scale * opts.tol)
            & (gap <= opts.tol)
        )
        diverged = ~optimal & self.large
        return (pobj, dres, gap), mu, optimal, diverged, (r_p, rd, rds)

    def _scan(self, XS, vec):
        """One pass over an iterate: (bad, large) per problem. bad marks a
        non-finite entry, or an X or S entry beyond half the largest double
        (where symmetrizing, 0.5 * (v + v), overflows); large marks an entry
        beyond _DIVERGE_CAP."""
        lay = self.lay
        peaks = [np.abs(xs).max() for xs in XS] + [np.abs(vec).max()]
        if all(p <= _DIVERGE_CAP for p in peaks):
            none = np.zeros(lay.P, dtype=bool)
            return none, none
        table = np.zeros(2 * lay.P * lay.W)
        for g, xs in zip(lay.groups, XS):
            table[g.cell_xs] = np.abs(xs).max(axis=(1, 2))
        table[lay.cell_vec] = np.abs(vec[:-1])
        table = table.reshape(2, lay.P, lay.W)
        blk = table[..., : lay.nb].max(axis=(0, 2))
        rest = table[..., lay.nb :].max(axis=(0, 2))
        bad = ~(blk <= _HALF_MAX) | ~np.isfinite(rest)
        return bad, np.maximum(blk, rest) > _DIVERGE_CAP

    def step(self, mu, r_p, rd, rds):
        """One predictor-corrector step of every problem in the stacks.

        Returns (failed, new XS, new vec); failed marks the problems whose
        linear algebra broke down, whose part of the new iterate is void.
        """
        lay, opts, XS, vec = self.lay, self.opts, self.XS, self.vec
        groups, NS, R = lay.groups, lay.NS, lay.R
        s, sig = vec[:NS], vec[NS : 2 * NS]
        failed = np.zeros(lay.P, dtype=bool)

        W = [
            _guarded(_nt_scaling, g.owner, failed, xs[: g.n], xs[g.n :])
            for g, xs in zip(groups, XS)
        ]
        w2 = s / sig
        s_inv = [_guarded(np.linalg.inv, g.owner, failed, xs[g.n :]) for g, xs in zip(groups, XS)]
        # X and S of a group factor as one stack, and their step lengths
        # come out of one stack too
        chol_xs = [
            _guarded(np.linalg.cholesky, g.owner2, failed, xs, one=_psd_factor)
            for g, xs in zip(groups, XS)
        ]

        # Schur complement M_ij = sum_b <A_i, W A_j W> (+ slack), per problem
        M = lay.schur(
            [np.einsum("kgab,lgab->gkl", g.A, w @ g.A @ w) for g, w in zip(groups, W)]
        )
        M[lay.slack_diag] += w2
        chols = []
        for p0, p1, m, _, _, _, sq in lay.runs:
            mr = M[sq].reshape(p1 - p0, m, m)
            try:
                chols.append(np.linalg.cholesky(mr))
                continue
            except _LinAlgError:
                pass
            out = []
            for j, mj in enumerate(mr):
                c = _schur_factor(mj)
                if c is None:
                    failed[p0 + j] = True
                    c = np.eye(m)
                out.append(c)
            chols.append(np.stack(out))

        wrw = [w @ r @ w for w, r in zip(W, rd)]

        def directions(tau):
            """Each group's (dX, dS) stack and the direction of vec."""
            e_blk = [
                tau[g.owner_col] * si - xs[: g.n] for g, si, xs in zip(groups, s_inv, XS)
            ]
            e_slk = tau[lay.slack_owner] / sig - s
            g_vec = lay.row_sums(
                [_pairs(g, e - t) for g, e, t in zip(groups, e_blk, wrw)]
            )
            g_vec[lay.slack_row] += e_slk - w2 * rds
            rhs = r_p - g_vec
            dvec = np.zeros(2 * NS + R + 1)
            dyx = dvec[2 * NS :]
            for (p0, p1, m, _, rows, _, _), c in zip(lay.runs, chols):
                dyx[rows] = _guarded(
                    _cholesky_solve, range(p0, p1), failed,
                    c, rhs[rows].reshape(p1 - p0, m, 1),
                ).ravel()
            dxs = []
            for g, r, e, w in zip(groups, rd, e_blk, W):
                d = np.empty((2 * g.n, g.dim, g.dim))
                ds = _sym(_subtract_rows(g, r, dyx), out=d[g.n :])
                _sym(e - w @ ds @ w, out=d[: g.n])
                dxs.append(d)
            dsig = np.subtract(rds, dyx[lay.slack_row], out=dvec[NS : 2 * NS])
            np.subtract(e_slk, w2 * dsig, out=dvec[:NS])
            return dxs, dvec

        def lengths(dxs, dvec):
            """Primal and dual step lengths, as one (2P,) array: the largest
            steps keeping the blocks PSD and the slacks nonnegative, cut
            back by the step fraction and capped at 1."""
            table = np.full(2 * lay.P * lay.W, np.inf)
            for g, c, d in zip(groups, chol_xs, dxs):
                table[g.cell_xs] = _guarded(_boundary_eig, g.owner2, failed, c, d)
            v, dv = vec[: 2 * NS], dvec[: 2 * NS]
            table[lay.cell_slk2] = np.where(dv < 0, -v / dv, np.inf)
            table = table.reshape(2 * lay.P, lay.W)
            blk = _first_or(np.fmin, _boundary_steps(table[:, : lay.nb]))
            t = _py_min(blk, table[:, lay.nb :].min(axis=1))
            return _py_min(1.0, opts.step_fraction * t)

        def moved(t, dxs):
            return [xs + t[g.step_at] * d for g, xs, d in zip(groups, XS, dxs)]

        # affine probe fixes the centering weight
        dxa, dva = directions(np.zeros(lay.P))
        ta = lengths(dxa, dva)
        (tr_aff,) = lay.block_sums(
            [_inner(xs[: g.n], xs[g.n :]) for g, xs in zip(groups, moved(ta, dxa))]
        )
        sa = vec[: 2 * NS] + ta[lay.vec_step_at[: 2 * NS]] * dva[: 2 * NS]
        tr_aff = tr_aff + lay.dots(sa[:NS], sa[NS:], slack=True)
        mu_aff = tr_aff / lay.n_tot
        sigma = np.array(
            [_centering(a, m) for a, m in zip(mu_aff.tolist(), mu.tolist())]
        )

        dxs, dvec = directions(sigma * mu)
        t = lengths(dxs, dvec)
        return failed, moved(t, dxs), vec + t[lay.vec_step_at] * dvec

    def run(self) -> dict:
        """Iterate until every problem has stopped; returns the final
        records by problem index."""
        # overflow in a diverging run is detected by the finite-iterate guard
        # below; suppress the intermediate warnings it would spray
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for it in range(1, self.opts.max_iter + 1):
                report, mu, optimal, diverged, (r_p, rd, rds) = self.residuals()
                for p, v in zip(self.lay.probs, mu.tolist()):
                    self.history[p.index].append(v)
                stop = optimal | diverged
                if stop.any():
                    self._record(optimal, SolveStatus.OPTIMAL, it, report)
                    self._record(diverged, SolveStatus.DIVERGED, it, report)
                    cut = self._drop(~stop)
                    if cut is None:
                        break
                    rows, slk, slots = cut
                    report = [r[~stop] for r in report]
                    mu, r_p, rds, rd = mu[~stop], r_p[rows], rds[slk], _cut(rd, slots)

                failed, XS, vec = self.step(mu, r_p, rd, rds)
                nonfinite, self.large = self._scan(XS, vec)
                bad = ~failed & nonfinite
                self._record(failed, SolveStatus.NUMERICAL_FAILURE, it, report)
                self._record(bad, SolveStatus.DIVERGED, it, report)
                self.XS, self.vec = XS, vec
                stop = failed | bad
                if stop.any():
                    if self._drop(~stop) is None:
                        break
                    report = [r[~stop] for r in report]
            else:
                self._record(
                    np.ones(self.lay.P, dtype=bool), SolveStatus.MAX_ITER,
                    self.opts.max_iter, report,
                )
        return self.done


def _cut(per_group: list, slots: list) -> list:
    """Per-group stacks restricted to the kept slots; emptied groups go."""
    return [a[k] for a, k in zip(per_group, slots) if k.any()]


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.sum(a_j * b_j) per slot."""
    return (a * b).reshape(len(a), -1).sum(axis=1)


def _centering(mu_aff: float, mu: float) -> float:
    """The centering weight min(1, max((mu_aff / mu)^3, 0)), 0 when mu is
    not positive. A ratio beyond [-1, 1] clamps without being cubed (its
    cube could overflow a Python float); a NaN ratio gives 1."""
    if not mu > 0:
        return 0.0
    r = mu_aff / mu
    if r > 1.0:
        return 1.0
    if r < -1.0:
        return 0.0
    return min(1.0, max(r**3, 0.0))


def _cholesky_solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(chol chol^T)^-1 b by two general solves, as the Schur step always
    has."""
    return np.linalg.solve(_tr(chol), np.linalg.solve(chol, b))


def _solution(p: _Problem, rec: dict, history: list) -> SdpSolution:
    """The user-facing solution of one problem, in the orientation of its
    input BlockSdp."""
    b, kept = p.b, np.array(p.kept, dtype=np.intp)
    slacks = np.zeros(len(b.rows))
    duals = np.zeros(len(b.rows))
    if len(kept):
        slacks[kept[p.slack_rows]] = rec["s"]
        coeff = np.array([r.slack_coeff for r in b.rows])[kept]
        duals[kept] = np.where(coeff == -1, -1.0, 1.0) * rec["y"]

    # residuals reported against the full standardized system, so presolve-
    # dropped (implied) rows are audited too
    full_lhs = p.full.apply(rec["X"])
    with_slack = np.flatnonzero(p.full.slack_coeffs)
    full_lhs[with_slack] += slacks[with_slack]
    pres_full = np.abs(p.full.rhs - full_lhs).max(initial=0.0)

    return SdpSolution(
        blocks=[SymMatrix(0.5 * (x + x.T)) for x in rec["X"]],
        slacks=slacks,
        dual_multipliers=duals,
        dual_blocks=[SymMatrix(0.5 * (s + s.T)) for s in rec["S"]],
        status=rec["status"],
        value=float(rec["value"]),
        primal_residual=float(pres_full),
        dual_residual=float(rec["dres"]),
        gap=float(rec["gap"]),
        iterations=rec["iterations"],
        mu_history=history,
    )


def solve_many(bs, opts: SolverOptions | None = None) -> list:
    """Solve a batch of BlockSdps in lockstep.

    Entry i of the result is what solve(bs[i], opts) returns, bit for bit,
    or the SepqcqpError it raises (a structural fault such as
    contradictory equality rows), so one bad problem spoils only its own
    entry.
    """
    if opts is None:
        opts = SolverOptions()
    out: list = [None] * len(bs)
    probs = []
    for i, b in enumerate(bs):
        try:
            probs.append(_Problem(i, b))
        except SepqcqpError as exc:
            out[i] = exc
    if probs:
        batch = _Batch(probs, opts)
        done = batch.run()
        for p in probs:
            out[p.index] = _solution(p, done[p.index], batch.history[p.index])
    return out


def solve(b: BlockSdp, opts: SolverOptions | None = None) -> SdpSolution:
    """Solve a BlockSdp and return a primal-dual solution.

    The input may use any mix of relations; it is standardized internally.
    Reported slacks are the nonnegative amounts by which inequality rows
    are off their rhs; dual multipliers are oriented against the rows as
    written in b (a >= row's multiplier is the negation of the multiplier
    of its standardized, negated form).
    """
    (out,) = solve_many([b], opts)
    if isinstance(out, SepqcqpError):
        raise out
    return out


@dataclass(frozen=True)
class ResidualReport:
    """Pure verification summary of a solution against its BlockSdp."""

    row_residuals: np.ndarray
    min_eigenvalues: list
    min_slack: float
    primal_objective: float
    dual_objective: float
    gap: float
    within_tol: bool

    @property
    def max_row_residual(self) -> float:
        return float(np.abs(self.row_residuals).max(initial=0.0))


def check_solution(b: BlockSdp, sol: SdpSolution, tol: float) -> ResidualReport:
    """Recompute feasibility residuals, block eigenvalue floors, and the
    duality gap of sol for b; no mutation, no solving."""
    if len(sol.blocks) != b.n_blocks:
        raise DimensionError(
            f"{len(sol.blocks)} solution blocks for {b.n_blocks} problem blocks"
        )
    for x, dim in zip(sol.blocks, b.block_dims):
        if x.dim != dim:
            raise DimensionError(f"solution block dim {x.dim} != {dim}")
    if len(sol.slacks) != len(b.rows):
        raise DimensionError("slack vector length mismatch")

    op = b.operator
    lhs = op.apply([x.to_dense() for x in sol.blocks])
    res = lhs + op.slack_coeffs * sol.slacks - op.rhs
    min_eigs = [
        float(np.linalg.eigvalsh(x.to_dense())[0]) if x.dim else 0.0
        for x in sol.blocks
    ]
    min_slack = float(sol.slacks.min(initial=0.0))
    pobj = sum(
        float(np.sum(cb.to_dense() * xb.to_dense()))
        for cb, xb in zip(b.objective, sol.blocks)
    )
    dobj = float(op.rhs @ sol.dual_multipliers)
    gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
    scale = 1.0 + max((x.norm() for x in sol.blocks), default=0.0)
    ok = (
        float(np.abs(res).max(initial=0.0)) <= tol * (1.0 + np.abs(op.rhs).max(initial=0.0))
        and min(min_eigs, default=0.0) >= -tol * scale
        and min_slack >= -tol
        and gap <= tol
    )
    return ResidualReport(
        row_residuals=res,
        min_eigenvalues=min_eigs,
        min_slack=min_slack,
        primal_objective=pobj,
        dual_objective=dobj,
        gap=gap,
        within_tol=bool(ok),
    )
