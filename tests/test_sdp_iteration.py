"""The interior-point iteration pinned bit for bit to its loop-shaped form.

ParentBatch is the lockstep iteration as it stood before its numpy calls
were trimmed: per-group lists concatenated and scattered into the
row-sum, Schur, block-sum and step-length tables, NT scaling through
diagonal matrices, a Python loop over the rows in y_i A_i sums, a
separate non-finite scan and magnitude scan of every iterate, and a
symmetrizing pass over every new iterate. solve_many must return exactly what
reference_solve_many returns on every input: every SdpSolution field,
bit for bit, and every structural error.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepqcqp import sdp_solver
from sepqcqp.errors import InfeasibleStructureError, SepqcqpError
from sepqcqp.sdp_solver import SolverOptions, solve_many
from sepqcqp.sdpr_builder import BlockSdp, Row, SolveStatus
from sepqcqp.symkernel import SymMatrix
from test_sdp_solver import mixed_batch

_LinAlgError = np.linalg.LinAlgError

#: iterate magnitude cap; beyond this the run is flagged Diverged
_DIVERGE_CAP = 1e10

#: the zero that padded rows read as their multiplier
_ZERO = np.zeros(1)

_HALF_MAX = np.finfo(float).max / 2


# ---------------------------------------------------------------------------
# stacked matrix kernels; every argument is a (..., d, d) stack


def _tr(a: np.ndarray) -> np.ndarray:
    return a.swapaxes(-1, -2)


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + _tr(a))


@functools.cache
def _eye(d: int) -> np.ndarray:
    eye = np.eye(d)
    eye.flags.writeable = False
    return eye


def _diag(v: np.ndarray) -> np.ndarray:
    return v[..., None] * _eye(v.shape[-1])


def _nt_scaling(x: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Nesterov-Todd scaling points W with W S W = X, all arguments PD."""
    lam, u = np.linalg.eigh(s)
    root = np.sqrt(np.maximum(lam, 1e-300))
    rt = u @ _diag(root) @ _tr(u)
    irt = u @ _diag(1.0 / root) @ _tr(u)
    om, v = np.linalg.eigh(_sym(rt @ x @ rt))
    om = np.maximum(om, 1e-300)
    return irt @ (v @ _diag(np.sqrt(om)) @ _tr(v)) @ irt


def _psd_factor(x: np.ndarray) -> np.ndarray:
    """Cholesky factor of one PSD matrix, with a trace-scaled ridge when
    it is singular to working precision."""
    try:
        return np.linalg.cholesky(x)
    except _LinAlgError:
        ridge = 1e-12 * max(1.0, np.trace(x).real)
        return np.linalg.cholesky(x + ridge * np.eye(len(x)))


def _boundary_steps(chol: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """Largest t with x + t*dx still PSD, for x = chol chol^T (inf when dx
    points inward)."""
    h = _tr(np.linalg.solve(chol, _tr(np.linalg.solve(chol, dx))))
    lam_min = np.linalg.eigvalsh(_sym(h))[..., 0]
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


def _cat(arrays, dtype=float) -> np.ndarray:
    """The arrays raveled end to end (empty for a batch without blocks)."""
    if not arrays:
        return np.zeros(0, dtype=dtype)
    return np.concatenate([a.ravel() for a in arrays])


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
# the batch layout


class ParentGroup:
    """The blocks of one dimension over the batch, one slot per block.

    owner[j] and block[j] name slot j's problem and its block index there.
    A[k, j] is the k-th active row matrix of slot j (zero padding past its
    count), rows[k, j] that row's global index (padding points at the zero
    appended to y). row_at and schur_at are flat cells of the row-sum and
    Schur-sum tables (padding lands in a spare last row).
    """

    __slots__ = ("dim", "owner", "block", "C", "A", "rows", "row_at", "schur_at")


class ParentLayout:
    """Where each problem of a batch lives in the stacked arrays.

    Problems are ordered by (rows, slacks), so the rows, slacks and Schur
    matrices of a run of equal shapes are contiguous and stack as
    (count, m, ...) arrays. Sums over a problem's blocks go through
    tables with one column per block index, summed left to right.
    """

    def __init__(self, probs: list):
        self.probs = probs
        P = self.P = len(probs)
        m = np.array([p.m for p in probs], dtype=np.intp)
        ns = np.array([p.n_slack for p in probs], dtype=np.intp)
        self.row_off = np.concatenate(([0], np.cumsum(m)))
        self.slk_off = np.concatenate(([0], np.cumsum(ns)))
        sq_off = np.concatenate(([0], np.cumsum(m * m)))
        self.sq_off = sq_off
        R = self.R = int(self.row_off[-1])
        NM = self.NM = int(sq_off[-1])
        nb = self.nb = max([1] + [len(p.dims) for p in probs])
        self.runs = []
        start = 0
        for i in range(1, P + 1):
            if i == P or m[i] != m[start] or ns[i] != ns[start]:
                self.runs.append((start, i, int(m[start]), int(ns[start])))
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
        # per-problem tables: block columns, then slack columns (at least
        # one), then rows
        wide_s = max(1, int(ns.max()))
        W = self.W = nb + wide_s + int(m.max())
        self.cell_slk = self.slack_owner * W + nb + (
            np.arange(int(self.slk_off[-1])) - self.slk_off[self.slack_owner]
        )
        self.cell_row = self.row_owner * W + nb + wide_s + (
            np.arange(R) - self.row_off[self.row_owner]
        )
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
            kmax = max(len(probs[i].active[bi]) for i, bi in slots)
            grp = ParentGroup()
            grp.dim = d
            grp.owner = np.array([i for i, _ in slots], dtype=np.intp)
            grp.block = np.array([bi for _, bi in slots], dtype=np.intp)
            grp.C = np.stack([probs[i].C[bi] for i, bi in slots])
            grp.A = np.zeros((kmax, g, d, d))
            grp.rows = np.full((kmax, g), R, dtype=np.intp)
            grp.row_at = np.full((kmax, g), R * nb, dtype=np.intp)
            grp.schur_at = np.full((g, kmax, kmax), NM * nb, dtype=np.intp)
            for j, (i, bi) in enumerate(slots):
                self.where[i][bi] = (len(self.groups), j)
                p, act = probs[i], probs[i].active[bi]
                k = len(act)
                if not k:
                    continue
                rows = self.row_off[i] + act
                grp.A[:k, j] = p.stacks[bi]
                grp.rows[:k, j] = rows
                grp.row_at[:k, j] = rows * nb + bi
                grp.schur_at[j, :k, :k] = (
                    sq_off[i] + act[:, None] * p.m + act[None, :]
                ) * nb + bi
            self.groups.append(grp)
        self.row_at = _cat([g.row_at for g in self.groups], np.intp)
        self.schur_at = _cat([g.schur_at for g in self.groups], np.intp)
        self.blk_at = _cat([g.owner * nb + g.block for g in self.groups], np.intp)
        cells = [g.owner * W + g.block for g in self.groups]
        self.cell_blk = _cat(cells, np.intp)
        # the X and S halves of the step-length tables, slot order of a
        # group's stacked (X, S) factorization
        self.cell_blk2 = _cat([np.concatenate((c, c + P * W)) for c in cells], np.intp)
        self.cell_slk2 = np.concatenate((self.cell_slk, self.cell_slk + P * W))

    # -- sums and extremes in the order of the one-problem loops ------------

    def row_sums(self, parts) -> np.ndarray:
        """sum over blocks of the (row, block) pair values, per row."""
        table = np.zeros((self.R + 1) * self.nb)
        table[self.row_at] = _cat(parts)
        return _left_sum(table.reshape(self.R + 1, self.nb))[: self.R]

    def schur(self, parts) -> np.ndarray:
        """Every problem's Schur matrix, flat, summed over blocks in order."""
        table = np.zeros((self.NM + 1) * self.nb)
        table[self.schur_at] = _cat(parts)
        return _left_sum(table.reshape(self.NM + 1, self.nb))[: self.NM]

    def block_sums(self, *parts) -> np.ndarray:
        """sum over blocks of the per-slot values, per problem, for each
        of the given lists of per-group values: (len(parts), P)."""
        n = self.P * self.nb
        table = np.zeros(len(parts) * n)
        for i, p in enumerate(parts):
            table[self.blk_at + i * n] = _cat(p)
        return _left_sum(table.reshape(len(parts) * self.P, self.nb)).reshape(len(parts), self.P)

    def table(self, fill: float, blk=None, slk=None, row=None) -> np.ndarray:
        """A (problem, W) table of per-slot, per-slack and per-row values,
        the rest fill."""
        table = np.full(self.P * self.W, fill)
        if blk is not None:
            table[self.cell_blk] = _cat(blk)
        if slk is not None:
            table[self.cell_slk] = slk
        if row is not None:
            table[self.cell_row] = row
        return table.reshape(self.P, self.W)

    def dots(self, a: np.ndarray, b: np.ndarray, slack: bool) -> np.ndarray:
        """Per-problem a @ b over its slacks (or rows), one BLAS dot each."""
        off = self.slk_off if slack else self.row_off
        out = np.empty(self.P)
        for p0, p1, m, ns in self.runs:
            n = ns if slack else m
            seg = slice(off[p0], off[p1])
            out[p0:p1] = np.matmul(
                a[seg].reshape(p1 - p0, 1, n), b[seg].reshape(p1 - p0, n, 1)
            )[:, 0, 0]
        return out


def _pairs(grp: ParentGroup, z: np.ndarray) -> np.ndarray:
    """np.sum(A_i * Z) for every (active row, slot) pair of a group."""
    k, g, d = grp.A.shape[:3]
    return (grp.A * z).reshape(k, g, d * d).sum(axis=-1)


def _subtract_rows(grp: ParentGroup, base: np.ndarray, yx: np.ndarray) -> np.ndarray:
    """base - y_i A_i over each slot's active rows, one row at a time."""
    acc = base.copy()
    coef = yx[grp.rows][..., None, None]
    for c, a in zip(coef, grp.A):
        acc -= c * a
    return acc


# ---------------------------------------------------------------------------
# the batched iteration


def parent_centering(a: float, m: float) -> float:
    """The parent's centering weight; raises OverflowError once the cube
    of the ratio passes the largest double."""
    return min(1.0, max((a / m) ** 3 if m > 0 else 0.0, 0.0))


class ParentBatch:
    """Lockstep IPM state of the unfinished problems of one solve_many call.

    centering is the weight rule, the parent's unless a subclass (the
    clamped reference) replaces it."""

    centering = staticmethod(parent_centering)

    def __init__(self, probs: list, opts: SolverOptions):
        self.opts = opts
        self.lay = ParentLayout(sorted(probs, key=lambda p: (p.m, p.n_slack)))
        scale = opts.initial_scale
        self.X = [
            np.repeat((scale * np.eye(g.dim))[None], len(g.owner), axis=0)
            for g in self.lay.groups
        ]
        self.S = [x.copy() for x in self.X]
        self.s = scale * np.ones(len(self.lay.slack_row))
        self.sig = self.s.copy()
        self.y = np.zeros(self.lay.R)
        self.history = {p.index: [] for p in probs}
        self.done: dict = {}

    def _record(self, mask, status, iterations, report):
        """Store the current iterate of the problems in mask as final."""
        lay = self.lay
        for i in np.flatnonzero(mask):
            rows = slice(lay.row_off[i], lay.row_off[i + 1])
            slk = slice(lay.slk_off[i], lay.slk_off[i + 1])
            self.done[lay.probs[i].index] = dict(
                status=status,
                iterations=iterations,
                X=[self.X[gi][j].copy() for gi, j in lay.where[i]],
                S=[self.S[gi][j].copy() for gi, j in lay.where[i]],
                s=self.s[slk].copy(),
                sig=self.sig[slk].copy(),
                y=self.y[rows].copy(),
                value=report[0][i],
                dres=report[1][i],
                gap=report[2][i],
            )

    def _drop(self, keep):
        """Remove the problems outside keep from the stacks; returns the
        masks (rows, slacks, slots per group) that cut arrays laid out the
        old way, or None when nothing is left."""
        lay = self.lay
        rows, slk = keep[lay.row_owner], keep[lay.slack_owner]
        slots = [keep[g.owner] for g in lay.groups]
        self.X = _cut(self.X, slots)
        self.S = _cut(self.S, slots)
        self.s, self.sig, self.y = self.s[slk], self.sig[slk], self.y[rows]
        if not keep.any():
            self.lay = None
            return None
        self.lay = ParentLayout([p for p, k in zip(lay.probs, keep) if k])
        return rows, slk, slots

    def residuals(self):
        """Residuals, objectives and stopping tests at the current iterate:
        (report, mu, optimal, diverged, (r_p, rd, rds)), per problem, with
        report = (primal objective, dual residual, relative gap)."""
        lay, opts, X, S = self.lay, self.opts, self.X, self.S
        yx = np.concatenate((self.y, _ZERO))
        lhs = lay.row_sums([_pairs(g, x) for g, x in zip(lay.groups, X)])
        lhs[lay.slack_row] += self.s
        r_p = lay.d_vec - lhs
        rd = [_subtract_rows(g, g.C, yx) - z for g, z in zip(lay.groups, S)]
        rds = -self.y[lay.slack_row] - self.sig

        pobj, compl = lay.block_sums(
            [_inner(g.C, x) for g, x in zip(lay.groups, X)],
            [_inner(x, z) for x, z in zip(X, S)],
        )
        dobj = lay.dots(lay.d_vec, self.y, slack=False)
        compl = compl + lay.dots(self.s, self.sig, slack=True)
        mu = compl / lay.n_tot
        pres = lay.table(0.0, row=np.abs(r_p)).max(axis=1)
        norms = []
        for r in rd:
            flat = r.reshape(len(r), 1, -1)
            norms.append(np.sqrt(np.matmul(flat, _tr(flat))[:, 0, 0]))
        table = lay.table(0.0, blk=norms, slk=np.abs(rds))
        dres = _first_or(np.fmax, table[:, : lay.nb])
        dres_s = table[:, lay.nb :].max(axis=1)
        dres = np.where(dres_s > dres, dres_s, dres)
        gap = np.abs(pobj - dobj)
        gap = np.where(compl > gap, compl, gap) / (1.0 + np.abs(pobj) + np.abs(dobj))
        optimal = (
            (pres <= lay.d_scale * opts.tol)
            & (dres <= lay.c_scale * opts.tol)
            & (gap <= opts.tol)
        )
        diverged = ~optimal & self._too_large()
        return (pobj, dres, gap), mu, optimal, diverged, (r_p, rd, rds)

    def _too_large(self) -> np.ndarray:
        """Problems whose iterate has an entry beyond _DIVERGE_CAP."""
        lay = self.lay
        arrays = [*self.X, *self.S, self.s, self.sig, self.y]
        if max(np.abs(a).max(initial=0.0) for a in arrays) <= _DIVERGE_CAP:
            return np.zeros(lay.P, dtype=bool)
        peaks = [
            np.maximum(np.abs(x).max(axis=(1, 2)), np.abs(z).max(axis=(1, 2)))
            for x, z in zip(self.X, self.S)
        ]
        return lay.table(
            0.0, peaks, np.maximum(np.abs(self.s), np.abs(self.sig)), np.abs(self.y)
        ).max(axis=1) > _DIVERGE_CAP

    def step(self, mu, r_p, rd, rds):
        """One predictor-corrector step of every problem in the stacks.

        Returns (failed, new iterate); failed marks the problems whose
        linear algebra broke down, whose part of the new iterate is void.
        """
        lay, opts = self.lay, self.opts
        groups, X, S, s, sig = lay.groups, self.X, self.S, self.s, self.sig
        owners = [g.owner for g in groups]
        failed = np.zeros(lay.P, dtype=bool)

        W = [_guarded(_nt_scaling, o, failed, x, z) for o, x, z in zip(owners, X, S)]
        w2 = s / sig
        s_inv = [_guarded(np.linalg.inv, o, failed, z) for o, z in zip(owners, S)]
        # X and S of a group factor as one stack, and their step lengths
        # come out of one stack too
        owners_xs = [np.concatenate((o, o)) for o in owners]
        chol_xs = [
            _guarded(np.linalg.cholesky, o, failed, np.concatenate((x, z)),
                     one=_psd_factor)
            for o, x, z in zip(owners_xs, X, S)
        ]

        # Schur complement M_ij = sum_b <A_i, W A_j W> (+ slack), per problem
        M = lay.schur(
            [np.einsum("kgab,lgab->gkl", g.A, w @ g.A @ w) for g, w in zip(groups, W)]
        )
        M[lay.slack_diag] += w2
        chols = []
        for p0, p1, m, _ in lay.runs:
            mr = M[lay.sq_off[p0] : lay.sq_off[p1]].reshape(p1 - p0, m, m)
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
            e_blk = [tau[o][:, None, None] * si - x for o, si, x in zip(owners, s_inv, X)]
            e_slk = tau[lay.slack_owner] / sig - s
            g_vec = lay.row_sums(
                [_pairs(g, e - t) for g, e, t in zip(groups, e_blk, wrw)]
            )
            g_vec[lay.slack_row] += e_slk - w2 * rds
            rhs = r_p - g_vec
            dy = np.empty(lay.R)
            for (p0, p1, m, _), c in zip(lay.runs, chols):
                seg = slice(lay.row_off[p0], lay.row_off[p1])
                dy[seg] = _guarded(
                    _cholesky_solve, range(p0, p1), failed,
                    c, rhs[seg].reshape(p1 - p0, m, 1),
                ).ravel()
            dyx = np.concatenate((dy, _ZERO))
            ds_blk = [_sym(_subtract_rows(g, r, dyx)) for g, r in zip(groups, rd)]
            dx_blk = [_sym(e - w @ d @ w) for e, w, d in zip(e_blk, W, ds_blk)]
            dsig = rds - dy[lay.slack_row]
            ds_slk = e_slk - w2 * dsig
            return dx_blk, dy, ds_blk, ds_slk, dsig

        def lengths(dx_blk, ds_blk, ds_slk, dsig):
            """Primal and dual step lengths: the largest steps keeping the
            blocks PSD and the slacks nonnegative, cut back by the step
            fraction and capped at 1."""
            table = np.full(2 * lay.P * lay.W, np.inf)
            table[lay.cell_blk2] = _cat([
                _guarded(_boundary_steps, o, failed, c, np.concatenate((dx, ds)))
                for o, c, dx, ds in zip(owners_xs, chol_xs, dx_blk, ds_blk)
            ])
            v, dv = np.concatenate((s, sig)), np.concatenate((ds_slk, dsig))
            table[lay.cell_slk2] = np.where(dv < 0, -v / dv, np.inf)
            table = table.reshape(2 * lay.P, lay.W)
            t = _py_min(_first_or(np.fmin, table[:, : lay.nb]), table[:, lay.nb :].min(axis=1))
            return _py_min(1.0, opts.step_fraction * t).reshape(2, lay.P)

        def moved(blocks, t, d_blk):
            return [x + t[o][:, None, None] * d for o, x, d in zip(owners, blocks, d_blk)]

        # affine probe fixes the centering weight
        dxa, _, dsa, dsla, dsga = directions(np.zeros(lay.P))
        ap, ad = lengths(dxa, dsa, dsla, dsga)
        (tr_aff,) = lay.block_sums(
            [_inner(x, z) for x, z in zip(moved(X, ap, dxa), moved(S, ad, dsa))]
        )
        tr_aff = tr_aff + lay.dots(
            s + ap[lay.slack_owner] * dsla, sig + ad[lay.slack_owner] * dsga, slack=True
        )
        mu_aff = tr_aff / lay.n_tot
        sigma = np.array([self.centering(a, m) for a, m in zip(mu_aff.tolist(), mu.tolist())])

        dx, dy, ds, dsl, dsg = directions(sigma * mu)
        ap, ad = lengths(dx, ds, dsl, dsg)
        return failed, (
            [_sym(x) for x in moved(X, ap, dx)],
            [_sym(z) for z in moved(S, ad, ds)],
            s + ap[lay.slack_owner] * dsl,
            sig + ad[lay.slack_owner] * dsg,
            self.y + ad[lay.row_owner] * dy,
        )

    def nonfinite(self, state) -> np.ndarray:
        """Problems with a non-finite entry anywhere in state."""
        lay = self.lay
        Xn, Sn, sn, sign, yn = state
        owners = [g.owner for g in lay.groups]
        bad = np.zeros(lay.P, dtype=bool)
        for a, owner in zip(
            [*Xn, *Sn, sn, sign, yn],
            [*owners, *owners, lay.slack_owner, lay.slack_owner, lay.row_owner],
        ):
            ok = np.isfinite(a)
            if not ok.all():
                bad[owner[~ok.reshape(len(owner), -1).all(axis=1)]] = True
        return bad

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

                failed, state = self.step(mu, r_p, rd, rds)
                bad = ~failed & self.nonfinite(state)
                self._record(failed, SolveStatus.NUMERICAL_FAILURE, it, report)
                self._record(bad, SolveStatus.DIVERGED, it, report)
                self.X, self.S, self.s, self.sig, self.y = state
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


def _cholesky_solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(chol chol^T)^-1 b by two general solves, as the Schur step always
    has."""
    return np.linalg.solve(_tr(chol), np.linalg.solve(chol, b))


class ClampedParentBatch(ParentBatch):
    """ParentBatch with the centering weight clamped before it is cubed
    (sdp_solver._centering, which test_centering_weight pins to the
    parent's rule wherever that rule returns)."""

    centering = staticmethod(sdp_solver._centering)


def reference_solve_many(bs, opts: SolverOptions | None = None, batch=None) -> list:
    """solve_many with ParentBatch (or batch) as the iteration."""
    batch = batch or ParentBatch
    opts = opts or SolverOptions()
    out: list = [None] * len(bs)
    probs = []
    for i, b in enumerate(bs):
        try:
            probs.append(sdp_solver._Problem(i, b))
        except SepqcqpError as exc:
            out[i] = exc
    if probs:
        batch = batch(probs, opts)
        done = batch.run()
        for p in probs:
            out[p.index] = sdp_solver._solution(p, done[p.index], batch.history[p.index])
    return out


# ---------------------------------------------------------------------------
# solve_many against the reference


def random_sdp(seed: int) -> BlockSdp:
    """A random block SDP with 1 to 3 blocks of dims 1 to 4 (1x1 blocks and
    mixed dims in one problem) and 0 to 5 rows of every relation, each row
    missing some blocks. Most draws keep the identity strictly feasible and
    bound the trace; others draw the right-hand sides at random (often
    infeasible or unbounded), or scale rows by up to 1e150 either way, so
    that runs overflow, break down or diverge."""
    rng = np.random.default_rng(seed)
    dims = tuple(int(d) for d in rng.integers(1, 5, size=int(rng.integers(1, 4))))
    kind = ("interior", "random rhs", "wild scale")[int(rng.choice(3, p=[0.6, 0.2, 0.2]))]

    def rand_sym(d: int) -> np.ndarray:
        a = rng.standard_normal((d, d))
        return (a + a.T) / 2

    objective = tuple(SymMatrix.from_dense(rand_sym(d)) for d in dims)
    rows = []
    if rng.random() < 0.8:
        rows.append(Row(tuple(SymMatrix.identity(d) for d in dims), 1, 2.0 * sum(dims)))
    for _ in range(int(rng.integers(0, 6))):
        mats = [rand_sym(d) if rng.random() < 0.7 else np.zeros((d, d)) for d in dims]
        coeff = int(rng.choice([0, 1, -1]))
        rhs = sum(np.trace(m) for m in mats) + coeff * rng.uniform(0.1, 1.0)
        if kind == "random rhs":
            rhs = rng.standard_normal()
        if kind == "wild scale":
            scale = 10.0 ** int(rng.integers(-150, 151))
            mats, rhs = [scale * m for m in mats], scale * rhs
        rows.append(Row(tuple(SymMatrix.from_dense(m) for m in mats), coeff, float(rhs)))
    return BlockSdp(dims, objective, rows)


def bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def assert_same_results(bs: list, opts: SolverOptions | None = None) -> list:
    """solve_many and reference_solve_many give every result bit for bit
    alike, signed zeros and NaN payloads included, and structural errors
    alike in type and message; returns solve_many's results.

    Where the parent's centering weight overflows a Python float (its
    whole call raises OverflowError), solve_many returns a status
    instead, and the reference is the parent iteration with the weight
    clamped (ClampedParentBatch)."""
    got = solve_many(bs, opts)
    try:
        want = reference_solve_many(bs, opts)
    except OverflowError:
        want = reference_solve_many(bs, opts, batch=ClampedParentBatch)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        if isinstance(b, Exception):
            assert type(a) is type(b) and str(a) == str(b)
            continue
        assert a.status is b.status
        assert a.iterations == b.iterations
        for f in ("value", "primal_residual", "dual_residual", "gap",
                  "slacks", "dual_multipliers", "mu_history"):
            assert bits(getattr(a, f)) == bits(getattr(b, f)), f
        for f in ("blocks", "dual_blocks"):
            xa, xb = getattr(a, f), getattr(b, f)
            assert [x.dim for x in xa] == [x.dim for x in xb]
            for ma, mb in zip(xa, xb):
                assert bits(ma.to_dense()) == bits(mb.to_dense()), f
    return got


OPTIONS = [
    SolverOptions(),
    SolverOptions(max_iter=3),
    SolverOptions(tol=1e-13),
    SolverOptions(initial_scale=1e-3),
    SolverOptions(initial_scale=1e11),  # beyond the divergence cap at once
    SolverOptions(step_fraction=0.5),
]


class TestMatchesParentIteration:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60)
    def test_random_problems(self, seed):
        assert_same_results([random_sdp(seed)])

    @pytest.mark.parametrize(
        "seed, outcome",
        [
            (0, SolveStatus.OPTIMAL), (5, SolveStatus.DIVERGED),
            (14, SolveStatus.NUMERICAL_FAILURE), (131, SolveStatus.MAX_ITER),
            (28, InfeasibleStructureError),
            # the parent's (mu_aff / mu) ** 3 overflows a Python float here
            (102, SolveStatus.DIVERGED),
        ],
    )
    def test_draws_of_every_outcome(self, seed, outcome):
        (got,) = assert_same_results([random_sdp(seed)])
        assert getattr(got, "status", type(got)) is outcome
        if seed == 102:
            with pytest.raises(OverflowError):
                reference_solve_many([random_sdp(seed)])

    @given(st.lists(st.integers(min_value=0, max_value=2**32 - 1), min_size=2, max_size=5))
    @settings(max_examples=20)
    def test_batches_of_unequal_shapes(self, seeds):
        assert_same_results([random_sdp(s) for s in seeds])

    @pytest.mark.parametrize("opts", OPTIONS, ids=repr)
    def test_mixed_batch(self, opts):
        bs = mixed_batch()
        assert_same_results(bs, opts)
        assert_same_results(bs[::-1], opts)

    @pytest.mark.parametrize(
        "value",
        [2e10, _HALF_MAX, np.nextafter(_HALF_MAX, np.inf), np.finfo(float).max,
         np.inf, -np.inf, np.nan],
    )
    @pytest.mark.parametrize("part", ["X", "S", "s", "sig", "y"])
    def test_scan_flags_as_the_old_scans(self, part, value):
        """The one scan of a new iterate flags the problems the parent's
        non-finite scan of the symmetrized iterate and its magnitude scan
        flagged. An X or S entry beyond half the largest double, which the
        update no longer symmetrizes, counts as non-finite there."""
        opts = SolverOptions()
        probs = [sdp_solver._Problem(i, b) for i, b in enumerate(mixed_batch()[:-1])]
        batch = sdp_solver._Batch(probs, opts)
        parent = ParentBatch(probs, opts)
        lay, NS = batch.lay, batch.lay.NS
        victim = 1  # in the batch's order; it has a block, rows and a slack
        gi, j = lay.where[victim][0]
        g = lay.groups[gi]
        XS, vec = [xs.copy() for xs in batch.XS], batch.vec.copy()
        X, S = [x.copy() for x in parent.X], [z.copy() for z in parent.S]
        s, sig, y = parent.s.copy(), parent.sig.copy(), parent.y.copy()
        if part in ("X", "S"):
            XS[gi][j + (g.n if part == "S" else 0), 0, 0] = value
            (X if part == "X" else S)[gi][j, 0, 0] = value
        else:
            k = {"s": lay.slk_off[victim], "sig": lay.slk_off[victim],
                 "y": lay.row_off[victim]}[part]
            vec[{"s": 0, "sig": NS, "y": 2 * NS}[part] + k] = value
            {"s": s, "sig": sig, "y": y}[part][k] = value
        with np.errstate(over="ignore", invalid="ignore"):
            bad, large = batch._scan(XS, vec)
            want_bad = parent.nonfinite(([_sym(x) for x in X], [_sym(z) for z in S], s, sig, y))
        parent.X, parent.S, parent.s, parent.sig, parent.y = X, S, s, sig, y
        np.testing.assert_array_equal(bad, want_bad)
        np.testing.assert_array_equal(large & ~bad, parent._too_large() & ~want_bad)
        assert bad[victim] or large[victim]

    def test_centering_weight(self):
        """sdp_solver._centering is the parent's weight wherever the
        parent's rule returns, and clamps where its cube overflowed."""
        ratios = [-2.0, -1.0, -0.5, -0.0, 0.0, 1e-120, 0.3, 0.999, 1.0,
                  1.0 + 2**-52, 2.0, 5.6e102, 1e200, math.inf, -math.inf, math.nan]
        for r in ratios:
            for m in (1.0, 3.5e-7, 2e150, 0.0, -1.0, math.nan):
                a = r * m if math.isfinite(m) else r
                try:
                    want = parent_centering(a, m)
                except OverflowError:
                    want = 1.0 if a / m > 0 else 0.0
                got = sdp_solver._centering(a, m)
                assert bits(got) == bits(want), (a, m)
        with pytest.raises(OverflowError):
            parent_centering(1e200, 1.0)
        assert sdp_solver._centering(1e200, 1.0) == 1.0
        assert sdp_solver._centering(-1e200, 1.0) == 0.0

    @pytest.mark.parametrize("index", [-4, -3, -2], ids=["alpha4", "infeasible", "unbounded"])
    def test_hard_cases(self, index):
        (got,) = assert_same_results([mixed_batch()[index]])
        assert got.status is not SolveStatus.OPTIMAL
