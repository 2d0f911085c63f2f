"""Primal-dual interior-point solver for block SDPs.

Solves min sum_b <C_b, X_b> over PSD blocks plus nonnegative row slacks,
subject to the equality rows of a standardized BlockSdp. The method is an
infeasible-start path follower using the Nesterov-Todd scaling point, with
an adaptive centering weight chosen from an affine probe step (the probe
and the centering step share one factorization of the Schur complement).
Three module constants set the method (_TOL, _INITIAL_SCALE and
_STEP_FRACTION); the caller sets only the iteration cap, solve's max_iter.

solve iterates one problem. Its rows are the RowOperator of its standard
form (BlockSdp.operator, which rank reduction reads again),
its blocks of one dimension live in one (g, d, d) stack (X and S of a
group in one (2g, d, d) stack), and its slacks are scalar cones with their
own vectors. Every sum over blocks is taken in block order, and every
LAPACK call factors one matrix at a time. A caller with many problems
solves them one after another; no result depends on the others.

The compile (_Problem) runs once per solve: standard form, presolve,
then per dimension group a fixed handful of numpy calls (the padded row
stacks filled by one scatter each, the Schur cells by one broadcast
test), whatever the group's size, and the four ordered sums. Each
group's side array is a structural constant, built once per group size.
tests/test_once_per_verdict.py keeps the compile as a loop over blocks
and rows, the reference it must match bit for bit.

Call budget of one iteration, in calls of symkernel's LAPACK layer
(tests/test_sdp_iteration.py counts them). Per dimension group: 2 eigh
(NT scaling), 1 inv (S^-1), 1 cholesky of the (X, S) stack, and 2 x (2
solve + 1 eigvalsh) for the affine and the centering step lengths. Per
iteration: 1 Schur cholesky and 2 x 2 solve for the two directions.
Around these, every sum over blocks (row sums, the Schur matrix,
objective and complementarity) is one np.bincount of the groups' parts,
and one scan of each new iterate serves both the non-finite test and the
next divergence test. A LinAlgError from any of these calls ends the
solve as NumericalFailure with the iterate the step started from; only
the (X, S) Cholesky (a slot at a time, ridged) and the Schur Cholesky
(ridged) retry first.

Bit-identity rule. The iteration is pinned to its loop-shaped form
(tests/test_sdp_iteration.py keeps it as the reference): a change that
trims numpy calls keeps every floating-point operation, its operands and
their order, so every SdpSolution stays the same bit for bit. Calling
the C function a numpy wrapper calls, with the wrapper's arguments, is
the same operation: a numpy.linalg function's gufunc with its signature
(the symkernel layer), np.add.reduce for ndarray.sum, np.maximum.reduce
for ndarray.max, ndarray.repeat for np.repeat. So is a float64 scalar
operation done in Python floats (the same IEEE double operation;
abs, comparisons and Python's max are exact), and the layer's error
state built once, at import, rather than on every call (the same state,
entered and left around the same gufunc). Rewrites that only hold
in exact arithmetic are out, such as reusing an inverted Cholesky factor
or summing in another order. A sum over blocks adds each cell's terms
one at a time in block order, left to right from +0.0 (_ordered_sum);
np.sum and np.add.reduceat may add them pairwise.
A stacked dot product (np.matmul of (n, 1, k) rows by a (k, 1)
column) equals np.dot of each row only when the rows are C-contiguous:
matmul then hands each row to BLAS's dot, and otherwise sums it in its
own loop, in another order.
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

import functools
import math

import numpy as np

from . import symkernel as sk
from .errors import InfeasibleStructureError
from .qcqp_model import _int_at_least
from .sdpr_builder import (
    BlockSdp,
    RowOperator,
    SdpSolution,
    SolveStatus,
    to_standard_form,
)
from .symkernel import HALF_MAX, SymMatrix, by_dim

#: iterate magnitude cap; beyond this the run is flagged Diverged
_DIVERGE_CAP = 1e10
#: stopping tolerance of the scaled residuals and the relative gap
_TOL = 1e-8
#: the starting X, S, s and sig: this multiple of the identity
_INITIAL_SCALE = 10.0
#: the share of the way to the cone boundary that a step goes
_STEP_FRACTION = 0.98

_LinAlgError = np.linalg.LinAlgError


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
# stacked matrix kernels; every argument is a (..., d, d) stack, a.mT its
# transposes and 0.5 * (a + a.mT) its symmetric parts


def _nt_scaling(x: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Nesterov-Todd scaling points W with W S W = X, all arguments PD.
    u * r[..., None, :] scales the columns of u: the product u @ diag(r)."""
    lam, u = sk.eigh(s)
    ut = u.mT
    root = np.sqrt(np.maximum(lam, 1e-300))
    rt = (u * root[..., None, :]) @ ut
    irt = (u * (1.0 / root)[..., None, :]) @ ut
    h = rt @ x @ rt
    om, v = sk.eigh(0.5 * (h + h.mT))
    om = np.maximum(om, 1e-300)
    return irt @ ((v * np.sqrt(om)[..., None, :]) @ v.mT) @ irt


def _psd_factor(x: np.ndarray) -> np.ndarray:
    """Cholesky factor of one PSD matrix, with a trace-scaled ridge when
    it is singular to working precision."""
    try:
        return sk.cholesky(x)
    except _LinAlgError:
        ridge = 1e-12 * max(1.0, np.trace(x).real)
        return sk.cholesky(x + ridge * np.eye(len(x)))


def _xs_factor(xs: np.ndarray) -> np.ndarray:
    """Cholesky factors of a group's (X, S) stack; when LAPACK rejects the
    stack, every slot is factored alone through _psd_factor."""
    try:
        return sk.cholesky(xs)
    except _LinAlgError:
        return np.stack([_psd_factor(a) for a in xs])


def _boundary_eig(chol: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of chol^-1 dx chol^-T (symmetrized), from which
    lengths reads the largest t with x + t*dx still PSD, for
    x = chol chol^T. h is that matrix transposed, and its symmetric part
    is the same either way round."""
    h = sk.solve(chol, sk.solve(chol, dx).mT)
    return sk.eigvalsh(0.5 * (h + h.mT))[..., 0]


def _schur_factor(m: np.ndarray) -> np.ndarray:
    """Cholesky factor of the Schur complement, ridged in three widening
    steps when it is not numerically positive definite; LinAlgError when
    even the widest ridge fails."""
    try:
        return sk.cholesky(m)
    except _LinAlgError:
        pass
    base = 1e-12 * (1.0 + np.abs(np.diag(m)).max(initial=0.0))
    for attempt in range(3):
        try:
            return sk.cholesky(m + base * (100.0 ** attempt) * np.eye(len(m)))
        except _LinAlgError:
            pass
    raise _LinAlgError("Schur complement is not positive definite")


def _cholesky_solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(chol chol^T)^-1 b by two general solves, as the Schur step always
    has."""
    return sk.solve(chol.mT, sk.solve(chol, b))


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.sum(a_j * b_j) per slot."""
    return np.add.reduce((a * b).reshape(len(a), -1), axis=1)


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


# ---------------------------------------------------------------------------
# the compiled problem


class _Group:
    """The blocks of one dimension, one slot per block.

    block[j] is slot j's block index; the group's X and S live in one
    (2n, d, d) stack, X slots first, and side[j, 0, 0] is 0 on X slots and
    1 on S slots (which of a (primal, dual) pair of step lengths moves
    the slot). A[k, j] is the k-th active row matrix of slot j (zero
    padding past its count), rows[k, j, 0, 0] that row's index (padding
    points at the zero past the multipliers).
    """

    __slots__ = ("dim", "n", "block", "side", "C", "A", "rows")


@functools.cache
def _sides(g: int) -> np.ndarray:
    """The side of each slot of a group of g blocks' (X, S) stack, shaped
    (2g, 1, 1): 0 on the X slots, 1 on the S slots (read-only)."""
    side = np.arange(2).repeat(g)[:, None, None]
    side.flags.writeable = False
    return side


def _ordered_sum(n: int, at: list):
    """The n sums over blocks of the groups' parts (flattened in C order,
    joined in group order); at[g] is group g's (cells, blocks), each
    term's cell (padding goes to the spare cell n) and block. bincount
    adds in index order from +0.0, so with the terms put in block order
    once, here, each cell adds its blocks left to right and never reads
    -0.0: an absent term acts as the +0.0 it stands for. Without terms
    the sums are float zeros (bincount's would be integers)."""
    order = np.argsort(_joined([b for _, b in at], np.intp), kind="stable")
    cells = _joined([c for c, _ in at], np.intp)[order]
    if not len(cells):
        return lambda parts: np.zeros(n)
    return lambda parts: np.bincount(
        cells, weights=np.concatenate(parts, axis=None)[order], minlength=n + 1
    )[:n]


def _joined(arrays: list, dtype) -> np.ndarray:
    """The arrays flattened and joined; empty without blocks."""
    return np.concatenate(arrays, axis=None) if arrays else np.zeros(0, dtype)


class _Problem:
    """One BlockSdp standardized, presolved and compiled for the iteration
    (full is the standard form's shared, read-only operator).

    Its blocks are grouped by dimension: where[b] and where_s[b] name the
    group and the slots of block b's X and S in the group's (X, S) stack.
    Sums over blocks are _ordered_sums of the groups' parts: row_sums per
    row, schur the m x m Schur matrix flat, slot_sum of one value per X
    slot, xs_sums of the X slots' values and of the S slots'. The vector
    part of an iterate is one array [s | sig | y | 0]; its sections
    start at 0, NS and 2 NS, and vec_side is 0 where it moves with the
    primal step (s and the zero) and 1 where with the dual one.
    """

    def __init__(self, b: BlockSdp):
        self.b = b
        std = to_standard_form(b)
        self.full = std.operator
        self.kept = _presolve(self.full)
        op = self.full.take(self.kept)
        dims = std.block_dims
        C = [mat.array for mat in std.objective]
        m = self.m = op.n_rows
        self.d_vec = op.rhs
        self.slack_rows = np.flatnonzero(op.slack_coeffs)
        self.slack_diag = self.slack_rows * (m + 1)
        self.NS = len(self.slack_rows)
        self.n_tot = float(max(sum(dims) + self.NS, 1))
        self.d_scale = 1.0 + float(np.abs(self.d_vec).max(initial=0.0))
        # np.linalg.norm of each C: the root of its flat (C order) dot product
        flat = [c.ravel() for c in C]
        self.c_scale = 1.0 + max((math.sqrt(r.dot(r)) for r in flat), default=0.0)
        self.vec_side = np.repeat([0, 1, 0], (self.NS, self.NS + m, 1))

        self.where = [None] * len(dims)
        self.where_s = [None] * len(dims)
        self.groups, at = [], []
        for gi, blocks in enumerate(by_dim(dims)):
            d, g = dims[blocks[0]], len(blocks)
            acts = [op.active[bi] for bi in blocks]
            ks = [len(act) for act in acts]
            kmax = max(ks)
            grp = _Group()
            grp.dim, grp.n, grp.block = d, g, blocks
            grp.side = _sides(g)
            grp.C = np.array([C[bi] for bi in blocks])
            for j, bi in enumerate(blocks.tolist()):
                self.where[bi] = (gi, j)
                self.where_s[bi] = (gi, g + j)
            # pair t is the kk[t]-th active row of slot jj[t]
            jj = [j for j, k in enumerate(ks) for _ in range(k)]
            kk = [t for k in ks for t in range(k)]
            grp.A = np.zeros((kmax, g, d, d))
            grp.A[kk, jj] = np.concatenate([op.stacks[bi] for bi in blocks])
            grp.rows = np.full((kmax, g, 1, 1), m, dtype=np.intp)
            grp.rows[kk, jj, 0, 0] = np.concatenate(acts)
            # (cells, blocks) of the group's part of each sum; act_at[j, k]
            # is slot j's k-th active row, m past its count
            act_at = grp.rows[:, :, 0, 0].T
            live = act_at < m
            sch = np.where(
                live[:, :, None] & live[:, None, :],
                act_at[:, :, None] * m + act_at[:, None, :],
                m * m,
            )
            at.append((
                (grp.rows, blocks[None].repeat(kmax, 0)),
                (sch, blocks.repeat(kmax * kmax)),
                (np.zeros(g, np.intp), blocks),
                (grp.side, blocks[None].repeat(2, 0)),
            ))
            self.groups.append(grp)
        self.row_sums, self.schur, self.slot_sum, self.xs_sums = (
            _ordered_sum(n, [a[i] for a in at])
            for i, n in enumerate((m, m * m, 1, 2))
        )


def _pairs(grp: _Group, z: np.ndarray) -> np.ndarray:
    """np.sum(A_i * Z) for every (active row, slot) pair of a group."""
    k, g, d = grp.A.shape[:3]
    return np.add.reduce((grp.A * z).reshape(k, g, d * d), axis=-1)


def _subtract_rows(grp: _Group, base: np.ndarray, yx: np.ndarray) -> np.ndarray:
    """base - y_i A_i over each slot's active rows, one row at a time
    (subtract.reduce over axis 0 subtracts the terms in order)."""
    terms = np.concatenate((base[None], yx[grp.rows] * grp.A))
    return np.subtract.reduce(terms, axis=0)


# ---------------------------------------------------------------------------
# the iteration


class _Ipm:
    """IPM state of one problem.

    XS holds each group's (X, S) stack, vec the vector part [s | sig | y |
    0] (the zero is the multiplier padded rows read), and large whether
    the iterate has an entry beyond _DIVERGE_CAP.
    """

    def __init__(self, p: _Problem, max_iter: int):
        self.p, self.max_iter = p, max_iter
        scale = _INITIAL_SCALE
        self.XS = [
            np.repeat((scale * np.eye(g.dim))[None], 2 * g.n, axis=0)
            for g in p.groups
        ]
        self.vec = np.concatenate((scale * np.ones(2 * p.NS), np.zeros(p.m + 1)))
        self.large = self._scan(self.XS, self.vec)[1]
        self.history: list = []

    def _record(self, status, iterations, report) -> dict:
        """The current iterate as final."""
        p, XS, vec, NS = self.p, self.XS, self.vec, self.p.NS
        return dict(
            status=status,
            iterations=iterations,
            X=[XS[gi][j] for gi, j in p.where],
            S=[XS[gi][j] for gi, j in p.where_s],
            s=vec[:NS],
            sig=vec[NS : 2 * NS],
            y=vec[2 * NS : -1],
            value=report[0],
            dres=report[1],
            gap=report[2],
        )

    def residuals(self):
        """Residuals, objectives and stopping tests at the current iterate:
        (report, mu, optimal, diverged, (r_p, rd, rds)), with report =
        (primal objective, dual residual, relative gap)."""
        p, XS, NS = self.p, self.XS, self.p.NS
        s, sig, yx = self.vec[:NS], self.vec[NS : 2 * NS], self.vec[2 * NS :]
        y = yx[: p.m]
        lhs = p.row_sums([_pairs(g, xs[: g.n]) for g, xs in zip(p.groups, XS)])
        lhs[p.slack_rows] += s
        r_p = p.d_vec - lhs
        rd = [
            _subtract_rows(g, g.C, yx) - xs[g.n :] for g, xs in zip(p.groups, XS)
        ]
        rds = -y[p.slack_rows] - sig

        # <C, X> and <X, S> of every slot as one stack [X; S] * [C; X]
        pobj, compl = p.xs_sums(
            [
                _inner(xs, np.concatenate((g.C, xs[: g.n])))
                for g, xs in zip(p.groups, XS)
            ]
        ).tolist()
        # the scalars are Python floats from here on; no divisor can be 0
        # (n_tot and 1 + |pobj| + |dobj| are at least 1, or NaN)
        dobj = float(np.dot(p.d_vec, y))
        compl += float(np.dot(s, sig))
        mu = compl / p.n_tot
        # |rd| per slot, and Python's max of them in block order
        norms = []
        for r in rd:
            flat = r.reshape(len(r), 1, -1)
            norms.append(np.sqrt(np.matmul(flat, flat.mT)[:, 0, 0]).tolist())
        pres = float(np.maximum.reduce(np.abs(r_p), axis=None, initial=0.0))
        dres = max((norms[gi][j] for gi, j in p.where), default=0.0)
        dres_s = float(np.maximum.reduce(np.abs(rds), axis=None, initial=0.0))
        dres = dres_s if dres_s > dres else dres
        gap = abs(pobj - dobj)
        gap = (compl if compl > gap else gap) / (1.0 + abs(pobj) + abs(dobj))
        optimal = (
            pres <= p.d_scale * _TOL
            and dres <= p.c_scale * _TOL
            and gap <= _TOL
        )
        diverged = not optimal and self.large
        return (pobj, dres, gap), mu, optimal, diverged, (r_p, rd, rds)

    def _scan(self, XS, vec):
        """One pass over an iterate: (bad, large). bad is a non-finite entry,
        or an X or S entry beyond half the largest double (where
        symmetrizing, 0.5 * (v + v), overflows); large an entry beyond
        _DIVERGE_CAP."""
        peaks = [np.maximum.reduce(np.abs(a), axis=None) for a in (*XS, vec)]
        if all(p <= _DIVERGE_CAP for p in peaks):
            return False, False
        blk = np.maximum.reduce(peaks[:-1], axis=None, initial=0.0)
        rest = np.maximum.reduce(np.abs(vec[:-1]), axis=None, initial=0.0)
        bad = not blk <= HALF_MAX or not np.isfinite(rest)
        return bad, bool(np.maximum(blk, rest) > _DIVERGE_CAP)

    def step(self, mu, r_p, rd, rds):
        """One predictor-corrector step; returns the new (XS, vec). A
        LinAlgError means the linear algebra broke down."""
        p, XS, vec = self.p, self.XS, self.vec
        groups, NS, m = p.groups, p.NS, p.m
        s, sig = vec[:NS], vec[NS : 2 * NS]

        W = [_nt_scaling(xs[: g.n], xs[g.n :]) for g, xs in zip(groups, XS)]
        w2 = s / sig
        s_inv = [sk.inv(xs[g.n :]) for g, xs in zip(groups, XS)]
        # X and S of a group factor as one stack, and their step lengths
        # come out of one stack too
        chol_xs = [_xs_factor(xs) for xs in XS]

        # Schur complement M_ij = sum_b <A_i, W A_j W> (+ slack)
        M = p.schur(
            [np.einsum("kgab,lgab->gkl", g.A, w @ g.A @ w) for g, w in zip(groups, W)]
        )
        M[p.slack_diag] += w2
        chol = _schur_factor(M.reshape(m, m))

        wrw = [w @ r @ w for w, r in zip(W, rd)]

        def directions(tau):
            """Each group's (dX, dS) stack and the direction of vec."""
            e_blk = [tau * si - xs[: g.n] for g, si, xs in zip(groups, s_inv, XS)]
            e_slk = tau / sig - s
            g_vec = p.row_sums(
                [_pairs(g, e - t) for g, e, t in zip(groups, e_blk, wrw)]
            )
            g_vec[p.slack_rows] += e_slk - w2 * rds
            rhs = r_p - g_vec
            dvec = np.zeros(2 * NS + m + 1)
            dyx = dvec[2 * NS :]
            dyx[:m] = _cholesky_solve(chol, rhs.reshape(m, 1)).ravel()
            dxs = []
            for g, r, e, w in zip(groups, rd, e_blk, W):
                d = np.empty((2 * g.n, g.dim, g.dim))
                a = _subtract_rows(g, r, dyx)
                ds = np.multiply(0.5, a + a.mT, out=d[g.n :])
                a = e - w @ ds @ w
                np.multiply(0.5, a + a.mT, out=d[: g.n])
                dxs.append(d)
            dsig = np.subtract(rds, dyx[p.slack_rows], out=dvec[NS : 2 * NS])
            np.subtract(e_slk, w2 * dsig, out=dvec[:NS])
            return dxs, dvec

        def lengths(dxs, dvec):
            """The (primal, dual) step lengths: the largest steps keeping
            the blocks PSD and the slacks nonnegative, cut back by the step
            fraction and capped at 1. A block's step is inf where its
            smallest eigenvalue v is at least -1e-14 (dx points inward),
            else -1 / v. Over blocks, the minimum is Python's, in block
            order; over slacks, numpy's, so a NaN wins."""
            lam = [_boundary_eig(c, d).tolist() for c, d in zip(chol_xs, dxs)]
            t = [
                min(
                    (
                        math.inf if v >= -1e-14 else -1.0 / v
                        for v in (lam[gi][j] for gi, j in slots)
                    ),
                    default=math.inf,
                )
                for slots in (p.where, p.where_s)
            ]
            if NS:
                v, dv = vec[: 2 * NS], dvec[: 2 * NS]
                slk = np.minimum.reduce(
                    np.where(dv < 0, -v / dv, np.inf).reshape(2, NS), axis=1
                )
                t = [min(b, s) for b, s in zip(t, slk.tolist())]
            return np.array([min(1.0, _STEP_FRACTION * x) for x in t])

        def moved(t, dxs):
            return [xs + t[g.side] * d for g, xs, d in zip(groups, XS, dxs)]

        # affine probe fixes the centering weight
        dxa, dva = directions(0.0)
        ta = lengths(dxa, dva)
        (tr_aff,) = p.slot_sum(
            [_inner(xs[: g.n], xs[g.n :]) for g, xs in zip(groups, moved(ta, dxa))]
        ).tolist()
        sa = vec[: 2 * NS] + ta[p.vec_side[: 2 * NS]] * dva[: 2 * NS]
        tr_aff += float(np.dot(sa[:NS], sa[NS:]))
        sigma = _centering(tr_aff / p.n_tot, mu)

        dxs, dvec = directions(sigma * mu)
        t = lengths(dxs, dvec)
        return moved(t, dxs), vec + t[p.vec_side] * dvec

    def run(self) -> dict:
        """Iterate until the problem stops; returns its final record."""
        # overflow in a diverging run is detected by the finite-iterate guard
        # below; suppress the intermediate warnings it would spray
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for it in range(1, self.max_iter + 1):
                report, mu, optimal, diverged, (r_p, rd, rds) = self.residuals()
                self.history.append(mu)
                if optimal or diverged:
                    status = SolveStatus.OPTIMAL if optimal else SolveStatus.DIVERGED
                    return self._record(status, it, report)
                try:
                    XS, vec = self.step(mu, r_p, rd, rds)
                except _LinAlgError:
                    return self._record(SolveStatus.NUMERICAL_FAILURE, it, report)
                nonfinite, self.large = self._scan(XS, vec)
                if nonfinite:
                    return self._record(SolveStatus.DIVERGED, it, report)
                self.XS, self.vec = XS, vec
        return self._record(SolveStatus.MAX_ITER, self.max_iter, report)


def _solution(p: _Problem, rec: dict, history: list) -> SdpSolution:
    """The user-facing solution of one problem, in the orientation of its
    input BlockSdp."""
    b, kept = p.b, np.array(p.kept, dtype=np.intp)
    slacks = np.zeros(b.n_rows)
    duals = np.zeros(b.n_rows)
    if len(kept):
        slacks[kept[p.slack_rows]] = rec["s"]
        coeff = b.operator.slack_coeffs[kept]
        duals[kept] = np.where(coeff == -1, -1.0, 1.0) * rec["y"]

    # residuals reported against the full standardized system, so presolve-
    # dropped (implied) rows are audited too
    full_lhs = p.full.apply(rec["X"])
    with_slack = np.flatnonzero(p.full.slack_coeffs)
    full_lhs[with_slack] += slacks[with_slack]
    pres_full = np.abs(p.full.rhs - full_lhs).max(initial=0.0)

    # the record's iterate passed _Ipm._scan (or is the starting one): every
    # entry is finite and at most HALF_MAX, so the symmetric parts are
    # finite and each is adopted as it is
    return SdpSolution(
        blocks=[SymMatrix._adopt(0.5 * (x + x.T)) for x in rec["X"]],
        slacks=slacks,
        dual_multipliers=duals,
        dual_blocks=[SymMatrix._adopt(0.5 * (s + s.T)) for s in rec["S"]],
        status=rec["status"],
        value=float(rec["value"]),
        primal_residual=float(pres_full),
        dual_residual=float(rec["dres"]),
        gap=float(rec["gap"]),
        iterations=rec["iterations"],
        mu_history=history,
    )


def solve(b: BlockSdp, max_iter: int = 200) -> SdpSolution:
    """Solve a BlockSdp and return a primal-dual solution, stopping after
    at most max_iter iterations (an integer of at least 1, not a bool).

    The input may use any mix of relations; it is standardized internally.
    Reported slacks are the nonnegative amounts by which inequality rows
    are off their rhs; dual multipliers are oriented against the rows as
    written in b (a >= row's multiplier is the negation of the multiplier
    of its standardized, negated form). A structural fault, such as
    contradictory equality rows, raises.
    """
    n = _int_at_least(max_iter, 1)
    if n is None:
        raise ValueError("max_iter must be an integer of at least 1")
    p = _Problem(b)
    ipm = _Ipm(p, n)
    return _solution(p, ipm.run(), ipm.history)
