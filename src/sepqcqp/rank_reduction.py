"""Extreme-point rank reduction for block SDP solutions.

An optimal solution returned by an interior-point method sits in the
relative interior of the optimal face and typically has maximal rank.
This module walks it to an extreme point of that face: factor each block,
restrict the constraint rows and the objective row to the subspaces the
factors span (plus the supports of positive slacks), and move along null
directions of that restricted system until none remain. Each move steps
exactly to the cone boundary, so every iteration kills at least one block
eigenvalue or one slack while preserving feasibility and objective value.

The rows are the BlockSdp's sdpr_builder.RowOperator (the one the
solver read), with the objective appended as its last row. Row
values are the operator applied to the blocks. The restricted system
projects, per block, only the rows active on that block, as one stacked
F^T A F, so the (row, block) pairs without a matrix stay exactly zero.
Every iterate takes one stacked eigendecomposition per block dimension,
after one stacked norm per dimension has frozen the blocks that are
numerically zero; it gives the factors. The last iterate's serves the
report too (the final ranks, one stacked rank test per dimension, the
Pataki count and the extracted points), unless that iterate froze a
block, which is then decomposed once more. A walk that takes no step
and freezes nothing returns its input blocks as the reduced solution,
since symmetrizing them again would return them unchanged: it costs one
eigendecomposition per dimension, the restricted system and its two
null-space tests (symkernel.svd, numpy's svd without the wrapper), and
no copy of a block.

At a null-free point the count sum_q r_q (r_q + 1) / 2 + #positive slacks
cannot exceed the number of rows, which is what forces blockwise rank one
in the certified regimes.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .certificates import pataki_count
from .errors import ReductionStallError, StaleSolutionError, StructureError
from .sdpr_builder import BlockSdp, RowOperator, SdpSolution, SolveStatus
from .symkernel import (
    HALF_MAX,
    SymMatrix,
    by_dim,
    eigh,
    eigh_many,
    eigvalsh,
    rank_of_eigenvalues_many,
    svd,
)

#: steps shorter than this count as stalled; two of them abort the run
_STALL_STEP = 1e-14


class BlockKind(enum.Enum):
    INHOMOGENEOUS = "inhom"
    HOMOGENEOUS = "hom"


def block_kinds_of(b: BlockSdp, op: RowOperator | None = None) -> list[BlockKind]:
    """A block is inhomogeneous exactly when a normalization row pins it.

    op is b's row operator (b.operator when not given; it may
    carry extra rows after b's): a row pins a block when it is active there.
    """
    if op is None:
        op = b.operator
    pins = np.zeros(op.n_rows, dtype=bool)
    pins[list(b.normalization_rows)] = True
    return [
        BlockKind.INHOMOGENEOUS if pins[act].any() else BlockKind.HOMOGENEOUS
        for act in op.active
    ]


@dataclass(frozen=True)
class ReductionReport:
    iterations: int
    final_ranks: list
    pataki_sum: int
    bound_m: int
    extracted: list | None


@dataclass(frozen=True)
class ExtractResult:
    points: list | None
    failed_block: int | None = None
    reason: str = ""

    @property
    def ok(self) -> bool:
        return self.points is not None


@functools.cache
def _svec_layout(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Upper-triangle indices of a d x d matrix in row-major order and the
    packing weights, 1 on the diagonal and sqrt(2) off it (read-only)."""
    iu, ju = np.triu_indices(d)
    w = np.where(iu == ju, 1.0, np.sqrt(2.0))
    for a in (iu, ju, w):
        a.flags.writeable = False
    return iu, ju, w


def _svec(a: np.ndarray) -> np.ndarray:
    """Orthonormal packing of the last two axes: <A, B> = _svec(A) . _svec(B)."""
    iu, ju, w = _svec_layout(a.shape[-1])
    return a[..., iu, ju] * w


def _unsvec(v: np.ndarray, d: int) -> np.ndarray:
    iu, ju, w = _svec_layout(d)
    vals = v / w
    a = np.zeros((d, d))
    a[iu, ju] = vals
    a[ju, iu] = vals
    return a


def reduce(
    b: BlockSdp,
    sol: SdpSolution,
    tol: float = 1e-7,
    rank_tol: float = 1e-6,
) -> tuple[SdpSolution, ReductionReport]:
    """Move an optimal solution to an extreme point of the optimal face.

    b must be in standard form (no -1 slack coefficients); sol must be an
    Optimal solution of it with finite slacks, near-feasible within
    100*tol. The returned solution is feasible within 10*tol with the
    objective preserved within tol*(1+|value|), and admits no further
    null-space move. The report carries final ranks, the rank/slack count,
    the row-count bound, and the extracted per-block factors when every
    block ended at rank <= 1.

    b's rows are its operator (b.operator), the one the solver read when
    it solved b; the objective joins them as one extra row
    (RowOperator.with_row). Each iterate projects only the active (row,
    block) pairs, block by block in one stacked product, and factors all
    blocks with one stacked eigendecomposition per block dimension; the
    last one also gives the report when it froze no block.
    """
    if (b.operator.slack_coeffs == -1.0).any():
        raise StructureError("reduce requires a standard-form BlockSdp")
    if sol.status is not SolveStatus.OPTIMAL:
        raise StaleSolutionError(f"solution status is {sol.status.value}")
    if len(sol.blocks) != b.n_blocks or len(sol.slacks) != b.n_rows:
        raise StaleSolutionError("solution shape does not match the problem")
    if not np.isfinite(sol.slacks).all():
        raise StaleSolutionError("solution slacks are not finite")

    nb = b.n_blocks
    m = b.n_rows
    dims = list(b.block_dims)
    # row m is the objective
    op = b.operator.with_row(b.objective)
    d_vec = op.rhs[:m]
    has_slack = op.slack_coeffs[:m] != 0

    # read-only; an iterate replaces its blocks, never writes into them
    X = [blk.array for blk in sol.blocks]
    s = sol.slacks.astype(np.float64)
    s[~has_slack] = 0.0

    def evaluate():
        """(max row residual, objective value) at the current point."""
        vals = op.apply(X)
        return np.abs(vals[:m] + s - d_vec).max(initial=0.0), float(vals[m])

    scale_rhs = 1.0 + np.abs(d_vec).max(initial=0.0)
    res0, value0 = evaluate()
    # written so that a NaN fails them
    if not (res0 <= 100.0 * tol * scale_rhs and s.min(initial=0.0) >= -100.0 * tol):
        raise StaleSolutionError(
            f"input residual {res0:.2e} too large for reduction at tol {tol:g}"
        )
    vscale = tol * (1.0 + abs(value0))

    xmax = max((np.abs(x).max(initial=0.0) for x in X), default=0.0)
    freeze = tol * (1.0 + xmax)

    # eigenvalues below this slice of rank_tol are solver noise: keeping
    # them creates nearly-degenerate columns whose null directions have
    # far-away boundaries, which amplifies the off-null rounding error
    factor_cut = 0.1 * rank_tol

    groups = by_dim(dims)

    def factor_blocks():
        """Per-block factors F with X ~= F F^T (frozen blocks get width 0),
        and the spectra of every block when none froze (else None).

        Per dimension, one stacked Frobenius norm (np.linalg.norm's one
        dot per block) decides the frozen blocks and one stacked eigh
        decomposes the others; their eigenvalue cuts are one test, and
        the eigenvectors are scaled by the roots of their eigenvalues as
        one product."""
        fs = [np.zeros((d, 0)) for d in dims]
        eigs, any_cold = [None] * nb, False
        for idx in groups:
            st = np.stack([X[bi] for bi in idx])
            flat = st.reshape(len(idx), -1)
            norm = np.sqrt(np.matmul(flat[:, None, :], flat[:, :, None])[:, 0, 0])
            cold = norm <= freeze
            if cold.any():
                any_cold = True
                for bi in idx[cold]:
                    X[bi] = np.zeros_like(X[bi])
                if cold.all():
                    continue
                st, idx = st[~cold], idx[~cold]
            lam, vec = eigh(0.5 * (st + st.swapaxes(1, 2)))
            peak = lam.max(axis=1, initial=0.0)
            keep = lam > (factor_cut * np.where(peak > 1.0, peak, 1.0))[:, None]
            roots = vec * np.sqrt(np.where(keep, lam, 0.0))[:, None, :]
            for k, bi in enumerate(idx.tolist()):
                fs[bi] = roots[k][:, keep[k]]
                eigs[bi] = (lam[k], vec[k])
        return fs, (None if any_cold else eigs)

    smax = np.abs(s).max(initial=0.0)
    slack_live = lambda: [
        i for i in range(m)
        if has_slack[i] and s[i] > tol * (1.0 + smax)
    ]

    def build_system(fs, live):
        """The restricted linear map, the constraint rows first and the
        objective last; returns (matrix, block widths)."""
        widths = [f.shape[1] for f in fs]
        ofs = np.cumsum([0] + [w * (w + 1) // 2 for w in widths])
        mat = np.zeros((m + 1, ofs[-1] + len(live)))
        for bi, f in enumerate(fs):
            act = op.active[bi]
            if widths[bi] == 0 or len(act) == 0:
                continue
            g = f.T @ op.stacks[bi] @ f
            mat[act, ofs[bi] : ofs[bi + 1]] = _svec(0.5 * (g + g.swapaxes(-1, -2)))
        mat[live, ofs[-1] + np.arange(len(live))] = 1.0
        return mat, widths

    def null_candidates(mat):
        """Null-space basis vectors of mat, most reliable first.

        Rows are normalized so the singular-value cutoff is scale free;
        right singular vectors past the numerical rank are null to machine
        precision rather than merely small.
        """
        if mat.shape[1] == 0:
            return []
        # np.linalg.norm(mat, axis=1) and np.linalg.svd, their operations
        norms = np.sqrt(np.add.reduce(mat * mat, axis=1))
        scaled = mat / np.maximum(norms, 1.0)[:, None]
        _, sig, vt = svd(scaled)
        rank = int(np.sum(sig > 1e-9 * max(1.0, sig[0] if sig.size else 0.0)))
        return [vt[j] for j in range(mat.shape[1] - 1, rank - 1, -1)]

    def split_direction(z, widths):
        lams = []
        ofs = 0
        for w in widths:
            k = w * (w + 1) // 2
            lams.append(_unsvec(z[ofs : ofs + k], w))
            ofs += k
        ds = z[ofs:]
        # normalize so the boundary step stays well scaled
        scale = max(
            max((np.linalg.norm(lam) for lam in lams), default=0.0),
            np.abs(ds).max(initial=0.0),
        )
        if scale > 0:
            lams = [lam / scale for lam in lams]
            ds = ds / scale
        return lams, ds, scale

    def boundary(lams, ds, live, sign):
        """(step to boundary, hit kind, hit index) for direction sign*z."""
        best_t, hit = np.inf, None
        for bi in range(nb):
            lam_dir = sign * lams[bi]
            if lam_dir.size == 0:
                continue
            lmin = float(eigvalsh(lam_dir)[0])
            if lmin < -1e-300:
                t = -1.0 / lmin
                if t < best_t - 1e-15:
                    best_t, hit = t, ("block", bi)
        for j, i in enumerate(live):
            dv = sign * ds[j]
            if dv < -1e-300:
                t = -s[i] / dv
                if t < best_t - 1e-15:
                    best_t, hit = t, ("slack", i)
        return best_t, hit

    iterations = 0
    tiny_steps = 0
    max_iter = sum(dims) + int(np.sum(has_slack)) + 5

    def spectra():
        return eigh_many([0.5 * (x + x.T) for x in X])

    def ranks_of(eigs):
        return rank_of_eigenvalues_many([lam for lam, _ in eigs], rank_tol)

    def make_report(ranks, extracted=None):
        return ReductionReport(
            iterations=iterations,
            final_ranks=ranks,
            # s is zero on rows without a slack
            pataki_sum=pataki_count(ranks, s, rank_tol),
            bound_m=m,
            extracted=extracted,
        )

    def stall(msg):
        raise ReductionStallError(msg, report=make_report(ranks_of(spectra())))

    frozen = False
    while True:
        fs, eigs = factor_blocks()
        frozen |= eigs is None
        live = slack_live()
        mat, widths = build_system(fs, live)
        res_budget = 3.0 * tol * scale_rhs

        def obj_velocity(lams):
            return float(op.apply([f @ lam @ f.T for f, lam in zip(fs, lams)])[m])

        def admissible(z, sys_mat, one_sided):
            """Best boundary move along +-z, or None if every side either
            never hits the cone boundary or would smear rounding error
            beyond the feasibility and value budgets."""
            lams, ds, scale = split_direction(z, widths)
            if scale <= 0.0:
                return None
            vel = np.abs(sys_mat @ z).max(initial=0.0) / scale
            dval = obj_velocity(lams)
            signs = ((-1.0,) if dval > 0 else (1.0,)) if one_sided else (1.0, -1.0)
            options = []
            for sign in signs:
                t, hit = boundary(lams, ds, live, sign)
                if not np.isfinite(t) or hit is None:
                    continue
                if t * vel > res_budget or abs(t * dval) > 0.3 * vscale:
                    continue
                kind, idx = hit
                key = (0, idx) if kind == "block" else (1, idx)
                options.append((key, sign, t, hit, lams, ds))
            if not options:
                return None
            # prefer a step whose first boundary hit is a PSD block, then
            # the lowest block index; slacks only when no block hit exists
            options.sort(key=lambda o: o[0])
            return options[0]

        move = None
        cands = null_candidates(mat)
        for z in cands:
            move = admissible(z, mat, one_sided=False)
            if move is not None:
                break
        if move is None:
            if cands:
                stall("null directions are numerically unusable")
            # defensively also examine the constraint-only system: at a true
            # optimum its null space coincides with the one just tested
            mat2 = mat[:m]
            cands2 = null_candidates(mat2)
            for z in cands2:
                move = admissible(z, mat2, one_sided=True)
                if move is not None:
                    break
            if move is None and cands2:
                raise StaleSolutionError(
                    "a feasibility-preserving direction changes the objective; "
                    "input solution is not optimal at this tolerance"
                )
            if move is None:
                break
        iterations += 1
        if iterations > max_iter:
            stall(f"no termination after {max_iter} iterations")
        _, sign, t, hit, lams, ds = move

        if t < _STALL_STEP:
            tiny_steps += 1
            if tiny_steps >= 2:
                stall(f"step {t:.2e} below {_STALL_STEP:g} twice")
        for bi in range(nb):
            if widths[bi] == 0:
                continue
            core = np.eye(widths[bi]) + (sign * t) * lams[bi]
            xn = fs[bi] @ core @ fs[bi].T
            X[bi] = 0.5 * (xn + xn.T)
        for j, i in enumerate(live):
            s[i] = max(s[i] + sign * t * ds[j], 0.0)

        res, value = evaluate()
        drift = abs(value - value0)
        # written so that a NaN fails them
        if not (res <= 10.0 * tol * scale_rhs and drift <= vscale):
            stall(
                f"invariants broken: residual {res:.2e}, objective drift "
                f"{drift:.2e}"
            )

    # one decomposition of the final iterate serves the ranks, the Pataki
    # count and the extraction: the last factor_blocks' when no block froze
    # there, as it then decomposed every block of this iterate
    if eigs is None:
        eigs = spectra()
    ranks = ranks_of(eigs)
    ext = _extract(eigs, ranks, block_kinds_of(b, op), tol=1e-6)
    report = make_report(ranks, extracted=ext.points if ext.ok else None)
    if iterations or frozen or not xmax <= HALF_MAX:
        res, value = evaluate()
        blocks = [SymMatrix.from_dense(x) for x in X]
    else:
        # nothing moved: the input blocks are the output, and symmetrizing
        # them (exactly symmetric, no entry beyond half the largest
        # double) would return them unchanged
        res, value, blocks = res0, value0, list(sol.blocks)
    out = SdpSolution(
        blocks=blocks,
        slacks=s,
        dual_multipliers=sol.dual_multipliers.copy(),
        dual_blocks=list(sol.dual_blocks),
        status=SolveStatus.OPTIMAL,
        value=value,
        primal_residual=float(res),
        dual_residual=sol.dual_residual,
        gap=sol.gap,
        iterations=sol.iterations,
    )
    return out, report


def extract_point(
    sol: SdpSolution,
    block_kinds,
    tol: float = 1e-6,
    rank_tol: float = 1e-6,
) -> ExtractResult:
    """Read QCQP points out of a blockwise rank-<=1 solution.

    Homogeneous blocks give their factor vector (zero block -> zero
    vector; sign fixed by making the largest-magnitude coordinate
    positive). Inhomogeneous blocks must factor as g g^T with last
    coordinate within tol of +-1; the returned point is g / g_last minus
    the final coordinate. Any block of rank > 1 aborts with its index.
    """
    # written so that a NaN fails it
    if not 0.0 <= tol < math.inf:
        raise ValueError("tol must be nonnegative and finite")
    block_kinds = list(block_kinds)
    if len(block_kinds) != len(sol.blocks):
        raise StructureError(
            f"{len(block_kinds)} kinds for {len(sol.blocks)} blocks"
        )
    xs = [blk.to_dense() for blk in sol.blocks]
    eigs = eigh_many([0.5 * (x + x.T) for x in xs])
    ranks = rank_of_eigenvalues_many([lam for lam, _ in eigs], rank_tol)
    return _extract(eigs, ranks, block_kinds, tol)


def _extract(eigs, ranks, block_kinds, tol) -> ExtractResult:
    """extract_point from each block's (ascending) eigendecomposition and
    numeric rank."""
    points = []
    for bi, ((lam, vec), r, kind) in enumerate(zip(eigs, ranks, block_kinds)):
        if r > 1:
            return ExtractResult(
                None, failed_block=bi, reason=f"block {bi} has rank {r} > 1"
            )
        if r == 0:
            if kind is BlockKind.INHOMOGENEOUS:
                return ExtractResult(
                    None,
                    failed_block=bi,
                    reason=f"block {bi} is zero but carries a unit corner",
                )
            points.append(np.zeros(len(lam)))
            continue
        g = vec[:, -1] * np.sqrt(max(lam[-1], 0.0))
        if kind is BlockKind.HOMOGENEOUS:
            j = int(np.argmax(np.abs(g)))
            if g[j] < 0:
                g = -g
            points.append(g)
        else:
            last = g[-1]
            if abs(abs(last) - 1.0) > tol:
                return ExtractResult(
                    None,
                    failed_block=bi,
                    reason=(
                        f"block {bi} factor has corner coordinate {last:.6g}, "
                        "expected magnitude 1"
                    ),
                )
            points.append((g / last)[:-1])
    return ExtractResult(points)
