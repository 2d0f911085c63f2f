"""Extreme-point rank reduction for block SDP solutions.

An optimal solution returned by an interior-point method sits in the
relative interior of the optimal face and typically has maximal rank.
This module walks it to an extreme point of that face: factor each block,
restrict the constraint rows and the objective row to the subspaces the
factors span (plus the supports of positive slacks), and move along null
directions of that restricted system until none remain. Each move steps
exactly to the cone boundary, so every iteration kills at least one block
eigenvalue or one slack while preserving feasibility and objective value.

At a null-free point the count sum_q r_q (r_q + 1) / 2 + #positive slacks
cannot exceed the number of rows, which is what forces blockwise rank one
in the certified regimes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .certificates import pataki_count
from .errors import ReductionStallError, StaleSolutionError, StructureError
from .sdpr_builder import BlockSdp, SdpSolution, SolveStatus
from .symkernel import SymMatrix, numeric_rank

#: steps shorter than this count as stalled; two of them abort the run
_STALL_STEP = 1e-14


class BlockKind(enum.Enum):
    INHOMOGENEOUS = "inhom"
    HOMOGENEOUS = "hom"


def block_kinds_of(b: BlockSdp) -> list[BlockKind]:
    """A block is inhomogeneous exactly when a normalization row pins it."""
    kinds = [BlockKind.HOMOGENEOUS] * b.n_blocks
    for i in b.normalization_rows:
        for bi, mat in enumerate(b.rows[i].mats):
            if not mat.is_zero():
                kinds[bi] = BlockKind.INHOMOGENEOUS
    return kinds


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


def _svec(a: np.ndarray) -> np.ndarray:
    """Orthonormal packing: <A, B> = _svec(A) . _svec(B)."""
    d = a.shape[0]
    iu = np.triu_indices(d)
    out = a[iu].copy()
    out[iu[0] != iu[1]] *= np.sqrt(2.0)
    return out


def _unsvec(v: np.ndarray, d: int) -> np.ndarray:
    iu = np.triu_indices(d)
    a = np.zeros((d, d))
    vals = v.copy()
    vals[iu[0] != iu[1]] /= np.sqrt(2.0)
    a[iu] = vals
    a.T[iu] = vals
    return a


def reduce(
    b: BlockSdp,
    sol: SdpSolution,
    tol: float = 1e-7,
    rank_tol: float = 1e-6,
) -> tuple[SdpSolution, ReductionReport]:
    """Move an optimal solution to an extreme point of the optimal face.

    b must be in standard form (no -1 slack coefficients); sol must be an
    Optimal solution of it, near-feasible within 100*tol. The returned
    solution is feasible within 10*tol with the objective preserved within
    tol*(1+|value|), and admits no further null-space move. The report
    carries final ranks, the rank/slack count, the row-count bound, and
    the extracted per-block factors when every block ended at rank <= 1.
    """
    for row in b.rows:
        if row.slack_coeff == -1:
            raise StructureError("reduce requires a standard-form BlockSdp")
    if sol.status is not SolveStatus.OPTIMAL:
        raise StaleSolutionError(f"solution status is {sol.status.value}")
    if len(sol.blocks) != b.n_blocks or len(sol.slacks) != b.n_rows:
        raise StaleSolutionError("solution shape does not match the problem")

    nb = b.n_blocks
    dims = list(b.block_dims)
    A = [[row.mats[bi].to_dense() for bi in range(nb)] for row in b.rows]
    C = [mat.to_dense() for mat in b.objective]
    d_vec = np.array([row.rhs for row in b.rows])
    has_slack = np.array([row.slack_coeff != 0 for row in b.rows])

    X = [blk.to_dense().copy() for blk in sol.blocks]
    s = sol.slacks.astype(np.float64).copy()
    s[~has_slack] = 0.0

    def row_values():
        out = np.array(
            [sum(float(np.sum(A[i][bi] * X[bi])) for bi in range(nb))
             for i in range(b.n_rows)]
        )
        return out + np.where(has_slack, s, 0.0)

    def objective():
        return sum(float(np.sum(C[bi] * X[bi])) for bi in range(nb))

    scale_rhs = 1.0 + np.abs(d_vec).max(initial=0.0)
    res0 = np.abs(row_values() - d_vec).max(initial=0.0)
    if res0 > 100.0 * tol * scale_rhs or s.min(initial=0.0) < -100.0 * tol:
        raise StaleSolutionError(
            f"input residual {res0:.2e} too large for reduction at tol {tol:g}"
        )
    value0 = objective()
    vscale = tol * (1.0 + abs(value0))

    xmax = max((np.abs(x).max(initial=0.0) for x in X), default=0.0)
    freeze = tol * (1.0 + xmax)

    # eigenvalues below this slice of rank_tol are solver noise: keeping
    # them creates nearly-degenerate columns whose null directions have
    # far-away boundaries, which amplifies the off-null rounding error
    factor_cut = 0.1 * rank_tol

    def factor_blocks():
        """Per-block factors F with X ~= F F^T; frozen blocks get width 0."""
        fs = []
        for bi in range(nb):
            x = X[bi]
            if np.linalg.norm(x) <= freeze:
                X[bi] = np.zeros_like(x)
                fs.append(np.zeros((dims[bi], 0)))
                continue
            lam, vec = np.linalg.eigh(0.5 * (x + x.T))
            cut = factor_cut * max(1.0, lam.max(initial=0.0))
            keep = lam > cut
            fs.append(vec[:, keep] * np.sqrt(lam[keep]))
        return fs

    smax = np.abs(s).max(initial=0.0)
    slack_live = lambda: [
        i for i in range(b.n_rows)
        if has_slack[i] and s[i] > tol * (1.0 + smax)
    ]

    def build_system(fs, live, include_objective=True):
        """Rows of the restricted linear map; returns (matrix, col layout)."""
        widths = [f.shape[1] for f in fs]
        cols = sum(w * (w + 1) // 2 for w in widths) + len(live)
        sys_rows = []

        def project(mats):
            parts = []
            for bi in range(nb):
                f = fs[bi]
                if f.shape[1] == 0:
                    continue
                g = f.T @ mats[bi] @ f
                parts.append(_svec(0.5 * (g + g.T)))
            return parts

        for i in range(b.n_rows):
            parts = project(A[i])
            slack_part = np.zeros(len(live))
            if i in live:
                slack_part[live.index(i)] = 1.0
            sys_rows.append(np.concatenate(parts + [slack_part]) if parts or len(live)
                            else np.zeros(0))
        if include_objective:
            parts = project(C)
            sys_rows.append(np.concatenate(parts + [np.zeros(len(live))])
                            if parts or len(live) else np.zeros(0))
        mat = np.vstack(sys_rows) if sys_rows else np.zeros((0, cols))
        return mat, widths

    def null_candidates(mat):
        """Null-space basis vectors of mat, most reliable first.

        Rows are normalized so the singular-value cutoff is scale free;
        right singular vectors past the numerical rank are null to machine
        precision rather than merely small.
        """
        if mat.shape[1] == 0:
            return []
        norms = np.linalg.norm(mat, axis=1)
        scaled = mat / np.maximum(norms, 1.0)[:, None]
        _, sig, vt = np.linalg.svd(scaled, full_matrices=True)
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
            lmin = float(np.linalg.eigvalsh(lam_dir)[0])
            if lmin < -1e-300:
                t = -1.0 / lmin
                if t < best_t - 1e-15 or (
                    abs(t - best_t) <= 1e-15
                    and hit is not None
                    and hit[0] == "slack"
                ):
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

    def make_report(extracted=None):
        ranks = [numeric_rank(SymMatrix.from_dense(x), tol=rank_tol) for x in X]
        return ReductionReport(
            iterations=iterations,
            final_ranks=ranks,
            # s is zero on rows without a slack
            pataki_sum=pataki_count(ranks, s, rank_tol),
            bound_m=b.n_rows,
            extracted=extracted,
        )

    def stall(msg):
        raise ReductionStallError(msg, report=make_report())

    while True:
        fs = factor_blocks()
        live = slack_live()
        mat, widths = build_system(fs, live, include_objective=True)
        res_budget = 3.0 * tol * scale_rhs

        def obj_velocity(lams):
            return sum(
                float(np.sum(C[bi] * (fs[bi] @ lams[bi] @ fs[bi].T)))
                for bi in range(nb)
            )

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
            mat2, _ = build_system(fs, live, include_objective=False)
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

        res = np.abs(row_values() - d_vec).max(initial=0.0)
        drift = abs(objective() - value0)
        if res > 10.0 * tol * scale_rhs or drift > vscale:
            stall(
                f"invariants broken: residual {res:.2e}, objective drift "
                f"{drift:.2e}"
            )

    kinds = block_kinds_of(b)
    ext = extract_point(
        SdpSolution(
            blocks=[SymMatrix.from_dense(x) for x in X],
            slacks=s,
            dual_multipliers=sol.dual_multipliers,
            dual_blocks=sol.dual_blocks,
            status=SolveStatus.OPTIMAL,
            value=objective(),
        ),
        kinds,
        rank_tol=rank_tol,
    )
    report = make_report(extracted=ext.points if ext.ok else None)
    out = SdpSolution(
        blocks=[SymMatrix.from_dense(x) for x in X],
        slacks=s,
        dual_multipliers=sol.dual_multipliers.copy(),
        dual_blocks=list(sol.dual_blocks),
        status=SolveStatus.OPTIMAL,
        value=objective(),
        primal_residual=float(np.abs(row_values() - d_vec).max(initial=0.0)),
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
    block_kinds = list(block_kinds)
    if len(block_kinds) != len(sol.blocks):
        raise StructureError(
            f"{len(block_kinds)} kinds for {len(sol.blocks)} blocks"
        )
    points = []
    for bi, (blk, kind) in enumerate(zip(sol.blocks, block_kinds)):
        x = blk.to_dense()
        r = numeric_rank(blk, tol=rank_tol)
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
            points.append(np.zeros(blk.dim))
            continue
        lam, vec = np.linalg.eigh(0.5 * (x + x.T))
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
