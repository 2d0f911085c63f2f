"""Primal-dual interior-point solver for block SDPs at desk scale.

Solves min sum_b <C_b, X_b> over PSD blocks plus nonnegative row slacks,
subject to the equality rows of a standardized BlockSdp. The method is an
infeasible-start path follower using the Nesterov-Todd scaling point, with
an adaptive centering weight chosen from an affine probe step (the probe
and the centering step share one factorization of the Schur complement).

Slacks ride along as 1x1 cone blocks, so a single step-length and scaling
rule covers everything. Linear algebra is dense throughout; the intended
regime is block dims <= ~10 and <= ~30 rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InfeasibleStructureError
from .sdpr_builder import (
    BlockSdp,
    SdpSolution,
    SolveStatus,
    to_standard_form,
)
from .symkernel import SymMatrix

#: iterate magnitude cap; beyond this the run is flagged Diverged
_DIVERGE_CAP = 1e10


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-8
    max_iter: int = 200
    initial_scale: float = 10.0
    step_fraction: float = 0.98

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if not 0.0 < self.step_fraction < 1.0:
            raise ValueError("step_fraction must lie in (0, 1)")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not self.initial_scale > 0:
            raise ValueError("initial_scale must be positive")


def _flatten_rows(std: BlockSdp) -> tuple[np.ndarray, np.ndarray]:
    """Rows of the standardized equality system as dense vectors over
    (all block entries) + (slack coordinates); used for the presolve rank
    tests only."""
    dims = std.block_dims
    slack_cols = {i: j for j, i in enumerate(
        i for i, r in enumerate(std.rows) if r.slack_coeff != 0
    )}
    width = sum(d * d for d in dims) + len(slack_cols)
    mat = np.zeros((len(std.rows), width))
    for i, row in enumerate(std.rows):
        ofs = 0
        for m, d in zip(row.mats, dims):
            mat[i, ofs : ofs + d * d] = m.to_dense().ravel()
            ofs += d * d
        if row.slack_coeff != 0:
            mat[i, ofs + slack_cols[i]] = float(row.slack_coeff)
    rhs = np.array([r.rhs for r in std.rows])
    return mat, rhs


def _presolve(std: BlockSdp) -> list[int]:
    """Return indices of a maximal independent row subset.

    Raises InfeasibleStructureError when the equality system is rank-
    inconsistent (a dependent row with a conflicting rhs). Dependent but
    consistent rows are dropped; they are implied by the kept ones and
    receive zero dual multipliers.
    """
    mat, rhs = _flatten_rows(std)
    if mat.shape[0] == 0:
        return []
    rank_a = np.linalg.matrix_rank(mat)
    rank_ad = np.linalg.matrix_rank(np.hstack([mat, rhs[:, None]]))
    if rank_ad > rank_a:
        raise InfeasibleStructureError(
            "equality rows are contradictory (rank test on [rows | rhs])"
        )
    if rank_a == mat.shape[0]:
        return list(range(mat.shape[0]))
    kept: list[int] = []
    stack = np.zeros((0, mat.shape[1]))
    for i in range(mat.shape[0]):
        trial = np.vstack([stack, mat[i]])
        if np.linalg.matrix_rank(trial) > stack.shape[0]:
            kept.append(i)
            stack = trial
    return kept


def _nt_scaling(x: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Nesterov-Todd scaling point W with W S W = X, both arguments PD."""
    lam, u = np.linalg.eigh(s)
    lam = np.maximum(lam, 1e-300)
    rt = u @ np.diag(np.sqrt(lam)) @ u.T
    irt = u @ np.diag(1.0 / np.sqrt(lam)) @ u.T
    inner = rt @ x @ rt
    om, v = np.linalg.eigh(0.5 * (inner + inner.T))
    om = np.maximum(om, 1e-300)
    return irt @ (v @ np.diag(np.sqrt(om)) @ v.T) @ irt


def _boundary_step(x: np.ndarray, dx: np.ndarray) -> float:
    """Largest t with x + t*dx still PSD (inf when dx points inward)."""
    try:
        chol = np.linalg.cholesky(x)
    except np.linalg.LinAlgError:
        chol = np.linalg.cholesky(x + (1e-12 * max(1.0, np.trace(x).real)) * np.eye(len(x)))
    h = np.linalg.solve(chol, np.linalg.solve(chol, dx).T).T
    lam_min = float(np.linalg.eigvalsh(0.5 * (h + h.T))[0])
    if lam_min >= -1e-14:
        return np.inf
    return -1.0 / lam_min


class _Iterate:
    """Mutable primal-dual state over PSD blocks plus scalar slacks."""

    def __init__(self, dims, n_slack, scale):
        self.X = [scale * np.eye(d) for d in dims]
        self.S = [scale * np.eye(d) for d in dims]
        self.s = scale * np.ones(n_slack)
        self.sig = scale * np.ones(n_slack)
        self.y = np.zeros(0)  # resized by caller

    def mu(self, n_tot: int) -> float:
        tr = sum(float(np.sum(x * s)) for x, s in zip(self.X, self.S))
        return (tr + float(self.s @ self.sig)) / max(n_tot, 1)

    def magnitude(self) -> float:
        parts = [np.abs(x).max(initial=0.0) for x in self.X]
        parts += [np.abs(s).max(initial=0.0) for s in self.S]
        parts.append(np.abs(self.s).max(initial=0.0))
        parts.append(np.abs(self.sig).max(initial=0.0))
        parts.append(np.abs(self.y).max(initial=0.0))
        return max(parts)

    def is_finite(self) -> bool:
        return (
            all(np.isfinite(x).all() for x in self.X)
            and all(np.isfinite(s).all() for s in self.S)
            and np.isfinite(self.s).all()
            and np.isfinite(self.sig).all()
            and np.isfinite(self.y).all()
        )

    def snapshot(self):
        return (
            [x.copy() for x in self.X],
            [s.copy() for s in self.S],
            self.s.copy(),
            self.sig.copy(),
            self.y.copy(),
        )

    def restore(self, snap):
        self.X, self.S, self.s, self.sig, self.y = (
            [x.copy() for x in snap[0]],
            [s.copy() for s in snap[1]],
            snap[2].copy(),
            snap[3].copy(),
            snap[4].copy(),
        )


def solve(b: BlockSdp, opts: SolverOptions | None = None) -> SdpSolution:
    """Solve a BlockSdp and return a primal-dual solution.

    The input may use any mix of relations; it is standardized internally.
    Reported slacks are the nonnegative amounts by which inequality rows
    are off their rhs; dual multipliers are oriented against the rows as
    written in b (a >= row's multiplier is the negation of the multiplier
    of its standardized, negated form).
    """
    if opts is None:
        opts = SolverOptions()
    std = to_standard_form(b)
    kept = _presolve(std)
    kept_set = set(kept)

    dims = list(std.block_dims)
    nb = len(dims)
    C = [mat.to_dense() for mat in std.objective]
    rows = [std.rows[i] for i in kept]
    m_t = len(rows)
    d_vec = np.array([r.rhs for r in rows])
    # slack bookkeeping: position of each kept row's slack in the slack vector
    slack_of_row = np.full(m_t, -1, dtype=int)
    j = 0
    for i, r in enumerate(rows):
        if r.slack_coeff != 0:
            slack_of_row[i] = j
            j += 1
    n_slack = j
    A = [[r.mats[bi].to_dense() for bi in range(nb)] for r in rows]
    # per-block active row lists keep the Schur assembly proportional to
    # actual structure instead of m * blocks
    active = [
        [i for i in range(m_t) if np.any(A[i][bi])] for bi in range(nb)
    ]
    a_stack = [
        np.stack([A[i][bi] for i in active[bi]], axis=0)
        if active[bi]
        else np.zeros((0, dims[bi], dims[bi]))
        for bi in range(nb)
    ]

    n_tot = sum(dims) + n_slack
    cur = _Iterate(dims, n_slack, opts.initial_scale)
    cur.y = np.zeros(m_t)
    d_scale = 1.0 + (np.abs(d_vec).max(initial=0.0))
    c_scale = 1.0 + max((np.linalg.norm(cb) for cb in C), default=0.0)

    def primal_lhs() -> np.ndarray:
        lhs = np.array(
            [sum(float(np.sum(A[i][bi] * cur.X[bi])) for bi in range(nb))
             for i in range(m_t)]
        )
        for i in range(m_t):
            if slack_of_row[i] >= 0:
                lhs[i] += cur.s[slack_of_row[i]]
        return lhs

    def dual_residuals() -> tuple[list[np.ndarray], np.ndarray]:
        rd = []
        for bi in range(nb):
            acc = C[bi].copy()
            for i in active[bi]:
                acc -= cur.y[i] * A[i][bi]
            rd.append(acc - cur.S[bi])
        rds = np.array(
            [-cur.y[i] - cur.sig[slack_of_row[i]]
             for i in range(m_t) if slack_of_row[i] >= 0]
        )
        return rd, rds

    status = SolveStatus.MAX_ITER
    pres = dres = gap_rel = np.inf
    pobj = dobj = np.nan
    iterations = 0
    mu_history: list[float] = []

    # overflow in a diverging run is detected by the finite-iterate guard
    # below; suppress the intermediate warnings it would spray
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for iterations in range(1, opts.max_iter + 1):
            snap = cur.snapshot()
            r_p = d_vec - primal_lhs()
            rd, rds = dual_residuals()
            pobj = sum(float(np.sum(cb * xb)) for cb, xb in zip(C, cur.X))
            dobj = float(d_vec @ cur.y)
            compl = sum(float(np.sum(x * s)) for x, s in zip(cur.X, cur.S))
            compl += float(cur.s @ cur.sig)
            mu_history.append(compl / max(n_tot, 1))
            pres = np.abs(r_p).max(initial=0.0)
            dres = max(
                max((np.linalg.norm(m) for m in rd), default=0.0),
                np.abs(rds).max(initial=0.0),
            )
            gap_rel = max(abs(pobj - dobj), compl) / (1.0 + abs(pobj) + abs(dobj))
            if (
                pres <= opts.tol * d_scale
                and dres <= opts.tol * c_scale
                and gap_rel <= opts.tol
            ):
                status = SolveStatus.OPTIMAL
                break
            if cur.magnitude() > _DIVERGE_CAP:
                status = SolveStatus.DIVERGED
                break

            mu = cur.mu(n_tot)
            try:
                # NT scaling and Schur complement M_ij = sum_b <A_i, W A_j W> (+ slack)
                W = [_nt_scaling(cur.X[bi], cur.S[bi]) for bi in range(nb)]
                w2 = cur.s / cur.sig
                M = np.zeros((m_t, m_t))
                for bi in range(nb):
                    if not active[bi]:
                        continue
                    t = W[bi] @ a_stack[bi] @ W[bi]
                    M[np.ix_(active[bi], active[bi])] += np.einsum(
                        "iab,jab->ij", a_stack[bi], t
                    )
                for i in range(m_t):
                    if slack_of_row[i] >= 0:
                        M[i, i] += w2[slack_of_row[i]]

                chol = None
                reg = 0.0
                base = 1e-12 * (1.0 + np.abs(np.diag(M)).max(initial=0.0))
                for attempt in range(4):
                    try:
                        chol = np.linalg.cholesky(M + reg * np.eye(m_t))
                        break
                    except np.linalg.LinAlgError:
                        reg = base * (100.0 ** attempt) if reg else base
                if chol is None and m_t > 0:
                    status = SolveStatus.NUMERICAL_FAILURE
                    break

                s_inv = [np.linalg.inv(cur.S[bi]) for bi in range(nb)]
                rds_of_slack = np.zeros(n_slack)
                for i in range(m_t):
                    if slack_of_row[i] >= 0:
                        rds_of_slack[slack_of_row[i]] = (
                            -cur.y[i] - cur.sig[slack_of_row[i]]
                        )

                def directions(tau: float):
                    e_blk = [tau * s_inv[bi] - cur.X[bi] for bi in range(nb)]
                    e_slk = tau / cur.sig - cur.s
                    g = np.zeros(m_t)
                    wrw = [W[bi] @ rd[bi] @ W[bi] for bi in range(nb)]
                    for i in range(m_t):
                        g[i] = sum(
                            float(np.sum(A[i][bi] * (e_blk[bi] - wrw[bi])))
                            for bi in range(nb)
                        )
                        sl = slack_of_row[i]
                        if sl >= 0:
                            g[i] += e_slk[sl] - w2[sl] * rds_of_slack[sl]
                    rhs = r_p - g
                    if m_t:
                        dy = np.linalg.solve(
                            chol.T, np.linalg.solve(chol, rhs)
                        )
                    else:
                        dy = np.zeros(0)
                    ds_blk = []
                    dx_blk = []
                    for bi in range(nb):
                        acc = rd[bi].copy()
                        for i in active[bi]:
                            acc -= dy[i] * A[i][bi]
                        ds_blk.append(0.5 * (acc + acc.T))
                        dxb = e_blk[bi] - W[bi] @ ds_blk[bi] @ W[bi]
                        dx_blk.append(0.5 * (dxb + dxb.T))
                    dsig = np.array(
                        [rds_of_slack[slack_of_row[i]] - dy[i]
                         for i in range(m_t) if slack_of_row[i] >= 0]
                    )
                    ds_slk = e_slk - w2 * dsig
                    return dx_blk, dy, ds_blk, ds_slk, dsig

                def step_bounds(dx_blk, ds_blk, ds_slk, dsig):
                    tp = min(
                        (_boundary_step(cur.X[bi], dx_blk[bi]) for bi in range(nb)),
                        default=np.inf,
                    )
                    td = min(
                        (_boundary_step(cur.S[bi], ds_blk[bi]) for bi in range(nb)),
                        default=np.inf,
                    )
                    for v, dv in ((cur.s, ds_slk), (cur.sig, dsig)):
                        neg = dv < 0
                        if np.any(neg):
                            t = float((-v[neg] / dv[neg]).min())
                            if dv is ds_slk:
                                tp = min(tp, t)
                            else:
                                td = min(td, t)
                    return tp, td

                # affine probe fixes the centering weight
                dxa, dya, dsa, dsla, dsga = directions(0.0)
                tpa, tda = step_bounds(dxa, dsa, dsla, dsga)
                ap = min(1.0, opts.step_fraction * tpa)
                ad = min(1.0, opts.step_fraction * tda)
                tr_aff = sum(
                    float(np.sum(
                        (cur.X[bi] + ap * dxa[bi]) * (cur.S[bi] + ad * dsa[bi])
                    ))
                    for bi in range(nb)
                )
                tr_aff += float((cur.s + ap * dsla) @ (cur.sig + ad * dsga))
                mu_aff = tr_aff / max(n_tot, 1)
                sigma = min(1.0, max((mu_aff / mu) ** 3 if mu > 0 else 0.0, 0.0))

                dx, dy, ds, dsl, dsg = directions(sigma * mu)
                tp, td = step_bounds(dx, ds, dsl, dsg)
                ap = min(1.0, opts.step_fraction * tp)
                ad = min(1.0, opts.step_fraction * td)
                for bi in range(nb):
                    xb = cur.X[bi] + ap * dx[bi]
                    sb = cur.S[bi] + ad * ds[bi]
                    cur.X[bi] = 0.5 * (xb + xb.T)
                    cur.S[bi] = 0.5 * (sb + sb.T)
                cur.s = cur.s + ap * dsl
                cur.sig = cur.sig + ad * dsg
                cur.y = cur.y + ad * dy
                if not cur.is_finite():
                    cur.restore(snap)
                    status = SolveStatus.DIVERGED
                    break
            except np.linalg.LinAlgError:
                # extreme conditioning near a thin feasible face: keep the
                # last clean iterate and report the failure honestly
                cur.restore(snap)
                status = SolveStatus.NUMERICAL_FAILURE
                break

    # assemble the user-facing solution in the orientation of the input b
    slacks = np.zeros(len(b.rows))
    duals = np.zeros(len(b.rows))
    for i_std, i_orig in enumerate(kept):
        if slack_of_row[i_std] >= 0:
            slacks[i_orig] = cur.s[slack_of_row[i_std]]
        flip = -1.0 if b.rows[i_orig].slack_coeff == -1 else 1.0
        duals[i_orig] = flip * cur.y[i_std]

    # residuals reported against the full standardized system, so presolve-
    # dropped (implied) rows are audited too
    full_lhs = np.zeros(len(std.rows))
    for i, row in enumerate(std.rows):
        full_lhs[i] = sum(
            float(np.sum(row.mats[bi].to_dense() * cur.X[bi])) for bi in range(nb)
        )
        if row.slack_coeff != 0:
            full_lhs[i] += slacks[i]
    full_rhs = np.array([r.rhs for r in std.rows])
    pres_full = np.abs(full_rhs - full_lhs).max(initial=0.0)

    return SdpSolution(
        blocks=[SymMatrix.from_dense(0.5 * (x + x.T)) for x in cur.X],
        slacks=slacks,
        dual_multipliers=duals,
        dual_blocks=[SymMatrix.from_dense(0.5 * (s + s.T)) for s in cur.S],
        status=status,
        value=float(pobj),
        primal_residual=float(pres_full),
        dual_residual=float(dres),
        gap=float(gap_rel),
        iterations=iterations,
        mu_history=mu_history,
    )


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

    res = np.zeros(len(b.rows))
    for i, row in enumerate(b.rows):
        lhs = sum(
            float(np.sum(row.mats[bi].to_dense() * sol.blocks[bi].to_dense()))
            for bi in range(b.n_blocks)
        )
        res[i] = lhs + row.slack_coeff * sol.slacks[i] - row.rhs
    min_eigs = [
        float(np.linalg.eigvalsh(x.to_dense())[0]) if x.dim else 0.0
        for x in sol.blocks
    ]
    min_slack = float(sol.slacks.min(initial=0.0))
    pobj = sum(
        float(np.sum(cb.to_dense() * xb.to_dense()))
        for cb, xb in zip(b.objective, sol.blocks)
    )
    dobj = float(np.array([r.rhs for r in b.rows]) @ sol.dual_multipliers)
    gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
    scale = 1.0 + max((x.norm() for x in sol.blocks), default=0.0)
    ok = (
        float(np.abs(res).max(initial=0.0)) <= tol * (1.0 + np.abs([r.rhs for r in b.rows]).max(initial=0.0))
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
