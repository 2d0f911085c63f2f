"""Instance builders that more than one test file, and tools/pool_digest.py,
need: each is defined here once and imported read-only.

* family(alpha, copies): copies of example 5.1 joined, rhs summed;
* convex_rank_two() and sign_salvage(): the one-entry connections of
  judge's convex and sign witness routes;
* row_ratio_overflow(): a connection judge stops on with a RangeError;
* walk_instance(seed): a block SDP whose every feasible point is optimal,
  with a full-rank hand_solution to walk rank reduction from;
* random_connection(seed): a seeded connection of mixed entry kinds
  (random_entry), the draws that reach every solver stop;
* strip_variable_free_rows(q): q without its identically-zero rows, the
  problem whose certificates judge reads off an inhomogeneous entry;
* is_feasible(q, u, tol), hom_values(h, vs) and check_solution(b, sol,
  tol): independent one-instance loops (a point's feasibility, a
  homogeneous entry's row values, a solution's residuals) that the
  stacked library stages are checked against.

This module imports neither pytest nor hypothesis, so a tool can import
it with only numpy and sepqcqp on its path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from sepqcqp import symkernel as sk
from sepqcqp.errors import DimensionError
from sepqcqp.examples import make_example51
from sepqcqp.qcqp_model import HomSepQcqp, Qcqp, QuadFunc, Relation, SeparableQcqp
from sepqcqp.qcqp_model import eval as eval_quad
from sepqcqp.sdpr_builder import BlockSdp, SdpSolution, SolveStatus
from sepqcqp.symkernel import SymMatrix

# ---------------------------------------------------------------------------
# judge's routes


def family(alpha, copies=1):
    """copies of make_example51(alpha) joined, their rhs summed: the joint
    rank reduction steps copies - 1 times."""
    h = make_example51(alpha)
    return SeparableQcqp([h] * copies, copies * h.rhs)


def convex_rank_two():
    """One convex entry of two variables whose joint rank reduction ends
    at rank 2: min 2 x1 + 2 x2 subject to x2^2 <= 1 and -2 x1 <= 2 (each
    QuadFunc is x'Ax + 2 b'x), with value -4 at (-1, -1). The last column
    of its block is the witness."""
    obj = QuadFunc.from_parts(np.zeros((2, 2)), [1.0, 1.0])
    rows = [
        QuadFunc.from_parts(np.diag([0.0, 1.0])),
        QuadFunc.from_parts(np.zeros((2, 2)), [-1.0, 0.0]),
    ]
    gamma = np.array([1.0, 2.0])
    q = Qcqp(2, obj, [(f, Relation.LE) for f in rows], gamma)
    return SeparableQcqp([q], gamma)


def sign_salvage():
    """One sign entry of one variable, min q u^2 + 2 l u over two <= rows:
    its certificate holds and its joint rank reduction ends at rank 1, but
    the point it extracts lies 3.9e-6 above eta, past tol (1 + |eta|) =
    2.44e-6; the gauge-signed square root of the block's diagonal is the
    witness."""
    obj = QuadFunc.from_parts([[-861.594207583315]], [-0.0005468386752403011])
    rows = [
        QuadFunc.from_parts([[15.114684912307293]], [-0.01543637661106943]),
        QuadFunc.from_parts([[99.20060492637393]], [-0.0016235197573212902]),
    ]
    gamma = np.array([1.5242410941764937, 0.1661463218805923])
    q = Qcqp(1, obj, [(f, Relation.LE) for f in rows], gamma)
    return SeparableQcqp([q], gamma)


def row_ratio_overflow():
    """Two homogeneous entries of one 2 x 2 block over two <= rows; the
    second entry's rows are I and 1e200 I, so the squared norm of its row
    2 overflows and judge cannot compare the two rows for proportionality."""
    i1, i2 = SymMatrix.identity(1), SymMatrix.identity(2)
    first = HomSepQcqp([[i1, i1, SymMatrix.zeros(1)]], [Relation.LE] * 2, [1.0, 0.0])
    second = HomSepQcqp(
        [[SymMatrix.from_dense(np.diag([1.0, 2.0])), i2, SymMatrix.from_dense(1e200 * np.eye(2))]],
        [Relation.LE] * 2,
        [1.0, 1e200],
    )
    return SeparableQcqp([first, second], [2.0, 1e200])


# ---------------------------------------------------------------------------
# rank reduction walks


def sym(rows):
    if isinstance(rows, SymMatrix):
        return rows
    return SymMatrix.from_dense(np.asarray(rows, dtype=float))


def hand_solution(b, blocks, value, slacks=None):
    if slacks is None:
        slacks = np.zeros(b.n_rows)
    return SdpSolution(
        blocks=[sym(x) for x in blocks],
        slacks=np.asarray(slacks, dtype=float),
        dual_multipliers=np.zeros(b.n_rows),
        dual_blocks=[SymMatrix.zeros(d) for d in b.block_dims],
        status=SolveStatus.OPTIMAL,
        value=value,
    )


def walk_instance(seed):
    """A standard-form block SDP on which every feasible point is optimal,
    with a full-rank feasible point (and positive slacks) to walk from.

    1-4 blocks of dimension <= 5 and 1-6 rows mixing slack and no-slack
    rows; some (row, block) pairs are empty, and a no-slack row that
    touches one block only is marked as normalization row. The objective
    is zero or a copy of one no-slack row's matrices, so it is constant on
    the feasible set and reduction takes several steps.
    """
    rng = np.random.default_rng(seed)
    nb = int(rng.integers(1, 5))
    dims = tuple(int(d) for d in rng.integers(1, 6, size=nb))
    x0 = []
    for d in dims:
        g = rng.standard_normal((d, d))
        x0.append(g @ g.T + 0.1 * np.eye(d))
    m = int(rng.integers(1, 7))
    slack = rng.random(m) < 0.4
    rows, s0, norm = [], np.zeros(m), []
    for i in range(m):
        touch = rng.random(nb) < 0.7
        touch[int(rng.integers(nb))] = True
        mats = []
        for bi, d in enumerate(dims):
            a = rng.standard_normal((d, d)) if touch[bi] else np.zeros((d, d))
            mats.append(SymMatrix.from_dense(a))
        lhs = sum(float(np.sum(mm.to_dense() * x)) for mm, x in zip(mats, x0))
        if slack[i]:
            s0[i] = float(rng.uniform(0.1, 1.0))
        elif touch.sum() == 1:
            norm.append(i)
        rows.append((tuple(mats), int(slack[i]), lhs + s0[i]))
    eq_rows = [i for i in range(m) if not slack[i]]
    if eq_rows and rng.random() < 0.8:
        pick = eq_rows[int(rng.integers(len(eq_rows)))]
        objective = rows[pick][0]
    else:
        objective = tuple(SymMatrix.zeros(d) for d in dims)
    b = BlockSdp.from_rows(dims, objective, rows, normalization_rows=norm)
    value = sum(float(np.sum(c.to_dense() * x)) for c, x in zip(objective, x0))
    return b, hand_solution(b, x0, value, slacks=s0)


# ---------------------------------------------------------------------------
# random connections

KINDS = ("convex", "gauge", "mixed", "equality", "zero", "hom")


def _psd(rng, n, ridge=0.0):
    g = rng.standard_normal((n, n))
    return g @ g.T / n + ridge * np.eye(n)


def scaled(rng, a):
    """a at a random scale, so row values and norms spread over decades."""
    return a * 10.0 ** float(rng.integers(-3, 4))


def random_entry(rng, kind, n, relations):
    """One entry of the given kind over the connection's relations.

    convex: psd quadratic parts, nonzero matrices on <= rows only (zero
    on = and >= rows). gauge: nonpositive couplings and linear terms
    under a random sign flip, indefinite diagonals. mixed: arbitrary
    symmetric parts. equality: convex, plus a nonzero = or >= row when
    the connection has one. zero: convex with some rows zero. hom: a
    homogeneous entry of 1 to 3 blocks of dims 1 to 4, some matrices
    zero.
    """
    m = len(relations)
    if kind == "hom":
        dims = [int(d) for d in rng.integers(1, 5, size=int(rng.integers(1, 4)))]
        blocks = []
        for d in dims:
            mats = []
            for k in range(m + 1):
                if k and rng.random() < 0.25:
                    mats.append(SymMatrix.zeros(d))
                    continue
                g = rng.standard_normal((d, d))
                mats.append(SymMatrix.from_dense(scaled(rng, g + g.T)))
            blocks.append(mats)
        return HomSepQcqp(blocks, relations, np.zeros(m))

    flip = rng.choice([-1.0, 1.0], size=n)

    def func():
        if kind == "gauge":
            w = np.abs(rng.standard_normal((n, n)))
            quad = -0.5 * (w + w.T)
            np.fill_diagonal(quad, rng.standard_normal(n))
            quad = quad * np.outer(flip, flip)
            lin = -np.abs(rng.standard_normal(n)) * flip
        elif kind == "mixed":
            g = rng.standard_normal((n, n))
            quad, lin = g + g.T, rng.standard_normal(n)
        else:
            quad = _psd(rng, n, 0.1 * float(rng.random() < 0.5))
            lin = rng.standard_normal(n) if rng.random() < 0.7 else None
        if lin is not None:
            lin = scaled(rng, lin)
        return QuadFunc.from_parts(scaled(rng, quad), lin)

    cons = []
    for rel in relations:
        zero = (
            (kind in ("convex", "gauge", "zero") and rel is not Relation.LE)
            or (kind == "zero" and rng.random() < 0.5)
            or (kind == "equality" and rel is Relation.LE and rng.random() < 0.3)
        )
        cons.append((QuadFunc.zero(n) if zero else func(), rel))
    rhs = np.where(rng.random(m) < 0.5, 0.0, rng.standard_normal(m))
    return Qcqp(n, func(), cons, rhs)


def random_connection(seed, n_max=4, n_fixed=None):
    """The connection of seed and the generator it was drawn with, for
    draws that continue after it (points, blocks)."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(0, 5))
    pool = [Relation.LE, Relation.LE, Relation.EQ, Relation.GE]
    relations = [pool[i] for i in rng.integers(len(pool), size=m)]
    entries = []
    for _ in range(int(rng.integers(1, 7))):
        kind = KINDS[int(rng.integers(len(KINDS)))]
        n = n_fixed or int(rng.integers(1, n_max + 1))
        entries.append(random_entry(rng, kind, n, relations))
    return SeparableQcqp(entries, rng.standard_normal(m)), rng


def strip_variable_free_rows(q: Qcqp):
    """(q without the constraints whose matrix is identically zero, the
    kept row indices); q itself when no row is zero. At an allocation a
    variable-free row's value is 0, which holds under any relation, so
    judge certifies an entry by its other rows."""
    kept = [k for k, (f, _) in enumerate(q.constraints) if not f.is_zero()]
    if len(kept) == q.m:
        return q, kept
    reduced = Qcqp(
        q.n,
        q.objective,
        [q.constraints[k] for k in kept],
        [float(q.rhs[k]) for k in kept],
    )
    return reduced, kept


# ---------------------------------------------------------------------------
# one-instance references of the stacked stages


def is_feasible(q: Qcqp, u, tol: float) -> bool:
    """Constraint-wise feasibility within an absolute tolerance.

    LE rows need f(u) <= rhs + tol, EQ rows |f(u) - rhs| <= tol, GE rows
    f(u) >= rhs - tol.
    """
    u = np.asarray(u, dtype=np.float64).reshape(-1)
    if u.shape != (q.n,):
        raise DimensionError(f"point has shape {u.shape}, expected ({q.n},)")
    for (f, rel), d in zip(q.constraints, q.rhs):
        if not rel.holds(eval_quad(f, u), float(d), tol):
            return False
    return True


def hom_values(h: HomSepQcqp, vs) -> np.ndarray:
    """Row values [g_0, g_1, ..., g_m] of a homogeneous problem at block
    points vs = [v^1, ..., v^q_hat]."""
    if len(vs) != h.q_hat:
        raise DimensionError(f"got {len(vs)} block points, expected {h.q_hat}")
    vals = np.zeros(h.m + 1)
    for mats, v in zip(h.blocks, vs):
        v = np.asarray(v, dtype=np.float64).reshape(-1)
        if v.shape != (mats[0].dim,):
            raise DimensionError(
                f"block point has shape {v.shape}, expected ({mats[0].dim},)"
            )
        for k, c in enumerate(mats):
            vals[k] += float(v @ c.to_dense() @ v)
    return vals


@dataclass(frozen=True)
class ResidualReport:
    """Verification summary of a solution against its BlockSdp."""

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
    if len(sol.slacks) != b.n_rows:
        raise DimensionError("slack vector length mismatch")

    op = b.operator
    lhs = op.apply([x.to_dense() for x in sol.blocks])
    res = lhs + op.slack_coeffs * sol.slacks - op.rhs
    min_eigs = [float(sk.eigvalsh(x.to_dense())[0]) for x in sol.blocks]
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
