"""Problem data model for quadratically constrained quadratic programs.

A quadratic function in n variables with zero constant term is carried in
homogenized form: f(u) = (u; 1)^T B (u; 1) with B symmetric of dimension
n+1 and corner entry [B]_{n+1,n+1} = 0. A Qcqp minimizes one such function
subject to rows f_k(u) <= / = / >= delta_k.

Several sub-QCQPs couple into a connected problem by sharing the
right-hand-side budget: sum_p f^p_k(u^p) <= gamma_k. Blocks interact only
through these row sums, never through shared variables. A purely quadratic
variant (no linear or constant terms, no homogenization coordinate) is kept
in HomSepQcqp with per-block coefficient matrices C^q_k.

The brute-force grid search at the bottom is the desk-scale oracle used to
cross-check relaxation values on problems with at most 4 variables. It
evaluates a function at a grid point as its term sum, and that one value
decides both feasibility and the minimum.
"""

from __future__ import annotations

import enum
import math
import numbers

import numpy as np

from .errors import DimensionError, RangeError, StructureError
from .symkernel import SymMatrix


class Relation(enum.Enum):
    LE = "le"
    EQ = "eq"
    GE = "ge"

    @property
    def symbol(self) -> str:
        return {"le": "<=", "eq": "=", "ge": ">="}[self.value]

    def holds(self, lhs: float, rhs: float, tol: float) -> bool:
        """lhs <relation> rhs within tol; elementwise when lhs is an array."""
        if self is Relation.LE:
            return lhs <= rhs + tol
        if self is Relation.EQ:
            return abs(lhs - rhs) <= tol
        return lhs >= rhs - tol


class QuadFunc:
    """Quadratic function f(u) = u^T Q u + 2 b^T u in homogenized matrix form.

    B has dimension n+1 with Q in the leading n x n block, b in the last
    column, and the corner pinned to zero (f(0) = 0 by convention).
    """

    __slots__ = ("n", "B")

    def __init__(self, n: int, B: SymMatrix):
        if B.dim != n + 1:
            raise DimensionError(f"B has dim {B.dim}, expected n+1 = {n + 1}")
        if B[n, n] != 0.0:
            raise ValueError(f"corner entry must be exactly 0, got {B[n, n]!r}")
        self.n = n
        self.B = B

    @staticmethod
    def from_parts(quad, linear=None) -> "QuadFunc":
        """Build from an n x n quadratic part and optional linear vector b."""
        quad = np.asarray(quad, dtype=np.float64)
        if quad.ndim != 2 or quad.shape[0] != quad.shape[1]:
            raise DimensionError(f"quadratic part must be square, got {quad.shape}")
        n = quad.shape[0]
        hom = np.zeros((n + 1, n + 1))
        hom[:n, :n] = 0.5 * (quad + quad.T)
        if linear is not None:
            b = np.asarray(linear, dtype=np.float64).reshape(-1)
            if b.shape != (n,):
                raise DimensionError(f"linear part has shape {b.shape}, expected ({n},)")
            hom[:n, n] = b
            hom[n, :n] = b
        return QuadFunc(n, SymMatrix.from_dense(hom))

    @staticmethod
    def zero(n: int) -> "QuadFunc":
        return QuadFunc(n, SymMatrix.zeros(n + 1))

    def quad_part(self) -> SymMatrix:
        dense = self.B.to_dense()
        return SymMatrix.from_dense(dense[: self.n, : self.n])

    def linear_part(self) -> np.ndarray:
        return self.B.to_dense()[: self.n, self.n].copy()

    def is_zero(self) -> bool:
        return self.B.is_zero()

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        """Evaluate at many points at once; pts has shape (N, n). The points
        are read in C order, since einsum sums in the order of the strides:
        the bits do not depend on the points' memory layout."""
        pts = np.ascontiguousarray(pts)
        dense = self.B.to_dense()
        q = dense[: self.n, : self.n]
        b = dense[: self.n, self.n]
        return np.einsum("ni,ij,nj->n", pts, q, pts) + 2.0 * pts @ b

    def __repr__(self) -> str:
        return f"QuadFunc(n={self.n})"


def eval(f: QuadFunc, u) -> float:  # noqa: A001 - spec-level operation name
    """Evaluate f at u: (u; 1)^T B (u; 1)."""
    u = np.asarray(u, dtype=np.float64).reshape(-1)
    if u.shape != (f.n,):
        raise DimensionError(f"point has shape {u.shape}, expected ({f.n},)")
    z = np.append(u, 1.0)
    return float(z @ f.B.to_dense() @ z)


def lift(u) -> SymMatrix:
    """Rank-one lift ((u u^T, u), (u^T, 1)); the matrix a QCQP point induces."""
    u = np.asarray(u, dtype=np.float64).reshape(-1)
    z = np.append(u, 1.0)
    return SymMatrix.from_dense(np.outer(z, z))


class Qcqp:
    """min f_0(u) s.t. f_k(u) <relation_k> rhs_k, u in R^n."""

    __slots__ = ("n", "objective", "constraints", "rhs")

    def __init__(self, n, objective: QuadFunc, constraints, rhs):
        if objective.n != n:
            raise DimensionError(f"objective in {objective.n} vars, problem has {n}")
        constraints = list(constraints)
        for f, rel in constraints:
            if f.n != n:
                raise DimensionError(f"constraint in {f.n} vars, problem has {n}")
            if not isinstance(rel, Relation):
                raise StructureError(f"bad relation {rel!r}")
        rhs = np.asarray(rhs, dtype=np.float64).reshape(-1)
        if rhs.shape != (len(constraints),):
            raise DimensionError(
                f"{len(constraints)} constraints but rhs has shape {rhs.shape}"
            )
        _check_finite("rhs", rhs)
        self.n = n
        self.objective = objective
        self.constraints = constraints
        self.rhs = rhs

    @property
    def m(self) -> int:
        return len(self.constraints)

    @property
    def relations(self) -> list[Relation]:
        return [rel for _, rel in self.constraints]

    def __repr__(self) -> str:
        return f"Qcqp(n={self.n}, m={self.m})"


class HomSepQcqp:
    """Separable homogeneous QCQP: min sum_q <C^q_0, v^q (v^q)^T> subject to
    sum_q <C^q_k, v^q (v^q)^T> <relation_k> rhs_k.

    blocks[q] is the list [C^q_0, C^q_1, ..., C^q_m] of coefficient
    matrices for block q (objective first). No homogenization coordinate:
    the functions are purely quadratic.
    """

    __slots__ = ("blocks", "relations", "rhs")

    def __init__(self, blocks, relations, rhs):
        blocks = [list(mats) for mats in blocks]
        if not blocks:
            raise StructureError("need at least one block")
        relations = list(relations)
        rhs = np.asarray(rhs, dtype=np.float64).reshape(-1)
        m = len(relations)
        if rhs.shape != (m,):
            raise DimensionError(f"{m} relations but rhs has shape {rhs.shape}")
        _check_finite("rhs", rhs)
        for q, mats in enumerate(blocks):
            if len(mats) != m + 1:
                raise DimensionError(
                    f"block {q} has {len(mats)} matrices, expected m+1 = {m + 1}"
                )
            d = mats[0].dim
            if d < 1:
                raise DimensionError(f"block {q} dim {d}: dimensions must be positive")
            for k, c in enumerate(mats):
                if c.dim != d:
                    raise DimensionError(
                        f"block {q} matrix {k} has dim {c.dim}, expected {d}"
                    )
        for rel in relations:
            if not isinstance(rel, Relation):
                raise StructureError(f"bad relation {rel!r}")
        self.blocks = blocks
        self.relations = relations
        self.rhs = rhs

    @property
    def q_hat(self) -> int:
        return len(self.blocks)

    @property
    def m(self) -> int:
        return len(self.relations)

    @property
    def dims(self) -> list[int]:
        return [mats[0].dim for mats in self.blocks]

    def __repr__(self) -> str:
        return f"HomSepQcqp(q_hat={self.q_hat}, dims={self.dims}, m={self.m})"


class SeparableQcqp:
    """Horizontal connection of sub-QCQPs sharing one rhs budget gamma.

    Each entry of blocks is a Qcqp or a HomSepQcqp; all entries carry the
    same relation list, and per-entry rhs vectors are ignored in favor of
    gamma. Row k of the connected problem reads
    sum_p f^p_k(u^p) <relation_k> gamma_k.
    """

    __slots__ = ("blocks", "gamma")

    def __init__(self, blocks, gamma):
        blocks = list(blocks)
        if not blocks:
            raise StructureError("need at least one block")
        rels0 = _block_relations(blocks[0])
        for p, blk in enumerate(blocks[1:], start=1):
            if _block_relations(blk) != rels0:
                raise StructureError(
                    f"block {p} relation list differs from block 0"
                )
        gamma = np.asarray(gamma, dtype=np.float64).reshape(-1)
        if gamma.shape != (len(rels0),):
            raise DimensionError(
                f"gamma has shape {gamma.shape}, expected ({len(rels0)},)"
            )
        _check_finite("gamma", gamma)
        self.blocks = blocks
        self.gamma = gamma

    @property
    def p_hat(self) -> int:
        return len(self.blocks)

    @property
    def m(self) -> int:
        return len(self.relations)

    @property
    def relations(self) -> list[Relation]:
        return _block_relations(self.blocks[0])

    def __repr__(self) -> str:
        return f"SeparableQcqp(p_hat={self.p_hat}, m={self.m})"


def _check_finite(name: str, values: np.ndarray) -> None:
    for k in np.flatnonzero(~np.isfinite(values)):
        raise RangeError(f"{name}[{k}]: value must be finite, got {values[k]}")


def _int_at_least(value, low: int) -> int | None:
    """value as an int when it is an integer of at least low (a Python or
    numpy integer, not a bool), else None."""
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    return int(value) if integral and value >= low else None


def _block_relations(blk) -> list[Relation]:
    if isinstance(blk, Qcqp):
        return blk.relations
    if isinstance(blk, HomSepQcqp):
        return list(blk.relations)
    raise StructureError(f"block must be Qcqp or HomSepQcqp, got {type(blk)!r}")


def block_nvars(blk) -> int:
    """Number of scalar variables a connection entry contributes."""
    if isinstance(blk, Qcqp):
        return blk.n
    return sum(blk.dims)


# ---------------------------------------------------------------------------
# composition


def connect(subs, gamma) -> SeparableQcqp:
    """Connect sub-QCQPs through a shared rhs vector gamma.

    Relation lists must agree where defined; a sub-QCQP with fewer
    constraints than the longest is padded with identically-zero
    constraints carrying the longer list's relations (a redundant row).
    """
    subs = list(subs)
    if not subs:
        raise StructureError("need at least one sub-QCQP")
    rel_lists = [_block_relations(s) for s in subs]
    target = max(rel_lists, key=len)
    m = len(target)
    for p, rels in enumerate(rel_lists):
        if rels != target[: len(rels)]:
            raise StructureError(
                f"sub-QCQP {p} relations {[r.value for r in rels]} are not a "
                f"prefix of {[r.value for r in target]}"
            )
    padded = []
    for s, rels in zip(subs, rel_lists):
        k_missing = m - len(rels)
        if k_missing == 0:
            padded.append(s)
        elif isinstance(s, Qcqp):
            cons = list(s.constraints) + [
                (QuadFunc.zero(s.n), rel) for rel in target[len(rels):]
            ]
            rhs = np.concatenate([s.rhs, np.zeros(k_missing)])
            padded.append(Qcqp(s.n, s.objective, cons, rhs))
        else:
            blocks = [
                mats + [SymMatrix.zeros(mats[0].dim)] * k_missing
                for mats in s.blocks
            ]
            rhs = np.concatenate([s.rhs, np.zeros(k_missing)])
            padded.append(HomSepQcqp(blocks, list(target), rhs))
    return SeparableQcqp(padded, gamma)


def hom_to_qcqp(h: HomSepQcqp) -> SeparableQcqp:
    """Rewrite each homogeneous block as an inhomogeneous sub-QCQP.

    Each C^q_k embeds into the top-left corner of a (n+1)-dim homogenized
    matrix with zero linear border, so evaluation agrees pointwise.
    """
    subs = []
    for mats in h.blocks:
        n = mats[0].dim
        funcs = []
        for c in mats:
            hom = np.zeros((n + 1, n + 1))
            hom[:n, :n] = c.to_dense()
            funcs.append(QuadFunc(n, SymMatrix.from_dense(hom)))
        subs.append(
            Qcqp(n, funcs[0], list(zip(funcs[1:], h.relations)), h.rhs)
        )
    return SeparableQcqp(subs, h.rhs)


def flatten(s: SeparableQcqp) -> Qcqp:
    """Collapse a connection into one QCQP over the concatenated variables.

    Functions add across blocks and blocks share no variables, so the
    combined coefficient matrices are block-diagonal in the quadratic part
    with stacked linear parts. Used by the brute-force oracle path.
    """
    entries = []
    for blk in s.blocks:
        if isinstance(blk, HomSepQcqp):
            entries.extend(hom_to_qcqp(blk).blocks)
        else:
            entries.append(blk)
    n_tot = sum(b.n for b in entries)
    m = s.m

    def combined(k: int) -> QuadFunc:
        quad = np.zeros((n_tot, n_tot))
        lin = np.zeros(n_tot)
        ofs = 0
        for b in entries:
            f = b.objective if k < 0 else b.constraints[k][0]
            dense = f.B.to_dense()
            quad[ofs : ofs + b.n, ofs : ofs + b.n] = dense[: b.n, : b.n]
            lin[ofs : ofs + b.n] = dense[: b.n, b.n]
            ofs += b.n
        return QuadFunc.from_parts(quad, lin)

    cons = [(combined(k), rel) for k, rel in enumerate(s.relations)]
    return Qcqp(n_tot, combined(-1), cons, s.gamma)


def split_point(s: SeparableQcqp, u) -> list[np.ndarray]:
    """Split a flat point of flatten(s) back into per-entry block points.

    Returns one vector per connection entry; a homogeneous entry gets the
    concatenation of its q-block coordinates.
    """
    u = np.asarray(u, dtype=np.float64).reshape(-1)
    out = []
    ofs = 0
    for blk in s.blocks:
        w = block_nvars(blk)
        out.append(u[ofs : ofs + w].copy())
        ofs += w
    if ofs != u.shape[0]:
        raise DimensionError(f"point has {u.shape[0]} coords, expected {ofs}")
    return out


# ---------------------------------------------------------------------------
# brute-force oracle

#: returned as the value when no feasible grid point exists
INFEASIBLE = math.inf

#: grid points evaluated at once; bounds the oracle's memory at any grid size
_SLAB = 1 << 16

#: a round of several slabs is walked as one list of survivors when that
#: list holds at most _SLAB / _LIST_SHARE points: a row evaluated on the
#: list costs several times more per point than on the tensor grid
_LIST_SHARE = 8


def _terms(f: QuadFunc) -> list:
    """Nonzero terms of f as (c, i, j): c u_i u_j, or c u_i when j is None."""
    dense = f.B.to_dense()
    n = f.n
    out = []
    for j in range(n):
        for i in range(j + 1):
            c = float(dense[i, j] if i == j else 2.0 * dense[i, j])
            if c != 0.0:
                out.append((c, i, j))
        c = float(2.0 * dense[j, n])
        if c != 0.0:
            out.append((c, j, None))
    return out


def _grid_values(terms, coords):
    """The oracle's value of a function at every point: its terms added in
    order, each (c u_i) u_j or c u_i. coords[i] holds u_i, varying along
    one axis of the tensor grid or listed point by point; either way a
    point's value takes the same operations, so the same bits. A numpy
    scalar when there are no terms, so relation tests stay boolean."""
    vals = np.float64(0.0)
    for c, i, j in terms:
        vals = vals + (c * coords[i] if j is None else (c * coords[i]) * coords[j])
    return vals


def _listing(keep, coords, axis_of, shape):
    """The points keep holds, in C order, as the columns of an (n, N)
    array; None when the scan would cover more than _SLAB points. keep
    broadcasts along its axes of length 1; it is scanned only up to its
    last longer axis, and the axes after it are filled in by repetition."""
    ks = np.shape(keep)
    last = max((a + 1 for a, k in enumerate(ks) if k > 1), default=len(shape))
    head, tail = shape[:last], shape[last:]
    if math.prod(head) > _SLAB:
        return None
    at = np.flatnonzero(np.broadcast_to(np.reshape(keep, ks[:last]), head))
    idx = np.unravel_index(at, head)
    r = math.prod(tail)
    inner = np.unravel_index(np.arange(r), tail) if tail else ()
    cols = np.empty((len(coords), at.shape[0] * r))
    for v, c in enumerate(coords):
        a = axis_of[v]
        if a < last:
            cols[v] = np.repeat(c.ravel()[idx[a]], r)
        else:
            cols[v] = np.tile(c.ravel()[inner[a - last]], at.shape[0])
    return cols


def _slab_feasible(rows, coords, axis_of, shape, feas_tol, whole=False):
    """Feasible points of one slab, in C order, as the columns of an
    (n, N) array: those where every row's value (_grid_values) holds its
    relation within feas_tol. A NaN value holds no relation.

    rows holds (relation, rhs, terms). Each row is evaluated on the
    slab's broadcast tensor grid, and the points that hold are listed
    once, in C order. whole marks a slab that is a whole round of more
    than _SLAB points: there a row takes its own broadcast grid only
    while keep's grid stays within _SLAB points, and every other row,
    such as one over every axis, is evaluated on the listed points'
    coordinate columns. Such a slab gives None when its list would hold
    more than _SLAB / _LIST_SHARE points or its scan more than _SLAB,
    and the round is walked slab by slab instead.
    """
    keep = True
    listed, grid_axes = [], set()
    for row in rows:
        rel, d, terms = row
        if whole:
            axes = {axis_of[v] for _, i, j in terms for v in (i, j) if v is not None}
            axes |= grid_axes
            if math.prod(shape[a] for a in axes) > _SLAB:
                listed.append(row)
                continue
            grid_axes = axes
        keep = keep & rel.holds(_grid_values(terms, coords), d, feas_tol)
        if not keep.any():
            return np.empty((len(coords), 0))
    # keep broadcasts evenly along the axes it leaves out
    survivors = np.count_nonzero(keep) * (math.prod(shape) // np.size(keep))
    if whole and _LIST_SHARE * survivors > _SLAB:
        return None
    cols = _listing(keep, coords, axis_of, shape)
    if cols is None:
        return None
    for rel, d, terms in listed:
        # a listed row has terms, so its values are one per column
        cols = cols[:, rel.holds(_grid_values(terms, cols), d, feas_tol)]
    return cols


# the grid values of rows with huge coefficients overflow to inf, and to
# NaN where two infinities meet or one meets a zero coordinate
@np.errstate(over="ignore", invalid="ignore")
def brute_force(
    q: Qcqp,
    box,
    grid_points: int = 11,
    refine_rounds: int = 4,
    feas_tol: float = 1e-6,
):
    """Grid search with successive box-halving refinement around the incumbent.

    box is one (lo, hi) pair of finite bounds applied to every coordinate,
    or a list of n pairs. Each round lays a grid_points-per-axis grid on
    the current box, keeps the best feasible point, then halves the box
    around it. Returns (value, point); (math.inf, None) when no feasible
    grid point was found. Ties go to the first point in C order of the grid.

    A function's value at a grid point is its term sum: the terms
    c u_i u_j and c u_i of its quadratic and linear parts, added in a
    fixed order from the 1-D axes (_grid_values). A point is feasible
    where every row's value holds its relation within feas_tol; a NaN
    holds none, and +-inf compare as IEEE compares them. The round's
    value is the least non-NaN objective value over its feasible points,
    the first in C order: a NaN value never wins, and a round whose
    feasible values are all NaN leaves the incumbent as it was. Apart
    from the last bits of rounding, this agrees with QuadFunc.eval_many
    except where a coefficient times a coordinate squared comes near
    1e308, where one sum overflows and the other need not.

    A round walks its grid in C order, in slabs of about _SLAB points, so
    memory stays bounded at any grid size; a round whose rows over part of
    the axes leave few enough feasible points is taken as one slab, listed
    point by point (_slab_feasible).

    grid_points (at least 11) and refine_rounds (at least 0) are integers,
    not bools; feas_tol is finite and at least 0.

    Only intended for q.n <= 4 (the grid is exponential in n). The reported
    value is an upper bound on the true minimum that tightens with rounds.
    Overflow and invalid-value warnings stay inside the call.
    """
    if q.n > 4:
        raise DimensionError(f"brute force limited to n <= 4, got n = {q.n}")
    grid_points = _int_at_least(grid_points, 11)
    if grid_points is None:
        raise ValueError("grid_points must be an integer of at least 11")
    refine_rounds = _int_at_least(refine_rounds, 0)
    if refine_rounds is None:
        raise ValueError("refine_rounds must be an integer of at least 0")
    if not 0.0 <= feas_tol < math.inf:
        raise ValueError(f"feas_tol must be finite and at least 0, got {feas_tol!r}")
    if q.n == 0:
        return 0.0, np.zeros(0)

    pairs = np.asarray(box, dtype=np.float64)
    if pairs.shape == (2,):
        pairs = np.tile(pairs, (q.n, 1))
    if (
        pairs.shape != (q.n, 2)
        or not np.all(np.isfinite(pairs))
        or np.any(pairs[:, 0] > pairs[:, 1])
    ):
        raise DimensionError(f"bad box for n = {q.n}: {box!r}")

    centers = 0.5 * (pairs[:, 0] + pairs[:, 1])
    widths = pairs[:, 1] - pairs[:, 0]

    # a slab is up to `per_slab` consecutive index tuples of the leading
    # coordinates, each with the whole grid of the trailing t coordinates:
    # slab axis 0 runs over those tuples, axis 1 + k over trailing k
    n, g = q.n, grid_points
    t = n
    while t > 0 and g**t > _SLAB:
        t -= 1
    lead = n - t
    n_tuples = g**lead
    per_slab = max(1, _SLAB // g**t)
    axis_of = [0] * lead + list(range(1, t + 1))
    trail_shape = [(1,) * (1 + k) + (g,) + (1,) * (t - 1 - k) for k in range(t)]
    lead_idx = np.unravel_index(np.arange(n_tuples), (g,) * lead) if lead else ()

    rows = [(rel, d, _terms(f)) for (f, rel), d in zip(q.constraints, q.rhs)]
    obj_terms = _terms(q.objective)
    best_val = INFEASIBLE
    best_pt = None

    for _ in range(refine_rounds + 1):
        los = np.maximum(pairs[:, 0], centers - 0.5 * widths)
        his = np.minimum(pairs[:, 1], centers + 0.5 * widths)
        axes = [np.linspace(lo, hi, grid_points) for lo, hi in zip(los, his)]
        # a round's coordinates along the slab axes, axis 0 over all tuples
        coords = [axes[i][lead_idx[i]].reshape((-1,) + (1,) * t) for i in range(lead)]
        coords += [axes[lead + k].reshape(trail_shape[k]) for k in range(t)]

        slabs = None
        if n_tuples > per_slab:
            # a round of several slabs is first tried as one list
            whole = _slab_feasible(
                rows, coords, axis_of, (n_tuples,) + (g,) * t, feas_tol, whole=True
            )
            slabs = None if whole is None else [whole]
        if slabs is None:
            slabs = (
                _slab_feasible(
                    rows,
                    [c[s0 : s0 + per_slab] for c in coords[:lead]] + coords[lead:],
                    axis_of,
                    (min(per_slab, n_tuples - s0),) + (g,) * t,
                    feas_tol,
                )
                for s0 in range(0, n_tuples, per_slab)
            )
        # each slab's first least non-NaN value, in slab order
        cand_vals, cand_pts = [], []
        for cols in slabs:
            if cols.shape[1] == 0:
                continue
            obj = np.broadcast_to(_grid_values(obj_terms, cols), cols.shape[1:])
            i = int(np.argmin(obj))
            if np.isnan(obj[i]):
                # np.argmin stops at the first NaN; a NaN never wins
                real = np.flatnonzero(~np.isnan(obj))
                if real.size == 0:
                    continue
                i = int(real[np.argmin(obj[real])])
            cand_vals.append(obj[i])
            cand_pts.append(cols[:, i].copy())
        if cand_vals:
            # argmin over the slabs' first minima is the round's first
            # minimum, as one argmin over every non-NaN value gives
            i = int(np.argmin(cand_vals))
            if float(cand_vals[i]) < best_val:
                best_val = float(cand_vals[i])
                best_pt = cand_pts[i]

        if best_pt is None:
            return INFEASIBLE, None
        centers = best_pt
        widths = 0.5 * widths

    return best_val, best_pt
