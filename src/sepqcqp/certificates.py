"""Exactness certificates for sub-QCQP relaxations.

Three independent classes of problems have relaxations that are provably
tight:

* convex problems (all constraints <=, every quadratic part PSD);
* problems whose aggregated sign pattern over the variable-interaction
  graph can be flipped to all-nonpositive off-diagonals by a +-1 gauge,
  detected by one depth-first walk that propagates the gauge along a
  spanning forest and tests each non-tree edge (the parity of its
  fundamental cycle);
* homogeneous separable problems where, at an optimal relaxation point,
  at most one of the blocks and inequality residuals vanishes (so an
  extreme-point rank bound forces every block to rank <= 1).

The first two certificates are independent of the right-hand side; the
third is checked against a solution's blocks unless m <= 2 makes it
structural. The convexity test runs over many problems at once
(_convex_certificates): the quadratic parts of all of them are tested
with one stacked eigendecomposition per dimension; check_convex is its
one-problem case.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, RangeError, StructureError
from .qcqp_model import HomSepQcqp, Qcqp, Relation
from .symkernel import SymMatrix, by_dim, frob_inner_many, is_psd_many


class CertificateKind(enum.Enum):
    CONVEX = "Convex"
    SIGN_PATTERN = "SignPattern"
    HOM_LIMITED = "HomLimited"
    NONE = "None"


class SignCase(enum.Enum):
    ALL_NONPOSITIVE = "AllNonpositive"
    FOREST = "Forest"
    BIPARTITE_POSITIVE = "BipartitePositive"
    GENERAL = "General"


@dataclass(frozen=True)
class Certificate:
    kind: CertificateKind
    details: str
    depends_on_solution: bool
    case: SignCase | None = None

    @property
    def holds(self) -> bool:
        return self.kind is not CertificateKind.NONE


# ---------------------------------------------------------------------------
# convexity


def check_convex(q: Qcqp, tol: float = 1e-9) -> Certificate:
    """Certificate that every function is convex and every row is <=.

    In that regime the relaxation is tight for any right-hand side and an
    optimal point can be read off the last column of any optimal matrix.
    The quadratic parts are read as views of the functions' matrices and
    tested together (_convex_certificates).
    """
    # the vacuous rows (zero matrix, zero rhs) are dropped, as the
    # relaxation builder drops them
    kept = [
        (f, rel)
        for (f, rel), d in zip(q.constraints, q.rhs)
        if not (float(d) == 0.0 and f.is_zero())
    ]
    bad_rel = [i for i, (_, rel) in enumerate(kept) if rel is not Relation.LE]
    if bad_rel:
        return Certificate(
            CertificateKind.NONE,
            f"constraint rows {bad_rel} are not <=",
            depends_on_solution=False,
        )
    n = q.n
    funcs = [q.objective] + [f for f, _ in kept]
    return _convex_certificates([np.array([f.B.array[:n, :n] for f in funcs])], tol)[0]


def _convex_certificates(parts, tol: float = 1e-9) -> list:
    """The certificate of each problem whose rows are all <=, from its
    quadratic parts (parts[i]: a (k, n, n) stack, the objective's first,
    then one per row): CONVEX when every part is PSD, else NONE naming
    the first part that is not, as testing them one by one would. The
    parts of one dimension are tested together: one stacked
    eigendecomposition (symkernel.is_psd_many)."""
    psd = [None] * len(parts)
    for idx in by_dim([ps.shape[-1] for ps in parts]):
        idx = idx.tolist()
        flags = is_psd_many(np.concatenate([parts[i] for i in idx]), tol=tol)
        start = 0
        for i in idx:
            psd[i] = flags[start : start + len(parts[i])]
            start += len(parts[i])
    certs = []
    for flags in psd:
        rows = len(flags) - 1
        if flags.all():
            certs.append(Certificate(
                CertificateKind.CONVEX,
                f"all {rows} rows are <= and all {rows + 1} quadratic parts PSD",
                depends_on_solution=False,
            ))
            continue
        k = int(np.argmin(flags))
        which = "objective" if k == 0 else f"constraint {k - 1}"
        certs.append(Certificate(
            CertificateKind.NONE,
            f"quadratic part of {which} is not PSD",
            depends_on_solution=False,
        ))
    return certs


def extract_convex_solution(x: SymMatrix) -> np.ndarray:
    """Read a candidate optimal point from the last column of a solution
    matrix with unit corner."""
    n = x.dim - 1
    if n < 0:
        raise DimensionError("matrix must have dim >= 1")
    corner = x[n, n]
    if abs(corner - 1.0) > 1e-6:
        raise StructureError(f"corner entry {corner!r} is not 1 within 1e-6")
    return np.array([x[i, n] for i in range(n)])


# ---------------------------------------------------------------------------
# sign patterns over the variable-interaction graph


class SparsityGraph:
    """Aggregated interaction pattern of a matrix family.

    Vertices are the variable indices 1..n. An edge (i, j) exists when
    some matrix has a nonzero (i, j) entry; sigma labels it +1 when every
    nonzero entry there is positive, -1 when every one is negative, and 0
    for mixed signs.
    """

    __slots__ = ("n", "edges", "sigma")

    def __init__(self, n: int, sigma: dict):
        self.n = int(n)
        edges = set()
        clean = {}
        for (i, j), s in sigma.items():
            if not (1 <= i <= self.n and 1 <= j <= self.n) or i == j:
                raise StructureError(f"bad edge ({i}, {j}) for n = {self.n}")
            e = (min(i, j), max(i, j))
            if s not in (-1, 0, 1):
                raise StructureError(f"sigma must be -1, 0, or +1, got {s!r}")
            edges.add(e)
            clean[e] = int(s)
        self.edges = frozenset(edges)
        self.sigma = clean

    def neighbors(self, i: int) -> list[int]:
        out = []
        for a, b in self.edges:
            if a == i:
                out.append(b)
            elif b == i:
                out.append(a)
        return sorted(out)

    def __repr__(self) -> str:
        return f"SparsityGraph(n={self.n}, edges={len(self.edges)})"


def aggregated_graph(mats) -> SparsityGraph:
    """Build the interaction graph of a family of same-dim matrices: a
    list of SymMatrix, or their arrays as one (k, n, n) stack.

    Pass quadratic parts only: every index of the matrices becomes a
    vertex, so any homogenization coordinate must be stripped first.
    """
    if not isinstance(mats, np.ndarray):
        mats = list(mats)
        if not mats:
            raise DimensionError("need at least one matrix")
        n = mats[0].dim
        for m in mats:
            if m.dim != n:
                raise DimensionError(f"mixed dims {m.dim} and {n}")
        mats = np.array([m.array for m in mats])
    if not len(mats):
        raise DimensionError("need at least one matrix")
    n = mats.shape[-1]
    # per pair i < j (row-major), how many matrices are positive there and
    # how many negative; a pair with a nonzero entry is an edge
    iu, ju = np.triu_indices(n, 1)
    vals = mats[:, iu, ju]
    pos = (vals > 0.0).sum(axis=0).tolist()
    neg = (vals < 0.0).sum(axis=0).tolist()
    sigma = {}
    for i, j, p, q in zip(iu.tolist(), ju.tolist(), pos, neg):
        if p or q:
            sigma[(i + 1, j + 1)] = 1 if not q else -1 if not p else 0
    return SparsityGraph(n, sigma)


def _walk(g: SparsityGraph):
    """The one depth-first walk of g behind every sign-pattern question.

    Roots are taken in vertex order, so each component's root is its
    first vertex. Returns (parent, d, comps, loose): keyed by vertex, the
    vertex each one was reached from (None at a root) and the walk's
    gauge, +1 at a root and d_w = -sigma_vw d_v for w reached from v;
    the vertices of each component in the order reached; and the
    non-tree edges in sorted order. The tree path between the ends of a
    non-tree edge (i, j) has sign product (-1)^(length) d_i d_j, so its
    fundamental cycle passes parity exactly when d_i d_j sigma_ij = -1.
    """
    parent: dict[int, int | None] = {}
    d, comps = {}, []
    for r in range(1, g.n + 1):
        if r in parent:
            continue
        parent[r], d[r] = None, 1
        comps.append([r])
        stack = [r]
        while stack:
            v = stack.pop()
            for w in g.neighbors(v):
                if w not in parent:
                    parent[w] = v
                    d[w] = -g.sigma[(min(v, w), max(v, w))] * d[v]
                    comps[-1].append(w)
                    stack.append(w)
    loose = [(i, j) for i, j in sorted(g.edges) if j != parent[i] and i != parent[j]]
    return parent, d, comps, loose


def _fundamental_cycle(parent, e) -> list[tuple]:
    """The tree path between the ends of the non-tree edge e, then e."""

    def path_to_root(v):
        out = [v]
        while parent[v] is not None:
            v = parent[v]
            out.append(v)
        return out

    u, v = e
    pu, pv = path_to_root(u), path_to_root(v)
    # splice the two root paths at the lowest common ancestor
    su = set(pu)
    k = next(i for i, x in enumerate(pv) if x in su)
    lca = pv[k]
    up = pu[: pu.index(lca) + 1]
    down = pv[:k]
    path = up + down[::-1]  # u ... lca ... v
    cyc = [(min(a, b), max(a, b)) for a, b in zip(path, path[1:])]
    cyc.append(e)
    return cyc


def check_sign_pattern(g: SparsityGraph) -> Certificate:
    """Parity certificate on the interaction graph.

    Requires every edge label in {-1, +1} and, for each fundamental
    cycle, the product of labels equal to (-1)^length, which holds
    exactly when a +-1 rescaling of the variables makes all
    interactions nonpositive. One walk (_walk) decides every cycle: the
    first failing one in sorted non-tree-edge order is named.

    A graph without cycles is a forest, and an all-positive graph that
    passes parity has only even cycles (every cycle is a sum of
    fundamental ones), so it is bipartite.
    """
    mixed = sorted(e for e, s in g.sigma.items() if s == 0)
    if mixed:
        return Certificate(
            CertificateKind.NONE,
            f"edges {mixed} carry mixed signs",
            depends_on_solution=False,
        )
    parent, d, _, loose = _walk(g)
    for e in loose:
        if d[e[0]] * d[e[1]] * g.sigma[e] != -1:
            cyc = _fundamental_cycle(parent, e)
            return Certificate(
                CertificateKind.NONE,
                f"cycle {cyc} has sign product {math.prod(g.sigma[f] for f in cyc)}, "
                f"parity needs {(-1) ** len(cyc)}",
                depends_on_solution=False,
            )
    if all(s == -1 for s in g.sigma.values()):
        case = SignCase.ALL_NONPOSITIVE
    elif not loose:
        case = SignCase.FOREST
    elif all(s == 1 for s in g.sigma.values()):
        case = SignCase.BIPARTITE_POSITIVE
    else:
        case = SignCase.GENERAL
    return Certificate(
        CertificateKind.SIGN_PATTERN,
        f"{len(g.edges)} edges pass the cycle parity test ({case.value})",
        depends_on_solution=False,
        case=case,
    )


def _oriented_gauge(g: SparsityGraph, lins: np.ndarray) -> np.ndarray | None:
    """Sign vector d making every function have nonpositive couplings and
    nonpositive linear coefficients under u_i -> d_i u_i, or None; g is
    the aggregated graph of the functions' quadratic parts and the rows
    of lins are their linear parts.

    The couplings fix d up to one free flip per connected component of
    g (the walk's gauge gives each component's first vertex +1); the
    linear coefficients then pin each component's orientation, since the
    homogenization coordinate cannot flip. With such a d, gauged square
    roots of a solution-matrix diagonal always yield a feasible point at
    least as good."""
    if any(s == 0 for s in g.sigma.values()):
        return None
    _, d, comps, loose = _walk(g)
    if any(d[i] * d[j] * g.sigma[(i, j)] != -1 for i, j in loose):
        return None
    d = np.array([d[v] for v in range(1, g.n + 1)], dtype=np.float64)
    for comp in comps:
        idx = [v - 1 for v in comp]
        vals = (lins[:, idx] * d[idx]).ravel()
        if np.all(vals <= 1e-12):
            continue
        if np.all(vals >= -1e-12):
            d[idx] = -d[idx]
            continue
        return None
    return d


# ---------------------------------------------------------------------------
# homogeneous problems with limited constraints


def _row_stacks(h: HomSepQcqp) -> list:
    """h's row matrices C^q_1 .. C^q_m as one (m, d, d) stack per block."""
    return [
        np.array([c.array for c in mats[1:]]).reshape(h.m, mats[0].dim, mats[0].dim)
        for mats in h.blocks
    ]


def reduce_homogeneous_rows(h: HomSepQcqp, tol: float = 1e-12):
    """Drop rows that cannot constrain anything: all-zero-matrix rows that
    are trivially satisfied, and <= rows positively proportional to another
    <= row when one implies the other.

    Returns (reduced problem, dropped original row indices). Used before
    the rank-count certificate so redundant rows do not inflate m. Two <=
    rows whose norm ratio overflows raise RangeError naming them (1-based,
    as the problem file numbers rows).
    """
    # written so that a NaN fails it
    if not 0.0 <= tol < math.inf:
        raise ValueError("tol must be nonnegative and finite")
    m = h.m
    rows = _row_stacks(h)
    live = np.zeros(m, dtype=bool)
    for st in rows:
        live |= st.any(axis=(1, 2))
    drop = set()
    for k in np.flatnonzero(~live).tolist():
        d = float(h.rhs[k])
        rel = h.relations[k]
        vacuous = (
            (rel is Relation.LE and d >= 0.0)
            or (rel is Relation.GE and d <= 0.0)
            or (rel is Relation.EQ and d == 0.0)
        )
        if vacuous:
            drop.add(k)
    # the Frobenius norm of every row on every block (SymMatrix.norm's, one
    # stacked product per block), and each row's largest one; a norm that
    # overflows to inf is reported by the ratio test below
    with np.errstate(over="ignore"):
        norms = [np.sqrt(frob_inner_many(st, st)).tolist() for st in rows]
    peak = [max(nq[k] for nq in norms) for k in range(m)]

    def proportional(k, j):
        """Positive c with row j = c * row k, or None: every block's
        c C_k - C_j small against C_j. That difference is not finite
        exactly where c is not finite (an entry of C_k is at most its peak
        norm, so otherwise every entry of c C_k - C_j is at most twice row
        j's finite peak norm), and then the rows cannot be compared."""
        nk, nj = peak[k], peak[j]
        if nk == 0.0 or nj == 0.0:
            return None
        c = nj / nk
        if not math.isfinite(c):
            raise RangeError(
                f"row {j + 1}: the ratio of its norm {nj:.6g} to row "
                f"{k + 1}'s {nk:.6g} is not finite"
            )
        for st, nq in zip(rows, norms):
            diff = c * st[k] - st[j]
            if math.sqrt(frob_inner_many(diff, diff)) > tol * (1.0 + nq[j]):
                return None
        return c

    for k in range(m):
        if k in drop or h.relations[k] is not Relation.LE:
            continue
        for j in range(k + 1, m):
            if j in drop or h.relations[j] is not Relation.LE:
                continue
            c = proportional(k, j)
            if c is None:
                continue
            # row j reads c * (row k expression) <= rhs_j
            if float(h.rhs[j]) >= c * float(h.rhs[k]):
                drop.add(j)  # j is implied by k
            else:
                drop.add(k)  # k is implied by j
                break

    if not drop:
        return h, []
    keep = [k for k in range(m) if k not in drop]
    blocks = [
        [h.blocks[q][0]] + [h.blocks[q][k + 1] for k in keep]
        for q in range(h.q_hat)
    ]
    reduced = HomSepQcqp(
        blocks, [h.relations[k] for k in keep], h.rhs[keep]
    )
    return reduced, sorted(drop)


def check_m_le_2(h: HomSepQcqp, reduction=None) -> Certificate:
    """Structural certificate: with at most 2 effective rows, any extreme
    optimal solution of the homogeneous relaxation is blockwise rank <= 1,
    independent of the solution at hand.

    reduction is reduce_homogeneous_rows(h) when the caller has it
    already; it is computed here otherwise."""
    if reduction is None:
        reduction = reduce_homogeneous_rows(h)
    reduced, dropped = reduction
    m_eff = reduced.m
    if m_eff <= 2:
        note = f" ({len(dropped)} redundant rows ignored)" if dropped else ""
        return Certificate(
            CertificateKind.HOM_LIMITED,
            f"homogeneous with m = {m_eff} <= 2{note}",
            depends_on_solution=False,
        )
    return Certificate(
        CertificateKind.NONE,
        f"effective row count {m_eff} exceeds 2",
        depends_on_solution=False,
    )


@dataclass(frozen=True)
class AssumptionBreakdown:
    """Per-quantity evidence for the rank-count condition."""

    block_norms: list
    block_nonzero: list
    residuals: np.ndarray
    residual_counted: list
    m: int
    note: str


def check_assumption_A(h: HomSepQcqp, blocks, tol: float = 1e-6):
    """Count nonzero blocks and nonzero inequality residuals at blocks, a
    solution's one SymMatrix per block of h.

    The condition needs at least m - 1 nonzeros among the blocks V^q and
    the row residuals rhs_k - sum_q <C^q_k, V^q>. Residuals of = rows are
    structurally zero and never counted. Returns
    (holds, nonzero_count, breakdown). The verdict speaks only for the
    solution at hand, not for every optimal solution; the breakdown's note
    records that caveat. Where the rhs are the rows' own values at these
    blocks (judge's joint blocks at their allocation) no residual counts,
    and the count is that of the nonzero blocks.
    """
    if len(blocks) != h.q_hat:
        raise DimensionError(
            f"{len(blocks)} solution blocks for {h.q_hat} problem blocks"
        )
    for v, mats in zip(blocks, h.blocks):
        if v.dim != mats[0].dim:
            raise DimensionError(
                f"solution block dim {v.dim} != problem dim {mats[0].dim}"
            )
    norms = [v.norm() for v in blocks]
    vmax = max(norms, default=0.0)
    block_nonzero = [nv > tol * (1.0 + vmax) for nv in norms]

    # frob_inner of every row on every block, one stacked product per block
    vals = [
        frob_inner_many(st, v.array).tolist() for st, v in zip(_row_stacks(h), blocks)
    ]
    residuals = np.zeros(h.m)
    counted = []
    for k in range(h.m):
        lhs = sum(vq[k] for vq in vals)
        residuals[k] = float(h.rhs[k]) - lhs
        is_eq = h.relations[k] is Relation.EQ
        counted.append(
            (not is_eq) and abs(residuals[k]) > tol * (1.0 + abs(float(h.rhs[k])))
        )
    count = sum(block_nonzero) + sum(counted)
    holds = count >= h.m - 1
    breakdown = AssumptionBreakdown(
        block_norms=norms,
        block_nonzero=block_nonzero,
        residuals=residuals,
        residual_counted=counted,
        m=h.m,
        note="checked at one optimal solution; the sufficient condition "
        "quantifies over all of them",
    )
    return holds, count, breakdown


def pataki_count(ranks, slacks, rank_tol: float) -> int:
    """Sum over blocks of r(r+1)/2 plus the number of nonzero slacks, a
    slack counting when it exceeds rank_tol * (1 + the largest |slack|)."""
    slacks = np.abs(np.asarray(slacks, dtype=np.float64))
    smax = float(slacks.max(initial=0.0))
    nnz_slack = int(np.sum(slacks > rank_tol * (1.0 + smax)))
    return sum(r * (r + 1) // 2 for r in ranks) + nnz_slack
