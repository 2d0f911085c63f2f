"""Exactness certificates for sub-QCQP relaxations.

Three independent classes of problems have relaxations that are provably
tight:

* convex problems (all constraints <=, every quadratic part PSD);
* problems whose aggregated sign pattern over the variable-interaction
  graph can be flipped to all-nonpositive off-diagonals by a +-1 gauge,
  detected through a cycle-basis parity test;
* homogeneous separable problems where, at an optimal relaxation point,
  at most one of the blocks and inequality residuals vanishes (so an
  extreme-point rank bound forces every block to rank <= 1).

The first two certificates are independent of the right-hand side; the
third is checked against a concrete solution unless m <= 2 makes it
structural. The convexity test runs over many problems at once
(check_convex_many): the quadratic parts of all of them are views of
their matrices, tested with one stacked eigendecomposition per
dimension; check_convex is its one-problem case.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, StructureError
from .qcqp_model import HomSepQcqp, Qcqp, Relation
from .sdpr_builder import SdpSolution
from .symkernel import SymMatrix, frob_inner, is_psd_many


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


def _kept_constraints(q: Qcqp):
    """Constraint rows minus the vacuous all-zero rows with zero rhs,
    mirroring what the relaxation builder keeps."""
    return [
        (f, rel, float(d))
        for (f, rel), d in zip(q.constraints, q.rhs)
        if not (float(d) == 0.0 and f.is_zero())
    ]


def check_convex(q: Qcqp, tol: float = 1e-9) -> Certificate:
    """Certificate that every function is convex and every row is <=.

    In that regime the relaxation is tight for any right-hand side and an
    optimal point can be read off the last column of any optimal matrix.
    This is check_convex_many of the one problem.
    """
    return check_convex_many([q], tol)[0]


def check_convex_many(qs, tol: float = 1e-9) -> list:
    """check_convex of every problem in qs, in one pass.

    The quadratic parts of all problems' functions are read as views of
    their matrices (no copy per function) and tested together: one
    stacked eigendecomposition per dimension (symkernel.is_psd_many). In
    each problem the first part that fails names the certificate's
    failure, as testing them one by one would.
    """
    certs, spans, quads = [], [], []
    for q in qs:
        kept = _kept_constraints(q)
        bad_rel = [i for i, (_, rel, _) in enumerate(kept) if rel is not Relation.LE]
        if bad_rel:
            certs.append(Certificate(
                CertificateKind.NONE,
                f"constraint rows {bad_rel} are not <=",
                depends_on_solution=False,
            ))
            spans.append(None)
            continue
        n = q.n
        funcs = [q.objective] + [f for f, _, _ in kept]
        spans.append((len(quads), len(kept)))
        quads += [f.B.array[:n, :n] for f in funcs]
        certs.append(None)
    psd = is_psd_many(quads, tol=tol)
    for i, span in enumerate(spans):
        if span is None:
            continue
        start, rows = span
        flags = psd[start : start + rows + 1]
        if flags.all():
            certs[i] = Certificate(
                CertificateKind.CONVEX,
                f"all {rows} rows are <= and all {rows + 1} quadratic parts PSD",
                depends_on_solution=False,
            )
            continue
        k = int(np.argmin(flags))
        which = "objective" if k == 0 else f"constraint {k - 1}"
        certs[i] = Certificate(
            CertificateKind.NONE,
            f"quadratic part of {which} is not PSD",
            depends_on_solution=False,
        )
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
    """Build the interaction graph of a family of same-dim matrices.

    Pass quadratic parts only: every index of the matrices becomes a
    vertex, so any homogenization coordinate must be stripped first.
    """
    mats = list(mats)
    if not mats:
        raise DimensionError("need at least one matrix")
    n = mats[0].dim
    for m in mats:
        if m.dim != n:
            raise DimensionError(f"mixed dims {m.dim} and {n}")
    sigma = {}
    for i in range(n):
        for j in range(i + 1, n):
            vals = [m[i, j] for m in mats if m[i, j] != 0.0]
            if not vals:
                continue
            if all(v > 0 for v in vals):
                s = 1
            elif all(v < 0 for v in vals):
                s = -1
            else:
                s = 0
            sigma[(i + 1, j + 1)] = s
    return SparsityGraph(n, sigma)


def _spanning_forest(g: SparsityGraph, reverse: bool = False):
    """Iterative DFS forest; returns (parent map, tree-edge set).

    reverse flips the neighbor visiting order, yielding a different
    spanning tree on graphs with cycles (for basis-independence checks).
    """
    parent: dict[int, int | None] = {}
    tree_edges = set()
    vertices = range(1, g.n + 1)
    for root in vertices:
        if root in parent:
            continue
        parent[root] = None
        stack = [root]
        while stack:
            v = stack.pop()
            nbrs = g.neighbors(v)
            if reverse:
                nbrs = nbrs[::-1]
            for w in nbrs:
                if w not in parent:
                    parent[w] = v
                    tree_edges.add((min(v, w), max(v, w)))
                    stack.append(w)
    return parent, tree_edges


def cycle_basis(g: SparsityGraph, reverse: bool = False) -> list[list[tuple]]:
    """Fundamental cycles of a spanning forest, one per non-tree edge.

    Each cycle is a list of (i, j) edges with i < j. Forests give [].
    """
    parent, tree_edges = _spanning_forest(g, reverse=reverse)

    def path_to_root(v):
        out = [v]
        while parent[v] is not None:
            v = parent[v]
            out.append(v)
        return out

    cycles = []
    for e in sorted(g.edges):
        if e in tree_edges:
            continue
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
        cycles.append(cyc)
    return cycles


def _is_bipartite(g: SparsityGraph) -> bool:
    color: dict[int, int] = {}
    for root in range(1, g.n + 1):
        if root in color:
            continue
        color[root] = 0
        stack = [root]
        while stack:
            v = stack.pop()
            for w in g.neighbors(v):
                if w not in color:
                    color[w] = 1 - color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    return False
    return True


def check_sign_pattern(g: SparsityGraph) -> Certificate:
    """Parity certificate on the interaction graph.

    Requires every edge label in {-1, +1} and, for each fundamental
    cycle, the product of labels equal to (-1)^length, which holds
    exactly when a +-1 rescaling of the variables makes all
    interactions nonpositive.
    """
    mixed = sorted(e for e, s in g.sigma.items() if s == 0)
    if mixed:
        return Certificate(
            CertificateKind.NONE,
            f"edges {mixed} carry mixed signs",
            depends_on_solution=False,
        )
    for cyc in cycle_basis(g):
        prod = 1
        for e in cyc:
            prod *= g.sigma[e]
        if prod != (-1) ** len(cyc):
            return Certificate(
                CertificateKind.NONE,
                f"cycle {cyc} has sign product {prod}, parity needs "
                f"{(-1) ** len(cyc)}",
                depends_on_solution=False,
            )
    if all(s == -1 for s in g.sigma.values()):
        case = SignCase.ALL_NONPOSITIVE
    elif not cycle_basis(g):
        case = SignCase.FOREST
    elif _is_bipartite(g) and all(s == 1 for s in g.sigma.values()):
        case = SignCase.BIPARTITE_POSITIVE
    else:
        case = SignCase.GENERAL
    return Certificate(
        CertificateKind.SIGN_PATTERN,
        f"{len(g.edges)} edges pass the cycle parity test ({case.value})",
        depends_on_solution=False,
        case=case,
    )


def sign_gauge(g: SparsityGraph) -> np.ndarray | None:
    """A vector d in {-1, +1}^n with d_i d_j sigma_ij = -1 on every edge,
    or None when no such rescaling exists.

    Isolated vertices get +1; callers may flip whole components freely
    (flipping all of a component preserves the edge products).
    """
    if any(s == 0 for s in g.sigma.values()):
        return None
    d = np.zeros(g.n, dtype=np.int64)
    for root in range(1, g.n + 1):
        if d[root - 1] != 0:
            continue
        d[root - 1] = 1
        stack = [root]
        while stack:
            v = stack.pop()
            for w in g.neighbors(v):
                e = (min(v, w), max(v, w))
                want = -g.sigma[e] * d[v - 1]
                if d[w - 1] == 0:
                    d[w - 1] = want
                    stack.append(w)
                elif d[w - 1] != want:
                    return None
    return d.astype(np.float64)


# ---------------------------------------------------------------------------
# homogeneous problems with limited constraints


def reduce_homogeneous_rows(h: HomSepQcqp, tol: float = 1e-12):
    """Drop rows that cannot constrain anything: all-zero-matrix rows that
    are trivially satisfied, and <= rows positively proportional to another
    <= row when one implies the other.

    Returns (reduced problem, dropped original row indices). Used before
    the rank-count certificate so redundant rows do not inflate m.
    """
    m = h.m
    drop = set()
    for k in range(m):
        if all(h.blocks[q][k + 1].is_zero() for q in range(h.q_hat)):
            d = float(h.rhs[k])
            rel = h.relations[k]
            vacuous = (
                (rel is Relation.LE and d >= 0.0)
                or (rel is Relation.GE and d <= 0.0)
                or (rel is Relation.EQ and d == 0.0)
            )
            if vacuous:
                drop.add(k)

    def row_mats(k):
        return [h.blocks[q][k + 1] for q in range(h.q_hat)]

    def proportional(k, j):
        """Positive c with row j = c * row k, or None."""
        nk = max(mm.norm() for mm in row_mats(k))
        nj = max(mm.norm() for mm in row_mats(j))
        if nk == 0.0 or nj == 0.0:
            return None
        c = nj / nk
        for a, b in zip(row_mats(k), row_mats(j)):
            if (a.scaled(c) - b).norm() > tol * (1.0 + b.norm()):
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


def check_assumption_A(
    h: HomSepQcqp, sol: SdpSolution, tol: float = 1e-6
):
    """Count nonzero blocks and nonzero inequality residuals at sol.

    The condition needs at least m - 1 nonzeros among the blocks V^q and
    the row residuals rhs_k - sum_q <C^q_k, V^q>. Residuals of = rows are
    structurally zero and never counted. Returns
    (holds, nonzero_count, breakdown). The verdict speaks only for the
    solution at hand, not for every optimal solution; the breakdown's note
    records that caveat.
    """
    if len(sol.blocks) != h.q_hat:
        raise DimensionError(
            f"{len(sol.blocks)} solution blocks for {h.q_hat} problem blocks"
        )
    for v, mats in zip(sol.blocks, h.blocks):
        if v.dim != mats[0].dim:
            raise DimensionError(
                f"solution block dim {v.dim} != problem dim {mats[0].dim}"
            )
    norms = [v.norm() for v in sol.blocks]
    vmax = max(norms, default=0.0)
    block_nonzero = [nv > tol * (1.0 + vmax) for nv in norms]

    residuals = np.zeros(h.m)
    counted = []
    for k in range(h.m):
        lhs = sum(
            frob_inner(h.blocks[q][k + 1], sol.blocks[q])
            for q in range(h.q_hat)
        )
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
