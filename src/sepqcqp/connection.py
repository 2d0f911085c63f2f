"""End-to-end exactness pipeline for horizontal connections.

Given a separable QCQP whose entries couple only through shared
right-hand sides, the pipeline solves the block relaxation, splits the
achieved constraint values into per-entry allocations, reads each
entry's blockwise optimality off the joint primal-dual pair (re-solving
an entry at its allocation only where the joint dual bound fails),
certifies each entry against the known exact classes, and renders a
verdict:

* ExactCertified  - every entry lands in an exact class and the block
                    relaxation solved to optimality;
* ExactWitnessed  - a feasible point of the original problem matches the
                    relaxation value (found by rank reduction, by a
                    class-specific construction, or by the grid oracle);
* NotExact        - the grid oracle sits strictly above the relaxation;
* Undetermined    - none of the above could be established.

A certified verdict asserts equality of optimal values; it does not by
itself hand over a rank-one solution, so certification and witnessing
are reported independently. The module also renders the two-level
reading of a connection (allocations as upper-level variables) and
ships the seeded instance generators used across the test suite.

Around the joint solve, each stage works on all entries at once
(_EntryStacks holds every entry's function matrices stacked per block
dimension): the row values at the solution blocks and at witness points
are one stacked product per dimension, the dual-bound PSD tests of all
entries one stacked eigh per dimension, and the convexity tests of all
inhomogeneous entries one more (certificates.check_convex_many). Every
value is bit for bit the one-entry loop's: a stacked dot product runs
over C-contiguous rows (see sdp_solver), and sums over a homogeneous
entry's blocks are added block by block onto zeros, as before.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .certificates import (
    Certificate,
    CertificateKind,
    aggregated_graph,
    check_assumption_A,
    check_convex,  # noqa: F401 - perfbench/tracing.py wraps connection.check_convex
    check_convex_many,
    check_m_le_2,
    check_sign_pattern,
    extract_convex_solution,
    reduce_homogeneous_rows,
    sign_gauge,
)
from .errors import (
    DimensionError,
    GenerationError,
    RangeError,
    ReductionStallError,
    SepqcqpError,
    StaleSolutionError,
)
from .qcqp_model import (
    INFEASIBLE,
    HomSepQcqp,
    Qcqp,
    QuadFunc,
    Relation,
    SeparableQcqp,
    brute_force,
    flatten,
    split_point,
)
from .rank_reduction import ReductionReport, reduce
from .sdp_solver import SolverOptions, solve, solve_many
from .sdpr_builder import (
    BlockSdp,
    SdpSolution,
    SolveStatus,
    build_block,
    build_hom,
    build_shor,
    to_standard_form,
)
from .symkernel import SymMatrix, frob_inner_many, is_psd, is_psd_many


class VerdictStatus(enum.Enum):
    EXACT_CERTIFIED = "ExactCertified"
    EXACT_WITNESSED = "ExactWitnessed"
    NOT_EXACT = "NotExact"
    UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class PerBlockReport:
    certificate: Certificate
    sub_sdpr_value: float
    optimality_gap: float


@dataclass(frozen=True)
class ExactnessVerdict:
    status: VerdictStatus
    eta: float
    zeta_witness: float | None
    delta_decomposition: list
    per_block: list
    witness: list | None = None
    oracle_value: float | None = None
    reason: str = ""
    #: the block-relaxation solution the verdict rests on (None when the
    #: solve raised); not part of the verdict's identity or its JSON form
    relaxation: SdpSolution | None = field(
        default=None, compare=False, repr=False
    )
    #: rank reduction of that solution (None when it was not reached, or
    #: stalled or found the solution stale); likewise outside identity/JSON
    reduction: ReductionReport | None = field(
        default=None, compare=False, repr=False
    )

    @property
    def exact(self) -> bool:
        return self.status in (
            VerdictStatus.EXACT_CERTIFIED,
            VerdictStatus.EXACT_WITNESSED,
        )


def _is_int_at_least(value, low: int) -> bool:
    """value is an int (not a bool) of at least low."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= low


@dataclass(frozen=True)
class JudgeOptions:
    tol: float = 1e-6
    rank_tol: float = 1e-6
    solver: SolverOptions | None = None
    oracle_box: tuple | None = None
    oracle_grid: int | None = None
    oracle_rounds: int = 4

    def __post_init__(self):
        # written so that a NaN fails them
        if not 0.0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")
        if not 0.0 < self.rank_tol < math.inf:
            raise ValueError("rank_tol must be positive and finite")
        if self.oracle_grid is not None and not _is_int_at_least(self.oracle_grid, 11):
            raise ValueError("oracle_grid must be None or an integer of at least 11")
        if not _is_int_at_least(self.oracle_rounds, 0):
            raise ValueError("oracle_rounds must be an integer of at least 0")


@dataclass(frozen=True)
class BilevelRow:
    index: int
    allocation: np.ndarray
    value: float
    certified: bool


@dataclass(frozen=True)
class BilevelReport:
    rows: list
    eta: float

    @property
    def total(self) -> float:
        return float(sum(r.value for r in self.rows))

    @property
    def identity_gap(self) -> float:
        return abs(self.total - self.eta)


# ---------------------------------------------------------------------------
# allocation and per-entry optimality


def _entry_slices(s: SeparableQcqp) -> list:
    """Where each entry's blocks sit in build_block's block list: one slice
    per entry (its q blocks for a homogeneous entry, one otherwise)."""
    out, ofs = [], 0
    for entry in s.blocks:
        cnt = entry.q_hat if isinstance(entry, HomSepQcqp) else 1
        out.append(slice(ofs, ofs + cnt))
        ofs += cnt
    return out


class _EntryStacks:
    """Every entry's function matrices on its relaxation blocks, stacked
    per block dimension, so that a stage over all entries is a few
    stacked numpy calls.

    Block i (build_block's order; slices from _entry_slices) carries its
    entry's matrices there, objective first: B_0 .. B_m of an
    inhomogeneous entry, C^q_0 .. C^q_m of block q of a homogeneous one.
    groups holds, per dimension, the blocks' indices and their
    (g, m + 1, d, d) stack. Per-block values become per-entry values as
    the one-entry loops summed them (_per_entry).
    """

    def __init__(self, s: SeparableQcqp):
        self.s = s
        self.slices = _entry_slices(s)
        #: each entry's first block
        self.first = [sl.start for sl in self.slices]
        self.hom = [
            p for p, entry in enumerate(s.blocks) if isinstance(entry, HomSepQcqp)
        ]
        mats = []
        for entry in s.blocks:
            if isinstance(entry, HomSepQcqp):
                mats += entry.blocks
            else:
                mats.append([entry.objective.B] + [f.B for f, _ in entry.constraints])
        self.dims = [ms[0].dim for ms in mats]
        #: the entry of each block, and the corner row of each inhomogeneous
        #: entry's block (-1 elsewhere)
        self.owner = np.repeat(
            np.arange(len(s.blocks)), [sl.stop - sl.start for sl in self.slices]
        )
        self.corner = np.full(len(mats), -1, dtype=np.intp)
        for p, entry in enumerate(s.blocks):
            if not isinstance(entry, HomSepQcqp):
                self.corner[self.slices[p].start] = entry.n
        by_dim: dict[int, list[int]] = {}
        for i, d in enumerate(self.dims):
            by_dim.setdefault(d, []).append(i)
        self.groups = [
            (
                np.array(idx, dtype=np.intp),
                np.array([[a.array for a in mats[i]] for i in idx]),
            )
            for idx in by_dim.values()
        ]
        #: the rows whose matrix on a block is identically zero
        self.zero = np.empty((len(mats), s.m), dtype=bool)
        for idx, stack in self.groups:
            self.zero[idx] = ~stack[:, 1:].any(axis=(2, 3))

    def _per_entry(self, table: np.ndarray) -> np.ndarray:
        """Per-block values (one row per block) as per-entry values: an
        inhomogeneous entry's block row, or a homogeneous entry's rows
        added block by block onto zeros."""
        out = table[self.first]
        for p in self.hom:
            acc = np.zeros(table.shape[1])
            for row in table[self.slices[p]]:
                acc += row
            out[p] = acc
        return out

    def at_blocks(self, blocks) -> np.ndarray:
        """[objective, row 1..m] of every entry at its psd blocks (the
        relaxation's blocks, as SymMatrix): one row per entry, each value
        bit for bit its frob_inner."""
        dims = [x.dim for x in blocks]
        if len(dims) != len(self.dims):
            raise DimensionError(
                f"{len(dims)} solution blocks, expected {len(self.dims)}"
            )
        if dims != self.dims:
            got, want = next((a, b) for a, b in zip(dims, self.dims) if a != b)
            raise DimensionError(f"solution block dim {got}, expected {want}")
        table = np.empty((len(dims), self.s.m + 1))
        for idx, mats in self.groups:
            xs = np.stack([blocks[i].array for i in idx])
            table[idx] = frob_inner_many(mats, xs[:, None])
        return self._per_entry(table)

    def at_points(self, points) -> np.ndarray:
        """[objective, row 1..m] of every entry at one flat point each:
        one row per entry, each value bit for bit that of evaluating the
        entry's functions one at a time (qcqp_model.eval, hom_values)."""
        zs = []
        for entry, point in zip(self.s.blocks, points):
            point = np.asarray(point, dtype=np.float64).reshape(-1)
            if isinstance(entry, HomSepQcqp):
                want = sum(entry.dims)
                if point.shape[0] != want:
                    raise DimensionError(
                        f"point has {point.shape[0]} coordinates, expected {want}"
                    )
                ofs = 0
                for d in entry.dims:
                    zs.append(point[ofs : ofs + d])
                    ofs += d
            else:
                if point.shape != (entry.n,):
                    raise DimensionError(
                        f"point has shape {point.shape}, expected ({entry.n},)"
                    )
                zs.append(np.append(point, 1.0))
        table = np.empty((len(zs), self.s.m + 1))
        for idx, mats in self.groups:
            z = np.stack([zs[i] for i in idx])
            # z B z per matrix: one gemv, then one dot over a contiguous row
            table[idx] = np.matmul(
                np.matmul(z[:, None, None, :], mats), z[:, None, :, None]
            )[..., 0, 0]
        return self._per_entry(table)

    def reduced_psd(self, y, mus, tol) -> np.ndarray:
        """Per entry, whether its reduced objective matrices (objective
        minus y against the rows, minus mu at an inhomogeneous block's
        corner; mus per entry) are all psd within tol. Each block's matrix
        is built as the one-entry loop built it, term by term in row
        order, skipping rows with y_k = 0; the tests are one is_psd_many.
        A matrix that overflowed is not psd."""
        nz = np.flatnonzero(y != 0.0)
        flags = np.empty(len(self.dims), dtype=bool)
        for idx, mats in self.groups:
            if len(nz):
                terms = np.concatenate(
                    (mats[:, :1], y[nz][None, :, None, None] * mats[:, 1 + nz]), axis=1
                )
                acc = np.subtract.reduce(terms, axis=1)
            else:
                acc = mats[:, 0].copy()
            pos = np.flatnonzero(self.corner[idx] >= 0)
            if len(pos):
                n = acc.shape[-1] - 1
                mu = np.asarray(mus, dtype=np.float64)[self.owner[idx[pos]]]
                acc[pos, n, n] -= mu
            finite = np.isfinite(acc).all(axis=(1, 2))
            flags[idx] = finite
            flags[idx[finite]] = is_psd_many(acc[finite], tol)
        return np.array([flags[sl].all() for sl in self.slices], dtype=bool)


def decompose_delta(s: SeparableQcqp, sol) -> list:
    """Per-entry achieved constraint values at a block-relaxation solution.

    Entry p receives delta^p with delta^p_k the inner product of its row-k
    matrices against its own solved psd blocks. Summing delta^p_k over p
    reproduces the achieved left-hand side of coupled row k, so whenever
    sol is feasible the allocations jointly respect every relation
    against gamma.
    """
    return list(_EntryStacks(s).at_blocks(sol.blocks)[:, 1:])


def strip_variable_free_rows(q: Qcqp):
    """Remove constraints whose matrix is identically zero.

    Returns (reduced problem, kept row indices); the reduced problem is q
    itself when no row is zero. Zero rows carry no variable information;
    whether their right-hand sides are consistent is a separate check
    that depends on the allocation in play.
    """
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


def _hom_at(entry: HomSepQcqp, delta):
    """A homogeneous entry at allocation delta, and its row reduction
    (reduce_homogeneous_rows: the reduced problem, the dropped rows)."""
    h = HomSepQcqp(entry.blocks, list(entry.relations), delta)
    return h, reduce_homogeneous_rows(h)


def _sub_problem(entry, delta):
    """Entry-level relaxation at allocation delta: build_hom of the reduced
    homogeneous rows, or build_shor of the rows that involve variables
    (whether the variable-free ones hold is _rows_hold's first test)."""
    delta = np.asarray(delta, dtype=np.float64)
    if isinstance(entry, HomSepQcqp):
        return build_hom(_hom_at(entry, delta)[1][0])
    full = Qcqp(entry.n, entry.objective, list(entry.constraints), delta)
    return build_shor(strip_variable_free_rows(full)[0])


def _within(s: SeparableQcqp, lhs, delta: np.ndarray, tol) -> np.ndarray:
    """Relation.holds for every (entry, row) pair: lhs <relation_k>
    delta within tol * (1 + |delta|), as the one-pair test computes it."""
    rels = s.relations
    le = np.array([r is Relation.LE for r in rels], dtype=bool)
    eq = np.array([r is Relation.EQ for r in rels], dtype=bool)
    t = tol * (1.0 + np.abs(delta))
    with np.errstate(invalid="ignore", over="ignore"):
        ge = lhs >= delta - t
        return np.where(le, lhs <= delta + t, np.where(eq, np.abs(lhs - delta) <= t, ge))


def _rows_hold(stacks, blocks, achieved, deltas, tol):
    """Two tests per entry, meaningful for the inhomogeneous ones:
    (variable-free rows, joint rows).

    The first asks whether allocation deltas[p] satisfies, within tol,
    every row of the entry whose matrix is zero (0 <relation> delta_k).
    The second asks whether the entry's joint block satisfies its own
    relaxation's other rows at that allocation, read off its row values
    achieved[p] (objective first), each within tol * (1 + |delta_k|),
    and the unit corner x[n, n] = 1 within 2 tol.
    """
    first = stacks.first
    zero = stacks.zero[first]
    free = np.where(zero, _within(stacks.s, 0.0, deltas, tol), True).all(axis=1)
    rows = np.where(zero, True, _within(stacks.s, achieved[:, 1:], deltas, tol))
    corner = np.array(
        [blocks[i].array[n, n] if n >= 0 else 1.0
         for i, n in zip(first, stacks.corner[first])]
    )
    # written so that a NaN fails it
    return free, rows.all(axis=1) & (np.abs(corner - 1.0) <= 2.0 * tol)


def _connection_duals(s: SeparableQcqp, b, sol):
    """Multipliers of the coupled rows by original index, and the corner-row
    multiplier of each entry (0 for homogeneous entries, which have none)."""
    y = np.zeros(s.m)
    corner_duals = []
    for i, row in enumerate(b.rows):
        if row.origin >= 0:
            y[row.origin] = float(sol.dual_multipliers[i])
        else:
            corner_duals.append(float(sol.dual_multipliers[i]))
    mus, j = [], 0
    for entry in s.blocks:
        if isinstance(entry, HomSepQcqp):
            mus.append(0.0)
        else:
            mus.append(corner_duals[j])
            j += 1
    return y, mus


def _dual_feasible(stacks, y, mus, tol) -> np.ndarray:
    """Per entry, whether the connection's multipliers are dual-feasible
    for the entry's own relaxation: every inequality row's multiplier has
    its relation's sign within tol (the entries share their relations, so
    this test is one for all of them), and the reduced objective matrices
    are psd (_EntryStacks.reduced_psd: one stacked eigendecomposition per
    block dimension for all entries)."""
    yscale = tol * (1.0 + float(np.abs(y).max(initial=0.0)))
    for k, rel in enumerate(stacks.s.relations):
        if (rel is Relation.LE and y[k] > yscale) or (
            rel is Relation.GE and y[k] < -yscale
        ):
            return np.zeros(len(stacks.slices), dtype=bool)
    return stacks.reduced_psd(y, mus, tol)


def _dual_bound(entry, delta, y, mu, feasible):
    """Certified lower bound on the entry's relaxation value at delta, read
    off the connection's dual solution, or None when the multipliers are
    not dual-feasible for the entry (feasible, from _dual_feasible).

    The connection's multipliers are dual-feasible for every entry's own
    relaxation regardless of its rhs, so whenever the reduced objective
    matrices stay psd the value y . delta + mu bounds the entry's
    relaxation from below; at the achieved allocation, complementarity
    pins the entry's value between this bound and its achieved objective.
    """
    if not feasible:
        return None
    if isinstance(entry, HomSepQcqp):
        return float(y @ delta)
    return float(y @ delta) + mu


def _joint_subsol(sub, blocks, achieved, tol):
    """An entry's joint blocks as an Optimal solution of its sub-problem sub,
    or None when they miss one of its rows by more than tol.

    Slacks are read off the rows of sub's standard form, through the
    operator the entry's rank reduction reads later (_hom_entry_point);
    negating a >= row negates its residual exactly, so the slacks are
    those of sub's own rows. The value is the objective the entry
    achieves. The solution carries no dual part (NaN multipliers, no dual
    blocks): the entry's dual certificate is the joint multipliers'
    bound, reported next to it.
    """
    op = to_standard_form(sub).operator
    resid = op.rhs - op.apply([x.to_dense() for x in blocks])
    slacks = op.slack_coeffs * resid
    miss = np.where(op.slack_coeffs == 0.0, np.abs(resid), -slacks)
    # written so that a NaN fails it
    if not np.all(miss <= tol * (1.0 + np.abs(op.rhs))):
        return None
    return SdpSolution(
        blocks=list(blocks),
        slacks=slacks,
        dual_multipliers=np.full(sub.n_rows, math.nan),
        dual_blocks=[],
        status=SolveStatus.OPTIMAL,
        value=achieved,
        iterations=0,
    )


@dataclass(frozen=True)
class _EntryAnalysis:
    """One entry's optimality at its allocation (_analyse_entries).

    value is a value of the entry's relaxation at its allocation, gap its
    distance to the objective the entry achieves in the joint solution,
    subsol the entry's solution and resolved whether that was re-solved.
    A homogeneous entry also carries itself at its allocation (hom), that
    problem's row reduction (reduction, from reduce_homogeneous_rows) and
    its relaxation (sub, build_hom of the reduced problem); an
    inhomogeneous one carries sub only when it was re-solved.
    """

    value: float
    gap: float
    subsol: SdpSolution | None
    resolved: bool
    hom: HomSepQcqp | None = None
    reduction: tuple | None = None
    sub: BlockSdp | None = None


def _analyse_entries(stacks, b, sol, achieved, deltas, tol, solver=None) -> list:
    """Every entry's _EntryAnalysis, in one pass over the entries.

    stacks is the connection's _EntryStacks; entry p's blocks of sol are
    sol.blocks[stacks.slices[p]], achieved[p] is its [objective, row
    values] there (_EntryStacks.at_blocks) and deltas[p] its allocation.
    The joint primal-dual pair comes first. Its multipliers bound every
    entry's relaxation from below (_dual_bound; the psd tests of all
    entries stacked, see _dual_feasible); where the bound meets the
    achieved objective within tol and the entry's joint blocks satisfy
    its own rows, the entry is optimal at its allocation and is not
    re-solved. The inhomogeneous entries' rows are checked together on
    the row values they already have (_rows_hold), so no sub-problem is
    built for them; their solution is not read later and stays None. A
    homogeneous entry's row reduction is computed here, once, and its
    relaxation built: its joint blocks become its solution
    (_joint_subsol), which the certificate and witness stages read.

    Only the other entries are re-solved, in one lockstep batch; an entry
    whose re-solve stops short of Optimal keeps the bound (subsol None).
    nan marks an entry with neither, or one whose allocation leaves a
    variable-free row inconsistent.
    """
    s, slices = stacks.s, stacks.slices
    y, mus = _connection_duals(s, b, sol)
    feasible = _dual_feasible(stacks, y, mus, tol)
    achieved = np.asarray(achieved, dtype=np.float64)
    free = joint = None
    if len(stacks.hom) < len(s.blocks):
        free, joint = _rows_hold(
            stacks, sol.blocks, achieved, np.asarray(deltas, dtype=np.float64), tol
        )

    def from_bound(obj, bound, subsol, resolved, **parts):
        if bound is None:
            return _EntryAnalysis(math.nan, math.nan, None, resolved, **parts)
        return _EntryAnalysis(bound, abs(obj - bound), subsol, resolved, **parts)

    out, retry = [], {}
    for p, entry in enumerate(s.blocks):
        obj = float(achieved[p, 0])
        bound = _dual_bound(entry, deltas[p], y, mus[p], feasible[p])
        close = bound is not None and abs(obj - bound) <= tol * (1.0 + abs(obj))
        parts = {}
        if isinstance(entry, HomSepQcqp):
            h, reduction = _hom_at(entry, deltas[p])
            parts = dict(hom=h, reduction=reduction, sub=build_hom(reduction[0]))
            subsol = (
                _joint_subsol(parts["sub"], sol.blocks[slices[p]], obj, tol)
                if close
                else None
            )
            accept = subsol is not None
        elif not free[p]:
            out.append(_EntryAnalysis(math.nan, math.nan, None, False))
            continue
        else:
            subsol = None
            accept = close and bool(joint[p])
            if not accept:
                parts = dict(sub=_sub_problem(entry, deltas[p]))
        if accept:
            out.append(from_bound(obj, bound, subsol, False, **parts))
        else:
            retry[p] = (obj, bound, parts)
            out.append(None)

    resolved = solve_many([parts["sub"] for _, _, parts in retry.values()], solver)
    for (p, (obj, bound, parts)), cand in zip(retry.items(), resolved):
        if isinstance(cand, SdpSolution) and cand.status is SolveStatus.OPTIMAL:
            value = float(cand.value)
            out[p] = _EntryAnalysis(value, abs(value - obj), cand, True, **parts)
        else:
            out[p] = from_bound(obj, bound, None, True, **parts)
    return out


# ---------------------------------------------------------------------------
# per-entry certificates


def _components(g) -> list:
    seen: set[int] = set()
    comps = []
    for start in range(1, g.n + 1):
        if start in seen:
            continue
        comp, stack = [], [start]
        seen.add(start)
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in g.neighbors(v):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def nonpositive_gauge(q: Qcqp) -> np.ndarray | None:
    """Sign vector d making every function of q have nonpositive couplings
    and nonpositive linear coefficients under u_i -> d_i u_i, or None.

    The quadratic couplings fix d up to one free flip per connected
    component of the interaction graph; the linear coefficients then pin
    each component's orientation, since the homogenization coordinate
    cannot flip. With such a d, gauged square roots of a solution-matrix
    diagonal always yield a feasible point at least as good.
    """
    funcs = [q.objective] + [f for f, _ in q.constraints]
    g = aggregated_graph([f.quad_part() for f in funcs])
    if not check_sign_pattern(g).holds:
        return None
    d = sign_gauge(g)
    if d is None:
        return None
    d = d.astype(np.float64)
    lins = np.array([f.linear_part() for f in funcs])
    for comp in _components(g):
        idx = [i - 1 for i in comp]
        vals = (lins[:, idx] * d[idx]).ravel()
        if np.all(vals <= 1e-12):
            continue
        if np.all(vals >= -1e-12):
            d[idx] = -d[idx]
            continue
        return None
    return d


def _no_certificate(note: str) -> Certificate:
    return Certificate(
        kind=CertificateKind.NONE, details=note, depends_on_solution=False
    )


def _certify_qcqp_entries(stacks) -> dict:
    """Structural certificate and optional sign gauge of every
    inhomogeneous entry of the connection (stacks, its _EntryStacks), as
    {entry index: (certificate, gauge)}.

    Variable-free rows are ignored: they constrain allocations, not the
    entry's variables (stacks.zero marks them). Both recognized classes
    need every remaining row to be <=, since their witness constructions
    only push constraint values downward. The convexity tests of all
    entries are one pass (check_convex_many); only the entries it
    rejects look for a gauge.
    """
    entries = stacks.s.blocks
    inhom = [p for p, entry in enumerate(entries) if not isinstance(entry, HomSepQcqp)]
    zero = stacks.zero[[stacks.first[p] for p in inhom]].any(axis=1)
    stripped = [
        strip_variable_free_rows(entries[p])[0] if z else entries[p]
        for p, z in zip(inhom, zero.tolist())
    ]
    out, convex = [None] * len(inhom), []
    for i, q in enumerate(stripped):
        if any(rel is not Relation.LE for rel in q.relations):
            out[i] = (_no_certificate("an equality or >= row involves variables"), None)
        else:
            convex.append(i)
    for i, cert in zip(convex, check_convex_many([stripped[i] for i in convex])):
        gauge = None
        if not cert.holds:
            gauge = nonpositive_gauge(stripped[i])
            if gauge is None:
                cert = _no_certificate(
                    "neither convex nor sign-flippable to nonpositive couplings"
                )
            else:
                q = stripped[i]
                funcs = [q.objective] + [f for f, _ in q.constraints]
                cert = check_sign_pattern(
                    aggregated_graph([f.quad_part() for f in funcs])
                )
        out[i] = (cert, gauge)
    return dict(zip(inhom, out))


# ---------------------------------------------------------------------------
# witnesses


def _verify_witness(stacks, points, eta, tol):
    """(objective, ok): does the per-entry point list satisfy every coupled
    row and reproduce eta? The entries' values are one stacked
    evaluation (_EntryStacks.at_points)."""
    s = stacks.s
    vals = stacks.at_points(points)
    # the row values laid out as the one-entry list of rows was, so that
    # np.sum takes the same order
    totals = np.sum(np.ascontiguousarray(vals[:, 1:]), axis=0)
    for k, rel in enumerate(s.relations):
        gk = float(s.gamma[k])
        if not rel.holds(float(totals[k]), gk, tol * (1.0 + abs(gk))):
            return None, False
    obj = float(sum(vals[:, 0].tolist()))
    return obj, abs(obj - eta) <= tol * (1.0 + abs(eta))


def _global_witness(b, sol, slices, opts):
    """Rank reduction of the full block solution: (report, per-entry points),
    each entry's point joined from its blocks' vectors (slices, from
    _entry_slices).

    The report is None when the reduction stalls or finds the solution
    stale; the points are None unless every block ended at rank <= 1.
    """
    try:
        _, rep = reduce(
            to_standard_form(b), sol, tol=opts.tol, rank_tol=opts.rank_tol
        )
    except (ReductionStallError, StaleSolutionError):
        return None, None
    if rep.extracted is None:
        return rep, None
    points = []
    for sl in slices:
        vecs = rep.extracted[sl]
        points.append(np.concatenate(vecs) if len(vecs) > 1 else vecs[0])
    return rep, points


def _hom_entry_point(sub, subsol, opts):
    """Rank-reduce a homogeneous entry's own relaxation sub (the
    _EntryAnalysis one, whose compiled rows _joint_subsol or the re-solve
    has left on its standard form) and read a point."""
    try:
        _, rep = reduce(
            to_standard_form(sub), subsol, tol=opts.tol, rank_tol=opts.rank_tol
        )
    except (ReductionStallError, StaleSolutionError):
        return None
    if rep.extracted is None:
        return None
    return np.concatenate(rep.extracted)


def _salvage_point(entry, cert, gauge, blocks, analysis, opts):
    """Class-specific witness candidate for one entry, or None.

    Convex entries read the last column of their lifted block; sign
    entries take gauge-signed square roots of the diagonal; homogeneous
    entries rank-reduce their own sub-relaxation (analysis is the entry's
    _EntryAnalysis).
    """
    try:
        if isinstance(entry, HomSepQcqp):
            subsol = analysis.subsol
            if subsol is None or subsol.status is not SolveStatus.OPTIMAL:
                return None
            return _hom_entry_point(analysis.sub, subsol, opts)
        if cert.kind is CertificateKind.CONVEX:
            return extract_convex_solution(blocks[0])
        if gauge is not None:
            diag = np.array(
                [max(float(blocks[0][i, i]), 0.0) for i in range(entry.n)]
            )
            return gauge * np.sqrt(diag)
    except SepqcqpError:
        return None
    return None


def _oracle_box(s, sol, opts):
    """Uniform integer half-width box whose default grid lands on the
    small-integer lattice (spacing 0.2), keeping equality rows with
    integer solutions attainable on the grid."""
    if opts.oracle_box is not None:
        return opts.oracle_box, opts.oracle_grid or 41
    diag_max = 0.0
    for blk in sol.blocks:
        dense = blk.to_dense()
        diag_max = max(diag_max, float(np.max(np.diag(dense), initial=0.0)))
    r = int(math.ceil(1.2 * max(1.0, math.sqrt(max(diag_max, 0.0))) + 1.0))
    grid = opts.oracle_grid or min(10 * r + 1, 101)
    return (-float(r), float(r)), grid


# ---------------------------------------------------------------------------
# the judge


def judge(s: SeparableQcqp, opts: JudgeOptions | None = None) -> ExactnessVerdict:
    """Render an exactness verdict for a horizontal connection.

    Solves the block relaxation, allocates right-hand sides to entries,
    checks each entry's optimality at its allocation against the joint
    dual bound (re-solving only the entries it fails), certifies entries
    against the exact classes, then hunts for a matching feasible point:
    first by rank-reducing the full solution, next by class-specific
    construction, finally by the grid oracle, which alone can conclude
    NotExact.
    """
    opts = opts or JudgeOptions()
    b = build_block(s)
    try:
        sol = solve(b, opts.solver)
    except SepqcqpError as exc:
        return ExactnessVerdict(
            status=VerdictStatus.UNDETERMINED,
            eta=math.nan,
            zeta_witness=None,
            delta_decomposition=[],
            per_block=[],
            reason=f"relaxation failed structurally: {exc}",
        )
    if sol.status is not SolveStatus.OPTIMAL:
        return ExactnessVerdict(
            status=VerdictStatus.UNDETERMINED,
            eta=float(sol.value),
            zeta_witness=None,
            delta_decomposition=[],
            per_block=[],
            reason=f"solver status {sol.status.value}",
            relaxation=sol,
        )
    eta = float(sol.value)
    stacks = _EntryStacks(s)
    slices = stacks.slices
    achieved = stacks.at_blocks(sol.blocks)
    deltas = list(achieved[:, 1:])
    analysed = _analyse_entries(
        stacks, b, sol, achieved, deltas, opts.tol, opts.solver
    )

    structural = _certify_qcqp_entries(stacks)
    certs, gauges, per_block = [], [], []
    for p, entry in enumerate(s.blocks):
        e = analysed[p]
        gauge = None
        if isinstance(entry, HomSepQcqp):
            cert = check_m_le_2(e.hom, reduction=e.reduction)
            if not cert.holds and e.subsol is not None:
                reduced = e.reduction[0]
                holds_a, count, _ = check_assumption_A(
                    reduced, e.subsol, tol=opts.tol
                )
                if holds_a:
                    where = "re-solved allocation" if e.resolved else "joint solution"
                    cert = Certificate(
                        kind=CertificateKind.HOM_LIMITED,
                        details=(
                            f"{count} nonzero blocks and residuals >= "
                            f"m - 1 = {reduced.m - 1} at the {where}"
                        ),
                        depends_on_solution=True,
                    )
        else:
            cert, gauge = structural[p]

        certs.append(cert)
        gauges.append(gauge)
        per_block.append(PerBlockReport(cert, e.value, e.gap))

    certified = all(c.holds for c in certs)

    # witness hunt: global rank reduction, then per-entry constructions
    reduction, points = _global_witness(b, sol, slices, opts)
    witness_obj, witnessed = None, False
    if points is not None:
        witness_obj, witnessed = _verify_witness(stacks, points, eta, opts.tol)
    if not witnessed:
        candidate = []
        for p, entry in enumerate(s.blocks):
            pt = _salvage_point(
                entry,
                certs[p],
                gauges[p],
                sol.blocks[slices[p]],
                analysed[p],
                opts,
            )
            if pt is None:
                candidate = None
                break
            candidate.append(pt)
        if candidate is not None:
            obj2, ok2 = _verify_witness(stacks, candidate, eta, opts.tol)
            if ok2:
                points, witness_obj, witnessed = candidate, obj2, True

    if certified:
        return ExactnessVerdict(
            status=VerdictStatus.EXACT_CERTIFIED,
            eta=eta,
            zeta_witness=witness_obj if witnessed else None,
            delta_decomposition=deltas,
            per_block=per_block,
            witness=points if witnessed else None,
            relaxation=sol,
            reduction=reduction,
        )
    if witnessed:
        return ExactnessVerdict(
            status=VerdictStatus.EXACT_WITNESSED,
            eta=eta,
            zeta_witness=witness_obj,
            delta_decomposition=deltas,
            per_block=per_block,
            witness=points,
            relaxation=sol,
            reduction=reduction,
        )

    # oracle fallback: the only road to NotExact
    flat = flatten(s)
    if flat.n > 4:
        return ExactnessVerdict(
            status=VerdictStatus.UNDETERMINED,
            eta=eta,
            zeta_witness=None,
            delta_decomposition=deltas,
            per_block=per_block,
            reason="no witness found and too many variables for the oracle",
            relaxation=sol,
            reduction=reduction,
        )
    box, grid = _oracle_box(s, sol, opts)
    oracle_val, oracle_pt = brute_force(
        flat, box, grid_points=grid, refine_rounds=opts.oracle_rounds
    )
    if oracle_val == INFEASIBLE:
        return ExactnessVerdict(
            status=VerdictStatus.UNDETERMINED,
            eta=eta,
            zeta_witness=None,
            delta_decomposition=deltas,
            per_block=per_block,
            reason="oracle found no feasible grid point",
            relaxation=sol,
            reduction=reduction,
        )
    oracle_val = float(oracle_val)
    if oracle_val > eta + 10.0 * opts.tol:
        return ExactnessVerdict(
            status=VerdictStatus.NOT_EXACT,
            eta=eta,
            zeta_witness=None,
            delta_decomposition=deltas,
            per_block=per_block,
            oracle_value=oracle_val,
            reason=(
                f"best feasible value {oracle_val:.9g} exceeds the "
                f"relaxation value {eta:.9g}"
            ),
            relaxation=sol,
            reduction=reduction,
        )
    if abs(oracle_val - eta) <= opts.tol * (1.0 + abs(eta)):
        return ExactnessVerdict(
            status=VerdictStatus.EXACT_WITNESSED,
            eta=eta,
            zeta_witness=oracle_val,
            delta_decomposition=deltas,
            per_block=per_block,
            witness=split_point(s, oracle_pt),
            oracle_value=oracle_val,
            relaxation=sol,
            reduction=reduction,
        )
    return ExactnessVerdict(
        status=VerdictStatus.UNDETERMINED,
        eta=eta,
        zeta_witness=None,
        delta_decomposition=deltas,
        per_block=per_block,
        oracle_value=oracle_val,
        reason="oracle value inside the ambiguity band around eta",
        relaxation=sol,
        reduction=reduction,
    )


def bilevel_report(s: SeparableQcqp, verdict: ExactnessVerdict) -> BilevelReport:
    """Two-level reading of a judged connection: allocations as upper-level
    variables, entry relaxation values as lower-level responses. When every
    entry's value is exact (its dual bound met, or its re-solve Optimal),
    the row values sum to eta."""
    if len(verdict.per_block) != len(s.blocks):
        raise DimensionError(
            f"verdict covers {len(verdict.per_block)} entries, "
            f"problem has {len(s.blocks)}"
        )
    rows = [
        BilevelRow(
            index=p,
            allocation=np.asarray(verdict.delta_decomposition[p], dtype=float),
            value=float(verdict.per_block[p].sub_sdpr_value),
            certified=verdict.per_block[p].certificate.holds,
        )
        for p in range(len(s.blocks))
    ]
    return BilevelReport(rows=rows, eta=verdict.eta)


# ---------------------------------------------------------------------------
# instance generators


def make_example51(alpha: float) -> HomSepQcqp:
    """Two-block homogeneous benchmark with a tunable coupling parameter.

    min v1^2 - w^2 over blocks (v1, v2) and (w), subject to v2^2 = 1,
    (v1 - alpha v2)(v1 - 4 v2) <= 0, and w^2 <= (v1 - 2 v2)(v1 - 3 v2).
    """
    if not (0.0 <= float(alpha) <= 4.0):
        raise RangeError(f"alpha must lie in [0, 4], got {alpha!r}")
    alpha = float(alpha)
    sym = SymMatrix.from_dense
    c1 = [
        sym(np.diag([1.0, 0.0])),
        sym(np.diag([0.0, 1.0])),
        sym(np.array([
            [1.0, -(4.0 + alpha) / 2.0],
            [-(4.0 + alpha) / 2.0, 4.0 * alpha],
        ])),
        sym(np.array([[-1.0, 2.5], [2.5, -6.0]])),
    ]
    c2 = [
        sym(np.array([[-1.0]])),
        SymMatrix.zeros(1),
        SymMatrix.zeros(1),
        sym(np.array([[1.0]])),
    ]
    return HomSepQcqp(
        [c1, c2],
        [Relation.EQ, Relation.LE, Relation.LE],
        [1.0, 0.0, 0.0],
    )


def _rand_psd(rng, n, ridge=0.0):
    g = rng.standard_normal((n, n))
    return (g @ g.T) / max(n, 1) + ridge * np.eye(n)


def _rand_sym(rng, n):
    g = rng.standard_normal((n, n))
    return 0.5 * (g + g.T)


def _rand_stieltjes(rng, n):
    """Diagonally dominant PD matrix with nonpositive off-diagonal."""
    w = np.abs(rng.standard_normal((n, n)))
    off = -0.5 * (w + w.T)
    np.fill_diagonal(off, 0.0)
    diag = -off.sum(axis=1) + rng.uniform(0.3, 1.0, size=n)
    return off + np.diag(diag)


def _rand_offdiag_nonpos(rng, n):
    """Symmetric, off-diagonal <= 0, free diagonal."""
    w = np.abs(rng.standard_normal((n, n)))
    off = -0.5 * (w + w.T)
    np.fill_diagonal(off, 0.0)
    return off + np.diag(rng.standard_normal(n))


def validate_example52(s: SeparableQcqp) -> list:
    """Re-check every structural condition of the three-entry template.

    Returns a list of violation descriptions; empty means the instance
    satisfies all of them.
    """
    bad: list[str] = []
    if len(s.blocks) != 3:
        return [f"expected 3 entries, got {len(s.blocks)}"]
    q1, q2, h3 = s.blocks
    if not isinstance(q1, Qcqp) or not isinstance(q2, Qcqp):
        bad.append("entries 1 and 2 must be inhomogeneous")
    if not isinstance(h3, HomSepQcqp):
        bad.append("entry 3 must be homogeneous separable")
    if bad:
        return bad
    if s.m != 7:
        return [f"expected 7 rows, got {s.m}"]
    want = [Relation.EQ, Relation.GE] + [Relation.LE] * 5
    if list(s.relations) != want:
        bad.append(
            f"relation pattern {[r.symbol for r in s.relations]} is wrong"
        )
    gamma = np.asarray(s.gamma, dtype=float)
    if abs(gamma[0]) <= 1e-9:
        bad.append("gamma_1 must be nonzero")
    if gamma[1] <= 0.0:
        bad.append("gamma_2 must be positive")
    if gamma[2] >= 0.0:
        bad.append("gamma_3 must be negative")

    def zero_lin(f):
        return float(np.abs(f.linear_part()).max(initial=0.0)) <= 1e-12

    # entry 1: convex, rows 1 and 2 variable-free, row 3 purely quadratic
    f1 = [q1.objective] + [f for f, _ in q1.constraints]
    for k in (1, 2):
        if not f1[k].is_zero():
            bad.append(f"entry 1 row {k} must be zero")
    for k in (0, 3, 4, 5, 6, 7):
        if not is_psd(f1[k].quad_part()):
            bad.append(f"entry 1 function {k} is not convex")
    if not zero_lin(f1[3]):
        bad.append("entry 1 row 3 must have no linear part")

    # entry 2: nonpositive couplings and linear terms, rows 1, 2 free
    f2 = [q2.objective] + [f for f, _ in q2.constraints]
    for k in (1, 2):
        if not f2[k].is_zero():
            bad.append(f"entry 2 row {k} must be zero")
    for k in (0, 3, 4, 5, 6, 7):
        quad = f2[k].quad_part().to_dense()
        off = quad - np.diag(np.diag(quad))
        if float(off.max(initial=0.0)) > 1e-12:
            bad.append(f"entry 2 function {k} has positive couplings")
        if float(f2[k].linear_part().max(initial=0.0)) > 1e-12:
            bad.append(f"entry 2 function {k} has positive linear terms")
    if not is_psd(f2[3].quad_part()):
        bad.append("entry 2 row 3 must be positive semidefinite")
    if not zero_lin(f2[3]):
        bad.append("entry 2 row 3 must have no linear part")

    # entry 3: per-row sign structure and row-5 proportionality
    for q in (1, 2):
        if q < h3.q_hat and not h3.blocks[q][1].is_zero():
            bad.append(f"entry 3 block {q + 1} must be absent from row 1")
    for q in (0, 2):
        if q < h3.q_hat and not is_psd(h3.blocks[q][2].scaled(-1.0)):
            bad.append(f"entry 3 block {q + 1} row 2 must be nsd")
    for q in (0, 1):
        if q < h3.q_hat and not is_psd(h3.blocks[q][3]):
            bad.append(f"entry 3 block {q + 1} row 3 must be psd")
    for q in range(h3.q_hat):
        for k in (6, 7):
            if not h3.blocks[q][k].is_zero():
                bad.append(f"entry 3 block {q + 1} row {k} must be zero")
    c4 = np.concatenate(
        [h3.blocks[q][4].to_dense().ravel() for q in range(h3.q_hat)]
    )
    c5 = np.concatenate(
        [h3.blocks[q][5].to_dense().ravel() for q in range(h3.q_hat)]
    )
    j = int(np.argmax(np.abs(c4)))
    if abs(c4[j]) <= 1e-12:
        bad.append("entry 3 row 4 must be nonzero")
    else:
        alpha = c5[j] / c4[j]
        if alpha <= 0.0:
            bad.append(f"row-5 factor {alpha:.3g} must be positive")
        elif float(np.abs(c5 - alpha * c4).max()) > 1e-9 * (
            1.0 + float(np.abs(c5).max())
        ):
            bad.append("row 5 is not proportional to row 4")
    return bad


def make_example52(seed: int, dims=None) -> SeparableQcqp:
    """Seeded three-entry connection: convex + nonpositive-coupling +
    homogeneous separable, wired so every entry certifies.

    dims is (n1, n2, (d1, ..., dq)) with each dimension in 1..4. Every
    draw fixes a reference point, generates matrices with the required
    sign structure, and back-solves the right-hand sides to leave
    feasibility margins; draws failing the validator are resampled.
    """
    if dims is None:
        dims = (2, 2, (2, 2, 2))
    n1, n2, hom_dims = int(dims[0]), int(dims[1]), tuple(dims[2])
    if len(hom_dims) < 3:
        raise RangeError("the homogeneous entry needs at least 3 blocks")
    for n in (n1, n2, *hom_dims):
        if not (1 <= int(n) <= 4):
            raise RangeError(f"every dimension must lie in 1..4, got {n}")
    rng = np.random.default_rng(seed)
    m = 7
    relations = [Relation.EQ, Relation.GE] + [Relation.LE] * 5

    for _ in range(100):
        x1 = rng.standard_normal(n1)
        x2 = rng.standard_normal(n2)
        vs = [rng.standard_normal(d) for d in hom_dims]
        if any(float(v @ v) < 1e-2 for v in vs):
            continue
        vs = [v / float(np.linalg.norm(v)) for v in vs]

        # entry 1 functions, indexed 0 (objective) .. 7
        funcs1 = [
            QuadFunc.from_parts(
                _rand_psd(rng, n1, ridge=0.3), rng.standard_normal(n1)
            ),
            QuadFunc.zero(n1),
            QuadFunc.zero(n1),
            QuadFunc.from_parts(_rand_psd(rng, n1)),
        ]
        funcs1 += [
            QuadFunc.from_parts(_rand_psd(rng, n1), rng.standard_normal(n1))
            for _k in range(4)
        ]

        # entry 2 functions: nonpositive couplings; row 3 also psd
        funcs2 = [
            QuadFunc.from_parts(
                _rand_stieltjes(rng, n2), -np.abs(rng.standard_normal(n2))
            ),
            QuadFunc.zero(n2),
            QuadFunc.zero(n2),
            QuadFunc.from_parts(_rand_stieltjes(rng, n2)),
        ]
        funcs2 += [
            QuadFunc.from_parts(
                _rand_offdiag_nonpos(rng, n2),
                -np.abs(rng.standard_normal(n2)),
            )
            for _k in range(4)
        ]

        # entry 3 coefficient matrices, blocks[q][k] for k = 0 .. 7
        q_hat = len(hom_dims)
        alpha = float(rng.uniform(0.5, 2.0))
        blocks = []
        for q, d in enumerate(hom_dims):
            c0 = _rand_psd(rng, d, ridge=0.3)
            c1 = _rand_sym(rng, d) if q == 0 else np.zeros((d, d))
            c2 = _rand_psd(rng, d, ridge=0.3) if q == 1 else -_rand_psd(rng, d)
            c3 = _rand_sym(rng, d) if q == 2 else _rand_psd(rng, d)
            c4 = _rand_sym(rng, d)
            blocks.append(
                [c0, c1, c2, c3, c4, alpha * c4,
                 np.zeros((d, d)), np.zeros((d, d))]
            )

        # row 1 lives only on the first hom block; keep it clearly nonzero
        gamma1 = float(vs[0] @ blocks[0][1] @ vs[0])
        if abs(gamma1) < 0.1:
            continue

        # scale v^2 so the positive middle block dominates row 2
        neg = sum(float(vs[q] @ blocks[q][2] @ vs[q]) for q in (0, 2))
        pos = float(vs[1] @ blocks[1][2] @ vs[1])
        if pos <= 1e-9:
            continue
        vs[1] = vs[1] * math.sqrt(
            (0.5 + float(rng.uniform(0.0, 1.0)) - neg) / pos
        )

        # shift the third block's row-3 matrix until the row clears gamma_3
        gamma3 = -float(rng.uniform(0.5, 2.0))
        margin3 = float(rng.uniform(0.1, 0.5))
        base3 = (
            float(funcs1[3].eval_many(x1[None, :])[0])
            + float(funcs2[3].eval_many(x2[None, :])[0])
            + sum(float(vs[q] @ blocks[q][3] @ vs[q]) for q in range(q_hat))
        )
        tau = (base3 - gamma3 + margin3) / float(vs[2] @ vs[2])
        blocks[2][3] = blocks[2][3] - tau * np.eye(hom_dims[2])

        def row_value(k):
            val = float(funcs1[k].eval_many(x1[None, :])[0])
            val += float(funcs2[k].eval_many(x2[None, :])[0])
            val += sum(
                float(vs[q] @ blocks[q][k] @ vs[q]) for q in range(q_hat)
            )
            return val

        gamma = np.zeros(m)
        gamma[0] = gamma1
        row2 = sum(float(vs[q] @ blocks[q][2] @ vs[q]) for q in range(q_hat))
        if row2 <= 0.0:
            continue
        gamma[1] = float(rng.uniform(0.1, 0.9)) * row2
        gamma[2] = gamma3
        for k in range(4, 8):
            gamma[k - 1] = row_value(k) + float(rng.uniform(0.1, 1.0))

        entry1 = Qcqp(n1, funcs1[0], list(zip(funcs1[1:], relations)), gamma)
        entry2 = Qcqp(n2, funcs2[0], list(zip(funcs2[1:], relations)), gamma)
        entry3 = HomSepQcqp(
            [[SymMatrix.from_dense(mat) for mat in blocks[q]]
             for q in range(q_hat)],
            relations,
            gamma,
        )
        s = SeparableQcqp([entry1, entry2, entry3], gamma)
        if not validate_example52(s):
            return s
    raise GenerationError("no structurally valid draw after 100 attempts")
