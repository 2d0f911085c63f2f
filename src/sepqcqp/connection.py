"""End-to-end exactness pipeline for horizontal connections.

Given a separable QCQP whose entries couple only through shared
right-hand sides, the pipeline solves the block relaxation, splits the
achieved constraint values into per-entry allocations, reads each
entry's blockwise optimality off the joint primal-dual pair (its dual
bound and its achieved objective bracket its relaxation value at its
allocation), certifies each entry against the known exact classes, and
renders a verdict:

* ExactCertified  - every entry lands in an exact class and the block
                    relaxation solved to optimality;
* ExactWitnessed  - a feasible point of the original problem matches the
                    relaxation value (found by rank reduction of the joint
                    solution; else, when no entry is homogeneous, by each
                    entry's own construction, the last column of a convex
                    entry's block or the gauge-signed root of a sign
                    entry's diagonal; else by the grid oracle);
* NotExact        - the grid oracle sits strictly above the relaxation;
* Undetermined    - none of the above could be established.

A certified verdict asserts equality of optimal values; it does not by
itself hand over a rank-one solution, so certification and witnessing
are reported independently. The module also renders the two-level
reading of a connection (allocations as upper-level variables).

Around the joint solve, each stage works on all entries at once
(_EntryStacks holds every entry's function matrices stacked per block
dimension): the row values at the solution blocks and at witness points
are one stacked product per dimension, the dual-bound PSD tests of all
entries one stacked eigh per dimension, and the convexity tests of all
inhomogeneous entries one more (certificates._convex_certificates). Every
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
    check_convex,  # noqa: F401 - in perfbench/tracing.py WRAPS
    check_m_le_2,
    check_sign_pattern,
    extract_convex_solution,
    reduce_homogeneous_rows,
    _convex_certificates,
    _oriented_gauge,
)
from .errors import (
    DimensionError,
    RangeError,
    ReductionStallError,
    SepqcqpError,
    StaleSolutionError,
)
from .qcqp_model import (
    INFEASIBLE,
    HomSepQcqp,
    Relation,
    SeparableQcqp,
    _int_at_least,
    brute_force,
    flatten,
    split_point,
)
from .rank_reduction import ReductionReport, reduce
from .sdp_solver import solve
from .sdpr_builder import (
    SdpSolution,
    SolveStatus,
    build_block,
    build_hom,  # noqa: F401 - in perfbench/tracing.py WRAPS
    build_shor,  # noqa: F401 - in perfbench/tracing.py WRAPS
    to_standard_form,
)
from .symkernel import HALF_MAX, by_dim, frob_inner_many, is_psd_many


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


@dataclass(frozen=True)
class JudgeOptions:
    tol: float = 1e-6
    rank_tol: float = 1e-6
    max_iter: int = 200

    def __post_init__(self):
        # written so that a NaN fails them
        if not 0.0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")
        if not 0.0 < self.rank_tol < math.inf:
            raise ValueError("rank_tol must be positive and finite")
        max_iter = _int_at_least(self.max_iter, 1)
        if max_iter is None:
            raise ValueError("max_iter must be an integer of at least 1")
        # a numpy integer is kept as an int
        object.__setattr__(self, "max_iter", max_iter)


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
        self.groups = [
            (idx, np.array([[a.array for a in mats[i]] for i in idx]))
            for idx in by_dim(self.dims)
        ]
        #: each block's (m + 1, d, d) matrices, a view of its group's stack
        self.mats = [None] * len(mats)
        #: the rows whose matrix on a block is identically zero
        self.zero = np.empty((len(mats), s.m), dtype=bool)
        for idx, stack in self.groups:
            self.zero[idx] = ~stack[:, 1:].any(axis=(2, 3))
            for k, i in enumerate(idx.tolist()):
                self.mats[i] = stack[k]

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
        table = np.empty((len(self.dims), self.s.m + 1))
        for idx, mats in self.groups:
            xs = np.stack([blocks[i].array for i in idx])
            table[idx] = frob_inner_many(mats, xs[:, None])
        return self._per_entry(table)

    def at_points(self, points) -> np.ndarray:
        """[objective, row 1..m] of every entry at one point per block (an
        inhomogeneous block's x, without the trailing 1): one row per entry,
        each value bit for bit that of evaluating the entry's functions one
        at a time (qcqp_model.eval; v^T C v per homogeneous block, summed)."""
        zs = [
            np.append(z, 1.0) if c >= 0 else z
            for z, c in zip(points, self.corner.tolist())
        ]
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
        ynz, rows = y[nz][None, :, None, None], 1 + nz
        mus = np.asarray(mus, dtype=np.float64)
        flags = np.empty(len(self.dims), dtype=bool)
        for idx, mats in self.groups:
            if len(nz):
                terms = np.concatenate((mats[:, :1], ynz * mats[:, rows]), axis=1)
                acc = np.subtract.reduce(terms, axis=1)
            else:
                acc = mats[:, 0].copy()
            pos = np.flatnonzero(self.corner[idx] >= 0)
            if len(pos):
                n = acc.shape[-1] - 1
                acc[pos, n, n] -= mus[self.owner[idx[pos]]]
            finite = np.isfinite(acc).all(axis=(1, 2))
            if finite.all():
                flags[idx] = is_psd_many(acc, tol)
            else:
                flags[idx] = finite
                flags[idx[finite]] = is_psd_many(acc[finite], tol)
        flags = flags.tolist()
        return np.array([all(flags[sl]) for sl in self.slices], dtype=bool)


def _connection_duals(s: SeparableQcqp, b, sol):
    """Multipliers of the coupled rows by original index, and the corner-row
    multiplier of each entry (0 for homogeneous entries, which have none)."""
    origins = b.operator.origins
    coupled = origins >= 0
    y = np.zeros(s.m)
    y[origins[coupled]] = sol.dual_multipliers[coupled]
    corner_duals = sol.dual_multipliers[~coupled].tolist()
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


# ---------------------------------------------------------------------------
# per-entry certificates


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
    only push constraint values downward. An entry's functions are read
    off its block's stack: the objective and the rows with variables,
    as the entry stripped of its variable-free rows has them. The
    convexity tests of all entries are one pass (_convex_certificates);
    each entry it rejects has its aggregated graph built once, and both
    its gauge and its SIGN_PATTERN certificate are read off that graph:
    the gauge is oriented only where the certificate holds.
    """
    s = stacks.s
    le = np.array([rel is Relation.LE for rel in s.relations], dtype=bool)
    out, convex = {}, []
    for p, entry in enumerate(s.blocks):
        if isinstance(entry, HomSepQcqp):
            continue
        i = stacks.first[p]
        live = np.flatnonzero(~stacks.zero[i])
        if not le[live].all():
            out[p] = (_no_certificate("an equality or >= row involves variables"), None)
            continue
        out[p] = None
        rows = np.concatenate(([0], live + 1))
        convex.append((p, entry.n, rows, stacks.mats[i][rows]))
    certs = _convex_certificates([funcs[:, :n, :n] for _, n, _, funcs in convex])
    for (p, n, rows, funcs), cert in zip(convex, certs):
        gauge = None
        if not cert.holds:
            quads = funcs[:, :n, :n]
            # symmetrizing an entry beyond HALF_MAX overflows, so no
            # problem file or QuadFunc.from_parts carries one
            if np.abs(quads).max(initial=0.0) > HALF_MAX:
                k = int(rows[np.argmax(np.abs(quads).max(axis=(1, 2)) > HALF_MAX)])
                where = f"row {k}" if k else "objective"
                raise RangeError(
                    f"entry {p} {where}: a quadratic-part entry exceeds "
                    f"{HALF_MAX:.6g}, half the largest double"
                )
            g = aggregated_graph(quads)
            cert = check_sign_pattern(g)
            if cert.holds:
                gauge = _oriented_gauge(g, funcs[:, :n, n])
            if gauge is None:
                cert = _no_certificate(
                    "neither convex nor sign-flippable to nonpositive couplings"
                )
        out[p] = (cert, gauge)
    return out


def _hom_certificate(entry, delta, blocks, obj, gap, tol) -> Certificate:
    """A homogeneous entry's certificate at its allocation delta: at most
    2 effective rows (check_m_le_2, on the rows reduced once), else
    assumption A at its joint blocks, which achieve objective obj and are
    read as the reduced problem's solution only where the entry's bound
    meets obj within tol (gap, from _entry_reports)."""
    h = HomSepQcqp(entry.blocks, list(entry.relations), delta)
    reduction = reduce_homogeneous_rows(h)
    cert = check_m_le_2(h, reduction=reduction)
    # written so that a nan gap fails it
    if cert.holds or not gap <= tol * (1.0 + abs(obj)):
        return cert
    # the reduced rows hold with equality at the joint blocks, so no
    # residual counts: count is the nonzero-block count
    reduced = reduction[0]
    holds_a, count, _ = check_assumption_A(reduced, blocks, tol=tol)
    if not holds_a:
        return cert
    return Certificate(
        CertificateKind.HOM_LIMITED,
        f"{count} nonzero blocks and residuals >= m - 1 = {reduced.m - 1} "
        "at the joint solution",
        depends_on_solution=True,
    )


def _entry_reports(stacks, b, sol, achieved, tol) -> tuple:
    """Every entry's PerBlockReport and sign gauge (None but for a sign
    entry), read off the joint primal-dual pair in one pass over the
    entries: (per_block, gauges).

    stacks is the connection's _EntryStacks; entry p's blocks of sol are
    sol.blocks[stacks.slices[p]] and achieved[p] is its [objective, row
    values] there (_EntryStacks.at_blocks). Its allocation is those row
    values, achieved[p, 1:], so its joint blocks satisfy every one of its
    rows by construction: a variable-free row of an inhomogeneous entry
    reads exactly 0 there, which holds under any relation. The joint
    multipliers bound every entry's relaxation from below (_dual_bound;
    the psd tests of all entries stacked, see _dual_feasible), and the
    entry's achieved objective bounds it from above. Each entry reports
    that bracket: the bound as its value and the distance to the achieved
    objective as its gap, which complementary slackness keeps within the
    joint gap; nan marks an entry without a bound.

    The inhomogeneous entries are certified in one batch
    (_certify_qcqp_entries), each homogeneous one by _hom_certificate.
    """
    s = stacks.s
    y, mus = _connection_duals(s, b, sol)
    feasible = _dual_feasible(stacks, y, mus, tol)
    structural = _certify_qcqp_entries(stacks)
    per_block, gauges = [], []
    for p, entry in enumerate(s.blocks):
        obj, delta = float(achieved[p, 0]), achieved[p, 1:]
        bound = _dual_bound(entry, delta, y, mus[p], feasible[p])
        value = gap = math.nan
        if bound is not None:
            value, gap = bound, abs(obj - bound)
        gauge = None
        if isinstance(entry, HomSepQcqp):
            blocks = sol.blocks[stacks.slices[p]]
            try:
                cert = _hom_certificate(entry, delta, blocks, obj, gap, tol)
            except RangeError as exc:
                raise RangeError(f"entry {p} {exc}") from None
        else:
            cert, gauge = structural[p]
        per_block.append(PerBlockReport(cert, value, gap))
        gauges.append(gauge)
    return per_block, gauges


# ---------------------------------------------------------------------------
# witnesses


def _verify_witness(stacks, points, eta, tol):
    """The objective of points (one per relaxation block) when they satisfy
    every coupled row and reproduce eta within tol, else None. The entries'
    values are one stacked evaluation (_EntryStacks.at_points)."""
    s = stacks.s
    vals = stacks.at_points(points)
    # the row values laid out as the one-entry list of rows was, so that
    # np.sum takes the same order
    totals = np.sum(np.ascontiguousarray(vals[:, 1:]), axis=0)
    for k, rel in enumerate(s.relations):
        gk = float(s.gamma[k])
        if not rel.holds(float(totals[k]), gk, tol * (1.0 + abs(gk))):
            return None
    obj = float(sum(vals[:, 0].tolist()))
    return obj if abs(obj - eta) <= tol * (1.0 + abs(eta)) else None


def _salvage_point(entry, cert, gauge, block):
    """Class-specific witness candidate for one inhomogeneous entry at its
    joint block, or None: a convex entry reads the last column of its
    lifted block, a sign entry takes gauge-signed square roots of the
    diagonal."""
    if cert.kind is CertificateKind.CONVEX:
        try:
            return extract_convex_solution(block)
        except SepqcqpError:
            return None
    if gauge is None:
        return None
    diag = np.array([max(float(block[i, i]), 0.0) for i in range(entry.n)])
    return gauge * np.sqrt(diag)


#: refinement rounds of the grid oracle around its best point
_ORACLE_ROUNDS = 4


def _oracle_box(n, sol):
    """Uniform integer half-width box r and grid for the oracle over n
    variables. The grid, 10 r + 1 points per axis, lands on the
    small-integer lattice (spacing 0.2), keeping equality rows with
    integer solutions attainable on the grid; it is cut to at most 101
    points per axis and 101**3 points a round, which keeps a round of a
    4-variable box near a million points rather than 1e8."""
    diag_max = 0.0
    for blk in sol.blocks:
        diag_max = max(diag_max, float(np.max(np.diag(blk.array), initial=0.0)))
    r = int(math.ceil(1.2 * max(1.0, math.sqrt(max(diag_max, 0.0))) + 1.0))
    grid = min(10 * r + 1, 101)
    while grid**n > 101**3:
        grid -= 1
    return (-float(r), float(r)), grid


def _oracle_verdict(s, sol, eta, opts):
    """The grid oracle's reading of a connection no certificate or
    witness settled: (status, reason, oracle value, witness). Only a
    value above eta by more than 10 tol (1 + |eta|) makes it NotExact;
    one within tol (1 + |eta|) of eta is a witness, so the band between
    the two is never empty."""
    flat = flatten(s)
    if flat.n > 4:
        reason = "no witness found and too many variables for the oracle"
        return VerdictStatus.UNDETERMINED, reason, None, None
    box, grid = _oracle_box(flat.n, sol)
    value, point = brute_force(
        flat, box, grid_points=grid, refine_rounds=_ORACLE_ROUNDS
    )
    if value == INFEASIBLE:
        reason = "oracle found no feasible grid point"
        return VerdictStatus.UNDETERMINED, reason, None, None
    value = float(value)
    if value > eta + 10.0 * opts.tol * (1.0 + abs(eta)):
        reason = (
            f"best feasible value {value:.9g} exceeds the "
            f"relaxation value {eta:.9g}"
        )
        return VerdictStatus.NOT_EXACT, reason, value, None
    if abs(value - eta) <= opts.tol * (1.0 + abs(eta)):
        return VerdictStatus.EXACT_WITNESSED, "", value, split_point(s, point)
    reason = "oracle value inside the ambiguity band around eta"
    return VerdictStatus.UNDETERMINED, reason, value, None


# ---------------------------------------------------------------------------
# the judge


def judge(s: SeparableQcqp, opts: JudgeOptions | None = None) -> ExactnessVerdict:
    """Render an exactness verdict for a horizontal connection.

    Solves the block relaxation, allocates right-hand sides to entries,
    reads each entry's optimality at its allocation off the joint
    primal-dual pair, certifies entries against the exact classes, then
    hunts for a matching feasible point: first by rank-reducing the full
    solution, next (when no entry is homogeneous) by each entry's own
    construction, finally by the grid oracle, which alone can conclude
    NotExact. Both witness routes give one point per relaxation block; the
    verdict's witness is a passing one, flattened per entry.
    """
    opts = opts or JudgeOptions()
    b = build_block(s)
    try:
        sol = solve(b, opts.max_iter)
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
    achieved = stacks.at_blocks(sol.blocks)
    per_block, gauges = _entry_reports(stacks, b, sol, achieved, opts.tol)

    # witness hunt: global rank reduction, then, when no entry is
    # homogeneous, each entry's own construction
    try:
        _, reduction = reduce(
            to_standard_form(b), sol, tol=opts.tol, rank_tol=opts.rank_tol
        )
    except (ReductionStallError, StaleSolutionError):
        reduction = None
    points = zeta = witness = None
    if reduction is not None and reduction.extracted is not None:
        points = reduction.extracted
        zeta = _verify_witness(stacks, points, eta, opts.tol)
    if zeta is None and not stacks.hom:
        # every entry is inhomogeneous, so each has one block, in order
        points = [
            _salvage_point(entry, pb.certificate, gauge, block)
            for entry, pb, gauge, block in zip(s.blocks, per_block, gauges, sol.blocks)
        ]
        if all(pt is not None for pt in points):
            zeta = _verify_witness(stacks, points, eta, opts.tol)
    if zeta is not None:
        witness = [np.concatenate(points[sl]) for sl in stacks.slices]

    # the verdict: certified, else witnessed, else the grid oracle's, the
    # only road to NotExact
    reason, oracle_value = "", None
    if all(pb.certificate.holds for pb in per_block):
        status = VerdictStatus.EXACT_CERTIFIED
    elif witness is not None:
        status = VerdictStatus.EXACT_WITNESSED
    else:
        status, reason, oracle_value, witness = _oracle_verdict(s, sol, eta, opts)
        zeta = oracle_value if witness is not None else None
    return ExactnessVerdict(
        status=status,
        eta=eta,
        zeta_witness=zeta,
        delta_decomposition=list(achieved[:, 1:]),
        per_block=per_block,
        witness=witness,
        oracle_value=oracle_value,
        reason=reason,
        relaxation=sol,
        reduction=reduction,
    )


def bilevel_report(s: SeparableQcqp, verdict: ExactnessVerdict) -> BilevelReport:
    """Two-level reading of a judged connection: allocations as upper-level
    variables, entry relaxation values as lower-level responses. Each
    entry's value is its dual bound, so when every bound meets the
    objective its entry achieves, the row values sum to eta."""
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
