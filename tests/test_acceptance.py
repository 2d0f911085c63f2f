"""End-to-end acceptance checks.

Covers the benchmark family through the CLI, seeded random families for
the three exactness classes, the rank/slack bound after reduction, the
composed pipeline, a weak-duality property sweep over every instance
family, and the blockwise rank-one guarantee for two-row instances.
"""

import inspect
import json
import time

import numpy as np

import sepqcqp

from sepqcqp.certificates import (
    CertificateKind,
    SignCase,
    SparsityGraph,
    aggregated_graph,
    check_convex,
    check_sign_pattern,
    extract_convex_solution,
)
from sepqcqp.cli import run
from sepqcqp.connection import VerdictStatus, judge
from sepqcqp.errors import ReductionStallError
from sepqcqp.examples import make_example51, make_example52
from sepqcqp.qcqp_model import (
    HomSepQcqp,
    Qcqp,
    QuadFunc,
    Relation,
    SeparableQcqp,
    brute_force,
    eval as qeval,
    flatten,
    is_feasible,
)
from sepqcqp.rank_reduction import reduce
from sepqcqp.sdp_solver import SolveStatus, solve
from sepqcqp.sdpr_builder import build_hom, build_shor, to_standard_form
from sepqcqp.symkernel import SymMatrix

# expected family optima: eta(alpha) for the rows where the relaxation
# value is pinned, with 22/3 = (14*2.5 - 24)/(2.5 - 1)
FAMILY_ETA = {0.0: -6.0, 1.0: -1.0, 2.0: 4.0, 2.5: 22.0 / 3.0, 3.0: 9.0}
EXACT_ALPHAS = (0.0, 1.0, 2.0, 3.0)


def run_cli(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# seeded instance generators shared across the criteria


def convex_instance(seed):
    """Random convex QCQP (PSD quadratic parts, all rows <=) with a known
    strictly feasible anchor point."""
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(1, 6))
    m = int(rng.integers(1, 5))
    a = rng.standard_normal((n, n)) / np.sqrt(n)
    obj = QuadFunc.from_parts(a @ a.T + 0.3 * np.eye(n), rng.standard_normal(n))
    u0 = rng.standard_normal(n)
    cons, rhs = [], []
    for _ in range(m):
        c = rng.standard_normal((n, n)) / np.sqrt(n)
        f = QuadFunc.from_parts(c @ c.T, rng.standard_normal(n))
        cons.append((f, Relation.LE))
        rhs.append(qeval(f, u0) + float(rng.uniform(0.5, 2.0)))
    return Qcqp(n, obj, cons, rhs), u0


def sign_instance(seed):
    """Random QCQP whose aggregated off-diagonal entries are all
    nonpositive; row 1 is a ball so the feasible set is compact."""
    rng = np.random.default_rng(2000 + seed)
    n = int(rng.integers(2, 4))
    m = int(rng.integers(1, 4))

    def coupled():
        s = rng.standard_normal((n, n))
        s = 0.5 * (s + s.T)
        q = -np.abs(s)
        np.fill_diagonal(q, np.diag(s))
        return q

    obj = QuadFunc.from_parts(coupled(), -np.abs(rng.standard_normal(n)))
    cons = [(QuadFunc.from_parts(np.eye(n)), Relation.LE)]
    rhs = [float(rng.uniform(1.0, 4.0))]
    for _ in range(m - 1):
        f = QuadFunc.from_parts(coupled(), -np.abs(rng.standard_normal(n)))
        cons.append((f, Relation.LE))
        rhs.append(float(rng.uniform(0.5, 2.0)))
    return Qcqp(n, obj, cons, rhs)


def hom_instance(seed, base=3000, max_m=4):
    """Random homogeneous separable instance with a coercive objective.

    V0 = (2/sum dims) I is strictly feasible for every row by
    construction (the >= row's rhs is half its value at V0, the <= rows
    get a positive margin), so the relaxation has an interior point and
    the solver reaches Optimal.
    """
    rng = np.random.default_rng(base + seed)
    q_hat = int(rng.integers(1, 4))
    dims = [int(rng.integers(1, 4)) for _ in range(q_hat)]
    m = int(rng.integers(2, max_m + 1))

    def sym(n):
        a = rng.standard_normal((n, n))
        return 0.5 * (a + a.T)

    def pd(n, eps):
        a = rng.standard_normal((n, n))
        return a @ a.T + eps * np.eye(n)

    t = 2.0 / sum(dims)
    c0 = [SymMatrix.from_dense(pd(n, 0.3)) for n in dims]
    ge_row = [SymMatrix.from_dense(pd(n, 0.2)) for n in dims]
    ge_at0 = sum(t * float(np.trace(mat.to_dense())) for mat in ge_row)
    rows = [ge_row]
    rels = [Relation.GE]
    rhs = [0.5 * ge_at0]
    for _ in range(m - 1):
        row = [SymMatrix.from_dense(sym(n)) for n in dims]
        at0 = sum(t * float(np.trace(mat.to_dense())) for mat in row)
        rows.append(row)
        rels.append(Relation.LE)
        rhs.append(at0 + float(rng.uniform(0.5, 2.0)))
    mats = [[c0[q]] + [rows[k][q] for k in range(m)] for q in range(q_hat)]
    return HomSepQcqp(mats, rels, rhs)


def solved(b):
    sol = solve(b)
    assert sol.status is SolveStatus.OPTIMAL
    return sol


# ---------------------------------------------------------------------------
# criterion 1: the benchmark family through the CLI


class TestBenchmarkFamily:
    def family_row(self, capsys, alpha):
        return run_cli(
            capsys,
            "example51",
            "--alpha",
            str(alpha),
            "--format",
            "json",
            "--no-timestamp",
        )

    def test_values_ranks_and_verdicts(self, capsys):
        t0 = time.perf_counter()
        rows, codes = {}, {}
        for alpha in FAMILY_ETA:
            code, rep = self.family_row(capsys, alpha)
            rows[alpha] = rep["report"]
            codes[alpha] = code
        elapsed = time.perf_counter() - t0

        for alpha, eta in FAMILY_ETA.items():
            assert abs(rows[alpha]["eta"] - eta) <= 1e-4, alpha
        for alpha in EXACT_ALPHAS:
            assert rows[alpha]["verdict"].startswith("Exact"), alpha
            assert rows[alpha]["rank"] == 1, alpha
            assert codes[alpha] == 0, alpha
        assert rows[2.5]["verdict"] == "NotExact"
        assert rows[2.5]["rank"] == 2
        assert codes[2.5] == 2
        # the independent search finds 9 while the relaxation sits at 22/3
        assert abs(rows[2.5]["zeta"] - 9.0) <= 1e-4
        assert elapsed < 2.0

    def test_low_alpha_closed_form_confirmed_by_search(self):
        # on 0 <= alpha < 2 the optimum value is 5*alpha - 6
        for alpha in (0.0, 1.0):
            h = make_example51(alpha)
            q = flatten(SeparableQcqp([h], h.rhs))
            val, pt = brute_force(
                q, (-3.0, 3.0), grid_points=31, refine_rounds=18
            )
            zeta = 5.0 * alpha - 6.0
            assert abs(val - zeta) <= 1e-4, alpha
            assert abs(zeta - FAMILY_ETA[alpha]) <= 1e-12
            assert is_feasible(q, pt, 1e-6)

    def test_alpha_beyond_pinned_rows_reports_observed_values(self, capsys):
        # no value is asserted here on purpose: only that the run
        # completes and reports finite observations
        code, rep = self.family_row(capsys, 3.5)
        row = rep["report"]
        assert code in (0, 2)
        assert np.isfinite(row["eta"])
        assert row["zeta"] is None or np.isfinite(row["zeta"])
        assert row["verdict"] in {s.value for s in VerdictStatus}


# ---------------------------------------------------------------------------
# criterion 2: convex class


class TestConvexFamily:
    def test_extraction_is_feasible_and_tight_on_fifty_seeds(self):
        t0 = time.perf_counter()
        for seed in range(50):
            q, _ = convex_instance(seed)
            cert = check_convex(q)
            assert cert.kind is CertificateKind.CONVEX, seed
            sol = solved(build_shor(q))
            x = extract_convex_solution(sol.blocks[0])
            for (f, _), d in zip(q.constraints, q.rhs):
                assert qeval(f, x) <= float(d) + 1e-6, seed
            assert abs(qeval(q.objective, x) - sol.value) <= 1e-5, seed
        assert time.perf_counter() - t0 < 10.0


# ---------------------------------------------------------------------------
# criterion 3: sign-pattern class


class TestSignPatternFamily:
    def test_certificate_witness_and_oracle_on_thirty_seeds(self):
        for seed in range(30):
            q = sign_instance(seed)
            funcs = [q.objective] + [f for f, _ in q.constraints]
            cert = check_sign_pattern(
                aggregated_graph([f.quad_part() for f in funcs])
            )
            assert cert.kind is CertificateKind.SIGN_PATTERN, seed
            assert cert.case is SignCase.ALL_NONPOSITIVE, seed

            b = build_shor(q)
            sol = solved(b)
            _, rep = reduce(to_standard_form(b), sol)
            assert rep.extracted is not None, seed
            w = rep.extracted[0]
            assert is_feasible(q, w, 1e-6), seed
            assert abs(qeval(q.objective, w) - sol.value) <= 1e-4, seed

            # independent grid search over the ball's bounding box
            r = float(np.sqrt(q.rhs[0]))
            val, _ = brute_force(q, (-r, r), grid_points=41, refine_rounds=12)
            assert abs(val - sol.value) <= 1e-3, seed

    def test_unit_graphs(self):
        tri_neg = SparsityGraph(3, {(1, 2): -1, (2, 3): -1, (1, 3): -1})
        cert = check_sign_pattern(tri_neg)
        assert cert.kind is CertificateKind.SIGN_PATTERN
        assert cert.case is SignCase.ALL_NONPOSITIVE

        square_pos = SparsityGraph(
            4, {(1, 2): 1, (2, 3): 1, (3, 4): 1, (1, 4): 1}
        )
        cert = check_sign_pattern(square_pos)
        assert cert.kind is CertificateKind.SIGN_PATTERN
        assert cert.case is SignCase.BIPARTITE_POSITIVE

        tri_pos = SparsityGraph(3, {(1, 2): 1, (2, 3): 1, (1, 3): 1})
        assert check_sign_pattern(tri_pos).kind is CertificateKind.NONE


# ---------------------------------------------------------------------------
# criterion 4: rank/slack bound after reduction


class TestReductionRankBound:
    def test_pataki_sum_and_preservation_on_thirty_seeds(self):
        stalls = 0
        for seed in range(30):
            h = hom_instance(seed, base=3000, max_m=4)
            b = build_hom(h)
            sol = solved(b)
            try:
                red, rep = reduce(to_standard_form(b), sol)
            except ReductionStallError:
                stalls += 1
                continue
            assert rep.pataki_sum <= len(h.rhs), seed
            assert red.primal_residual <= 1e-6, seed
            assert abs(red.value - sol.value) <= 1e-6, seed
            for blk in red.blocks:
                x = blk.to_dense()
                if x.size:
                    assert float(np.linalg.eigvalsh(x).min()) >= -1e-6, seed
        assert stalls <= 2


# ---------------------------------------------------------------------------
# criterion 5: composed pipeline on seeded three-entry connections


class TestComposedPipeline:
    def test_certificates_and_witnesses_agree_on_twenty_five_seeds(self):
        t0 = time.perf_counter()
        witnessed = 0
        for seed in range(25):
            v = judge(make_example52(seed=seed))
            kinds = [pb.certificate.kind for pb in v.per_block]
            assert kinds == [
                CertificateKind.CONVEX,
                CertificateKind.SIGN_PATTERN,
                CertificateKind.HOM_LIMITED,
            ], seed
            assert all(pb.certificate.holds for pb in v.per_block), seed
            assert max(abs(pb.optimality_gap) for pb in v.per_block) <= 1e-6
            assert v.status is VerdictStatus.EXACT_CERTIFIED, seed
            # the witness route must reach the same conclusion
            if v.witness is not None and v.zeta_witness is not None:
                assert abs(v.zeta_witness - v.eta) <= 1e-5, seed
                witnessed += 1
        assert witnessed >= 22
        assert time.perf_counter() - t0 < 60.0


# ---------------------------------------------------------------------------
# criterion 6: weak duality on sampled feasible points


def assert_weak_duality(q, eta, pts):
    for u in pts:
        assert is_feasible(q, u, 1e-9)
        assert eta <= qeval(q.objective, u) + 1e-6


class TestWeakDuality:
    def test_benchmark_family_points(self):
        rng = np.random.default_rng(61_001)
        for alpha in (0.0, 1.0, 2.0, 2.5, 3.0, 3.5):
            h = make_example51(alpha)
            q = flatten(SeparableQcqp([h], h.rhs))
            eta = solved(build_hom(h)).value
            # v2 = s = +-1 exactly; v1 between the middle roots; w^2 under
            # the third row's slack v1^2 - 5 s v1 + 6, resampled when that
            # slack is negative
            pts = []
            while len(pts) < 100:
                s = 1.0 if rng.random() < 0.5 else -1.0
                lo, hi = (alpha, 4.0) if s > 0 else (-4.0, -alpha)
                v1 = float(rng.uniform(lo, hi))
                g = v1 * v1 - 5.0 * s * v1 + 6.0
                if g < 0:
                    continue
                w = float(rng.choice([-1.0, 1.0])) * np.sqrt(rng.random() * g)
                pts.append(np.array([v1, s, w]))
            assert_weak_duality(q, eta, pts)

    def test_convex_family_points(self):
        rng = np.random.default_rng(61_002)
        for seed in range(50):
            q, u0 = convex_instance(seed)
            eta = solved(build_shor(q)).value
            pts, tries = [], 0
            while len(pts) < 100:
                tries += 1
                assert tries < 200_000, seed
                u = u0 + rng.uniform(-1.0, 1.0, size=q.n)
                if is_feasible(q, u, 0.0):
                    pts.append(u)
            assert_weak_duality(q, eta, pts)

    def test_sign_family_points(self):
        rng = np.random.default_rng(61_003)
        for seed in range(30):
            q = sign_instance(seed)
            eta = solved(build_shor(q)).value
            pts, tries = [], 0
            while len(pts) < 100:
                tries += 1
                assert tries < 200_000, seed
                u = rng.uniform(-0.5, 0.5, size=q.n)
                if is_feasible(q, u, 0.0):
                    pts.append(u)
            assert_weak_duality(q, eta, pts)

    def test_homogeneous_family_points(self):
        rng = np.random.default_rng(61_004)
        for base, n_seeds, max_m in ((3000, 30, 4), (7000, 20, 2)):
            for seed in range(n_seeds):
                h = hom_instance(seed, base=base, max_m=max_m)
                q = flatten(SeparableQcqp([h], h.rhs))
                eta = solved(build_hom(h)).value
                ge_rhs = float(h.rhs[0])
                pts, tries = [], 0
                while len(pts) < 100:
                    tries += 1
                    assert tries < 200_000, (base, seed)
                    u = rng.standard_normal(q.n)
                    a = qeval(q.constraints[0][0], u)
                    if a <= 0:
                        continue
                    # scale onto the >= row with a random overshoot, then
                    # reject on the remaining rows
                    u = u * np.sqrt(float(rng.uniform(1.0, 1.5)) * ge_rhs / a)
                    if is_feasible(q, u, 0.0):
                        pts.append(u)
                assert_weak_duality(q, eta, pts)

    def test_pipeline_family_points(self):
        rng = np.random.default_rng(61_005)
        for seed in range(25):
            conn = make_example52(seed=seed)
            q = flatten(conn)
            v = judge(conn)
            assert v.witness is not None, seed
            u_star = np.concatenate(v.witness)
            eq_f, eq_rel = q.constraints[0]
            assert eq_rel is Relation.EQ
            g0 = float(q.rhs[0])
            dense = eq_f.B.to_dense()
            support = np.nonzero(np.abs(dense[:-1, :-1]).sum(axis=1))[0]
            eps = 0.05
            pts, tries = [], 0
            while len(pts) < 100:
                tries += 1
                assert tries < 400_000, seed
                if tries % 100_000 == 0:
                    eps *= 0.5
                u = u_star + eps * rng.standard_normal(q.n)
                a = qeval(eq_f, u)
                if a * g0 <= 0:
                    continue
                # the = row is a pure quadratic in one sub-block, so
                # scaling those coordinates repairs it exactly
                u[support] *= np.sqrt(g0 / a)
                if is_feasible(q, u, 1e-9):
                    pts.append(u)
            assert_weak_duality(q, v.eta, pts)


# ---------------------------------------------------------------------------
# criterion 7: two-row instances end blockwise rank one


class TestTwoRowRankOne:
    def test_blockwise_rank_one_on_twenty_seeds(self):
        stalls = 0
        for seed in range(20):
            h = hom_instance(seed, base=7000, max_m=2)
            assert len(h.rhs) == 2
            b = build_hom(h)
            sol = solved(b)
            try:
                _, rep = reduce(to_standard_form(b), sol)
            except ReductionStallError:
                stalls += 1
                continue
            assert all(r <= 1 for r in rep.final_ranks), seed
        assert stalls <= 2


# ---------------------------------------------------------------------------
# the package's public surface


#: every non-module public name of the sepqcqp package: the model, the
#: builders, solver, certificates, rank reduction and judge the paper
#: names, the example generators, and the error types
PUBLIC_NAMES = {
    "AssumptionBreakdown", "BilevelReport", "BilevelRow", "BlockKind",
    "BlockSdp", "Certificate", "CertificateKind", "DimensionError",
    "ExactnessVerdict", "ExtractResult", "GenerationError", "HomSepQcqp",
    "INFEASIBLE", "InfeasibleStructureError", "JudgeOptions", "ParseError",
    "PerBlockReport", "Qcqp", "QuadFunc", "RangeError", "ReductionReport",
    "ReductionStallError", "Relation", "SdpSolution", "SeparableQcqp",
    "SepqcqpError", "SignCase", "SolveStatus",
    "SparsityGraph", "StaleSolutionError", "StructureError", "SymMatrix",
    "ValidationError", "VerdictStatus", "aggregated_graph", "bilevel_report",
    "brute_force", "build_block", "build_hom", "build_shor",
    "check_assumption_A", "check_convex", "check_m_le_2",
    "check_sign_pattern", "connect", "decompose_delta", "eval_quad",
    "extract_convex_solution", "flatten", "frob_inner", "hom_values",
    "is_psd", "judge", "lift", "make_example51", "make_example52",
    "nonpositive_gauge", "numeric_rank", "reduce", "reduce_homogeneous_rows",
    "sign_gauge", "solve", "split_point", "to_standard_form",
}


def test_public_names_are_the_audited_list():
    names = {
        name
        for name, value in vars(sepqcqp).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert names == PUBLIC_NAMES
    assert len(names) == 64
