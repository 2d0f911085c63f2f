"""Connection pipeline: allocations, blockwise optimality, verdicts,
bilevel reading, and the seeded instance generators."""

import dataclasses
import json
import math
import os
import types

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sepqcqp import certificates, connection, sdpr_builder
from sepqcqp.certificates import (
    CertificateKind,
    SignCase,
    check_convex,
    check_m_le_2,
    reduce_homogeneous_rows,
)
from sepqcqp.cli import verdict_to_dict
from sepqcqp.connection import (
    BilevelReport,
    ExactnessVerdict,
    JudgeOptions,
    VerdictStatus,
    bilevel_report,
    judge,
)
from sepqcqp.errors import (
    DimensionError,
    GenerationError,
    RangeError,
    SepqcqpError,
)
from sepqcqp.examples import make_example51, make_example52, validate_example52
from sepqcqp.qcqp_model import (
    INFEASIBLE,
    HomSepQcqp,
    Qcqp,
    QuadFunc,
    Relation,
    SeparableQcqp,
    brute_force,
    flatten,
)
from sepqcqp.qcqp_model import eval as qf_eval
from sepqcqp.sdp_solver import solve
from sepqcqp.sdpr_builder import SolveStatus, build_block, build_hom, build_shor
from sepqcqp.symkernel import SymMatrix, frob_inner, is_psd

from instances import (
    family,
    random_connection,
    row_ratio_overflow,
    strip_variable_free_rows,
)
from test_sdp_solver import family_value


def qf(quad, linear=None):
    return QuadFunc.from_parts(np.asarray(quad, dtype=float), linear)


def single_convex_connection():
    """min |x|^2 - 2 e.x over |x|^2 <= 1 and a loose linear row, p_hat=1."""
    n = 2
    obj = qf(np.eye(n), -np.ones(n))
    cons = [
        (qf(np.eye(n)), Relation.LE),
        (qf(np.zeros((n, n)), np.ones(n)), Relation.LE),
    ]
    entry = Qcqp(n, obj, cons, [1.0, 50.0])
    return SeparableQcqp([entry], [1.0, 50.0])


def two_convex_connection():
    """Two convex entries with a shared tight quadratic budget row.

    Entry p wants x = a_p but row 1 caps |x|^2 + |y|^2 below
    |a_1|^2 + |a_2|^2, so the budget row is active at the optimum.
    """
    a1 = np.array([2.0, 0.0])
    a2 = np.array([0.0, 2.0])
    mk = lambda a: Qcqp(
        2,
        qf(np.eye(2), -a),
        [
            (qf(np.eye(2)), Relation.LE),
            (qf(np.zeros((2, 2)), np.ones(2)), Relation.LE),
        ],
        [4.0, 40.0],
    )
    return SeparableQcqp([mk(a1), mk(a2)], [4.0, 40.0])


def solved(s):
    b = build_block(s)
    sol = solve(b)
    assert sol.status is SolveStatus.OPTIMAL
    return sol


class TestDeltaDecomposition:
    def test_single_entry_is_achieved_values(self):
        s = single_convex_connection()
        v = judge(s)
        sol, deltas = v.relaxation, v.delta_decomposition
        assert len(deltas) == 1
        x = sol.blocks[0]
        entry = s.blocks[0]
        direct = [frob_inner(f.B, x) for f, _ in entry.constraints]
        assert np.allclose(deltas[0], direct, atol=1e-12)
        for k, rel in enumerate(s.relations):
            assert rel.holds(float(deltas[0][k]), float(s.gamma[k]), 1e-6)

    def test_two_block_sum_matches_gamma_on_active_rows(self):
        s = two_convex_connection()
        v = judge(s)
        sol, deltas = v.relaxation, v.delta_decomposition
        total = np.sum(deltas, axis=0)
        for k in range(s.m):
            if sol.slacks[k] <= 1e-7:
                assert abs(total[k] - s.gamma[k]) <= 1e-6
        # the budget row is genuinely active here
        assert sol.slacks[0] <= 1e-7

    def test_example52_hom_rows_carry_the_whole_residual(self):
        s = make_example52(0)
        d1, d2, d3 = judge(s).delta_decomposition
        # rows 1 and 2 are variable-free for the first two entries
        assert d1[0] == 0.0 and d1[1] == 0.0
        assert d2[0] == 0.0 and d2[1] == 0.0
        # the equality row is carried entirely by the homogeneous entry
        assert abs(d3[0] - (s.gamma[0] - d1[0] - d2[0])) <= 1e-6


def entry_gaps(s, sol, tol=1e-6):
    """Each entry's gap at its achieved allocation, as judge's per-entry
    analysis reads it off sol; nan marks an entry without a bound."""
    stacks = connection._EntryStacks(s)
    achieved = stacks.at_blocks(sol.blocks)
    per_block, _ = connection._entry_reports(stacks, build_block(s), sol, achieved, tol)
    return np.array([pb.optimality_gap for pb in per_block], dtype=np.float64)


class TestVerifySuboptimality:
    """The per-entry gaps judge reports (PerBlockReport.optimality_gap) at
    the achieved allocations."""

    def test_single_entry_gap_zero(self):
        s = single_convex_connection()
        gaps = entry_gaps(s, solved(s))
        assert gaps.shape == (1,)
        assert gaps[0] <= 1e-6
        assert [pb.optimality_gap for pb in judge(s).per_block] == list(gaps)

    def test_two_block_convex_gaps_small(self):
        s = two_convex_connection()
        gaps = entry_gaps(s, solved(s))
        assert np.all(np.isfinite(gaps))
        assert np.all(gaps <= 1e-6)
        assert [pb.optimality_gap for pb in judge(s).per_block] == list(gaps)


class TestJudge:
    def test_family_values_and_verdicts(self):
        expect = {
            0.0: VerdictStatus.EXACT_CERTIFIED,
            2.0: VerdictStatus.EXACT_WITNESSED,
            2.5: VerdictStatus.NOT_EXACT,
            3.0: VerdictStatus.EXACT_WITNESSED,
            3.5: VerdictStatus.EXACT_CERTIFIED,
        }
        for alpha, status in expect.items():
            v = judge(family(alpha))
            assert v.status is status, (alpha, v.status, v.reason)
            assert abs(v.eta - family_value(alpha)) <= 1e-4 * (
                1 + abs(family_value(alpha))
            )

    def test_not_exact_reports_oracle(self):
        v = judge(family(2.5))
        assert v.status is VerdictStatus.NOT_EXACT
        assert v.oracle_value is not None
        assert abs(v.oracle_value - 9.0) <= 1e-6
        assert v.oracle_value > v.eta + 1e-5
        assert not v.exact
        assert "exceeds" in v.reason

    def test_exact_verdicts_carry_witnesses(self):
        for alpha in (0.0, 2.0, 3.0):
            v = judge(family(alpha))
            assert v.exact
            assert v.witness is not None
            assert v.zeta_witness is not None
            assert abs(v.zeta_witness - v.eta) <= 1e-5 * (1 + abs(v.eta))

    def test_example52_certified_and_witnessed(self):
        for seed in (0, 1, 2):
            s = make_example52(seed)
            v = judge(s)
            assert v.status is VerdictStatus.EXACT_CERTIFIED, (seed, v.reason)
            kinds = [pb.certificate.kind for pb in v.per_block]
            assert kinds == [
                CertificateKind.CONVEX,
                CertificateKind.SIGN_PATTERN,
                CertificateKind.HOM_LIMITED,
            ]
            # both verdict paths agree: certified and witnessed
            assert v.zeta_witness is not None
            assert abs(v.zeta_witness - v.eta) <= 1e-5 * (1 + abs(v.eta))
            gaps = [pb.optimality_gap for pb in v.per_block]
            assert all(math.isfinite(g) and g <= 1e-6 for g in gaps)

    def test_witness_points_are_feasible(self):
        s = make_example52(3)
        v = judge(s)
        assert v.witness is not None
        totals = np.zeros(s.m)
        obj = 0.0
        for entry, pt in zip(s.blocks, v.witness):
            if isinstance(entry, HomSepQcqp):
                ofs = 0
                for q, d in enumerate(entry.dims):
                    vq = np.asarray(pt)[ofs : ofs + d]
                    ofs += d
                    obj += float(vq @ entry.blocks[q][0].to_dense() @ vq)
                    for k in range(entry.m):
                        totals[k] += float(
                            vq @ entry.blocks[q][k + 1].to_dense() @ vq
                        )
            else:
                obj += qf_eval(entry.objective, pt)
                for k, (f, _) in enumerate(entry.constraints):
                    totals[k] += qf_eval(f, pt)
        for k, rel in enumerate(s.relations):
            gk = float(s.gamma[k])
            assert rel.holds(float(totals[k]), gk, 1e-6 * (1 + abs(gk)))
        assert abs(obj - v.eta) <= 1e-5 * (1 + abs(v.eta))

    def test_unbounded_relaxation_undetermined(self):
        entry = Qcqp(
            1,
            qf([[-1.0]]),
            [(qf(np.zeros((1, 1)), [1.0]), Relation.LE)],
            [1.0],
        )
        s = SeparableQcqp([entry], [1.0])
        v = judge(s)
        assert v.status is VerdictStatus.UNDETERMINED
        assert v.reason != ""

    def test_single_convex_entry_certified(self):
        s = single_convex_connection()
        v = judge(s)
        assert v.status is VerdictStatus.EXACT_CERTIFIED
        assert v.per_block[0].certificate.kind is CertificateKind.CONVEX
        assert v.witness is not None


def achieved_objectives(s, v) -> list:
    """The objective each entry achieves at the verdict's relaxation."""
    return connection._EntryStacks(s).at_blocks(v.relaxation.blocks)[:, 0].tolist()


class TestEntryBracket:
    """judge reads every entry of make_example52(0) off the joint pair and
    solves one problem, the joint relaxation: an entry whose dual bound
    misses the objective it achieves reports the bracket [bound,
    achieved], one without a bound nan, and a homogeneous entry without
    its joint blocks as a solution has no HomLimited certificate."""

    def judged(self, monkeypatch, p, move=lambda bound: None):
        """judge(make_example52(0)) with entry p's dual bound moved (gone by
        default); returns (s, verdict, the problems handed to the
        solver)."""
        s = make_example52(0)
        problems = []
        bound, real = connection._dual_bound, connection.solve

        def moved_bound(entry, *args):
            value = bound(entry, *args)
            return move(value) if entry is s.blocks[p] else value

        def counted(b, *args, **kwargs):
            problems.append(b)
            return real(b, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(connection, "_dual_bound", moved_bound)
            m.setattr(connection, "solve", counted)
            v = judge(s)
        return s, v, problems

    def test_missed_bound_reports_the_bracket(self, monkeypatch):
        s, v, problems = self.judged(monkeypatch, 1, move=lambda b: b - 1.0)
        assert len(problems) == 1
        plain = judge(s)
        bound = plain.per_block[1].sub_sdpr_value - 1.0
        achieved = achieved_objectives(s, v)[1]
        assert v.per_block[1].sub_sdpr_value == bound
        assert v.per_block[1].optimality_gap == abs(achieved - bound)
        assert bound < achieved
        assert v.per_block[1].certificate == plain.per_block[1].certificate
        assert v.per_block[0] == plain.per_block[0]
        assert v.per_block[2] == plain.per_block[2]
        assert v.status is plain.status and v.eta == plain.eta

    def test_missing_bound_is_nan(self, monkeypatch):
        _, v, problems = self.judged(monkeypatch, 1)
        assert len(problems) == 1
        assert math.isnan(v.per_block[1].sub_sdpr_value)
        assert math.isnan(v.per_block[1].optimality_gap)
        pb = json.loads(json.dumps(verdict_to_dict(v), allow_nan=False))[
            "per_block"
        ][1]
        assert pb["sub_sdpr_value"] is None and pb["optimality_gap"] is None

    @pytest.mark.parametrize(
        "move", [lambda b: None, lambda b: b - 1.0], ids=["no_bound", "missed_bound"]
    )
    def test_homogeneous_entry_without_joint_subsol(self, monkeypatch, move):
        # without its bound, or with a bound that misses its achieved
        # objective, the homogeneous entry has no solution: only
        # check_m_le_2 is left
        s, v, problems = self.judged(monkeypatch, 2, move=move)
        assert len(problems) == 1
        plain = judge(s)
        h = s.blocks[2]
        h = HomSepQcqp(h.blocks, list(h.relations), v.delta_decomposition[2])
        want = check_m_le_2(h)
        pb = v.per_block[2]
        assert pb.certificate == want
        assert pb.certificate.kind is CertificateKind.NONE
        assert plain.per_block[2].certificate.kind is CertificateKind.HOM_LIMITED
        assert plain.per_block[2].certificate.details.endswith("at the joint solution")
        bound = move(plain.per_block[2].sub_sdpr_value)
        if bound is None:
            assert math.isnan(pb.sub_sdpr_value) and math.isnan(pb.optimality_gap)
        else:
            achieved = achieved_objectives(s, v)[2]
            assert pb.sub_sdpr_value == bound
            assert pb.optimality_gap == abs(achieved - bound)
        assert v.per_block[:2] == plain.per_block[:2]
        assert v.status is VerdictStatus.EXACT_WITNESSED and v.eta == plain.eta


def small_convex_connection(seed) -> SeparableQcqp:
    """Two to four convex entries of one to three variables sharing one to
    three <= rows, strictly feasible at a random reference point."""
    rng = np.random.default_rng(seed)
    entries, n, m = (int(rng.integers(lo, hi)) for lo, hi in ((2, 5), (1, 4), (1, 4)))
    parts, values = [], np.zeros(m)
    for _ in range(entries):
        x = rng.standard_normal(n)
        g = rng.standard_normal((n, n))
        obj = qf(g @ g.T / n + 0.3 * np.eye(n), rng.standard_normal(n))
        cons = []
        for k in range(m):
            g = rng.standard_normal((n, n))
            cons.append(qf(g @ g.T / n, rng.standard_normal(n)))
            values[k] += qf_eval(cons[-1], x)
        parts.append((obj, cons))
    gamma = values + rng.uniform(0.2, 1.0, size=m)
    rows = [Relation.LE] * m
    return SeparableQcqp(
        [Qcqp(n, obj, list(zip(cons, rows)), gamma) for obj, cons in parts],
        gamma,
    )


#: the seeds in 0..3999 whose random_connection draw (test_stacked_stages)
#: has an Optimal joint solve: all 368 of them
JOINT_OPTIMAL_SEEDS = [
    11, 25, 31, 33, 34, 35, 46, 65, 67, 78, 81, 103, 112, 120, 134, 142, 174, 195,
    216, 228, 231, 236, 241, 263, 280, 297, 311, 320, 355, 358, 366, 370, 389, 407,
    428, 435, 445, 461, 493, 507, 529, 540, 549, 554, 557, 560, 573, 581, 584, 589,
    591, 631, 632, 636, 645, 652, 656, 672, 675, 676, 688, 695, 702, 705, 714, 743,
    772, 784, 786, 825, 846, 860, 899, 908, 912, 917, 928, 935, 943, 944, 973, 983,
    994, 1004, 1009, 1013, 1016, 1019, 1025, 1043, 1045, 1055, 1056, 1057, 1070,
    1086, 1087, 1132, 1146, 1158, 1172, 1193, 1212, 1215, 1233, 1243, 1251, 1265,
    1288, 1295, 1297, 1312, 1317, 1355, 1360, 1369, 1380, 1381, 1390, 1410, 1416,
    1420, 1425, 1433, 1461, 1464, 1486, 1488, 1497, 1501, 1508, 1527, 1532, 1547,
    1563, 1582, 1601, 1603, 1622, 1634, 1638, 1646, 1653, 1654, 1665, 1670, 1680,
    1681, 1690, 1701, 1710, 1717, 1720, 1740, 1747, 1755, 1771, 1789, 1798, 1806,
    1809, 1816, 1822, 1829, 1831, 1832, 1841, 1857, 1860, 1882, 1918, 1922, 1930,
    1936, 1937, 1943, 1947, 1961, 1979, 1982, 1995, 2000, 2008, 2029, 2082, 2097,
    2101, 2102, 2105, 2141, 2154, 2156, 2166, 2167, 2179, 2219, 2286, 2295, 2296,
    2305, 2313, 2321, 2331, 2347, 2348, 2362, 2379, 2389, 2401, 2405, 2414, 2417,
    2427, 2428, 2431, 2472, 2476, 2480, 2491, 2514, 2529, 2601, 2607, 2608, 2619,
    2620, 2624, 2636, 2642, 2645, 2655, 2665, 2676, 2679, 2693, 2694, 2701, 2771,
    2808, 2811, 2813, 2821, 2825, 2828, 2857, 2859, 2861, 2870, 2878, 2883, 2892,
    2894, 2905, 2920, 2922, 2927, 2966, 2971, 2977, 2994, 2999, 3019, 3031, 3042,
    3082, 3095, 3097, 3099, 3100, 3102, 3112, 3116, 3117, 3118, 3137, 3148, 3157,
    3161, 3182, 3186, 3192, 3202, 3206, 3214, 3224, 3235, 3243, 3262, 3276, 3278,
    3315, 3319, 3320, 3326, 3328, 3359, 3360, 3373, 3374, 3375, 3380, 3389, 3396,
    3409, 3411, 3412, 3415, 3418, 3437, 3473, 3515, 3521, 3525, 3552, 3554, 3570,
    3580, 3628, 3636, 3642, 3643, 3644, 3659, 3689, 3691, 3699, 3706, 3711, 3712,
    3726, 3728, 3738, 3752, 3773, 3781, 3782, 3786, 3787, 3789, 3796, 3798, 3806,
    3813, 3816, 3823, 3826, 3836, 3841, 3849, 3861, 3862, 3875, 3887, 3890, 3904,
    3918, 3931, 3934, 3948, 3949, 3962, 3969, 3973, 3974, 3978, 3989, 3994, 3998,
]

#: random_connection seeds whose entries judge re-solved when it still had
#: a re-solve fallback, with the verdict status and certificate kinds it
#: gives. 1380 read NotExact while the oracle's NotExact threshold was
#: eta + 10 tol: its oracle value lies 5.2e-3 above eta = -14548, within
#: the witness tolerance tol (1 + |eta|) = 1.45e-2, so it is a witness.
RESOLVED_BEFORE = {
    1146: ("ExactCertified", ["Convex", "Convex", "Convex"]),
    1380: ("ExactWitnessed", ["None", "Convex"]),
    1582: ("Undetermined", ["Convex", "None", "Convex", "None", "Convex", "None"]),
    2167: ("Undetermined",
           ["Convex", "SignPattern", "HomLimited", "None", "Convex", "Convex"]),
    3806: ("ExactCertified", ["Convex", "Convex", "Convex"]),
}


class TestEntryWeakDuality:
    """Every entry's reported relaxation value is a lower bound on the
    objective it achieves, and the entry values sum to eta."""

    def check(self, s):
        tol = JudgeOptions().tol
        v = judge(s)
        assert v.relaxation is not None
        assert v.relaxation.status is SolveStatus.OPTIMAL
        for pb, achieved in zip(v.per_block, achieved_objectives(s, v)):
            assert pb.sub_sdpr_value <= achieved + tol * (1.0 + abs(achieved))
        rep = bilevel_report(s, v)
        assert rep.identity_gap <= tol * (1.0 + abs(v.eta))
        return v

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15)
    def test_example52(self, seed):
        self.check(make_example52(seed))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15)
    def test_small_convex_connections(self, seed):
        self.check(small_convex_connection(seed))

    @given(st.sampled_from(JOINT_OPTIMAL_SEEDS))
    @settings(max_examples=25)
    def test_random_connections(self, seed):
        self.check(random_connection(seed)[0])

    @pytest.mark.parametrize("seed", sorted(RESOLVED_BEFORE))
    def test_formerly_resolved_draws(self, seed):
        v = self.check(random_connection(seed)[0])
        kinds = [pb.certificate.kind.value for pb in v.per_block]
        assert (v.status.value, kinds) == RESOLVED_BEFORE[seed]


class TestBilevelReport:
    def test_single_entry(self):
        s = single_convex_connection()
        v = judge(s)
        rep = bilevel_report(s, v)
        assert len(rep.rows) == 1
        assert rep.rows[0].certified
        assert abs(rep.rows[0].value - v.eta) <= 1e-6 * (1 + abs(v.eta))
        assert rep.identity_gap <= 1e-6 * (1 + abs(v.eta))

    def test_two_block_identity(self):
        s = two_convex_connection()
        v = judge(s)
        rep = bilevel_report(s, v)
        assert len(rep.rows) == 2
        assert rep.identity_gap <= 1e-6 * (1 + abs(v.eta))
        assert abs(rep.total - v.eta) <= 1e-6 * (1 + abs(v.eta))

    def test_example52_has_three_rows(self):
        s = make_example52(1)
        v = judge(s)
        rep = bilevel_report(s, v)
        assert len(rep.rows) == 3
        assert [r.index for r in rep.rows] == [0, 1, 2]
        assert all(r.allocation.shape == (7,) for r in rep.rows)
        assert rep.identity_gap <= 1e-5 * (1 + abs(v.eta))

    def test_entry_count_mismatch(self):
        s = two_convex_connection()
        v = judge(single_convex_connection())
        with pytest.raises(DimensionError):
            bilevel_report(s, v)


class TestMakeExample51:
    def test_frozen_matrices(self):
        h = make_example51(0.0)
        assert h.q_hat == 2 and h.m == 3 and h.dims == [2, 1]
        assert np.allclose(
            h.blocks[0][2].to_dense(), [[1.0, -2.0], [-2.0, 0.0]]
        )
        h4 = make_example51(4.0)
        assert np.allclose(
            h4.blocks[0][2].to_dense(), [[1.0, -4.0], [-4.0, 16.0]]
        )

    def test_scalar_block_rows(self):
        for alpha in (0.0, 1.7, 4.0):
            h = make_example51(alpha)
            assert np.allclose(h.blocks[1][3].to_dense(), [[1.0]])
            assert np.allclose(h.blocks[1][0].to_dense(), [[-1.0]])
            assert h.blocks[1][1].is_zero() and h.blocks[1][2].is_zero()
            assert h.relations == [Relation.EQ, Relation.LE, Relation.LE]
            assert np.allclose(h.rhs, [1.0, 0.0, 0.0])

    def test_out_of_range(self):
        for alpha in (-0.1, 4.2):
            with pytest.raises(RangeError):
                make_example51(alpha)


class TestMakeExample52:
    def test_validator_accepts_generated(self):
        for seed in range(6):
            s = make_example52(seed)
            assert validate_example52(s) == []
            assert s.p_hat == 3 and s.m == 7

    def test_seeded_determinism(self):
        a = make_example52(11)
        b = make_example52(11)
        assert np.array_equal(a.gamma, b.gamma)
        assert np.array_equal(
            a.blocks[0].objective.B.to_dense(),
            b.blocks[0].objective.B.to_dense(),
        )

    def test_first_entry_is_convex(self):
        s = make_example52(2)
        stripped, kept = strip_variable_free_rows(s.blocks[0])
        assert kept == [2, 3, 4, 5, 6]
        assert check_convex(stripped).holds

    def test_second_entry_gauges_to_nonpositive(self):
        s = make_example52(2)
        stripped, _ = strip_variable_free_rows(s.blocks[1])
        d = judged_gauge(stripped)
        assert d is not None
        # all couplings already nonpositive, so the identity gauge works
        assert np.allclose(d, np.ones(stripped.n))

    def test_hom_entry_reduces_to_four_rows_at_allocation(self):
        s = make_example52(0)
        deltas = judge(s).delta_decomposition
        h = s.blocks[2]
        h_alloc = HomSepQcqp(h.blocks, list(h.relations), deltas[2])
        reduced, dropped = reduce_homogeneous_rows(h_alloc)
        assert reduced.m <= 4
        assert 5 in dropped and 6 in dropped  # the all-zero trailing rows
        assert 3 in dropped or 4 in dropped  # one of the proportional pair

    def test_fixed_shape(self):
        s = make_example52(5)
        assert validate_example52(s) == []
        assert (s.blocks[0].n, s.blocks[1].n, s.blocks[2].dims) == (2, 2, [2, 2, 2])
        with pytest.raises(TypeError, match="dims"):
            make_example52(5, dims=(3, 2, (2, 1, 2)))

    def test_exhausted_draws_raise(self, monkeypatch):
        from sepqcqp import examples

        monkeypatch.setattr(
            examples, "validate_example52", lambda s: ["always rejected"]
        )
        with pytest.raises(GenerationError):
            examples.make_example52(0)


def judged_gauge(q):
    """The sign gauge judge reads off the one-entry connection of q."""
    stacks = connection._EntryStacks(SeparableQcqp([q], q.rhs))
    return connection._certify_qcqp_entries(stacks)[0][1]


class TestNonpositiveGauge:
    def test_positive_coupling_flipped(self):
        # +xy coupling plus linear parts that pin the orientation
        obj = qf([[0.0, 1.0], [1.0, 0.0]], [-2.0, 2.0])
        q = Qcqp(2, obj, [(qf(np.eye(2)), Relation.LE)], [1.0])
        d = judged_gauge(q)
        assert d is not None
        assert np.allclose(d, [1.0, -1.0])

    def test_conflicting_linear_signs(self):
        # couplings force d = (1, -1) up to a flip, but both orientations
        # leave some gauged linear coefficient positive
        obj = qf([[0.0, 1.0], [1.0, 0.0]], [2.0, 2.0])
        q = Qcqp(2, obj, [(qf(np.eye(2)), Relation.LE)], [1.0])
        assert judged_gauge(q) is None

    def test_odd_positive_cycle_fails(self):
        quad = np.array(
            [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
        )
        q = Qcqp(3, qf(quad), [(qf(np.eye(3)), Relation.LE)], [1.0])
        assert judged_gauge(q) is None


@pytest.mark.filterwarnings("error")
class TestOverflowingRows:
    """Rows judge cannot compare or symmetrize stop it with a RangeError
    naming the entry (0-based, as blocks[p] in a problem file) and the row
    (1-based, as its matrix k), and with no numpy warning on the way."""

    def test_homogeneous_row_norm_ratio(self):
        with pytest.raises(RangeError) as exc:
            judge(row_ratio_overflow())
        assert str(exc.value) == (
            "entry 1 row 2: the ratio of its norm inf to row 1's 1.41421 is not finite"
        )

    def test_inhomogeneous_quadratic_part_beyond_half_max(self):
        # SymMatrix(...) takes the entry as given, where from_dense would
        # overflow symmetrizing it; row 2 pins x2 = 0, so the solve is
        # Optimal and the entry is not convex
        def quad(diag):
            return QuadFunc(2, SymMatrix(np.diag([*diag, 0.0])))

        le = Relation.LE
        first = Qcqp(1, qf([[1.0]]), [(qf([[1.0]]), le), (QuadFunc.zero(1), le)], [1.0, 0.0])
        rows = [(quad([1.0, 0.0]), le), (quad([0.0, 1e308]), le)]
        second = Qcqp(2, quad([-1.0, 1.0]), rows, [1.0, 0.0])
        with pytest.raises(RangeError, match="^entry 1 row 2: a quadratic-part entry exceeds"):
            judge(SeparableQcqp([first, second], [2.0, 0.0]))


class TestInvariants:
    def test_eta_lower_bounds_oracle(self):
        for alpha in (0.0, 1.0, 2.0, 2.5, 3.0, 4.0):
            s = family(alpha)
            v = judge(s)
            val, _ = brute_force(flatten(s), (-5.0, 5.0), grid_points=51)
            assert val is not INFEASIBLE
            assert v.eta <= val + 1e-5
        s = two_convex_connection()
        v = judge(s)
        val, _ = brute_force(flatten(s), (-3.0, 3.0), grid_points=31)
        assert v.eta <= val + 1e-5

    def test_decomposition_identity(self):
        for s in (
            two_convex_connection(),
            make_example52(4),
            family(1.0),
        ):
            sol = solved(s)
            ofs, total = 0, 0.0
            for entry in s.blocks:
                cnt = entry.q_hat if isinstance(entry, HomSepQcqp) else 1
                for q in range(cnt):
                    c0 = (
                        entry.blocks[q][0]
                        if isinstance(entry, HomSepQcqp)
                        else entry.objective.B
                    )
                    total += frob_inner(c0, sol.blocks[ofs + q])
                ofs += cnt
            assert abs(total - sol.value) <= 1e-8 * (1 + abs(sol.value))

    def test_relaxing_le_rows_never_raises_eta(self):
        for s in (two_convex_connection(), make_example52(0)):
            v = judge(s)
            gamma2 = np.array(
                [
                    g + 1.0 if rel is Relation.LE else g
                    for g, rel in zip(s.gamma, s.relations)
                ]
            )
            relaxed = SeparableQcqp(list(s.blocks), gamma2)
            v2 = judge(relaxed)
            assert v2.eta <= v.eta + 1e-6 * (1 + abs(v.eta))

    def test_witness_objective_matches_eta_on_certified_seeds(self):
        hits = 0
        for seed in range(8):
            s = make_example52(seed)
            v = judge(s)
            if v.status is not VerdictStatus.EXACT_CERTIFIED:
                continue
            hits += 1
            assert v.zeta_witness is not None
            assert abs(v.zeta_witness - v.eta) <= 1e-5 * (1 + abs(v.eta))
        assert hits >= 6


def permuted_statuses(s: SeparableQcqp, perm) -> tuple:
    """The verdict statuses of s and of s with its entries in perm's order
    (the shared right-hand sides as they are)."""
    moved = SeparableQcqp([s.blocks[i] for i in perm], s.gamma)
    return judge(s).status, judge(moved).status


#: the alphas the pool digest joins example 5.1 over
JOIN_ALPHAS = (0.5, 1.0, 1.5, 2.0, 2.2, 2.5, 2.8, 3.0, 3.5)


class TestEntryOrder:
    """Permuting a connection's entries changes no verdict status. The
    relaxation's sums over blocks run in block order, so the bits may
    move, and with them a failing solve's stop (MaxIter for
    NumericalFailure, say), but not what the verdict says. The known
    exceptions, where the bits decide whether the solve reaches Optimal
    at all or whether rank reduction stalls, are pinned as expected
    failures."""

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.data())
    @settings(max_examples=15, deadline=None)
    def test_random_connections(self, seed, data):
        s, _ = random_connection(seed)
        assume(len(s.blocks) > 1)
        perm = data.draw(st.permutations(range(len(s.blocks))))
        before, after = permuted_statuses(s, perm)
        assert before is after

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP items 5 and 7: the block-order sums decide whether "
        "the solve stops short of Optimal or rank reduction stalls, and with "
        "it the verdict status",
    )
    @pytest.mark.parametrize(
        "seed, perm",
        [
            # NumericalFailure at iteration 87 (Undetermined) in one order,
            # Optimal at 83 (ExactCertified) in the other
            (1886, [3, 1, 0, 2]),
            # Optimal at 142 (ExactWitnessed), MaxIter at 200 (Undetermined)
            (67, [2, 1, 0]),
            # Optimal at 200 (ExactCertified), MaxIter at 200 (Undetermined)
            (4160454, [0, 1, 3, 2]),
            # NumericalFailure at 109 (Undetermined), Optimal at 94
            # (ExactCertified)
            (11457995, [0, 1, 2, 3, 5, 4]),
            # MaxIter at 200 (Undetermined), Optimal at 180 (ExactCertified)
            (178794, [1, 0]),
            # NumericalFailure at 51 (Undetermined), Optimal at 40
            # (ExactWitnessed)
            (1548367, [0, 2, 1]),
            # Optimal at 97, where rank reduction stalls on "null directions
            # are numerically unusable" (Undetermined), and Optimal at 96,
            # where it extracts a witness (ExactWitnessed)
            (26869874, [0, 1, 2, 3, 5, 4]),
        ],
    )
    def test_random_connection_flips(self, seed, perm):
        s, _ = random_connection(seed)
        before, after = permuted_statuses(s, perm)
        assert before is after

    @given(st.lists(st.sampled_from(JOIN_ALPHAS), min_size=2, max_size=3), st.data())
    @settings(max_examples=20, deadline=None)
    def test_joined_example51(self, alphas, data):
        hs = [make_example51(a) for a in alphas]
        s = SeparableQcqp(hs, sum(h.rhs for h in hs))
        perm = data.draw(st.permutations(range(len(hs))))
        before, after = permuted_statuses(s, perm)
        assert before is after

    @given(st.integers(min_value=0, max_value=299), st.data())
    @settings(max_examples=20, deadline=None)
    def test_example52(self, seed, data):
        s = make_example52(seed)
        perm = data.draw(st.permutations(range(len(s.blocks))))
        before, after = permuted_statuses(s, perm)
        assert before is after


REFERENCES = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "perfbench",
    "references",
)


def reference_iterations(workload: str) -> dict:
    with open(os.path.join(REFERENCES, f"{workload}.json"), encoding="utf-8") as fh:
        return {k: rec["iters"] for k, rec in json.load(fh)["keys"].items()}


def side_sub_problem(entry, delta):
    """An entry's own relaxation at allocation delta, as judge built it when
    it re-solved entries: build_hom of the reduced homogeneous rows, or
    build_shor of the rows that involve variables."""
    if isinstance(entry, HomSepQcqp):
        h = HomSepQcqp(entry.blocks, list(entry.relations), delta)
        return build_hom(reduce_homogeneous_rows(h)[0])
    return reference_sub_problem(entry, delta)[0]


def judged_iterations(s, monkeypatch) -> tuple:
    """(iterations, problems): the IPM iterations of everything judge(s)
    solves plus those of re-solving every entry at its allocation on the
    side, and the number of problems judge hands to the solver."""
    sols = []
    real = connection.solve

    def counted(b, *args, **kwargs):
        sols.append(real(b, *args, **kwargs))
        return sols[-1]

    with monkeypatch.context() as m:
        m.setattr(connection, "solve", counted)
        v = judge(s)
    entries = sum(
        solve(side_sub_problem(entry, delta)).iterations
        for entry, delta in zip(s.blocks, v.delta_decomposition)
    )
    return sum(sol.iterations for sol in sols) + entries, len(sols)


class TestIterationsPinned:
    """The benchmark references count the joint solve plus one re-solve of
    every entry at its allocation, each solved one at a time. judge reads
    the entries off the joint primal-dual pair and solves the joint
    relaxation alone; re-solving the entries on the side reproduces the
    reference iterations exactly."""

    def test_example52(self, monkeypatch):
        ref = reference_iterations("ex52-cli")
        for seed in range(20):
            iters, problems = judged_iterations(make_example52(seed), monkeypatch)
            assert (iters, problems) == (ref[str(seed)], 1), seed

    def test_example51_table(self, monkeypatch):
        ref = reference_iterations("ex51-sweep")
        for key, alpha in (("0", 0.0), ("100", 1.0), ("200", 2.0), ("250", 2.5),
                           ("300", 3.0), ("350", 3.5), ("alpha4", 4.0)):
            h = make_example51(alpha)
            iters, problems = judged_iterations(SeparableQcqp([h], h.rhs), monkeypatch)
            assert (iters, problems) == (ref[key], 1), key


# ---------------------------------------------------------------------------
# the inhomogeneous row check against the sub-problem path it replaced


def reference_sub_problem(entry, delta):
    """An inhomogeneous entry's relaxation at delta, built as judge built it
    before reading the row check off the row values: (BlockSdp, check),
    check(tol) naming an inconsistent variable-free row or None."""
    delta = np.asarray(delta, dtype=np.float64)
    full = Qcqp(entry.n, entry.objective, list(entry.constraints), delta)
    stripped, kept = strip_variable_free_rows(full)
    dropped = [k for k in range(len(delta)) if k not in kept]

    def check(tol):
        for k in dropped:
            rel, dk = entry.relations[k], float(delta[k])
            if not rel.holds(0.0, dk, tol * (1.0 + abs(dk))):
                return f"variable-free row {k} inconsistent"
        return None

    return build_shor(stripped), check


def reference_dual_bound(entry, delta, y, mu, tol):
    """The dual bound with one is_psd call per entry."""
    yscale = tol * (1.0 + float(np.abs(y).max(initial=0.0)))
    for k, rel in enumerate(entry.relations):
        if (rel is Relation.LE and y[k] > yscale) or (
            rel is Relation.GE and y[k] < -yscale
        ):
            return None
    acc = entry.objective.B.to_dense().copy()
    for k, (f, _) in enumerate(entry.constraints):
        if y[k] != 0.0:
            acc -= y[k] * f.B.to_dense()
    acc[entry.n, entry.n] -= mu
    if not is_psd(SymMatrix.from_dense(acc), tol):
        return None
    return float(y @ delta) + mu


def reference_analysis(s, b, sol, deltas, tol):
    """(value, gap) of every inhomogeneous entry, one entry at a time: nan
    where the allocation leaves a variable-free row of the entry's
    sub-problem inconsistent or the dual bound is missing, else the
    bracket [bound, achieved objective]."""
    y, mus = connection._connection_duals(s, b, sol)
    out = []
    for p, entry in enumerate(s.blocks):
        achieved = frob_inner(entry.objective.B, sol.blocks[p])
        bound = reference_dual_bound(entry, deltas[p], y, mus[p], tol)
        _, check = reference_sub_problem(entry, deltas[p])
        if check(tol) is not None or bound is None:
            out.append((math.nan, math.nan))
        else:
            out.append((bound, abs(achieved - bound)))
    return out


def mixed_relation_connection(rng):
    """Two or three entries of one to three variables over one to three
    shared rows of any relation, each row variable-free for some entries
    but never for the first, feasible at a random reference point (<= and
    >= rows with a margin, = rows exactly)."""
    entries, n, m = (int(rng.integers(lo, hi)) for lo, hi in ((2, 4), (1, 4), (1, 4)))
    relations = [Relation(r) for r in rng.choice(["le", "eq", "ge"], size=m)]
    parts, values = [], np.zeros(m)
    for p in range(entries):
        x = rng.standard_normal(n)
        g = rng.standard_normal((n, n))
        obj = qf(g @ g.T / n + 0.3 * np.eye(n), rng.standard_normal(n))
        cons = []
        for k in range(m):
            if p > 0 and rng.uniform() < 0.4:
                cons.append(QuadFunc.zero(n))
            else:
                g = rng.standard_normal((n, n))
                cons.append(qf(g @ g.T / n, rng.standard_normal(n)))
            values[k] += qf_eval(cons[-1], x)
        parts.append((obj, cons))
    sign = np.array([{"le": 1.0, "eq": 0.0, "ge": -1.0}[r.value] for r in relations])
    gamma = values + sign * rng.uniform(0.2, 1.0, size=m)
    return SeparableQcqp(
        [Qcqp(n, obj, list(zip(cons, relations)), gamma) for obj, cons in parts],
        gamma,
    )


def margin(rng):
    """A perturbation size far from the tolerance boundary (tol = 1e-6)."""
    return float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-4.0, 0.0))


class TestQcqpRowCheckReference:
    """Every inhomogeneous entry's (value, gap), its dual bound from the
    stacked psd tests, is the one-entry reference's at the achieved
    allocation, also where a moved corner leaves the joint block off the
    unit corner (the bracket reads the bound, not the corner)."""

    @pytest.mark.parametrize("case", ["joint", "corner"])
    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=8)
    def test_matches_sub_problem_path(self, case, seed):
        rng = np.random.default_rng(seed)
        s = mixed_relation_connection(rng)
        b = build_block(s)
        sol = solve(b)
        if sol.status is not SolveStatus.OPTIMAL:
            return
        if case == "corner":  # move one entry's unit corner off 1
            p = int(rng.integers(len(s.blocks)))
            x = sol.blocks[p].to_dense()
            x[-1, -1] += margin(rng)
            blocks = list(sol.blocks)
            blocks[p] = SymMatrix.from_dense(x)
            sol = dataclasses.replace(sol, blocks=blocks)
        tol = JudgeOptions().tol
        stacks = connection._EntryStacks(s)
        achieved = stacks.at_blocks(sol.blocks)
        got, _ = connection._entry_reports(stacks, b, sol, achieved, tol)
        want = reference_analysis(s, b, sol, list(achieved[:, 1:]), tol)
        assert [
            repr((pb.sub_sdpr_value, pb.optimality_gap)) for pb in got
        ] == [repr(w) for w in want]
        # no entry's certificate reads its joint blocks as its solution
        assert not any(pb.certificate.depends_on_solution for pb in got)


class TestAchievedAllocation:
    """At the achieved allocation every row of an entry holds by
    construction, which is why judge runs no per-entry row check: an
    inhomogeneous entry's variable-free rows read exactly 0 at the joint
    blocks, and a homogeneous entry's reduced rows leave no residual for
    check_assumption_A to count."""

    @staticmethod
    def assert_rows_hold(s):
        """Both invariants at s's joint solution; False when the relaxation
        does not solve to Optimal."""
        try:
            sol = solve(build_block(s))
        except SepqcqpError:  # rows the presolve finds contradictory
            return False
        if sol.status is not SolveStatus.OPTIMAL:
            return False
        stacks = connection._EntryStacks(s)
        achieved = stacks.at_blocks(sol.blocks)
        for p, entry in enumerate(s.blocks):
            blocks = sol.blocks[stacks.slices[p]]
            if isinstance(entry, HomSepQcqp):
                # the reduced rows connection._hom_certificate reads
                h = HomSepQcqp(entry.blocks, list(entry.relations), achieved[p, 1:])
                reduced, _ = reduce_homogeneous_rows(h)
                _, count, parts = certificates.check_assumption_A(reduced, blocks)
                assert np.all(parts.residuals == 0.0)
                assert not any(parts.residual_counted)
                assert count == sum(parts.block_nonzero)
            else:
                free = [k for k, (f, _) in enumerate(entry.constraints) if f.is_zero()]
                assert all(achieved[p, 1 + k] == 0.0 for k in free)
        return True

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20)
    def test_random_connections(self, seed):
        self.assert_rows_hold(random_connection(seed)[0])

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=20)
    def test_mixed_relation_connections(self, seed):
        self.assert_rows_hold(mixed_relation_connection(np.random.default_rng(seed)))

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=20)
    def test_example52_homogeneous_entry(self, seed):
        # random_connection's homogeneous entries rarely solve to Optimal
        # (seeds 216 and 231 of 0..299); every make_example52 does
        assert self.assert_rows_hold(make_example52(seed))


# ---------------------------------------------------------------------------
# judge builds, compiles and reduces each thing once


def convex_connection(entries, n, m, seed):
    """entries strictly convex QCQPs of n variables sharing m <= rows,
    strictly feasible at a random reference point."""
    rng = np.random.default_rng(seed)
    values, parts = np.zeros(m), []
    for _ in range(entries):
        x = rng.standard_normal(n) / np.sqrt(n)
        g = rng.standard_normal((n, n))
        obj = qf(g @ g.T / n + 0.5 * np.eye(n), rng.standard_normal(n))
        cons = []
        for k in range(m):
            g = rng.standard_normal((n, n))
            cons.append(qf(g @ g.T / n + 0.1 * np.eye(n), rng.standard_normal(n)))
            values[k] += qf_eval(cons[-1], x)
        parts.append((obj, cons))
    gamma = values + rng.uniform(0.5, 1.5, size=m) * entries
    rows = [Relation.LE] * m
    return SeparableQcqp(
        [Qcqp(n, obj, list(zip(cons, rows)), gamma) for obj, cons in parts],
        gamma,
    )


class TestJudgeDoesEachOnce:
    """Counts of the work judge repeated: the joint relaxation is built
    once and no row is compiled pair by pair (BlockSdp.from_rows), no
    inhomogeneous sub-problem is built, build_block allocates no zero
    matrix, a homogeneous entry's rows are reduced once and its relaxation
    is never built."""

    def counted(self, monkeypatch, s):
        calls = {
            "relax": 0, "compile": 0, "build_shor": 0, "build_hom": 0, "zeros": 0,
            "reduce_rows": 0, "reduce": 0,
        }
        in_build = []
        relax, zeros = sdpr_builder._relax, SymMatrix.zeros
        from_rows = sdpr_builder.BlockSdp.from_rows
        build, shor = connection.build_block, connection.build_shor
        hom, rank_reduce = connection.build_hom, connection.reduce
        reduce_rows = certificates.reduce_homogeneous_rows

        def counter(key, fn):
            def wrapped(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapped

        def counted_zeros(dim):
            calls["zeros"] += bool(in_build)
            return zeros(dim)

        def counted_build(*args, **kwargs):
            in_build.append(1)
            try:
                return build(*args, **kwargs)
            finally:
                in_build.pop()

        with monkeypatch.context() as m:
            m.setattr(sdpr_builder, "_relax", counter("relax", relax))
            m.setattr(sdpr_builder.BlockSdp, "from_rows", counter("compile", from_rows))
            m.setattr(SymMatrix, "zeros", staticmethod(counted_zeros))
            m.setattr(connection, "build_block", counted_build)
            m.setattr(connection, "build_shor", counter("build_shor", shor))
            m.setattr(connection, "build_hom", counter("build_hom", hom))
            m.setattr(connection, "reduce", counter("reduce", rank_reduce))
            wrapped = counter("reduce_rows", reduce_rows)
            m.setattr(connection, "reduce_homogeneous_rows", wrapped)
            m.setattr(certificates, "reduce_homogeneous_rows", wrapped)
            v = judge(s)
        return v, calls

    def test_wide_convex_connection(self, monkeypatch):
        s = convex_connection(16, 3, 3, seed=1)
        v, calls = self.counted(monkeypatch, s)
        assert v.status is VerdictStatus.EXACT_CERTIFIED
        assert v.reduction is not None
        assert calls["relax"] == 1 and calls["compile"] == 0
        assert calls["build_shor"] == 0
        assert calls["zeros"] == 0

    def test_example52_reduces_homogeneous_rows_once(self, monkeypatch):
        s = make_example52(0)
        v, calls = self.counted(monkeypatch, s)
        assert v.exact
        assert sum(isinstance(e, HomSepQcqp) for e in s.blocks) == 1
        assert calls["reduce_rows"] == 1
        # the homogeneous entry's joint blocks are read as its solution
        # without building its rows again
        assert calls["relax"] == 1 and calls["compile"] == 0
        assert calls["build_hom"] == 0

    def test_not_exact_builds_no_entry_relaxation(self, monkeypatch):
        # NotExact: neither the joint reduction nor a certificate settles
        # it, and the homogeneous entry is not rank-reduced on its own
        # either: the grid oracle decides
        h = make_example51(2.5)
        v, calls = self.counted(monkeypatch, SeparableQcqp([h], h.rhs))
        assert v.status is VerdictStatus.NOT_EXACT
        assert calls["build_hom"] == 0 and calls["reduce"] == 1

    def test_example52_decides_the_sign_pattern_once(self, monkeypatch):
        # entry 2 is the one non-convex inhomogeneous entry: its graph is
        # built and its parity checked once, and the one walk runs twice
        # (for the certificate, then for the gauge it orients)
        calls = {"aggregated_graph": 0, "check_sign_pattern": 0, "_walk": 0}
        for module, name in (
            (connection, "aggregated_graph"),
            (connection, "check_sign_pattern"),
            (certificates, "_walk"),
        ):
            real = getattr(module, name)

            def wrapped(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapped)
        v = judge(make_example52(0))
        assert v.per_block[1].certificate.kind is CertificateKind.SIGN_PATTERN
        assert calls == {"aggregated_graph": 1, "check_sign_pattern": 1, "_walk": 2}


class TestOracleGrid:
    def test_four_variables_take_a_capped_grid(self, monkeypatch):
        """random_connection(557) has 4 flat variables and a box of
        half-width 29: the default grid (101 points per axis before the
        cap) is cut to 31, at most 101**3 points a round, and the verdict
        stays NotExact."""
        s, _ = random_connection(557)
        assert flatten(s).n == 4
        real, grids = connection.brute_force, []

        def recorded(flat, box, **kwargs):
            grids.append((box, kwargs["grid_points"]))
            return real(flat, box, **kwargs)

        monkeypatch.setattr(connection, "brute_force", recorded)
        v = judge(s)
        assert grids == [((-29.0, 29.0), 31)]
        assert 31**4 <= 101**3 < 32**4
        assert v.status is VerdictStatus.NOT_EXACT
        assert v.oracle_value > v.eta + 10 * JudgeOptions().tol

    def test_three_variables_keep_the_full_grid(self, monkeypatch):
        real, grids = connection.brute_force, []

        def recorded(flat, box, **kwargs):
            grids.append(kwargs["grid_points"])
            return real(flat, box, **kwargs)

        monkeypatch.setattr(connection, "brute_force", recorded)
        h = make_example51(2.5)
        assert judge(SeparableQcqp([h], h.rhs)).status is VerdictStatus.NOT_EXACT
        # a box of half-width r takes 10 r + 1 points, below the cap
        assert len(grids) == 1 and grids[0] % 10 == 1 and grids[0] <= 101

    @pytest.mark.parametrize(
        "n, diag, want",
        [
            (1, 0.0, (3.0, 31)),  # r = ceil(1.2 + 1)
            (2, 100.0, (13.0, 101)),  # 131 points cut to 101 per axis
            (3, 100.0, (13.0, 101)),  # 101**3 points: at the cap
            (4, 100.0, (13.0, 31)),  # cut until grid**4 <= 101**3
        ],
    )
    def test_grid_is_ten_r_plus_one_within_the_caps(self, n, diag, want):
        sol = types.SimpleNamespace(blocks=[SymMatrix.from_dense(np.diag([diag, 1.0]))])
        r, grid = want
        assert connection._oracle_box(n, sol) == ((-r, r), grid)

    def test_every_oracle_call_refines_four_rounds(self, monkeypatch):
        real, rounds = connection.brute_force, []

        def recorded(flat, box, **kwargs):
            rounds.append(kwargs["refine_rounds"])
            return real(flat, box, **kwargs)

        monkeypatch.setattr(connection, "brute_force", recorded)
        for alpha in (2.5, 2.8):
            h = make_example51(alpha)
            assert judge(SeparableQcqp([h], h.rhs)).status is VerdictStatus.NOT_EXACT
        assert rounds == [4, 4]

    def test_the_oracle_never_calls_eval_many(self, monkeypatch):
        """The oracle's values are its term sums: one judge of example 5.1
        at alpha = 2.8, NotExact by the oracle, sends no point through
        QuadFunc.eval_many."""
        real, points = QuadFunc.eval_many, []

        def counted(f, pts):
            points.append(pts.shape[0])
            return real(f, pts)

        monkeypatch.setattr(QuadFunc, "eval_many", counted)
        h = make_example51(2.8)
        v = judge(SeparableQcqp([h], h.rhs))
        assert v.status is VerdictStatus.NOT_EXACT and v.oracle_value is not None
        assert points == []


class TestJudgeOptions:
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("name", ["tol", "rank_tol"])
    def test_rejects_non_positive_or_non_finite(self, name, value):
        with pytest.raises(ValueError, match=name):
            JudgeOptions(**{name: value})

    def test_defaults_accepted(self):
        assert JudgeOptions().tol == JudgeOptions().rank_tol == 1e-6
        assert JudgeOptions().max_iter == 200
        assert list(JudgeOptions.__dataclass_fields__) == ["tol", "rank_tol", "max_iter"]

    @pytest.mark.parametrize("value", [0, -1, 2.5, True, None, "fast"])
    def test_rejects_a_max_iter_that_is_no_positive_int(self, value):
        with pytest.raises(ValueError, match="max_iter"):
            JudgeOptions(max_iter=value)

    @pytest.mark.parametrize("cast", [int, np.int32, np.int64])
    def test_max_iter_caps_the_solve(self, cast):
        h = make_example51(2.0)
        v = judge(SeparableQcqp([h], h.rhs), JudgeOptions(max_iter=cast(3)))
        assert v.reason == "solver status MaxIter"
        assert type(v.relaxation.iterations) is int and v.relaxation.iterations == 3

    def test_a_numpy_max_iter_is_kept_as_an_int(self):
        opts = JudgeOptions(max_iter=np.int32(10))
        assert type(opts.max_iter) is int and opts == JudgeOptions(max_iter=10)
        with pytest.raises(ValueError, match="max_iter"):
            JudgeOptions(max_iter=np.bool_(True))

    @pytest.mark.parametrize("box", [(1.0, -1.0), (math.nan, 1.0)])
    def test_the_oracle_box_always_comes_from_the_solution(self, box):
        """There is no oracle_box field: a box that would have reached
        brute_force unchecked, after the joint solve, is not accepted."""
        with pytest.raises(TypeError, match="oracle_box"):
            JudgeOptions(oracle_box=box)

    @pytest.mark.parametrize("name", ["oracle_grid", "oracle_rounds", "solver"])
    def test_the_oracle_and_the_solver_take_no_settings(self, name):
        with pytest.raises(TypeError, match=name):
            JudgeOptions(**{name: 11})


# ---------------------------------------------------------------------------
# verdict-path branches no pool instance reaches


class TestVerdictPathBranches:
    def test_a_wrong_signed_multiplier_leaves_no_entry_a_bound(self):
        # the budget row is <=, so its multiplier is at most 0: at +1 the
        # multipliers are dual-feasible for no entry, and each entry
        # reports nan as its value and its gap
        s = two_convex_connection()
        b = build_block(s)
        sol = solved(s)
        duals = sol.dual_multipliers.copy()
        duals[b.operator.origins == 0] = 1.0
        sol = dataclasses.replace(sol, dual_multipliers=duals)
        stacks = connection._EntryStacks(s)
        y, mus = connection._connection_duals(s, b, sol)
        assert y[0] == 1.0
        feasible = connection._dual_feasible(stacks, y, mus, 1e-6)
        assert feasible.tolist() == [False, False]
        for p, entry in enumerate(s.blocks):
            assert connection._dual_bound(entry, s.gamma, y, mus[p], feasible[p]) is None
        achieved = stacks.at_blocks(sol.blocks)
        per_block, _ = connection._entry_reports(stacks, b, sol, achieved, 1e-6)
        for pb in per_block:
            assert math.isnan(pb.sub_sdpr_value) and math.isnan(pb.optimality_gap)

    @pytest.mark.parametrize("other, other_psd", [(1.0, True), (-20.0, False)])
    def test_an_overflowing_reduced_matrix_is_not_psd(self, other, other_psd):
        # entry 0's objective minus y = -10 times its row overflows to inf;
        # entry 1's 2x2 block, in the same group, is still tested: its
        # reduced matrix is diag(other + 10, 0)
        big = Qcqp(1, qf([[8e307]]), [(qf([[8e307]]), Relation.LE)], [1.0])
        small = Qcqp(1, qf([[other]]), [(qf([[1.0]]), Relation.LE)], [1.0])
        stacks = connection._EntryStacks(SeparableQcqp([big, small], [2.0]))
        assert [idx.tolist() for idx, _ in stacks.groups] == [[0, 1]]
        with np.errstate(over="ignore"):
            got = stacks.reduced_psd(np.array([-10.0]), [0.0, 0.0], 1e-6)
        assert got.tolist() == [False, other_psd]

    def test_a_convex_block_whose_corner_misses_one_is_no_witness(self):
        entry = two_convex_connection().blocks[0]
        cert = check_convex(entry)
        assert cert.kind is CertificateKind.CONVEX
        col = [0.5, -0.5]
        block = np.eye(3)
        block[:2, 2] = block[2, :2] = col
        block[2, 2] = 1.0 + 2e-6
        assert connection._salvage_point(entry, cert, None, SymMatrix.from_dense(block)) is None
        # within 1e-6 of 1 the corner's column is the point
        block[2, 2] = 1.0 + 5e-7
        point = connection._salvage_point(entry, cert, None, SymMatrix.from_dense(block))
        assert point.tolist() == col
