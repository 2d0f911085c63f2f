"""Problem model: evaluation, lifting, feasibility, composition, oracle."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sepqcqp import qcqp_model
from sepqcqp.errors import DimensionError, StructureError
from sepqcqp.qcqp_model import (
    INFEASIBLE,
    HomSepQcqp,
    Qcqp,
    QuadFunc,
    Relation,
    SeparableQcqp,
    brute_force,
    connect,
    eval as eval_quad,
    flatten,
    hom_to_qcqp,
    hom_values,
    is_feasible,
    lift,
    split_point,
)
from sepqcqp.symkernel import SymMatrix, frob_inner

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def qf(quad, linear=None):
    return QuadFunc.from_parts(np.asarray(quad, dtype=float), linear)


class TestQuadFunc:
    def test_corner_must_be_zero(self):
        bad = SymMatrix.from_dense(np.array([[1.0, 0.0], [0.0, 0.5]]))
        with pytest.raises(ValueError):
            QuadFunc(1, bad)

    def test_dim_checked(self):
        with pytest.raises(DimensionError):
            QuadFunc(2, SymMatrix.zeros(2))

    def test_parts_round_trip(self):
        f = qf([[2.0, 1.0], [1.0, -3.0]], [4.0, -5.0])
        assert np.array_equal(
            f.quad_part().to_dense(), np.array([[2.0, 1.0], [1.0, -3.0]])
        )
        assert np.array_equal(f.linear_part(), np.array([4.0, -5.0]))

    def test_eval_frozen(self):
        # (v1 - 2 v2)(v1 - 3 v2) at (3, 1) -> 0
        f = qf([[1.0, -2.5], [-2.5, 6.0]])
        assert eval_quad(f, [3.0, 1.0]) == pytest.approx(0.0, abs=1e-12)
        assert eval_quad(f, [1.0, 0.0]) == pytest.approx(1.0, abs=1e-12)

    def test_eval_with_linear(self):
        # x^2 + 2*3x at x=2 -> 16
        f = qf([[1.0]], [3.0])
        assert eval_quad(f, [2.0]) == pytest.approx(16.0)

    def test_eval_many_matches_eval(self):
        rng = np.random.default_rng(3)
        f = qf(rng.standard_normal((3, 3)), rng.standard_normal(3))
        pts = rng.uniform(-2, 2, size=(40, 3))
        fast = f.eval_many(pts)
        slow = [eval_quad(f, p) for p in pts]
        assert np.allclose(fast, slow, atol=1e-12)


class TestLift:
    @given(seeds, st.integers(min_value=1, max_value=5))
    @settings(max_examples=50, deadline=None)
    def test_lift_reproduces_eval(self, seed, n):
        # f(u) = <B, lift(u)> is the identity the relaxation rests on
        rng = np.random.default_rng(seed)
        f = qf(rng.uniform(-1, 1, size=(n, n)), rng.uniform(-1, 1, size=n))
        u = rng.uniform(-2, 2, size=n)
        assert frob_inner(f.B, lift(u)) == pytest.approx(
            eval_quad(f, u), rel=1e-10, abs=1e-10
        )

    def test_lift_shape_and_corner(self):
        x = lift([1.0, 2.0])
        assert x.dim == 3
        assert x[2, 2] == 1.0
        assert x[0, 2] == 1.0
        assert x[1, 2] == 2.0
        assert x[0, 1] == 2.0


class TestQcqp:
    def make(self):
        obj = qf([[1.0, 0.0], [0.0, 1.0]])
        cons = [
            (qf([[1.0, 0.0], [0.0, 0.0]]), Relation.EQ),
            (qf([[0.0, 0.0], [0.0, 1.0]], [1.0, 0.0]), Relation.LE),
        ]
        return Qcqp(2, obj, cons, [1.0, 5.0])

    def test_shape(self):
        q = self.make()
        assert q.n == 2 and q.m == 2
        assert q.relations == [Relation.EQ, Relation.LE]

    def test_rhs_length_checked(self):
        with pytest.raises(DimensionError):
            Qcqp(1, qf([[1.0]]), [(qf([[1.0]]), Relation.LE)], [1.0, 2.0])

    def test_feasibility_relations(self):
        q = self.make()
        assert is_feasible(q, [1.0, 0.0], 1e-9)
        assert is_feasible(q, [-1.0, 1.0], 1e-9)
        assert not is_feasible(q, [2.0, 0.0], 1e-9)  # EQ row violated
        assert not is_feasible(q, [1.0, 3.0], 1e-9)  # LE row violated
        # tolerance is absolute
        assert is_feasible(q, [1.0 + 1e-7, 0.0], 1e-6)
        assert not is_feasible(q, [1.0 + 1e-5, 0.0], 1e-6)

    def test_ge_rows(self):
        q = Qcqp(1, qf([[1.0]]), [(qf([[1.0]]), Relation.GE)], [4.0])
        assert is_feasible(q, [2.0], 1e-9)
        assert not is_feasible(q, [1.0], 1e-9)


class TestHomSep:
    def make(self):
        c0 = [SymMatrix.identity(2), SymMatrix.from_dense(np.diag([1.0, -1.0]))]
        c1 = [SymMatrix.from_dense([[2.0]]), SymMatrix.from_dense([[1.0]])]
        return HomSepQcqp([c0, c1], [Relation.LE], [3.0])

    def test_shape(self):
        h = self.make()
        assert h.q_hat == 2 and h.m == 1 and h.dims == [2, 1]

    def test_values(self):
        h = self.make()
        vals = hom_values(h, [np.array([1.0, 2.0]), np.array([3.0])])
        # g0 = (1+4) + 2*9 = 23, g1 = (1-4) + 9 = 6
        assert vals == pytest.approx([23.0, 6.0])

    def test_block_matrix_count_checked(self):
        with pytest.raises(DimensionError):
            HomSepQcqp([[SymMatrix.identity(1)]], [Relation.LE], [0.0])

    def test_hom_to_qcqp_agrees_pointwise(self):
        h = self.make()
        s = hom_to_qcqp(h)
        assert isinstance(s, SeparableQcqp) and s.p_hat == 2
        v = [np.array([1.0, 2.0]), np.array([3.0])]
        direct = hom_values(h, v)
        emb_obj = sum(eval_quad(b.objective, vi) for b, vi in zip(s.blocks, v))
        emb_g1 = sum(eval_quad(b.constraints[0][0], vi) for b, vi in zip(s.blocks, v))
        assert emb_obj == pytest.approx(direct[0])
        assert emb_g1 == pytest.approx(direct[1])


class TestConnect:
    def test_shared_relations_enforced(self):
        a = Qcqp(1, qf([[1.0]]), [(qf([[1.0]]), Relation.LE)], [1.0])
        b = Qcqp(1, qf([[1.0]]), [(qf([[1.0]]), Relation.EQ)], [1.0])
        with pytest.raises(StructureError):
            connect([a, b], [1.0])

    def test_zero_padding(self):
        a = Qcqp(
            1,
            qf([[1.0]]),
            [(qf([[1.0]]), Relation.LE), (qf([[-1.0]]), Relation.GE)],
            [1.0, -4.0],
        )
        b = Qcqp(1, qf([[2.0]]), [(qf([[1.0]]), Relation.LE)], [1.0])
        s = connect([a, b], [2.0, -4.0])
        assert s.m == 2
        padded = s.blocks[1]
        assert padded.m == 2
        assert padded.constraints[1][0].is_zero()
        assert padded.constraints[1][1] is Relation.GE

    def test_gamma_length_checked(self):
        a = Qcqp(1, qf([[1.0]]), [(qf([[1.0]]), Relation.LE)], [1.0])
        with pytest.raises(DimensionError):
            connect([a], [1.0, 2.0])

    def test_mixed_entries(self):
        a = Qcqp(1, qf([[1.0]]), [(qf([[1.0]]), Relation.LE)], [1.0])
        h = HomSepQcqp(
            [[SymMatrix.identity(1), SymMatrix.from_dense([[1.0]])]],
            [Relation.LE],
            [1.0],
        )
        s = connect([a, h], [5.0])
        assert s.p_hat == 2 and s.m == 1


class TestFlatten:
    def test_values_add_across_blocks(self):
        a = Qcqp(1, qf([[1.0]], [1.0]), [(qf([[1.0]]), Relation.LE)], [1.0])
        b = Qcqp(2, qf([[1.0, 0.0], [0.0, 2.0]]), [(qf([[1.0, 1.0], [1.0, 0.0]]), Relation.LE)], [1.0])
        s = connect([a, b], [3.0])
        flat = flatten(s)
        assert flat.n == 3 and flat.m == 1
        u = np.array([1.5, -0.5, 2.0])
        parts = split_point(s, u)
        want_obj = eval_quad(a.objective, parts[0]) + eval_quad(b.objective, parts[1])
        want_g1 = eval_quad(a.constraints[0][0], parts[0]) + eval_quad(
            b.constraints[0][0], parts[1]
        )
        assert eval_quad(flat.objective, u) == pytest.approx(want_obj)
        assert eval_quad(flat.constraints[0][0], u) == pytest.approx(want_g1)
        assert np.array_equal(flat.rhs, s.gamma)

    def test_homogeneous_entry_expands(self):
        h = HomSepQcqp(
            [
                [SymMatrix.identity(2), SymMatrix.from_dense(np.diag([1.0, -1.0]))],
                [SymMatrix.from_dense([[2.0]]), SymMatrix.from_dense([[1.0]])],
            ],
            [Relation.LE],
            [3.0],
        )
        s = SeparableQcqp([h], [3.0])
        flat = flatten(s)
        assert flat.n == 3
        v = np.array([1.0, 2.0, 3.0])
        want = hom_values(h, [v[:2], v[2:]])
        assert eval_quad(flat.objective, v) == pytest.approx(want[0])
        assert eval_quad(flat.constraints[0][0], v) == pytest.approx(want[1])


def full_grid_brute_force(q, box, grid_points=11, refine_rounds=4, feas_tol=1e-6):
    """The grid oracle as one eval_many pass over the whole grid per round:
    the reference that brute_force must match bit for bit."""
    pairs = np.asarray(box, dtype=np.float64)
    if pairs.shape == (2,):
        pairs = np.tile(pairs, (q.n, 1))
    centers = 0.5 * (pairs[:, 0] + pairs[:, 1])
    widths = pairs[:, 1] - pairs[:, 0]
    best_val, best_pt = INFEASIBLE, None
    for _ in range(refine_rounds + 1):
        los = np.maximum(pairs[:, 0], centers - 0.5 * widths)
        his = np.minimum(pairs[:, 1], centers + 0.5 * widths)
        axes = [np.linspace(lo, hi, grid_points) for lo, hi in zip(los, his)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.ravel() for g in mesh], axis=1)
        feas = np.ones(pts.shape[0], dtype=bool)
        for (f, rel), d in zip(q.constraints, q.rhs):
            vals = f.eval_many(pts)
            if rel is Relation.LE:
                feas &= vals <= d + feas_tol
            elif rel is Relation.GE:
                feas &= vals >= d - feas_tol
            else:
                feas &= np.abs(vals - d) <= feas_tol
        if feas.any():
            obj = q.objective.eval_many(pts[feas])
            i = int(np.argmin(obj))
            if float(obj[i]) < best_val:
                best_val = float(obj[i])
                best_pt = pts[feas][i].copy()
        if best_pt is None:
            return INFEASIBLE, None
        centers = best_pt
        widths = 0.5 * widths
    return best_val, best_pt


half_steps = st.integers(min_value=-4, max_value=4).map(lambda k: 0.5 * k)


@st.composite
def lattice_qcqps(draw):
    """QCQPs with n <= 4 and coefficients on the 0.5 lattice, so ties, points
    exactly on a row's boundary and infeasible draws all occur."""
    n = draw(st.integers(min_value=1, max_value=4))

    def func():
        quad = np.array(draw(st.lists(half_steps, min_size=n * n, max_size=n * n)))
        quad = quad.reshape(n, n)
        if draw(st.booleans()):
            quad = np.diag(np.diag(quad))
        lin = np.array(draw(st.lists(half_steps, min_size=n, max_size=n)))
        return qf(quad, lin)

    rels = draw(st.lists(st.sampled_from(list(Relation)), max_size=3))
    rhs = draw(st.lists(half_steps, min_size=len(rels), max_size=len(rels)))
    return Qcqp(n, func(), [(func(), rel) for rel in rels], rhs)


def same_result(got, want) -> bool:
    (val, pt), (ref_val, ref_pt) = got, want
    if ref_pt is None:
        return pt is None and val == ref_val
    return val == ref_val and np.array_equal(pt, ref_pt)


def two_point_problem(seed: int) -> Qcqp:
    """A random objective over rows that leave two points of the default
    grid on [-1, 1]: (1, 0.2, ...) and (-1, -0.2, ...)."""
    rng = np.random.default_rng(seed)
    n = 2 + seed % 2
    rows = [np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0])]
    rows.append(np.array([[0.0, 0.5, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    rows.append(np.diag([0.0, 0.0, 1.0]))
    rhs = [1.0, 0.04, 0.2, 0.36]
    m = 3 if n == 2 else 4
    return Qcqp(
        n,
        qf(rng.standard_normal((n, n)), rng.standard_normal(n)),
        [(qf(r[:n, :n]), Relation.EQ) for r in rows[:m]],
        rhs[:m],
    )


class TestBruteForce:
    def test_unconstrained_quadratic(self):
        # min (x-2)^2 = x^2 - 4x + 4; constant dropped: min x^2 - 4x = -4 at x=2
        q = Qcqp(1, qf([[1.0]], [-2.0]), [(QuadFunc.zero(1), Relation.LE)], [0.0])
        val, pt = brute_force(q, (-5.0, 5.0), grid_points=11, refine_rounds=8)
        assert val == pytest.approx(-4.0, abs=1e-4)
        assert pt[0] == pytest.approx(2.0, abs=1e-3)

    def test_infeasible_marker(self):
        q = Qcqp(1, qf([[1.0]]), [(qf([[1.0]]), Relation.LE)], [-1.0])
        val, pt = brute_force(q, (-5.0, 5.0))
        assert val == INFEASIBLE and math.isinf(val) and pt is None

    def test_equality_on_grid(self):
        # min x2 s.t. x1^2 = 1, x2 >= x1: optimum -? with x1=-1, x2=-1... keep LE box only
        obj = qf([[0.0, 0.0], [0.0, 0.0]], [0.0, 0.5])  # f = x2
        q = Qcqp(
            2,
            obj,
            [
                (qf([[1.0, 0.0], [0.0, 0.0]]), Relation.EQ),
                (qf([[0.0, 0.0], [0.0, 1.0]]), Relation.LE),
            ],
            [1.0, 4.0],
        )
        val, pt = brute_force(q, (-5.0, 5.0), grid_points=11)
        assert val == pytest.approx(-2.0, abs=1e-9)
        assert abs(pt[0]) == pytest.approx(1.0, abs=1e-9)
        assert pt[1] == pytest.approx(-2.0, abs=1e-9)

    def test_refinement_monotone(self):
        rng = np.random.default_rng(11)
        g = rng.standard_normal((2, 2))
        q = Qcqp(
            2,
            qf(g @ g.T + 0.1 * np.eye(2), rng.standard_normal(2)),
            [(qf(np.eye(2)), Relation.LE)],
            [9.0],
        )
        prev = INFEASIBLE
        for rounds in range(0, 7):
            val, _ = brute_force(q, (-4.0, 4.0), refine_rounds=rounds)
            assert val <= prev + 1e-12
            prev = val

    def test_n_cap(self):
        q = Qcqp(5, QuadFunc.zero(5), [(QuadFunc.zero(5), Relation.LE)], [0.0])
        with pytest.raises(DimensionError):
            brute_force(q, (-1.0, 1.0))

    def test_grid_floor(self):
        q = Qcqp(1, qf([[1.0]]), [(QuadFunc.zero(1), Relation.LE)], [0.0])
        with pytest.raises(ValueError):
            brute_force(q, (-1.0, 1.0), grid_points=5)

    def test_rejects_negative_rounds(self):
        # a negative count ran no round and reported no feasible point
        q = Qcqp(1, qf([[1.0]]), [(QuadFunc.zero(1), Relation.LE)], [0.0])
        with pytest.raises(ValueError, match="refine_rounds"):
            brute_force(q, (-1.0, 1.0), refine_rounds=-1)
        assert brute_force(q, (-1.0, 1.0), refine_rounds=0)[0] == 0.0

    def test_per_coordinate_box(self):
        # min x1 + x2 over [0,1] x [2,3] -> 2 at (0, 2) (no constraints binding)
        obj = qf(np.zeros((2, 2)), [0.5, 0.5])
        q = Qcqp(2, obj, [(QuadFunc.zero(2), Relation.LE)], [0.0])
        val, pt = brute_force(q, [(0.0, 1.0), (2.0, 3.0)])
        assert val == pytest.approx(2.0, abs=1e-9)
        assert pt == pytest.approx([0.0, 2.0], abs=1e-9)

    @pytest.mark.parametrize(
        "box",
        [
            (math.nan, 1.0),
            (-math.inf, 1.0),
            (0.0, math.inf),
            (math.nan, math.nan),
            [(0.0, 1.0), (-1.0, math.inf)],
        ],
    )
    def test_non_finite_box_rejected(self, box):
        n = 2 if isinstance(box, list) else 1
        q = Qcqp(n, qf(np.eye(n)), [], [])
        with pytest.raises(DimensionError, match="bad box"):
            brute_force(q, box)

    @given(
        lattice_qcqps(),
        st.sampled_from([1.0, 2.0, 3.0]),
        st.sampled_from([11, 21]),
        st.integers(min_value=0, max_value=3),
        st.sampled_from([50, 1000, 1 << 16]),
    )
    @settings(max_examples=60)
    @example(  # a single feasible point, on the boundary of two rows
        Qcqp(2, qf(np.eye(2), [0.5, -0.5]),
             [(qf(np.eye(2)), Relation.LE), (qf(np.zeros((2, 2)), [0.5, 0.5]), Relation.GE)],
             [0.0, 0.0]),
        1.0, 11, 2, 50,
    )
    @example(  # no constraint rows: every grid point is feasible
        Qcqp(3, qf(np.diag([0.5, -0.5, 0.0]), [0.0, 0.0, 1.0]), [], []),
        2.0, 21, 1, 50,
    )
    def test_matches_full_grid_bit_for_bit(self, q, half_width, grid, rounds, slab):
        if q.n == 4:
            grid = 11
        want = full_grid_brute_force(q, (-half_width, half_width), grid, rounds)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(qcqp_model, "_SLAB", slab)
            got = brute_force(q, (-half_width, half_width), grid, rounds)
        assert same_result(got, want)

    @pytest.mark.parametrize("slab", [5, 60, 1 << 16])
    def test_few_feasible_points_across_slabs(self, slab):
        # numpy evaluates a batch of one or two points in another order than
        # a larger one; the oracle must still reproduce the full-grid values
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(qcqp_model, "_SLAB", slab)
            for seed in range(24):
                q = two_point_problem(seed)
                want = full_grid_brute_force(q, (-1.0, 1.0), refine_rounds=1)
                got = brute_force(q, (-1.0, 1.0), refine_rounds=1)
                assert want[1] is not None
                assert same_result(got, want), seed

    @pytest.mark.parametrize("rel", [Relation.EQ, Relation.LE])
    def test_row_tight_at_a_grid_point(self, rel):
        # with feas_tol = 0 a row whose rhs is eval_many's exact value at one
        # grid point keeps that point; the screen's own arithmetic rounds
        # differently, so only its widened tolerance lets the point through
        for seed in range(30):
            rng = np.random.default_rng(seed)
            n = 2 + seed % 2
            row = qf(rng.standard_normal((n, n)), rng.standard_normal(n))
            axis = np.linspace(-1.0, 1.0, 11)
            grid = np.stack([g.ravel() for g in np.meshgrid(*[axis] * n, indexing="ij")], axis=1)
            d = row.eval_many(grid)[rng.integers(grid.shape[0])]
            q = Qcqp(n, qf(rng.standard_normal((n, n))), [(row, rel)], [d])
            want = full_grid_brute_force(q, (-1.0, 1.0), refine_rounds=0, feas_tol=0.0)
            got = brute_force(q, (-1.0, 1.0), refine_rounds=0, feas_tol=0.0)
            assert want[1] is not None
            assert same_result(got, want), seed

    def test_screen_keeps_points_where_its_sum_overflows(self):
        # the screen doubles the coupling to 1.6e308 and overflows where
        # |u1| >= 1.6, giving inf * 0 = NaN at (u1, 0); eval_many sums the
        # two halves and reads 0 there, so (-2, 0) is feasible and optimal
        q = Qcqp(
            2,
            qf(np.diag([-1.0, 0.0])),
            [(qf([[0.0, 8e307], [8e307, 0.0]]), Relation.LE)],
            [1.0],
        )
        with np.errstate(all="ignore"):
            want = full_grid_brute_force(q, (-2.0, 2.0), refine_rounds=0)
            got = brute_force(q, (-2.0, 2.0), refine_rounds=0)
        assert np.array_equal(want[1], [-2.0, 0.0])
        assert same_result(got, want)

    @pytest.mark.parametrize(
        "rel, rhs, feasible",
        [(Relation.LE, -1.0, False), (Relation.GE, 1.0, False),
         (Relation.EQ, 0.0, True), (Relation.LE, 0.0, True)],
    )
    def test_variable_free_row(self, rel, rhs, feasible):
        q = Qcqp(2, qf(np.eye(2), [1.0, 0.0]), [(QuadFunc.zero(2), rel)], [rhs])
        got = brute_force(q, (-2.0, 2.0), refine_rounds=1)
        assert same_result(got, full_grid_brute_force(q, (-2.0, 2.0), refine_rounds=1))
        assert (got[1] is not None) is feasible

    def test_memory_stays_bounded_at_n4(self):
        # one full-grid pass would hold the 61^4-point grid several times
        # over (about 1.5 GB); slabs keep the traced peak small
        q = Qcqp(4, qf(np.zeros((4, 4)), [0.5] * 4), [(qf(np.eye(4)), Relation.LE)], [4.0])
        tracemalloc.start()
        try:
            val, pt = brute_force(q, (-2.0, 2.0), grid_points=61, refine_rounds=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert val == -4.0 and np.array_equal(pt, [-1.0] * 4)
        assert peak < 64 * 2**20
