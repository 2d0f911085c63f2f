"""Problem model: evaluation, lifting, feasibility, composition, oracle."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sepqcqp import qcqp_model
from sepqcqp.certificates import CertificateKind
from sepqcqp.connection import VerdictStatus, judge
from sepqcqp.errors import DimensionError, RangeError, StructureError
from sepqcqp.examples import make_example51
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
from sepqcqp.sdpr_builder import BlockSdp
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

    @pytest.mark.parametrize("count", [1, 3, 1000])
    def test_eval_many_bits_do_not_depend_on_layout(self, count):
        # einsum sums in the order of the strides: Fortran-ordered and
        # column-sliced points must still give the C-ordered points' bits
        rng = np.random.default_rng(count)
        for n in (2, 3, 4):
            f = qf(rng.standard_normal((n, n)), rng.standard_normal(n))
            pts = rng.uniform(-2.0, 2.0, size=(count, n))
            want = f.eval_many(pts)
            assert np.array_equal(f.eval_many(np.asfortranarray(pts)), want)
            wide = np.concatenate((pts, pts), axis=1)
            assert np.array_equal(f.eval_many(wide[:, :n]), want)


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

    def test_zero_dimensional_block_rejected(self):
        # judge used to fail inside the IPM's first scan with numpy's
        # "zero-size array to reduction operation maximum"
        z0, i2 = SymMatrix.zeros(0), SymMatrix.identity(2)
        with pytest.raises(DimensionError, match="positive"):
            judge(SeparableQcqp([HomSepQcqp([[z0, z0], [i2, i2]], [Relation.EQ], [1.0])], [1.0]))

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


def _non_finite_rhs(model, bad):
    """model built with one non-finite right-hand side."""
    i2 = SymMatrix.identity(2)
    if model == "Qcqp":
        return Qcqp(1, qf([[1.0]]), [(qf([[1.0]]), Relation.LE)], [bad])
    if model == "HomSepQcqp":
        return HomSepQcqp([[i2, i2]], [Relation.EQ], [bad])
    if model == "SeparableQcqp":
        h = HomSepQcqp([[i2, i2]], [Relation.EQ], [1.0])
        return SeparableQcqp([h], [bad])
    return BlockSdp.from_rows((2,), (i2,), [((i2,), 0, bad)])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("model", ["Qcqp", "HomSepQcqp", "SeparableQcqp", "BlockSdp"])
def test_non_finite_rhs_rejected(model, bad):
    # these used to run the whole IPM and end Undetermined, "solver status
    # Diverged"
    with pytest.raises(RangeError, match=r"\[0\]: value must be finite"):
        _non_finite_rhs(model, bad)


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

    def test_homogeneous_padding_is_judged(self):
        # a one-row homogeneous entry next to example 5.1's three rows is
        # padded with zero matrices under the longer list's relations; the
        # connection builds and judges, and the padded rows allocate 0
        q = Qcqp(1, qf([[1.0]], [-2.0]), [(qf([[1.0]]), Relation.EQ)], [1.0])
        one = SymMatrix.identity(1)
        short = HomSepQcqp([[one, one]], [Relation.EQ], [1.0])
        h = make_example51(3.0)
        s = connect([q, short, h], [3.0, 0.0, 0.0])
        padded = s.blocks[1]
        assert isinstance(padded, HomSepQcqp)
        assert padded.relations == h.relations
        assert all(c.is_zero() for c in padded.blocks[0][2:])
        assert list(padded.rhs) == [1.0, 0.0, 0.0]
        v = judge(s)
        assert v.status is VerdictStatus.EXACT_WITNESSED
        assert list(v.delta_decomposition[1][1:]) == [0.0, 0.0]
        assert v.per_block[1].certificate.kind is CertificateKind.HOM_LIMITED
        assert abs(v.zeta_witness - v.eta) <= 1e-6 * (1.0 + abs(v.eta))

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
    """QCQPs with n <= 4 and coefficients on the 0.5 lattice times a drawn
    scale, so ties, points exactly on a row's boundary and infeasible draws
    all occur. At the scale 1e307 the oracle's grid sums can overflow, so
    its overflow guards run too."""
    n = draw(st.integers(min_value=1, max_value=4))
    scale = draw(st.sampled_from([1.0, 1e150, 1e300, 1e307]))

    def func():
        quad = np.array(draw(st.lists(half_steps, min_size=n * n, max_size=n * n)))
        quad = quad.reshape(n, n)
        if draw(st.booleans()):
            quad = np.diag(np.diag(quad))
        lin = np.array(draw(st.lists(half_steps, min_size=n, max_size=n)))
        return qf(scale * quad, scale * lin)

    rels = draw(st.lists(st.sampled_from(list(Relation)), max_size=3))
    rhs = draw(st.lists(half_steps, min_size=len(rels), max_size=len(rels)))
    return Qcqp(n, func(), [(func(), rel) for rel in rels], scale * np.array(rhs))


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
        # the reference's eval_many overflows at the 1e307 scale on purpose
        with np.errstate(over="ignore", invalid="ignore"):
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

    def test_memory_stays_bounded_with_a_row_over_one_axis(self):
        # the row on u1 alone keeps every point of the 41^4 grid: listed as
        # one round they would take about 90 MB, so the round goes by slabs
        q = Qcqp(4, qf(np.zeros((4, 4)), [0.5] * 4), [(qf(np.diag([1.0, 0, 0, 0])), Relation.LE)], [4.0])
        tracemalloc.start()
        try:
            val, pt = brute_force(q, (-2.0, 2.0), grid_points=41, refine_rounds=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert val == -8.0 and np.array_equal(pt, [-2.0] * 4)
        assert peak < 64 * 2**20

    def test_round_whose_survivors_lie_along_the_last_axis(self):
        # u3 >= 4.9 keeps one value of u3 and 51^2 survivors, few enough to
        # list the round of 51^3 points at once, but finding them would
        # scan all of it: the round is walked slab by slab
        rng = np.random.default_rng(3)
        q = Qcqp(
            3,
            qf(rng.standard_normal((3, 3)), rng.standard_normal(3)),
            [(qf(np.zeros((3, 3)), [0.0, 0.0, 0.5]), Relation.GE)],
            [4.9],
        )
        got = brute_force(q, (-5.0, 5.0), grid_points=51, refine_rounds=1)
        assert same_result(got, full_grid_brute_force(q, (-5.0, 5.0), 51, 1))

    @pytest.mark.parametrize("feas_tol", [math.nan, math.inf, -math.inf, -1e-6])
    def test_rejects_bad_feas_tol(self, feas_tol):
        # NaN read as "no feasible point", inf as "every grid point feasible"
        q = Qcqp(1, qf([[1.0]]), [(qf([[1.0]]), Relation.LE)], [1.0])
        with pytest.raises(ValueError, match="feas_tol"):
            brute_force(q, (-1.0, 1.0), feas_tol=feas_tol)
        assert brute_force(q, (-1.0, 1.0), feas_tol=0.0)[0] == 0.0

    @pytest.mark.parametrize(
        "kwargs, name",
        [({"grid_points": 11.5}, "grid_points"), ({"grid_points": 11.0}, "grid_points"),
         ({"grid_points": True}, "grid_points"), ({"refine_rounds": True}, "refine_rounds"),
         ({"refine_rounds": 2.0}, "refine_rounds"), ({"grid_points": np.bool_(True)}, "grid_points"),
         ({"refine_rounds": np.bool_(False)}, "refine_rounds"),
         ({"grid_points": np.float64(11.0)}, "grid_points"), ({"grid_points": np.int64(10)}, "grid_points")],
    )
    def test_rejects_non_integer_counts(self, kwargs, name):
        # a bool ran one round, and a float failed inside linspace or range
        q = Qcqp(1, qf([[1.0]]), [(QuadFunc.zero(1), Relation.LE)], [0.0])
        with pytest.raises(ValueError, match=name):
            brute_force(q, (-1.0, 1.0), **kwargs)

    def test_accepts_numpy_integer_counts(self):
        q = Qcqp(2, qf([[1.0, 0.3], [0.3, -1.0]], [0.2, -0.1]), [(qf(np.eye(2)), Relation.LE)], [2.0])
        want = brute_force(q, (-2.0, 2.0), grid_points=21, refine_rounds=2)
        got = brute_force(q, (-2.0, 2.0), grid_points=np.int64(21), refine_rounds=np.int32(2))
        assert same_result(got, want)

    @pytest.mark.parametrize(
        "rel, rhs, at", [(Relation.LE, -1.5e308, (10, 3)), (Relation.GE, 1.5e308, (10, 7)),
                         (Relation.EQ, None, (10, 6))],
    )
    @pytest.mark.parametrize("slab", [100, 1 << 16])
    def test_an_overflowing_grid_sum_is_never_sure(self, rel, rhs, at, slab):
        # the coupling 2 * 8e307 u1 u2 overflows on the grid once |u1| >= 1.2
        # (to inf, or NaN where u2 = 0) while eval_many stays finite as long
        # as |u1 u2| <= 1.12; u1 >= 1.9 leaves u1 = 2, and the objective
        # favours small |u2|. At (2, 0.4) the grid reads inf, which holds
        # within any tolerance of a >= row, while eval_many reads
        # 1.28e308 < 1.5e308: only the exact re-check may decide such a
        # point (likewise -inf for <=). A slab of 100 points makes the
        # round one list, so the coupled row is screened on the survivors
        coupled = qf([[0.0, 8e307], [8e307, 0.0]])
        u1 = qf(np.zeros((2, 2)), [0.5, 0.0])
        axis = np.linspace(-2.0, 2.0, 11)
        grid = np.stack([g.ravel() for g in np.meshgrid(axis, axis, indexing="ij")], axis=1)
        with np.errstate(all="ignore"), pytest.MonkeyPatch.context() as mp:
            mp.setattr(qcqp_model, "_SLAB", slab)
            if rhs is None:
                rhs = coupled.eval_many(grid)[11 * 10 + 6]
            q = Qcqp(2, qf(np.diag([-1.0, 1.0])), [(u1, Relation.GE), (coupled, rel)], [1.9, rhs])
            want = full_grid_brute_force(q, (-2.0, 2.0), refine_rounds=0)
            got = brute_force(q, (-2.0, 2.0), refine_rounds=0)
            assert np.isinf((1.6e308 * axis[10]) * axis[6])
        assert np.array_equal(want[1], axis[list(at)])
        assert same_result(got, want)

    @pytest.mark.parametrize("rows", [0, 1])
    def test_objective_whose_grid_sum_overflows(self, rows):
        # the grid objective reads NaN at (+-1.2, 0) and inf beyond, where
        # eval_many reads 0 or finite values: every point is evaluated
        obj = qf([[0.0, 8e307], [8e307, 0.0]], [-0.5, 0.0])
        cons = [(qf(np.eye(2)), Relation.LE)][:rows]
        q = Qcqp(2, obj, cons, [1.45][:rows])
        with np.errstate(all="ignore"):
            want = full_grid_brute_force(q, (-2.0, 2.0), refine_rounds=1)
            got = brute_force(q, (-2.0, 2.0), refine_rounds=1)
        assert want[1] is not None
        assert same_result(got, want)

    def test_no_warning_reaches_the_caller(self):
        # a lattice problem at the scale 1e307: the screen's grid sums
        # overflow (to inf, and NaN where two infinities meet), which
        # brute_force handles without letting numpy's warnings out
        scale = 1e307
        obj = qf(scale * np.array([[1.0, -1.5], [-1.5, 2.0]]), [0.5 * scale, -scale])
        row = qf(scale * np.array([[2.0, 1.5], [1.5, 2.0]]))
        q = Qcqp(2, obj, [(row, Relation.LE)], [scale * 1.5])
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = brute_force(q, (-4.0, 4.0))
        assert np.geterr() == before
        with np.errstate(over="ignore", invalid="ignore"):
            want = full_grid_brute_force(q, (-4.0, 4.0))
        assert want[1] is not None
        assert same_result(got, want)

    def test_eval_many_overflow_where_the_grid_sum_does_not(self):
        # with |u1| <= 1e-3 the grid sum (2e307 u1) u2 stays below 2e306,
        # but eval_many also forms u2 * 1e307 * u1, whose first product
        # overflows: such a row gets an infinite margin, so neither the
        # screen nor the band test trusts its finite grid sum
        box = [(-1e-3, 1e-3), (-100.0, 100.0)]
        row = qf([[0.0, 1e307], [1e307, 0.0]])
        with np.errstate(all="ignore"):
            assert np.isinf(row.eval_many(np.array([[1e-3, 100.0], [0.0, 0.0], [0.0, 0.0]]))[0])
            for rel, rhs in [(Relation.LE, 1e307), (Relation.GE, 1e307)]:
                q = Qcqp(2, qf(np.diag([0.0, -1.0])), [(row, rel)], [rhs])
                want = full_grid_brute_force(q, box, refine_rounds=0)
                got = brute_force(q, box, refine_rounds=0)
                assert want[1] is not None
                assert same_result(got, want), rel

    @pytest.mark.parametrize(
        "rel, rhs, feasible",
        [(Relation.EQ, 1e-6, True), (Relation.EQ, 1e-6 + 1e-13, False),
         (Relation.LE, -1e-6, True), (Relation.LE, -1e-6 - 1e-13, False),
         (Relation.GE, 1e-6, True), (Relation.GE, 1e-6 + 1e-13, False)],
    )
    @pytest.mark.parametrize("objective", [qf(np.eye(2), [1.0, 0.0]), QuadFunc.zero(2)])
    def test_variable_free_row_inside_the_margin(self, rel, rhs, feasible, objective):
        # the grid value is the scalar 0.0, and rhs lies within the
        # screen's margin of feas_tol: the screen keeps every point, and
        # only the exact test may decide it either way
        q = Qcqp(2, objective, [(QuadFunc.zero(2), rel)], [rhs])
        got = brute_force(q, (-2.0, 2.0), refine_rounds=1)
        assert same_result(got, full_grid_brute_force(q, (-2.0, 2.0), refine_rounds=1))
        assert (got[1] is not None) is feasible

    @pytest.mark.parametrize("slab", [5, 60, 1 << 16])
    def test_one_or_two_band_points(self, slab):
        # with feas_tol = 0 an = row is never sure; the first row leaves u2
        # out and is tight at one grid point, the second keeps one or two
        # values of u2, so the band holds one or two points, which must be
        # evaluated as a larger batch would be
        real, sizes, bands = qcqp_model._eval_batched, [], set()

        def recorded(f, pts):
            sizes.append(pts.shape[0])
            return real(f, pts)

        axis = np.linspace(-1.0, 1.0, 11)
        grid = np.stack([g.ravel() for g in np.meshgrid(axis, axis, axis, indexing="ij")], axis=1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(qcqp_model, "_SLAB", slab)
            for seed in range(16):
                rng = np.random.default_rng(seed)
                quad = rng.standard_normal((3, 3))
                quad[1, :] = quad[:, 1] = 0.0
                row = qf(quad, [rng.standard_normal(), 0.0, rng.standard_normal()])
                d = row.eval_many(grid)[121 * rng.integers(11) + rng.integers(11)]
                u2 = qf(np.zeros((3, 3)), [0.0, 0.5, 0.0])
                q = Qcqp(3, qf(rng.standard_normal((3, 3))),
                         [(row, Relation.EQ), (u2, Relation.LE)], [d, -0.7 - 0.2 * (seed % 2)])
                want = full_grid_brute_force(q, (-1.0, 1.0), refine_rounds=0, feas_tol=0.0)
                sizes.clear()
                mp.setattr(qcqp_model, "_eval_batched", recorded)
                got = brute_force(q, (-1.0, 1.0), refine_rounds=0, feas_tol=0.0)
                mp.setattr(qcqp_model, "_eval_batched", real)
                assert want[1] is not None
                assert same_result(got, want), seed
                bands.add(sizes[0])
        # points that differ in u2 alone lie 11 apart in C order, so a slab
        # of 5 points never holds two of them
        assert bands == ({1} if slab == 5 else {1, 2})

    @pytest.mark.parametrize("slab", [5, 60, 1 << 16])
    def test_ties_at_the_slab_minimum(self, slab):
        # (v'u)^2 + 2 b'u with v and b on a lattice takes equal or nearly
        # equal values at many grid points, where eval_many and the grid sum
        # may round apart: the first exact minimum wins, not the first
        # minimum of the grid sums
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(qcqp_model, "_SLAB", slab)
            for seed in range(12):
                rng = np.random.default_rng(seed)
                n = 2 + seed % 2
                v = 0.5 * rng.integers(-3, 4, n)
                obj = qf(np.outer(v, v), 0.25 * rng.integers(-2, 3, n))
                q = Qcqp(n, obj, [(qf(np.eye(n)), Relation.LE)], [rng.uniform(0.5, 3.0)])
                for grid in (11, 21):
                    want = full_grid_brute_force(q, (-1.3, 1.3), grid, 1)
                    got = brute_force(q, (-1.3, 1.3), grid, 1)
                    assert same_result(got, want), (seed, grid)
