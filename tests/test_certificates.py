"""Certificates: convexity, sign patterns, homogeneous rank counting."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sepqcqp import certificates
from sepqcqp.certificates import (
    Certificate,
    CertificateKind,
    SignCase,
    SparsityGraph,
    aggregated_graph,
    check_assumption_A,
    check_convex,
    check_m_le_2,
    check_sign_pattern,
    cycle_basis,
    extract_convex_solution,
    nonpositive_gauge,
    pataki_count,
    reduce_homogeneous_rows,
    sign_gauge,
)
from sepqcqp.errors import DimensionError, StructureError
from sepqcqp.examples import make_example51
from sepqcqp.qcqp_model import (
    HomSepQcqp,
    Qcqp,
    QuadFunc,
    Relation,
    lift,
)
from sepqcqp.sdp_solver import solve
from sepqcqp.sdpr_builder import SdpSolution, SolveStatus, build_hom, build_shor
from sepqcqp.symkernel import SymMatrix, numeric_rank


def qf(quad, linear=None):
    return QuadFunc.from_parts(np.asarray(quad, dtype=float), linear)


def sym(rows):
    return SymMatrix.from_dense(np.asarray(rows, dtype=float))


def two_block_family(alpha):
    c1 = [
        sym(np.diag([1.0, 0.0])),
        sym(np.diag([0.0, 1.0])),
        sym([[1.0, -(4 + alpha) / 2], [-(4 + alpha) / 2, 4 * alpha]]),
        sym([[-1.0, 2.5], [2.5, -6.0]]),
    ]
    c2 = [sym([[-1.0]]), SymMatrix.zeros(1), SymMatrix.zeros(1), sym([[1.0]])]
    return HomSepQcqp(
        [c1, c2], [Relation.EQ, Relation.LE, Relation.LE], [1.0, 0.0, 0.0]
    )


class TestCheckConvex:
    def test_simple_convex(self):
        q = Qcqp(1, qf([[1.0]]), [(qf([[1.0]]), Relation.LE)], [1.0])
        cert = check_convex(q)
        assert cert.kind is CertificateKind.CONVEX
        assert not cert.depends_on_solution

    def test_nan_tol_rejected(self):
        # is_psd_many rejects it; a NaN tol used to fail every PSD test
        q = Qcqp(1, qf([[1.0]]), [(qf([[1.0]]), Relation.LE)], [1.0])
        with pytest.raises(ValueError, match="tol"):
            check_convex(q, tol=float("nan"))

    def test_indefinite_quadratic_part(self):
        # det of [[1,-2],[-2,0]] is -4: mixed eigenvalues
        q = Qcqp(
            2,
            qf(np.eye(2)),
            [(qf([[1.0, -2.0], [-2.0, 0.0]]), Relation.LE)],
            [0.0],
        )
        cert = check_convex(q)
        assert cert.kind is CertificateKind.NONE
        assert "constraint 0" in cert.details

    def test_eq_relation_blocks(self):
        q = Qcqp(1, qf([[1.0]]), [(qf([[1.0]]), Relation.EQ)], [1.0])
        assert check_convex(q).kind is CertificateKind.NONE

    def test_nonconvex_objective(self):
        q = Qcqp(1, qf([[-1.0]]), [(qf([[1.0]]), Relation.LE)], [1.0])
        cert = check_convex(q)
        assert cert.kind is CertificateKind.NONE
        assert "objective" in cert.details

    def test_vacuous_zero_row_ignored(self):
        q = Qcqp(
            1,
            qf([[1.0]]),
            [(QuadFunc.zero(1), Relation.EQ), (qf([[1.0]]), Relation.LE)],
            [0.0, 1.0],
        )
        assert check_convex(q).kind is CertificateKind.CONVEX

    def test_rhs_independent(self):
        rng = np.random.default_rng(5)
        cons = [(qf([[1.0]], [0.5]), Relation.LE), (qf([[2.0]]), Relation.LE)]
        base = check_convex(Qcqp(1, qf([[1.0]]), cons, [1.0, 1.0])).kind
        for _ in range(100):
            rhs = rng.standard_normal(2)
            assert check_convex(Qcqp(1, qf([[1.0]]), cons, rhs)).kind is base


class TestExtractConvexSolution:
    def test_lift_round_trip(self):
        u = np.array([1.5, -2.0, 0.25])
        assert extract_convex_solution(lift(u)) == pytest.approx(u)

    def test_diag_zero_one(self):
        assert extract_convex_solution(sym(np.diag([0.0, 1.0]))) == pytest.approx([0.0])

    def test_corner_checked(self):
        with pytest.raises(StructureError):
            extract_convex_solution(sym(np.diag([1.0, 0.5])))

    def test_solved_unconstrained(self):
        # min u^2 - 2u (i.e. (u-1)^2 shifted): optimum at u = 1
        q = Qcqp(1, qf([[1.0]], [-1.0]), [], [])
        sol = solve(build_shor(q))
        assert sol.status is SolveStatus.OPTIMAL
        u = extract_convex_solution(sol.blocks[0])
        assert u[0] == pytest.approx(1.0, abs=1e-6)


class TestAggregatedGraph:
    def test_diagonal_only(self):
        g = aggregated_graph([sym(np.diag([1.0, 2.0, 3.0]))])
        assert g.edges == frozenset()

    def test_single_negative_edge(self):
        g = aggregated_graph([sym([[0.0, -1.0], [-1.0, 0.0]])])
        assert g.edges == frozenset({(1, 2)})
        assert g.sigma[(1, 2)] == -1

    def test_mixed_signs_zero(self):
        a = sym([[0.0, -1.0], [-1.0, 0.0]])
        b = sym([[0.0, 1.0], [1.0, 0.0]])
        g = aggregated_graph([a, b])
        assert g.sigma[(1, 2)] == 0

    def test_positive_edge(self):
        a = sym([[0.0, 2.0], [2.0, 0.0]])
        b = sym([[0.0, 1.0], [1.0, 3.0]])
        g = aggregated_graph([a, b])
        assert g.sigma[(1, 2)] == 1

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            aggregated_graph([SymMatrix.zeros(2), SymMatrix.zeros(3)])


def graph_from_edges(n, sigma_edges):
    return SparsityGraph(n, dict(sigma_edges))


class TestCycleBasis:
    def test_forest_empty(self):
        g = graph_from_edges(4, {(1, 2): -1, (2, 3): -1})
        assert cycle_basis(g) == []

    def test_triangle_one_cycle(self):
        g = graph_from_edges(3, {(1, 2): -1, (2, 3): -1, (1, 3): -1})
        cycles = cycle_basis(g)
        assert len(cycles) == 1
        assert sorted(cycles[0]) == [(1, 2), (1, 3), (2, 3)]

    def test_k4_three_cycles(self):
        edges = {(i, j): 1 for i in range(1, 5) for j in range(i + 1, 5)}
        cycles = cycle_basis(graph_from_edges(4, edges))
        assert len(cycles) == 3  # |E| - |V| + components = 6 - 4 + 1

    def test_disconnected_components(self):
        g = graph_from_edges(
            6,
            {(1, 2): 1, (2, 3): 1, (1, 3): 1, (4, 5): 1, (5, 6): 1, (4, 6): 1},
        )
        assert len(cycle_basis(g)) == 2


class TestCheckSignPattern:
    def test_triangle_all_negative(self):
        g = graph_from_edges(3, {(1, 2): -1, (2, 3): -1, (1, 3): -1})
        cert = check_sign_pattern(g)
        assert cert.kind is CertificateKind.SIGN_PATTERN
        assert cert.case is SignCase.ALL_NONPOSITIVE

    def test_square_all_positive(self):
        g = graph_from_edges(4, {(1, 2): 1, (2, 3): 1, (3, 4): 1, (1, 4): 1})
        cert = check_sign_pattern(g)
        assert cert.kind is CertificateKind.SIGN_PATTERN
        assert cert.case is SignCase.BIPARTITE_POSITIVE

    def test_triangle_all_positive_fails(self):
        g = graph_from_edges(3, {(1, 2): 1, (2, 3): 1, (1, 3): 1})
        assert check_sign_pattern(g).kind is CertificateKind.NONE

    def test_forest_mixed_edge_signs(self):
        g = graph_from_edges(4, {(1, 2): 1, (2, 3): -1, (3, 4): 1})
        cert = check_sign_pattern(g)
        assert cert.kind is CertificateKind.SIGN_PATTERN
        assert cert.case is SignCase.FOREST

    def test_zero_sigma_fails(self):
        g = graph_from_edges(2, {(1, 2): 0})
        cert = check_sign_pattern(g)
        assert cert.kind is CertificateKind.NONE
        assert "mixed" in cert.details

    def test_empty_graph_all_nonpositive(self):
        cert = check_sign_pattern(graph_from_edges(3, {}))
        assert cert.kind is CertificateKind.SIGN_PATTERN
        assert cert.case is SignCase.ALL_NONPOSITIVE

    def test_permutation_invariant(self):
        rng = np.random.default_rng(2)
        base = {(1, 2): 1, (2, 3): -1, (3, 4): 1, (1, 4): 1, (2, 4): -1}
        want = check_sign_pattern(graph_from_edges(4, base)).kind
        for _ in range(20):
            perm = rng.permutation(4) + 1
            relab = {
                (min(perm[i - 1], perm[j - 1]), max(perm[i - 1], perm[j - 1])): s
                for (i, j), s in base.items()
            }
            got = check_sign_pattern(graph_from_edges(4, relab)).kind
            assert got is want

    def test_basis_independence(self):
        # verdict must not depend on which spanning tree generated the basis
        cases = [
            {(1, 2): -1, (2, 3): -1, (1, 3): -1, (3, 4): 1, (1, 4): 1},
            {(1, 2): 1, (2, 3): 1, (3, 4): 1, (1, 4): 1, (1, 3): 1},
            {(i, j): -1 for i in range(1, 5) for j in range(i + 1, 5)},
        ]
        for sigma in cases:
            g = graph_from_edges(4, sigma)
            verdict_default = check_sign_pattern(g).kind
            # re-run the parity test over the reference's reversed basis
            ok_rev = all(
                int(np.prod([g.sigma[e] for e in cyc])) == (-1) ** len(cyc)
                for cyc in parent_cycle_basis(g, reverse=True)
            ) and all(s != 0 for s in g.sigma.values())
            assert ok_rev == (verdict_default is CertificateKind.SIGN_PATTERN)

    def test_balanced_graph_walks_one_cycle_basis(self, monkeypatch):
        # a square with a chord: two fundamental cycles, both edge
        # signs, and every cycle passes parity: one walk decides them all
        g = graph_from_edges(
            4, {(1, 2): 1, (2, 3): -1, (3, 4): 1, (1, 4): -1, (1, 3): 1}
        )
        walks = []
        real = certificates._walk

        def counted(*args, **kwargs):
            walks.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(certificates, "_walk", counted)
        cert = check_sign_pattern(g)
        assert cert.kind is CertificateKind.SIGN_PATTERN
        assert cert.case is SignCase.GENERAL
        assert len(walks) == 1
        assert len(cycle_basis(g)) == 2

    def test_matches_the_parent_case_analysis(self):
        """The same certificate as the parity test with its own forest and
        bipartite walks, on random graphs of every sign mix."""
        rng = np.random.default_rng(5)
        seen = set()
        for _ in range(400):
            n = int(rng.integers(1, 8))
            p_edge, p_pos = rng.uniform(0.1, 0.9), rng.choice([0.0, 0.5, 1.0])
            sigma = {}
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    if rng.random() < p_edge:
                        sigma[(i, j)] = 1 if rng.random() < p_pos else -1
            if sigma and rng.random() < 0.05:
                sigma[next(iter(sigma))] = 0
            g = graph_from_edges(n, sigma)
            cert = check_sign_pattern(g)
            assert cert == parent_check_sign_pattern(g)
            seen.add(cert.case)
        assert seen == set(SignCase) | {None}


def parent_is_bipartite(g) -> bool:
    color = {}
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


def parent_spanning_forest(g, reverse=False):
    """The DFS forest the cycle basis was read from, as (parent map,
    tree-edge set); reverse flips the neighbor visiting order, yielding a
    different spanning tree on graphs with cycles."""
    parent = {}
    tree_edges = set()
    for root in range(1, g.n + 1):
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


def parent_cycle_basis(g, reverse=False):
    """cycle_basis as it read with a spanning-forest walk of its own."""
    parent, tree_edges = parent_spanning_forest(g, reverse=reverse)

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
        su = set(pu)
        k = next(i for i, x in enumerate(pv) if x in su)
        lca = pv[k]
        path = pu[: pu.index(lca) + 1] + pv[:k][::-1]
        cycles.append([(min(a, b), max(a, b)) for a, b in zip(path, path[1:])] + [e])
    return cycles


def parent_sign_gauge(g):
    """sign_gauge as it read with a gauge-propagating walk of its own."""
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
                want = -g.sigma[(min(v, w), max(v, w))] * d[v - 1]
                if d[w - 1] == 0:
                    d[w - 1] = want
                    stack.append(w)
                elif d[w - 1] != want:
                    return None
    return d.astype(np.float64)


def parent_components(g):
    """The connected components of g, each sorted, by a walk of their own."""
    seen = set()
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


def parent_nonpositive_gauge(q):
    """nonpositive_gauge as it read with sign_gauge and a component walk
    of its own."""
    funcs = [q.objective] + [f for f, _ in q.constraints]
    g = aggregated_graph([f.quad_part() for f in funcs])
    d = parent_sign_gauge(g)
    if d is None:
        return None
    lins = np.array([f.linear_part() for f in funcs])
    for comp in parent_components(g):
        idx = [i - 1 for i in comp]
        vals = (lins[:, idx] * d[idx]).ravel()
        if np.all(vals <= 1e-12):
            continue
        if np.all(vals >= -1e-12):
            d[idx] = -d[idx]
            continue
        return None
    return d


def parent_check_sign_pattern(g) -> Certificate:
    """check_sign_pattern as it read with a cycle basis per question and
    a bipartite walk of its own."""
    mixed = sorted(e for e, s in g.sigma.items() if s == 0)
    if mixed:
        return Certificate(
            CertificateKind.NONE,
            f"edges {mixed} carry mixed signs",
            depends_on_solution=False,
        )
    for cyc in parent_cycle_basis(g):
        prod = int(np.prod([g.sigma[e] for e in cyc]))
        if prod != (-1) ** len(cyc):
            return Certificate(
                CertificateKind.NONE,
                f"cycle {cyc} has sign product {prod}, parity needs "
                f"{(-1) ** len(cyc)}",
                depends_on_solution=False,
            )
    if all(s == -1 for s in g.sigma.values()):
        case = SignCase.ALL_NONPOSITIVE
    elif not parent_cycle_basis(g):
        case = SignCase.FOREST
    elif parent_is_bipartite(g) and all(s == 1 for s in g.sigma.values()):
        case = SignCase.BIPARTITE_POSITIVE
    else:
        case = SignCase.GENERAL
    return Certificate(
        CertificateKind.SIGN_PATTERN,
        f"{len(g.edges)} edges pass the cycle parity test ({case.value})",
        depends_on_solution=False,
        case=case,
    )


class TestSignGauge:
    def test_all_negative_gives_constant(self):
        g = graph_from_edges(3, {(1, 2): -1, (2, 3): -1, (1, 3): -1})
        d = sign_gauge(g)
        assert d is not None
        for (i, j), s in g.sigma.items():
            assert d[i - 1] * d[j - 1] * s == -1

    def test_positive_path_alternates(self):
        g = graph_from_edges(3, {(1, 2): 1, (2, 3): 1})
        d = sign_gauge(g)
        assert d is not None
        assert d[0] * d[1] == -1 and d[1] * d[2] == -1

    def test_odd_positive_cycle_impossible(self):
        g = graph_from_edges(3, {(1, 2): 1, (2, 3): 1, (1, 3): 1})
        assert sign_gauge(g) is None

    def test_matches_sign_pattern_verdict(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            sigma = {}
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    r = rng.random()
                    if r < 0.4:
                        sigma[(i, j)] = 1 if r < 0.2 else -1
            g = graph_from_edges(n, sigma)
            cert = check_sign_pattern(g)
            d = sign_gauge(g)
            assert (d is not None) == (cert.kind is CertificateKind.SIGN_PATTERN)


@st.composite
def signed_graphs(draw):
    """Graphs on up to 7 vertices whose labels are all -1, all +1, or both,
    with a mixed (0) label allowed in some of them."""
    n = draw(st.integers(0, 7))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    labels = [None, None, *draw(st.sampled_from([(-1,), (1,), (-1, 1)]))]
    if draw(st.booleans()):
        labels.append(0)
    drawn = draw(st.lists(st.sampled_from(labels), min_size=len(pairs), max_size=len(pairs)))
    return graph_from_edges(n, {e: s for e, s in zip(pairs, drawn) if s is not None})


@st.composite
def gauge_qcqps(draw):
    """Problems of 1 to 5 variables and 1 to 3 functions whose couplings
    are 0 or +-1 (some of them sign-mixed across functions) and whose
    linear coefficients sit at, near and away from zero."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, 3))
    couplings = st.sampled_from((0.0, 0.0, *draw(st.sampled_from([(-1.0,), (1.0,), (-1.0, 1.0)]))))
    linears = st.sampled_from([0.0, 0.0, 1.0, -1.0, 1e-13, -1e-13])
    funcs = []
    for _ in range(k):
        quad = np.diag(draw(st.lists(st.sampled_from([-1.0, 0.0, 2.0]), min_size=n, max_size=n)))
        for i in range(n):
            for j in range(i + 1, n):
                quad[i, j] = quad[j, i] = draw(couplings)
        funcs.append(qf(quad, draw(st.lists(linears, min_size=n, max_size=n))))
    return Qcqp(n, funcs[0], [(f, Relation.LE) for f in funcs[1:]], [1.0] * (k - 1))


class TestOneWalk:
    """check_sign_pattern, sign_gauge, cycle_basis and nonpositive_gauge read
    one walk, and answer as the parent's separate walks did."""

    @settings(max_examples=300, deadline=None)
    @given(signed_graphs())
    @example(graph_from_edges(0, {}))
    @example(graph_from_edges(3, {}))
    @example(graph_from_edges(5, {(1, 2): -1, (2, 3): 0, (4, 5): 1}))
    @example(graph_from_edges(3, {(1, 2): 1, (2, 3): 1, (1, 3): 1}))
    @example(graph_from_edges(4, {(1, 2): 1, (2, 3): 1, (3, 4): 1, (1, 4): 1}))
    @example(graph_from_edges(
        7, {(1, 2): 1, (2, 3): -1, (1, 3): 1, (4, 5): 1, (5, 6): 1, (6, 7): 1, (4, 7): 1}
    ))
    def test_graph_answers_match_the_parent_walks(self, g):
        assert check_sign_pattern(g) == parent_check_sign_pattern(g)
        d, want = sign_gauge(g), parent_sign_gauge(g)
        assert (d is None) == (want is None)
        if d is not None:
            assert d.dtype == want.dtype and np.array_equal(d, want)
        assert cycle_basis(g) == parent_cycle_basis(g)

    @settings(max_examples=300, deadline=None)
    @given(gauge_qcqps())
    @example(Qcqp(2, qf([[0.0, 1.0], [1.0, 0.0]], [-2.0, 2.0]), [], []))
    @example(Qcqp(2, qf([[0.0, 1.0], [1.0, 0.0]], [2.0, 2.0]), [], []))
    @example(Qcqp(3, qf(np.zeros((3, 3)), [1.0, -1.0, 1e-13]), [], []))
    def test_nonpositive_gauge_matches_the_parent_walks(self, q):
        d, want = nonpositive_gauge(q), parent_nonpositive_gauge(q)
        assert (d is None) == (want is None)
        if d is not None:
            assert np.array_equal(d, want)


class TestAssumptionA:
    def test_family_alpha1_holds(self):
        h = two_block_family(1.0)
        sol = solve(build_hom(h))
        assert sol.status is SolveStatus.OPTIMAL
        holds, count, bd = check_assumption_A(h, sol)
        assert holds and count >= 2
        assert bd.m == 3
        assert bd.block_nonzero == [True, True]

    def test_family_alpha25_fails(self):
        h = two_block_family(2.5)
        sol = solve(build_hom(h))
        holds, count, bd = check_assumption_A(h, sol)
        assert not holds
        assert count == 1
        assert bd.block_nonzero == [True, False]

    def test_all_zero_solution_m1(self):
        h = HomSepQcqp(
            [[sym([[1.0]]), sym([[1.0]])]], [Relation.LE], [1.0]
        )
        sol = SdpSolution(
            blocks=[SymMatrix.zeros(1)],
            slacks=np.zeros(1),
            dual_multipliers=np.zeros(1),
            dual_blocks=[SymMatrix.zeros(1)],
            status=SolveStatus.OPTIMAL,
            value=0.0,
        )
        holds, count, _ = check_assumption_A(h, sol)
        assert holds  # m - 1 = 0

    def test_eq_residual_never_counted(self):
        # EQ row with huge residual on a hand-built (wrong) solution: count 0
        h = HomSepQcqp(
            [[sym([[1.0]]), sym([[1.0]])]], [Relation.EQ], [5.0]
        )
        sol = SdpSolution(
            blocks=[SymMatrix.zeros(1)],
            slacks=np.zeros(1),
            dual_multipliers=np.zeros(1),
            dual_blocks=[SymMatrix.zeros(1)],
            status=SolveStatus.OPTIMAL,
            value=0.0,
        )
        _, count, bd = check_assumption_A(h, sol)
        assert count == 0
        assert bd.residual_counted == [False]
        assert bd.residuals[0] == pytest.approx(5.0)

    def test_shape_mismatch(self):
        h = two_block_family(1.0)
        sol = SdpSolution(
            blocks=[SymMatrix.zeros(2)],
            slacks=np.zeros(3),
            dual_multipliers=np.zeros(3),
            dual_blocks=[SymMatrix.zeros(2)],
            status=SolveStatus.OPTIMAL,
            value=0.0,
        )
        with pytest.raises(DimensionError):
            check_assumption_A(h, sol)


class TestMLe2:
    def test_m2_certified(self):
        h = HomSepQcqp(
            [[sym([[1.0]]), sym([[1.0]]), sym([[2.0]])]],
            [Relation.LE, Relation.LE],
            [1.0, 5.0],
        )
        cert = check_m_le_2(h)
        assert cert.kind is CertificateKind.HOM_LIMITED
        assert not cert.depends_on_solution

    def test_m3_family_not_certified(self):
        assert check_m_le_2(two_block_family(1.0)).kind is CertificateKind.NONE

    def test_m0(self):
        h = HomSepQcqp([[sym([[1.0]])]], [], [])
        assert check_m_le_2(h).kind is CertificateKind.HOM_LIMITED

    def test_redundant_rows_ignored(self):
        # 4 rows: one vacuous zero row, one proportional duplicate -> m_eff 2
        z = SymMatrix.zeros(1)
        h = HomSepQcqp(
            [[sym([[1.0]]), sym([[1.0]]), z, sym([[2.0]]), sym([[1.0]])]],
            [Relation.LE] * 4,
            [1.0, 3.0, 4.0, 1.0],
        )
        # row 3 (index 2) = 2x, rhs 4; row 4 = x, rhs 1: row 3 implied by 2x <= 2
        cert = check_m_le_2(h)
        assert cert.kind is CertificateKind.HOM_LIMITED


class TestReduceRows:
    def test_vacuous_zero_rows(self):
        z = SymMatrix.zeros(1)
        h = HomSepQcqp(
            [[sym([[1.0]]), z, z, sym([[1.0]])]],
            [Relation.LE, Relation.GE, Relation.LE],
            [2.0, -1.0, 1.0],
        )
        reduced, dropped = reduce_homogeneous_rows(h)
        assert dropped == [0, 1]
        assert reduced.m == 1

    def test_zero_row_infeasible_kept(self):
        z = SymMatrix.zeros(1)
        h = HomSepQcqp(
            [[sym([[1.0]]), z]], [Relation.LE], [-1.0]
        )
        reduced, dropped = reduce_homogeneous_rows(h)
        assert dropped == [] and reduced.m == 1

    def test_proportional_keeps_tighter(self):
        # rows: x <= 1 and 3x <= 6 (i.e. x <= 2): second implied
        h = HomSepQcqp(
            [[sym([[1.0]]), sym([[1.0]]), sym([[3.0]])]],
            [Relation.LE, Relation.LE],
            [1.0, 6.0],
        )
        reduced, dropped = reduce_homogeneous_rows(h)
        assert dropped == [1]
        assert reduced.rhs[0] == 1.0

    def test_proportional_other_side(self):
        # rows: x <= 4 and 2x <= 2: first implied, second kept
        h = HomSepQcqp(
            [[sym([[1.0]]), sym([[1.0]]), sym([[2.0]])]],
            [Relation.LE, Relation.LE],
            [4.0, 2.0],
        )
        reduced, dropped = reduce_homogeneous_rows(h)
        assert dropped == [0]
        assert reduced.rhs[0] == 2.0

    @pytest.mark.parametrize("tol", [math.nan, -1e-12, math.inf])
    def test_bad_tol_rejected(self, tol):
        # a NaN tol would read any two nonzero <= rows as proportional, and
        # drop one of this family's rows so that check_m_le_2 holds
        with pytest.raises(ValueError, match="tol"):
            reduce_homogeneous_rows(make_example51(2.5), tol=tol)


class TestPatakiBound:
    def make_sol(self, blocks, slacks):
        return SdpSolution(
            blocks=blocks,
            slacks=np.asarray(slacks, dtype=float),
            dual_multipliers=np.zeros(len(slacks)),
            dual_blocks=[SymMatrix.zeros(b.dim) for b in blocks],
            status=SolveStatus.OPTIMAL,
            value=0.0,
        )

    def count(self, sol):
        """The Pataki count of sol at the default rank threshold."""
        ranks = [numeric_rank(x) for x in sol.blocks]
        return pataki_count(ranks, sol.slacks, 1e-6)

    def test_rank_one_tight(self):
        sol = self.make_sol([sym([[1.0]])], [0.0])
        assert self.count(sol) == 1

    def test_rank_two_at_limit(self):
        sol = self.make_sol(
            [sym([[2.0, 0.5], [0.5, 1.0]]), SymMatrix.zeros(1)], [0.0, 0.0, 0.0]
        )
        assert self.count(sol) == 3

    def test_slacks_counted(self):
        sol = self.make_sol(
            [sym([[1.0]]), sym([[1.0]])], [0.5, 0.0, 0.0, 0.0]
        )
        # 1 + 1 + one nonzero slack
        assert self.count(sol) == 3

    def test_family_rank2_point(self):
        sol = solve(build_hom(two_block_family(2.5)))
        # rank 2 block + zero block + zero slacks, within m = 3 rows
        assert self.count(sol) <= 3

    def test_count_reads_slacks_relative_to_the_largest(self):
        # 3 + 1 + 0 for the ranks; the 1e-6 slack falls under
        # 1e-6 * (1 + 5) and does not count, the 5 does
        assert pataki_count([2, 1, 0], [0.0, 5.0, 1e-6], 1e-6) == 5
        assert pataki_count([2, 1, 0], [0.0, 5.0, 1e-5], 1e-6) == 6
        assert pataki_count([], [], 1e-6) == 0
