import hashlib
import random
from fractions import Fraction as Q
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (gen_quantified, int_row_polyhedron, random_point,
                      tableau_state)
from pilsys import exact
from pilsys.exact import (AffineSolutionSet, Feasible, Infeasible, IntRhs,
                          IntRowPolyhedron, NoSolution, Polyhedron,
                          UniqueSolution, _BoundedSimplex, basis_holds,
                          check_infeasibility_certificate, dot, fm_eliminate,
                          fm_feasible, lin_solve, lp_feasible, lp_maximize,
                          max_row_shift, recession_cone, scaled_box)
from pilsys.membership import (member_ae, member_united,
                               strict_kernel_member_ae)


def qvec(items):
    return [Q(x) for x in items]


def qmat(rows):
    return [[Q(x) for x in row] for row in rows]


def poly(C, d, E=(), f=(), dim=None):
    C = qmat(C)
    if dim is None:
        dim = len(C[0]) if C else len(E[0])
    return Polyhedron(C, qvec(d), qmat(E), qvec(f), dim)


class TestLinSolve:
    def test_unique(self):
        res = lin_solve(qmat([[1, 0], [1, 1]]), qvec([1, 1]))
        assert res == UniqueSolution([Q(1), Q(0)])

    def test_no_solution(self):
        res = lin_solve(qmat([[1, 0], [1, 0]]), qvec([1, 0]))
        assert isinstance(res, NoSolution)

    def test_affine_zero_matrix(self):
        res = lin_solve(qmat([[0]]), qvec([0]))
        assert isinstance(res, AffineSolutionSet)
        assert res.point == [Q(0)]
        assert res.basis == [[Q(1)]]

    def test_null_space_basis_exact(self):
        A = qmat([[1, 2, 3], [2, 4, 6]])
        res = lin_solve(A, qvec([6, 12]))
        assert isinstance(res, AffineSolutionSet)
        for v in res.basis:
            assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in A)
        assert len(res.basis) == 2

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            lin_solve(qmat([[1, 0]]), qvec([1, 2]))
        with pytest.raises(ValueError, match="^ragged matrix$"):
            lin_solve(qmat([[1, 0], [1]]), qvec([1, 2]))

    @staticmethod
    def reference(A, b):
        """Gauss-Jordan on Fraction rows: each pivot row is divided by its
        pivot, the first row at or below r with a nonzero entry."""
        m, n = len(A), len(A[0]) if A else 0
        aug = [list(row) + [bi] for row, bi in zip(A, b)]
        pivots, r = [], 0
        for c in range(n):
            pr = next((i for i in range(r, m) if aug[i][c] != 0), None)
            if pr is None:
                continue
            aug[r], aug[pr] = aug[pr], aug[r]
            aug[r] = [x / aug[r][c] for x in aug[r]]
            for i in range(m):
                if i != r and aug[i][c] != 0:
                    f = aug[i][c]
                    aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
            pivots.append(c)
            r += 1
            if r == m:
                break
        if any(aug[i][n] != 0 for i in range(r, m)):
            return NoSolution()
        point = [Q(0)] * n
        for i, c in enumerate(pivots):
            point[c] = aug[i][n]
        if len(pivots) == n:
            return UniqueSolution(point)
        basis = []
        for fc in (c for c in range(n) if c not in pivots):
            v = [Q(0)] * n
            v[fc] = Q(1)
            for i, c in enumerate(pivots):
                v[c] = -aug[i][fc]
            basis.append(v)
        return AffineSolutionSet(point, basis)

    def test_matches_fraction_gauss_jordan(self):
        rng = random.Random(29)
        kinds = {}

        def entry():
            return Q(rng.randint(-4, 4), rng.choice((1, 2, 3, 6))) \
                if rng.random() < 0.7 else Q(0)

        for t in range(600):
            m = t % 5  # m = 0 included
            n = rng.randint(1, 5)
            A = [[entry() for _ in range(n)] for _ in range(m)]
            b = [entry() for _ in range(m)]
            if m >= 2 and t % 3 == 0:  # a dependent row, consistent or not
                c = Q(rng.randint(-2, 2), rng.choice((1, 2)))
                A[-1] = [c * a for a in A[0]]
                b[-1] = c * b[0] + rng.choice((0, 0, 1))
            if m and t % 7 == 0:  # a zero row
                A[t % m] = [Q(0)] * n
            got, want = lin_solve(A, b), self.reference(A, b)
            assert got == want and type(got) is type(want)
            shape = "square" if m == n else "wide" if m < n else "tall"
            kinds[shape, type(want).__name__] = kinds.get(
                (shape, type(want).__name__), 0) + 1
        assert lin_solve([], []) == UniqueSolution([])
        for shape in ("square", "wide", "tall"):
            assert kinds.get((shape, "NoSolution"), 0) >= 5
            assert kinds.get((shape, "AffineSolutionSet"), 0) >= 3
        assert kinds["square", "UniqueSolution"] >= 20


class TestLpFeasible:
    def test_box(self):
        res = lp_feasible(poly([[-1], [1]], [0, 1]))
        assert isinstance(res, Feasible)
        assert Q(0) <= res.point[0] <= Q(1)

    def test_empty_box(self):
        P = poly([[-1], [1]], [-1, 0])  # x >= 1, x <= 0
        res = lp_feasible(P)
        assert isinstance(res, Infeasible)
        assert check_infeasibility_certificate(P, res)

    def test_infeasible_equality(self):
        # p in [0,1], 0*p = -1
        P = poly([[1], [-1]], [1, 0], E=[[0]], f=[-1])
        res = lp_feasible(P)
        assert isinstance(res, Infeasible)
        assert check_infeasibility_certificate(P, res)
        assert not fm_feasible(P)

    def test_degenerate_no_rows(self):
        res = lp_feasible(Polyhedron([], [], [], [], 3))
        assert res == Feasible([Q(0)] * 3)

    def test_feasible_point_satisfies_constraints(self):
        P = poly([[1, 1], [-1, 0], [0, -1]], [1, 0, 0], E=[[1, -1]], f=[0])
        res = lp_feasible(P)
        assert isinstance(res, Feasible)
        assert P.contains(res.point)


class TestIntRowPolyhedron:
    """Equality rows as integers over one positive denominator each."""

    def test_same_result_as_the_rational_rows(self):
        # p1/2 + p2/3 = f over the box [0, 1]^2, given as 6 p1 + 4 p2 over
        # 12: not reduced, so the simplex makes the row primitive first
        lo, hi = qvec([0, 0]), qvec([1, 1])
        rational = [qvec([Q(1, 2), Q(1, 3)])]
        for f in (Q(1, 2), Q(5, 6), Q(1)):
            P = Polyhedron([], [], rational, [f], 2, lo, hi)
            got = lp_feasible(int_row_polyhedron([[6, 4]], [12], [f], lo, hi))
            want = lp_feasible(P)
            assert type(got) is type(want) and got == want
            assert tableau_state(got) == tableau_state(want)
            assert lp_maximize(int_row_polyhedron([[6, 4]], [12], [f], lo, hi),
                               qvec([1, -1])) == lp_maximize(P, qvec([1, -1]))
        assert isinstance(got, Infeasible)
        assert check_infeasibility_certificate(P, got)

    def test_no_rows(self):
        P = int_row_polyhedron([], [], [], [Q(1)], [None])
        assert (P.C, P.d, P.dim) == ([], [], 1)
        assert lp_feasible(P) == Feasible([Q(1)])

    @pytest.mark.parametrize("args,match", [
        (([[1]], [1, 2], IntRhs([0], 1)), "row counts"),
        (([[1]], [1], IntRhs([0, 1], 1)), "row counts"),
        (([[1, 2]], [1], IntRhs([0], 1)), "wrong width"),
        (([[1]], [0], IntRhs([0], 1)), "denominator"),
        (([[1]], [-2], IntRhs([0], 1)), "denominator"),
        (([[1]], [1], IntRhs([0], 0)), "denominator"),
    ], ids=["dens", "rhs", "width", "zero-den", "negative-den", "rhs-den"])
    def test_shapes_checked(self, args, match):
        with pytest.raises(ValueError, match=match):
            IntRowPolyhedron(*args, scaled_box([Q(0)], [Q(1)]))

    def test_inequality_rows_give_the_rational_result(self):
        """``IntRowPolyhedron.of`` scales a Polyhedron with inequality rows,
        equality rows and bounds: its Fraction view is the same set as
        given, it has the same points, recession cone and LP result (the
        same final tableau), and the simplex takes it as it is."""
        rng = random.Random(88)
        for _ in range(120):
            P, _ = random_with_bounds(rng, mixed_rational)
            R = IntRowPolyhedron.of(P)
            assert R.polyhedron() == P
            assert (R.d, R.f, R.dim) == (P.d, P.f, P.dim)
            assert recession_cone(R).polyhedron() == recession_cone(P)
            res, want = lp_feasible(R), lp_feasible(P)
            assert type(res) is type(want) and res == want
            assert tableau_state(res) == tableau_state(want)
            for _ in range(6):
                x = [Q(rng.randint(-8, 8), rng.choice((1, 2, 3)))
                     for _ in range(P.dim)]
                assert R.contains(x) == P.contains(x)
            if isinstance(res, Feasible):
                assert R.contains(res.point)

    @pytest.mark.parametrize("C,cdens,crhs,match", [
        ([[1]], [1, 2], IntRhs([0], 1), "row counts"),
        ([[1]], [1], IntRhs([0, 1], 1), "row counts"),
        ([[1, 2]], [1], IntRhs([0], 1), "inequality row has wrong width"),
        ([[1]], [0], IntRhs([0], 1), "denominator"),
        ([[1]], [1], IntRhs([0], -1), "denominator"),
    ], ids=["dens", "rhs", "width", "zero-den", "rhs-den"])
    def test_inequality_shapes_checked(self, C, cdens, crhs, match):
        with pytest.raises(ValueError, match=match):
            IntRowPolyhedron([], [], IntRhs([], 1), scaled_box([Q(0)], [Q(1)]),
                             C, cdens, crhs)

    def test_point_length_checked(self):
        P = IntRowPolyhedron([[1]], [1], IntRhs([0], 1),
                             scaled_box([Q(0)], [Q(1)]))
        with pytest.raises(ValueError, match="^point has wrong dimension$"):
            P.contains([Q(0), Q(0)])

    def test_bounds_checked(self):
        rhs = IntRhs([0], 1)
        with pytest.raises(ValueError, match="wrong length"):
            IntRowPolyhedron([[1]], [1], rhs, scaled_box([Q(0)], [Q(1), Q(1)]))
        with pytest.raises(ValueError, match="exceeds"):
            IntRowPolyhedron([[1]], [1], rhs, scaled_box([Q(1)], [Q(0)]))


class TestLpMaximize:
    def test_bounded(self):
        status, val, arg = lp_maximize(poly([[-1], [1]], [0, 1]), qvec([1]))
        assert (status, val, arg) == ("optimal", Q(1), [Q(1)])

    def test_unbounded(self):
        status, _, _ = lp_maximize(poly([[-1]], [0]), qvec([1]))
        assert status == "unbounded"

    def test_infeasible(self):
        status, _, _ = lp_maximize(poly([[-1], [1]], [-1, 0]), qvec([1]))
        assert status == "infeasible"

    def test_objective_length_checked(self):
        with pytest.raises(ValueError, match="^objective has wrong dimension$"):
            lp_maximize(poly([[-1], [1]], [0, 1]), qvec([1, 0]))

    def test_2d(self):
        # max x+y over the triangle x,y >= 0, x+y <= 3/2
        P = poly([[-1, 0], [0, -1], [1, 1]], [0, 0, Q(3, 2)])
        status, val, arg = lp_maximize(P, qvec([1, 1]))
        assert status == "optimal" and val == Q(3, 2)
        assert P.contains(arg)


class TestFourierMotzkin:
    def test_substitution(self):
        # 0 <= p <= 1, x = p -> 0 <= x <= 1
        P = poly([[-1, 0], [1, 0]], [0, 1], E=[[1, -1]], f=[0], dim=2)
        R = fm_eliminate(P, 0)
        assert R.dim == 1
        assert fm_feasible(R)
        assert R.contains([Q(1, 2)]) and not R.contains([Q(2)])

    def test_substitution_infeasible(self):
        # 0 <= p <= 1, p = 2
        P = poly([[-1], [1]], [0, 1], E=[[1]], f=[2])
        R = fm_eliminate(P, 0)
        assert R.dim == 0
        assert not fm_feasible(R)

    def test_pairing(self):
        # p+q <= 1, p >= 0, q >= 0; eliminate q -> p <= 1, p >= 0
        P = poly([[1, 1], [-1, 0], [0, -1]], [1, 0, 0])
        R = fm_eliminate(P, 1)
        assert R.dim == 1
        assert R.contains([Q(0)]) and R.contains([Q(1)])
        assert not R.contains([Q(3, 2)]) and not R.contains([Q(-1, 2)])

    def test_bad_index(self):
        with pytest.raises(ValueError):
            fm_eliminate(poly([[1]], [0]), 1)

    def test_growth_over_the_budget_is_refused(self, monkeypatch):
        # k x0 + x1 <= 0 and k x0 - x1 <= 0: eliminating x1 pairs every
        # row of one sign with every row of the other
        def pairs(count):
            return poly([[k, 1] for k in range(count)] +
                        [[k, -1] for k in range(count)], [0] * (2 * count))

        with pytest.raises(ValueError, match="exceeds 262144 rows"):
            fm_eliminate(pairs(513), 1)  # 513^2 candidate rows
        monkeypatch.setattr(exact, "FM_MAX_ROWS", 9)
        assert fm_eliminate(pairs(3), 1).dim == 1
        with pytest.raises(ValueError, match="exceeds 9 rows"):
            fm_eliminate(pairs(4), 1)
        with pytest.raises(ValueError, match="exceeds 9 rows"):
            fm_feasible(pairs(4))

    def test_agrees_with_simplex_on_random_polyhedra(self):
        rng = random.Random(7)
        for _ in range(1000):
            dim = rng.randint(1, 4)
            rows = rng.randint(1, 8)
            C = [[Q(rng.randint(-3, 3)) for _ in range(dim)] for _ in range(rows)]
            d = [Q(rng.randint(-3, 3)) for _ in range(rows)]
            P = Polyhedron(C, d, [], [], dim)
            assert fm_feasible(P) == isinstance(lp_feasible(P), Feasible)


class TestRecessionCone:
    def test_halfline(self):
        R = recession_cone(poly([[1]], [1]))
        assert R.d == [Q(0)] and R.C == [[Q(1)]]

    def test_box_cone_is_origin(self):
        R = recession_cone(poly([[-1], [1]], [0, 1]))
        assert R.contains([Q(0)]) and not R.contains([Q(1)]) \
            and not R.contains([Q(-1)])

    def test_cone_closed_under_scaling(self):
        rng = random.Random(3)
        for _ in range(50):
            dim = rng.randint(1, 3)
            rows = rng.randint(1, 5)
            C = [[Q(rng.randint(-3, 3)) for _ in range(dim)] for _ in range(rows)]
            d = [Q(rng.randint(-3, 3)) for _ in range(rows)]
            R = recession_cone(Polyhedron(C, d, [], [], dim))
            y = [Q(rng.randint(-4, 4)) for _ in range(dim)]
            if R.contains(y):
                assert R.contains([2 * a for a in y])


class TestBasisHolds:
    """Re-checking a final basis under a new equality right-hand side."""

    def test_holds_only_where_the_new_lp_is_feasible(self):
        rng = random.Random(17)
        verdicts = {True: 0, False: 0}
        for _ in range(300):
            dim = rng.randint(1, 3)
            C = [[Q(rng.randint(-2, 2)) for _ in range(dim)]
                 for _ in range(rng.randint(0, 2))]
            d = [Q(rng.randint(0, 3)) for _ in C]
            E = [[Q(rng.randint(-2, 2)) for _ in range(dim)]
                 for _ in range(rng.randint(1, 3))]
            # a repeated equation keeps an artificial basic
            repeat = rng.random() < 0.3
            E += E[:1] if repeat else []
            f = [Q(rng.randint(-2, 2), rng.randint(1, 2)) for _ in E]
            f[-1] = f[0] if repeat else f[-1]
            lo = [Q(rng.randint(-3, 0)) for _ in range(dim)]
            hi = [l + Q(rng.randint(0, 3), 2) for l in lo]
            res = lp_feasible(Polyhedron(C, d, E, f, dim, lo, hi))
            if not isinstance(res, Feasible):
                continue
            assert basis_holds(res, IntRhs.of(f, res.basis.edens))
            for _ in range(4):
                g = [fi + Q(rng.randint(-1, 1), rng.randint(2, 6)) for fi in f]
                g[-1] = g[0] if repeat else g[-1]
                held = basis_holds(res, IntRhs.of(g, res.basis.edens))
                verdicts[held] += 1
                if held:
                    assert fm_feasible(Polyhedron(C, d, E, g, dim, lo, hi))
        assert verdicts[True] > 40 and verdicts[False] > 40

    def test_wrong_length_rejected(self):
        res = lp_feasible(poly([], [], E=[[1]], f=[0], dim=1))
        with pytest.raises(ValueError):
            basis_holds(res, IntRhs([0, 0], 1))


@st.composite
def shift_cases(draw):
    """A small polyhedron with some equality rows (a repeated one at times,
    so an artificial can stay basic at 0), some rows of C, bounds that may
    be missing, and one equality row and sign to relax."""
    entry = st.integers(-2, 2).map(Q)
    dim = draw(st.integers(1, 3))
    E = draw(st.lists(st.lists(entry, min_size=dim, max_size=dim),
                      min_size=1, max_size=3))
    f = draw(st.lists(st.fractions(-3, 3, max_denominator=3),
                      min_size=len(E), max_size=len(E)))
    if draw(st.booleans()):
        E, f = E + E[:1], f + f[:1]
    C = draw(st.lists(st.lists(entry, min_size=dim, max_size=dim), max_size=2))
    d = draw(st.lists(st.integers(-2, 2).map(Q), min_size=len(C),
                      max_size=len(C)))
    lo = draw(st.lists(st.one_of(st.none(), st.integers(-2, 0).map(Q)),
                       min_size=dim, max_size=dim))
    hi = draw(st.lists(st.one_of(st.none(), st.integers(0, 2).map(Q)),
                       min_size=dim, max_size=dim))
    return (Polyhedron(C, d, E, f, dim, lo, hi),
            draw(st.integers(0, len(E) - 1)), draw(st.sampled_from((1, -1))))


@settings(max_examples=200, deadline=None)
@given(shift_cases())
def test_max_row_shift_is_the_cold_lp_with_a_free_column(case):
    """Resuming the kept tableau gives the status and the exact optimum of
    maximizing t over the same LP with row e relaxed to E_e x = f_e + sign*t,
    solved cold; feasible and infeasible kept results alike."""
    P, e, sign = case
    cold = lp_maximize(Polyhedron(
        [row + [Q(0)] for row in P.C], P.d,
        [row + [Q(-sign if r == e else 0)] for r, row in enumerate(P.E)], P.f,
        P.dim + 1, P.lo + [None], P.hi + [None]), [Q(0)] * P.dim + [Q(1)])
    assert max_row_shift(lp_feasible(P), e, sign) == cold[:2]


class TestMaxRowShift:
    def test_resumes_an_infeasible_phase_1(self):
        # x = 3 and x = 0 with x in [-1, 1]: infeasible, but relaxing the
        # second row leaves x = 3 out of the box, relaxing the first gives
        # t = x - 3 with x = 0
        P = Polyhedron([], [], [[Q(1)], [Q(1)]], [Q(3), Q(0)], 1,
                       [Q(-1)], [Q(1)])
        res = lp_feasible(P)
        assert isinstance(res, Infeasible) and res.basis is not None
        assert max_row_shift(res, 0, 1) == ("optimal", Q(-3))
        assert max_row_shift(res, 0, -1) == ("optimal", Q(3))
        assert max_row_shift(res, 1, 1) == ("infeasible", None)

    def test_results_print_and_compare_without_basis(self):
        # the kept tableau is not part of a result's value
        P = Polyhedron([], [], [[Q(1)], [Q(1)]], [Q(3), Q(0)], 1,
                       [Q(-1)], [Q(1)])
        res = lp_feasible(P)
        assert res.basis is not None
        assert res == Infeasible(res.ineq_mult, res.eq_mult, res.bound_mult)
        assert repr(res) == (f"Infeasible(ineq_mult=[], "
                             f"eq_mult={res.eq_mult!r}, "
                             f"bound_mult={res.bound_mult!r})")
        ok = lp_feasible(Polyhedron([], [], [[Q(1)]], [Q(1)], 1))
        assert ok.basis is not None
        assert ok == Feasible([Q(1)])
        assert repr(ok) == "Feasible(point=[Fraction(1, 1)])"

    def test_keeps_the_result_unchanged(self):
        P = Polyhedron([], [], [[Q(1), Q(1)]], [Q(1)], 2, [Q(0), Q(0)],
                       [Q(1), Q(1)])
        res = lp_feasible(P)
        fb = res.basis
        kept = (fb.val[:], fb.lo[:], fb.hi[:], fb.scale, fb.basis[:],
                fb.dens[:], [r[:] for r in fb.rows])
        assert max_row_shift(res, 0, 1) == ("optimal", Q(1))
        assert max_row_shift(res, 0, -1) == ("optimal", Q(1))
        assert (fb.val, fb.lo, fb.hi, fb.scale, fb.basis, fb.dens,
                fb.rows) == kept
        assert basis_holds(res, IntRhs.of([Q(2)], fb.edens))

    def test_refuses_a_row_or_sign_it_does_not_have(self):
        # x1 + x2 = 1 + sign * t over the unit box
        P = Polyhedron([], [], [[Q(1), Q(1)]], [Q(1)], 2, [Q(0), Q(0)],
                       [Q(1), Q(1)])
        res = lp_feasible(P)
        for e in (1, 5, -1):
            with pytest.raises(ValueError, match="not an equality row"):
                max_row_shift(res, e, 1)
        for sign in (2, 0, -2):
            with pytest.raises(ValueError, match="sign must be 1 or -1"):
                max_row_shift(res, 0, sign)
        # rows of C have no artificial to free
        C = Polyhedron([[Q(1)]], [Q(1)], [], [], 1, [Q(0)], [Q(2)])
        with pytest.raises(ValueError, match="not an equality row"):
            max_row_shift(lp_feasible(C), 0, 1)


class TestCertificates:
    def test_random_infeasible_always_validate(self):
        rng = random.Random(11)
        seen = 0
        for _ in range(400):
            dim = rng.randint(1, 3)
            rows = rng.randint(2, 6)
            C = [[Q(rng.randint(-3, 3)) for _ in range(dim)] for _ in range(rows)]
            d = [Q(rng.randint(-2, 2)) for _ in range(rows)]
            E = [[Q(rng.randint(-2, 2)) for _ in range(dim)]]
            f = [Q(rng.randint(-2, 2))]
            P = Polyhedron(C, d, E, f, dim)
            res = lp_feasible(P)
            if isinstance(res, Infeasible):
                seen += 1
                assert check_infeasibility_certificate(P, res)
            else:
                assert P.contains(res.point)
        assert seen > 20

    def test_negative_inequality_multiplier_refused(self):
        # x <= 1 minus x <= 2 reads 0 <= -1, but x = 0 is feasible: a
        # multiplier of an inequality row must not be negative
        P = poly([[1], [1]], [1, 2])
        cert = Infeasible(qvec([1, -1]), [], qvec([0]))
        assert not check_infeasibility_certificate(P, cert)
        assert check_infeasibility_certificate(
            poly([[1], [-1]], [1, -2]), Infeasible(qvec([1, 1]), [], qvec([0])))

    # a valid refutation, then one multiplier vector with a zero too many at
    # its end, which sums over zip would ignore, so only the length check
    # refuses it: x <= 1 and x >= 2 (multipliers 1, 1), then x <= 1 and
    # x = 2 (1, -1), each with a 0 on x's bounds
    @pytest.mark.parametrize("E,f,valid,wrong", [
        ([], [], ([1, 1], [], [0]), ([1, 1, 0], [], [0])),
        ([[1]], [2], ([1, 0], [-1], [0]), ([1, 0], [-1, 0], [0])),
        ([[1]], [2], ([1, 0], [-1], [0]), ([1, 0], [-1], [0, 0])),
    ], ids=["ineq_mult", "eq_mult", "bound_mult"])
    def test_wrong_length_multipliers_refused(self, E, f, valid, wrong):
        P = poly([[1], [-1]], [1, -2] if not E else [1, 5], E=E, f=f, dim=1)
        assert check_infeasibility_certificate(
            P, Infeasible(*map(qvec, valid)))
        assert not check_infeasibility_certificate(
            P, Infeasible(*map(qvec, wrong)))

    def test_zero_inequality_multiplier_accepted(self):
        # x <= 1 and x >= 2 refute x; the third row, x <= 7, gets 0
        P = poly([[1], [-1], [1]], [1, -2, 7])
        assert check_infeasibility_certificate(
            P, Infeasible(qvec([1, 1, 0]), [], qvec([0])))

    @pytest.mark.parametrize("u,v,match", [
        ([Q(-1)], [Q(0)], "nonnegative"),
        ([Q(0)], [Q(-1, 2)], "nonnegative"),
        ([Q(1)], [Q(2)], "complementary"),
    ], ids=["u", "v", "both"])
    def test_farkas_certificate_refusals(self, u, v, match):
        with pytest.raises(ValueError, match=match):
            exact.FarkasCertificate([Q(1)], u, v)
        exact.FarkasCertificate([Q(1)], [Q(0)], [Q(0)])


def fm_max(P, obj):
    """max obj.x over a bounded P: project P and t = obj.x onto t by FM."""
    R = Polyhedron([row + [Q(0)] for row in P.C], P.d[:],
                   [row + [Q(0)] for row in P.E] + [list(obj) + [Q(-1)]],
                   P.f + [Q(0)], P.dim + 1)
    while R.dim > 1:
        R = fm_eliminate(R, 0)
    if not fm_feasible(R):
        return None
    uppers = [di / row[0] for row, di in zip(R.C, R.d) if row[0] > 0]
    uppers += [fi / row[0] for row, fi in zip(R.E, R.f) if row[0] != 0]
    return min(uppers)


def assert_infeasible(P):
    res = lp_feasible(P)
    assert isinstance(res, Infeasible)
    assert check_infeasibility_certificate(P, res)
    return res


class TestBoundRows:
    """Rows of C with one nonzero entry, which bound a single variable."""

    def test_thin_bound(self):
        # x = 2 from two rows, x + y <= 3, y >= -5
        P = poly([[1, 0], [-1, 0], [1, 1], [0, -1]], [2, -2, 3, 5])
        res = lp_feasible(P)
        assert isinstance(res, Feasible) and res.point[0] == 2
        assert P.contains(res.point)
        assert lp_maximize(P, qvec([1, 0]))[:2] == ("optimal", Q(2))
        assert lp_maximize(P, qvec([-1, 0]))[:2] == ("optimal", Q(-2))
        assert lp_maximize(P, qvec([0, 1]))[:2] == ("optimal", Q(1))
        assert_infeasible(poly([[1], [-1]], [2, -2], E=[[1]], f=[3]))

    @pytest.mark.parametrize("C,d,lower,upper,outside", [
        ([[1], [2], [-1]], [5, 2, 0], 0, 1, 3),
        ([[2], [1], [-1]], [2, 5, 0], 0, 1, 3),
        ([[-1], [-3], [1]], [3, 0, 7], 0, 7, -1),
    ], ids=["tighter-second", "tighter-first", "lower"])
    def test_tighter_bound_wins(self, C, d, lower, upper, outside):
        P = poly(C, d)
        assert lp_maximize(P, qvec([1]))[1] == upper
        assert lp_maximize(P, qvec([-1]))[1] == -lower
        # the point violates only the tighter of the two rows on its side
        assert_infeasible(poly(C, d, E=[[1]], f=[outside]))

    def test_contradictory_bounds(self):
        # x >= 1 and 3x <= 0, with a consistent box on y
        P = poly([[-1, 0], [0, 1], [3, 0], [0, -1]], [-1, 5, 0, 0])
        res = assert_infeasible(P)
        assert res.ineq_mult[0] > 0 and res.ineq_mult[2] > 0
        assert lp_maximize(P, qvec([0, 1]))[0] == "infeasible"

    def test_zero_row_negative_rhs(self):
        P = poly([[1, 0], [0, 0], [-1, 0]], [1, -1, 0])
        res = assert_infeasible(P)
        assert res.ineq_mult[1] > 0
        assert_infeasible(Polyhedron([[]], [Q(-1)], [], [], 0))
        assert isinstance(lp_feasible(poly([[0, 0]], [0])), Feasible)

    def test_free_variable_only_in_equalities(self):
        # x in [0, 1], y free, x + y = 2
        P = poly([[1, 0], [-1, 0]], [1, 0], E=[[1, 1]], f=[2])
        res = lp_feasible(P)
        assert isinstance(res, Feasible) and P.contains(res.point)
        status, val, arg = lp_maximize(P, qvec([0, 1]))
        assert (status, val) == ("optimal", Q(2)) and arg == [Q(0), Q(2)]
        # and y = 3x + 5 cannot meet x + y = 2 inside the box
        assert_infeasible(poly([[1, 0], [-1, 0]], [1, 0],
                               E=[[1, 1], [3, -1]], f=[2, -5]))

    def test_maximize_unbounded_along_free_variable(self):
        box_x = [[1, 0, 0], [-1, 0, 0]]
        P = poly(box_x, [1, 0], dim=3)
        assert lp_maximize(P, qvec([0, 1, 0]))[0] == "unbounded"
        assert lp_maximize(P, qvec([0, 0, -1]))[0] == "unbounded"
        P = poly(box_x, [1, 0], E=[[0, 1, -1]], f=[0])  # y = z, both free
        assert lp_maximize(P, qvec([0, 1, 0]))[0] == "unbounded"
        assert lp_maximize(P, qvec([0, 1, -1]))[:2] == ("optimal", Q(0))

    def test_maximize_at_bound_flip(self):
        # box x in [0, 3], y in [-1, 2]; x + y <= 10 never binds
        P = poly([[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1]], [3, 0, 2, 1, 10])
        assert lp_maximize(P, qvec([1, 1])) == ("optimal", Q(5), [Q(3), Q(2)])
        assert lp_maximize(P, qvec([-1, -2])) == ("optimal", Q(2), [Q(0), Q(-1)])


def small_int(rng, k):
    return Q(rng.randint(-k, k))


def mixed_rational(rng, k):
    """Denominators 1-7, and now and then a numerator near 2^64."""
    if rng.random() < 0.15:
        return Q(rng.choice((-1, 1)) * (2 ** 64 - rng.randint(0, 9)), rng.randint(1, 7))
    return Q(rng.randint(-9, 9), rng.randint(1, 7))


def random_bounded(rng, entry=small_int):
    """A random polyhedron whose every variable is boxed (sometimes thin,
    sometimes by two rows, rarely crossed), plus general rows and equalities
    whose entries ``entry(rng, k)`` draws (``small_int`` from [-k, k])."""
    dim = rng.randint(1, 4)
    rows = []
    for j in range(dim):
        lo = Q(rng.randint(-3, 3), rng.randint(1, 2))
        hi = lo if rng.random() < 0.15 else lo + Q(rng.randint(0, 4), rng.randint(1, 2))
        if rng.random() < 0.05:
            lo, hi = hi + 1, lo
        for sign, b in ((1, hi), (-1, -lo)) + (((1, hi + 1),) if rng.random() < 0.3 else ()):
            scale = Q(rng.randint(1, 3))
            row = [Q(0)] * dim
            row[j] = sign * scale
            rows.append((row, scale * b))
    for _ in range(rng.randint(0, 3)):
        rows.append(([entry(rng, 3) for _ in range(dim)], entry(rng, 3)))
    rng.shuffle(rows)
    E = [[entry(rng, 2) for _ in range(dim)] for _ in range(rng.randint(0, 2))]
    f = [entry(rng, 3) for _ in E]
    return Polyhedron([r for r, _ in rows], [b for _, b in rows], E, f, dim)


def assert_integer_tableau(lp):
    """Every tableau row (with its trailing u) and the reduced-cost row: int
    numerators over a positive int denominator, with no common factor; and
    every value and finite bound an int, over a positive int scale."""
    for row, den in list(zip(lp.rows, lp.dens)) + [(lp.d, lp.dden)]:
        assert all(type(a) is int for a in row) and type(den) is int
        assert den > 0 and gcd(den, *row) == 1
    assert type(lp.scale) is int and lp.scale > 0
    assert all(type(v) is int for v in lp.val)
    assert all(type(b) is int for b in lp.lo + lp.hi if b is not None)


def test_bounded_polyhedra_agree_with_fm():
    agree_with_fm(random.Random(2026), small_int)


def test_rational_bounded_polyhedra_agree_with_fm():
    """General and equality rows over denominators 1-7, some numerators near
    2^64: the integer tableau rows are scaled by lcms and gcds that matter."""
    agree_with_fm(random.Random(64), mixed_rational)


def agree_with_fm(rng, entry):
    kinds = {"feasible": 0, "infeasible": 0}
    for _ in range(300):
        P = random_bounded(rng, entry)
        res = lp_feasible(P)
        if isinstance(res, Infeasible):
            kinds["infeasible"] += 1
            assert check_infeasibility_certificate(P, res)
        else:
            kinds["feasible"] += 1
            assert P.contains(res.point)
        assert fm_feasible(P) == isinstance(res, Feasible)
        obj = [Q(rng.randint(-3, 3)) for _ in range(P.dim)]
        status, val, arg = lp_maximize(P, obj)
        want = fm_max(P, obj)
        if want is None:
            assert status == "infeasible"
        else:
            assert (status, val) == ("optimal", want)
            assert P.contains(arg) and sum(a * x for a, x in zip(obj, arg)) == val
        # what lp_feasible and lp_maximize ran, with the tableau kept
        lp = _BoundedSimplex(P)
        assert_integer_tableau(lp)
        if lp.feasible:
            lp.maximize(obj)
            assert_integer_tableau(lp)
    assert min(kinds.values()) > 30


# zeros, ints, small rationals and rationals over large coprime denominators
rationals = st.one_of(
    st.just(Q(0)), st.integers(-10 ** 6, 10 ** 6),
    st.fractions(max_denominator=12),
    st.builds(Q, st.integers(-2 ** 70, 2 ** 70),
              st.sampled_from([2 ** 61 - 1, 2 ** 64 - 59, 3 ** 40, 10 ** 19 + 1])))


@given(st.lists(st.tuples(rationals, rationals), max_size=8))
def test_dot_is_the_exact_sum(pairs):
    u = [a for a, _ in pairs]
    v = [b for _, b in pairs]
    got = dot(u, v)
    assert type(got) is Q and got == sum((a * b for a, b in pairs), Q(0))


class TestExplicitBounds:
    """lo <= x <= hi given with the polyhedron, not as rows of C."""

    def test_bounds_reach_the_certificate(self):
        # x = 5 against x <= 3: the refutation multiplies the bound itself
        P = Polyhedron([], [], [[Q(1)]], [Q(5)], 1, [None], [Q(3)])
        res = assert_infeasible(P)
        assert res.ineq_mult == [] and res.eq_mult == [Q(-1)] \
            and res.bound_mult == [Q(1)]
        # the same multipliers on an infinite bound prove nothing
        free = Polyhedron([], [], [[Q(1)]], [Q(5)], 1, [Q(3)], [None])
        assert isinstance(lp_feasible(free), Feasible)
        assert not check_infeasibility_certificate(free, res)
        assert not check_infeasibility_certificate(
            P, Infeasible([], [Q(-1)], [Q(1), Q(0)]))

    def test_bound_crossing_a_row(self):
        # x >= 2 as a bound, 2x <= 2 as a row
        P = Polyhedron([[Q(2)]], [Q(2)], [], [], 1, [Q(2)], [None])
        res = assert_infeasible(P)
        assert res.bound_mult[0] == -2 * res.ineq_mult[0] < 0

    def test_malformed_bounds(self):
        with pytest.raises(ValueError):
            Polyhedron([], [], [], [], 2, [Q(0)], None)
        with pytest.raises(ValueError):
            Polyhedron([], [], [], [], 1, [Q(1)], [Q(0)])

    @pytest.mark.parametrize("C,d,E,f,match", [
        ([[Q(1)]], [], [], [], "row counts do not match right-hand sides"),
        ([], [], [[Q(1)]], [Q(0), Q(1)],
         "row counts do not match right-hand sides"),
        ([[Q(1), Q(0)]], [Q(0)], [], [], "inequality row has wrong width"),
        ([], [], [[Q(1), Q(0)]], [Q(0)], "equality row has wrong width"),
    ], ids=["inequality-rhs", "equality-rhs", "inequality-width",
            "equality-width"])
    def test_malformed_rows(self, C, d, E, f, match):
        with pytest.raises(ValueError, match=f"^{match}$"):
            Polyhedron(C, d, E, f, 1)

    def test_point_length_checked(self):
        with pytest.raises(ValueError, match="^point has wrong dimension$"):
            Polyhedron([], [], [], [], 2).contains([Q(0)])
        P = Polyhedron([], [], [], [], 2, [Q(0), None], None)
        assert P.hi == [None, None]
        assert P.contains([Q(0), Q(-7)]) and not P.contains([Q(-1), Q(0)])

    def test_fm_writes_the_bounds_out(self):
        P = Polyhedron([[Q(1), Q(1)]], [Q(1)], [], [], 2, [Q(0), Q(1)], [None, Q(2)])
        R = fm_eliminate(P, 1)  # x + y <= 1, y >= 1 and x >= 0 leave x = 0
        assert R.lo == [None] and R.hi == [None]
        assert R.contains([Q(0)]) and not R.contains([Q(1, 2)]) \
            and not R.contains([Q(-1)])
        assert fm_feasible(P)
        assert not fm_feasible(Polyhedron(P.C, [Q(0)], [], [], 2, P.lo, P.hi))


def random_with_bounds(rng, entry):
    """A polyhedron with random finite and infinite bounds, unit rows that
    are tighter or looser than a bound or cross the other one, general rows
    and equalities; and the same set with each finite bound written as a
    unit row of C, after the rows it had."""
    dim = rng.randint(1, 4)
    lo, hi, rows = [], [], []
    for j in range(dim):
        l = Q(rng.randint(-3, 3), rng.randint(1, 2)) if rng.random() < 0.7 else None
        h = Q(rng.randint(0, 4), rng.randint(1, 2)) + (l or 0) \
            if rng.random() < 0.7 else None
        lo.append(l)
        hi.append(h)
        for _ in range(rng.choice((0, 0, 1, 2))):
            sign = rng.choice((1, -1))
            near = h if sign > 0 else l
            if near is None:
                near = l if sign > 0 else h
            b = (near or 0) + sign * Q(rng.randint(-2, 4), 2)
            scale = Q(rng.randint(1, 3))
            row = [Q(0)] * dim
            row[j] = sign * scale
            rows.append((row, sign * scale * b))
    for _ in range(rng.randint(0, 3)):
        rows.append(([entry(rng, 3) for _ in range(dim)], entry(rng, 3)))
    rng.shuffle(rows)
    E = [[entry(rng, 2) for _ in range(dim)] for _ in range(rng.randint(0, 2))]
    f = [entry(rng, 3) for _ in E]
    C, d = [r for r, _ in rows], [b for _, b in rows]
    P = Polyhedron(C, d, E, f, dim, lo, hi)
    for j in range(dim):
        for sign, end in ((1, hi[j]), (-1, lo[j])):
            if end is not None:
                row = [Q(0)] * dim
                row[j] = Q(sign)
                C = C + [row]
                d = d + [sign * end]
    return P, Polyhedron(C, d, E, f, dim)


@pytest.mark.parametrize("seed,entry", [(7, small_int), (77, mixed_rational)],
                         ids=["integer", "rational"])
def test_bounds_agree_with_unit_rows(seed, entry):
    rng = random.Random(seed)
    seen = {"feasible": 0, "infeasible": 0, "bound_mult": 0, "unbounded": 0}
    for _ in range(300):
        P, R = random_with_bounds(rng, entry)
        res, want = lp_feasible(P), lp_feasible(R)
        assert type(res) is type(want)
        assert fm_feasible(P) == fm_feasible(R) == isinstance(res, Feasible)
        if isinstance(res, Feasible):
            seen["feasible"] += 1
            for x in (res.point, want.point):
                assert P.contains(x) and R.contains(x)
        else:
            seen["infeasible"] += 1
            assert check_infeasibility_certificate(P, res)
            assert check_infeasibility_certificate(R, want)
            used = [j for j, t in enumerate(res.bound_mult) if t]
            seen["bound_mult"] += bool(used)
            for j in used:
                # with that bound gone, the same multipliers prove nothing
                lo, hi = list(P.lo), list(P.hi)
                (hi if res.bound_mult[j] > 0 else lo)[j] = None
                assert not check_infeasibility_certificate(
                    Polyhedron(P.C, P.d, P.E, P.f, P.dim, lo, hi), res)
        lp = _BoundedSimplex(P)
        obj = [Q(rng.randint(-3, 3)) for _ in range(P.dim)]
        got, other = lp_maximize(P, obj), lp_maximize(R, obj)
        assert got[:2] == other[:2]
        if got[0] == "optimal":
            for x in (got[2], other[2]):
                assert P.contains(x) and R.contains(x)
        seen["unbounded"] += got[0] == "unbounded"
        assert_integer_tableau(lp)
        if lp.feasible:
            lp.maximize(obj)
            assert_integer_tableau(lp)
        units = [[Q(int(i == j)) * s for i in range(P.dim)]
                 for j in range(P.dim) for s in (1, -1)]
        for y in units + [[entry(rng, 2) for _ in range(P.dim)] for _ in range(4)]:
            assert P.contains(y) == R.contains(y)
            assert recession_cone(P).contains(y) == recession_cone(R).contains(y)
    assert min(seen.values()) > 10, seen


# large coprime denominators, so that the lcm of an LP's bound denominators
# is far from 1
BIG_DENS = (2 ** 61 - 1, 3 ** 40, 10 ** 19 + 1, 7, 9)


def rational_box(rng, dim):
    """Bounds over BIG_DENS: mostly finite, sometimes thin or one-sided."""
    lo, hi = [], []
    for _ in range(dim):
        dl, dh = rng.choice(BIG_DENS), rng.choice(BIG_DENS)
        l = Q(rng.randint(-3 * dl, 3 * dl), dl)
        h = l if rng.random() < 0.1 else l + Q(rng.randint(1, 4 * dh), dh)
        lo.append(None if rng.random() < 0.1 else l)
        hi.append(None if rng.random() < 0.1 else h)
    return lo, hi


def box_point(rng, lo, hi):
    """A point of the box, with big denominators where both ends are finite."""
    return [l + Q(rng.randint(0, 8), 8) * (h - l) if l is not None and h is not None
            else l if l is not None else h if h is not None else Q(rng.randint(-2, 2))
            for l, h in zip(lo, hi)]


def rational_box_lp(rng):
    """A Polyhedron over a rational_box, with rows of C and equalities that
    most often hold at a point of the box."""
    dim = rng.randint(1, 4)
    lo, hi = rational_box(rng, dim)
    x = box_point(rng, lo, hi)
    C = [[mixed_rational(rng, 3) for _ in range(dim)]
         for _ in range(rng.randint(0, 2))]
    d = [dot(row, x) + Q(rng.randint(-1, 4), 3) for row in C]
    E = [[mixed_rational(rng, 2) for _ in range(dim)]
         for _ in range(rng.randint(1, 3))]
    f = [dot(row, x) + Q(rng.choice((0, 0, 0, 1, -1)), 5) for row in E]
    return Polyhedron(C, d, E, f, dim, lo, hi)


def int_row_lp(rng):
    """An IntRowPolyhedron over a rational_box, as a membership vertex LP
    has: integer rows over positive denominators, and a rhs that most often
    is reached at a point of the box."""
    dim = rng.randint(1, 5)
    lo, hi = rational_box(rng, dim)
    x = box_point(rng, lo, hi)
    m = rng.randint(1, 3)
    E = [[rng.randint(-20, 20) for _ in range(dim)] for _ in range(m)]
    dens = [rng.randint(1, 12) for _ in range(m)]
    f = [dot(qvec(row), x) / den + Q(rng.choice((0, 0, 0, 1, -1)), 7)
         for row, den in zip(E, dens)]
    return int_row_polyhedron(E, dens, f, lo, hi)


class TestLPDigest:
    """A guard on the simplex's pivot sequence: the repr of lp_feasible with
    its final basis, lp_maximize, max_row_shift on every equality row and
    sign, and basis_holds under a perturbed right-hand side, over seeded
    Polyhedron and IntRowPolyhedron LPs, hashed.  A change that keeps every
    pivot keeps DIGEST."""

    DIGEST = "00f0909f326f1a35b10bb9deb8319c53df0bc73f11835f855ae3067bce1c9783"

    def lps(self):
        rng = random.Random(1717)
        for _ in range(60):
            yield rng, random_bounded(rng, mixed_rational)
            yield rng, random_with_bounds(rng, mixed_rational)[0]
            yield rng, rational_box_lp(rng)
            yield rng, int_row_lp(rng)

    def test_results_unchanged(self):
        h = hashlib.sha256()
        seen = {"feasible": 0, "infeasible": 0, "held": 0, "moved": 0}
        for rng, P in self.lps():
            res = lp_feasible(P)
            out = [res, res.basis.basis]
            obj = [Q(rng.randint(-3, 3)) for _ in range(P.dim)]
            out.append(lp_maximize(P, obj))
            out += [max_row_shift(res, e, sign)
                    for e in range(len(P.E)) for sign in (1, -1)]
            if isinstance(res, Feasible):
                seen["feasible"] += 1
                for _ in range(3):
                    f = [fi + Q(rng.randint(-4, 4), rng.choice((1, 3) + BIG_DENS))
                         for fi in P.f]
                    held = basis_holds(res, IntRhs.of(f, res.basis.edens))
                    seen["held" if held else "moved"] += 1
                    out.append(held)
            else:
                seen["infeasible"] += 1
            h.update(repr(out).encode())
            h.update(b"\n")
        assert min(seen.values()) > 20, seen
        assert h.hexdigest() == self.DIGEST


def test_solve_builds_no_fraction(monkeypatch):
    """Every value, bound and step length in the pivot loop is an integer:
    no Fraction is built inside ``_BoundedSimplex._solve``, on membership
    vertex LPs (cold, re-checked and resumed by ``max_row_shift``) and on
    Polyhedron LPs with rational bounds over large denominators."""
    built = {"in_solve": 0, "solves": 0}
    active = False
    new, solve = Q.__new__, _BoundedSimplex._solve

    def counting_new(cls, *args, **kwargs):
        built["in_solve"] += active
        return new(cls, *args, **kwargs)

    def counted_solve(self):
        nonlocal active
        built["solves"] += 1
        active = True
        try:
            return solve(self)
        finally:
            active = False

    monkeypatch.setattr(Q, "__new__", staticmethod(counting_new))
    monkeypatch.setattr(_BoundedSimplex, "_solve", counted_solve)
    active = True
    Q(1, 3)  # the counter sees a Fraction built while it is active
    active = False
    assert built["in_solve"] == 1
    built["in_solve"] = 0

    rng = random.Random(4242)
    for _ in range(12):
        sys, quant = gen_quantified(rng, rng.choice((2, 3)), 2)
        member_ae(sys, quant, random_point(rng, sys.n))
        member_united(sys, random_point(rng, sys.n))
        strict_kernel_member_ae(sys, quant, random_point(rng, sys.n))
    for _ in range(20):
        P = rational_box_lp(rng)
        res = lp_feasible(P)
        lp_maximize(P, [Q(rng.randint(-3, 3)) for _ in range(P.dim)])
        max_row_shift(res, 0, 1)
    assert built["solves"] > 100
    assert built["in_solve"] == 0
