import hashlib
import random
from collections import Counter
from fractions import Fraction as Q

import pytest

from conftest import (gen_class_c, gen_decoupled_ae, gen_first_class,
                      gen_general, gen_ordinary, gen_quantified,
                      gen_tolerable_nonempty, gen_wide_ordinary, load, query,
                      random_point, tableau_state, with_scaled_rows,
                      with_thin_params)
from pilsys import membership
from pilsys.exact import (AffineSolutionSet, FarkasCertificate, Feasible,
                          IntRowPolyhedron, NoSolution, Polyhedron, dot,
                          fm_eliminate, lin_solve, lp_feasible, lp_maximize,
                          max_row_shift, scaled_box)
from pilsys.membership import (CertKind, member_ae, member_ae_kernel,
                               member_kernel, member_tolerable, member_united,
                               strict_kernel_member, strict_kernel_member_ae,
                               validate_certificate, witness_resubstitutes)
from pilsys.model import (Interval, Parameter, ParametricSystem,
                          QuantifierAssignment, RhsParameter, SystemFormatError,
                          TolerableSystem, kernel_rows, residual_rows,
                          residual_vectors)
from pilsys.oracle import (AE, UNITED, ae_vertex_oracle, fm_member_oracle,
                           member_first_class, rasterize)
from pilsys.unbounded import decide_unbounded, probe_ray

PINNED_CERTIFICATES = \
    "46cca54ed1c13f72c869237f511eb380c0d9f1647704750c9e131147af74d4ff"

PX_EQ_Q = {"m": 1, "n": 1, "parameters": [
    {"name": "p", "interval": ["0", "1"], "A": [["1"]], "quantifier": "forall"},
    {"name": "q", "interval": ["-1", "1"], "b": ["1"], "quantifier": "exists"}]}


def lp_member(sys, quant, x):
    """``member_ae`` on its vertex LPs alone, with no row test first: the
    path whose LP counts and certificates the tests below pin."""
    return query(sys, quant).lp(residual_rows(sys, x)).member()


class TestMemberUnited:
    @pytest.mark.parametrize("x,expected,witness", [
        ((1, 0), True, [Q(1)]),
        ((1, -5), True, [Q(1, 6)]),
        ((1, 1), False, None),
    ])
    def test_e1(self, e1, x, expected, witness):
        ok, cert = member_united(e1.system, [Q(a) for a in x])
        assert ok is expected
        if expected:
            assert cert.witness_p == witness
            assert witness_resubstitutes(e1.system, [Q(a) for a in x], cert)
        else:
            assert cert.kind is CertKind.SEPARATOR
            assert validate_certificate(e1.system, None, [Q(a) for a in x], cert)

    def test_dim_mismatch(self, e1):
        with pytest.raises(ValueError):
            member_united(e1.system, [Q(1)])

    def test_agrees_with_fm_oracle(self, e1):
        rng = random.Random(2)
        for _ in range(40):
            sys = gen_general(rng)
            x = random_point(rng, sys.n)
            assert member_united(sys, x)[0] == fm_member_oracle(sys, x)


class TestMemberKernel:
    def test_e1_kernel_is_x1_axis0(self, e1):
        ok, cert = member_kernel(e1.system, [Q(0), Q(-1)])
        assert ok and cert.witness_p == [Q(0)]
        assert not member_kernel(e1.system, [Q(1), Q(-1)])[0]
        assert member_kernel(e1.system, [Q(0), Q(0)])[0]

    def test_scale_invariance(self):
        rng = random.Random(4)
        for _ in range(25):
            sys = gen_general(rng)
            y = random_point(rng, sys.n)
            a = member_kernel(sys, y)[0]
            b = member_kernel(sys, [2 * v for v in y])[0]
            assert a == b


class TestStrictKernel:
    def test_e3_direction_1(self, e3):
        ok, eps = strict_kernel_member(e3.system, [Q(1)])
        assert ok and eps == Q(1)

    def test_e1_flat_zonotope(self, e1):
        ok, _ = strict_kernel_member(e1.system, [Q(0), Q(-1)])
        assert not ok

    def test_thin_system_never_strict(self):
        sys = ParametricSystem(1, 1, [[Q(1)]], [Q(0)], [])
        assert not strict_kernel_member(sys, [Q(0)])[0]

    def test_no_equations_strict(self):
        # m = 0: no equation constrains y, and no axis bounds eps
        sys = ParametricSystem(0, 2, [], [], [])
        assert strict_kernel_member(sys, [Q(1), Q(0)]) == (True, Q(1))

    def test_strict_implies_kernel(self):
        rng = random.Random(9)
        hits = 0
        for _ in range(40):
            sys = gen_ordinary(rng)
            y = random_point(rng, sys.n)
            if strict_kernel_member(sys, y)[0]:
                hits += 1
                assert member_kernel(sys, y)[0]
        # the generator produces some wide systems where strictness occurs
        assert hits > 0


class TestFirstClass:
    @pytest.mark.parametrize("x,expected", [
        ((1, -5), True), ((1, 1), False), ((1, 0), True)])
    def test_e1(self, e1, x, expected):
        assert member_first_class(e1.system, [Q(a) for a in x]) is expected

    def test_precondition(self):
        sys = ParametricSystem(2, 2, [[Q(0)] * 2 for _ in range(2)], [Q(0)] * 2, [
            Parameter("p", Interval(Q(0), Q(1)),
                      [[Q(1), Q(0)], [Q(1), Q(0)]], [Q(0), Q(0)])])
        with pytest.raises(ValueError):
            member_first_class(sys, [Q(0), Q(0)])

    def test_matches_member_united(self):
        rng = random.Random(6)
        for _ in range(30):
            sys = gen_first_class(rng)
            x = random_point(rng, sys.n)
            assert member_first_class(sys, x) == member_united(sys, x)[0]


class TestMemberAE:
    def test_px_eq_q(self):
        parsed = load(PX_EQ_Q)
        sys, qa = parsed.system, parsed.quant
        ok, cert = member_ae(sys, qa, [Q(1)])
        assert ok and witness_resubstitutes(sys, [Q(1)], cert)
        ok, cert = member_ae(sys, qa, [Q(2)])
        assert not ok
        assert validate_certificate(sys, qa, [Q(2)], cert)

    def test_all_exists_coincides_with_united(self):
        rng = random.Random(8)
        for _ in range(20):
            sys = gen_general(rng)
            qa = QuantifierAssignment.all_exists(sys.K)
            x = random_point(rng, sys.n)
            assert member_ae(sys, qa, x)[0] == member_united(sys, x)[0]

    def test_all_forall_requires_identity_at_vertices(self):
        parsed = load(PX_EQ_Q)
        sys = parsed.system
        qa = QuantifierAssignment.all_forall(sys.K)
        # forall p, q: p*x = q never holds for all q
        assert not member_ae(sys, qa, [Q(1)])[0]

    def test_kernel_homogenizes(self):
        parsed = load(PX_EQ_Q)
        sys, qa = parsed.system, parsed.quant
        assert not member_ae_kernel(sys, qa, [Q(1)])[0]
        assert member_ae_kernel(sys, qa, [Q(0)])[0]

    def test_zero_matrix_generators(self):
        sys = ParametricSystem(1, 1, [[Q(0)]], [Q(0)], [
            Parameter("q", Interval(Q(-1), Q(1)), [[Q(0)]], [Q(1)])])
        qa = QuantifierAssignment.all_exists(1)
        assert member_ae_kernel(sys, qa, [Q(5)])[0]


def _thin(par):
    return Parameter(par.name, Interval(par.interval.lo, par.interval.lo),
                     par.A, par.b)


def _zero(par):
    return Parameter(par.name, par.interval, [[Q(0)] * len(row) for row in par.A],
                     [Q(0)] * len(par.b))


def _repeat_first_row(sys):
    """The same system with its first equation written twice."""
    def twice(M):
        return M + M[:1]
    return ParametricSystem(
        sys.m + 1, sys.n, twice(sys.A0), twice(sys.b0),
        [Parameter(par.name, par.interval, twice(par.A), twice(par.b))
         for par in sys.params])


def _warm_start_cases(rng):
    """AE and tolerable queries, some with thin universal intervals, zero
    residual columns or a repeated equation (its artificial stays basic)."""
    for i in range(300):
        if i % 2:
            tsys, x = gen_tolerable_nonempty(rng, 2, 2, K=rng.randint(1, 3))
            sys, quant = tsys.combined()
            if rng.random() < 0.3:
                x = random_point(rng, 2, -2, 2)
        else:
            sys, quant = gen_quantified(rng, 2, rng.randint(1, 3),
                                        n_forall=rng.randint(1, 3),
                                        n_exists=rng.randint(1, 3))
            x = _solved_point(rng, sys) or random_point(rng, sys.n, -2, 2)
        params = list(sys.params)
        for k in quant.forall_set:
            if rng.random() < 0.25:
                params[k] = _thin(params[k])
        if rng.random() < 0.3:
            k = rng.randrange(sys.K)
            params[k] = _zero(params[k])
        sys = ParametricSystem(sys.m, sys.n, sys.A0, sys.b0, params)
        if rng.random() < 0.5:
            sys = _repeat_first_row(sys)
        yield sys, quant, x


class TestWarmStart:
    """Later universal vertices re-check the last feasible basis first."""

    def test_same_results_as_cold_lps_at_every_vertex(self, monkeypatch):
        rng = random.Random(2024)
        seen = Counter()
        real = membership.basis_holds

        def spy(res, f):
            held = real(res, f)
            seen["held" if held else "cold"] += 1
            if held and any(b >= res.basis.width for b in res.basis.basis):
                seen["artificial basic"] += 1
            return held

        for sys, quant, x in _warm_start_cases(rng):
            with monkeypatch.context() as mp:
                mp.setattr(membership, "basis_holds", spy)
                warm = lp_member(sys, quant, x)
            with monkeypatch.context() as mp:
                mp.setattr(membership, "basis_holds", lambda res, f: False)
                cold = lp_member(sys, quant, x)
            assert repr(warm) == repr(cold)
            assert warm[0] == ae_vertex_oracle(sys, quant, x)
            seen[warm[0]] += 1
        assert seen[True] > 80 and seen[False] > 80
        assert seen["held"] > 80 and seen["cold"] > 10
        assert seen["artificial basic"] > 30

    def test_one_lp_when_the_basis_holds(self, monkeypatch):
        # x = p1 + p2 + q, p1, p2 in [0, 1] for all, q in [-3, 3] exists
        def rhs_param(name, lo, hi):
            return Parameter(name, Interval(Q(lo), Q(hi)), [[Q(0)]], [Q(1)])

        sys = ParametricSystem(1, 1, [[Q(1)]], [Q(0)], [
            rhs_param("p1", 0, 1), rhs_param("p2", 0, 1), rhs_param("q", -3, 3)])
        quant = QuantifierAssignment(frozenset({0, 1}), frozenset({2}))
        calls = []
        real = membership.lp_feasible

        def counting(P):
            calls.append(P.f)
            return real(P)

        monkeypatch.setattr(membership, "lp_feasible", counting)
        ok, cert = lp_member(sys, quant, [Q(0)])
        assert ok and cert.witness_p == [Q(0), Q(0), Q(0)]
        assert calls == [[Q(0)]]  # q = -(p1 + p2) stays in [-3, 3]
        calls.clear()
        # x = -2: q = -2 - p1 - p2 leaves [-3, 3] only at the last vertex
        ok, cert = lp_member(sys, quant, [Q(-2)])
        assert not ok and validate_certificate(sys, quant, [Q(-2)], cert)
        assert calls == [[Q(2)], [Q(4)]]

    def test_decoupled_rows_solve_the_first_vertex_only(self, monkeypatch):
        """On decoupled AE rows (``_Query.decoupled``) the row test decides:
        ``member_ae`` refutes with no LP, and answers a member with the
        witness of the first vertex alone, one LP and no basis re-check.
        Its verdict is that of the vertex LPs, which ask every universal
        vertex (``lp_member``), and so is a member's witness."""
        rng = random.Random(5353)
        asked = Counter()
        for name in ("lp_feasible", "basis_holds"):
            def spy(*args, real=getattr(membership, name), name=name):
                asked[name] += 1
                return real(*args)
            monkeypatch.setattr(membership, name, spy)
        seen = Counter()
        for trial in range(150):
            sys, quant = gen_decoupled_ae(rng, rng.randint(1, 3),
                                          rng.randint(1, 3), rng.randint(1, 3))
            if trial % 3 == 0:
                sys = with_scaled_rows(rng, sys)
            x = random_point(rng, sys.n, -2, 2)
            if trial % 2:  # the residual at the box midpoint is 0
                c = [dot(row, x) - bi for row, bi in zip(
                    sys.A_at(sys.midpoint()), sys.b_at(sys.midpoint()))]
                sys = ParametricSystem(sys.m, sys.n, sys.A0,
                                       [bi + ci for bi, ci in zip(sys.b0, c)],
                                       sys.params)
            asked.clear()
            got = member_ae(sys, quant, x)
            assert asked == (Counter(lp_feasible=1) if got[0] else Counter())
            asked.clear()
            want = lp_member(sys, quant, x)
            if got[0]:
                assert repr(got) == repr(want), trial
            else:  # refuted by a row, where the LP finds its own separator
                assert not want[0], trial
                assert validate_certificate(sys, quant, x, got[1]), trial
            seen[got[0], "re-checked" if asked["basis_holds"] else "one"] += 1
        assert seen[True, "re-checked"] >= 5 and seen[False, "re-checked"] >= 5, seen


class TestStrictKernelAE:
    def test_reduces_to_plain_strict_when_all_exists(self, e3):
        qa = QuantifierAssignment.all_exists(e3.system.K)
        assert strict_kernel_member_ae(e3.system, qa, [Q(1)]) == \
            strict_kernel_member(e3.system, [Q(1)])

    def test_forall_shrinks_strictness(self):
        # a in [-2,2] exists, c in [-1,1] forall: (a+c) y = 0
        sys = ParametricSystem(1, 1, [[Q(0)]], [Q(0)], [
            Parameter("a", Interval(Q(-2), Q(2)), [[Q(1)]], [Q(0)]),
            Parameter("c", Interval(Q(-1), Q(1)), [[Q(1)]], [Q(0)])])
        qa = QuantifierAssignment(frozenset({1}), frozenset({0}))
        ok, eps = strict_kernel_member_ae(sys, qa, [Q(1)])
        assert ok and eps == Q(1)  # 2 - 1
        qa_wide = QuantifierAssignment(frozenset({0}), frozenset({1}))
        assert not strict_kernel_member_ae(sys, qa_wide, [Q(1)])[0]

    def test_universal_vertex_cap(self, monkeypatch):
        # a in [-2, 2] exists, and 21 universal c_k in [0, 1] leave A(p)
        # alone: strict at every one of the 2^21 universal vertices, so only
        # the cap ends the enumeration
        K = membership.MAX_FORALL + 2
        sys = ParametricSystem(1, 2, [[Q(0), Q(0)]], [Q(0)], [
            Parameter("a", Interval(Q(-2), Q(2)), [[Q(1), Q(0)]], [Q(0)])] + [
            Parameter(f"c{k}", Interval(Q(0), Q(1)), [[Q(0), Q(0)]], [Q(0)])
            for k in range(1, K)])
        qa = QuantifierAssignment(frozenset(range(1, K)), frozenset({0}))
        y = [Q(1), Q(0)]
        calls = []

        def counted(real):
            def lp(*args):
                calls.append(args)
                if len(calls) > 3:
                    raise RuntimeError("the universal vertices are not capped")
                return real(*args)
            return lp

        # no LP of any kind: neither a vertex phase 1 nor an axis reach;
        # every question that takes an assignment refuses it first
        for name in ("lp_feasible", "max_row_shift"):
            monkeypatch.setattr(membership, name,
                                counted(getattr(membership, name)))
        for ask in (lambda: strict_kernel_member_ae(sys, qa, y),
                    lambda: member_ae(sys, qa, y),
                    lambda: member_ae_kernel(sys, qa, y),
                    lambda: decide_unbounded(sys, qa, y),
                    lambda: probe_ray(sys, qa, [Q(0), Q(0)], y),
                    lambda: rasterize(sys, qa, (-1, 1, -1, 1), 2, AE)):
            with pytest.raises(ValueError, match="universal parameters"):
                ask()
        assert calls == []


def _fm_axis_reach(sys, quant, y):
    """The largest eps, or None when there is none, of
    {p_E in box_E : sum_{k in E} p_k A^(k) y -+ eps e_i = rhs} at each
    universal vertex and each +-e_i, in the order ``strict_kernel_member_ae``
    asks them; rhs = -(A0 y + sum_{k universal} p_k A^(k) y).  Decided by
    Fourier-Motzkin elimination of p_E, with no simplex."""
    forall, exists = sorted(quant.forall_set), sorted(quant.exists_set)
    gens = [[dot(row, y) for row in par.A] for par in sys.params]
    c = [dot(row, y) for row in sys.A0]
    lo = [sys.params[k].interval.lo for k in exists] + [None]
    hi = [sys.params[k].interval.hi for k in exists] + [None]
    out = []
    for vertex in sys.vertices(forall):
        rhs = [-c[i] - sum((pk * gens[k][i] for k, pk in zip(forall, vertex)), Q(0))
               for i in range(sys.m)]
        for i in range(sys.m):
            for sign in (1, -1):
                E = [[gens[k][r] for k in exists] + [Q(-sign if r == i else 0)]
                     for r in range(sys.m)]
                P = Polyhedron([], [], E, rhs, len(exists) + 1, lo, hi)
                while P.dim > 1:
                    P = fm_eliminate(P, 0)
                # what is left is a c eps <= d and a eps = f in eps alone
                rows = [(a, d) for (a,), d in zip(P.C, P.d)] + \
                    [(a, f) for (a,), f in zip(P.E, P.f)] + \
                    [(-a, -f) for (a,), f in zip(P.E, P.f)]
                top = min((d / a for a, d in rows if a > 0), default=None)
                bottom = max((d / a for a, d in rows if a < 0), default=None)
                empty = any(a == 0 and d < 0 for a, d in rows) or \
                    (top is not None and bottom is not None and bottom > top)
                assert empty or top is not None  # eps is bounded by the box
                out.append(None if empty else top)
    return out


def _through_kernel(rng, sys, y):
    """sys with A0 shifted so that A(p) y = 0 at an inner box point p."""
    p = [par.interval.lo + Q(rng.randint(1, 3), 4) * (par.interval.hi - par.interval.lo)
         for par in sys.params]
    r = [dot(row, y) for row in sys.A_at(p)]
    yy = dot(y, y)
    A0 = [[a - ri * yj / yy for a, yj in zip(row, y)] for row, ri in zip(sys.A0, r)]
    return ParametricSystem(sys.m, sys.n, A0, sys.b0, sys.params)


def _cold_strict(sys, quant, y):
    """The strict kernel as 2m cold ``lp_maximize`` calls per universal
    vertex: at each vertex and each +-e_i, the vertex rows of the
    homogenized system with one more free column -+e_i, and eps maximized.
    Returns the verdict and eps as ``strict_kernel_member_ae`` defines them,
    and the reach of the first axis (None when it is out of reach)."""
    forall, exists = sorted(quant.forall_set), sorted(quant.exists_set)
    gens = [[dot(row, y) for row in par.A] for par in sys.params]
    c = [dot(row, y) for row in sys.A0]
    lo = [sys.params[k].interval.lo for k in exists] + [None]
    hi = [sys.params[k].interval.hi for k in exists] + [None]
    obj = [Q(0)] * len(exists) + [Q(1)]
    best, first = None, ()
    for vertex in sys.vertices(forall):
        rhs = [-c[i] - sum((pk * gens[k][i] for k, pk in zip(forall, vertex)), Q(0))
               for i in range(sys.m)]
        for i in range(sys.m):
            for sign in (1, -1):
                E = [[gens[k][r] for k in exists] + [Q(-sign if r == i else 0)]
                     for r in range(sys.m)]
                status, val, _ = lp_maximize(
                    Polyhedron([], [], E, rhs, len(exists) + 1, lo, hi), obj)
                assert status != "unbounded"  # the box bounds eps
                if first == ():
                    first = val
                if status != "optimal" or val <= 0:
                    return (False, val if status == "optimal" else Q(0)), first
                best = val if best is None else min(best, val)
    return (True, Q(1) if best is None else best), first


def _repeat_row(sys):
    """sys with its last equation replaced by a copy of its first."""
    def rep(rows):
        return rows[:-1] + [rows[0][:] if isinstance(rows[0], list) else rows[0]]
    return ParametricSystem(sys.m, sys.n, rep(sys.A0), rep(sys.b0), [
        Parameter(par.name, par.interval, rep(par.A), rep(par.b))
        for par in sys.params])


def _thin_forall(sys, quant):
    """sys with each universal interval shrunk to its lower end."""
    return ParametricSystem(sys.m, sys.n, sys.A0, sys.b0, [
        Parameter(par.name, Interval(par.interval.lo, par.interval.lo), par.A, par.b)
        if k in quant.forall_set else par for k, par in enumerate(sys.params)])


def _artificial_stays_basic(sys, quant, y):
    """Whether the kernel LP at the first universal vertex is feasible and
    ends phase 1 with an artificial (at 0) in its basis."""
    lp = query(sys, quant).lp(kernel_rows(sys, y))
    res = lp.first
    return isinstance(res, Feasible) and \
        any(b >= res.basis.width for b in res.basis.basis)


def test_strict_kernel_matches_cold_reference():
    """``strict_kernel_member_ae`` resumes one phase 1 per universal vertex;
    its verdict and eps must be those of 2m cold LPs per vertex, bit for bit,
    on kernel and non-kernel directions alike."""
    rng = random.Random(1313)
    seen = Counter()
    for trial in range(160):
        kind = trial % 4
        if kind == 0:
            sys = gen_general(rng, rng.choice((1, 2, 3)), 2, K=rng.randint(1, 3))
            quant = QuantifierAssignment.all_exists(sys.K)
        else:
            sys, quant = gen_quantified(rng, rng.choice((1, 2)), 2,
                                        n_forall=rng.randint(1, 2),
                                        n_exists=rng.randint(1, 3))
            if kind == 2:
                sys = _thin_forall(sys, quant)
        repeated = sys.m > 1 and trial % 5 in (0, 3)
        if repeated:
            sys = _repeat_row(sys)
        y = random_point(rng, sys.n, -1, 1) if trial % 7 else [Q(0)] * sys.n
        if trial % 3 == 0 and any(y):
            sys = _through_kernel(rng, sys, y)
        got = strict_kernel_member_ae(sys, quant, y)
        want, first = _cold_strict(sys, quant, y)
        assert got == want, (trial, got, want)
        in_kernel = member_ae_kernel(sys, quant, y)[0]
        seen["ae" if quant.forall_set else "united", in_kernel, got[0]] += 1
        seen["m", sys.m] += 1
        seen["zero"] += not any(y)
        seen["thin"] += kind == 2
        seen["positive first axis, not kernel"] += \
            not in_kernel and first is not None and first > 0
        seen["repeated row, artificial basic at 0"] += \
            repeated and any(y) and _artificial_stays_basic(sys, quant, y)
    for ae in ("united", "ae"):
        assert seen[ae, True, True] >= 3 and seen[ae, True, False] >= 3, seen
        assert seen[ae, False, False] >= 3, seen
    for key in (("m", 1), ("m", 2), ("m", 3), "zero", "thin",
                "positive first axis, not kernel",
                "repeated row, artificial basic at 0"):
        assert seen[key] >= 2, (key, seen)


def test_strict_kernel_resumes_an_infeasible_vertex():
    # (3 + a, a) y with a in [-1, 1] and y = 1: 0 is not in the kernel, and
    # the first axis still reaches +e_1 at a = 0 with eps = 3, so the phase 1
    # left infeasible resumes; -e_1 is where it fails, at eps = -3
    sys = ParametricSystem(2, 1, [[Q(3)], [Q(0)]], [Q(0), Q(0)], [
        Parameter("a", Interval(Q(-1), Q(1)), [[Q(1)], [Q(1)]], [Q(0), Q(0)])])
    quant = QuantifierAssignment.all_exists(1)
    assert not member_ae_kernel(sys, quant, [Q(1)])[0]
    assert _cold_strict(sys, quant, [Q(1)]) == ((False, Q(-3)), Q(3))
    assert strict_kernel_member_ae(sys, quant, [Q(1)]) == (False, Q(-3))


def _row_shift_strict(lp):
    """The strict kernel of a vertex LP by its LP path: one cold LP per
    universal vertex and ``max_row_shift`` on each axis, +e_i before -e_i.
    Returns the verdict, eps and what ended it ("infeasible", "value" or
    "strict")."""
    best = None
    for rhs in lp.vertices():
        res = lp._lp(rhs)
        for e in range(len(lp.E)):
            for sign in (1, -1):
                status, val = max_row_shift(res, e, sign)
                assert status != "unbounded"  # the box bounds every axis
                if status == "infeasible":
                    return False, Q(0), "infeasible"
                if val <= 0:
                    return False, val, "value"
                best = val if best is None else min(best, val)
    return True, best, "strict"


def _with_thin_exists(rng, sys, quant):
    """sys with two thin parameters put in (``with_thin_params``), each
    meeting one to m rows, as existential ones; the others keep their
    quantifiers."""
    names = {sys.params[k].name for k in quant.forall_set}
    sys = with_thin_params(rng, sys)
    forall = frozenset(k for k, par in enumerate(sys.params)
                       if par.name in names)
    return sys, QuantifierAssignment(forall, frozenset(range(sys.K)) - forall)


def _spied_lps(monkeypatch):
    """Every ``lp_feasible`` and ``max_row_shift`` call the membership
    module makes, by name, in a list the caller clears."""
    asked = []
    for name in ("lp_feasible", "max_row_shift"):
        def spy(*args, real=getattr(membership, name), name=name):
            asked.append(name)
            return real(*args)
        monkeypatch.setattr(membership, name, spy)
    return asked


def test_decoupled_strict_matches_the_row_shift_reference(monkeypatch):
    """When every existential parameter that is not thin meets one row
    (``_Query.decoupled``), the strict kernel reads each row's reach in
    integers and asks no LP; its verdict, eps and failure value must be
    those of the LP path on the same kernel LP, on united and AE systems
    (1-3 universal parameters, all of them universal included), kernel and
    non-kernel directions, rows with D_i > 1, rows that no existential
    parameter meets, and rows that only a thin existential parameter
    couples.  Its ``separator``, which trusts the row test there, must
    agree with the LP's kernel verdict and return the LP's separator, and
    ask no LP for a direction in the kernel."""
    rng = random.Random(3131)
    asked = _spied_lps(monkeypatch)
    seen = Counter()
    for trial in range(240):
        m = rng.choice((1, 2, 3))
        n_forall = 0 if trial % 4 == 0 else rng.randint(1, 3)
        n_exists = 0 if trial % 9 == 0 else rng.randint(1, 3)
        if n_forall + n_exists == 0:
            n_exists = 1
        if trial % 8 == 0:  # a wide ordinary system: Z(y) has interior
            sys = gen_wide_ordinary(rng, m, 2)
            quant = QuantifierAssignment.all_exists(sys.K)
        else:
            sys, quant = gen_decoupled_ae(rng, m, n_forall, n_exists)
        if trial % 5 in (1, 2, 3):
            sys, quant = _with_thin_exists(rng, sys, quant)
        if trial % 3 == 0:
            sys = with_scaled_rows(rng, sys)
        y = random_point(rng, sys.n, -1, 1)
        if trial % 2 and any(y):
            sys = _through_kernel(rng, sys, y)
        if not any(y):
            continue
        qry = query(sys, quant)
        ky = kernel_rows(sys, y)
        assert qry.decoupled(ky)
        lp = qry.lp(ky)
        ok, eps, why = _row_shift_strict(lp)
        asked.clear()
        assert strict_kernel_member_ae(sys, quant, y) == (ok, eps), trial
        assert asked == [], trial
        in_kernel, cert = query(sys, quant).lp(kernel_rows(sys, y)).member()
        asked.clear()
        assert lp.separator() == (None if in_kernel else cert), trial
        assert not (in_kernel and asked), trial
        seen["in kernel", in_kernel] += 1
        seen[why, eps < 0] += 1
        seen["ae" if quant.forall_set else "united", ok] += 1
        seen["all universal"] += not quant.exists_set
        seen["scaled rows"] += trial % 3 == 0
        seen["zero existential row"] += any(not any(row) for row in lp.E)
        seen["coupled by a thin parameter", in_kernel] += any(
            sum(map(bool, col)) > 1
            for k, col in zip(qry.exists, zip(*lp.E))
            if sys.params[k].interval.is_thin())
    assert seen["infeasible", False] >= 5 and seen["value", True] >= 5, seen
    assert seen["value", False] >= 2, seen  # an axis that reaches 0 exactly
    for key in (("united", True), ("united", False), ("ae", True),
                ("ae", False), "all universal", "scaled rows",
                "zero existential row", ("in kernel", True),
                ("in kernel", False), ("coupled by a thin parameter", True),
                ("coupled by a thin parameter", False)):
        assert seen[key] >= 3, (key, seen)


def test_strict_kernel_eps_matches_fm():
    """Multi-row verdicts and eps against an FM projection onto eps: strict
    exactly when every axis reach is positive, and then eps is the least of
    them; otherwise eps is the first reach that fails (0 when none exists)."""
    rng = random.Random(2024)
    strict = Counter()
    for trial in range(90):
        if trial % 3 == 0:
            sys = gen_general(rng, 2, 2, K=3)
            quant = QuantifierAssignment.all_exists(sys.K)
        elif trial % 3 == 1:
            sys = gen_general(rng, 3, 2, K=4)
            quant = QuantifierAssignment.all_exists(sys.K)
        else:
            sys, quant = gen_quantified(rng, 2, 2, n_forall=rng.randint(1, 2),
                                        n_exists=rng.randint(2, 3))
        y = random_point(rng, sys.n, -1, 1)
        if trial % 2 and any(y):
            sys = _through_kernel(rng, sys, y)
        ok, eps = strict_kernel_member_ae(sys, quant, y)
        reach = _fm_axis_reach(sys, quant, y)
        assert ok == all(v is not None and v > 0 for v in reach)
        if ok:
            assert eps == min(reach)
        else:
            first = next(v for v in reach if v is None or v <= 0)
            assert eps == (Q(0) if first is None else first)
        strict[sys.m, bool(quant.forall_set), ok] += 1
    for m, ae in ((2, False), (3, False), (2, True)):
        assert strict[m, ae, True] >= 2 and strict[m, ae, False] >= 2, strict


class TestTolerable:
    def make_x_eq_q(self):
        base = ParametricSystem(1, 1, [[Q(1)]], [Q(0)], [])
        return TolerableSystem(base, [RhsParameter("q", Interval(Q(-1), Q(1)),
                                                   [Q(1)])])

    def make_px_eq_q(self):
        base = ParametricSystem(1, 1, [[Q(0)]], [Q(0)], [
            Parameter("p", Interval(Q(0), Q(1)), [[Q(1)]], [Q(0)])])
        return TolerableSystem(base, [RhsParameter("q", Interval(Q(-1), Q(1)),
                                                   [Q(1)])])

    def test_x_eq_q(self):
        tsys = self.make_x_eq_q()
        assert member_tolerable(tsys, [Q(1, 2)])[0]
        assert not member_tolerable(tsys, [Q(2)])[0]

    def test_px_eq_q(self):
        # the file form of p x = q is its AE set, with the same verdicts
        parsed = load(PX_EQ_Q)
        tsys = self.make_px_eq_q()
        for x, want in (([Q(1)], True), ([Q(3)], False)):
            assert member_tolerable(tsys, x)[0] is want
            assert member_ae(parsed.system, parsed.quant, x)[0] is want

    def test_kernel_tolerable(self):
        # p y = 0 for every p in [0, 1] only at y = 0
        sys, quant = self.make_px_eq_q().combined()
        assert not member_ae_kernel(sys, quant, [Q(1)])[0]
        assert member_ae_kernel(sys, quant, [Q(0)])[0]

    def test_kernel_tolerable_thin_parameter(self):
        base = ParametricSystem(2, 2, [[Q(1), Q(0)], [Q(0), Q(0)]],
                                [Q(0), Q(0)], [
            Parameter("p", Interval(Q(0), Q(0)),
                      [[Q(0), Q(0)], [Q(0), Q(1)]], [Q(0), Q(0)])])
        sys, quant = TolerableSystem(base, []).combined()
        assert member_ae_kernel(sys, quant, [Q(0), Q(1)])[0]

    def test_kernel_tolerable_matches_all_forall_kernel(self):
        """A(p) y = 0 on the whole box is AE kernel membership with every
        parameter universal; checked against A(v) y at every box vertex."""
        def annihilate(M, y):
            yy = dot(y, y)
            return [[a - dot(row, y) * yj / yy for a, yj in zip(row, y)]
                    for row in M]

        rng = random.Random(77)
        seen = Counter()
        for trial in range(30):
            m, n = rng.choice(((2, 2), (2, 3), (3, 3)))
            base = gen_tolerable_nonempty(rng, m, n, K=rng.randint(1, 3))[0].base
            y = random_point(rng, n, -2, 2)
            if not any(y):
                y[0] = Q(1)
            # y in the common null space of A0 and every A^(k); then one
            # thin parameter keeps a nonzero A^(k) y that A0 cancels at its value
            null = ParametricSystem(m, n, annihilate(base.A0, y), base.b0, [
                Parameter(par.name, par.interval, annihilate(par.A, y), par.b)
                for par in base.params])
            k = rng.randrange(base.K)
            t, A = base.params[k].interval.lo, base.params[k].A
            params = null.params[:]
            params[k] = Parameter("t", Interval(t, t), A, base.params[k].b)
            A0 = [[a - t * dot(row, y) * yj / dot(y, y) for a, yj in zip(a0, y)]
                  for a0, row in zip(null.A0, A)]
            thin_null = ParametricSystem(m, n, A0, base.b0, params)
            cases = [(base, y), (base, [Q(0)] * n), (null, y),
                     (null, random_point(rng, n, -2, 2)), (thin_null, y),
                     (thin_null, [Q(2) * v for v in y])]
            for sys, d in cases:
                got = member_ae_kernel(sys, QuantifierAssignment.all_forall(sys.K), d)[0]
                want = all(dot(row, d) == 0 for v in sys.vertices(range(sys.K))
                           for row in sys.A_at(v))
                assert got == want
                seen[got] += 1
        assert seen[True] >= 60 and seen[False] >= 30, seen


class TestCertificateValidation:
    def test_zero_w_never_validates(self, e1):
        from pilsys.exact import FarkasCertificate
        with pytest.raises(ValueError):
            FarkasCertificate([Q(0), Q(0)], [], [])

    def test_e1_handmade_separator(self, e1):
        from pilsys.exact import FarkasCertificate
        from pilsys.membership import Certificate
        cert = Certificate.separator(FarkasCertificate([Q(0), Q(1)], [Q(0)], [Q(0)]))
        # note u, v here are placeholders; validation uses w only
        assert validate_certificate(e1.system, None, [Q(1), Q(1)], cert)

    def test_wrong_lengths(self, e1):
        from pilsys.exact import FarkasCertificate
        from pilsys.membership import Certificate
        ok, cert = member_united(e1.system, [Q(1), Q(0)])
        assert ok
        for x in ([Q(1)], [Q(1), Q(0), Q(0)]):
            with pytest.raises(ValueError):
                witness_resubstitutes(e1.system, x, cert)
        # w = (0, 1) separates (1, 1); a third entry, or a missing one, is
        # not a separator of this 2-row system
        for w in ([Q(0), Q(1), Q(5)], [Q(1)]):
            sep = Certificate.separator(FarkasCertificate(w, [Q(0)], [Q(0)]))
            assert not validate_certificate(e1.system, None, [Q(1), Q(1)], sep)

    def test_witness_refusals(self, e1):
        # E1 reads x1 = 1, x1 + p1 x2 = p1 with p1 in [0, 1]
        from pilsys.membership import Certificate
        x = [Q(1), Q(0)]
        ok, cert = member_united(e1.system, x)
        assert ok and cert.witness_p == [Q(1)]
        with pytest.raises(ValueError, match="not a WITNESS"):
            witness_resubstitutes(e1.system, x, member_united(
                e1.system, [Q(1), Q(1)])[1])
        # one entry too many still re-substitutes, but is no witness
        assert not witness_resubstitutes(
            e1.system, x, Certificate.witness([Q(1), Q(5)]))
        # p1 = -1 solves the equations at (1, 2), outside the box
        far, p = [Q(1), Q(2)], [Q(-1)]
        assert [dot(row, far) for row in e1.system.A_at(p)] == e1.system.b_at(p)
        assert not witness_resubstitutes(e1.system, far, Certificate.witness(p))

    def test_witness_carries_no_separator(self):
        import inspect

        from pilsys.membership import Certificate
        cert = Certificate.witness([Q(1)])
        assert cert.separator is None
        assert "function" not in repr(cert)
        fields = inspect.signature(Certificate).parameters
        assert fields["separator"].default is None
        assert fields["witness_p"].default is None
        assert Certificate(CertKind.WITNESS).separator is None

    def test_quantifiers_must_partition(self, e1):
        from pilsys.exact import FarkasCertificate
        from pilsys.membership import Certificate
        from pilsys.model import QuantifierAssignment, SystemFormatError
        # (1, 0) is a member, so no separator may validate for it
        x = [Q(1), Q(0)]
        assert member_united(e1.system, x)[0]
        sep = Certificate.separator(FarkasCertificate([Q(0), Q(1)], [Q(0)], [Q(0)]))
        assert not validate_certificate(e1.system, None, x, sep)
        with pytest.raises(SystemFormatError):
            validate_certificate(e1.system,
                                 QuantifierAssignment(frozenset(), frozenset()),
                                 x, sep)

    def test_witness_rejected_by_validator(self, e1):
        ok, cert = member_united(e1.system, [Q(1), Q(0)])
        assert ok
        with pytest.raises(ValueError):
            validate_certificate(e1.system, None, [Q(1), Q(0)], cert)

    def test_random_separators_validate(self):
        rng = random.Random(13)
        found = 0
        for _ in range(200):
            sys = gen_general(rng)
            x = random_point(rng, sys.n)
            ok, cert = member_united(sys, x)
            if not ok:
                found += 1
                assert validate_certificate(sys, None, x, cert)
            else:
                assert witness_resubstitutes(sys, x, cert)
        assert found > 50


class TestLPShape:
    """The parameter box reaches the simplex as variable bounds, not rows."""

    def spy(self, monkeypatch, name):
        seen = []
        real = getattr(membership, name)

        def wrapped(P, *args):
            seen.append((P, *args))
            return real(P, *args)

        monkeypatch.setattr(membership, name, wrapped)
        return seen

    def test_membership_lps(self, monkeypatch):
        seen = self.spy(monkeypatch, "lp_feasible")
        rng = random.Random(71)
        for i in range(30):
            if i % 2:
                sys = gen_general(rng, 3, 3)
                quant = QuantifierAssignment.all_exists(sys.K)
            else:
                sys, quant = gen_quantified(rng, 2, 3, n_forall=rng.randint(1, 2))
            seen.clear()
            lp_member(sys, quant, random_point(rng, sys.n))
            box = [sys.params[k].interval for k in sorted(quant.exists_set)]
            assert seen
            for (P,) in seen:
                assert P.C == [] and P.d == []
                assert len(P.E) == len(P.f) == sys.m and P.dim == len(box)
                assert P.box == scaled_box([iv.lo for iv in box],
                                           [iv.hi for iv in box])

    def test_strict_kernel_lps(self, monkeypatch):
        """On coupled rows (some existential parameter meets two of them),
        the strict kernel solves the kernel query's vertex LP over the
        existential box once per universal vertex, and each axis reach
        resumes that LP's result with one equation relaxed."""
        lps = self.spy(monkeypatch, "lp_feasible")
        shifts = self.spy(monkeypatch, "max_row_shift")
        rng = random.Random(72)
        checked = 0
        while checked < 20:
            sys, quant = gen_quantified(rng, 2, 2, n_forall=1)
            y = random_point(rng, sys.n, -2, 2)
            if query(sys, quant).decoupled(kernel_rows(sys, y)):
                continue  # decoupled rows ask no LP (see below)
            checked += 1
            lps.clear()
            member_ae_kernel(sys, quant, y)
            kernel = lps[0][0]
            lps.clear()
            shifts.clear()
            strict_kernel_member_ae(sys, quant, y)
            box = [sys.params[k].interval for k in sorted(quant.exists_set)]
            assert lps and len(lps) <= 2  # one per universal vertex
            assert lps[0][0] == kernel
            for (P,) in lps:
                assert P.C == [] and len(P.E) == sys.m and P.dim == len(box)
                assert P.E == kernel.E
                assert P.box == scaled_box([iv.lo for iv in box],
                                           [iv.hi for iv in box])
            # each axis resumes its own vertex's result, +e_i before -e_i
            assert shifts
            axes = [(e, sign) for e in range(sys.m) for sign in (1, -1)]
            for k, (res, e, sign) in enumerate(shifts):
                assert (e, sign) == axes[k % len(axes)]
                assert res.basis is not None


def test_integer_row_lps_match_the_rational_reference():
    """Each vertex LP reaches the simplex as integer residual rows over one
    denominator per row.  On united, AE and kernel queries its right-hand
    sides must be those of the Fraction residuals, and its result (type,
    point, multipliers and final tableau) that of ``lp_feasible`` on the
    rational rows."""
    rng = random.Random(1414)
    seen = Counter()
    for trial in range(150):
        kind = trial % 3
        if kind == 0:
            sys = gen_general(rng, rng.randint(1, 3), rng.randint(1, 3))
            quant = QuantifierAssignment.all_exists(sys.K)
        elif trial % 2:
            sys, quant = gen_quantified(rng, 2, 2, n_forall=rng.randint(1, 2))
        else:
            tsys, _ = gen_tolerable_nonempty(rng, 2, 2, K=rng.randint(1, 2))
            sys, quant = tsys.combined()
        x = [Q(rng.randint(-6, 6), rng.choice((1, 2, 3, 5, 7)))
             for _ in range(sys.n)]
        if kind == 0 and trial % 2:
            x = _solved_point(rng, sys) or x
        if kind == 2:
            sys = sys.homogenized()
            lp = query(sys, quant).lp(kernel_rows(sys, x))
        else:
            lp = query(sys, quant).lp(residual_rows(sys, x))
        v = residual_vectors(sys, x)
        E = [[Q(a, den) for a in row] for row, den in zip(lp.E, lp.dens)]
        forall, exists = lp.query.forall, lp.query.exists
        assert E == [[v[k + 1][i] for k in exists] for i in range(sys.m)]
        box = [sys.params[k].interval for k in exists]
        for vertex, rhs in zip(sys.vertices(forall), lp.vertices()):
            coef = [Q(1), *vertex]
            f = [Q(n, rhs.den * den) for n, den in zip(rhs.nums, lp.dens)]
            assert f == [-dot(coef, [v[k][i] for k in (0, *(k + 1 for k in forall))])
                         for i in range(sys.m)]
            got = lp_feasible(IntRowPolyhedron(lp.E, lp.dens, rhs, lp.query.box))
            want = lp_feasible(Polyhedron([], [], E, f, len(exists),
                                          [iv.lo for iv in box],
                                          [iv.hi for iv in box]))
            assert type(got) is type(want) and got == want
            assert tableau_state(got) == tableau_state(want)
            seen[kind, type(got).__name__] += 1
    assert all(seen[kind, outcome] >= 5 for kind in range(3)
               for outcome in ("Feasible", "Infeasible")), seen


def _solved_point(rng, sys):
    """A united member by construction: a solution of A(p) x = b(p) at a
    random box point p, or None when A(p) x = b(p) has no solution."""
    p = [par.interval.lo + Q(rng.randint(0, 4), 4) * (par.interval.hi - par.interval.lo)
         for par in sys.params]
    res = lin_solve(sys.A_at(p), sys.b_at(p))
    return None if isinstance(res, NoSolution) else res.point


def test_certificates_pinned():
    """The exact certificates, not only the verdicts, of a fixed seeded set
    of queries.  The LP core pivots deterministically (Bland's rule), so a
    change of its arithmetic that is exact must leave every witness p,
    separator (w, u, v) and eps bit for bit as they are."""
    rng = random.Random(404)
    calls = []
    for i in range(40):
        sys = gen_general(rng, 3, 3, K=rng.randint(1, 4))
        x = _solved_point(rng, sys) if rng.random() < 0.5 else None
        calls.append(lp_member(sys, QuantifierAssignment.all_exists(sys.K),
                               x or random_point(rng, sys.n)))
        if i % 2:  # an AE member by construction, found with a forall set
            tsys, x = gen_tolerable_nonempty(rng, 2, 2, K=2)
            sys, quant = tsys.combined()
        else:
            sys, quant = gen_quantified(rng, 2, 2, n_forall=rng.randint(1, 2))
            x = random_point(rng, sys.n, -1, 1)
        calls.append(lp_member(sys, quant, x))
        tsys, x0 = gen_tolerable_nonempty(rng, 2, 2, K=rng.randint(1, 2))
        calls.append(lp_member(*tsys.combined(), x0 if rng.random() < 0.5
                               else random_point(rng, 2, -2, 2)))
        sys = gen_wide_ordinary(rng, 2, 2) if i % 2 else gen_general(rng, 2, 2, K=3)
        calls.append(strict_kernel_member(sys, random_point(rng, sys.n, -2, 2)))
    assert 20 < sum(ok for ok, _ in calls) < len(calls) - 20
    digest = hashlib.sha256(repr(calls).encode()).hexdigest()
    assert digest == PINNED_CERTIFICATES


def test_vertex_lp_builds_fractions_only_for_its_results(monkeypatch):
    """A whole ``_VertexLP.member`` builds Fractions only for what it
    returns: the point or Farkas multipliers of each cold LP it solves, and
    the witness or separator made from them.  Its rows, box, right-hand
    sides, warm re-checks and the sign tests of a separator are integers."""
    built = [0]
    active = False
    new = Q.__new__

    def counting_new(cls, *args, **kwargs):
        built[0] += active
        return new(cls, *args, **kwargs)

    results = []
    real = membership.lp_feasible

    def solving(P):
        res = real(P)
        results.append(res)
        return res

    monkeypatch.setattr(Q, "__new__", staticmethod(counting_new))
    monkeypatch.setattr(membership, "lp_feasible", solving)
    rng = random.Random(5151)
    seen = Counter()
    for trial in range(60):
        if trial % 3 == 0:
            sys, quant = gen_quantified(rng, rng.choice((2, 3)), 2,
                                        n_forall=rng.randint(1, 2))
            x = random_point(rng, sys.n, -2, 2)
        elif trial % 3 == 1:
            tsys, x = gen_tolerable_nonempty(rng, 2, 2, K=rng.randint(1, 2))
            sys, quant = tsys.combined()
        else:
            sys = gen_general(rng, 3, 3, K=rng.randint(1, 4))
            quant = QuantifierAssignment.all_exists(sys.K)
            x = _solved_point(rng, sys) or random_point(rng, sys.n)
        lp = query(sys, quant).lp(residual_rows(sys, x))
        results.clear()
        built[0] = 0
        active = True
        try:
            ok, cert = lp.member()
        finally:
            active = False
        entries = sum(len(r.point) if isinstance(r, Feasible)
                      else len(r.eq_mult) + len(r.bound_mult) for r in results)
        # the witness copies the lower ends and the first LP's point; a
        # separator copies w and builds a zero and the negated entries of v
        extra = 0 if ok else 2 + len(cert.separator.v)
        assert built[0] <= entries + extra, (trial, built[0], entries, extra)
        seen[ok] += 1
    assert seen[True] > 10 and seen[False] > 10, seen


def _point_queries(rng, trials):
    """(system, quantifiers, point, first class) for united, AE, tolerable
    and first-class queries; some points are solved at a box point or are
    a tolerable system's anchor, so members occur too."""
    for trial in range(trials):
        kind = trial % 4
        if kind == 0:
            sys = gen_general(rng, rng.randint(1, 3), rng.randint(1, 3))
            quant = QuantifierAssignment.all_exists(sys.K)
            x = (_solved_point(rng, sys) if trial % 8 == 0 else None) \
                or random_point(rng, sys.n, -2, 2)
        elif kind == 1:
            sys, quant = gen_quantified(rng, 2, 2, n_forall=rng.randint(1, 2))
            x = random_point(rng, sys.n, -1, 1)
        elif kind == 2:
            tsys, x = gen_tolerable_nonempty(rng, 2, 2, K=rng.randint(1, 2))
            sys, quant = tsys.combined()
            if trial % 8 == 6:
                x = random_point(rng, sys.n, -2, 2)
        else:
            sys = gen_first_class(rng, rng.randint(1, 3), rng.randint(1, 3),
                                  K=rng.randint(1, 4))
            forall = frozenset(k for k in range(sys.K) if rng.random() < 0.3)
            quant = QuantifierAssignment(forall, frozenset(range(sys.K)) - forall)
            x = (_solved_point(rng, sys) if trial % 8 == 3 else None) \
                or random_point(rng, sys.n, -2, 2)
        yield sys, quant, x, kind == 3


def test_one_box_scaling_per_query(monkeypatch):
    """One query reads its box: the row test, the existential bounds and
    every universal vertex come from one ``scaled_box`` call.  So does
    every stage of one ``decide_unbounded`` (kernel, strict kernel, sign
    pieces, base points and walks) and every cell of one ``rasterize``."""
    calls = []
    real = membership.scaled_box

    def spy(lo, hi):
        calls.append(len(lo))
        return real(lo, hi)

    monkeypatch.setattr(membership, "scaled_box", spy)
    rng = random.Random(2424)
    solved = 0
    for sys, quant, x, _ in _point_queries(rng, 120):
        calls.clear()
        ok, _ = member_ae(sys, quant, x)
        assert calls == [sys.K]
        solved += ok
    assert solved > 10
    rules = Counter()
    for _ in range(6):
        for sys, quant in ((gen_general(rng, 2, 2), None),
                           (gen_ordinary(rng, 2, 2), None),
                           (gen_class_c(rng, 2, 2), None),
                           gen_quantified(rng, 2, 2)):
            for y in (random_point(rng, 2), _kernel_direction(sys)):
                if y is None:
                    continue
                calls.clear()
                rules[decide_unbounded(sys, quant, y).rule.value] += 1
                assert calls == [sys.K]
            calls.clear()
            rasterize(sys, quant, (-2, 2, -2, 2), 4, AE if quant else UNITED)
            assert calls == [sys.K]
    assert len(rules) >= 4, rules


def _kernel_direction(sys):
    """A nonzero y with A(p) y = 0 at the box midpoint, or None."""
    res = lin_solve(sys.A_at(sys.midpoint()), [Q(0)] * sys.m)
    return res.basis[0] if isinstance(res, AffineSolutionSet) else None


def test_vertex_lp_walks_no_fraction_vertex(monkeypatch):
    """The vertex LP walks the universal vertices as ``box_vertices`` of
    its integer ends: ``member`` and ``strict`` ask
    ``ParametricSystem.vertices`` for none, and a witness still takes the
    first vertex, the lower ends of the universal parameters."""
    calls = []
    real = ParametricSystem.vertices

    def spy(sys, indices):
        calls.append(list(indices))
        return real(sys, indices)

    monkeypatch.setattr(ParametricSystem, "vertices", spy)
    rng = random.Random(2525)
    seen = Counter()
    for trial in range(40):
        sys, quant = gen_quantified(rng, 2, 2, n_forall=rng.randint(1, 2))
        y = random_point(rng, sys.n, -1, 1) if trial % 2 else [Q(0)] * sys.n
        lp = query(sys, quant).lp(kernel_rows(sys, y))
        ok, cert = lp.member()
        lp.strict()
        if ok:
            assert [cert.witness_p[k] for k in lp.query.forall] == \
                [sys.params[k].interval.lo for k in lp.query.forall]
        seen[ok] += 1
    assert calls == []
    assert seen[True] >= 5 and seen[False] >= 5, seen


class TestRowSeparator:
    """A point query first tries each equation alone."""

    def test_verdicts_are_those_of_the_vertex_lps(self):
        rng = random.Random(2121)
        seen = Counter()
        for sys, quant, x, _ in _point_queries(rng, 240):
            ok, cert = member_ae(sys, quant, x)
            assert ok == lp_member(sys, quant, x)[0]
            assert ok == ae_vertex_oracle(sys, quant, x)
            sep = query(sys, quant).refute(residual_rows(sys, x))
            if sep is None:
                seen["lp", ok] += 1
                continue
            seen["row"] += 1
            assert not ok and cert.separator == sep
            w = sep.w
            assert sorted(map(abs, w)) == [0] * (sys.m - 1) + [1]
            i = [abs(a) for a in w].index(1)
            # the lowest equation that fails is the one returned
            for e in range(i):
                w_e = [Q(int(r == e)) for r in range(sys.m)]
                for sign in (1, -1):
                    assert not validate_certificate(
                        sys, quant, x, membership.Certificate.separator(
                            FarkasCertificate([sign * a for a in w_e], [], [])))
            assert validate_certificate(sys, quant, x, cert)
            # u and v split t_k = w.v^(k) over the existential k
            v = residual_vectors(sys, x)
            t = [dot(w, v[k + 1]) for k in sorted(quant.exists_set)]
            assert sep.u == [max(-tk, 0) for tk in t]
            assert sep.v == [max(tk, 0) for tk in t]
        assert seen["row"] > 60 and seen["lp", True] > 30 and \
            seen["lp", False] > 2, seen

    def test_exact_on_first_class_systems(self):
        # equations that share no parameter decouple: x is a member exactly
        # when no equation fails alone
        rng = random.Random(2222)
        seen = Counter()
        for sys, quant, x, first_class in _point_queries(rng, 600):
            if not first_class:
                continue
            refuted = query(sys, quant).refute(
                residual_rows(sys, x)) is not None
            assert refuted != lp_member(sys, quant, x)[0]
            seen[refuted, bool(quant.forall_set)] += 1
        assert min(seen.values()) > 10, seen

    def test_a_refuted_point_solves_no_lp(self, monkeypatch):
        """A row-refuted query builds Fractions only for w, u and v."""
        built = [0]
        active = False
        new = Q.__new__

        def counting_new(cls, *args, **kwargs):
            built[0] += active
            return new(cls, *args, **kwargs)

        def no_lp(P):
            raise AssertionError("a row-refuted query solved an LP")

        rng = random.Random(2323)
        refuted = 0
        for sys, quant, x, _ in _point_queries(rng, 200):
            if query(sys, quant).refute(residual_rows(sys, x)) is None:
                continue
            refuted += 1
            with monkeypatch.context() as mp:
                mp.setattr(Q, "__new__", staticmethod(counting_new))
                mp.setattr(membership, "lp_feasible", no_lp)
                built[0] = 0
                active = True
                try:
                    ok, cert = member_ae(sys, quant, x)
                finally:
                    active = False
            # w is one zero and one +-1; each existential k puts at most
            # one nonzero entry in u or v
            assert not ok and built[0] <= 2 + len(cert.separator.u)
        assert refuted > 50

    def test_refusals_come_before_the_row_test(self, monkeypatch):
        def never(*args):
            raise AssertionError("the row test ran before a refusal")

        monkeypatch.setattr(membership._Query, "refute", never)
        # x = c_1 + ... + c_21 + a: 2^21 universal vertices, and x = 99
        # fails its one equation alone
        K = membership.MAX_FORALL + 2
        sys = ParametricSystem(1, 1, [[Q(1)]], [Q(0)], [
            Parameter(f"c{k}", Interval(Q(0), Q(1)), [[Q(0)]], [Q(1)])
            for k in range(K)])
        qa = QuantifierAssignment(frozenset(range(1, K)), frozenset({0}))
        with pytest.raises(ValueError, match="universal parameters"):
            member_ae(sys, qa, [Q(99)])
        with pytest.raises(SystemFormatError, match="partition"):
            member_ae(sys, QuantifierAssignment.all_exists(K - 1), [Q(99)])
