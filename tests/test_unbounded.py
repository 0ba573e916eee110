import random
from fractions import Fraction as Q

import pytest

from conftest import (gen_general, gen_ordinary, gen_quantified,
                      gen_tolerable_nonempty, gen_wide_ordinary, load,
                      random_point)
from pilsys import membership, unbounded
from pilsys.exact import AffineSolutionSet, lin_solve, zeros
from pilsys.membership import (kernel_tolerable, member_ae, member_kernel,
                               member_united, witness_resubstitutes)
from pilsys.model import (Interval, Parameter, ParametricSystem,
                          QuantifierAssignment, RhsParameter, TolerableSystem)
from pilsys.unbounded import (Rule, Status, decide_unbounded,
                              decide_unbounded_tolerable, find_base_points,
                              probe_ray, ray_system)


class TestFindBasePoints:
    def test_e1_contains_vertex_solution(self, e1):
        pts = find_base_points(e1.system)
        assert [Q(1), Q(0)] in pts
        for x in pts:
            assert member_united(e1.system, x)[0]

    def test_e3_endpoint_realizations(self, e3):
        pts = find_base_points(e3.system)
        assert [Q(1)] in pts and [Q(-1)] in pts

    def test_infeasible_system_empty(self):
        sys = ParametricSystem(1, 1, [[Q(0)]], [Q(1)], [])
        assert find_base_points(sys) == []

    def test_deterministic(self, e1):
        a = find_base_points(e1.system, seed=3)
        b = find_base_points(e1.system, seed=3)
        assert a == b

    @pytest.mark.parametrize("budget", [0, 1, 2, 3])
    def test_at_most_budget_points(self, e1, budget):
        # every p1 > 0 gives E1 a distinct base point, so the budget binds
        assert len(find_base_points(e1.system, budget=budget)) == budget


class TestProbeRay:
    def test_e1_downward_ray_never_exits(self, e1):
        rep = probe_ray(e1.system, None, [Q(1), Q(0)], [Q(0), Q(-1)],
                        max_doublings=20)
        assert rep.exhausted and rep.first_exit is None
        assert rep.alphas_tested[0] == 0
        assert rep.alphas_tested == sorted(rep.alphas_tested)

    def test_e1_upward_ray_exits_at_1(self, e1):
        rep = probe_ray(e1.system, None, [Q(1), Q(0)], [Q(0), Q(1)])
        assert rep.first_exit == Q(1)

    def test_zero_direction_never_exits(self, e1):
        rep = probe_ray(e1.system, None, [Q(1), Q(0)], [Q(0), Q(0)],
                        max_doublings=5)
        assert rep.exhausted

    def test_nonmember_base_rejected(self, e1):
        with pytest.raises(ValueError):
            probe_ray(e1.system, None, [Q(0), Q(0)], [Q(0), Q(1)])


class TestDecideUnbounded:
    def test_e1_upward_unknown_with_exits(self, e1):
        v = decide_unbounded(e1.system, None, [Q(0), Q(1)])
        assert v.status is Status.UNKNOWN and v.rule is Rule.PROBE
        assert all(rep.first_exit is not None for rep in v.evidence)

    def test_e1_sideways_certified_no(self, e1):
        v = decide_unbounded(e1.system, None, [Q(1), Q(0)])
        assert v.status is Status.CERTIFIED_NO and v.rule is Rule.THM2

    def test_e3_certified_yes_by_strict(self, e3):
        v = decide_unbounded(e3.system, None, [Q(1)])
        assert v.status is Status.CERTIFIED_YES and v.rule is Rule.THM3

    def test_e1_downward_unknown_no_exit(self, e1):
        v = decide_unbounded(e1.system, None, [Q(0), Q(-1)])
        assert v.status is Status.UNKNOWN and v.rule is Rule.PROBE
        assert v.evidence.exhausted

    def test_certified_no_probes_always_exit(self):
        rng = random.Random(41)
        checked = 0
        for _ in range(20):
            sys = gen_general(rng)
            base_points = find_base_points(sys)
            if not base_points:
                continue
            for _ in range(5):
                y = random_point(rng, sys.n)
                if member_kernel(sys, y)[0]:
                    continue
                v = decide_unbounded(sys, None, y)
                assert v.status is Status.CERTIFIED_NO
                for x0 in base_points:
                    rep = probe_ray(sys, None, x0, y, max_doublings=16)
                    assert rep.first_exit is not None
                    checked += 1
        assert checked > 10

    def test_thm3_probes_never_exit(self):
        from conftest import gen_wide_ordinary
        rng = random.Random(43)
        checked = 0
        for _ in range(12):
            sys = gen_wide_ordinary(rng)
            y = random_point(rng, sys.n)
            v = decide_unbounded(sys, None, y)
            if v.status is Status.CERTIFIED_YES and v.rule is Rule.THM3:
                rep = probe_ray(sys, None, v.evidence, y, max_doublings=20)
                assert rep.exhausted
                checked += 1
        assert checked > 0

    def test_decomposition_over_cap_falls_through_to_probes(self):
        v = decide_unbounded(over_cap_ordinary(), None, unit(17, 16))
        assert v.status is Status.UNKNOWN and v.rule is Rule.PROBE
        assert v.evidence.exhausted

    def test_deterministic(self, e1):
        a = decide_unbounded(e1.system, None, [Q(0), Q(1)], budget=4, seed=1)
        b = decide_unbounded(e1.system, None, [Q(0), Q(1)], budget=4, seed=1)
        assert (a.status, a.rule, a.detail) == (b.status, b.rule, b.detail)


def unit(n, j):
    y = zeros(n)
    y[j] = Q(1)
    return y


def over_cap_ordinary():
    """x1 + a*x17 = 1 with a in [0, 1]: ordinary, 2^17 orthants, and e_17 is
    in the kernel but not in the strict kernel."""
    A0 = [unit(17, 0)]
    a = Parameter("a", Interval(Q(0), Q(1)), [unit(17, 16)], [Q(0)])
    return ParametricSystem(1, 17, A0, [Q(1)], [a])


def null_direction(rng, sys):
    """A nonzero y with A(p) y = 0 at a box vertex p, or None."""
    p = next(sys.vertices(range(sys.K)))
    res = lin_solve(sys.A_at(p), zeros(sys.m))
    if not isinstance(res, AffineSolutionSet):
        return None
    coef = [rng.randint(-2, 2) for _ in res.basis]
    return [sum((c * v[j] for c, v in zip(coef, res.basis)), Q(0))
            for j in range(sys.n)]


class TestCommonWitness:
    """THM3 evidence from one membership query in the ray system."""

    def cases(self):
        rng = random.Random(53)
        for _ in range(10):
            sys = gen_general(rng, 2, 3)
            yield "general", sys, None, null_direction(rng, sys)
        for _ in range(10):
            sys = gen_wide_ordinary(rng, 2, 2)
            yield "wide", sys, None, random_point(rng, sys.n)
        for _ in range(5):
            sys, quant = gen_quantified(rng, 1, 3, n_forall=1, n_exists=2)
            yield "ae", sys, quant, null_direction(rng, sys)
        for _ in range(5):
            # every base matrix has a zero first column, so e_1 is in the
            # kernel at every p and each member has a common witness
            tsys, _ = gen_tolerable_nonempty(rng, common_kernel_col=0)
            sys, quant = tsys.combined()
            yield "ae", sys, quant, unit(sys.n, 0)

    def test_witness_resubstitutes_and_ray_stays(self):
        checked = {}
        for family, sys, quant, y in self.cases():
            if y is None or not any(y):
                continue
            q = quant or QuantifierAssignment.all_exists(sys.K)
            ray = ray_system(sys)
            for x0 in find_base_points(sys, quant, budget=4):
                ok, cert = member_ae(ray, q, x0 + y)
                if not ok:
                    continue
                # A(p) x0 = b(p) and A(p) y = 0 at the one witness p
                assert witness_resubstitutes(ray, x0 + y, cert)
                assert witness_resubstitutes(sys, x0, cert)
                assert witness_resubstitutes(sys.homogenized(), y, cert)
                assert probe_ray(sys, quant, x0, y, max_doublings=20).exhausted
                checked[family] = checked.get(family, 0) + 1
        assert sorted(checked) == ["ae", "general", "wide"]
        assert min(checked.values()) >= 5

    def test_one_ray_lp_and_no_walk(self, monkeypatch):
        # x1 + a*x2 = 1 with a in [-1, 1]: e_2 is in the strict kernel, and
        # the first base point (1, 0) has the common witness a = 0
        sys = ParametricSystem(
            1, 2, [[Q(1), Q(0)]], [Q(1)],
            [Parameter("a", Interval(Q(-1), Q(1)), [[Q(0), Q(1)]], [Q(0)])])
        y = [Q(0), Q(1)]
        base_points = find_base_points(sys)
        assert base_points[0] == [Q(1), Q(0)]
        v = decide_unbounded(sys, None, y)
        assert v.rule is Rule.THM3 and v.evidence == base_points[0]

        lps = []
        real_lp = membership.lp_feasible

        def counting_lp(P):
            lps.append(P)
            return real_lp(P)

        def no_walk(*args):
            raise AssertionError("a base point with a common witness is walked")

        monkeypatch.setattr(membership, "lp_feasible", counting_lp)
        monkeypatch.setattr(unbounded, "_walk_ray", no_walk)
        quant = QuantifierAssignment.all_exists(sys.K)
        base = unbounded._ray_base_point(sys, quant, base_points, y, 20)
        assert base == base_points[0]
        assert len(lps) == 1 and len(lps[0].E) == 2 * sys.m


class TestDecideUnboundedTolerable:
    def make_x_eq_q(self):
        base = ParametricSystem(1, 1, [[Q(1)]], [Q(0)], [])
        return TolerableSystem(base, [RhsParameter("q", Interval(Q(-1), Q(1)),
                                                   [Q(1)])])

    def test_bounded_tolerable_set(self):
        tsys = self.make_x_eq_q()
        assert decide_unbounded_tolerable(tsys, [Q(0)]).status is Status.CERTIFIED_YES
        v = decide_unbounded_tolerable(tsys, [Q(1)])
        assert v.status is Status.CERTIFIED_NO and v.rule is Rule.THM7

    def test_zero_matrix_everything_unbounded(self):
        base = ParametricSystem(1, 1, [[Q(0)]], [Q(0)], [])
        tsys = TolerableSystem(base, [RhsParameter("q", Interval(Q(-1), Q(1)),
                                                   [Q(1)])])
        v = decide_unbounded_tolerable(tsys, [Q(1)])
        assert v.status is Status.CERTIFIED_YES

    def test_empty_tolerable_set_unknown(self):
        # x = q1 with q1 = 2 stacked against x = q2 with q2 = -2
        base = ParametricSystem(2, 1, [[Q(1)], [Q(1)]], [Q(0), Q(0)], [])
        tsys = TolerableSystem(base, [
            RhsParameter("q1", Interval(Q(2), Q(2)), [Q(1), Q(0)]),
            RhsParameter("q2", Interval(Q(-2), Q(-2)), [Q(0), Q(1)])])
        v = decide_unbounded_tolerable(tsys, [Q(1)])
        assert v.status is Status.UNKNOWN

    def test_kernel_matches_long_probes(self):
        from pilsys.membership import member_tolerable
        from pilsys.unbounded import probe_ray
        rng = random.Random(47)
        checked = 0
        for trial in range(8):
            tsys, x0 = gen_tolerable_nonempty(rng, common_kernel_col=0)
            assert member_tolerable(tsys, x0)[0]
            combined, quant = tsys.combined()
            for _ in range(4):
                y = random_point(rng, tsys.base.n, -2, 2)
                rep = probe_ray(combined, quant, x0, y, max_doublings=20)
                assert kernel_tolerable(tsys, y) == rep.exhausted or \
                    not kernel_tolerable(tsys, y)
                if kernel_tolerable(tsys, y):
                    assert rep.exhausted
                    checked += 1
        assert checked > 0
