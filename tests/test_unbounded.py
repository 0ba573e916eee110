import hashlib
import random
from collections import Counter
from fractions import Fraction as Q

import pytest

from conftest import (gen_class_c, gen_decoupled_ae, gen_first_class,
                      gen_general, gen_ordinary, gen_quantified,
                      gen_tolerable_nonempty, gen_wide_ordinary, kernel_rows,
                      lp_verdict, query, random_point,
                      with_big_denominators, with_scaled_rows,
                      with_thin_params)
from pilsys import membership, model, oracle, unbounded
from pilsys.cones import special_class_unbounded_equality
from pilsys.exact import (AffineSolutionSet, UniqueSolution, lin_solve,
                          lp_feasible, zeros)
from pilsys.membership import (Certificate, member_ae, member_ae_kernel,
                               member_kernel, member_united,
                               strict_kernel_member_ae,
                               validate_certificate, witness_resubstitutes)
from pilsys.model import (CLASS_C, FIRST_CLASS, ORDINARY, Interval, Parameter,
                          ParametricSystem,
                          QuantifierAssignment, RhsParameter, TolerableSystem,
                          classify, residual_rows)
from pilsys.unbounded import (PROBE_DOUBLINGS, ProbeReport, Rule, Status,
                              decide_unbounded, find_base_points, probe_ray)


class TestFindBasePoints:
    def test_no_equations(self):
        # every x solves a system with no equation, so each base point, and
        # THM7's evidence, has length n
        sys = ParametricSystem(0, 2, [], [], [
            Parameter("p", Interval(Q(0), Q(1)), [], [])])
        assert find_base_points(sys) == [[Q(0), Q(0)]]
        quant = QuantifierAssignment(frozenset({0}), frozenset())
        v = decide_unbounded(sys, quant, [Q(1), Q(0)])
        assert (v.status, v.rule, v.evidence, v.detail) == (
            Status.CERTIFIED_YES, Rule.THM7, [Q(0), Q(0)],
            "tolerable kernel holds; base 0,0")
        assert member_ae(sys, quant, v.evidence)[0]

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

    def test_same_points_however_the_blocks_interleave(self):
        rng = random.Random(61)
        found = 0
        for _ in range(10):
            tsys, _ = gen_tolerable_nonempty(rng, K=2)
            sys, quant = tsys.combined()
            # a random merge of the two blocks, each kept in its own order
            slots = [True] * tsys.base.K + [False] * len(tsys.rhs_params)
            rng.shuffle(slots)
            blocks = {True: iter(sorted(quant.forall_set)),
                      False: iter(sorted(quant.exists_set))}
            order = [next(blocks[s]) for s in slots]
            points = find_base_points(sys, quant, budget=4)
            assert find_base_points(*permuted(sys, quant, order), budget=4) == points
            found += len(points)
        assert found > 10

    @staticmethod
    def counted_solves(monkeypatch):
        """The A(p) of each ``lin_solve`` the search asks; past 100 the
        search is taken to keep solving, and fails at once."""
        solves = []

        def counting(A, b):
            solves.append(A)
            if len(solves) > 100:
                raise AssertionError("the search kept solving")
            return lin_solve(A, b)

        monkeypatch.setattr(unbounded, "lin_solve", counting)
        return solves

    def test_search_ends_once_the_grid_is_tried(self, e1, monkeypatch):
        # every candidate of E1's one parameter lies on its 9-point grid
        # lo + i/8 (hi - lo), so no budget solves more than 9 of them
        want = find_base_points(e1.system, budget=1000)
        solves = self.counted_solves(monkeypatch)
        assert find_base_points(e1.system, budget=10 ** 5) == want
        assert len(want) == 8 and len(solves) <= 9

    def test_thin_parameters_have_one_grid_point(self, monkeypatch):
        # 2 x = 1 + p with p thin: one p to try, whatever the budget
        sys = ParametricSystem(1, 1, [[Q(2)]], [Q(1)], [
            Parameter("p", Interval(Q(1), Q(1)), [[Q(0)]], [Q(1)])])
        solves = self.counted_solves(monkeypatch)
        assert find_base_points(sys, budget=10 ** 5) == [[Q(1)]]
        assert len(solves) == 1

    @pytest.mark.parametrize("budget", [0, 1, 2, 3])
    def test_at_most_budget_points(self, e1, budget):
        # every p1 > 0 gives E1 a distinct base point, so the budget binds
        assert len(find_base_points(e1.system, budget=budget)) == budget

    def test_negative_budget_refused(self, e1, e3):
        with pytest.raises(ValueError, match="budget must be nonnegative"):
            find_base_points(e1.system, budget=-1)
        # refused before any stage, also where no base point is drawn
        for parsed, y in ((e1, [Q(0), Q(-1)]), (e3, [Q(1)])):
            with pytest.raises(ValueError, match="budget must be nonnegative"):
                decide_unbounded(parsed.system, None, y, budget=-1)


@pytest.mark.parametrize("ask", [
    lambda sys, y: membership.member_ae_kernel(
        sys, QuantifierAssignment.all_exists(sys.K), y),
    member_kernel,
    lambda sys, y: strict_kernel_member_ae(
        sys, QuantifierAssignment.all_exists(sys.K), y),
    lambda sys, y: decide_unbounded(sys, None, y),
    lambda sys, y: probe_ray(sys, None, [Q(1), Q(0)], y),
], ids=["member_ae_kernel", "member_kernel", "strict_kernel_member_ae",
        "decide_unbounded", "probe_ray"])
def test_direction_length_checked_by_the_kernel_rows(e1, ask):
    """Every kernel question reads its direction's rows from the query's
    table (``_Query.rows_at``), which refuses a wrong length and an entry
    that is not an int or a Fraction; a float is not read as a binary
    fraction."""
    for y in ([Q(0), Q(1), Q(1)], [Q(1)]):
        with pytest.raises(ValueError, match=f"^direction has length {len(y)}, "
                                             f"expected 2$"):
            ask(e1.system, y)
    for y in ([Q(0), 0.5], [Q(-1, 2), "1"]):
        with pytest.raises(ValueError, match=f"^direction entry {y[1]!r} is "
                                             f"not an int or a Fraction$"):
            ask(e1.system, y)
    # ints and Fractions are the accepted entries, mixed too
    assert ask(e1.system, [0, -1]) == ask(e1.system, [Q(0), Q(-1)]) \
        == ask(e1.system, [Q(0), -1])
    with pytest.raises(ValueError, match="^point has length 1, expected 2$"):
        member_united(e1.system, [Q(1)])
    with pytest.raises(ValueError, match="^point entry 0.5 is not an int or "
                                         "a Fraction$"):
        member_united(e1.system, [Q(1), 0.5])
    assert member_united(e1.system, [1, 0]) == member_united(e1.system,
                                                             [Q(1), Q(0)])


class TestProbeRay:
    def test_e1_downward_ray_never_exits(self, e1):
        rep = probe_ray(e1.system, None, [Q(1), Q(0)], [Q(0), Q(-1)])
        assert rep.exhausted and rep.first_exit is None
        assert rep.alphas_tested[0] == 0
        assert rep.alphas_tested == sorted(rep.alphas_tested)

    def test_e1_upward_ray_exits_at_1(self, e1):
        rep = probe_ray(e1.system, None, [Q(1), Q(0)], [Q(0), Q(1)])
        assert rep.first_exit == Q(1)

    def test_zero_direction_never_exits(self, e1):
        rep = probe_ray(e1.system, None, [Q(1), Q(0)], [Q(0), Q(0)])
        assert rep.exhausted

    def test_nonmember_base_rejected(self, e1):
        with pytest.raises(ValueError):
            probe_ray(e1.system, None, [Q(0), Q(0)], [Q(0), Q(1)])

    def test_wrong_witness_still_refuses_a_nonmember(self, e1, monkeypatch):
        lps = []

        def counting(P):
            lps.append(P)
            return lp_feasible(P)

        monkeypatch.setattr(membership, "lp_feasible", counting)
        # (0, 0) is no member of E1: no box point solves it, so the probe
        # takes no witness from the caller, and its first equation x1 = 1,
        # tried alone, refuses the base point before any LP or ray row is
        # built, whatever the direction
        for y in ([Q(0), Q(1)], [Q(0), Q(0)]):
            lps.clear()
            with pytest.raises(ValueError, match="not a member"):
                probe_ray(e1.system, None, [Q(0), Q(0)], y)
            assert len(lps) == 0

    def test_input_checks(self, e1):
        x0, y = [Q(1), Q(0)], [Q(0), Q(1)]
        with pytest.raises(ValueError,
                           match="direction has length 3, expected 2"):
            probe_ray(e1.system, None, x0, y + [Q(1)])
        with pytest.raises(ValueError,
                           match="direction has length 1, expected 2"):
            probe_ray(e1.system, None, x0, y[:1])
        with pytest.raises(ValueError,
                           match="base point has length 1, expected 2"):
            probe_ray(e1.system, None, x0[:1], y)

    def test_common_witness_ray_takes_two_lps(self, monkeypatch):
        # x1 + a*x2 = 1 and a*x1 + x2 = 1, a in [-1, 1]: a touches both
        # equations, so the system is not first class and the row test
        # leaves every point to the LPs.  x0 = (1/2, 1/2) solves it at a = 1
        # only, and y = (1, -1) has A(1) y = 0, so a = 1 is a common witness
        sys = ParametricSystem(
            2, 2, [[Q(1), Q(0)], [Q(0), Q(1)]], [Q(1), Q(1)],
            [Parameter("a", Interval(Q(-1), Q(1)),
                       [[Q(0), Q(1)], [Q(1), Q(0)]], [Q(0), Q(0)])])
        assert FIRST_CLASS not in classify(sys)
        x0, y = [Q(1, 2), Q(1, 2)], [Q(1), Q(-1)]
        lps = []

        def counting(P):
            lps.append(len(P.E))
            return lp_feasible(P)

        monkeypatch.setattr(membership, "lp_feasible", counting)
        want = reference_probe(sys, None, x0, y)
        assert want.exhausted
        lps.clear()
        assert probe_ray(sys, None, x0, y) == want
        # alpha = 0 and alpha = 1 (two rows each), then the common witness
        # (r0 stacked on r1)
        assert lps == [2, 2, 4]

    def test_alpha_0_asked_with_universal_parameters(self, monkeypatch):
        # x1 = u + q and x2 = u + q, u in [0, 1] universal, q in [-1, 1]:
        # both parameters touch both equations, so the system is not first
        # class, and x0 = 0 is a member because every u has a q
        sys = ParametricSystem(2, 2, [[Q(1), Q(0)], [Q(0), Q(1)]], [Q(0)] * 2,
                               [rhs_only("u", 0, 1, [1, 1], n=2),
                                rhs_only("q", -1, 1, [1, 1], n=2)])
        assert FIRST_CLASS not in classify(sys)
        quant = QuantifierAssignment(frozenset({0}), frozenset({1}))
        x0, y = [Q(0), Q(0)], [Q(1), Q(1)]
        want = reference_probe(sys, quant, x0, y)
        calls = []
        real = membership._VertexLP.refutation

        def refutation(lp):
            calls.append(len(lp.E))
            return real(lp)

        monkeypatch.setattr(membership._VertexLP, "refutation", refutation)
        rep = probe_ray(sys, quant, x0, y)
        assert rep == want
        # the set is the diagonal from 0 to (1, 1); alpha = 0 takes its
        # query, and no p has A(p) y = (1, 1) = 0, so the common-witness
        # query (four rows) fails; x1 = 2 fails alone (its midpoint residual
        # 3/2 exceeds rad q - rad u = 1/2), so alpha = 2 exits with no LP
        assert rep.first_exit == Q(2) and calls == [2, 2, 4]


def reference_probe(sys, quant, x0, y):
    """``probe_ray`` as cold membership queries: ``member_ae`` at each
    alpha = 0, 1, 2, ..., 2^PROBE_DOUBLINGS, up to the first exit."""
    q = quant or QuantifierAssignment.all_exists(sys.K)
    tested, first_exit = [], None
    for a in [Q(0)] + [Q(2) ** i for i in range(PROBE_DOUBLINGS + 1)]:
        tested.append(a)
        if not member_ae(sys, q, [xj + a * yj for xj, yj in zip(x0, y)])[0]:
            first_exit = a
            break
    assert first_exit != 0
    return ProbeReport(list(x0), list(y), tested, first_exit,
                       first_exit is None)


def ray_system(sys):
    """The rows (A(p) x - b(p); A(p) y) over the point (x, y): (x0, y) is a
    member exactly when one p (per universal vertex) solves the whole ray."""
    zero = [Q(0)] * sys.n

    def block(A, b):
        return ([row + zero for row in A] + [zero + row for row in A],
                list(b) + [Q(0)] * sys.m)

    return ParametricSystem(
        2 * sys.m, 2 * sys.n, *block(sys.A0, sys.b0),
        [Parameter(par.name, par.interval, *block(par.A, par.b))
         for par in sys.params])


class TestProbeMatchesColdQueries:
    """The probe, from rows computed once per ray and a common-witness LP,
    reports what cold ``member_ae`` queries at each alpha report."""

    def cases(self):
        rng = random.Random(67)
        for _ in range(8):
            sys = gen_general(rng, 2, 3)
            yield sys, None, null_direction(rng, sys, sys.midpoint())
            yield sys, None, null_direction(rng, sys)
            yield sys, None, random_point(rng, sys.n)
        for _ in range(8):
            sys = gen_first_class(rng, 2, 3)
            yield sys, None, null_direction(rng, sys, sys.midpoint())
            yield sys, None, random_point(rng, sys.n)
            yield sys, None, zeros(sys.n)
        for _ in range(8):
            sys, quant = gen_quantified(rng, 1, 3, n_forall=1, n_exists=2)
            yield sys, quant, null_direction(rng, sys, sys.midpoint())
            yield sys, quant, random_point(rng, sys.n)

    def test_same_reports_as_cold_membership(self, e1):
        kinds = {}
        cases = list(self.cases())
        cases.append((e1.system, None, [Q(0), Q(-1)]))  # p1 = 1/(1 + alpha)
        for sys, quant, y in cases:
            if y is None:
                continue
            q = quant or QuantifierAssignment.all_exists(sys.K)
            for x0 in find_base_points(sys, quant, 4)[:2]:
                want = reference_probe(sys, quant, x0, y)
                assert probe_ray(sys, quant, x0, y) == want
                common = member_ae(ray_system(sys), q, x0 + y)[0]
                if common:
                    assert want.exhausted
                kind = ("ae" if quant else "united",
                        "exit at 1" if want.first_exit == 1 else
                        "exit later" if want.first_exit else
                        "common witness" if common else "no common witness")
                kinds[kind] = kinds.get(kind, 0) + 1
        for quantifiers in ("united", "ae"):
            assert kinds[quantifiers, "exit at 1"] >= 3
            assert kinds[quantifiers, "common witness"] >= 3
        assert kinds["united", "no common witness"] >= 1

    def test_e1_downward_ray_has_no_common_witness(self, e1):
        x0, y = [Q(1), Q(0)], [Q(0), Q(-1)]
        assert not member_united(ray_system(e1.system), x0 + y)[0]
        want = reference_probe(e1.system, None, x0, y)
        assert want.exhausted
        assert probe_ray(e1.system, None, x0, y) == want

    def test_zero_direction(self, e1):
        x0 = [Q(1), Q(0)]
        want = reference_probe(e1.system, None, x0, [Q(0), Q(0)])
        assert want.exhausted
        assert probe_ray(e1.system, None, x0, [Q(0), Q(0)]) == want


def rows_key(lp):
    """The equations of a vertex LP (``membership._VertexLP``) as rationals, each row
    divided by the size of its first nonzero entry: the same equations give
    the same key whatever integers carry them."""
    key = []
    for col, e, den in zip(lp.cols, lp.E, lp.dens):
        row = [Q(v, den) for v in col + e]
        lead = abs(next((v for v in row if v), Q(1)))
        key.append(tuple(v / lead for v in row))
    return tuple(key)


def probe_reports(verdict):
    ev = verdict.evidence
    return ev if isinstance(ev, list) else [ev]


def consistent_witness(sys, y):
    """The united kernel witness p of y, when A(p) x = b(p) has a solution:
    stage (v) of a united decision then settles its report there."""
    ok, cert = member_kernel(sys, y)
    assert ok
    p = cert.witness_p
    res = lin_solve(sys.A_at(p), sys.b_at(p))
    return p if isinstance(res, (UniqueSolution, AffineSolutionSet)) \
        else None


def settled_at_the_witness(sys, y, v):
    """Is v's evidence the exhausted report of a base point that solves the
    system at the consistent kernel witness of y, with every alpha?"""
    p = consistent_witness(sys, y)
    rep = v.evidence
    return p is not None and isinstance(rep, ProbeReport) and rep.exhausted \
        and rep.alphas_tested == [Q(0)] + [Q(2) ** i for i in
                                           range(PROBE_DOUBLINGS + 1)] \
        and witness_resubstitutes(sys, rep.base_point, Certificate.witness(p))


class TestCascadeWalk:
    """``decide_unbounded`` walks each ray from a base point that
    ``_base_points`` has already found to be a member, so it asks no alpha = 0
    query of its own, and each report is that of cold membership queries."""

    def cases(self, seed, count):
        rng = random.Random(seed)
        for _ in range(count):
            sys, quant = gen_quantified(rng, 2, 3)
            yield sys, quant, null_direction(rng, sys, sys.midpoint())
            yield sys, quant, null_direction(rng, sys)
            sys = gen_general(rng, 2, 3)
            yield sys, None, null_direction(rng, sys, sys.midpoint())
            yield sys, None, null_direction(rng, sys)

    def test_ae_base_point_takes_no_second_alpha_0_lp(self, monkeypatch):
        queries = []  # [rows key, LPs solved] per vertex-LP query
        refutation = membership._VertexLP.refutation
        solve = membership.lp_feasible

        def counting_refutation(lp):
            queries.append([rows_key(lp), 0])
            return refutation(lp)

        def counting_solve(P):
            queries[-1][1] += 1
            return solve(P)

        monkeypatch.setattr(membership._VertexLP, "refutation",
                            counting_refutation)
        monkeypatch.setattr(membership, "lp_feasible", counting_solve)
        probed = 0
        for sys, quant, y in self.cases(71, 20):
            if quant is None or y is None or not any(y):
                continue
            queries.clear()
            v = decide_unbounded(sys, quant, y)
            if v.rule is not Rule.PROBE:
                continue
            for rep in probe_reports(v):
                base = rows_key(query(sys, quant).lp(
                    residual_rows(sys, rep.base_point)))
                lps = [n for key, n in queries if key == base]
                # the one query is the one that accepted the base point
                assert len(lps) == 1 and lps[0] >= 1
                probed += 1
        assert probed >= 5, probed

    def test_walk_reads_the_kernel_rows_of_the_cascade(self, monkeypatch, e1):
        """A decision reads its system once: one ``int_coefficients`` table
        serves the kernel rows of y at stage (i), THM3's bound, the base
        points, every walked base point's rows r0 and the sign pieces, so
        no ``residual_rows`` runs, whatever rule decides; the rows at
        x0 + alpha*y are r0 + alpha*(A^(k) y), and the kernel rows of y are
        built once per decision, for the kernel stage and every walk."""
        calls = Counter()

        def spy(owner, name):
            real = getattr(owner, name)

            def counting(*args):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(owner, name, counting)

        spy(unbounded, "_walk_ray")
        spy(model, "residual_rows")
        spy(membership, "residual_rows")
        spy(ParametricSystem, "int_coefficients")
        real_rows_at = membership._Query.rows_at

        def rows_at(qry, x, rhs_sign=-1):
            if not rhs_sign:
                calls["kernel rows"] += 1
            return real_rows_at(qry, x, rhs_sign)
        monkeypatch.setattr(membership._Query, "rows_at", rows_at)
        cases = [(e1.system, None, [Q(0), Q(-1)])] + [
            (sys, quant, y) for sys, quant, y in self.cases(79, 60)
            if y is not None and any(y)]
        walked = settled = 0
        rules = Counter()
        for sys, quant, y in cases:
            calls.clear()
            v = decide_unbounded(sys, quant, y)
            rules[v.rule] += 1
            assert calls["int_coefficients"] == 1
            assert calls["residual_rows"] == 0
            assert calls["kernel rows"] == 1
            if v.rule is not Rule.PROBE:
                continue
            walks = calls["_walk_ray"]
            if quant is None and consistent_witness(sys, y) is not None:
                # a united report settled at the kernel witness: no walk
                assert walks == 0
                assert settled_at_the_witness(sys, y, v)
                settled += 1
            else:
                # an exhausted walk's report drops the exited ones before it
                assert walks >= len(probe_reports(v))
            walked += walks
        assert walked >= 10 and settled >= 3, (walked, settled)
        assert len(rules) >= 3, rules

    def test_reports_match_cold_membership(self):
        kinds = {}
        for sys, quant, y in self.cases(73, 40):
            if y is None or not any(y):
                continue
            v = decide_unbounded(sys, quant, y)
            if v.rule is not Rule.PROBE:
                continue
            for rep in probe_reports(v):
                assert rep == reference_probe(sys, quant, rep.base_point, y)
                kind = "ae" if quant else "united"
                kinds[kind] = kinds.get(kind, 0) + 1
        assert min(kinds.get("ae", 0), kinds.get("united", 0)) >= 5, kinds


def separator_validates(sys, quant, x, w):
    """Does w, or -w, fail the characterization inequality at x?"""
    zero = [Q(0)] * len(quant.exists_set)
    return any(membership.validate_certificate(
        sys, quant, x, membership.Certificate.separator(
            membership.FarkasCertificate([s * wi for wi in w], zero, zero)))
        for s in (1, -1))


class TestSeparatorPool:
    """The separators one query keeps settle later points in integers
    (``_Query.holds``): a row alone or a kept separator refutes a point,
    with no LP, exactly when that separator, with one sign or the other,
    fails the characterization inequality there, and the walks the query
    serves report what cold membership queries report."""

    def systems(self, seed):
        rng = random.Random(seed)
        for _ in range(6):
            yield "general", gen_general(rng, 2, 3), None
            yield ("quantified",) + gen_quantified(rng, 2, 3)
            yield "first class", gen_first_class(rng, 2, 3), None

    def test_refuted_points_fail_the_inequality(self, monkeypatch):
        lps = []

        def counting(P):
            lps.append(P)
            return lp_feasible(P)

        monkeypatch.setattr(membership, "lp_feasible", counting)
        refuted = Counter()
        for kind, sys, quant in self.systems(83):
            q = quant or QuantifierAssignment.all_exists(sys.K)
            qry = query(sys, q)
            rng = random.Random(sys.K)
            # points near the set, so that rows alone refute few of them
            near = [[a + Q(rng.randint(-4, 4), 8) for a in x0]
                    for x0 in find_base_points(sys, quant, 4) for _ in range(8)]
            for x in near[::2]:  # let the LPs fill the query's separators
                qry.holds(qry.rows_at(x))
            units = [[Q(int(i == j)) for j in range(sys.m)]
                     for i in range(sys.m)]
            for x in near + [random_point(rng, sys.n) for _ in range(8)]:
                kept = [[Q(a) for a in w] for w in qry.ws]
                lps.clear()
                rows = qry.rows_at(x)
                # a point the integers refute asks no LP; a first-class
                # system asks none either way
                ok = qry.holds(rows)
                settled = not ok and not lps
                assert settled == any(separator_validates(sys, q, x, w)
                                      for w in units + kept)
                # the query certifies each point it refutes, a kept w too
                assert ok or validate_certificate(sys, q, x,
                                                  qry.lp(rows).separator())
                if settled:
                    assert not member_ae(sys, q, x)[0]
                    by_row = any(separator_validates(sys, q, x, w)
                                 for w in units)
                    refuted[kind, "by a row" if by_row else "by a separator"] += 1
        # a row alone decides a first-class system, so no separator is
        # ever what refutes a point there
        assert ("first class", "by a separator") not in refuted
        assert len(refuted) == 5 and min(refuted.values()) >= 5, refuted

    def test_first_class_rows_decide_both_ways(self, monkeypatch):
        # with no LP asked, the query answers what member_ae answers
        def no_lp(P):
            raise AssertionError("a first-class query asked an LP")

        rng = random.Random(89)
        members = Counter()
        for _ in range(12):
            sys = gen_first_class(rng, 2, 3)
            forall = frozenset(k for k in range(sys.K) if rng.random() < 0.3)
            quant = QuantifierAssignment(forall, frozenset(range(sys.K)) - forall)
            qry = query(sys, quant)
            base = find_base_points(sys, None, 2)
            for x in base + [random_point(rng, sys.n, -2, 2) for _ in range(6)]:
                want = member_ae(sys, quant, x)[0]
                with monkeypatch.context() as mp:
                    mp.setattr(membership, "lp_feasible", no_lp)
                    assert qry.holds(qry.rows_at(x)) == want
                members[want] += 1
        assert members[True] >= 5 and members[False] >= 5, members

    def test_decoupled_ae_rows_decide_both_ways(self, monkeypatch):
        """Universal parameters may meet several rows: when each
        existential one meets one row (``_Query.decoupled``) the row test is
        exact, so ``holds``, an AE raster and a ray walk ask no LP, and
        answer what the FM vertex oracle and cold membership answer."""
        def no_lp(P):
            raise AssertionError("a decoupled query asked an LP")

        rng = random.Random(113)
        coords = [Q(v) for v in range(-2, 3)]
        cells = [[x1, x2] for x1 in coords for x2 in coords]
        seen = Counter()
        for trial in range(60):
            sys, quant = gen_decoupled_ae(rng, rng.randint(1, 2),
                                          rng.randint(1, 2), rng.randint(1, 3))
            if trial % 2:  # the residual at x = 0 and the box midpoint is 0
                sys = ParametricSystem(
                    sys.m, sys.n, sys.A0,
                    [bi - ci for bi, ci in zip(sys.b0, sys.b_at(sys.midpoint()))],
                    sys.params)
            want = [oracle.ae_vertex_oracle(sys, quant, x) for x in cells]
            members = [x for x, ok in zip(cells, want) if ok]
            y = random_point(rng, sys.n, -1, 1)
            refs = [reference_probe(sys, quant, x, y) for x in members[:2]]
            qry = query(sys, quant)
            with monkeypatch.context() as mp:
                mp.setattr(membership, "lp_feasible", no_lp)
                assert [qry.holds(qry.rows_at(x))
                        for x in cells] == want
                grid = oracle.rasterize(sys, quant,
                                        (coords[0], coords[-1]) * 2, 5,
                                        oracle.AE)
                assert [v for row in grid for v in row] == want
                for x0, ref in zip(members, refs):
                    assert probe_ray(sys, quant, x0, y) == ref
                    seen["walk", ref.exhausted] += 1
            seen["member"] += len(members)
            seen["not a member"] += len(cells) - len(members)
        assert min(seen.values()) >= 5 and len(seen) == 4, seen

    def cases(self, seed, count):
        rng = random.Random(seed)
        for _ in range(count):
            sys = gen_first_class(rng, 2, 3)
            yield sys, None, null_direction(rng, sys, sys.midpoint())
            yield sys, None, null_direction(rng, sys)
            sys, quant = gen_quantified(rng, 2, 3)
            yield sys, quant, null_direction(rng, sys, sys.midpoint())
            yield sys, quant, null_direction(rng, sys)

    @staticmethod
    def walk_lps(monkeypatch):
        """The ``lp_feasible`` calls inside each ``_walk_ray``, one count
        per walk."""
        walks = []
        walk, solve = unbounded._walk_ray, membership.lp_feasible

        def counting_walk(*args, **kwargs):
            walks.append(0)
            try:
                return walk(*args, **kwargs)
            finally:
                walks.append(None)

        def counting_solve(P):
            if walks and walks[-1] is not None:
                walks[-1] += 1
            return solve(P)

        monkeypatch.setattr(unbounded, "_walk_ray", counting_walk)
        monkeypatch.setattr(membership, "lp_feasible", counting_solve)
        return walks

    def test_reports_match_cold_membership(self):
        kinds = Counter()
        for sys, quant, y in self.cases(101, 30):
            if y is None or not any(y):
                continue
            v = decide_unbounded(sys, quant, y)
            if v.rule is not Rule.PROBE:
                continue
            for rep in probe_reports(v):
                assert rep == reference_probe(sys, quant, rep.base_point, y)
                kinds["ae" if quant else "first class"] += 1
        assert kinds["ae"] >= 5 and kinds["first class"] >= 5, kinds

    def test_first_class_walks_ask_no_lp(self, monkeypatch, e1):
        walks = self.walk_lps(monkeypatch)
        cases = [(e1.system, [Q(0), Q(-1)]), (e1.system, [Q(0), Q(1)])] + [
            (sys, y) for sys, quant, y in self.cases(103, 30)
            if quant is None and y is not None and any(y)]
        walked = settled = 0
        for sys, y in cases:
            walks.clear()
            v = decide_unbounded(sys, None, y)
            if v.rule is Rule.PROBE:
                lps = [n for n in walks if n is not None]
                assert not any(lps), lps
                if not lps:
                    # no walk: the report is settled at the kernel witness
                    assert settled_at_the_witness(sys, y, v)
                    settled += 1
                walked += len(lps)
        assert walked >= 10 and settled >= 3, (walked, settled)

    def test_separators_settle_later_walks(self, monkeypatch):
        # walks from every base point of a general 3x4 system, in turn: with
        # one shared query each walk reports what it reports with a query of
        # its own, and never asks more LPs, and the separators that earlier
        # walks kept spare LPs in total
        rng = random.Random(107)
        saved = 0
        for _ in range(40):
            sys = gen_general(rng, 3, 4, K=3)
            y = random_point(rng, sys.n)
            quant = QuantifierAssignment.all_exists(sys.K)
            ky = kernel_rows(sys, y)
            shared = query(sys, quant)
            for x0 in find_base_points(sys, None, 8):
                lps = []
                for qry in (shared, query(sys, quant)):
                    walks = self.walk_lps(monkeypatch)
                    lps.append((unbounded._walk_ray(qry, x0, y, ky),
                                walks[0]))
                    monkeypatch.undo()
                (rep, with_shared), (alone, with_own) = lps
                assert rep == alone == reference_probe(sys, None, x0, y)
                assert with_shared <= with_own
                saved += with_own - with_shared
        assert saved >= 10, saved

    def test_alphas_are_shared(self, e1):
        x0 = [Q(1), Q(0)]
        down = probe_ray(e1.system, None, x0, [Q(0), Q(-1)])
        v = decide_unbounded(e1.system, None, [Q(0), Q(-1)])
        (rep,) = probe_reports(v)
        assert len(down.alphas_tested) == len(rep.alphas_tested) == \
            PROBE_DOUBLINGS + 2
        assert all(a is b for a, b in zip(down.alphas_tested,
                                          rep.alphas_tested))
        want = [Q(0)] + [Q(2) ** i for i in range(PROBE_DOUBLINGS + 1)]
        assert repr(rep.alphas_tested) == repr(want)
        up = probe_ray(e1.system, None, x0, [Q(0), Q(1)])
        assert up.first_exit is rep.alphas_tested[1]


class TestVerdictDigest:
    """A guard on the cascade's output: the repr of every verdict (status,
    rule, detail and evidence) over a fixed seeded set of systems and
    directions, hashed.  A change that keeps every verdict keeps DIGEST; a
    change that moves one must update it on purpose.  VERDICTS hashes the
    status, rule and detail alone, so a change that moves only evidence
    (THM2's separator, when the row test finds one before the LP) keeps
    it; every THM2 separator must validate on the homogenized system."""

    DIGEST = "cb55a55a933d74676075e775beea5c9902c3524c5c46f432ec9c0b5e6f5fc546"
    VERDICTS = \
        "cf5ca5baeb4ce293cbf49b4f5671c84d81dbcd9b1d495c42def1a37fe7137ec9"

    def cases(self):
        rng = random.Random(97)
        for _ in range(24):
            m = rng.choice((2, 3))
            sys = gen_general(rng, m, m + rng.randint(0, 1))
            yield sys, None, null_direction(rng, sys)
            yield sys, None, null_direction(rng, sys, sys.midpoint())
            yield sys, None, random_point(rng, sys.n)
        for _ in range(8):
            sys = gen_first_class(rng)
            yield sys, None, null_direction(rng, sys)
            yield sys, None, random_point(rng, sys.n)
        for _ in range(8):
            for make in (gen_ordinary, gen_wide_ordinary, gen_class_c):
                sys = make(rng)
                yield sys, None, null_direction(rng, sys)
                yield sys, None, random_point(rng, sys.n)
        for _ in range(8):
            sys, quant = gen_quantified(rng, 2, 3)
            yield sys, quant, null_direction(rng, sys)
            yield sys, quant, null_direction(rng, sys, sys.midpoint())
        for _ in range(4):
            tsys, _ = gen_tolerable_nonempty(rng, common_kernel_col=0)
            sys, quant = tsys.combined()
            yield sys, quant, unit(sys.n, 0)

    def test_verdicts_unchanged(self):
        h, verdicts = hashlib.sha256(), hashlib.sha256()
        rules = set()
        for sys, quant, y in self.cases():
            if y is None or not any(y):
                continue
            v = decide_unbounded(sys, quant, y)
            rules.add(v.rule)
            h.update(repr((v.status, v.rule, v.detail, v.evidence)).encode())
            h.update(b"\n")
            verdicts.update(repr((v.status, v.rule, v.detail)).encode())
            verdicts.update(b"\n")
            if v.rule is Rule.THM2:
                assert validate_certificate(sys.homogenized(), quant, y,
                                            v.evidence)
        assert rules == {Rule.THM2, Rule.THM3, Rule.PROP1, Rule.THM7,
                         Rule.PROBE}
        assert verdicts.hexdigest() == self.VERDICTS
        assert h.hexdigest() == self.DIGEST


class TestKernelRowTest:
    """Stage (i) asks the row test first: a direction that one equation of
    the homogenized system refutes alone is a THM2 NO with that equation's
    separator (``_Query.refute``) and no LP, and only a direction that no
    row refutes, on rows that are not decoupled, asks the vertex LP."""

    def cases(self, rng, trials):
        """(system, quantifiers, direction, kernel rows): decoupled 2x2
        systems, united (first class) and AE, and coupled general 3x4
        ones."""
        for trial in range(trials):
            if trial % 3 == 0:
                sys = gen_first_class(rng, 2, 2)
                quant = QuantifierAssignment.all_exists(sys.K)
            elif trial % 3 == 1:
                sys, quant = gen_decoupled_ae(rng, 2, rng.randint(1, 2),
                                              rng.randint(1, 2))
            else:
                sys = gen_general(rng, 3, 4)
                quant = QuantifierAssignment.all_exists(sys.K)
            y = random_point(rng, sys.n, -1, 1)
            if any(y):
                yield sys, quant, y, kernel_rows(sys, y)

    @staticmethod
    def spied(monkeypatch):
        asked = []

        def spy(*args, real=membership.lp_feasible):
            asked.append(args)
            return real(*args)

        monkeypatch.setattr(membership, "lp_feasible", spy)
        return asked

    def test_a_refuting_row_asks_no_lp(self, monkeypatch):
        rng = random.Random(3434)
        asked = self.spied(monkeypatch)
        seen = Counter()
        for sys, quant, y, ky in self.cases(rng, 180):
            qry = query(sys, quant)
            failing = qry.refute(ky)
            if failing is None:
                continue
            asked.clear()
            v = decide_unbounded(sys, quant, y)
            assert asked == []
            assert (v.status, v.rule) == (Status.CERTIFIED_NO, Rule.THM2)
            sep = Certificate.separator(qry.certificate(ky, failing))
            assert v.evidence == sep
            assert repr(v.evidence) == repr(sep)
            assert validate_certificate(sys.homogenized(), quant, y,
                                        v.evidence)
            seen[query(sys, quant).decoupled(ky), bool(quant.forall_set)] += 1
        assert seen[True, False] >= 10 and seen[True, True] >= 10 and \
            seen[False, False] >= 10, seen

    def test_a_coupled_direction_no_row_refutes_asks_the_lp(self,
                                                             monkeypatch):
        rng = random.Random(3535)
        asked = self.spied(monkeypatch)
        seen = Counter()
        for sys, quant, y, ky in self.cases(rng, 900):
            qry = query(sys, quant)
            if qry.refute(ky) is not None or qry.decoupled(ky):
                continue
            in_kernel, cert = lp_verdict(qry.lp(ky))
            asked.clear()
            v = decide_unbounded(sys, quant, y)
            if in_kernel:
                assert v.rule is not Rule.THM2
            else:
                assert asked
                assert (v.rule, v.evidence) == (Rule.THM2, cert)
                assert repr(v.evidence) == repr(cert)
            seen[in_kernel] += 1
        assert seen[False] >= 10, seen

    def test_pilsys_kernel_and_thm2_agree(self, e1):
        """``member_ae_kernel`` (``pilsys kernel``) asks a direction in the
        order THM2 asks it, so every THM2 NO comes with the separator that
        the kernel query returns, a row-refuted direction's w = +-e_i as
        well as an LP's w."""
        rng = random.Random(3636)
        cases = [(e1.system, None, [Q(1), Q(0)])]
        for _ in range(120):
            sys = gen_general(rng, 3, 4)
            cases.append((sys, None, random_point(rng, sys.n, -1, 1)))
            cases.append(gen_quantified(rng, 2, 3)
                         + (random_point(rng, 3, -1, 1),))
        seen = Counter()
        for sys, quant, y in cases:
            if not any(y):
                continue
            v = decide_unbounded(sys, quant, y)
            if v.rule is not Rule.THM2:
                continue
            q = quant or QuantifierAssignment.all_exists(sys.K)
            assert member_ae_kernel(sys, q, y) == (False, v.evidence)
            ky = kernel_rows(sys, y)
            seen["by a row" if query(sys, q).refute(ky) else "by the LP"] += 1
        assert seen["by a row"] >= 10 and seen["by the LP"] >= 5, seen
        # on x1 = 1, x1 + p x2 = p the first equation refutes y = (1, 0)
        assert member_ae_kernel(e1.system, QuantifierAssignment.all_exists(1),
                                [Q(1), Q(0)])[1].separator.w == [1, 0]


class TestClassifyCalls:
    """Each question classifies its system once at most: a PROP1/PROP2
    decision in the cascade's stage (iv), whose query reads the class and
    hands it, with the query, to ``cones._pieces``, an equality report in
    the query of its ``decompose`` alone, and a united THM2 or THM3
    decision not at all."""

    WANT = {Rule.THM2: 0, Rule.THM3: 0, Rule.PROP1: 1, Rule.PROP2: 1}

    def test_classifications_per_question(self, monkeypatch):
        calls = []

        def counting(sys, quant=None):
            calls.append(sys)
            return classify(sys, quant)

        # membership alone calls it: cones reads the class of its query
        monkeypatch.setattr(membership, "classify", counting)
        rng = random.Random(19)
        seen = set()
        for _ in range(8):
            for make in (gen_ordinary, gen_class_c):
                sys = make(rng, 2, 3)
                for y in (null_direction(rng, sys), random_point(rng, sys.n)):
                    if y is None or not any(y):
                        continue
                    calls.clear()
                    v = decide_unbounded(sys, None, y)
                    if v.rule in self.WANT:
                        seen.add(v.rule)
                        assert len(calls) == self.WANT[v.rule], v.rule
                calls.clear()
                special_class_unbounded_equality(sys)
                assert len(calls) == 1
        assert seen == set(self.WANT)


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

    def test_zero_direction_rejected(self, e1, e3):
        for parsed in (e1, e3):
            y = [Q(0)] * parsed.system.n
            with pytest.raises(ValueError, match="not a direction"):
                decide_unbounded(parsed.system, None, y)
        with pytest.raises(ValueError, match="length"):
            decide_unbounded(e1.system, None, [Q(1)])

    def test_e1_downward_unknown_no_exit(self, e1):
        v = decide_unbounded(e1.system, None, [Q(0), Q(-1)])
        assert v.status is Status.UNKNOWN and v.rule is Rule.PROBE
        assert v.evidence.exhausted

    def test_base_points_found_on_demand(self, e1, monkeypatch):
        # E1 has few distinct base points, so a large budget used to draw and
        # solve every candidate; each verdict below rests on the first point
        # found, and a budget of 10^6 solves what a budget of 8 solves: the
        # probes solve the kernel witness p = 0, where A(p) x = b(p) has no
        # solution, and then the midpoint, whose ray never exits; THM7 takes
        # one member
        tol = ParametricSystem(
            1, 2, [[Q(1), Q(0)]], [Q(0)],
            [Parameter("p", Interval(Q(0), Q(1)), [[Q(1), Q(0)]], [Q(0)]),
             Parameter("q", Interval(Q(-1), Q(1)), [[Q(0), Q(0)]], [Q(1)])])
        cases = [(e1.system, None, [Q(0), Q(-1)], Rule.PROBE, 2),
                 (tol, QuantifierAssignment(frozenset({0}), frozenset({1})),
                  [Q(0), Q(1)], Rule.THM7, 1)]
        for sys, quant, y, rule, want_solves in cases:
            got = []
            for budget in (8, 10 ** 6):
                solves = []

                def counting(A, b):
                    solves.append(A)
                    return lin_solve(A, b)

                with monkeypatch.context() as mp:
                    mp.setattr(unbounded, "lin_solve", counting)
                    got.append(decide_unbounded(sys, quant, y, budget=budget))
                assert len(solves) == want_solves
            assert got[1].rule is rule
            assert repr(got[1]) == repr(got[0])

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
                    rep = probe_ray(sys, None, x0, y)
                    assert rep.first_exit is not None
                    assert rep.first_exit <= 2 ** 16
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
                rep = probe_ray(sys, None, v.evidence, y)
                assert rep.exhausted
                checked += 1
        assert checked > 0

    def test_ae_strict_without_base_point(self):
        # (1 + 2a - u) x1 + (2 + 2a - u) x2 = 2 + u - 2v, a in [1, 3] exists,
        # u in [2, 4] and v in [0, 3] forall: y = (-3, 2) gives
        # A(p) y = 1 - 2a + u, which holds [-1, 1] at u = 2 and at u = 4, so
        # eps = 1, R = |2| + 1*|1| + 3/2*|-2| = 6 and the evidence is 7y
        sys = ParametricSystem(
            1, 2, [[Q(1), Q(2)]], [Q(2)],
            [Parameter("a", Interval(Q(1), Q(3)), [[Q(2), Q(2)]], [Q(0)]),
             Parameter("u", Interval(Q(2), Q(4)), [[Q(-1), Q(-1)]], [Q(1)]),
             Parameter("v", Interval(Q(0), Q(3)), [[Q(0), Q(0)]], [Q(-2)])])
        quant = QuantifierAssignment(frozenset({1, 2}), frozenset({0}))
        y = [Q(-3), Q(2)]
        assert find_base_points(sys, quant, budget=8) == []
        v = decide_unbounded(sys, quant, y, budget=8)
        assert v.status is Status.CERTIFIED_YES and v.rule is Rule.THM3
        assert v.evidence == [Q(-21), Q(14)]
        assert v.detail == "strict kernel membership (eps = 1)"
        assert oracle.ae_vertex_oracle(sys, quant, v.evidence)
        assert probe_ray(sys, quant, v.evidence, y).exhausted

    def test_decomposition_over_cap_falls_through_to_probes(self):
        v = decide_unbounded(over_cap_ordinary(), None, unit(17, 16))
        assert v.status is Status.UNKNOWN and v.rule is Rule.PROBE
        assert v.evidence.exhausted

    def test_deterministic(self, e1):
        a = decide_unbounded(e1.system, None, [Q(0), Q(1)], budget=4, seed=1)
        b = decide_unbounded(e1.system, None, [Q(0), Q(1)], budget=4, seed=1)
        assert (a.status, a.rule, a.detail) == (b.status, b.rule, b.detail)


class TestKernelWitnessProbe:
    """Stage (v) walks first from a solution of A(p) x = b(p) at the kernel
    witness p of stage (i): A(p) y = 0 there, so when that system is
    consistent the whole ray solves it at p, and the walk ends after
    alpha = 1 and the common-witness LP."""

    def cases(self, seed, count):
        rng = random.Random(seed)
        for _ in range(count):
            sys = gen_general(rng, 3, 4)
            yield sys, null_direction(rng, sys)
            yield sys, null_direction(rng, sys, sys.midpoint())

    def test_decoupled_probe_asks_the_witness_lp_once(self, e1, monkeypatch):
        """On decoupled kernel rows stage (i) asks no LP; stage (v) reads
        the kernel witness, and that first vertex LP is the one LP the
        decision asks of the membership module."""
        y = [Q(0), Q(-1)]
        ky = kernel_rows(e1.system, y)
        lp = query(e1.system).lp(ky)
        assert query(e1.system).decoupled(ky)
        seen = []

        def spying(P):
            seen.append(P)
            return lp_feasible(P)

        monkeypatch.setattr(membership, "lp_feasible", spying)
        v = decide_unbounded(e1.system, None, y)
        assert (v.status, v.rule) == (Status.UNKNOWN, Rule.PROBE)
        assert len(seen) == 1
        assert seen[0] == membership.IntRowPolyhedron(
            lp.E, lp.dens, next(lp.vertices()), query(e1.system).box)

    def test_consistent_witness_exhausts_in_one_solve(self, monkeypatch):
        events = []

        def solving(A, b):
            events.append("solve")
            return lin_solve(A, b)

        def solving_lp(P):
            events.append("lp")
            return lp_feasible(P)

        monkeypatch.setattr(unbounded, "lin_solve", solving)
        monkeypatch.setattr(membership, "lp_feasible", solving_lp)
        checked = 0
        for sys, y in self.cases(71, 40):
            if y is None or not any(y):
                continue
            p = consistent_witness(sys, y)
            events.clear()
            v = decide_unbounded(sys, None, y)
            if v.rule is not Rule.PROBE or p is None:
                continue
            # stage (v) starts with the witness's solve
            probes = events[events.index("solve"):]
            assert probes.count("solve") == 1
            assert probes.count("lp") <= 2
            rep = v.evidence
            assert isinstance(rep, ProbeReport) and rep.exhausted
            assert rep.alphas_tested[-1] == 2 ** PROBE_DOUBLINGS
            assert witness_resubstitutes(sys, rep.base_point,
                                         Certificate.witness(p))
            checked += 1
        assert checked >= 10

    def test_zero_budget_still_probes_from_the_witness(self):
        for sys, y in self.cases(73, 20):
            if y is None or not any(y):
                continue
            p = consistent_witness(sys, y)
            v = decide_unbounded(sys, None, y, budget=0)
            if v.rule is Rule.PROBE and p is not None:
                break
        else:
            pytest.fail("no consistent kernel witness reached the probes")
        # the budget counts sampled points, and find_base_points samples only
        assert find_base_points(sys, budget=0) == []
        assert v.status is Status.UNKNOWN and v.evidence.exhausted
        assert witness_resubstitutes(sys, v.evidence.base_point,
                                     Certificate.witness(p))
        assert repr(decide_unbounded(sys, None, y, budget=8)) == repr(v)

    def test_settled_report_is_the_walk(self, monkeypatch):
        """A united report settled at the kernel witness is the report of
        the walk from its base point and of ``probe_ray``, and once the
        strict stage returns the decision asks no LP and walks no ray; on
        general 3x4 systems and on copies whose equations are scaled by
        rational factors."""
        events = []
        walk, solve, strict = (unbounded._walk_ray, membership.lp_feasible,
                               membership._VertexLP.strict)

        def walking(*args):
            events.append("walk")
            return walk(*args)

        def solving(P):
            events.append("lp")
            return solve(P)

        def stricting(lp):
            res = strict(lp)
            events.append("strict")
            return res

        monkeypatch.setattr(unbounded, "_walk_ray", walking)
        monkeypatch.setattr(membership, "lp_feasible", solving)
        monkeypatch.setattr(membership._VertexLP, "strict", stricting)
        rng = random.Random(113)
        checked = Counter()
        for _ in range(30):
            plain = gen_general(rng, 3, 4)
            for sys in (plain, with_scaled_rows(rng, plain)):
                flags = classify(sys)
                if ORDINARY in flags or CLASS_C in flags:
                    continue  # stage (iv) asks its piece LPs
                scaled = any(D > 1 for _, D in sys.int_coefficients())
                for y in (null_direction(rng, sys),
                          null_direction(rng, sys, sys.midpoint())):
                    if y is None or not any(y) or \
                            consistent_witness(sys, y) is None:
                        continue
                    events.clear()
                    v = decide_unbounded(sys, None, y)
                    if v.rule is not Rule.PROBE:
                        continue
                    assert events[events.index("strict") + 1:] == []
                    assert settled_at_the_witness(sys, y, v)
                    x0 = v.evidence.base_point
                    assert walk(query(sys), x0, y, kernel_rows(sys, y)) \
                        == v.evidence == probe_ray(sys, None, x0, y)
                    checked[scaled] += 1
        assert checked[False] >= 5 and checked[True] >= 5, checked

    def test_universal_parameters_still_walk(self, monkeypatch):
        # the witness p of an AE kernel query holds the first universal
        # vertex only, so the ray from the point solved at p is walked
        walked = []
        walk = unbounded._walk_ray

        def walking(qry, x0, y, ky):
            walked.append(x0)
            return walk(qry, x0, y, ky)

        monkeypatch.setattr(unbounded, "_walk_ray", walking)
        rng = random.Random(127)
        checked = 0
        for _ in range(60):
            sys, quant = gen_quantified(rng, 2, 3)
            for y in (null_direction(rng, sys),
                      null_direction(rng, sys, sys.midpoint())):
                if y is None or not any(y):
                    continue
                ok, cert = lp_verdict(query(sys, quant).lp(
                    kernel_rows(sys, y)))
                if not ok:
                    continue
                p = cert.witness_p
                res = lin_solve(sys.A_at(p), sys.b_at(p))
                if not isinstance(res, (UniqueSolution, AffineSolutionSet)) \
                        or not member_ae(sys, quant, res.point)[0]:
                    continue
                walked.clear()
                v = decide_unbounded(sys, quant, y)
                if v.rule is not Rule.PROBE:
                    continue
                assert walked[0] == res.point
                assert probe_reports(v)[0] == reference_probe(
                    sys, quant, res.point, y)
                checked += 1
        assert checked >= 3, checked

    def test_exhausted_reports_are_fm_members(self):
        # an independent check of every ray the probes report unexited: the
        # base point and its last point pass the FM oracles
        exhausted = 0
        for sys, quant, y in TestVerdictDigest().cases():
            if y is None or not any(y):
                continue
            v = decide_unbounded(sys, quant, y)
            if v.rule is not Rule.PROBE or not isinstance(v.evidence,
                                                          ProbeReport):
                continue
            rep = v.evidence
            assert rep.exhausted
            x0 = rep.base_point
            far = [a + rep.alphas_tested[-1] * b for a, b in zip(x0, y)]
            for x in (x0, far):
                if quant is None or not quant.forall_set:
                    assert oracle.fm_member_oracle(sys, x)
                else:
                    assert oracle.ae_vertex_oracle(sys, quant, x)
            exhausted += 1
        assert exhausted >= 5


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


def null_direction(rng, sys, p=None):
    """A y with A(p) y = 0 at p (default: the first box vertex), or None."""
    if p is None:
        p = next(sys.vertices(range(sys.K)))
    res = lin_solve(sys.A_at(p), zeros(sys.m))
    if not isinstance(res, AffineSolutionSet):
        return None
    coef = [rng.randint(-2, 2) for _ in res.basis]
    return [sum((c * v[j] for c, v in zip(coef, res.basis)), Q(0))
            for j in range(sys.n)]


class TestThresholdEvidence:
    """THM3 evidence in closed form: (R/eps + 1) y, where eps is the strict
    kernel margin and R bounds ||b(p)||_1 over the box."""

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
            # kernel at every p
            tsys, _ = gen_tolerable_nonempty(rng, common_kernel_col=0)
            sys, quant = tsys.combined()
            yield "tolerable", sys, quant, unit(sys.n, 0)
        # a vertex null direction is rarely strict; one of the midpoint is
        # strict more often, most of all with one row
        rng = random.Random(59)
        for _ in range(10):
            sys = gen_general(rng, 1, 3)
            yield "general", sys, None, null_direction(rng, sys, sys.midpoint())
        for _ in range(5):
            sys, quant = gen_quantified(rng, 1, 3, n_forall=1, n_exists=2)
            yield "ae", sys, quant, null_direction(rng, sys, sys.midpoint())

    def test_evidence_is_the_threshold_point_and_its_ray_stays(self):
        checked = {}
        for family, sys, quant, y in self.cases():
            if y is None or not any(y):
                continue
            v = decide_unbounded(sys, quant, y)
            if v.rule is not Rule.THM3:
                continue
            assert v.status is Status.CERTIFIED_YES
            q = quant or QuantifierAssignment.all_exists(sys.K)
            strict, eps = strict_kernel_member_ae(sys, q, y)
            assert strict and eps > 0
            R = sum(abs(v) for v in sys.b_at(sys.midpoint())) + sum(
                par.interval.rad * abs(v) for par in sys.params for v in par.b)
            assert v.evidence == [(R / eps + 1) * yj for yj in y]
            assert member_ae(sys, q, v.evidence)[0]
            if quant is None:
                assert oracle.fm_member_oracle(sys, v.evidence)
            else:
                assert oracle.ae_vertex_oracle(sys, quant, v.evidence)
            assert probe_ray(sys, quant, v.evidence, y).exhausted
            checked[family] = checked.get(family, 0) + 1
        # THM7 decides every tolerable case before the strict kernel, which
        # cannot hold there: every matrix parameter is universal, so Z(y) is
        # one point at each universal vertex
        assert sorted(checked) == ["ae", "general", "wide"]
        assert min(checked.values()) >= 4 and sum(checked.values()) >= 20

    def test_bound_from_integers_is_the_fraction_bound(self):
        """R from the box scaled once and the b column in integers is the
        Fraction sum ||b(mid)||_1 + sum_k rad_k ||b^(k)||_1, with thin
        parameters, no parameters, no equations and large coprime
        denominators."""
        rng = random.Random(61)
        systems = [ParametricSystem(1, 1, [[Q(1)]], [Q(-3, 7)], []),
                   ParametricSystem(0, 2, [], [], [])]
        for _ in range(20):
            sys = gen_general(rng, rng.randint(1, 3), 2)
            sys = with_thin_params(rng, sys, rng.randint(0, 2))
            systems += [sys, with_big_denominators(rng, sys)]
        for sys in systems:
            want = sum(abs(v) for v in sys.b_at(sys.midpoint())) + sum(
                par.interval.rad * abs(v) for par in sys.params for v in par.b)
            assert unbounded._rhs_bound(query(sys)) == want

    def lp_calls(self, monkeypatch):
        """The LPs and axis reaches a decision asks, in order, with base
        point sampling and solving forbidden."""
        def forbidden(*args, **kwargs):
            raise AssertionError("a THM3 decision samples base points")

        calls = []

        def counting(name, real):
            def lp(*args):
                calls.append(name)
                return real(*args)
            return lp

        monkeypatch.setattr(unbounded, "find_base_points", forbidden)
        monkeypatch.setattr(unbounded, "lin_solve", forbidden)
        monkeypatch.setattr(membership, "lp_feasible",
                            counting("feasible", membership.lp_feasible))
        monkeypatch.setattr(membership, "max_row_shift",
                            counting("shift", membership.max_row_shift))
        return calls

    def test_only_kernel_and_strict_kernel_lps(self, monkeypatch):
        # x1 + (a + c) x3 = 1 and x2 + (b + c) x3 = 1 with a, b, c in
        # [-1, 1]: c meets both rows, and e_3 is in the strict kernel, where
        # each axis reaches 2 (R = 2, so the evidence is 2 e_3)
        def gen(rows):
            return [[Q(0), Q(0), Q(int(i in rows))] for i in range(2)]
        sys = ParametricSystem(
            2, 3, [[Q(1), Q(0), Q(0)], [Q(0), Q(1), Q(0)]], [Q(1), Q(1)],
            [Parameter(name, Interval(Q(-1), Q(1)), gen(rows), [Q(0), Q(0)])
             for name, rows in (("a", (0,)), ("b", (1,)), ("c", (0, 1)))])
        y = [Q(0), Q(0), Q(1)]
        calls = self.lp_calls(monkeypatch)
        v = decide_unbounded(sys, None, y)
        assert v.rule is Rule.THM3 and v.evidence == [Q(0), Q(0), Q(2)]
        assert v.detail == "strict kernel membership (eps = 2)"
        # one kernel LP, which is also the strict kernel's phase 1 at the one
        # vertex, then 2m axis reaches resumed from it
        assert calls == ["feasible"] + ["shift"] * 4

    def test_decoupled_thm3_asks_no_lp(self, monkeypatch):
        # x1 + a*x2 = 1 with a in [-1, 1]: e_2 is in the strict kernel, and
        # a meets one row, so the row test and the row's reach decide
        sys = ParametricSystem(
            1, 2, [[Q(1), Q(0)]], [Q(1)],
            [Parameter("a", Interval(Q(-1), Q(1)), [[Q(0), Q(1)]], [Q(0)])])
        calls = self.lp_calls(monkeypatch)
        v = decide_unbounded(sys, None, [Q(0), Q(1)])
        assert v.rule is Rule.THM3 and v.evidence == [Q(0), Q(2)]
        assert v.detail == "strict kernel membership (eps = 1)"
        assert calls == []


def permuted(sys, quant, order):
    """sys with its parameters listed in ``order``, and the quantifier
    assignment that follows them."""
    pos = {k: i for i, k in enumerate(order)}
    return (ParametricSystem(sys.m, sys.n, sys.A0, sys.b0,
                             [sys.params[k] for k in order]),
            QuantifierAssignment(frozenset(pos[k] for k in quant.forall_set),
                                 frozenset(pos[k] for k in quant.exists_set)))


def rhs_only(name, lo, hi, b, n=1):
    return Parameter(name, Interval(Q(lo), Q(hi)), [[Q(0)] * n for _ in b],
                     [Q(v) for v in b])


class TestDecideUnboundedTolerable:
    """Tolerable systems go through ``decide_unbounded`` as a system and a
    quantifier assignment; THM7 decides them when a parameter is universal."""

    def decide(self, tsys, y):
        return decide_unbounded(*tsys.combined(), y)

    def test_bounded_tolerable_set(self):
        # x = q: no universal parameter, so the united cascade decides; the
        # zero vector is no direction, so no verdict holds for it
        base = ParametricSystem(1, 1, [[Q(1)]], [Q(0)], [])
        tsys = TolerableSystem(base, [RhsParameter("q", Interval(Q(-1), Q(1)),
                                                   [Q(1)])])
        with pytest.raises(ValueError, match="not a direction"):
            self.decide(tsys, [Q(0)])
        v = self.decide(tsys, [Q(1)])
        assert v.status is Status.CERTIFIED_NO and v.rule is Rule.THM2
        # x = u + q, u in [0, 1] universal: the set is [0, 1]
        base = ParametricSystem(1, 1, [[Q(1)]], [Q(0)],
                                [rhs_only("u", 0, 1, [1])])
        tsys = TolerableSystem(base, tsys.rhs_params)
        with pytest.raises(ValueError, match="not a direction"):
            self.decide(tsys, [Q(0)])
        v = self.decide(tsys, [Q(1)])
        assert v.status is Status.CERTIFIED_NO and v.rule is Rule.THM2

    def test_zero_matrix_everything_unbounded(self):
        # 0 x = u + q, u in [0, 1] universal, q in [-1, 1]: every x
        base = ParametricSystem(1, 1, [[Q(0)]], [Q(0)],
                                [rhs_only("u", 0, 1, [1])])
        tsys = TolerableSystem(base, [RhsParameter("q", Interval(Q(-1), Q(1)),
                                                   [Q(1)])])
        for y in ([Q(1)], [Q(-3)]):
            v = self.decide(tsys, y)
            assert v.status is Status.CERTIFIED_YES and v.rule is Rule.THM7

    def test_empty_tolerable_set_unknown(self):
        # x = q1 with q1 = 2 stacked against x = q2 with q2 = -2: with no
        # universal parameter the united cascade refutes y = 1 by the kernel
        base = ParametricSystem(2, 1, [[Q(1)], [Q(1)]], [Q(0), Q(0)], [])
        rhs = [RhsParameter("q1", Interval(Q(2), Q(2)), [Q(1), Q(0)]),
               RhsParameter("q2", Interval(Q(-2), Q(-2)), [Q(0), Q(1)])]
        v = self.decide(TolerableSystem(base, rhs), [Q(1)])
        assert v.status is Status.CERTIFIED_NO and v.rule is Rule.THM2
        # with a column x2 that no equation reads and a universal shift u of
        # the first right-hand side, y = e2 is in the kernel of an empty set
        base = ParametricSystem(2, 2, [[Q(1), Q(0)], [Q(1), Q(0)]],
                                [Q(0), Q(0)], [rhs_only("u", 0, 1, [1, 0], 2)])
        rhs = [RhsParameter(r.name, r.interval, r.d) for r in rhs]
        v = self.decide(TolerableSystem(base, rhs), [Q(0), Q(1)])
        assert v.status is Status.UNKNOWN and v.rule is Rule.THM7
        assert v.detail == "no base point of the tolerable set found"

    def test_kernel_matches_long_probes(self):
        from pilsys.membership import member_tolerable
        rng = random.Random(47)
        checked = 0
        for trial in range(8):
            tsys, x0 = gen_tolerable_nonempty(rng, common_kernel_col=0)
            assert member_tolerable(tsys, x0)[0]
            combined, quant = tsys.combined()
            for _ in range(4):
                y = random_point(rng, tsys.base.n, -2, 2)
                if not any(y):
                    with pytest.raises(ValueError, match="not a direction"):
                        decide_unbounded(combined, quant, y)
                    continue
                rep = probe_ray(combined, quant, x0, y)
                if member_ae_kernel(combined, quant, y)[0]:
                    assert rep.exhausted
                    v = decide_unbounded(combined, quant, y)
                    assert v.rule is Rule.THM7
                    checked += 1
        assert checked > 0

    def test_thm7_cascade_on_shuffled_systems(self, monkeypatch):
        def no_strict_stage(*args):
            raise AssertionError("a tolerable-form decision ran the strict kernel")

        monkeypatch.setattr(membership._VertexLP, "strict", no_strict_stage)
        # the spy is live: a strict-kernel decision trips it
        sys = ParametricSystem(
            1, 2, [[Q(1), Q(0)]], [Q(1)],
            [Parameter("a", Interval(Q(-1), Q(1)), [[Q(0), Q(1)]], [Q(0)])])
        with pytest.raises(AssertionError, match="strict kernel"):
            decide_unbounded(sys, None, [Q(0), Q(1)])
        rng = random.Random(71)
        seen = {}
        for trial in range(30):
            col = 0 if trial % 3 else None
            tsys, _ = gen_tolerable_nonempty(rng, 2, rng.choice((2, 3)),
                                             K=rng.randint(1, 3),
                                             common_kernel_col=col)
            order = list(range(tsys.base.K + len(tsys.rhs_params)))
            rng.shuffle(order)
            sys, quant = permuted(*tsys.combined(), order)
            dirs = [zeros(sys.n), random_point(rng, sys.n, -2, 2)]
            if col is not None:
                dirs.append([Q(rng.randint(1, 3))] + [Q(0)] * (sys.n - 1))
            for y in dirs:
                if not any(y):
                    with pytest.raises(ValueError, match="not a direction"):
                        decide_unbounded(sys, quant, y)
                    continue
                v = decide_unbounded(sys, quant, y)
                key = (v.status, v.rule)
                seen[key] = seen.get(key, 0) + 1
                if v.rule is Rule.THM2:
                    assert v.status is Status.CERTIFIED_NO
                    assert membership.validate_certificate(
                        sys.homogenized(), quant, y, v.evidence)
                elif v.status is Status.UNKNOWN:
                    # a nonempty set whose sampled base points all missed
                    assert v.rule is Rule.THM7 and v.evidence is None
                else:
                    assert v.rule is Rule.THM7
                    assert v.status is Status.CERTIFIED_YES
                    assert oracle.ae_vertex_oracle(sys, quant, v.evidence)
                    assert probe_ray(sys, quant, v.evidence, y).exhausted
        assert seen[Status.CERTIFIED_YES, Rule.THM7] >= 20
        assert seen[Status.CERTIFIED_NO, Rule.THM2] >= 20
