import random
from fractions import Fraction as Q

import pytest

from conftest import (gen_first_class, gen_general, gen_ordinary,
                      gen_quantified, load, random_point)
from pilsys import exact, membership
from pilsys.membership import (member_ae, member_ae_kernel, member_kernel,
                               member_united)
from pilsys.model import (Interval, Parameter, ParametricSystem,
                          QuantifierAssignment)
from pilsys.oracle import (ae_vertex_oracle, fm_member_oracle,
                           member_first_class, oettli_prager_member,
                           raster_csv, rasterize, sample_solution_cloud,
                           solution_cloud)

PX_EQ_Q = {"m": 1, "n": 1, "parameters": [
    {"name": "p", "interval": ["0", "1"], "A": [["1"]], "quantifier": "forall"},
    {"name": "q", "interval": ["-1", "1"], "b": ["1"], "quantifier": "exists"}]}


class TestFmMemberOracle:
    def test_e1(self, e1):
        assert fm_member_oracle(e1.system, [Q(1), Q(-5)])
        assert not fm_member_oracle(e1.system, [Q(1), Q(1)])

    def test_zero_residuals(self, e1):
        # x=(1,0): residuals vanish at p=1
        assert fm_member_oracle(e1.system, [Q(1), Q(0)])

    def test_matches_member_united(self):
        rng = random.Random(51)
        for _ in range(50):
            sys = gen_general(rng)
            x = random_point(rng, sys.n)
            assert fm_member_oracle(sys, x) == member_united(sys, x)[0]


class TestAeVertexOracle:
    def test_px_eq_q(self):
        parsed = load(PX_EQ_Q)
        assert ae_vertex_oracle(parsed.system, parsed.quant, [Q(1)])
        assert not ae_vertex_oracle(parsed.system, parsed.quant, [Q(2)])

    def test_block_over_the_cap_rejected(self):
        sys = ParametricSystem(1, 1, [[Q(1)]], [Q(0)], [
            Parameter(f"p{k}", Interval(Q(0), Q(1)), [[Q(1)]], [Q(0)])
            for k in range(13)])
        with pytest.raises(ValueError,
                           match="^quantifier block exceeds the FM oracle cap$"):
            ae_vertex_oracle(sys, QuantifierAssignment.all_exists(13), [Q(0)])

    def test_all_exists_is_fm_oracle(self):
        rng = random.Random(53)
        for _ in range(15):
            sys = gen_general(rng)
            qa = QuantifierAssignment.all_exists(sys.K)
            x = random_point(rng, sys.n)
            assert ae_vertex_oracle(sys, qa, x) == fm_member_oracle(sys, x)

    def test_matches_member_ae(self):
        rng = random.Random(55)
        for _ in range(15):
            sys, qa = gen_quantified(rng)
            x = random_point(rng, sys.n)
            assert ae_vertex_oracle(sys, qa, x) == member_ae(sys, qa, x)[0]


class TestCharacterizationChecks:
    """The Oettli-Prager and first-class checks evaluate their inequalities
    exactly and never reach the simplex, so ``verify`` compares the LP with
    something other than itself."""

    def test_no_simplex(self, monkeypatch):
        rng = random.Random(8)
        cases = [(oettli_prager_member, gen_ordinary(rng)) for _ in range(10)]
        cases += [(member_first_class, gen_first_class(rng))
                  for _ in range(10)]
        points = [random_point(rng, sys.n) for _, sys in cases]
        want = [member_united(sys, x)[0] for (_, sys), x in zip(cases, points)]

        def forbidden(*args):
            raise AssertionError("the simplex was called")

        monkeypatch.setattr(exact._BoundedSimplex, "__init__", forbidden)
        assert [check(sys, x) for (check, sys), x in
                zip(cases, points)] == want


class TestSolutionCloud:
    def test_e1_grid5(self, e1):
        pts = sample_solution_cloud(e1.system, 5)
        expected = [[Q(1), Q(-3)], [Q(1), Q(-1)], [Q(1), Q(-1, 3)], [Q(1), Q(0)]]
        assert pts == expected

    def test_e3_grid3(self, e3):
        pts = sample_solution_cloud(e3.system, 3)
        assert sorted(pts) == [[Q(-1)], [Q(1)]]

    def test_thin_system_single_point(self):
        sys = ParametricSystem(1, 1, [[Q(2)]], [Q(4)], [])
        assert sample_solution_cloud(sys, 5) == [[Q(2)]]

    def test_no_equations_no_point(self):
        # every x in R^2 solves a system with no equation, so no solution
        # is unique; with no unknown either, the empty point is
        sys = ParametricSystem(0, 2, [], [], [
            Parameter("p", Interval(Q(0), Q(1)), [], [])])
        assert sample_solution_cloud(sys, 5) == []
        assert sample_solution_cloud(ParametricSystem(0, 0, [], [], []),
                                     5) == [[]]

    def test_grid_below_2_rejected(self, e1):
        with pytest.raises(ValueError, match="^grid_per_param must be at least 2$"):
            next(solution_cloud(e1.system, 1))

    def test_every_point_is_a_member(self):
        rng = random.Random(57)
        for _ in range(10):
            sys = gen_general(rng)
            for x in sample_solution_cloud(sys, 3):
                assert member_united(sys, x)[0]


class TestRasterize:
    def test_e1_united_exact_column(self, e1):
        grid = rasterize(e1.system, None, (Q(-2), Q(2), Q(-6), Q(1)), 33)
        xs = [Q(-2) + Q(i, 32) * 4 for i in range(33)]
        ys = [Q(-6) + Q(j, 32) * 7 for j in range(33)]
        for i in range(33):
            for j in range(33):
                expected = xs[i] == 1 and ys[j] <= 0
                assert grid[i][j] == expected

    def test_e1_kernel_column(self, e1):
        grid = rasterize(e1.system, None, (Q(-2), Q(2), Q(-6), Q(1)), 33,
                         which="KERNEL")
        xs = [Q(-2) + Q(i, 32) * 4 for i in range(33)]
        for i in range(33):
            for j in range(33):
                assert grid[i][j] == (xs[i] == 0)

    def test_infeasible_all_false(self):
        sys = ParametricSystem(2, 2, [[Q(0)] * 2 for _ in range(2)],
                               [Q(1), Q(0)], [])
        grid = rasterize(sys, None, (Q(-1), Q(1), Q(-1), Q(1)), 5)
        assert not any(any(row) for row in grid)

    def test_rejects_non_2d(self, e3):
        with pytest.raises(ValueError):
            rasterize(e3.system, None, (Q(0), Q(1), Q(0), Q(1)), 5)

    def test_window_ends_are_ints_or_fractions(self, e1):
        # a float end is refused, not read as a binary fraction
        for window, bad in (((Q(-2), 2.0, Q(-6), Q(1)), "2.0"),
                            ((-2, 2, "-6", 1), "'-6'")):
            with pytest.raises(ValueError, match=f"^window entry {bad} is not "
                                                 f"an int or a Fraction$"):
                rasterize(e1.system, None, window, 5)
        assert rasterize(e1.system, None, (-2, 2, -6, 1), 5) == \
            rasterize(e1.system, None, (Q(-2), Q(2), Q(-6), Q(1)), 5)

    @pytest.mark.parametrize("which,match", [
        ("TOLERABLE", "^unknown set 'TOLERABLE'$"),
        ("AE", "^AE raster needs a quantifier assignment$"),
    ], ids=["unknown-set", "ae-without-quantifiers"])
    def test_rejects_bad_set(self, e1, which, match):
        with pytest.raises(ValueError, match=match):
            rasterize(e1.system, None, (Q(0), Q(1), Q(0), Q(1)), 5, which)

    def test_csv_format(self, e1):
        csv = raster_csv(e1.system, None, (Q(0), Q(2), Q(-1), Q(0)), 3)
        lines = csv.strip().split("\n")
        assert lines[0] == "x1,x2,member"
        assert len(lines) == 1 + 9
        # row-major; x1=1 column (middle three rows) with x2 <= 0 is marked
        assert lines[4] == "1/1,-1/1,1"
        assert lines[6] == "1/1,0/1,1"
        assert lines[1].endswith(",0")

    @staticmethod
    def counted_lps(monkeypatch):
        lps = []
        solve = membership.lp_feasible

        def counting(P):
            lps.append(P)
            return solve(P)

        monkeypatch.setattr(membership, "lp_feasible", counting)
        return lps

    def test_cells_are_cold_queries(self, monkeypatch):
        # one reading and one pool of separators serve every cell, and each
        # cell is what a cold query of its own says, with fewer LPs
        rng = random.Random(61)
        window, res = (Q(-3), Q(3), Q(-3), Q(3)), 9
        steps = [Q(i, res - 1) for i in range(res)]
        cells = [[Q(-3) + 6 * s, Q(-3) + 6 * t] for s in steps for t in steps]
        lps = self.counted_lps(monkeypatch)
        asked = pooled = 0
        for _ in range(4):
            sys, quant = gen_quantified(rng, 2, 2)
            for which, cold in (
                    ("UNITED", lambda x: member_united(sys, x)),
                    ("AE", lambda x: member_ae(sys, quant, x)),
                    ("KERNEL", lambda x: member_ae_kernel(sys, quant, x))):
                lps.clear()
                want = [cold(x)[0] for x in cells]
                asked += len(lps)
                lps.clear()
                grid = rasterize(sys, quant, window, res, which)
                pooled += len(lps)
                assert [v for row in grid for v in row] == want
        assert pooled < asked

    def test_first_class_raster_takes_no_lp(self, monkeypatch):
        rng = random.Random(67)
        lps = self.counted_lps(monkeypatch)
        members = 0
        for _ in range(6):
            sys = gen_first_class(rng, 2, 2)
            grid = rasterize(sys, None, (Q(-2), Q(2), Q(-2), Q(2)), 9)
            members += sum(map(sum, grid))
        assert lps == [] and members > 0


class TestKernelSymmetry:
    def test_symmetric_boxes_give_symmetric_kernel(self):
        rng = random.Random(59)
        for _ in range(15):
            sys = gen_general(rng)
            # symmetrize every interval about 0
            params = [Parameter(p.name,
                                Interval(-abs(p.interval.hi), abs(p.interval.hi))
                                if p.interval.rad != 0 else p.interval,
                                [[x for x in row] for row in p.A], p.b[:])
                      for p in sys.params]
            # zero the A-generators of thin parameters so they cannot break
            # the symmetry argument
            params = [p if p.interval.rad != 0 else
                      Parameter(p.name, p.interval,
                                [[Q(0)] * sys.n for _ in range(sys.m)], p.b[:])
                      for p in params]
            sym = ParametricSystem(sys.m, sys.n,
                                   [[Q(0)] * sys.n for _ in range(sys.m)],
                                   sys.b0[:], params)
            y = random_point(rng, sys.n)
            neg = [-a for a in y]
            assert member_kernel(sym, y)[0] == member_kernel(sym, neg)[0]
