import hashlib
import random
from fractions import Fraction as Q

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (fold_thin_params, gen_class_c, gen_first_class,
                      gen_general, gen_ordinary, gen_wide_ordinary,
                      query, random_point, sign_pieces_reference,
                      with_big_denominators, with_scaled_rows,
                      with_thin_params, with_zero_generator)
from pilsys import cones
from pilsys.cones import (DecompositionTooLarge, Piece, PieceDecomposition,
                          classC_decomposition, decompose,
                          first_unbounded_piece, orthant_decomposition,
                          special_class_unbounded_equality)
from pilsys.exact import (Feasible, IntRhs, IntRowPolyhedron, Polyhedron,
                          fm_feasible, lp_feasible, recession_cone)
from pilsys.membership import member_kernel, member_united
from pilsys.model import (CLASS_C, ORDINARY, Interval, Parameter,
                          ParametricSystem, classify, interval_data)
from pilsys.oracle import oettli_prager_member


class TestOettliPrager:
    def test_e2(self, e2):
        assert oettli_prager_member(e2.system, [Q(1)])
        assert not oettli_prager_member(e2.system, [Q(3, 2)])

    def test_e3(self, e3):
        assert oettli_prager_member(e3.system, [Q(1)])
        assert not oettli_prager_member(e3.system, [Q(1, 2)])
        assert not oettli_prager_member(e3.system, [Q(0)])

    def test_rejects_non_ordinary(self, e1):
        with pytest.raises(ValueError):
            oettli_prager_member(e1.system, [Q(0), Q(0)])

    def test_point_length_checked(self, e3):
        with pytest.raises(ValueError, match="^point has length 2, expected 1$"):
            oettli_prager_member(e3.system, [Q(1), Q(0)])
        with pytest.raises(ValueError, match="^point entry 1.0 is not an int "
                                             "or a Fraction$"):
            oettli_prager_member(e3.system, [1.0])
        assert oettli_prager_member(e3.system, [1])

    def test_interval_data_e2(self, e2):
        Ac, dA, bc, db = interval_data(e2.system)
        assert Ac == [[Q(3)]] and dA == [[Q(1)]]
        assert bc == [Q(0)] and db == [Q(2)]

    def test_agrees_with_member_united(self):
        rng = random.Random(21)
        for _ in range(25):
            sys = gen_ordinary(rng)
            x = random_point(rng, sys.n)
            assert oettli_prager_member(sys, x) == member_united(sys, x)[0]


class TestOrthantDecomposition:
    def test_rejects_non_ordinary(self):
        # p touches two entries of A: class C, not ordinary
        sys = ParametricSystem(1, 2, [[Q(0), Q(1)]], [Q(1)], [
            Parameter("p", Interval(Q(1), Q(2)), [[Q(1), Q(1)]], [Q(0)])])
        assert CLASS_C in classify(sys) and ORDINARY not in classify(sys)
        with pytest.raises(ValueError, match="^system is not ordinary$"):
            orthant_decomposition(sys)

    def test_sign_entries_checked(self):
        assert str(cones.SignVector((1, -1))) == "+-"
        with pytest.raises(ValueError, match="^sign entries must be"):
            cones.SignVector((1, 0))

    def test_e3_pieces(self, e3):
        dec = orthant_decomposition(e3.system)
        assert dec.mode == "ORTHANT" and len(dec.pieces) == 2
        plus, minus = dec.pieces
        assert str(plus.sign) == "+" and str(minus.sign) == "-"
        # s=+1: solution piece {x >= 1}, kernel piece {y >= 0}
        assert plus.solution_piece.contains([Q(1)])
        assert plus.solution_piece.contains([Q(5)])
        assert not plus.solution_piece.contains([Q(1, 2)])
        assert plus.kernel_piece.contains([Q(0)]) and plus.kernel_piece.contains([Q(3)])
        assert not plus.kernel_piece.contains([Q(-1)])
        # s=-1 mirrors
        assert minus.solution_piece.contains([Q(-1)])
        assert not minus.solution_piece.contains([Q(-1, 2)])
        assert plus.nonempty and minus.nonempty

    def test_e2_bounded_pieces(self, e2):
        dec = orthant_decomposition(e2.system)
        for piece in dec.pieces:
            rc = recession_cone(piece.solution_piece)
            # radius 1 < |midpoint| 3: only the zero direction recedes
            assert rc.contains([Q(0)]) and not rc.contains([Q(1)]) \
                and not rc.contains([Q(-1)])

    def test_pieces_cover_solution_set(self):
        rng = random.Random(30)
        for _ in range(10):
            sys = gen_ordinary(rng)
            dec = orthant_decomposition(sys)
            for _ in range(20):
                x = random_point(rng, sys.n)
                in_piece = any(p.solution_piece.contains(x) for p in dec.pieces)
                assert in_piece == oettli_prager_member(sys, x)

    def test_signs_are_bounds(self):
        rng = random.Random(32)
        for _ in range(10):
            sys = gen_ordinary(rng)
            for piece in orthant_decomposition(sys).pieces:
                lo = [Q(0) if s > 0 else None for s in piece.sign.s]
                hi = [None if s > 0 else Q(0) for s in piece.sign.s]
                for P in (piece.solution_piece, piece.kernel_piece):
                    assert (P.lo, P.hi) == (lo, hi)
                    assert len(P.C) == 2 * sys.m and not P.E
                assert recession_cone(piece.solution_piece) == piece.kernel_piece

    def test_kernel_pieces_cover_kernel(self):
        rng = random.Random(31)
        for _ in range(10):
            sys = gen_ordinary(rng)
            dec = orthant_decomposition(sys)
            for _ in range(20):
                y = random_point(rng, sys.n)
                in_piece = any(p.kernel_piece.contains(y) for p in dec.pieces)
                assert in_piece == member_kernel(sys, y)[0]


class TestClassCDecomposition:
    def test_rejects_non_class_c(self, e1):
        assert CLASS_C not in classify(e1.system)
        with pytest.raises(ValueError, match="^system is not of class C$"):
            classC_decomposition(e1.system)

    def test_nonsingular_kernel_is_origin(self):
        # A(p) = [[p,1],[0,1]], p in [1,2], b = q*(1,0), q in [0,1]
        sys = ParametricSystem(2, 2, [[Q(0), Q(1)], [Q(0), Q(1)]],
                               [Q(0), Q(0)], [
            Parameter("p", Interval(Q(1), Q(2)),
                      [[Q(1), Q(0)], [Q(0), Q(0)]], [Q(0), Q(0)]),
            Parameter("q", Interval(Q(0), Q(1)),
                      [[Q(0), Q(0)], [Q(0), Q(0)]], [Q(1), Q(0)])])
        assert "CLASS_C" in classify(sys)
        dec = classC_decomposition(sys)
        for piece in dec.pieces:
            assert piece.kernel_piece.contains([Q(0), Q(0)])
            for y in ([Q(1), Q(0)], [Q(0), Q(1)], [Q(1), Q(-1)], [Q(-2), Q(1)]):
                assert not piece.kernel_piece.contains(y)

    def test_no_matrix_parameters_single_piece(self):
        sys = ParametricSystem(1, 1, [[Q(1)]], [Q(0)], [
            Parameter("q", Interval(Q(-1), Q(1)), [[Q(0)]], [Q(1)])])
        dec = classC_decomposition(sys)
        assert len(dec.pieces) == 1
        piece = dec.pieces[0]
        assert piece.kernel_piece.contains([Q(0)])
        assert not piece.kernel_piece.contains([Q(1)])

    def test_e3_matches_orthant(self, e3):
        orth = orthant_decomposition(e3.system)
        sign = classC_decomposition(e3.system)
        assert len(orth.pieces) == len(sign.pieces) == 2
        for po, ps in zip(orth.pieces, sign.pieces):
            for y in ([Q(0)], [Q(1)], [Q(-1)], [Q(2)], [Q(-3)]):
                assert po.kernel_piece.contains(y) == ps.kernel_piece.contains(y)
                assert po.solution_piece.contains(y) == ps.solution_piece.contains(y)

    def test_kernel_pieces_cover_kernel(self):
        rng = random.Random(33)
        for _ in range(8):
            sys = gen_class_c(rng)
            dec = classC_decomposition(sys)
            for _ in range(15):
                y = random_point(rng, sys.n)
                in_piece = any(p.kernel_piece.contains(y) for p in dec.pieces)
                assert in_piece == member_kernel(sys, y)[0]


class TestUnboundedEquality:
    def test_e3(self, e3):
        rep = special_class_unbounded_equality(e3.system)
        assert not rep.sigma_empty
        assert rep.verified
        assert all(p.recession_equals_kernel for p in rep.pieces)

    def test_e2_both_sides_origin(self, e2):
        rep = special_class_unbounded_equality(e2.system)
        assert rep.verified

    def test_empty_sigma_reported(self):
        # 0*x = 1 with a vacuous uncertain coefficient elsewhere
        sys = ParametricSystem(1, 1, [[Q(0)]], [Q(1)], [
            Parameter("b", Interval(Q(0), Q(0)), [[Q(0)]], [Q(1)])])
        rep = special_class_unbounded_equality(sys)
        assert rep.sigma_empty
        assert all(p.recession_equals_kernel is None for p in rep.pieces)

    @pytest.mark.parametrize("gen", [gen_ordinary, gen_class_c],
                             ids=["ordinary", "class_c"])
    def test_kernel_piece_is_zero_rhs_linearization(self, gen):
        rng = random.Random(37)
        for _ in range(10):
            for piece in decompose(gen(rng)).pieces:
                S, P = piece.solution_piece, piece.kernel_piece
                assert (P.C, P.lo, P.hi) == (S.C, S.lo, S.hi)
                assert not P.E and all(v == 0 for v in P.d)

    def test_mismatch_is_reported(self, e3, monkeypatch):
        # a kernel piece with one row dropped is no longer the recession cone
        piece = decompose(e3.system).pieces[0]
        K = piece.kernel
        cut = IntRowPolyhedron(K.E, K.dens, K.rhs, K.box, K.C[1:], K.cdens[1:],
                               IntRhs(K.crhs.nums[1:], K.crhs.den))
        monkeypatch.setattr(cones, "decompose", lambda sys: PieceDecomposition(
            "ORTHANT", [Piece(piece.sign, piece.solution, cut, True)]))
        rep = special_class_unbounded_equality(e3.system)
        assert rep.pieces[0].recession_equals_kernel is False
        assert rep.verified is False

    def test_random_sampled_containment(self):
        rng = random.Random(35)
        for gen in (gen_ordinary, gen_class_c):
            for _ in range(5):
                sys = gen(rng)
                dec = decompose(sys)
                for piece in dec.pieces:
                    if not piece.nonempty:
                        continue
                    rc = recession_cone(piece.solution_piece)
                    for _ in range(100):
                        y = random_point(rng, sys.n)
                        assert rc.contains(y) == piece.kernel_piece.contains(y)


class TestPieceNonempty:
    @pytest.mark.parametrize("gen", [gen_ordinary, gen_class_c],
                             ids=["ordinary", "class_c"])
    def test_nonempty_agrees_with_fm(self, gen):
        rng = random.Random(36)
        kinds = set()
        for _ in range(12):
            for piece in decompose(gen(rng)).pieces:
                assert piece.nonempty == fm_feasible(piece.solution_piece)
                kinds.add(piece.nonempty)
        assert kinds == {True, False}


class TestThinParameters:
    """A thin parameter only shifts the constant term: classification, the
    midpoint/radius view and the decomposition read a system with thin
    parameters as they read its folded copy (conftest.fold_thin_params),
    and every decomposition's repr is the one recorded when the package
    still folded them (DIGEST)."""

    DIGEST = "67c58ca017cc8bba1efb69e98cdd95f2dad3677dfe82c8a3faedd614ef40faed"

    def cases(self):
        rng = random.Random(23)
        for make in (gen_ordinary, gen_class_c, gen_first_class, gen_general):
            for _ in range(10):
                yield make, with_thin_params(rng, make(rng), rng.randint(1, 2))

    def test_read_as_the_folded_system(self):
        h = hashlib.sha256()
        for make, sys in self.cases():
            folded = fold_thin_params(sys)
            assert folded.K < sys.K
            flags = classify(sys)
            assert flags == classify(folded)
            if make is gen_ordinary:
                assert ORDINARY in flags
            if make is gen_class_c:
                assert CLASS_C in flags
            assert interval_data(sys) == interval_data(folded)
            try:
                got = repr(decompose(sys))
            except ValueError as exc:
                got = f"error: {exc}"
            h.update(got.encode())
            h.update(b"\n")
        assert h.hexdigest() == self.DIGEST


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from([gen_ordinary, gen_class_c]),
       st.booleans(), st.booleans(), st.booleans())
def test_pieces_match_the_fraction_reference(seed, make, thin, zero, big):
    """Every piece of the integer linearization reads as the Fraction piece
    built from ``interval_data`` (rows, right-hand side and bounds), and its
    nonemptiness, found by the LP or by an earlier piece's point, is FM's
    answer on that reference piece; with thin parameters, zero generators
    and large coprime denominators in the box and the rows."""
    rng = random.Random(seed)
    sys = make(rng, rng.randint(1, 2), rng.randint(1, 3))
    if thin:
        sys = with_thin_params(rng, sys, rng.randint(1, 2))
    if zero:
        sys = with_zero_generator(rng, sys)
    if big:
        sys = with_big_denominators(rng, sys)
    dec = decompose(sys)
    ref = list(sign_pieces_reference(sys))
    assert len(dec.pieces) == len(ref)
    for piece, (s, S, K) in zip(dec.pieces, ref):
        assert piece.sign.s == s
        assert piece.solution_piece == S and piece.kernel_piece == K
        assert piece.nonempty == fm_feasible(S)


def row_fails_on_box(P):
    """Does one inequality row of the Fraction polyhedron P exceed its
    right-hand side at every point of P's box?  Its least value there takes
    lo_j where the coefficient is positive and hi_j where it is negative."""
    for row, d in zip(P.C, P.d):
        ends = [(a, P.lo[j] if a > 0 else P.hi[j])
                for j, a in enumerate(row) if a]
        if all(e is not None for _, e in ends) and \
                sum((a * e for a, e in ends), Q(0)) > d:
            return True
    return False


def built_polyhedra(monkeypatch, cls):
    """Every instance of cls built from now on, in order."""
    built = []
    init = cls.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counting)
    return built


class TestIntegerPieces:
    """The pieces are built and decided in integers: a point already found
    settles later pieces with no LP, and a Fraction polyhedron is built
    only where one is read."""

    def systems(self, seed):
        rng = random.Random(seed)
        for _ in range(8):
            yield rng, gen_ordinary(rng, 2, 3)
            yield rng, gen_class_c(rng, 2, 3)
            yield rng, gen_wide_ordinary(rng, 2, 2)

    def test_a_point_found_settles_later_pieces(self, monkeypatch):
        solved = []

        def recording(P):
            res = lp_feasible(P)
            solved.append((P, res))
            return res

        monkeypatch.setattr(cones, "lp_feasible", recording)
        settled = refuted = 0
        for _, sys in self.systems(41):
            solved.clear()
            points = []
            for piece in decompose(sys).pieces:
                mine = [res for P, res in solved if P is piece.solution]
                if mine:
                    res, = mine
                    assert piece.nonempty == isinstance(res, Feasible)
                    if piece.nonempty:
                        points.append(res.point)
                elif piece.nonempty:
                    # no LP: a point of an earlier piece lies in this one
                    settled += 1
                    assert any(piece.solution_piece.contains(x) for x in points)
                else:
                    # no LP: one row fails on the whole box
                    refuted += 1
                    assert row_fails_on_box(piece.solution_piece)
                    assert fm_feasible(piece.solution_piece) is False
        assert settled > 20 and refuted > 0, (settled, refuted)

    def test_equality_report_builds_no_fraction_polyhedron(self, monkeypatch):
        built = built_polyhedra(monkeypatch, Polyhedron)
        reports = [special_class_unbounded_equality(sys)
                   for _, sys in self.systems(42)]
        assert built == []
        assert sum(rep.verified for rep in reports) > 10

    def test_first_unbounded_piece_builds_views_only_when_read(
            self, monkeypatch):
        built = built_polyhedra(monkeypatch, Polyhedron)
        found = 0
        for rng, sys in self.systems(43):
            for _ in range(3):
                y = random_point(rng, sys.n)
                built.clear()
                mode, piece = first_unbounded_piece(query(sys), y)
                assert built == []
                if piece is None:
                    continue
                found += 1
                # the returned piece keeps the integer forms alone, and
                # builds its two Fraction views when they are read
                assert type(piece.solution) is type(piece.kernel) \
                    is IntRowPolyhedron
                S, K = piece.solution_piece, piece.kernel_piece
                assert built == [S, K]
                assert K.contains(y) and fm_feasible(S)
                same, = [p for p in decompose(sys).pieces if p.sign == piece.sign]
                assert piece == same
        assert found > 10

    def test_over_the_cap_before_any_piece(self, monkeypatch):
        A = [[Q(1)]]
        classc = ParametricSystem(1, 1, [[Q(0)]], [Q(1)], [
            Parameter(f"p{k}", Interval(Q(0), Q(1)), A, [Q(0)])
            for k in range(17)])
        # x1 + a x17 = 1: ordinary, with 2^17 orthants
        orthant = ParametricSystem(1, 17, [[Q(1)] + [Q(0)] * 16], [Q(1)], [
            Parameter("a", Interval(Q(0), Q(1)), [[Q(0)] * 16 + [Q(1)]],
                      [Q(0)])])
        assert CLASS_C in classify(classc) and ORDINARY not in classify(classc)
        assert ORDINARY in classify(orthant)
        built = built_polyhedra(monkeypatch, IntRowPolyhedron)
        fractions = built_polyhedra(monkeypatch, Polyhedron)
        monkeypatch.setattr(ParametricSystem, "int_coefficients",
                            lambda self: pytest.fail("the system was scaled"))
        for sys, y in ((classc, [Q(1)]), (orthant, [Q(0)] * 16 + [Q(1)])):
            with pytest.raises(DecompositionTooLarge):
                decompose(sys)
            with pytest.raises(DecompositionTooLarge):
                first_unbounded_piece(query(sys), y)
        assert built == [] and fractions == []


def lp_point_alone(P):
    """``cones._lp_point`` with every piece left to the nonemptiness LP."""
    res = lp_feasible(P)
    return res.point if isinstance(res, Feasible) else None


class TestRowRefutation:
    """A piece one of whose inequality rows fails at every point of its box
    is empty, and ``_lp_point`` says so with no LP: the pieces, their
    nonemptiness and every report built on them are what the LP alone
    gives, on the tier-1 systems and on copies whose equations are scaled
    by rational factors (row denominators D_i > 1)."""

    def systems(self, seed):
        rng = random.Random(seed)
        for _ in range(10):
            for make in (gen_ordinary, gen_class_c):
                sys = make(rng, 2, rng.randint(2, 3))
                yield rng, sys
                yield rng, with_scaled_rows(rng, sys)

    def test_refuted_pieces_are_empty(self, monkeypatch):
        asked = []

        def recording(P):
            asked.append(P)
            return lp_feasible(P)

        monkeypatch.setattr(cones, "lp_feasible", recording)
        refuted = {False: 0, True: 0}  # by whether a row has D_i > 1
        for _, sys in self.systems(53):
            asked.clear()
            for piece in decompose(sys).pieces:
                S = piece.solution_piece
                # the integer test is the Fraction one on the same rows
                assert cones._row_refutes(piece.solution) == row_fails_on_box(S)
                if row_fails_on_box(S):
                    assert not any(P is piece.solution for P in asked)
                    assert not piece.nonempty
                    assert fm_feasible(S) is False
                    refuted[any(D > 1 for _, D in sys.int_coefficients())] += 1
        assert min(refuted.values()) >= 5, refuted

    def test_box_ends_that_are_not_zero(self):
        """A piece's box ends are 0 or none, so every term a * end of its
        least row value is 0; on a box with other ends the integer test is
        still the Fraction one."""
        rng = random.Random(59)
        box = ([1, -3], [4, 2], 2)  # [1/2, 2] x [-3/2, 1]
        refuted = {False: 0, True: 0}
        for _ in range(100):
            P = IntRowPolyhedron(
                [], [], IntRhs([], 1), box,
                [[rng.randint(-2, 2), rng.randint(-2, 2)]],
                [rng.choice((1, 2))],
                IntRhs([rng.randint(-6, 6)], rng.choice((1, 3))))
            want = row_fails_on_box(P.polyhedron())
            assert cones._row_refutes(P) == want
            refuted[want] += 1
        assert min(refuted.values()) >= 10, refuted

    def test_same_reprs_as_the_lp_alone(self, monkeypatch):
        found, scaled = 0, 0
        for rng, sys in self.systems(47):
            scaled += any(D > 1 for _, D in sys.int_coefficients())
            ys = [random_point(rng, sys.n) for _ in range(2)] + [
                [Q(s * (i == j)) for i in range(sys.n)]
                for j in range(sys.n) for s in (1, -1)]

            def reports():
                pieces = [first_unbounded_piece(query(sys), y) for y in ys]
                return (repr(decompose(sys)), repr(pieces),
                        repr(special_class_unbounded_equality(sys)))

            got = reports()
            with monkeypatch.context() as mp:
                mp.setattr(cones, "_lp_point", lp_point_alone)
                assert got == reports()
            found += got[1].count("Piece(")
        assert scaled >= 15 and found >= 10, (scaled, found)
