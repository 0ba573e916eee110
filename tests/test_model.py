import copy
import json
from fractions import Fraction as Q
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (E1_DOC, E2_DOC, E3_DOC, gen_general, kernel_rows,
                      load, residual_rows_reference)
from pilsys.exact import lin_solve, scaled
from pilsys.membership import Reading, member_kernel, member_united
from pilsys.model import (CLASS_C, FIRST_CLASS, GENERAL, MAX_COEFFICIENTS,
                          ORDINARY, TOLERABLE_FORM, Interval, Parameter,
                          ParametricSystem, ParsedSystem,
                          QuantifierAssignment, RhsParameter,
                          SystemFormatError, TolerableSystem, box_vertices,
                          classify, parse_rational, parse_system,
                          residual_rows, residual_vectors,
                          serialize_system)

import random


class TestInterval:
    def test_mid_rad(self):
        iv = Interval(Q(0), Q(1))
        assert iv.mid == Q(1, 2) and iv.rad == Q(1, 2)
        assert iv.lo == iv.mid - iv.rad and iv.hi == iv.mid + iv.rad

    def test_reject_reversed(self):
        with pytest.raises(SystemFormatError):
            Interval(Q(1), Q(0))

    def test_int_ends_kept_as_fractions(self):
        iv = Interval(2, 3)
        assert type(iv.lo) is type(iv.hi) is Q
        assert iv == Interval(Q(2), Q(3)) and iv != (Q(2), Q(3))
        assert type(iv.mid) is type(iv.rad) is Q and iv.mid == Q(5, 2)
        # (-1 + p) x = 3/7 at x = 3/7 holds for p = 2 in [2, 3]; with the
        # int ends read as Fractions the first-class characterization reads
        # the exact midpoint and agrees with the LP
        from pilsys.oracle import member_first_class
        sys = ParametricSystem(1, 1, [[Q(-1)]], [Q(3, 7)],
                               [Parameter("p", iv, [[Q(1)]], [Q(0)])])
        assert member_united(sys, [Q(3, 7)])[0]
        assert member_first_class(sys, [Q(3, 7)])

    @pytest.mark.parametrize("ends", [(Q(1, 2), 1.0), (0.5, 1), ("0", "1"),
                                      (None, 1)],
                             ids=["float-hi", "float-lo", "str", "none"])
    def test_reject_inexact_ends(self, ends):
        with pytest.raises(SystemFormatError, match="is not an int or a Fraction"):
            Interval(*ends)


class TestParsing:
    def test_e1_roundtrip(self):
        parsed = load(E1_DOC)
        sys = parsed.system
        assert (sys.m, sys.n, sys.K) == (2, 2, 1)
        assert sys.params[0].interval == Interval(Q(0), Q(1))
        again = parse_system(serialize_system(parsed))
        assert again.system == sys
        assert again.quant == parsed.quant

    def test_rational_literals(self):
        assert parse_rational("1/3") == Q(1, 3)
        assert parse_rational("0.25") == Q(1, 4)
        assert parse_rational("-7") == Q(-7)

    def test_bad_literal(self):
        with pytest.raises(SystemFormatError):
            parse_rational("x")

    def test_reversed_interval_rejected(self):
        doc = {"m": 1, "n": 1,
               "parameters": [{"name": "p", "interval": ["1", "0"], "A": [["1"]]}]}
        with pytest.raises(SystemFormatError):
            load(doc)

    def test_dimension_mismatch_rejected(self):
        doc = {"m": 2, "n": 2, "constant": {"A": [["1", "0"]], "b": ["1", "0"]}}
        with pytest.raises(SystemFormatError):
            load(doc)
        eye = [[Q(1), Q(0)], [Q(0), Q(1)]]
        with pytest.raises(SystemFormatError, match="^constant matrix is not 2x2$"):
            ParametricSystem(2, 2, eye[:1], [Q(1), Q(0)], [])
        with pytest.raises(SystemFormatError,
                           match="^matrix of parameter 'p' is not 2x2$"):
            ParametricSystem(2, 2, eye, [Q(1), Q(0)], [Parameter(
                "p", Interval(Q(0), Q(1)), [[Q(1)], [Q(0)]], [Q(0), Q(0)])])
        with pytest.raises(SystemFormatError,
                           match="^constant rhs does not have length 2$"):
            ParametricSystem(2, 2, eye, [Q(1)], [])

    def test_duplicate_name_rejected(self):
        doc = {"m": 1, "n": 1, "parameters": [
            {"name": "p", "interval": ["0", "1"], "A": [["1"]]},
            {"name": "p", "interval": ["0", "1"], "b": ["1"]}]}
        with pytest.raises(SystemFormatError):
            load(doc)

    def test_quantifier_default_is_exists(self):
        doc = {"m": 1, "n": 1,
               "parameters": [{"name": "p", "interval": ["0", "1"], "A": [["1"]]}]}
        parsed = load(doc)
        assert parsed.quant.exists_set == frozenset({0})
        assert not parsed.quant.forall_set
        assert not parsed.explicit_quantifiers


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=5)
    | st.sampled_from(["0", "1", "-1/2", "1/0", "0.1", "x", "forall"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["m", "n", "A", "b", "name",
                                       "interval", "quantifier"]),
                      inner, max_size=3),
    max_leaves=8)


def _slots(node):
    """Every (container, key) position inside a JSON document."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield node, key
        yield from _slots(child)


@st.composite
def mutated_docs(draw):
    """A valid system document with one to three values replaced."""
    doc = copy.deepcopy(draw(st.sampled_from([E1_DOC, E2_DOC, E3_DOC])))
    for _ in range(draw(st.integers(1, 3))):
        slots = list(_slots(doc))
        if not slots:
            break
        container, key = draw(st.sampled_from(slots))
        container[key] = draw(JSON_VALUES)
    return doc


RATIONALS = st.fractions(min_value=-10, max_value=10, max_denominator=12)


@st.composite
def parsed_systems(draw):
    m, n, K = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(0, 3))

    def matrix():
        return [[draw(RATIONALS) for _ in range(n)] for _ in range(m)]

    def vector():
        return [draw(RATIONALS) for _ in range(m)]

    names = draw(st.lists(st.text(max_size=4), min_size=K, max_size=K, unique=True))
    params = []
    for name in names:
        lo, hi = sorted((draw(RATIONALS), draw(RATIONALS)))
        params.append(Parameter(name, Interval(lo, hi), matrix(), vector()))
    system = ParametricSystem(m, n, matrix(), vector(), params)
    # Quantifiers are written per parameter, so only K > 0 can mark them.
    explicit = K > 0 and draw(st.booleans())
    forall = frozenset(draw(st.sets(st.integers(0, K - 1)))) if explicit \
        else frozenset()
    quant = QuantifierAssignment(forall, frozenset(range(K)) - forall)
    return ParsedSystem(system, quant, explicit)


class TestParserTotality:
    @pytest.mark.parametrize("doc", [
        {"m": 1, "n": 1, "parameters": [{"interval": [0, 1], "A": [["1"]]}]},
        {"m": 1, "n": 1, "parameters": [{"interval": ["0", "1"], "A": [[1]]}]},
        {"m": 1, "n": 1, "parameters": [{"interval": [0.1, 1], "A": [["1"]]}]},
        {"m": 1, "n": 1, "constant": 5},
        {"m": 1, "n": 1, "parameters": 5},
        {"m": 1, "n": 1, "parameters": [{"name": ["p"], "interval": ["0", "1"]}]},
        {"m": True, "n": True, "constant": {"A": [["1"]], "b": ["1"]}},
        {"m": 1, "n": 1, "parameters": [{"interval": ["0", "1"], "A": [["1"]],
                                         "quantifier": "sometimes"}]},
    ], ids=["int-interval", "int-entry", "float-interval", "constant-5",
            "parameters-5", "list-name", "bool-dimensions",
            "unknown-quantifier"])
    def test_mistyped_fields_rejected(self, doc):
        with pytest.raises(SystemFormatError):
            load(doc)

    @pytest.mark.parametrize("literal", ["1e999999999", " -2.5E-999999999 ",
                                         "1" * 1001, "1e1_0000", "1e99_999_999",
                                         "1_000"],
                             ids=["huge-exponent", "tiny-exponent", "long-literal",
                                  "grouped-exponent", "grouped-huge-exponent",
                                  "grouped-digits"])
    def test_oversized_literal_rejected(self, literal):
        with pytest.raises(SystemFormatError):
            parse_rational(literal)
        doc = copy.deepcopy(E3_DOC)
        doc["constant"]["b"] = [literal]
        with pytest.raises(SystemFormatError):
            load(doc)

    def test_literal_at_the_limits_accepted(self):
        assert parse_rational("1e1000") == Q(10) ** 1000
        assert parse_rational("1E-1000") == Q(1, 10 ** 1000)
        assert parse_rational("1" * 1000) == Q(int("1" * 1000))

    @pytest.mark.parametrize("m,n,K", [(1001, 1001, 0), (500, 500, 4)])
    def test_declared_size_over_the_cap_rejected(self, m, n, K):
        # just over the cap: absent matrices would be allocated as zeros
        assert m * n * (K + 1) > MAX_COEFFICIENTS
        doc = {"m": m, "n": n, "parameters": [{"interval": ["0", "1"]}] * K}
        with pytest.raises(SystemFormatError, match="exceed the cap"):
            parse_system(json.dumps(doc))

    def test_declared_size_at_the_cap_accepted(self):
        assert parse_system('{"m": 1000, "n": 1000}').system.m == 1000

    def test_deep_nesting_rejected(self):
        with pytest.raises(SystemFormatError):
            parse_system("[" * 100000)

    @settings(max_examples=300, deadline=None)
    @given(doc=mutated_docs() | JSON_VALUES)
    def test_parses_or_raises_format_error(self, doc):
        try:
            parse_system(json.dumps(doc))
        except SystemFormatError:
            pass

    @settings(max_examples=100, deadline=None)
    @given(parsed=parsed_systems())
    def test_serialize_parse_roundtrip(self, parsed):
        again = parse_system(serialize_system(parsed))
        assert again == parsed


class TestVertices:
    @staticmethod
    def system(*intervals):
        params = [Parameter(f"p{k}", Interval(Q(lo), Q(hi)), [[Q(1)]], [Q(0)])
                  for k, (lo, hi) in enumerate(intervals)]
        return ParametricSystem(1, 1, [[Q(0)]], [Q(0)], params)

    def test_lexicographic_lo_before_hi(self):
        sys = self.system((0, 1), (2, 3), (4, 5))
        assert list(sys.vertices([0, 1])) == [[0, 2], [0, 3], [1, 2], [1, 3]]
        assert list(sys.vertices([2, 0])) == [[4, 0], [4, 1], [5, 0], [5, 1]]

    def test_thin_interval_gives_one_end(self):
        sys = self.system((0, 1), (7, 7))
        assert list(sys.vertices([0, 1])) == [[0, 7], [1, 7]]
        assert list(sys.vertices([1])) == [[7]]

    def test_no_indices_give_one_empty_vertex(self):
        assert list(self.system((0, 1)).vertices([])) == [[]]
        assert list(self.system().vertices(range(0))) == [[]]

    def test_box_vertices_take_any_ends(self):
        assert list(box_vertices([(0, 2), (3, 3), (-1, 1)])) == \
            [(0, 3, -1), (0, 3, 1), (2, 3, -1), (2, 3, 1)]
        assert list(box_vertices([])) == [()]

    @pytest.mark.parametrize("k", range(5))
    def test_k_wide_intervals_give_2_to_the_k(self, k):
        sys = self.system(*[(-1, 1)] * k)
        vertices = list(sys.vertices(range(k)))
        assert len(vertices) == 2 ** k
        assert len({tuple(v) for v in vertices}) == 2 ** k


ENTRIES = st.one_of(st.just(Q(0)), RATIONALS)


@st.composite
def systems_with_parameter_values(draw):
    """A system with zero-heavy entries, some thin intervals, and a value
    p_k per parameter: zero, an interval end, or any rational."""
    m, n, K = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(0, 4))

    def matrix():
        return [[draw(ENTRIES) for _ in range(n)] for _ in range(m)]

    def vector():
        return [draw(ENTRIES) for _ in range(m)]

    params, p = [], []
    for k in range(K):
        lo, hi = sorted((draw(RATIONALS), draw(RATIONALS)))
        if draw(st.booleans()):
            hi = lo
        params.append(Parameter(f"p{k}", Interval(lo, hi), matrix(), vector()))
        p.append(draw(st.one_of(st.just(Q(0)), st.sampled_from([lo, hi]),
                                RATIONALS)))
    return ParametricSystem(m, n, matrix(), vector(), params), p


@given(systems_with_parameter_values())
def test_a_at_and_b_at_are_the_plain_sums(case):
    sys, p = case
    A = [[sys.A0[i][j] + sum((pk * par.A[i][j] for pk, par in zip(p, sys.params)),
                             Q(0))
          for j in range(sys.n)] for i in range(sys.m)]
    b = [sys.b0[i] + sum((pk * par.b[i] for pk, par in zip(p, sys.params)), Q(0))
         for i in range(sys.m)]
    got_A, got_b = sys.A_at(p), sys.b_at(p)
    assert got_A == A and got_b == b
    assert all(type(x) is Q for row in got_A for x in row)
    assert all(type(x) is Q for x in got_b)


class TestResiduals:
    def test_e1_at_1_0(self, e1):
        v = residual_vectors(e1.system, [Q(1), Q(0)])
        assert v[0] == [Q(0), Q(1)]
        assert v[1] == [Q(0), Q(-1)]

    def test_e1_at_0_0(self, e1):
        v = residual_vectors(e1.system, [Q(0), Q(0)])
        assert v[0] == [Q(-1), Q(0)]
        assert v[1] == [Q(0), Q(-1)]

    def test_zero_when_solved(self, e1):
        # x=(1,0) solves the system at p=1: residuals stacked at p=1 vanish
        sys = e1.system
        v = residual_vectors(sys, [Q(1), Q(0)])
        combo = [v[0][i] + 1 * v[1][i] for i in range(sys.m)]
        assert combo == [Q(0), Q(0)]

    def test_dim_mismatch(self, e1):
        with pytest.raises(ValueError):
            residual_vectors(e1.system, [Q(1)])

    @pytest.mark.parametrize("read,what", [
        (residual_vectors, "point"), (residual_rows, "point"),
        (lambda sys, x: Reading(sys).rows_at(x), "point"),
        (lambda sys, x: Reading(sys).rows_at(x, 0), "direction"),
    ], ids=["residual_vectors", "residual_rows", "rows_at", "kernel-rows_at"])
    def test_entries_are_ints_or_fractions(self, e1, read, what):
        """Each reader of a point or direction refuses a wrong length and
        an entry that is not an int or a Fraction, naming it, before it
        reads a coefficient; an int reads as the Fraction it equals."""
        with pytest.raises(ValueError, match=f"^{what} has length 1, "
                                             f"expected 2$"):
            read(e1.system, [Q(1)])
        for bad in (0.5, "1/2", None):
            with pytest.raises(ValueError, match=f"^{what} entry {bad!r} is "
                                                 f"not an int or a Fraction$"):
                read(e1.system, [Q(1), bad])
        assert read(e1.system, [1, -3]) == read(e1.system, [Q(1), Q(-3)])


@settings(deadline=None)
@given(systems_with_parameter_values(), st.data())
def test_residual_vectors_are_the_plain_sums(case, data):
    """On the system, its homogenized system and a combined tolerable system."""
    sys, _ = case
    x = [data.draw(RATIONALS) for _ in range(sys.n)]
    rhs = [RhsParameter(f"q{l}", Interval(Q(0), Q(1)),
                        [data.draw(ENTRIES) for _ in range(sys.m)])
           for l in range(data.draw(st.integers(0, 2)))]
    tsys = TolerableSystem(sys, rhs)
    for s in (sys, sys.homogenized(), tsys.combined()[0]):
        terms = [(s.A0, s.b0), *((par.A, par.b) for par in s.params)]
        want = [[sum((a * xj for a, xj in zip(row, x)), Q(0)) - bi
                 for row, bi in zip(A, b)] for A, b in terms]
        got = residual_vectors(s, x)
        assert got == want
        assert all(type(v) is Q for vk in got for v in vk)
        rows = residual_rows(s, x)
        assert len(rows) == s.m
        for i, (nums, den) in enumerate(rows):
            assert type(den) is int and den > 0
            assert [Q(v, den) for v in nums] == [vk[i] for vk in want]


# pairwise coprime, so that a row's common denominator is their product
BIG_PRIMES = (10007, 65537, 999983, 2 ** 31 - 1)
BIG_ENTRIES = st.one_of(
    st.just(Q(0)),
    st.builds(Q, st.integers(-10 ** 6, 10 ** 6), st.sampled_from(BIG_PRIMES)),
    RATIONALS)


@st.composite
def big_denominator_systems(draw):
    """A system whose entries have large coprime denominators, with thin
    parameters, rows that are zero in every term, and a point x with zero
    entries."""
    m, n, K = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(0, 4))
    zero_rows = draw(st.sets(st.integers(0, m - 1), max_size=m - 1))

    def entry(i):
        return Q(0) if i in zero_rows else draw(BIG_ENTRIES)

    def matrix():
        return [[entry(i) for _ in range(n)] for i in range(m)]

    def vector():
        return [entry(i) for i in range(m)]

    params = []
    for k in range(K):
        lo, hi = sorted((draw(BIG_ENTRIES), draw(BIG_ENTRIES)))
        if draw(st.booleans()):
            hi = lo
        params.append(Parameter(f"p{k}", Interval(lo, hi), matrix(), vector()))
    sys = ParametricSystem(m, n, matrix(), vector(), params)
    x = [draw(BIG_ENTRIES) for _ in range(n)]
    p = [draw(st.one_of(st.sampled_from([par.interval.lo, par.interval.hi]),
                        BIG_ENTRIES)) for par in params]
    return sys, x, p


def _values(rows):
    return [[Q(num, den) for num in nums] for nums, den in rows]


@settings(deadline=None)
@given(big_denominator_systems())
def test_integer_form_rows_match_the_reference(case):
    """``residual_rows`` gives the rational values of the per-coefficient
    reference; a direction's rows from the table (``Reading.rows_at(y,
    0)``) those of the homogenized system;
    ``Reading.system_at`` each row of [A(p) | b(p)] times D_i (the lcm of
    the row's denominators over every term) and the denominator of p, which
    ``lin_solve`` solves alike."""
    sys, x, p = case
    rows = residual_rows(sys, x)
    assert all(type(v) is int for nums, den in rows for v in (*nums, den))
    assert _values(rows) == _values(residual_rows_reference(sys, x))
    assert _values(kernel_rows(sys, x)) == \
        _values(residual_rows(sys.homogenized(), x))
    pn, pd = scaled(p)
    A, b = Reading(sys).system_at([pd, *pn])
    terms = [(sys.A0, sys.b0), *((par.A, par.b) for par in sys.params)]
    for i, (row, bi, want, want_b) in enumerate(zip(A, b, sys.A_at(p),
                                                    sys.b_at(p))):
        D = lcm(*[a.denominator for M, v in terms for a in (*M[i], v[i])])
        assert all(type(v) is int for v in (*row, bi))
        assert [Q(v, D * pd) for v in (*row, bi)] == [*want, want_b]
    assert lin_solve(A, b) == lin_solve(sys.A_at(p), sys.b_at(p))


def test_a_queried_system_keeps_its_value():
    """A query leaves its system as it was: the same repr, and equal to a
    copy taken before it."""
    rng = random.Random(2020)
    for _ in range(20):
        sys = gen_general(rng, rng.randint(1, 3), rng.randint(1, 3))
        fresh = copy.deepcopy(sys)
        before = repr(sys)
        x = [Q(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(sys.n)]
        member_united(sys, x)
        member_kernel(sys, x)
        pn, pd = scaled(sys.midpoint())
        Reading(sys).system_at([pd, *pn])
        assert repr(sys) == before and sys == fresh and fresh == sys


class TestClassify:
    def test_e1_first_class_only(self, e1):
        flags = classify(e1.system, e1.quant)
        assert FIRST_CLASS in flags
        assert ORDINARY not in flags and CLASS_C not in flags

    def test_e3_all_special(self, e3):
        flags = classify(e3.system)
        assert ORDINARY in flags and FIRST_CLASS in flags and CLASS_C in flags

    def test_e2_ordinary(self, e2):
        assert ORDINARY in classify(e2.system)

    def test_two_row_generator_is_general(self):
        sys = ParametricSystem(2, 2, [[Q(0)] * 2] * 2, [Q(0)] * 2, [
            Parameter("p", Interval(Q(0), Q(1)),
                      [[Q(1), Q(0)], [Q(1), Q(0)]], [Q(0), Q(0)])])
        flags = classify(sys)
        assert GENERAL in flags
        assert len(flags.flags) == 1

    def test_thin_parameter_folded(self):
        # a [2,2] parameter spread over two rows would break first-classness
        # unless folded into the constant
        sys = ParametricSystem(2, 1, [[Q(0)], [Q(0)]], [Q(0), Q(0)], [
            Parameter("thin", Interval(Q(2), Q(2)),
                      [[Q(1)], [Q(1)]], [Q(0), Q(0)]),
            Parameter("p", Interval(Q(0), Q(1)), [[Q(1)], [Q(0)]], [Q(0), Q(0)])])
        flags = classify(sys)
        assert ORDINARY in flags

    def test_tolerable_form_flag(self):
        doc = {"m": 1, "n": 1, "parameters": [
            {"name": "p", "interval": ["0", "1"], "A": [["1"]],
             "quantifier": "forall"},
            {"name": "q", "interval": ["-1", "1"], "b": ["1"],
             "quantifier": "exists"}]}
        parsed = load(doc)
        assert TOLERABLE_FORM in classify(parsed.system, parsed.quant)
        # an existential parameter that touches the matrix breaks the form
        doc["parameters"][1]["A"] = [["1"]]
        parsed = load(doc)
        assert TOLERABLE_FORM not in classify(parsed.system, parsed.quant)

    def test_ordinary_implies_first_class_on_random_systems(self):
        rng = random.Random(5)
        for _ in range(30):
            sys = gen_general(rng)
            flags = classify(sys)
            if ORDINARY in flags:
                assert FIRST_CLASS in flags


class TestQuantifierAssignment:
    def test_partition_enforced(self):
        qa = QuantifierAssignment(frozenset({0}), frozenset({1}))
        qa.validate_for(2)
        with pytest.raises(SystemFormatError):
            qa.validate_for(3)

    def test_overlap_rejected(self):
        with pytest.raises(SystemFormatError):
            QuantifierAssignment(frozenset({0}), frozenset({0}))
