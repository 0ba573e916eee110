"""Domain model: intervals, parametric systems, quantifier assignments,
structural classification, and the on-disk JSON format.

A system is the family A(p) x = b(p) with

    A(p) = A0 + sum_k p_k A^(k),    b(p) = b0 + sum_k p_k b^(k),

p ranging over a box of intervals.  The constant term (A0, b0) is explicit;
every formula treats it as a parameter fixed at 1 with radius 0.

Nothing is kept on a system between queries: ``residual_rows`` and
``ParametricSystem.int_coefficients`` scale the coefficients they read to
integers on each call and build no Fraction.  A one-shot point query reads
its rows with ``residual_rows``, which reads only the coefficients that
meet the point.  Every other question (a direction's kernel rows, a
decision, a raster, the sign pieces, a solution cloud) reads the system's
``int_coefficients`` table once, through one query object
(``membership._Query``).  ``residual_vectors``
reads the Fraction coefficients instead, for the certificate checks and
oracles, which are meant to be apart from the solver's integer rows.
"""

from __future__ import annotations

import itertools
import json
import re
from math import lcm
from typing import Iterator, Optional, Sequence

from .exact import (Matrix, Q, Vector, _check_entries, _Record, dot, scaled,
                    zeros)


class SystemFormatError(ValueError):
    """Raised for malformed system documents, with a location hint."""


def box_vertices(ends: Sequence[tuple]) -> Iterator[tuple]:
    """The vertices of the box with the given (lo, hi) ends: lexicographic
    order, lo before hi; a pair with lo = hi gives one end, and no pairs
    give one empty vertex."""
    return itertools.product(*[(lo,) if lo == hi else (lo, hi)
                               for lo, hi in ends])


class Interval(_Record):
    __slots__ = _fields = ("lo", "hi")

    def __init__(self, lo: Q, hi: Q):
        # the ends are kept as Fractions, so mid and rad are exact too
        for end in (lo, hi):
            if not isinstance(end, (int, Q)):
                raise SystemFormatError(f"interval end {end!r} is not an int "
                                        f"or a Fraction")
        self.lo, self.hi = Q(lo), Q(hi)
        if self.lo > self.hi:
            raise SystemFormatError(f"interval [{lo}, {hi}] has lo > hi")

    @property
    def mid(self) -> Q:
        return (self.lo + self.hi) / 2

    @property
    def rad(self) -> Q:
        return (self.hi - self.lo) / 2

    def contains(self, x: Q) -> bool:
        return self.lo <= x <= self.hi

    def is_thin(self) -> bool:
        return self.lo == self.hi


class Parameter(_Record):
    __slots__ = _fields = ("name", "interval", "A", "b")

    def __init__(self, name: str, interval: Interval, A: Matrix, b: Vector):
        self.name = name
        self.interval = interval
        self.A = A  # m x n generator
        self.b = b  # length-m generator


class ParametricSystem(_Record):
    __slots__ = _fields = ("m", "n", "A0", "b0", "params")

    def __init__(self, m: int, n: int, A0: Matrix, b0: Vector,
                 params: list[Parameter]):
        def check_mat(M: Matrix, what: str) -> None:
            if len(M) != m or any(len(row) != n for row in M):
                raise SystemFormatError(f"{what} is not {m}x{n}")

        def check_vec(v: Vector, what: str) -> None:
            if len(v) != m:
                raise SystemFormatError(f"{what} does not have length {m}")

        check_mat(A0, "constant matrix")
        check_vec(b0, "constant rhs")
        names = set()
        for par in params:
            if par.name in names:
                raise SystemFormatError(f"duplicate parameter name {par.name!r}")
            names.add(par.name)
            check_mat(par.A, f"matrix of parameter {par.name!r}")
            check_vec(par.b, f"rhs of parameter {par.name!r}")
        self.m, self.n, self.A0, self.b0, self.params = m, n, A0, b0, params

    @property
    def K(self) -> int:
        return len(self.params)

    @property
    def box(self) -> list[Interval]:
        return [par.interval for par in self.params]

    def int_coefficients(self) -> list[tuple[list[int], int]]:
        """Row i of every term as integers over one positive D_i, the lcm of
        the denominators of row i over every term: (the flat list of
        A0[i], b0[i], A^(1)[i], b^(1)[i], ..., each A row followed by its b
        entry, times D_i; D_i).  No Fraction is built."""
        terms = [(self.A0, self.b0), *((par.A, par.b) for par in self.params)]
        out = []
        for i in range(self.m):
            ratios = [a.as_integer_ratio() for A, b in terms
                      for a in (*A[i], b[i])]
            D = lcm(*[d for _, d in ratios])
            out.append(([n * (D // d) for n, d in ratios], D))
        return out

    def A_at(self, p: Sequence[Q]) -> Matrix:
        # each entry is (1, p).(A0[i][j], A^(1)[i][j], ...), summed by dot
        # over one common denominator with the zero products skipped
        coef = [Q(1), *p]
        mats = [self.A0, *(par.A for par in self.params)]
        return [[dot(coef, entries) for entries in zip(*rows)]
                for rows in zip(*mats)]

    def b_at(self, p: Sequence[Q]) -> Vector:
        coef = [Q(1), *p]
        vecs = [self.b0, *(par.b for par in self.params)]
        return [dot(coef, entries) for entries in zip(*vecs)]

    def midpoint(self) -> Vector:
        return [par.interval.mid for par in self.params]

    def vertices(self, indices: Sequence[int]) -> Iterator[Vector]:
        """Vertices of the sub-box over the given parameter indices, in
        ``box_vertices`` order."""
        return (list(v) for v in box_vertices(
            [(iv.lo, iv.hi) for iv in (self.params[k].interval for k in indices)]))

    def homogenized(self) -> "ParametricSystem":
        """Same matrix family with every right-hand side zeroed."""
        return ParametricSystem(
            self.m, self.n, [row[:] for row in self.A0], zeros(self.m),
            [Parameter(par.name, par.interval, [r[:] for r in par.A], zeros(self.m))
             for par in self.params])


class QuantifierAssignment(_Record):
    __slots__ = _fields = ("forall_set", "exists_set")

    def __init__(self, forall_set: frozenset[int], exists_set: frozenset[int]):
        if forall_set & exists_set:
            raise SystemFormatError("quantifier sets overlap")
        self.forall_set = forall_set
        self.exists_set = exists_set

    @staticmethod
    def all_exists(K: int) -> "QuantifierAssignment":
        return QuantifierAssignment(frozenset(), frozenset(range(K)))

    @staticmethod
    def all_forall(K: int) -> "QuantifierAssignment":
        return QuantifierAssignment(frozenset(range(K)), frozenset())

    def validate_for(self, K: int) -> None:
        if self.forall_set | self.exists_set != set(range(K)):
            raise SystemFormatError("quantifier sets do not partition the parameters")


class RhsParameter(_Record):
    __slots__ = _fields = ("name", "interval", "d")

    def __init__(self, name: str, interval: Interval, d: Vector):
        self.name, self.interval, self.d = name, interval, d


class TolerableSystem(_Record):
    """A(p) x = b(p) + sum_l q_l d^(l) with p universal and q existential."""

    __slots__ = _fields = ("base", "rhs_params")

    def __init__(self, base: ParametricSystem, rhs_params: list[RhsParameter]):
        self.base = base
        self.rhs_params = rhs_params

    def combined(self) -> tuple[ParametricSystem, QuantifierAssignment]:
        """One parametric system: base parameters forall, rhs parameters exists."""
        sys = self.base
        params = list(sys.params)
        zero = [[Q(0)] * sys.n for _ in range(sys.m)]
        for rp in self.rhs_params:
            params.append(Parameter(rp.name, rp.interval,
                                    [row[:] for row in zero], rp.d[:]))
        combined = ParametricSystem(sys.m, sys.n, [row[:] for row in sys.A0],
                                    sys.b0[:], params)
        quant = QuantifierAssignment(
            frozenset(range(sys.K)),
            frozenset(range(sys.K, sys.K + len(self.rhs_params))))
        return combined, quant


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

ORDINARY = "ORDINARY"
FIRST_CLASS = "FIRST_CLASS"
CLASS_C = "CLASS_C"
TOLERABLE_FORM = "TOLERABLE_FORM"
GENERAL = "GENERAL"


class SystemClass(_Record):
    __slots__ = _fields = ("flags",)

    def __init__(self, flags: frozenset[str]):
        self.flags = flags

    def __contains__(self, flag: str) -> bool:
        return flag in self.flags

    def __str__(self) -> str:
        order = [ORDINARY, FIRST_CLASS, CLASS_C, TOLERABLE_FORM, GENERAL]
        return ",".join(f for f in order if f in self.flags)


def classify(sys: ParametricSystem,
             quant: Optional[QuantifierAssignment] = None) -> SystemClass:
    """Structural class flags of a parametric system.

    Thin parameters are left out: a [c, c] parameter only shifts the
    constant term, which no flag reads, so it cannot spoil the special-class
    structure.  Each other parameter's nonzero positions in its augmented
    generator (A^(k) | b^(k)) are read once.
    """
    n = sys.n
    first_class = ordinary = class_c = True
    taken: set[tuple[int, int]] = set()
    for par in sys.params:
        if par.interval.is_thin():
            continue
        pos = [(i, j) for i, row in enumerate(par.A)
               for j, a in enumerate(row) if a != 0]
        pos += [(i, n) for i, v in enumerate(par.b) if v != 0]
        one_row = len({i for i, _ in pos}) <= 1
        in_b = sum(j == n for _, j in pos)
        first_class = first_class and one_row
        # one coefficient each, no two parameters on the same one
        ordinary = ordinary and len(pos) == 1 and pos[0] not in taken
        taken.update(pos)
        # a matrix parameter on one row, or a parameter on one entry of b
        class_c = class_c and (one_row and not in_b or in_b == len(pos) <= 1)
    flags = {flag for flag, holds in ((FIRST_CLASS, first_class),
                                      (ORDINARY, ordinary),
                                      (CLASS_C, class_c)) if holds}

    if quant is not None:
        quant.validate_for(sys.K)
        if all(all(x == 0 for row in sys.params[k].A for x in row)
               for k in quant.exists_set):
            flags.add(TOLERABLE_FORM)

    if not flags:
        flags.add(GENERAL)
    return SystemClass(frozenset(flags))


def interval_data(sys: ParametricSystem) -> tuple[Matrix, Matrix, Vector, Vector]:
    """The midpoint/radius view (A_c, Delta_A, b_c, Delta_b): A(mid p) and
    b(mid p), and the sums of rad(p_k) |A^(k)| and rad(p_k) |b^(k)|.  A thin
    parameter has radius 0, so it adds to A_c and b_c only."""
    m, n = sys.m, sys.n
    Ac = [row[:] for row in sys.A0]
    dA = [[Q(0)] * n for _ in range(m)]
    bc = sys.b0[:]
    db = zeros(m)
    for par in sys.params:
        mid, rad = par.interval.mid, par.interval.rad
        for i in range(m):
            for j in range(n):
                if par.A[i][j] != 0:
                    Ac[i][j] += mid * par.A[i][j]
                    dA[i][j] += rad * abs(par.A[i][j])
            if par.b[i] != 0:
                bc[i] += mid * par.b[i]
                db[i] += rad * abs(par.b[i])
    return Ac, dA, bc, db


# ---------------------------------------------------------------------------
# Residuals
# ---------------------------------------------------------------------------

def residual_rows(sys: ParametricSystem,
                  x: Sequence[Q]) -> list[tuple[list[int], int]]:
    """Row i of the residuals v^(k) = A^(k) x - b^(k), k = 0..K (index 0 is
    the constant term), as the integer numerators of v^(0)_i, ..., v^(K)_i
    over one positive denominator D_i: the form a simplex tableau row keeps.

    x is scaled once to integers xn over xd, so each entry is
    (A^(k)_i, b^(k)_i).(xn, -xd) / xd: the nonzero products are summed as
    one integer over the lcm of their denominators, as in ``dot``, and D_i
    is xd times the lcm of those over k.  Only the coefficients that meet x
    are read, and no Fraction is built.
    """
    _check_entries(x, sys.n, "point")
    xn, xd = scaled(x)
    xn.append(-xd)
    mats = [(sys.A0, sys.b0), *((par.A, par.b) for par in sys.params)]
    out = []
    for i in range(sys.m):
        nums, dens = [], []
        for A, b in mats:
            num, den = 0, 1
            for a, xj in zip((*A[i], b[i]), xn):
                if xj:
                    an, ad = a.as_integer_ratio()
                    if an:
                        if den % ad:
                            m = lcm(den, ad)
                            num *= m // den
                            den = m
                        num += an * xj * (den // ad)
            nums.append(num)
            dens.append(den)
        D = lcm(*dens)
        if D > 1:
            nums = [num * (D // den) for num, den in zip(nums, dens)]
        out.append((nums, D * xd))
    return out


def residual_vectors(sys: ParametricSystem, x: Sequence[Q]) -> list[Vector]:
    """v^(k) = A^(k) x - b^(k) for k = 0..K as Fractions; index 0 is the
    constant term.  Each entry is one ``dot`` over the Fraction
    coefficients, not the solver's integer rows, so the certificate checks
    and oracles that read it check those rows."""
    _check_entries(x, sys.n, "point")
    terms = [(sys.A0, sys.b0), *((par.A, par.b) for par in sys.params)]
    return [[dot(row, x) - bi for row, bi in zip(A, b)] for A, b in terms]


# ---------------------------------------------------------------------------
# Parsing and serialization
# ---------------------------------------------------------------------------

# Fraction expands an exponent into an integer of that many digits, so a
# short literal such as "1e999999999" would take minutes and gigabytes.
MAX_LITERAL_LENGTH = 1000
MAX_EXPONENT = 1000
# An absent matrix defaults to zeros, so a short document can declare sizes
# whose zero matrices alone would exhaust memory; m*n*(K+1) coefficients are
# allowed at most.
MAX_COEFFICIENTS = 10 ** 6
_EXPONENT = re.compile(r"[eE]([+-]?\d+)\Z")


def parse_rational(text: str) -> Q:
    """Exact rational from an integer, decimal, or num/den literal.

    Only strings are accepted: a JSON number may already have been rounded
    to a float, so it is rejected rather than converted.
    """
    if not isinstance(text, str):
        raise SystemFormatError(f"number {text!r} must be a string literal")
    text = text.strip()
    if len(text) > MAX_LITERAL_LENGTH:
        raise SystemFormatError(f"number literal of {len(text)} characters is "
                                f"longer than {MAX_LITERAL_LENGTH}")
    # Fraction takes digit-grouping underscores from Python 3.11 on, and
    # _EXPONENT would not see an exponent written "1e1_0000"
    if "_" in text:
        raise SystemFormatError(f"bad number literal {text!r}: underscores "
                                f"are not allowed")
    exponent = _EXPONENT.search(text)
    if exponent and abs(int(exponent.group(1))) > MAX_EXPONENT:
        raise SystemFormatError(f"exponent of {text!r} is beyond "
                                f"+-{MAX_EXPONENT}")
    try:
        return Q(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SystemFormatError(f"bad number literal {text!r}: {exc}") from None


def _parse_matrix(obj, m: int, n: int, where: str) -> Matrix:
    if not isinstance(obj, list) or len(obj) != m:
        raise SystemFormatError(f"{where}: expected {m} rows")
    out = []
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != n:
            raise SystemFormatError(f"{where}, row {i}: expected {n} entries")
        out.append([parse_rational(x) for x in row])
    return out


def _parse_vector(obj, m: int, where: str) -> Vector:
    if not isinstance(obj, list) or len(obj) != m:
        raise SystemFormatError(f"{where}: expected {m} entries")
    return [parse_rational(x) for x in obj]


class ParsedSystem(_Record):
    __slots__ = _fields = ("system", "quant", "explicit_quantifiers")

    def __init__(self, system: ParametricSystem, quant: QuantifierAssignment,
                 explicit_quantifiers: bool):
        self.system = system
        self.quant = quant
        self.explicit_quantifiers = explicit_quantifiers


def parse_system(text: str) -> ParsedSystem:
    """Parse the JSON system document.

    Quantifiers default to existential (the united solution set) when the
    document omits them.
    """
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SystemFormatError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SystemFormatError("top level must be an object")
    for key in ("m", "n"):
        # not isinstance: bool subclasses int, so JSON true would pass as 1
        if type(doc.get(key)) is not int or doc[key] < 1:
            raise SystemFormatError(f"{key!r} must be a positive integer")
    m, n = doc["m"], doc["n"]
    pdocs = doc.get("parameters", [])
    if not isinstance(pdocs, list):
        raise SystemFormatError("'parameters' must be a list")
    size = m * n * (len(pdocs) + 1)
    if size > MAX_COEFFICIENTS:
        raise SystemFormatError(f"m*n*(K+1) = {size} coefficients exceed the "
                                f"cap of {MAX_COEFFICIENTS}")

    const = doc.get("constant", {})
    if not isinstance(const, dict):
        raise SystemFormatError("'constant' must be an object")
    A0 = _parse_matrix(const["A"], m, n, "constant.A") if "A" in const \
        else [[Q(0)] * n for _ in range(m)]
    b0 = _parse_vector(const["b"], m, "constant.b") if "b" in const \
        else zeros(m)

    params: list[Parameter] = []
    forall: set[int] = set()
    explicit = False
    for k, pdoc in enumerate(pdocs):
        where = f"parameters[{k}]"
        if not isinstance(pdoc, dict):
            raise SystemFormatError(f"{where}: expected an object")
        name = pdoc.get("name", f"p{k + 1}")
        if not isinstance(name, str):
            raise SystemFormatError(f"{where}.name: expected a string")
        iv = pdoc.get("interval")
        if not isinstance(iv, list) or len(iv) != 2:
            raise SystemFormatError(f"{where}.interval: expected [lo, hi]")
        interval = Interval(parse_rational(iv[0]), parse_rational(iv[1]))
        A = _parse_matrix(pdoc["A"], m, n, f"{where}.A") if "A" in pdoc \
            else [[Q(0)] * n for _ in range(m)]
        b = _parse_vector(pdoc["b"], m, f"{where}.b") if "b" in pdoc \
            else zeros(m)
        quant = pdoc.get("quantifier", "exists")
        if quant not in ("forall", "exists"):
            raise SystemFormatError(f"{where}.quantifier: must be forall or exists")
        if "quantifier" in pdoc:
            explicit = True
        if quant == "forall":
            forall.add(k)
        params.append(Parameter(name, interval, A, b))

    system = ParametricSystem(m, n, A0, b0, params)
    quant = QuantifierAssignment(frozenset(forall),
                                 frozenset(range(system.K)) - frozenset(forall))
    return ParsedSystem(system, quant, explicit)


def serialize_system(parsed: ParsedSystem) -> str:
    """Inverse of parse_system on the semantic content."""
    sys = parsed.system

    def fmt(x: Q) -> str:
        return str(x)

    doc = {
        "m": sys.m,
        "n": sys.n,
        "constant": {"A": [[fmt(x) for x in row] for row in sys.A0],
                     "b": [fmt(x) for x in sys.b0]},
        "parameters": [],
    }
    for k, par in enumerate(sys.params):
        pdoc = {
            "name": par.name,
            "interval": [fmt(par.interval.lo), fmt(par.interval.hi)],
            "A": [[fmt(x) for x in row] for row in par.A],
            "b": [fmt(x) for x in par.b],
        }
        if parsed.explicit_quantifiers:
            pdoc["quantifier"] = "forall" if k in parsed.quant.forall_set else "exists"
        doc["parameters"].append(pdoc)
    return json.dumps(doc, indent=1)
