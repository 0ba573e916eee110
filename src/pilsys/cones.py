"""Polyhedral structure of solution sets and kernels for the special classes:
ordinary interval systems (orthant decomposition) and class-C parametric
systems (sign-cone decomposition), plus recession-cone equality reports.

Inside a fixed sign region the absolute values in the membership
characterizations become linear, so each piece of the solution set and of the
kernel is an ordinary polyhedron in exact rationals.  One linearization,
A_c -+ sum_k s_k G_k on the region of the sign vector s, builds both pieces;
the kernel piece is that linearization with a zero right-hand side.

The linearization is built in integers from one ``Reading`` of the system:
the box scaled once, lo_k and hi_k over one scale L, so that
2 L mid_k = lo_k + hi_k and 2 L rad_k = hi_k - lo_k, and row i of the
system read once as integers over D_i (its ``int_coefficients`` table).
``decompose`` and ``first_unbounded_piece`` take that reading, and the
system's class, from one united query (``membership._Query``): a decision
hands its own on, so it reads and classifies its system once.  Every row of
a piece is then integers over the one denominator 2 L D_i, and each piece
is an ``IntRowPolyhedron`` that the simplex reads as it is.  A piece keeps
only that form, and a Fraction ``Polyhedron`` is built only where one is
read (``Piece.solution_piece`` and ``Piece.kernel_piece``: ``classify
--decompose``, a check of PROP1/PROP2 evidence, a repr).

``decompose`` decides the nonemptiness of every piece, and the point that a
piece's LP finds settles, with no LP, each later piece that contains it:
nonemptiness is a property of the set, not of the LP's path.  Before a
nonemptiness LP (``_lp_point``, of ``decompose`` and of
``first_unbounded_piece`` alike), each inequality row of the piece is
tested against its box in integers: a row whose least value over the box
exceeds its right-hand side proves the piece empty with no LP.

The piece builders take a system of their class as given: ``_pieces``
picks one by the class its query reads, and ``orthant_decomposition`` and
``classC_decomposition`` refuse a system of the other class first.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional, Sequence

from .exact import (Feasible, IntRhs, IntRowPolyhedron, Polyhedron, Q,
                    Vector, _Record, lp_feasible, recession_cone)
from .membership import Reading, _Query
from .model import (CLASS_C, ORDINARY, ParametricSystem, QuantifierAssignment,
                    classify)

ORTHANT = "ORTHANT"
SIGNCONE = "SIGNCONE"

_DECOMPOSITION_CAP = 16


class DecompositionTooLarge(ValueError):
    """The 2^n orthants or 2^K sign cones exceed the decomposition cap."""


class SignVector(_Record):
    __slots__ = _fields = ("s",)

    def __init__(self, s: tuple[int, ...]):
        if any(x not in (1, -1) for x in s):
            raise ValueError("sign entries must be +1 or -1")
        self.s = s

    def __str__(self) -> str:
        return "".join("+" if x == 1 else "-" for x in self.s)


class Piece(_Record):
    """One sign piece: its sign vector, its solution and kernel pieces, and
    whether the solution piece is nonempty.

    A piece keeps its two polyhedra only in the integer form the simplex
    reads (``solution`` and ``kernel``, ``IntRowPolyhedron``s that share
    their rows), and ``solution_piece`` and ``kernel_piece`` build their
    Fraction ``Polyhedron`` views on each read; repr and equality read the
    views.
    """

    __slots__ = ("sign", "solution", "kernel", "nonempty")
    _fields = ("sign", "solution_piece", "kernel_piece", "nonempty")

    def __init__(self, sign: SignVector, solution: IntRowPolyhedron,
                 kernel: IntRowPolyhedron, nonempty: bool):
        self.sign = sign
        self.solution = solution
        self.kernel = kernel
        self.nonempty = nonempty

    @property
    def solution_piece(self) -> Polyhedron:
        return self.solution.polyhedron()

    @property
    def kernel_piece(self) -> Polyhedron:
        return self.kernel.polyhedron()


class PieceDecomposition(_Record):
    __slots__ = _fields = ("mode", "pieces")

    def __init__(self, mode: str, pieces: list[Piece]):
        self.mode = mode  # ORTHANT | SIGNCONE
        self.pieces = pieces


def _sign_vectors(n: int):
    # lexicographic with +1 before -1
    return (SignVector(s) for s in itertools.product((1, -1), repeat=n))


# ---------------------------------------------------------------------------
# Linearization on sign regions
# ---------------------------------------------------------------------------

# Per sign vector: (s, solution piece, kernel piece), both in integer form
RawPieces = Iterator[tuple[SignVector, IntRowPolyhedron, IntRowPolyhedron]]


def _linearization(sc: Reading, gens, region) -> RawPieces:
    """One piece per sign vector s of the generators G_k, each given by its
    nonzero entries (i, j, value) as integers over row i's denominator: the
    matrices A_c -+ sum_k s_k G_k, and the sign region region(s) as rows of
    C (each <= 0, integers over their own denominators) plus a box.  A_c
    and b_c are the system at the box midpoint (``Reading.system_at`` at
    the reading's ``mids``), and each midpoint or radius combination of row
    i of the reading's table is an integer over 2 L D_i, the row's
    denominator here.

    The solution piece has right-hand side (b_c + Delta_b; Delta_b - b_c; 0).
    The kernel piece is the same linearization with a zero right-hand side,
    which is the kernel characterization of the homogenized system.  Pieces
    are built as they are asked for, and no LP is run here.
    """
    n = sc.n
    dens = [2 * sc.L * D for _, D in sc.table]
    Ac, bc = sc.system_at(sc.mids)
    db = [sc.spread(ints, n) for ints, _ in sc.table]
    rhs = [b + d for b, d in zip(bc, db)] + [d - b for b, d in zip(bc, db)]
    no_rows = IntRhs([], 1)
    for sv in _sign_vectors(len(gens)):
        lower = [row[:] for row in Ac]
        upper = [row[:] for row in Ac]
        for sk, G in zip(sv.s, gens):
            for i, j, g in G:
                lower[i][j] -= sk * g
                upper[i][j] += sk * g
        rows, rdens, box = region(sv.s)
        C = lower + [[-a for a in r] for r in upper] + rows
        cdens = dens + dens + rdens
        yield (sv,
               IntRowPolyhedron([], [], no_rows, box, C, cdens,
                                IntRhs(rhs + [0] * len(rows), 1)),
               IntRowPolyhedron([], [], no_rows, box, C, cdens,
                                IntRhs([0] * len(C), 1)))


def _row_refutes(P: IntRowPolyhedron) -> bool:
    """Does one inequality row of P fail at every point of P's box?  Row i
    reads C[i] x <= crhs.nums[i] / crhs.den, and its least value over the
    box lo / L, hi / L takes lo_j where C[i][j] > 0 and hi_j where it is
    negative, so with those ends finite the row fails everywhere when
    least * crhs.den > nums[i] * L, all in integers."""
    lo, hi, L = P.box
    den = P.crhs.den
    for row, num in zip(P.C, P.crhs.nums):
        least = 0
        for a, l, h in zip(row, lo, hi):
            if a:
                end = l if a > 0 else h
                if end is None:
                    break
                least += a * end
        else:
            if least * den > num * L:
                return True
    return False


def _lp_point(P: IntRowPolyhedron) -> Optional[Vector]:
    """The point the nonemptiness LP finds in P, or None when P is empty.
    A row that fails on the whole box proves P empty with no LP."""
    if _row_refutes(P):
        return None
    res = lp_feasible(P)
    return res.point if isinstance(res, Feasible) else None


def _decomposition(mode: str, pieces: RawPieces) -> PieceDecomposition:
    """Every piece with its nonemptiness: a piece that contains a point an
    earlier piece's LP found is nonempty with no LP of its own."""
    points, out = [], []
    for sv, solution, kernel in pieces:
        nonempty = any(solution.contains(x) for x in points)
        if not nonempty:
            x = _lp_point(solution)
            if x is not None:
                points.append(x)
                nonempty = True
        out.append(Piece(sv, solution, kernel, nonempty))
    return PieceDecomposition(mode, out)


def _orthant_pieces(sc: Reading) -> RawPieces:
    """The orthant linearization of an ordinary system, read from sc: the
    generators are the columns of Delta_A, and the orthant s_j x_j >= 0 is
    given as bounds.  The cap is checked before any piece is built."""
    n = sc.n
    if n > _DECOMPOSITION_CAP:
        raise DecompositionTooLarge(f"dimension {n} exceeds the 2^n cap "
                                    f"of {_DECOMPOSITION_CAP}")
    spreads = [[sc.spread(ints, j) for j in range(n)] for ints, _ in sc.table]
    gens = [[(i, j, row[j]) for i, row in enumerate(spreads) if row[j]]
            for j in range(n)]
    return _linearization(sc, gens, lambda s: (
        [], [], ([0 if sj > 0 else None for sj in s],
                 [None if sj > 0 else 0 for sj in s], 1)))


def _classC_pieces(sc: Reading) -> RawPieces:
    """The sign-cone linearization of a class-C system, read from sc:
    generators rad_k A^(k) of the matrix parameters (b^(k) = 0, so Delta_b
    is the shift of the rhs parameters alone), and the sign cone as rows
    -s_k A^(k)_i.  A thin parameter has no radius, so it adds to A_c and b_c
    only.  The cap is checked before any piece is built."""
    mats = [k for k, par in enumerate(sc.sys.params)
            if not par.interval.is_thin() and all(v == 0 for v in par.b)]
    if len(mats) > _DECOMPOSITION_CAP:
        raise DecompositionTooLarge(f"{len(mats)} matrix parameters exceed "
                                    f"the 2^K cap of {_DECOMPOSITION_CAP}")
    n, w = sc.n, sc.w
    # term k + 1 of row i: parameter k's A^(k)_i, over D_i
    terms = [[(ints[(k + 1) * w:(k + 1) * w + n], D) for ints, D in sc.table]
             for k in mats]
    gens = [[(i, j, sc.rads[k + 1] * a) for i, (row, _) in enumerate(rows)
             for j, a in enumerate(row) if a] for k, rows in zip(mats, terms)]
    cone = [(c, row, D) for c, rows in enumerate(terms) for row, D in rows
            if any(row)]
    free = [None] * n
    return _linearization(sc, gens, lambda s: (
        [[-s[c] * a for a in row] for c, row, _ in cone],
        [D for _, _, D in cone], (free, free, 1)))


def _pieces(query: _Query) -> tuple[str, RawPieces]:
    """Orthant pieces for ordinary systems, sign-cone pieces for class C,
    read from the query's reading, by the class the query reads."""
    if ORDINARY in query.flags:
        return ORTHANT, _orthant_pieces(query.reading)
    if CLASS_C in query.flags:
        return SIGNCONE, _classC_pieces(query.reading)
    raise ValueError("system is neither ordinary nor of class C")


def orthant_decomposition(sys: ParametricSystem) -> PieceDecomposition:
    """Per-orthant linearization of an ordinary system and its kernel."""
    if ORDINARY not in classify(sys):
        raise ValueError("system is not ordinary")
    return _decomposition(ORTHANT, _orthant_pieces(Reading(sys)))


def classC_decomposition(sys: ParametricSystem) -> PieceDecomposition:
    """Sign-cone linearization of a class-C system and its kernel."""
    if CLASS_C not in classify(sys):
        raise ValueError("system is not of class C")
    return _decomposition(SIGNCONE, _classC_pieces(Reading(sys)))


def decompose(sys: ParametricSystem) -> PieceDecomposition:
    """Orthant decomposition for ordinary systems, sign-cone for class C."""
    return _decomposition(*_pieces(
        _Query(Reading(sys), QuantifierAssignment.all_exists(sys.K))))


def first_unbounded_piece(query: _Query, y: Sequence[Q]
                          ) -> tuple[str, Optional[Piece]]:
    """The mode of ``decompose`` of the query's system and its first piece,
    in the same order, whose kernel piece contains y and whose solution
    piece is nonempty, or None.  The kernel test is integer sums, the
    nonemptiness LP runs only on pieces whose kernel piece contains y, and
    the search stops at the first nonempty one.  The query is a united one
    (``decide_unbounded``'s), whose reading and class are read here, so
    that a decision reads and classifies its system once."""
    mode, pieces = _pieces(query)
    for sv, solution, kernel in pieces:
        if kernel.contains(y) and _lp_point(solution) is not None:
            return mode, Piece(sv, solution, kernel, True)
    return mode, None


# ---------------------------------------------------------------------------
# Recession-cone equality (Propositions on the special classes)
# ---------------------------------------------------------------------------

class PieceEqualityReport(_Record):
    __slots__ = _fields = ("sign", "nonempty", "recession_equals_kernel")

    def __init__(self, sign: SignVector, nonempty: bool,
                 recession_equals_kernel: Optional[bool]):
        self.sign = sign
        self.nonempty = nonempty
        # None when the piece is empty
        self.recession_equals_kernel = recession_equals_kernel


class EqualityReport(_Record):
    __slots__ = _fields = ("mode", "sigma_empty", "pieces")

    def __init__(self, mode: str, sigma_empty: bool,
                 pieces: list[PieceEqualityReport]):
        self.mode = mode
        self.sigma_empty = sigma_empty
        self.pieces = pieces

    @property
    def verified(self) -> bool:
        return not self.sigma_empty and \
            all(p.recession_equals_kernel is not False for p in self.pieces)


def special_class_unbounded_equality(sys: ParametricSystem) -> EqualityReport:
    """Check recession_cone(solution piece) == kernel piece on nonempty pieces.

    The comparison is by structure: equal polyhedra are equal sets, so a
    mismatch could only be a false alarm.  When every piece is empty, the
    propositions' hypothesis (nonempty solution set) fails and no equality is
    asserted.
    """
    dec = decompose(sys)
    sigma_empty = not any(p.nonempty for p in dec.pieces)
    reports = []
    for piece in dec.pieces:
        if sigma_empty or not piece.nonempty:
            reports.append(PieceEqualityReport(piece.sign, piece.nonempty, None))
            continue
        reports.append(PieceEqualityReport(
            piece.sign, True,
            recession_cone(piece.solution) == piece.kernel))
    return EqualityReport(dec.mode, sigma_empty, reports)
