"""Polyhedral structure of solution sets and kernels for the special classes:
ordinary interval systems (orthant decomposition) and class-C parametric
systems (sign-cone decomposition), plus recession-cone equality reports.

Inside a fixed sign region the absolute values in the membership
characterizations become linear, so each piece of the solution set and of the
kernel is an ordinary polyhedron in exact rationals.  One linearization,
A_c -+ sum_k s_k G_k on the region of the sign vector s, builds both pieces;
the kernel piece is that linearization with a zero right-hand side.  A_c and
the radii come from ``model.interval_data``.

The piece builders take a system of their class as given: ``_pieces``
classifies once and picks one, and ``orthant_decomposition`` and
``classC_decomposition`` refuse a system of the other class first.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional, Sequence

from .exact import (Feasible, Polyhedron, Q, _Record, lp_feasible,
                    recession_cone, vec_add, zeros)
from .model import (CLASS_C, ORDINARY, ParametricSystem, classify,
                    interval_data)

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
    __slots__ = _fields = ("sign", "solution_piece", "kernel_piece", "nonempty")

    def __init__(self, sign: SignVector, solution_piece: Polyhedron,
                 kernel_piece: Polyhedron, nonempty: bool):
        self.sign = sign
        self.solution_piece = solution_piece
        self.kernel_piece = kernel_piece
        self.nonempty = nonempty


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

# Per sign vector: (s, solution piece, kernel piece)
RawPieces = Iterator[tuple[SignVector, Polyhedron, Polyhedron]]


def _linearization(n: int, data, gens, region) -> RawPieces:
    """One piece per sign vector s of the generators G_k, each given by its
    nonzero entries (i, j, value): the matrices A_c -+ sum_k s_k G_k, and the
    sign region region(s) as rows of C (each <= 0) plus lo/hi bounds.

    The solution piece has right-hand side (b_c + Delta_b; Delta_b - b_c; 0).
    The kernel piece is the same linearization with a zero right-hand side,
    which is the kernel characterization of the homogenized system.  Pieces
    are built as they are asked for, and no LP is run here.
    """
    Ac, _, bc, db = data
    rhs = vec_add(bc, db) + [r - c for c, r in zip(bc, db)]
    for sv in _sign_vectors(len(gens)):
        lower = [row[:] for row in Ac]
        upper = [row[:] for row in Ac]
        for sk, G in zip(sv.s, gens):
            for i, j, g in G:
                lower[i][j] -= sk * g
                upper[i][j] += sk * g
        rows, lo, hi = region(sv.s)
        C = lower + [[-a for a in r] for r in upper] + rows
        solution = Polyhedron(C, rhs + zeros(len(rows)), [], [], n, lo, hi)
        kernel = Polyhedron([r[:] for r in C], zeros(len(C)), [], [], n,
                            lo[:], hi[:])
        yield sv, solution, kernel


def _nonempty(P: Polyhedron) -> bool:
    return isinstance(lp_feasible(P), Feasible)


def _decomposition(mode: str, pieces: RawPieces) -> PieceDecomposition:
    return PieceDecomposition(mode, [Piece(sv, sol, ker, _nonempty(sol))
                                     for sv, sol, ker in pieces])


def _orthant_pieces(sys: ParametricSystem) -> RawPieces:
    """The orthant linearization of an ordinary system: the generators are
    the columns of Delta_A, and the orthant s_j x_j >= 0 is given as
    bounds.  The cap is checked before any piece is built."""
    if sys.n > _DECOMPOSITION_CAP:
        raise DecompositionTooLarge(f"dimension {sys.n} exceeds the 2^n cap "
                                    f"of {_DECOMPOSITION_CAP}")
    data = interval_data(sys)
    gens = [[(i, j, row[j]) for i, row in enumerate(data[1]) if row[j] != 0]
            for j in range(sys.n)]
    return _linearization(sys.n, data, gens, lambda s: (
        [], [Q(0) if sj > 0 else None for sj in s],
        [None if sj > 0 else Q(0) for sj in s]))


def _classC_pieces(sys: ParametricSystem) -> RawPieces:
    """The sign-cone linearization of a class-C system: generators
    rad_k A^(k) of the matrix parameters (b^(k) = 0, so Delta_b is the shift
    of the rhs parameters alone), and the sign cone as rows -s_k A^(k)_i.
    A thin parameter has no radius, and interval_data puts it in A_c and
    b_c.  The cap is checked before any piece is built."""
    mats = [par for par in sys.params
            if not par.interval.is_thin() and all(v == 0 for v in par.b)]
    if len(mats) > _DECOMPOSITION_CAP:
        raise DecompositionTooLarge(f"{len(mats)} matrix parameters exceed "
                                    f"the 2^K cap of {_DECOMPOSITION_CAP}")
    gens = [[(i, j, par.interval.rad * a) for i, row in enumerate(par.A)
             for j, a in enumerate(row) if a != 0] for par in mats]
    cone = [(k, row) for k, par in enumerate(mats) for row in par.A
            if any(a != 0 for a in row)]
    return _linearization(
        sys.n, interval_data(sys), gens,
        lambda s: ([[-s[k] * a for a in row] for k, row in cone],
                   [None] * sys.n, [None] * sys.n))


def _pieces(sys: ParametricSystem) -> tuple[str, RawPieces]:
    """Orthant pieces for ordinary systems, sign-cone pieces for class C."""
    flags = classify(sys)
    if ORDINARY in flags:
        return ORTHANT, _orthant_pieces(sys)
    if CLASS_C in flags:
        return SIGNCONE, _classC_pieces(sys)
    raise ValueError("system is neither ordinary nor of class C")


def orthant_decomposition(sys: ParametricSystem) -> PieceDecomposition:
    """Per-orthant linearization of an ordinary system and its kernel."""
    if ORDINARY not in classify(sys):
        raise ValueError("system is not ordinary")
    return _decomposition(ORTHANT, _orthant_pieces(sys))


def classC_decomposition(sys: ParametricSystem) -> PieceDecomposition:
    """Sign-cone linearization of a class-C system and its kernel."""
    if CLASS_C not in classify(sys):
        raise ValueError("system is not of class C")
    return _decomposition(SIGNCONE, _classC_pieces(sys))


def decompose(sys: ParametricSystem) -> PieceDecomposition:
    """Orthant decomposition for ordinary systems, sign-cone for class C."""
    return _decomposition(*_pieces(sys))


def first_unbounded_piece(sys: ParametricSystem,
                          y: Sequence[Q]) -> tuple[str, Optional[Piece]]:
    """The mode of ``decompose(sys)`` and its first piece, in the same order,
    whose kernel piece contains y and whose solution piece is nonempty, or
    None.  The nonemptiness LP runs only on pieces whose kernel piece
    contains y, and the search stops at the first nonempty one."""
    mode, pieces = _pieces(sys)
    for sv, solution, kernel in pieces:
        if kernel.contains(y) and _nonempty(solution):
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
            recession_cone(piece.solution_piece) == piece.kernel_piece))
    return EqualityReport(dec.mode, sigma_empty, reports)
