"""Polyhedral structure of solution sets and kernels for the special classes:
ordinary interval systems (orthant decomposition) and class-C parametric
systems (sign-cone decomposition), plus recession-cone equality reports.

Inside a fixed sign region the absolute values in the membership
characterizations become linear, so each piece of the solution set and of the
kernel is an ordinary polyhedron in exact rationals.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .exact import (Feasible, Matrix, Polyhedron, Q, Vector, _bounds_as_rows,
                    dot, lp_feasible, lp_maximize, recession_cone, vec_add,
                    vec_scale, zeros)
from .model import (CLASS_C, ORDINARY, ParametricSystem, _fold_thin_params,
                    classify)

ORTHANT = "ORTHANT"
SIGNCONE = "SIGNCONE"

_DECOMPOSITION_CAP = 16


class DecompositionTooLarge(ValueError):
    """The 2^n orthants or 2^K sign cones exceed the decomposition cap."""


@dataclass(frozen=True)
class SignVector:
    s: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(x not in (1, -1) for x in self.s):
            raise ValueError("sign entries must be +1 or -1")

    def __str__(self) -> str:
        return "".join("+" if x == 1 else "-" for x in self.s)


@dataclass
class Piece:
    sign: SignVector
    solution_piece: Polyhedron
    kernel_piece: Polyhedron
    nonempty: bool


@dataclass
class PieceDecomposition:
    mode: str  # ORTHANT | SIGNCONE
    pieces: list[Piece]


def _sign_vectors(n: int):
    # lexicographic with +1 before -1
    return (SignVector(s) for s in itertools.product((1, -1), repeat=n))


# ---------------------------------------------------------------------------
# Ordinary interval systems
# ---------------------------------------------------------------------------

def interval_data(sys: ParametricSystem) -> tuple[Matrix, Matrix, Vector, Vector]:
    """Reassemble an ordinary system into (A_c, Delta_A, b_c, Delta_b)."""
    folded = _fold_thin_params(sys)
    m, n = folded.m, folded.n
    Ac = [row[:] for row in folded.A0]
    dA = [[Q(0)] * n for _ in range(m)]
    bc = folded.b0[:]
    db = zeros(m)
    for par in folded.params:
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


def oettli_prager_member(sys: ParametricSystem, x: Sequence[Q]) -> bool:
    """Oettli-Prager test |A_c x - b_c| <= Delta_A |x| + Delta_b (exact)."""
    if ORDINARY not in classify(sys):
        raise ValueError("system is not ordinary")
    if len(x) != sys.n:
        raise ValueError(f"point has length {len(x)}, expected {sys.n}")
    Ac, dA, bc, db = interval_data(sys)
    absx = [abs(v) for v in x]
    for i in range(sys.m):
        lhs = abs(dot(Ac[i], x) - bc[i])
        rhs = dot(dA[i], absx) + db[i]
        if lhs > rhs:
            return False
    return True


def orthant_decomposition(sys: ParametricSystem) -> PieceDecomposition:
    """Per-orthant linearization of an ordinary system and its kernel."""
    if ORDINARY not in classify(sys):
        raise ValueError("system is not ordinary")
    if sys.n > _DECOMPOSITION_CAP:
        raise DecompositionTooLarge(f"dimension {sys.n} exceeds the 2^n cap "
                                    f"of {_DECOMPOSITION_CAP}")
    Ac, dA, bc, db = interval_data(sys)
    m, n = sys.m, sys.n
    b_hi = vec_add(bc, db)
    b_lo = [a - b for a, b in zip(bc, db)]

    pieces = []
    for sv in _sign_vectors(n):
        s = sv.s
        # rows of (A_c - Delta_A diag(s)) and (A_c + Delta_A diag(s))
        lower = [[Ac[i][j] - dA[i][j] * s[j] for j in range(n)] for i in range(m)]
        upper = [[Ac[i][j] + dA[i][j] * s[j] for j in range(n)] for i in range(m)]
        # the orthant s_j x_j >= 0 as bounds
        lo = [Q(0) if sj > 0 else None for sj in s]
        hi = [None if sj > 0 else Q(0) for sj in s]
        sol_C = lower + [[-a for a in r] for r in upper]
        solution = Polyhedron(sol_C, b_hi + [-a for a in b_lo], [], [], n,
                              lo, hi)
        kernel = Polyhedron([r[:] for r in sol_C], zeros(2 * m), [], [], n,
                            lo[:], hi[:])
        nonempty = isinstance(lp_feasible(solution), Feasible)
        pieces.append(Piece(sv, solution, kernel, nonempty))
    return PieceDecomposition(ORTHANT, pieces)


# ---------------------------------------------------------------------------
# Class-C parametric systems
# ---------------------------------------------------------------------------

def _classC_split(sys: ParametricSystem):
    """Split a (folded) class-C system into matrix and rhs parameters."""
    folded = _fold_thin_params(sys)
    mat_params, rhs_params = [], []
    for par in folded.params:
        if all(x == 0 for x in par.b):
            mat_params.append(par)
        else:
            rhs_params.append(par)
    return folded, mat_params, rhs_params


def classC_decomposition(sys: ParametricSystem) -> PieceDecomposition:
    """Sign-cone linearization of a class-C system and its kernel."""
    if CLASS_C not in classify(sys):
        raise ValueError("system is not of class C")
    folded, mat_params, rhs_params = _classC_split(sys)
    K = len(mat_params)
    if K > _DECOMPOSITION_CAP:
        raise DecompositionTooLarge(f"{K} matrix parameters exceed the 2^K "
                                    f"cap of {_DECOMPOSITION_CAP}")
    m, n = folded.m, folded.n

    # A(mid p) including the constant term, and the shifted right-hand sides
    Amid = folded.A_at(folded.midpoint())
    bmid = folded.b_at(folded.midpoint())
    dshift = zeros(m)
    for par in rhs_params:
        dshift = vec_add(dshift, vec_scale(par.interval.rad,
                                           [abs(v) for v in par.b]))

    pieces = []
    for sv in _sign_vectors(max(K, 0)):
        s = sv.s
        region_C = []
        for k, par in enumerate(mat_params):
            for i in range(m):
                if any(par.A[i][j] != 0 for j in range(n)):
                    region_C.append([-s[k] * par.A[i][j] for j in range(n)])

        # A(mid p) -+ sum_k rad(p_k) s_k A^(k)
        lower = [row[:] for row in Amid]
        upper = [row[:] for row in Amid]
        for k, par in enumerate(mat_params):
            c = par.interval.rad * s[k]
            for i in range(m):
                for j in range(n):
                    lower[i][j] -= c * par.A[i][j]
                    upper[i][j] += c * par.A[i][j]

        sol_C = [r[:] for r in lower] + [[-a for a in r] for r in upper] + \
            [r[:] for r in region_C]
        sol_d = vec_add(bmid, dshift) + \
            vec_add([-v for v in bmid], dshift) + zeros(len(region_C))
        solution = Polyhedron(sol_C, sol_d, [], [], n)

        ker_C = [r[:] for r in lower] + [[-a for a in r] for r in upper] + \
            [r[:] for r in region_C]
        kernel = Polyhedron(ker_C, zeros(2 * m + len(region_C)), [], [], n)
        nonempty = isinstance(lp_feasible(solution), Feasible)
        pieces.append(Piece(sv, solution, kernel, nonempty))
    return PieceDecomposition(SIGNCONE, pieces)


def decompose(sys: ParametricSystem) -> PieceDecomposition:
    """Orthant decomposition for ordinary systems, sign-cone for class C."""
    flags = classify(sys)
    if ORDINARY in flags:
        return orthant_decomposition(sys)
    if CLASS_C in flags:
        return classC_decomposition(sys)
    raise ValueError("system is neither ordinary nor of class C")


# ---------------------------------------------------------------------------
# Recession-cone equality (Propositions on the special classes)
# ---------------------------------------------------------------------------

def cone_implies(P: Polyhedron, R: Polyhedron) -> bool:
    """Every y in P satisfies every constraint of R: its rows of C, its rows
    of E with both signs, and its finite bounds written as rows.

    Each constraint c.y <= r is maximized over P; for cones P and R the
    maximum is 0 or unbounded, so the implication holds iff each
    maximization is bounded (and hence 0).
    """
    R = _bounds_as_rows(R)
    rows = zip(R.C + R.E + [[-a for a in row] for row in R.E],
               R.d + R.f + [-v for v in R.f])
    for row, rhs in rows:
        status, value, _ = lp_maximize(P, row)
        if status == "unbounded" or (status == "optimal" and value > rhs):
            return False
    return True


def cones_equal(P: Polyhedron, R: Polyhedron) -> bool:
    """Set equality of two polyhedral cones, each with rows of C and E and
    bounds: identical cones at once, else implication both ways."""
    return P == R or (cone_implies(P, R) and cone_implies(R, P))


@dataclass
class PieceEqualityReport:
    sign: SignVector
    nonempty: bool
    recession_equals_kernel: Optional[bool]  # None when the piece is empty


@dataclass
class EqualityReport:
    mode: str
    sigma_empty: bool
    pieces: list[PieceEqualityReport]

    @property
    def verified(self) -> bool:
        return not self.sigma_empty and \
            all(p.recession_equals_kernel is not False for p in self.pieces)


def special_class_unbounded_equality(sys: ParametricSystem) -> EqualityReport:
    """Check recession_cone(solution piece) == kernel piece on nonempty pieces.

    When every piece is empty, the propositions' hypothesis (nonempty solution
    set) fails and no equality is asserted.
    """
    dec = decompose(sys)
    sigma_empty = not any(p.nonempty for p in dec.pieces)
    reports = []
    for piece in dec.pieces:
        if sigma_empty or not piece.nonempty:
            reports.append(PieceEqualityReport(piece.sign, piece.nonempty, None))
            continue
        rc = recession_cone(piece.solution_piece)
        reports.append(PieceEqualityReport(
            piece.sign, True, cones_equal(rc, piece.kernel_piece)))
    return EqualityReport(dec.mode, sigma_empty, reports)
