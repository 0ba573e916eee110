"""Independent verification paths, for ``pilsys verify`` and the tests.

The membership oracles here deliberately avoid the simplex solver: the FM
oracles decide feasibility by Fourier-Motzkin elimination only, and the
Oettli-Prager and first-class checks evaluate their inequality
characterizations directly, so agreement with the LP-based membership
tests is a meaningful cross-check.  No decision module imports this one.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator, Optional, Sequence

from .exact import (Matrix, Polyhedron, Q, UniqueSolution, Vector, dot,
                    fm_feasible, lin_solve, scaled)
from .membership import Reading, _mid_residual, _Query
from .membership import member_united  # noqa: F401 -- bench/test_bench.py reads it
from .model import (FIRST_CLASS, ORDINARY, ParametricSystem,
                    QuantifierAssignment, SystemClass, classify,
                    interval_data, residual_vectors)

_FM_CAP = 12
_CLOUD_CAP = 3 ** 8  # grid points solution_cloud tries: all of K = 8 at 3


def _p_polyhedron(sys: ParametricSystem, residuals: list[Vector],
                  indices: Sequence[int], rhs: Vector) -> Polyhedron:
    """The parameters ``indices`` in their box with the m equations; FM
    writes the box out as rows."""
    E = [[residuals[k + 1][i] for k in indices] for i in range(sys.m)]
    return Polyhedron([], [], E, rhs[:], len(indices),
                      [sys.params[k].interval.lo for k in indices],
                      [sys.params[k].interval.hi for k in indices])


def check_fm_cap(sys: ParametricSystem) -> None:
    """Raise ValueError when ``fm_member_oracle`` refuses sys.  Every
    quantifier block of ``ae_vertex_oracle`` is at most K wide, so a system
    within this cap passes that oracle's cap too."""
    if sys.K > _FM_CAP:
        raise ValueError(f"K = {sys.K} exceeds the FM oracle cap of {_FM_CAP}")


def fm_member_oracle(sys: ParametricSystem, x: Sequence[Q]) -> bool:
    """United membership decided purely by Fourier-Motzkin elimination."""
    check_fm_cap(sys)
    residuals = residual_vectors(sys, x)
    rhs = [-residuals[0][i] for i in range(sys.m)]
    P = _p_polyhedron(sys, residuals, list(range(sys.K)), rhs)
    return fm_feasible(P)


def ae_vertex_oracle(sys: ParametricSystem, quant: QuantifierAssignment,
                     x: Sequence[Q]) -> bool:
    """AE membership by universal vertex enumeration over an FM inner oracle."""
    quant.validate_for(sys.K)
    forall = sorted(quant.forall_set)
    exists = sorted(quant.exists_set)
    if len(forall) > _FM_CAP or len(exists) > _FM_CAP:
        raise ValueError("quantifier block exceeds the FM oracle cap")
    residuals = residual_vectors(sys, x)
    for vertex in sys.vertices(forall):
        rhs = [-residuals[0][i] for i in range(sys.m)]
        for k, pk in zip(forall, vertex):
            rhs = [r - pk * residuals[k + 1][i] for i, r in enumerate(rhs)]
        P = _p_polyhedron(sys, residuals, exists, rhs)
        if not fm_feasible(P):
            return False
    return True


def oettli_prager_member(sys: ParametricSystem, x: Sequence[Q]) -> bool:
    """Oettli-Prager test |A_c x - b_c| <= Delta_A |x| + Delta_b (exact)."""
    if ORDINARY not in classify(sys):
        raise ValueError("system is not ordinary")
    return _oettli_prager(sys, interval_data(sys), x)


def _oettli_prager(sys: ParametricSystem,
                   data: tuple[Matrix, Matrix, Vector, Vector],
                   x: Sequence[Q]) -> bool:
    if len(x) != sys.n:
        raise ValueError(f"point has length {len(x)}, expected {sys.n}")
    Ac, dA, bc, db = data
    absx = [abs(v) for v in x]
    for i in range(sys.m):
        lhs = abs(dot(Ac[i], x) - bc[i])
        rhs = dot(dA[i], absx) + db[i]
        if lhs > rhs:
            return False
    return True


def member_first_class(sys: ParametricSystem, x: Sequence[Q]) -> bool:
    """First-class characterization: |A(mid)x - b(mid)| <= sum rad |A^(k)x - b^(k)|."""
    if FIRST_CLASS not in classify(sys):
        raise ValueError("system is not of the first class")
    return _first_class(sys, x)


def _first_class(sys: ParametricSystem, x: Sequence[Q]) -> bool:
    residuals = residual_vectors(sys, x)
    mid = _mid_residual(sys, residuals)
    for i in range(sys.m):
        rhs_i = sum((par.interval.rad * abs(residuals[k + 1][i])
                     for k, par in enumerate(sys.params)), Q(0))
        if abs(mid[i]) > rhs_i:
            return False
    return True


def characterization_checks(sys: ParametricSystem, flags: SystemClass
                            ) -> list[tuple[str, Callable[[Vector], bool]]]:
    """The characterization checks that apply to a system of class
    ``flags`` (``classify``), as (name, test of a point): Oettli-Prager for
    an ordinary system and the first-class test for a first-class one.  The
    class is read once from ``flags`` and the interval data built once, so
    a caller that tests many points pays for neither per point."""
    checks: list[tuple[str, Callable[[Vector], bool]]] = []
    if ORDINARY in flags:
        data = interval_data(sys)
        checks.append(("oettli-prager", lambda x: _oettli_prager(sys, data, x)))
    if FIRST_CLASS in flags:
        checks.append(("first-class", lambda x: _first_class(sys, x)))
    return checks


def solution_cloud(sys: ParametricSystem,
                   grid_per_param: int = 5) -> Iterator[Vector]:
    """Unique solutions of A(p) x = b(p) on a uniform rational grid over the box.

    Parameter values where the system is singular or inconsistent are skipped,
    and a system with no equation in n >= 1 unknowns gives no point.
    Deterministic, and lazy: a caller that takes the first few points solves
    only the grid points up to them, and never more than _CLOUD_CAP.  The
    system is read once (``Reading``), and each grid point p, scaled to
    integers over one denominator, is solved from the integer rows of
    [A(p) | b(p)] over that reading's table.
    """
    if grid_per_param < 2:
        raise ValueError("grid_per_param must be at least 2")
    if not sys.m and sys.n:
        # every x solves a system with no equation, so none is unique
        return
    reading = Reading(sys)
    seen = set()
    axes = [[iv.lo] if iv.is_thin() else _coords(iv.lo, iv.hi, grid_per_param)
            for iv in sys.box]
    for p in itertools.islice(itertools.product(*axes), _CLOUD_CAP):
        pn, pd = scaled(p)
        res = lin_solve(*reading.system_at([pd, *pn]))
        if isinstance(res, UniqueSolution):
            key = tuple(res.point)
            if key not in seen:
                seen.add(key)
                yield res.point


def sample_solution_cloud(sys: ParametricSystem,
                          grid_per_param: int = 5) -> list[Vector]:
    """The whole ``solution_cloud`` as a list."""
    return list(solution_cloud(sys, grid_per_param))


def _coords(lo: Q, hi: Q, steps: int) -> list[Q]:
    """steps equally spaced rationals from lo to hi inclusive."""
    return [lo + Q(i, steps - 1) * (hi - lo) for i in range(steps)]


UNITED = "UNITED"
AE = "AE"
KERNEL = "KERNEL"


def rasterize(sys: ParametricSystem, quant: Optional[QuantifierAssignment],
              window: tuple[Q, Q, Q, Q], resolution: int,
              which: str = UNITED) -> list[list[bool]]:
    """Exact membership on a rational grid over a 2-D window (row-major).
    The kernel is that of the AE set under ``quant`` (the united kernel when
    it is None), as ``pilsys kernel`` asks it.

    Only bools come out, so every cell is asked as a bool of one query
    (``_Query.holds``) on one reading of the system: a row alone, or the
    separator of an earlier cell's LP, settles a cell it refutes with no
    LP, and a cell whose rows are decoupled (``_Query.decoupled``: no
    existential parameter that is not thin meets two of them) takes no LP
    at all.  The verdicts are those of one cold query per cell."""
    if sys.n != 2:
        raise ValueError("rasterization requires n = 2")
    if not 2 <= resolution <= 512:
        raise ValueError("resolution must be between 2 and 512")
    x_lo, x_hi, y_lo, y_hi = (Q(v) for v in window)
    if not (x_lo < x_hi and y_lo < y_hi):
        raise ValueError("window must have x_lo < x_hi and y_lo < y_hi")

    if which not in (UNITED, AE, KERNEL):
        raise ValueError(f"unknown set {which!r}")
    if which == AE and quant is None:
        raise ValueError("AE raster needs a quantifier assignment")
    if which == UNITED or quant is None:
        quant = QuantifierAssignment.all_exists(sys.K)
    query = _Query(Reading(sys), quant)
    # a kernel cell's rows are those of the homogenized system
    rhs_sign = 0 if which == KERNEL else -1
    xs = _coords(x_lo, x_hi, resolution)
    ys = _coords(y_lo, y_hi, resolution)
    return [[query.holds(query.reading.rows_at([x1, x2], rhs_sign))
             for x2 in ys] for x1 in xs]


def raster_csv(sys: ParametricSystem, quant: Optional[QuantifierAssignment],
               window: tuple[Q, Q, Q, Q], resolution: int,
               which: str = UNITED) -> str:
    """CSV serialization: header x1,x2,member; rationals as num/den; 0/1 flags."""
    grid = rasterize(sys, quant, window, resolution, which)
    x_lo, x_hi, y_lo, y_hi = (Q(v) for v in window)

    def fmt(v: Q) -> str:
        return f"{v.numerator}/{v.denominator}"

    lines = ["x1,x2,member"]
    xs = _coords(x_lo, x_hi, resolution)
    ys = _coords(y_lo, y_hi, resolution)
    for i, x1 in enumerate(xs):
        for j, x2 in enumerate(ys):
            lines.append(f"{fmt(x1)},{fmt(x2)},{1 if grid[i][j] else 0}")
    return "\n".join(lines) + "\n"
