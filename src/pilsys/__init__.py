"""Exact-arithmetic analyzer for linear interval parametric systems
A(p) x = b(p), p in a box: membership in united/AE/tolerable solution sets,
kernels, and certified decisions about unbounded directions.

The names below are exported lazily (PEP 562): ``pilsys.lp_feasible``
imports ``pilsys.exact`` on first use, so ``import pilsys`` loads no module
of the package and a command line pays only for the modules it runs.  The
imports under ``TYPE_CHECKING`` are the export list for readers and type
checkers; ``_EXPORTS`` is the same list for the interpreter.
"""

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .exact import (AffineSolutionSet, FarkasCertificate, Feasible,
                        Infeasible, NoSolution, Polyhedron, Q, UniqueSolution,
                        check_infeasibility_certificate, fm_eliminate,
                        lin_solve, lp_feasible, lp_maximize, recession_cone)
    from .model import (Interval, Parameter, ParametricSystem, ParsedSystem,
                        QuantifierAssignment, RhsParameter, SystemClass,
                        SystemFormatError, TolerableSystem, classify,
                        parse_system, residual_vectors, serialize_system)
    from .membership import (Certificate, CertKind, member_ae,
                             member_ae_kernel, member_kernel,
                             member_tolerable, member_united,
                             strict_kernel_member, strict_kernel_member_ae,
                             validate_certificate, witness_resubstitutes)
    from .cones import decompose, special_class_unbounded_equality
    from .unbounded import (ProbeReport, Rule, Status, UnboundedVerdict,
                            decide_unbounded, find_base_points, probe_ray)
    from .oracle import (ae_vertex_oracle, fm_member_oracle,
                         member_first_class, oettli_prager_member,
                         raster_csv, rasterize, sample_solution_cloud)

__version__ = "0.1.0"

_EXPORTS = {name: module for module, names in (
    ("exact", "AffineSolutionSet FarkasCertificate Feasible Infeasible "
              "NoSolution Polyhedron Q UniqueSolution "
              "check_infeasibility_certificate fm_eliminate lin_solve "
              "lp_feasible lp_maximize recession_cone"),
    ("model", "Interval Parameter ParametricSystem ParsedSystem "
              "QuantifierAssignment RhsParameter SystemClass "
              "SystemFormatError TolerableSystem classify parse_system "
              "residual_vectors serialize_system"),
    ("membership", "Certificate CertKind member_ae member_ae_kernel "
                   "member_kernel member_tolerable member_united "
                   "strict_kernel_member strict_kernel_member_ae "
                   "validate_certificate witness_resubstitutes"),
    ("cones", "decompose special_class_unbounded_equality"),
    ("unbounded", "ProbeReport Rule Status UnboundedVerdict decide_unbounded "
                  "find_base_points probe_ray"),
    ("oracle", "ae_vertex_oracle fm_member_oracle member_first_class "
               "oettli_prager_member raster_csv rasterize "
               "sample_solution_cloud"),
) for name in names.split()}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    # Not cached in the package: a name always reads the defining module's
    # binding, so a wrapper installed there (a tracer, a test's monkeypatch)
    # is seen here too, and gone again once it is removed.
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
