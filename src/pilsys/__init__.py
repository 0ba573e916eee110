"""Exact-arithmetic analyzer for linear interval parametric systems
A(p) x = b(p), p in a box: membership in united/AE/tolerable solution sets,
kernels, and certified decisions about unbounded directions.
"""

from .exact import (AffineSolutionSet, FarkasCertificate, Feasible, Infeasible,
                    NoSolution, Polyhedron, Q, UniqueSolution,
                    check_infeasibility_certificate, fm_eliminate, lin_solve,
                    lp_feasible, lp_maximize, recession_cone)
from .model import (Interval, Parameter, ParametricSystem, ParsedSystem,
                    QuantifierAssignment, RhsParameter, SystemClass,
                    SystemFormatError, TolerableSystem, classify, parse_system,
                    residual_vectors, serialize_system)
from .membership import (Certificate, CertKind, member_ae, member_ae_kernel,
                         member_first_class, member_kernel, member_tolerable,
                         member_united, strict_kernel_member,
                         strict_kernel_member_ae, validate_certificate,
                         witness_resubstitutes)
from .cones import (classC_decomposition, oettli_prager_member,
                    orthant_decomposition, special_class_unbounded_equality)
from .unbounded import (ProbeReport, Rule, Status, UnboundedVerdict,
                        decide_unbounded, find_base_points, probe_ray)
from .oracle import (ae_vertex_oracle, fm_member_oracle, raster_csv, rasterize,
                     sample_solution_cloud)

__version__ = "0.1.0"
