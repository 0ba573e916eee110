"""The package's lazy exports (PEP 562): ``pilsys.<name>`` imports the
defining module on first use and reads its binding every time."""

import ast
import importlib
from pathlib import Path

import pytest

import pilsys

# Every name ``pilsys`` exports, by its defining module.
EXPORTS = {
    "exact": "AffineSolutionSet FarkasCertificate Feasible Infeasible "
             "NoSolution Polyhedron Q UniqueSolution "
             "check_infeasibility_certificate fm_eliminate lin_solve "
             "lp_feasible lp_maximize recession_cone",
    "model": "Interval Parameter ParametricSystem ParsedSystem "
             "QuantifierAssignment RhsParameter SystemClass SystemFormatError "
             "TolerableSystem classify parse_system residual_vectors "
             "serialize_system",
    "membership": "Certificate CertKind member_ae member_ae_kernel "
                  "member_kernel member_tolerable member_united "
                  "strict_kernel_member strict_kernel_member_ae "
                  "validate_certificate witness_resubstitutes",
    "cones": "decompose special_class_unbounded_equality",
    "unbounded": "ProbeReport Rule Status UnboundedVerdict decide_unbounded "
                 "find_base_points probe_ray",
    "oracle": "ae_vertex_oracle fm_member_oracle member_first_class "
              "oettli_prager_member raster_csv rasterize sample_solution_cloud",
}
PAIRS = sorted((module, name) for module, names in EXPORTS.items()
               for name in names.split())


@pytest.mark.parametrize("module,name", PAIRS)
def test_export_resolves_to_defining_module(module, name):
    assert getattr(pilsys, name) is \
        getattr(importlib.import_module(f"pilsys.{module}"), name)
    assert name in dir(pilsys)
    assert name in pilsys.__all__


def test_from_import_and_star_import():
    from pilsys import lp_feasible
    from pilsys.exact import lp_feasible as defined
    assert lp_feasible is defined
    ns = {}
    exec("from pilsys import *", ns)
    assert ns["decide_unbounded"] is pilsys.unbounded.decide_unbounded
    assert ns["__version__"] == pilsys.__version__


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        pilsys.no_such_name
    assert not hasattr(pilsys, "no_such_name")
    assert "no_such_name" not in dir(pilsys)


def test_a_rebound_name_is_read_through():
    from pilsys import exact
    orig = exact.lp_feasible
    exact.lp_feasible = marker = object()
    try:
        assert pilsys.lp_feasible is marker
    finally:
        exact.lp_feasible = orig
    assert pilsys.lp_feasible is orig


def test_type_checking_imports_name_the_same_exports():
    """The import statements under TYPE_CHECKING, which readers, type
    checkers and the hygiene check read, list what ``_EXPORTS`` maps."""
    tree = ast.parse(Path(pilsys.__file__).read_text(encoding="utf-8"))
    stated = sorted((node.module, alias.name) for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level == 1
                    for alias in node.names)
    assert stated == PAIRS
    assert sorted((module, name) for name, module in
                  pilsys._EXPORTS.items()) == PAIRS
