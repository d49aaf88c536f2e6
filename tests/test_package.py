"""The package's exports, resolved on first use, and the README's library example."""

import contextlib
import importlib
import io as stdio
import re
from pathlib import Path

import pytest

import mctwist

# module -> the names `mctwist/__init__.py` imported from it, when it
# imported every module at load time
EXPORTS = {
    "exactlinalg": ["ChainComplexSpec", "CohomologyReport", "ExactMatrix", "Ring", "cohomology",
                    "smith_normal_form", "solve_linear"],
    "dgcore": ["DgAlgebra", "DgModule", "Element", "GradedModule", "HomComplex", "check_dga",
               "cone", "endomorphism_dga", "free_hull", "ground_dga", "tensor_dga"],
    "mc": ["ConvOp", "HomotopyGaugeCertificate", "MCElement", "TwistedModule", "gauge_act",
           "hom_twist", "is_gauge_pair", "is_mc", "mc_category_h0", "search_homotopy_gauge",
           "twist_algebra", "twist_module", "verify_homotopy_gauge"],
    "simplicial": ["FiniteSimplicialSet", "LocalSystem", "cochain_algebra", "ez_algebra_map",
                   "from_ordered_complex", "local_system_cohomology", "mc_to_rep", "nerve",
                   "product", "rep_to_mc", "two_sided_twisted"],
    "interval": ["build_interval_algebra", "certificate_from_k2_homotopy", "functor_to_homotopy",
                 "homotopy_to_functor", "k2_homotopy_from_certificate", "k_infty_category"],
    "perturbation": ["ReducedTwistedModule", "hodge_data", "is_minimal", "is_reduced",
                     "lift_to_free_resolution", "minimal_iso_check", "minimal_model",
                     "truncate_twisted"],
}


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_every_export_is_its_module_object_and_listed(module):
    home = importlib.import_module("mctwist." + module)
    for name in EXPORTS[module]:
        assert getattr(mctwist, name) is getattr(home, name), name
        assert name in dir(mctwist) and name in mctwist.__all__, name
    assert mctwist.__version__ == "0.1.0"


def test_the_exports_are_exactly_the_old_import_list():
    assert sorted(mctwist.__all__) == sorted(n for names in EXPORTS.values() for n in names)


def test_an_export_is_read_from_its_module_on_each_use(monkeypatch):
    from mctwist import simplicial
    monkeypatch.setattr(simplicial, "cochain_algebra", len)
    assert mctwist.cochain_algebra is len
    monkeypatch.undo()
    assert mctwist.cochain_algebra is simplicial.cochain_algebra
    assert "cochain_algebra" not in vars(mctwist)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'mctwist' has no attribute 'nonesuch'"):
        mctwist.nonesuch
    assert not hasattr(mctwist, "solve_many")  # exactlinalg has it, the package does not export it
    with pytest.raises(ImportError):
        from mctwist import nonesuch  # noqa: F401


def test_the_readme_quickstart_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"## Quickstart \(library\)\n\n```python\n(.*?)```", readme, re.S)
    assert block and "from mctwist import (" in block.group(1)
    out = stdio.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block.group(1), "README.md", "exec"), {})
    assert out.getvalue().splitlines()[2] == "distinguished"
