"""The public surface: each module's ``__all__`` resolves, and every public
``halfline.<name>`` is exported by some module."""

import importlib
import inspect
import types

import pytest

import halfline as hl

MODULES = ("bc", "config", "errors", "exactalg", "fixtures", "lowenergy", "scattering",
           "solver", "verify")
#: Deleted on purpose: duplicates of the zero-energy path, wrappers of one
#: ``propagate`` call, and test references (now in ``tests/conftest.py``).
REMOVED = ("zero_energy_pair", "cs_solutions", "omega_solution", "zero_energy_decomposition",
           "kernel_bijection", "kernel_characterization", "schur_inverse",
           "free_closed_forms", "scalar_jost_function", "scalar_smatrix")


def _module(name):
    return importlib.import_module(f"halfline.{name}")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = _module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_names_are_exported_by_a_module():
    exported = {n for m in MODULES for n in _module(m).__all__}
    public = {n for n in dir(hl) if not n.startswith("_")
              and not isinstance(getattr(hl, n), types.ModuleType)}
    assert sorted(public - exported) == []


def test_removed_names_are_gone():
    modules = [hl, *map(_module, MODULES)]
    assert [n for n in REMOVED for m in modules
            if n in getattr(m, "__all__", ()) or hasattr(m, n)] == []


def test_zero_energy_entry_points_take_no_test_only_parameters():
    # The Jordan thresholds and the probes are module constants; the Jordan
    # data are always those of the configuration's J(0).
    assert list(inspect.signature(hl.jordan_form).parameters) == ["M"]
    assert list(inspect.signature(hl.zero_energy_pipeline).parameters) == [
        "pot", "bc", "a", "mode", "cfg", "walks", "J0"]
    assert not hasattr(hl.JordanData, "jordan_matrix")
