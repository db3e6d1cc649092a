"""The public surface: each module's ``__all__`` resolves, and every public
``halfline.<name>`` is exported by some module."""

import dataclasses
import importlib
import inspect
import json
import types

import pytest

import halfline as hl
import halfline.cli as cli
from halfline.config import JobConfig, parse_config
from halfline.errors import ValidationError

MODULES = ("bc", "config", "errors", "exactalg", "fixtures", "lowenergy", "scattering",
           "solver", "verify")
#: Deleted on purpose: duplicates of the zero-energy path, wrappers of one
#: ``propagate`` call, test references (now in ``tests/conftest.py``), and
#: the solver settings of the Runge-Kutta backend, now the tests' reference.
REMOVED = ("zero_energy_pair", "cs_solutions", "omega_solution", "zero_energy_decomposition",
           "kernel_bijection", "kernel_characterization", "schur_inverse",
           "free_closed_forms", "scalar_jost_function", "scalar_smatrix",
           "SolverConfig", "DEFAULT_CONFIG")
#: The one line a config with a "tolerances" block gets.
TOLERANCES = "config: unknown keys ['tolerances']"


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
        "pot", "bc", "a", "mode", "walks", "J0"]
    assert not hasattr(hl.JordanData, "jordan_matrix")


def _public_callables():
    for module in [hl, *map(_module, MODULES)]:
        names = getattr(module, "__all__", None) or [n for n in dir(module)
                                                     if not n.startswith("_")]
        for name in names:
            obj = getattr(module, name)
            if callable(obj) and not isinstance(obj, types.ModuleType):
                yield f"{module.__name__}.{name}", obj


def test_no_public_callable_takes_a_solver_config():
    # One propagator and no settings: the matching point is ``a`` alone.
    takers = []
    for name, obj in _public_callables():
        try:
            params = inspect.signature(obj).parameters
        except (TypeError, ValueError):  # the exception classes have none
            continue
        if "cfg" in params:
            takers.append(name)
    assert takers == []


def test_bc_pair_holds_only_its_matrices():
    # No formulation label and no cached E: the pair is decided by (A, B).
    assert [f.name for f in dataclasses.fields(hl.BCPair)] == ["n", "A", "B"]


def test_job_config_holds_the_matching_point_and_no_solver():
    assert [f.name for f in dataclasses.fields(JobConfig)] == [
        "bc", "potential", "kgrid", "outputs", "a"]
    base = {"bc": {"angles": [0.3]}}
    assert parse_config(json.dumps(base)).a is None
    assert parse_config(json.dumps(dict(base, a_choice="auto"))).a is None
    assert parse_config(json.dumps(dict(base, a_choice=0.5))).a == 0.5


def test_tolerances_are_an_unknown_key():
    text = json.dumps({"bc": {"angles": [0.3]}, "tolerances": {"method": "rk45"}})
    with pytest.raises(ValidationError) as caught:
        parse_config(text)
    assert str(caught.value) == TOLERANCES


@pytest.mark.parametrize("command", ["sweep", "s0", "verify"])
def test_commands_refuse_tolerances_in_one_line(tmp_path, capsys, command):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"bc": {"angles": [0.3]}, "kgrid": [0.5, 1.0, 2],
                                "tolerances": {"method": "rk45"}}))
    assert cli.main([command, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"validation error: {TOLERANCES}\n"
