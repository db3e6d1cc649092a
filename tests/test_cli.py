"""Configuration parsing and command line behavior."""

import json
import os

import numpy as np
import pytest

import halfline.cli as cli
from halfline.config import parse_config
from halfline.errors import NumericalError, ValidationError


ANGLES_CFG = {
    "bc": {"angles": [np.pi, np.pi / 2]},
    "kgrid": [0.5, 1.5, 3],
}

WELL_CFG = {
    "bc": {"n": 1, "A": [[[0.0, 0.0]]], "B": [[[-1.0, 0.0]]]},
    "potential": {
        "n": 1,
        "pieces": [{"x_lo": 0.0, "x_hi": 1.0, "V": [[[-1.0, 0.0]]]}],
    },
    "kgrid": [0.3, 2.1, 4],
}


def write_cfg(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


# ---------------------------------------------------------------------------
# parse_config
# ---------------------------------------------------------------------------

def test_parse_minimal_angles_config():
    cfg = parse_config(json.dumps(ANGLES_CFG).encode())
    assert cfg.bc.n == 2
    assert cfg.potential.x_max == 0.0
    assert cfg.kvalues() == [0.5, 1.0, 1.5]


def test_parse_rejects_unknown_keys():
    bad = dict(ANGLES_CFG, typo=1)
    with pytest.raises(ValidationError, match="unknown keys.*typo"):
        parse_config(json.dumps(bad))


def test_parse_rejects_non_hermitian_piece():
    bad = json.loads(json.dumps(WELL_CFG))
    bad["potential"]["pieces"][0]["V"] = [[[0.0, 1.0]]]  # purely imaginary scalar
    with pytest.raises(ValidationError, match="selfadjoint"):
        parse_config(json.dumps(bad))


def test_parse_rejects_zero_kmin():
    bad = dict(ANGLES_CFG, kgrid=[0.0, 1.0, 5])
    with pytest.raises(ValidationError, match="k_min must be > 0"):
        parse_config(json.dumps(bad))


def test_parse_rejects_bad_outputs_and_tolerances():
    with pytest.raises(ValidationError, match="outputs"):
        parse_config(json.dumps(dict(ANGLES_CFG, outputs=[{"vcs": "x"}])))
    with pytest.raises(ValidationError, match="tolerances"):
        parse_config(json.dumps(dict(ANGLES_CFG, tolerances={"nope": 1})))


def test_parse_rejects_size_mismatch():
    bad = dict(WELL_CFG)
    bad["bc"] = {"angles": [np.pi, np.pi]}
    with pytest.raises(ValidationError, match="does not match"):
        parse_config(json.dumps(bad))


def test_parse_rejects_malformed_json():
    with pytest.raises(ValidationError, match="not valid JSON"):
        parse_config(b"{nope")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def test_bc_validate_command(tmp_path, capsys):
    path = write_cfg(tmp_path, ANGLES_CFG)
    assert cli.main(["bc", "validate", "--config", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True


def test_bc_convert_round_trips(tmp_path, capsys):
    path = write_cfg(tmp_path, {"bc": WELL_CFG["bc"]})
    for target in ("normalized", "kostrykin", "unitary-harmer",
                   "unitary-cosine-sine", "general-ab"):
        assert cli.main(["bc", "convert", "--config", path, "--to", target]) == 0
        payload = json.loads(capsys.readouterr().out)
        if target == "kostrykin":
            # feeding the converted form back re-validates it as a condition
            from halfline.bc import bc_from_json
            import halfline as hl
            back = bc_from_json(payload)
            assert hl.bc_subspace_equal(back, hl.dirichlet(1))


def test_sweep_csv_shape_and_values(tmp_path, capsys):
    path = write_cfg(tmp_path, ANGLES_CFG)
    assert cli.main(["sweep", "--config", path]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split(",")[0] == "k"
    assert len(lines) == 1 + 3  # header + 3 grid points
    # Dirichlet/Neumann channels: S = diag(-1, 1) at every k
    row = lines[1].split(",")
    assert float(row[1]) == -1.0  # ReS_00
    assert float(row[7]) == 1.0   # ReS_11


def test_sweep_single_point_matches_fixture_formula(tmp_path, capsys):
    from halfline.fixtures import get_fixture

    fx = get_fixture("7.1")  # parameter 2; S entries (i+2k)/(3i+2k), -2i/(3i+2k)
    cfg = {
        "bc": {"n": 3,
               "A": [[[z.real, z.imag] for z in row] for row in fx.A],
               "B": [[[z.real, z.imag] for z in row] for row in fx.B]},
        "kgrid": [1.0, 1.0, 1],
    }
    path = write_cfg(tmp_path, cfg)
    assert cli.main(["sweep", "--config", path]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    vals = [float(v) for v in lines[1].split(",")]
    diag = (1j + 2.0) / (3j + 2.0)
    off = -2j / (3j + 2.0)
    assert abs(complex(vals[1], vals[2]) - diag) < 1e-10   # S_00
    assert abs(complex(vals[3], vals[4]) - off) < 1e-10    # S_01


def test_sweep_is_byte_deterministic(tmp_path):
    path = write_cfg(tmp_path, WELL_CFG)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert cli.main(["sweep", "--config", path, "--out", str(out1)]) == 0
    assert cli.main(["sweep", "--config", path, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_thread_cap_respected(tmp_path, monkeypatch):
    monkeypatch.setenv("HALFLINE_NUM_THREADS", "1")
    path = write_cfg(tmp_path, WELL_CFG)
    out1 = tmp_path / "c.csv"
    assert cli.main(["sweep", "--config", path, "--out", str(out1)]) == 0
    monkeypatch.setenv("HALFLINE_NUM_THREADS", "3")
    out2 = tmp_path / "d.csv"
    assert cli.main(["sweep", "--config", path, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_builds_only_the_emitted_format(tmp_path, monkeypatch, capsys):
    def unused(*args):
        raise AssertionError("CSV text built but not emitted")

    monkeypatch.setattr(cli, "_sweep_csv", unused)
    path = write_cfg(tmp_path, WELL_CFG)
    assert cli.main(["sweep", "--config", path, "--format", "json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["rows"]) == 4


def test_sweep_writes_config_sinks(tmp_path):
    sink_csv = tmp_path / "sink.csv"
    sink_json = tmp_path / "sink.json"
    cfg = dict(WELL_CFG, outputs=[{"csv": str(sink_csv)}, {"json": str(sink_json)}])
    path = write_cfg(tmp_path, cfg)
    assert cli.main(["sweep", "--config", path, "--out", str(tmp_path / "x.csv")]) == 0
    assert sink_csv.exists()
    rows = json.loads(sink_json.read_text())["rows"]
    assert len(rows) == 4 and rows[0]["unitarity_residual"] < 1e-7


def test_s0_report_schema(tmp_path, capsys):
    path = write_cfg(tmp_path, ANGLES_CFG)
    assert cli.main(["s0", "--config", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mu"] == 1 and report["nu"] == 1  # one Neumann channel
    assert len(report["eigenvalues"]) == 2
    assert report["involution_residual"] < 1e-9
    probes = report["continuity_probes"]
    assert [p["k"] for p in probes] == [1e-1, 1e-2, 1e-3]
    assert probes[-1]["dist"] < 1e-2
    S0 = np.array([[complex(re, im) for re, im in row] for row in report["S0"]])
    assert np.allclose(S0, np.diag([-1.0, 1.0]), atol=1e-12)


def test_s0_exact_mode(tmp_path, capsys):
    path = write_cfg(tmp_path, {"bc": ANGLES_CFG["bc"]})
    assert cli.main(["s0", "--config", path, "--mode", "exact"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mu"] == 1


def test_verify_command_passes_for_well(tmp_path, capsys):
    path = write_cfg(tmp_path, WELL_CFG)
    assert cli.main(["verify", "--config", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    names = {c["name"] for c in report["checks"]}
    assert {"wronskian_constancy", "tail_moment_zeroth", "smatrix_unitarity",
            "s0_involution", "s0_continuity"} <= names


def test_verify_readme_configuration_is_clean(tmp_path, capsys):
    cfg = {
        "bc": {"angles": [np.pi, 2 * np.pi / 3]},
        "potential": {"n": 2, "pieces": [
            {"x_lo": 0.0, "x_hi": 1.0,
             "V": [[[-1.0, 0.0], [0.3, 0.0]], [[0.3, 0.0], [0.2, 0.0]]]}]},
        "kgrid": [0.25, 4.0, 16],
        "a_choice": "auto",
        "tolerances": {"abs_tol": 1e-12, "rel_tol": 1e-10, "method": "analytic"},
    }
    path = write_cfg(tmp_path, cfg)
    assert cli.main(["verify", "--config", path]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


def test_verify_reports_slow_near_resonant_continuity(tmp_path, capsys):
    # A weak potential on a Neumann channel leaves J(0) tiny but nonzero:
    # the zero-energy limit onset sits below the probe range, and verify
    # must say so rather than paper over it.
    cfg = {
        "bc": {"angles": [np.pi, np.pi / 2]},
        "potential": {"n": 2, "pieces": [
            {"x_lo": 0.0, "x_hi": 1.0,
             "V": [[[-0.5, 0.0], [0.15, 0.0]], [[0.15, 0.0], [0.1, 0.0]]]}]},
    }
    path = write_cfg(tmp_path, cfg)
    assert cli.main(["verify", "--config", path]) == 3
    report = json.loads(capsys.readouterr().out)
    failing = [c["name"] for c in report["checks"] if not c["pass"]]
    assert failing == ["s0_continuity"]


def test_verify_failure_record_is_strict_json(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise NumericalError("injected")

    monkeypatch.setattr("halfline.verify.p_matrix", broken)
    path = write_cfg(tmp_path, WELL_CFG)
    assert cli.main(["verify", "--config", path]) == 3

    def reject(token):
        raise ValueError(f"non-finite JSON token {token}")

    report = json.loads(capsys.readouterr().out, parse_constant=reject)
    failed = [c for c in report["checks"] if not c["pass"]]
    assert [c["name"] for c in failed] == ["p_ratio_decay"]
    assert failed[0]["residual"] is None
    assert failed[0]["error"] == "NumericalError: injected"


def test_example_exact_all_fixtures(tmp_path, capsys):
    for fid in ("7.1", "7.2", "7.3", "7.4"):
        assert cli.main(["example", fid]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert all(c["residual"] == 0.0 for c in report["checks"])


def test_example_numeric_and_flags(tmp_path, capsys):
    assert cli.main(["example", "7.2", "--mode", "numeric"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    assert report["flags"][0]["flag"] == "printed_s0_discrepancy"
    assert report["notes"]


def test_exit_code_validation_error(tmp_path, capsys):
    path = write_cfg(tmp_path, dict(ANGLES_CFG, kgrid=[0.0, 1.0, 2]))
    assert cli.main(["sweep", "--config", path]) == 2
    assert cli.main(["bc", "validate", "--config", str(tmp_path / "missing.json")]) == 2


def test_exit_code_fixture_mismatch(monkeypatch, capsys):
    # Corrupt a stored answer: the example command must exit 4.
    from halfline import fixtures as fximod

    real = fximod.get_fixture("7.1")
    tampered_s0 = [row[:] for row in real.s0_exact]
    tampered_s0[0][0] = tampered_s0[0][0] + fximod.QC(1)
    import dataclasses
    fake = dataclasses.replace(real, s0_exact=tampered_s0)
    monkeypatch.setattr(cli, "get_fixture", lambda fid, **kw: fake)
    assert cli.main(["example", "7.1"]) == 4


def test_exit_code_numerical_failure(tmp_path, capsys):
    # Two nearly-degenerate boundary channels push the zero-energy Jordan
    # clustering into its ambiguous regime.
    cfg = {
        "bc": {
            "n": 2,
            "A": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
            "B": [[[1e-9, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2e-9, 0.0]]],
        },
    }
    path = write_cfg(tmp_path, cfg)
    code = cli.main(["s0", "--config", path])
    assert code == 3
