"""Configuration parsing and command line behavior."""

import contextlib
import io
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import halfline.cli as cli
from halfline.bc import complex_matrix_to_json
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
    for block in ({"nope": 1}, {"max_step": True}):  # the key is refused before its boolean
        with pytest.raises(ValidationError, match=r"^config: unknown keys \['tolerances'\]$"):
            parse_config(json.dumps(dict(ANGLES_CFG, tolerances=block)))


def test_parse_rejects_size_mismatch():
    bad = dict(WELL_CFG)
    bad["bc"] = {"angles": [np.pi, np.pi]}
    with pytest.raises(ValidationError, match="does not match"):
        parse_config(json.dumps(bad))


def test_parse_rejects_malformed_json():
    with pytest.raises(ValidationError, match="not valid JSON"):
        parse_config(b"{nope")


def _with(path, value):
    """WELL_CFG with the entry at ``path`` (a tuple of keys) replaced."""
    cfg = json.loads(json.dumps(WELL_CFG))
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return cfg


# JSON texts with a non-finite number where input enters: the non-standard
# tokens json.dumps writes for nan/inf, and a literal that overflows.
NON_FINITE_CONFIGS = {
    "piece_x_lo_nan": json.dumps(_with(("potential", "pieces", 0, "x_lo"), np.nan)),
    "piece_V_nan": json.dumps(_with(("potential", "pieces", 0, "V"), [[[np.nan, 0.0]]])),
    "bc_A_nan": json.dumps(_with(("bc", "A"), [[[np.nan, 0.0]]])),
    "bc_B_minus_inf": json.dumps(_with(("bc", "B"), [[[-np.inf, 0.0]]])),
    "kgrid_nan": json.dumps(_with(("kgrid",), [np.nan, 1.0, 3])),
    "kgrid_inf": json.dumps(_with(("kgrid",), [0.5, np.inf, 3])),
    "x_hi_overflow": json.dumps(WELL_CFG).replace('"x_hi": 1.0', '"x_hi": 1e999'),
    "bc_A_int_overflow": json.dumps(_with(("bc", "A"), [[[10**400, 0]]])),
}


@pytest.mark.parametrize("command", ["sweep", "s0", "verify"])
@pytest.mark.parametrize("name", sorted(NON_FINITE_CONFIGS))
def test_non_finite_numbers_are_validation_errors(tmp_path, capsys, name, command):
    path = tmp_path / "cfg.json"
    path.write_text(NON_FINITE_CONFIGS[name])
    assert cli.main([command, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("validation error: config: ")
    assert "finite" in captured.err


# true/false where a number enters: no field is boolean, yet Python reads
# them as 1 and 0, so each of these configs would otherwise run.
BOOLEAN_CONFIGS = {
    "kgrid_steps": (("kgrid",), [0.5, 2.0, True], "config.kgrid[2]"),
    "potential_n": (("potential", "n"), True, "config.potential.n"),
    "piece_V": (("potential", "pieces", 0, "V"), [[[-1.0, False]]],
                "config.potential.pieces[0].V[0][0][1]"),
    "bc_n": (("bc", "n"), True, "config.bc.n"),
    "bc_A": (("bc", "A"), [[[False, 0.0]]], "config.bc.A[0][0][0]"),
    "bc_B": (("bc", "B"), [[[-1.0, False]]], "config.bc.B[0][0][1]"),
    "bc_angles": (("bc",), {"angles": [True]}, "config.bc.angles[0]"),
    "bc_U": (("bc",), {"U": [[[True, 0.0]]]}, "config.bc.U[0][0][0]"),
    "a_choice": (("a_choice",), True, "config.a_choice"),
    # not a config key: the unknown key is refused before its boolean
    "tolerances": (("tolerances",), {"max_step": True}, "config"),
}


@pytest.mark.parametrize("command", ["sweep", "s0", "verify"])
@pytest.mark.parametrize("name", sorted(BOOLEAN_CONFIGS))
def test_booleans_are_validation_errors(tmp_path, capsys, name, command):
    path, value, shown = BOOLEAN_CONFIGS[name]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_with(path, value)))
    assert cli.main([command, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"validation error: {shown}: ")


# A JSON string where a number enters: float() reads "0.5" as 0.5, so each
# of these configs ran before; the field path is named.
STRING_CONFIGS = {
    "bc_angles": (("bc",), {"angles": ["0.3"]}, "config.bc.angles: each angle must be a number"),
    "kgrid_k_min": (("kgrid",), ["0.5", 2.0, 3], "config.kgrid: k_min/k_max must be numbers"),
    "kgrid_k_max": (("kgrid",), [0.5, "2", 3], "config.kgrid: k_min/k_max must be numbers"),
    "a_choice": (("a_choice",), "0.5", "config.a_choice: 'auto' or a number"),
    "piece_x_lo": (("potential", "pieces", 0, "x_lo"), "0.0",
                   "config.potential.pieces[0]: x_lo/x_hi must be numbers"),
    "piece_x_hi": (("potential", "pieces", 0, "x_hi"), "1",
                   "config.potential.pieces[0]: x_lo/x_hi must be numbers"),
    "piece_V": (("potential", "pieces", 0, "V"), [[["-1.0", 0.0]]],
                "config.potential.pieces[0].V: expected [[[re, im], ...], ...]"),
    "bc_A": (("bc", "A"), [[[0.0, "0"]]], "config.bc.A: expected [[[re, im], ...], ...]"),
    "bc_B": (("bc", "B"), [[["-1", "0"]]], "config.bc.B: expected [[[re, im], ...], ...]"),
    "bc_U": (("bc",), {"U": [[["1", 0.0]]]}, "config.bc.U: expected [[[re, im], ...], ...]"),
    # an entry that is not one [re, im] pair: an object raised KeyError, and
    # a third number was dropped
    "bc_A_object": (("bc", "A"), [[{"re": 1}]], "config.bc.A: expected [[[re, im], ...], ...]"),
    "bc_A_triple": (("bc", "A"), [[[1.0, 0.0, 7.0]]],
                    "config.bc.A: expected [[[re, im], ...], ...]"),
    "bc_U_object": (("bc",), {"U": [[{"re": 1, "im": 0}]]},
                    "config.bc.U: expected [[[re, im], ...], ...]"),
    "bc_U_triple": (("bc",), {"U": [[[1.0, 0.0, 7.0]]]},
                    "config.bc.U: expected [[[re, im], ...], ...]"),
    "piece_V_object": (("potential", "pieces", 0, "V"), [[{"re": -1.0}]],
                       "config.potential.pieces[0].V: expected [[[re, im], ...], ...]"),
    "piece_V_triple": (("potential", "pieces", 0, "V"), [[[-1.0, 0.0, 7.0]]],
                       "config.potential.pieces[0].V: expected [[[re, im], ...], ...]"),
}


@pytest.mark.parametrize("name", sorted(STRING_CONFIGS))
def test_strings_for_numbers_are_validation_errors(tmp_path, capsys, name):
    path, value, message = STRING_CONFIGS[name]
    cfg = write_cfg(tmp_path, _with(path, value))
    for command in ("sweep", "s0", "verify"):
        assert cli.main([command, "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"validation error: {message}\n")


def test_parse_accepts_true_and_false_inside_strings():
    cfg = parse_config(json.dumps(dict(ANGLES_CFG, outputs=[{"csv": "true-false.csv"}])))
    assert cfg.outputs == ({"csv": "true-false.csv"},)


@pytest.mark.parametrize("path,value,match", [
    (("kgrid",), ["nan", 1.0, 3], "kgrid"),
    (("kgrid",), [0.5, "inf", 3], "kgrid"),
    (("a_choice",), "nan", "a_choice"),
    (("a_choice",), "inf", "a_choice"),
    (("tolerances",), {"abs_tol": "nan"}, "tolerances"),
])
def test_parse_rejects_non_finite_number_strings(path, value, match):
    with pytest.raises(ValidationError, match=match):
        parse_config(json.dumps(_with(path, value)))


# The least integer whose float is infinite: 2**1024 rounded down by half an ulp.
INT_OVERFLOW = 2 ** 1024 - 2 ** 970


@pytest.mark.parametrize("literal,ok", [
    (str(INT_OVERFLOW - 1), True),
    (str(-(INT_OVERFLOW - 1)), True),
    (str(INT_OVERFLOW), False),
    (str(-INT_OVERFLOW), False),
    ("9" * 309, False),
    ("-" + "9" * 310, False),
    ("9" * 5000, False),  # beyond what int() reads from a string by default
    ("1e3", True),
    ("1.7976931348623157e308", True),
    ("1.7976931348623159e308", False),
    ("-1e999", False),
])
def test_number_literals_are_finite_exactly_where_their_float_is(literal, ok):
    # As kgrid steps, a finite literal gets past the JSON reader; only the
    # field's own check may then refuse it (a float, or a negative steps).
    text = json.dumps(_with(("kgrid",), [0.5, 2.0, 3])).replace("3]", literal + "]")
    shown = literal if len(literal) <= 24 else literal[:20] + "..."
    try:
        parse_config(text)
        message = None
    except ValidationError as exc:
        message = str(exc)
    if ok:
        assert message in (None, "config.kgrid: steps must be an integer >= 1")
    else:
        assert message == f"config: number {shown} is not finite"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def test_bc_validate_command(tmp_path, capsys):
    path = write_cfg(tmp_path, ANGLES_CFG)
    assert cli.main(["bc", "validate", "--config", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"ok": True, "violations": []}


def test_bc_validate_refuses_an_invalid_pair_as_it_parses(tmp_path, capsys):
    # A'B - B'A = [[0, 1], [-1, 0]]: the config does not parse, so no report
    # is written.
    eye = complex_matrix_to_json(np.eye(2))
    path = write_cfg(tmp_path, {"bc": {"n": 2, "A": eye,
                                       "B": complex_matrix_to_json([[0, 1], [0, 0]])}})
    assert cli.main(["bc", "validate", "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("validation error: config.bc: invalid boundary pair: "
                            "(('pairing_selfadjoint', 1.0),)\n")


def test_bc_convert_round_trips(tmp_path, capsys):
    # Every target, fed back as the bc of a config, is the input's condition:
    # a general pair, angles, and a rank-n (A1, B1) pair.
    from halfline.bc import bc_from_json, bc_subspace_equal

    kostrykin = {"n": 2, "formulation": "kostrykin_ab", "A": complex_matrix_to_json(np.eye(2)),
                 "B": complex_matrix_to_json([[1.0, 0.5], [0.5, 0.0]])}
    for bc in (WELL_CFG["bc"], ANGLES_CFG["bc"], kostrykin):
        path = write_cfg(tmp_path, {"bc": bc})
        given = parse_config(json.dumps({"bc": bc})).bc
        for target in ("normalized", "kostrykin", "unitary-harmer",
                       "unitary-cosine-sine", "general-ab"):
            assert cli.main(["bc", "convert", "--config", path, "--to", target]) == 0
            back = bc_from_json(json.loads(capsys.readouterr().out))
            assert bc_subspace_equal(back, given), (bc, target)


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


# The writers the template writers replaced: dicts encoded by the
# pure-Python indent=2 encoder, and one f-string per CSV cell.

def _reference_sweep_json(rows):
    out = []
    for row in rows:
        if "error" in row:
            out.append({"k": row["k"], "error": row["error"]})
        else:
            out.append({
                "k": row["k"],
                "S": complex_matrix_to_json(row["S"]),
                "unitarity_residual": row["unitarity_residual"],
                "det_J_abs": row["det_J_abs"],
            })
    return json.dumps({"rows": out}, indent=2)


def _reference_sweep_csv(rows, n):
    def fmt(x):
        return f"{x:.17e}"

    header = ["k"]
    for i in range(n):
        for j in range(n):
            header += [f"ReS_{i}{j}", f"ImS_{i}{j}"]
    header += ["unitarity_residual", "det_J_abs"]
    lines = [",".join(header)]
    for row in rows:
        if "error" in row:
            vals = [fmt(row["k"])] + ["nan"] * (2 * n * n + 2)
        else:
            vals = [fmt(row["k"])]
            for i in range(n):
                for j in range(n):
                    z = row["S"][i, j]
                    vals += [fmt(z.real), fmt(z.imag)]
            vals += [fmt(row["unitarity_residual"]), fmt(row["det_J_abs"])]
        lines.append(",".join(vals))
    return "\n".join(lines) + "\n"


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def _rows(rng, n, count=5):
    rows = []
    for i in range(count):
        S = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        rows.append({"k": 0.05 + 1.3 * i, "S": S.T,  # a non-contiguous S
                     "unitarity_residual": abs(rng.normal()) * 1e-15,
                     "det_J_abs": abs(rng.normal()) * 10.0 ** rng.integers(-300, 300)})
    return rows


SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308, 1e16, 0.1]
ERRORS = ['NumericalError: cond(J) = 1e+17 > "cap"', "ValidationError: k = 0 → ∞ é \\ %s\n",
          "NumericalError: 100% of the steps"]


@pytest.mark.parametrize("n", [1, 2, 8])
def test_sweep_writers_equal_reference_writers(rng, n):
    rows = _rows(rng, n)
    special = rows[1]["S"].copy()
    special.real.flat[:len(SPECIAL)] = SPECIAL[:n * n]
    special.imag.flat[:len(SPECIAL)] = SPECIAL[::-1][:n * n]
    rows[1] = dict(rows[1], k=-0.0, S=special, unitarity_residual=np.nan)
    rows[2] = dict(rows[2], k=np.inf, unitarity_residual=-np.inf)
    rows[3] = {"k": 7.25, "error": ERRORS[n % 3]}
    rows.append({"k": 9.0, "error": ERRORS[(n + 1) % 3]})
    cases = [rows, rows[3:4], rows[:1], [], [rows[3], rows[0], rows[4]]]
    for case in cases:
        assert cli._sweep_json(case) == _reference_sweep_json(case)
        assert cli._sweep_csv(case, n) == _reference_sweep_csv(case, n)


def test_sweep_json_writes_null_for_non_finite_det(rng):
    rows = _rows(rng, 2, 4)
    rows[0]["det_J_abs"] = np.inf
    rows[2]["det_J_abs"] = np.nan
    expect = _reference_sweep_json([dict(r, det_J_abs=None) if i in (0, 2) else r
                                    for i, r in enumerate(rows)])
    text = cli._sweep_json(rows)
    assert text == expect
    json.loads(text, parse_constant=_reject_constant)
    assert cli._sweep_csv(rows, 2) == _reference_sweep_csv(rows, 2)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_sweep_output_equals_reference_writers(tmp_path, capsys, fmt):
    import halfline as hl

    path = write_cfg(tmp_path, WELL_CFG)
    assert cli.main(["sweep", "--config", path, "--format", fmt]) == 0
    cfg = parse_config(json.dumps(WELL_CFG).encode())
    rows = hl.smatrix_grid(cfg.potential, cfg.bc, cfg.kvalues(), cfg.a)
    expect = (_reference_sweep_json(rows) + "\n" if fmt == "json"
              else _reference_sweep_csv(rows, 1))
    assert capsys.readouterr().out == expect


def test_sweep_with_overflowing_det_is_strict_json(tmp_path, capsys):
    # |det J| of eight channels through V = 400 on [0, 5] is about e^800:
    # it overflows a float while S(k) itself is fine.
    import halfline as hl

    n = 8
    eye = [[[float(i == j), 0.0] for j in range(n)] for i in range(n)]
    zero = [[[0.0, 0.0]] * n for _ in range(n)]
    well = [[[400.0 * (i == j), 0.0] for j in range(n)] for i in range(n)]
    data = {"bc": {"n": n, "A": eye, "B": zero},
            "potential": {"n": n, "pieces": [{"x_lo": 0.0, "x_hi": 5.0, "V": well}]},
            "kgrid": [1.0, 2.0, 2]}
    path = write_cfg(tmp_path, data)
    assert cli.main(["sweep", "--config", path, "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)["rows"]
    assert [r["det_J_abs"] for r in rows] == [None, None]
    assert all(r["unitarity_residual"] < 1e-10 for r in rows)
    assert cli.main(["sweep", "--config", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.rsplit(",", 1)[1] for line in lines[1:]] == ["inf", "inf"]
    cfg = parse_config(json.dumps(data).encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ev = hl.smatrix(cfg.potential, cfg.bc, 1.0)
    assert np.isfinite(ev.S).all()


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


def test_s0_reports_a_jordan_refusal_with_its_gaps(tmp_path, capsys):
    # V = 0, A = I, B = diag(0, 5e-8): J(0) = B has two eigenvalues closer
    # than 10x the clustering radius, so s0 refuses, exits 3 and prints the
    # refusal with the gap between the clusters.
    cfg = {"bc": {"n": 2, "formulation": "general_ab",
                  "A": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
                  "B": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [5e-8, 0.0]]]}}
    path = write_cfg(tmp_path, cfg)
    assert cli.main(["s0", "--config", path]) == 3
    out = capsys.readouterr().out
    expect = {"error": "eigenvalue clusters are closer than 10x the clustering radius",
              "eigenvalue_gaps": [5e-08]}
    assert json.loads(out) == expect
    assert out == json.dumps(expect, indent=2) + "\n"


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


def test_verify_on_a_deep_barrier_fails_the_overflowing_pairings(tmp_path, capsys):
    # V = 400 on [0, 20]: f(k, 0) is about e^400, finite, but its pairings
    # overflow.  The four checks that take their norms fail as numerical
    # errors naming the non-finite value, without warnings, where an SVD
    # of inf and NaN used to crash verify; the other records keep their
    # residuals, and s0 on the same input exits 0.
    cfg = {"bc": {"angles": [0.3]}, "potential": {"n": 1, "pieces": [
        {"x_lo": 0.0, "x_hi": 20.0, "V": [[[400.0, 0.0]]]}]}}
    path = write_cfg(tmp_path, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["verify", "--config", path]) == 3
        report = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        assert cli.main(["s0", "--config", path]) == 0
    errors = {c["name"]: c["error"] for c in report["checks"] if "error" in c}
    assert errors == {
        "outgoing_self_pairing": "NumericalError: [f(k, .); f(k, .)] at x = 0 is not finite",
        "outgoing_cross_pairing": "NumericalError: [f(-k, .); f(k, .)] at x = 0 is not finite",
        "jl_pairing_constancy": "NumericalError: J(k) L(k)' - L(k) J(k)' is not finite",
        "p_ratio_decay": "NumericalError: P(k) is not finite",
    }
    assert len(report["checks"]) == 15
    for check in report["checks"]:
        assert (check["residual"] is None) == (check["name"] in errors)


def test_verify_on_a_deep_barrier_with_a_inside_fails_the_split(tmp_path, capsys):
    # With a = 0.5 the two-term split of J pairs solutions of about e^390:
    # T1 + T2 - J is not finite, and its check fails as a numerical error
    # without warnings, where the SVD of its norm crashed verify.
    cfg = {"bc": {"angles": [0.3]}, "a_choice": 0.5, "potential": {"n": 1, "pieces": [
        {"x_lo": 0.0, "x_hi": 20.0, "V": [[[400.0, 0.0]]]}]}}
    path = write_cfg(tmp_path, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["verify", "--config", path]) == 3
    captured = capsys.readouterr()
    report = json.loads(captured.out, parse_constant=_reject_constant)
    errors = {c["name"]: c["error"] for c in report["checks"] if "error" in c}
    assert errors["jost_split_consistency"] == \
        "NumericalError: T1(k) + T2(k) - J(k) is not finite"
    assert all(e.endswith(" is not finite") for e in errors.values()), errors
    assert captured.err == ""


@pytest.mark.parametrize("target,name,value", [
    ("_jost_stack", "wronskian_constancy", "J(k) at 0 minus J(k) at x1"),
    ("log_derivative", "logderiv_slope", "the log-derivative slope"),
])
def test_verify_infinite_pairing_fails_its_record(tmp_path, monkeypatch, capsys, target, name,
                                                  value):
    # An infinite pairing (J(k) of the single-k stack, or the log-derivatives)
    # reaches the norm of its check: the record fails as a numerical error
    # naming the value, where the SVD of an inf crashed verify, and the
    # report is strict JSON with exit 3.
    import halfline.verify

    real = getattr(halfline.verify, target)

    def infinite(*args, **kwargs):
        out = real(*args, **kwargs)
        if target == "log_derivative":
            return np.full_like(out, np.inf)
        return out._replace(J=np.full_like(out.J, np.inf)) if len(out.J) == 1 else out

    monkeypatch.setattr(halfline.verify, target, infinite)
    path = write_cfg(tmp_path, WELL_CFG)
    assert cli.main(["verify", "--config", path]) == 3
    report = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert [c for c in report["checks"] if not c["pass"]] == [{
        "name": name, "residual": None, "tol": 0.0, "pass": False,
        "error": f"NumericalError: {value} is not finite",
    }]


@pytest.mark.parametrize("target,name", [
    ("halfline.verify.moment_identities_residual", "tail_moments"),
    ("halfline.verify._smatrix_stack", "smatrix_properties"),
    ("halfline.verify.zero_energy_pipeline", "zero_energy_behavior"),
])
def test_verify_multi_record_check_fails_as_one_record(
    tmp_path, monkeypatch, capsys, target, name
):
    def broken(*args, **kwargs):
        raise NumericalError("injected")

    monkeypatch.setattr(target, broken)
    path = write_cfg(tmp_path, WELL_CFG)
    assert cli.main(["verify", "--config", path]) == 3
    report = json.loads(capsys.readouterr().out)
    assert [c for c in report["checks"] if not c["pass"]] == [{
        "name": name, "residual": None, "tol": 0.0, "pass": False,
        "error": "NumericalError: injected",
    }]


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
    tampered_s0 = real.s0_exact.copy()
    tampered_s0[0, 0] = tampered_s0[0, 0] + fximod.QC(1)
    import dataclasses
    fake = dataclasses.replace(real, s0_exact=tampered_s0)
    monkeypatch.setattr(cli, "get_fixture", lambda fid, **kw: fake)
    assert cli.main(["example", "7.1"]) == 4


def _barrier(V, width):
    return {"bc": {"angles": [2.0]}, "potential": {"n": 1, "pieces": [
        {"x_lo": 0.0, "x_hi": width, "V": [[[V, 0.0]]]}]}}


def test_sweep_on_an_overflowing_barrier_fails_its_rows(tmp_path, capsys):
    # V = 2000 on [0, 20]: one exact step overflows where
    # sqrt(2000 - k^2) * 20 passes 709.8, for the 5 smallest k of the grid.
    # Those rows carry the error, one stderr line each; the others carry S.
    path = write_cfg(tmp_path, dict(_barrier(2000.0, 20.0), kgrid=[5.0, 60.0, 12]))
    assert cli.main(["sweep", "--config", path, "--format", "json"]) == 3
    captured = capsys.readouterr()
    rows = json.loads(captured.out, parse_constant=_reject_constant)["rows"]
    assert [row["k"] for row in rows] == [5.0 * i for i in range(1, 13)]
    failed = [row for row in rows if "error" in row]
    assert failed == rows[:5]
    assert all(row["error"].startswith("NumericalError: solution overflows") for row in failed)
    assert all(len(row["S"]) == 1 for row in rows[5:])
    assert captured.err.splitlines() == [f"k = {row['k']:g}: {row['error']}" for row in failed]


def test_s0_on_an_overflowing_barrier_exits_3(tmp_path, capsys):
    # V = 25 on [0, 150]: the k = 0 walk grows like e^750 and overflows.
    assert cli.main(["s0", "--config", write_cfg(tmp_path, _barrier(25.0, 150.0))]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical error: solution overflows")


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


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------

_FRESH_MAIN = "import sys; from halfline.cli import main; sys.exit(main(sys.argv[1:]))"


def _in_fresh_process(argv):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src, COLUMNS="80")
    done = subprocess.run([sys.executable, "-c", _FRESH_MAIN, *argv], env=env,
                          capture_output=True, timeout=120)
    return done.stdout.decode(), done.stderr.decode(), done.returncode


def _in_this_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), err.getvalue(), code


def test_commands_in_one_process_equal_first_commands(tmp_path, monkeypatch):
    # main builds its parser once per process; every later command must
    # print and exit exactly as it would as the first command of a process.
    monkeypatch.setenv("COLUMNS", "80")
    well = write_cfg(tmp_path, WELL_CFG)
    commands = [
        ["sweep", "--config", well, "--format", "json"],
        ["s0", "--config", well],
        ["s0", "--config", well, "--mode", "exactly"],  # usage error: exit 2
        ["verify", "--config", well],
        ["example", "7.1"],
        ["sweep", "--config", well],
    ]
    cli._parser.cache_clear()
    got = [_in_this_process(argv) for argv in commands]
    assert cli._parser.cache_info().misses == 1
    assert [code for _, _, code in got] == [0, 0, 2, 0, 0, 0]
    assert got[2][1].startswith("usage: halfline s0 ") and "invalid choice" in got[2][1]
    assert got == [_in_fresh_process(argv) for argv in commands]


def test_cached_parser_calls_rebound_handlers(monkeypatch):
    # The handlers are looked up when a command runs, so wrapping cmd_*
    # after the parser was built (as a tracer does) still takes effect.
    cli._parser()
    monkeypatch.setattr(cli, "cmd_example", lambda args: 17)
    assert cli.main(["example", "7.1"]) == 17
