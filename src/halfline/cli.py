"""Command line front end.

Commands (all driven by a JSON job config, see :mod:`halfline.config`):

    halfline bc validate  --config cfg.json [--out report.json]
    halfline bc convert   --config cfg.json --to normalized|unitary-harmer|
                          unitary-cosine-sine [--out bc.json]
    halfline sweep        --config cfg.json [--out rows.csv] [--format csv|json]
    halfline s0           --config cfg.json [--mode exact|numeric] [--out r.json]
    halfline verify       --config cfg.json [--out report.json]
    halfline example <id> [--mode exact|numeric] [--out report.json]

Exit codes: 0 success, 2 validation failure, 3 numerical failure,
4 fixture mismatch.  A sweep evaluates its whole k grid in one batched pass
(:func:`halfline.scattering.smatrix_grid`) and emits rows in k order; the
HALFLINE_NUM_THREADS environment variable of earlier versions is ignored.
CSV floats use fixed 17-digit scientific notation so runs are
byte-reproducible.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import List, Optional

import numpy as np

from . import exactalg as xa
from .bc import (
    UnitaryBC,
    bc_subspace_equal,
    bc_to_json,
    complex_matrix_to_json,
    from_unitary,
    normalize,
    to_unitary,
    validate_ab,
)
from .config import JobConfig, parse_config
from .errors import NumericalError, ValidationError, JordanAmbiguityError
from .fixtures import get_fixture
from .lowenergy import exact_free_pipeline, zero_energy_pipeline
from .scattering import jost_matrix, smatrix, smatrix_grid
from .verify import run_property_checks

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_MISMATCH = 4


def _fmt(x: float) -> str:
    return f"{x:.17e}"


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _emit_sinks(cfg: JobConfig, csv_text: Optional[str], json_text: Optional[str]) -> None:
    for sink in cfg.outputs:
        if "csv" in sink and csv_text is not None:
            with open(sink["csv"], "w", encoding="utf-8") as fh:
                fh.write(csv_text)
        if "json" in sink and json_text is not None:
            with open(sink["json"], "w", encoding="utf-8") as fh:
                fh.write(json_text)


def _load_config(path: str) -> JobConfig:
    with open(path, "rb") as fh:
        return parse_config(fh.read())


# ---------------------------------------------------------------------------
# bc validate / convert
# ---------------------------------------------------------------------------

def cmd_bc(args) -> int:
    cfg = _load_config(args.config)
    if args.bc_command == "validate":
        report = validate_ab(cfg.bc.A, cfg.bc.B)
        payload = {
            "ok": report.ok,
            "violations": [
                {"rule": rule, "residual": float(res)} for rule, res in report.violations
            ],
        }
        _emit(json.dumps(payload, indent=2), args.out)
        return EXIT_OK if report.ok else EXIT_VALIDATION
    # convert
    target = args.to
    if target == "normalized":
        out_bc = normalize(cfg.bc)
        payload = bc_to_json(out_bc)
    elif target == "kostrykin":
        # dictionary (A1, B1) = (-B', A') into the rank-n form
        payload = {
            "n": cfg.bc.n,
            "formulation": "kostrykin_ab",
            "A": complex_matrix_to_json(-cfg.bc.B.conj().T),
            "B": complex_matrix_to_json(cfg.bc.A.conj().T),
        }
    elif target in ("unitary-harmer", "unitary-cosine-sine"):
        u = to_unitary(cfg.bc)
        if target == "unitary-cosine-sine":
            # Channel-wise the two unitary encodings are related by
            # theta_cs = pi/2 - theta_h/2, i.e. W = i * U^(-1/2); any root
            # branch encodes the same condition (theta and theta + pi give
            # the same channel condition).
            vals, vecs = np.linalg.eig(u.U)
            roots = np.exp(-0.5j * np.angle(vals))
            W = vecs @ np.diag(1j * roots) @ np.linalg.inv(vecs)
            converted = from_unitary(UnitaryBC(U=W, convention="cosine_sine"))
            if not bc_subspace_equal(cfg.bc, converted):
                raise NumericalError("cosine/sine conversion changed the condition")
            payload = {"U": complex_matrix_to_json(W), "convention": "cosine_sine"}
        else:
            payload = {"U": complex_matrix_to_json(u.U), "convention": "harmer"}
    else:  # general-ab round trip through the unitary encoding
        payload = bc_to_json(from_unitary(to_unitary(cfg.bc)))
    _emit(json.dumps(payload, indent=2), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _sweep_csv(rows, n: int) -> str:
    header = ["k"]
    for i in range(n):
        for j in range(n):
            header += [f"ReS_{i}{j}", f"ImS_{i}{j}"]
    header += ["unitarity_residual", "det_J_abs"]
    lines = [",".join(header)]
    for row in rows:
        if "error" in row:
            vals = [_fmt(row["k"])] + ["nan"] * (2 * n * n + 2)
        else:
            vals = [_fmt(row["k"])]
            for i in range(n):
                for j in range(n):
                    z = row["S"][i, j]
                    vals += [_fmt(z.real), _fmt(z.imag)]
            vals += [_fmt(row["unitarity_residual"]), _fmt(row["det_J_abs"])]
        lines.append(",".join(vals))
    return "\n".join(lines) + "\n"


def _sweep_json(rows) -> str:
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


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    rows = smatrix_grid(cfg.potential, cfg.bc, cfg.kvalues(), cfg.resolve_a(), cfg.solver)
    formats = {args.format} | {kind for sink in cfg.outputs for kind in sink}
    csv_text = _sweep_csv(rows, cfg.bc.n) if "csv" in formats else None
    json_text = _sweep_json(rows) if "json" in formats else None
    _emit_sinks(cfg, csv_text, json_text)
    _emit(json_text if args.format == "json" else csv_text, args.out)
    failures = [row for row in rows if "error" in row]
    if failures:
        for row in failures:
            print(f"k = {row['k']:g}: {row['error']}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


# ---------------------------------------------------------------------------
# s0
# ---------------------------------------------------------------------------

def _s0_report(cfg: JobConfig, mode: str) -> dict:
    res = zero_energy_pipeline(
        cfg.potential, cfg.bc, cfg.resolve_a(), mode, cfg.solver
    )
    jd = res.jordan
    eigenvalues = []
    for lam, length in jd.chains:
        eigenvalues.extend([[lam.real, lam.imag]] * length)
    return {
        "mu": jd.mu,
        "nu": jd.nu,
        "kappa": jd.kappa,
        "eigenvalues": eigenvalues,
        "S0": complex_matrix_to_json(res.s0.S),
        "involution_residual": res.involution_residual,
        "unitarity_residual": res.unitarity_residual,
        "continuity_probes": [
            {"k": k, "dist": d} for k, d in res.continuity_probes
        ],
    }


def cmd_s0(args) -> int:
    cfg = _load_config(args.config)
    try:
        report = _s0_report(cfg, args.mode)
    except JordanAmbiguityError as exc:
        payload = {"error": str(exc), "eigenvalue_gaps": list(exc.gaps)}
        _emit(json.dumps(payload, indent=2), args.out)
        return EXIT_NUMERICAL
    text = json.dumps(report, indent=2)
    _emit_sinks(cfg, None, text)
    _emit(text, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    cfg = _load_config(args.config)
    checks = run_property_checks(cfg)
    ok = all(c["pass"] for c in checks)
    text = json.dumps({"ok": ok, "checks": checks}, indent=2)
    _emit_sinks(cfg, None, text)
    _emit(text, args.out)
    return EXIT_OK if ok else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# example
# ---------------------------------------------------------------------------

def _exact_residual(got: list, expect: list) -> float:
    return 0.0 if xa.mat_equal(got, expect) else float(
        np.linalg.norm(xa.mat_to_complex(got) - xa.mat_to_complex(expect), 2)
    )


def _example_checks_exact(fx) -> List[dict]:
    pipe = exact_free_pipeline(fx.A_exact, fx.B_exact)
    checks = []
    for kq, label in ((xa.QC(1), "1"), (xa.QC(0, Fraction(1, 2)), "i/2")):
        checks.append({
            "name": f"jost_at_k={label}",
            "residual": _exact_residual(pipe["jost_at"](kq), fx.jost_display(kq)),
            "tol": 0.0,
        })
    if fx.smatrix_display is not None:
        checks.append({
            "name": "smatrix_at_k=1",
            "residual": _exact_residual(
                pipe["smatrix_at"](xa.QC(1)), fx.smatrix_display(xa.QC(1))
            ),
            "tol": 0.0,
        })
    checks.append({
        "name": "s_zero",
        "residual": _exact_residual(pipe["S0"], fx.s0_exact),
        "tol": 0.0,
    })
    checks.append({
        "name": "multiplicities",
        "residual": 0.0 if (pipe["mu"], pipe["nu"]) == (fx.mu, fx.nu) else 1.0,
        "tol": 0.0,
    })
    for name in ("A1", "B1", "C1", "D0"):
        if name in fx.blocks_exact:
            checks.append({
                "name": f"block_{name}",
                "residual": _exact_residual(pipe[name], fx.blocks_exact[name]),
                "tol": 0.0,
            })
    for c in checks:
        c["pass"] = c["residual"] <= c["tol"]
    return checks


def _example_checks_numeric(fx) -> List[dict]:
    pot, bc = fx.potential(), fx.bc()
    res = zero_energy_pipeline(pot, bc)
    checks = []
    for k, label in ((1.0, "1"), (0.5j, "i/2")):
        J = jost_matrix(pot, bc, k).J
        expect = xa.mat_to_complex(fx.jost_display(xa.snap(complex(k))))
        checks.append({
            "name": f"jost_at_k={label}",
            "residual": float(np.linalg.norm(J - expect, 2)),
            "tol": 1e-10,
        })
    Sk = smatrix(pot, bc, 1.0).S
    expect = xa.mat_to_complex(fx.smatrix_display(xa.QC(1)))
    checks.append({
        "name": "smatrix_at_k=1",
        "residual": float(np.linalg.norm(Sk - expect, 2)),
        "tol": 1e-10,
    })
    s0_tol = 1e-8 if fx.printed_s0 is not None else 1e-10
    checks.append({
        "name": "s_zero",
        "residual": float(np.linalg.norm(res.s0.S - fx.s0, 2)),
        "tol": s0_tol,
    })
    checks.append({
        "name": "multiplicities",
        "residual": 0.0 if (res.jordan.mu, res.jordan.nu) == (fx.mu, fx.nu) else 1.0,
        "tol": 0.0,
    })
    if fx.P1 is not None:
        checks.append({
            "name": "permutations",
            "residual": float(
                np.linalg.norm(res.expansion.P1 - fx.P1)
                + np.linalg.norm(res.expansion.P2 - fx.P2)
            ),
            "tol": 0.0,
        })
    for c in checks:
        c["pass"] = c["residual"] <= c["tol"]
    return checks


def run_example(fixture_id: str, mode: str = "exact") -> dict:
    """Comparison report for one bundled fixture."""
    fx = get_fixture(fixture_id)
    checks = (
        _example_checks_exact(fx) if mode == "exact" else _example_checks_numeric(fx)
    )
    flags = []
    if fx.printed_s0 is not None:
        flags.append({
            "flag": "printed_s0_discrepancy",
            "printed": complex_matrix_to_json(xa.mat_to_complex(fx.printed_s0)),
            "computed": complex_matrix_to_json(fx.s0),
        })
    return {
        "id": fx.id,
        "name": fx.name,
        "mode": mode,
        "ok": all(c["pass"] for c in checks),
        "checks": checks,
        "notes": list(fx.notes),
        "flags": flags,
    }


def cmd_example(args) -> int:
    report = run_example(args.id, args.mode)
    _emit(json.dumps(report, indent=2), args.out)
    return EXIT_OK if report["ok"] else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="halfline",
        description="Scattering quantities for half-line matrix Schrodinger "
                    "operators with selfadjoint vertex conditions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bc = sub.add_parser("bc", help="validate or convert a boundary condition")
    bc_sub = p_bc.add_subparsers(dest="bc_command", required=True)
    for name in ("validate", "convert"):
        p = bc_sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out")
        if name == "convert":
            p.add_argument(
                "--to", required=True,
                choices=["normalized", "kostrykin", "unitary-harmer",
                         "unitary-cosine-sine", "general-ab"],
            )
        p.set_defaults(func=cmd_bc)

    p_sweep = sub.add_parser("sweep", help="evaluate S(k) on a k grid")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out")
    p_sweep.add_argument("--format", choices=["csv", "json"], default="csv")
    p_sweep.set_defaults(func=cmd_sweep)

    p_s0 = sub.add_parser("s0", help="zero-energy scattering matrix report")
    p_s0.add_argument("--config", required=True)
    p_s0.add_argument("--out")
    p_s0.add_argument("--mode", choices=["exact", "numeric"], default="numeric")
    p_s0.set_defaults(func=cmd_s0)

    p_ver = sub.add_parser("verify", help="run the structural property suite")
    p_ver.add_argument("--config", required=True)
    p_ver.add_argument("--out")
    p_ver.set_defaults(func=cmd_verify)

    p_ex = sub.add_parser("example", help="reproduce a bundled fixture")
    p_ex.add_argument("id", help="fixture id (7.1 .. 7.4) or alias")
    p_ex.add_argument("--out")
    p_ex.add_argument("--mode", choices=["exact", "numeric"], default="exact")
    p_ex.set_defaults(func=cmd_example)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except FileNotFoundError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
