"""Aggregated property checks for one configuration.

Each check condenses a structural identity of the solutions into a single
residual with a pinned tolerance.  ``run_property_checks`` executes all of
them and returns machine-readable records; a record never raises, so one
failing identity cannot hide the others.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .config import JobConfig
from .errors import HalflineError
from .lowenergy import zero_energy_pipeline
from .scattering import jost_matrix, jost_matrix_zero, l_matrix, p_matrix, smatrix, \
    log_derivative, jost_decomposition
from .solver import (
    jost_solution,
    moment_identities_residual,
    regular_solution,
    wronskian,
    zero_energy_decomposition,
)

__all__ = ["run_property_checks"]

K_GRID = (0.3, 0.9, 1.7, 3.1, 4.9)


def _record(name: str, residual: float, tol: float, ok: Optional[bool] = None) -> dict:
    if ok is None:
        ok = bool(residual <= tol)
    return {"name": name, "residual": float(residual), "tol": float(tol), "pass": bool(ok)}


def _failure(name: str, exc: Exception) -> dict:
    return {"name": name, "residual": None, "tol": 0.0, "pass": False,
            "error": f"{type(exc).__name__}: {exc}"}


def run_property_checks(cfg: JobConfig) -> List[dict]:
    pot, bc, solver = cfg.potential, cfg.bc, cfg.solver
    n = bc.n
    a = cfg.resolve_a()
    eye = np.eye(n)
    checks: List[dict] = []

    def guarded(name, fn, *args, **kwargs):
        try:
            checks.append(fn(*args, **kwargs))
        except HalflineError as exc:
            checks.append(_failure(name, exc))

    def wronskian_constancy():
        k = 1.3
        x1 = max(pot.x_max, 1.0)
        w0 = wronskian(jost_solution(pot, -k, 0.0, solver),
                       regular_solution(pot, bc, k, 0.0, solver))
        w1 = wronskian(jost_solution(pot, -k, x1, solver),
                       regular_solution(pot, bc, k, x1, solver))
        return _record("wronskian_constancy", np.linalg.norm(w0 - w1, 2), 1e-8)

    def outgoing_self_pairing():
        worst = 0.0
        for k in K_GRID:
            f = jost_solution(pot, k, 0.0, solver)
            worst = max(worst, np.linalg.norm(wronskian(f, f) - 2j * k * eye, 2))
        return _record("outgoing_self_pairing", worst, 1e-8)

    def outgoing_cross_pairing():
        worst = 0.0
        for k in K_GRID:
            fp = jost_solution(pot, k, 0.0, solver)
            fm = jost_solution(pot, -k, 0.0, solver)
            worst = max(worst, np.linalg.norm(wronskian(fm, fp), 2))
        return _record("outgoing_cross_pairing", worst, 1e-8)

    def jl_constancy():
        worst = 0.0
        for k in K_GRID:
            J = jost_matrix(pot, bc, k, a, solver).J
            L = l_matrix(pot, bc, k, solver)
            worst = max(
                worst,
                np.linalg.norm(J @ L.conj().T - L @ J.conj().T + 2j * k * eye, 2),
            )
        return _record("jl_pairing_constancy", worst, 1e-8)

    def tail_moments():
        # anchor below the support so the quadrature actually exercises V
        r1, r2 = moment_identities_residual(pot, 0.0, solver)
        return [_record("tail_moment_zeroth", r1, 1e-6),
                _record("tail_moment_first", r2, 1e-6)]

    def p_ratio_decay():
        a_p = 0.0 if pot.x_max > 0 else a
        r_hi = np.linalg.norm(p_matrix(pot, 1e-1, a_p, solver) / 1e-1j - eye, 2)
        r_lo = np.linalg.norm(p_matrix(pot, 1e-3, a_p, solver) / 1e-3j - eye, 2)
        if r_hi < 1e-12:
            return _record("p_ratio_decay", 0.0, 0.2)
        return _record("p_ratio_decay", r_lo / r_hi, 0.2)

    def logderiv_slope():
        h = 1e-5
        slope = (log_derivative(pot, h, a, "value", solver)
                 - log_derivative(pot, -h, a, "value", solver)) / (2 * h)
        f0 = jost_solution(pot, 0.0, a, solver)
        f0inv = np.linalg.inv(f0.value)
        expect = 1j * f0inv.conj().T @ f0inv
        rel = np.linalg.norm(slope - expect, 2) / max(np.linalg.norm(expect, 2), 1e-300)
        return _record("logderiv_slope", rel, 1e-4)

    def jost_split():
        worst = 0.0
        for k in (0.7, 2.3):
            T1, T2 = jost_decomposition(pot, bc, k, a, solver)
            J = jost_matrix(pot, bc, k, a, solver).J
            worst = max(worst, np.linalg.norm(T1 + T2 - J, 2))
        return _record("jost_split_consistency", worst, 1e-8)

    def zero_jost_crosscheck():
        J0 = jost_matrix_zero(pot, bc, solver)
        _, beta = zero_energy_decomposition(pot, bc, solver)
        return _record(
            "zero_energy_jost_crosscheck", np.linalg.norm(J0 - beta, 2), 1e-8
        )

    def smatrix_properties():
        worst_u = 0.0
        worst_inv = 0.0
        for k in K_GRID:
            Sp = smatrix(pot, bc, k, a, solver)
            Sm = smatrix(pot, bc, -k, a, solver)
            worst_u = max(worst_u, Sp.unitarity_residual)
            worst_inv = max(worst_inv, np.linalg.norm(Sm.S @ Sp.S - eye, 2))
        return [_record("smatrix_unitarity", worst_u, 1e-7),
                _record("smatrix_inverse_symmetry", worst_inv, 1e-8)]

    def zero_energy_behavior():
        res = zero_energy_pipeline(pot, bc, a, "numeric", solver)
        dists = [d for _, d in res.continuity_probes]
        monotone = all(x > y for x, y in zip(dists, dists[1:])) or dists[-1] < 1e-9
        out = [
            _record("s0_involution", res.involution_residual, 1e-9),
            _record("s0_unitarity", res.unitarity_residual, 1e-7),
            _record("s0_continuity", dists[-1], 1e-2, ok=(dists[-1] < 1e-2 and monotone)),
        ]
        return out

    guarded("wronskian_constancy", wronskian_constancy)
    guarded("outgoing_self_pairing", outgoing_self_pairing)
    guarded("outgoing_cross_pairing", outgoing_cross_pairing)
    guarded("jl_pairing_constancy", jl_constancy)
    try:
        checks.extend(tail_moments())
    except HalflineError as exc:
        checks.append(_failure("tail_moments", exc))
    guarded("p_ratio_decay", p_ratio_decay)
    guarded("logderiv_slope", logderiv_slope)
    guarded("jost_split_consistency", jost_split)
    guarded("zero_energy_jost_crosscheck", zero_jost_crosscheck)
    try:
        checks.extend(smatrix_properties())
    except HalflineError as exc:
        checks.append(_failure("smatrix_properties", exc))
    try:
        checks.extend(zero_energy_behavior())
    except HalflineError as exc:
        checks.append(_failure("zero_energy_behavior", exc))
    return checks
