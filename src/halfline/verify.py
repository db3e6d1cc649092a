"""Aggregated property checks for one configuration.

Each check condenses a structural identity of the solutions into a single
residual with a pinned tolerance.  ``run_property_checks`` executes all of
them and returns machine-readable records; a record never raises, so one
failing identity cannot hide the others.

Every solution the checks read comes from two stacked walks across the
support: one backward walk of f(kappa, .) from the support edge to 0 and
one forward walk of phi(k, .) from 0 to max(x_max, 1, a), each over the
union of the k the checks need and each keeping its state at 0, x_max,
x1 = max(x_max, 1) and a, f also at the upper and phi at the lower edge
of every piece (``solver._Walks``).  Each check reads single states from
them, or passes them on to the function it calls.  A read is bit for bit
the state a check's own propagation gives, or raises the overflow error
it raises, so each check fails or passes as it does alone.  J(0) is
computed once, for the zero-energy cross-check and the pipeline.
"""

from __future__ import annotations

import functools
from typing import List, Optional

import numpy as np

from .config import JobConfig
from .errors import HalflineError, NumericalError
from .lowenergy import DEFAULT_PROBES, zero_energy_pipeline
from .scattering import _first_error, _jost_stack, _l_matrix, _norm2, _smatrix_stack, \
    jost_decomposition, jost_matrix_zero, log_derivative, p_matrix
from .solver import _Walks, moment_identities_residual, wronskian

__all__ = ["run_property_checks"]

K_GRID = (0.3, 0.9, 1.7, 3.1, 4.9)


def _record(name: str, residual: float, tol: float, ok: Optional[bool] = None) -> dict:
    if ok is None:
        ok = bool(residual <= tol)
    return {"name": name, "residual": float(residual), "tol": float(tol), "pass": bool(ok)}


def _failure(name: str, exc: Exception) -> dict:
    return {"name": name, "residual": None, "tol": 0.0, "pass": False,
            "error": f"{type(exc).__name__}: {exc}"}


def _finite(what: str, fn, *args):
    """fn(*args) without overflow warnings, or a NumericalError naming ``what``
    if it holds inf or NaN, as pairings of huge solutions can (no SVD takes it)."""
    with np.errstate(over="ignore", invalid="ignore"):
        M = fn(*args)
    if not np.isfinite(M).all():
        raise NumericalError(f"{what} is not finite")
    return M


def run_property_checks(job: JobConfig) -> List[dict]:
    pot, bc = job.potential, job.bc
    n = bc.n
    a = pot.x_max if job.a is None else job.a
    x1 = max(pot.x_max, 1.0)  # the second reading point of the Wronskian check
    eye = np.eye(n)
    ks = np.array(K_GRID)
    split_ks, wronskian_k, p_ks, h = (0.7, 2.3), 1.3, (1e-1, 1e-3), 1e-5
    probes = [*DEFAULT_PROBES, *(-kp for kp in DEFAULT_PROBES)]
    # Every k a check reads: J(k) pairs f(-k, .) with phi(k, .); P, the
    # log-derivative, the outgoing pairings and J(0) read f(k, .) alone.
    walks = _Walks(
        pot, bc,
        kappas=[0.0, *ks, *-ks, *(-k for k in split_ks), -wronskian_k, *p_ks, h, -h, *probes],
        ks=[0.0, *ks, *-ks, *split_ks, wronskian_k, *probes],
        points=(0.0, x1, a, pot.x_max), edges=("f", "phi"),
    )
    checks: List[dict] = []

    def guarded(name, fn):
        """Run a check that returns one record or a list of them; a
        HalflineError becomes one failure record named ``name``."""
        try:
            out = fn()
        except HalflineError as exc:
            out = _failure(name, exc)
        checks.extend(out if isinstance(out, list) else [out])

    def wronskian_constancy():
        # [f(-k, .); phi(k, .)] at 0 and at x1: the two readings of J(k)
        st = _jost_stack(pot, bc, [wronskian_k], x1, walks)
        _first_error(st.errors)
        diff = _finite("J(k) at 0 minus J(k) at x1", lambda: st.J0[0] - st.J[0])
        return _record("wronskian_constancy", _norm2(diff), 1e-8)

    @functools.cache  # a failed read is redone, so each check records its own failure
    def outgoing():
        """f(k, 0) and f(-k, 0) for k in K_GRID, read once for both pairing checks."""
        return walks.f(ks, 0.0), walks.f(-ks, 0.0)

    def outgoing_self_pairing():
        f, _ = outgoing()
        pairing = _finite("[f(k, .); f(k, .)] at x = 0", wronskian, f, f)
        worst = _norm2(pairing - 2j * ks[:, None, None] * eye).max()
        return _record("outgoing_self_pairing", worst, 1e-8)

    def outgoing_cross_pairing():
        fp, fm = outgoing()
        pairing = _finite("[f(-k, .); f(k, .)] at x = 0", wronskian, fm, fp)
        return _record("outgoing_cross_pairing", _norm2(pairing).max(), 1e-8)

    def jl_constancy():
        Js, errors, _, F0 = _jost_stack(pot, bc, K_GRID, a, walks)
        _first_error(errors)
        Ls = _l_matrix(bc, F0)  # F0 = f(-k, 0)
        pairing = _finite("J(k) L(k)' - L(k) J(k)'", lambda: (
            Js @ Ls.conj().swapaxes(-1, -2) - Ls @ Js.conj().swapaxes(-1, -2)))
        worst = _norm2(pairing + 2j * ks[:, None, None] * eye).max()
        return _record("jl_pairing_constancy", worst, 1e-8)

    def tail_moments():
        # anchor below the support so the quadrature actually exercises V
        r1, r2 = moment_identities_residual(pot, 0.0, walks)
        return [_record("tail_moment_zeroth", r1, 1e-6),
                _record("tail_moment_first", r2, 1e-6)]

    def p_ratio_decay():
        a_p = 0.0 if pot.x_max > 0 else a
        P_hi, P_lo = _finite("P(k)", p_matrix, pot, p_ks, a_p, walks)
        r_hi = np.linalg.norm(P_hi / 1e-1j - eye, 2)
        r_lo = np.linalg.norm(P_lo / 1e-3j - eye, 2)
        if r_hi < 1e-12:
            return _record("p_ratio_decay", 0.0, 0.2)
        return _record("p_ratio_decay", r_lo / r_hi, 0.2)

    def logderiv_slope():
        ld_plus, ld_minus = log_derivative(pot, [h, -h], a, "value", walks)
        f0inv = np.linalg.inv(walks.f(0.0, a).value)
        expect = 1j * f0inv.conj().T @ f0inv
        # the slope's distance from its limit, and the limit
        gap, scale = _norm2(_finite("the log-derivative slope", lambda: np.array(
            [(ld_plus - ld_minus) / (2 * h) - expect, expect])))
        return _record("logderiv_slope", gap / max(scale, 1e-300), 1e-4)

    def jost_split():
        Js, errors, *_ = _jost_stack(pot, bc, split_ks, a, walks)
        _first_error(errors)
        diff = _finite("T1(k) + T2(k) - J(k)",
                       lambda: np.add(*jost_decomposition(pot, bc, split_ks, a, walks)) - Js)
        return _record("jost_split_consistency", _norm2(diff).max(), 1e-8)

    @functools.cache  # a failure is redone, so each check records its own
    def zero_jost():
        """J(0) and beta = phi'(0, x_max), route (iii) of jost_matrix_zero."""
        return jost_matrix_zero(pot, bc, walks=walks), walks.phi(0.0, pot.x_max).deriv

    def zero_jost_crosscheck():
        J0, beta = zero_jost()
        return _record(
            "zero_energy_jost_crosscheck", np.linalg.norm(J0 - beta, 2), 1e-8
        )

    def smatrix_properties():
        # S(k), then S(-k); the stack evaluates J once at each of the 10 values
        pm = [s * k for k in K_GRID for s in (1.0, -1.0)]
        rows = _first_error(_smatrix_stack(pot, bc, pm, a, walks))
        worst_u = max(Sp["unitarity_residual"] for Sp in rows[::2])
        worst_inv = _norm2(np.array([Sm["S"] @ Sp["S"] - eye
                                     for Sp, Sm in zip(rows[::2], rows[1::2])])).max()
        return [_record("smatrix_unitarity", worst_u, 1e-7),
                _record("smatrix_inverse_symmetry", worst_inv, 1e-8)]

    def zero_energy_behavior():
        res = zero_energy_pipeline(pot, bc, a, "numeric", walks=walks,
                                   J0=zero_jost()[0])
        dists = [d for _, d in res.continuity_probes]
        monotone = all(x > y for x, y in zip(dists, dists[1:])) or dists[-1] < 1e-9
        return [
            _record("s0_involution", res.involution_residual, 1e-9),
            _record("s0_unitarity", res.s0.unitarity_residual, 1e-7),
            _record("s0_continuity", dists[-1], 1e-2, ok=(dists[-1] < 1e-2 and monotone)),
        ]

    guarded("wronskian_constancy", wronskian_constancy)
    guarded("outgoing_self_pairing", outgoing_self_pairing)
    guarded("outgoing_cross_pairing", outgoing_cross_pairing)
    guarded("jl_pairing_constancy", jl_constancy)
    guarded("tail_moments", tail_moments)
    guarded("p_ratio_decay", p_ratio_decay)
    guarded("logderiv_slope", logderiv_slope)
    guarded("jost_split_consistency", jost_split)
    guarded("zero_energy_jost_crosscheck", zero_jost_crosscheck)
    guarded("smatrix_properties", smatrix_properties)
    guarded("zero_energy_behavior", zero_energy_behavior)
    return checks
