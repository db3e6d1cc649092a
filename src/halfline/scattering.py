"""Jost matrix, scattering matrix, and their structural identities.

For a potential V and boundary pair (A, B) the Jost matrix is the
x-independent pairing of the outgoing solution with the regular solution,

    J(k) = f(-k*, x)' phi'(k, x) - f'(-k*, x)' phi(k, x),

conventionally read off at x = 0 where phi carries the data (A, B).  The
scattering matrix on the real axis is

    S(k) = -J(-k) J(k)^(-1),        k real, k != 0,

unitary and invariant under right gauge factors on (A, B).  J(k) is
invertible for every real k != 0; only k = 0 can be exceptional, which is
the regime handled by :mod:`halfline.lowenergy`.

Supporting quantities computed here:

* L(k) = f'(-k, 0)' B E^(-2) + f(-k, 0)' A E^(-2), which pairs with J in
  the constancy identity  J L' - L J' = -2ik I;
* P(k) = f(0, a)' f'(k, a) - f'(0, a)' f(k, a), vanishing linearly with
  slope i at k = 0;
* the matrix logarithmic derivatives f' f^(-1) and f (f')^(-1), whose
  k-slope at 0 is +/- i (f(0,a)^(-1))' f(0,a)^(-1);
* the two-term split of J(k) into a P-weighted part and an
  omega-Wronskian part, used by the zero-energy analysis.

For V = 0 everything collapses to the closed forms J = B - ikA and
S = -(B + ikA)(B - ikA)^(-1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .bc import BCPair
from .errors import HalflineError, NumericalError, ValidationError
from .solver import (
    DEFAULT_CONFIG,
    Potential,
    SolverConfig,
    _integrate_weighted,
    jost_solution,
    regular_solution,
    wronskian,
    zero_energy_decomposition,
)

__all__ = [
    "JostEvaluation",
    "SMatrixEvaluation",
    "jost_matrix",
    "jost_matrix_zero",
    "l_matrix",
    "smatrix",
    "smatrix_grid",
    "free_closed_forms",
    "p_matrix",
    "log_derivative",
    "scalar_jost_function",
    "scalar_smatrix",
    "jost_decomposition",
]

#: Condition-number cap beyond which an inversion is refused.
COND_CAP = 1e10
#: Internal agreement tolerance for redundant evaluations.
CROSSCHECK_TOL = 1e-8


@dataclass(frozen=True)
class JostEvaluation:
    """J(k) together with a condition estimate."""

    k: complex
    J: np.ndarray
    cond: float


@dataclass(frozen=True)
class SMatrixEvaluation:
    """S(k) with its measured (never assumed) unitarity defect."""

    k: float
    S: np.ndarray
    unitarity_residual: float


def _check_sizes(pot: Potential, bc: BCPair) -> None:
    if pot.n != bc.n:
        raise ValidationError("potential and boundary pair sizes differ")


def jost_matrix(
    pot: Potential,
    bc: BCPair,
    k: complex,
    a: Optional[float] = None,
    cfg: SolverConfig = DEFAULT_CONFIG,
    cross_check: bool = True,
) -> JostEvaluation:
    """Evaluate J(k) as the outgoing/regular pairing at x = a.

    With ``cross_check`` on, the same pairing is read off at x = 0 and the
    two values must agree; disagreement signals a solver misconfiguration.
    """
    _check_sizes(pot, bc)
    k = complex(k)
    if k.imag < -1e-14:
        raise ValidationError("Jost matrix requires Im k >= 0")
    if a is None:
        a = cfg.resolve_a(pot)
    km = -k.conjugate()
    F = jost_solution(pot, km, a, cfg)
    phi = regular_solution(pot, bc, k, a, cfg)
    J = wronskian(F, phi, conjugate_first=True)
    if cross_check:
        F0 = jost_solution(pot, km, 0.0, cfg)
        J0 = F0.value.conj().T @ bc.B - F0.deriv.conj().T @ bc.A
        diff, scale = _norm2(J - J0), np.maximum(_norm2(J), 1.0)
        if diff > CROSSCHECK_TOL * scale:
            raise _pairing_error(a, diff)
    return JostEvaluation(k=k, J=J, cond=float(np.linalg.cond(J)))


def _norm2(M):  # spectral norm of a matrix, or of each matrix of a stack
    return np.linalg.norm(M, 2, axis=(-2, -1))


def _pairing_error(a, diff) -> NumericalError:
    return NumericalError(f"Jost pairing differs between x = 0 and x = {a}: {diff:.3e}")


def _cond_error(k, cond) -> NumericalError:
    return NumericalError(f"J({k:g}) condition {cond:.3e} exceeds cap {COND_CAP:.1e}")


def jost_matrix_zero(
    pot: Potential,
    bc: BCPair,
    cfg: SolverConfig = DEFAULT_CONFIG,
    tol: float = CROSSCHECK_TOL,
) -> np.ndarray:
    """J(0) computed three redundant ways, required to agree.

    (i) the k = 0 pairing at the origin, (ii) B plus the V-weighted moment
    of the regular solution, (iii) the growing-direction coefficient of
    phi(0, .) in the zero-energy fundamental system.
    """
    _check_sizes(pot, bc)
    F0 = jost_solution(pot, 0.0, 0.0, cfg)
    J_pairing = F0.value.conj().T @ bc.B - F0.deriv.conj().T @ bc.A

    J_moment = bc.B + _integrate_weighted(
        pot, 0.0, lambda y: 1.0, lambda lo, hi: regular_solution(pot, bc, 0.0, lo, cfg), cfg)

    _, beta = zero_energy_decomposition(pot, bc, cfg)

    scale = max(np.linalg.norm(J_pairing, 2), 1.0)
    d1 = np.linalg.norm(J_pairing - J_moment, 2)
    d2 = np.linalg.norm(J_pairing - beta, 2)
    if max(d1, d2) > tol * scale:
        raise NumericalError(
            f"zero-energy Jost cross-check failed: moment diff {d1:.3e}, "
            f"fundamental-system diff {d2:.3e}"
        )
    return J_pairing


def l_matrix(
    pot: Potential,
    bc: BCPair,
    k: float,
    cfg: SolverConfig = DEFAULT_CONFIG,
) -> np.ndarray:
    """L(k) = f'(-k, 0)' B E^(-2) + f(-k, 0)' A E^(-2) for real k."""
    _check_sizes(pot, bc)
    k = float(k)
    gram = bc.A.conj().T @ bc.A + bc.B.conj().T @ bc.B
    F = jost_solution(pot, -k, 0.0, cfg)
    num = F.deriv.conj().T @ bc.B + F.value.conj().T @ bc.A
    return np.linalg.solve(gram.conj().T, num.conj().T).conj().T


def smatrix(
    pot: Potential,
    bc: BCPair,
    k: float,
    a: Optional[float] = None,
    cfg: SolverConfig = DEFAULT_CONFIG,
) -> SMatrixEvaluation:
    """S(k) = -J(-k) J(k)^(-1) for real k != 0, via linear solve.

    Refuses k = 0 (use the zero-energy pipeline) and refuses to invert a
    J(k) whose condition number exceeds the cap, which indicates the
    tolerance budget is exhausted rather than a mathematical obstruction.
    """
    k = float(k)
    if k == 0.0:
        raise ValidationError("k = 0 is handled by the zero-energy pipeline")
    Jp = jost_matrix(pot, bc, k, a, cfg)
    Jm = jost_matrix(pot, bc, -k, a, cfg)
    if Jp.cond > COND_CAP:
        raise _cond_error(k, Jp.cond)
    S = np.linalg.solve(Jp.J.T, -Jm.J.T).T
    resid = float(np.linalg.norm(S.conj().T @ S - np.eye(bc.n), 2))
    return SMatrixEvaluation(k=k, S=S, unitarity_residual=resid)


def _error_row(k: float, exc: HalflineError) -> dict:
    return {"k": k, "error": f"{type(exc).__name__}: {exc}"}


def _smatrix_row(pot, bc, k, a, cfg) -> dict:
    try:
        J = jost_matrix(pot, bc, k, a, cfg)
        ev = smatrix(pot, bc, k, a, cfg)
    except HalflineError as exc:
        return _error_row(k, exc)
    return {"k": k, "S": ev.S, "unitarity_residual": ev.unitarity_residual,
            "det_J_abs": float(abs(np.linalg.det(J.J)))}


def smatrix_grid(
    pot: Potential,
    bc: BCPair,
    ks,
    a: Optional[float] = None,
    cfg: SolverConfig = DEFAULT_CONFIG,
) -> List[dict]:
    """S(k) on a grid of real k != 0: one row per k, in grid order.

    A row is ``{"k", "S", "unitarity_residual", "det_J_abs"}`` (|det J(k)|),
    or ``{"k", "error"}`` with the "<ExcName>: <message>" that
    :func:`jost_matrix` or :func:`smatrix` raises at that k.  The analytic
    method walks +k and -k of the whole grid as one stack: f(-+k, .) from
    the support edge to a and to 0, phi(+-k, .) from 0 to a.  "rk45", or an
    overflowing stack, goes one k at a time.
    """
    _check_sizes(pot, bc)
    ks = [float(k) for k in ks]
    if 0.0 in ks:
        raise ValidationError("k = 0 is handled by the zero-energy pipeline")
    if a is None:
        a = cfg.resolve_a(pot)
    if cfg.method == "analytic":
        try:
            return _batched_rows(pot, bc, ks, a, cfg)
        except NumericalError:
            pass  # evaluate row by row so that only the overflowing k fail
    return [_smatrix_row(pot, bc, k, a, cfg) for k in ks]


def _batched_rows(pot, bc, ks, a, cfg) -> List[dict]:
    m = len(ks)
    kpm = np.concatenate([ks, np.negative(ks)]).astype(complex)  # J(k), then J(-k)
    km = -kpm.conj()
    F, F0 = jost_solution(pot, km, a, cfg), jost_solution(pot, km, 0.0, cfg)
    J = wronskian(F, regular_solution(pot, bc, kpm, a, cfg))
    J0 = F0.value.conj().swapaxes(-1, -2) @ bc.B - F0.deriv.conj().swapaxes(-1, -2) @ bc.A
    diff = _norm2(J - J0)
    bad = diff > CROSSCHECK_TOL * np.maximum(_norm2(J), 1.0)
    Jp, Jm = J[:m], J[m:]
    cond = np.linalg.cond(Jp)
    ok = ~(bad[:m] | bad[m:]) & (cond <= COND_CAP)
    S = np.linalg.solve(Jp[ok].swapaxes(-1, -2), -Jm[ok].swapaxes(-1, -2)).swapaxes(-1, -2)
    resid = _norm2(S.conj().swapaxes(-1, -2) @ S - np.eye(bc.n))
    det = np.linalg.det(Jp)
    good = iter(zip(S, resid))
    rows = []
    for i, k in enumerate(ks):
        if bad[i] or bad[m + i]:
            rows.append(_error_row(k, _pairing_error(a, diff[i] if bad[i] else diff[m + i])))
        elif not ok[i]:
            rows.append(_error_row(k, _cond_error(k, cond[i])))
        else:
            Sk, r = next(good)
            rows.append({"k": k, "S": Sk, "unitarity_residual": float(r),
                         "det_J_abs": float(abs(det[i]))})
    return rows


def free_closed_forms(bc: BCPair, k: complex) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Closed forms for the zero potential: J = B - ikA and, when B - ikA
    is safely invertible, S = -(B + ikA)(B - ikA)^(-1)."""
    k = complex(k)
    J = bc.B - 1j * k * bc.A
    S = None
    if np.linalg.cond(J) <= COND_CAP:
        S = np.linalg.solve(J.T, -(bc.B + 1j * k * bc.A).T).T
    return J, S


def p_matrix(
    pot: Potential,
    k: complex,
    a: Optional[float] = None,
    cfg: SolverConfig = DEFAULT_CONFIG,
) -> np.ndarray:
    """P(k) = f(0, a)' f'(k, a) - f'(0, a)' f(k, a); P(0) = 0 and
    P(k)/(ik) tends to the identity."""
    k = complex(k)
    if a is None:
        a = cfg.resolve_a(pot)
    f0 = jost_solution(pot, 0.0, a, cfg)
    fk = jost_solution(pot, k, a, cfg)
    return wronskian(f0, fk, conjugate_first=True)


def log_derivative(
    pot: Potential,
    k: complex,
    a: Optional[float] = None,
    mode: str = "value",
    cfg: SolverConfig = DEFAULT_CONFIG,
) -> np.ndarray:
    """f'(k, a) f(k, a)^(-1) (mode "value") or f(k, a) f'(k, a)^(-1)
    (mode "derivative"), guarded by the condition cap."""
    if mode not in ("value", "derivative"):
        raise ValidationError(f"unknown mode {mode!r}")
    k = complex(k)
    if a is None:
        a = cfg.resolve_a(pot)
    f = jost_solution(pot, k, a, cfg)
    denom = f.value if mode == "value" else f.deriv
    numer = f.deriv if mode == "value" else f.value
    if np.linalg.cond(denom) > COND_CAP:
        raise NumericalError(
            f"log-derivative denominator at k = {k:g}, a = {a:g} is singular"
        )
    return np.linalg.solve(denom.T, numer.T).T


def scalar_jost_function(
    pot: Potential, theta: float, k: complex, cfg: SolverConfig = DEFAULT_CONFIG
) -> complex:
    """Single-channel Jost function for the angle condition
    cos(theta) psi(0) + sin(theta) psi'(0) = 0.

    Classical normalization: -i [f'(k,0) + cot(theta) f(k,0)] for
    theta in (0, pi), and f(k,0) at theta = pi (the Dirichlet endpoint).
    Regression aid only; it relates to the 1x1 Jost matrix by
    J = i sin(theta) F for interior angles and J = -F at theta = pi.
    """
    if pot.n != 1:
        raise ValidationError("the scalar normalization is single-channel")
    if not 0.0 < theta <= np.pi + 1e-15:
        raise ValidationError("theta must lie in (0, pi]")
    f = jost_solution(pot, k, 0.0, cfg)
    if abs(theta - np.pi) < 1e-15:
        return complex(f.value[0, 0])
    return complex(-1j * (f.deriv[0, 0] + f.value[0, 0] / np.tan(theta)))


def scalar_smatrix(
    pot: Potential, theta: float, k: float, cfg: SolverConfig = DEFAULT_CONFIG
) -> complex:
    """Single-channel scattering coefficient in the classical convention.

    -F(-k)/F(k) for theta in (0, pi) and +F(-k)/F(k) at theta = pi, so the
    free Dirichlet value is +1 here.  The matrix convention (which
    normalizes against a Neumann comparison operator) agrees for interior
    angles and flips the sign at the Dirichlet endpoint.
    """
    k = float(k)
    if k == 0.0:
        raise ValidationError("the zero-energy point is handled separately")
    num = scalar_jost_function(pot, theta, -k, cfg)
    den = scalar_jost_function(pot, theta, k, cfg)
    ratio = num / den
    return complex(ratio if abs(theta - np.pi) < 1e-15 else -ratio)


def jost_decomposition(
    pot: Potential,
    bc: BCPair,
    k: complex,
    a: Optional[float] = None,
    cfg: SolverConfig = DEFAULT_CONFIG,
) -> Tuple[np.ndarray, np.ndarray]:
    """Two-term split J(k) = T1 + T2.

    T1 = -P(-k*)' f(0, a)^(-1) phi(k, a) carries the linear-in-k
    contribution; T2, built from the pairing of the zero-energy-anchored
    solution with phi, equals J(0) up to quadratic corrections.
    """
    _check_sizes(pot, bc)
    k = complex(k)
    if a is None:
        a = cfg.resolve_a(pot)
    km = -k.conjugate()
    f0 = jost_solution(pot, 0.0, a, cfg)
    if np.linalg.cond(f0.value) > COND_CAP:
        raise NumericalError(f"f(0, {a:g}) is numerically singular; enlarge a")
    phi = regular_solution(pot, bc, k, a, cfg)
    fm = jost_solution(pot, km, a, cfg)

    P = p_matrix(pot, km, a, cfg)
    T1 = -P.conj().T @ np.linalg.solve(f0.value, phi.value)
    # At x = a the omega solution carries the data (f(0,a), f'(0,a)), so the
    # pairing with phi needs no extra propagation.
    W = f0.value.conj().T @ phi.deriv - f0.deriv.conj().T @ phi.value
    T2 = fm.value.conj().T @ np.linalg.solve(f0.value.conj().T, W)
    return T1, T2
