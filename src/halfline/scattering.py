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

Both are evaluated once, over a stack of k, for :func:`jost_matrix`,
:func:`smatrix`, :func:`smatrix_grid`, the S(0) continuity probes of
:mod:`halfline.lowenergy` and the fixed-k checks of :mod:`halfline.verify`.
A stack of S(k) pairs J at each of its k and then at each -k; the walks
carry each distinct kappa and k^2 once, so S(k) and S(-k) asked for
together share their solutions.  The x = 0 cross-check of J and its
condition cap take SVDs only where Frobenius bounds leave them open.
Solutions are read from ``solver._Walks``, the only read path: one
backward walk of f(kappa, .) from the support edge and one forward walk of
phi(k, .) from 0, each over the union of their k as one stack.  The grid
walks f(-k, .) for every +k and -k, and phi(k, .), which is even in k,
once per k^2, from one table of step coefficients per k^2, keeping the
states at 0 and a.  A function here that reads walked solutions takes
such a ``walks`` or makes walks of what it reads.  A solution that
overflows fails where it is read; in a stack of S(k), its row alone.

Every solution comes from the one exact propagator of :mod:`halfline.solver`;
nothing here takes a solver setting.  A function that reads solutions at a
matching point takes it as ``a``, and ``a = None`` means the support edge
x_max, where f(0, a) = I exactly.

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
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from .bc import BCPair
from .errors import HalflineError, NumericalError, ValidationError
from .solver import (
    _OVERFLOW,
    Potential,
    StateMatrix,
    _finite_rows,
    _integrate_weighted,
    _norm2_le,
    _Walks,
    jost_solution,
    wronskian,
)

__all__ = [
    "JostEvaluation",
    "SMatrixEvaluation",
    "jost_matrix",
    "jost_matrix_zero",
    "l_matrix",
    "smatrix",
    "smatrix_grid",
    "p_matrix",
    "log_derivative",
    "jost_decomposition",
]

#: Condition-number cap beyond which an inversion is refused.
COND_CAP = 1e10
#: Internal agreement tolerance for redundant evaluations.
CROSSCHECK_TOL = 1e-8
_COND_MARGIN = 1e-3  # by which a Frobenius bound clears COND_CAP to skip the SVD

_ZERO_K = "k = 0 is handled by the zero-energy pipeline"


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
) -> JostEvaluation:
    """Evaluate J(k) as the outgoing/regular pairing at x = a.

    The same pairing is read off at x = 0 and the two values must agree;
    disagreement signals a propagation swamped by roundoff.
    """
    _check_sizes(pot, bc)
    k = complex(k)
    if k.imag < -1e-14:
        raise ValidationError("Jost matrix requires Im k >= 0")
    a = pot.x_max if a is None else a
    (J,), errors, *_ = _jost_stack(pot, bc, [k], a)
    _first_error(errors)
    return JostEvaluation(k=k, J=J, cond=float(np.linalg.cond(J)))


class _JostStack(NamedTuple):
    J: np.ndarray                           # J(k), read off at x = a
    errors: List[Optional[NumericalError]]  # per k, its overflow or cross-check error, or None
    J0: np.ndarray                          # the same pairing read off at x = 0
    F0: StateMatrix                         # f(-k*, 0)


def _jost_stack(pot, bc, ks, a, walks: Optional[_Walks] = None) -> _JostStack:
    """J(k) for a 1-D sequence of k with Im k >= 0, with its x = 0 reading
    and the state f(-k*, 0) that reading comes from.

    f(-k*, .) at a and at 0 and phi(k, .) at a are read from ``walks``, or
    from walks kept at those points alone.  Nothing raises: a k whose read
    overflowed gets the overflow error in ``errors`` (its J inf or NaN), a
    k whose two readings differ the cross-check error.
    """
    ks = np.asarray(ks, dtype=complex)
    km = -ks.conj()
    walks = walks or _Walks(pot, bc, km, ks, (0.0, a))
    F, F0 = walks.f(km, a, check=False), walks.f(km, 0.0, check=False)
    phi = walks.phi(ks, a, check=False)
    with np.errstate(all="ignore"):  # an overflowed row pairs to inf or NaN
        J = wronskian(F, phi)
        J0 = wronskian(F0, StateMatrix._trusted(0.0, bc.A, bc.B))  # phi(k, 0) = (A, B)
    finite = _finite_rows(F) & _finite_rows(F0) & _finite_rows(phi)
    errors = [None if ok else NumericalError(_OVERFLOW) for ok in finite.tolist()]
    # The bound CROSSCHECK_TOL * max(||J||, 1) is at least CROSSCHECK_TOL, so
    # only the rows that do not clear that need both norms.
    rows = np.flatnonzero(finite)[~_norm2_le(J[finite] - J0[finite], CROSSCHECK_TOL)]
    if rows.size:
        diff = _norm2(J[rows] - J0[rows])
        for i, d, bound in zip(rows, diff, CROSSCHECK_TOL * np.maximum(_norm2(J[rows]), 1.0)):
            if d > bound:
                errors[i] = _pairing_error(a, d)
    return _JostStack(J, errors, J0, F0)


def _norm2(M):  # spectral norm of a matrix, or of each matrix of a stack
    return np.linalg.norm(M, 2, axis=(-2, -1))


def _pairing_error(a, diff) -> NumericalError:
    return NumericalError(f"Jost pairing differs between x = 0 and x = {a}: {diff:.3e}")


def _cond_error(k, cond) -> NumericalError:
    return NumericalError(f"J({k:g}) condition {cond:.3e} exceeds cap {COND_CAP:.1e}")


def jost_matrix_zero(pot: Potential, bc: BCPair, walks: Optional[_Walks] = None) -> np.ndarray:
    """J(0) computed three redundant ways, required to agree.

    (i) the k = 0 pairing at the origin, (ii) B plus the V-weighted moment
    of the regular solution, (iii) phi'(0, x_max), the coefficient of
    phi(0, .) along the growing zero-energy solution with data (x_max I, I)
    at x_max (the bounded one, f(0, .), has (I, 0) there).  Route (i) reads
    f(0, 0), routes (ii) and (iii) phi(0, .) at every interface, from
    ``walks``: a caller's, or else a walk of f(0, .) down to 0 and one of
    phi(0, .) up to x_max made here.  Route (ii) steps its nodes off one
    stack of edge states, not the walk, so a wrong leg in either walk shows.
    """
    _check_sizes(pot, bc)
    walks = walks or _Walks(pot, bc, [0.0], [0.0], points=(0.0, *pot._edges))
    J_pairing = wronskian(walks.f(0.0, 0.0), walks.phi(0.0, 0.0))

    (moment,) = _integrate_weighted(pot, 0.0, (lambda y: 1.0,),
                                    lambda lo, hi: (lo, walks.edges("phi", 0.0, lo)))
    J_moment = bc.B + moment

    beta = walks.phi(0.0, pot.x_max).deriv  # route (iii)

    # tol * max(||J||, 1) >= tol, so differences within tol pass without SVDs
    tol = CROSSCHECK_TOL
    if _norm2_le(J_pairing - J_moment, tol) and _norm2_le(J_pairing - beta, tol):
        return J_pairing
    scale = max(np.linalg.norm(J_pairing, 2), 1.0)
    d1 = np.linalg.norm(J_pairing - J_moment, 2)
    d2 = np.linalg.norm(J_pairing - beta, 2)
    if max(d1, d2) > tol * scale:
        raise NumericalError(
            f"zero-energy Jost cross-check failed: moment diff {d1:.3e}, "
            f"fundamental-system diff {d2:.3e}"
        )
    return J_pairing


def l_matrix(pot: Potential, bc: BCPair, k: float) -> np.ndarray:
    """L(k) = f'(-k, 0)' B E^(-2) + f(-k, 0)' A E^(-2) for real k."""
    _check_sizes(pot, bc)
    return _l_matrix(bc, jost_solution(pot, -float(k), 0.0))


def _l_matrix(bc: BCPair, F: StateMatrix) -> np.ndarray:
    """L from F = f(-k, 0), or a stack of L from a stack of such states."""
    gram = bc.A.conj().T @ bc.A + bc.B.conj().T @ bc.B
    num = F.deriv.conj().swapaxes(-1, -2) @ bc.B + F.value.conj().swapaxes(-1, -2) @ bc.A
    return np.linalg.solve(gram.conj().T, num.conj().swapaxes(-1, -2)).conj().swapaxes(-1, -2)


def smatrix(
    pot: Potential,
    bc: BCPair,
    k: float,
    a: Optional[float] = None,
) -> SMatrixEvaluation:
    """S(k) = -J(-k) J(k)^(-1) for real k != 0, via linear solve.

    Refuses k = 0 (use the zero-energy pipeline) and refuses to invert a
    J(k) whose condition number exceeds the cap, which indicates lost
    precision rather than a mathematical obstruction.
    """
    k = float(k)
    if k == 0.0:
        raise ValidationError(_ZERO_K)
    _check_sizes(pot, bc)
    a = pot.x_max if a is None else a
    (row,) = _first_error(_smatrix_stack(pot, bc, [k], a))
    return SMatrixEvaluation(k=k, S=row["S"], unitarity_residual=row["unitarity_residual"])


def _smatrix_stack(pot, bc, ks: List[float], a, walks: Optional[_Walks] = None) -> list:
    """S(k) for a list of real k != 0, with J(k) and J(-k) from one stack.

    Per k: the row ``{"k", "S", "unitarity_residual", "det_J_abs"}`` or the
    NumericalError :func:`smatrix` raises there (an overflow or the x = 0
    cross-check of J(k), then of J(-k), the condition cap), never one for
    the whole stack.  Solutions are read from ``walks``, else walked here;
    either way each distinct kappa and k^2 is walked once.
    """
    m = len(ks)
    J, errors, *_ = _jost_stack(pot, bc, [*ks, *(-k for k in ks)], a, walks)
    Jp, Jm = J[:m], J[m:]
    out = [errors[i] or errors[m + i] for i in range(m)]
    paired = [i for i, e in enumerate(out) if e is None]
    for i, c in zip(paired, _capped_cond(Jp[paired])):
        if c > COND_CAP:
            out[i] = _cond_error(ks[i], c)
    ok = [i for i, e in enumerate(out) if e is None]
    S = np.linalg.solve(Jp[ok].swapaxes(-1, -2), -Jm[ok].swapaxes(-1, -2)).swapaxes(-1, -2)
    resid = _norm2(S.conj().swapaxes(-1, -2) @ S - np.eye(bc.n))
    with np.errstate(over="ignore"):  # |det J| may overflow where S(k) is fine
        det = np.linalg.det(Jp[ok])
    for i, Sk, r, d in zip(ok, S, resid, det):
        out[i] = {"k": ks[i], "S": Sk, "unitarity_residual": float(r), "det_J_abs": float(abs(d))}
    return out


def _capped_cond(J) -> np.ndarray:
    """cond(J) per matrix as ``np.linalg.cond`` gives it where it may exceed
    COND_CAP, elsewhere ||J||_F ||J^-1||_F (in [cond, n cond], below the cap)."""
    try:
        inv = np.linalg.inv(J)
    except np.linalg.LinAlgError:
        return np.linalg.cond(J)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed bound takes the SVD
        cond = np.sqrt(np.einsum("kij,kij->k", J.conj(), J).real
                       * np.einsum("kij,kij->k", inv.conj(), inv).real)
    open_ = ~(cond <= COND_CAP * (1 - _COND_MARGIN))
    if open_.any():
        cond[open_] = np.linalg.cond(J[open_])
    return cond


def _first_error(results: list) -> list:
    """Raise the first HalflineError of ``results``, else return them."""
    for r in results:
        if isinstance(r, HalflineError):
            raise r
    return results


def smatrix_grid(
    pot: Potential,
    bc: BCPair,
    ks,
    a: Optional[float] = None,
) -> List[dict]:
    """S(k) on a grid of real k != 0: one row per k, in grid order.

    A row is ``{"k", "S", "unitarity_residual", "det_J_abs"}`` (|det J(k)|,
    ``inf`` where it overflows a float although S(k) is fine), or
    ``{"k", "error"}`` with the "<ExcName>: <message>" that :func:`smatrix`
    raises at that k.  The evaluator behind both walks f(-k, .) for +k and
    -k of the whole grid as one stack and phi(k, .) once per k^2, from one
    table of step coefficients per k^2; a k whose solutions overflow fails
    its row alone, and nothing is redone.
    """
    _check_sizes(pot, bc)
    ks = [float(k) for k in ks]
    if 0.0 in ks:
        raise ValidationError(_ZERO_K)
    a = pot.x_max if a is None else a
    return [{"k": k, "error": f"{type(r).__name__}: {r}"} if isinstance(r, HalflineError)
            else r for k, r in zip(ks, _smatrix_stack(pot, bc, ks, a))]


def p_matrix(
    pot: Potential,
    k: complex,
    a: Optional[float] = None,
    walks: Optional[_Walks] = None,
) -> np.ndarray:
    """P(k) = f(0, a)' f'(k, a) - f'(0, a)' f(k, a); P(0) = 0 and
    P(k)/(ik) tends to the identity.

    ``k`` may be a 1-D array: f(0, .) and every f(k, .) are then walked to
    a as one stack, and the result is a (K, n, n) stack.  ``walks`` holds
    solutions a caller already walked (``verify`` passes its own).
    """
    k = np.asarray(k, dtype=complex)
    a = pot.x_max if a is None else a
    walks = walks or _Walks(pot, None, np.append(0.0, k), points=(a,))
    return wronskian(walks.f(0.0, a), walks.f(k, a))


def log_derivative(
    pot: Potential,
    k: complex,
    a: Optional[float] = None,
    mode: str = "value",
    walks: Optional[_Walks] = None,
) -> np.ndarray:
    """f'(k, a) f(k, a)^(-1) (mode "value") or f(k, a) f'(k, a)^(-1)
    (mode "derivative"), guarded by the condition cap.

    ``k`` may be a 1-D array: every f(k, .) is then walked to a as one
    stack, the result is a (K, n, n) stack, and the first k in order whose
    denominator is singular raises.  ``walks`` as in :func:`p_matrix`.
    """
    if mode not in ("value", "derivative"):
        raise ValidationError(f"unknown mode {mode!r}")
    k = np.asarray(k, dtype=complex)
    a = pot.x_max if a is None else a
    f = (walks or _Walks(pot, None, k, points=(a,))).f(k, a)
    denom = f.value if mode == "value" else f.deriv
    numer = f.deriv if mode == "value" else f.value
    for kj, c in zip(k.reshape(-1), np.atleast_1d(np.linalg.cond(denom))):
        if c > COND_CAP:
            raise NumericalError(
                f"log-derivative denominator at k = {complex(kj):g}, a = {a:g} is singular"
            )
    return np.linalg.solve(denom.swapaxes(-1, -2), numer.swapaxes(-1, -2)).swapaxes(-1, -2)


def jost_decomposition(
    pot: Potential,
    bc: BCPair,
    k: complex,
    a: Optional[float] = None,
    walks: Optional[_Walks] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Two-term split J(k) = T1 + T2.

    T1 = -P(-k*)' f(0, a)^(-1) phi(k, a) carries the linear-in-k
    contribution; T2, built from the pairing of the zero-energy-anchored
    solution with phi, equals J(0) up to quadratic corrections.  ``k`` may
    be a 1-D array; T1 and T2 are then (K, n, n) stacks from one walk of
    phi(k, .) and one of f(0, .) together with f(-k*, .).  ``walks`` as in
    :func:`p_matrix`.
    """
    _check_sizes(pot, bc)
    k = np.asarray(k, dtype=complex)
    a = pot.x_max if a is None else a
    km = -k.conj()
    walks = walks or _Walks(pot, bc, np.append(0.0, km), k, points=(a,))
    f0, fm, phi = walks.f(0.0, a), walks.f(km, a), walks.phi(k, a)

    P = wronskian(f0, fm)  # P(-k*), as p_matrix gives it
    T1 = -P.conj().swapaxes(-1, -2) @ _r_matrix(f0, phi)
    # At x = a the omega solution carries the data (f(0,a), f'(0,a)), so the
    # pairing with phi needs no extra propagation.
    W = wronskian(f0, phi)
    T2 = fm.value.conj().swapaxes(-1, -2) @ np.linalg.solve(f0.value.conj().T, W)
    return T1, T2


def _r_matrix(f0: StateMatrix, phi: StateMatrix) -> np.ndarray:
    """f(0, a)^(-1) phi(k, a) from the states f(0, a) and phi(k, a) (one, or
    a stack); at k = 0 the slope R of the rescaled Jost matrix.  At
    a = x_max, f(0, a) = I."""
    if np.linalg.cond(f0.value) > COND_CAP:
        raise NumericalError(f"f(0, {f0.x:g}) is numerically singular; enlarge a")
    return np.linalg.solve(f0.value, phi.value)
