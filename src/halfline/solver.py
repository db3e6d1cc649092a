"""Matrix solutions of -psi'' + V(x) psi = k^2 psi on the half line.

Potentials are compactly supported, piecewise-constant Hermitian n x n
matrices.  That restriction makes every asymptotic normalization exact at
the support edge x_max:

* outgoing solution  f(k, x) = exp(ikx) I  for x >= x_max, so f is obtained
  by propagating that data backward from x_max;
* the zero-energy pair (f(0, .), g(0, .)) starts from (I, 0) and
  (x_max I, I) at x_max;
* regular solutions start from k-independent data at a finite point
  (the boundary pair (A, B) at x = 0, or cosine/sine/outgoing data at a).

Within one piece V is a constant Hermitian matrix, so the exact propagator
over a step h is available from the eigendecomposition V = Q diag(w) Q':
with omega_j = sqrt(k^2 - w_j),

    psi(x+h)  = Q diag(cos(omega h)) Q' psi(x)
              + Q diag(sin(omega h)/omega) Q' psi'(x),
    psi'(x+h) = Q diag(-(omega^2) sin(omega h)/omega) Q' psi(x)
              + Q diag(cos(omega h)) Q' psi'(x).

Both entries are even entire functions of omega, so the branch of the
square root is irrelevant; sin(z)/z is evaluated by series for small |z|.
This "analytic" stepping is the default method and is exact up to roundoff.
An embedded Dormand-Prince 5(4) integrator over the first-order 2n-row
system is provided as an independent cross-check backend ("rk45"); both
methods step piece by piece so interfaces are always hit exactly.

All functions are pure and single-threaded.  One propagation may carry a
whole stack of k values: every step then advances all of them at once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .bc import BCPair, complex_matrix_from_json, complex_matrix_to_json
from .errors import NumericalError, ValidationError

__all__ = [
    "Potential",
    "StateMatrix",
    "SolverConfig",
    "propagate",
    "jost_solution",
    "zero_energy_pair",
    "regular_solution",
    "omega_solution",
    "cs_solutions",
    "wronskian",
    "zero_energy_decomposition",
    "moment_identities_residual",
    "potential_to_json",
    "potential_from_json",
    "free_potential",
]

HERMITICITY_EPS = 1e-10


@dataclass(frozen=True)
class Potential:
    """Piecewise-constant Hermitian matrix potential with compact support.

    ``pieces`` is a sorted tuple of (x_lo, x_hi, V) with disjoint intervals
    inside [0, x_max]; V vanishes outside the pieces.  Finite support means
    the first-moment integrability the theory needs holds automatically.
    """

    n: int
    pieces: Tuple[Tuple[float, float, np.ndarray], ...]
    x_max: float = field(init=False)

    def __post_init__(self):
        if self.n <= 0:
            raise ValidationError("channel count n must be positive")
        cleaned = []
        for i, (lo, hi, V) in enumerate(self.pieces):
            lo, hi = float(lo), float(hi)
            V = np.asarray(V, dtype=complex)
            if V.shape != (self.n, self.n):
                raise ValidationError(f"piece {i}: V must be {self.n} x {self.n}")
            if lo < 0 or hi <= lo:
                raise ValidationError(f"piece {i}: need 0 <= x_lo < x_hi")
            herm = np.linalg.norm(V - V.conj().T, 2)
            if herm > HERMITICITY_EPS * max(1.0, np.linalg.norm(V, 2)):
                raise ValidationError(
                    f"piece {i}: V is not selfadjoint (residual {herm:.3e})"
                )
            V = 0.5 * (V + V.conj().T)
            V.setflags(write=False)
            cleaned.append((lo, hi, V))
        cleaned.sort(key=lambda p: p[0])
        for (lo1, hi1, _), (lo2, _, _) in zip(cleaned, cleaned[1:]):
            if lo2 < hi1 - 1e-15:
                raise ValidationError("potential pieces overlap")
        object.__setattr__(self, "pieces", tuple(cleaned))
        object.__setattr__(self, "x_max", cleaned[-1][1] if cleaned else 0.0)
        # Eigendecompositions reused by the analytic propagator.
        eigs = []
        for _, _, V in cleaned:
            w, Q = np.linalg.eigh(V)
            eigs.append((w, Q, Q.conj().T))
        object.__setattr__(self, "_eigs", tuple(eigs))

    def piece_at(self, x: float) -> Optional[int]:
        """Index of the piece containing x, or None on free territory."""
        for i, (lo, hi, _) in enumerate(self.pieces):
            if lo <= x < hi:
                return i
        return None

    def value_at(self, x: float) -> np.ndarray:
        i = self.piece_at(x)
        if i is None:
            return np.zeros((self.n, self.n), dtype=complex)
        return self.pieces[i][2]


def free_potential(n: int) -> Potential:
    """The identically zero potential (x_max = 0)."""
    return Potential(n=n, pieces=())


@dataclass(frozen=True)
class StateMatrix:
    """Snapshot (x, psi(x), psi'(x)) of an n x n matrix solution, or a (K, n, n) stack."""

    x: float
    value: np.ndarray
    deriv: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.value, dtype=complex)
        d = np.asarray(self.deriv, dtype=complex)
        if v.shape != d.shape or v.ndim not in (2, 3):
            raise ValidationError("value and deriv must be matrices of equal shape")
        if not (np.all(np.isfinite(v)) and np.all(np.isfinite(d))):
            raise ValidationError("state contains non-finite entries")
        if self.x < 0:
            raise ValidationError("states live on x >= 0")
        for name, a in (("value", v), ("deriv", d)):
            a = np.array(a)
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def n(self) -> int:
        return self.value.shape[-1]


@dataclass(frozen=True)
class SolverConfig:
    """Propagation controls.

    ``method`` selects the stepping backend: "analytic" (exact per-piece
    propagator, default) or "rk45" (adaptive Dormand-Prince cross-check).
    ``a_choice`` picks the matching point a for solutions anchored away
    from the origin; "auto" means x_max, where f(0, a) = I exactly.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_step: float = 0.1
    a_choice: object = "auto"
    method: str = "analytic"

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0 or self.max_step <= 0:
            raise ValidationError("solver tolerances must be positive")
        if self.method not in ("analytic", "rk45"):
            raise ValidationError(f"unknown method {self.method!r}")

    def resolve_a(self, pot: Potential) -> float:
        if self.a_choice == "auto":
            return pot.x_max
        a = float(self.a_choice)
        if a < 0:
            raise ValidationError("matching point a must be >= 0")
        return a


DEFAULT_CONFIG = SolverConfig()


# ---------------------------------------------------------------------------
# Exact stepping within a constant piece.
# ---------------------------------------------------------------------------

def _step(eig, k, h, value, deriv):
    """Exact steps through one constant piece, one per (k, h) pair.

    ``k`` (a complex array) and ``h`` are 0-d or 1-D and broadcast to the
    stack shape S, () or (m,); ``value`` and ``deriv`` are (n, n) or
    S + (n, n), and so is the result.  ``eig`` is the piece's (w, Q, Q'), or
    None on free territory (no rotation).  Raises NumericalError when a step
    overflows.
    """
    w, Q, Qh = (0.0, None, None) if eig is None else eig
    h = np.asarray(h)[..., None]
    with np.errstate(all="ignore"):
        om2 = (k * k)[..., None] - w
        z = np.sqrt(om2) * h
        c, s = np.cos(z), np.sin(z) / z
        small = np.abs(z) < 1e-4
        if small.any():
            z2 = z * z
            c = np.where(small, 1.0 - z2 / 2.0 + z2 * z2 / 24.0 - z2 * z2 * z2 / 720.0, c)
            s = np.where(small, 1.0 - z2 / 6.0 + z2 * z2 / 120.0 - z2 * z2 * z2 / 5040.0, s)
        s = s * h
        c, s, g = c[..., None], s[..., None], (-om2 * s)[..., None]
        if Q is not None:
            value, deriv = Qh @ value, Qh @ deriv
        new_v = c * value + s * deriv
        new_d = g * value + c * deriv
        if Q is not None:
            new_v, new_d = Q @ new_v, Q @ new_d
    if not (np.isfinite(new_v).all() and np.isfinite(new_d).all()):
        raise NumericalError("solution overflows within one exact step: the piece "
                             "is too wide or too deep at this k")
    return new_v, new_d


# ---------------------------------------------------------------------------
# Dormand-Prince 5(4) cross-check backend.
# ---------------------------------------------------------------------------

_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)


def _rk45_segment(V, k, x0, x1, value, deriv, cfg: SolverConfig):
    """Adaptive Dormand-Prince over one smooth segment [x0, x1] (V constant)."""
    n = value.shape[0]
    M = (V if V is not None else np.zeros((n, n))) - (k * k) * np.eye(n)

    def rhs(y):
        return np.vstack([y[n:], M @ y[:n]])

    y = np.vstack([value, deriv]).astype(complex)
    span = x1 - x0
    direction = 1.0 if span >= 0 else -1.0
    remaining = abs(span)
    if remaining == 0:
        return value, deriv
    h = min(cfg.max_step, remaining)
    x = 0.0
    f0 = rhs(y)
    while remaining - x > 1e-15 * max(1.0, remaining):
        h = min(h, remaining - x)
        ks = [f0]
        for i in range(1, 7):
            yi = y + direction * h * sum(a * kk for a, kk in zip(_DP_A[i], ks))
            ks.append(rhs(yi))
        y5 = y + direction * h * sum(b * kk for b, kk in zip(_DP_B5, ks))
        y4 = y + direction * h * sum(b * kk for b, kk in zip(_DP_B4, ks))
        scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(y5))
        err = float(np.sqrt(np.mean((np.abs(y5 - y4) / scale) ** 2)))
        if err <= 1.0:
            x += h
            y = y5
            f0 = ks[6]  # FSAL
        factor = 0.9 * (1.0 / err) ** 0.2 if err > 0 else 5.0
        h *= min(5.0, max(0.2, factor))
        if h < 1e-14 * max(1.0, remaining):
            raise NumericalError(
                f"step-size underflow at x = {x0 + direction * x:.6g}"
            )
    return y[:n], y[n:]


# ---------------------------------------------------------------------------
# Piecewise walk.
# ---------------------------------------------------------------------------

def _breakpoints(pot: Potential, x0: float, x1: float):
    """Segment boundaries between x0 and x1 (either direction), including
    every piece interface strictly inside."""
    cuts = {x0, x1}
    for lo, hi, _ in pot.pieces:
        for b in (lo, hi):
            if min(x0, x1) < b < max(x0, x1):
                cuts.add(b)
    return sorted(cuts, reverse=bool(x1 < x0))


def propagate(
    pot: Potential,
    k,
    state: StateMatrix,
    x_target: float,
    cfg: SolverConfig = DEFAULT_CONFIG,
) -> StateMatrix:
    """Move a solution snapshot to x_target through the piece structure.

    The first-order system (psi, psi')' = (psi', (V - k^2) psi) is advanced
    segment by segment; segments never straddle a piece interface.  ``k``
    may be a 1-D array of K values: the result then holds (K, n, n) stacks,
    one solution per k, and ``state`` may be one start or such a stack.
    """
    if x_target < 0:
        raise ValidationError("x_target must be >= 0")
    k = np.asarray(k, dtype=complex)
    value, deriv = state.value, state.deriv
    if k.ndim:  # one solution per k, also on a walk without steps
        value, deriv = (np.broadcast_to(a, k.shape + a.shape[-2:]) for a in (value, deriv))
    pts = _breakpoints(pot, state.x, x_target)
    for lo, hi in zip(pts, pts[1:]):
        idx = pot.piece_at(0.5 * (lo + hi))
        V = None if idx is None else pot.pieces[idx][2]
        if cfg.method == "analytic":
            eig = None if V is None else pot._eigs[idx]
            value, deriv = _step(eig, k, hi - lo, value, deriv)
        elif k.ndim:
            steps = [_rk45_segment(V, kj, lo, hi, v, d, cfg)
                     for kj, v, d in zip(k, value, deriv)]
            value, deriv = np.array([v for v, _ in steps]), np.array([d for _, d in steps])
        else:
            value, deriv = _rk45_segment(V, k, lo, hi, value, deriv, cfg)
    return StateMatrix(x=x_target, value=value, deriv=deriv)


def jost_solution(
    pot: Potential, k, x: float, cfg: SolverConfig = DEFAULT_CONFIG
) -> StateMatrix:
    """Outgoing solution equal to exp(ikx) I beyond the support.

    Defined for Im k >= 0; ``k`` may be a 1-D array (see :func:`propagate`).
    On x >= x_max the closed form is returned directly; otherwise the edge
    data is propagated backward.
    """
    k = np.asarray(k, dtype=complex)
    if (k.imag < -1e-14).any():
        raise ValidationError("outgoing solution needs Im k >= 0")
    x_edge = max(x, pot.x_max)
    ph = np.exp(1j * k * x_edge)[..., None, None]
    eye = np.eye(pot.n)
    edge = StateMatrix(x=x_edge, value=ph * eye, deriv=(1j * k)[..., None, None] * ph * eye)
    return edge if x >= pot.x_max else propagate(pot, k, edge, x, cfg)


def zero_energy_pair(
    pot: Potential, x: float, cfg: SolverConfig = DEFAULT_CONFIG
) -> Tuple[StateMatrix, StateMatrix]:
    """The bounded/growing zero-energy pair (f(0, .), g(0, .)).

    g carries the exact edge data (x_max I, I); together the 2n columns
    form a fundamental system for the zero-energy equation.
    """
    f0 = jost_solution(pot, 0.0, x, cfg)
    n = pot.n
    edge = StateMatrix(x=pot.x_max, value=pot.x_max * np.eye(n), deriv=np.eye(n))
    g0 = propagate(pot, 0.0, edge, x, cfg)
    return f0, g0


def regular_solution(
    pot: Potential, bc: BCPair, k, x: float, cfg: SolverConfig = DEFAULT_CONFIG
) -> StateMatrix:
    """Solution with data (A, B) at the origin; entire in k (a scalar or 1-D array)."""
    if bc.n != pot.n:
        raise ValidationError("boundary pair and potential sizes differ")
    start = StateMatrix(x=0.0, value=bc.A, deriv=bc.B)
    return propagate(pot, k, start, x, cfg)


def cs_solutions(
    pot: Potential, k: complex, a: float, x: float, cfg: SolverConfig = DEFAULT_CONFIG
) -> Tuple[StateMatrix, StateMatrix]:
    """Cosine-like and sine-like solutions anchored at a:
    C(a) = I, C'(a) = 0 and S(a) = 0, S'(a) = I."""
    n = pot.n
    C = propagate(pot, complex(k), StateMatrix(a, np.eye(n), np.zeros((n, n))), x, cfg)
    S = propagate(pot, complex(k), StateMatrix(a, np.zeros((n, n)), np.eye(n)), x, cfg)
    return C, S


def omega_solution(
    pot: Potential, k: complex, a: float, x: float, cfg: SolverConfig = DEFAULT_CONFIG
) -> StateMatrix:
    """Solution carrying the zero-energy outgoing data at a:
    value f(0, a), derivative f'(0, a).  At k = 0 it reproduces f(0, .)."""
    f0a = jost_solution(pot, 0.0, a, cfg)
    start = StateMatrix(x=a, value=f0a.value, deriv=f0a.deriv)
    return propagate(pot, complex(k), start, x, cfg)


def wronskian(Fstate: StateMatrix, Gstate: StateMatrix, conjugate_first: bool = True) -> np.ndarray:
    """[F; G] = F G' - F' G, with F replaced by its conjugate transpose
    when ``conjugate_first`` is set; stacked states pair slice by slice."""
    if abs(Fstate.x - Gstate.x) > 1e-12 * max(1.0, abs(Fstate.x)):
        raise ValidationError(
            f"states evaluated at different points: {Fstate.x} vs {Gstate.x}"
        )
    if conjugate_first:
        return (Fstate.value.conj().swapaxes(-1, -2) @ Gstate.deriv
                - Fstate.deriv.conj().swapaxes(-1, -2) @ Gstate.value)
    return Fstate.value @ Gstate.deriv - Fstate.deriv @ Gstate.value


def zero_energy_decomposition(
    pot: Potential, bc: BCPair, cfg: SolverConfig = DEFAULT_CONFIG
) -> Tuple[np.ndarray, np.ndarray]:
    """Coefficients (alpha, beta) of phi(0, .) = f(0, .) alpha + g(0, .) beta.

    At x_max the fundamental pair carries exact data, so beta is read off
    as phi'(0, x_max) and alpha as phi(0, x_max) - x_max beta.  beta equals
    the zero-energy Jost matrix.
    """
    phi = regular_solution(pot, bc, 0.0, pot.x_max, cfg)
    beta = np.array(phi.deriv)
    alpha = phi.value - pot.x_max * beta
    return alpha, beta


# ---------------------------------------------------------------------------
# Quadrature of V-weighted moments of the bounded zero-energy solution.
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)  # numpy.polynomial loads on first use, not on import
def _gauss_rule(order: int):
    return np.polynomial.legendre.leggauss(order)


def _integrate_weighted(pot: Potential, a: float, weight, edge_state, cfg: SolverConfig,
                        order: int = 12, tol: float = 1e-11, max_levels: int = 6):
    """Refined Gauss-Legendre quadrature of weight(y) V(y) psi(y) over the
    support beyond a, psi a zero-energy solution; panels double until the
    value settles.

    ``edge_state(lo, hi)`` gives psi at the edge of the piece [lo, hi] that
    a walk to a point inside it enters through.  Every node of a level is
    reached from there by one stacked step, the last step of such a walk.
    """
    xs, ws = _gauss_rule(order)
    n = pot.n
    total = np.zeros((n, n), dtype=complex)
    for (lo, hi, V), eig in zip(pot.pieces, pot._eigs):
        lo = max(lo, a)
        if hi <= lo:
            continue
        edge = edge_state(lo, hi)
        prev = None
        panels = 1
        for _ in range(max_levels):
            edges = np.linspace(lo, hi, panels + 1)
            mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
            ys = (mid[:, None] + half[:, None] * xs).ravel()
            coef = (half[:, None] * ws).ravel() * weight(ys)
            if cfg.method == "analytic":
                psi = _step(eig, np.zeros(1, complex), ys - edge.x, edge.value, edge.deriv)[0]
            else:
                psi = np.array([propagate(pot, 0.0, edge, y, cfg).value for y in ys])
            acc = (coef[:, None, None] * (V @ psi)).sum(axis=0)
            if prev is not None and np.linalg.norm(acc - prev, 2) <= tol:
                prev = acc
                break
            prev = acc
            panels *= 2
        total += prev
    return total


def moment_identities_residual(
    pot: Potential, a: float, cfg: SolverConfig = DEFAULT_CONFIG
) -> Tuple[float, float]:
    """Residuals of the two tail moments of V against the bounded solution.

    The zeroth moment of V f(0, .) over (a, infinity) must cancel f'(0, a);
    the first moment must equal f(0, a) - a f'(0, a) - I.  Both are checked
    by independent quadrature and returned as norms.
    """
    f0a = jost_solution(pot, 0.0, a, cfg)

    def edge(lo, hi):
        return jost_solution(pot, 0.0, hi, cfg)

    m0 = _integrate_weighted(pot, a, lambda y: 1.0, edge, cfg)
    m1 = _integrate_weighted(pot, a, lambda y: y, edge, cfg)
    n = pot.n
    r1 = float(np.linalg.norm(m0 + f0a.deriv, 2))
    r2 = float(np.linalg.norm(m1 - f0a.value + a * f0a.deriv + np.eye(n), 2))
    return r1, r2


# ---------------------------------------------------------------------------
# JSON encoding.
# ---------------------------------------------------------------------------

def potential_to_json(pot: Potential) -> dict:
    return {
        "n": pot.n,
        "pieces": [
            {"x_lo": lo, "x_hi": hi, "V": complex_matrix_to_json(V)}
            for lo, hi, V in pot.pieces
        ],
    }


def potential_from_json(data: dict, path: str = "potential") -> Potential:
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: expected an object")
    extra = set(data) - {"n", "pieces"}
    if extra:
        raise ValidationError(f"{path}: unknown keys {sorted(extra)}")
    n = data.get("n")
    if not isinstance(n, int) or n <= 0:
        raise ValidationError(f"{path}.n: must be a positive integer")
    pieces = []
    for i, piece in enumerate(data.get("pieces", [])):
        if not isinstance(piece, dict):
            raise ValidationError(f"{path}.pieces[{i}]: expected an object")
        extra = set(piece) - {"x_lo", "x_hi", "V"}
        if extra:
            raise ValidationError(f"{path}.pieces[{i}]: unknown keys {sorted(extra)}")
        try:
            lo = float(piece["x_lo"])
            hi = float(piece["x_hi"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"{path}.pieces[{i}]: x_lo/x_hi must be numbers") from exc
        V = complex_matrix_from_json(piece.get("V"), f"{path}.pieces[{i}].V")
        pieces.append((lo, hi, V))
    try:
        return Potential(n=n, pieces=tuple(pieces))
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
