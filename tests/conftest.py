"""Shared helpers for the test suite, among them the reference propagator
(``rk45_propagate``): an adaptive Dormand-Prince integrator that shares no
code with the exact per-piece step of :mod:`halfline.solver`."""

import itertools
from typing import List, Optional, Tuple

import numpy as np
import pytest

import halfline as hl
from halfline import exactalg as xa
from halfline.bc import BCPair
from halfline.errors import JordanAmbiguityError, NumericalError, ValidationError
from halfline.lowenergy import (EPS_EIG, EPS_RANK, JordanData, _basis, _cluster_eigenvalues,
                                _complex_jordan, _exact_jordan, _jordan_chains)
from halfline.scattering import COND_CAP
from halfline.solver import Potential, StateMatrix, jost_solution


def rand_herm(rng, n, scale=1.0):
    M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * 0.5 * (M + M.conj().T)


def rand_unitary(rng, n):
    X = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    Q, R = np.linalg.qr(X)
    return Q * (np.diagonal(R) / np.abs(np.diagonal(R)))


def rand_bc(rng, n):
    """A random valid boundary pair via the unitary encoding."""
    return hl.from_unitary(hl.UnitaryBC(U=rand_unitary(rng, n)))


def rand_potential(rng, n, pieces=2, scale=1.0, gap=0.2):
    built = []
    x = 0.0
    for _ in range(pieces):
        lo = x + gap * rng.uniform(0.0, 1.0)
        hi = lo + rng.uniform(0.3, 0.8)
        built.append((lo, hi, rand_herm(rng, n, scale)))
        x = hi
    return hl.Potential(n=n, pieces=tuple(built))


def piece_edges(pot: Potential) -> List[float]:
    """The distinct ends of ``pot``'s pieces, increasing."""
    return sorted({b for lo, hi, _ in pot.pieces for b in (lo, hi)})


def scalar_well(v0=1.0, width=1.0):
    return hl.Potential(n=1, pieces=((0.0, width, np.array([[-v0]])),))


def tuned_resonance_well(width=1.0, lo=2.0, hi=3.0, iters=80):
    """Bisect the well depth until the Dirichlet zero-energy Jost scalar
    vanishes (threshold resonance)."""
    bc = hl.dirichlet(1)

    def j0(v0):
        pot = hl.Potential(n=1, pieces=((0.0, width, np.array([[-v0]])),))
        return hl.jost_matrix_zero(pot, bc)[0, 0].real

    flo = j0(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fmid = j0(mid)
        if flo * fmid <= 0:
            hi = mid
        else:
            lo, flo = mid, fmid
    v0 = 0.5 * (lo + hi)
    return hl.Potential(n=1, pieces=((0.0, width, np.array([[-v0]])),))


def exceptional_bc(pot, Xi):
    """Vertex condition whose zero-energy Jost matrix kills a prescribed
    kernel of dimension m.

    Columns of Xi prescribe bounded zero-energy solutions f(0, .) xi; their
    boundary data spans an isotropic subspace of the boundary form (the
    zero-energy pairings vanish), which is completed to a Lagrangian basis.
    The resulting (A, B) is the column arrangement of that basis, so the
    first m coordinate vectors lie in ker J(0).
    """
    n = pot.n
    Xi = np.atleast_2d(np.asarray(Xi, dtype=complex))
    if Xi.shape[0] != n:
        Xi = Xi.T
    f00 = hl.jost_solution(pot, 0.0, 0.0)
    W = np.vstack([f00.value @ Xi, f00.deriv @ Xi])
    basis = list(np.linalg.qr(W)[0].T)  # orthonormal span of the boundary data
    Om = np.zeros((2 * n, 2 * n), dtype=complex)
    Om[:n, n:] = np.eye(n)
    Om[n:, :n] = -np.eye(n)
    while len(basis) < n:
        C = np.vstack([np.array([b.conj() for b in basis]),
                       np.array([(Om.conj().T @ b).conj() for b in basis])])
        _, s, Vh = np.linalg.svd(C)
        null_dim = 2 * n - int(np.sum(s > 1e-12 * s[0]))
        N = Vh[2 * n - null_dim:].conj().T
        H = 1j * N.conj().T @ Om @ N
        lam, Q = np.linalg.eigh(0.5 * (H + H.conj().T))
        if abs(lam[0]) < 1e-10 or abs(lam[-1]) < 1e-10:
            x = Q[:, int(np.argmin(np.abs(lam)))]
        else:
            x = Q[:, -1] / np.sqrt(lam[-1]) + Q[:, 0] / np.sqrt(-lam[0])
        v = N @ x
        basis.append(v / np.linalg.norm(v))
    M = np.column_stack(basis)
    return hl.BCPair(n=n, A=M[:n, :], B=M[n:, :])


def exact_jordan_form(M) -> JordanData:
    """Jordan data of M from the exact Gaussian-rational backend (entries
    must be exactly representable), as complex arrays."""
    if isinstance(M, np.ndarray) and M.dtype != object:
        M = M.astype(complex)
    Mq = xa.mat(M)
    return _complex_jordan(_exact_jordan(Mq))


def per_centre_jordan(M: np.ndarray) -> JordanData:
    """The numeric Jordan backend as one loop over the cluster centres, each
    taking the SVD of its own M - lam I and projecting every pick by QR:
    the reference that ``lowenergy.jordan_form``, which takes the first
    rung's SVDs as one stack, must match bit for bit, refusals included."""
    n = M.shape[0]
    scale = max(float(np.linalg.norm(M, 2)), 1.0)
    radius = EPS_EIG * scale
    vals = np.linalg.eigvals(M)
    centers = []
    for idx in _cluster_eigenvalues(vals, radius):
        c = complex(np.mean(vals[idx]))
        if abs(c) <= max(radius, np.finfo(float).tiny):
            c = 0.0 + 0.0j
        diam = max((abs(vals[i] - vals[j]) for i in idx for j in idx), default=0.0)
        centers.append((c, len(idx), diam))
    gaps = [abs(a[0] - b[0]) for a, b in itertools.combinations(centers, 2)]

    def refuse(message):
        return JordanAmbiguityError(message, gaps=sorted(gaps))

    if any(g < 10 * radius for g in gaps):
        raise refuse("eigenvalue clusters are closer than 10x the clustering radius")

    def null_basis(N, floor):
        _, s, Vh = np.linalg.svd(N)
        tol = EPS_RANK * max(float(s[0]), floor, np.finfo(float).tiny)
        return Vh[int(np.sum(s > tol)):].conj().T

    def pick(lower, carried, candidates, need, j):
        if need < 0:
            raise refuse(f"inconsistent staircase at level {j} for eigenvalue {center:.6g}")
        Q = np.linalg.qr(np.hstack(
            [lower] + [c.reshape(-1, 1) / np.linalg.norm(c) for c in carried]))[0]
        accepted: List[np.ndarray] = []
        residuals = [cand - Q @ (Q.conj().T @ cand) for cand in candidates]
        residuals.sort(key=lambda r: -float(np.linalg.norm(r)))
        for r in residuals:
            for acc in accepted:
                r = r - acc * (acc.conj() @ r)
            nr = float(np.linalg.norm(r))
            if nr > 1e-7:
                accepted.append(r / nr)
                if len(accepted) == need:
                    break
        if len(accepted) != need:
            raise refuse(f"could not extract {need} independent chain generators "
                         f"at level {j} for eigenvalue {center:.6g}")
        return accepted

    chains = []
    for center, m_alg, diam in centers:
        if diam > 5 * radius:
            raise refuse(f"cluster at {center:.6g} has diameter {diam:.3e} "
                         f"above 5x the clustering radius")
        found, kernels = _jordan_chains(
            M - center * np.eye(n), lambda power, j: null_basis(power, scale**j), pick, m_alg)
        dim = kernels[-1].shape[1]
        if dim != m_alg:
            raise refuse(f"rank staircase for eigenvalue {center:.6g} stalled at "
                         f"{dim} of {m_alg} directions")
        for vecs in found:
            eig = vecs[0]
            nrm = np.linalg.norm(eig)
            if nrm == 0:
                raise NumericalError("degenerate chain eigenvector")
            piv = int(np.argmax(np.abs(eig) > 1e-8 * np.max(np.abs(eig))))
            phase = eig[piv] / abs(eig[piv])
            chains.append((center, [v / (nrm * phase) for v in vecs], piv))
    Smat, chain_info = _basis(chains)
    if np.linalg.cond(Smat) > COND_CAP:
        raise JordanAmbiguityError("Jordan basis is numerically singular")
    return JordanData(np.array(M), Smat, np.linalg.inv(Smat), chain_info)


def free_closed_forms(bc: BCPair, k: complex) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Closed forms for the zero potential: J = B - ikA and, when B - ikA
    is safely invertible, S = -(B + ikA)(B - ikA)^(-1)."""
    k = complex(k)
    J = bc.B - 1j * k * bc.A
    S = None
    if np.linalg.cond(J) <= COND_CAP:
        S = np.linalg.solve(J.T, -(bc.B + 1j * k * bc.A).T).T
    return J, S


def scalar_jost_function(pot: Potential, theta: float, k: complex) -> complex:
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
    f = jost_solution(pot, k, 0.0)
    if abs(theta - np.pi) < 1e-15:
        return complex(f.value[0, 0])
    return complex(-1j * (f.deriv[0, 0] + f.value[0, 0] / np.tan(theta)))


def scalar_smatrix(pot: Potential, theta: float, k: float) -> complex:
    """Single-channel scattering coefficient in the classical convention.

    -F(-k)/F(k) for theta in (0, pi) and +F(-k)/F(k) at theta = pi, so the
    free Dirichlet value is +1 here.  The matrix convention (which
    normalizes against a Neumann comparison operator) agrees for interior
    angles and flips the sign at the Dirichlet endpoint.
    """
    k = float(k)
    if k == 0.0:
        raise ValidationError("the zero-energy point is handled separately")
    num = scalar_jost_function(pot, theta, -k)
    den = scalar_jost_function(pot, theta, k)
    ratio = num / den
    return complex(ratio if abs(theta - np.pi) < 1e-15 else -ratio)


# ---------------------------------------------------------------------------
# Reference propagator: adaptive Dormand-Prince 5(4) over the first-order
# 2n-row system, one k at a time, segment by segment.
# ---------------------------------------------------------------------------

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


def _rk45_segment(V, k, x0, x1, value, deriv, abs_tol=1e-12, rel_tol=1e-10, max_step=0.1):
    """Adaptive Dormand-Prince over one smooth segment [x0, x1] (V constant).

    Raises NumericalError once the error estimate is not finite (the
    solution overflowed), where a NaN would neither accept nor shrink a step.
    """
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
    h = min(max_step, remaining)
    x = 0.0
    f0 = rhs(y)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow shows in err
        while remaining - x > 1e-15 * max(1.0, remaining):
            h = min(h, remaining - x)
            ks = [f0]
            for i in range(1, 7):
                yi = y + direction * h * sum(a * kk for a, kk in zip(_DP_A[i], ks))
                ks.append(rhs(yi))
            y5 = y + direction * h * sum(b * kk for b, kk in zip(_DP_B5, ks))
            y4 = y + direction * h * sum(b * kk for b, kk in zip(_DP_B4, ks))
            scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y5))
            err = float(np.sqrt(np.mean((np.abs(y5 - y4) / scale) ** 2)))
            if not np.isfinite(err):
                raise NumericalError(f"error estimate {err} is not finite at x = {x0 + direction * x:.6g}")
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


#: Reference tolerances where a test compares values with it.
RK45_TIGHT = dict(abs_tol=1e-12, rel_tol=1e-12, max_step=0.05)


def rk45_propagate(pot: Potential, k, state: StateMatrix, x_target: float, **tol) -> StateMatrix:
    """``hl.propagate`` by the reference: every segment between piece edges
    integrated by :func:`_rk45_segment` (``tol``: abs_tol, rel_tol,
    max_step), each k of a 1-D ``k`` on its own."""
    lo, hi = sorted((state.x, x_target))
    cuts = sorted({lo, hi, *(b for p in pot.pieces for b in p[:2] if lo < b < hi)})
    if x_target < state.x:
        cuts.reverse()
    k = np.asarray(k, dtype=complex)
    ks = k.reshape(-1)
    value = np.broadcast_to(state.value, ks.shape + (pot.n, pot.n)).copy()
    deriv = np.broadcast_to(state.deriv, value.shape).copy()
    for x0, x1 in zip(cuts, cuts[1:]):
        idx = pot.piece_at(0.5 * (x0 + x1))
        V = None if idx is None else pot.pieces[idx][2]
        for j, kj in enumerate(ks):
            value[j], deriv[j] = _rk45_segment(V, kj, x0, x1, value[j], deriv[j], **tol)
    shape = k.shape + (pot.n, pot.n)
    return StateMatrix(x_target, value.reshape(shape), deriv.reshape(shape))


def rk45_jost_solution(pot: Potential, k, x: float, **tol) -> StateMatrix:
    """f(k, x) by the reference, from the closed form at the support edge."""
    return rk45_propagate(pot, k, jost_solution(pot, k, max(x, pot.x_max)), x, **tol)


def rk45_regular_solution(pot: Potential, bc: BCPair, k, x: float, **tol) -> StateMatrix:
    """phi(k, x) by the reference, from (A, B) at 0."""
    return rk45_propagate(pot, k, StateMatrix(0.0, bc.A, bc.B), x, **tol)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
