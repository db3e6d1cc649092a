"""Zero-energy limit of the scattering matrix via the Jordan structure of J(0).

For real k != 0 the scattering matrix S(k) = -J(-k) J(k)^(-1) always
exists.  At k = 0 the Jost matrix may be singular (the exceptional case),
yet S(k) has a limit S(0), and that limit has a closed form assembled from
the Jordan decomposition of J(0):

1.  Decompose J(0) with a Jordan basis, zero-eigenvalue chains first.
    mu = geometric and nu = algebraic multiplicity of the eigenvalue 0,
    kappa = number of chains, Smat = basis columns, Sinv = Smat^(-1).
2.  Build permutations P1 (columns) and P2 (rows) that gather the nilpotent
    superdiagonal ones of the zero blocks into an identity block, so that
    P2 (Sinv J(0) Smat) P1 = diag(0_mu, I_(nu-mu), nonzero Jordan blocks).
3.  With R = f(0,a)^(-1) phi(0,a), the rescaled Jost matrix
    F(k) = f(0,a)' [f(-k*,a)']^(-1) J(k)  satisfies F(k) = J(0) - ik R + o(k),
    so the permuted similarity Z(k) = P2 Sinv F(k) Smat P1 has blocks
        Z = [[k A1 + o(k), k B1 + o(k)], [k C1 + o(k), D0 + O(k)]]
    split at row/column mu, where A1, B1, C1 are read off from
    -i P2 (Sinv R Smat) P1 and D0 = diag(I_(nu-mu), nonzero blocks).
    A1 and D0 are invertible: A1 is (-i times) the matrix of the bijection
    u -> R u from ker J(0) onto ker J(0)' in the chain bases.
4.  Then
        S(0) = Smat P2^(-1) [[I_mu, 0], [2 C1 A1^(-1), -I_(n-mu)]] P2 Sinv,
    an involution (S(0)^2 = I), and k J(k)^(-1) tends to the residue
        L_(-1) = Smat P1 [[A1^(-1), 0], [0, 0]] P2 Sinv.

Generic case mu = 0 gives S(0) = -I; the fully exceptional case mu = n
gives S(0) = I.

The numeric and the exact arithmetic backend differ only in their inputs:
J(0), R, the identity in their scalar type and the inverse they use for
A1.  Each has its own Jordan decomposition (step 1); steps 2-4 are one
``_assemble``, written with numpy operators, which runs on complex arrays
or on object arrays of Gaussian rationals and returns a whole
:class:`LowEnergyExpansion`.  The numeric Jordan backend clusters
eigenvalues at a relative radius and runs an SVD rank staircase; it
reports failure when the defective structure is ambiguous at the
thresholds.  The exact backend works over Gaussian rationals (entries must
be exactly representable); eigenvalue candidates are proposed numerically,
snapped to small-denominator rationals, and accepted only if the shifted
matrix is exactly singular.  Chain ordering is deterministic in both
backends: zero chains first, remaining eigenvalues by (Re, Im), and inside
a cluster by the pivot position of the chain eigenvector.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import exactalg as xa
from .bc import BCPair
from .errors import JordanAmbiguityError, NumericalError, ValidationError
from .scattering import (
    COND_CAP,
    SMatrixEvaluation,
    _cond_error,
    _first_error,
    _smatrix_stack,
    jost_matrix,
    jost_matrix_zero,
)
from .solver import (
    DEFAULT_CONFIG,
    Potential,
    SolverConfig,
    StateMatrix,
    _Walks,
    jost_solution,
)

__all__ = [
    "JordanData",
    "ExactJordan",
    "LowEnergyExpansion",
    "LowEnergyResult",
    "jordan_form",
    "z_of_k",
    "zero_energy_pipeline",
    "exact_free_pipeline",
    "jost_inverse_asymptotics",
]

EPS_EIG = 1e-8
EPS_RANK = 1e-10
DEFAULT_PROBES = (1e-1, 1e-2, 1e-3)


# ---------------------------------------------------------------------------
# Jordan data containers.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExactJordan:
    """Exact (Gaussian-rational) Jordan decomposition payload."""

    M: np.ndarray
    Smat: np.ndarray
    Sinv: np.ndarray
    chains: Tuple[Tuple[xa.QC, int], ...]


@dataclass(frozen=True)
class JordanData:
    """Jordan decomposition of a matrix M with zero chains ordered first.

    Columns of Smat are the chain vectors in chain order (eigenvector
    first within each chain); rows of Sinv form the adjoint basis.
    ``chains`` lists (eigenvalue, length) per chain; mu/nu are the
    geometric/algebraic multiplicities of the eigenvalue zero and kappa
    the total number of chains.
    """

    M: np.ndarray
    Smat: np.ndarray
    Sinv: np.ndarray
    chains: Tuple[Tuple[complex, int], ...]
    mu: int
    nu: int
    kappa: int
    mode: str
    exact: Optional[ExactJordan] = field(default=None, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.M.shape[0]

    def jordan_matrix(self) -> np.ndarray:
        """The block-diagonal Jordan form implied by ``chains``."""
        return _jordan_matrix(self.chains, np.eye(self.n, dtype=complex))


def _jordan_matrix(chains, eye):
    """``eye`` with its trailing diagonal block replaced by the Jordan blocks
    of the (eigenvalue, length) ``chains``, in order.

    ``eye`` is an identity in the backend's scalar type (complex or
    Gaussian-rational); the superdiagonal ones are copied from it.
    """
    J = eye.copy()
    pos = len(eye) - sum(length for _, length in chains)
    for lam, length in chains:
        for i in range(pos, pos + length):
            J[i, i] = lam
            if i > pos:
                J[i - 1, i] = eye[i, i]
        pos += length
    return J


@dataclass(frozen=True)
class LowEnergyExpansion:
    """Permutations, slope matrix R, extracted blocks, and S(0), as complex
    arrays or, from :func:`exact_free_pipeline`, object arrays of
    :class:`exactalg.QC`."""

    P1: np.ndarray
    P2: np.ndarray
    R: np.ndarray
    A1: np.ndarray
    B1: np.ndarray
    C1: np.ndarray
    D0: np.ndarray
    S0: np.ndarray


@dataclass(frozen=True)
class LowEnergyResult:
    """Full output of the zero-energy pipeline for one configuration."""

    jordan: JordanData
    expansion: LowEnergyExpansion
    s0: SMatrixEvaluation
    involution_residual: float
    unitarity_residual: float
    continuity_probes: Tuple[Tuple[float, float], ...]
    exact: Optional[LowEnergyExpansion] = field(default=None, repr=False, compare=False)


# ---------------------------------------------------------------------------
# Numeric Jordan backend.
# ---------------------------------------------------------------------------

def _null_basis(M: np.ndarray, rel_tol: float, floor: float = 0.0) -> np.ndarray:
    """Orthonormal kernel basis (columns) from singular values below a
    threshold relative to max(largest singular value, floor)."""
    _, s, Vh = np.linalg.svd(M)
    if s.size == 0:
        return np.zeros((M.shape[1], 0))
    tol = rel_tol * max(float(s[0]), floor, np.finfo(float).tiny)
    r = int(np.sum(s > tol))
    return Vh[r:].conj().T


def _cluster_eigenvalues(vals: np.ndarray, radius: float):
    """Transitive-closure clustering of eigenvalues at a given radius."""
    m = vals.size
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(m):
        for j in range(i + 1, m):
            if abs(vals[i] - vals[j]) <= radius:
                pi, pj = find(i), find(j)
                if pi != pj:
                    parent[pi] = pj
    groups = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)
    return [np.array(idx, dtype=int) for idx in groups.values()]


def _numeric_jordan(M: np.ndarray, eps_eig: float, eps_rank: float) -> JordanData:
    # Thresholds are taken relative to max(||M||, 1): the inputs here are
    # O(1)-scaled Jost matrices, and a purely relative radius could never
    # classify an all-but-zero matrix (a tuned resonance) as exceptional.
    n = M.shape[0]
    scale = max(float(np.linalg.norm(M, 2)), 1.0)
    radius = eps_eig * scale
    vals = np.linalg.eigvals(M)
    clusters = _cluster_eigenvalues(vals, radius)
    centers = []
    for idx in clusters:
        c = complex(np.mean(vals[idx]))
        if abs(c) <= max(radius, np.finfo(float).tiny):
            c = 0.0 + 0.0j
        diam = max((abs(vals[i] - vals[j]) for i in idx for j in idx), default=0.0)
        centers.append((c, len(idx), diam))
    gaps = [
        abs(centers[i][0] - centers[j][0])
        for i in range(len(centers))
        for j in range(i + 1, len(centers))
    ]
    if any(g < 10 * radius for g in gaps):
        raise JordanAmbiguityError(
            "eigenvalue clusters are closer than 10x the clustering radius",
            gaps=sorted(gaps),
        )

    chains = []  # (eigenvalue, [vectors eigvec..top])
    for center, m_alg, diam in centers:
        if diam > 5 * radius:
            raise JordanAmbiguityError(
                f"cluster at {center:.6g} has diameter {diam:.3e} "
                f"above 5x the clustering radius", gaps=sorted(gaps),
            )
        N = M - center * np.eye(n)
        dims = [0]
        bases = [np.zeros((n, 0))]
        power = np.eye(n, dtype=complex)
        for j in range(1, n + 1):
            power = power @ N
            basis = _null_basis(power, eps_rank, floor=scale**j)
            dims.append(basis.shape[1])
            bases.append(basis)
            if dims[-1] == m_alg:
                break
            if dims[-1] == dims[-2]:
                raise JordanAmbiguityError(
                    f"rank staircase for eigenvalue {center:.6g} stalled at "
                    f"{dims[-1]} of {m_alg} directions", gaps=sorted(gaps),
                )
        p = len(dims) - 1
        if dims[p] != m_alg:
            raise JordanAmbiguityError(
                f"staircase for eigenvalue {center:.6g} reached {dims[p]} "
                f"directions, expected {m_alg}", gaps=sorted(gaps),
            )
        gens: List[Tuple[np.ndarray, int]] = []
        for j in range(p, 0, -1):
            want = dims[j] - dims[j - 1]
            carried = [
                np.linalg.matrix_power(N, L - j) @ w for w, L in gens if L > j
            ]
            need = want - len(carried)
            if need < 0:
                raise JordanAmbiguityError(
                    f"inconsistent staircase at level {j} for eigenvalue "
                    f"{center:.6g}", gaps=sorted(gaps),
                )
            if need == 0:
                continue
            obstruction = [bases[j - 1]] if bases[j - 1].shape[1] else []
            obstruction += [c.reshape(-1, 1) / np.linalg.norm(c) for c in carried]
            Q = (
                np.linalg.qr(np.hstack(obstruction))[0]
                if obstruction
                else np.zeros((n, 0))
            )
            accepted: List[np.ndarray] = []
            candidates = [bases[j][:, t] for t in range(bases[j].shape[1])]
            residuals = [
                (float(np.linalg.norm(cand - Q @ (Q.conj().T @ cand))), cand)
                for cand in candidates
            ]
            residuals.sort(key=lambda t: -t[0])
            for _, cand in residuals:
                r = cand - Q @ (Q.conj().T @ cand)
                for acc in accepted:
                    r = r - acc * (acc.conj() @ r)
                nr = float(np.linalg.norm(r))
                if nr > 1e-7:
                    accepted.append(r / nr)
                    if len(accepted) == need:
                        break
            if len(accepted) != need:
                raise JordanAmbiguityError(
                    f"could not extract {need} independent chain generators "
                    f"at level {j} for eigenvalue {center:.6g}",
                    gaps=sorted(gaps),
                )
            gens.extend((w, j) for w in accepted)
        for w, L in gens:
            vecs = [w]
            for _ in range(L - 1):
                vecs.append(N @ vecs[-1])
            vecs.reverse()  # eigenvector first
            eig = vecs[0]
            nrm = np.linalg.norm(eig)
            if nrm == 0:
                raise NumericalError("degenerate chain eigenvector")
            piv = int(np.argmax(np.abs(eig) > 1e-8 * np.max(np.abs(eig))))
            phase = eig[piv] / abs(eig[piv])
            vecs = [v / (nrm * phase) for v in vecs]
            chains.append((center, vecs, piv))

    chains.sort(key=_chain_sort_key)
    cols = [v for _, vecs, _ in chains for v in vecs]
    Smat = np.column_stack(cols)
    if np.linalg.cond(Smat) > COND_CAP:
        raise JordanAmbiguityError("Jordan basis is numerically singular")
    Sinv = np.linalg.inv(Smat)
    chain_info = tuple((complex(lam), len(vecs)) for lam, vecs, _ in chains)
    mu = sum(1 for lam, length in chain_info if lam == 0)
    nu = sum(length for lam, length in chain_info if lam == 0)
    return JordanData(
        M=np.array(M), Smat=Smat, Sinv=Sinv, chains=chain_info,
        mu=mu, nu=nu, kappa=len(chain_info), mode="numeric",
    )


def _chain_sort_key(chain):
    """Zero chains first, then by (Re, Im) of the eigenvalue, pivot position
    of the eigenvector, and longest chain first; ``lam`` is complex or QC."""
    lam, vecs, piv = chain
    z = complex(lam)
    return (0 if lam == 0 else 1, (z.real, z.imag), piv, -len(vecs))


# ---------------------------------------------------------------------------
# Exact Jordan backend.
# ---------------------------------------------------------------------------

def _exact_jordan(Mq: np.ndarray) -> ExactJordan:
    n = len(Mq)
    raw = np.linalg.eigvals(Mq.astype(complex))
    candidates: List[xa.QC] = []
    for v in raw:
        cand = xa.snap(complex(v))
        if all(cand != c for c in candidates):
            candidates.append(cand)

    eye = np.eye(n, dtype=object)
    verified = []
    total = 0
    for lam in candidates:
        N = Mq - eye * lam
        # kernels[j] holds a basis of ker N^j; they grow until the chains end.
        powers, kernels = [eye], [eye[:, :0]]
        while True:
            power = xa.matmul(powers[-1], N)
            kernel = xa.nullspace(power)
            if kernel.shape[1] == kernels[-1].shape[1]:
                break
            powers.append(power)
            kernels.append(kernel)
        if len(kernels) > 1:  # else N is invertible: lam is no eigenvalue
            verified.append((lam, N, powers, kernels))
            total += kernels[-1].shape[1]
    if total != n:
        raise NumericalError(
            "exact mode failed: eigenvalues are not Gaussian rationals "
            "within the snapping denominator (use numeric mode)"
        )

    chains = []
    for lam, N, powers, kernels in verified:
        gens: List[Tuple[np.ndarray, int]] = []
        for j in range(len(kernels) - 1, 0, -1):
            want = kernels[j].shape[1] - kernels[j - 1].shape[1]
            carried = [xa.matmul(powers[L - j], w) for w, L in gens if L > j]
            need = want - len(carried)
            if need <= 0:
                continue
            obstruction = np.column_stack([kernels[j - 1]] + carried)
            span = xa.rank(obstruction)
            picked = 0
            for cand in kernels[j].T:
                if picked == need:
                    break
                grown = np.column_stack([obstruction, cand])
                if xa.rank(grown) > span:  # cand is independent of the obstruction
                    obstruction, span = grown, span + 1
                    gens.append((cand, j))
                    picked += 1
            if picked != need:
                raise NumericalError(
                    "exact Jordan staircase failed to find enough generators"
                )
        for w, L in gens:
            vecs = [w]
            for _ in range(L - 1):
                vecs.append(xa.matmul(N, vecs[-1]))
            vecs.reverse()
            piv = next(i for i, x in enumerate(vecs[0]) if x)
            chains.append((lam, vecs, piv))

    chains.sort(key=_chain_sort_key)
    Smat = np.column_stack([v for _, vecs, _ in chains for v in vecs])
    Sinv = xa.inverse(Smat)
    chain_info = tuple((lam, len(vecs)) for lam, vecs, _ in chains)
    return ExactJordan(M=Mq, Smat=Smat, Sinv=Sinv, chains=chain_info)


def jordan_form(
    M,
    mode: str = "numeric",
    eps_eig: float = EPS_EIG,
    eps_rank: float = EPS_RANK,
) -> JordanData:
    """Jordan decomposition with zero chains first.

    ``mode`` selects the numeric backend (eigenvalue clustering at relative
    radius ``eps_eig`` plus SVD staircase at ``eps_rank``) or the exact
    Gaussian-rational backend (entries must be exactly representable).
    """
    if mode == "numeric":
        Mc = np.asarray(M, dtype=complex)
        if Mc.ndim != 2 or Mc.shape[0] != Mc.shape[1]:
            raise ValidationError("jordan_form needs a square matrix")
        return _numeric_jordan(Mc, eps_eig, eps_rank)
    if mode == "exact":
        if isinstance(M, np.ndarray) and M.dtype != object:
            M = M.astype(complex)
        payload = _exact_jordan(xa.mat(M))
        zero = [length for lam, length in payload.chains if not lam]
        return JordanData(
            M=payload.M.astype(complex),
            Smat=payload.Smat.astype(complex),
            Sinv=payload.Sinv.astype(complex),
            chains=tuple((complex(lam), length) for lam, length in payload.chains),
            mu=len(zero), nu=sum(zero), kappa=len(payload.chains), mode="exact",
            exact=payload,
        )
    raise ValidationError(f"unknown Jordan mode {mode!r}")


# ---------------------------------------------------------------------------
# Permutations.
# ---------------------------------------------------------------------------

def _perm_indices(lengths: Sequence[int]) -> Tuple[List[int], List[int]]:
    """1-based column targets q and row sources sigma for the zero block.

    q lists the basis positions of the chain eigenvectors, then of the
    generalized vectors; sigma lists the positions of the chain tails, then
    of the non-tail vectors.  For slot t of the identity block both follow
    the chain alpha of the unique (chain, height) solution of the index
    equation cum[alpha - 1] - alpha + j = t with 2 <= j <= lengths[alpha - 1].
    """
    mu = len(lengths)
    nu = sum(lengths)
    cum = [0]
    for L in lengths:
        cum.append(cum[-1] + L)
    q = [cum[alpha] + 1 for alpha in range(mu)]
    sigma = [cum[alpha + 1] for alpha in range(mu)]
    for t in range(1, nu - mu + 1):
        alpha = next(
            (alpha for alpha in range(1, mu + 1)
             if 2 <= t - cum[alpha - 1] + alpha <= lengths[alpha - 1]),
            None,
        )
        if alpha is None:
            raise NumericalError("permutation index equation has no solution")
        q.append(t + alpha)
        sigma.append(t + alpha - 1)
    return q, sigma


def _perm_gathers(chains, n: int) -> Tuple[List[int], List[int]]:
    """0-based gathers (cols, rows) with M @ P1 = M[:, cols] and
    P2 @ M = M[rows] for the zero chains among the (eigenvalue, length)
    ``chains`` of an n x n matrix."""
    lengths = [length for lam, length in chains if not lam]
    q, sigma = _perm_indices(lengths)
    tail = list(range(sum(lengths), n))
    return [j - 1 for j in q] + tail, [i - 1 for i in sigma] + tail


# ---------------------------------------------------------------------------
# Pipeline pieces.
# ---------------------------------------------------------------------------

def _r_matrix(f0: StateMatrix, phi: StateMatrix) -> np.ndarray:
    """R = f(0, a)^(-1) phi(0, a), the slope of the rescaled Jost matrix,
    from the states f(0, a) and phi(0, a).  At a = x_max, f(0, a) = I."""
    if np.linalg.cond(f0.value) > COND_CAP:
        raise NumericalError(f"f(0, {f0.x:g}) is numerically singular; enlarge a")
    return np.linalg.solve(f0.value, phi.value)


def _checked_inverse(A1: np.ndarray) -> np.ndarray:
    if np.linalg.cond(A1) > COND_CAP:
        raise NumericalError(
            "kernel block A1 is numerically singular: Jordan data and R "
            "do not belong to the same configuration"
        )
    return np.linalg.inv(A1)


def _assemble(Smat, Sinv, chains, R, eye, inv) -> LowEnergyExpansion:
    """Steps 2-4 of the construction: P1, P2, A1, B1, C1, D0 and S(0).

    Shared by both arithmetic backends: complex arrays with a checked
    ``np.linalg.inv``, or object arrays of Gaussian rationals with an exact
    inverse; ``eye`` is the identity in the backend's scalar type.
    ``chains`` lists (eigenvalue, length) in the order of the columns of
    ``Smat``.  The products apply P1, P2 and P2' as the index gathers of
    :func:`_perm_gathers`, in the order the products would take them.
    """
    mu = sum(1 for lam, _ in chains if not lam)
    cols, rows = _perm_gathers(chains, len(eye))
    Mt = (Sinv[rows] @ R @ Smat)[:, cols]  # P2 Sinv R Smat P1
    A1 = -1j * Mt[:mu, :mu]
    B1 = -1j * Mt[:mu, mu:]
    C1 = -1j * Mt[mu:, :mu]
    D0 = _jordan_matrix(
        [c for c in chains if c[0]], eye[mu:, mu:].astype(Mt.dtype)
    )
    lower = 2 * C1 @ inv(A1) if mu else eye[mu:, :mu]
    mid = np.block([[eye[:mu, :mu], eye[:mu, mu:]], [lower, -eye[mu:, mu:]]])
    S0 = (Smat[:, rows] @ mid)[:, np.argsort(rows)] @ Sinv  # Smat P2' mid P2 Sinv
    return LowEnergyExpansion(P1=eye[:, cols], P2=eye[rows], R=R,
                              A1=A1, B1=B1, C1=C1, D0=D0, S0=S0)


def z_of_k(
    pot: Potential,
    bc: BCPair,
    k: complex,
    a: Optional[float],
    jd: JordanData,
    P1: np.ndarray,
    P2: np.ndarray,
    cfg: SolverConfig = DEFAULT_CONFIG,
) -> np.ndarray:
    """Z(k) = P2 Sinv F(k) Smat P1 with F(k) the rescaled Jost matrix
    f(0,a)' [f(-k*,a)']^(-1) J(k)."""
    k = complex(k)
    if a is None:
        a = cfg.resolve_a(pot)
    J = jost_matrix(pot, bc, k, a, cfg).J
    f0 = jost_solution(pot, 0.0, a, cfg)
    fm = jost_solution(pot, -k.conjugate(), a, cfg)
    F = f0.value.conj().T @ np.linalg.solve(fm.value.conj().T, J)
    return P2 @ jd.Sinv @ F @ jd.Smat @ P1


def _snap_exact(x, name: str) -> xa.QC:
    """Float to a Gaussian rational, absorbing roundoff only.

    ``x`` must sit within 1e-14 max(1, |x|) of a denominator-<=10^6
    rational (so e.g. sin(pi) collapses to 0); anything else cannot be
    treated exactly.  The bound sits well below the distance of about
    1e-12 between an irrational and its best such rational (pi is 1.1e-12
    from 3126535/995207), so those are refused instead of rounded.
    """
    x = complex(x)
    q = xa.snap(x)
    if abs(complex(q) - x) > 1e-14 * max(1.0, abs(x)):
        raise ValidationError(f"{name} {x} is not a small rational; use numeric mode")
    return q


def _snap_matrix(M: np.ndarray, name: str) -> np.ndarray:
    return xa.mat([[_snap_exact(x, f"{name} entry") for x in row] for row in M])


def zero_energy_pipeline(
    pot: Potential,
    bc: BCPair,
    a: Optional[float] = None,
    mode: str = "numeric",
    cfg: SolverConfig = DEFAULT_CONFIG,
    probes: Sequence[float] = DEFAULT_PROBES,
    jordan_override: Optional[JordanData] = None,
    walks: Optional[_Walks] = None,
    J0: Optional[np.ndarray] = None,
) -> LowEnergyResult:
    """Run the full zero-energy construction and collect diagnostics.

    ``jordan_override`` substitutes a caller-provided Jordan decomposition
    of J(0) (used to exercise basis independence); J(0) is then not
    computed.  Exact mode runs :func:`exact_free_pipeline` and returns its
    expansion in ``exact``, and a complex copy of it in ``expansion``; it
    requires the zero potential and exactly-representable boundary
    matrices.

    In numeric mode every solution is read from ``walks``
    (``solver._Walks``).  By default f(kappa, .) for kappa in
    {0, probes, -probes} is walked once down from the support edge to 0
    (route (i) of J(0), f(0, a) of R and the probes' f(-k, .)), and phi(k, .)
    for the same k once from 0 to max(a, x_max) (routes (ii) and (iii),
    phi(0, a) of R and the probes' phi(k, a)).  A caller that holds such
    walks, and J(0) computed from them, passes both (``verify`` does).
    """
    if pot.n != bc.n:
        raise ValidationError("potential and boundary pair sizes differ")
    if a is None:
        a = cfg.resolve_a(pot)
    if walks is None and mode != "exact":
        ks = [0.0, *(float(kp) for kp in probes), *(-float(kp) for kp in probes)]
        walks = _Walks(pot, bc, cfg, ks, ks, points=(0.0, a))

    n = bc.n
    exact = None
    if mode == "exact":
        if pot.pieces:
            raise ValidationError("exact mode supports only the zero potential")
        Aq = _snap_matrix(bc.A, "A")
        Bq = _snap_matrix(bc.B, "B")
        jd, exact = exact_free_pipeline(Aq, Bq, a=_snap_exact(a, "matching point a"))
        expansion = LowEnergyExpansion(
            *(getattr(exact, f.name).astype(complex) for f in fields(exact)))
    else:
        if jordan_override is not None:
            jd = jordan_override
        else:
            if J0 is None:
                J0 = jost_matrix_zero(pot, bc, cfg, walks=walks)
            jd = jordan_form(J0, "numeric")
        R = _r_matrix(walks.f(0.0, a), walks.phi(0.0, a))
        expansion = _assemble(jd.Smat, jd.Sinv, jd.chains, R, np.eye(n), _checked_inverse)

    S0 = expansion.S0
    # exact S(0)^2 = I reads 0.0, though the complex copy may miss I by roundoff
    exactly = exact is not None and (exact.S0 @ exact.S0 == np.eye(n, dtype=object)).all()
    inv_resid = 0.0 if exactly else float(np.linalg.norm(S0 @ S0 - np.eye(n), 2))
    uni_resid = float(np.linalg.norm(S0.conj().T @ S0 - np.eye(n), 2))
    rows = _first_error(_smatrix_stack(pot, bc, [float(kp) for kp in probes], a, cfg, walks))
    probe_list = [(row["k"], float(np.linalg.norm(row["S"] - S0, 2))) for row in rows]
    s0_eval = SMatrixEvaluation(k=0.0, S=S0, unitarity_residual=uni_resid)
    return LowEnergyResult(
        jordan=jd,
        expansion=expansion,
        s0=s0_eval,
        involution_residual=inv_resid,
        unitarity_residual=uni_resid,
        continuity_probes=tuple(probe_list),
        exact=exact,
    )


# ---------------------------------------------------------------------------
# Exact free-potential pipeline.
# ---------------------------------------------------------------------------

def exact_free_pipeline(Aq, Bq, a=xa.QC(0)) -> Tuple[JordanData, LowEnergyExpansion]:
    """Exact zero-energy pipeline for the zero potential.

    There J(k) = B - ikA exactly, J(0) = B, and the slope matrix is
    R = A + aB.  Returns the Jordan data of B and the expansion, whose
    matrices (permutations, R, blocks, S(0)) are numpy object arrays of
    :class:`exactalg.QC`: everything is carried out over Gaussian
    rationals.
    """
    Aq = xa.mat(Aq)
    Bq = xa.mat(Bq)
    jd = jordan_form(Bq, "exact")
    ex = jd.exact
    eye = xa.mat(np.eye(jd.n, dtype=object))
    return jd, _assemble(ex.Smat, ex.Sinv, ex.chains, Aq + Bq * xa.qc(a), eye, xa.inverse)


# ---------------------------------------------------------------------------
# Inverse asymptotics.
# ---------------------------------------------------------------------------

def jost_inverse_asymptotics(
    expansion: LowEnergyExpansion, jd: JordanData
) -> Tuple[np.ndarray, int]:
    """Leading term of J(k)^(-1) near k = 0.

    Exceptional case (mu >= 1): returns the 1/k residue
    Smat P1 diag(A1^(-1), 0) P2 Sinv with order 1, so k J(k)^(-1) tends to
    it.  Generic case: order 0 with leading J(0)^(-1), refused when J(0)
    is beyond the condition cap.
    """
    n, mu = jd.n, jd.mu
    if mu == 0:
        cond = np.linalg.cond(jd.M)
        if cond > COND_CAP:
            raise _cond_error(0.0, cond)
        return np.linalg.inv(jd.M), 0
    block = np.zeros((n, n), dtype=complex)
    block[:mu, :mu] = np.linalg.inv(expansion.A1)
    leading = jd.Smat @ expansion.P1 @ block @ expansion.P2 @ jd.Sinv
    return leading, 1
