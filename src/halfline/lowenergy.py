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

The numeric and the exact arithmetic backend run the same code, written
with numpy operators, on complex arrays or on object arrays of Gaussian
rationals: one rank staircase ``_jordan_chains`` builds the chains of each
eigenvalue (step 1), and one ``_assemble`` does steps 2-4 and returns a
whole :class:`LowEnergyExpansion`.  Each backend brings only its rules.
The numeric one (:func:`jordan_form`) clusters eigenvalues at the radius
EPS_EIG, takes kernels from SVDs thresholded at EPS_RANK and picks chain
generators by projection; it refuses when the defective structure is
ambiguous at the thresholds.  The exact one (:func:`exact_free_pipeline`;
entries must be exactly representable) proposes eigenvalues numerically,
snaps them to small-denominator rationals, keeps those whose shifted
matrix is exactly singular, and picks generators by exact rank.
Chain ordering is deterministic in both: zero chains first, remaining
eigenvalues by (Re, Im), and inside a cluster by the pivot position of
the chain eigenvector.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields
from typing import List, Optional, Tuple

import numpy as np

from . import exactalg as xa
from .bc import BCPair
from .errors import JordanAmbiguityError, NumericalError, ValidationError
from .scattering import (
    COND_CAP,
    SMatrixEvaluation,
    _check_sizes,
    _cond_error,
    _first_error,
    _jost_stack,
    _norm2,
    _r_matrix,
    _smatrix_stack,
    jost_matrix_zero,
)
from .solver import Potential, _Walks

__all__ = [
    "JordanData",
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
class JordanData:
    """Jordan decomposition of a matrix M with zero chains ordered first.

    Columns of Smat are the chain vectors in chain order (eigenvector
    first within each chain); rows of Sinv form the adjoint basis.
    ``chains`` lists (eigenvalue, length) per chain; mu/nu, the
    geometric/algebraic multiplicities of the eigenvalue zero, and kappa,
    the total number of chains, are read off it.
    """

    M: np.ndarray
    Smat: np.ndarray
    Sinv: np.ndarray
    chains: Tuple[Tuple[complex, int], ...]

    @property
    def n(self) -> int:
        return self.M.shape[0]

    @property
    def mu(self) -> int:
        return sum(1 for lam, _ in self.chains if lam == 0)

    @property
    def nu(self) -> int:
        return sum(length for lam, length in self.chains if lam == 0)

    @property
    def kappa(self) -> int:
        return len(self.chains)


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
    continuity_probes: Tuple[Tuple[float, float], ...]
    exact: Optional[LowEnergyExpansion] = field(default=None, repr=False, compare=False)


# ---------------------------------------------------------------------------
# The Jordan staircase and basis, shared by both backends.
# ---------------------------------------------------------------------------

def _jordan_chains(N, kernel, pick, target=None):
    """Jordan chains (vector lists, eigenvector first) of the eigenvalue
    that N = M - lam I shifts to zero, and the kernels they come from.

    N is a complex array or an object array of Gaussian rationals.
    kernels[j] = ``kernel(N^j, j)`` (columns) grows until it spans
    ``target`` directions or, without a target, stops growing; a missed
    target gives no chains.  From the top level j down,
    ``pick(lower, carried, candidates, need, j)`` chooses ``need``
    generators of length-j chains among the columns of kernels[j], against
    lower = kernels[j - 1] and the images N^(L-j) w carried down from the
    generators w of longer chains.
    """
    kernels = [N[:, :0]]
    for j in range(1, len(N) + 1):
        power = N if j == 1 else power @ N
        ker = kernel(power, j)
        if ker.shape[1] == kernels[-1].shape[1]:
            break
        kernels.append(ker)
        if ker.shape[1] == target:
            break
    if target is not None and kernels[-1].shape[1] != target:
        return [], kernels
    gens = []
    for j in range(len(kernels) - 1, 0, -1):
        carried = [np.linalg.matrix_power(N, L - j) @ w for w, L in gens if L > j]
        need = kernels[j].shape[1] - kernels[j - 1].shape[1] - len(carried)
        if need:
            gens += [(w, j) for w in pick(kernels[j - 1], carried, kernels[j].T, need, j)]
    chains = []
    for w, L in gens:
        vecs = [w]
        for _ in range(L - 1):
            vecs.append(N @ vecs[-1])
        chains.append(vecs[::-1])
    return chains, kernels


def _basis(chains):
    """Smat and the (eigenvalue, length) pairs of the (eigenvalue, vectors,
    pivot) ``chains``, sorted in place: zero chains first, then by (Re, Im)
    of the eigenvalue (complex or QC), pivot position of the eigenvector,
    and longest chain first."""
    chains.sort(key=lambda c: (c[0] != 0, complex(c[0]).real, complex(c[0]).imag,
                               c[2], -len(c[1])))
    Smat = np.column_stack([v for _, vecs, _ in chains for v in vecs])
    return Smat, tuple((lam, len(vecs)) for lam, vecs, _ in chains)


# ---------------------------------------------------------------------------
# Numeric Jordan backend.
# ---------------------------------------------------------------------------

def _null_bases(M: np.ndarray, rel_tol: float, floor: float = 0.0) -> List[np.ndarray]:
    """Orthonormal kernel bases (columns), one per matrix of the stack M, from
    singular values below rel_tol times max(largest singular value, floor)."""
    _, s, Vh = np.linalg.svd(M)
    tol = rel_tol * np.maximum(np.maximum(s[:, 0], floor), np.finfo(float).tiny)
    return [v[r:].conj().T for v, r in zip(Vh, (s > tol[:, None]).sum(axis=1).tolist())]


def _cluster_eigenvalues(vals: np.ndarray, radius: float):
    """Transitive-closure clustering of eigenvalues at a given radius:
    index arrays, ordered by their first index."""
    label = list(range(vals.size))
    for i in range(vals.size):
        for j in range(i + 1, vals.size):
            if abs(vals[i] - vals[j]) <= radius and label[j] != label[i]:
                merged = label[j]
                label = [label[i] if x == merged else x for x in label]
    return [np.flatnonzero(np.array(label) == x) for x in dict.fromkeys(label)]


def _numeric_jordan(M: np.ndarray) -> JordanData:
    """Jordan data of M from a rank staircase per eigenvalue cluster centre
    lam, the first rungs ker(M - lam I) from one SVD stack.  Thresholds are
    relative to max(||M||, 1): the inputs are O(1)-scaled Jost matrices, and
    a purely relative radius could not call a near-zero M exceptional."""
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

    def pick(lower, carried, candidates, need, j):
        # Gram-Schmidt of the candidates, largest residual first, against
        # ker N^(j-1) and the carried images, if any (else it subtracts zeros).
        if need < 0:
            raise refuse(f"inconsistent staircase at level {j} for eigenvalue {center:.6g}")
        residuals = list(candidates)
        if lower.shape[1] or carried:
            Q = np.linalg.qr(np.hstack(
                [lower] + [c.reshape(-1, 1) / np.linalg.norm(c) for c in carried]))[0]
            residuals = [cand - Q @ (Q.conj().T @ cand) for cand in candidates]
        accepted: List[np.ndarray] = []
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
            raise refuse(
                f"could not extract {need} independent chain generators "
                f"at level {j} for eigenvalue {center:.6g}"
            )
        return accepted

    shifted = M - np.array([c for c, _, _ in centers])[:, None, None] * np.eye(n)
    chains = []  # (eigenvalue, [vectors eigvec..top], pivot)
    for (center, m_alg, diam), N, first in zip(centers, shifted, _null_bases(
            shifted, EPS_RANK, floor=scale)):
        if diam > 5 * radius:
            raise refuse(
                f"cluster at {center:.6g} has diameter {diam:.3e} "
                f"above 5x the clustering radius"
            )
        found, kernels = _jordan_chains(N, lambda power, j: first if j == 1 else _null_bases(
            power[None], EPS_RANK, floor=scale**j)[0], pick, m_alg)
        dim = kernels[-1].shape[1]
        if dim != m_alg:
            raise refuse(
                f"rank staircase for eigenvalue {center:.6g} stalled at "
                f"{dim} of {m_alg} directions"
            )
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


# ---------------------------------------------------------------------------
# Exact Jordan backend.
# ---------------------------------------------------------------------------

#: Radii, relative to max(||M||_F, 1), at which exact mode clusters the
#: float eigenvalues and proposes the mean of each cluster as an eigenvalue.
EXACT_CLUSTER_RADII = (1e-3, 1e-1)


def _exact_pick(lower, carried, candidates, need, j):
    """The first ``need`` candidates that each raise the rank of ker N^(j-1)
    plus the carried images."""
    obstruction = np.column_stack([lower] + carried)
    span = xa.rank(obstruction)
    picked = []
    for cand in candidates:
        if len(picked) == need:
            break
        grown = np.column_stack([obstruction, cand])
        if xa.rank(grown) > span:  # cand is independent of the obstruction
            obstruction, span = grown, span + 1
            picked.append(cand)
    if len(picked) != need:
        raise NumericalError("exact Jordan staircase failed to find enough generators")
    return picked


def _exact_jordan(Mq: np.ndarray):
    """(Smat, Sinv, chains) of a Gaussian-rational matrix, all over QC.

    Candidates are the snapped float eigenvalues, zero, and the snapped
    mean of each cluster of them at ``EXACT_CLUSTER_RADII``: roundoff splits
    a length-L chain's eigenvalue by about eps^(1/L), too far to snap, but
    not the mean.  A candidate whose staircase finds no direction (the
    shifted matrix is exactly regular) is no eigenvalue.
    """
    n = len(Mq)
    Mc = Mq.astype(complex)
    raw = np.linalg.eigvals(Mc)
    scale = max(float(np.linalg.norm(Mc)), 1.0)
    means = [raw[idx].mean() for r in EXACT_CLUSTER_RADII
             for idx in _cluster_eigenvalues(raw, r * scale) if len(idx) > 1]
    floats = dict.fromkeys(complex(v) for v in [*raw, 0.0, *means])
    candidates = dict.fromkeys(map(xa.snap, floats))  # QC hashes as it compares
    eye = np.eye(n, dtype=object)
    chains, total = [], 0
    for lam in candidates:
        found, kernels = _jordan_chains(
            Mq - eye * lam, lambda power, j: xa.nullspace(power), _exact_pick)
        total += kernels[-1].shape[1]
        chains += [(lam, vecs, next(i for i, x in enumerate(vecs[0]) if x)) for vecs in found]
    if total != n:
        raise NumericalError(
            "exact mode failed: eigenvalues are not Gaussian rationals "
            "within the snapping denominator (use numeric mode)"
        )
    Smat, chain_info = _basis(chains)
    return Smat, xa.inverse(Smat), chain_info


def _complex_jordan(Mq, Smat, Sinv, chains) -> JordanData:
    """The complex copy of exact Jordan data of ``Mq``."""
    return JordanData(
        Mq.astype(complex), Smat.astype(complex), Sinv.astype(complex),
        tuple((complex(lam), length) for lam, length in chains),
    )


def jordan_form(M) -> JordanData:
    """Numeric Jordan decomposition with zero chains first: eigenvalue
    clustering at relative radius ``EPS_EIG`` plus an SVD staircase at
    ``EPS_RANK``.  The exact backend runs in :func:`exact_free_pipeline`.
    """
    Mc = np.asarray(M, dtype=complex)
    if Mc.ndim != 2 or Mc.shape[0] != Mc.shape[1]:
        raise ValidationError("jordan_form needs a square matrix")
    return _numeric_jordan(Mc)


# ---------------------------------------------------------------------------
# Permutations.
# ---------------------------------------------------------------------------

def _perm_gathers(chains, n: int) -> Tuple[List[int], List[int]]:
    """0-based gathers (cols, rows) with M @ P1 = M[:, cols] and
    P2 @ M = M[rows] for the zero chains among the (eigenvalue, length)
    ``chains`` of an n x n matrix.

    cols lists the chain heads, rows the chain tails, each followed by the
    rest of the zero block in order, then the nonzero block.  So slot t of
    the identity block takes column cum[alpha - 1] + j and row one above it
    (1-based), for the solution of the index equation
    cum[alpha - 1] - alpha + j = t with 2 <= j <= L_alpha.
    """
    lengths = [length for lam, length in chains if not lam]
    nu = sum(lengths)
    heads = list(itertools.accumulate(lengths, initial=0))[:-1]
    tails = [h + L - 1 for h, L in zip(heads, lengths)]
    rest = list(range(nu, n))
    return ([*heads, *(i for i in range(nu) if i not in heads), *rest],
            [*tails, *(i for i in range(nu) if i not in tails), *rest])


# ---------------------------------------------------------------------------
# Pipeline pieces.
# ---------------------------------------------------------------------------

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
) -> np.ndarray:
    """Z(k) = P2 Sinv F(k) Smat P1 with F(k) the rescaled Jost matrix
    f(0,a)' [f(-k*,a)']^(-1) J(k), all read from one pair of walks."""
    _check_sizes(pot, bc)
    a = pot.x_max if a is None else a
    km = -complex(k).conjugate()
    walks = _Walks(pot, bc, [0.0, km], [k], points=(0.0, a))
    (J,), errors, *_ = _jost_stack(pot, bc, [k], a, walks)
    _first_error(errors)
    f0, fm = walks.f(0.0, a), walks.f(km, a)
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
    walks: Optional[_Walks] = None,
    J0: Optional[np.ndarray] = None,
) -> LowEnergyResult:
    """Run the full zero-energy construction and collect diagnostics.

    Exact mode runs :func:`exact_free_pipeline` and returns its expansion
    in ``exact``, and a complex copy of it in ``expansion``; it requires
    the zero potential and exactly-representable boundary matrices.

    The continuity probes compare S(0) with S(k) at k in ``DEFAULT_PROBES``.
    In numeric mode every solution is read from ``walks``
    (``solver._Walks``).  By default f(kappa, .) for kappa in
    {0, probes, -probes} is walked once down from the support edge to 0
    (route (i) of J(0), f(0, a) of R and the probes' f(-k, .)), and phi(k, .)
    for the same k once from 0 to max(a, x_max) (routes (ii) and (iii),
    phi(0, a) of R and the probes' phi(k, a)); both keep their states at 0,
    a and every piece edge.  A caller that holds such walks, and J(0)
    computed from them, passes both (``verify`` does).
    """
    if pot.n != bc.n:
        raise ValidationError("potential and boundary pair sizes differ")
    a = pot.x_max if a is None else a
    probes = list(DEFAULT_PROBES)
    if walks is None and mode != "exact":
        ks = [0.0, *probes, *(-kp for kp in probes)]
        walks = _Walks(pot, bc, ks, ks, points=(0.0, a, *pot._edges))

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
        if J0 is None:
            J0 = jost_matrix_zero(pot, bc, walks=walks)
        jd = jordan_form(J0)
        R = _r_matrix(walks.f(0.0, a), walks.phi(0.0, a))
        expansion = _assemble(jd.Smat, jd.Sinv, jd.chains, R, np.eye(n), _checked_inverse)

    S0, eye = expansion.S0, np.eye(n)
    rows = _first_error(_smatrix_stack(pot, bc, probes, a, walks))
    # S(0)^2 - I, S(0)' S(0) - I and S(k) - S(0) per probe: one stack of norms
    norms = _norm2(np.array([S0 @ S0 - eye, S0.conj().T @ S0 - eye,
                             *(row["S"] - S0 for row in rows)])).tolist()
    # exact S(0)^2 = I reads 0.0, though the complex copy may miss I by roundoff
    exactly = exact is not None and (exact.S0 @ exact.S0 == np.eye(n, dtype=object)).all()
    inv_resid = 0.0 if exactly else norms[0]
    uni_resid = norms[1]
    probe_list = [(row["k"], d) for row, d in zip(rows, norms[2:])]
    s0_eval = SMatrixEvaluation(k=0.0, S=S0, unitarity_residual=uni_resid)
    return LowEnergyResult(
        jordan=jd,
        expansion=expansion,
        s0=s0_eval,
        involution_residual=inv_resid,
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
    Smat, Sinv, chains = _exact_jordan(Bq)
    eye = xa.mat(np.eye(len(Bq), dtype=object))
    return (_complex_jordan(Bq, Smat, Sinv, chains),
            _assemble(Smat, Sinv, chains, Aq + Bq * xa.qc(a), eye, xa.inverse))


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
