"""Selfadjoint vertex (boundary) conditions at the origin.

A condition at x = 0 for an n-channel half-line Schrodinger operator is
written as

    -B' psi(0) + A' psi'(0) = 0,

where A, B are constant n x n complex matrices and the prime on a matrix
denotes the conjugate transpose.  The pair (A, B) describes a selfadjoint
condition exactly when

    A'B = B'A            (the pairing matrix is selfadjoint),
    A'A + B'B > 0        (strict positive definiteness).

Equivalent descriptions handled here:

* Kostrykin-Schrader form:  A1 psi(0) + B1 psi'(0) = 0 with A1 B1' = B1 A1'
  and rank [A1 B1] = n.  The dictionary is (A, B) = (B1', -A1').
* Unitary form ("harmer" convention):  A = (U + I)/2, B = i(U - I)/2 for a
  unitary U.
* Unitary form ("cosine_sine" convention):  A = i(U - U')/2, B = (U + U')/2;
  diagonal U = diag(exp(i theta_j)) separates the channels into scalar
  conditions  cos(theta_j) psi_j(0) + sin(theta_j) psi_j'(0) = 0.
* Normalized form: (A, B) with A A' + B B' = I and B A' - A B' = 0, reached
  by right-multiplying with the inverse of E = (A'A + B'B)^(1/2).

Left multiplication of the condition by any invertible D, i.e. the map
(A, B) -> (A D', B D'), changes neither the condition nor any scattering
quantity derived from it; ``gauge_transform`` implements it and
``bc_subspace_equal`` decides equivalence of two pairs.

A BCPair is only (n, A, B), and it is selfadjoint by construction: it
refuses any pair that ``validate_ab`` rejects, so no function that takes
one checks it again.  Every other form is an input form that is converted
to (A, B) on the way in; the JSON encoding writes (A, B) as ``general_ab``.

All functions are pure; BCPair values are immutable and thread-safe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = [
    "BCPair",
    "UnitaryBC",
    "ValidationReport",
    "validate_ab",
    "validate_kostrykin",
    "to_unitary",
    "from_unitary",
    "from_kostrykin",
    "from_angles",
    "normalize",
    "gauge_transform",
    "bc_subspace_equal",
    "e_matrix",
    "dirichlet",
    "neumann",
    "bc_to_json",
    "bc_from_json",
    "complex_matrix_to_json",
    "complex_matrix_from_json",
]

#: Relative tolerance for structural residuals (selfadjointness, unitarity).
EPS_CHECK = 1e-10
#: Relative floor for the smallest eigenvalue of A'A + B'B.
EPS_POSDEF = 1e-10
#: Relative singular-value threshold for rank decisions.
EPS_RANK = 1e-10

FORMULATIONS = ("kostrykin_ab", "harmer_unitary", "general_ab", "normalized")
UNITARY_CONVENTIONS = ("harmer", "cosine_sine")


def _as_matrix(m, name: str) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"{name} must be a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValidationError(f"{name} has non-finite entries")
    return a


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class BCPair:
    """A selfadjoint vertex condition -B' psi(0) + A' psi'(0) = 0.

    Attributes
    ----------
    n : int
        Number of channels (matrix size).
    A, B : ndarray
        The defining n x n matrices, read-only.

    A pair that :func:`validate_ab` rejects is refused with
    ``invalid boundary pair: <violations>``.
    """

    n: int
    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        A = _as_matrix(self.A, "A")
        B = _as_matrix(self.B, "B")
        if A.shape != B.shape:
            raise ValidationError(f"A and B differ in shape: {A.shape} vs {B.shape}")
        if A.shape[0] != self.n:
            raise ValidationError(f"n = {self.n} does not match matrix size {A.shape[0]}")
        report = validate_ab(A, B)
        if not report.ok:
            raise ValidationError(f"invalid boundary pair: {report.violations}")
        object.__setattr__(self, "A", _frozen(A))
        object.__setattr__(self, "B", _frozen(B))


@dataclass(frozen=True)
class UnitaryBC:
    """A vertex condition encoded by a unitary matrix U under a convention."""

    U: np.ndarray
    convention: str = "harmer"

    def __post_init__(self):
        U = _as_matrix(self.U, "U")
        if self.convention not in UNITARY_CONVENTIONS:
            raise ValidationError(f"unknown unitary convention {self.convention!r}")
        n = U.shape[0]
        resid = np.linalg.norm(U.conj().T @ U - np.eye(n), 2)
        if resid > EPS_CHECK * max(1.0, np.linalg.norm(U, 2) ** 2):
            raise ValidationError(f"U is not unitary (residual {resid:.3e})")
        object.__setattr__(self, "U", _frozen(U))

    @property
    def n(self) -> int:
        return self.U.shape[0]


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a structural validation.

    ``ok`` is True exactly when ``violations`` is empty; each violation is a
    pair (rule id, measured residual).
    """

    violations: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "violations", tuple(self.violations))

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_ab(A, B) -> ValidationReport:
    """Check that (A, B) defines a selfadjoint vertex condition.

    Two rules are tested, both scaled by ||A'A + B'B||:

    * ``pairing_selfadjoint``: ||A'B - B'A|| below tolerance;
    * ``gram_posdef``: smallest eigenvalue of A'A + B'B above tolerance.
    """
    A = _as_matrix(A, "A")
    B = _as_matrix(B, "B")
    if A.shape != B.shape:
        raise ValidationError(f"A and B differ in shape: {A.shape} vs {B.shape}")
    gram = A.conj().T @ A + B.conj().T @ B
    scale = max(np.linalg.norm(gram, 2), np.finfo(float).tiny)
    violations = []
    pairing = np.linalg.norm(A.conj().T @ B - B.conj().T @ A, 2)
    if pairing > EPS_CHECK * scale:
        violations.append(("pairing_selfadjoint", float(pairing)))
    lam_min = float(np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))[0])
    if lam_min <= EPS_POSDEF * scale:
        violations.append(("gram_posdef", lam_min))
    return ValidationReport(violations)


def validate_kostrykin(A1, B1) -> ValidationReport:
    """Check the rank-n form A1 psi(0) + B1 psi'(0) = 0.

    Rules: ``pairing_selfadjoint`` for A1 B1' = B1 A1' and ``rank_full`` for
    rank [A1 B1] = n, decided from singular values at a relative threshold.
    """
    A1 = _as_matrix(A1, "A1")
    B1 = _as_matrix(B1, "B1")
    if A1.shape != B1.shape:
        raise ValidationError(f"A1 and B1 differ in shape: {A1.shape} vs {B1.shape}")
    n = A1.shape[0]
    violations = []
    pairing = np.linalg.norm(A1 @ B1.conj().T - B1 @ A1.conj().T, 2)
    scale = max(np.linalg.norm(A1, 2) ** 2 + np.linalg.norm(B1, 2) ** 2, np.finfo(float).tiny)
    if pairing > EPS_CHECK * scale:
        violations.append(("pairing_selfadjoint", float(pairing)))
    sv = np.linalg.svd(np.hstack([A1, B1]), compute_uv=False)
    rank = int(np.sum(sv > EPS_RANK * max(sv[0], np.finfo(float).tiny)))
    if rank != n:
        violations.append(("rank_full", float(rank)))
    return ValidationReport(violations)


def e_matrix(bc: BCPair) -> np.ndarray:
    """Positive square root of A'A + B'B via Hermitian eigendecomposition
    (positive definite: BCPair refuses any other pair)."""
    gram = bc.A.conj().T @ bc.A + bc.B.conj().T @ bc.B
    w, Q = np.linalg.eigh(0.5 * (gram + gram.conj().T))
    return (Q * np.sqrt(w)) @ Q.conj().T


def to_unitary(bc: BCPair) -> UnitaryBC:
    """Unitary encoding U = (A - iB) (A'A + B'B)^(-1) (A' - iB')."""
    gram = bc.A.conj().T @ bc.A + bc.B.conj().T @ bc.B
    U = (bc.A - 1j * bc.B) @ np.linalg.solve(gram, bc.A.conj().T - 1j * bc.B.conj().T)
    return UnitaryBC(U=U, convention="harmer")


def from_unitary(u: UnitaryBC) -> BCPair:
    """Boundary pair for a unitary encoding.

    harmer:       A = (U + I)/2,      B = i(U - I)/2
    cosine_sine:  A = i(U - U')/2,    B = (U + U')/2

    Both produce a pair with A'A + B'B = I.
    """
    n = u.n
    eye = np.eye(n)
    if u.convention == "harmer":
        A = 0.5 * (u.U + eye)
        B = 0.5j * (u.U - eye)
    else:
        A = 0.5j * (u.U - u.U.conj().T)
        B = 0.5 * (u.U + u.U.conj().T)
    return BCPair(n=n, A=A, B=B)


def from_kostrykin(A1, B1) -> BCPair:
    """Convert the rank-n form to a boundary pair via (A, B) = (B1', -A1'),
    normalized where rows of very different scale fail the relative
    ``gram_posdef`` test (A1 = diag(1, 1e-7), B1 = 0 is Dirichlet): then
    the pair is W V' of the SVD [B1'; -A1'] = W S V', the rows
    (A1 A1' + B1 B1')^(-1/2) [A1 B1], which state the same condition."""
    report = validate_kostrykin(A1, B1)
    if not report.ok:
        raise ValidationError(f"invalid rank-n pair: {report.violations}")
    A1, B1 = _as_matrix(A1, "A1"), _as_matrix(B1, "B1")
    A, B = B1.conj().T, -A1.conj().T
    if not validate_ab(A, B).ok:
        W, _, Vh = np.linalg.svd(np.vstack([A, B]), full_matrices=False)
        A, B = np.vsplit(W @ Vh, 2)
    return BCPair(n=A1.shape[0], A=A, B=B)


def from_angles(thetas) -> BCPair:
    """Diagonal condition cos(theta_j) psi_j(0) + sin(theta_j) psi_j'(0) = 0.

    Each angle must lie in (0, pi]; theta_j = pi gives a Dirichlet channel,
    theta_j = pi/2 a Neumann channel.  The result is already normalized
    (A = -diag sin, B = diag cos).
    """
    th = np.asarray(thetas, dtype=float)
    if th.ndim != 1 or th.size == 0:
        raise ValidationError("angles must be a nonempty 1-d sequence")
    if np.any(th <= 0.0) or np.any(th > np.pi + 1e-15):
        raise ValidationError("each angle must lie in (0, pi]")
    n = th.size
    A = -np.diag(np.sin(th)).astype(complex)
    B = np.diag(np.cos(th)).astype(complex)
    return BCPair(n=n, A=A, B=B)


def normalize(bc: BCPair) -> BCPair:
    """Right-multiply by E^(-1) so that A A' + B B' = I and B A' = A B'.

    E = I where A'A + B'B = I within EPS_CHECK, as for every unitary,
    angle, Dirichlet and Neumann pair, so their entries are kept.
    """
    gram, eye = bc.A.conj().T @ bc.A + bc.B.conj().T @ bc.B, np.eye(bc.n, dtype=complex)
    E = eye if np.linalg.norm(gram - eye, 2) <= EPS_CHECK else e_matrix(bc)
    A, B = (np.linalg.solve(E.conj().T, M.conj().T).conj().T for M in (bc.A, bc.B))
    return BCPair(n=bc.n, A=A, B=B)


def gauge_transform(bc: BCPair, D) -> BCPair:
    """Apply (A, B) -> (A D', B D') for an invertible, well-conditioned D.

    The result is a BCPair, so a D that leaves a pair :func:`validate_ab`
    rejects is refused: a singular D, and, as its ``gram_posdef`` test is
    relative, an ill-conditioned one (cond(D) of about 1e5 and beyond).
    """
    D = _as_matrix(D, "D")
    if D.shape[0] != bc.n:
        raise ValidationError(f"D has size {D.shape[0]}, expected {bc.n}")
    return BCPair(n=bc.n, A=bc.A @ D.conj().T, B=bc.B @ D.conj().T)


def bc_subspace_equal(bc1: BCPair, bc2: BCPair) -> bool:
    """Whether two pairs impose the same condition.

    The condition is the kernel of the n x 2n map [-B'  A'] acting on
    (psi(0), psi'(0)).  The kernels coincide exactly when stacking the two
    maps does not raise the rank above n; ranks are decided from singular
    values at the relative threshold.
    """
    if bc1.n != bc2.n:
        raise ValidationError("boundary pairs act on different channel counts")

    def rows(bc: BCPair) -> np.ndarray:
        return np.hstack([-bc.B.conj().T, bc.A.conj().T])

    def rank(m: np.ndarray) -> int:
        sv = np.linalg.svd(m, compute_uv=False)
        return int(np.sum(sv > EPS_RANK * max(sv[0], np.finfo(float).tiny)))

    m1, m2 = rows(bc1), rows(bc2)
    r1, r2 = rank(m1), rank(m2)
    return r1 == r2 == rank(np.vstack([m1, m2]))


def dirichlet(n: int) -> BCPair:
    """psi(0) = 0 on every channel: A = 0, B = -I."""
    return BCPair(n=n, A=np.zeros((n, n), dtype=complex), B=-np.eye(n, dtype=complex))


def neumann(n: int) -> BCPair:
    """psi'(0) = 0 on every channel: A = -I, B = 0."""
    return BCPair(n=n, A=-np.eye(n, dtype=complex), B=np.zeros((n, n), dtype=complex))


# ---------------------------------------------------------------------------
# JSON encoding.  Complex scalars are [re, im] pairs; a matrix is a list of
# rows of such pairs.
# ---------------------------------------------------------------------------

def complex_matrix_to_json(m) -> list:
    a = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in a]


def number_from_json(x) -> float:
    """float(x) for a JSON number; a string raises TypeError, where float()
    would read "0.5" as a number."""
    if isinstance(x, str):
        raise TypeError(f"expected a number, got the string {x!r}")
    return float(x)


def complex_matrix_from_json(data, name: str = "matrix") -> np.ndarray:
    try:
        rows = []
        for row in data:  # complex(re, im) refuses strings, which float() would read;
            # unpacking refuses an entry that is not one [re, im] pair
            rows.append([complex(re, im) for re, im in row])
        a = np.array(rows, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name}: expected [[[re, im], ...], ...]") from exc
    if a.ndim != 2:
        raise ValidationError(f"{name}: expected a 2-d matrix")
    return a


def bc_to_json(bc: BCPair) -> dict:
    return {
        "n": bc.n,
        "formulation": "general_ab",
        "A": complex_matrix_to_json(bc.A),
        "B": complex_matrix_to_json(bc.B),
    }


def bc_from_json(data: dict, path: str = "bc") -> BCPair:
    """Build a BCPair from one of the accepted JSON shapes.

    ``{"n", "formulation", "A", "B"}`` | ``{"angles": [...]}`` |
    ``{"U": [[...]], "convention": "harmer" | "cosine_sine"}``

    ``"formulation"`` is an input form: ``"kostrykin_ab"`` reads the
    matrices as (A1, B1) of the rank-n form, the other names of
    ``FORMULATIONS`` (and none) as (A, B).
    """
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: expected an object")
    if "angles" in data:
        extra = set(data) - {"angles"}
        if extra:
            raise ValidationError(f"{path}: unknown keys {sorted(extra)}")
        angles = data["angles"]
        if isinstance(angles, list) and any(isinstance(t, str) for t in angles):
            raise ValidationError(f"{path}.angles: each angle must be a number")
        return from_angles(angles)
    if "U" in data:
        extra = set(data) - {"U", "convention"}
        if extra:
            raise ValidationError(f"{path}: unknown keys {sorted(extra)}")
        convention = data.get("convention", "harmer")
        if convention not in UNITARY_CONVENTIONS:
            raise ValidationError(f"{path}.convention: must be one of {UNITARY_CONVENTIONS}")
        U = complex_matrix_from_json(data["U"], f"{path}.U")
        return from_unitary(UnitaryBC(U=U, convention=convention))
    required = {"n", "A", "B"}
    if not required <= set(data):
        raise ValidationError(f"{path}: need keys {sorted(required)} (or 'angles' or 'U')")
    extra = set(data) - (required | {"formulation"})
    if extra:
        raise ValidationError(f"{path}: unknown keys {sorted(extra)}")
    n = data["n"]
    if not isinstance(n, int) or n <= 0:
        raise ValidationError(f"{path}.n: must be a positive integer")
    A = complex_matrix_from_json(data["A"], f"{path}.A")
    B = complex_matrix_from_json(data["B"], f"{path}.B")
    if A.shape != (n, n) or B.shape != (n, n):
        raise ValidationError(f"{path}: A and B must be {n} x {n}")
    formulation = data.get("formulation", "general_ab")
    if formulation not in FORMULATIONS:
        raise ValidationError(f"unknown formulation {formulation!r}")
    try:
        if formulation == "kostrykin_ab":
            return from_kostrykin(A, B)
        return BCPair(n=n, A=A, B=B)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
