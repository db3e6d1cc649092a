"""Seeded inputs for the benchmark workloads.

Everything here depends only on the seed, numpy's generator and the
reference propagator in :mod:`oracle`, never on the package under test, so
a change to the package or to its tests cannot change a workload.  The
random recipes are copies of the test suite's ``rand_potential``,
``rand_bc`` and ``exceptional_bc`` as they stood when the benchmark was
defined.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

import numpy as np

import oracle

#: (channels n, pieces) of every random configuration.
SHAPES = ((1, 2), (2, 20), (8, 2), (8, 20))
#: Piece strength: V = PIECE_SCALE * (M + M') / 2 with M complex normal.
PIECE_SCALE = 0.3
#: The sweep grid [k_min, k_max, steps].
KGRID = (0.05, 10.0, 200)
#: Fixture families run with seeded rational parameters, and their names.
FAMILIES = (("7.1", ("a",)), ("7.3", ("a",)), ("7.4", ("a", "b", "c")))
#: Bundled examples reproduced in both arithmetic modes.
EXAMPLES = ("7.1", "7.2", "7.3", "7.4")


@dataclass(frozen=True)
class Case:
    """One configuration: the JSON job config plus what the checks need."""

    name: str
    config: dict
    pieces: Tuple[Tuple[float, float, np.ndarray], ...]
    A: np.ndarray
    B: np.ndarray
    mu: int                      # dimension of ker J(0) by construction
    fixture: object = None   # the package's fixture, for a family member


def _cmat(m) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]


def rand_herm(rng, n, scale=1.0):
    M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * 0.5 * (M + M.conj().T)


def rand_unitary(rng, n):
    X = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    Q, R = np.linalg.qr(X)
    return Q * (np.diagonal(R) / np.abs(np.diagonal(R)))


def rand_potential(rng, n, pieces, scale=PIECE_SCALE, gap=0.2):
    built = []
    x = 0.0
    for _ in range(pieces):
        lo = x + gap * rng.uniform(0.0, 1.0)
        hi = lo + rng.uniform(0.3, 0.8)
        built.append((lo, hi, rand_herm(rng, n, scale)))
        x = hi
    return tuple(built)


def exceptional_ab(pieces, n, Xi):
    """(A, B) whose zero-energy Jost matrix kills the columns of Xi.

    The boundary data of the bounded zero-energy solutions f(0, .) Xi spans
    an isotropic subspace of the boundary form; it is completed to a
    Lagrangian basis whose first columns give ker J(0) = span(e_1..e_m).
    """
    F, dF = oracle.outgoing_at_origin(pieces, n, [0.0])
    W = np.vstack([F[0] @ Xi, dF[0] @ Xi])
    basis = list(np.linalg.qr(W)[0].T)
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
    return M[:n, :], M[n:, :]


def _potential_json(n, pieces) -> dict:
    return {"n": n, "pieces": [{"x_lo": lo, "x_hi": hi, "V": _cmat(V)}
                               for lo, hi, V in pieces]}


def random_cases(seed: int, part: int) -> List[Case]:
    """Per shape: one generic condition (random unitary, harmer encoding)
    and one exceptional condition with a 1-dimensional kernel of J(0), each
    on its own potential.  ``part`` selects an independent input set."""
    rng = np.random.default_rng([seed, part, 1])
    cases = []
    for n, count in SHAPES:
        pieces = rand_potential(rng, n, count)
        U = rand_unitary(rng, n)
        eye = np.eye(n)
        A, B = 0.5 * (U + eye), 0.5j * (U - eye)
        cases.append(Case(
            name=f"n{n}p{count}-generic",
            config={"bc": {"U": _cmat(U), "convention": "harmer"},
                    "potential": _potential_json(n, pieces), "kgrid": list(KGRID)},
            pieces=pieces, A=A, B=B, mu=0,
        ))
        pieces = rand_potential(rng, n, count)
        xi = rng.normal(size=(n, 1)) + 1j * rng.normal(size=(n, 1))
        A, B = exceptional_ab(pieces, n, xi / np.linalg.norm(xi))
        cases.append(Case(
            name=f"n{n}p{count}-exceptional",
            config={"bc": {"n": n, "formulation": "general_ab",
                           "A": _cmat(A), "B": _cmat(B)},
                    "potential": _potential_json(n, pieces), "kgrid": list(KGRID)},
            pieces=pieces, A=A, B=B, mu=1,
        ))
    return cases


def _small_rational(rng) -> Fraction:
    p = int(rng.integers(1, 10)) * (1 if rng.uniform() < 0.5 else -1)
    return Fraction(p, int(rng.integers(1, 10)))


def fixture_cases(seed: int, part: int, fixtures, draws: int = 2) -> List[Case]:
    """Zero-potential conditions from the fixture families, each with
    ``draws`` sets of seeded small rational parameters.

    ``fixtures`` is the package's ``get_fixture``; only the documented
    (A, B) and answers of a family are taken from it.
    """
    rng = np.random.default_rng([seed, part, 2])
    cases = []
    for fid, names in FAMILIES:
        for d in range(draws):
            params = {p: _small_rational(rng) for p in names}
            fx = fixtures(fid, **params)
            A, B = fx.A, fx.B
            cases.append(Case(
                name=f"{fid}-{d}",
                config={"bc": {"n": fx.n, "formulation": "general_ab",
                               "A": _cmat(A), "B": _cmat(B)}},
                pieces=(), A=A, B=B, mu=fx.mu, fixture=fx,
            ))
    return cases
