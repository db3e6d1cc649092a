"""Reference propagator for checking the program's outputs.

The package steps through a constant piece with the eigendecomposition of
V.  This module uses a different algorithm: the transfer matrix of the
first-order system Y' = G Y, Y = (psi, psi'), over a piece of length h is
expm(G h) with the 2n x 2n generator G = [[0, I], [V - k^2, 0]], taken from
``scipy.linalg.expm`` for a whole stack of k values at once.

Potentials are given as the benchmark's own tuples (x_lo, x_hi, V), sorted
and disjoint; boundary pairs as (A, B).  Conventions follow the paper:
J(k) = f(-k, 0)' B - f'(-k, 0)' A for real k, S(k) = -J(-k) J(k)^(-1).
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm


def _segments(pieces):
    """(lo, hi, V or None) from the support edge down to the origin."""
    segs = []
    x = 0.0
    for lo, hi, V in pieces:
        if lo > x:
            segs.append((x, lo, None))
        segs.append((lo, hi, V))
        x = hi
    return segs[::-1]


def carry_to_origin(pieces, ks, value, deriv):
    """Solutions with data (value, deriv) at the support edge, carried to
    x = 0 for a 1-d array of real k; (K, n, m) arrays in, (K, n, m) out.

    Each piece and each gap is crossed by its exact transfer matrix.
    """
    ks = np.asarray(ks, dtype=float)
    n = value.shape[1]
    Y = np.concatenate([value, deriv], axis=1)
    G = np.zeros((ks.size, 2 * n, 2 * n), dtype=complex)
    G[:, :n, n:] = np.eye(n)
    k2 = (ks * ks)[:, None, None] * np.eye(n)
    for lo, hi, V in _segments(pieces):
        G[:, n:, :n] = (0.0 if V is None else V) - k2
        Y = expm(-(hi - lo) * G) @ Y
    return Y[:, :n, :], Y[:, n:, :]


def outgoing_at_origin(pieces, n, ks):
    """f(k, 0) and f'(k, 0), where f(k, x) = exp(ikx) I beyond the support."""
    ks = np.asarray(ks, dtype=float)
    x_max = pieces[-1][1] if pieces else 0.0
    ph = np.exp(1j * ks * x_max)[:, None, None] * np.eye(n)
    return carry_to_origin(pieces, ks, ph, (1j * ks)[:, None, None] * ph)


def jost(pieces, A, B, ks):
    """J(k) for a 1-d array of real k, shape (K, n, n)."""
    n = A.shape[0]
    F, dF = outgoing_at_origin(pieces, n, -np.asarray(ks, dtype=float))
    Fh = np.conj(np.swapaxes(F, 1, 2))
    dFh = np.conj(np.swapaxes(dF, 1, 2))
    return Fh @ B - dFh @ A


def smatrix(pieces, A, B, ks):
    """S(k) = -J(-k) J(k)^(-1) for a 1-d array of real k != 0."""
    ks = np.asarray(ks, dtype=float)
    J = jost(pieces, A, B, np.concatenate([ks, -ks]))
    Jp, Jm = J[: ks.size], J[ks.size:]
    # S = -Jm Jp^(-1)  <=>  Jp^T S^T = -Jm^T
    St = np.linalg.solve(np.swapaxes(Jp, 1, 2), -np.swapaxes(Jm, 1, 2))
    return np.swapaxes(St, 1, 2)


def _pairing(value, deriv, A, B):
    return value.conj().T @ B - deriv.conj().T @ A


def s_zero(pieces, A, B, mu):
    """S(0) when ker J(0) has dimension mu and J'(0) maps it onto a
    complement of the range of J(0) (no Jordan chains longer than 1).

    For u in ker J(0), S(k) J(k) u = -J(-k) u gives S(0) J'(0) u = J'(0) u,
    so S(0) = 2P - I with P the orthogonal projector onto J'(0) ker J(0).
    J'(0) is exact: f(k, .) depends on k only through k^2 inside the
    support and through its edge data exp(ikx)(I, ik), so
    d/dk f(k, 0) at k = 0 is i g(0, 0), with g the zero-energy solution
    carrying (x_max I, I) at the edge.
    """
    n = A.shape[0]
    if mu == 0:
        return -np.eye(n, dtype=complex)
    x_max = pieces[-1][1] if pieces else 0.0
    eye = np.eye(n)[None]
    f, df = carry_to_origin(pieces, [0.0], eye.astype(complex), 0.0 * eye)
    g, dg = carry_to_origin(pieces, [0.0], x_max * eye + 0j, eye + 0j)
    J0 = _pairing(f[0], df[0], A, B)
    J1 = 1j * _pairing(g[0], dg[0], A, B)
    kernel = np.linalg.svd(J0)[2][n - mu:].conj().T
    Q = np.linalg.qr(J1 @ kernel)[0]
    return 2.0 * Q @ Q.conj().T - np.eye(n)
