"""The paper's identities on generated potentials and vertex conditions.

Pieces are random Hermitian matrices, may touch their neighbour (or the
origin) and may have a repeated eigenvalue; vertex conditions come from
random unitaries.  The tolerances are the ones ``verify`` pins.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, reject, seed, settings, strategies as st  # noqa: E402

import halfline as hl  # noqa: E402
from halfline.errors import JordanAmbiguityError  # noqa: E402
from halfline.scattering import CROSSCHECK_TOL  # noqa: E402
from conftest import exceptional_bc, rand_bc, rand_potential  # noqa: E402

KS = (0.3, 1.7, 4.9)


def _unitary(draw, n):
    re = draw(st.lists(st.floats(-1.0, 1.0), min_size=n * n, max_size=n * n))
    im = draw(st.lists(st.floats(-1.0, 1.0), min_size=n * n, max_size=n * n))
    return np.linalg.qr(np.reshape(re, (n, n)) + 1j * np.reshape(im, (n, n)))[0]


@st.composite
def configurations(draw):
    n = draw(st.integers(1, 3))
    pieces = []
    x = 0.0
    for _ in range(draw(st.integers(1, 3))):
        lo = x if draw(st.booleans()) else x + draw(st.floats(0.05, 0.5))
        hi = lo + draw(st.floats(0.1, 0.8))
        w = draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
        if n > 1 and draw(st.booleans()):
            w[-1] = w[0]
        Q = _unitary(draw, n)
        pieces.append((lo, hi, Q @ np.diag(w) @ Q.conj().T))
        x = hi
    bc = hl.from_unitary(hl.UnitaryBC(U=_unitary(draw, n)))
    return hl.Potential(n=n, pieces=tuple(pieces)), bc


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(configurations())
def test_scattering_identities(config):
    pot, bc = config
    eye = np.eye(pot.n)
    rows = hl.smatrix_grid(pot, bc, KS + tuple(-k for k in KS))
    assert all("error" not in row for row in rows)
    m = len(KS)
    for k, Sp, Sm in zip(KS, rows[:m], rows[m:]):
        assert Sp["unitarity_residual"] <= 1e-7 and Sm["unitarity_residual"] <= 1e-7
        assert np.linalg.norm(Sm["S"] @ Sp["S"] - eye, 2) <= 1e-8
        J, L = hl.jost_matrix(pot, bc, k).J, hl.l_matrix(pot, bc, k)
        assert np.linalg.norm(J @ L.conj().T - L @ J.conj().T + 2j * k * eye, 2) <= 1e-8


@st.composite
def exceptional_configurations(draw):
    """A generated potential with a vertex condition that puts the bounded
    zero-energy solutions f(0, .) Xi, for a full-rank n x m Xi, in ker J(0)."""
    pot, _ = draw(configurations())
    n, m = pot.n, draw(st.integers(1, pot.n))
    re = draw(st.lists(st.floats(-1.0, 1.0), min_size=n * m, max_size=n * m))
    im = draw(st.lists(st.floats(-1.0, 1.0), min_size=n * m, max_size=n * m))
    Xi = np.reshape(re, (n, m)) + 1j * np.reshape(im, (n, m))
    assume(np.linalg.matrix_rank(Xi) == m)
    return pot, exceptional_bc(pot, Xi), m


@seed(20240817)
@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(exceptional_configurations())
def test_kernel_theorem(config):
    # xi = R u maps ker J(0) one to one into ker J(0)', and phi(0, .) u =
    # f(0, .) xi: the bounded solution carries the boundary data (A u, B u).
    pot, bc, m = config
    try:
        res = hl.zero_energy_pipeline(pot, bc)
    except JordanAmbiguityError:
        # A zero chain of length 2 that roundoff splits by about sqrt(eps)
        # is refused, not guessed; such a draw checks nothing here.
        reject()
    assert res.jordan.mu >= m
    assert res.involution_residual <= 1e-9 and res.s0.unitarity_residual <= 1e-7
    U = np.eye(pot.n)[:, :m]
    xi = res.expansion.R @ U
    J0 = res.jordan.M
    assert np.linalg.matrix_rank(xi) == m
    assert np.linalg.norm(J0.conj().T @ xi, 2) <= 1e-8 * max(1.0, np.linalg.norm(J0, 2))
    f00 = hl.jost_solution(pot, 0.0, 0.0)
    assert np.linalg.norm(f00.value @ xi - bc.A @ U, 2) <= 1e-8
    assert np.linalg.norm(f00.deriv @ xi - bc.B @ U, 2) <= 1e-8



def _twenty_pieces(n, kind, seed):
    """A fixed-seed case beyond the generated ones: 20 pieces, and a random
    condition or one that puts f(0, .) xi for one random xi in ker J(0)."""
    rng = np.random.default_rng([n, seed])
    pot = rand_potential(rng, n, 20)
    xi = rng.normal(size=(n, 1)) + 1j * rng.normal(size=(n, 1))
    return pot, rand_bc(rng, n) if kind == "generic" else exceptional_bc(pot, xi)


def _pipeline(pot, bc):
    try:
        return hl.zero_energy_pipeline(pot, bc)
    except JordanAmbiguityError:
        return None  # refused, not guessed, as in test_kernel_theorem


TWENTY_PIECES = [(n, kind, seed) for n in (2, 8) for kind in ("generic", "exceptional")
                 for seed in range(5)]


@pytest.mark.parametrize("n, kind, seed", TWENTY_PIECES)
def test_identities_on_twenty_pieces(n, kind, seed):
    # S(0)^2 = I, S(k) unitary and S(-k) S(k) = I at |k| up to 50, and J at
    # Im k > 0 the same read at the support edge and halfway into it.
    pot, bc = _twenty_pieces(n, kind, seed)
    eye = np.eye(n)
    res = _pipeline(pot, bc)
    assert res is None or res.involution_residual <= 1e-9
    ks = (20.0, 35.0, 50.0)
    rows = hl.smatrix_grid(pot, bc, ks + tuple(-k for k in ks))
    assert all("error" not in row for row in rows)
    for Sp, Sm in zip(rows[:3], rows[3:]):
        assert Sp["unitarity_residual"] <= 1e-7 and Sm["unitarity_residual"] <= 1e-7
        assert np.linalg.norm(Sm["S"] @ Sp["S"] - eye, 2) <= 1e-8
    for k in (1 + 0.3j, 0.4 + 0.5j):
        J = hl.jost_matrix(pot, bc, k).J
        J_mid = hl.jost_matrix(pot, bc, k, pot.x_max / 2).J
        assert np.linalg.norm(J_mid - J, 2) <= CROSSCHECK_TOL * np.linalg.norm(J, 2)


#: Exceptional cases whose S(0) misses unitarity: the residual grows about
#: like 1e-15 |f(0, 0)|^2, and f(0, .) grows to |f(0, 0)| = 4e4 (n = 2,
#: seed 1) and 2e5 to 2e6 (n = 8) across these supports.
S0_NOT_UNITARY = {(2, "exceptional", 1), *((8, "exceptional", seed) for seed in range(5))}


@pytest.mark.parametrize("n, kind, seed", [
    pytest.param(*case, marks=pytest.mark.xfail(
        strict=True, reason="exceptional S(0) loses unitarity as f(0, .) grows"))
    if case in S0_NOT_UNITARY else case for case in TWENTY_PIECES])
def test_s0_is_unitary_on_twenty_pieces(n, kind, seed):
    res = _pipeline(*_twenty_pieces(n, kind, seed))
    assert res is None or res.s0.unitarity_residual <= 1e-7
