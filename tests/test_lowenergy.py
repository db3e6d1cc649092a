"""Jordan pipeline, zero-energy scattering matrix, and kernel maps."""

import dataclasses
import itertools
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest

import halfline as hl
from halfline import exactalg as xa
from halfline.errors import JordanAmbiguityError, NumericalError, ValidationError
from halfline.fixtures import get_fixture
from halfline.lowenergy import (
    JordanData,
    _assemble,
    _checked_inverse,
    _jordan_matrix,
    _perm_gathers,
    exact_free_pipeline,
    jost_inverse_asymptotics,
)
from conftest import exact_jordan_form, per_centre_jordan, rand_bc, rand_potential, \
    rand_unitary, scalar_well, tuned_resonance_well


# ---------------------------------------------------------------------------
# jordan_form
# ---------------------------------------------------------------------------

def check_jordan_invariants(jd, tol):
    n = jd.n
    assert np.linalg.norm(jd.Sinv @ jd.Smat - np.eye(n), 2) < tol
    assert np.linalg.norm(jd.Sinv @ jd.M @ jd.Smat - _jordan_matrix(
        jd.chains, np.eye(n, dtype=complex)), 2) < tol
    zero_lengths = [L for lam, L in jd.chains if lam == 0]
    assert len(zero_lengths) == jd.mu
    assert sum(zero_lengths) == jd.nu
    assert sum(L for _, L in jd.chains) == n
    # zero chains come first
    first_nonzero = next((i for i, (lam, _) in enumerate(jd.chains) if lam != 0),
                         len(jd.chains))
    assert all(lam != 0 for lam, _ in jd.chains[first_nonzero:])
    # chain relations
    pos = 0
    for lam, L in jd.chains:
        N = jd.M - lam * np.eye(n)
        vecs = [jd.Smat[:, pos + i] for i in range(L)]
        assert np.linalg.norm(N @ vecs[0]) < tol * max(1, np.linalg.norm(jd.M, 2))
        for i in range(1, L):
            assert np.linalg.norm(N @ vecs[i] - vecs[i - 1]) < tol * max(
                1, np.linalg.norm(jd.M, 2)
            )
        pos += L


@pytest.mark.parametrize("fid,eigs,kappa", [
    ("7.1", {0.0: 2, -1.0: 1}, 3),
    ("7.2", {0.0: 1, -1.0: 2}, 2),
    ("7.3", {0.0: 3, -1.0: 1}, 4),
    ("7.4", {0.0: 3}, 2),
])
@pytest.mark.parametrize("mode", ["numeric", "exact"])
def test_jordan_fixture_structures(fid, eigs, kappa, mode):
    fx = get_fixture(fid)
    J0 = hl.jost_matrix_zero(fx.potential(), fx.bc())
    jd = hl.jordan_form(J0) if mode == "numeric" else exact_jordan_form(J0)
    assert (jd.mu, jd.nu, jd.kappa) == (fx.mu, fx.nu, kappa)
    got = {}
    for lam, L in jd.chains:
        key = round(lam.real, 9) + 1j * round(lam.imag, 9)
        got[key] = got.get(key, 0) + L
    assert got == {complex(k): v for k, v in eigs.items()}
    check_jordan_invariants(jd, 1e-9)


def test_jordan_zero_matrix():
    jd = hl.jordan_form(np.zeros((3, 3)))
    assert (jd.mu, jd.nu, jd.kappa) == (3, 3, 3)
    assert np.allclose(jd.Smat, np.eye(3))


def test_jordan_single_nilpotent_block():
    M = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    jd = hl.jordan_form(M)
    assert (jd.mu, jd.nu) == (1, 2)
    check_jordan_invariants(jd, 1e-12)


def test_jordan_generic_random(rng):
    for _ in range(10):
        M = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        jd = hl.jordan_form(M)
        assert jd.mu == 0 and jd.kappa == 4
        check_jordan_invariants(jd, 1e-8)


def test_jordan_similarity_of_defective_structure(rng, monkeypatch):
    # A hidden 3x3 nilpotent chain plus a distinct eigenvalue, conjugated by
    # a random well-conditioned similarity.  Roundoff scatters the defective
    # eigenvalues like eps^(1/3), so the default radius must refuse rather
    # than guess; a radius covering the scatter recovers the structure.
    J = np.zeros((4, 4), dtype=complex)
    J[0, 1] = 1.0
    J[1, 2] = 1.0
    J[3, 3] = 2.0
    T = rng.normal(size=(4, 4)) + 0.3j * rng.normal(size=(4, 4)) + 3 * np.eye(4)
    M = T @ J @ np.linalg.inv(T)
    with pytest.raises(JordanAmbiguityError):
        hl.jordan_form(M)
    monkeypatch.setattr(hl.lowenergy, "EPS_EIG", 1e-5)
    jd = hl.jordan_form(M)
    assert (jd.mu, jd.nu) == (1, 3)
    assert sorted(L for lam, L in jd.chains if lam == 0) == [3]
    check_jordan_invariants(jd, 1e-6)


def test_jordan_exact_requires_rational_spectrum():
    M = np.array([[0.0, 1.0], [0.5, 0.0]])  # eigenvalues +-sqrt(1/2)
    with pytest.raises(NumericalError, match="Gaussian rationals"):
        exact_jordan_form(M)


def test_jordan_exact_finds_eigenvalues_that_roundoff_splits(rng):
    # Roundoff splits the eigenvalue 2 of a length-3 chain by about
    # eps^(1/3), too far for a snap to the nearest small rational; exact
    # mode must still find J_3(2) + 0 + (-1+i) under integer similarities.
    J = np.diag([2, 2, 2, 0, -1 + 1j])
    J[0, 1] = J[1, 2] = 1
    for _ in range(20):
        P, Pinv = _unimodular(rng, 5)
        jd = exact_jordan_form(P @ J @ Pinv)
        assert jd.chains == ((0j, 1), (-1 + 1j, 1), (2 + 0j, 3))
        check_jordan_invariants(jd, 1e-9)


def test_jordan_exact_proposes_zero_without_clustering(monkeypatch):
    # Zero is a candidate in its own right: a nilpotent chain of length 6,
    # split by roundoff, is found with no cluster mean proposed.
    monkeypatch.setattr(hl.lowenergy, "EXACT_CLUSTER_RADII", ())
    P, Pinv = _unimodular(np.random.default_rng(6), 6)
    jd = exact_jordan_form(P @ _nilpotent_jordan([6]) @ Pinv)
    assert jd.chains == ((0j, 6),)


def test_jordan_ambiguity_reported():
    # Both eigenvalues lie within the clustering radius of 0, so they form
    # one cluster, and the staircase finds no kernel at the rank threshold.
    M = np.diag([1e-9, 2e-9]).astype(complex)
    with pytest.raises(JordanAmbiguityError):
        hl.jordan_form(M)


@pytest.mark.parametrize("diagonal,message", [
    ([1e-9, 2e-9], "rank staircase for eigenvalue 0+0j stalled at 0 of 2 directions"),
    ([0.9e-8 * i for i in range(7)],
     "cluster at 2.7e-08+0j has diameter 5.400e-08 above 5x the clustering radius"),
])
def test_jordan_refusal_messages(diagonal, message):
    # The messages are what `s0` prints; each refusal here has one cluster,
    # so no gaps.
    with pytest.raises(JordanAmbiguityError) as info:
        hl.jordan_form(np.diag(diagonal))
    assert str(info.value) == message
    assert info.value.gaps == ()


def test_jordan_exact_mode_matches_numeric_fixture():
    fx = get_fixture("7.4")
    J0 = hl.jost_matrix_zero(fx.potential(), fx.bc())
    je = exact_jordan_form(J0)
    assert np.allclose(je.Smat, np.eye(3))  # pivot-ordered exact basis
    check_jordan_invariants(je, 1e-14)


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------

def _nilpotent_jordan(lengths):
    nu = sum(lengths)
    Jz = np.zeros((nu, nu))
    pos = 0
    for L in lengths:
        for i in range(L - 1):
            Jz[pos + i, pos + i + 1] = 1.0
        pos += L
    return Jz


def _perm_indices(lengths):
    """The paper's 1-based column targets q and row sources sigma for the
    zero block, as a reference for ``_perm_gathers``.

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
        (alpha,) = [alpha for alpha in range(1, mu + 1)
                    if 2 <= t - cum[alpha - 1] + alpha <= lengths[alpha - 1]]
        q.append(t + alpha)
        sigma.append(t + alpha - 1)
    return q, sigma


def _compositions(total):
    """Every ordered list of positive integers with the given sum."""
    if total == 0:
        return [[]]
    return [[first, *rest] for first in range(1, total + 1)
            for rest in _compositions(total - first)]


# every ordered list of chain lengths with sum <= 6 (63 lists)
CHAIN_LENGTHS = [
    list(c) for m in range(1, 7) for c in itertools.product(range(1, 7), repeat=m)
    if sum(c) <= 6
]


@pytest.mark.parametrize("nonzero", [(), ((2.0, 1), (-1 + 1j, 2))])
def test_perm_gathers_follow_the_index_equation(nonzero):
    # All 256 compositions of nu <= 8, alone and followed by two nonzero
    # chains, which the gathers leave in place.
    for nu in range(9):
        for lengths in _compositions(nu):
            n = nu + sum(L for _, L in nonzero)
            q, sigma = _perm_indices(lengths)
            rest = list(range(nu, n))
            chains = [(0j, L) for L in lengths] + list(nonzero)
            assert _perm_gathers(chains, n) == ([j - 1 for j in q] + rest,
                                                [i - 1 for i in sigma] + rest), chains


@pytest.mark.parametrize("lengths", CHAIN_LENGTHS)
def test_perm_indices_gather_identity_block(lengths):
    mu, nu = len(lengths), sum(lengths)
    q, sigma = _perm_indices(lengths)
    assert sorted(q) == list(range(1, nu + 1))
    assert sorted(sigma) == list(range(1, nu + 1))
    P1 = np.zeros((nu, nu))
    P2 = np.zeros((nu, nu))
    for j, qj in enumerate(q):
        P1[qj - 1, j] = 1.0
    for i, si in enumerate(sigma):
        P2[i, si - 1] = 1.0
    out = P2 @ _nilpotent_jordan(lengths) @ P1
    expect = np.zeros((nu, nu))
    expect[mu:, mu:] = np.eye(nu - mu)
    assert np.array_equal(out, expect)


def _expansion(pot, bc, a, jd=None):
    """The pipeline's permutations, R and blocks, or with ``jd`` given, those
    that its R gives on that Jordan data."""
    ex = hl.zero_energy_pipeline(pot, bc, a=a).expansion
    if jd is None:
        return ex
    return _assemble(jd.Smat, jd.Sinv, jd.chains, ex.R, np.eye(jd.n), _checked_inverse)


def test_build_permutations_fixture_values():
    for fid in ("7.1", "7.2", "7.3"):
        fx = get_fixture(fid)
        ex = _expansion(fx.potential(), fx.bc(), None)
        assert np.array_equal(ex.P1, np.eye(fx.n))
        assert np.array_equal(ex.P2, np.eye(fx.n))
    fx = get_fixture("7.4")
    ex = _expansion(fx.potential(), fx.bc(), None)
    assert np.array_equal(ex.P1, np.eye(3))
    assert np.array_equal(ex.P2, fx.P2)


def test_build_permutations_block_structure(rng):
    # P2 (Sinv J(0) Smat) P1 = diag(0_mu, I_(nu-mu), nonzero blocks).
    J = np.zeros((5, 5), dtype=complex)
    J[0, 1] = 1.0          # zero chain of length 2
    J[3, 3] = -1.0         # nonzero chain of length 2
    J[3, 4] = 1.0
    J[4, 4] = -1.0
    T = rng.normal(size=(5, 5)) + 2.5 * np.eye(5)
    M = T @ J @ np.linalg.inv(T)
    jd = hl.jordan_form(M)
    # The permutations depend on the chains alone; any 5 x 5 configuration
    # with an invertible A1 carries them through the pipeline.
    ex = _expansion(hl.free_potential(5), rand_bc(rng, 5), None, jd)
    out = ex.P2 @ jd.Sinv @ M @ jd.Smat @ ex.P1
    expect = np.zeros((5, 5), dtype=complex)
    expect[2, 2] = 1.0
    expect[3:, 3:] = [[-1, 1], [0, -1]]
    assert np.linalg.norm(out - expect, 2) < 1e-7


# ---------------------------------------------------------------------------
# R, the blocks and z_of_k
# ---------------------------------------------------------------------------

def test_r_matrix_free_values(rng):
    bc = rand_bc(rng, 2)
    pot = hl.free_potential(2)
    assert np.allclose(_expansion(pot, bc, 0.0).R, bc.A, atol=1e-13)
    assert np.allclose(_expansion(pot, bc, 1.5).R, bc.A + 1.5 * bc.B, atol=1e-12)


@pytest.mark.parametrize("fid", ["7.1", "7.2", "7.3", "7.4"])
def test_z_blocks_fixture(fid):
    # The numeric assembly on exact Jordan data reproduces the exact
    # pipeline's blocks and S(0).
    fx = get_fixture(fid)
    pot, bc = fx.potential(), fx.bc()
    jd = exact_jordan_form(hl.jost_matrix_zero(pot, bc))
    ex = _expansion(pot, bc, 0.0, jd)
    A1, B1, C1, D0, S0 = ex.A1, ex.B1, ex.C1, ex.D0, ex.S0
    _, exact = exact_free_pipeline(fx.A_exact, fx.B_exact)
    for name, got in (("A1", A1), ("C1", C1), ("D0", D0), ("S0", S0)):
        expect = getattr(exact, name).astype(complex)
        assert got.shape == expect.shape, name
        assert np.linalg.norm(got - expect) < 1e-12, name
    if fid == "7.1":
        assert np.linalg.norm(A1 - np.array([[-1j, -1j], [1j, -2j]]), 2) < 1e-12
        assert np.linalg.norm(B1 - np.array([[0.0], [-1j]]), 2) < 1e-12  # a = 2
        assert np.linalg.norm(C1 - np.array([[0.0, 1j]]), 2) < 1e-12
        assert np.linalg.norm(D0 - np.array([[-1.0]]), 2) < 1e-14


def test_z_blocks_fixture_73_and_74():
    fx = get_fixture("7.3")
    _, ex = exact_free_pipeline(fx.A_exact, fx.B_exact)
    assert np.array_equal(ex.A1, fx.blocks_exact["A1"])
    assert np.array_equal(ex.C1, fx.blocks_exact["C1"])
    fx4 = get_fixture("7.4")
    _, ex4 = exact_free_pipeline(fx4.A_exact, fx4.B_exact)
    assert np.array_equal(ex4.A1, fx4.blocks_exact["A1"])
    assert np.array_equal(ex4.D0, fx4.blocks_exact["D0"])


def test_z_blocks_invariant_blocks_kirchhoff():
    # A1 diagonal entries and D0 do not depend on the chain scaling.
    fx = get_fixture("7.2")
    _, ex = exact_free_pipeline(fx.A_exact, fx.B_exact)
    assert np.array_equal(ex.A1, fx.blocks_exact["A1"])  # [-3i]
    assert np.array_equal(ex.D0, fx.blocks_exact["D0"])


def test_z_blocks_generic_case_empty(rng):
    pot = hl.free_potential(2)
    bc = hl.dirichlet(2)
    ex = _expansion(pot, bc, None)
    A1, B1, C1, D0 = ex.A1, ex.B1, ex.C1, ex.D0
    assert A1.shape == (0, 0) and B1.shape == (0, 2)
    assert C1.shape == (2, 0) and D0.shape == (2, 2)


def test_z_of_k_matches_fixture_display():
    fx = get_fixture("7.1")
    pot, bc = fx.potential(), fx.bc()
    jd = exact_jordan_form(hl.jost_matrix_zero(pot, bc))
    ex = _expansion(pot, bc, None, jd)
    k = 0.3
    Z = hl.z_of_k(pot, bc, k, 0.0, jd, ex.P1, ex.P2)
    a = 2.0
    expect = np.array([
        [-1j * k, -1j * k, (a - 2) * 1j * k],
        [1j * k, -2j * k, -1j * k],
        [0, 1j * k, -1 + 1j * k],
    ])
    assert np.linalg.norm(Z - expect, 2) < 1e-12


def test_z_of_k_matches_kirchhoff_display_up_to_chain_scaling():
    # The documented Z(k) table for the kirchhoff fixture uses chains
    # scaled by 1/sqrt(2); conjugating by the per-position chain scales
    # maps one basis to the other.
    fx = get_fixture("7.2")
    pot, bc = fx.potential(), fx.bc()
    jd = exact_jordan_form(hl.jost_matrix_zero(pot, bc))
    ex = _expansion(pot, bc, None, jd)
    k = 0.37
    Z = hl.z_of_k(pot, bc, k, 0.0, jd, ex.P1, ex.P2)
    gamma = np.diag([1.0, 1 / np.sqrt(2), 1 / np.sqrt(2)])
    displayed = np.array([
        [-3j * k, -3j * k / np.sqrt(2), 0],
        [2 * np.sqrt(2) * 1j * k, -1 + 2j * k, 1],
        [np.sqrt(2) * 1j * k, 1j * k, -1],
    ])
    assert np.linalg.norm(np.linalg.inv(gamma) @ Z @ gamma - displayed, 2) < 1e-12


def test_z_of_k_zero_is_permuted_jordan_form(rng):
    pot = rand_potential(rng, 2)
    bc = rand_bc(rng, 2)
    jd = hl.jordan_form(hl.jost_matrix_zero(pot, bc))
    ex = _expansion(pot, bc, None, jd)
    Z0 = hl.z_of_k(pot, bc, 0.0, None, jd, ex.P1, ex.P2)
    expect = ex.P2 @ _jordan_matrix(jd.chains, np.eye(jd.n, dtype=complex)) @ ex.P1
    assert np.linalg.norm(Z0 - expect, 2) < 1e-8


def test_z_of_k_linear_term_matches_blocks():
    # Finite differences of Z at 0 recover (A1, B1, C1) within o(k).
    pot = tuned_resonance_well()
    bc = hl.dirichlet(1)
    res = hl.zero_energy_pipeline(pot, bc)
    jd, exp = res.jordan, res.expansion
    mu = jd.mu
    errs = []
    for k in (1e-2, 1e-3):
        Z = hl.z_of_k(pot, bc, k, None, jd, exp.P1, exp.P2)
        errs.append(abs(Z[:mu, :mu] / k - exp.A1).max())
    assert errs[1] < 0.5 * errs[0]


def test_z_ratio_limit_structure():
    # Z(-k) Z(k)^(-1) tends to [[-I, 0], [-2 C1 A1^(-1), I]].
    fx = get_fixture("7.1")
    pot, bc = fx.potential(), fx.bc()
    res = hl.zero_energy_pipeline(pot, bc)
    jd, exp = res.jordan, res.expansion
    mu = jd.mu
    k = 1e-4
    Zp = hl.z_of_k(pot, bc, k, None, jd, exp.P1, exp.P2)
    Zm = hl.z_of_k(pot, bc, -k, None, jd, exp.P1, exp.P2)
    ratio = Zm @ np.linalg.inv(Zp)
    n = jd.n
    assert np.linalg.norm(ratio[:mu, :mu] + np.eye(mu), 2) < 1e-3
    assert np.linalg.norm(ratio[mu:, mu:] - np.eye(n - mu), 2) < 1e-3
    expect_lower = -2.0 * exp.C1 @ np.linalg.inv(exp.A1)
    assert np.linalg.norm(ratio[mu:, :mu] - expect_lower, 2) < 1e-3


# ---------------------------------------------------------------------------
# S(0) and the full pipeline
# ---------------------------------------------------------------------------

def test_s_zero_fixtures_all_modes():
    for fid in ("7.1", "7.2", "7.3", "7.4"):
        fx = get_fixture(fid)
        for mode in ("numeric", "exact"):
            ev = hl.zero_energy_pipeline(fx.potential(), fx.bc(), mode=mode).s0
            assert np.linalg.norm(ev.S - fx.s0, 2) < 1e-10, (fid, mode)


def check_s_zero(bc, mode, signs):
    """S(0) = diag(signs) with mu = nu = number of +1 channels; in exact
    mode also the exact S(0) and the shapes of the mu-split blocks, which
    are empty at mu = 0 or mu = n."""
    n, mu = bc.n, signs.count(1)
    res = hl.zero_energy_pipeline(hl.free_potential(n), bc, mode=mode)
    assert np.allclose(res.s0.S, np.diag(signs), atol=1e-12)
    assert (res.jordan.mu, res.jordan.nu) == (mu, mu)
    if mode == "exact":
        ex = res.exact
        assert np.array_equal(ex.S0, np.diag(signs).astype(object))
        assert ex.A1.shape == (mu, mu)
        assert ex.C1.shape == (n - mu, mu)
        assert ex.D0.shape == (n - mu, n - mu)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("mode", ["numeric", "exact"])
def test_s_zero_generic_is_minus_identity(mode, n):
    check_s_zero(hl.dirichlet(n), mode, [-1] * n)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("mode", ["numeric", "exact"])
def test_s_zero_fully_exceptional_is_identity(mode, n):
    check_s_zero(hl.neumann(n), mode, [1] * n)


@pytest.mark.parametrize("angles,signs", [
    ([np.pi / 2, np.pi], [1, -1]),
    ([np.pi, np.pi / 2, np.pi / 2], [-1, 1, 1]),
])
@pytest.mark.parametrize("mode", ["numeric", "exact"])
def test_s_zero_mixed_neumann_dirichlet_channels(mode, angles, signs):
    # A pi/2 channel is Neumann (S = +1), a pi channel Dirichlet (S = -1).
    check_s_zero(hl.from_angles(angles), mode, signs)


def test_s_zero_involution_and_continuity(rng):
    configs = [
        (scalar_well(0.6), hl.dirichlet(1)),
        (scalar_well(0.8), hl.from_angles([np.pi / 3])),
        (rand_potential(rng, 2, scale=0.4), rand_bc(rng, 2)),
        (tuned_resonance_well(), hl.dirichlet(1)),
    ]
    for pot, bc in configs:
        res = hl.zero_energy_pipeline(pot, bc)
        assert res.involution_residual < 1e-9
        assert res.s0.unitarity_residual < 1e-7
        dists = [d for _, d in res.continuity_probes]
        assert dists[0] > dists[1] > dists[2]
        assert dists[-1] < 1e-2


def test_s_zero_gauge_invariance(rng):
    for fid in ("7.1", "7.4"):
        fx = get_fixture(fid)
        pot, bc = fx.potential(), fx.bc()
        D = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) + 3 * np.eye(3)
        bc_g = hl.gauge_transform(bc, D)
        ev = hl.zero_energy_pipeline(pot, bc_g).s0
        assert np.linalg.norm(ev.S - fx.s0, 2) < 1e-8, fid


def test_s_zero_basis_independence(rng):
    # Rescaling every Jordan chain by a random nonzero factor leaves S(0)
    # unchanged.
    fx = get_fixture("7.1")
    pot, bc = fx.potential(), fx.bc()
    base = hl.zero_energy_pipeline(pot, bc)
    jd = base.jordan
    scales = []
    cols = np.array(jd.Smat)
    rows = np.array(jd.Sinv)
    pos = 0
    for _, L in jd.chains:
        c = complex(rng.normal() + 1j * rng.normal())
        while abs(c) < 0.1:
            c = complex(rng.normal() + 1j * rng.normal())
        cols[:, pos:pos + L] *= c
        rows[pos:pos + L, :] /= c
        scales.append(c)
        pos += L
    jd2 = JordanData(M=jd.M, Smat=cols, Sinv=rows, chains=jd.chains)
    ex2 = _assemble(jd2.Smat, jd2.Sinv, jd2.chains, base.expansion.R, np.eye(jd.n),
                    _checked_inverse)
    assert np.linalg.norm(ex2.S0 - base.s0.S, 2) < 1e-9


def test_s_zero_exact_mode_requires_free_potential():
    with pytest.raises(ValidationError):
        hl.zero_energy_pipeline(scalar_well(1.0), hl.dirichlet(1), mode="exact")


@pytest.mark.parametrize("fid", ["7.1", "7.2", "7.3", "7.4"])
def test_exact_mode_involution_residual_is_exact(fid, monkeypatch):
    # S(0)^2 = I over the rationals reads 0.0, though the complex copy of an
    # S(0) with entries 1/3 and -2/3 need not square to I in floats.  An
    # exact S(0) that is no involution reports its complex residual.
    from halfline import lowenergy

    fx = get_fixture(fid)
    res = hl.zero_energy_pipeline(fx.potential(), fx.bc(), a=0.5, mode="exact")
    assert res.involution_residual == 0.0
    pipeline = lowenergy.exact_free_pipeline

    def doubled(*args, **kwargs):
        jd, ex = pipeline(*args, **kwargs)
        return jd, dataclasses.replace(ex, S0=ex.S0 * 2)

    monkeypatch.setattr(lowenergy, "exact_free_pipeline", doubled)
    res = hl.zero_energy_pipeline(fx.potential(), fx.bc(), a=0.5, mode="exact")
    S0 = res.expansion.S0
    assert res.involution_residual == float(np.linalg.norm(S0 @ S0 - np.eye(fx.n), 2)) > 1


@pytest.mark.parametrize("a", [np.pi, np.e, np.sqrt(2)])
def test_exact_mode_refuses_an_irrational_matching_point(a):
    fx = get_fixture("7.1")
    with pytest.raises(ValidationError, match="matching point a"):
        hl.zero_energy_pipeline(fx.potential(), fx.bc(), a=a, mode="exact")


def test_exact_mode_refuses_irrational_boundary_entries():
    # cos(pi/3) rounds to 1/2, but sin(pi/3) is irrational.
    with pytest.raises(ValidationError, match="entry .* is not a small rational"):
        hl.zero_energy_pipeline(hl.free_potential(1), hl.from_angles([np.pi / 3]), mode="exact")


@pytest.mark.parametrize("a", [0.0, 0.1, 2.0])
def test_exact_mode_slope_matrix_equals_numeric(a):
    fx = get_fixture("7.1")
    exact = hl.zero_energy_pipeline(fx.potential(), fx.bc(), a=a, mode="exact")
    numeric = hl.zero_energy_pipeline(fx.potential(), fx.bc(), a=a)
    assert np.array_equal(exact.expansion.R, numeric.expansion.R)
    assert np.array_equal(exact.exact.R, fx.A_exact + fx.B_exact * xa.snap(a))


def test_exact_free_pipeline_s0_equality():
    for fid in ("7.1", "7.2", "7.3", "7.4"):
        fx = get_fixture(fid)
        jd, ex = exact_free_pipeline(fx.A_exact, fx.B_exact)
        assert np.array_equal(ex.S0, fx.s0_exact), fid
        assert (jd.mu, jd.nu) == (fx.mu, fx.nu)


def _unimodular(rng, n):
    """A random integer matrix of determinant 1 and its integer inverse,
    as a product of unit lower and unit upper triangular factors."""
    L = np.tril(rng.integers(-1, 2, size=(n, n)), -1) + np.eye(n, dtype=int)
    U = np.triu(rng.integers(-1, 2, size=(n, n)), 1) + np.eye(n, dtype=int)
    P = L @ U
    Pinv = np.rint(np.linalg.inv(P)).astype(int)
    assert np.array_equal(P @ Pinv, np.eye(n, dtype=int))
    return P, Pinv


@pytest.mark.parametrize("lengths", CHAIN_LENGTHS)
def test_numeric_jordan_and_assembly_agree_with_exact_or_refuse(lengths):
    # J(0) = P J P^(-1) over the integers, where J has zero chains of the
    # given lengths and a simple eigenvalue 2, and an integer slope matrix R
    # (redrawn until A1 is invertible).  The exact pipeline must succeed
    # with S(0)^2 = I exactly; numeric jordan_form plus _assemble on the
    # complex copies must give the exact (mu, nu) and S(0) within 1e-8
    # relative, or refuse.  It must never return a wrong S(0).
    rng = np.random.default_rng([20261019, *lengths])
    n = sum(lengths) + 1
    J = _nilpotent_jordan(lengths + [1]).astype(int)
    J[-1, -1] = 2
    P, Pinv = _unimodular(rng, n)
    M = P @ J @ Pinv
    while True:
        R = rng.integers(-3, 4, size=(n, n))
        try:
            jd, ex = exact_free_pipeline(R.tolist(), M.tolist())
            break
        except ZeroDivisionError:  # A1 is singular for this R
            continue
    assert (jd.mu, jd.nu) == (len(lengths), sum(lengths))
    assert np.array_equal(ex.S0 @ ex.S0, np.eye(n, dtype=object))
    S0 = ex.S0.astype(complex)
    try:
        jn = hl.jordan_form(M.astype(complex))
        got = _assemble(jn.Smat, jn.Sinv, jn.chains, R.astype(complex), np.eye(n),
                        _checked_inverse).S0
    except NumericalError:  # JordanAmbiguityError included: a refusal
        return
    assert (jn.mu, jn.nu) == (jd.mu, jd.nu)
    assert np.linalg.norm(got - S0, 2) <= 1e-8 * np.linalg.norm(S0, 2)


def _bits(M):
    return M.dtype, M.shape, M.tobytes()


def _jordan_outcome(jordan, M):
    """The bits of the Jordan data of M, or the refusal's type, text and gaps."""
    try:
        jd = jordan(M)
    except NumericalError as exc:
        return type(exc), str(exc), getattr(exc, "gaps", None)
    return _bits(jd.M), _bits(jd.Smat), _bits(jd.Sinv), jd.chains


def _jordan_draws(rng, n):
    """A random M of size n with simple eigenvalues, then one with zero
    chains (up to length 2) and simple nonzero eigenvalues under a unitary
    and under an integer similarity."""
    yield rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    lengths = {1: [1], 2: [2], 3: [2, 1], 8: [2, 2, 1]}[n]
    J = _nilpotent_jordan(lengths + [1] * (n - sum(lengths))).astype(complex)
    J[sum(lengths):, sum(lengths):] += np.diag(rng.integers(1, 4, size=n - sum(lengths)))
    U = rand_unitary(rng, n)
    P, Pinv = _unimodular(rng, n)
    yield U @ J @ U.conj().T
    yield (P @ J @ Pinv).astype(complex)


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_jordan_form_matches_the_per_centre_staircase(n):
    # jordan_form takes the first rung's SVDs of every cluster centre as one
    # stack and skips empty projections; the per-centre loop it replaced
    # gives the same Smat, Sinv and chains bit for bit, or the same refusal.
    rng = np.random.default_rng([20261020, n])
    outcomes = []
    for _ in range(6):
        for M in _jordan_draws(rng, n):
            want = _jordan_outcome(per_centre_jordan, M)
            assert _jordan_outcome(hl.jordan_form, M) == want
            outcomes.append(isinstance(want[0], type))
    assert not all(outcomes)  # some draws decompose


def test_jordan_form_matches_the_per_centre_refusals():
    # The clustered condition of the CI (J(0) = diag(0, 5e-8)) and the
    # J_3(0) + (2) draws under integer L U similarities (entries -4..4),
    # most of which the backend refuses and some of which it misreads.
    close = np.diag([0.0, 5e-8]).astype(complex)
    assert _jordan_outcome(hl.jordan_form, close) == _jordan_outcome(per_centre_jordan, close)
    assert _jordan_outcome(hl.jordan_form, close)[0] is JordanAmbiguityError
    rng = np.random.default_rng(1)
    J = _nilpotent_jordan([3, 1]).astype(complex)
    J[3, 3] = 2
    refused = 0
    for _ in range(300):
        L = np.tril(rng.integers(-4, 5, size=(4, 4)), -1) + np.eye(4, dtype=int)
        U = np.triu(rng.integers(-4, 5, size=(4, 4)), 1) + np.eye(4, dtype=int)
        P = L @ U
        M = (P @ J @ np.rint(np.linalg.inv(P))).astype(complex)
        want = _jordan_outcome(per_centre_jordan, M)
        assert _jordan_outcome(hl.jordan_form, M) == want
        refused += want[0] is JordanAmbiguityError
    assert 0 < refused < 300


@pytest.mark.parametrize("a", [Fraction(0), Fraction(1, 2)])
@pytest.mark.parametrize("fid", ["7.1", "7.2", "7.3", "7.4"])
def test_exact_expansion_is_gaussian_rational_and_the_pipeline_casts_it(fid, a):
    # P1 and P2 of the exact expansion are permutation matrices of QC, and
    # exact mode's expansion is the exact one cast to complex, bit for bit.
    fx = get_fixture(fid)
    _, ex = exact_free_pipeline(fx.A_exact, fx.B_exact, a=a)
    for P in (ex.P1, ex.P2):
        assert P.dtype == object and all(type(x) is xa.QC for x in P.flat)
        assert all(x == 0 or x == 1 for x in P.flat)
        assert np.array_equal(P.T @ P, np.eye(fx.n, dtype=object))
    res = hl.zero_energy_pipeline(fx.potential(), fx.bc(), a=float(a), mode="exact")
    for f in fields(ex):
        assert np.array_equal(getattr(res.exact, f.name), getattr(ex, f.name)), f.name
        assert _bits(getattr(res.expansion, f.name)) == _bits(
            getattr(ex, f.name).astype(complex)), f.name


# ---------------------------------------------------------------------------
# inverse asymptotics and kernel maps
# ---------------------------------------------------------------------------

def test_jost_inverse_asymptotics_neumann_free():
    pot, bc = hl.free_potential(1), hl.neumann(1)
    res = hl.zero_energy_pipeline(pot, bc)
    lead, order = jost_inverse_asymptotics(res.expansion, res.jordan)
    assert order == 1
    assert abs(lead[0, 0] + 1j) < 1e-12  # 1/i


def test_jost_inverse_asymptotics_generic():
    pot, bc = hl.free_potential(2), hl.dirichlet(2)
    res = hl.zero_energy_pipeline(pot, bc)
    lead, order = jost_inverse_asymptotics(res.expansion, res.jordan)
    assert order == 0
    assert np.allclose(lead, -np.eye(2))


def test_jost_inverse_asymptotics_fixture_limit():
    fx = get_fixture("7.1")
    pot, bc = fx.potential(), fx.bc()
    res = hl.zero_energy_pipeline(pot, bc)
    lead, order = jost_inverse_asymptotics(res.expansion, res.jordan)
    assert order == 1
    k = 1e-4
    Jk = hl.jost_matrix(pot, bc, k).J
    assert np.linalg.norm(k * np.linalg.inv(Jk) - lead, 2) < 1e-3


def test_jost_inverse_asymptotics_resonance_limit():
    pot = tuned_resonance_well()
    bc = hl.dirichlet(1)
    res = hl.zero_energy_pipeline(pot, bc)
    lead, order = jost_inverse_asymptotics(res.expansion, res.jordan)
    assert order == 1
    k = 1e-4
    Jk = hl.jost_matrix(pot, bc, k).J
    assert np.linalg.norm(k * np.linalg.inv(Jk) - lead, 2) < 1e-3


def test_jost_inverse_asymptotics_refuses_ill_conditioned_j0():
    # generic (mu = 0) but cond J(0) = 5e11 is beyond the cap; the expansion is not read
    jd = hl.jordan_form([[1.0, 1e6], [0.0, 2.0]])
    assert jd.mu == 0
    with pytest.raises(NumericalError, match=r"J\(0\) condition 5.000e\+11 exceeds cap"):
        jost_inverse_asymptotics(None, jd)


def _in_kernel(pot, bc, u):
    """Whether u lies in ker J(0), i.e. phi(0, .) u stays bounded: the
    slope phi'(0, x_max) u (route (iii) of J(0) applied to u) vanishes."""
    beta = hl.regular_solution(pot, bc, 0.0, pot.x_max).deriv
    limit = beta @ u
    scale = max(np.linalg.norm(beta, 2) * max(np.linalg.norm(u), 1.0), 1.0)
    return bool(np.linalg.norm(limit) <= 1e-8 * scale), limit


def test_kernel_bijection_neumann_free():
    # xi = R u maps ker J(0) into ker J(0)'
    pot, bc = hl.free_potential(2), hl.neumann(2)
    u = np.array([1.0, 0.0])
    xi = hl.zero_energy_pipeline(pot, bc).expansion.R @ u
    assert np.allclose(xi, bc.A @ u)  # = -e1
    J0 = hl.jost_matrix_zero(pot, bc)
    assert np.linalg.norm(J0.conj().T @ xi) < 1e-12


def test_kernel_bijection_fixture_and_solution_match():
    fx = get_fixture("7.1")
    pot, bc = fx.potential(), fx.bc()
    u = np.array([1.0, 0.0, 0.0])
    xi = hl.zero_energy_pipeline(pot, bc, a=0.0).expansion.R @ u
    J0 = hl.jost_matrix_zero(pot, bc)
    assert np.linalg.norm(J0.conj().T @ xi) < 1e-12
    assert np.linalg.norm(xi) > 1e-12  # injectivity on a nonzero vector
    # phi(0, x) u = f(0, x) xi at sampled points
    for x in (0.0, 0.5, 1.3):
        phi = hl.regular_solution(pot, bc, 0.0, x)
        f0 = hl.jost_solution(pot, 0.0, x)
        assert np.linalg.norm(phi.value @ u - f0.value @ xi) < 1e-10


def test_kernel_bijection_zero_maps_to_zero():
    pot, bc = hl.free_potential(2), hl.neumann(2)
    assert np.allclose(hl.zero_energy_pipeline(pot, bc).expansion.R @ np.zeros(2), 0.0)


def test_kernel_characterization_free_cases():
    pot = hl.free_potential(2)
    ok, _ = _in_kernel(pot, hl.dirichlet(2), np.array([1.0, 0.0]))
    assert not ok
    ok2, limit = _in_kernel(pot, hl.neumann(2), np.array([0.3, -0.7]))
    assert ok2 and np.linalg.norm(limit) < 1e-14


def test_coupled_exceptional_configuration_full_pipeline(rng):
    # A genuinely coupled matrix potential with a vertex condition built to
    # put one prescribed bounded solution in ker J(0).
    from conftest import exceptional_bc

    n = 3
    pot = rand_potential(rng, n, scale=0.7)
    xi = rng.normal(size=n) + 1j * rng.normal(size=n)
    bc = exceptional_bc(pot, xi.reshape(n, 1))
    assert hl.validate_ab(bc.A, bc.B).ok
    J0 = hl.jost_matrix_zero(pot, bc)
    u = np.eye(n)[:, 0]
    assert np.linalg.norm(J0 @ u) < 1e-12

    res = hl.zero_energy_pipeline(pot, bc)
    assert res.jordan.mu == 1
    assert res.involution_residual < 1e-9
    dists = [d for _, d in res.continuity_probes]
    assert dists[0] > dists[1] > dists[2] and dists[2] < 1e-2
    assert np.linalg.norm(hl.smatrix(pot, bc, 2e-4).S - res.s0.S, 2) < 5e-3

    # the kernel image R u is collinear with the prescribed coefficient
    # vector (the basis completion fixes scale and phase) and carries the
    # boundary data of the bounded solution: f(0,0) xi = A u, f'(0,0) xi = B u
    f00 = hl.jost_solution(pot, 0.0, 0.0)
    xi_hat = res.expansion.R @ u
    cos = abs(xi_hat.conj() @ xi) / (np.linalg.norm(xi_hat) * np.linalg.norm(xi))
    assert abs(cos - 1.0) < 1e-10
    assert np.linalg.norm(f00.value @ xi_hat - bc.A @ u) < 1e-10
    assert np.linalg.norm(f00.deriv @ xi_hat - bc.B @ u) < 1e-10

    lead, order = jost_inverse_asymptotics(res.expansion, res.jordan)
    assert order == 1
    k = 1e-4
    Jk = hl.jost_matrix(pot, bc, k).J
    assert np.linalg.norm(k * np.linalg.inv(Jk) - lead, 2) < 1e-3


def test_coupled_two_dimensional_kernel(rng):
    # Two prescribed bounded solutions: mu = 2 on a coupled potential.
    from conftest import exceptional_bc

    n = 3
    pot = rand_potential(rng, n, scale=0.5)
    Xi = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    bc = exceptional_bc(pot, Xi)
    assert hl.validate_ab(bc.A, bc.B).ok
    J0 = hl.jost_matrix_zero(pot, bc)
    assert np.linalg.norm(J0[:, :2], 2) < 1e-12

    res = hl.zero_energy_pipeline(pot, bc)
    assert res.jordan.mu == 2
    assert res.expansion.A1.shape == (2, 2)
    assert res.involution_residual < 1e-9
    dists = [d for _, d in res.continuity_probes]
    assert dists[0] > dists[1] > dists[2] and dists[2] < 1e-2
    assert np.linalg.norm(hl.smatrix(pot, bc, 2e-4).S - res.s0.S, 2) < 5e-3


def test_kernel_characterization_matches_boundedness(rng):
    fx = get_fixture("7.2")
    pot, bc = fx.potential(), fx.bc()
    u = np.array([0.0, 0.0, 1.0])  # kernel direction of J(0)
    ok, _ = _in_kernel(pot, bc, u)
    assert ok
    # boundedness of phi(0, x) u over a long range
    sup = max(
        np.linalg.norm(hl.regular_solution(pot, bc, 0.0, x).value @ u)
        for x in np.linspace(0.0, 50.0, 11)
    )
    assert sup < 10.0
    # a non-kernel vector grows linearly
    v = np.array([1.0, 0.0, 0.0])
    okv, _ = _in_kernel(pot, bc, v)
    assert not okv
    far = np.linalg.norm(hl.regular_solution(pot, bc, 0.0, 50.0).value @ v)
    assert far > 10.0


@pytest.mark.parametrize("mode", ["Exact", "numerical", ""])
def test_zero_energy_pipeline_refuses_an_unknown_mode(mode):
    # Any mode but the two is refused, not run as numeric.
    with pytest.raises(ValidationError, match="unknown mode .*'numeric' or 'exact'"):
        hl.zero_energy_pipeline(hl.free_potential(1), hl.dirichlet(1), mode=mode)
