"""Boundary condition validation, conversions, and invariances."""

import numpy as np
import pytest

import halfline as hl
from halfline.bc import bc_from_json, bc_to_json, e_matrix
from halfline.errors import ValidationError
from conftest import free_closed_forms, rand_bc, rand_unitary

from halfline.fixtures import get_fixture


def test_validate_ab_accepts_fixture_pair():
    fx = get_fixture("7.1")
    assert hl.validate_ab(fx.A, fx.B).ok


def test_validate_ab_accepts_dirichlet():
    n = 3
    report = hl.validate_ab(np.zeros((n, n)), -np.eye(n))
    assert report.ok and report.violations == ()


def test_validate_ab_rejects_skew_pairing():
    n = 2
    report = hl.validate_ab(np.eye(n), 1j * np.eye(n))
    assert not report.ok
    assert report.violations[0][0] == "pairing_selfadjoint"


def test_validate_ab_rejects_degenerate_gram():
    n = 2
    report = hl.validate_ab(np.zeros((n, n)), np.diag([1.0, 0.0]))
    rules = [rule for rule, _ in report.violations]
    assert "gram_posdef" in rules


@pytest.mark.parametrize("field", ["A", "B", "E"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_bc_pair_rejects_non_finite_matrices(field, bad):
    mats = {"A": np.zeros((2, 2), dtype=complex), "B": np.eye(2, dtype=complex),
            "E": np.eye(2, dtype=complex)}
    mats[field][1, 0] = bad
    with pytest.raises(ValidationError, match=f"{field} has non-finite entries"):
        hl.BCPair(n=2, **mats)


@pytest.mark.parametrize("A,B,E", [
    ([[2.0]], [[0.0]], [[1.0]]),                          # E^2 = 1, A'A + B'B = 4
    (np.eye(2), np.zeros((2, 2)), [[1.0, 0.5], [0.0, -1.0]]),  # E^2 = I, E not Hermitian
    (np.eye(2), np.zeros((2, 2)), [[1.0, 1e-9], [1e-9, 1.0]]),  # off by 2e-9
    (np.eye(2), np.zeros((2, 2)), [[1.0]]),               # wrong size
])
def test_bc_pair_refuses_an_e_that_is_not_the_root_of_the_gram(A, B, E):
    # normalize trusts E: given E = 1 for A = 2 it returned A = 2 labelled
    # normalized, with AA' + BB' = 4.
    with pytest.raises(ValidationError, match="E is not a Hermitian square root"):
        hl.BCPair(n=len(A), A=A, B=B, E=E)


def test_bc_pair_accepts_the_e_of_every_constructor(rng):
    # Each constructor that caches E passes the check as it stands, and an
    # E within EPS_CHECK of the root is accepted.
    n = 3
    pairs = [hl.from_unitary(hl.UnitaryBC(U=rand_unitary(rng, n), convention=c))
             for c in ("harmer", "cosine_sine") for _ in range(20)]
    pairs += [hl.from_angles(rng.uniform(0.1, np.pi, size=n)), hl.dirichlet(n), hl.neumann(n)]
    pairs += [hl.normalize(hl.gauge_transform(bc, rng.normal(size=(n, n)) + 2 * np.eye(n)))
              for bc in pairs[:10]]
    for bc in pairs:
        assert np.array_equal(bc.E, np.eye(n))
    near = hl.BCPair(n=1, A=[[2.0]], B=[[0.0]], E=[[2.0 + 1e-11]])
    assert hl.normalize(near).E[0, 0] == 1.0


def test_validate_kostrykin_dirichlet_and_zero():
    n = 3
    assert hl.validate_kostrykin(np.eye(n), np.zeros((n, n))).ok
    report = hl.validate_kostrykin(np.zeros((n, n)), np.zeros((n, n)))
    assert not report.ok
    assert report.violations[0][0] == "rank_full"


def test_validate_kostrykin_from_fixture_map():
    # (A1, B1) = (-B', A') carries a valid pair into the rank-n form.
    fx = get_fixture("7.2")
    A1 = -fx.B.conj().T
    B1 = fx.A.conj().T
    assert hl.validate_kostrykin(A1, B1).ok
    back = hl.from_kostrykin(A1, B1)
    assert hl.bc_subspace_equal(back, fx.bc())


def test_to_unitary_closed_forms():
    n = 3
    neu = hl.BCPair(n=n, A=np.eye(n), B=np.zeros((n, n)))
    assert np.allclose(hl.to_unitary(neu).U, np.eye(n))
    diri = hl.dirichlet(n)
    assert np.allclose(hl.to_unitary(diri).U, -np.eye(n))


def test_from_unitary_harmer_closed_forms():
    n = 2
    bc = hl.from_unitary(hl.UnitaryBC(U=np.eye(n)))
    assert np.allclose(bc.A, np.eye(n)) and np.allclose(bc.B, 0)
    bc2 = hl.from_unitary(hl.UnitaryBC(U=-np.eye(n)))
    assert np.allclose(bc2.A, 0) and np.allclose(bc2.B, -1j * np.eye(n))
    # equivalent to Dirichlet through a gauge factor iI
    assert hl.bc_subspace_equal(bc2, hl.dirichlet(n))


def test_from_unitary_harmer_structure_identities(rng):
    # A'A = AA', B'B = BB', AB' = BA', A'B = B'A, AA' + BB' = I,
    # A + iB = I, A - iB = U.
    for _ in range(5):
        U = rand_unitary(rng, 3)
        bc = hl.from_unitary(hl.UnitaryBC(U=U))
        A, B = bc.A, bc.B
        eye = np.eye(3)
        assert np.linalg.norm(A.conj().T @ A - A @ A.conj().T) < 1e-12
        assert np.linalg.norm(B.conj().T @ B - B @ B.conj().T) < 1e-12
        assert np.linalg.norm(A @ B.conj().T - B @ A.conj().T) < 1e-12
        assert np.linalg.norm(A.conj().T @ B - B.conj().T @ A) < 1e-12
        assert np.linalg.norm(A @ A.conj().T + B @ B.conj().T - eye) < 1e-12
        assert np.linalg.norm(A + 1j * B - eye) < 1e-12
        assert np.linalg.norm(A - 1j * B - U) < 1e-12


def test_from_unitary_cosine_sine_diagonal_angles():
    thetas = np.array([np.pi, np.pi / 2, np.pi / 3])
    U = np.diag(np.exp(1j * thetas))
    bc = hl.from_unitary(hl.UnitaryBC(U=U, convention="cosine_sine"))
    ref = hl.from_angles(thetas)
    assert np.allclose(bc.A, ref.A, atol=1e-14)
    assert np.allclose(bc.B, ref.B, atol=1e-14)


def test_from_angles_dirichlet_neumann_rows():
    bc = hl.from_angles([np.pi, np.pi, np.pi])
    assert np.allclose(bc.A, 0) and np.allclose(bc.B, -np.eye(3))
    sc = hl.from_angles([np.pi / 2])
    assert np.allclose(sc.A, [[-1.0]]) and np.allclose(sc.B, [[0.0]])
    third = hl.from_angles([np.pi / 3])
    assert np.allclose(third.A, [[-np.sqrt(3) / 2]])
    assert np.allclose(third.B, [[0.5]])


def test_from_angles_free_jost_matches_angle_formula():
    # For the zero potential J(k) = cos(theta) + ik sin(theta) per channel.
    thetas = [np.pi / 3, np.pi / 2, np.pi]
    bc = hl.from_angles(thetas)
    k = 0.7
    J, _ = free_closed_forms(bc, k)
    expect = np.diag([np.cos(t) + 1j * k * np.sin(t) for t in thetas])
    assert np.linalg.norm(J - expect) < 1e-14


def test_from_angles_range_check():
    with pytest.raises(ValidationError):
        hl.from_angles([0.0])
    with pytest.raises(ValidationError):
        hl.from_angles([3.5])


def test_normalize_scalar_scaling():
    bc = hl.BCPair(n=2, A=np.zeros((2, 2)), B=-2.0 * np.eye(2))
    out = hl.normalize(bc)
    assert np.allclose(out.A, 0) and np.allclose(out.B, -np.eye(2))
    neu = hl.BCPair(n=2, A=np.eye(2), B=np.zeros((2, 2)))
    out2 = hl.normalize(neu)
    assert np.allclose(out2.A, np.eye(2)) and np.allclose(out2.B, 0)


def test_normalize_makes_block_matrix_unitary(rng):
    fx = get_fixture("7.2")
    out = hl.normalize(fx.bc())
    n = out.n
    C4 = np.block([[out.B, out.A], [out.A, -out.B]])
    assert np.linalg.norm(C4.conj().T @ C4 - np.eye(2 * n), 2) < 1e-12
    # normalized pairs satisfy AA' + BB' = I and BA' - AB' = 0
    assert np.linalg.norm(out.A @ out.A.conj().T + out.B @ out.B.conj().T - np.eye(n)) < 1e-12
    assert np.linalg.norm(out.B @ out.A.conj().T - out.A @ out.B.conj().T) < 1e-12
    assert hl.bc_subspace_equal(out, fx.bc())


def test_normalize_random_pairs(rng):
    for _ in range(20):
        bc = rand_bc(rng, 3)
        D = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) + 2 * np.eye(3)
        skewed = hl.gauge_transform(bc, D)
        out = hl.normalize(skewed)
        n = 3
        assert np.linalg.norm(out.A @ out.A.conj().T + out.B @ out.B.conj().T - np.eye(n)) < 1e-12
        assert np.linalg.norm(out.B @ out.A.conj().T - out.A @ out.B.conj().T) < 1e-12
        assert hl.bc_subspace_equal(out, bc)


def test_e_matrix_is_positive_root():
    fx = get_fixture("7.1")
    bc = fx.bc()
    E = e_matrix(bc)
    gram = bc.A.conj().T @ bc.A + bc.B.conj().T @ bc.B
    assert np.linalg.norm(E - E.conj().T) < 1e-12
    assert np.linalg.norm(E @ E - gram) < 1e-12
    assert np.linalg.eigvalsh(E)[0] > 0


def test_gauge_transform_identity_and_scaling():
    d = hl.dirichlet(2)
    same = hl.gauge_transform(d, np.eye(2))
    assert np.allclose(same.A, d.A) and np.allclose(same.B, d.B)
    doubled = hl.gauge_transform(d, 2.0 * np.eye(2))
    assert np.allclose(doubled.B, -2.0 * np.eye(2))
    assert hl.validate_ab(doubled.A, doubled.B).ok
    assert hl.bc_subspace_equal(doubled, d)


def test_gauge_transform_rejects_singular_factor():
    with pytest.raises(ValidationError):
        hl.gauge_transform(hl.dirichlet(2), np.diag([1.0, 0.0]))


def test_gauge_transform_preserves_validity(rng):
    for _ in range(10):
        bc = rand_bc(rng, 3)
        D = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) + 2 * np.eye(3)
        out = hl.gauge_transform(bc, D)
        assert hl.validate_ab(out.A, out.B).ok
        assert hl.bc_subspace_equal(out, bc)


def test_subspace_equal_distinguishes_conditions():
    assert not hl.bc_subspace_equal(hl.dirichlet(2), hl.neumann(2))


def test_unitary_round_trip_preserves_subspace(rng):
    for _ in range(100):
        n = int(rng.integers(1, 5))
        bc = rand_bc(rng, n)
        D = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) + 2 * np.eye(n)
        bc = hl.gauge_transform(bc, D)
        back = hl.from_unitary(hl.to_unitary(bc))
        assert hl.bc_subspace_equal(bc, back)


def test_bc_json_round_trip():
    fx = get_fixture("7.4")
    bc = fx.bc()
    data = bc_to_json(bc)
    back = bc_from_json(data)
    assert np.allclose(back.A, bc.A) and np.allclose(back.B, bc.B)


def test_bc_json_angles_and_unitary_forms():
    bc = bc_from_json({"angles": [np.pi, np.pi / 2]})
    assert np.allclose(bc.B, np.diag([-1.0, 0.0]), atol=1e-15)
    U = np.eye(2).tolist()
    bc2 = bc_from_json({"U": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]], "convention": "harmer"})
    assert np.allclose(bc2.A, np.eye(2))


def test_bc_json_rejects_unknown_keys():
    with pytest.raises(ValidationError, match="unknown keys"):
        bc_from_json({"angles": [1.0], "extra": 1})
    with pytest.raises(ValidationError, match="bc.n"):
        bc_from_json({"n": -1, "A": [], "B": []})
