"""Boundary condition validation, conversions, and invariances."""

import numpy as np
import pytest

import halfline as hl
from halfline.bc import EPS_CHECK, bc_from_json, bc_to_json, complex_matrix_to_json, e_matrix
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


@pytest.mark.parametrize("field", ["A", "B"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_bc_pair_rejects_non_finite_matrices(field, bad):
    mats = {"A": np.zeros((2, 2), dtype=complex), "B": np.eye(2, dtype=complex)}
    mats[field][1, 0] = bad
    with pytest.raises(ValidationError, match=f"{field} has non-finite entries"):
        hl.BCPair(n=2, **mats)


def test_bc_pair_accepts_the_e_of_every_constructor(rng):
    # Every constructor that promises a normalized pair gives A'A + B'B = I
    # within EPS_CHECK.
    n = 3
    pairs = [hl.from_unitary(hl.UnitaryBC(U=rand_unitary(rng, n), convention=c))
             for c in ("harmer", "cosine_sine") for _ in range(20)]
    pairs += [hl.from_angles(rng.uniform(0.1, np.pi, size=n)), hl.dirichlet(n), hl.neumann(n)]
    pairs += [hl.normalize(hl.gauge_transform(bc, rng.normal(size=(n, n)) + 2 * np.eye(n)))
              for bc in pairs[:10]]
    pairs += [hl.normalize(hl.BCPair(n=1, A=[[2.0]], B=[[0.0]]))]
    for bc in pairs:
        gram = bc.A.conj().T @ bc.A + bc.B.conj().T @ bc.B
        assert np.linalg.norm(gram - np.eye(bc.n), 2) <= EPS_CHECK


def test_bc_pair_refuses_a_pair_that_is_not_selfadjoint():
    # smatrix took this pair and returned an S with unitarity residual 4.83.
    with pytest.raises(ValidationError, match="invalid boundary pair.*pairing_selfadjoint"):
        hl.BCPair(n=2, A=np.eye(2), B=[[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValidationError, match="invalid boundary pair.*gram_posdef"):
        hl.BCPair(n=2, A=np.zeros((2, 2)), B=np.diag([1.0, 0.0]))


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


def test_gauge_transform_refuses_a_factor_that_leaves_an_invalid_pair():
    # The result is a BCPair, and gram_posdef is relative: D = diag(1, e)
    # takes A'A + B'B = I to diag(1, e^2), refused once e^2 <= 1e-10, at
    # cond(D) of 1e5 and beyond.
    assert hl.gauge_transform(hl.dirichlet(2), np.diag([1.0, 1e-4])).n == 2
    with pytest.raises(ValidationError, match="invalid boundary pair.*gram_posdef"):
        hl.gauge_transform(hl.dirichlet(2), np.diag([1.0, 1e-6]))


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


def test_from_kostrykin_takes_every_pair_validate_kostrykin_accepts(rng):
    # Rows of very different scale state a fine condition; (B1', -A1') of
    # A1 = diag(1, 1e-7), B1 = 0 fails the relative gram_posdef test, so
    # the pair is normalized on the way in.
    A1, B1 = np.diag([1.0, 1e-7]), np.zeros((2, 2))
    assert hl.validate_kostrykin(A1, B1).ok
    assert not hl.validate_ab(B1.conj().T, -A1.conj().T).ok
    bc = hl.from_kostrykin(A1, B1)
    assert hl.bc_subspace_equal(bc, hl.dirichlet(2))
    np.testing.assert_allclose(hl.smatrix(hl.free_potential(2), bc, 1.0).S, -np.eye(2), atol=1e-14)
    data = {"n": 2, "formulation": "kostrykin_ab", "A": complex_matrix_to_json(A1),
            "B": complex_matrix_to_json(B1)}
    assert hl.bc_subspace_equal(bc_from_json(data), hl.dirichlet(2))
    # a dense pair, its rows scaled over eight decades, keeps its condition
    fx = rand_bc(rng, 3)
    D = np.diag([1.0, 1e-4, 1e-8])
    A1, B1 = D @ -fx.B.conj().T, D @ fx.A.conj().T
    assert hl.validate_kostrykin(A1, B1).ok
    bc = hl.from_kostrykin(A1, B1)
    assert hl.bc_subspace_equal(bc, fx)
    gram = bc.A.conj().T @ bc.A + bc.B.conj().T @ bc.B
    assert np.linalg.norm(gram - np.eye(3), 2) <= EPS_CHECK
    with pytest.raises(ValidationError, match=r"^bc: invalid rank-n pair: \(\('rank_full'"):
        bc_from_json(dict(data, A=complex_matrix_to_json(np.zeros((2, 2)))))


def test_bc_json_round_trips_a_kostrykin_pair():
    # bc_to_json wrote a from_kostrykin pair as "kostrykin_ab", which
    # bc_from_json reads as (A1, B1): Dirichlet came back as Neumann.
    bc = hl.from_kostrykin(np.eye(2), np.zeros((2, 2)))
    assert hl.bc_subspace_equal(bc, hl.dirichlet(2))
    data = bc_to_json(bc)
    assert data["formulation"] == "general_ab"
    assert hl.bc_subspace_equal(bc_from_json(data), hl.dirichlet(2))


def test_bc_json_formulation_is_an_input_form():
    # "kostrykin_ab" reads (A1, B1); the other names read (A, B).
    data = {"n": 1, "A": [[[1.0, 0.0]]], "B": [[[0.0, 0.0]]]}
    for name in ("general_ab", "normalized", "harmer_unitary", None):
        named = data if name is None else dict(data, formulation=name)
        assert hl.bc_subspace_equal(bc_from_json(named), hl.neumann(1))
    kostrykin = bc_from_json(dict(data, formulation="kostrykin_ab"))
    assert hl.bc_subspace_equal(kostrykin, hl.dirichlet(1))
    with pytest.raises(ValidationError, match="unknown formulation 'other'"):
        bc_from_json(dict(data, formulation="other"))
    with pytest.raises(ValidationError, match=r"^bc: invalid boundary pair: \(\('gram_posdef'"):
        bc_from_json(dict(data, A=[[[0.0, 0.0]]]))


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
