"""Jost matrix, scattering matrix, and the supporting identities."""

import warnings

import numpy as np
import pytest

import halfline as hl
from halfline.errors import HalflineError, NumericalError, ValidationError
from halfline.fixtures import get_fixture
from conftest import rand_bc, rand_potential, scalar_well


def test_jost_free_closed_form(rng):
    bc = rand_bc(rng, 3)
    pot = hl.free_potential(3)
    for k in (0.8, 2.0, 0.5 + 0.5j):
        J = hl.jost_matrix(pot, bc, k).J
        assert np.linalg.norm(J - (bc.B - 1j * k * bc.A), 2) < 1e-13


def test_jost_fixture_entries():
    fx = get_fixture("7.1")  # parameter a = 2
    J = hl.jost_matrix(fx.potential(), fx.bc(), 1.0).J
    assert abs(J[0, 2] - (-1 + 2j)) < 1e-14  # -1 + i a k at k = 1
    assert abs(J[0, 0] - (-1j)) < 1e-14


def test_jost_scalar_free_dirichlet_neumann():
    pot = hl.free_potential(1)
    assert abs(hl.jost_matrix(pot, hl.dirichlet(1), 0.7).J[0, 0] + 1.0) < 1e-14
    assert abs(hl.jost_matrix(pot, hl.neumann(1), 0.7).J[0, 0] - 0.7j) < 1e-14


def test_jost_matrix_zero_routes_agree(rng):
    pot = rand_potential(rng, 3)
    bc = rand_bc(rng, 3)
    J0 = hl.jost_matrix_zero(pot, bc)
    _, beta = hl.zero_energy_decomposition(pot, bc)
    assert np.linalg.norm(J0 - beta, 2) < 1e-8


def test_jost_matrix_zero_free_is_b(rng):
    bc = rand_bc(rng, 2)
    assert np.allclose(hl.jost_matrix_zero(hl.free_potential(2), bc), bc.B, atol=1e-12)


def test_jost_matrix_zero_kirchhoff_display():
    fx = get_fixture("7.2")
    J0 = hl.jost_matrix_zero(fx.potential(), fx.bc())
    expect = np.array([[-1, 0, 0], [1, -1, 0], [0, 1, 0]], dtype=complex)
    assert np.linalg.norm(J0 - expect) < 1e-13


def test_jost_matrix_zero_scalar_well_closed_form():
    # Dirichlet: J(0) = -f(0, 0) = -cos(1) for the unit well.
    pot = scalar_well(1.0)
    J0 = hl.jost_matrix_zero(pot, hl.dirichlet(1))
    assert abs(J0[0, 0] + np.cos(1.0)) < 1e-12


def test_l_matrix_pairing_identity(rng):
    pot = rand_potential(rng, 3)
    bc = rand_bc(rng, 3)
    for k in (0.5, 1.0, 3.3):
        J = hl.jost_matrix(pot, bc, k).J
        L = hl.l_matrix(pot, bc, k)
        resid = np.linalg.norm(J @ L.conj().T - L @ J.conj().T + 2j * k * np.eye(3), 2)
        assert resid < 1e-10


def test_l_matrix_pairing_on_fixture():
    fx = get_fixture("7.1")
    pot, bc = fx.potential(), fx.bc()
    k = 1.0
    J = hl.jost_matrix(pot, bc, k).J
    L = hl.l_matrix(pot, bc, k)
    resid = np.linalg.norm(J @ L.conj().T - L @ J.conj().T + 2j * k * np.eye(3), 2)
    assert resid < 1e-10


def test_l_matrix_neumann_scalar_free():
    pot = hl.free_potential(1)
    bc = hl.neumann(1)
    k = 0.9
    J = hl.jost_matrix(pot, bc, k).J
    L = hl.l_matrix(pot, bc, k)
    assert abs(J[0, 0] - 1j * k) < 1e-14
    assert abs(L[0, 0] + 1.0) < 1e-14
    assert abs(J[0, 0] * np.conj(L[0, 0]) - L[0, 0] * np.conj(J[0, 0]) + 2j * k) < 1e-14


def test_l_matrix_zero_energy_hermitian_combination(rng):
    # At k = 0 the pairing J L' - L J' vanishes.
    pot = rand_potential(rng, 2)
    bc = rand_bc(rng, 2)
    J0 = hl.jost_matrix_zero(pot, bc)
    L0 = hl.l_matrix(pot, bc, 0.0)
    assert np.linalg.norm(J0 @ L0.conj().T - L0 @ J0.conj().T, 2) < 1e-10


def test_smatrix_fixture_values():
    fx = get_fixture("7.1")  # a = 2
    ev = hl.smatrix(fx.potential(), fx.bc(), 1.0)
    a = 2.0
    diag = (1j + a) / (3j + a)
    off = -2j / (3j + a)
    expect = np.full((3, 3), off, dtype=complex)
    np.fill_diagonal(expect, diag)
    assert np.linalg.norm(ev.S - expect, 2) < 1e-10


def test_smatrix_free_scalar_limits():
    pot = hl.free_potential(1)
    for k in (0.3, 1.0, 4.0):
        assert abs(hl.smatrix(pot, hl.neumann(1), k).S[0, 0] - 1.0) < 1e-14
        assert abs(hl.smatrix(pot, hl.dirichlet(1), k).S[0, 0] + 1.0) < 1e-14


def test_smatrix_rejects_zero():
    with pytest.raises(ValidationError):
        hl.smatrix(hl.free_potential(1), hl.dirichlet(1), 0.0)


def test_smatrix_unitarity_and_inverse_symmetry(rng):
    pot = rand_potential(rng, 3)
    bc = rand_bc(rng, 3)
    for k in np.linspace(0.2, 4.0, 6):
        Sp = hl.smatrix(pot, bc, k)
        Sm = hl.smatrix(pot, bc, -k)
        assert Sp.unitarity_residual < 1e-7
        assert np.linalg.norm(Sm.S @ Sp.S - np.eye(3), 2) < 1e-8


def test_smatrix_gauge_invariance(rng):
    pot = rand_potential(rng, 3)
    bc = rand_bc(rng, 3)
    D = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) + 3 * np.eye(3)
    bc_g = hl.gauge_transform(bc, D)
    for k in (0.4, 1.1):
        S1 = hl.smatrix(pot, bc, k).S
        S2 = hl.smatrix(pot, bc_g, k).S
        assert np.linalg.norm(S1 - S2, 2) < 1e-8
    # J itself maps to J D'
    J1 = hl.jost_matrix(pot, bc, 0.9).J
    J2 = hl.jost_matrix(pot, bc_g, 0.9).J
    assert np.linalg.norm(J2 - J1 @ D.conj().T, 2) < 1e-10


def test_det_jost_bounded_away_from_zero_on_real_grid(rng):
    pot = rand_potential(rng, 3)
    bc = rand_bc(rng, 3)
    dets = [abs(np.linalg.det(hl.jost_matrix(pot, bc, k).J))
            for k in np.linspace(0.5, 4.0, 8)]
    assert min(dets) > 1e-6


def test_free_closed_forms_match_solver_path(rng):
    bc = rand_bc(rng, 2)
    pot = hl.free_potential(2)
    for k in (0.6, 1.8):
        Jc, Sc = hl.free_closed_forms(bc, k)
        assert np.linalg.norm(Jc - hl.jost_matrix(pot, bc, k).J, 2) < 1e-10
        assert np.linalg.norm(Sc - hl.smatrix(pot, bc, k).S, 2) < 1e-10
    Jc, _ = hl.free_closed_forms(bc, 0.0)
    assert np.allclose(Jc, bc.B)


def test_free_closed_forms_xor_display():
    fx = get_fixture("7.3")  # a = 1
    k = 0.7
    J, _ = hl.free_closed_forms(fx.bc(), k)
    a = 1.0
    expect = np.array([
        [k / a, 0, 0, 0],
        [0, k / a, 0, k / (2 * a)],
        [0, 0, (k - a) / (2 * a), (k + a) / (2 * a)],
        [0, 0, (k + a) / (2 * a), (k - a) / (2 * a)],
    ], dtype=complex)
    assert np.linalg.norm(J - expect, 2) < 1e-14


def test_p_matrix_free_and_zero():
    pot = hl.free_potential(2)
    k = 0.8
    P = hl.p_matrix(pot, k, a=0.0)
    assert np.linalg.norm(P - 1j * k * np.eye(2), 2) < 1e-14
    assert np.linalg.norm(hl.p_matrix(pot, 0.0, a=0.0), 2) < 1e-14


def test_p_matrix_ratio_decreases():
    pot = scalar_well(1.0)
    r = {k: np.linalg.norm(hl.p_matrix(pot, k, a=0.0) / (1j * k) - np.eye(1), 2)
         for k in (1e-1, 1e-2, 1e-3)}
    assert r[1e-2] < r[1e-1] and r[1e-3] < r[1e-2]
    assert r[1e-3] <= r[1e-1] / 5.0


def test_log_derivative_free_slope():
    pot = hl.free_potential(2)
    ld = hl.log_derivative(pot, 0.4, a=0.0)
    assert np.linalg.norm(ld - 0.4j * np.eye(2), 2) < 1e-14


def test_log_derivative_modes_are_mutual_inverses(rng):
    pot = rand_potential(rng, 2)
    v = hl.log_derivative(pot, 1.1, a=0.3, mode="value")
    d = hl.log_derivative(pot, 1.1, a=0.3, mode="derivative")
    assert np.linalg.norm(v @ d - np.eye(2), 2) < 1e-10


def test_log_derivative_slope_matches_kernel_form():
    # d/dk [f' f^(-1)] at 0 equals i (f(0,a)^(-1))' f(0,a)^(-1).
    pot = scalar_well(1.0)
    a = 0.3
    h = 1e-5
    slope = (hl.log_derivative(pot, h, a) - hl.log_derivative(pot, -h, a)) / (2 * h)
    f0 = hl.jost_solution(pot, 0.0, a)
    f0inv = np.linalg.inv(f0.value)
    expect = 1j * f0inv.conj().T @ f0inv
    assert np.linalg.norm(slope - expect, 2) / np.linalg.norm(expect, 2) < 1e-4


def test_log_derivative_derivative_mode_slope():
    # The reciprocal form f (f')^(-1) has slope -i (f'(0,a)^(-1))' f'(0,a)^(-1).
    pot = scalar_well(1.0)
    a = 0.0  # f'(0,0) = sin(1) is safely invertible
    h = 1e-5
    slope = (hl.log_derivative(pot, h, a, mode="derivative")
             - hl.log_derivative(pot, -h, a, mode="derivative")) / (2 * h)
    fp = hl.jost_solution(pot, 0.0, a).deriv
    fpinv = np.linalg.inv(fp)
    expect = -1j * fpinv.conj().T @ fpinv
    assert np.linalg.norm(slope - expect, 2) / np.linalg.norm(expect, 2) < 1e-4


def test_log_derivative_edge_anchor_slope(rng):
    # At a = x_max the normalization makes f(0, a) = I, so the slope is iI.
    pot = rand_potential(rng, 2)
    h = 1e-5
    slope = (hl.log_derivative(pot, h) - hl.log_derivative(pot, -h)) / (2 * h)
    assert np.linalg.norm(slope - 1j * np.eye(2), 2) < 1e-4


def test_jost_decomposition_sums_to_jost(rng):
    pot = rand_potential(rng, 3)
    bc = rand_bc(rng, 3)
    for k, a in [(0.1, 0.4), (0.9, 0.4), (2.2, 0.0)]:
        T1, T2 = hl.jost_decomposition(pot, bc, k, a)
        J = hl.jost_matrix(pot, bc, k, a).J
        assert np.linalg.norm(T1 + T2 - J, 2) < 1e-9


def test_jost_decomposition_zero_energy_split(rng):
    pot = rand_potential(rng, 2)
    bc = rand_bc(rng, 2)
    T1, T2 = hl.jost_decomposition(pot, bc, 0.0, 0.4)
    J0 = hl.jost_matrix_zero(pot, bc)
    assert np.linalg.norm(T1, 2) < 1e-10
    assert np.linalg.norm(T2 - J0, 2) < 1e-9


def test_inner_pairing_quadratic_in_k(rng):
    # The pairing of the zero-energy-anchored solution with phi deviates
    # from J(0) only at second order.
    pot = rand_potential(rng, 2)
    bc = rand_bc(rng, 2)
    a = 0.4
    J0 = hl.jost_matrix_zero(pot, bc)
    f0 = hl.jost_solution(pot, 0.0, a)
    ratios = []
    for k in (0.1, 0.05, 0.025):
        phi = hl.regular_solution(pot, bc, k, a)
        W = hl.wronskian(f0, phi)
        ratios.append(np.linalg.norm(W - J0, 2) / k**2)
    assert max(ratios) < 2 * min(ratios) + 1e-12


def test_rescaled_jost_small_k_law(rng):
    # f(0,a)' [f(-k,a)']^(-1) J(k) = J(0) - ik R + o(k).
    pot = rand_potential(rng, 2)
    bc = rand_bc(rng, 2)
    a = 0.4
    J0 = hl.jost_matrix_zero(pot, bc)
    R = hl.r_matrix(pot, bc, a)
    f0 = hl.jost_solution(pot, 0.0, a)
    resid = {}
    for k in (1e-1, 1e-2, 1e-3):
        J = hl.jost_matrix(pot, bc, k, a).J
        fm = hl.jost_solution(pot, -k, a)
        F = f0.value.conj().T @ np.linalg.solve(fm.value.conj().T, J)
        resid[k] = np.linalg.norm(F - J0 + 1j * k * R, 2) / k
    assert resid[1e-2] < 0.5 * resid[1e-1]
    assert resid[1e-3] < 0.5 * resid[1e-2]


def test_scalar_convention_free_values():
    pot = hl.free_potential(1)
    k = 0.8
    # free Jost function: f = exp(ikx), so F = k - i cot(theta) for
    # interior angles and F = 1 at the Dirichlet endpoint
    theta = np.pi / 3
    F = hl.scalar_jost_function(pot, theta, k)
    assert abs(F - (k - 1j / np.tan(theta))) < 1e-13
    assert abs(hl.scalar_jost_function(pot, np.pi, k) - 1.0) < 1e-14
    # classical Dirichlet convention gives +1; Neumann gives +1 as well
    assert abs(hl.scalar_smatrix(pot, np.pi, k) - 1.0) < 1e-14
    assert abs(hl.scalar_smatrix(pot, np.pi / 2, k) - 1.0) < 1e-14


@pytest.mark.parametrize("theta", [np.pi / 5, np.pi / 2, 2.2, np.pi])
def test_scalar_functions_reduce_from_matrix_forms(theta):
    # J = i sin(theta) F for interior angles and J = -F at theta = pi;
    # the scattering coefficients agree except for the Dirichlet sign.
    pot = scalar_well(1.0)
    bc = hl.from_angles([theta])
    for k in (0.6, 1.7):
        J = hl.jost_matrix(pot, bc, k).J[0, 0]
        F = hl.scalar_jost_function(pot, theta, k)
        if abs(theta - np.pi) < 1e-15:
            assert abs(J + F) < 1e-12
            assert abs(hl.scalar_smatrix(pot, theta, k)
                       + hl.smatrix(pot, bc, k).S[0, 0]) < 1e-10
        else:
            assert abs(J - 1j * np.sin(theta) * F) < 1e-12
            assert abs(hl.scalar_smatrix(pot, theta, k)
                       - hl.smatrix(pot, bc, k).S[0, 0]) < 1e-10


def test_smatrix_near_resonance_stays_conditioned():
    # Close to a threshold resonance J(k) is ill-conditioned by design; the
    # solver must still deliver a unitary S away from zero.
    from conftest import tuned_resonance_well

    pot = tuned_resonance_well()
    bc = hl.dirichlet(1)
    ev = hl.smatrix(pot, bc, 1e-5)
    assert ev.unitarity_residual < 1e-7


SHAPES = [(n, pieces) for n in (1, 2, 8) for pieces in (2, 20)]
GRID = np.linspace(0.05, 10.0, 9)


def _loop_rows(pot, bc, a):
    """The per-k path smatrix_grid replaces: jost_matrix then smatrix."""
    rows = []
    for k in GRID:
        try:
            J = hl.jost_matrix(pot, bc, k, a)
            ev = hl.smatrix(pot, bc, k, a)
        except HalflineError as exc:
            rows.append({"k": k, "error": f"{type(exc).__name__}: {exc}"})
            continue
        rows.append({"k": k, "S": ev.S, "unitarity_residual": ev.unitarity_residual,
                     "det_J_abs": float(abs(np.linalg.det(J.J)))})
    return rows


def _assert_same_rows(rows, refs):
    assert [row["k"] for row in rows] == list(GRID)
    for row, ref in zip(rows, refs):
        if "error" in ref:
            assert row.get("error") == ref["error"]
            continue
        assert "error" not in row
        assert np.array_equal(row["S"], ref["S"])
        assert row["unitarity_residual"] == ref["unitarity_residual"]
        assert row["det_J_abs"] == ref["det_J_abs"]


@pytest.mark.parametrize("n,pieces", SHAPES)
@pytest.mark.parametrize("inside", [False, True])
def test_smatrix_grid_equals_per_k_loop(rng, n, pieces, inside):
    pot = rand_potential(rng, n, pieces, scale=0.3)
    bc = rand_bc(rng, n)
    a = 0.5 * pot.x_max if inside else None
    refs = _loop_rows(pot, bc, a)
    assert not any("error" in ref for ref in refs)
    _assert_same_rows(hl.smatrix_grid(pot, bc, GRID, a), refs)


@pytest.mark.parametrize("n,pieces", SHAPES)
@pytest.mark.parametrize("name,value", [("CROSSCHECK_TOL", 1e-300), ("COND_CAP", 0.5)])
def test_smatrix_grid_error_rows_match_per_k_loop(rng, monkeypatch, n, pieces, name, value):
    pot = rand_potential(rng, n, pieces, scale=0.3)
    bc = rand_bc(rng, n)
    monkeypatch.setattr(hl.scattering, name, value)
    refs = _loop_rows(pot, bc, None)
    assert all("error" in ref for ref in refs)
    _assert_same_rows(hl.smatrix_grid(pot, bc, GRID), refs)


@pytest.mark.parametrize("n,pieces", SHAPES)
@pytest.mark.parametrize("tol", [1e-16, 1e-15])
def test_smatrix_grid_mixed_rows_match_per_k_loop(rng, monkeypatch, n, pieces, tol):
    # At roundoff-level tolerances the x = 0 cross-check fails for some k,
    # for +k or -k alone, and passes for others.
    pot = rand_potential(rng, n, pieces, scale=0.3)
    bc = rand_bc(rng, n)
    monkeypatch.setattr(hl.scattering, "CROSSCHECK_TOL", tol)
    _assert_same_rows(hl.smatrix_grid(pot, bc, GRID), _loop_rows(pot, bc, None))


def test_smatrix_grid_rk45_and_zero_k(rng):
    pot = rand_potential(rng, 2)
    bc = rand_bc(rng, 2)
    cfg = hl.SolverConfig(method="rk45", abs_tol=1e-12, rel_tol=1e-12, max_step=0.05)
    for row, k in zip(hl.smatrix_grid(pot, bc, [0.7, 2.1], cfg=cfg), (0.7, 2.1)):
        assert np.linalg.norm(row["S"] - hl.smatrix(pot, bc, k).S, 2) < 1e-8
    with pytest.raises(ValidationError):
        hl.smatrix_grid(pot, bc, [0.5, 0.0])


def test_jost_overflow_is_a_numerical_error():
    # k = 50i on a width-50 well grows like exp(2500) across the piece.
    pot = hl.Potential(n=1, pieces=((0.0, 50.0, np.array([[-1.0]])),))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericalError, match="overflows"):
            hl.jost_matrix(pot, hl.dirichlet(1), 50j)
    assert caught == []


def test_smatrix_grid_overflowing_row_fails_alone():
    # Below the barrier top the width-20 barrier overflows one exact step;
    # above it the row is an ordinary S(k).
    pot = hl.Potential(n=1, pieces=((0.0, 20.0, np.array([[2000.0]])),))
    bc = hl.neumann(1)
    low, high = hl.smatrix_grid(pot, bc, [1.0, 50.0])
    assert low["error"].startswith("NumericalError: solution overflows")
    assert np.array_equal(high["S"], hl.smatrix(pot, bc, 50.0).S)
