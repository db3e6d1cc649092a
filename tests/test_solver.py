"""Propagation oracles and solution-family identities.

Expected values marked "frozen" were computed from the closed-form
constant-coefficient solutions (cos/cosh matching at interfaces) stated in
each test, independently of the propagation code under test.
"""

import numpy as np
import pytest

import halfline as hl
from halfline import solver
from halfline.errors import ValidationError
from halfline.solver import potential_from_json, potential_to_json
from conftest import rand_bc, rand_potential, scalar_well


def test_potential_validation():
    with pytest.raises(ValidationError, match="selfadjoint"):
        hl.Potential(n=2, pieces=(((0.0, 1.0, np.array([[0, 1], [0, 0]]))),))
    with pytest.raises(ValidationError, match="overlap"):
        hl.Potential(n=1, pieces=((0.0, 1.0, np.eye(1)), (0.5, 2.0, np.eye(1))))
    with pytest.raises(ValidationError):
        hl.Potential(n=1, pieces=((-0.5, 1.0, np.eye(1)),))
    pot = hl.Potential(n=1, pieces=((1.0, 2.0, np.eye(1)), (0.0, 0.5, -np.eye(1))))
    assert pot.x_max == 2.0
    assert pot.pieces[0][0] == 0.0  # sorted


def test_potential_json_round_trip(rng):
    pot = rand_potential(rng, 2)
    back = potential_from_json(potential_to_json(pot))
    assert back.x_max == pot.x_max
    for (l1, h1, V1), (l2, h2, V2) in zip(pot.pieces, back.pieces):
        assert (l1, h1) == (l2, h2)
        assert np.allclose(V1, V2)


def test_free_propagation_matches_exponential():
    pot = hl.free_potential(2)
    k = 0.9 + 0.3j
    state = hl.StateMatrix(0.0, np.eye(2), 1j * k * np.eye(2))
    out = hl.propagate(pot, k, state, 1.7)
    assert np.allclose(out.value, np.exp(1j * k * 1.7) * np.eye(2), atol=1e-13)
    assert np.allclose(out.deriv, 1j * k * np.exp(1j * k * 1.7) * np.eye(2), atol=1e-13)


def test_free_propagation_zero_energy_is_affine():
    pot = hl.free_potential(2)
    A = np.array([[1.0, 2.0], [0.0, 1.0]])
    B = np.array([[0.5, 0.0], [1.0, -1.0]])
    out = hl.propagate(pot, 0.0, hl.StateMatrix(0.0, A, B), 2.5)
    assert np.allclose(out.value, A + 2.5 * B, atol=1e-14)
    assert np.allclose(out.deriv, B, atol=1e-14)


@pytest.mark.parametrize("v0", [2.0, -1.0, 0.3])
def test_scalar_piece_closed_form(v0):
    # psi'' = v0 psi on [0, 1] with psi(1) = 1, psi'(1) = 0, read at x = 0:
    # psi(0) = cosh(sqrt(v0)) for v0 > 0 and cos(sqrt(-v0)) for v0 < 0.
    pot = hl.Potential(n=1, pieces=((0.0, 1.0, np.array([[v0]])),))
    out = hl.propagate(pot, 0.0, hl.StateMatrix(1.0, np.eye(1), np.zeros((1, 1))), 0.0)
    w = np.sqrt(complex(v0))
    assert abs(out.value[0, 0] - np.cosh(w)) < 1e-13
    assert abs(out.deriv[0, 0] - (-w * np.sinh(w))) < 1e-13


def test_jost_solution_free_and_edge():
    pot = hl.free_potential(3)
    for k in (0.5, 1.0 + 0.7j):
        f = hl.jost_solution(pot, k, 1.3)
        assert np.allclose(f.value, np.exp(1j * k * 1.3) * np.eye(3), atol=1e-13)
    f0 = hl.jost_solution(pot, 0.0, 0.8)
    assert np.allclose(f0.value, np.eye(3)) and np.allclose(f0.deriv, 0)


def test_jost_solution_scalar_well_frozen():
    # V = -1 on [0, 1]: f(0, x) = cos(1 - x), so f(0,0) = cos 1 and
    # f'(0,0) = sin 1.
    pot = scalar_well(1.0)
    f = hl.jost_solution(pot, 0.0, 0.0)
    assert abs(f.value[0, 0] - np.cos(1.0)) < 1e-14
    assert abs(f.deriv[0, 0] - np.sin(1.0)) < 1e-14


def test_jost_rejects_lower_half_plane():
    with pytest.raises(ValidationError):
        hl.jost_solution(hl.free_potential(1), 1.0 - 0.5j, 0.0)


def test_zero_energy_pair_free_and_edge_data():
    pot = hl.free_potential(2)
    f0, g0 = hl.zero_energy_pair(pot, 1.5)
    assert np.allclose(f0.value, np.eye(2)) and np.allclose(f0.deriv, 0)
    assert np.allclose(g0.value, 1.5 * np.eye(2)) and np.allclose(g0.deriv, np.eye(2))

    well = scalar_well(1.0)
    f0, g0 = hl.zero_energy_pair(well, well.x_max)
    assert np.allclose(f0.value, np.eye(1)) and np.allclose(g0.value, well.x_max * np.eye(1))


def test_zero_energy_pair_scalar_well_frozen():
    # V = -1 on [0, 1]: g solves psi'' = -psi with psi(1) = 1, psi'(1) = 1,
    # hence g(0) = cos 1 - sin 1 and g'(0) = cos 1 + sin 1.
    pot = scalar_well(1.0)
    _, g0 = hl.zero_energy_pair(pot, 0.0)
    assert abs(g0.value[0, 0] - (np.cos(1.0) - np.sin(1.0))) < 1e-14
    assert abs(g0.deriv[0, 0] - (np.cos(1.0) + np.sin(1.0))) < 1e-14


def test_zero_energy_pair_is_fundamental(rng):
    pot = rand_potential(rng, 2)
    f0, g0 = hl.zero_energy_pair(pot, 0.2)
    block = np.block([[f0.value, g0.value], [f0.deriv, g0.deriv]])
    assert abs(np.linalg.det(block)) > 1e-6


def test_regular_solution_free_closed_form(rng):
    bc = rand_bc(rng, 2)
    pot = hl.free_potential(2)
    for k in (0.8, 1.0 + 0.4j):
        phi = hl.regular_solution(pot, bc, k, 1.0)
        expect = bc.A * np.cos(k) + bc.B * np.sin(k) / k
        assert np.linalg.norm(phi.value - expect) < 1e-13
    phi0 = hl.regular_solution(pot, bc, 0.0, 2.0)
    assert np.allclose(phi0.value, bc.A + 2.0 * bc.B, atol=1e-14)


def test_regular_solution_initial_data_exact(rng):
    bc = rand_bc(rng, 3)
    pot = rand_potential(rng, 3)
    phi = hl.regular_solution(pot, bc, 1.3, 0.0)
    assert np.array_equal(phi.value, bc.A)
    assert np.array_equal(phi.deriv, bc.B)


def _gauss_nodes(lo, hi, order=20):
    xs, ws = np.polynomial.legendre.leggauss(order)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return mid + half * xs, half * ws


def test_regular_solution_satisfies_integral_relation(rng):
    # Independent oracle: phi(k,x) = A cos kx + B sin(kx)/k
    #                     + (1/k) int_0^x sin k(x-y) V(y) phi(k,y) dy,
    # with the integral done by quadrature over the pieces.
    bc = rand_bc(rng, 2)
    pot = rand_potential(rng, 2)
    k = 1.3
    x = pot.x_max + 0.3
    acc = np.zeros((2, 2), dtype=complex)
    for lo, hi, V in pot.pieces:
        ys, ws = _gauss_nodes(lo, min(hi, x))
        for y, wgt in zip(ys, ws):
            phi_y = hl.regular_solution(pot, bc, k, float(y))
            acc += wgt * np.sin(k * (x - y)) * (V @ phi_y.value)
    expect = bc.A * np.cos(k * x) + bc.B * np.sin(k * x) / k + acc / k
    phi_x = hl.regular_solution(pot, bc, k, x)
    assert np.linalg.norm(phi_x.value - expect, 2) < 1e-10


def test_jost_solution_satisfies_integral_relation(rng):
    # Independent oracle: f(k,x) = exp(ikx) I
    #                     + (1/k) int_x^inf sin k(y-x) V(y) f(k,y) dy.
    pot = rand_potential(rng, 2)
    k = 0.9
    x = 0.1
    acc = np.zeros((2, 2), dtype=complex)
    for lo, hi, V in pot.pieces:
        ys, ws = _gauss_nodes(max(lo, x), hi)
        for y, wgt in zip(ys, ws):
            f_y = hl.jost_solution(pot, k, float(y))
            acc += wgt * np.sin(k * (y - x)) * (V @ f_y.value)
    expect = np.exp(1j * k * x) * np.eye(2) + acc / k
    f_x = hl.jost_solution(pot, k, x)
    assert np.linalg.norm(f_x.value - expect, 2) < 1e-10


def test_even_k_symmetry(rng):
    # Regular-type solutions are even in k (k enters only as k^2).
    bc = rand_bc(rng, 2)
    pot = rand_potential(rng, 2)
    k = 0.9 + 0.2j
    x = 1.1
    a = 0.4
    for plus, minus in [
        (hl.regular_solution(pot, bc, k, x), hl.regular_solution(pot, bc, -k, x)),
        (hl.omega_solution(pot, k, a, x), hl.omega_solution(pot, -k, a, x)),
    ]:
        assert np.linalg.norm(plus.value - minus.value) < 1e-10
        assert np.linalg.norm(plus.deriv - minus.deriv) < 1e-10
    C1, S1 = hl.cs_solutions(pot, k, a, x)
    C2, S2 = hl.cs_solutions(pot, -k, a, x)
    assert np.linalg.norm(C1.value - C2.value) < 1e-10
    assert np.linalg.norm(S1.value - S2.value) < 1e-10


def test_cs_solutions_free_and_anchor():
    pot = hl.free_potential(2)
    a, x, k = 0.5, 1.7, 0.9
    C, S = hl.cs_solutions(pot, k, a, x)
    assert np.allclose(C.value, np.cos(k * (x - a)) * np.eye(2), atol=1e-13)
    assert np.allclose(S.value, np.sin(k * (x - a)) / k * np.eye(2), atol=1e-13)
    Ca, Sa = hl.cs_solutions(pot, k, a, a)
    assert np.allclose(Ca.value, np.eye(2)) and np.allclose(Ca.deriv, 0)
    assert np.allclose(Sa.value, 0) and np.allclose(Sa.deriv, np.eye(2))


def test_omega_free_and_zero_energy(rng):
    pot = hl.free_potential(2)
    a, x, k = 0.7, 2.0, 1.1
    om = hl.omega_solution(pot, k, a, x)
    assert np.allclose(om.value, np.cos(k * (x - a)) * np.eye(2), atol=1e-13)

    potm = rand_potential(rng, 2)
    om0 = hl.omega_solution(potm, 0.0, 0.3, 1.2)
    f0 = hl.jost_solution(potm, 0.0, 1.2)
    assert np.linalg.norm(om0.value - f0.value) < 1e-12


def test_omega_reconstruction_from_cs(rng):
    # omega(k, x) = C(k, x) f(0, a) + S(k, x) f'(0, a)
    pot = rand_potential(rng, 2)
    for k, a, x in [(0.9, 0.2, 1.4), (2.1, 0.6, 0.1), (0.3 + 0.5j, 0.0, 1.0)]:
        C, S = hl.cs_solutions(pot, k, a, x)
        f0a = hl.jost_solution(pot, 0.0, a)
        om = hl.omega_solution(pot, k, a, x)
        recon = C.value @ f0a.value + S.value @ f0a.deriv
        assert np.linalg.norm(om.value - recon) < 1e-8


def test_omega_deviation_bound_with_fitted_constant(rng):
    # || omega(k,x) - omega(0,x) || <= c q^2 exp(Im k (x-a)) with
    # q = |k|(x-a) / (1 + |k|(x-a)): fit c on a coarse grid, then verify the
    # same form on a refined grid with a small safety margin.
    pot = rand_potential(rng, 2, scale=0.8)
    a = 0.1

    def ratio(k, x):
        om_k = hl.omega_solution(pot, k, a, x)
        om_0 = hl.omega_solution(pot, 0.0, a, x)
        q = abs(k) * (x - a) / (1.0 + abs(k) * (x - a))
        bound = q * q * np.exp(np.imag(k) * (x - a))
        return np.linalg.norm(om_k.value - om_0.value, 2) / bound

    coarse = [ratio(k, x) for k in (0.3, 1.0, 2.0, 1.0 + 0.5j)
              for x in (0.6, 1.3, 2.4)]
    c_fit = max(coarse)
    fine = [ratio(k, x) for k in (0.2, 0.45, 0.8, 1.5, 2.7, 0.5 + 0.9j)
            for x in np.linspace(0.3, 3.0, 12)]
    assert max(fine) <= 2.0 * c_fit


def test_wronskian_identities_on_grid(rng):
    pot = rand_potential(rng, 3)
    for k in np.linspace(0.1, 5.0, 8):
        f = hl.jost_solution(pot, k, 0.4)
        fm = hl.jost_solution(pot, -k, 0.4)
        assert np.linalg.norm(hl.wronskian(f, f) - 2j * k * np.eye(3), 2) < 1e-8
        assert np.linalg.norm(hl.wronskian(fm, f), 2) < 1e-8


def test_wronskian_self_pairing_is_skew(rng):
    pot = rand_potential(rng, 2)
    phi = hl.regular_solution(pot, rand_bc(rng, 2), 0.9, 1.0)
    W = hl.wronskian(phi, phi)
    assert np.linalg.norm(W + W.conj().T) < 1e-12


def test_wronskian_requires_matching_points():
    pot = hl.free_potential(1)
    f1 = hl.jost_solution(pot, 1.0, 0.0)
    f2 = hl.jost_solution(pot, 1.0, 1.0)
    with pytest.raises(ValidationError):
        hl.wronskian(f1, f2)


def test_wronskian_constancy_across_support(rng):
    pot = rand_potential(rng, 3)
    bc = rand_bc(rng, 3)
    k = 1.7
    w0 = hl.wronskian(hl.jost_solution(pot, -k, 0.0),
                      hl.regular_solution(pot, bc, k, 0.0))
    w1 = hl.wronskian(hl.jost_solution(pot, -k, pot.x_max),
                      hl.regular_solution(pot, bc, k, pot.x_max))
    assert np.linalg.norm(w0 - w1, 2) < 1e-8


def test_zero_energy_decomposition_free(rng):
    bc = rand_bc(rng, 2)
    alpha, beta = hl.zero_energy_decomposition(hl.free_potential(2), bc)
    assert np.allclose(alpha, bc.A) and np.allclose(beta, bc.B)


def test_zero_energy_decomposition_reconstructs(rng):
    pot = rand_potential(rng, 2)
    bc = rand_bc(rng, 2)
    alpha, beta = hl.zero_energy_decomposition(pot, bc)
    for x in (0.0, 0.6, pot.x_max, pot.x_max + 1.0):
        f0, g0 = hl.zero_energy_pair(pot, x)
        phi = hl.regular_solution(pot, bc, 0.0, x)
        recon = f0.value @ alpha + g0.value @ beta
        assert np.linalg.norm(phi.value - recon, 2) < 1e-9


def test_moment_identities_free_is_exact():
    assert hl.moment_identities_residual(hl.free_potential(2), 0.0) == (0.0, 0.0)


def test_moment_identities_scalar_well():
    r1, r2 = hl.moment_identities_residual(scalar_well(1.0), 0.0)
    assert r1 < 1e-8 and r2 < 1e-8


def test_moment_identities_matrix_step(rng):
    pot = rand_potential(rng, 3)
    r1, r2 = hl.moment_identities_residual(pot, 0.1)
    assert r1 < 1e-7 and r2 < 1e-7


def test_rk45_agrees_with_analytic(rng):
    pot = rand_potential(rng, 2)
    cfg = hl.SolverConfig(method="rk45", abs_tol=1e-12, rel_tol=1e-12, max_step=0.05)
    for k in (0.7, 1.9, 0.4 + 0.6j):
        ref = hl.jost_solution(pot, k, 0.0)
        alt = hl.jost_solution(pot, k, 0.0, cfg)
        assert np.linalg.norm(ref.value - alt.value, 2) < 1e-9
        assert np.linalg.norm(ref.deriv - alt.deriv, 2) < 1e-9


def test_rk45_refinement_convergence(rng):
    # Halving the tolerances moves the answer by less than 10x the target.
    pot = rand_potential(rng, 2)
    k = 1.3
    tol = 1e-10
    loose = hl.SolverConfig(method="rk45", abs_tol=tol, rel_tol=tol, max_step=0.05)
    tight = hl.SolverConfig(method="rk45", abs_tol=tol / 2, rel_tol=tol / 2, max_step=0.05)
    f1 = hl.jost_solution(pot, k, 0.0, loose)
    f2 = hl.jost_solution(pot, k, 0.0, tight)
    assert np.linalg.norm(f1.value - f2.value, 2) < 10 * tol


def test_propagated_states_satisfy_the_equation(rng):
    # Second differences at interior checkpoints reproduce (V - k^2) psi.
    pot = rand_potential(rng, 2)
    bc = rand_bc(rng, 2)
    k = 1.1
    h = 1e-4
    for lo, hi, V in pot.pieces:
        x = 0.5 * (lo + hi)
        states = {dx: hl.regular_solution(pot, bc, k, x + dx) for dx in (-h, 0.0, h)}
        second = (states[h].value - 2 * states[0.0].value + states[-h].value) / h**2
        rhs = (V - k**2 * np.eye(2)) @ states[0.0].value
        assert np.linalg.norm(second - rhs, 2) < 1e-6


def test_propagate_rejects_negative_target():
    pot = hl.free_potential(1)
    state = hl.StateMatrix(0.0, np.eye(1), np.zeros((1, 1)))
    with pytest.raises(ValidationError):
        hl.propagate(pot, 1.0, state, -0.5)


@pytest.mark.parametrize("n,pieces", [(n, p) for n in (1, 2, 8) for p in (2, 20)])
def test_quadrature_nodes_equal_walked_solutions(rng, monkeypatch, n, pieces):
    # Every Gauss node is reached by one stacked step from a piece edge; the
    # value must be the one a full walk to the node gives.
    pot = rand_potential(rng, n, pieces, scale=0.3)
    bc = rand_bc(rng, n)
    nodes, values = [], []
    step = solver._step

    def spy(eig, k, h, value, deriv):
        out = step(eig, k, h, value, deriv)
        if np.ndim(h) == 1:
            values.append(out[0])
        return out

    def weight(ys):
        nodes.append(ys)
        return 1.0

    families = (
        (0.0, lambda lo, hi: hl.regular_solution(pot, bc, 0.0, lo),
         lambda y: hl.regular_solution(pot, bc, 0.0, y)),
        (0.5 * pot.x_max, lambda lo, hi: hl.jost_solution(pot, 0.0, hi),
         lambda y: hl.jost_solution(pot, 0.0, y)),
    )
    for a, edge, walk in families:
        nodes.clear()
        values.clear()
        monkeypatch.setattr(solver, "_step", spy)
        solver._integrate_weighted(pot, a, weight, edge, hl.SolverConfig())
        monkeypatch.setattr(solver, "_step", step)
        assert len(nodes) == len(values) >= len(pot.pieces)
        ys = np.concatenate(nodes)
        psi = np.concatenate(values)
        assert ys.min() >= a
        for y, v in list(zip(ys, psi))[::7]:
            assert np.array_equal(walk(float(y)).value, v)
