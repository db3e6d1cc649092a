"""Propagation oracles and solution-family identities.

Expected values marked "frozen" were computed from the closed-form
constant-coefficient solutions (cos/cosh matching at interfaces) stated in
each test, independently of the propagation code under test.
"""

import warnings

import numpy as np
import pytest

import halfline as hl
from halfline import solver
from halfline.errors import NumericalError, ValidationError
from halfline.solver import potential_from_json, potential_to_json
from conftest import RK45_TIGHT, piece_edges, rand_bc, rand_potential, rk45_jost_solution, \
    rk45_propagate, rk45_regular_solution, scalar_well


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


@pytest.mark.parametrize("lo,hi,v", [
    (np.nan, 1.0, 1.0), (0.0, np.nan, 1.0), (0.0, np.inf, 1.0),
    (0.0, 1.0, np.nan), (0.0, 1.0, np.inf),
])
def test_potential_rejects_non_finite_pieces(lo, hi, v):
    with pytest.raises(ValidationError, match="x_lo|non-finite"):
        hl.Potential(n=1, pieces=((lo, hi, np.array([[v]])),))


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


def test_jost_solution_refuses_an_overflowing_phase():
    # k x leaves the float range: exp(ikx) is NaN, a numerical error that
    # names the phase, once for the stack of k and without warnings.
    pot = scalar_well(1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in (5.0, np.array([1e-300, 5.0])):
            with pytest.raises(NumericalError, match=r"^outgoing phase exp\(ikx\) at x = "
                                                     r"1e\+308 is not finite$"):
                hl.jost_solution(pot, k, 1e308)


def test_jost_rejects_lower_half_plane():
    with pytest.raises(ValidationError):
        hl.jost_solution(hl.free_potential(1), 1.0 - 0.5j, 0.0)


def _zero_energy_pair(pot, x):
    """f(0, x) and g(0, x), the bounded and the growing zero-energy
    solutions: data (I, 0) and (x_max I, I) at x_max."""
    eye = np.eye(pot.n)
    edge = hl.StateMatrix(pot.x_max, pot.x_max * eye, eye)
    return hl.jost_solution(pot, 0.0, x), hl.propagate(pot, 0.0, edge, x)


def test_zero_energy_pair_free_and_edge_data():
    pot = hl.free_potential(2)
    f0, g0 = _zero_energy_pair(pot, 1.5)
    assert np.allclose(f0.value, np.eye(2)) and np.allclose(f0.deriv, 0)
    assert np.allclose(g0.value, 1.5 * np.eye(2)) and np.allclose(g0.deriv, np.eye(2))

    well = scalar_well(1.0)
    f0, g0 = _zero_energy_pair(well, well.x_max)
    assert np.allclose(f0.value, np.eye(1)) and np.allclose(g0.value, well.x_max * np.eye(1))


def test_zero_energy_pair_scalar_well_frozen():
    # V = -1 on [0, 1]: g solves psi'' = -psi with psi(1) = 1, psi'(1) = 1,
    # hence g(0) = cos 1 - sin 1 and g'(0) = cos 1 + sin 1.
    pot = scalar_well(1.0)
    _, g0 = _zero_energy_pair(pot, 0.0)
    assert abs(g0.value[0, 0] - (np.cos(1.0) - np.sin(1.0))) < 1e-14
    assert abs(g0.deriv[0, 0] - (np.cos(1.0) + np.sin(1.0))) < 1e-14


def test_zero_energy_pair_is_fundamental(rng):
    pot = rand_potential(rng, 2)
    f0, g0 = _zero_energy_pair(pot, 0.2)
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
    # Regular-type solutions are even in k (k enters only as k^2); phi is
    # even bit for bit, so a stack of k propagates phi once per k^2 and
    # hands phi(k, .) to -k.
    bc = rand_bc(rng, 2)
    pot = rand_potential(rng, 2)
    k = 0.9 + 0.2j
    x = 1.1
    a = 0.4
    # k^2 just below and just above each eigenvalue of V on the first piece,
    # where the square root in the exact step changes branch.
    edge = [np.sqrt(complex(e)) * (1 + s) for e in pot._stacks[1][0] for s in (-1e-3, 1e-3)]
    for kp in [k, 0.7, 1e-3, 3.3, *edge]:
        kp = complex(kp)  # -kp of x+0j is -x+0j, whose square is x^2-0j
        plus = hl.regular_solution(pot, bc, kp, x)
        minus = hl.regular_solution(pot, bc, -kp, x)
        assert np.array_equal(plus.value, minus.value)
        assert np.array_equal(plus.deriv, minus.deriv)
    plus, minus = _omega_solution(pot, k, a, x), _omega_solution(pot, -k, a, x)
    assert np.linalg.norm(plus.value - minus.value) < 1e-10
    assert np.linalg.norm(plus.deriv - minus.deriv) < 1e-10
    C1, S1 = _cs_solutions(pot, k, a, x)
    C2, S2 = _cs_solutions(pot, -k, a, x)
    assert np.linalg.norm(C1.value - C2.value) < 1e-10
    assert np.linalg.norm(S1.value - S2.value) < 1e-10


@pytest.mark.parametrize("method", ["analytic"])  # the one propagator
def test_regular_solution_stack_propagates_once_per_k_squared(rng, monkeypatch, method):
    # A stack with -k beside k (real, complex, -0.0 beside 0.0) is one walk
    # of each distinct k^2; every k reads what its own scalar call gives.
    bc = rand_bc(rng, 2)
    pot = rand_potential(rng, 2)
    ks = [0.7, -0.7, 0.0, -0.0, 0.9 + 0.2j, -0.9 - 0.2j, 0.9 - 0.2j, 2.5, 0.7]
    sizes = []
    walk = solver._walk

    def spy(pot_, k, *args):
        sizes.append(np.size(k))
        return walk(pot_, k, *args)

    monkeypatch.setattr(solver, "_walk", spy)
    got = hl.regular_solution(pot, bc, ks, 1.1)
    monkeypatch.undo()
    assert sizes == [5]  # 0.49, 0, 0.77+0.36j, 0.77-0.36j, 6.25
    assert not got.value.flags.writeable and not got.deriv.flags.writeable
    for k, value, deriv in zip(ks, got.value, got.deriv):
        ref = hl.regular_solution(pot, bc, k, 1.1)
        assert np.array_equal(value, ref.value) and np.array_equal(deriv, ref.deriv)


def _cs_solutions(pot, k, a, x):
    """The cosine- and sine-like solutions at x: data (I, 0) and (0, I) at a."""
    eye, zero = np.eye(pot.n), np.zeros((pot.n, pot.n))
    return (hl.propagate(pot, k, hl.StateMatrix(a, eye, zero), x),
            hl.propagate(pot, k, hl.StateMatrix(a, zero, eye), x))


def _omega_solution(pot, k, a, x):
    """The solution with data (f(0, a), f'(0, a)) at a, at x."""
    return hl.propagate(pot, k, hl.jost_solution(pot, 0.0, a), x)


def test_cs_solutions_free_and_anchor():
    pot = hl.free_potential(2)
    a, x, k = 0.5, 1.7, 0.9
    C, S = _cs_solutions(pot, k, a, x)
    assert np.allclose(C.value, np.cos(k * (x - a)) * np.eye(2), atol=1e-13)
    assert np.allclose(S.value, np.sin(k * (x - a)) / k * np.eye(2), atol=1e-13)
    Ca, Sa = _cs_solutions(pot, k, a, a)
    assert np.allclose(Ca.value, np.eye(2)) and np.allclose(Ca.deriv, 0)
    assert np.allclose(Sa.value, 0) and np.allclose(Sa.deriv, np.eye(2))


def test_omega_free_and_zero_energy(rng):
    pot = hl.free_potential(2)
    a, x, k = 0.7, 2.0, 1.1
    om = _omega_solution(pot, k, a, x)
    assert np.allclose(om.value, np.cos(k * (x - a)) * np.eye(2), atol=1e-13)

    potm = rand_potential(rng, 2)
    om0 = _omega_solution(potm, 0.0, 0.3, 1.2)
    f0 = hl.jost_solution(potm, 0.0, 1.2)
    assert np.linalg.norm(om0.value - f0.value) < 1e-12


def test_omega_reconstruction_from_cs(rng):
    # omega(k, x) = C(k, x) f(0, a) + S(k, x) f'(0, a)
    pot = rand_potential(rng, 2)
    for k, a, x in [(0.9, 0.2, 1.4), (2.1, 0.6, 0.1), (0.3 + 0.5j, 0.0, 1.0)]:
        C, S = _cs_solutions(pot, k, a, x)
        f0a = hl.jost_solution(pot, 0.0, a)
        om = _omega_solution(pot, k, a, x)
        recon = C.value @ f0a.value + S.value @ f0a.deriv
        assert np.linalg.norm(om.value - recon) < 1e-8


def test_omega_deviation_bound_with_fitted_constant(rng):
    # || omega(k,x) - omega(0,x) || <= c q^2 exp(Im k (x-a)) with
    # q = |k|(x-a) / (1 + |k|(x-a)): fit c on a coarse grid, then verify the
    # same form on a refined grid with a small safety margin.
    pot = rand_potential(rng, 2, scale=0.8)
    a = 0.1

    def ratio(k, x):
        om_k = _omega_solution(pot, k, a, x)
        om_0 = _omega_solution(pot, 0.0, a, x)
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


def _zero_energy_decomposition(pot, bc):
    """(alpha, beta) of phi(0, .) = f(0, .) alpha + g(0, .) beta, read off
    at x_max where the pair carries exact data; beta is route (iii) of J(0)."""
    phi = hl.regular_solution(pot, bc, 0.0, pot.x_max)
    return phi.value - pot.x_max * phi.deriv, phi.deriv


def test_zero_energy_decomposition_free(rng):
    bc = rand_bc(rng, 2)
    alpha, beta = _zero_energy_decomposition(hl.free_potential(2), bc)
    assert np.allclose(alpha, bc.A) and np.allclose(beta, bc.B)


def test_zero_energy_decomposition_reconstructs(rng):
    pot = rand_potential(rng, 2)
    bc = rand_bc(rng, 2)
    alpha, beta = _zero_energy_decomposition(pot, bc)
    for x in (0.0, 0.6, pot.x_max, pot.x_max + 1.0):
        f0, g0 = _zero_energy_pair(pot, x)
        phi = hl.regular_solution(pot, bc, 0.0, x)
        recon = f0.value @ alpha + g0.value @ beta
        assert np.linalg.norm(phi.value - recon, 2) < 1e-9


def test_moment_identities_free_is_exact():
    assert hl.moment_identities_residual(hl.free_potential(2), 0.0) == (0.0, 0.0)


def test_moment_identities_scalar_well():
    r1, r2 = hl.moment_identities_residual(scalar_well(1.0), 0.0)
    assert r1 < 1e-8 and r2 < 1e-8


def test_moment_identities_on_a_wide_piece_overflow_without_warnings():
    # V = 0 on [0, 1e300]: the node weights y w overflow, and so does the
    # sum; the overflow error is raised with no RuntimeWarning on the way.
    pot = hl.Potential(n=1, pieces=((0.0, 1e300, np.zeros((1, 1))),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="^solution overflows"):
            hl.moment_identities_residual(pot, 0.0)


def test_moment_identities_matrix_step(rng):
    pot = rand_potential(rng, 3)
    r1, r2 = hl.moment_identities_residual(pot, 0.1)
    assert r1 < 1e-7 and r2 < 1e-7


def _mixed_potential(rng, n, pieces):
    """A potential that starts above 0 (a leading free leg) whose pieces
    alternately touch the one before and sit behind a gap, every third
    with V = c I or (for n > 2) two equal eigenvalues."""
    built, x = [], 0.15
    for i in range(pieces):
        lo = x + (0.0 if i % 2 else rng.uniform(0.05, 0.2)) if i else x
        V = rand_potential(rng, n, 1, scale=0.3).pieces[0][2]
        if i % 3 == 0:
            w = rng.uniform(-0.3, 0.3, n)
            w[: max(2, n // 2)] = w[0]
            Q = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
            V = (Q * w) @ Q.conj().T
        built.append((lo, lo + rng.uniform(0.3, 0.8), V))
        x = built[-1][1]
    return hl.Potential(n=n, pieces=tuple(built))


@pytest.mark.parametrize("n", [1, 2, 8])
def test_walks_agree_with_the_rk45_reference(rng, n):
    # Both walks across 40 pieces, some touching, some behind gaps, after a
    # leading free leg, a third with repeated eigenvalues of V, for real k
    # and Im k > 0: f walked down and phi walked up agree with the
    # reference propagator of tests/conftest.py at 0, at a point inside a
    # piece, at a point inside a gap and at x_max, to 1e-9 relative.  (The
    # reference's own error grows with Im k over the ~25 units of length:
    # at k = 0.6 + 0.4i it reaches about 7e-9.)
    pot = _mixed_potential(rng, n, 40)
    units = pot._units
    touching = sum(units.mid[u] == units.start[u] for u in range(1, 40))
    repeated = sum(np.isclose(np.diff(w), 0.0).any() for w in pot._stacks[1]) if n > 1 else 40
    assert units.mid[0] > 0.0 and 15 <= touching < 39 and repeated >= 13
    bc = rand_bc(rng, n)
    k = np.array([1.3, 0.6 + 0.15j])
    inside = units.mid[20] + 0.4 * (units.end[20] - units.mid[20])
    gap = 0.5 * (units.start[11] + units.mid[11])
    points = (0.0, gap, inside, pot.x_max)
    walks = solver._Walks(pot, bc, kappas=k, ks=k, points=points)
    # the reference carried from point to point, down for f and up for phi
    for read, ref, order in ((walks.f, rk45_jost_solution(pot, k, pot.x_max), points[::-1]),
                             (walks.phi, hl.StateMatrix(0.0, bc.A, bc.B), points)):
        for x in order:
            ref = rk45_propagate(pot, k, ref, x, **RK45_TIGHT)
            got = read(k, x)
            for g, r in ((got.value, ref.value), (got.deriv, ref.deriv)):
                err = np.linalg.norm(g - r, 2, axis=(-2, -1))
                assert (err <= 1e-9 * np.maximum(1.0, np.linalg.norm(r, 2, axis=(-2, -1)))).all()


def test_rk45_agrees_with_analytic(rng):
    pot = rand_potential(rng, 2)
    for k in (0.7, 1.9, 0.4 + 0.6j):
        ref = hl.jost_solution(pot, k, 0.0)
        alt = rk45_jost_solution(pot, k, 0.0, **RK45_TIGHT)
        assert np.linalg.norm(ref.value - alt.value, 2) < 1e-9
        assert np.linalg.norm(ref.deriv - alt.deriv, 2) < 1e-9


def test_rk45_refinement_convergence(rng):
    # Halving the tolerances moves the answer by less than 10x the target.
    pot = rand_potential(rng, 2)
    k = 1.3
    tol = 1e-10
    f1 = rk45_jost_solution(pot, k, 0.0, abs_tol=tol, rel_tol=tol, max_step=0.05)
    f2 = rk45_jost_solution(pot, k, 0.0, abs_tol=tol / 2, rel_tol=tol / 2, max_step=0.05)
    assert np.linalg.norm(f1.value - f2.value, 2) < 10 * tol


def test_rk45_raises_where_the_solution_overflows():
    # V = 2500 on [0, 20]: f(0.5, .) grows like exp(50 (20 - x)) and
    # overflows near x = 6.  The error estimate turns NaN there, which
    # neither accepts nor shrinks a step; the reference raises at once.
    # It does so at any tolerance; loose ones get there in fewer steps.
    pot = hl.Potential(n=1, pieces=((0.0, 20.0, np.array([[2500.0]])),))
    with pytest.raises(NumericalError, match="is not finite"):
        rk45_jost_solution(pot, 0.5, 0.0, abs_tol=1e-6, rel_tol=1e-6)


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


def test_analytic_propagation_returns_its_steps_read_only(rng):
    # An analytic propagation hands back its last product's fresh arrays
    # without the check and copy of StateMatrix (it checks only that its end
    # state is finite): read-only, with the bits and strides that checked
    # copy has.  A propagation without steps still checks and copies its start.
    pot = rand_potential(rng, 2, 3)
    value, deriv = _random_states(rng, 4, 2)
    start = hl.StateMatrix(0.0, value, deriv)
    k = np.linspace(0.5, 2.0, 4) + 0j
    out = hl.propagate(pot, k, start, pot.x_max)
    checked = hl.StateMatrix(pot.x_max, *_unit_by_unit(pot, k, start, pot.x_max))
    for got, want in ((out.value, checked.value), (out.deriv, checked.deriv)):
        assert not got.flags.writeable and got.strides == want.strides
        assert np.array_equal(got, want)
    again = hl.propagate(pot, k, start, 0.0)
    assert again.value is not start.value and np.array_equal(again.value, value)


def _walked(pot, k, value, deriv, x0, x1):
    """(value, deriv) at x0 walked to x1 by the kernel, from a table at k
    (0-d or 1-D) of its own, unchecked: inf or NaN where a row overflowed."""
    ks = np.atleast_1d(np.asarray(k, dtype=complex))
    table = solver._Table(pot, ks)
    (state,) = solver._walk(pot, ks, table, table.rows, x0,
                            *(np.reshape(a, (-1, pot.n, pot.n)) for a in (value, deriv)),
                            x1, {x1}).values()
    return state.value.reshape(np.shape(value)), state.deriv.reshape(np.shape(deriv))


def _random_states(rng, K, n):
    return [rng.normal(size=(K, n, n)) + 1j * rng.normal(size=(K, n, n)) for _ in range(2)]


def _assert_same_bits(got, want):
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_step_rows_do_not_depend_on_the_stack(rng, n):
    # A row of a stacked walk has the bits it has when walked alone or in
    # any other stack, for real k and for Im k > 0: out across a leading
    # gap and two pieces (a product into the first piece's eigenbasis, its
    # block, an interface product, the second block, a product out) and on
    # over free territory, then back from the rows that walk hands on.
    # Each product is one over every row of the stack, so this holds only
    # while BLAS computes a row of a product with an n x n factor the same
    # way whatever the number of rows.
    pot = rand_potential(rng, n, 2)
    assert pot.pieces[0][0] > 0.0
    k = np.linspace(0.05, 10.0, 400) + 0j
    x = pot.x_max + 0.37
    for ks in (k, k + 0.3j):
        v, d = _random_states(rng, 400, n)
        full = _walked(pot, ks, v, d, 0.0, x)
        again = _walked(pot, ks, *full, x, 0.0)
        for K in (1, 2, 3, 7, 200, 400):
            for off in sorted({0, 1, 5, 400 - K} if K < 400 else {0}):
                rows = slice(off, off + K)
                part = _walked(pot, ks[rows], v[rows], d[rows], 0.0, x)
                _assert_same_bits(part, (a[rows] for a in full))
                _assert_same_bits(_walked(pot, ks[rows], *part, x, 0.0),
                                  (a[rows] for a in again))
        for i in (0, 1, 199, 399):
            _assert_same_bits(_walked(pot, ks[i], v[i], d[i], 0.0, x), (a[i] for a in full))


def _reference_step(V, k, h, value, deriv):
    """The exact step through a piece V (None on free territory) with one
    stacked Q @ X rotation per k, on untransposed states, from its own
    eigendecomposition: the reference the one-product step must track."""
    w, Q = (0.0, None) if V is None else np.linalg.eigh(V)
    h = np.asarray(h)[..., None]
    with np.errstate(all="ignore"):
        om2 = (k * k)[..., None] - w
        z = np.sqrt(om2) * h
        c, s = np.cos(z), np.sin(z) / z
        small = np.abs(z) < 1e-4
        if small.any():
            z2 = z * z
            c = np.where(small, 1.0 - z2 / 2.0 + z2 * z2 / 24.0 - z2 * z2 * z2 / 720.0, c)
            s = np.where(small, 1.0 - z2 / 6.0 + z2 * z2 / 120.0 - z2 * z2 * z2 / 5040.0, s)
        s = s * h
        c, s, g = c[..., None], s[..., None], (-om2 * s)[..., None]
        if Q is not None:
            value, deriv = Q.conj().T @ value, Q.conj().T @ deriv
        new_v = c * value + s * deriv
        new_d = g * value + c * deriv
        if Q is not None:
            new_v, new_d = Q @ new_v, Q @ new_d
    if not (np.isfinite(new_v).all() and np.isfinite(new_d).all()):
        raise NumericalError("solution overflows within one exact step: the piece "
                             "is too wide or too deep at this k")
    return new_v, new_d


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_step_tracks_the_per_k_reference(rng, n):
    # A walk across one piece, from 0 where the piece starts there and
    # across a free gap before it (one block of gap and piece), and a walk
    # over free territory, are each within a few ulps of the per-k
    # reference, relative to the norm of the result: for real k and Im k >
    # 0, for stacks of 1, 7 and 400, and on the small-|z| series branch (a
    # short piece, and k^2 at and near each eigenvalue of V, beside rows
    # off the branch).
    V = rand_potential(rng, n, 1).pieces[0][2]
    k = np.linspace(0.05, 10.0, 400) + 0j
    near = np.sqrt(np.add.outer(np.linalg.eigvalsh(V), [-1e-9, 1e-9, 1e-3]).ravel() + 0j)
    for ks, h in ((k, 0.37), (k + 0.3j, 0.37), (k[:7], 0.37), (k[:1], 0.37),
                  (k[:50], 1e-6), (near, 0.37)):
        v, d = _random_states(rng, len(ks), n)
        for gap in (0.0, 0.21, None):
            if gap is None:
                pot, want = hl.free_potential(n), _reference_step(None, ks, h, v, d)
            else:
                pot = hl.Potential(n=n, pieces=((gap, gap + h, V),))
                want = _reference_step(V, ks, h, *_reference_step(None, ks, gap, v, d))
            got = _walked(pot, ks, v, d, 0.0, gap + h if gap is not None else h)
            err = sum(np.linalg.norm(g - w, axis=(-2, -1)) ** 2 for g, w in zip(got, want))
            size = sum(np.linalg.norm(w, axis=(-2, -1)) ** 2 for w in want)
            assert (np.sqrt(err / size) <= 8 * np.finfo(float).eps).all()


@pytest.mark.parametrize("n", [1, 2, 8])
def test_step_overflows_where_the_reference_does(rng, n):
    # A barrier deep enough that the step overflows for small k and not for
    # large k.  The walk checks nothing: each k alone comes out inf or NaN
    # exactly where the reference raises, and a propagation over that one
    # step, which checks its end state, raises there with the same text; a
    # stack raises when any of its rows does.
    barrier = 1e6 * np.eye(n) + rand_potential(rng, n, 1).pieces[0][2]
    pot = hl.Potential(n=n, pieces=((0.0, 1.0, barrier),))
    V = pot.pieces[0][2]
    h = 709.8 / np.sqrt(1e6 - 150.0 ** 2)
    v, d = _random_states(rng, 1, n)
    raised = []
    for kj in np.linspace(0.0, 300.0, 61) + 0j:
        outcomes = []
        for run in (lambda: _reference_step(V, kj, h, v[0], d[0]),
                    lambda: hl.propagate(pot, kj, hl.StateMatrix(0.0, v[0], d[0]), h)):
            try:
                run()
                outcomes.append(None)
            except NumericalError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        finite = all(np.isfinite(a).all() for a in _walked(pot, kj, v[0], d[0], 0.0, h))
        assert finite == (outcomes[0] is None)
        raised.append(outcomes[0] is not None)
    assert any(raised) and not all(raised)
    with pytest.raises(NumericalError, match="overflows within one exact step"):
        hl.propagate(pot, np.array([300.0, 0.0]) + 0j,
                     hl.StateMatrix(0.0, *_random_states(rng, 2, n)), h)


@pytest.mark.parametrize("n", [1, 2, 8])
def test_an_overflowed_row_stays_non_finite_on_every_later_leg(rng, n):
    # Two barriers among ordinary pieces overflow for the smaller k of a
    # 41-k stack, with legs still to go on either side.  In both walks a row
    # that is inf or NaN at a stop stays so at every later stop, and at every
    # stop each row is bit for bit what a propagation of its own gives, or
    # is not finite where that propagation raises the step's overflow error.
    eye = np.eye(n)
    small = [rand_potential(rng, n, 1, scale=0.3).pieces[0][2] for _ in range(3)]
    pot = hl.Potential(n=n, pieces=(
        (0.0, 1.0, small[0]), (1.5, 9.5, 8000.0 * eye), (10.0, 11.0, small[1]),
        (11.5, 31.5, 2000.0 * eye + small[2]), (32.0, 33.0, small[0])))
    bc = rand_bc(rng, n)
    k = np.linspace(0.0, 60.0, 41) + 0j
    walks = solver._Walks(pot, bc, k, k, points=(0.0, *piece_edges(pot)))
    for read, alone, x0, x1 in ((walks.f, lambda kj, x: hl.jost_solution(pot, kj, x), 33.0, 0.0),
                                (walks.phi, lambda kj, x: hl.regular_solution(pot, bc, kj, x),
                                 0.0, 33.0)):
        stops = sorted({0.0, *piece_edges(pot)}, reverse=x1 < x0)
        finite = np.array([solver._finite_rows(read(k, x, check=False)) for x in stops])
        assert not (finite[1:] & ~finite[:-1]).any()
        assert finite[-1].any() and not finite[-1].all()
        for x, row_ok in zip(stops, finite):
            for kj, ok in zip(k, row_ok):
                got = read(kj, x, check=False)
                try:
                    ref = alone(kj, x)
                except NumericalError as exc:
                    assert str(exc) == solver._OVERFLOW and not ok
                    continue
                assert ok and got.value.tobytes() == ref.value.tobytes()
                assert got.deriv.tobytes() == ref.deriv.tobytes()


def _exact_nodes(pot, edge, ys):
    """psi at the nodes ys, each propagated exactly from the piece edge."""
    return np.array([hl.propagate(pot, 0.0, edge, y).value for y in ys])


def _reference_nodes(pot, edge, ys):
    """psi at the nodes ys, each integrated from the piece edge by the reference."""
    return np.array([rk45_propagate(pot, 0.0, edge, y, **RK45_TIGHT).value for y in ys])


def _stacked(read, xs):
    """The quadrature's edge pair (xs, psi) from the states read(x)."""
    return xs, np.array([(s.value, s.deriv) for s in map(read, map(float, xs))])


def _panels(reach):
    """The least power of two p with reach <= 4 p, at most 32: the panels of
    a piece of reach sqrt(max|w|) h."""
    p = 1
    while p < 32 and 4 * p < reach:
        p *= 2
    return p


def _per_node_quadrature(pot, a, weights, edges, nodes=_exact_nodes):
    """The moment quadrature as a loop over pieces that forms every node
    state (``nodes``) from its piece's edge state, on the panels of
    solver._integrate_weighted (``_panels``, cut by np.linspace).  ``edges``
    as there.  Returns the totals and the (nodes, states) of every piece."""
    xs, ws = solver._gauss_rule(solver._GAUSS_ORDER)
    live = [(max(lo, a), hi, V, w) for (lo, hi, V), w in zip(pot.pieces, pot._stacks[1])
            if hi > max(lo, a)]
    xe, psi_e = edges(np.array([p[0] for p in live]), np.array([p[1] for p in live]))
    totals = [np.zeros((pot.n, pot.n), dtype=complex) for _ in weights]
    visited = []
    for (lo, hi, V, w), x, (v, d) in zip(live, xe, psi_e):
        cuts = np.linspace(lo, hi, _panels(np.sqrt(np.abs(w).max()) * (hi - lo)) + 1)
        mid, half = 0.5 * (cuts[:-1] + cuts[1:]), 0.5 * (cuts[1:] - cuts[:-1])
        ys = (mid[:, None] + half[:, None] * xs).ravel()
        psi = nodes(pot, hl.StateMatrix(float(x), v, d), ys)
        visited.append((ys, psi))
        Vpsi = V @ psi
        for total, weight in zip(totals, weights):
            total += (((half[:, None] * ws).ravel() * weight(ys))[:, None, None] * Vpsi).sum(axis=0)
    return totals, visited


def _node_log(key, seen):
    """Weights 1 and y that log every node they are called on under ``key``."""
    return (lambda ys: seen[key].extend(np.ravel(ys)) or 1.0,
            lambda ys: seen[key].extend(np.ravel(ys)) or ys)


def _same_nodes(seen):
    stacked, oracle = seen.values()
    return sorted(y.tobytes() for y in stacked) == sorted(y.tobytes() for y in oracle)


@pytest.mark.parametrize("n,pieces", [(n, p) for n in (1, 2, 8) for p in (2, 20)])
def test_quadrature_nodes_equal_walked_solutions(rng, n, pieces):
    # The quadrature sums V psi over its Gauss nodes in V's eigenbasis and
    # forms no node state.  Its oracle forms them, each propagated from its
    # piece's edge: the weights see the oracle's nodes bit for bit, and the
    # totals agree to 1e-12 relative, from 0 and from inside a piece.  Where
    # the edge is walked (phi's edge at a inside a piece is not), the same
    # oracle summing the states of one walk that keeps every node agrees to
    # 1e-12 too, each walked node state equals a full walk to the node (a
    # direct call) bit for bit, and it agrees with the node state
    # propagated from the edge to 1e-14 relative: the walk enters a piece
    # through the interface product from the one before, the edge state
    # from the standard basis.
    pot = rand_potential(rng, n, pieces, scale=0.3)
    bc = rand_bc(rng, n)
    lo, hi, _ = pot.pieces[pieces // 2]
    inside = 0.5 * (lo + hi)
    phi = (lambda lo, hi: _stacked(lambda x: hl.regular_solution(pot, bc, 0.0, x), lo),
           lambda y: hl.regular_solution(pot, bc, 0.0, y),
           lambda ys: solver._Walks(pot, bc, ks=[0.0], points=ys).phi)
    f = (lambda lo, hi: _stacked(lambda x: hl.jost_solution(pot, 0.0, x), hi),
         lambda y: hl.jost_solution(pot, 0.0, y),
         lambda ys: solver._Walks(pot, None, [0.0], points=ys).f)
    for a, (edge, walk, walked) in ((0.0, phi), (0.0, f), (inside, f),
                                    (inside, (phi[0], None, None))):
        seen = {"stacked": [], "oracle": []}
        got = solver._integrate_weighted(pot, a, _node_log("stacked", seen), edge)
        want, visited = _per_node_quadrature(pot, a, _node_log("oracle", seen), edge)
        for g, w in zip(got, want):
            assert np.linalg.norm(g - w, 2) <= 1e-12 * max(1.0, np.linalg.norm(w, 2))
        assert _same_nodes(seen)
        ys = np.concatenate([y for y, _ in visited])
        assert len(visited) >= len(pot.pieces) - pieces // 2 and ys.min() >= a
        if walk is not None:
            read = walked([float(y) for y in ys])
            on_walk, _ = _per_node_quadrature(
                pot, a, (lambda ys: 1.0, lambda ys: ys), edge,
                lambda pot, edge, ys: np.array([read(0.0, float(y)).value for y in ys]))
            for g, w in zip(got, on_walk):
                assert np.linalg.norm(g - w, 2) <= 1e-12 * max(1.0, np.linalg.norm(w, 2))
            psi = np.concatenate([v for _, v in visited])
            for y, v in list(zip(ys, psi))[::7]:
                state = read(0.0, float(y)).value
                assert np.array_equal(state, walk(float(y)).value)
                assert np.linalg.norm(state - v) <= 1e-14 * max(1.0, np.linalg.norm(state))


def test_quadrature_panels_follow_the_a_priori_rule():
    # A piece of width h whose V has eigenvalues w gets the least power of
    # two p with sqrt(max|w|) h <= 4 p panels, at most 32, fixed before any
    # node is evaluated: the deep piece its bound's 8 (reach 28.3), the
    # shallow one 1, a well of reach 60 rounds up to 16, and a piece beyond
    # the bound (reach 200) gets 32.  The weights are called once each, on
    # the oracle's nodes, and the totals agree with it.
    cases = (
        ((0.0, 1.0, np.diag([-800.0, -600.0])), (1.1, 1.6, 0.3 * np.eye(2))),
        ((0.0, 3.0, -400.0 * np.eye(2)),),
        ((0.0, 1.0, -40000.0 * np.eye(2)),),
    )
    for pieces, panels in zip(cases, ([8, 1], [16], [32])):
        pot = hl.Potential(n=2, pieces=pieces)
        edges = lambda lo, hi: _stacked(lambda x: hl.jost_solution(pot, 0.0, x), hi)
        seen, calls = {"stacked": [], "oracle": []}, []
        log = _node_log("stacked", seen)
        weights = [lambda ys, w=w: calls.append(len(ys)) or w(ys) for w in log]
        got = solver._integrate_weighted(pot, 0.0, weights, edges)
        want, _ = _per_node_quadrature(pot, 0.0, _node_log("oracle", seen), edges)
        for g, w in zip(got, want):
            assert np.linalg.norm(g - w, 2) <= 1e-12 * max(1.0, np.linalg.norm(w, 2))
        assert _same_nodes(seen)
        ys = np.array(seen["stacked"][:calls[0]])
        assert calls == [12 * sum(panels)] * 2
        assert [int(((lo <= ys) & (ys <= hi)).sum()) for lo, hi, _ in pieces] == [
            12 * p for p in panels]


@pytest.mark.parametrize("depth,width", [(-400.0, 3.0), (25.0, 10.0)])
def test_quadrature_agrees_with_mpmath(depth, width):
    # V = depth on [0, width]: f(0, y) = cos(20 (3 - y)) in the well and
    # cosh(5 (10 - y)) in the barrier.  The moments of V f(0, .) with
    # weights 1 and y, summed from the walked edge, agree with mpmath's
    # to 1e-12 relative.
    mpmath = pytest.importorskip("mpmath")
    pot = hl.Potential(n=1, pieces=((0.0, width, np.array([[depth]])),))
    walks = solver._Walks(pot, None, [0.0], points=piece_edges(pot))
    got = solver._integrate_weighted(pot, 0.0, (lambda y: 1.0, lambda y: y),
                                     lambda lo, hi: (hi, walks.edges("f", 0.0, hi)))
    with mpmath.workdps(40):
        om = mpmath.sqrt(abs(depth))
        f = (lambda y: mpmath.cos(om * (width - y))) if depth < 0 else (
            lambda y: mpmath.cosh(om * (width - y)))
        for total, weight in zip(got, (lambda y: 1, lambda y: y)):
            want = complex(mpmath.quad(lambda y: weight(y) * depth * f(y),
                                       mpmath.linspace(0, width, 31)))
            assert abs(total[0, 0] - want) <= 1e-12 * abs(want)


def test_walk_edge_gather_reads_every_point_at_once(rng):
    # edges stacks the single reads of one k from either walk, bit for bit;
    # a point or k no walk holds raises KeyError, and an overflowed state
    # the overflow error, from one check.
    pot = rand_potential(rng, 2, 4)
    bc = rand_bc(rng, 2)
    walks = solver._Walks(pot, bc, [0.0, 1.0], [0.0], points=piece_edges(pot))
    xs = np.array(piece_edges(pot)[1:])
    for which, read in (("f", walks.f), ("phi", walks.phi)):
        psi = walks.edges(which, 0.0, xs)
        assert np.array_equal(psi, [(read(0.0, x).value, read(0.0, x).deriv) for x in xs])
    with pytest.raises(KeyError):
        walks.edges("f", 0.0, [0.5 * (xs[0] + xs[1])])
    with pytest.raises(KeyError):
        walks.edges("phi", 2.0, xs)
    barrier = hl.Potential(n=1, pieces=((0.0, 20.0, np.array([[2000.0]])), (21.0, 22.0,
                                                                           np.eye(1))))
    walks = solver._Walks(barrier, None, [0.0], points=piece_edges(barrier))
    with pytest.raises(NumericalError, match="overflows"):
        walks.edges("f", 0.0, piece_edges(barrier))
    assert walks.edges("f", 0.0, piece_edges(barrier)[2:]).shape == (2, 2, 1, 1)


def test_rk45_quadratures_agree_with_analytic(rng):
    # The per-node quadrature with every edge and node state from the
    # reference: J(0) by route (ii), B plus the moment of V phi(0, .), agrees
    # with the analytic J(0), and the tail moments of f(0, .) satisfy their
    # identities, from 0 and from inside the support.
    pot = rand_potential(rng, 2, 2)
    bc = rand_bc(rng, 2)
    (moment,), _ = _per_node_quadrature(
        pot, 0.0, (lambda y: 1.0,),
        lambda lo, hi: _stacked(lambda x: rk45_regular_solution(pot, bc, 0.0, x, **RK45_TIGHT),
                                lo), _reference_nodes)
    assert np.linalg.norm(bc.B + moment - hl.jost_matrix_zero(pot, bc), 2) < 1e-9
    for a in (0.0, 0.5 * pot.x_max):
        (m0, m1), _ = _per_node_quadrature(
            pot, a, (lambda y: 1.0, lambda y: y),
            lambda lo, hi: _stacked(lambda x: rk45_jost_solution(pot, 0.0, x, **RK45_TIGHT), hi),
            _reference_nodes)
        f0a = rk45_jost_solution(pot, 0.0, a, **RK45_TIGHT)
        assert np.linalg.norm(m0 + f0a.deriv, 2) < 1e-10
        assert np.linalg.norm(m1 - f0a.value + a * f0a.deriv + np.eye(2), 2) < 1e-10


def _held(read):
    """The states by stop of the walk behind ``walks.f`` or ``walks.phi``."""
    return getattr(read.__self__, "_" + read.__name__)[2]


def _forbid_propagation(monkeypatch):
    """Make every read that is not a slice of a walk fail."""
    def forbidden(*args, **kwargs):
        raise AssertionError("a walked read propagated on its own")

    for name in ("propagate", "jost_solution", "regular_solution"):
        monkeypatch.setattr(solver, name, forbidden)


def _assert_reads_equal_propagation(monkeypatch, read, k, start):
    """Each state the walk behind ``read`` holds is read without a propagation
    and equals, bit for bit, a direct propagation of ``start`` to its stop."""
    refs = {x: hl.propagate(read.__self__.pot, k, start, x) for x in _held(read)}
    with monkeypatch.context() as patch:
        _forbid_propagation(patch)
        for x, ref in refs.items():
            state = read(k, x)
            assert state.x == x
            assert np.array_equal(state.value, ref.value)
            assert np.array_equal(state.deriv, ref.deriv)


@pytest.mark.parametrize("method", ["analytic"])  # the one propagator
@pytest.mark.parametrize("k", [0.0, 0.7, np.array([0.0, 0.7, 2.0 + 0.5j])],
                         ids=["k0", "k", "stack"])
@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_walk_states_equal_direct_propagation(rng, monkeypatch, method, k, direction):
    # Every state of one walk, at each interface and at a point a inside a
    # piece, is the state a direct propagation from the start gives.
    pot = rand_potential(rng, 2, 20, scale=0.3)
    bc = rand_bc(rng, 2)
    lo, hi, _ = pot.pieces[len(pot.pieces) // 2]
    a = lo + 0.3 * (hi - lo)
    points = (0.0, a, *piece_edges(pot))
    if direction == "forward":
        read = solver._Walks(pot, bc, ks=k, points=points).phi
        start = hl.StateMatrix(0.0, bc.A, bc.B)
    else:
        read = solver._Walks(pot, bc, kappas=k, points=points).f
        start = hl.jost_solution(pot, k, pot.x_max)
    interfaces = {b for p in pot.pieces for b in p[:2]}
    assert set(_held(read)) == interfaces | {0.0, a}
    _assert_reads_equal_propagation(monkeypatch, read, k, start)


def test_walk_reaches_several_side_points(rng, monkeypatch):
    # Two points inside pieces and one beyond the support are side legs of
    # the phi walk, which ends at the farthest point; the f walk starts at
    # the support edge, so it leaves the points beyond it out.
    pot = rand_potential(rng, 2, 6, scale=0.3)
    bc = rand_bc(rng, 2)
    (lo1, hi1, _), (lo4, hi4, _) = pot.pieces[1], pot.pieces[4]
    inside = (0.5 * (lo1 + hi1), 0.3 * lo4 + 0.7 * hi4)
    beyond = (pot.x_max + 0.5, pot.x_max + 2.0)
    k = np.array([0.0, 0.7])
    walks = solver._Walks(pot, bc, k, k, points=(0.0, *inside, *beyond, *piece_edges(pot)))
    interfaces = {b for p in pot.pieces for b in p[:2]}
    assert set(_held(walks.phi)) == interfaces | {0.0, *inside, *beyond}
    assert set(_held(walks.f)) == interfaces | {0.0, *inside}
    _assert_reads_equal_propagation(monkeypatch, walks.phi, k, hl.StateMatrix(0.0, bc.A, bc.B))
    _assert_reads_equal_propagation(monkeypatch, walks.f, k, hl.jost_solution(pot, k, pot.x_max))


def test_walk_keeps_a_outside_the_walk_out(rng):
    # The f walk runs from the support edge down to the lowest point and
    # keeps only that point; a point above the edge is off it and read from
    # the closed form.
    pot = rand_potential(rng, 1, 3)
    hi1 = pot.pieces[1][1]
    walks = solver._Walks(pot, None, kappas=[0.3],
                          points=(hi1, pot.x_max + 1.0))
    assert set(_held(walks.f)) == {hi1}
    off = walks.f(0.3, pot.x_max + 1.0)
    assert np.array_equal(off.value, hl.jost_solution(pot, 0.3, pot.x_max + 1.0).value)


def test_walks_keep_exactly_their_points(rng, monkeypatch):
    # A walk holds its states at the points it is given and nowhere else: an
    # interface it crossed but was not given is not held.  Piece edges given
    # as points are kept on the way: each walk is one _walk run.
    pot = rand_potential(rng, 2, 6, scale=0.3)
    bc = rand_bc(rng, 2)
    lo, hi, _ = pot.pieces[2]
    a = 0.5 * (lo + hi)
    k = np.array([0.0, 0.7])
    walks = solver._Walks(pot, bc, k, k, points=(0.0, a))
    assert set(_held(walks.f)) == set(_held(walks.phi)) == {0.0, a}
    for read, x in ((walks.f, hi), (walks.f, pot.x_max), (walks.phi, lo)):
        with pytest.raises(KeyError, match="no walk holds"):
            read(k, x)
    walk, runs = solver._walk, []

    def spy(pot_, ks, table, rows, x0, value, deriv, x1, keep):
        runs.append((x0, x1))
        return walk(pot_, ks, table, rows, x0, value, deriv, x1, keep)

    monkeypatch.setattr(solver, "_walk", spy)
    walks = solver._Walks(pot, bc, k, k, points=(0.0, *piece_edges(pot)))
    monkeypatch.undo()
    assert runs == [(pot.x_max, 0.0), (0.0, pot.x_max)]
    assert set(_held(walks.f)) == set(_held(walks.phi)) == {0.0, *piece_edges(pot)}
    # a walk named in ``edges`` keeps, f the upper and phi the lower edge
    # of every piece on its way, and the other walk keeps no edge
    highs, lows = {p[1] for p in pot.pieces}, {p[0] for p in pot.pieces[:3]}
    for edges in (("f",), ("phi",), ("f", "phi")):
        walks = solver._Walks(pot, bc, k, k, points=(0.0, a), edges=edges)
        assert set(_held(walks.f)) == {0.0, a, *(highs if "f" in edges else ())}
        assert set(_held(walks.phi)) == {0.0, a, *(lows if "phi" in edges else ())}


def test_walk_takes_a_point_listed_twice_once(rng, monkeypatch):
    # verify lists x1 and a, which coincide when a = x1: a point strictly
    # inside a unit is carried to from the unit's entry once per walk,
    # however often it is listed.
    pot = rand_potential(rng, 2, 4, scale=0.3)
    bc = rand_bc(rng, 2)
    lo, hi, _ = pot.pieces[2]
    a = 0.5 * (lo + hi)
    part, targets = solver._part, []

    def spy(pot_, ks, table, rows, u, y0, y1, v, d):
        targets.append(y1)
        return part(pot_, ks, table, rows, u, y0, y1, v, d)

    monkeypatch.setattr(solver, "_part", spy)
    walks = solver._Walks(pot, bc, [0.0, 0.7], [0.0, 0.7], points=(0.0, a, a))
    monkeypatch.undo()
    assert targets.count(a) == 2  # one for f, one for phi
    assert a in _held(walks.f) and a in _held(walks.phi)
    k = np.array([0.0, 0.7])
    _assert_reads_equal_propagation(monkeypatch, walks.phi, k, hl.StateMatrix(0.0, bc.A, bc.B))
    _assert_reads_equal_propagation(monkeypatch, walks.f, k, hl.jost_solution(pot, k, pot.x_max))


def _unit_by_unit(pot, k, start, x):
    """start, at 0 or at x_max, carried to x in [0, x_max] one unit at a
    time by the kernel's own factors, each call on its own: into a unit's
    eigenbasis by one product (conj Q of the first, then an interface
    factor), through a unit crossed whole by its table block, to x inside
    a unit by its gap and piece legs (a gap it covers whole from the
    table, any other leg from its own coefficients), then out by Q^T."""
    units, (w, QT, QhT) = pot._units, pot._stacks[1:]
    table = solver._Table(pot, k)
    v, d = (np.broadcast_to(a, k.shape + a.shape[-2:]).swapaxes(-1, -2)
            for a in (start.value, start.deriv))
    back = x < start.x
    order = [u for u in range(len(units.end)) if (units.end[u] > x if back else units.start[u] < x)]
    prev = None
    for u in (order[::-1] if back else order):
        R = QhT[u] if prev is None else (units.down[u] if back else units.up[prev])
        v, d, prev = solver._rotate(v, R), solver._rotate(d, R), u
        if (units.start[u] >= x) if back else (units.end[u] <= x):
            v, d = solver._mix(table.block(u, table.rows), v, d, back)
            continue
        legs = [(0.0, units.start[u], units.mid[u], True),
                (w[u], units.mid[u], units.end[u], False)]
        y0 = units.end[u] if back else units.start[u]
        for wj, a, b, gap in (legs[::-1] if back else legs):
            lo, hi = max(a, min(y0, x)), min(b, max(y0, x))
            if lo >= hi:
                continue
            if gap and (lo, hi) == (a, b):  # the whole gap
                c, s, g = table.gap(u, table.rows)
            else:
                with np.errstate(all="ignore"):
                    c, s, om2 = solver._coefficients(wj, k, np.asarray(hi - lo))
                g = -om2 * s
            v, d = solver._mix((c, s, g, c), v, d, back)
        break
    if prev is not None:
        v, d = solver._rotate(v, QT[prev]), solver._rotate(d, QT[prev])
    return v.swapaxes(-1, -2), d.swapaxes(-1, -2)


@pytest.mark.parametrize("extra", [None, 3])
@pytest.mark.parametrize("pieces", [2, 20])
@pytest.mark.parametrize("n", [1, 2, 8])
def test_walk_states_have_the_bits_of_stepping_leg_by_leg(rng, monkeypatch, n, pieces, extra):
    # Every stop and side point of both walks is, bit for bit (the sign of
    # a zero included), a direct propagation and the same blocks, interface
    # factors and legs applied one unit at a time: at every piece edge and
    # at a inside a piece, and with ``extra`` three more points, in the
    # leading gap, in a later gap and inside the first piece, which move
    # no other state.
    pot = rand_potential(rng, n, pieces, scale=0.3)
    bc = rand_bc(rng, n)
    k = np.array([0.0, -0.0, 0.7, -0.7, 2.0 + 0.5j])
    lo, hi, _ = pot.pieces[pieces // 2]
    a = lo + 0.3 * (hi - lo)
    units = pot._units
    more = (0.5 * units.mid[0], 0.5 * (units.start[1] + units.mid[1]),
            units.mid[0] + 0.7 * (units.end[0] - units.mid[0]))[:extra or 0]
    assert units.mid[0] > 0.0 and units.mid[1] > units.start[1]
    walks = solver._Walks(pot, bc, kappas=k, ks=k, points=(0.0, a, *more, *piece_edges(pot)))
    for held, start in ((walks._f, lambda ks: hl.jost_solution(pot, ks, pot.x_max)),
                        (walks._phi, lambda ks: hl.StateMatrix(0.0, bc.A, bc.B))):
        keys, _, states = held
        reps = solver._distinct(k, keys(k))[0]
        assert len(reps) == (5 if keys is solver._k_keys else 3)
        assert set(states) == {b for p in pot.pieces for b in p[:2]} | {0.0, a, *more}
        for x, state in states.items():
            ref = hl.propagate(pot, reps, start(reps), x)
            got = [a.tobytes() for a in (state.value, state.deriv)]  # tells -0.0 from 0.0
            assert got == [a.tobytes() for a in (ref.value, ref.deriv)]
            if x != start(reps).x:
                assert got == [a.tobytes() for a in _unit_by_unit(pot, reps, start(reps), x)]


@pytest.mark.parametrize("n", [1, 2, 8])
def test_coefficients_are_even_in_k_and_odd_in_h(rng, n):
    # A walk's table holds each unit's blocks once per k^2: f(k, .),
    # f(-k, .) and phi(k, .) all read them, and a backward walk applies
    # (t, -q, -r, p).  So on the 200-point grid the blocks at -k* (as the f
    # walk carries it) and at -k equal those at k, and (t, -q, -r, p) equals
    # the piece stepped back (at -h) and then the gap (at -g), composed by
    # the test, bit for bit apart from the sign of a zero.
    pot = rand_potential(rng, n, 20, scale=0.3)
    k = np.linspace(0.05, 10.0, 200) + 0j
    units = pot._units

    def bits(a):  # adding 0 maps -0.0 to 0.0 and keeps every other bit
        return (a + 0).tobytes()

    def blocks(table):  # (4, U, K, n)
        return np.stack([table.block(u, None) for u in range(len(units.end))], axis=1)

    table = blocks(solver._Table(pot, k))
    for kk in (-k.conj(), -k):
        assert [bits(a) for a in blocks(solver._Table(pot, kk))] == [bits(a) for a in table]
    with np.errstate(all="ignore"):
        cP, sP, om2 = solver._coefficients(pot._stacks[1][:, None], k,
                                           -np.subtract(units.end, units.mid)[:, None])
        gP = -om2 * sP
        cG, sG, om2 = solver._coefficients(0.0, k, -np.subtract(units.mid, units.start)[:, None])
        gG = -om2 * sG
        back = (cG * cP + sG * gP, cG * sP + sG * cP, gG * cP + cG * gP, gG * sP + cG * cP)
    p, q, r, t = table
    assert [bits(a) for a in back] == [bits(t), bits(-q), bits(-r), bits(p)]


def test_propagation_keeps_only_a_few_states(rng, monkeypatch):
    # A 400-k propagation across 20 pieces at n = 8 keeps the last state of
    # its run, not one per unit, and of its table one run of blocks at a
    # time: its peak of traced memory stays below a few states (20 units
    # would hold 20, and the whole table of blocks 5).
    import tracemalloc

    pot = rand_potential(rng, 8, 20)
    k = np.linspace(0.05, 10.0, 400) + 0j
    hl.jost_solution(pot, k[:2], 0.0)  # first-use allocations out of the count
    tracemalloc.start()
    try:
        out = hl.jost_solution(pot, k, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(pot._units.end) == 20
    assert peak < 8 * (out.value.nbytes + out.deriv.nbytes)
    held, init = [], solver._Table.__init__

    def spy(table, *args, **kwargs):
        init(table, *args, **kwargs)
        held.append(table)

    monkeypatch.setattr(solver._Table, "__init__", spy)
    hl.jost_solution(pot, k, 0.0)
    (table,) = held
    (run,) = table.runs.values()
    blocks, gaps = run
    assert blocks.shape == (4, 5, 400, 8) and gaps.shape == (3, 5, 400, 1)


@pytest.mark.parametrize("n", [1, 2])
def test_overflow_mid_walk_raises_the_step_error(rng, n):
    # A deep barrier between ordinary pieces overflows in the middle of a
    # run, with legs still to go on either side: the propagation raises the
    # overflow error of a step, without warnings, and a walk across it is
    # kept, its rows inf or NaN from the barrier on, so each read of them
    # raises that error.
    barrier = 2000.0 * np.eye(n)
    pieces = (rand_potential(rng, n, 1).pieces[0][:2], (2.0, 22.0), (22.5, 23.0))
    pot = hl.Potential(n=n, pieces=tuple(
        (lo, hi, barrier if i == 1 else rand_potential(rng, n, 1).pieces[0][2])
        for i, (lo, hi) in enumerate(pieces)))
    bc = rand_bc(rng, n)
    k = np.array([0.5, 1.0]) + 0j
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        walks = solver._Walks(pot, bc, k, k, points=(0.0, pot.x_max))
        for run in (lambda: hl.jost_solution(pot, k, 0.0),
                    lambda: hl.regular_solution(pot, bc, k, pot.x_max),
                    lambda: walks.f(k, 0.0), lambda: walks.phi(k, pot.x_max)):
            with pytest.raises(NumericalError) as caught:
                run()
            assert str(caught.value) == solver._OVERFLOW
    for read, x in ((walks.f, 0.0), (walks.phi, pot.x_max)):
        assert not solver._finite_rows(read(k, x, check=False)).any()


def _piece_at_scan(pot, x):
    """The linear scan that ``Potential.piece_at`` replaced: first match."""
    for i, (lo, hi, _) in enumerate(pot.pieces):
        if lo <= x < hi:
            return i
    return None


def _segments_scan(pot, x0, x1):
    """The parts of the walk from x0 to x1 between piece edges, in walk
    order, each with the piece a linear scan finds inside it (None on free
    territory)."""
    inner = (b for p in pot.pieces for b in p[:2] if min(x0, x1) < b < max(x0, x1))
    cuts = sorted({x0, x1, *inner}, reverse=bool(x1 < x0))
    return [(y0, y1, _piece_at_scan(pot, 0.5 * (y0 + y1))) for y0, y1 in zip(cuts, cuts[1:])]


def _merged(parts):
    """``parts`` with neighbours of one piece joined."""
    out = []
    for a, b, p in parts:
        if out and out[-1][2] == p is not None:
            a = out.pop()[0]
        out.append((a, b, p))
    return out


def _overlapping_potential():
    # Overlaps shorter than 1e-15 pass the constructor; the first piece of
    # an overlap wins, also over a later one nested in it.
    u = 2.0 ** -53
    return hl.Potential(n=1, pieces=(
        (0.0, 1.0, np.eye(1)), (1.0 - 4 * u, 1.0 - 2 * u, 2 * np.eye(1)),
        (1.0 - u, 2.0, 3 * np.eye(1)), (3.0, 3.5, np.eye(1)), (3.5, 4.0, np.eye(1)),
    ))


@pytest.mark.parametrize("case", ["touching", "gaps", "overlaps"])
def test_piece_lookup_equals_linear_scan(rng, case):
    if case == "overlaps":
        pot = _overlapping_potential()
        assert pot.piece_at(1.0 - 3 * 2.0 ** -53) == 0
        # the nested piece is gone and the next starts where the first ends
        assert [(lo, hi, V[0, 0]) for lo, hi, V in pot.pieces[:2]] == [(0.0, 1.0, 1), (1.0, 2.0, 3)]
        assert len(pot.pieces) == 4
        assert all(hi <= lo for (_, hi, _), (lo, _, _) in zip(pot.pieces, pot.pieces[1:]))
    else:
        pot = rand_potential(rng, 2, 20, gap=0.0 if case == "touching" else 0.2)
    edges = piece_edges(pot)
    mids = [0.5 * (lo + hi) for lo, hi in zip(edges, edges[1:])]
    xs = [0.0, *edges, *mids, pot.x_max + 1.0, *rng.uniform(0.0, pot.x_max, 20)]
    for x in xs:
        assert pot.piece_at(x) == _piece_at_scan(pot, x)
    # The walk's parts in one unit each, cut where its gap ends, carry the
    # pieces of the scan (None in a gap and beyond the support); only the
    # legs of one piece that an overlapping piece's edge cuts form one part.
    units = pot._units
    for x0 in xs:
        for x1 in xs:
            parts = []
            for u, y0, y1 in solver._segments(pot, x0, x1):
                gap_end = None if u is None else units.mid[u]
                ys = [y0, *([gap_end] if u is not None and min(y0, y1) < gap_end < max(y0, y1)
                            else []), y1]
                parts += [(a, b, None if u is None or min(a, b) < gap_end else u)
                          for a, b in zip(ys, ys[1:])]
            scan = _segments_scan(pot, x0, x1)
            assert parts == (_merged(scan) if case == "overlaps" else scan)
    free = hl.free_potential(2)
    assert free.piece_at(0.0) is None
    assert list(solver._segments(free, 0.0, 1.0)) == [(None, 0.0, 1.0)]
    assert list(solver._segments(free, 1.0, 1.0)) == []
    assert list(solver._segments(free, 1.0, 0.0)) == [(None, 1.0, 0.0)]
    k = np.array([0.5, 2.0]) + 0j
    back = hl.propagate(free, k, hl.StateMatrix(1.0, np.eye(2), np.zeros((2, 2))), 0.0)
    assert back.x == 0.0
    np.testing.assert_allclose(back.value, np.cos(k)[:, None, None] * np.eye(2), rtol=1e-14)
    np.testing.assert_allclose(back.deriv, (k * np.sin(k))[:, None, None] * np.eye(2), rtol=1e-14)


def _norm2_le_cases(rng, n):
    """Rank-1, random, and scaled unitary matrices: ||M||_2 equals ||M||_F
    for the first, and ||M||_F / sqrt(n) for the last.  Rounding puts the
    computed ||M||_F below the computed ||M||_2 for about a third of the
    rank-1 draws, so eight of them meet that case."""
    def cnormal(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)
    rank1 = [cnormal(n, 1) @ cnormal(1, n) for _ in range(8)]
    Q = np.linalg.qr(cnormal(n, n))[0]
    return [*rank1, cnormal(n, n), 3e-9 * cnormal(n, n), 0.7 * Q, np.zeros((n, n))]


@pytest.mark.parametrize("n", [1, 2, 8])
def test_norm2_le_decides_as_the_spectral_norm(rng, n):
    # At and around every threshold where the Frobenius bounds stop deciding,
    # the helper agrees with np.linalg.norm(M, 2) <= t, one matrix or a stack.
    for M in _norm2_le_cases(rng, n):
        norm2 = np.linalg.norm(M, 2)
        fro = np.linalg.norm(M)
        ts = [t * f for t in (norm2, fro, fro / np.sqrt(n), 1e-11, 1.0)
              for f in (1 - 1e-12, 1.0, 1 + 1e-12, 1 - 1e-9, 1 + 1e-9, 0.5, 2.0)]
        for t in ts:
            assert solver._norm2_le(M, t) is bool(norm2 <= t)
        got = solver._norm2_le(np.broadcast_to(M, (len(ts), n, n)), np.array(ts))
        assert got.tolist() == [bool(norm2 <= t) for t in ts]
    stack = np.array(_norm2_le_cases(rng, n)).reshape(12, 1, n, n)
    assert solver._norm2_le(stack, 1.0).shape == (12, 1)


def test_norm2_le_handles_non_finite_entries_as_the_svd_does():
    # NaN makes the SVD raise and inf makes it give NaN; entries whose
    # squares overflow still have a finite spectral norm.
    def outcome(fn, M, t):
        try:
            return np.asarray(fn(M, t)).tolist()
        except np.linalg.LinAlgError:
            return "raises"

    def reference(M, t):
        return np.linalg.norm(M, 2, axis=(-2, -1)) <= t

    for entry in (np.nan, np.inf, -np.inf, 1e200):
        M = np.array([[entry, 1.0], [0.0, 1.0]], dtype=complex)
        for arg in (M, M[None]):
            for t in (1e-8, 1e300):
                assert outcome(solver._norm2_le, arg, t) == outcome(reference, arg, t)


@pytest.mark.parametrize("x", [-1.0, np.nan, np.inf])
def test_state_matrix_lives_on_the_half_line(x):
    # NaN passed the old x < 0 test, and a walk from such a state had no end.
    with pytest.raises(ValidationError, match="not a point of the half line"):
        hl.StateMatrix(x, np.eye(2), np.zeros((2, 2)))
