"""Jost matrix, scattering matrix, and the supporting identities."""

import functools
import warnings

import numpy as np
import pytest

import halfline as hl
from halfline.errors import HalflineError, NumericalError, ValidationError
from halfline.fixtures import get_fixture
from conftest import RK45_TIGHT, free_closed_forms, piece_edges, rand_bc, rand_potential, \
    rk45_jost_solution, rk45_regular_solution, scalar_jost_function, scalar_smatrix, scalar_well


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
    beta = hl.regular_solution(pot, bc, 0.0, pot.x_max).deriv  # route (iii)
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
        Jc, Sc = free_closed_forms(bc, k)
        assert np.linalg.norm(Jc - hl.jost_matrix(pot, bc, k).J, 2) < 1e-10
        assert np.linalg.norm(Sc - hl.smatrix(pot, bc, k).S, 2) < 1e-10
    Jc, _ = free_closed_forms(bc, 0.0)
    assert np.allclose(Jc, bc.B)


def test_free_closed_forms_xor_display():
    fx = get_fixture("7.3")  # a = 1
    k = 0.7
    J, _ = free_closed_forms(fx.bc(), k)
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


@pytest.mark.parametrize("mode", ["value", "derivative"])
def test_log_derivative_stack_equals_scalar_calls(rng, mode):
    # a inside the support, where every f(k, .) is walked down to a
    pot = rand_potential(rng, 2, 20, scale=0.3)
    lo, hi, _ = pot.pieces[7]
    a = lo + 0.4 * (hi - lo)
    ks = [1e-5, -1e-5, 0.7, 2.0 + 0.5j]
    stack = hl.log_derivative(pot, ks, a, mode)
    assert stack.shape == (4, 2, 2)
    for k, ld in zip(ks, stack):
        assert np.array_equal(ld, hl.log_derivative(pot, k, a, mode))


def test_log_derivative_stack_raises_for_the_first_singular_k(rng, monkeypatch):
    pot = rand_potential(rng, 2, 2, scale=0.3)
    monkeypatch.setattr(hl.scattering, "COND_CAP", 0.5)
    with pytest.raises(NumericalError) as scalar:
        hl.log_derivative(pot, 0.7, 0.3)
    with pytest.raises(NumericalError) as stacked:
        hl.log_derivative(pot, [0.7, 1e-5], 0.3)
    assert str(stacked.value) == str(scalar.value)


def _walks_of_three_k(rng):
    """Walks of f(k, .) for k in {0, -0.7, 0.3} and of phi(k, .) for k in
    {0, 0.7, 2 + 0.5i} across 20 pieces, held at 0, at every interface, at a
    point a inside a piece and at x1 beyond the support, with (pot, bc, a, x1)."""
    from halfline.solver import _Walks

    pot = rand_potential(rng, 2, 20, scale=0.3)
    bc = rand_bc(rng, 2)
    lo, hi, _ = pot.pieces[5]
    a, x1 = lo + 0.3 * (hi - lo), pot.x_max + 1.0
    walks = _Walks(pot, bc, [0.0, -0.7, 0.3], [0.0, 0.7, 2.0 + 0.5j],
                   points=(0.0, a, x1, *piece_edges(pot)))
    return walks, pot, bc, a, x1


def test_walks_read_what_direct_calls_give(rng, monkeypatch):
    # Held k and points are sliced from the two walks, bit for bit what the
    # direct calls give, and f beyond the support is its closed form.
    from halfline import solver

    walks, pot, bc, a, x1 = _walks_of_three_k(rng)
    direct = {walks.f: (hl.jost_solution, (0.0, -0.7, [0.0, -0.7], [0.3, -0.7, 0.3])),
              walks.phi: (lambda pot, k, x: hl.regular_solution(pot, bc, k, x),
                          (0.0, -0.0, 0.7, -0.7, [0.0, -0.7], [-2.0 - 0.5j, 0.7]))}
    for read, (call, ks) in direct.items():
        for k in ks:
            for x in (0.0, a, pot.pieces[3][1], pot.x_max, x1):
                got, ref = read(k, x), call(pot, k, x)
                assert got.x == ref.x
                assert got.value.tobytes() == ref.value.tobytes()  # signed zeros too
                assert got.deriv.tobytes() == ref.deriv.tobytes()
    # phi(0, .) at every interface and at a: slices of the forward walk,
    # read without a propagation of their own.
    held = sorted({a} | {b for p in pot.pieces for b in p[:2]})
    calls = []
    monkeypatch.setattr(solver, "propagate", lambda *args: calls.append(args))
    got = [walks.phi(0.0, x) for x in held]
    monkeypatch.undo()
    assert calls == []
    for x, st in zip(held, got):
        ref = hl.regular_solution(pot, bc, 0.0, x)
        assert st.x == x
        assert st.value.tobytes() == ref.value.tobytes()
        assert st.deriv.tobytes() == ref.deriv.tobytes()


def test_walks_refuse_a_k_or_point_they_do_not_hold(rng, monkeypatch):
    # A read the walks do not hold is a bug of its caller: it raises
    # KeyError and propagates nothing.  f(-0.0, .) is not f(0.0, .), 1.1 was
    # never walked, a + 0.01 is no stop, and phi ends at x1.
    from halfline import solver

    walks, pot, bc, a, x1 = _walks_of_three_k(rng)

    def forbidden(*args, **kwargs):
        raise AssertionError("a read propagated on its own")

    for name in ("propagate", "regular_solution"):
        monkeypatch.setattr(solver, name, forbidden)
    for read, k, x in ((walks.f, -0.0, 0.0), (walks.f, [0.3, 1.1], a), (walks.f, 0.0, a + 0.01),
                       (walks.phi, 1.1, 0.0), (walks.phi, [0.0, 1.1], a),
                       (walks.phi, 0.7, a + 0.01), (walks.phi, 0.7, x1 + 1.0)):
        with pytest.raises(KeyError, match="no walk holds"):
            read(k, x)
    assert walks.f(0.0, x1 + 1.0).x == x1 + 1.0  # f beyond the support: its closed form


def test_walks_read_slices_without_a_second_check(rng, monkeypatch):
    # A read of a held walk neither re-validates nor copies through
    # StateMatrix.__post_init__, yet comes out read-only; phi(-k, .) and
    # phi(-0.0, .) are rows of the phi(k, .) and phi(0.0, .) walk.
    from halfline import solver
    from halfline.solver import _Walks

    pot = rand_potential(rng, 2, 4, scale=0.3)
    bc = rand_bc(rng, 2)
    walks = _Walks(pot, bc, [0.0, 0.7], [0.0, 0.7, 1.1 + 0.2j],
                   points=(0.0, pot.x_max))
    checks = []
    post_init = solver.StateMatrix.__post_init__
    monkeypatch.setattr(solver.StateMatrix, "__post_init__",
                        lambda self: checks.append(self) or post_init(self))
    monkeypatch.setattr(solver, "propagate", None)  # any propagation fails
    reads = [walks.f(0.7, pot.x_max), walks.f([0.7, 0.0, 0.7], 0.0),
             walks.phi(-0.7, pot.x_max), walks.phi([-1.1 - 0.2j, -0.0, 0.7], 0.0)]
    monkeypatch.undo()
    assert checks == []
    for st in reads:
        assert not st.value.flags.writeable and not st.deriv.flags.writeable
    assert reads[1].value.shape == reads[3].value.shape == (3, 2, 2)
    for got, ref in ((reads[2], hl.regular_solution(pot, bc, -0.7, pot.x_max)),
                     (reads[3], hl.regular_solution(pot, bc, [-1.1 - 0.2j, -0.0, 0.7], 0.0))):
        assert got.value.tobytes() == ref.value.tobytes()
        assert got.deriv.tobytes() == ref.deriv.tobytes()


def test_smatrix_grid_propagates_phi_once_per_k_squared(rng, monkeypatch):
    # A 200-point grid pairs f(-k, .) for all 400 values of +-k with
    # phi(k, .), which is even in k: phi is walked for 200 of them.
    from halfline import solver

    pot = rand_potential(rng, 2, 20, scale=0.3)
    bc = rand_bc(rng, 2)
    grid = np.linspace(0.05, 10.0, 200)
    walk = solver._walk
    stacks = []

    def spy(pot_, ks, table, rows, x0, value, deriv, x1, keep):
        stacks.append((x0, x1, np.size(ks)))
        return walk(pot_, ks, table, rows, x0, value, deriv, x1, keep)

    monkeypatch.setattr(solver, "_walk", spy)
    rows = hl.smatrix_grid(pot, bc, grid)
    monkeypatch.undo()
    assert stacks == [(pot.x_max, 0.0, 400), (0.0, pot.x_max, 200)]
    _assert_same_row(rows[77], _ref_row(pot, bc, grid[77], None))


def test_smatrix_grid_computes_one_coefficient_per_k_squared_leg_and_eigenvalue(rng,
                                                                               monkeypatch):
    # f(k, .), f(-k, .) and phi(k, .) read one table: a 200-point grid on 20
    # pieces at n = 8 computes each (k^2, leg, eigenvalue) entry once,
    # 200 * (20 * 8 + 20 * 1) = 36,000 for the 20 pieces and the 20 gaps
    # before them (one per leg and walk row, as the f and phi walks did on
    # their own, would be 108,000).
    from halfline import solver

    pot = rand_potential(rng, 8, 20, scale=0.3)
    bc = rand_bc(rng, 8)
    units = pot._units
    assert len(units.end) == 20 and all(s < m for s, m in zip(units.start, units.mid))
    coefficients, entries = solver._coefficients, []

    def spy(w, k, h):
        out = coefficients(w, k, h)
        entries.append(out[0].size)
        return out

    monkeypatch.setattr(solver, "_coefficients", spy)
    rows = hl.smatrix_grid(pot, bc, np.linspace(0.05, 10.0, 200))
    monkeypatch.undo()
    assert sum(entries) == 36_000
    assert all("S" in row for row in rows)


def _near_cap(rng, n, cond):
    """A random complex n x n matrix with singular values 1, ..., 1, 1/cond."""
    def unitary():
        q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        return q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    s = np.ones(n)
    s[-1] = 1.0 / cond
    return unitary() @ np.diag(s) @ unitary()


@pytest.mark.parametrize("n", [1, 2, 8])
def test_condition_cap_refuses_as_np_linalg_cond(rng, n):
    # _smatrix_stack decides cond(J) > COND_CAP from ||J||_F ||J^-1||_F, which
    # lies in [cond, n cond], and takes np.linalg.cond only where that bound
    # does not clear the cap.  Refusals and their messages are those of
    # np.linalg.cond: on random matrices, on matrices within a part in 1e12
    # of the cap (and below it by less than the factor sqrt(n - 1) by which
    # their bound exceeds it), and with a singular one, for which inv raises.
    from halfline.scattering import _capped_cond, _cond_error

    cap = hl.scattering.COND_CAP
    stacks = [rng.normal(size=(30, n, n)) + 1j * rng.normal(size=(30, n, n))]
    if n > 1:
        near = [f * cap for f in (1 - 1e-12, 1.0, 1 + 1e-12, 0.999, 1.001, 0.5, 2.0, 1e-3)]
        stacks.append(np.array([_near_cap(rng, n, c) for c in near]))
        singular = np.ones((n, n)) + 0j
        stacks.append(np.concatenate([stacks[1], singular[None]]))
    stacks.append(np.zeros((2, n, n), dtype=complex))  # singular for every n
    refused = []
    for J in stacks:
        ks = np.linspace(0.5, 3.0, len(J))
        want = [str(_cond_error(k, c)) for k, c in zip(ks, np.linalg.cond(J)) if c > cap]
        got = [str(_cond_error(k, c)) for k, c in zip(ks, _capped_cond(J)) if c > cap]
        assert got == want
        refused.append(len(want))
    assert refused[0] == 0 and refused[-1] == 2
    if n > 1:  # 1.001 and 2 times the cap, and those within 1e-12 as roundoff has it
        assert refused[1] >= 2 and refused[2] == refused[1] + 1


def test_smatrix_stack_walks_each_distinct_k_once(rng, monkeypatch):
    # verify asks for S(k) and S(-k) on one list: J is paired at its 10 k
    # and their 10 negatives, but one pair of walks carries f(-k, .) once
    # for each of the 10 values of +-k and phi(k, .) once per k^2, and every
    # row equals its k evaluated alone.
    from halfline.verify import K_GRID

    pot = rand_potential(rng, 2, 20, scale=0.3)
    bc = rand_bc(rng, 2)
    pm = [s * k for k in K_GRID for s in (1.0, -1.0)]
    jost_stack, sizes, made = hl.scattering._jost_stack, [], []

    def spy(pot_, bc_, ks, *args, **kwargs):
        sizes.append(len(ks))
        return jost_stack(pot_, bc_, ks, *args, **kwargs)

    def walks(*args, **kwargs):
        made.append(hl.solver._Walks(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(hl.scattering, "_jost_stack", spy)
    monkeypatch.setattr(hl.scattering, "_Walks", walks)
    rows = hl.scattering._smatrix_stack(pot, bc, pm, pot.x_max)
    monkeypatch.undo()
    assert sizes == [20] and len(made) == 1
    assert [len(held[1]) for held in (made[0]._f, made[0]._phi)] == [10, 5]
    for k, row in zip(pm, rows):
        _assert_same_row(row, _ref_row(pot, bc, k, None))


def test_walks_keep_an_overflowing_walk():
    # Below the barrier top the width-20 barrier overflows one exact step:
    # the walks keep the k = 1 row, inf or NaN, a read at k = 1 raises as
    # the direct call does, and a read at k = 50 works, also at a side point.
    from halfline.solver import _Walks

    pot = hl.Potential(n=1, pieces=((0.0, 20.0, np.array([[2000.0]])),))
    bc = hl.neumann(1)
    walks = _Walks(pot, bc, [1.0, 50.0], [1.0, 50.0], points=(0.0, 10.0, 20.0))
    for read, direct, x in ((walks.f, hl.jost_solution, 0.0),
                            (walks.phi, lambda pot, k, x: hl.regular_solution(pot, bc, k, x), 20.0)):
        for call in (lambda k, x: read(k, x), lambda k, x: direct(pot, k, x)):
            with pytest.raises(NumericalError, match="overflows"):
                call(1.0, x)
        assert read(50.0, 10.0).x == 10.0
        held = read([1.0, 50.0], x, check=False)
        assert not np.isfinite(held.value[0]).all() and np.isfinite(held.value[1]).all()


def test_overflowing_grid_builds_one_pair_of_walks(monkeypatch):
    # A 200-point grid across the top of the width-20 barrier: the k where
    # one exact step overflows fail their rows alone, the others carry S,
    # every row equals its k evaluated on its own, and the grid builds one
    # pair of walks; nothing is redone one k at a time.
    from halfline import scattering

    pot = hl.Potential(n=1, pieces=((0.0, 20.0, np.array([[2000.0]])),))
    bc = hl.neumann(1)
    grid = np.linspace(1.0, 60.0, 200)
    walks, built = scattering._Walks, []
    monkeypatch.setattr(scattering, "_Walks", lambda *args, **kw: built.append(args) or walks(*args, **kw))
    rows = hl.smatrix_grid(pot, bc, grid)
    monkeypatch.undo()
    assert len(built) == 1
    failed = [row["k"] for row in rows if "error" in row]
    assert failed and failed == list(grid[:len(failed)]) and "S" in rows[-1]
    for k, row in zip(grid, rows):
        _assert_same_row(row, _ref_row(pot, bc, k, None))


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
    R = hl.zero_energy_pipeline(pot, bc, a).expansion.R
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
    F = scalar_jost_function(pot, theta, k)
    assert abs(F - (k - 1j / np.tan(theta))) < 1e-13
    assert abs(scalar_jost_function(pot, np.pi, k) - 1.0) < 1e-14
    # classical Dirichlet convention gives +1; Neumann gives +1 as well
    assert abs(scalar_smatrix(pot, np.pi, k) - 1.0) < 1e-14
    assert abs(scalar_smatrix(pot, np.pi / 2, k) - 1.0) < 1e-14


@pytest.mark.parametrize("theta", [np.pi / 5, np.pi / 2, 2.2, np.pi])
def test_scalar_functions_reduce_from_matrix_forms(theta):
    # J = i sin(theta) F for interior angles and J = -F at theta = pi;
    # the scattering coefficients agree except for the Dirichlet sign.
    pot = scalar_well(1.0)
    bc = hl.from_angles([theta])
    for k in (0.6, 1.7):
        J = hl.jost_matrix(pot, bc, k).J[0, 0]
        F = scalar_jost_function(pot, theta, k)
        if abs(theta - np.pi) < 1e-15:
            assert abs(J + F) < 1e-12
            assert abs(scalar_smatrix(pot, theta, k)
                       + hl.smatrix(pot, bc, k).S[0, 0]) < 1e-10
        else:
            assert abs(J - 1j * np.sin(theta) * F) < 1e-12
            assert abs(scalar_smatrix(pot, theta, k)
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


def _jost_ref(pot, bc, k, a, jost=hl.jost_solution, regular=hl.regular_solution):
    """J(k) from 2-D states, one k at a time, with the x = 0 cross-check:
    the reference for the stacked evaluator behind jost_matrix.  ``jost``
    and ``regular`` give f and phi; the default is the exact propagator."""
    k = complex(k)
    km = -k.conjugate()
    J = hl.wronskian(jost(pot, km, a), regular(pot, bc, k, a))
    F0 = jost(pot, km, 0.0)
    diff = np.linalg.norm(J - (F0.value.conj().T @ bc.B - F0.deriv.conj().T @ bc.A), 2)
    if diff > hl.scattering.CROSSCHECK_TOL * max(np.linalg.norm(J, 2), 1.0):
        raise hl.scattering._pairing_error(a, diff)
    return J


def _rk45_jost_ref(pot, bc, k, a):
    """_jost_ref with f and phi from the reference propagator (tests/conftest.py)."""
    return _jost_ref(pot, bc, k, a, functools.partial(rk45_jost_solution, **RK45_TIGHT),
                     functools.partial(rk45_regular_solution, **RK45_TIGHT))


def _ref_row(pot, bc, k, a):
    """One smatrix_grid row from _jost_ref: J(k), J(-k), cond cap, solve."""
    k = float(k)
    a = pot.x_max if a is None else a
    try:
        Jp, Jm = _jost_ref(pot, bc, k, a), _jost_ref(pot, bc, -k, a)
        cond = np.linalg.cond(Jp)
        if cond > hl.scattering.COND_CAP:
            raise hl.scattering._cond_error(k, cond)
    except HalflineError as exc:
        return {"k": k, "error": f"{type(exc).__name__}: {exc}"}
    S = np.linalg.solve(Jp.T, -Jm.T).T
    resid = float(np.linalg.norm(S.conj().T @ S - np.eye(bc.n), 2))
    return {"k": k, "S": S, "unitarity_residual": resid, "det_J_abs": float(abs(np.linalg.det(Jp)))}


def _loop_rows(pot, bc, a):
    return [_ref_row(pot, bc, k, a) for k in GRID]


def _assert_same_row(row, ref):
    assert row["k"] == ref["k"]
    if "error" in ref:
        assert row.get("error") == ref["error"]
        return
    assert "error" not in row
    assert np.array_equal(row["S"], ref["S"])
    assert row["unitarity_residual"] == ref["unitarity_residual"]
    assert row["det_J_abs"] == ref["det_J_abs"]


def _assert_same_rows(rows, refs):
    assert [row["k"] for row in rows] == list(GRID)
    for row, ref in zip(rows, refs):
        _assert_same_row(row, ref)


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
@pytest.mark.parametrize("inside", [False, True])
def test_jost_matrix_and_smatrix_equal_per_k_reference(rng, n, pieces, inside):
    pot = rand_potential(rng, n, pieces, scale=0.3)
    bc = rand_bc(rng, n)
    a = 0.5 * pot.x_max if inside else None
    for k in (0.7, 3.2, 2.0 + 0.5j, 1.5j):
        J = hl.jost_matrix(pot, bc, k, a).J
        assert np.array_equal(J, _jost_ref(pot, bc, k, pot.x_max if a is None else a))
    for k in (0.7, 3.2):
        ev, ref = hl.smatrix(pot, bc, k, a), _ref_row(pot, bc, k, a)
        assert np.array_equal(ev.S, ref["S"])
        assert ev.unitarity_residual == ref["unitarity_residual"]


def test_jost_matrix_rk45_equals_per_k_reference(rng):
    # J(k) agrees with J from the reference propagator, one k at a time.
    pot = rand_potential(rng, 2, 2, scale=0.3)
    bc = rand_bc(rng, 2)
    for k in (0.7, 1.0 + 0.5j):
        J = hl.jost_matrix(pot, bc, k).J
        assert np.linalg.norm(J - _rk45_jost_ref(pot, bc, k, pot.x_max), 2) < 1e-9


def test_zero_energy_probes_equal_per_k_reference(rng):
    pot = rand_potential(rng, 2, 20, scale=0.3)
    bc = rand_bc(rng, 2)
    res = hl.zero_energy_pipeline(pot, bc)
    S0 = res.s0.S
    expect = [(k, float(np.linalg.norm(_ref_row(pot, bc, k, None)["S"] - S0, 2)))
              for k in hl.lowenergy.DEFAULT_PROBES]
    assert list(res.continuity_probes) == expect


@pytest.mark.parametrize("probes,name,value", [
    ((0.1, 0.01), "CROSSCHECK_TOL", 1e-300),   # every probe fails: the first is raised
    ((0.1, 0.01), "COND_CAP", 0.5),
])
def test_zero_energy_probes_raise_first_error_in_order(rng, monkeypatch, probes, name, value):
    pot = rand_potential(rng, 2, 2, scale=0.3)
    bc = rand_bc(rng, 2)
    monkeypatch.setattr(hl.lowenergy, "DEFAULT_PROBES", probes)
    # J(0) is computed before the patch: its three routes share
    # CROSSCHECK_TOL, and the probes are what this test tightens.  So is R,
    # whose check of f(0, a) reads COND_CAP: at a = x_max, f(0, a) = I.
    J0 = hl.jost_matrix_zero(pot, bc)
    monkeypatch.setattr(hl.lowenergy, "_r_matrix",
                        lambda f0, phi: np.linalg.solve(f0.value, phi.value))
    monkeypatch.setattr(hl.scattering, name, value)
    ref = _ref_row(pot, bc, probes[0], None)["error"]
    with pytest.raises(NumericalError) as info:
        hl.zero_energy_pipeline(pot, bc, J0=J0)
    assert f"NumericalError: {info.value}" == ref


@pytest.mark.parametrize("n,pieces", [(1, 2), (2, 20)])
def test_verify_stacked_checks_equal_per_k_loops(rng, n, pieces):
    from halfline.config import JobConfig
    from halfline.verify import K_GRID, run_property_checks

    pot = rand_potential(rng, n, pieces, scale=0.3)
    bc = rand_bc(rng, n)
    a, eye = pot.x_max, np.eye(n)
    checks = run_property_checks(JobConfig(bc=bc, potential=pot))
    records = {r["name"]: r["residual"] for r in checks}
    self_p, cross_p, jl, uni, inv = [], [], [], [], []
    for k in K_GRID:
        f, fm = hl.jost_solution(pot, k, 0.0), hl.jost_solution(pot, -k, 0.0)
        self_p.append(np.linalg.norm(hl.wronskian(f, f) - 2j * k * eye, 2))
        cross_p.append(np.linalg.norm(hl.wronskian(fm, f), 2))
        J, L = _jost_ref(pot, bc, k, a), hl.l_matrix(pot, bc, k)
        jl.append(np.linalg.norm(J @ L.conj().T - L @ J.conj().T + 2j * k * eye, 2))
        Sp, Sm = _ref_row(pot, bc, k, a), _ref_row(pot, bc, -k, a)
        uni.append(Sp["unitarity_residual"])
        inv.append(np.linalg.norm(Sm["S"] @ Sp["S"] - eye, 2))
    split = []
    for k in (0.7, 2.3):
        T1, T2 = hl.jost_decomposition(pot, bc, k, a)
        split.append(np.linalg.norm(T1 + T2 - _jost_ref(pot, bc, k, a), 2))
    assert records["outgoing_self_pairing"] == max(self_p)
    assert records["outgoing_cross_pairing"] == max(cross_p)
    assert records["jl_pairing_constancy"] == max(jl)
    assert records["jost_split_consistency"] == max(split)
    assert records["smatrix_unitarity"] == max(uni)
    assert records["smatrix_inverse_symmetry"] == max(inv)


def _jost_50_digits(mp, pot, bc, k):
    """J(k) = f(-k*, 0)' B - f'(-k*, 0)' A with f(-k*, .) walked from its
    exp(-ik* x) data at the support edge back to 0 through mpmath.expm of
    each segment's generator [[0, I], [V - k*^2, 0]] h, at 50 digits."""
    n = pot.n
    with mp.workdps(50):
        kap = -mp.conj(mp.mpc(k))
        eye = mp.eye(n)
        ph = mp.exp(1j * kap * pot.x_max)
        Y = mp.matrix(2 * n, n)
        Y[:n, :] = ph * eye
        Y[n:, :] = 1j * kap * ph * eye
        x = pot.x_max
        for lo, hi, V in reversed(((0.0, 0.0, np.zeros((n, n))),) + pot.pieces):
            for x0, V0 in ((hi, np.zeros((n, n))), (lo, V)):  # the gap above, then the piece
                G = mp.matrix(2 * n, 2 * n)
                G[:n, n:] = eye
                G[n:, :n] = mp.matrix([[mp.mpc(complex(v)) for v in row] for row in V0]) \
                    - kap ** 2 * eye
                Y = mp.expm(-(x - x0) * G) * Y
                x = x0
        A = mp.matrix([[mp.mpc(complex(v)) for v in row] for row in bc.A])
        B = mp.matrix([[mp.mpc(complex(v)) for v in row] for row in bc.B])
        J = Y[:n, :].H * B - Y[n:, :].H * A
        return np.array([[complex(J[i, j]) for j in range(n)] for i in range(n)])


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("k", [0.3, 2.1, 0.5j])
def test_jost_matrix_matches_50_digit_reference(rng, n, k):
    mp = pytest.importorskip("mpmath")
    pot = rand_potential(rng, n, 2)
    bc = rand_bc(rng, n)
    ref = _jost_50_digits(mp, pot, bc, k)
    J = hl.jost_matrix(pot, bc, k).J
    assert np.linalg.norm(J - ref, 2) <= 1e-12 * np.linalg.norm(ref, 2)


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
    # Grid rows agree with S(k) = -J(-k) J(k)^(-1) built from reference J.
    pot = rand_potential(rng, 2)
    bc = rand_bc(rng, 2)
    for row, k in zip(hl.smatrix_grid(pot, bc, [0.7, 2.1]), (0.7, 2.1)):
        Jp, Jm = (_rk45_jost_ref(pot, bc, s * k, pot.x_max) for s in (1, -1))
        assert np.linalg.norm(row["S"] + Jm @ np.linalg.inv(Jp), 2) < 1e-8
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
    _assert_same_row(low, _ref_row(pot, bc, 1.0, None))
    _assert_same_row(high, _ref_row(pot, bc, 50.0, None))


def _kernel_calls(monkeypatch, fn):
    """Steps (solver._mix calls) and products (solver._rotate calls) the
    walk kernel makes while fn() runs: [outside the moment quadratures,
    inside them] of each."""
    from halfline import scattering, solver

    counts, inside = {"steps": [0, 0], "products": [0, 0]}, [0]
    mix, rotate, integrate = solver._mix, solver._rotate, solver._integrate_weighted

    def counted(name, fn):
        def call(*args):
            counts[name][inside[0]] += 1
            return fn(*args)
        return call

    def quadrature(*args):
        inside[0] = 1
        try:
            return integrate(*args)
        finally:
            inside[0] = 0

    with monkeypatch.context() as patch:
        patch.setattr(solver, "_mix", counted("steps", mix))
        patch.setattr(solver, "_rotate", counted("products", rotate))
        for module in (solver, scattering):
            patch.setattr(module, "_integrate_weighted", quadrature)
        fn()
    return counts


def test_step_counts_grow_linearly_with_pieces(rng, monkeypatch):
    # verify and the pipeline each walk f down and phi up once, each walk
    # over one stack of k, so the steps and products of the kernel double
    # with the pieces; a kernel that stepped a unit twice would exceed the
    # bounds.  The quadratures (route (ii) of J(0) and the tail moments)
    # sum in V's eigenbasis from the walked edge states and take no step or
    # product of their own.
    from halfline.config import JobConfig
    from halfline.verify import run_property_checks

    counts = {}
    for pieces in (20, 40):
        pot = rand_potential(rng, 2, pieces)
        bc = rand_bc(rng, 2)
        counts[pieces] = (
            _kernel_calls(monkeypatch,
                          lambda: run_property_checks(JobConfig(bc=bc, potential=pot))),
            _kernel_calls(monkeypatch, lambda: hl.zero_energy_pipeline(pot, bc)),
        )
    (verify20, pipe20), (verify40, pipe40) = counts[20], counts[40]
    # per walk: a block per piece, a step to each kept lower edge of phi,
    # two products per piece entered and per state handed out.  Both keep
    # phi at the lower edges (for route (ii)), only verify also keeps f at
    # the upper ones (for the tail moments): at 20 pieces 124 products of
    # the pipeline, 38 more of verify
    assert sum(verify20["steps"]) <= 65 and sum(pipe20["steps"]) <= 65
    assert sum(verify20["products"]) <= 175 and sum(pipe20["products"]) <= 130
    for name in ("steps", "products"):
        assert verify40[name][0] <= 2.05 * verify20[name][0]
        assert pipe40[name][0] <= 2.05 * pipe20[name][0]
        for verify, pipe in counts.values():
            assert verify[name][1] == pipe[name][1] == 0


@pytest.mark.parametrize("touching", [False, True])
def test_walk_kernel_makes_one_block_per_piece(rng, monkeypatch, touching):
    # A sweep's two walks, f(-k, .) down from x_max to 0 and phi(k, .) up to
    # a = x_max, each keeping its states at 0 and a: every piece is one
    # block step, a gap between two pieces (or before the first) takes no
    # step of its own, and each walk makes two products (value and
    # derivative rows) per piece it enters and per state it hands out (f
    # at 0, phi at x_max; each starts from a state it does not compute).
    pot = rand_potential(rng, 2, 20, gap=0.0 if touching else 0.2)
    bc = rand_bc(rng, 2)
    assert (pot.pieces[0][0] > 0.0) != touching
    counts = _kernel_calls(monkeypatch, lambda: hl.smatrix_grid(pot, bc, [0.5, 1.7]))
    assert counts["steps"] == [2 * 20, 0]
    assert counts["products"] == [2 * (2 * 20 + 2), 0]


def test_jost_matrix_zero_catches_one_perturbed_leg(rng, monkeypatch):
    # Routes (ii) and (iii) read phi(0, .) from one walk, route (i) f(0, 0)
    # from a walk of its own: a wrong block or interface product in either
    # is caught.  A block step or a product into a unit is perturbed where
    # the kernel makes it on a walk's way (the calls that write into the
    # walk's own arrays, ``out``; a state handed out is made apart), so
    # that every later state of its walk inherits the error.
    from halfline import solver

    pot = rand_potential(rng, 2, 20)
    bc = rand_bc(rng, 2)
    walk, runs, calls, target = solver._walk, [], [0], [None]

    def recorded(pot_, ks, table, rows, x0, value, deriv, x1, keep):
        runs.append((x0, x1))
        return walk(pot_, ks, table, rows, x0, value, deriv, x1, keep)

    def perturbed(name, fn):
        def call(*args):
            out = fn(*args)
            if len(args) == (5 if name == "_mix" else 3):  # on the walk's way
                calls[0] += 1
                if calls[0] == target[0]:
                    out = out * (1 + 1e-6) if name == "_rotate" else (out[0], out[1] * (1 + 1e-6))
            return out
        return call

    monkeypatch.setattr(solver, "_walk", recorded)
    for name, count in (("_mix", 40), ("_rotate", 80)):
        with monkeypatch.context() as patch:
            patch.setattr(solver, name, perturbed(name, getattr(solver, name)))
            calls[0], runs[:], target[0] = 0, [], None
            hl.jost_matrix_zero(pot, bc)
            assert sorted(runs) == [(0.0, pot.x_max), (pot.x_max, 0.0)]  # route (i) walks down
            assert calls[0] == count  # two walks across 20 pieces
            for i in [*range(0, count, 4), count - 1]:
                calls[0], target[0] = 0, i + 1
                with pytest.raises(NumericalError, match="zero-energy Jost cross-check"):
                    hl.jost_matrix_zero(pot, bc)


def test_jost_matrix_zero_takes_spectral_norms_only_when_frobenius_cannot_pass(rng, monkeypatch):
    # Route differences within tol pass on Frobenius norms alone; a larger
    # one takes the spectral norms and is decided against tol * max(||J||, 1)
    # as before, with the same error text.
    from halfline import scattering, solver

    pot = rand_potential(rng, 2, 20)
    bc = rand_bc(rng, 2)
    J = hl.wronskian(hl.jost_solution(pot, 0.0, 0.0), hl.StateMatrix(0.0, bc.A, bc.B))
    beta = hl.regular_solution(pot, bc, 0.0, pot.x_max).deriv
    scale = max(np.linalg.norm(J, 2), 1.0)
    tol = scattering.CROSSCHECK_TOL
    assert scale > 2  # so that a difference can lie between tol and tol * scale
    norm, integrate = np.linalg.norm, scattering._integrate_weighted
    spectral, shift = [], [0.0]

    def counted(x, ord=None, *args, **kwargs):
        spectral.append(ord == 2)
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted)
    monkeypatch.setattr(scattering, "_integrate_weighted",
                        lambda *a, **kw: [m + shift[0] * np.eye(2) for m in integrate(*a, **kw)])
    for shift[0], svds in ((0.0, 0), (tol * np.sqrt(scale), 3)):
        spectral.clear()
        assert np.array_equal(hl.jost_matrix_zero(pot, bc), J)
        assert sum(spectral) == svds
    shift[0] = 2 * tol * scale
    walks = solver._Walks(pot, bc, [], [0.0], points=piece_edges(pot))
    J_moment = bc.B + integrate(pot, 0.0, (lambda y: 1.0,),
                                lambda lo, hi: (lo, walks.edges("phi", 0.0, lo)))[0] \
        + shift[0] * np.eye(2)
    d1, d2 = norm(J - J_moment, 2), norm(J - beta, 2)
    text = (f"zero-energy Jost cross-check failed: moment diff {d1:.3e}, "
            f"fundamental-system diff {d2:.3e}")
    with pytest.raises(NumericalError) as info:
        hl.jost_matrix_zero(pot, bc)
    assert str(info.value) == text


def _contract_case():
    rng = np.random.default_rng(30)
    pot = rand_potential(rng, 2, 3)
    return pot, rand_bc(rng, 2)


def _z_of_k(pot, bc, a):
    from halfline.lowenergy import jordan_form, z_of_k

    return z_of_k(pot, bc, 0.1, a, jordan_form(hl.jost_matrix_zero(pot, bc)), np.eye(2), np.eye(2))


MATCHING_POINT_READERS = {
    "smatrix": lambda pot, bc, a: hl.smatrix(pot, bc, 1.0, a),
    "smatrix_grid": lambda pot, bc, a: hl.smatrix_grid(pot, bc, [1.0, 2.0], a),
    "jost_matrix": lambda pot, bc, a: hl.jost_matrix(pot, bc, 1.0, a),
    "p_matrix": lambda pot, bc, a: hl.p_matrix(pot, 1.0, a),
    "log_derivative": lambda pot, bc, a: hl.log_derivative(pot, 1.0, a),
    "jost_decomposition": lambda pot, bc, a: hl.jost_decomposition(pot, bc, 0.3, a),
    "moment_identities_residual": lambda pot, bc, a: hl.moment_identities_residual(pot, a),
    "zero_energy_pipeline": lambda pot, bc, a: hl.zero_energy_pipeline(pot, bc, a),
    "z_of_k": _z_of_k,
}


@pytest.mark.parametrize("a", [-1.0, np.nan, np.inf])
@pytest.mark.parametrize("reader", sorted(MATCHING_POINT_READERS))
def test_a_matching_point_off_the_half_line_is_refused(reader, a):
    # The walks refuse a read point outside [0, inf) before walking, so no
    # reader meets a KeyError for a point it never walked to.
    pot, bc = _contract_case()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="not a point of the half line"):
            MATCHING_POINT_READERS[reader](pot, bc, a)


@pytest.mark.parametrize("reader", ["jost_solution", "regular_solution", "propagate"])
def test_a_nan_read_point_is_refused(reader):
    pot, bc = _contract_case()
    call = {"jost_solution": lambda: hl.jost_solution(pot, 1.0, np.nan),
            "regular_solution": lambda: hl.regular_solution(pot, bc, 1.0, np.nan),
            "propagate": lambda: hl.propagate(pot, 1.0, hl.StateMatrix(0.0, bc.A, bc.B), np.nan)}
    with pytest.raises(ValidationError, match="x = nan is not a point of the half line"):
        call[reader]()


@pytest.mark.parametrize("k", [np.nan, np.inf])
@pytest.mark.parametrize("reader", ["jost_matrix", "smatrix", "smatrix_grid", "jost_solution"])
def test_a_k_that_is_not_finite_is_refused_without_warnings(reader, k):
    pot, bc = _contract_case()
    call = {"jost_matrix": lambda: hl.jost_matrix(pot, bc, k),
            "smatrix": lambda: hl.smatrix(pot, bc, k),
            "smatrix_grid": lambda: hl.smatrix_grid(pot, bc, [1.0, k]),
            "jost_solution": lambda: hl.jost_solution(pot, k, 0.3)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="k must be finite"):
            call[reader]()


@pytest.mark.parametrize("reader", ["l_matrix", "regular_solution", "zero_energy_pipeline"])
def test_a_size_mismatch_reads_the_same_from_every_reader(reader):
    pot, _ = _contract_case()
    bc = rand_bc(np.random.default_rng(31), 3)
    call = {"l_matrix": lambda: hl.l_matrix(pot, bc, 1.0),
            "regular_solution": lambda: hl.regular_solution(pot, bc, 1.0, 0.3),
            "zero_energy_pipeline": lambda: hl.zero_energy_pipeline(pot, bc)}
    with pytest.raises(ValidationError, match="^potential and boundary pair sizes differ$"):
        call[reader]()


def test_an_empty_grid_has_no_rows():
    assert hl.smatrix_grid(*_contract_case(), []) == []
