"""``verify`` and the numeric zero-energy pipeline against references that
give every check its own propagations.

``_reference_checks`` is ``run_property_checks`` as it stood before the
checks read their solutions from two shared walks: each check walks what it
needs itself.  ``_reference_pipeline`` is the numeric branch of
``zero_energy_pipeline`` as it stood then.  A slice of a shared walk is bit
for bit the state a check's own propagation gives, and a read of a row that
overflowed raises the error that propagation raises, so records, S(0) and
the probes must be equal, failures and their texts included.
"""

import functools
import json

import numpy as np
import pytest

import halfline as hl
from halfline.config import JobConfig
from halfline.errors import HalflineError
from halfline.lowenergy import DEFAULT_PROBES, _assemble, _checked_inverse, jordan_form
from halfline.scattering import _first_error, _jost_stack, _l_matrix, _norm2, _r_matrix, \
    _smatrix_stack
from halfline.verify import K_GRID, _failure, _record, run_property_checks
from conftest import rand_bc, rand_potential


def _reference_pipeline(pot, bc, a, probes=DEFAULT_PROBES):
    """(S0, involution and unitarity residuals, probes), each solution
    propagated on its own; ``a = None`` is x_max."""
    a = pot.x_max if a is None else a
    n = bc.n
    J0 = hl.jost_matrix_zero(pot, bc)
    jd = jordan_form(J0)
    R = _r_matrix(hl.jost_solution(pot, 0.0, a), hl.regular_solution(pot, bc, 0.0, a))
    S0 = _assemble(jd.Smat, jd.Sinv, jd.chains, R, np.eye(n), _checked_inverse).S0
    inv_resid = float(np.linalg.norm(S0 @ S0 - np.eye(n), 2))
    uni_resid = float(np.linalg.norm(S0.conj().T @ S0 - np.eye(n), 2))
    rows = _first_error(_smatrix_stack(pot, bc, [float(kp) for kp in probes], a))
    return S0, inv_resid, uni_resid, [(r["k"], float(np.linalg.norm(r["S"] - S0, 2)))
                                      for r in rows]


def _reference_checks(job: JobConfig):
    pot, bc = job.potential, job.bc
    n = bc.n
    a = pot.x_max if job.a is None else job.a
    eye = np.eye(n)
    ks = np.array(K_GRID)
    checks = []

    def guarded(name, fn):
        try:
            out = fn()
        except HalflineError as exc:
            out = _failure(name, exc)
        checks.extend(out if isinstance(out, list) else [out])

    def wronskian_constancy():
        st = _jost_stack(pot, bc, [1.3], max(pot.x_max, 1.0))
        _first_error(st.errors)
        return _record("wronskian_constancy", np.linalg.norm(st.J0[0] - st.J[0], 2), 1e-8)

    @functools.cache
    def outgoing():
        return hl.jost_solution(pot, ks, 0.0), hl.jost_solution(pot, -ks, 0.0)

    def outgoing_self_pairing():
        f, _ = outgoing()
        worst = _norm2(hl.wronskian(f, f) - 2j * ks[:, None, None] * eye).max()
        return _record("outgoing_self_pairing", worst, 1e-8)

    def outgoing_cross_pairing():
        fp, fm = outgoing()
        return _record("outgoing_cross_pairing", _norm2(hl.wronskian(fm, fp)).max(), 1e-8)

    def jl_constancy():
        worst = 0.0
        Js, errors, _, F0 = _jost_stack(pot, bc, K_GRID, a)
        _first_error(errors)
        for k, J, L in zip(K_GRID, Js, _l_matrix(bc, F0)):
            worst = max(worst, np.linalg.norm(J @ L.conj().T - L @ J.conj().T + 2j * k * eye, 2))
        return _record("jl_pairing_constancy", worst, 1e-8)

    def tail_moments():
        r1, r2 = hl.moment_identities_residual(pot, 0.0)
        return [_record("tail_moment_zeroth", r1, 1e-6),
                _record("tail_moment_first", r2, 1e-6)]

    def p_ratio_decay():
        a_p = 0.0 if pot.x_max > 0 else a
        P_hi, P_lo = hl.p_matrix(pot, [1e-1, 1e-3], a_p)
        r_hi = np.linalg.norm(P_hi / 1e-1j - eye, 2)
        r_lo = np.linalg.norm(P_lo / 1e-3j - eye, 2)
        if r_hi < 1e-12:
            return _record("p_ratio_decay", 0.0, 0.2)
        return _record("p_ratio_decay", r_lo / r_hi, 0.2)

    def logderiv_slope():
        h = 1e-5
        slope = (hl.log_derivative(pot, h, a, "value")
                 - hl.log_derivative(pot, -h, a, "value")) / (2 * h)
        f0inv = np.linalg.inv(hl.jost_solution(pot, 0.0, a).value)
        expect = 1j * f0inv.conj().T @ f0inv
        rel = np.linalg.norm(slope - expect, 2) / max(np.linalg.norm(expect, 2), 1e-300)
        return _record("logderiv_slope", rel, 1e-4)

    def jost_split():
        worst = 0.0
        split_ks = (0.7, 2.3)
        Js, errors, *_ = _jost_stack(pot, bc, split_ks, a)
        _first_error(errors)
        for J, T1, T2 in zip(Js, *hl.jost_decomposition(pot, bc, split_ks, a)):
            worst = max(worst, np.linalg.norm(T1 + T2 - J, 2))
        return _record("jost_split_consistency", worst, 1e-8)

    def zero_jost_crosscheck():
        J0 = hl.jost_matrix_zero(pot, bc)
        beta = hl.regular_solution(pot, bc, 0.0, pot.x_max).deriv
        return _record("zero_energy_jost_crosscheck", np.linalg.norm(J0 - beta, 2), 1e-8)

    def smatrix_properties():
        worst_u = worst_inv = 0.0
        pm = [s * k for k in K_GRID for s in (1.0, -1.0)]
        rows = _first_error(_smatrix_stack(pot, bc, pm, a))
        for Sp, Sm in zip(rows[::2], rows[1::2]):
            worst_u = max(worst_u, Sp["unitarity_residual"])
            worst_inv = max(worst_inv, np.linalg.norm(Sm["S"] @ Sp["S"] - eye, 2))
        return [_record("smatrix_unitarity", worst_u, 1e-7),
                _record("smatrix_inverse_symmetry", worst_inv, 1e-8)]

    def zero_energy_behavior():
        _, inv_resid, uni_resid, probes = _reference_pipeline(pot, bc, a)
        dists = [d for _, d in probes]
        monotone = all(x > y for x, y in zip(dists, dists[1:])) or dists[-1] < 1e-9
        return [
            _record("s0_involution", inv_resid, 1e-9),
            _record("s0_unitarity", uni_resid, 1e-7),
            _record("s0_continuity", dists[-1], 1e-2, ok=(dists[-1] < 1e-2 and monotone)),
        ]

    guarded("wronskian_constancy", wronskian_constancy)
    guarded("outgoing_self_pairing", outgoing_self_pairing)
    guarded("outgoing_cross_pairing", outgoing_cross_pairing)
    guarded("jl_pairing_constancy", jl_constancy)
    guarded("tail_moments", tail_moments)
    guarded("p_ratio_decay", p_ratio_decay)
    guarded("logderiv_slope", logderiv_slope)
    guarded("jost_split_consistency", jost_split)
    guarded("zero_energy_jost_crosscheck", zero_jost_crosscheck)
    guarded("smatrix_properties", smatrix_properties)
    guarded("zero_energy_behavior", zero_energy_behavior)
    return checks


def _config(rng, n, pieces, where):
    """A random configuration; ``where`` places a and the support: "auto"
    (a = x_max), "inside" (a inside a piece), "short" (x_max < 1, so the
    Wronskian's x1 = 1 lies beyond a = x_max), "far" (a beyond x1)."""
    pot = rand_potential(rng, n, pieces, scale=0.3)
    if where == "short":
        squeeze = 0.6 / pot.x_max
        pot = hl.Potential(n=n, pieces=tuple((lo * squeeze, hi * squeeze, V)
                                             for lo, hi, V in pot.pieces))
    lo, hi, _ = pot.pieces[len(pot.pieces) // 2]
    a = {"inside": lo + 0.37 * (hi - lo), "far": pot.x_max + 3.0}.get(where)
    return JobConfig(bc=rand_bc(rng, n), potential=pot, a=a)


def _s0_and_probes(pot, bc, a):
    """zero_energy_pipeline's S0, residuals and probes, or its error text."""
    try:
        res = hl.zero_energy_pipeline(pot, bc, a, "numeric")
    except HalflineError as exc:
        return f"{type(exc).__name__}: {exc}"
    return res.s0.S, res.involution_residual, res.s0.unitarity_residual, \
        list(res.continuity_probes)


def _reference_s0_and_probes(pot, bc, a):
    try:
        return _reference_pipeline(pot, bc, a)
    except HalflineError as exc:
        return f"{type(exc).__name__}: {exc}"


def _assert_same_pipeline(got, ref):
    if isinstance(ref, str):
        assert got == ref
        return
    assert np.array_equal(got[0], ref[0])
    assert got[1:] == ref[1:]


@pytest.mark.parametrize("where", ["auto", "inside", "short", "far"])
@pytest.mark.parametrize("n,pieces", [(1, 2), (1, 20), (2, 2), (2, 20), (8, 2), (8, 20)])
def test_verify_records_equal_reference(rng, n, pieces, where):
    job = _config(rng, n, pieces, where)
    assert json.dumps(run_property_checks(job)) == json.dumps(_reference_checks(job))
    pot, bc, a = job.potential, job.bc, job.a
    _assert_same_pipeline(_s0_and_probes(pot, bc, a), _reference_s0_and_probes(pot, bc, a))


@pytest.mark.parametrize("a", ["auto", 40.0])
def test_verify_overflowing_walk_fails_as_the_reference(a):
    a = None if a == "auto" else a
    # V = 25 on [0, 150]: the k = 0 walk grows like exp(750) and overflows,
    # so do k = 0.3 and 0.9; k = 3.1 and 4.9 do not.  The shared walks keep
    # those rows inf or NaN, and every check fails or passes as on its own
    # walks.
    pot = hl.Potential(n=1, pieces=((0.0, 150.0, np.array([[25.0]])),))
    bc = hl.from_angles([2.0])
    job = JobConfig(bc=bc, potential=pot, a=a)
    records = run_property_checks(job)
    assert json.dumps(records) == json.dumps(_reference_checks(job))
    errors = [r["error"] for r in records if "error" in r]
    assert errors and all(e.startswith("NumericalError: solution overflows") for e in errors)
    _assert_same_pipeline(_s0_and_probes(pot, bc, a), _reference_s0_and_probes(pot, bc, a))


@pytest.mark.parametrize("where", ["auto", "inside", "short", "far"])
@pytest.mark.parametrize("n", [1, 2, 8])
def test_every_propagation_is_a_walk_leg(rng, monkeypatch, n, where):
    # verify and the pipeline read every k and point from their two walks,
    # which step with the walk kernel alone: nothing calls propagate, and a
    # k or a point missing from the walks' lists would raise KeyError.
    from halfline import solver

    job = _config(rng, n, 20, where)
    propagate, calls = solver.propagate, []

    def traced(pot, k, state, x, *args):
        calls.append((np.asarray(k).tolist(), state.x, x))
        return propagate(pot, k, state, x, *args)

    monkeypatch.setattr(solver, "propagate", traced)
    run_property_checks(job)
    hl.zero_energy_pipeline(job.potential, job.bc, job.a, "numeric")
    assert calls == []


def test_verify_computes_j0_once(rng, monkeypatch):
    # The zero-energy cross-check and the pipeline share one J(0).
    import halfline.lowenergy
    import halfline.verify

    calls = []
    real = halfline.verify.jost_matrix_zero

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(halfline.verify, "jost_matrix_zero", counted)
    monkeypatch.setattr(halfline.lowenergy, "jost_matrix_zero", counted)
    records = run_property_checks(_config(rng, 2, 20, "auto"))
    assert {r["name"] for r in records} >= {"zero_energy_jost_crosscheck", "s0_involution"}
    assert len(calls) == 1
