"""Integrity of the bundled reference configurations."""

from fractions import Fraction

import numpy as np
import pytest

import halfline as hl
from halfline import exactalg as xa
from halfline.errors import ValidationError
from halfline.fixtures import FIXTURE_ALIASES, fixture_ids, get_fixture
from halfline.lowenergy import exact_free_pipeline


def test_all_fixture_pairs_are_valid_conditions():
    for fid in fixture_ids():
        fx = get_fixture(fid)
        assert hl.validate_ab(fx.A, fx.B).ok, fid


def test_aliases_resolve():
    for alias, fid in FIXTURE_ALIASES.items():
        assert get_fixture(alias).id == fid


def test_unknown_fixture_rejected():
    with pytest.raises(ValidationError):
        get_fixture("9.9")


def _jost(fx, kq):
    """J(k) = B - ikA, exactly: the fixtures have the zero potential."""
    return fx.B_exact - fx.A_exact * (xa.QC(0, 1) * kq)


def test_displays_match_closed_form_everywhere():
    # The stored display of J(k) must agree with B - ikA at random rational k.
    for fid in fixture_ids():
        fx = get_fixture(fid)
        for kq in (xa.QC(Fraction(3, 7)), xa.QC(0, Fraction(2, 5)), xa.QC(1, 1)):
            assert np.array_equal(fx.jost_display(kq), _jost(fx, kq)), (fid, kq)


def test_smatrix_displays_match_exact_inverse():
    for fid in fixture_ids():
        fx = get_fixture(fid)
        for kq in (xa.QC(1), xa.QC(Fraction(1, 3))):
            S = -(_jost(fx, -kq) @ xa.inverse(_jost(fx, kq)))  # S(k) = -J(-k) J(k)^(-1)
            assert np.array_equal(S, fx.smatrix_display(kq)), fid


def test_s0_is_small_k_limit_of_displayed_smatrix():
    # Oracle: the zero-energy value equals the limit of the displayed S(k).
    for fid in fixture_ids():
        fx = get_fixture(fid)
        Sk = fx.smatrix_display(xa.QC(Fraction(1, 10**6))).astype(complex)
        assert np.linalg.norm(Sk - fx.s0, 2) < 1e-5, fid


def test_kirchhoff_printed_variant_is_not_an_involution():
    fx = get_fixture("7.2")
    printed = fx.printed_s0.astype(complex)
    assert np.linalg.norm(printed @ printed - np.eye(3), 2) > 0.5
    assert np.linalg.norm(printed - printed.T, 2) > 0.5
    oracle = fx.s0
    assert np.linalg.norm(oracle @ oracle - np.eye(3), 2) < 1e-14
    assert np.linalg.norm(oracle - oracle.T, 2) < 1e-14


def test_kirchhoff_oracle_from_displayed_jost_by_direct_inversion():
    # Independent route: build S(k) = -J(-k) J(k)^(-1) from the displayed
    # J(k) with plain numpy and take k -> 0.
    fx = get_fixture("7.2")

    def J(k):
        return np.array([[-1, 0, -1j * k], [1, -1, -1j * k], [0, 1, -1j * k]])

    for k in (1e-2, 1e-4, 1e-6):
        S = -J(-k) @ np.linalg.inv(J(k))
        assert np.linalg.norm(S - fx.s0, 2) < 1e-12


def test_fixture_parameter_override():
    fx = get_fixture("7.1", a=Fraction(5))
    assert complex(fx.A_exact[0, 2]) == -5.0
    _, ex = exact_free_pipeline(fx.A_exact, fx.B_exact)
    # S(0) of this family does not depend on the parameter
    assert np.array_equal(ex.S0, fx.s0_exact)


def test_defective_kernel_block_data():
    fx = get_fixture("7.4", a=Fraction(3), b=Fraction(2), c=Fraction(7))
    _, ex = exact_free_pipeline(fx.A_exact, fx.B_exact)
    assert np.array_equal(ex.B1, xa.mat([[(0, -3)], [(0, -7)]]))
    assert np.array_equal(ex.S0, fx.s0_exact)
