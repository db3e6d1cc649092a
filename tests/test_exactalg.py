"""Gaussian-rational scalar and matrix arithmetic."""

from fractions import Fraction

import numpy as np
import pytest

from halfline import exactalg as xa


def test_scalar_field_operations():
    a = xa.QC(1, 2)
    b = xa.QC(Fraction(1, 3), -1)
    assert a + b == xa.QC(Fraction(4, 3), 1)
    assert a * b == xa.QC(Fraction(1, 3) + 2, Fraction(2, 3) - 1)
    assert (a / b) * b == a
    assert a - a == xa.QC(0)
    assert not xa.QC(0)
    assert a.conjugate() == xa.QC(1, -2)


def test_scalar_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        xa.QC(1) / xa.QC(0)


def test_snap_recovers_small_rationals():
    assert xa.snap(complex(1 / 3, -0.25)) == xa.QC(Fraction(1, 3), Fraction(-1, 4))
    assert xa.snap(complex(0.9999999999999997, 0)) == xa.QC(1)


def test_rref_rank_nullspace():
    M = xa.mat([[0, 0, -1], [0, 0, -1], [0, 0, -1]])
    assert xa.rank(M) == 1
    basis = xa.nullspace(M)
    assert basis.shape == (3, 2)
    # pivot-ordered columns: e1 then e2
    assert np.array_equal(basis, xa.mat([[1, 0], [0, 1], [0, 0]]))
    assert np.array_equal(M @ basis, xa.mat([[0, 0], [0, 0], [0, 0]]))


def test_nullspace_of_identity_is_empty():
    assert xa.nullspace(np.eye(3, dtype=object)).shape == (3, 0)


def test_inverse_round_trip():
    M = xa.mat([[1, 2, 0], [(0, 1), 1, 1], [0, 3, -1]])
    Minv = xa.inverse(M)
    assert np.array_equal(xa.matmul(M, Minv), np.eye(3, dtype=object))
    assert np.array_equal(xa.matmul(Minv, M), np.eye(3, dtype=object))


def test_inverse_rejects_singular():
    with pytest.raises(ZeroDivisionError):
        xa.inverse(xa.mat([[1, 1], [1, 1]]))


def test_matmul_matches_numpy(rng):
    A = xa.mat([[xa.QC(int(x), int(y)) for x, y in zip(rx, ry)]
                for rx, ry in zip(rng.integers(-4, 5, (3, 3)), rng.integers(-4, 5, (3, 3)))])
    B = xa.mat([[xa.QC(int(x), int(y)) for x, y in zip(rx, ry)]
                for rx, ry in zip(rng.integers(-4, 5, (3, 3)), rng.integers(-4, 5, (3, 3)))])
    C = xa.matmul(A, B)
    assert np.allclose(C.astype(complex), A.astype(complex) @ B.astype(complex))


@pytest.mark.parametrize("rows,shape", [([], (0, 0)), ([[], []], (2, 0)),
                                        ([[xa.QC(1, 2)]], (1, 1))])
def test_mat_to_complex_is_always_two_dimensional(rows, shape):
    # The exact matrix and its complex view keep the 2-D shape of the rows.
    M = xa.mat(rows)
    assert M.shape == shape and M.dtype == object
    assert M.astype(complex).shape == shape


def test_scalar_operators_defer_to_object_arrays():
    arr = xa.mat([[1, (0, 1)], [Fraction(1, 2), -3]])
    two = xa.QC(2)
    assert np.array_equal(two * arr, arr * two)
    assert np.array_equal(two + arr, arr + two)
    assert np.array_equal(two - arr, -(arr - two))
    assert np.array_equal(two / arr, xa.mat([[2, (0, -2)], [4, Fraction(-2, 3)]]))


def test_floats_are_not_coerced():
    assert not xa.QC(1) == 1.0
    assert xa.QC(1) != 1.0
    assert xa.QC(1) == 1 and xa.QC(0, 1) == 1j
    for op in (lambda q: q + 1.0, lambda q: 1.0 * q, lambda q: q / 2.0, lambda q: 2.0 - q):
        with pytest.raises(TypeError):
            op(xa.QC(1))
