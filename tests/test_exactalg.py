"""Gaussian-rational scalar and matrix arithmetic."""

import functools
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from halfline import exactalg as xa


# ---------------------------------------------------------------------------
# Reference scalars: a Gaussian rational as a pair of Fractions, the
# arithmetic the (a, b, d) integer triples must reproduce exactly.
# ---------------------------------------------------------------------------

def _ref_coerced(op):
    @functools.wraps(op)
    def method(self, other):
        try:
            other = ref_qc(other)
        except (TypeError, ValueError):
            return NotImplemented
        return op(self, other)

    return method


class RefQC:
    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @_ref_coerced
    def __add__(self, other):
        return RefQC(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return RefQC(-self.re, -self.im)

    @_ref_coerced
    def __sub__(self, other):
        return RefQC(self.re - other.re, self.im - other.im)

    @_ref_coerced
    def __rsub__(self, other):
        return other - self

    @_ref_coerced
    def __mul__(self, other):
        return RefQC(self.re * other.re - self.im * other.im,
                     self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    @_ref_coerced
    def __truediv__(self, other):
        den = other.re * other.re + other.im * other.im
        if den == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return RefQC((self.re * other.re + self.im * other.im) / den,
                     (self.im * other.re - self.re * other.im) / den)

    @_ref_coerced
    def __rtruediv__(self, other):
        return other / self

    def conjugate(self):
        return RefQC(self.re, -self.im)

    @_ref_coerced
    def __eq__(self, other):
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __complex__(self):
        return complex(float(self.re), float(self.im))


def ref_qc(x) -> RefQC:
    if isinstance(x, RefQC):
        return x
    if isinstance(x, (int, Fraction)):
        return RefQC(x, 0)
    if isinstance(x, tuple) and len(x) == 2:
        return RefQC(Fraction(x[0]), Fraction(x[1]))
    if isinstance(x, complex):
        return RefQC(Fraction(x.real), Fraction(x.imag))
    raise TypeError(f"cannot coerce {type(x).__name__} to a Gaussian rational")


def _bits(z: complex):
    return z.real.hex(), z.imag.hex()


def assert_matches_reference(got, ref):
    """``got`` is the canonical triple of the reference's value, and both
    round to the same complex bits."""
    assert type(got) is xa.QC and type(ref) is RefQC
    a, b, d = got._a, got._b, got._d
    assert all(type(v) is int for v in (a, b, d))
    assert d > 0 and math.gcd(a, b, d) == 1
    assert (got.re, got.im) == (ref.re, ref.im)
    assert _bits(complex(got)) == _bits(complex(ref))


def _draw_fraction(r: random.Random) -> Fraction:
    kind = r.randrange(4)
    if kind == 0:
        return Fraction(r.randint(-9, 9))
    if kind == 1:
        return Fraction(r.randint(-99, 99), r.randint(1, 99))
    if kind == 2:  # a snapped float: denominators up to 10**6
        return Fraction(r.uniform(-3, 3)).limit_denominator(10**6)
    return Fraction(r.randint(-10**12, 10**12), r.randint(1, 10**9))


def _draw_pair(r: random.Random):
    """(re, im) Fractions; a third of the draws are real and one in
    twelve is zero."""
    roll = r.randrange(12)
    if roll == 0:
        return Fraction(0), Fraction(0)
    re = _draw_fraction(r)
    return (re, Fraction(0)) if roll < 4 else (re, _draw_fraction(r))


def _draw_operand(r: random.Random, re, im):
    """The value (re, im) as a plain operand that qc coerces: an int, a
    Fraction, a 2-tuple or, when exactly representable, a complex."""
    kinds = ["tuple"]
    if im == 0:
        kinds.append("fraction")
        if re.denominator == 1:
            kinds.append("int")
    if all(float(v) == v for v in (re, im)):
        kinds.append("complex")
    kind = r.choice(kinds)
    if kind == "int":
        return int(re)
    if kind == "fraction":
        return re
    if kind == "complex":
        return complex(float(re), float(im))
    return (re, im)


def _scalar_draws(seed, count=120):
    r = random.Random(seed)
    draws = [_draw_pair(r) for _ in range(count)]
    # snap outputs straight from complex floats, denominators up to 10**6
    for _ in range(count // 4):
        z = complex(r.uniform(-2, 2), r.uniform(-2, 2))
        q = xa.snap(z)
        draws.append((q.re, q.im))
        assert max(q.re.denominator, q.im.denominator) <= 10**6
    # exact dyadic complex values, so complex operands occur often
    draws += [(Fraction(r.randint(-64, 64), 2 ** r.randint(0, 6)),
               Fraction(r.randint(-64, 64), 2 ** r.randint(0, 6))) for _ in range(count // 4)]
    return r, draws


_BINARY = {
    "add": lambda x, y: x + y,
    "sub": lambda x, y: x - y,
    "mul": lambda x, y: x * y,
    "div": lambda x, y: x / y,
}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_scalars_match_fraction_pair_reference(seed):
    r, draws = _scalar_draws(seed)
    for re, im in draws:
        q, ref = xa.QC(re, im), RefQC(re, im)
        assert_matches_reference(q, ref)
        assert_matches_reference(-q, -ref)
        assert_matches_reference(q.conjugate(), ref.conjugate())
        assert bool(q) == bool(ref)
        assert (q.re, q.im) == (re, im)
    for _ in range(1500):
        (re1, im1), (re2, im2) = r.choice(draws), r.choice(draws)
        x, y = xa.QC(re1, im1), xa.QC(re2, im2)
        rx, ry = RefQC(re1, im1), RefQC(re2, im2)
        plain = _draw_operand(r, re2, im2)
        for name, op in _BINARY.items():
            if name == "div" and not ry:
                for bad in (lambda: op(x, y), lambda: op(x, plain)):
                    with pytest.raises(ZeroDivisionError):
                        bad()
                continue
            want = op(rx, ry)
            assert_matches_reference(op(x, y), want)
            assert_matches_reference(op(x, plain), want)
        for name, op in _BINARY.items():  # reflected: the plain operand on the left
            if name == "div" and not rx:
                continue
            assert_matches_reference(op(plain, x), op(ref_qc(plain), rx))
        assert (x == y) == (rx == ry) == (x == xa.qc(plain))
        assert y == xa.qc(plain) and ry == plain
        if isinstance(plain, (int, Fraction)):
            assert (x == y) == (x == plain) == (plain == x)
            assert y == plain and plain == y
        else:  # == does not coerce 2-tuples and complex values
            assert not (x == plain or plain == x or y == plain or plain == y)
            assert x != plain and y != plain


def test_reference_refusals_still_hold():
    for one in (xa.QC(1), RefQC(1)):
        with pytest.raises(TypeError):
            one + 1.0
        assert (one == 1.0) is False
        with pytest.raises(ZeroDivisionError):
            one / type(one)(0)


def test_hash_agrees_with_equality():
    assert hash(xa.QC(1)) == hash(1) and xa.QC(1) == 1
    assert hash(xa.QC(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert hash(xa.QC(Fraction(-6, 4))) == hash(Fraction(-3, 2))
    assert hash(xa.QC(0)) == hash(0) == hash(-xa.QC(0))
    assert hash(xa.QC(Fraction(2, 4), 3)) == hash(xa.QC(Fraction(1, 2), Fraction(6, 2)))
    assert {xa.QC(1), 1, Fraction(1), xa.QC(Fraction(2, 2), 0)} == {1}
    assert {xa.QC(Fraction(1, 2)): "half"}[Fraction(1, 2)] == "half"
    _, draws = _scalar_draws(3, count=60)
    for re, im in draws:
        q = xa.QC(re, im)
        assert hash(q) == hash(xa.QC(Fraction(re), Fraction(im)) * 1)
        if im == 0:
            assert q == re and hash(q) == hash(re)


def test_equality_is_transitive_and_agrees_with_hash():
    # Only QC, int and Fraction compare equal to a QC, so values that are
    # equal hash alike and == is transitive.
    assert xa.QC(1, 2) != (1, 2) and xa.QC(1, 2) != complex(1, 2)
    assert (1, 2) not in {xa.QC(1, 2)} and complex(1, 2) not in {xa.QC(1, 2)}
    assert 1j not in {xa.QC(0, 1)} and xa.QC(0, 1) not in {1j}
    assert xa.QC(0, 1) in {xa.qc(1j)} and xa.QC(1, 2) == xa.qc((1, 2))
    _, draws = _scalar_draws(4, count=60)
    r = random.Random(5)
    values = []
    for re, im in draws:
        q = xa.QC(re, im)
        values += [q, xa.QC(re, im) * 1, _draw_operand(r, re, im), (re, im)]
    for x, y in itertools.product(values + [complex(v) for v in values[::4]], repeat=2):
        if x == y:
            assert y == x and hash(x) == hash(y), (x, y)
    # Complex values stay out of the chains: Python's own Fraction(1) == 1 + 0j
    # would link a real QC to a complex that no QC equals.
    for x, y, z in itertools.product(values[:60], repeat=3):
        if x == y and y == z:
            assert x == z, (x, y, z)


def _rand_matrix(r: random.Random, n: int, rank: int):
    """An n x n matrix of drawn Gaussian rationals of the given rank, as
    (re, im) pairs: rows past ``rank`` are combinations of the first."""
    rows = [[_draw_pair(r) for _ in range(n)] for _ in range(rank)]
    full = [[RefQC(*e) for e in row] for row in rows]
    for _ in range(n - rank):
        coef = [RefQC(*_draw_pair(r)) for _ in range(rank)]
        full.append([sum((c * row[j] for c, row in zip(coef, full[:rank])), RefQC(0))
                     for j in range(n)])
    order = list(range(n))
    r.shuffle(order)
    return [[(full[i][j].re, full[i][j].im) for j in range(n)] for i in order]


def _on_reference(monkeypatch, fn, pairs):
    """``fn`` run with the reference scalars in place of QC."""
    with monkeypatch.context() as m:
        m.setattr(xa, "QC", RefQC)
        m.setattr(xa, "qc", ref_qc)
        return fn([[RefQC(*e) for e in row] for row in pairs])


def assert_array_matches_reference(got, ref):
    assert got.shape == ref.shape
    for g, w in zip(got.ravel(), ref.ravel()):
        assert_matches_reference(xa.qc(g), ref_qc(w))


@pytest.mark.parametrize("seed,rank", [(0, 6), (1, 6), (2, 5), (3, 4), (4, 2)])
def test_matrix_algorithms_match_reference(monkeypatch, seed, rank):
    r = random.Random(100 + seed)
    pairs = _rand_matrix(r, 6, rank)
    M = xa.mat([[xa.QC(*e) for e in row] for row in pairs])
    red, pivots = xa.rref(M)
    ref_red, ref_pivots = _on_reference(monkeypatch, xa.rref, pairs)
    assert pivots == ref_pivots and len(pivots) == rank == xa.rank(M)
    assert_array_matches_reference(red, ref_red)
    basis = xa.nullspace(M)
    assert basis.shape == (6, 6 - rank)
    assert_array_matches_reference(basis, _on_reference(monkeypatch, xa.nullspace, pairs))
    assert not np.any(M @ basis)
    if rank == 6:
        inv = xa.inverse(M)
        assert_array_matches_reference(inv, _on_reference(monkeypatch, xa.inverse, pairs))
        assert np.array_equal(M @ inv, np.eye(6, dtype=object))
    else:
        with pytest.raises(ZeroDivisionError):
            xa.inverse(M)


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
    assert xa.QC(1) == 1 and xa.QC(0, 1) != 1j
    for op in (lambda q: q + 1.0, lambda q: 1.0 * q, lambda q: q / 2.0, lambda q: 2.0 - q):
        with pytest.raises(TypeError):
            op(xa.QC(1))
