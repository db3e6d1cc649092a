"""Exact linear algebra over Gaussian rationals.

A Gaussian rational is held as three Python ints ``(a, b, d)`` meaning
(a + b*i)/d, always in lowest terms: d > 0 and gcd(a, b, d) = 1, so zero is
(0, 0, 1) and every value has exactly one triple.  Each of ``+``, ``-``,
``*`` and ``/`` costs a few integer products and one three-argument
:func:`math.gcd`; ``==`` compares the triples.  The field is closed under
every operation the zero-energy pipeline needs: products, inverses, reduced
row echelon form, null spaces.  A matrix is a 2-D numpy object array of
:class:`QC` scalars, built by :func:`mat`; numpy's operators (``@``, ``+``,
``-``, ``*`` with a QC on either side, ``np.array_equal``,
``.astype(complex)``) act on it entry by entry, and this module adds only
what numpy lacks for object arrays.

Floats are admitted only through :func:`snap`, which proposes a nearby
small-denominator rational; callers must verify exactness downstream
(e.g. a snapped eigenvalue candidate is only accepted if the shifted
matrix is exactly singular).
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd, lcm
from typing import List, Sequence, Tuple

import numpy as np

__all__ = ["QC", "qc", "snap", "mat", "matmul", "rref", "rank", "nullspace", "inverse"]


def _coerced(op):
    """Binary operator on QC whose other operand goes through :func:`qc`
    unless it is a QC already; an operand qc cannot coerce gives
    NotImplemented, so Python offers the operation to that operand (an
    object array then acts entry by entry)."""

    @functools.wraps(op)
    def method(self, other):
        if type(other) is not QC:
            try:
                other = qc(other)
            except (TypeError, ValueError):
                return NotImplemented
        return op(self, other)

    return method


def _reduced(a: int, b: int, d: int) -> QC:
    """The QC (a + b*i)/d for d > 0, brought to lowest terms."""
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    return _triple(a, b, d)


def _triple(a: int, b: int, d: int) -> QC:
    """The QC (a + b*i)/d for a triple already in lowest terms."""
    q = object.__new__(QC)
    q._a = a
    q._b = b
    q._d = d
    return q


class QC:
    """A Gaussian rational (a + b*i)/d on plain ints, in lowest terms.

    ``QC(re, im)`` takes anything :class:`~fractions.Fraction` takes for
    each part; ``re`` and ``im`` read the parts back as Fractions.  ``+``,
    ``-``, ``*`` and ``/`` coerce the other operand with :func:`qc` and
    return NotImplemented when it cannot be coerced, so ``QC(2) * arr`` on
    an object array works like ``arr * QC(2)``.  ``==`` compares with QC,
    int and Fraction only, so it is transitive and agrees with the hash:
    ``QC(0, 1) == 1j`` and ``QC(1, 2) == (1, 2)`` are False.  Floats are not
    coerced (they enter only through :func:`snap`): ``QC(1) == 1.0`` is
    False and ``QC(1) + 1.0`` raises TypeError.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self._a, self._b, self._d = re, im, 1
            return
        re, im = Fraction(re), Fraction(im)
        d = lcm(re.denominator, im.denominator)
        # Both parts are in lowest terms, so over their least common
        # denominator the triple is too.
        self._a = re.numerator * (d // re.denominator)
        self._b = im.numerator * (d // im.denominator)
        self._d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    @_coerced
    def __add__(self, other):
        d, e = self._d, other._d
        if d == e:
            return _reduced(self._a + other._a, self._b + other._b, d)
        return _reduced(self._a * e + other._a * d, self._b * e + other._b * d, d * e)

    __radd__ = __add__

    def __neg__(self):
        return _triple(-self._a, -self._b, self._d)

    @_coerced
    def __sub__(self, other):
        d, e = self._d, other._d
        if d == e:
            return _reduced(self._a - other._a, self._b - other._b, d)
        return _reduced(self._a * e - other._a * d, self._b * e - other._b * d, d * e)

    @_coerced
    def __rsub__(self, other):
        return other - self

    @_coerced
    def __mul__(self, other):
        a, b, c, e = self._a, self._b, other._a, other._b
        return _reduced(a * c - b * e, a * e + b * c, self._d * other._d)

    __rmul__ = __mul__

    @_coerced
    def __truediv__(self, other):
        # x / y = x * conj(y) * d_y / (d_x * |d_y y|^2)
        a, b, c, e = self._a, self._b, other._a, other._b
        norm = c * c + e * e
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        f = other._d
        return _reduced((a * c + b * e) * f, (b * c - a * e) * f, self._d * norm)

    @_coerced
    def __rtruediv__(self, other):
        return other / self

    def conjugate(self):
        return _triple(self._a, -self._b, self._d)

    def __eq__(self, other):
        # Only QC, int and Fraction compare, so == is transitive and agrees
        # with __hash__; 2-tuples and complex values are unequal to every QC.
        if type(other) is not QC:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = qc(other)
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self):
        # A real value equals the int or Fraction of the same value, so it
        # hashes as that Fraction does.
        if self._b == 0:
            return hash(Fraction(self._a, self._d))
        return hash((self._a, self._b, self._d))

    def __bool__(self):
        return self._a != 0 or self._b != 0

    def __complex__(self):
        # int true division is correctly rounded, as Fraction.__float__ is.
        return complex(self._a / self._d, self._b / self._d)

    def __repr__(self):
        return f"QC({self.re}, {self.im})"


def qc(x) -> QC:
    """Coerce ints, Fractions, 2-tuples, or exact complex values to QC."""
    if isinstance(x, QC):
        return x
    if type(x) is int:
        return _triple(x, 0, 1)
    if isinstance(x, (int, Fraction)):
        return QC(x)
    if isinstance(x, tuple) and len(x) == 2:
        return QC(x[0], x[1])
    if isinstance(x, complex):
        # Exact binary-float conversion; meant for values that are already
        # exact (integers, dyadic rationals).
        return QC(x.real, x.imag)
    raise TypeError(f"cannot coerce {type(x).__name__} to a Gaussian rational")


def snap(x: complex) -> QC:
    """Nearest Gaussian rational with denominators up to 10^6 to a float
    candidate."""
    return QC(
        Fraction(float(x.real)).limit_denominator(10**6),
        Fraction(float(x.imag)).limit_denominator(10**6),
    )


def mat(rows: Sequence[Sequence]) -> np.ndarray:
    """Object array of :class:`QC` with the coerced entries of ``rows``;
    always 2-D, so ``mat([])`` has shape (0, 0)."""
    rows = [[qc(x) for x in row] for row in rows]
    out = np.empty((len(rows), len(rows[0]) if rows else 0), dtype=object)
    for i, row in enumerate(rows):
        out[i] = row
    return out


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The exact product ``a @ b``."""
    return a @ b


def rref(a) -> Tuple[np.ndarray, List[int]]:
    """Reduced row echelon form and pivot column indices."""
    m = mat(a)
    rows, cols = m.shape
    pivots: List[int] = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if m[i, c]), None)
        if pivot_row is None:
            continue
        m[[r, pivot_row]] = m[[pivot_row, r]]
        m[r] = m[r] * (QC(1) / m[r, c])
        for i in range(rows):
            if i != r and m[i, c]:
                m[i] = m[i] - m[r] * m[i, c]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(a) -> int:
    return len(rref(a)[1])


def nullspace(a) -> np.ndarray:
    """Kernel basis as the columns of an (n, d) array, one per free column
    of ``a``, in column order.

    The basis vector for free column j has a 1 in slot j and the negated
    reduced-row entries in the pivot slots, so the output is deterministic
    and pivot-ordered.
    """
    red, pivots = rref(a)
    free = [c for c in range(red.shape[1]) if c not in pivots]
    basis = mat(np.eye(red.shape[1], dtype=object)[:, free])
    for r, pc in enumerate(pivots):
        basis[pc] = -red[r, free]
    return basis


def inverse(a) -> np.ndarray:
    a = mat(a)
    n = len(a)
    if a.shape != (n, n):
        raise ValueError("inverse needs a square matrix")
    red, pivots = rref(np.hstack([a, np.eye(n, dtype=object)]))
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("matrix is singular over the Gaussian rationals")
    return red[:, n:]
