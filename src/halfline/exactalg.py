"""Exact linear algebra over Gaussian rationals.

Complex numbers with Fraction real and imaginary parts form a field that
is closed under every operation the zero-energy pipeline needs: products,
inverses, reduced row echelon form, null spaces.  A matrix is a 2-D numpy
object array of :class:`QC` scalars, built by :func:`mat`; numpy's
operators (``@``, ``+``, ``-``, ``*`` with a QC on either side,
``np.array_equal``, ``.astype(complex)``) act on it entry by entry, and
this module adds only what numpy lacks for object arrays.  Sizes here are
tiny (n <= 8), so no attempt is made to be fast.

Floats are admitted only through :func:`snap`, which proposes a nearby
small-denominator rational; callers must verify exactness downstream
(e.g. a snapped eigenvalue candidate is only accepted if the shifted
matrix is exactly singular).
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import List, Sequence, Tuple

import numpy as np

__all__ = ["QC", "qc", "snap", "mat", "matmul", "rref", "rank", "nullspace", "inverse"]


def _coerced(op):
    """Binary operator on QC whose other operand goes through :func:`qc`;
    an operand qc cannot coerce gives NotImplemented, so Python offers the
    operation to that operand (an object array then acts entry by entry)."""

    @functools.wraps(op)
    def method(self, other):
        try:
            other = qc(other)
        except (TypeError, ValueError):
            return NotImplemented
        return op(self, other)

    return method


class QC:
    """A Gaussian rational re + im*i with exact Fraction components.

    ``+``, ``-``, ``*``, ``/`` and ``==`` coerce the other operand with
    :func:`qc` and return NotImplemented when it cannot be coerced, so
    ``QC(2) * arr`` on an object array works like ``arr * QC(2)``.  Floats
    are not coerced (they enter only through :func:`snap`): ``QC(1) == 1.0``
    is False and ``QC(1) + 1.0`` raises TypeError.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @_coerced
    def __add__(self, other):
        return QC(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return QC(-self.re, -self.im)

    @_coerced
    def __sub__(self, other):
        return QC(self.re - other.re, self.im - other.im)

    @_coerced
    def __rsub__(self, other):
        return other - self

    @_coerced
    def __mul__(self, other):
        return QC(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    @_coerced
    def __truediv__(self, other):
        den = other.re * other.re + other.im * other.im
        if den == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return QC(
            (self.re * other.re + self.im * other.im) / den,
            (self.im * other.re - self.re * other.im) / den,
        )

    @_coerced
    def __rtruediv__(self, other):
        return other / self

    def conjugate(self):
        return QC(self.re, -self.im)

    @_coerced
    def __eq__(self, other):
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"QC({self.re}, {self.im})"


def qc(x) -> QC:
    """Coerce ints, Fractions, 2-tuples, or exact complex values to QC."""
    if isinstance(x, QC):
        return x
    if isinstance(x, (int, Fraction)):
        return QC(x, 0)
    if isinstance(x, tuple) and len(x) == 2:
        return QC(Fraction(x[0]), Fraction(x[1]))
    if isinstance(x, complex):
        # Exact binary-float conversion; meant for values that are already
        # exact (integers, dyadic rationals).
        return QC(Fraction(x.real), Fraction(x.imag))
    raise TypeError(f"cannot coerce {type(x).__name__} to a Gaussian rational")


def snap(x: complex, max_denominator: int = 10**6) -> QC:
    """Nearest small-denominator Gaussian rational to a float candidate."""
    return QC(
        Fraction(float(x.real)).limit_denominator(max_denominator),
        Fraction(float(x.imag)).limit_denominator(max_denominator),
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
