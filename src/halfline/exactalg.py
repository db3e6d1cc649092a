"""Exact linear algebra over Gaussian rationals.

Complex numbers with Fraction real and imaginary parts form a field that
is closed under every operation the zero-energy pipeline needs: products,
inverses, reduced row echelon form, null spaces.  Matrices are plain
nested lists of :class:`QC` scalars; sizes here are tiny (n <= 8), so no
attempt is made to be fast.

Floats are admitted only through :func:`snap`, which proposes a nearby
small-denominator rational; callers must verify exactness downstream
(e.g. a snapped eigenvalue candidate is only accepted if the shifted
matrix is exactly singular).
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple

__all__ = [
    "QC",
    "qc",
    "snap",
    "mat",
    "identity",
    "zeros",
    "matmul",
    "madd",
    "msub",
    "scalar_mul",
    "rref",
    "rank",
    "nullspace",
    "inverse",
    "mat_to_complex",
    "mat_equal",
]


class QC:
    """A Gaussian rational re + im*i with exact Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, other):
        other = qc(other)
        return QC(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return QC(-self.re, -self.im)

    def __sub__(self, other):
        other = qc(other)
        return QC(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return qc(other) - self

    def __mul__(self, other):
        other = qc(other)
        return QC(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = qc(other)
        den = other.re * other.re + other.im * other.im
        if den == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return QC(
            (self.re * other.re + self.im * other.im) / den,
            (self.im * other.re - self.re * other.im) / den,
        )

    def __rtruediv__(self, other):
        return qc(other) / self

    def conjugate(self):
        return QC(self.re, -self.im)

    def __eq__(self, other):
        try:
            other = qc(other)
        except (TypeError, ValueError):
            return NotImplemented
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


Matrix = List[List[QC]]


def mat(rows: Sequence[Sequence]) -> Matrix:
    return [[qc(x) for x in row] for row in rows]


def identity(n: int) -> Matrix:
    return [[QC(1 if i == j else 0) for j in range(n)] for i in range(n)]


def zeros(r: int, c: int) -> Matrix:
    return [[QC(0) for _ in range(c)] for _ in range(r)]


def matmul(a: Matrix, b: Matrix) -> Matrix:
    ra, ca = len(a), len(a[0]) if a else 0
    rb, cb = len(b), len(b[0]) if b else 0
    if ca != rb:
        raise ValueError(f"shape mismatch: {ra}x{ca} times {rb}x{cb}")
    out = zeros(ra, cb)
    for i in range(ra):
        for j in range(cb):
            s = QC(0)
            for t in range(ca):
                s = s + a[i][t] * b[t][j]
            out[i][j] = s
    return out


def madd(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def msub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def scalar_mul(c, a: Matrix) -> Matrix:
    c = qc(c)
    return [[c * x for x in row] for row in a]


def rref(a: Matrix) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form and pivot column indices."""
    m = [row[:] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: List[int] = []
    r = 0
    for c in range(cols):
        pivot_row = None
        for i in range(r, rows):
            if m[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = QC(1) / m[r][c]
        m[r] = [inv * x for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(a: Matrix) -> int:
    return len(rref(a)[1])


def nullspace(a: Matrix) -> List[List[QC]]:
    """Basis of the kernel, one vector per free column, in column order.

    The basis vector for free column j has a 1 in slot j and the negated
    reduced-row entries in the pivot slots, so the output is deterministic
    and pivot-ordered.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    red, pivots = rref(a)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [QC(0) for _ in range(cols)]
        v[fc] = QC(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def inverse(a: Matrix) -> Matrix:
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("inverse needs a square matrix")
    aug = [row[:] + ident_row for row, ident_row in zip(a, identity(n))]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("matrix is singular over the Gaussian rationals")
    return [row[n:] for row in red]


def mat_to_complex(a: Matrix):
    import numpy as np

    rows = [[complex(x) for x in row] for row in a]
    return np.array(rows, dtype=complex).reshape(len(rows), len(rows[0]) if rows else 0)


def mat_equal(a: Matrix, b: Matrix) -> bool:
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        if len(ra) != len(rb):
            return False
        for x, y in zip(ra, rb):
            if x != qc(y):
                return False
    return True
