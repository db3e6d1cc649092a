"""Matrix solutions of -psi'' + V(x) psi = k^2 psi on the half line.

Potentials are compactly supported, piecewise-constant Hermitian n x n
matrices.  That restriction makes every asymptotic normalization exact at
the support edge x_max:

* outgoing solution  f(k, x) = exp(ikx) I  for x >= x_max, so f is obtained
  by propagating that data backward from x_max;
* the regular solution phi(k, .) starts from the k-independent boundary
  pair (A, B) at x = 0.

Within one piece V is a constant Hermitian matrix, so the exact propagator
over a step h is available from the eigendecomposition V = Q diag(w) Q':
with omega_j = sqrt(k^2 - w_j),

    psi(x+h)  = Q diag(cos(omega h)) Q' psi(x)
              + Q diag(sin(omega h)/omega) Q' psi'(x),
    psi'(x+h) = Q diag(-(omega^2) sin(omega h)/omega) Q' psi(x)
              + Q diag(cos(omega h)) Q' psi'(x).

Both entries are even entire functions of omega, so the branch of the
square root is irrelevant; sin(z)/z is evaluated by series for small |z|.
This stepping is exact up to roundoff, and it goes piece by piece, so
interfaces are always hit exactly.  It is the only propagator: no function
here takes a method, a tolerance or a step size.

All functions are pure and start no threads of their own (BLAS may split a
large product over threads).  One propagation may carry a stack of k: a
walk holds it transposed, as rows psi^T, in the eigenbasis of the piece it
is in, so every product is one 2-D product of all K n rows with a fixed
n x n factor, and a stacked row keeps the bits of its scalar call.

The pieces of a Potential are disjoint (it clips overlaps shorter than
1e-15), and unit u of the support is piece u with the free gap before it
(empty where pieces touch).  One kernel (``_walk``) steps every
walk: it enters a unit by one product per value and derivative rows, with
QT_i conj(Q_j) from the piece before (both directions computed once per
Potential), crosses a unit whole by one 2 x 2 block per eigenvalue into
which the free step of its gap is composed (a free step is a scalar per k,
so it commutes with any rotation), and rotates rows out only where it hands
a state out.  A kept point inside a unit is carried to from the unit's
entry, so a state has the bits of a direct propagation to its point.
``_Table`` computes the blocks once per distinct k^2, vectorised over runs
of units, shared by f(k), f(-k) and phi(k).  Nothing is checked while
walking: an overflowed solution stays inf or NaN.  ``_Walks`` crosses the
support once per solution family over a stack of k, keeps the states at
the points it is given and no others, and checks what it hands out: it is
the only reader of f and phi, and the one place that refuses a bad size,
k or point.  :func:`propagate` walks from any start.  The quadrature
(``_integrate_weighted``) sums step coefficients over panels fixed a
priori, in one pass in V's eigenbasis, and forms no node state.
"""

from __future__ import annotations

import functools
import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from .bc import BCPair, complex_matrix_from_json, complex_matrix_to_json, number_from_json
from .errors import NumericalError, ValidationError

__all__ = [
    "Potential",
    "StateMatrix",
    "propagate",
    "jost_solution",
    "regular_solution",
    "wronskian",
    "moment_identities_residual",
    "potential_to_json",
    "potential_from_json",
    "free_potential",
]

HERMITICITY_EPS = 1e-10
_OVERFLOW = ("solution overflows within one exact step: the piece is too wide or too deep "
             "at this k")
#: Relative margin by which a Frobenius bound must clear a threshold to
#: decide a spectral-norm test without an SVD.
_FRO_MARGIN = 1e-9


def _norm2_le(M, t):
    """Whether the spectral norm of M, or of each matrix of a stack, is at
    most t, decided as ``np.linalg.norm(M, 2, axis=(-2, -1)) <= t`` decides it.

    ||M||_F / sqrt(r) <= ||M||_2 <= ||M||_F with r = min(rows, cols), so the
    Frobenius norm decides every matrix it places beyond t by the relative
    margin; only the matrices in the band between, or with a Frobenius norm
    that is not finite, take an SVD (which raises on NaN and inf entries, as
    ``np.linalg.norm`` does).  ``t`` (a scalar, or one per matrix of the
    stack) must lie well inside the float range.  One matrix gives a bool, a
    stack an array of them.
    """
    M = np.asarray(M)
    lo, hi = t * (1 - _FRO_MARGIN), t * (1 + _FRO_MARGIN) * math.sqrt(min(M.shape[-2:]))
    if M.ndim == 2:
        fro = math.sqrt(np.vdot(M, M).real)
        if fro <= lo or hi < fro < math.inf:
            return bool(fro <= lo)
        return bool(np.linalg.norm(M, 2) <= t)
    stack = M.reshape(-1, *M.shape[-2:])
    lo, hi, t = (np.broadcast_to(b, M.shape[:-2]).reshape(-1) for b in (lo, hi, t))
    fro = np.sqrt(np.einsum("kij,kij->k", stack.conj(), stack).real)
    le = fro <= lo
    band = ~(le | ((hi < fro) & (fro < np.inf)))
    if band.any():
        le[band] = np.linalg.norm(stack[band], 2, axis=(-2, -1)) <= t[band]
    return le.reshape(M.shape[:-2])


@dataclass(frozen=True)
class Potential:
    """Piecewise-constant Hermitian matrix potential with compact support.

    ``pieces`` is a sorted tuple of (x_lo, x_hi, V) with disjoint intervals
    inside [0, x_max]; V vanishes outside the pieces.  Finite support means
    the first-moment integrability the theory needs holds automatically.

    Pieces are made disjoint here, once: a piece that overlaps the pieces
    before it by less than 1e-15 starts where they end (they own the
    overlap), a piece that leaves nothing is dropped, and a longer overlap
    is refused.
    """

    n: int
    pieces: Tuple[Tuple[float, float, np.ndarray], ...]
    x_max: float = field(init=False)

    def __post_init__(self):
        if self.n <= 0:
            raise ValidationError("channel count n must be positive")
        cleaned = []
        for i, (lo, hi, V) in enumerate(self.pieces):
            lo, hi = float(lo), float(hi)
            V = np.asarray(V, dtype=complex)
            if V.shape != (self.n, self.n):
                raise ValidationError(f"piece {i}: V must be {self.n} x {self.n}")
            if not 0 <= lo < hi < np.inf:
                raise ValidationError(f"piece {i}: need 0 <= x_lo < x_hi < inf")
            if not np.isfinite(V).all():
                raise ValidationError(f"piece {i}: V has non-finite entries")
            skew = V - V.conj().T
            # ||skew|| <= EPS passes whatever ||V||, so only larger ones need both norms
            if not _norm2_le(skew, HERMITICITY_EPS):
                herm = np.linalg.norm(skew, 2)
                if herm > HERMITICITY_EPS * max(1.0, np.linalg.norm(V, 2)):
                    raise ValidationError(
                        f"piece {i}: V is not selfadjoint (residual {herm:.3e})"
                    )
            cleaned.append((lo, hi, 0.5 * (V + V.conj().T)))
        cleaned.sort(key=lambda p: p[0])
        disjoint, reach = [], 0.0  # reach: the end of every piece before
        for lo, hi, V in cleaned:
            if lo < reach - 1e-15:
                raise ValidationError("potential pieces overlap")
            if max(lo, reach) < hi:
                disjoint.append((max(lo, reach), hi, V))
                reach = hi
        # The pieces' V and, from one eigh call, the factors (w, Q^T, conj Q)
        # that rotate rows (see _walk), as (P, ...) stacks; V views them.
        Vs = np.array([V for _, _, V in disjoint], dtype=complex).reshape(-1, self.n, self.n)
        w, Q = np.linalg.eigh(Vs)
        stacks = (Vs, w, np.ascontiguousarray(Q.swapaxes(-1, -2)), Q.conj())
        for s in stacks:
            s.setflags(write=False)
        object.__setattr__(self, "_stacks", stacks)
        object.__setattr__(self, "pieces", tuple((p[0], p[1], V) for p, V in zip(disjoint, Vs)))
        object.__setattr__(self, "x_max", reach)
        # The piece ends, increasing, for piece_at's bisection.
        object.__setattr__(self, "_ends", [hi for _, hi, _ in disjoint])

    @functools.cached_property
    def _units(self) -> "_Units":
        """The units the walks cross, made at the first walk: their
        interface products are BLAS calls, which would start BLAS's
        threads while a configuration is only being read."""
        return _make_units(self)

    def piece_at(self, x: float) -> Optional[int]:
        """Index of the piece containing x (the later one where two touch),
        or None on free territory."""
        i = bisect_right(self._ends, x)  # the first piece ending beyond x
        if i < len(self.pieces) and self.pieces[i][0] <= x:
            return i
        return None


def free_potential(n: int) -> Potential:
    """The identically zero potential (x_max = 0)."""
    return Potential(n=n, pieces=())


@dataclass(frozen=True)
class StateMatrix:
    """Snapshot (x, psi(x), psi'(x)) of an n x n matrix solution, or a (K, n, n) stack."""

    x: float
    value: np.ndarray
    deriv: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.value, dtype=complex)
        d = np.asarray(self.deriv, dtype=complex)
        if v.shape != d.shape or v.ndim not in (2, 3):
            raise ValidationError("value and deriv must be matrices of equal shape")
        if not (np.all(np.isfinite(v)) and np.all(np.isfinite(d))):
            raise ValidationError("state contains non-finite entries")
        _point(self.x)
        for name, a in (("value", v), ("deriv", d)):
            a = np.array(a)
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @classmethod
    def _trusted(cls, x: float, value: np.ndarray, deriv: np.ndarray) -> "StateMatrix":
        """A state of arrays known to be sound (rows of a checked state, a
        step's fresh output), made read-only but neither checked nor copied."""
        state = object.__new__(cls)
        object.__setattr__(state, "x", x)
        for name, a in (("value", value), ("deriv", deriv)):
            a.setflags(write=False)
            object.__setattr__(state, name, a)
        return state

    @property
    def n(self) -> int:
        return self.value.shape[-1]


# ---------------------------------------------------------------------------
# Exact stepping in V's eigenbasis.
# ---------------------------------------------------------------------------

class _Units(NamedTuple):
    """The support [0, x_max] cut after each piece into units: unit u is a
    free gap on [start[u], mid[u]] (empty where pieces touch) and then
    piece u on [mid[u], end[u]], so unit u indexes the eigen-stacks.
    ``up[u]`` = QT_u conj(Q_(u+1)) carries rows held in unit u's eigenbasis
    into unit u+1's, ``down[u]`` = QT_(u+1) conj(Q_u) back."""

    start: list
    mid: list
    end: list
    up: np.ndarray
    down: np.ndarray


def _make_units(pot: Potential) -> _Units:
    """The units of ``pot``: each piece with the gap before it."""
    _, _, QT, QhT = pot._stacks
    up, down = QT[:-1] @ QhT[1:], QT[1:] @ QhT[:-1]
    for a in (up, down):
        a.setflags(write=False)
    start = [0.0, *pot._ends][:len(pot._ends)]
    return _Units(start, [lo for lo, _, _ in pot.pieces], pot._ends, up, down)


def _coefficients(w, k, h):
    """(cos(omega h), sin(omega h)/omega, omega^2) with omega^2 = k^2 - w,
    per eigenvalue w_j of V along a last axis that k^2 and h gain; series
    stand in where |omega h| < 1e-4."""
    om2, h = (k * k)[..., None] - w, h[..., None]
    z = np.sqrt(om2) * h
    c, s = np.cos(z), np.sin(z) / z
    small = np.abs(z) < 1e-4
    if small.any():
        z2 = z * z
        c = np.where(small, 1.0 - z2 / 2.0 + z2 * z2 / 24.0 - z2 * z2 * z2 / 720.0, c)
        s = np.where(small, 1.0 - z2 / 6.0 + z2 * z2 / 120.0 - z2 * z2 * z2 / 5040.0, s)
    return c, s * h, om2


_TABLE = 2 ** 14  # most block entries (units x k^2 x eigenvalues) in one run of a table


class _Table:
    """Step blocks of every unit per distinct k^2 of ``ks``, row ``rows[i]``
    for ks[i]: f(k, .), f(-k, .) and phi(k, .) read one row.

    :meth:`block` is the forward step through a whole unit, its gap and then
    its piece, as one 2 x 2 block (p, q, r, t) per eigenvalue, (4, K, n);
    :meth:`gap` is (c, s, g) = (cos(omega h), sin(omega h)/omega, -omega^2 s)
    of its gap, (3, K, 1): a gap has w = 0, and h = 0 where pieces touch,
    which is the identity.  Each step has determinant 1, so the backward
    one is (t, -q, -r, p), and a backward leg negates s and g (see _mix).
    Consecutive units are computed together, vectorised, in runs of at most
    _TABLE block entries, each run when a walk first reaches it; a table
    that ``keep``s them holds every run it made, else only the last (one
    walk, which reaches each run once)."""

    def __init__(self, pot: Potential, ks, keep=True):
        keys = _square_keys(ks)
        self.reps, index = _distinct(ks, keys)
        self.rows = np.array(list(map(index.__getitem__, keys)), dtype=int)
        self.size, self.pot, self.keep, self.runs = len(self.reps), pot, keep, {}
        self.span = max(1, _TABLE // max(1, self.size * pot.n))  # units per run

    def own(self, rows):
        """``rows``, or None where they are every row of the table in order."""
        if len(rows) == self.size and (rows == np.arange(len(rows))).all():
            return None
        return rows

    def block(self, u, rows):
        """Unit u's forward block at ``rows`` (None: all, in order)."""
        return self._take(0, u, rows)

    def gap(self, u, rows):
        """(c, s, g) of unit u's gap at ``rows`` (None: all, in order)."""
        return self._take(1, u, rows)

    def _take(self, which, u, rows):
        i, j = divmod(u, self.span)
        run = self.runs.get(i)
        if run is None:
            if not self.keep:
                self.runs.clear()
            run = self.runs[i] = self._run(slice(i * self.span, (i + 1) * self.span))
        a = run[which][:, j]
        return a if rows is None else np.take(a, rows, axis=1)

    def _run(self, span):
        """(blocks, gaps) of the units of ``span``, (4, U, K, n) and (3, U, K, 1)."""
        units, reps = self.pot._units, self.reps
        start, mid, end = (np.array(a[span]) for a in (units.start, units.mid, units.end))
        with np.errstate(all="ignore"):
            cP, sP, gP = _coefficients(self.pot._stacks[1][span][:, None], reps,
                                       (end - mid)[:, None])
            gP = np.negative(gP, out=gP)  # -omega^2 s, in place of omega^2
            gP *= sP
            cG, sG, om2 = _coefficients(0.0, reps, (mid - start)[:, None])
            gG = -om2 * sG
            # fresh arrays of a large table cost more in page faults than
            # their arithmetic, so the products go through one scratch array
            blocks, tmp = np.empty((4,) + cP.shape, complex), np.empty_like(cP)
            for out, (a, b, c, d) in zip(blocks, ((cP, cG, sP, gG), (cP, sG, sP, cG),
                                                  (gP, cG, cP, gG), (gP, sG, cP, cG))):
                np.multiply(a, b, out=out)
                out += np.multiply(c, d, out=tmp)
        return blocks, np.stack((cG, sG, gG))


def _mix(block, v, d, back=False, out=(None, None, None)):
    """One step of rows held in an eigenbasis: (p v + q d, r v + t d) for
    the block (p, q, r, t), each (K, n), or (K, 1) for a scalar step, and
    rows v, d (K, n, n) scaled along their last (eigen) axis.  Backward,
    (t v - q d, p d - r v), the inverse.  The result and a scratch array go
    into ``out`` where given.  Nothing is checked: a row that overflows
    comes out inf or NaN, and any later step keeps it so."""
    p, q, r, t = (b[:, None] for b in block)
    if back:
        p, t = t, p
    combine = np.subtract if back else np.add
    new_v, new_d, tmp = out
    new_v, new_d = np.multiply(p, v, out=new_v), np.multiply(t, d, out=new_d)
    tmp = np.multiply(q, d, out=tmp)
    combine(new_v, tmp, out=new_v)
    combine(new_d, np.multiply(r, v, out=tmp), out=new_d)
    return new_v, new_d


def _rotate(rows, RT, out=None):
    """rows @ RT for a (..., m, n) stack of rows, as one (M, n) @ (n, n)
    product, into ``out`` where given: with RT fixed, BLAS computes a row
    the same way whatever the number of rows, so a stacked row keeps the
    bits of its scalar call."""
    n = rows.shape[-1]
    if out is None:
        return (rows.reshape(-1, n) @ RT).reshape(rows.shape)
    np.matmul(rows.reshape(-1, n), RT, out=out.reshape(-1, n))
    return out


# ---------------------------------------------------------------------------
# Piecewise walk.
# ---------------------------------------------------------------------------

def _segments(pot: Potential, x0: float, x1: float):
    """(unit, y0, y1) of each part [y0, y1] of the walk from x0 to x1 that
    lies in one unit, in walk order; the unit is None beyond the support."""
    units, x_max = pot._units, pot.x_max
    if x1 < x0:
        if x0 > x_max:
            yield None, x0, max(x1, x_max)
        u = bisect_left(units.start, x0) - 1
        while u >= 0 and units.end[u] > x1:
            yield u, min(x0, units.end[u]), max(x1, units.start[u])
            u -= 1
    elif x0 < x1:
        u = bisect_right(units.end, x0)
        while u < len(units.end) and units.start[u] < x1:
            yield u, max(x0, units.start[u]), min(x1, units.end[u])
            u += 1
        if x1 > x_max:
            yield None, max(x0, x_max), x1


def _part(pot: Potential, ks, table, rows, u, y0, y1, v, d):
    """Rows (v, d) held in unit u's eigenbasis (the standard one beyond the
    support, u None) carried from y0 to y1 within the unit, its gap and its
    piece one at a time: a gap the walk covers whole from ``table`` at
    ``rows``, any other leg from coefficients at ``ks`` of its own."""
    if u is None:
        legs = [(0.0, pot.x_max, math.inf, False)]
    else:
        units = pot._units
        legs = [(0.0, units.start[u], units.mid[u], True),
                (pot._stacks[1][u], units.mid[u], units.end[u], False)]
    back = y1 < y0
    for w, a, b, gap in (legs[::-1] if back else legs):
        lo, hi = max(a, min(y0, y1)), min(b, max(y0, y1))
        if lo >= hi:
            continue
        if gap and (lo, hi) == (a, b):
            c, s, g = table.gap(u, rows)
        else:
            c, s, om2 = _coefficients(w, ks, np.asarray(hi - lo))
            g = -om2 * s
        v, d = _mix((c, s, g, c), v, d, back)
    return v, d


def _walk(pot: Potential, ks, table, rows, x0, value, deriv, x1, keep) -> dict:
    """The states of the exact walk of (value, deriv), (K, n, n) stacks at
    x0, to x1 (either direction) at each point of ``keep`` strictly beyond
    x0, as {x: StateMatrix}; ``ks`` (K,) and ``table`` at ``rows`` give
    the steps.

    The rows psi^T are held in the eigenbasis of the unit the walk is in:
    entering a unit is one product per value and derivative rows, and a
    unit crossed whole is one step by its block.  A kept point is rotated
    out from the unit's entry rows carried to it (see _part), so a state
    depends on its point alone, not on the other points kept.  A row that
    overflows does not stop the others.
    """
    back, (lo, hi) = bool(x1 < x0), sorted((x0, x1))
    todo = sorted((x for x in keep if lo <= x <= hi and x != x0), reverse=back)
    # ``at``: the unit whose eigenbasis holds the rows, None: the standard one
    states, at = {}, None
    if not todo:
        return states
    units, (QT, QhT) = pot._units, pot._stacks[2:]
    rows, v, d = table.own(rows), value.swapaxes(-1, -2), deriv.swapaxes(-1, -2)
    # the rows entering a unit and the rows leaving it, and a scratch array,
    # made at the first unit; nothing handed out is one of them
    entered = left = None

    def state(x, u, v, d):
        if u is not None:
            v, d = _rotate(v, QT[u]), _rotate(d, QT[u])
        return StateMatrix._trusted(x, v.swapaxes(-1, -2), d.swapaxes(-1, -2))

    with np.errstate(all="ignore"):
        for u, y0, y1 in _segments(pot, x0, x1):
            if u != at:
                R = (QhT[u] if at is None else QT[at] if u is None
                     else units.down[u] if back else units.up[at])
                if entered is None:
                    entered, left = ([np.empty(v.shape, complex) for _ in range(m)] for m in (2, 3))
                v, d, at = _rotate(v, R, entered[0]), _rotate(d, R, entered[1]), u
            while todo and (todo[0] > y1 if back else todo[0] < y1):
                x = todo.pop(0)
                states[x] = state(x, u, *_part(pot, ks, table, rows, u, y0, x, v, d))
            a, b = (pot.x_max, math.inf) if u is None else (units.start[u], units.end[u])
            near, far = (b, a) if back else (a, b)
            if y1 != far:  # the walk ends inside u
                if todo:
                    states[x1] = state(x1, u, *_part(pot, ks, table, rows, u, y0, x1, v, d))
                break
            if y0 == near and u is not None:
                v, d = _mix(table.block(u, rows), v, d, back, left)
            else:
                v, d = _part(pot, ks, table, rows, u, y0, y1, v, d)
            if todo and todo[0] == y1:
                states[todo.pop(0)] = state(y1, u, v, d)
    return states


def propagate(pot: Potential, k, state: StateMatrix, x_target: float) -> StateMatrix:
    """Move a solution snapshot to x_target through the piece structure.

    The first-order system (psi, psi')' = (psi', (V - k^2) psi) is advanced
    exactly, piece by piece; steps never straddle a piece interface.  ``k``
    may be a 1-D array of K values: the result then holds (K, n, n) stacks,
    one solution per k, and ``state`` may be one start or such a stack.
    Raises NumericalError if a solution overflowed: it ends inf or NaN.
    """
    k, x_target = _finite_k(k), _point(x_target)
    value, deriv = state.value, state.deriv
    if k.ndim and value.shape[:-2] != k.shape:  # one solution per k, also without steps
        value, deriv = (np.broadcast_to(a, k.shape + a.shape[-2:]) for a in (value, deriv))
    if state.x == x_target:  # no step: a checked copy
        return StateMatrix(x=x_target, value=value, deriv=deriv)
    ks = k.reshape(-1)
    table = _Table(pot, ks, keep=False)
    (end,) = _walk(pot, ks, table, table.rows, state.x, *(a.reshape(-1, *a.shape[-2:])
                   for a in (value, deriv)), x_target, {x_target}).values()
    if value.ndim == 2:
        end = StateMatrix._trusted(x_target, end.value[0], end.deriv[0])
    if not _finite_rows(end).all():
        raise NumericalError(_OVERFLOW)
    return end


def _finite_k(k) -> np.ndarray:  # k, a scalar or 1-D, as complex, refused unless finite
    k = np.asarray(k, dtype=complex)
    if not np.isfinite(k).all():
        raise ValidationError("k must be finite")
    return k


def _point(x) -> float:  # x as a float, refused unless a point of the half line
    x = float(x)
    if not 0 <= x < math.inf:
        raise ValidationError(f"x = {x} is not a point of the half line [0, inf)")
    return x


def _finite_rows(state: StateMatrix) -> np.ndarray:  # per solution of a state, or for the one
    return np.isfinite(state.value).all(axis=(-2, -1)) & np.isfinite(state.deriv).all(axis=(-2, -1))


def _k_keys(k) -> list:
    """One key per k of a scalar or 1-D k: its bits, so -0.0 is not 0.0."""
    return np.ascontiguousarray(k, dtype=complex).reshape(-1).view("V16").tolist()


def _square_keys(k) -> list:
    """One key per k: the bits of k^2, under which phi(k, .) is one solution.
    -x+0j squares to x^2-0j; adding 0 maps that -0.0 to the +0.0 of x^2."""
    k = np.asarray(k, dtype=complex)
    return _k_keys(k * k + 0)


def _distinct(k, keys) -> Tuple[np.ndarray, Dict[bytes, int]]:
    """The first k of each distinct key, in order, and each key's row among them."""
    index = dict(zip(dict.fromkeys(keys), itertools.count()))
    if len(index) == len(keys):
        return k, index
    first = dict(zip(keys[::-1], range(len(keys) - 1, -1, -1)))  # the last write is the first
    return k[[first[key] for key in index]], index


class _Walks:
    """f(kappa, .) and phi(k, .) read from one backward and one forward walk.

    The backward walk carries f(kappa, .) for a stack of kappa from the
    support edge down to min(x_max, points), the forward walk phi(k, .) for
    a stack of k from 0 up to max(points).  :func:`_walk` steps both from
    one :class:`_Table` (which keeps its runs only for two walks), and each
    keeps exactly its states at ``points``, and the walks named in ``edges``
    also at the edge of every piece on their way through which the moment
    quadratures enter it: f ("f") at the upper edges, phi ("phi") at the
    lower ones.

    They are the only reader of f and phi, :func:`jost_solution` and
    :func:`regular_solution` too, and refuse a bc of the wrong size, a k
    that is not finite and a point (a matching point too) off [0, inf).  A
    read is a slice of a walk (f beyond the support its closed form); a k
    or point not held raises KeyError.  f is held per k bit for bit (-0.0
    is not 0.0), phi once per k^2.  An overflowed row raises the overflow
    error where its own propagation would, unless read with ``check=False``.
    """

    def __init__(self, pot, bc, kappas=(), ks=(), points=(), edges=()):
        if bc is not None and bc.n != pot.n:
            raise ValidationError("potential and boundary pair sizes differ")
        points = [_point(x) for x in points]
        self.pot = pot
        lows = [lo for lo, _, _ in pot.pieces] if "phi" in edges else []
        highs = [hi for _, hi, _ in pot.pieces] if "f" in edges else []
        f, phi = ((keys, *_distinct(k, keys(k))) for keys, k in (  # the distinct k of each walk
            (_k_keys, _finite_k(kappas).reshape(-1)), (_square_keys, _finite_k(ks).reshape(-1))))
        m = len(phi[1])
        table = _Table(pot, np.concatenate([phi[1], f[1]]), keep=bool(m and len(f[1])))
        self._f = self._walk(*f, lambda k: jost_solution(pot, k, pot.x_max),
                             min([pot.x_max, *points]), (*points, *highs), table, table.rows[m:])
        self._phi = self._walk(*phi, lambda k: StateMatrix._trusted(  # BCPair checked (A, B)
            0.0, *(np.broadcast_to(M, k.shape + M.shape) for M in (bc.A, bc.B))),
            max(points, default=0.0), (*points, *lows), table, table.rows[:m])

    def _walk(self, keys, ks, index, start, x1, points, table, rows):
        """(keys, row index, states by point) of one walk of the distinct ks
        from ``start(ks)`` to x1, from ``table`` at ``rows``."""
        if not ks.size:
            return keys, index, {}
        s = start(ks)
        lo, hi = sorted((s.x, x1))
        kept = {x for x in points if lo <= x <= hi}
        states = _walk(self.pot, ks, table, rows, s.x, s.value, s.deriv, x1, kept)
        if s.x in kept:
            states[s.x] = s
        return keys, index, states

    @staticmethod
    def _read(held, k, x, check) -> StateMatrix:
        """k (a scalar or 1-D) at x, sliced from a held walk."""
        keys, index, states = held
        rows = [index.get(key) for key in keys(k)]
        if x not in states or None in rows:
            raise KeyError(f"no walk holds k = {k} at x = {x}")
        s = states[x]
        if not (np.ndim(k) and rows == list(range(len(index)))):  # else the whole walk
            rows = rows if np.ndim(k) else rows[0]
            s = StateMatrix._trusted(s.x, s.value[rows], s.deriv[rows])
        if check and not _finite_rows(s).all():
            raise NumericalError(_OVERFLOW)
        return s

    def edges(self, which, k, xs) -> np.ndarray:
        """f(k, .) (``which`` "f", points within the support) or phi(k, .)
        ("phi") at each point of ``xs``, as one (len(xs), 2, n, n) stack of
        (value, deriv): one gather and one finiteness check."""
        keys, index, states = getattr(self, "_" + which)
        row = index[keys(k)[0]]  # a KeyError where no walk holds k, or an x
        held = np.array([(states[x].value[row], states[x].deriv[row]) for x in xs])
        if not np.isfinite(held).all():
            raise NumericalError(_OVERFLOW)
        return held

    def f(self, kappa, x, check=True) -> StateMatrix:
        """f(kappa, x), as :func:`jost_solution` gives it."""
        if x > self.pot.x_max:  # the closed form
            return jost_solution(self.pot, kappa, x)
        return self._read(self._f, kappa, x, check)

    def phi(self, k, x, check=True) -> StateMatrix:
        """phi(k, x), as :func:`regular_solution` gives it."""
        return self._read(self._phi, k, x, check)


def jost_solution(pot: Potential, k, x: float) -> StateMatrix:
    """Outgoing solution equal to exp(ikx) I beyond the support.

    Defined for Im k >= 0; ``k`` may be a 1-D array, giving (K, n, n)
    stacks.  On x >= x_max this is the closed form, the start of every
    backward walk; below, a read of one such walk (``_Walks``).
    """
    if not x >= pot.x_max:  # NaN too, which the walk refuses
        return _Walks(pot, None, k, points=(x,)).f(k, x)
    k, x = _finite_k(k), _point(x)
    if (k.imag < -1e-14).any():
        raise ValidationError("outgoing solution needs Im k >= 0")
    with np.errstate(all="ignore"):
        ph = np.exp(1j * k * x)[..., None, None]
    if not np.isfinite(ph).all():
        raise NumericalError(f"outgoing phase exp(ikx) at x = {x:g} is not finite")
    eye = np.eye(pot.n)
    return StateMatrix(x=x, value=ph * eye, deriv=(1j * k)[..., None, None] * ph * eye)


def regular_solution(pot: Potential, bc: BCPair, k, x: float) -> StateMatrix:
    """Solution with data (A, B) at the origin; entire in k (a scalar or 1-D array).

    A read of one forward walk from 0 (``_Walks``); k enters only as k^2,
    so the walk carries each distinct k^2 once and every k gets its row.
    """
    return _Walks(pot, bc, ks=k, points=(x,)).phi(k, x)


def wronskian(Fstate: StateMatrix, Gstate: StateMatrix) -> np.ndarray:
    """[F; G] = F^dagger G' - F'^dagger G; stacked states pair slice by slice."""
    if abs(Fstate.x - Gstate.x) > 1e-12 * max(1.0, abs(Fstate.x)):
        raise ValidationError(
            f"states evaluated at different points: {Fstate.x} vs {Gstate.x}"
        )
    return (Fstate.value.conj().swapaxes(-1, -2) @ Gstate.deriv
            - Fstate.deriv.conj().swapaxes(-1, -2) @ Gstate.value)


# ---------------------------------------------------------------------------
# Quadrature of V-weighted moments of the bounded zero-energy solution.
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)  # numpy.polynomial loads on first use, not on import
def _gauss_rule(order: int):
    return np.polynomial.legendre.leggauss(order)


#: Gauss-Legendre nodes per panel, most reach sqrt(max|w|) h of a panel, most panels
_GAUSS_ORDER, _PANEL_REACH, _MAX_PANELS = 12, 4.0, 32


def _integrate_weighted(pot: Potential, a: float, weights, edges):
    """Composite Gauss-Legendre quadrature of weight(y) V(y) psi(y) over the
    support beyond a, psi a zero-energy solution: one total per weight of
    ``weights``, each called once, on the flat array of all nodes.  A piece
    of width h and eigenvalues w of V gets the least power of two p >=
    sqrt(max|w|) h / 4 of panels, at most 32: the 12-point rule's error on
    a panel of reach <= 4 is below 8.8e-39 * 4^24 ~ 2.5e-24 relative, and a
    power of two keeps the cuts exact where lo and hi are short binary numbers.

    ``edges(lo, hi)`` (the bounds of the pieces summed, lo clipped to a)
    gives (xe, psi): the edge each piece is entered through and (psi, psi')
    there, (pieces, 2, n, n).  With V = Q diag(w) Q' and (c, s) the step
    coefficients of y - xe, V psi(y) = Q w o (c o Q' psi(xe) + s o Q'
    psi'(xe)), o scaling rows by eigen-index: all nodes are one pass over c
    and s, and no node state is formed.
    """
    live = [(i, max(lo, a), hi) for i, (lo, hi, _) in enumerate(pot.pieces) if hi > max(lo, a)]
    if not live:
        return [np.zeros((pot.n, pot.n), dtype=complex) for _ in weights]
    idx, lo, hi = (np.array(col) for col in zip(*live))
    w, QT, QhT = (s[idx] for s in pot._stacks[1:])
    xe, psi = edges(lo, hi)
    rot = QhT.swapaxes(-1, -2)[:, None] @ psi  # Q' psi and Q' psi' at each edge
    reach = np.sqrt(np.abs(w).max(axis=-1)) * (hi - lo) / _PANEL_REACH
    panels = 2 ** np.ceil(np.log2(np.clip(reach, 1, _MAX_PANELS))).astype(int)
    # panel j of p on [lo, hi] spans the cuts j and j + 1 of np.linspace(lo, hi, p + 1)
    piece = np.repeat(np.arange(len(live)), panels)
    j = np.arange(piece.size) - (np.cumsum(panels) - panels)[piece]
    step = ((hi - lo) / panels)[piece]
    left, right = (np.where(i == panels[piece], hi[piece], i * step + lo[piece])
                   for i in (j, j + 1))
    mid, half = 0.5 * (left + right), 0.5 * (right - left)
    xs, ws = _gauss_rule(_GAUSS_ORDER)
    ys, gw = (mid[:, None] + half[:, None] * xs).reshape(-1), (half[:, None] * ws).reshape(-1)
    node = np.repeat(piece, _GAUSS_ORDER)
    with np.errstate(all="ignore"):
        coefs = np.array([gw * weight(ys) for weight in weights])
        c, s, _ = _coefficients(w[node], np.zeros(1, complex), ys - xe[node])
        terms = coefs[:, :, None, None] * np.stack((c, s), axis=-2)
        cs = np.add.reduceat(terms, np.flatnonzero(j == 0) * _GAUSS_ORDER, axis=1) * w[:, None]
        acc = QT.swapaxes(-1, -2) @ (cs[..., None] * rot).sum(axis=-3)
    if not np.isfinite(acc).all():
        raise NumericalError(_OVERFLOW)
    return list(acc.sum(axis=1))


def moment_identities_residual(
    pot: Potential,
    a: float,
    walks: Optional[_Walks] = None,
) -> Tuple[float, float]:
    """Residuals of the two tail moments of V against the bounded solution.

    The zeroth moment of V f(0, .) over (a, infinity) must cancel f'(0, a);
    the first moment must equal f(0, a) - a f'(0, a) - I.  Both are checked
    by independent quadrature, over the same nodes in one pass, and returned
    as norms.  f(0, .) at a is read from ``walks`` (a caller's, or one walk
    of f(0, .) down from the support edge to a), and at the upper edges of
    the pieces beyond a as one stack.
    """
    walks = walks or _Walks(pot, None, [0.0], points=[a], edges=("f",))
    f0a = walks.f(0.0, a)
    m0, m1 = _integrate_weighted(pot, a, (lambda y: 1.0, lambda y: y),
                                 lambda lo, hi: (hi, walks.edges("f", 0.0, hi)))
    n = pot.n
    r1 = float(np.linalg.norm(m0 + f0a.deriv, 2))
    r2 = float(np.linalg.norm(m1 - f0a.value + a * f0a.deriv + np.eye(n), 2))
    return r1, r2


# ---------------------------------------------------------------------------
# JSON encoding.
# ---------------------------------------------------------------------------

def potential_to_json(pot: Potential) -> dict:
    return {
        "n": pot.n,
        "pieces": [
            {"x_lo": lo, "x_hi": hi, "V": complex_matrix_to_json(V)}
            for lo, hi, V in pot.pieces
        ],
    }


def potential_from_json(data: dict, path: str = "potential") -> Potential:
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: expected an object")
    extra = set(data) - {"n", "pieces"}
    if extra:
        raise ValidationError(f"{path}: unknown keys {sorted(extra)}")
    n = data.get("n")
    if not isinstance(n, int) or n <= 0:
        raise ValidationError(f"{path}.n: must be a positive integer")
    pieces = []
    for i, piece in enumerate(data.get("pieces", [])):
        if not isinstance(piece, dict):
            raise ValidationError(f"{path}.pieces[{i}]: expected an object")
        extra = set(piece) - {"x_lo", "x_hi", "V"}
        if extra:
            raise ValidationError(f"{path}.pieces[{i}]: unknown keys {sorted(extra)}")
        try:
            lo = number_from_json(piece["x_lo"])
            hi = number_from_json(piece["x_hi"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"{path}.pieces[{i}]: x_lo/x_hi must be numbers") from exc
        V = complex_matrix_from_json(piece.get("V"), f"{path}.pieces[{i}].V")
        pieces.append((lo, hi, V))
    try:
        return Potential(n=n, pieces=tuple(pieces))
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
