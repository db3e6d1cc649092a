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
step holds it transposed, as rows psi^T, so each rotation into or out of
V's eigenbasis is one 2-D product of all K n rows with a fixed n x n
factor, and a stacked row keeps the bits of its scalar call (see _step).

One kernel (``_legs``) steps a walk leg by leg, checking nothing: an
overflowed solution stays inf or NaN.  :func:`propagate` keeps and checks
its last state; ``_Walks``, which crosses the support once per solution
family over a stack of k, keeps the states at the points it is given and
no others (a reader of interface states, such as the zero-energy Jost
routes and the moment quadrature, lists the piece edges), reads one
``_Table`` of step coefficients per k^2 and checks what it hands out.  The
quadrature (``_integrate_weighted``) sums step coefficients over its nodes
in V's eigenbasis and forms no node state.
"""

from __future__ import annotations

import functools
import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

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
        for (lo1, hi1, _), (lo2, _, _) in zip(cleaned, cleaned[1:]):
            if lo2 < hi1 - 1e-15:
                raise ValidationError("potential pieces overlap")
        # The pieces' V and, from one eigh call, the factors (w, Q^T, conj Q)
        # that rotate rows (see _step), as (P, ...) stacks; V and _eigs[i] view them.
        Vs = np.array([V for _, _, V in cleaned], dtype=complex).reshape(-1, self.n, self.n)
        w, Q = np.linalg.eigh(Vs)
        stacks = (Vs, w, np.ascontiguousarray(Q.swapaxes(-1, -2)), Q.conj())
        for s in stacks:
            s.setflags(write=False)
        object.__setattr__(self, "_stacks", stacks)
        object.__setattr__(self, "_eigs", tuple(zip(*stacks[1:])))
        object.__setattr__(self, "pieces", tuple((p[0], p[1], V) for p, V in zip(cleaned, Vs)))
        object.__setattr__(self, "x_max", cleaned[-1][1] if cleaned else 0.0)
        # Piece lookup by bisection: the sorted distinct piece edges, and the
        # running maximum of the piece ends (nondecreasing even where pieces
        # overlap by less than the 1e-15 the check above lets through).
        edges = sorted({b for lo, hi, _ in cleaned for b in (lo, hi)})
        object.__setattr__(self, "_edges", edges)
        object.__setattr__(self, "_reach", list(itertools.accumulate(
            (hi for _, hi, _ in cleaned), max)))

    def piece_at(self, x: float) -> Optional[int]:
        """Index of the piece containing x, or None on free territory.

        Where pieces overlap, the first one in ``pieces`` that contains x.
        """
        # The first piece ending beyond x; later pieces start no earlier.
        i = bisect_right(self._reach, x)
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
        if self.x < 0:
            raise ValidationError("states live on x >= 0")
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
# Exact stepping within a constant piece.
# ---------------------------------------------------------------------------

def _step(eig, c, s, g, value, deriv):
    """One exact step through a constant piece, from its coefficients.

    ``c``, ``s`` and ``g`` are cos(omega h), sin(omega h)/omega and -omega^2
    times s (see :func:`_coefficients`), of stack shape S, () or (m,), plus
    an eigen axis; ``value``, ``deriv`` and the result are (n, n) or S + (n, n).
    ``eig`` is the piece's (w, Q^T, conj Q), or None on free territory (no
    rotation, an eigen axis of length 1).  Nothing is checked: a row that
    overflows comes out inf or NaN, and any later step keeps it so.

    The state is held transposed for the length of the step, as rows: psi^T
    is (..., n, n) with one row per column of psi, and Q' psi is
    (psi^T conj Q)^T.  So each rotation is one 2-D product of every row of
    the stack with a fixed n x n factor (``_rotate``), and c, s and g scale
    the last axis.  With the factor fixed, BLAS computes a row of that
    product the same way whatever the number of rows, so a stacked row
    keeps the bits of its scalar call.  The result is a transposed view of
    those rows, which the next step reshapes without a copy.
    """
    QT, QhT = (None, None) if eig is None else eig[1:]
    with np.errstate(all="ignore"):
        c, s, g = c[..., None, :], s[..., None, :], g[..., None, :]
        rows_v, rows_d = value.swapaxes(-1, -2), deriv.swapaxes(-1, -2)
        if QT is not None:
            rows_v, rows_d = _rotate(rows_v, QhT), _rotate(rows_d, QhT)
        # in place, and out into the spent rotated rows: fresh arrays of a
        # large stack cost more in page faults than their arithmetic
        new_v = c * rows_v
        new_v += s * rows_d
        new_d = g * rows_v
        new_d += c * rows_d
        if QT is not None:
            new_v, new_d = _rotate(new_v, QT, rows_v), _rotate(new_d, QT, rows_d)
    return new_v.swapaxes(-1, -2), new_d.swapaxes(-1, -2)


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


def _rotate(rows, RT, spare=None):
    """rows @ RT for a (..., m, n) stack of rows, as one (M, n) @ (n, n)
    product.  It is written into ``spare``, a contiguous array no longer
    needed, when that has the shape of the result."""
    n = rows.shape[-1]
    if spare is None or spare.shape != rows.shape:
        return (rows.reshape(-1, n) @ RT).reshape(rows.shape)
    np.matmul(rows.reshape(-1, n), RT, out=spare.reshape(-1, n))
    return spare


# ---------------------------------------------------------------------------
# Piecewise walk.
# ---------------------------------------------------------------------------

def _breakpoints(pot: Potential, x0: float, x1: float):
    """Segment boundaries between x0 and x1 (either direction), including
    every piece interface strictly inside."""
    lo, hi = min(x0, x1), max(x0, x1)
    if lo == hi:
        return [x0]
    edges = pot._edges
    cuts = [lo, *edges[bisect_right(edges, lo):bisect_left(edges, hi)], hi]
    return cuts[::-1] if x1 < x0 else cuts


_TABLE = 2 ** 14  # most step coefficients (legs x k x eigenvalues) in one block


def _leg_coefficients(pot: Potential, k, legs):
    """(c, s, g) of each leg (piece index or None, h, ...) at each k, in order,
    per block of at most _TABLE coefficients as it is reached: one
    :func:`_coefficients` call for its piece legs, one for its free legs (w = 0)."""
    axes = (1,) * k.ndim  # the k axis, if any, between the leg and eigen axes
    size = max(1, _TABLE // (k.size * pot.n))
    for block in (legs[i:i + size] for i in range(0, len(legs), size)):
        table = {}
        for free in (True, False):
            rows = [j for j, leg in enumerate(block) if (leg[0] is None) == free]
            if rows:
                h = np.array([block[j][1] for j in rows]).reshape(-1, *axes)
                w = 0.0 if free else pot._stacks[1][[block[j][0] for j in rows]].reshape(
                    h.shape + (pot.n,))
                with np.errstate(all="ignore"):
                    c, s, om2 = _coefficients(w, k[None], h)
                    table.update(zip(rows, zip(c, s, -om2 * s)))
        yield from (table[j] for j in range(len(block)))


class _Table:
    """(c, s, g) of the step h = hi - lo > 0 of each leg [lo, hi] of ``runs``
    (lists of stops) per distinct k^2 of ``ks``, row ``rows[i]`` for ks[i].
    f(k, .), f(-k, .) and phi(k, .) read one row, a backward leg negates s
    and g; only zero signs can differ from computing them for each k and h."""

    def __init__(self, pot: Potential, ks, runs):
        keys = _square_keys(ks)
        reps, index = _distinct(ks, keys)
        self.rows = np.array(list(map(index.__getitem__, keys)), dtype=int)
        legs = sorted({(min(leg), max(leg)) for stops in runs for leg in zip(stops, stops[1:])})
        self._coefs = dict(zip(legs, _leg_coefficients(
            pot, reps, [(pot.piece_at(0.5 * (lo + hi)), hi - lo) for lo, hi in legs])))

    def read(self, rows, stops):
        """(c, s, g) of each leg of ``stops`` in order, at ``rows`` (indices or a slice)."""
        for x0, x1 in zip(stops, stops[1:]):
            c, s, g = (a[rows] for a in self._coefs[min(x0, x1), max(x0, x1)])
            yield (c, s, g) if x0 < x1 else (c, -s, -g)


def _legs(pot: Potential, k, value, deriv, stops, coefs=None):
    """The exact walk of (value, deriv) at stops[0] through ``stops``, with
    no piece edge strictly between two stops: the StateMatrix at each later
    stop, in order.  ``k`` is 0-d or 1-D complex.  Each leg is stepped with
    :func:`_step` from its coefficients in ``coefs`` (a :meth:`_Table.read`)
    or else from :func:`_leg_coefficients`.  A coefficient depends on its
    k^2, w and h alone, so every state has the value of stepping its legs
    one at a time, and without ``coefs`` its bits; a row that overflows
    does not stop the others."""
    legs = [(pot.piece_at(0.5 * (x0 + x1)), x1 - x0, x1) for x0, x1 in zip(stops, stops[1:])]
    for (idx, _, x), (c, s, g) in zip(legs, coefs or _leg_coefficients(pot, k, legs)):
        value, deriv = _step(None if idx is None else pot._eigs[idx], c, s, g, value, deriv)
        yield StateMatrix._trusted(x, value, deriv)


def propagate(pot: Potential, k, state: StateMatrix, x_target: float) -> StateMatrix:
    """Move a solution snapshot to x_target through the piece structure.

    The first-order system (psi, psi')' = (psi', (V - k^2) psi) is advanced
    segment by segment; segments never straddle a piece interface.  ``k``
    may be a 1-D array of K values: the result then holds (K, n, n) stacks,
    one solution per k, and ``state`` may be one start or such a stack.
    Raises NumericalError if a solution overflowed: it ends inf or NaN.
    """
    if x_target < 0:
        raise ValidationError("x_target must be >= 0")
    k = np.asarray(k, dtype=complex)
    value, deriv = state.value, state.deriv
    if k.ndim and value.shape[:-2] != k.shape:  # one solution per k, also without steps
        value, deriv = (np.broadcast_to(a, k.shape + a.shape[-2:]) for a in (value, deriv))
    pts = _breakpoints(pot, state.x, x_target)
    if len(pts) == 1:  # no step: a checked copy
        return StateMatrix(x=x_target, value=value, deriv=deriv)
    for state in _legs(pot, k, value, deriv, pts):  # fresh arrays of the steps
        pass  # only the last state is kept
    if not _finite_rows(state).all():
        raise NumericalError(_OVERFLOW)
    return state


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
    a stack of k from 0 up to max(points).  :func:`_legs` steps both from
    one :class:`_Table` through every interface; each keeps exactly its
    states at ``points`` (a reader of interface states lists the piece
    edges), and a point inside a leg is one side leg off the walk.

    They are the only read path: a read is a slice of a walk, bit for bit
    what :func:`jost_solution` or :func:`regular_solution` gives (f beyond
    the support is its closed form); a k or point not held raises KeyError.
    f is held per k bit for bit (-0.0 is not 0.0), phi once per k^2.  A row
    that overflowed raises the overflow error where its own propagation
    would, unless read with ``check=False``.
    """

    def __init__(self, pot, bc, kappas=(), ks=(), points=()):
        self.pot = pot
        runs = [_breakpoints(pot, pot.x_max, min([pot.x_max, *points])),
                _breakpoints(pot, 0.0, max(points, default=0.0))]
        f, phi = ((keys, *_distinct(k, keys(k))) for keys, k in (  # the distinct k of each walk
            (_k_keys, np.asarray(kappas, dtype=complex).reshape(-1)),
            (_square_keys, np.asarray(ks, dtype=complex).reshape(-1))))
        walked, m = [run for run, walk in zip(runs, (f, phi)) if walk[1].size], len(phi[1])
        table = walked and _Table(pot, np.concatenate([phi[1], f[1]]), walked)
        self._f = self._walk(*f, lambda k: jost_solution(pot, k, pot.x_max), runs[0], points,
                             table and table.read(table.rows[m:], runs[0]))
        self._phi = self._walk(*phi, lambda k: StateMatrix._trusted(  # BCPair checked (A, B)
            0.0, *(np.broadcast_to(M, k.shape + M.shape) for M in (bc.A, bc.B))),
            runs[1], points, table and table.read(slice(m), runs[1]))

    def _walk(self, keys, ks, index, start, walk, points, coefs):
        """(keys, row index, states by point) of one walk of the distinct ks
        from ``start(ks)`` through the stops ``walk``, by ``coefs``."""
        states, kept = {}, {float(x) for x in points}
        if not ks.size:
            return keys, index, states
        sides = kept.difference(walk)  # the points inside a leg
        prev = start(ks)
        legs = _legs(self.pot, ks, prev.value, prev.deriv, walk, coefs)
        for state in itertools.chain([prev], legs):
            for side in sides:
                if min(prev.x, state.x) < side < max(prev.x, state.x):
                    (states[side],) = _legs(self.pot, ks, prev.value, prev.deriv, [prev.x, side])
            if state.x in kept:
                states[state.x] = state
            prev = state
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

    Defined for Im k >= 0; ``k`` may be a 1-D array (see :func:`propagate`).
    On x >= x_max the closed form is returned directly; otherwise the edge
    data is propagated backward.
    """
    k = np.asarray(k, dtype=complex)
    if (k.imag < -1e-14).any():
        raise ValidationError("outgoing solution needs Im k >= 0")
    x_edge = max(x, pot.x_max)
    ph = np.exp(1j * k * x_edge)[..., None, None]
    eye = np.eye(pot.n)
    edge = StateMatrix(x=x_edge, value=ph * eye, deriv=(1j * k)[..., None, None] * ph * eye)
    return edge if x >= pot.x_max else propagate(pot, k, edge, x)


def regular_solution(pot: Potential, bc: BCPair, k, x: float) -> StateMatrix:
    """Solution with data (A, B) at the origin; entire in k (a scalar or 1-D array).

    k enters only as k^2, so phi is even in k: a stack propagates each
    distinct k^2 once, and every k of it receives its row.
    """
    if bc.n != pot.n:
        raise ValidationError("boundary pair and potential sizes differ")
    start = StateMatrix(x=0.0, value=bc.A, deriv=bc.B)
    if np.ndim(k) == 0:
        return propagate(pot, k, start, x)
    k = np.asarray(k, dtype=complex)
    keys = _square_keys(k)
    reps, index = _distinct(k, keys)
    state = propagate(pot, reps, start, x)
    if len(reps) == len(k):
        return state
    rows = [index[key] for key in keys]
    return StateMatrix._trusted(state.x, state.value[rows], state.deriv[rows])


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


#: Gauss-Legendre nodes per panel, settling tolerance, cap on levels (1, 2, 4, ... panels)
_GAUSS_ORDER, _QUAD_TOL, _QUAD_LEVELS = 12, 1e-11, 6


def _integrate_weighted(pot: Potential, a: float, weights, edge_state):
    """Refined Gauss-Legendre quadrature of weight(y) V(y) psi(y) over the
    support beyond a, psi a zero-energy solution, for each weight of
    ``weights``; one total per weight, in order.  Panels double until the
    value settles, per piece and weight; a weight is called on the (pieces,
    nodes) array of the pieces where it still refines.

    ``edge_state(lo, hi)`` gives psi at the edge x_e of the piece [lo, hi]
    that a walk into it enters through.  With V = Q diag(w) Q' and (c, s)
    the step coefficients of y - x_e, V psi(y) = Q w o (c o Q' psi(x_e) +
    s o Q' psi'(x_e)), o scaling rows by eigen-index, so the sum over the
    nodes of all pieces still refining is one pass over c and s a level.
    """
    live = [(i, max(lo, a), hi) for i, (lo, hi, _) in enumerate(pot.pieces) if hi > max(lo, a)]
    sums = np.zeros((len(weights), len(live), pot.n, pot.n), dtype=complex)
    settled = np.zeros(sums.shape[:2], dtype=bool)
    edges = [edge_state(lo, hi) for _, lo, hi in live]
    if live:
        idx, lo, hi = (np.array(col) for col in zip(*live))
        w, QT, QhT = (s[idx] for s in pot._stacks[1:])
        rot = QhT.swapaxes(-1, -2)[:, None] @ np.array([(e.value, e.deriv) for e in edges])
        xe = np.array([e.x for e in edges])[:, None]
    xs, ws = _gauss_rule(_GAUSS_ORDER)
    for level in range(_QUAD_LEVELS):
        on = np.flatnonzero(~settled.all(axis=0))  # pieces still refining
        if not on.size:
            break
        cuts = np.linspace(lo[on], hi[on], 2 ** level + 1, axis=-1)
        mid, half = 0.5 * (cuts[:, :-1] + cuts[:, 1:]), 0.5 * (cuts[:, 1:] - cuts[:, :-1])
        ys = (mid[..., None] + half[..., None] * xs).reshape(len(on), -1)
        gw = (half[..., None] * ws).reshape(len(on), -1)
        todo = ~settled[:, on]
        coefs = np.zeros((len(weights),) + ys.shape)
        for i, weight in enumerate(weights):
            coefs[i, todo[i]] = gw[todo[i]] * weight(ys[todo[i]])
        with np.errstate(all="ignore"):
            c, s, _ = _coefficients(w[on, None], np.zeros(1, complex), ys - xe[on])
            cs = np.einsum("wlj,ljtn->wltn", coefs, np.stack((c, s), axis=-2)) * w[on, None]
            acc = QT[on].swapaxes(-1, -2) @ (cs[..., None] * rot[on]).sum(axis=-3)
        if not np.isfinite(acc[todo]).all():
            raise NumericalError(_OVERFLOW)
        for i in range(len(weights)):
            p, new = on[todo[i]], acc[i, todo[i]]
            settled[i, p] = level > 0 and _norm2_le(new - sums[i, p], _QUAD_TOL)
            sums[i, p] = new
    return list(sums.sum(axis=1))


def moment_identities_residual(
    pot: Potential,
    a: float,
    walks: Optional[_Walks] = None,
) -> Tuple[float, float]:
    """Residuals of the two tail moments of V against the bounded solution.

    The zeroth moment of V f(0, .) over (a, infinity) must cancel f'(0, a);
    the first moment must equal f(0, a) - a f'(0, a) - I.  Both are checked
    by independent quadrature, over the same nodes, and returned as norms.
    f(0, .) at a and at every piece edge beyond it is read from ``walks``
    (a caller's, or one walk of f(0, .) down from the support edge to a).
    """
    walks = walks or _Walks(pot, None, [0.0], points=[a, *(x for x in pot._edges if x > a)])
    f0a = walks.f(0.0, a)
    m0, m1 = _integrate_weighted(pot, a, (lambda y: 1.0, lambda y: y),
                                 lambda lo, hi: walks.f(0.0, hi))
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
