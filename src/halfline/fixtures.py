"""Bundled reference vertex conditions with known closed-form answers.

Four zero-potential configurations with documented Jost and scattering
matrices serve as regression targets for the whole pipeline:

* ``7.1`` (delta-prime):  3 channels, rank-one B, mu = nu = 2; S(0) has
  diagonal 1/3 and off-diagonal -2/3.
* ``7.2`` (kirchhoff):  the star-graph condition with continuous wave
  function and derivative-sum zero; mu = nu = 1.  The S(0) stored here is
  the limit of -J(-k) J(k)^(-1) computed from the documented J(k) by exact
  inversion (the matrix is k-independent and symmetric, diagonal -1/3 and
  off-diagonal 2/3).  A commonly reproduced table for this condition shows
  a last row (2/3, -2/3, 1/3) instead; that variant is neither symmetric
  nor an involution and is stored separately as ``printed_s0`` so reports
  can flag the discrepancy.
* ``7.3`` (xor-gate):  4 channels, mu = nu = 3; S(k) is identically the
  permutation that swaps channels 3 and 4.  In the documented closed form
  of J(k) the (3,3) entry reads (k+a)/(2a); consistency with J(0) and with
  J(k) = B - ikA requires (k-a)/(2a), which is what this module stores.
* ``7.4`` (defective-kernel):  3 channels with a nontrivial nilpotent
  block (mu = 2, nu = 3), exercising the nonidentity row permutation;
  S(0) = diag(1, -1, 1).

All matrices, and the values of the J(k) and S(k) displays, are exact
Gaussian rationals in numpy object arrays of :class:`halfline.exactalg.QC`;
complex views are provided for the numeric path.  Parameters default to
a = 2 for ``7.1`` and a = b = c = 1 for ``7.3`` / ``7.4`` and can be
overridden with exact rational values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from . import exactalg as xa
from .bc import BCPair
from .errors import ValidationError
from .solver import Potential, free_potential

__all__ = ["ExampleFixture", "get_fixture", "fixture_ids", "FIXTURE_ALIASES"]

QC = xa.QC
_I = QC(0, 1)  # the imaginary unit


@dataclass(frozen=True)
class ExampleFixture:
    """One reference configuration and its documented answers."""

    id: str
    name: str
    n: int
    params: Dict[str, Fraction]
    A_exact: np.ndarray
    B_exact: np.ndarray
    s0_exact: np.ndarray
    mu: int
    nu: int
    P1: Optional[np.ndarray]
    P2: Optional[np.ndarray]
    jost_display: Callable[[QC], np.ndarray]
    smatrix_display: Optional[Callable[[QC], np.ndarray]]
    blocks_exact: Dict[str, np.ndarray] = field(default_factory=dict)
    printed_s0: Optional[np.ndarray] = None
    notes: Tuple[str, ...] = ()

    @property
    def A(self) -> np.ndarray:
        return self.A_exact.astype(complex)

    @property
    def B(self) -> np.ndarray:
        return self.B_exact.astype(complex)

    def bc(self) -> BCPair:
        return BCPair(n=self.n, A=self.A, B=self.B)

    def potential(self) -> Potential:
        return free_potential(self.n)

    @property
    def s0(self) -> np.ndarray:
        return self.s0_exact.astype(complex)


def _f(x) -> Fraction:
    return Fraction(x)


def _delta_prime(a=Fraction(2)) -> ExampleFixture:
    a = _f(a)
    A = xa.mat([[1, 0, -a], [-1, 1, 0], [0, -1, 0]])
    B = xa.mat([[0, 0, -1], [0, 0, -1], [0, 0, -1]])
    third = QC(Fraction(1, 3))
    two_thirds = QC(Fraction(2, 3))
    s0 = xa.mat([
        [third, -two_thirds, -two_thirds],
        [-two_thirds, third, -two_thirds],
        [-two_thirds, -two_thirds, third],
    ])

    def jost(k: QC) -> np.ndarray:
        ik = _I * k
        return xa.mat([
            [-ik, 0, QC(-1) + _I * QC(a) * k],
            [ik, -ik, -1],
            [0, ik, -1],
        ])

    def smat(k: QC) -> np.ndarray:
        num_d = _I + QC(a) * k
        num_o = QC(-2) * _I
        den = QC(3) * _I + QC(a) * k
        d = num_d / den
        o = num_o / den
        return xa.mat([[d, o, o], [o, d, o], [o, o, d]])

    blocks = {
        "A1": xa.mat([[(0, -1), (0, -1)], [(0, 1), (0, -2)]]),
        "B1": xa.mat([[(0, a - 2)], [(0, -1)]]),
        "C1": xa.mat([[0, (0, 1)]]),
        "D0": xa.mat([[-1]]),
    }
    return ExampleFixture(
        id="7.1", name="delta-prime", n=3, params={"a": a},
        A_exact=A, B_exact=B, s0_exact=s0, mu=2, nu=2,
        P1=np.eye(3), P2=np.eye(3),
        jost_display=jost, smatrix_display=smat, blocks_exact=blocks,
    )


def _kirchhoff() -> ExampleFixture:
    A = xa.mat([[0, 0, 1], [0, 0, 1], [0, 0, 1]])
    B = xa.mat([[-1, 0, 0], [1, -1, 0], [0, 1, 0]])
    third = QC(Fraction(1, 3))
    two_thirds = QC(Fraction(2, 3))
    # Limit of -J(-k) J(k)^(-1): constant in k, symmetric, an involution.
    s0 = xa.mat([
        [-third, two_thirds, two_thirds],
        [two_thirds, -third, two_thirds],
        [two_thirds, two_thirds, -third],
    ])
    printed = xa.mat([
        [-third, two_thirds, two_thirds],
        [two_thirds, -third, two_thirds],
        [two_thirds, -two_thirds, third],
    ])

    def jost(k: QC) -> np.ndarray:
        ik = _I * k
        return xa.mat([[-1, 0, -ik], [1, -1, -ik], [0, 1, -ik]])

    def smat(k: QC) -> np.ndarray:
        return s0

    blocks = {
        # Basis-invariant blocks only; C1/B1 depend on the chain scaling.
        "A1": xa.mat([[(0, -3)]]),
        "D0": xa.mat([[-1, 1], [0, -1]]),
    }
    return ExampleFixture(
        id="7.2", name="kirchhoff", n=3, params={},
        A_exact=A, B_exact=B, s0_exact=s0, mu=1, nu=1,
        P1=np.eye(3), P2=np.eye(3),
        jost_display=jost, smatrix_display=smat, blocks_exact=blocks,
        printed_s0=printed,
        notes=(
            "the widely printed S(0) table for this condition has last row "
            "(2/3, -2/3, 1/3); the limit of -J(-k) J(k)^(-1) computed from "
            "the documented J(k) is symmetric with last row (2/3, 2/3, -1/3), "
            "and only the latter squares to the identity",
        ),
    )


def _xor_gate(a=Fraction(1)) -> ExampleFixture:
    a = _f(a)
    inv_a = QC(0, 1 / a)       # i/a
    inv_2a = QC(0, 1 / (2 * a))  # i/(2a)
    half = Fraction(1, 2)
    A = xa.mat([
        [inv_a, 0, 0, 0],
        [0, inv_a, 0, inv_2a],
        [0, 0, inv_2a, inv_2a],
        [0, 0, inv_2a, inv_2a],
    ])
    B = xa.mat([
        [0, 0, 0, 0],
        [0, 0, 0, 0],
        [0, 0, -half, half],
        [0, 0, half, -half],
    ])
    s0 = xa.mat([
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ])

    def jost(k: QC) -> np.ndarray:
        # Consistent closed form; the as-documented (3,3) entry (k+a)/(2a)
        # contradicts J(0) and is corrected to (k-a)/(2a) here.
        ka = k / QC(a)
        k2a = k / QC(2 * a)
        p = (k + QC(a)) / QC(2 * a)
        m = (k - QC(a)) / QC(2 * a)
        return xa.mat([
            [ka, 0, 0, 0],
            [0, ka, 0, k2a],
            [0, 0, m, p],
            [0, 0, p, m],
        ])

    def smat(k: QC) -> np.ndarray:
        return s0

    blocks = {
        "A1": xa.mat([
            [1 / a, 0, 0],
            [0, 1 / a, 1 / (2 * a)],
            [0, 0, 1 / a],
        ]),
        "B1": xa.mat([[0], [1 / (2 * a)], [0]]),
        "C1": xa.mat([[0, 0, 0]]),
        "D0": xa.mat([[-1]]),
    }
    return ExampleFixture(
        id="7.3", name="xor-gate", n=4, params={"a": a},
        A_exact=A, B_exact=B, s0_exact=s0, mu=3, nu=3,
        P1=np.eye(4), P2=np.eye(4),
        jost_display=jost, smatrix_display=smat, blocks_exact=blocks,
        notes=(
            "the documented J(k) closed form has (3,3) entry (k+a)/(2a); "
            "consistency with J(0) and with J(k) = B - ikA requires "
            "(k-a)/(2a), which is what the fixture stores",
        ),
    )


def _defective_kernel(a=Fraction(1), b=Fraction(1), c=Fraction(1)) -> ExampleFixture:
    a, b, c = _f(a), _f(b), _f(c)
    A = xa.mat([[2, 1, a], [0, 0, b], [1, 1, c]])
    B = xa.mat([[0, 0, 0], [0, 0, 1], [0, 0, 0]])
    s0 = xa.mat([[1, 0, 0], [0, -1, 0], [0, 0, 1]])
    P2 = np.array([[1.0, 0, 0], [0, 0, 1.0], [0, 1.0, 0]])

    def jost(k: QC) -> np.ndarray:
        ik = _I * k
        return xa.mat([
            [QC(-2) * ik, -ik, -QC(0, a) * k],
            [0, 0, QC(1) - QC(0, b) * k],
            [-ik, -ik, -QC(0, c) * k],
        ])

    def smat(k: QC) -> np.ndarray:
        mid = (QC(0, -1) + QC(b) * k) / (QC(0, 1) + QC(b) * k)
        return xa.mat([[1, 0, 0], [0, mid, 0], [0, 0, 1]])

    blocks = {
        "A1": xa.mat([[(0, -2), (0, -1)], [(0, -1), (0, -1)]]),
        "B1": xa.mat([[(0, -a)], [(0, -c)]]),
        "C1": xa.mat([[0, 0]]),
        "D0": xa.mat([[1]]),
    }
    return ExampleFixture(
        id="7.4", name="defective-kernel", n=3,
        params={"a": a, "b": b, "c": c},
        A_exact=A, B_exact=B, s0_exact=s0, mu=2, nu=3,
        P1=np.eye(3), P2=P2,
        jost_display=jost, smatrix_display=smat, blocks_exact=blocks,
    )


_BUILDERS = {
    "7.1": _delta_prime,
    "7.2": _kirchhoff,
    "7.3": _xor_gate,
    "7.4": _defective_kernel,
}

FIXTURE_ALIASES = {
    "delta-prime": "7.1",
    "kirchhoff": "7.2",
    "xor-gate": "7.3",
    "defective-kernel": "7.4",
}


def fixture_ids() -> Tuple[str, ...]:
    return tuple(_BUILDERS)


def get_fixture(fixture_id: str, **params) -> ExampleFixture:
    """Look up a fixture by id ("7.1" .. "7.4") or by alias name."""
    key = FIXTURE_ALIASES.get(fixture_id, fixture_id)
    builder = _BUILDERS.get(key)
    if builder is None:
        known = sorted(_BUILDERS) + sorted(FIXTURE_ALIASES)
        raise ValidationError(f"unknown fixture {fixture_id!r}; known: {known}")
    return builder(**params)
