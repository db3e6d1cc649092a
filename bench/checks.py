"""Checks of every command output against the CLI contract, the paper's
identities and the reference in :mod:`oracle`.

A check returns the output's error against its reference (0.0 where the
reference is exact and matched) or raises :class:`CheckFailed` with the
cause; the caller counts the latter as a failed operation.
"""

from __future__ import annotations

import json

import numpy as np

import oracle

EXIT_OK = 0
EXIT_NUMERICAL = 3

#: ||S - S_ref|| allowed on a sweep row.
SWEEP_TOL = 1e-8
#: Pinned tolerances of ``verify`` for S(0)^2 = I and S(0)' S(0) = I.
INVOLUTION_TOL = 1e-9
UNITARITY_TOL = 1e-7
#: ||S(0) - S0_ref|| allowed for a random configuration and for a
#: zero-potential fixture in numeric mode.
S0_TOL = 1e-7
S0_FIXTURE_TOL = 1e-10
#: verify records that state the paper's identities; the others audit
#: numerics (quadrature, probes, cross-checks) and are only counted.
IDENTITY_CHECKS = ("jl_pairing_constancy", "smatrix_unitarity",
                   "smatrix_inverse_symmetry", "s0_involution")


class CheckFailed(Exception):
    """An output broke the contract or disagreed with its reference."""


def _reject_constant(token):
    raise CheckFailed(f"output is not strict JSON: bare {token}")


def strict_json(text: str):
    """Parse ``text`` rejecting NaN and Infinity."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from None


def _exit(rc, expected):
    if rc != expected:
        raise CheckFailed(f"exit code {rc}, expected {expected}")


def _cmat(data) -> np.ndarray:
    a = np.asarray(data, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def _s0_common(report, mu, nu=None):
    if report.get("mu") != mu:
        raise CheckFailed(f"mu = {report.get('mu')}, constructed kernel has {mu}")
    if nu is not None and report.get("nu") != nu:
        raise CheckFailed(f"nu = {report.get('nu')}, expected {nu}")
    S0 = _cmat(report["S0"])
    eye = np.eye(S0.shape[0])
    inv = np.linalg.norm(S0 @ S0 - eye, 2)
    if not inv <= INVOLUTION_TOL:
        raise CheckFailed(f"S0^2 - I = {inv:.2e}")
    uni = np.linalg.norm(S0.conj().T @ S0 - eye, 2)
    if not uni <= UNITARITY_TOL:
        raise CheckFailed(f"S0'S0 - I = {uni:.2e}")
    return S0


def kvalues(kgrid):
    k_min, k_max, steps = kgrid
    return np.array([k_min + (k_max - k_min) * i / (steps - 1) for i in range(steps)])


class SweepCheck:
    """``sweep --format json``: every row present, no error rows, S(k)
    within SWEEP_TOL of the reference."""

    def __init__(self, case):
        self.case = case
        self.ks = kvalues(case.config["kgrid"])
        self.ref = None

    def __call__(self, rc, text):
        _exit(rc, EXIT_OK)
        rows = strict_json(text)["rows"]
        if len(rows) != self.ks.size or any("error" in r for r in rows):
            raise CheckFailed("missing or failed sweep rows")
        got = np.array([r["k"] for r in rows])
        if np.max(np.abs(got - self.ks)) > 1e-12:
            raise CheckFailed("sweep rows are not the configured k grid")
        if self.ref is None:
            c = self.case
            self.ref = oracle.smatrix(c.pieces, c.A, c.B, self.ks)
        S = _cmat([r["S"] for r in rows])
        err = float(np.max(np.linalg.norm(S - self.ref, 2, axis=(1, 2))))
        if not err <= SWEEP_TOL:
            raise CheckFailed(f"S(k) differs from the reference by {err:.2e}")
        return err


class S0Check:
    """``s0``: mu as constructed, S0 an involution and unitary, and S0
    equal to the reference (-I when generic, the exact-derivative
    projector formula when exceptional, the fixture's exact S(0) for a
    fixture family; bit-for-bit in exact mode)."""

    def __init__(self, case, exact=False):
        self.case = case
        self.exact = exact
        self.ref = None

    def __call__(self, rc, text):
        _exit(rc, EXIT_OK)
        report = strict_json(text)
        fx = self.case.fixture
        S0 = _s0_common(report, self.case.mu, fx.nu if fx is not None else None)
        if self.ref is None:
            c = self.case
            self.ref = fx.s0 if fx is not None else oracle.s_zero(c.pieces, c.A, c.B, c.mu)
        err = float(np.linalg.norm(S0 - self.ref, 2))
        if self.exact:
            if not np.array_equal(S0, self.ref):
                raise CheckFailed(f"exact S0 differs from the fixture by {err:.2e}")
        elif not err <= (S0_TOL if fx is None else S0_FIXTURE_TOL):
            raise CheckFailed(f"S0 differs from the reference by {err:.2e}")
        return err


class VerifyCheck:
    """``verify``: exit code 0 exactly when ok, ok the conjunction of the
    records, every record well formed, and every identity check passed.
    Failing audit records are counted, not failed."""

    def __init__(self):
        self.last = ([], 0)   # (failing record names, records) of the last call

    def __call__(self, rc, text):
        self.last = ([], 0)
        report = strict_json(text)
        checks = report["checks"]
        ok = all(c["pass"] for c in checks)
        if report["ok"] != ok:
            raise CheckFailed("ok disagrees with the check records")
        _exit(rc, EXIT_OK if ok else EXIT_NUMERICAL)
        for c in checks:
            if not isinstance(c.get("residual"), (int, float)) or "tol" not in c:
                raise CheckFailed(f"malformed record {c.get('name')}")
        failing = [c["name"] for c in checks if not c["pass"]]
        self.last = (failing, len(checks))
        broken = sorted(set(failing) & set(IDENTITY_CHECKS))
        if broken:
            raise CheckFailed(f"identity checks failed: {broken}")
        return None


class ExampleCheck:
    """``example``: exit 0 and ok, every check passed; in exact mode every
    residual is exactly zero."""

    def __init__(self, exact):
        self.exact = exact

    def __call__(self, rc, text):
        _exit(rc, EXIT_OK)
        report = strict_json(text)
        if not report["ok"] or not all(c["pass"] for c in report["checks"]):
            raise CheckFailed("example checks failed")
        if self.exact and any(c["residual"] != 0.0 for c in report["checks"]):
            raise CheckFailed("exact example has a nonzero residual")
        return None
