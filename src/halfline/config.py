"""Job configuration: JSON schema, validation, and defaults.

A job config is a UTF-8 JSON object:

    {
      "bc":        {...},            # required; see halfline.bc JSON forms
      "potential": {"n": ..., "pieces": [...]},   # optional; default V = 0
      "kgrid":     [k_min, k_max, steps],         # required for sweeps
      "a_choice":  "auto" | number,               # matching point
      "outputs":   [{"csv": "path"} | {"json": "path"}, ...]
    }

"a_choice" becomes :attr:`JobConfig.a`: the number, or None for "auto",
which every command reads as the support edge x_max.  Propagation is exact
per piece and takes no settings, so there is no tolerance block: a
"tolerances" key is an unknown key like any other.

Unknown keys are rejected with the offending field path, and so is any
number that is not finite (the non-standard JSON tokens NaN, Infinity and
-Infinity, or a literal such as 1e999 that overflows a float), any true
or false (no field is boolean, and Python would read them as 1 and 0) and
any string where a number belongs ("0.5", which float() would read).
Sweep grids must start at k_min > 0: the zero-energy point is served by the
dedicated zero-energy command, not by grid evaluation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

from .bc import BCPair, bc_from_json, number_from_json
from .errors import ValidationError
from .solver import Potential, free_potential, potential_from_json

__all__ = ["JobConfig", "parse_config"]

_TOP_KEYS = {"bc", "potential", "kgrid", "a_choice", "outputs"}


@dataclass(frozen=True)
class JobConfig:
    """Validated job description shared by all commands; ``a`` is the
    matching point, None for "auto"."""

    bc: BCPair
    potential: Potential
    kgrid: Optional[Tuple[float, float, int]] = None
    outputs: Tuple[dict, ...] = field(default_factory=tuple)
    a: Optional[float] = None

    def kvalues(self):
        if self.kgrid is None:
            raise ValidationError("this command needs a 'kgrid' entry")
        k_min, k_max, steps = self.kgrid
        if steps == 1:
            return [k_min]
        return [k_min + (k_max - k_min) * i / (steps - 1) for i in range(steps)]


def _reject_constant(token: str):
    raise ValidationError(f"config: non-finite number {token} is not allowed")


def _not_finite(text: str) -> ValidationError:
    shown = text if len(text) <= 24 else text[:20] + "..."
    return ValidationError(f"config: number {shown} is not finite")


def _finite_float(text: str) -> float:
    """json.loads hook: the float of a number literal, refused where it
    overflows (1e999)."""
    value = float(text)
    if not math.isfinite(value):
        raise _not_finite(text)
    return value


#: The least integer whose float rounds to infinity.
_INT_OVERFLOW = 2 ** 1024 - 2 ** 970


def _finite_int(text: str) -> int:
    """json.loads hook: the int of an integer literal, refused where its
    float would be infinite (beyond 1.8e308).  JSON integers carry no
    leading zeros, so a literal of more than 310 characters is such a one;
    ``int`` is not asked to read it."""
    if len(text) <= 310:
        value = int(text)
        if abs(value) < _INT_OVERFLOW:
            return value
    raise _not_finite(text)


def _reject_booleans(node, path: str) -> None:
    if isinstance(node, bool):
        raise ValidationError(f"{path}: {str(node).lower()} is not allowed (no field is boolean)")
    if isinstance(node, dict):
        for key, value in node.items():
            _reject_booleans(value, f"{path}.{key}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            _reject_booleans(value, f"{path}[{i}]")


def parse_config(text) -> JobConfig:
    """Parse and validate a job config from bytes or str."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValidationError(f"config is not UTF-8: {exc}") from exc
    try:
        data = json.loads(
            text, parse_constant=_reject_constant,
            parse_float=_finite_float, parse_int=_finite_int,
        )
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError("config: expected a JSON object")
    extra = set(data) - _TOP_KEYS
    if extra:
        raise ValidationError(f"config: unknown keys {sorted(extra)}")
    # A literal true or false shows in the text; most configs skip the slower walk.
    if "true" in text or "false" in text:
        _reject_booleans(data, "config")
    if "bc" not in data:
        raise ValidationError("config.bc: required")
    bc = bc_from_json(data["bc"], "config.bc")

    if "potential" in data:
        pot = potential_from_json(data["potential"], "config.potential")
        if pot.n != bc.n:
            raise ValidationError(
                f"config: potential size {pot.n} does not match bc size {bc.n}"
            )
    else:
        pot = free_potential(bc.n)

    kgrid = None
    if "kgrid" in data:
        raw = data["kgrid"]
        if (not isinstance(raw, (list, tuple))) or len(raw) != 3:
            raise ValidationError("config.kgrid: expected [k_min, k_max, steps]")
        try:
            k_min, k_max = number_from_json(raw[0]), number_from_json(raw[1])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError("config.kgrid: k_min/k_max must be numbers") from exc
        if not (math.isfinite(k_min) and math.isfinite(k_max)):
            raise ValidationError("config.kgrid: k_min/k_max must be finite")
        steps = raw[2]
        if not isinstance(steps, int) or steps < 1:
            raise ValidationError("config.kgrid: steps must be an integer >= 1")
        if k_min <= 0.0:
            raise ValidationError(
                "config.kgrid: k_min must be > 0 (k = 0 is served by the "
                "zero-energy command)"
            )
        if k_max < k_min:
            raise ValidationError("config.kgrid: k_max must be >= k_min")
        kgrid = (k_min, k_max, steps)

    a = data.get("a_choice", "auto")
    if a == "auto":
        a = None
    else:
        try:
            a = number_from_json(a)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError("config.a_choice: 'auto' or a number") from exc
        if not 0 <= a < math.inf:
            raise ValidationError("config.a_choice: must be finite and >= 0")

    outputs = []
    for i, sink in enumerate(data.get("outputs", [])):
        if not isinstance(sink, dict) or len(sink) != 1 or not (
            set(sink) <= {"csv", "json"}
        ):
            raise ValidationError(
                f"config.outputs[{i}]: expected {{'csv': path}} or {{'json': path}}"
            )
        outputs.append(dict(sink))

    return JobConfig(bc=bc, potential=pot, kgrid=kgrid, outputs=tuple(outputs), a=a)
