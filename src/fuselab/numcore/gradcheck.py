"""Finite-difference verification of analytic gradients.

Central differences with step h; per-coordinate relative error is
|analytic - numeric| / max(1, |analytic|, |numeric|), and a check passes
when the worst coordinate stays below the tolerance. The analytic pass
builds the graph; the finite-difference probes run under no_graph(),
since only their values are read. Both h and tol must be finite and
positive; anything else is a ConfigError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ConfigError, ContractError, EvaluationError
from .tensor import Tensor, no_graph


@dataclass
class CheckReport:
    max_rel_err: float
    passed: bool
    worst_coord: Optional[Tuple[int, ...]] = None
    analytic_at_worst: float = 0.0
    numeric_at_worst: float = 0.0
    label: str = ""

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        name = f"{self.label}: " if self.label else ""
        return f"{name}max_rel_err={self.max_rel_err:.3e} [{status}]"


def _scalar(out, who: str) -> float:
    if not isinstance(out, Tensor) or out.size != 1:
        raise ContractError(f"{who}: function must return a scalar Tensor")
    return float(out.data.reshape(()))


def _check_settings(h: float, tol: float, who: str) -> None:
    for name, value in (("step h", h), ("tolerance tol", tol)):
        if not (np.isfinite(value) and value > 0):
            raise ConfigError(f"{who}: {name} must be finite and positive, got {value}")


def _compare(evaluate: Callable[[], Tensor], flat: np.ndarray, shape: Tuple[int, ...],
             analytic: np.ndarray, h: float, tol: float, label: str,
             who: str) -> CheckReport:
    """Central differences of evaluate() in each coordinate of flat, a
    writable view of the values it reads, against the analytic gradient.
    Each coordinate is restored, also when a probe raises."""
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        try:
            with no_graph():
                flat[i] = orig + h
                fp = _scalar(evaluate(), who)
                flat[i] = orig - h
                fm = _scalar(evaluate(), who)
        finally:
            flat[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            coord = np.unravel_index(i, shape) if shape else ()
            where = f" of {label}" if label else ""
            raise EvaluationError(f"{who}: non-finite value at coordinate {coord}{where}",
                                  coordinate=coord)
        numeric[i] = (fp - fm) / (2.0 * h)

    a = analytic.reshape(-1)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(numeric)))
    rel = np.abs(a - numeric) / denom
    if rel.size == 0:
        return CheckReport(0.0, True, label=label)
    worst = int(np.argmax(rel))
    err = float(rel[worst])
    return CheckReport(
        max_rel_err=err,
        passed=err < tol,
        worst_coord=np.unravel_index(worst, shape) if shape else (),
        analytic_at_worst=float(a[worst]),
        numeric_at_worst=float(numeric[worst]),
        label=label,
    )


def grad_check(
    f: Callable[[Tensor], Tensor],
    point: Tensor,
    h: float = 1e-5,
    tol: float = 1e-4,
    label: str = "",
) -> CheckReport:
    """Compare the analytic gradient of f at point against central differences."""
    _check_settings(h, tol, "grad_check")
    x = Tensor(np.array(point.data, dtype=np.float64, copy=True))
    out = f(x)
    if not np.isfinite(_scalar(out, "grad_check")):
        raise EvaluationError("grad_check: non-finite value at base point", coordinate=None)
    (analytic,) = out.backward([x])
    if analytic is None:
        analytic = np.zeros_like(x.data)
    probe = Tensor(x.data.copy())
    return _compare(lambda: f(probe), probe.data.reshape(-1), probe.shape, analytic,
                    h, tol, label, "grad_check")


def grad_check_params(
    f: Callable[[], Tensor],
    params: Sequence[Tensor],
    h: float = 1e-5,
    tol: float = 1e-4,
) -> Dict[str, CheckReport]:
    """Check d f() / d p for each parameter tensor of a closed-over model.

    f must be deterministic (fix any noise before calling). Parameter data
    is perturbed in place for the finite-difference side and restored,
    also when a probe raises.
    """
    _check_settings(h, tol, "grad_check_params")
    out = f()
    _scalar(out, "grad_check_params")
    analytic = [np.zeros_like(p.data) if g is None else g
                for p, g in zip(params, out.backward(params))]

    reports: Dict[str, CheckReport] = {}
    for k, p in enumerate(params):
        label = p.name or f"param{k}"
        reports[label] = _compare(f, p.data.reshape(-1), p.shape, analytic[k], h, tol,
                                  label, "grad_check_params")
    return reports
