"""Finite-difference verification of analytic gradients.

Central differences with step h; per-coordinate relative error is
|analytic - numeric| / max(1, |analytic|, |numeric|), and a check passes
when the worst coordinate stays below the tolerance. The analytic pass
builds the graph; the finite-difference probes run under no_graph(),
since only their values are read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ContractError, EvaluationError
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


def _eval_scalar(f: Callable[[Tensor], Tensor], point: Tensor, coord) -> float:
    with no_graph():
        out = f(point)
    if not isinstance(out, Tensor):
        raise ContractError("grad_check: function must return a Tensor")
    if out.size != 1:
        raise ContractError(f"grad_check: function must be scalar-valued, got {out.shape}")
    val = float(out.data.reshape(()))
    if not np.isfinite(val):
        raise EvaluationError(
            f"grad_check: non-finite value at coordinate {coord}", coordinate=coord
        )
    return val


def grad_check(
    f: Callable[[Tensor], Tensor],
    point: Tensor,
    h: float = 1e-5,
    tol: float = 1e-4,
    label: str = "",
) -> CheckReport:
    """Compare the analytic gradient of f at point against central differences."""
    x = Tensor(np.array(point.data, dtype=np.float64, copy=True), requires_grad=True)
    out = f(x)
    if not isinstance(out, Tensor) or out.size != 1:
        raise ContractError("grad_check: function must return a scalar Tensor")
    if not np.isfinite(out.data).all():
        raise EvaluationError("grad_check: non-finite value at base point", coordinate=None)
    out.backward()
    analytic = x.grad if x.grad is not None else np.zeros_like(x.data)

    probe = Tensor(x.data.copy())
    flat = probe.data.reshape(-1)
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        coord = np.unravel_index(i, probe.shape) if probe.ndim else ()
        orig = flat[i]
        flat[i] = orig + h
        fp = _eval_scalar(f, probe, coord)
        flat[i] = orig - h
        fm = _eval_scalar(f, probe, coord)
        flat[i] = orig
        numeric[i] = (fp - fm) / (2.0 * h)

    a = analytic.reshape(-1)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(numeric)))
    rel = np.abs(a - numeric) / denom
    if rel.size == 0:
        return CheckReport(0.0, True, label=label)
    worst = int(np.argmax(rel))
    coord = np.unravel_index(worst, probe.shape) if probe.ndim else ()
    err = float(rel[worst])
    return CheckReport(
        max_rel_err=err,
        passed=err < tol,
        worst_coord=coord,
        analytic_at_worst=float(a[worst]),
        numeric_at_worst=float(numeric[worst]),
        label=label,
    )


def grad_check_params(
    f: Callable[[], Tensor],
    params: Sequence[Tensor],
    h: float = 1e-5,
    tol: float = 1e-4,
    labels: Optional[Sequence[str]] = None,
) -> Dict[str, CheckReport]:
    """Check d f() / d p for each parameter tensor of a closed-over model.

    f must be deterministic (fix any noise before calling). Parameter data
    is perturbed in place for the finite-difference side and restored,
    also when a probe raises.
    """
    for p in params:
        p.grad = None
    out = f()
    if not isinstance(out, Tensor) or out.size != 1:
        raise ContractError("grad_check_params: function must return a scalar Tensor")
    out.backward()
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params]
    for p in params:
        p.grad = None

    reports: Dict[str, CheckReport] = {}
    for k, p in enumerate(params):
        label = labels[k] if labels else (p.name or f"param{k}")
        flat = p.data.reshape(-1)
        numeric = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            try:
                with no_graph():
                    flat[i] = orig + h
                    fp = float(f().data.reshape(()))
                    flat[i] = orig - h
                    fm = float(f().data.reshape(()))
            finally:
                flat[i] = orig
            if not (np.isfinite(fp) and np.isfinite(fm)):
                coord = np.unravel_index(i, p.shape) if p.ndim else ()
                raise EvaluationError(
                    f"grad_check_params: non-finite value at {label}{coord}", coordinate=coord
                )
            numeric[i] = (fp - fm) / (2.0 * h)
        a = analytic[k].reshape(-1)
        denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(numeric)))
        rel = np.abs(a - numeric) / denom
        if rel.size == 0:
            reports[label] = CheckReport(0.0, True, label=label)
            continue
        worst = int(np.argmax(rel))
        err = float(rel[worst])
        reports[label] = CheckReport(
            max_rel_err=err,
            passed=err < tol,
            worst_coord=np.unravel_index(worst, p.shape) if p.ndim else (),
            analytic_at_worst=float(a[worst]),
            numeric_at_worst=float(numeric[worst]),
            label=label,
        )
    return reports
