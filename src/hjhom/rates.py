"""Convergence-rate measurement: sup-error sweeps and log-log fitting."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .util import format_float, write_rows


@dataclass
class RateReport:
    """(eps, sup-error) pairs with fitted exponent and fit quality.

    beta/prefactor come from least squares of log error against log eps;
    beta_drop_largest refits without the largest eps (stability diagnostic);
    log_fit carries the error ~ C eps log(C2 + t/eps) model; probe_eps and
    probe_error, the sweep's mesh-halving probe, are None for a bare fit.
    """

    eps: np.ndarray
    errors: np.ndarray
    t: float
    beta: float
    prefactor: float
    residual: float
    beta_drop_largest: float
    log_fit: dict = field(default_factory=dict)
    probe_eps: float | None = None
    probe_error: float | None = None

    def to_csv(self, path) -> None:
        write_rows(path, [
            "# schema=hjhom.rate.v1 "
            f"t={format_float(self.t)} beta={format_float(self.beta)} "
            f"prefactor={format_float(self.prefactor)} "
            f"residual={format_float(self.residual)} "
            f"beta_drop_largest={format_float(self.beta_drop_largest)} "
            f"logfit_C={format_float(self.log_fit.get('C', 0.0))} "
            f"logfit_C2={format_float(self.log_fit.get('C2', 0.0))} "
            f"logfit_residual={format_float(self.log_fit.get('residual', 0.0))}"
            + ("" if self.probe_error is None else
               f" probe_eps={format_float(self.probe_eps)} "
               f"probe_error={format_float(self.probe_error)}"), "eps,sup_error"],
            zip(self.eps, self.errors), ",")

    def to_plot_data(self, path) -> None:
        """Two-column gnuplot data: log10(eps), log10(error)."""
        write_rows(path, ["# log10(eps) log10(sup_error)"],
                   ((np.log10(e), np.log10(err)) for e, err in zip(self.eps, self.errors)),
                   " ")


def fit_rate(eps, errors, t: float = 1.0) -> RateReport:
    """Least-squares power law through (eps, error), plus the eps log model."""
    eps = np.asarray(eps, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if len(eps) < 2:
        raise DomainError("need at least two (eps, error) pairs")
    if np.any(np.diff(eps) >= 0):
        raise DomainError("eps must be strictly decreasing")
    if np.any(errors <= 0):
        raise DomainError("errors must be positive to fit exponents")
    beta, pref, resid = _loglog_fit(eps, errors)
    if len(eps) > 2:
        beta_drop, _, _ = _loglog_fit(eps[1:], errors[1:])
    else:
        beta_drop = beta
    log_fit = _log_model_fit(eps, errors, t)
    return RateReport(eps=eps, errors=errors, t=t, beta=beta, prefactor=pref,
                      residual=resid, beta_drop_largest=beta_drop,
                      log_fit=log_fit)


def _loglog_fit(eps, errors):
    x = np.log(eps)
    y = np.log(errors)
    a = np.vstack([x, np.ones_like(x)]).T
    coef, res, *_ = np.linalg.lstsq(a, y, rcond=None)
    beta = float(coef[0])
    pref = float(np.exp(coef[1]))
    fitted = a @ coef
    resid = float(np.sqrt(np.mean((y - fitted) ** 2)))
    return beta, pref, resid


def _log_model_fit(eps, errors, t):
    """Best C, C2 for error ~ C eps log(C2 + t/eps), C2 on a coarse grid."""
    best = None
    for c2 in np.logspace(-1, 3, 41):
        basis = eps * np.log(c2 + t / eps)
        c = float(np.sum(errors * basis) / np.sum(basis * basis))
        if c <= 0:
            continue
        resid = float(np.sqrt(np.mean((np.log(errors) - np.log(c * basis)) ** 2)))
        if best is None or resid < best["residual"]:
            best = {"C": c, "C2": float(c2), "residual": resid}
    return best or {"C": 0.0, "C2": 1.0, "residual": np.inf}
