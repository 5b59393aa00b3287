"""Translating KL divergence and concentration data into privacy language."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ConcentrationParams:
    """Log-Sobolev constant of the stopped law, Lipschitz constant of the
    distinguishing statistic, and the KL divergence between the paired laws."""

    lsi_const: float
    lip: float
    kl: float = 0.0

    def __post_init__(self):
        if not (self.lsi_const > 0.0):
            raise ValueError(f"lsi_const must be positive, got {self.lsi_const}")
        if not (self.lip > 0.0):
            raise ValueError(f"lip must be positive, got {self.lip}")
        if self.kl < 0.0:
            raise ValueError(f"kl must be nonnegative, got {self.kl}")


def membership_advantage(kl: float) -> float:
    """Pinsker cap min(1, sqrt(kl/2)) on a single-query membership advantage."""
    if kl < 0.0:
        raise ValueError(f"kl must be nonnegative, got {kl}")
    return min(1.0, math.sqrt(kl / 2.0))


def concentration_tail(r: float, lsi_const: float, lip: float) -> float:
    """Gaussian tail exp(-r^2 / (lsi_const * lip^2)) for a Lipschitz statistic."""
    if not (r > 0.0):
        raise ValueError(f"r must be positive, got {r}")
    if not (lsi_const > 0.0 and lip > 0.0):
        raise ValueError("lsi_const and lip must be positive")
    try:
        return math.exp(-(r**2) / (lsi_const * lip**2))
    except (OverflowError, ZeroDivisionError):
        # a square overflowed (r or lip above ~1.34e154) or the denominator
        # underflowed to 0: square the ratio, whose overflow gives the limit 0.0
        s = r / lip
        return math.exp(-(s * s) / lsi_const)


def delta_from_eps(eps: float, cp: ConcentrationParams) -> float:
    """delta(eps) = exp(-(eps - kl)^2 / (lsi_const lip^2)) for eps > kl, else 1."""
    if not (eps > 0.0):
        raise ValueError(f"eps must be positive, got {eps}")
    if eps <= cp.kl:
        return 1.0
    return concentration_tail(eps - cp.kl, cp.lsi_const, cp.lip)


def eps_from_delta(delta: float, cp: ConcentrationParams) -> float:
    """Inverse of delta_from_eps on delta in (0, 1):
    eps = kl + lip * sqrt(lsi_const * ln(1/delta))."""
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    return cp.kl + cp.lip * math.sqrt(cp.lsi_const * math.log(1.0 / delta))
