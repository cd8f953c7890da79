"""Shared domain types: physical parameters, growth sources, grids, and states.

Everything here is an immutable value object; the rest of the package treats
these as plain data.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

import numpy as np

__all__ = [
    "Parameters",
    "SourceFunction",
    "Grid",
    "State",
    "validate",
]


@dataclass(frozen=True)
class Parameters:
    """Physical constants of the chemotaxis-growth system.

    d1, d2   cell / signal diffusion rates (> 0)
    chi      chemotactic sensitivity (any sign; chi < 0 is repulsion)
    alpha    signal production rate (> 0)
    beta     signal degradation rate (> 0)
    kappa    linear birth rate (any sign)
    mu       quadratic damping rate (> 0)
    n        spatial dimension (>= 1)
    """

    d1: float
    d2: float
    chi: float
    alpha: float
    beta: float
    kappa: float
    mu: float
    n: int = 3


def validate(params: Parameters) -> Parameters:
    """Check positivity invariants; returns the parameters unchanged.

    Idempotent by construction: validation never rewrites values.
    """
    for name in ("d1", "d2", "alpha", "beta", "mu"):
        value = getattr(params, name)
        if not np.isfinite(value) or value <= 0.0:
            raise ValueError(f"{name} must be positive, got {value}")
    if int(params.n) != params.n or params.n < 1:
        raise ValueError(f"n must be a positive integer, got {params.n}")
    for name in ("chi", "kappa"):
        if not np.isfinite(getattr(params, name)):
            raise ValueError(f"{name} must be finite")
    if params.kappa > 0.0 and params.kappa / params.mu < sys.float_info.min:
        raise ValueError(
            f"equilibrium kappa/mu = {params.kappa}/{params.mu} is below the "
            "smallest normal double"
        )
    return params


@dataclass(frozen=True)
class SourceFunction:
    """Growth source f(u) together with its quadratic-damping certificate.

    The certificate (a_cert, mu_cert) asserts f(s) <= a_cert - mu_cert * s^2
    for all s >= 0; downstream bounds consume the certificate, not f itself.

    The lab is logistic-only: the config can express no other source, and
    the logistic certificate is closed form.  kind is one of:
      "standard-logistic"  f(s) = kappa*s - mu*s^2
      "zero"               f == 0, no certificate (discretization validation
                           only; f == 0 admits no quadratic-damping ceiling)
    """

    kind: str
    kappa: float = 0.0
    mu: float = 0.0
    a_cert: float = 0.0
    mu_cert: float = 0.0

    @staticmethod
    def standard_logistic(kappa: float, mu: float) -> "SourceFunction":
        """Logistic source kappa*s - mu*s^2 with its tight vertex certificate.

        For kappa > 0 the sharpest pair keeping half the damping is
        (a, mu/2) with a = kappa^2/(2 mu): equality holds at s = kappa/mu.
        For kappa <= 0 the full damping survives with a = 0.
        """
        if mu <= 0.0:
            raise ValueError(f"mu must be positive, got {mu}")
        if kappa > 0.0:
            a_cert, mu_cert = kappa * kappa / (2.0 * mu), mu / 2.0
        else:
            a_cert, mu_cert = 0.0, mu
        return SourceFunction(
            kind="standard-logistic",
            kappa=kappa,
            mu=mu,
            a_cert=a_cert,
            mu_cert=mu_cert,
        )

    @staticmethod
    def zero() -> "SourceFunction":
        return SourceFunction(kind="zero")

    def __call__(self, s, out=None):
        """f(s), as (kappa - mu s) s; into out (not overlapping s) if given."""
        if self.kind == "zero":
            return np.multiply(s, 0.0, out=out)
        f = np.add(np.multiply(s, -self.mu, out=out), self.kappa, out=out)
        return np.multiply(f, s, out=out)

    def lipschitz_bound(self, u: np.ndarray) -> float:
        """Local Lipschitz estimate max |kappa - 2 mu s| over u (for dt control)."""
        return float(self.lipschitz_between(u.min(), u.max()))

    def lipschitz_between(self, lo: float, hi: float) -> float:
        """max |kappa - 2 mu s| over s in [lo, hi]: monotone in s, also
        rounded, so it peaks at lo or hi."""
        if self.kind == "zero":
            return 0.0
        return max(abs(self.kappa - 2.0 * self.mu * x) for x in (lo, hi))


@dataclass(frozen=True)
class Grid:
    """Uniform rectangular/box grid with cell-centered fields.

    extents  side lengths per axis
    cells    cell counts per axis (>= 4 each)
    """

    dim: int
    extents: Tuple[float, ...]
    cells: Tuple[int, ...]

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2, or 3, got {self.dim}")
        if len(self.extents) != self.dim or len(self.cells) != self.dim:
            raise ValueError("extents and cells must have one entry per axis")
        if any(e <= 0 for e in self.extents):
            raise ValueError("extents must be positive")
        if any(int(c) != c or c < 4 for c in self.cells):
            raise ValueError("need at least 4 cells per axis")
        object.__setattr__(self, "extents", tuple(float(e) for e in self.extents))
        object.__setattr__(self, "cells", tuple(int(c) for c in self.cells))

    # computed once per grid; the cache lives outside the compared fields
    @cached_property
    def spacing(self) -> Tuple[float, ...]:
        return tuple(e / c for e, c in zip(self.extents, self.cells))

    @property
    def volume(self) -> float:
        return float(np.prod(self.extents))

    @cached_property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def axis_centers(self, axis: int) -> np.ndarray:
        h = self.spacing[axis]
        return (np.arange(self.cells[axis]) + 0.5) * h

    def meshgrid(self):
        axes = [self.axis_centers(k) for k in range(self.dim)]
        return np.meshgrid(*axes, indexing="ij")


@dataclass(frozen=True)
class State:
    """Cell density u, signal v, and the current time."""

    u: np.ndarray
    v: np.ndarray
    t: float

    def __post_init__(self):
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))
        if self.u.shape != self.v.shape:
            raise ValueError("u and v must live on the same grid")

    def check(self, grid: Grid) -> "State":
        if self.u.shape != grid.cells:
            raise ValueError(
                f"field shape {self.u.shape} does not match grid {grid.cells}"
            )
        if not (np.all(np.isfinite(self.u)) and np.all(np.isfinite(self.v))):
            raise ValueError("u and v must be finite")
        if np.min(self.u) < 0.0 or np.min(self.v) < 0.0:
            raise ValueError("u and v must be nonnegative")
        return self
