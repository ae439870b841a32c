"""Brute-force trapezoid evaluation of the continuous inversion integrals.

This module cross-validates the FFT pipeline by computing the same objects
a completely different way: the data's continuous Fourier transform by
trapezoid in x, then the inversion integral

    f(x) = (1/sqrt(2*pi)) * Int_{-xi_max}^{xi_max}
           e^{i xi x} * xi^2 / ((1 - e^{-|xi|})(1 + xi^2 mu^2)) * g_hat(xi) dxi

by trapezoid in xi.  It is deliberately slow and simple; nothing here reuses
the pipeline's transform or multiplier code.

Choosing the frequency nodes
----------------------------
The data is one period of a periodic signal, so its windowed transform is a
comb of Dirichlet peaks centered on the grid frequencies k*dxi.  Two regimes:

* Nodes exactly on the grid frequencies (aligned_spec: xi_max = Nyquist,
  spacing dxi): the trapezoid sum evaluates each peak at its center, where
  the sample times the spacing equals the peak's weight exactly, and the
  oracle reproduces the periodic pipeline to rounding error.  This is the
  configuration the equivalence tests use.
* Finer spacing or a wider span samples the peaks' sidelobes and the alias
  images above Nyquist, so the quadrature converges to a different object
  (the continuous inversion of the windowed, sampled data), which the
  xi^2-growing kernel pushes far from the periodic reconstruction.  Useful
  for studying the windowed object, wrong for checking the pipeline.

The wide default (default_spec, 4x Nyquist) exists for kernel-tail
exploration; pass aligned_spec(grid) when comparing against the pipeline.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .spectral_core import Grid, RealSignal

__all__ = [
    "QuadratureSpec",
    "aligned_spec",
    "default_spec",
    "continuous_ft",
    "invert_via_quadrature",
    "sobolev_norm_via_quadrature",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclasses.dataclass(frozen=True)
class QuadratureSpec:
    """Trapezoid rule on [-xi_max, xi_max] with m nodes (m >= 64).

    A node must sit exactly at xi = 0, where the kernel's |xi| kink lives,
    so even m is rounded up by one; node_count is the effective odd count.
    """

    xi_max: float
    m: int

    def __post_init__(self):
        if not (self.xi_max > 0 and np.isfinite(self.xi_max)):
            raise ValueError(f"xi_max must be positive and finite, got {self.xi_max}")
        if self.m < 64:
            raise ValueError(f"need at least 64 quadrature nodes, got {self.m}")
        object.__setattr__(self, "m", int(self.m))

    @property
    def node_count(self) -> int:
        return self.m if self.m % 2 == 1 else self.m + 1

    def nodes_and_weights(self):
        """Symmetric nodes with an exact 0 at the center, trapezoid weights."""
        half = (self.node_count - 1) // 2
        pos = np.linspace(0.0, self.xi_max, half + 1)
        nodes = np.concatenate((-pos[:0:-1], pos))
        h = self.xi_max / half
        weights = np.full(self.node_count, h)
        weights[0] = weights[-1] = h / 2.0
        return nodes, weights


def aligned_spec(grid: Grid) -> QuadratureSpec:
    """Nodes exactly on the grid's analysis frequencies: xi_max = Nyquist,
    spacing 2*pi/length.  The configuration that matches the pipeline."""
    if grid.n < 64:
        raise ValueError(
            "aligned nodes need n >= 64 to satisfy the 64-node minimum"
        )
    return QuadratureSpec(xi_max=grid.nyquist, m=grid.n + 1)


def default_spec(grid: Grid) -> QuadratureSpec:
    """Wide span (4x Nyquist) at grid-frequency spacing, for tail studies."""
    return QuadratureSpec(xi_max=4.0 * grid.nyquist, m=max(4 * grid.n + 1, 65))


def continuous_ft(s: RealSignal, xi_nodes) -> np.ndarray:
    """(1/sqrt(2*pi)) * Int s(x) e^{-i xi x} dx over the grid's domain,
    by trapezoid, at each requested frequency.

    The closing sample at x_min + length repeats the first one (the signal
    is one period of a periodic function), which makes the rule exact in x
    for grid frequencies.  For a grid frequency xi_k the value relates to
    the DFT coefficient C_k = to_spectrum(s).coeff(k) by

        continuous_ft(s, xi_k) = dx * exp(-i xi_k x_min) * C_k / sqrt(2*pi),

    which is the scaling map the cross-validation tests rely on.
    """
    grid = s.grid
    xi = np.asarray(xi_nodes, dtype=float)
    x_closed = np.concatenate((grid.points, (grid.x_min + grid.length,)))
    s_closed = np.concatenate((s.values, s.values[:1]))
    w = np.full(grid.n + 1, grid.dx)
    w[0] = w[-1] = grid.dx / 2.0
    phases = np.exp(-1j * np.outer(xi, x_closed))
    return phases @ (w * s_closed) / _SQRT_2PI


def _inversion_kernel(nodes: np.ndarray, mu: float) -> np.ndarray:
    # Same closed form the pipeline's multipliers implement, written out
    # independently here: a^2 / ((1 - e^{-a}) (1 + a^2 mu^2)) with a = |xi|,
    # and the removable value 0 at xi = 0.
    a = np.abs(nodes)
    denom = -np.expm1(-a) * (1.0 + np.square(a * mu))
    safe = np.where(denom == 0.0, 1.0, denom)
    return np.where(a == 0.0, 0.0, np.square(a) / safe)


def invert_via_quadrature(
    g: RealSignal, mu: float, spec: QuadratureSpec
) -> RealSignal:
    """Evaluate the regularized inversion integral at every grid point.

    mu = 0 gives the unregularized integral.  xi_max must cover the grid's
    own frequencies, otherwise the comparison is against a truncated band.
    """
    if not 0.0 <= mu < math.inf:
        raise ValueError(f"mu must be finite and nonnegative, got {mu}")
    if spec.xi_max < g.grid.nyquist - 1e-9:
        raise ValueError(
            f"xi_max={spec.xi_max:g} is below the grid's largest frequency "
            f"{g.grid.nyquist:g}"
        )
    nodes, weights = spec.nodes_and_weights()
    g_hat = continuous_ft(g, nodes)
    integrand = weights * _inversion_kernel(nodes, mu) * g_hat
    recon = np.exp(1j * np.outer(g.grid.points, nodes)) @ integrand
    return RealSignal(g.grid, recon.real / _SQRT_2PI)


def sobolev_norm_via_quadrature(
    f: RealSignal, p: float, spec: QuadratureSpec
) -> float:
    """Trapezoid evaluation of (Int |f_hat(xi)|^2 (1 + xi^2)^p dxi)^(1/2)."""
    if p < 0:
        raise ValueError(f"p must be nonnegative, got {p}")
    if spec.xi_max < f.grid.nyquist - 1e-9:
        raise ValueError(
            f"xi_max={spec.xi_max:g} is below the grid's largest frequency "
            f"{f.grid.nyquist:g}"
        )
    nodes, weights = spec.nodes_and_weights()
    f_hat = continuous_ft(f, nodes)
    total = float(
        np.sum(weights * np.abs(f_hat) ** 2 * (1.0 + np.square(nodes)) ** p)
    )
    return math.sqrt(total)
