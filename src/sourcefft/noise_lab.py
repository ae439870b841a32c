"""Seeded synthetic measurement noise and the error metrics used throughout.

Noise generation is a pure function of (NoiseSpec, input): the generator
is PCG64 seeded exactly with NoiseSpec.seed, so identical inputs give
bit-identical outputs on every platform and under any execution schedule.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .spectral_core import Grid, RealSignal

__all__ = [
    "NOISE_MODES",
    "NoiseSpec",
    "add_noise",
    "discrete_l2",
    "relative_l2_error",
]

# The noise modes, spelled as NoiseSpec.mode takes them.
NOISE_MODES = ("iid", "norm_calibrated")


@dataclasses.dataclass(frozen=True)
class NoiseSpec:
    """Recipe for one synthetic noise draw.

    delta is the nominal noise level.  In "iid" mode each sample gets an
    independent Gaussian of mean 0 and standard deviation delta.  In
    "norm_calibrated" mode the Gaussian vector is rescaled so its discrete
    L2 norm equals delta exactly; that mode exists because iid per-sample
    noise only approximates the bound ||g_noisy - g|| <= delta, while the
    theoretical error bound assumes it holds.
    """

    delta: float
    seed: int
    mode: str = "iid"

    def __post_init__(self):
        object.__setattr__(self, "delta", float(self.delta))
        if self.delta < 0:
            raise ValueError(f"noise level must be nonnegative, got {self.delta}")
        if not (0 <= int(self.seed) < 2**64):
            raise ValueError("seed must fit in 64 unsigned bits")
        object.__setattr__(self, "seed", int(self.seed))
        if self.mode not in NOISE_MODES:
            raise ValueError(
                f"noise mode must be one of {NOISE_MODES}, got {self.mode!r}"
            )


def _l2(dx: float, v: np.ndarray) -> float:
    """sqrt(dx * v.v) for one 1-D array; a batched sum would round otherwise."""
    return math.sqrt(dx * float(np.dot(v, v)))


def _noise(grid: Grid, delta: float, seed: int, mode: str) -> np.ndarray:
    """The noise law: n PCG64(seed) Gaussians, scaled by mode to level delta."""
    eps = np.random.Generator(np.random.PCG64(seed)).standard_normal(grid.n)
    if mode == "iid":
        eps *= delta
    else:
        eps *= delta / _l2(grid.dx, eps)
    return eps


def add_noise(g: RealSignal, spec: NoiseSpec) -> RealSignal:
    """Return g plus one seeded noise realization.

    delta = 0 returns g itself (exact, no generator call).
    """
    if spec.delta == 0.0:
        return g
    eps = _noise(g.grid, spec.delta, spec.seed, spec.mode)
    return RealSignal(g.grid, g.values + eps)


def discrete_l2(s: RealSignal) -> float:
    """sqrt(dx * sum(s_j^2)), the grid discretization of the L2 norm.

    The sqrt(dx) weight makes the value consistent under grid refinement and
    matches the spectral Sobolev norm at smoothness order 0 (Parseval).
    """
    return _l2(s.grid.dx, s.values)


def relative_l2_error(estimate: RealSignal, truth: RealSignal) -> float:
    """discrete_l2(estimate - truth) / discrete_l2(truth)."""
    if estimate.grid != truth.grid:
        raise ValueError("estimate and truth live on different grids")
    denom = discrete_l2(truth)
    if denom == 0.0:
        raise ValueError("relative error is undefined against a zero signal")
    return _l2(truth.grid.dx, estimate.values - truth.values) / denom
