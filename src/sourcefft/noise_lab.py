"""Seeded synthetic measurement noise and the error metrics used throughout.

Noise generation is a pure function of (NoiseSpec, input): the generator
is PCG64 seeded exactly with NoiseSpec.seed, so identical inputs give
bit-identical outputs on every platform and under any execution schedule.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .spectral_core import RealSignal

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


def add_noise(g: RealSignal, spec: NoiseSpec) -> RealSignal:
    """Return g plus one seeded noise realization.

    delta = 0 returns g itself (exact, no generator call).
    """
    if spec.delta == 0.0:
        return g
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    eps = rng.standard_normal(g.grid.n)
    if spec.mode == "iid":
        eps *= spec.delta
    else:
        norm = math.sqrt(g.grid.dx * float(np.dot(eps, eps)))
        eps *= spec.delta / norm
    return RealSignal(g.grid, g.values + eps)


def discrete_l2(s: RealSignal) -> float:
    """sqrt(dx * sum(s_j^2)), the grid discretization of the L2 norm.

    The sqrt(dx) weight makes the value consistent under grid refinement and
    matches the spectral Sobolev norm at smoothness order 0 (Parseval).
    """
    v = s.values
    return math.sqrt(s.grid.dx * float(np.dot(v, v)))


def relative_l2_error(estimate: RealSignal, truth: RealSignal) -> float:
    """discrete_l2(estimate - truth) / discrete_l2(truth)."""
    if estimate.grid != truth.grid:
        raise ValueError("estimate and truth live on different grids")
    denom = discrete_l2(truth)
    if denom == 0.0:
        raise ValueError("relative error is undefined against a zero signal")
    diff = RealSignal(truth.grid, estimate.values - truth.values)
    return discrete_l2(diff) / denom
