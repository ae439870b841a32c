"""Seeded synthetic measurement noise and the error metrics used throughout.

Noise generation is a pure function of (NoiseSpec, input): the draw is the
first n normals of Generator(PCG64(NoiseSpec.seed)), so identical inputs
give bit-identical outputs on every platform and under any execution
schedule.  _noise only scales what the generator it is given draws: a sweep
takes all replicates of one delta as the rows of one draw from that delta's
stream, whose row 0 is add_noise's draw of the same seed.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .spectral_core import Grid, RealSignal, _adopt_signal

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
        if not 0.0 <= self.delta < math.inf:
            raise ValueError(
                f"noise level delta must be finite and nonnegative, got {self.delta}"
            )
        if not (0 <= int(self.seed) < 2**64):
            raise ValueError("seed must fit in 64 unsigned bits")
        object.__setattr__(self, "seed", int(self.seed))
        if self.mode not in NOISE_MODES:
            raise ValueError(
                f"noise mode must be one of {NOISE_MODES}, got {self.mode!r}"
            )


def _l2(dx: float, v: np.ndarray) -> np.ndarray:
    """sqrt(dx * v.v) over the last axis; each row's v.v is a (1, n) @ (n, 1)
    matmul, np.dot's BLAS dot, so a batch rounds as each row alone would.
    That needs C-ordered rows (in a sweep only the noise norms come from
    here); on strided rows matmul takes numpy's own loop, which can round a
    row's sum an ulp apart from the same row alone."""
    return np.sqrt(dx * np.matmul(v[..., None, :], v[..., :, None])[..., 0, 0])


def _noise(grid: Grid, delta: float, mode: str, gen: np.random.Generator,
           rows: int = 1) -> np.ndarray:
    """The noise law: gen's next rows * n standard normals as a (rows, n)
    array, row by row, scaled by mode to level delta.  Noise that overflows
    when scaled to delta raises ValueError."""
    eps = gen.standard_normal((rows, grid.n))
    with np.errstate(over="ignore", invalid="ignore"):
        eps *= delta if mode == "iid" else delta / _l2(grid.dx, eps)[:, None]
    if not np.isfinite(eps).all():
        raise ValueError(f"noise level delta={delta!r} overflows float64")
    return eps


def add_noise(g: RealSignal, spec: NoiseSpec) -> RealSignal:
    """Return g plus one seeded noise realization.

    delta = 0 returns g itself (exact, no generator call).
    """
    if spec.delta == 0.0:
        return g
    eps = _noise(g.grid, spec.delta, spec.mode, np.random.default_rng(spec.seed))
    return _adopt_signal(g.grid, g.values + eps[0])


def discrete_l2(s: RealSignal) -> float:
    """sqrt(dx * sum(s_j^2)), the grid discretization of the L2 norm.

    The sqrt(dx) weight makes the value consistent under grid refinement and
    matches the spectral Sobolev norm at smoothness order 0 (Parseval).
    """
    return float(_l2(s.grid.dx, s.values))


def relative_l2_error(estimate: RealSignal, truth: RealSignal) -> float:
    """discrete_l2(estimate - truth) / discrete_l2(truth)."""
    if estimate.grid != truth.grid:
        raise ValueError("estimate and truth live on different grids")
    denom = discrete_l2(truth)
    if denom == 0.0:
        raise ValueError("relative error is undefined against a zero signal")
    return float(_l2(truth.grid.dx, estimate.values - truth.values)) / denom
