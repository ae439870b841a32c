"""Built-in test sources and their reference line measurements.

Two sources cover the two interesting smoothness regimes:

* ``cosine`` -- f(x) = cos(x), a single spectral mode.  Its measurement has
  the closed form g(x) = (1 - e^{-1}) cos(x), which anchors the whole
  pipeline to something checkable by hand.
* ``hat`` -- a triangular bump, continuous but with kinked corners, so its
  spectrum decays only like 1/xi^2.  It represents the piecewise-linear
  sources on which regularized reconstructions visibly smear the corners.
  No closed-form measurement exists; a refined forward solve stands in.

The forward map carries no DC information, so the sampled hat has its
discrete mean subtracted.  The cosine is sampled as is: it is mean-free on
a whole number of periods and keeps its mean on any other interval.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

import numpy as np

from .inversion import solve_forward
from .spectral_core import Grid, RealSignal, _adopt_signal, make_grid

__all__ = ["SourceSpec", "cosine_source", "hat_source", "sample_source", "exact_data"]

_KINDS = ("cosine", "hat")

# Refinement factor for the hat's reference measurement.  The hat spectrum
# decays like xi^-2, so sampling it on a 4x finer grid pushes the aliasing
# error in the reference data well below the reconstruction errors of
# interest (relative difference vs the unrefined forward solve is ~1e-4 at
# n=256; see the matching test).
_HAT_REFINE = 4


@dataclasses.dataclass(frozen=True)
class SourceSpec:
    """Description of a built-in source.

    kind "cosine" takes no parameters.  kind "hat" is the triangle of height
    ``height`` supported on [center - half_width, center + half_width]; the
    support must sit strictly inside the grid's domain at sampling time.
    """

    kind: str
    center: Optional[float] = None
    half_width: Optional[float] = None
    height: Optional[float] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"source kind must be one of {_KINDS}, got {self.kind!r}")
        if self.kind == "hat":
            if self.center is None or self.half_width is None or self.height is None:
                raise ValueError("hat source needs center, half_width and height")
            if not all(map(math.isfinite, (self.center, self.half_width, self.height))):
                raise ValueError("hat center, half_width and height must be finite")
            if self.half_width <= 0:
                raise ValueError(
                    f"hat half_width must be positive, got {self.half_width}"
                )
        else:
            if (self.center, self.half_width, self.height) != (None, None, None):
                raise ValueError("cosine source takes no shape parameters")


def cosine_source() -> SourceSpec:
    return SourceSpec(kind="cosine")


def hat_source(center: float, half_width: float, height: float = 1.0) -> SourceSpec:
    return SourceSpec(
        kind="hat", center=float(center), half_width=float(half_width),
        height=float(height),
    )


def sample_source(spec: SourceSpec, grid: Grid) -> RealSignal:
    """Sample the source on the grid; only the hat is demeaned.

    The hat is shifted down by its discrete mean, roughly half_width *
    height / domain_length.  The cosine keeps its mean off whole periods
    (0.0509 on [0, 3)), which no estimator recovers, so sweep and figure
    errors of such a config carry it; the bound check removes it.  A hat
    so tall that its samples' sum overflows float64 raises ValueError
    naming the height.
    """
    x = grid.points
    if spec.kind == "cosine":
        return _adopt_signal(grid, np.cos(x))
    lo = spec.center - spec.half_width
    hi = spec.center + spec.half_width
    if not (grid.x_min < lo and hi < grid.x_max):
        raise ValueError(
            f"hat support [{lo:g}, {hi:g}] must lie strictly inside "
            f"({grid.x_min:g}, {grid.x_max:g})"
        )
    tent = spec.height * np.maximum(
        0.0, 1.0 - np.abs(x - spec.center) / spec.half_width
    )
    with np.errstate(over="ignore"):
        mean = float(np.mean(tent))
    if not math.isfinite(mean):
        raise ValueError(f"hat height={spec.height:g} overflows float64")
    return _adopt_signal(grid, tent - mean)


def exact_data(spec: SourceSpec, grid: Grid) -> RealSignal:
    """Reference measurement g for the source on the grid.

    cosine: the closed form (1 - e^{-1}) cos(x_j), independent of the
    discrete forward solver (which is what makes it a useful check on it).

    hat: no closed form; the reference is solve_forward on a grid refined
    4x, restricted back to the target points (every 4th sample lands exactly
    on a target point).
    """
    if spec.kind == "cosine":
        return _adopt_signal(grid, -math.expm1(-1.0) * np.cos(grid.points))
    fine = make_grid(_HAT_REFINE * grid.n, grid.x_min, grid.x_max)
    g_fine = solve_forward(sample_source(spec, fine))
    return RealSignal(grid, g_fine.values[::_HAT_REFINE])
