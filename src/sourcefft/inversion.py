"""Forward solver, the two inverters, the parameter rule, and the error bound.

The direct inverse multiplies the data spectrum by xi^2/(1 - e^{-|xi|}) and
is unstable: any noise component at frequency xi comes back amplified by
roughly xi^2.  The regularized inverse damps that growth with the filter
1/(1 + xi^2 mu^2).  The a-priori rule select_mu picks mu from the noise
level delta and a smoothness bound E = ||f||_{H^p}, and error_bound gives
the corresponding worst-case reconstruction error guarantee.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .spectral_core import (
    RealSignal,
    forward_multiplier,
    inverse_multiplier,
    regularized_multiplier,
    to_spectrum,
)

__all__ = [
    "solve_forward",
    "estimate_source_unregularized",
    "estimate_source_regularized",
    "select_mu",
    "sobolev_norm",
    "error_bound",
]

# Largest discrete mean of a source, relative to max(1, max |f|): the
# rounding residue of a demeaned source grows with its size.
_MEAN_TOL = 1e-10


def _zero_mean(f: RealSignal, demean: bool, flag: str = "demean=True") -> RealSignal:
    """f itself when its discrete mean is below _MEAN_TOL * max(1, max |f|);
    otherwise f minus its mean if demean is set, else ValueError, whose
    message names flag as the way to subtract it."""
    mean = float(np.mean(f.values))
    if abs(mean) < _MEAN_TOL * max(1.0, float(np.max(np.abs(f.values)))):
        return f
    if not demean:
        raise ValueError(
            f"source has discrete mean {mean:.6e}, not zero; pass {flag} to subtract it"
        )
    return RealSignal(f.grid, f.values - mean)


def solve_forward(f: RealSignal, demean: bool = False) -> RealSignal:
    """Map a source f to the line measurement g it produces.

    Spectrally: g_hat(xi_k) = forward_multiplier(xi_k) * f_hat(xi_k).  The
    forward map carries no DC information (bounded solutions force mean-zero
    sources), so f must have discrete mean below 1e-10 * max(1, max |f|) in
    magnitude; pass demean=True to subtract the mean instead of failing.
    """
    f = _zero_mean(f, demean)
    weights = forward_multiplier(f.grid.half_frequencies)
    return RealSignal(f.grid, _filter_rows(f.values, weights))


def estimate_source_unregularized(g: RealSignal) -> RealSignal:
    """Direct inversion of the measurement, no damping, no safety net.

    f_hat(xi_k) = inverse_multiplier(xi_k) * g_hat(xi_k).  Exact on noiseless
    data; on noisy data the xi^2 growth of the multiplier makes the estimate
    oscillate wildly.  That is expected behavior, not an error.  The DC mode
    of the estimate is 0 by the multiplier's convention.
    """
    weights = inverse_multiplier(g.grid.half_frequencies)
    return RealSignal(g.grid, _filter_rows(g.values, weights))


def estimate_source_regularized(g: RealSignal, mu: float) -> RealSignal:
    """Filtered inversion with parameter mu >= 0, finite.

    f_hat(xi_k) = regularized_multiplier(xi_k, mu) * g_hat(xi_k).  mu = 0
    coincides with estimate_source_unregularized bit for bit.
    """
    weights = regularized_multiplier(g.grid.half_frequencies, mu)
    return RealSignal(g.grid, _filter_rows(g.values, weights))


def _filter_rows(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """irfft(rfft(values) * weights, n) along the last axis.

    weights holds a real even multiplier on the n/2+1 nonnegative
    frequencies (Grid.half_frequencies), or one per row: its leading axes
    broadcast against those of values, so a (D, 1, n) block of rows times
    (D, J, n/2+1) weights gives row d filtered by each of its J
    multipliers.  One rfft/irfft pair serves all rows, each bit for bit as
    it would come alone with its own weights.  The real transform pair
    keeps the estimate real by construction, so there is no imaginary
    residue to check.
    """
    # Named, so numpy cannot reuse the rfft buffer for the product: under glibc's
    # mmap threshold that reuse raised 2^20 large-n peak RSS from 176 to 191 MB.
    half = np.fft.rfft(values)
    return np.fft.irfft(half * weights, values.shape[-1])


def _check_finite(**params) -> None:
    for name, value in params.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def select_mu(delta: float, E: float = 1.0, p: float = 1.0) -> float:
    """A-priori parameter rule mu = (delta/E)^(1/(p+2)).

    For 0 < delta <= E the returned value satisfies the range law
    delta/E <= mu^2 <= 1 exactly; pow alone can land one ulp outside (seen
    at delta = 1e-3, p = 0), so the result is nudged by ulps when needed.
    delta > E is allowed but emits a warning: the rule then returns mu > 1,
    outside its usual operating range.  Every argument must be finite.
    """
    _check_finite(delta=delta, E=E, p=p)
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if E <= 0:
        raise ValueError(f"E must be positive, got {E}")
    if p < 0:
        raise ValueError(f"p must be nonnegative, got {p}")
    ratio = delta / E
    mu = ratio ** (1.0 / (p + 2.0))
    if ratio > 1.0:
        warnings.warn(
            f"noise level delta={delta:g} exceeds the smoothness bound E={E:g}; "
            f"the rule gives mu={mu:.6g} > 1, outside its usual range",
            UserWarning,
            stacklevel=2,
        )
        return mu
    while mu * mu < ratio:
        mu = math.nextafter(mu, math.inf)
    while mu * mu > 1.0:
        mu = math.nextafter(mu, 0.0)
    return mu


def sobolev_norm(f: RealSignal, p: float) -> float:
    """Smoothness norm (integral of |f_hat(xi)|^2 (1 + xi^2)^p dxi)^(1/2).

    Discretized on the grid's frequencies with the coefficient scaling fixed
    by Parseval: at p = 0 the value equals the discrete L2 norm of f exactly.
    For cos(x) on [0, 2*pi) that gives sqrt(pi) at p = 0 and 2*sqrt(pi) at
    p = 2 (the +-1 modes each pick up a factor (1 + 1)^p).
    """
    if p < 0:
        raise ValueError(f"p must be nonnegative, got {p}")
    sp = to_spectrum(f)
    xi = f.grid.frequencies
    weighted = np.abs(sp.coeffs) ** 2 * (1.0 + xi * xi) ** p
    return math.sqrt(f.grid.dx / f.grid.n * float(np.sum(weighted)))


def error_bound(delta: float, p: float, mu: float) -> float:
    """Worst-case reconstruction error guarantee for the regularized inverse.

    Returns 2 * delta^(p/(p+2)) * (1 + max(1, mu^(2-p))/2), valid when the
    data noise satisfies ||g_noisy - g|| <= delta, the source satisfies
    ||f||_{H^p} <= 1, and mu respects the range law.  For an H^p bound
    E != 1, rescale: the guarantee becomes E * error_bound(delta/E, p, mu).
    Every argument must be finite.
    """
    _check_finite(delta=delta, p=p, mu=mu)
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if p < 0:
        raise ValueError(f"p must be nonnegative, got {p}")
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu}")
    return 2.0 * delta ** (p / (p + 2.0)) * (1.0 + 0.5 * max(1.0, mu ** (2.0 - p)))
