"""Periodic grid, transform pair, and the Fourier multipliers of the model.

The underlying problem: recover a source term f(x) in

    -u_xx - u_yy = f(x),   u(x, 0) = 0,   u bounded as y -> inf,

from measurements of the trace g(x) = u(x, 1).  In frequency space the
forward map is multiplication by (1 - e^{-|xi|})/xi^2, so direct inversion
multiplies by its reciprocal, which grows like xi^2 and amplifies
high-frequency noise without bound.  Everything downstream (inverters,
regularization, experiments) is built from the three multipliers defined
here applied on a uniform periodic grid.

The kernel uses the magnitude |xi|: the decaying mode e^{-|xi| y} is the
bounded solution of the transformed equation for either sign of xi, and it
is the only choice that maps cos(x) to (1 - e^{-1}) cos(x) at y = 1.
"""

from __future__ import annotations

import dataclasses
from functools import cached_property

import numpy as np

__all__ = [
    "Grid",
    "RealSignal",
    "Spectrum",
    "make_grid",
    "to_spectrum",
    "from_spectrum",
    "forward_multiplier",
    "inverse_multiplier",
    "regularized_multiplier",
    "apply_multiplier",
]


@dataclasses.dataclass(frozen=True)
class Grid:
    """Uniform periodic grid: n samples of [x_min, x_max), right endpoint excluded.

    The frequency set is the symmetric one, k in {-n/2, ..., n/2 - 1}, with
    physical frequencies xi_k = 2*pi*k / (x_max - x_min).  n must be even so
    that set exists, and the squares of the lowest nonzero and the highest
    frequency must neither underflow to 0 nor overflow: the multipliers
    divide by and multiply with them.
    """

    n: int
    x_min: float
    x_max: float

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or isinstance(self.n, bool):
            raise ValueError(f"sample count must be an integer, got {self.n!r}")
        if self.n % 2 != 0:
            raise ValueError(f"sample count must be even, got {self.n}")
        if self.n < 8:
            raise ValueError(f"sample count must be at least 8, got {self.n}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "x_min", float(self.x_min))
        object.__setattr__(self, "x_max", float(self.x_max))
        if not np.isfinite(self.x_max - self.x_min):
            raise ValueError("grid endpoints and length must be finite")
        if self.x_max <= self.x_min:
            raise ValueError(
                f"x_max must exceed x_min, got [{self.x_min}, {self.x_max}]"
            )
        low = 2.0 * np.pi / self.length
        if low * low == 0.0 or self.nyquist * self.nyquist == np.inf:
            raise ValueError(
                f"grid of n={self.n} on [{self.x_min}, {self.x_max}) has "
                "frequencies whose squares leave the float64 range"
            )

    @property
    def length(self) -> float:
        return self.x_max - self.x_min

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n

    @cached_property
    def points(self) -> np.ndarray:
        """Sample points x_j = x_min + j*dx, j = 0..n-1."""
        x = self.x_min + self.dx * np.arange(self.n)
        x.setflags(write=False)
        return x

    @cached_property
    def frequencies(self) -> np.ndarray:
        """Physical frequencies xi_k = 2*pi*k/length, in FFT storage order."""
        xi = 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)
        xi.setflags(write=False)
        return xi

    @cached_property
    def half_frequencies(self) -> np.ndarray:
        """xi_k for k = 0..n/2, the rfft storage order.  The last entry is
        +nyquist where frequencies has -nyquist; the multipliers are even,
        so their weights agree on it bit for bit."""
        xi = 2.0 * np.pi * np.fft.rfftfreq(self.n, d=self.dx)
        xi.setflags(write=False)
        return xi

    @property
    def nyquist(self) -> float:
        """Largest frequency magnitude carried by the grid, pi*n/length."""
        return np.pi * self.n / self.length


def make_grid(n: int, x_min: float, x_max: float) -> Grid:
    """Construct a periodic grid, validating n (even, >= 8) and the interval."""
    return Grid(n, x_min, x_max)


def _as_clean_array(values, n: int, label: str, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype, copy=True)
    if arr.shape != (n,):
        raise ValueError(f"{label} must have shape ({n},), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"non-finite entries in {label}")
    arr.setflags(write=False)
    return arr


@dataclasses.dataclass(frozen=True, eq=False)
class RealSignal:
    """A real-valued function sampled on a Grid.  Immutable after construction."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "values", _as_clean_array(self.values, self.grid.n, "signal values")
        )

    def __eq__(self, other):
        if not isinstance(other, RealSignal):
            return NotImplemented
        return self.grid == other.grid and np.array_equal(self.values, other.values)


@dataclasses.dataclass(frozen=True, eq=False)
class Spectrum:
    """Fourier coefficients of a signal, indexed by wavenumber k in FFT order.

    coeff(k) addresses the mode with frequency xi_k = 2*pi*k/length for
    k in {-n/2, ..., n/2 - 1}.  Spectra of real signals are conjugate
    symmetric: coeff(-k) == conj(coeff(k)).
    """

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _as_clean_array(
            self.coeffs, self.grid.n, "coefficients", complex
        ))

    def coeff(self, k: int) -> complex:
        """Coefficient of wavenumber k, k in {-n/2, ..., n/2 - 1}."""
        half = self.grid.n // 2
        if not (-half <= k < half):
            raise ValueError(f"wavenumber {k} outside [-{half}, {half - 1}]")
        return complex(self.coeffs[k % self.grid.n])

    def __eq__(self, other):
        if not isinstance(other, Spectrum):
            return NotImplemented
        return self.grid == other.grid and np.array_equal(self.coeffs, other.coeffs)


def to_spectrum(s: RealSignal) -> Spectrum:
    """Forward DFT.  The normalization is internal; only the pair contract
    (from_spectrum inverts to_spectrum) and the frequency map are promised."""
    return Spectrum(s.grid, np.fft.fft(s.values))


# Largest imaginary part from_spectrum accepts in an inverse transform,
# relative to max(1, largest real part): rounding residue grows with the
# data, so an absolute bound would reject valid spectra of large signals.
_IMAG_TOL = 1e-10


def from_spectrum(sp: Spectrum) -> RealSignal:
    """Inverse DFT back to real samples.

    The spectrum of a real signal times a real even multiplier is conjugate
    symmetric, so the imaginary part of the inverse is rounding noise and is
    discarded.  A residue of 1e-10 times max(1, the largest real sample) or
    more means the symmetry was lost (for instance through an odd
    multiplier) and raises ValueError.
    """
    raw = np.fft.ifft(sp.coeffs)
    resid = float(np.max(np.abs(raw.imag)))
    tol = _IMAG_TOL * max(1.0, float(np.max(np.abs(raw.real))))
    if resid >= tol:
        raise ValueError(
            f"imaginary residue {resid:.3e} exceeds {tol:.3e}; "
            "the spectrum lost conjugate symmetry"
        )
    return RealSignal(sp.grid, raw.real)


def forward_multiplier(xi):
    """Forward-map symbol (1 - e^{-|xi|})/xi^2, with value 0 at xi = 0.

    Vectorized over xi.  The numerator is evaluated as -expm1(-|xi|) so small
    frequencies do not lose digits to cancellation.  The DC value is a
    convention: bounded solutions force a mean-zero source, so the zero mode
    carries no information and is pinned to 0 here and in both inverses.
    """
    xi = np.asarray(xi, dtype=float)
    a = np.abs(xi)
    safe = np.where(a == 0.0, 1.0, a)
    out = np.where(a == 0.0, 0.0, -np.expm1(-a) / (safe * safe))
    return out if out.ndim else float(out)


def inverse_multiplier(xi):
    """Direct-inversion symbol xi^2/(1 - e^{-|xi|}), 0 at xi = 0.

    Grows like xi^2: applying it to noisy data amplifies the highest
    frequencies the most, which is the instability this package exists to
    tame.  Near zero it behaves like |xi| + xi^2/2.
    """
    xi = np.asarray(xi, dtype=float)
    a = np.abs(xi)
    denom = -np.expm1(-a)
    safe = np.where(denom == 0.0, 1.0, denom)
    out = np.where(a == 0.0, 0.0, (a * a) / safe)
    return out if out.ndim else float(out)


def regularized_multiplier(xi, mu):
    """Filtered inversion symbol xi^2 / ((1 - e^{-|xi|}) (1 + xi^2 mu^2)).

    mu >= 0 is the regularization parameter and must be finite.  mu = 0
    reproduces inverse_multiplier exactly (the extra factor is exactly 1.0
    then); for mu > 0 the symbol is bounded and tends to 1/mu^2 at large |xi|.
    """
    if not 0.0 <= mu < np.inf:
        raise ValueError(f"mu must be finite and nonnegative, got {mu}")
    out = _regularized_table(xi, mu)
    return out if np.ndim(out) else float(out)


def _regularized_table(xi, mu) -> np.ndarray:
    """regularized_multiplier's formula, with mu also an array that
    broadcasts against xi: a column of M values gives an (M, len(xi)) table
    whose row k is bit for bit regularized_multiplier(xi, mu[k]).  The table
    is built in place, so it is the only array of its size.  mu is not
    checked here: sweeps pass the mus of a SweepConfig or of select_mu,
    which are finite and nonnegative."""
    xi = np.asarray(xi, dtype=float)
    base = inverse_multiplier(xi)
    # Factored so mu = 0 divides by exactly 1.0 and is bit-identical to the
    # unregularized symbol; an overflowing (xi mu)^2 gives the limit 0.
    with np.errstate(over="ignore"):
        out = np.asarray(np.multiply(xi, mu))
        np.square(out, out=out)
        out += 1.0
        np.divide(base, out, out=out)
    return out


def apply_multiplier(sp: Spectrum, m) -> Spectrum:
    """Multiply each coefficient by m(xi_k).

    m is called once, on the array Grid.frequencies, and returns the real
    weights; a multiplier that only takes scalars fails.  m must be even in
    xi so that the conjugate symmetry of the input survives.
    """
    weights = np.asarray(m(sp.grid.frequencies), dtype=float)
    return Spectrum(sp.grid, sp.coeffs * weights)
