"""Recover a 1-D source term from noisy line measurements.

The forward model: the source f(x) drives -u_xx - u_yy = f(x) on a strip,
with u = 0 on the boundary line y = 0 and boundedness at infinity; the data
g(x) = u(x, 1) is observed with noise.  Direct spectral inversion amplifies
noise like xi^2; the regularized inverter damps it with a one-parameter
filter, and an a-priori rule picks that parameter from the noise level and
a smoothness bound, with a provable error guarantee.

Layout: spectral_core (grid, transforms, multipliers), source_models
(built-in sources and reference data), noise_lab (seeded noise, metrics),
inversion (solvers, parameter rule, bound), experiments (sweeps, figures),
quadrature_oracle (independent slow cross-check), cli (command line).
"""

from .spectral_core import (
    Grid,
    RealSignal,
    Spectrum,
    make_grid,
    to_spectrum,
    from_spectrum,
    forward_multiplier,
    inverse_multiplier,
    regularized_multiplier,
    apply_multiplier,
)
from .source_models import SourceSpec, cosine_source, hat_source, sample_source, exact_data
from .noise_lab import NoiseSpec, add_noise, discrete_l2, relative_l2_error
from .inversion import (
    solve_forward,
    estimate_source_unregularized,
    estimate_source_regularized,
    select_mu,
    sobolev_norm,
    error_bound,
)
from .experiments import (
    RULE_MUS,
    SweepConfig,
    SweepRecord,
    BoundFinding,
    cell_seed,
    expected_rel_error,
    default_mu_grid,
    default_config,
    run_mu_sweep,
    run_rule_comparison,
    run_bound_check,
    summarize_rel_error,
    reproduce_figures,
)
from .quadrature_oracle import (
    QuadratureSpec,
    aligned_spec,
    continuous_ft,
    invert_via_quadrature,
    sobolev_norm_via_quadrature,
)

__version__ = "0.1.0"

__all__ = [
    "Grid", "RealSignal", "Spectrum", "make_grid", "to_spectrum",
    "from_spectrum", "forward_multiplier", "inverse_multiplier",
    "regularized_multiplier", "apply_multiplier",
    "SourceSpec", "cosine_source", "hat_source", "sample_source", "exact_data",
    "NoiseSpec", "add_noise", "discrete_l2", "relative_l2_error",
    "solve_forward", "estimate_source_unregularized",
    "estimate_source_regularized", "select_mu", "sobolev_norm", "error_bound",
    "RULE_MUS", "SweepConfig", "SweepRecord", "BoundFinding", "cell_seed",
    "expected_rel_error", "default_mu_grid", "default_config", "run_mu_sweep",
    "run_rule_comparison", "run_bound_check", "summarize_rel_error",
    "reproduce_figures",
    "QuadratureSpec", "aligned_spec", "continuous_ft",
    "invert_via_quadrature", "sobolev_norm_via_quadrature",
    "__version__",
]
