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

from . import spectral_core, source_models, noise_lab, inversion
from . import experiments, quadrature_oracle
from .spectral_core import *
from .source_models import *
from .noise_lab import *
from .inversion import *
from .experiments import *
from .quadrature_oracle import *

__version__ = "0.1.0"

# Every name in the library modules' __all__, in layout order.
__all__ = [
    name
    for module in (spectral_core, source_models, noise_lab, inversion, experiments,
                   quadrature_oracle)
    for name in module.__all__
] + ["__version__"]
