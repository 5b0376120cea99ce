"""Two-stage coefficient reconstruction for diffuse optical tomography.

A direct sampling pass locates inclusions from boundary Cauchy data; an
alternating total least-squares solver with mixed L1-H1-box
regularization then recovers the diffusion and absorption fields on a
staggered grid over the unit square.

The package exports what the two-stage workflow needs; everything else
is imported from its submodule (medrec.grid, medrec.forward,
medrec.dsm, medrec.optimizer, ...).
"""

from .grid import StaggeredGrid
from .forward import default_excitations, generate_measurements
from .model import CoefficientPair
from .optimizer import bregman_diagnostics
from .experiments import (RingInclusion, compute_metrics, deserialize_field,
                          make_example)
from .estimators import DirectSamplingLocator, TotalLeastSquaresReconstructor

__version__ = "0.1.0"
